"""One workload in one process, driven by a single closed-loop client.

Started by run.py with the monotonic time at which it spawned this process,
so the set-up time reported here covers interpreter start, importing
marc_cap from the checkout's src/, drawing the inputs and one warm-up
operation. The timed phase then repeats whole rounds of the workload's
operations, the next starting when the previous returns, and stops at the
round boundary nearest --seconds (after at least two rounds). Only the program's calls are on the
clock; each output is checked between operations, off it. The result is
one JSON line on stdout.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MIN_ROUNDS = 2
# Stop starting rounds past this point, whatever --seconds asks.
HARD_STOP_S = 120.0


def import_program():
    """Import marc_cap from the checkout being measured, never from an
    installed copy."""
    if not (SRC / "marc_cap" / "__init__.py").is_file():
        raise SystemExit(f"error: no marc_cap package under {SRC}")
    sys.path.insert(0, str(SRC))
    import marc_cap

    if Path(marc_cap.__file__).resolve().parent != (SRC / "marc_cap").resolve():
        raise SystemExit(f"error: marc_cap imported from {marc_cap.__file__}, not {SRC}")


def timed_phase(workload, items, seconds, tracer):
    """Run whole rounds; return (latencies in s, failures, program time
    of each round in s)."""
    latencies = []
    failures = []
    round_s = []
    start = time.monotonic()
    while True:
        for index, item in enumerate(items):
            if tracer:
                tracer.enabled = True
            began = time.perf_counter()
            try:
                output = workload.run(item)
                error = None
            except Exception:
                error = traceback.format_exc(limit=3)
            latencies.append(time.perf_counter() - began)
            if tracer:
                tracer.enabled = False
            if error is None:
                try:
                    workload.check(item, output)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                if tracer and hasattr(workload, "counters"):
                    for name, value in workload.counters(output).items():
                        tracer.counters[name] = tracer.counters.get(name, 0) + value
            if error is not None:
                failures.append({"item": index, "kind": item.kind, "known_fault": item.known_fault, "error": error})
        round_s.append(sum(latencies[-len(items):]))
        elapsed = time.monotonic() - start
        # Stop at the round boundary nearest the requested length.
        if len(round_s) >= MIN_ROUNDS and (elapsed + 0.5 * elapsed / len(round_s) >= seconds or elapsed > HARD_STOP_S):
            return latencies, failures, round_s


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    import numpy as np

    import workloads

    workdir = OUT / f"tmp-{os.getpid()}"
    try:
        workload = workloads.make(args.workload, workdir)
        items = workload.inputs(np.random.default_rng(args.seed))
        workload.warm()
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = None
        if args.trace:
            import marc_cap

            from spans import Tracer

            tracer = Tracer()
            tracer.install(marc_cap.__name__)
        latencies, failures, round_s = timed_phase(workload, items, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "round_s": round_s,
        "round_size": len(items),
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures,
        "program_s": sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"] = tracer.layer_totals()
        result["functions"] = tracer.table()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
