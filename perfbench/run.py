"""marc-cap benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --seed <n> --seconds <s>      # all four workloads

Each workload runs in a process of its own (worker.py), driven by one
closed-loop client, with numpy's BLAS and every other thread pool capped at
one thread; this process only waits for it, so no more threads run than the
machine's two cores. With --trace 0 the last stdout line is one JSON object
with the end-to-end metrics; set-up is measured in three fresh processes
and reported as their median. With --trace 1 it holds the per-layer
metrics of a traced run, per operation. Without --workload every workload
runs untraced and traced, a table with the tracing overhead is printed, and
the last line holds all results.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sumcap_k2", "scan_kmany", "region_k2", "verify_suite")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0
SINGLE_THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMBA_NUM_THREADS",
        "MARC_CAP_THREADS",
    )
}
END_TO_END_UNITS = {"throughput_ops_per_s": "1/s", "latency_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def spawn(workload, seed, seconds, trace, setup_only=False, deadline=None):
    """Run worker.py to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD_ENV)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = CHILD_TIMEOUT_S if deadline is None else max(1.0, deadline - time.monotonic())
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    """One benchmark run of one workload; returns (report, worker result)."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(workload, seed, seconds, trace, setup_only=True, deadline=deadline)["setup_s"])
    result = spawn(workload, seed, seconds, trace, deadline=deadline)
    setups.append(result["setup_s"])
    ops = result["attempted"]
    if trace:
        layers = result["layers"]
        metrics = {name: {"value": value / ops, "unit": _layer_unit(name)} for name, value in layers.items()}
        points = layers["sumcap.rule_points"]
        share = layers["sumcap.rules_classified"] / points if points else 0.0
        metrics["sumcap.classified_share"] = {"value": share, "unit": "ratio"}
        metrics["trace.throughput_ops_per_s"] = {"value": ops / result["program_s"], "unit": "1/s"}
        metrics["trace.latency_p50_ms"] = {"value": result["latency_p50_ms"], "unit": "ms"}
    else:
        values = {
            "throughput_ops_per_s": ops / result["program_s"],
            "latency_p50_ms": result["latency_p50_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}
    unexpected = [f for f in result["failures"] if not f["known_fault"]]
    report = {
        "correct": not unexpected,
        "attempted": ops,
        "failed": result["failed"],
        "metrics": metrics,
    }
    return report, result


def _layer_unit(name):
    return "ms" if name.endswith("ms") else "count"


def describe_failures(result, stream):
    seen = set()
    for failure in result["failures"]:
        key = (failure["item"], failure["error"])
        if key in seen:
            continue
        seen.add(key)
        tag = "known fault" if failure["known_fault"] else "UNEXPECTED"
        print(f"[{result['workload']}] {tag}: item {failure['item']} ({failure['kind']}): {failure['error']}",
              file=stream)


def save(name, payload):
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def run_one(args):
    report, result = measure(args.workload, args.seed, args.seconds, args.trace)
    describe_failures(result, sys.stderr)
    kind = "trace" if args.trace else "result"
    save(f"{kind}-{args.workload}-seed{args.seed}.json", {"report": report, "worker": result})
    print(json.dumps(report))


def run_all(args):
    """Every workload untraced, then traced; a table and the overhead."""
    summary = {}
    for workload in WORKLOADS:
        plain, plain_raw = measure(workload, args.seed, args.seconds, 0)
        traced, _ = measure(workload, args.seed, args.seconds, 1)
        describe_failures(plain_raw, sys.stderr)
        value = lambda report, name: report["metrics"][name]["value"]
        overhead = {
            "latency_p50_ms": value(traced, "trace.latency_p50_ms") / value(plain, "latency_p50_ms") - 1.0,
            "throughput_ops_per_s": value(traced, "trace.throughput_ops_per_s") / value(plain, "throughput_ops_per_s") - 1.0,
        }
        summary[workload] = {"untraced": plain, "traced": traced, "tracing_overhead": overhead}
        print(f"== {workload}: attempted={plain['attempted']} failed={plain['failed']} correct={plain['correct']}")
        for name, metric in plain["metrics"].items():
            print(f"  {name:<30} {metric['value']:14.4f} {metric['unit']}")
        print("  tracing overhead: " + ", ".join(f"{name} {100.0 * v:+.1f}%" for name, v in overhead.items()))
        print("  traced run, per operation (layers that do no work here omitted):")
        for name, metric in traced["metrics"].items():
            if metric["value"]:
                print(f"    {name:<28} {metric['value']:14.4f} {metric['unit']}")
    save(f"summary-seed{args.seed}.json", summary)
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload; all four when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "marc_cap" / "__init__.py").is_file():
        print(f"error: no marc_cap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload:
            run_one(args)
        else:
            run_all(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
