"""Command-line front end.

Five subcommands: sum-capacity report, two-user region CSV export, a
single-parameter intersection classifier, the built-in worked examples with
reference checks, and the verification suites. Output is deterministic for
fixed inputs and every emitted file starts with a manifest digest comment.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    CorrelationVector,
    DfPowerSplit,
    DomainError,
    beta_star,
    bound_functions,
    family_tables,
    full_mask,
    relay_sum_snr,
    subset_label,
)
from .channel import ChannelConfig, ValidationError, awgn_capacity
from .polymatroid import INACTIVE, intersection_max_sum
from .region import build_df_region, build_outer_region
from .sumcap import (
    ACTIVE_CLASS,
    BOTTLENECK,
    EQUALIZED,
    equalizing_set,
    solve_equalizer,
    sum_capacity,
)
from .verify import (
    chord_check,
    dominance_check,
    gamma_sampler,
    grid_maxmin,
    mc_relay_conditional_variance,
    split_sampler,
)

MC_WARN_SAMPLES = 100000

# Trials of the chords and dominance suites.
CHORD_TRIALS = 1000
DOMINANCE_TRIALS = 500

# Built-in two-user configs, given as relay/destination SNRs with N_r = 1.
EXAMPLE_CONFIGS = {
    1: ChannelConfig(2, (6.0, 4.0), 4.0, 1.0, 1.0),
    2: ChannelConfig(2, (6.0, 0.4), 4.0, 1.0, 1.0),
}


class InputError(Exception):
    """Bad config file or flag values; exit code 2."""


class UnsupportedError(Exception):
    """Valid input outside the implemented dimensionality; exit code 3."""


POWER_FIELDS = {"K", "P", "P_r", "N_r", "N_delta"}
SNR_FIELDS = {"snr_relay", "snr_dest", "snr_relay_dest"}


def load_config(path):
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"config parse error in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("config must be a JSON object")
    keys = set(data)
    if keys & POWER_FIELDS and keys & SNR_FIELDS:
        raise InputError("config mixes power and SNR fields; use exactly one form")
    if keys & SNR_FIELDS:
        if keys - SNR_FIELDS:
            raise InputError(f"unknown config field(s): {sorted(keys - SNR_FIELDS)}")
        if SNR_FIELDS - keys:
            raise InputError(f"missing config field(s): {sorted(SNR_FIELDS - keys)}")
        return _config_from_snr(data)
    required = POWER_FIELDS - {"K"}
    if keys - POWER_FIELDS:
        raise InputError(f"unknown config field(s): {sorted(keys - POWER_FIELDS)}")
    if required - keys:
        raise InputError(f"missing config field(s): {sorted(required - keys)}")
    P = _floats(data, "P")
    K = data.get("K", len(P))
    return ChannelConfig(K, P, *(_number(data[name], name) for name in ("P_r", "N_r", "N_delta")))


def _number(value, name):
    """A JSON number as a float; a boolean, a string or anything else is an
    error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"config field error: {name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise InputError(f"config field error: {name} is too large: {exc}") from exc


def _floats(data, name):
    """A config list field as a tuple of floats, one JSON number each."""
    if not isinstance(data[name], list):
        raise InputError(f"config field error: {name} must be a list of numbers, got {data[name]!r}")
    return tuple(_number(x, f"{name}[{k + 1}]") for k, x in enumerate(data[name]))


def _config_from_snr(data):
    """SNR-form config, normalized to N_r = 1 (echoed in the config line)."""
    snr_r = _floats(data, "snr_relay")
    snr_d = _floats(data, "snr_dest")
    snr_rd = _number(data["snr_relay_dest"], "snr_relay_dest")
    if len(snr_r) != len(snr_d):
        raise InputError(f"snr_relay has {len(snr_r)} entries, snr_dest has {len(snr_d)}")
    if not snr_r:
        raise InputError("snr_relay is empty")
    # Both tests are written so that a NaN fails them.
    if not all(x > 0 for x in (*snr_r, *snr_d, snr_rd)):
        raise InputError("SNR values must be positive")
    if not all(math.isfinite(x) for x in (*snr_r, *snr_d, snr_rd)):
        raise InputError("SNR values must be finite")
    n_d = snr_r[0] / snr_d[0]
    for k in range(1, len(snr_r)):
        other = snr_r[k] / snr_d[k]
        if not abs(other - n_d) <= 1e-9 * max(1.0, n_d):
            raise InputError(f"inconsistent N_d: source 1 implies {n_d!r}, source {k + 1} implies {other!r}")
    if n_d < 1.0 - 1e-12:
        raise InputError(f"snr_dest exceeds snr_relay (N_d={n_d!r} < N_r=1); channel is not degraded")
    return ChannelConfig(len(snr_r), snr_r, snr_rd * n_d, 1.0, max(0.0, n_d - 1.0))


def _manifest_digest(command, config_path, config, params):
    doc = {
        "command": command,
        "config_source": None if config_path is None else str(config_path),
        "config": None
        if config is None
        else {"K": config.K, "P": list(config.P), "P_r": config.P_r, "N_r": config.N_r, "N_delta": config.N_delta},
        "params": params,
        "version": __version__,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _config_line(config):
    powers = ",".join(f"{p:.6f}" for p in config.P)
    return (
        f"config K={config.K} P={powers} P_r={config.P_r:.6f} "
        f"N_r={config.N_r:.6f} N_delta={config.N_delta:.6f}"
    )


def _print_solution(result):
    sol = result["solution"]
    if sol.regime == BOTTLENECK:
        print(f"regime=Bottleneck R={sol.sum_rate:.6f} status={result['status']}")
        return
    print(
        f"regime=Equalized root={sol.root:.6f} c={sol.constraint_value:.6f} "
        f"R={sol.sum_rate:.6f} status={result['status']}"
    )
    scan = result["evidence"]
    print(f"scan family={scan.family} resolution={scan.resolution:.6f} verdict={scan.verdict}")
    if scan.active_intervals:
        for name in sorted(scan.active_intervals):
            runs = scan.active_intervals[name]
            if runs:
                spans = ";".join(f"[{a:.6f},{b:.6f}]" for a, b in runs)
                print(f"active {name}={spans}")


def cmd_sumcap(args):
    config = load_config(args.config)
    result = sum_capacity(config, resolution=args.resolution)
    digest = _manifest_digest("sumcap", args.config, config, {"resolution": args.resolution})
    print(f"# manifest {digest}")
    print(_config_line(config))
    _print_solution(result)
    return 0


def cmd_region(args):
    config = load_config(args.config)
    if not 0.0 < args.step <= 1.0:
        raise InputError(f"step must be in (0, 1], got {args.step!r}")
    if config.K != 2:
        raise UnsupportedError(f"region export requires K=2, got K={config.K}")
    out = Path(args.out)
    if not out.name:
        raise InputError(f"--out needs a file name, got {args.out!r}")
    names = ("inner", "outer") if args.bound == "both" else (args.bound,)
    # Both polygons are built before either file is written, so a step the
    # lattice cap rejects leaves no CSV behind.
    polys = [(build_df_region if name == "inner" else build_outer_region)(config, args.step) for name in names]
    params = {"bound": args.bound, "step": args.step, "out": str(args.out)}
    digest = _manifest_digest("region", args.config, config, params)
    report = [f"# manifest {digest}", _config_line(config)]
    for name, poly in zip(names, polys):
        path = out if len(names) == 1 else out.with_suffix(f".{name}.csv")
        lines = [f"# manifest {digest}", "R1,R2", *(f"{v[0]:.17g},{v[1]:.17g}" for v in poly.vertices)]
        try:
            path.write_text("\n".join(lines) + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from exc
        report.append(f"wrote {path} bound={name} vertices={len(poly.vertices)}")
    print("\n".join(report))
    return 0


def _parse_floats(text, flag):
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise InputError(f"{flag} expects comma-separated numbers: {exc}") from exc


def cmd_classify(args):
    config = load_config(args.config)
    if (args.alpha is None) == (args.gamma is None):
        raise InputError("exactly one of --alpha or --gamma is required")
    if args.gamma is not None and args.beta is not None:
        raise InputError("--beta applies to --alpha only")
    K = config.K
    family, name, text = ("inner", "alpha", args.alpha) if args.alpha is not None else ("outer", "gamma", args.gamma)
    values = _parse_floats(text, f"--{name}")
    if len(values) == K - 1:
        solution = solve_equalizer(config)
        if solution.regime != EQUALIZED:
            raise InputError(f"cannot solve the last {name}: the Bottleneck regime has no equalizing constraint")
        values = equalizing_set(config, solution, family).complete(values)
    elif len(values) != K:
        raise InputError(f"--{name} expects {K} values (or {K - 1} with the last solved), got {len(values)}")
    if family == "inner":
        beta = _parse_floats(args.beta, "--beta") if args.beta is not None else list(beta_star(config, values))
        if len(beta) != K:
            raise InputError(f"--beta expects {K} values, got {len(beta)}")
        split = DfPowerSplit(tuple(values), tuple(beta))
        f1, f2 = bound_functions(config, split)
        params = {"alpha": list(split.alpha), "beta": list(split.beta)}
        param_line = (
            "params alpha=" + ",".join(f"{a:.6f}" for a in split.alpha)
            + " beta=" + ",".join(f"{b:.6f}" for b in split.beta)
        )
    else:
        vec = CorrelationVector(tuple(values))
        f1, f2 = bound_functions(config, vec)
        params = {"gamma": list(vec.gamma)}
        param_line = "params gamma=" + ",".join(f"{g:.6f}" for g in vec.gamma)
    digest = _manifest_digest("classify", args.config, config, params)
    print(f"# manifest {digest}")
    print(_config_line(config))
    print(param_line)
    for mask in range(1, 1 << K):
        print(f"subset {subset_label(mask)}: f1={f1(mask):.6f} f2={f2(mask):.6f}")
    outcome = intersection_max_sum(f1, f2)
    line = (
        f"max_sum={outcome.max_sum_rate:.6f} kind={outcome.kind} "
        f"argmin={subset_label(outcome.argmin_subset)}"
    )
    if K == 2:
        line += f" case={outcome.two_user_case}"
    print(line)
    return 0


def _check(label, value, reference, tol):
    return abs(value - reference) <= tol, f"{label}={value:.6f} reference={reference:.6f} tol={tol}"


def _example1_checks(config, sol, scan):
    yield _check("root", sol.root, 0.408, 1e-3)
    yield _check("alpha1_lo", scan.feasible_box["alpha1"][0], 0.833, 5e-3)
    yield _check("alpha2_lo", scan.feasible_box["alpha2"][0], 0.750, 5e-3)
    full_box = scan.active_intervals["alpha1"] == [scan.feasible_box["alpha1"]]
    yield full_box and scan.verdict == ACTIVE_CLASS, f"full-rule-set-active={full_box} verdict={scan.verdict}"


def _example2_checks(config, sol, scan):
    yield _check("root", sol.root, 0.197, 1e-3)
    yield _check("alpha1_lo", scan.feasible_box["alpha1"][0], 0.961, 5e-3)
    yield _check("alpha2_lo", scan.feasible_box["alpha2"][0], 0.416, 1e-2)
    runs1, runs2 = scan.active_intervals["alpha1"], scan.active_intervals["alpha2"]
    if len(runs1) == 1 and len(runs2) == 1:
        yield _check("active_alpha1_lo", runs1[0][0], 0.961, 5e-3)
        yield _check("active_alpha1_hi", runs1[0][1], 0.979, 5e-3)
        yield _check("active_alpha2_lo", runs2[0][0], 0.731, 5e-3)
        yield _check("active_alpha2_hi", runs2[0][1], 1.000, 5e-3)
    else:
        yield False, f"active-runs count={len(runs1)}"
    # Equalizing rules beyond the active sub-interval must classify as the
    # two-user inactive case 2.
    for a1 in (0.985, 0.99, 1.0):
        alpha = equalizing_set(config, sol, "inner").complete([a1])
        split = DfPowerSplit(tuple(alpha), tuple(beta_star(config, alpha)))
        outcome = intersection_max_sum(*bound_functions(config, split))
        good = outcome.kind == INACTIVE and outcome.two_user_case == "2"
        yield good, f"off-interval alpha1={a1:.6f} kind={outcome.kind} case={outcome.two_user_case}"


def cmd_examples(args):
    digest = _manifest_digest("examples", None, None, {"resolution": 1e-3})
    print(f"# manifest {digest}")
    ok = True
    for number, checks in ((1, _example1_checks), (2, _example2_checks)):
        config = EXAMPLE_CONFIGS[number]
        print(f"Example {number}:")
        print(_config_line(config))
        result = sum_capacity(config, resolution=1e-3)
        _print_solution(result)
        for good, text in checks(config, result["solution"], result["evidence"]):
            print(f"  check {text} -> {'PASS' if good else 'FAIL'}")
            ok &= good
    print(f"examples result={'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _verify_mc(config, args):
    if args.n < MC_WARN_SAMPLES:
        print(f"WARN mc sample count n={args.n} is low; z-scores will be noisy")
    K = config.K
    full = full_mask(K)
    g = gamma_sampler(config, args.seed)(1)[0]
    boundary = [0.0] * K
    boundary[0] = 1.0
    checks = [
        ([0.0] * K, full, 1),
        (list(g), 1, 1),
        (list(g), full, 2),
        (list(g), 1, 2),
        (boundary, full ^ 1, 1),
    ]
    for i, (gamma, S, mode) in enumerate(checks):
        rep = mc_relay_conditional_variance(config, gamma, S, mode=mode, n=args.n, seed=args.seed + i)
        tail = " degenerate" if rep.degenerate else ""
        yield rep.passed, (
            f"mc mode={rep.mode} S={subset_label(rep.subset)} "
            f"target={rep.target:.6f} estimate={rep.estimate:.6f} z={rep.z_score:+.6f}{tail}"
        )


def _verify_chords(config, args):
    K = config.K
    seed = args.seed
    full = full_mask(K)
    # The relay cutset bound is concave in the scalar correlation statistic
    # x, not in gamma itself (the chord through (1,0,..) and (0,1,0,..)
    # breaks it), so its chord check runs on the x interval.
    x_max = float(np.sqrt(config.lam_vector().sum()))
    x_rng = np.random.default_rng(seed + 1)
    # Each check maps a batch of rows to one value per row. The sum-statistic
    # check evaluates bounds.relay_sum_snr, apart from the bound tables.
    checks = [
        ("dest-cut-full", lambda G: family_tables(config, "outer", G)[0][:, full], gamma_sampler(config, seed)),
        (
            "relay-cut-sumstat",
            lambda X: np.vectorize(awgn_capacity)(relay_sum_snr(config, X[:, 0])),
            lambda n: x_rng.random(n)[:, None] * x_max,
        ),
        (
            "dest-df-full",
            lambda V: family_tables(config, "inner", V[:, :K], V[:, K:])[0][:, full],
            split_sampler(config, seed + 2),
        ),
        (
            "relay-df-full",
            lambda V: family_tables(config, "inner", V[:, :K], V[:, K:])[1][:, full],
            split_sampler(config, seed + 3),
        ),
    ]
    for name, fn, sampler in checks:
        rep = chord_check(fn, sampler, trials=CHORD_TRIALS, seed=seed)
        yield rep.passed, f"chords {name} trials={rep.trials}"
    if args.with_negative_control:
        rep = chord_check(
            lambda G: np.einsum("ij,ij->i", G, G), gamma_sampler(config, seed + 4), trials=CHORD_TRIALS, seed=seed
        )
        yield rep.passed, f"chords negative-control trials={rep.trials} (a convex function must fail)"


def _verify_grid(config, args):
    if config.K > 3:
        print(f"WARN grid suite skipped: dense search supports K<=3, got K={config.K}")
        return
    solution = solve_equalizer(config)
    fine = grid_maxmin(config, step=0.01)
    diff = abs(fine.value - solution.sum_rate)
    yield diff <= 1e-3, f"grid value={fine.value:.6f} closed_form={solution.sum_rate:.6f} diff={diff:.6f}"
    coarse = grid_maxmin(config, step=0.02)
    mono = fine.value >= coarse.value - 1e-12
    yield mono, f"grid refinement-monotone coarse={coarse.value:.6f} fine={fine.value:.6f}"


def _verify_dominance(config, args):
    rep = dominance_check(config, trials=DOMINANCE_TRIALS, seed=args.seed)
    yield rep.passed, f"dominance trials={rep.trials} max_gap={rep.max_gap:.2e}"


# Each suite yields its checks as (passed, text); WARN lines print in place.
VERIFY_SUITES = {"mc": _verify_mc, "chords": _verify_chords, "grid": _verify_grid, "dominance": _verify_dominance}


def cmd_verify(args):
    config = load_config(args.config)
    if args.n < config.K + 1:
        raise InputError(f"--n must be at least K + 1 = {config.K + 1}, got {args.n}")
    if args.seed < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")
    suites = [name for name in VERIFY_SUITES if args.suite in (name, "all")]
    params = {"suite": args.suite, "seed": args.seed, "n": args.n, "negative_control": args.with_negative_control}
    digest = _manifest_digest("verify", args.config, config, params)
    print(f"# manifest {digest}")
    print(_config_line(config))
    passed = []
    for name in suites:
        for ok, text in VERIFY_SUITES[name](config, args):
            print(f"{'PASS' if ok else 'FAIL'} {text}")
            passed.append(ok)
    all_pass = all(passed)
    print(f"verify result={'PASS' if all_pass else 'FAIL'} checks={len(passed)}")
    return 0 if all_pass else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="marc-cap",
        description="Sum-capacity bounds and rate regions of the degraded Gaussian multiaccess relay channel.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sumcap", help="max-min sum-rate, regime, and rule-set scan")
    p.add_argument("config")
    p.add_argument("--resolution", type=float, default=1e-3, help="rule-set scan resolution (default 1e-3)")
    p.set_defaults(func=cmd_sumcap)

    p = sub.add_parser("region", help="export two-user rate-region polygons as CSV")
    p.add_argument("config")
    p.add_argument("--bound", choices=("inner", "outer", "both"), default="both")
    p.add_argument("--step", type=float, default=0.02, help="parameter lattice step (default 0.02)")
    p.add_argument("--out", default="region.csv", help="output CSV path (suffixed per bound for 'both')")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("classify", help="classify one parameter choice's polymatroid intersection")
    p.add_argument("config")
    p.add_argument("--alpha", help="comma-separated fresh-power fractions (K values, or K-1 to solve the last)")
    p.add_argument("--beta", help="comma-separated relay split (defaults to the proportional optimum)")
    p.add_argument("--gamma", help="comma-separated correlations (K values, or K-1 to solve the last)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("examples", help="run the built-in worked examples against their reference values")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("verify", help="run independent verification suites")
    p.add_argument("config")
    p.add_argument("--suite", choices=(*VERIFY_SUITES, "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=1000000, help="Monte-Carlo sample count (default 1e6)")
    p.add_argument("--with-negative-control", action="store_true",
                   help="also run the deliberately convex chord control (reports FAIL by design)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # A command's report is printed only once it returns, so an error
    # leaves stdout empty and stderr holds the one error line.
    report = io.StringIO()
    try:
        with contextlib.redirect_stdout(report):
            code = args.func(args)
    except (InputError, UnsupportedError, ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, UnsupportedError) else 2
    sys.stdout.write(report.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
