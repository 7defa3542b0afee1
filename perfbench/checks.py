"""Correctness checks for every benchmark operation.

Each check raises CheckFailed with a reason when the program's output
disagrees with the benchmark's own computation (reference.py) or breaks a
property the method must have. None compares against saved output.
"""

import re

import numpy as np

import reference as ref

# Tolerances taken from the examples command's reference table.
EXAMPLE_REFERENCES = {
    1: {"root": (0.408, 1e-3)},
    2: {"root": (0.197, 1e-3), "active_alpha1": ((0.961, 0.979), 5e-3)},
}
VALUE_TOL = 1e-9
CONSTRAINT_TOL = 1e-9
REGION_TOL = 1e-9
VERIFY_GRID_TOL = 1e-3
VERIFY_LAST_LINE = "verify result=PASS checks=12"
CHALLENGE_DRAWS = 5000
CHALLENGE_SEED = 20240


class CheckFailed(Exception):
    """An operation's output failed a benchmark check."""


def _spec_args(spec):
    return spec["P"], spec["P_r"], spec["N_r"], spec["N_delta"]


def check_value(spec, result):
    """The reported sum capacity, regime and root against the benchmark's
    own bisection of the max-min."""
    regime, x, value = ref.maxmin(*_spec_args(spec))
    sol = result["solution"]
    if sol.regime != regime:
        raise CheckFailed(f"regime {sol.regime}, expected {regime}")
    if abs(result["value"] - value) > VALUE_TOL:
        raise CheckFailed(f"value {result['value']!r} differs from max-min {value!r} by more than {VALUE_TOL}")
    if abs(sol.root - x) > VALUE_TOL * max(1.0, x):
        raise CheckFailed(f"root {sol.root!r} differs from {x!r}")
    scan = result["evidence"]
    if regime == "Bottleneck":
        if result["status"] != "Exact":
            raise CheckFailed(f"Bottleneck status {result['status']}, expected Exact")
        return
    expected = "Exact" if scan.verdict == "ActiveClass" else "UpperBoundOnly"
    if result["status"] != expected:
        raise CheckFailed(f"status {result['status']} with verdict {scan.verdict}")


def alpha2_of_alpha1(spec, c, a1):
    lam = np.asarray(spec["P"]) / max(spec["P"])
    return 1.0 - (c - lam[0] * (1.0 - a1)) / lam[1]


def feasible_alpha1(spec):
    """Feasible alpha_1 interval of the K=2 equalizer slice."""
    _, x, _ = ref.maxmin(*_spec_args(spec))
    lam = np.asarray(spec["P"]) / max(spec["P"])
    c = x * x
    return max(0.0, 1.0 - c / lam[0]), min(1.0, 1.0 - (c - lam[1]) / lam[0]), c


def check_two_user_scan(spec, result, resolution):
    """Active alpha_1 runs of a K=2 scan: inside the feasible interval, the
    midpoint of each run Active and the grid points just outside it not
    Active, by the benchmark's own DF bounds with the proportional relay
    split; a run exists exactly when the status is Exact."""
    check_value(spec, result)
    lo, hi, c = feasible_alpha1(spec)
    scan = result["evidence"]
    runs = scan.active_intervals["alpha1"]
    if (result["status"] == "Exact") != bool(runs):
        raise CheckFailed(f"status {result['status']} with {len(runs)} active runs")
    probes = []
    for a, b in runs:
        if not (lo - 1e-12 <= a <= b <= hi + 1e-12):
            raise CheckFailed(f"active run [{a!r}, {b!r}] outside the feasible interval [{lo!r}, {hi!r}]")
        probes.append((0.5 * (a + b), True, f"midpoint of run [{a:.6f}, {b:.6f}]"))
        if a > lo + 0.5 * resolution:
            probes.append((max(lo, a - resolution), False, f"grid point below run start {a:.6f}"))
        if b < hi - 0.5 * resolution:
            probes.append((min(hi, b + resolution), False, f"grid point above run end {b:.6f}"))
    if probes:
        a1 = np.array([p for p, _, _ in probes])
        alphas = np.clip(np.stack([a1, alpha2_of_alpha1(spec, c, a1)], axis=1), 0.0, 1.0)
        gaps = ref.df_gap(*_spec_args(spec), alphas)
        for (_, active, where), gap in zip(probes, gaps):
            if active and gap < -ref.LABEL_TOL:
                raise CheckFailed(f"{where} classifies Inactive (gap {gap:.3e})")
            if not active and gap > ref.LABEL_TOL:
                raise CheckFailed(f"{where} classifies Active (gap {gap:.3e})")
    expected_partner = sorted((alpha2_of_alpha1(spec, c, b), alpha2_of_alpha1(spec, c, a)) for a, b in runs)
    got_partner = scan.active_intervals["alpha2"]
    if len(got_partner) != len(expected_partner) or not np.allclose(
        np.asarray(got_partner, dtype=float).reshape(-1), np.asarray(expected_partner).reshape(-1), atol=1e-9, rtol=0
    ):
        raise CheckFailed(f"alpha2 runs {got_partner} do not map from the alpha1 runs {runs}")


def check_example(index, spec, result):
    """The examples command's reference values for built-in example 1 or 2."""
    refs = EXAMPLE_REFERENCES[index]
    root, tol = refs["root"]
    if abs(result["solution"].root - root) > tol:
        raise CheckFailed(f"example {index} root {result['solution'].root:.6f}, reference {root} +- {tol}")
    runs = result["evidence"].active_intervals["alpha1"]
    if "active_alpha1" in refs:
        (lo, hi), tol = refs["active_alpha1"]
        if len(runs) != 1 or abs(runs[0][0] - lo) > tol or abs(runs[0][1] - hi) > tol:
            raise CheckFailed(f"example {index} active alpha1 {runs}, reference [{lo}, {hi}] +- {tol}")
    else:
        box_lo, box_hi, _ = feasible_alpha1(spec)
        if len(runs) != 1 or abs(runs[0][0] - box_lo) > 1e-9 or abs(runs[0][1] - box_hi) > 1e-9:
            raise CheckFailed(f"example {index} active alpha1 {runs}, expected the whole rule set")


def _check_samples(spec, scan, family, x):
    """Each returned sample meets its equalizer constraint and its label
    agrees with the benchmark's min-formula; the verdict is ActiveClass
    exactly when some sample is Active."""
    args = _spec_args(spec)
    lam = np.asarray(spec["P"]) / max(spec["P"])
    kinds = [kind for _, kind in scan.samples]
    if kinds:
        if family == "inner":
            alpha = np.array([split.alpha for split, _ in scan.samples])
            residual = np.abs((lam * (1.0 - alpha)).sum(axis=1) - x * x)
            gaps = ref.df_gap(*args, alpha)
        else:
            gamma = np.array([vec.gamma for vec, _ in scan.samples])
            residual = np.abs(np.sqrt(lam * np.clip(gamma, 0.0, None)).sum(axis=1) - x)
            if gamma.min() < -1e-12 or gamma.max() > 1.0 + 1e-12 or gamma.sum(axis=1).max() > 1.0 + 1e-12:
                raise CheckFailed(f"{family} scan returned an infeasible correlation vector")
            gaps = ref.min_formula_gap(*ref.cutset_tables(*args, gamma))
        if residual.max() > CONSTRAINT_TOL * max(1.0, x):
            raise CheckFailed(f"{family} sample off the equalizer constraint by {residual.max():.3e}")
        for kind, gap in zip(kinds, gaps):
            if (kind == "Active" and gap < -ref.LABEL_TOL) or (kind == "Inactive" and gap > ref.LABEL_TOL):
                raise CheckFailed(f"{family} sample labelled {kind} has min-formula gap {gap:.3e}")
    expected = "ActiveClass" if "Active" in kinds else "InactiveClass"
    if scan.verdict != expected:
        raise CheckFailed(f"{family} verdict {scan.verdict} with sample kinds {sorted(set(kinds))}")


def check_sampled(spec, result, outer_scan, symmetric):
    """A K>2 operation: value, both scans' samples, the paper's ActiveClass
    verdict for symmetric channels, and an InactiveClass verdict challenged
    by the benchmark's seeded slice sampler."""
    check_value(spec, result)
    _, x, _ = ref.maxmin(*_spec_args(spec))
    inner = result["evidence"]
    _check_samples(spec, inner, "inner", x)
    _check_samples(spec, outer_scan, "outer", x)
    if symmetric and inner.verdict != "ActiveClass":
        raise CheckFailed(f"symmetric channel verdict {inner.verdict}, the paper proves ActiveClass")
    if inner.verdict == "InactiveClass":
        lam = np.asarray(spec["P"]) / max(spec["P"])
        rng = np.random.default_rng(CHALLENGE_SEED)
        alphas = ref.equalizing_alphas(lam, x * x, CHALLENGE_DRAWS, rng)
        active = int((ref.df_gap(*_spec_args(spec), alphas) > ref.LABEL_TOL).sum())
        if active:
            raise CheckFailed(
                f"InactiveClass from {len(inner.samples)} kept samples, but {active} of "
                f"{CHALLENGE_DRAWS} equalizing power splits are Active"
            )


def check_region(spec, fine, coarse):
    """Region polygons (name -> vertex array at the fine and the coarse
    step): counterclockwise, convex, containing the origin; max sum-rate at
    most the max-min and equal to it in the Bottleneck regime; the fine
    polygon contains the coarse one, whose lattice it refines."""
    regime, _, value = ref.maxmin(*_spec_args(spec))
    for name, vertices in fine.items():
        for label, v in ((name, vertices), (f"{name} coarse", coarse[name])):
            problems = ref.polygon_problems(v)
            if problems:
                raise CheckFailed(f"{label} polygon: {'; '.join(problems)}")
        max_sum = float(np.asarray(vertices).sum(axis=1).max())
        if max_sum > value + REGION_TOL:
            raise CheckFailed(f"{name} max sum-rate {max_sum!r} exceeds the max-min {value!r}")
        if regime == "Bottleneck" and abs(max_sum - value) > REGION_TOL:
            raise CheckFailed(f"{name} max sum-rate {max_sum!r} misses the Bottleneck value {value!r}")
        outside = ~ref.contains(vertices, coarse[name], tol=REGION_TOL)
        if outside.any():
            raise CheckFailed(f"{name} polygon misses {int(outside.sum())} vertices of the coarser polygon")


_GRID_LINE = re.compile(r"^PASS grid value=(\S+) ")


def check_verify(spec, code, stdout, first_stdout=None):
    """A verify --suite all run: exit 0, no FAIL line, the all-pass summary,
    a lattice value within 1e-3 of the max-min, and the same bytes as the
    first run on this config."""
    lines = stdout.splitlines()
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    failing = [line for line in lines if line.startswith("FAIL")]
    if failing:
        raise CheckFailed(f"failing line: {failing[0]}")
    if not lines or lines[-1] != VERIFY_LAST_LINE:
        raise CheckFailed(f"last line {lines[-1] if lines else ''!r}, expected {VERIFY_LAST_LINE!r}")
    grid = [m.group(1) for m in map(_GRID_LINE.match, lines) if m]
    if len(grid) != 1:
        raise CheckFailed(f"{len(grid)} grid value lines")
    _, _, value = ref.maxmin(*_spec_args(spec))
    if abs(float(grid[0]) - value) > VERIFY_GRID_TOL:
        raise CheckFailed(f"grid value {grid[0]} differs from max-min {value:.6f}")
    if first_stdout is not None and stdout != first_stdout:
        raise CheckFailed("stdout differs from the first run on this config")
