"""Closed-form max-min sum-rate solver and rule-set scanner.

The K-user sum bounds at the relay and destination depend on the correlation
parameters only through one scalar statistic; the relay bound falls and the
destination bound rises in it, so the max-min is either the uncorrelated
relay bound (bottleneck) or the unique equalizing root of a quadratic. The
scanner walks the set of equalizing rules and classifies each induced
two-polymatroid intersection to decide whether the bound is attained.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    CorrelationVector,
    DfPowerSplit,
    DomainError,
    beta_star,
    dest_cutset_function,
    dest_cutset_table,
    dest_df_function,
    dest_df_table,
    relay_cutset_function,
    relay_cutset_table,
    relay_df_function,
    relay_df_table,
)
from .channel import awgn_capacity
from .polymatroid import ACTIVE, INACTIVE, intersection_max_sum, intersection_rows

BOTTLENECK = "Bottleneck"
EQUALIZED = "Equalized"
ACTIVE_CLASS = "ActiveClass"
INACTIVE_CLASS = "InactiveClass"
EXACT = "Exact"
UPPER_BOUND_ONLY = "UpperBoundOnly"

CONSTRAINT_TOL = 1e-10


@dataclass(frozen=True)
class MaxMinSolution:
    regime: str
    root: float
    sum_rate: float
    constraint_value: float
    K_coeffs: tuple


@dataclass(frozen=True)
class RuleSetScan:
    family: str
    resolution: float
    samples: tuple
    active_intervals: dict | None
    feasible_box: dict | None
    verdict: str


def bottleneck_check(config):
    """True when the source-relay link caps the sum-rate even without any
    source-relay correlation; the boundary case counts as bottleneck."""
    total = sum(config.P)
    return total / config.N_r <= (total + config.P_r) / config.N_d


def k_coefficients(config):
    total = sum(config.P)
    k0 = config.P_max / config.N_r
    k1 = math.sqrt(config.P_max * config.P_r) / config.N_d
    k2 = (total + config.P_r) / config.N_d
    k3 = total / config.N_r
    return (k0, k1, k2, k3)


def solve_equalizer(config):
    """Max-min of the two K-user sum bounds.

    Bottleneck regime: root 0, value C(sum(P)/N_r). Otherwise the root is the
    positive solution of K_0 x^2 + 2 K_1 x + K_2 - K_3 = 0, where the two
    bounds cross; the constraint value root^2 parameterizes the rule sets.
    """
    k0, k1, k2, k3 = k_coefficients(config)
    if bottleneck_check(config):
        return MaxMinSolution(BOTTLENECK, 0.0, awgn_capacity(k3), 0.0, (k0, k1, k2, k3))
    root = (-k1 + math.sqrt(k1 * k1 + (k3 - k2) * k0)) / k0
    c = root * root
    sum_rate = awgn_capacity(k3 - c * k0)
    gap = awgn_capacity(k2 + 2.0 * k1 * root) - sum_rate
    if abs(gap) > 1e-8:
        raise RuntimeError(f"equalizer gap {gap!r} at root {root!r}")
    return MaxMinSolution(EQUALIZED, root, sum_rate, c, (k0, k1, k2, k3))


def maxmin_rule_inner(config, solution, alpha):
    """Power split for an equalizing alpha: beta is the destination-optimal
    relay split. Requires sum_k lambda_k (1 - alpha_k) = constraint_value."""
    a = np.asarray(alpha, dtype=np.float64)
    lam = config.lam_vector()
    residual = float((lam * (1.0 - a)).sum()) - solution.constraint_value
    if abs(residual) > CONSTRAINT_TOL:
        raise DomainError(f"equalizer constraint violated, residual {residual:.3e}")
    return DfPowerSplit(tuple(a), tuple(beta_star(config, a)))


def gamma_rule_outer(config, solution, gamma):
    """Validated equalizing correlation vector: the correlation statistic
    sum_k sqrt(lambda_k gamma_k) must equal the root."""
    vec = CorrelationVector(tuple(gamma))
    if len(vec.gamma) != config.K:
        raise DomainError(f"gamma has {len(vec.gamma)} entries, expected {config.K}")
    lam = config.lam_vector()
    x = float(np.sqrt(lam * vec.vector()).sum())
    if abs(x - solution.root) > CONSTRAINT_TOL * max(1.0, solution.root):
        raise DomainError(f"equalizer constraint violated, residual {x - solution.root:.3e}")
    return vec


def classify_inner_rule(config, split):
    """Intersection outcome of the decode-and-forward polymatroid pair;
    destination family first (its subset indexes the case label)."""
    return intersection_max_sum(dest_df_function(config, split), relay_df_function(config, split))


def classify_outer_rule(config, gamma):
    """Intersection outcome of the cutset polymatroid pair."""
    return intersection_max_sum(dest_cutset_function(config, gamma), relay_cutset_function(config, gamma))


def _kinds(config, family, rows):
    """Kind of each parameter row as classify_inner_rule/classify_outer_rule
    give it: rows are alphas (with the destination-optimal beta) for the
    inner family, correlations for the outer one."""
    if family == "inner":
        beta = beta_star(config, rows)
        tables = dest_df_table(config, rows, beta), relay_df_table(config, rows, beta)
    else:
        tables = dest_cutset_table(config, rows), relay_cutset_table(config, rows)
    return np.where(intersection_rows(*tables)[2], ACTIVE, INACTIVE).tolist()


def _rules(config, family, rows):
    if family == "inner":
        return [DfPowerSplit(tuple(a), tuple(beta_star(config, a))) for a in rows.tolist()]
    return [CorrelationVector(tuple(g)) for g in rows.tolist()]


def inner_alpha1_interval(config, c):
    """Feasible alpha_1 interval of the K=2 equalizer constraint."""
    lam = config.lam
    lo = max(0.0, 1.0 - c / lam[0])
    hi = min(1.0, 1.0 - (c - lam[1]) / lam[0])
    return lo, hi

def inner_alpha2_of_alpha1(config, c, a1):
    """Partner alpha_2 on the K=2 equalizer constraint, clipped into [0, 1]:
    it is feasible by construction, but dividing by a tiny lambda_2 can
    push it out by rounding."""
    lam = config.lam
    return np.clip(1.0 - (c - lam[0] * (1.0 - a1)) / lam[1], 0.0, 1.0)


def outer_gamma1_interval(config, root):
    """Feasible gamma_1 interval of the K=2 equalizer constraint (before the
    sum(gamma) <= 1 filter)."""
    lam = config.lam
    lo = 0.0
    if root > math.sqrt(lam[1]):
        lo = (root - math.sqrt(lam[1])) ** 2 / lam[0]
    hi = min(1.0, root * root / lam[0])
    return lo, hi

def outer_gamma2_of_gamma1(config, root, g1):
    lam = config.lam
    rem = root - np.sqrt(lam[0] * g1)
    return rem * rem / lam[1]


def _sweep_grid(lo, hi, resolution):
    # Integer multiples of the resolution inside the interval, plus the exact
    # endpoints; reported boundaries therefore sit on the resolution grid.
    first = math.ceil(lo / resolution - 1e-9)
    last = math.floor(hi / resolution + 1e-9)
    pts = [lo]
    pts.extend(i * resolution for i in range(first, last + 1) if lo < i * resolution < hi)
    if hi > lo:
        pts.append(hi)
    return pts

def _active_runs(points, kinds):
    runs = []
    start = None
    for p, k in zip(points, kinds):
        if k == ACTIVE:
            if start is None:
                start = p
            prev = p
        elif start is not None:
            runs.append((start, prev))
            start = None
    if start is not None:
        runs.append((start, prev))
    return runs


def scan_active_rules(config, solution, resolution=1e-3, family="inner", seed=0):
    """Classify the equalizing rule set and report where it is active.

    For K=2 the rule set is one-dimensional: the first coordinate sweeps the
    grid of resolution multiples inside its feasible interval (exact
    endpoints included) and the second is solved from the constraint. Runs
    of Active grid points become the reported intervals, so the boundary
    localization error is at most the resolution; every grid point is
    classified. For K>2 the constraint slice is sampled (seeded draws that
    meet the constraint by construction for power splits, seeded Dirichlet
    weights for correlations, plus a simplex lattice) and only the verdict
    is interval-free.

    Args:
        family: 'inner' scans power splits, 'outer' scans correlations.
    """
    if solution.regime != EQUALIZED:
        raise DomainError("rule-set scan applies to the Equalized regime only")
    if resolution <= 0:
        raise DomainError(f"resolution must be positive, got {resolution!r}")
    if family not in ("inner", "outer"):
        raise DomainError(f"unknown family {family!r}")
    if config.K == 2:
        return _scan_two_user(config, solution, resolution, family)
    return _scan_sampled(config, solution, family, seed)


def _scan_two_user(config, solution, resolution, family):
    c = solution.constraint_value
    if family == "inner":
        lo, hi = inner_alpha1_interval(config, c)
        partner_of = lambda p: inner_alpha2_of_alpha1(config, c, p)
        names = ("alpha1", "alpha2")
    else:
        lo, hi = outer_gamma1_interval(config, solution.root)
        partner_of = lambda p: outer_gamma2_of_gamma1(config, solution.root, p)
        names = ("gamma1", "gamma2")
    grid = np.asarray(_sweep_grid(lo, hi, resolution))
    rows = np.column_stack([grid, partner_of(grid)])
    if family == "outer":
        rows = rows[(rows[:, 1] <= 1.0 + 1e-12) & (rows.sum(axis=1) <= 1.0 + 1e-12)]
        rows[:, 1] = np.minimum(rows[:, 1], 1.0)
    points = rows[:, 0].tolist()
    kinds = _kinds(config, family, rows)
    runs = _active_runs(points, kinds)
    # Every point is classified; the samples are the rules at both ends of
    # each run of equal kind, which pin the reported intervals.
    ends = [i for i, k in enumerate(kinds) if i in (0, len(kinds) - 1) or k != kinds[i - 1] or k != kinds[i + 1]]
    samples = zip(_rules(config, family, rows[ends]), [kinds[i] for i in ends])
    # The partner coordinate decreases along the sweep, so runs map reversed.
    partner_runs = sorted((float(partner_of(b)), float(partner_of(a))) for a, b in runs)
    intervals = {names[0]: runs, names[1]: partner_runs}
    box = None
    if points:
        box = {
            names[0]: (points[0], points[-1]),
            names[1]: (float(partner_of(points[-1])), float(partner_of(points[0]))),
        }
    verdict = ACTIVE_CLASS if runs else INACTIVE_CLASS
    return RuleSetScan(family, resolution, tuple(samples), intervals, box, verdict)


def _equalizing_loads(lam, c, n, rng):
    """n draws of u with 0 <= u_k <= lam_k and sum(u) = c, feasible by
    construction: the coordinates are visited in a random order, each is
    drawn uniformly from the interval that keeps the rest feasible, and the
    last takes the remainder."""
    K = len(lam)
    order = rng.permuted(np.tile(np.arange(K), (n, 1)), axis=1)
    caps = lam[order]
    # room[:, j]: the most that coordinates j.. of the visit order can take.
    room = np.cumsum(caps[:, ::-1], axis=1)[:, ::-1]
    loads = np.empty((n, K))
    left = np.full(n, c)
    for j in range(K - 1):
        lo = np.maximum(0.0, left - room[:, j + 1])
        hi = np.minimum(caps[:, j], left)
        loads[:, j] = np.minimum(lo + rng.random(n) * (hi - lo), hi)
        left = left - loads[:, j]
    loads[:, -1] = np.clip(left, 0.0, caps[:, -1])
    return np.take_along_axis(loads, np.argsort(order, axis=1), axis=1)


def _scan_sampled(config, solution, family, seed, n_random=10000):
    lam = config.lam_vector()
    rng = np.random.default_rng(seed)
    lattice = _simplex_lattice(config.K, 8)
    if family == "inner":
        c = solution.constraint_value
        loads = np.vstack([_equalizing_loads(lam, c, n_random, rng), lattice * c])
        rows = 1.0 - loads[np.all(loads <= lam, axis=1)] / lam
    else:
        weights = np.vstack([rng.dirichlet(np.ones(config.K), size=n_random), lattice])
        # sqrt(lam_k gamma_k) = w_k * root
        rows = (weights * solution.root) ** 2 / lam
        rows = rows[np.all(rows <= 1.0, axis=1) & (rows.sum(axis=1) <= 1.0)]
    # Classify in chunks of 64; stop at the first Active sample, but keep at
    # least 64.
    rules, kinds = [], []
    for lo in range(0, len(rows), 64):
        rules.extend(_rules(config, family, rows[lo : lo + 64]))
        kinds.extend(_kinds(config, family, rows[lo : lo + 64]))
        if ACTIVE in kinds:
            stop = max(64, kinds.index(ACTIVE) + 1)
            rules, kinds = rules[:stop], kinds[:stop]
            break
    verdict = ACTIVE_CLASS if ACTIVE in kinds else INACTIVE_CLASS
    return RuleSetScan(family, 0.0, tuple(zip(rules, kinds)), None, None, verdict)


def _simplex_lattice(K, m):
    """Barycentric lattice of weight vectors with denominators m."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + [remaining])
            return
        for i in range(remaining + 1):
            rec(prefix + [i], remaining - i, slots - 1)

    rec([], m, K)
    return np.asarray(out, dtype=np.float64) / m


def sum_capacity(config, resolution=1e-3):
    """Sum-capacity value with its achievability status.

    Bottleneck regime and the active class are met exactly by
    decode-and-forward; an inactive-class verdict leaves the equalizer value
    as an upper bound only.
    """
    solution = solve_equalizer(config)
    if solution.regime == BOTTLENECK:
        return {"value": solution.sum_rate, "status": EXACT, "evidence": BOTTLENECK, "solution": solution}
    scan = scan_active_rules(config, solution, resolution=resolution)
    status = EXACT if scan.verdict == ACTIVE_CLASS else UPPER_BOUND_ONLY
    return {"value": solution.sum_rate, "status": status, "evidence": scan, "solution": solution}
