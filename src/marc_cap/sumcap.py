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

from ._kernels import compositions
from .bounds import (
    CorrelationVector,
    DfPowerSplit,
    DOMAIN_TOL,
    DomainError,
    _unit_rows,
    beta_star,
    dest_sum_snr,
    family_tables,
    k_coefficients,
    prechecked,
    relay_sum_snr,
)
from .channel import awgn_capacity
from .polymatroid import ACTIVE, INACTIVE, intersection_rows

BOTTLENECK = "Bottleneck"
EQUALIZED = "Equalized"
ACTIVE_CLASS = "ActiveClass"
INACTIVE_CLASS = "InactiveClass"
EXACT = "Exact"
UPPER_BOUND_ONLY = "UpperBoundOnly"

CONSTRAINT_TOL = 1e-10

# The K=2 sweep classifies at most this many grid points, about 161 B each
# (tracemalloc peak of sum_capacity), so about 322 MiB at the cap.
MAX_SWEEP_POINTS = 1 << 21
# The K>2 sampled scan draws this many loads from this seed before its lattice.
SCAN_DRAWS = 10000
SCAN_SEED = 0


@dataclass(frozen=True)
class MaxMinSolution:
    regime: str
    root: float
    sum_rate: float
    constraint_value: float


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
    return relay_sum_snr(config, 0.0) <= dest_sum_snr(config, 0.0)


def solve_equalizer(config):
    """Max-min of the two K-user sum bounds.

    Bottleneck regime: root 0, value the relay bound at 0. Otherwise the root
    is where the relay bound meets the destination bound, the positive root
    of K_0 x^2 + 2 K_1 x + K_2 - K_3; root^2 parameterizes the rule sets.
    """
    if bottleneck_check(config):
        return MaxMinSolution(BOTTLENECK, 0.0, awgn_capacity(relay_sum_snr(config, 0.0)), 0.0)
    k0, k1, k2, k3 = k_coefficients(config)
    root = (-k1 + math.sqrt(k1 * k1 + (k3 - k2) * k0)) / k0
    sum_rate = awgn_capacity(relay_sum_snr(config, root))
    gap = awgn_capacity(dest_sum_snr(config, root)) - sum_rate
    if abs(gap) > 1e-8:
        raise RuntimeError(f"equalizer gap {gap!r} at root {root!r}")
    return MaxMinSolution(EQUALIZED, root, sum_rate, root * root)


@dataclass(frozen=True)
class EqualizingSet:
    """A family's equalizing rule set, written as loads.

    The rules are the loads u with 0 <= u_k <= caps_k and sum(u) = total.
    Power splits (inner family): u_k = lambda_k (1 - alpha_k), caps lambda,
    total c. Correlations (outer family): u_k = sqrt(lambda_k gamma_k), caps
    sqrt(lambda), total root; they must also keep sum(gamma) <= 1.
    """

    family: str
    lam: np.ndarray
    caps: np.ndarray
    total: float

    @property
    def name(self):
        return "alpha" if self.family == "inner" else "gamma"

    # `**` rounds as C pow on scalars (the solved coordinate of complete) and
    # as sqrt/square on arrays (the scans); keep it, so that neither moves by
    # an ulp, nor the manifest digests that hash them.
    def load(self, k, x):
        """Load of coordinate(s) k at parameter value(s) x."""
        lam = self.lam[k]
        return lam * (1.0 - x) if self.family == "inner" else (lam * x) ** 0.5

    def param(self, k, u):
        """Parameter value(s) of coordinate(s) k at load(s) u, unclipped."""
        lam = self.lam[k]
        return 1.0 - u / lam if self.family == "inner" else u**2 / lam

    def clip_rows(self, rows):
        """Parameter rows clipped into [0, 1], less correlations summing above 1."""
        rows = np.clip(rows, 0.0, 1.0)
        return rows if self.family == "inner" else rows[rows.sum(axis=1) <= 1.0 + DOMAIN_TOL]

    def sweep(self, resolution):
        """K=2 rules along the grid of resolution multiples of the first
        coordinate's feasible interval (exact endpoints included), each with
        the second coordinate that takes the load the first leaves."""
        # The first load ranges over what leaves the second within its cap.
        span = np.array([max(0.0, self.total - self.caps[1]), min(self.caps[0], self.total)])
        lo, hi = sorted(np.clip(self.param(0, span), 0.0, 1.0).tolist())
        grid = _sweep_grid(lo, hi, resolution)
        return self.clip_rows(np.column_stack([grid, self.param(1, self.total - self.load(0, grid))]))

    def check(self, rule):
        """Raise DomainError unless the rule's K loads add up to the total."""
        if len(rule) != len(self.lam):
            raise DomainError(f"{self.name} has {len(rule)} entries, expected {len(self.lam)}")
        residual = float(self.load(slice(None), rule).sum()) - self.total
        if abs(residual) > CONSTRAINT_TOL * max(1.0, self.total):
            raise DomainError(f"equalizer constraint violated, residual {residual:.3e}")

    def complete(self, prefix):
        """The first K-1 coordinates of a rule, each checked to lie in
        [0, 1], and the last one, which takes the load they leave. A solved
        correlation above 1 is left for CorrelationVector to reject."""
        K = len(self.lam)
        _unit_rows([prefix], K - 1, self.name)
        left = self.total - sum(self.load(k, x) for k, x in enumerate(prefix))
        if self.family == "outer":
            if left < -1e-9:
                raise DomainError(f"gamma prefix already exceeds the equalizing root {self.total!r}")
            return [*prefix, float(self.param(K - 1, max(left, 0.0)))]
        last = float(self.param(K - 1, left))
        if not -1e-9 <= last <= 1.0 + 1e-9:
            raise DomainError(f"solved alpha_{K}={last!r} lies outside [0, 1]")
        return [*prefix, min(max(last, 0.0), 1.0)]


def equalizing_set(config, solution, family):
    """The equalizing rule set of family 'inner' or 'outer' at the solution."""
    lam = config.lam_vector()
    if family == "inner":
        return EqualizingSet(family, lam, lam, solution.constraint_value)
    if family == "outer":
        return EqualizingSet(family, lam, lam**0.5, solution.root)
    raise DomainError(f"unknown family {family!r}")


def maxmin_rule_inner(config, solution, alpha):
    """Power split for an equalizing alpha: beta is the destination-optimal
    relay split. Requires sum_k lambda_k (1 - alpha_k) = constraint_value."""
    a = np.asarray(alpha, dtype=np.float64)
    equalizing_set(config, solution, "inner").check(a)
    return DfPowerSplit(tuple(a), tuple(beta_star(config, a)))


def gamma_rule_outer(config, solution, gamma):
    """Validated equalizing correlation vector: the correlation statistic
    sum_k sqrt(lambda_k gamma_k) must equal the root."""
    vec = CorrelationVector(tuple(gamma))
    equalizing_set(config, solution, "outer").check(vec.vector())
    return vec


def _rules(config, family, rows):
    # family_tables has checked the rows and their beta_star.
    if family == "inner":
        pairs = zip(rows.tolist(), beta_star(config, rows).tolist())
        return [prechecked(DfPowerSplit, alpha=tuple(a), beta=tuple(b)) for a, b in pairs]
    return [prechecked(CorrelationVector, gamma=tuple(g)) for g in rows.tolist()]


def _check_resolution(resolution):
    if not 0.0 < resolution < math.inf:
        raise DomainError(f"resolution must be positive and finite, got {resolution!r}")


def _sweep_grid(lo, hi, resolution):
    # Integer multiples of the resolution inside the interval, plus the exact
    # endpoints; reported boundaries therefore sit on the resolution grid.
    # A float point count: a tiny resolution gives inf, not an OverflowError.
    points = (hi - lo) / resolution
    if not points <= MAX_SWEEP_POINTS:
        raise DomainError(f"resolution {resolution!r} gives {points:.6g} sweep points, more than {MAX_SWEEP_POINTS}")
    first = math.ceil(lo / resolution - 1e-9)
    last = math.floor(hi / resolution + 1e-9)
    grid = np.arange(first, last + 1) * resolution
    return np.concatenate([[lo], grid[(lo < grid) & (grid < hi)], [hi] if hi > lo else []])


def _runs(active):
    """The (first, last) index pairs of the Active runs of a boolean verdict
    array, and the indices at both ends of every run of equal kind; zero
    rows have none."""
    # Entry b of `edge` marks a change of kind just before row b; the padding
    # differs from both kinds, so the first and the last row start and end a run.
    edge = np.diff(np.concatenate([[-1], active, [-1]])) != 0
    starts, stops = edge[:-1], edge[1:]
    runs = np.column_stack([np.flatnonzero(starts & active), np.flatnonzero(stops & active)])
    return runs, np.flatnonzero(starts | stops)


def scan_active_rules(config, solution, resolution=1e-3, family="inner"):
    """Classify the equalizing rule set and report where it is active.

    For K=2 the rule set is one-dimensional: the first coordinate sweeps the
    grid of resolution multiples inside its feasible interval (exact
    endpoints included) and the second takes the load the first leaves.
    Runs of Active grid points become the reported intervals, so the
    boundary localization error is at most the resolution; every grid point
    is classified. For K>2 the rule set is sampled (seeded loads that meet
    the constraint by construction, then the lattice loads total * i / 8,
    i a composition of 8 into K parts, that stay within the caps) and only
    the verdict is interval-free.

    Args:
        family: 'inner' scans power splits, 'outer' scans correlations.
    """
    if solution.regime != EQUALIZED:
        raise DomainError("rule-set scan applies to the Equalized regime only")
    _check_resolution(resolution)
    rule_set = equalizing_set(config, solution, family)
    if config.K == 2:
        return _scan_two_user(config, rule_set, resolution)
    return _scan_sampled(config, rule_set)


def _scan_two_user(config, rule_set, resolution):
    family = rule_set.family
    rows = rule_set.sweep(resolution)
    active = intersection_rows(*family_tables(config, family, rows))[2]
    runs, ends = _runs(active)
    runs = rows[runs].tolist()
    # Every point is classified; the samples are the rules at both ends of
    # each run of equal kind, which pin the reported intervals.
    samples = zip(_rules(config, family, rows[ends]), np.where(active[ends], ACTIVE, INACTIVE).tolist())
    # The second coordinate decreases along the sweep, so its runs map reversed.
    names = (rule_set.name + "1", rule_set.name + "2")
    intervals = {names[0]: [(a[0], b[0]) for a, b in runs], names[1]: sorted((b[1], a[1]) for a, b in runs)}
    box = None
    if len(rows):
        (lo, first), (hi, last) = rows[[0, -1]].tolist()
        box = {names[0]: (lo, hi), names[1]: (last, first)}
    verdict = ACTIVE_CLASS if runs else INACTIVE_CLASS
    return RuleSetScan(family, resolution, tuple(samples), intervals, box, verdict)


def _equalizing_loads(caps, total, n, rng):
    """n draws of u with 0 <= u_k <= caps_k and sum(u) = total, feasible by
    construction: the coordinates are visited in a random order, each is
    drawn uniformly from the interval that keeps the rest feasible, and the
    last takes the remainder."""
    K = len(caps)
    order = rng.permuted(np.tile(np.arange(K), (n, 1)), axis=1)
    caps = caps[order]
    # room[:, j]: the most that coordinates j.. of the visit order can take.
    room = np.cumsum(caps[:, ::-1], axis=1)[:, ::-1]
    loads = np.empty((n, K))
    left = np.full(n, total)
    for j in range(K - 1):
        lo = np.maximum(0.0, left - room[:, j + 1])
        hi = np.minimum(caps[:, j], left)
        loads[:, j] = np.minimum(lo + rng.random(n) * (hi - lo), hi)
        left = left - loads[:, j]
    loads[:, -1] = np.clip(left, 0.0, caps[:, -1])
    return np.take_along_axis(loads, np.argsort(order, axis=1), axis=1)


def _load_chunks(rule_set, rng):
    """Loads on the rule set, 64 rows at a time: SCAN_DRAWS seeded draws,
    then the points of a simplex lattice that stay within the caps."""
    for lo in range(0, SCAN_DRAWS, 64):
        yield _equalizing_loads(rule_set.caps, rule_set.total, min(64, SCAN_DRAWS - lo), rng)
    lattice = compositions(len(rule_set.caps), 8) / 8 * rule_set.total
    lattice = lattice[np.all(lattice <= rule_set.caps, axis=1)]
    for lo in range(0, len(lattice), 64):
        yield lattice[lo : lo + 64]


def _scan_sampled(config, rule_set):
    # Classify chunk by chunk; stop at the first Active sample, but keep at
    # least 64.
    family = rule_set.family
    chunks, verdicts, found = [], [], False
    for loads in _load_chunks(rule_set, np.random.default_rng(SCAN_SEED)):
        rows = rule_set.clip_rows(rule_set.param(slice(None), loads))
        chunks.append(rows)
        verdicts.append(intersection_rows(*family_tables(config, family, rows))[2])
        found = found or verdicts[-1].any()
        if found and sum(map(len, chunks)) >= 64:
            break
    active = np.concatenate(verdicts)
    if found:
        active = active[: max(64, int(active.argmax()) + 1)]
    rules = _rules(config, family, np.vstack(chunks)[: len(active)])
    kinds = np.where(active, ACTIVE, INACTIVE).tolist()
    return RuleSetScan(family, 0.0, tuple(zip(rules, kinds)), None, None, ACTIVE_CLASS if found else INACTIVE_CLASS)


def sum_capacity(config, resolution=1e-3):
    """Sum-capacity value with its achievability status.

    Bottleneck regime and the active class are met exactly by
    decode-and-forward; an inactive-class verdict leaves the equalizer value
    as an upper bound only. The resolution is checked in either regime.
    """
    _check_resolution(resolution)
    solution = solve_equalizer(config)
    if solution.regime == BOTTLENECK:
        return {"value": solution.sum_rate, "status": EXACT, "evidence": BOTTLENECK, "solution": solution}
    scan = scan_active_rules(config, solution, resolution=resolution)
    status = EXACT if scan.verdict == ACTIVE_CLASS else UPPER_BOUND_ONLY
    return {"value": solution.sum_rate, "status": status, "evidence": scan, "solution": solution}
