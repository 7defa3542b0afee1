"""Closed-form max-min sum-rate solver and rule-set scanner.

The K-user sum bounds at the relay and destination depend on the correlation
parameters only through one scalar statistic; the relay bound falls and the
destination bound rises in it, so the max-min is either the uncorrelated
relay bound (bottleneck) or the unique equalizing root of a quadratic.

Each family's verdict is decided by one witness rule, whose loads are in
proportion to lambda: the uniform power split alpha_k = 1 - c / sum(lambda)
with the destination-optimal relay split beta_star (inner), and the
correlations gamma_k = (root / sum(lambda))^2 lambda_k (outer), the one the
split induces. Under either, both tables certify and the two-polymatroid
intersection is Active with max sum C*; the code still classifies the
witness from its tables, and it is every scan's one sample. For K=2 the
scanner also sweeps the equalizing rules and reports where they are
active. The outer sweep classifies every grid point, in the witness's
batch. The inner sweep is cut into pieces of SWEEP_PIECE rows, decided
from the tables of each piece's corner rows, since every compared total
is monotone in each alpha; only the rows of the pieces near a run's edges
are classified one by one, in the witness's batch. Every grid point gets
the verdict of its own tables either way.
"""

import math
from dataclasses import dataclass

import numpy as np

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
from .polymatroid import ACTIVE, INACTIVE, TIE_TOL, intersection_rows

BOTTLENECK = "Bottleneck"
EQUALIZED = "Equalized"
ACTIVE_CLASS = "ActiveClass"
INACTIVE_CLASS = "InactiveClass"
EXACT = "Exact"
UPPER_BOUND_ONLY = "UpperBoundOnly"

CONSTRAINT_TOL = 1e-10

# The K=2 sweep holds at most this many grid points. The tracemalloc peak
# of sum_capacity is about 40 B per point where the inner sweep's pieces
# are decided (its rows and grid), and 164 B where every row is classified
# one by one, so at most about 330 MiB at the cap.
MAX_SWEEP_POINTS = 1 << 21


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
    The value there is the destination bound, K_2 + 2 K_1 root, a sum of
    positive terms; the relay bound K_3 - root^2 K_0 can cancel far below
    its terms, even below 0, and only enters the gap check.
    """
    regime, root = BOTTLENECK, 0.0
    if not bottleneck_check(config):
        k0, k1, k2, k3 = k_coefficients(config)
        regime, root = EQUALIZED, (-k1 + math.sqrt(k1 * k1 + (k3 - k2) * k0)) / k0
    # Powers many decades apart can overflow the coefficients' products.
    if not math.isfinite(root):
        raise DomainError(f"equalizing root {root!r} is not finite")
    snr = relay_sum_snr(config, root)
    rate_snr = snr if regime == BOTTLENECK else dest_sum_snr(config, root)
    sum_rate = awgn_capacity(rate_snr)
    if not math.isfinite(sum_rate):
        raise DomainError(f"sum rate {sum_rate!r} is not finite")
    if regime == BOTTLENECK:
        return MaxMinSolution(BOTTLENECK, 0.0, sum_rate, 0.0)
    # The SNR gap may be 1e-8 of 1 + snr (about 1.4e-8 bits) plus the
    # rounding of K_3 - root^2 K_0, which can cancel to far below K_3.
    gap = rate_snr - snr
    if abs(gap) > 1e-8 * (1.0 + snr) + 8.0 * math.ulp(k3):
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


def _rule(config, family, row):
    """The parameter object of one (1, K) row that family_tables has
    checked, with its beta_star for the inner family."""
    if family == "inner":
        return prechecked(DfPowerSplit, alpha=tuple(row[0].tolist()), beta=tuple(beta_star(config, row)[0].tolist()))
    return prechecked(CorrelationVector, gamma=tuple(row[0].tolist()))


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


# The K=2 inner sweep is cut into pieces of SWEEP_PIECE rows, all decided
# from their corner rows in one family_tables call (_inner_sweep_verdicts).
# A family_tables call costs about as much as a thousand rows; with pieces
# of 256 a sweep of 16,384 points has 256 corner rows, and each run edge
# sends the 256 rows of its piece to be classified one by one.
SWEEP_PIECE = 256
# A piece is decided only when its corner bounds clear the tie test by
# SWEEP_MARGIN * (1 + P_r / N_d + t), t the largest compared total. With
# u = 2^-53, a relay SNR s carries a relative error of a few u, a
# destination SNR an absolute one of about 10 u (s + P_r / N_d): 1 - beta
# loses its digits when beta is near 1. As 0.5 log2(1 + s) moves by at
# most 0.72 ds / (1 + s), and log2(fl(1 + s)) is off by about u even for s
# near 0, each entry r is off by at most 8 u (1 + P_r / N_d + r), and a
# total of two entries by 16 u (1 + P_r / N_d + t). A row's verdict and
# its piece's corner bounds differ by at most four such errors and the
# rounding of the TIE_TOL subtractions, under 70 u (1 + P_r / N_d + t);
# 2^-44 is 512 u. A wider margin only classifies more rows one by one.
SWEEP_MARGIN = 2.0**-44


def _inner_sweep_verdicts(config, rows, witness):
    """The Active flags of the K=2 inner sweep rows and of the witness,
    equal to intersection_rows of their tables row by row.

    Along the sweep alpha1 rises and alpha2 never rises, so the rows of a
    piece lie in the box of its first and last row. With beta_star, every
    compared total is monotone in each alpha: relay DF(S) rises in every
    alpha; dest DF{1} falls in alpha1 and rises in alpha2, DF{2} is the
    mirror; dest DF{1,2} = C((P + P_r + 2 sqrt(W P_r)) / N_d), W = sum
    (1 - alpha_k) P_k, falls in both. So each total's extremes over the box
    are at its four corners, the two end rows and the two off corners, all
    in [0, 1]^2. A piece is all Active or all Inactive when those bounds
    clear the tie test by the margin; the rows of the other pieces are
    classified row by row, in one batch with the witness.
    """
    n = len(rows)
    # Every piece but the last ends SWEEP_PIECE - 1 rows after its start;
    # the last one ends with the sweep.
    first = rows[::SWEEP_PIECE]
    last = np.concatenate([rows[SWEEP_PIECE - 1 : -1 : SWEEP_PIECE], rows[-1:]])
    corners = [first, last, np.column_stack([first[:, 0], last[:, 1]]), np.column_stack([last[:, 0], first[:, 1]])]
    dest, relay = family_tables(config, "inner", np.concatenate(corners))
    # totals[:, S] = dest(S) + relay(S^c), as intersection_rows adds them.
    totals = (dest + relay[:, ::-1]).reshape(4, len(first), 4)
    low, high = totals.min(axis=0), totals.max(axis=0)
    margin = SWEEP_MARGIN * (1.0 + config.P_r / config.N_d + high.max(axis=1))
    active = low[:, 1:3].min(axis=1) >= high[:, [0, 3]].min(axis=1) - TIE_TOL + margin
    inactive = high[:, 1:3].min(axis=1) < low[:, [0, 3]].min(axis=1) - TIE_TOL - margin
    undecided = np.repeat(~(active | inactive), SWEEP_PIECE)[:n]
    active = np.repeat(active, SWEEP_PIECE)[:n]
    verdicts = intersection_rows(*family_tables(config, "inner", np.concatenate([rows[undecided], witness])))[2]
    active[undecided] = verdicts[:-1]
    return active, verdicts[-1]


def _runs(active):
    """The (first, last) index pairs of the Active runs of a boolean verdict
    array; zero rows have none."""
    # Entry b of `edge` marks a change of kind just before row b; the padding
    # differs from both kinds, so the first and the last row start and end a run.
    edge = np.diff(np.concatenate([[-1], active, [-1]])) != 0
    return np.column_stack([np.flatnonzero(edge[:-1] & active), np.flatnonzero(edge[1:] & active)])


def scan_active_rules(config, solution, resolution=1e-3, family="inner"):
    """Classify the equalizing rule set and report where it is active.

    Every scan classifies its family's witness (see the module docstring),
    checked on the rule set; it is the scan's one sample. For K=2 the first
    coordinate also sweeps the grid of resolution multiples inside its
    feasible interval (exact endpoints included), the second taking the
    load the first leaves. The outer family classifies every grid point in
    the witness's batch; the inner family decides pieces of the sweep from
    their corner rows and classifies only the points near a run's edges,
    in the witness's batch (_inner_sweep_verdicts), with the same verdict
    for every point. Runs of Active grid points become the reported
    intervals, so the boundary localization error is at most the
    resolution. When the sweep finds no Active point, an Active witness is
    the one-point run of both coordinates. The verdict is ActiveClass when
    some classified rule is Active.

    Args:
        family: 'inner' scans power splits, 'outer' scans correlations.
    """
    if solution.regime != EQUALIZED:
        raise DomainError("rule-set scan applies to the Equalized regime only")
    _check_resolution(resolution)
    rule_set = equalizing_set(config, solution, family)
    lam = rule_set.lam
    share = rule_set.total / lam.sum()
    witness = np.full((1, len(lam)), 1.0 - share) if family == "inner" else share**2 * lam[None]
    rule_set.check(witness[0])
    rows = rule_set.sweep(resolution) if config.K == 2 else witness[:0]
    if family == "inner" and config.K == 2:
        active, witness_active = _inner_sweep_verdicts(config, rows, witness)
    else:
        # The sweep rows become a view of the batch, so they are not held twice.
        batch = np.concatenate([rows, witness])
        rows = batch[:-1]
        verdicts = intersection_rows(*family_tables(config, family, batch))[2]
        active, witness_active = verdicts[:-1], verdicts[-1]
    sample = (_rule(config, family, witness), ACTIVE if witness_active else INACTIVE)
    verdict = ACTIVE_CLASS if witness_active or active.any() else INACTIVE_CLASS
    if config.K != 2:
        return RuleSetScan(family, 0.0, (sample,), None, None, verdict)
    runs = rows[_runs(active)].tolist()
    if not runs and witness_active:
        runs = [witness.tolist() * 2]
    # The second coordinate decreases along the sweep, so its runs map reversed.
    names = (rule_set.name + "1", rule_set.name + "2")
    intervals = {names[0]: [(a[0], b[0]) for a, b in runs], names[1]: sorted((b[1], a[1]) for a, b in runs)}
    box = None
    if len(rows):
        (lo, first), (hi, last) = rows[[0, -1]].tolist()
        box = {names[0]: (lo, hi), names[1]: (last, first)}
    return RuleSetScan(family, resolution, (sample,), intervals, box, verdict)


def sum_capacity(config, resolution=1e-3):
    """Sum-capacity value with its achievability status.

    Bottleneck regime and the active class are met exactly by
    decode-and-forward; an inactive-class verdict leaves the equalizer value
    as an upper bound only. In the Equalized regime the evidence is the
    inner scan: the uniform split alone for K other than 2, the sweep for
    K=2, with the split where the sweep finds no Active point. The split is
    Active in this model, so the status is Exact unless rounding breaks its
    tie.
    The resolution is checked in either regime.
    """
    _check_resolution(resolution)
    solution = solve_equalizer(config)
    if solution.regime == BOTTLENECK:
        return {"value": solution.sum_rate, "status": EXACT, "evidence": BOTTLENECK, "solution": solution}
    scan = scan_active_rules(config, solution, resolution=resolution)
    status = EXACT if scan.verdict == ACTIVE_CLASS else UPPER_BOUND_ONLY
    return {"value": solution.sum_rate, "status": status, "evidence": scan, "solution": solution}
