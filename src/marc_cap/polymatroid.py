"""Polymatroid engine for set functions on small ground sets: certification
(normalized, monotone, submodular), greedy vertex enumeration on the dominant
sum-rate face, and two-polymatroid intersection with active/inactive
classification of the max sum-rate."""

from dataclasses import dataclass

import numpy as np

ACTIVE = "Active"
INACTIVE = "Inactive"

# Ties between a full-sum candidate and a mixed split classify Active; the
# inactive condition is a strict inequality.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class SubsetFunction:
    """Real-valued set function on subsets of {1..K}, indexed by bitmask.

    Bit k of a mask selects source k+1. values[0] must be 0.
    """

    K: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (1 << self.K,):
            raise ValueError(f"values has shape {vals.shape}, expected ({1 << self.K},)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        if vals[0] != 0.0:
            raise ValueError(f"empty-set value must be 0, got {vals[0]!r}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_dict(cls, K, mapping):
        """Build from {mask: value}; missing masks other than 0 are an error."""
        vals = np.zeros(1 << K)
        for mask in range(1, 1 << K):
            vals[mask] = mapping[mask]
        return cls(K, vals)

    def __call__(self, mask):
        if not 0 <= mask < len(self.values):
            raise ValueError(f"subset mask {mask!r} outside [0, {len(self.values)})")
        return float(self.values[mask])

    def full(self):
        return float(self.values[-1])


@dataclass(frozen=True)
class CertifyResult:
    submodular: bool
    monotone: bool
    witness: tuple | None


@dataclass(frozen=True)
class IntersectionOutcome:
    max_sum_rate: float
    argmin_subset: int
    kind: str
    two_user_case: str | None


def certify(f):
    """Check that f is a polymatroid rank function (monotone and submodular).

    Tolerance scales with max|f| so log-domain float noise does not produce
    spurious witnesses. On failure the witness is (S, k1, k2) for the first
    violated submodularity inequality, or (S, k, k) for monotonicity.
    """
    vals = f.values
    tol = TIE_TOL * max(1.0, float(np.abs(vals).max()))
    monotone = True
    submodular = True
    witness = None
    for S in range(1 << f.K):
        for k1 in range(f.K):
            if S >> k1 & 1:
                continue
            if vals[S | 1 << k1] < vals[S] - tol:
                monotone = False
                witness = witness or (S, k1, k1)
            for k2 in range(k1 + 1, f.K):
                if S >> k2 & 1:
                    continue
                lhs = vals[S | 1 << k1] + vals[S | 1 << k2]
                rhs = vals[S] + vals[S | 1 << k1 | 1 << k2]
                if lhs < rhs - tol:
                    submodular = False
                    witness = witness or (S, k1, k2)
    return CertifyResult(submodular, monotone, witness)


def vertex_enumeration(f, perm):
    """Greedy vertex of the polymatroid for a visit order.

    perm is a permutation of 1..K; source perm[i] receives the marginal gain
    of joining the first i sources. The result lies on the dominant face:
    it meets every subset constraint and sums to f(K).
    """
    if sorted(perm) != list(range(1, f.K + 1)):
        raise ValueError(f"perm {perm!r} is not a permutation of 1..{f.K}")
    cert = certify(f)
    if not (cert.submodular and cert.monotone):
        raise ValueError(f"not a polymatroid rank function, witness {cert.witness}")
    rates = np.zeros(f.K)
    mask = 0
    for label in perm:
        k = label - 1
        rates[k] = f.values[mask | 1 << k] - f.values[mask]
        mask |= 1 << k
    return rates


def intersection_rows(T1, T2):
    """Min-formula of a batch of set-function pairs.

    Row i of the (n, 2^K) bitmask-indexed tables T1 and T2 is one pair. The
    value is the minimum over subsets S of T1(S) + T2(complement of S).
    When a full-sum candidate (S empty or S = K) attains the minimum, the
    K-user sum-rate constraints are binding (Active); otherwise the maximizing
    rate point splits the sources across the two bounds (Inactive).
    Returns (value, argmin subset, active) arrays of length n.
    """
    totals = T1 + T2[:, ::-1]
    full = totals.shape[1] - 1
    arg_full = np.where(totals[:, 0] <= totals[:, full], 0, full)
    if full == 1:
        return totals.min(axis=1), arg_full, np.ones(len(totals), dtype=bool)
    best_full = np.minimum(totals[:, 0], totals[:, full])
    active = totals[:, 1:full].min(axis=1) >= best_full - TIE_TOL
    # Only Inactive rows take a mixed subset, so only they pay the argmin.
    inactive = np.flatnonzero(~active)
    arg_full[inactive] = 1 + np.argmin(totals[inactive, 1:full], axis=1)
    return totals.min(axis=1), arg_full, active


def intersection_max_sum(f1, f2):
    """Maximum total rate in the intersection of two polymatroids: the
    one-row view of intersection_rows.

    The equality requires both inputs to be polymatroid rank functions
    (certify them when in doubt); for general set functions the minimum is
    only an upper bound on the polytope's best total rate.
    """
    if f1.K != f2.K:
        raise ValueError(f"ground sets differ: {f1.K} vs {f2.K}")
    value, argmin, active = intersection_rows(f1.values[None], f2.values[None])
    kind = ACTIVE if active[0] else INACTIVE
    argmin = int(argmin[0])
    case = _two_user_case(f1, f2, kind, argmin) if f1.K == 2 else None
    return IntersectionOutcome(float(value[0]), argmin, kind, case)


def _two_user_case(f1, f2, kind, argmin):
    """Intersection case label for two sources: '1'/'2' inactive (by which
    source is rate-limited at the first bound), '3a'/'3b'/'3c' active (by
    which full sum-rate plane is lower)."""
    if kind == INACTIVE:
        return "1" if argmin == 0b10 else "2"
    d = f1.full() - f2.full()
    if abs(d) <= TIE_TOL:
        return "3b"
    return "3a" if d < 0 else "3c"
