"""The four rate-bound families of the degraded Gaussian MARC.

Cutset (outer) bounds at the relay and destination are parameterized by a
source-relay correlation vector gamma; decode-and-forward (inner) bounds are
parameterized by a power split (alpha, beta). Every bound is a per-subset
rate ceiling. Each family is written once, as a table: a batch of (n, K)
parameter rows evaluated over all 2^K subsets, an (n, 2^K) array indexed by
subset bitmask. family_tables, the one evaluator, checks the rows and gives
a family's (dest, relay) pair; bound_functions is its one-row view, the
SubsetFunction pair of one parameter choice for the polymatroid engine. The
parameter objects check their domain with the same row checks.

The tables are evaluated subset-major: once checked, the rows are
transposed to one contiguous length-n vector per source, the formulas build
one contiguous length-n vector per subset, a (2^K, n) array, and
family_tables returns its (n, 2^K) view, so every numpy pass over a batch is
one long loop. The layout does not change a bit of any entry.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polymatroid import SubsetFunction

# Slack for membership tests of the parameter domains.
DOMAIN_TOL = 1e-12

# A bound table holds at most this many float64 cells, n rows by 2^K
# subsets: 512 MiB per table. The tracemalloc peak of one family_tables call
# is about 49 B per cell for the cutset family and 24 B for
# decode-and-forward (one row, K = 14 to 18), so about 3 GiB at the cap.
# The K=2 sweep at sumcap.MAX_SWEEP_POINTS builds about 2^23 cells and the
# region lattice at region.MAX_REGION_POINTS 2^22; one row of a config of
# more than 26 users exceeds it.
MAX_TABLE_CELLS = 1 << 26


class DomainError(ValueError):
    """Parameters lie outside their feasible set."""


@dataclass(frozen=True)
class CorrelationVector:
    """Source-relay correlations gamma with E[X_k X_r] = sqrt(gamma_k P_k P_r).

    Feasible set: gamma_k in [0,1] for all k and sum(gamma) <= 1.
    """

    gamma: tuple

    def __post_init__(self):
        g = tuple(float(x) for x in self.gamma)
        _correlation_rows([g], len(g))
        object.__setattr__(self, "gamma", g)

    def vector(self):
        return np.clip(np.asarray(self.gamma, dtype=np.float64), 0.0, 1.0)


@dataclass(frozen=True)
class DfPowerSplit:
    """Decode-and-forward power fractions.

    alpha_k is the fraction of source k's power spent on fresh information
    (the rest cooperates with the relay); beta_k is the relay power fraction
    assisting source k. Feasible set: alpha in [0,1]^K, beta >= 0,
    sum(beta) <= 1.
    """

    alpha: tuple
    beta: tuple

    def __post_init__(self):
        a = tuple(float(x) for x in self.alpha)
        b = tuple(float(x) for x in self.beta)
        if len(a) != len(b):
            raise DomainError(f"alpha has {len(a)} entries, beta has {len(b)}")
        _split_rows([a], [b], len(a))
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)


def prechecked(cls, **fields):
    """A CorrelationVector or DfPowerSplit of fields (tuples of floats) that
    family_tables has checked, built without its constructor's row checks:
    the scans build their samples from rows checked as a batch, and numpy
    checks one object slowly."""
    params = object.__new__(cls)
    params.__dict__.update(fields)
    return params


def full_mask(K):
    return (1 << K) - 1


def subset_indices(mask):
    """0-based source indices contained in a subset bitmask."""
    if mask < 0:
        raise DomainError(f"subset mask {mask!r} is negative")
    out = []
    k = 0
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return out


def subset_label(mask):
    """Human-readable 1-based set label, e.g. '{1,3}'."""
    return "{" + ",".join(str(k + 1) for k in subset_indices(mask)) + "}"


def _unit_rows(X, K, name):
    """Parameter rows as an (n, K) array, each entry in [0, 1] up to
    DOMAIN_TOL."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != K:
        raise DomainError(f"{name} rows have shape {X.shape}, expected (n, {K})")
    bad = ~((X >= -DOMAIN_TOL) & (X <= 1.0 + DOMAIN_TOL))
    if bad.any():
        r, k = np.argwhere(bad)[0]
        raise DomainError(f"{name}[{k + 1}]={float(X[r, k])!r} outside [0, 1]")
    return X


def _check_mass(X, name):
    # Added in index order from zeros, so rows of no entries (K = 0) have mass 0.
    mass = sum(X.T, np.zeros(len(X)))
    bad = mass > 1.0 + DOMAIN_TOL
    if bad.any():
        raise DomainError(f"sum({name})={float(mass[bad][0])!r} exceeds 1")


def _correlation_rows(gamma, K):
    """Validated correlation rows, clipped like CorrelationVector.vector."""
    G = _unit_rows(gamma, K, "gamma")
    _check_mass(G, "gamma")
    return np.clip(G, 0.0, 1.0)


def _split_rows(alpha, beta, K):
    """Validated power-split rows, alpha clipped to [0, 1], beta floored at 0."""
    A = _unit_rows(alpha, K, "alpha")
    B = _unit_rows(beta, K, "beta")
    if A.shape != B.shape:
        raise DomainError(f"alpha rows have shape {A.shape}, beta rows {B.shape}")
    _check_mass(B, "beta")
    return np.clip(A, 0.0, 1.0), np.maximum(B, 0.0)


def _columns(X):
    """Checked parameter rows (n, K) as K contiguous length-n vectors."""
    return np.ascontiguousarray(X.T)


def _subset_sums(X):
    """Sums of the K parameter vectors of X (K, n) over all 2^K subsets, as a
    (2^K, n) array indexed by subset bitmask. A subset's sum is the sum of
    the subset without its highest member plus that member, so members are
    added one at a time in index order and a parameter row gives the same
    bits alone as inside a batch."""
    sums = np.zeros((1 << len(X), X.shape[1]))
    for k in range(len(X)):
        np.add(sums[: 1 << k], X[k], out=sums[1 << k : 2 << k])
    return sums


@lru_cache(maxsize=128)
def _subset_power(P):
    """Read-only subset sums of the source powers P (a tuple), per config,
    as a (2^K, 1) column."""
    power = _subset_sums(np.array(P)[:, None])
    power.setflags(write=False)
    return power


def _rates(snr, power, noise):
    """0.5*log2(1+snr), elementwise, written over snr.

    A negative SNR within DOMAIN_TOL times the subset's SNR scale
    power/noise is rounding dust (it grows with power) and counts as 0;
    anything lower is a formula bug."""
    if snr.min(initial=0.0) < 0.0:
        low = snr < -DOMAIN_TOL * power / noise
        if low.any():
            raise ValueError(f"negative SNR argument {float(snr[low][0])!r}")
        np.maximum(snr, 0.0, out=snr)
    snr += 1.0
    np.log2(snr, out=snr)
    snr *= 0.5
    return snr


# The formulas below take parameter vectors (K, n), one contiguous vector
# per source, and give (2^K, n) tables, one contiguous vector per subset.
# The empty subset's rate is 0: its SNR is 0 by construction or set to 0.


def _relay_cutset(config, G):
    # The SNR is the conditional variance of the subset's inputs given the
    # complement's and the relay's: the subset power less the part the relay
    # reveals, coherent(S)^2 / (gamma(S) + slack). Given the complement, the
    # relay keeps the subset's correlations gamma(S) and its own share
    # slack = 1 - sum(gamma), floored at 0 for a mass rounded above 1. By
    # Cauchy-Schwarz the penalty is at most the subset power, so it is capped
    # there: rounding can put it an ulp above a subnormal power, where the
    # dust bound of _rates underflows to 0. It is 0 where its denominator is
    # 0 (the relay is then a function of the complement). Subnormal
    # correlations count as 0: there the quotient keeps no precision.
    G = np.where(G < np.finfo(np.float64).tiny, 0.0, G)
    P = config.powers()[:, None]
    power = _subset_power(config.P)
    mass = _subset_sums(G)
    room = mass + np.maximum(0.0, 1.0 - mass[-1])
    coherent = _subset_sums(np.sqrt(G * P))
    penalty = np.divide(coherent * coherent, room, out=np.zeros_like(room), where=room > 0.0)
    np.minimum(penalty, power, out=penalty)
    return _rates((power - penalty) / config.N_r, power, config.N_r)


def _dest_cutset(config, G):
    # Subset power plus the relay power left after the complement's share
    # plus the coherent combining gain of the subset's correlations.
    P = config.powers()[:, None]
    power = _subset_power(config.P)
    ubar = 1.0 - _subset_sums(G)[::-1]
    coherent = 2.0 * _subset_sums(np.sqrt(G * P * config.P_r))
    snr = (power + ubar * config.P_r + coherent) / config.N_d
    snr[0] = 0.0
    return _rates(snr, power, config.N_d)


def _relay_df(config, A, B):
    # Only the fresh-information fraction alpha_k of each power counts.
    power = _subset_sums(A * config.powers()[:, None])
    return _rates(power / config.N_r, power, config.N_r)


def _dest_df(config, A, B):
    # Subset power, the relay power not pledged to the complement, and the
    # coherent gain from the cooperative power fractions. The gains are added
    # onto the rest one source at a time in index order, not summed first:
    # both are bit-stable, and this order keeps the decode-and-forward
    # region's vertices bit-identical to earlier releases.
    P = config.powers()[:, None]
    power = _subset_power(config.P)
    snr = power + (1.0 - _subset_sums(B)[::-1]) * config.P_r
    coherent = 2.0 * np.sqrt((1.0 - A) * B * P * config.P_r)
    for k in range(config.K):
        # Source k's gain in the subsets whose bitmask holds k: the upper
        # half of each block of 2^(k+1) subsets.
        snr.reshape(-1, 2, 1 << k, snr.shape[1])[:, 1] += coherent[k]
    snr /= config.N_d
    snr[0] = 0.0
    return _rates(snr, power, config.N_d)


def check_table_cells(K, rows):
    """Raise DomainError when bound tables of `rows` rows over the 2^K
    subsets of K sources would exceed MAX_TABLE_CELLS cells."""
    if rows << K > MAX_TABLE_CELLS:
        raise DomainError(f"K={K} needs {rows} x 2^{K} bound table cells, more than {MAX_TABLE_CELLS}")


def family_tables(config, family, rows, beta=None):
    """The (dest, relay) bound tables of one family over a batch of
    parameter rows: correlations for 'outer', alphas for 'inner', with the
    relay split rows `beta` (by default beta_star of the rows). The
    destination table comes first: the two-user case labels index it.
    Each table is an (n, 2^K) view of a subset-major (2^K, n) array."""
    check_table_cells(config.K, len(rows))
    if family == "outer":
        G = _columns(_correlation_rows(rows, config.K))
        return _dest_cutset(config, G).T, _relay_cutset(config, G).T
    if family == "inner":
        A, B = map(_columns, _split_rows(rows, beta_star(config, rows) if beta is None else beta, config.K))
        return _dest_df(config, A, B).T, _relay_df(config, A, B).T
    raise DomainError(f"unknown family {family!r}")


def bound_functions(config, params):
    """The (dest, relay) SubsetFunction pair of one parameter choice, the
    one-row view of family_tables: decode-and-forward bounds for a
    DfPowerSplit, cutset bounds for a CorrelationVector."""
    if isinstance(params, DfPowerSplit):
        tables = family_tables(config, "inner", [params.alpha], [params.beta])
    elif isinstance(params, CorrelationVector):
        tables = family_tables(config, "outer", [params.gamma])
    else:
        raise DomainError(f"unsupported parameter type {type(params).__name__}")
    return tuple(SubsetFunction(config.K, table[0]) for table in tables)


def check_mask(S, K):
    """S, once checked to be a subset bitmask of K sources: in [0, 2^K)."""
    if not 0 <= S < 1 << K:
        raise DomainError(f"subset mask {S!r} outside [0, {1 << K})")
    return S


def beta_star(config, alpha):
    """Relay split maximizing the destination bound for a fixed alpha, or
    for each row of an (n, K) batch of alphas.

    Each source's share is proportional to the power it commits to
    cooperation; all-ones alpha means no cooperation and a zero split.
    """
    a = np.clip(np.asarray(alpha, dtype=np.float64), 0.0, 1.0)
    if a.ndim not in (1, 2) or a.shape[-1] != config.K:
        raise DomainError(f"alpha has shape {a.shape}, expected ({config.K},) or (n, {config.K})")
    weights = (1.0 - _columns(a.reshape(-1, config.K))) * config.powers()[:, None]
    # Added in index order. The weights are nonnegative, so the total is 0
    # exactly when no source cooperates, at any scale of the powers.
    total = sum(weights, np.zeros(weights.shape[1]))
    idle = total == 0.0
    split = np.where(idle, 0.0, weights / np.where(idle, 1.0, total))
    return split.T.reshape(a.shape)


def k_coefficients(config):
    """(K_0, K_1, K_2, K_3) of the K-user sum-bound SNRs, written in the
    correlation statistic x = sum_k sqrt(lambda_k gamma_k) below."""
    total = sum(config.P)
    k0 = config.P_max / config.N_r
    k1 = math.sqrt(config.P_max * config.P_r) / config.N_d
    k2 = (total + config.P_r) / config.N_d
    k3 = total / config.N_r
    return (k0, k1, k2, k3)


def relay_sum_snr(config, x):
    """K-user relay cutset SNR K_3 - x^2 K_0 at x (a float or an array)."""
    k0, _, _, k3 = k_coefficients(config)
    return k3 - x * x * k0


def dest_sum_snr(config, x):
    """K-user destination cutset SNR K_2 + 2 K_1 x at x (a float or an array)."""
    _, k1, k2, _ = k_coefficients(config)
    return k2 + 2.0 * k1 * x
