"""Independent verification oracles: Monte-Carlo checks of the Gaussian
conditional-variance identities behind the relay cutset bound, a lattice
max-min search that cross-checks the closed-form equalizer, and randomized
chord/dominance probes backing the concavity and ordering claims."""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bounds import (
    CorrelationVector,
    beta_star,
    check_mask,
    family_tables,
    subset_indices,
)
from .channel import awgn_capacity

# Conditional variances below this fraction of the power scale are treated
# as deterministic; the z-score is meaningless there.
DEGENERATE_TOL = 1e-9

EQUALITY_TOL = 1e-12
CHORD_TOL = 1e-9

# Rows of the Monte-Carlo normal draw folded into the Gram matrix at a time.
_CHUNK_ROWS = 1 << 16


@dataclass(frozen=True)
class McReport:
    mode: int
    subset: int
    n: int
    seed: int
    estimate: float
    target: float
    std_error: float
    z_score: float
    degenerate: bool

    @property
    def passed(self):
        if self.degenerate:
            return self.estimate <= DEGENERATE_TOL * max(1.0, self.target + 1.0)
        return abs(self.z_score) <= 4.0


@dataclass(frozen=True)
class ChordReport:
    passed: bool
    trials: int
    witness: dict | None = None


@dataclass(frozen=True)
class DominanceReport:
    passed: bool
    trials: int
    max_gap: float
    witness: dict | None = None


@dataclass(frozen=True)
class GridMaxMin:
    value: float
    argmax: CorrelationVector
    step: float


def _gram(n, width, rng):
    """W^T W of an (n, width) standard-normal draw W, drawn in chunks of rows.
    The chunks continue one stream: they hold the rows, and leave `rng` in
    the state, of one rng.standard_normal((n, width)) call, and memory does
    not grow with n."""
    G = np.zeros((width, width))
    for start in range(0, n, _CHUNK_ROWS):
        W = rng.standard_normal((min(_CHUNK_ROWS, n - start), width))
        G += W.T @ W
    return G


def _residual_variance(a, B, G, n):
    """Residual variance of the least-squares regression of W a on W B, for
    a draw W of n rows with Gram matrix G = W^T W. With R = cholesky(G)^T,
    W = Q R for an orthonormal Q, so the regression on the n rows of W is
    the same regression on the few rows of R. The draw is well-conditioned,
    so R is accurate; any ill-conditioning is in B, and lstsq's rank cut
    handles a rank-deficient design (X_r a multiple of the complement
    inputs), where a QR without pivoting would project out a rounding
    direction."""
    R = np.linalg.cholesky(G).T
    y = R @ a
    p = B.shape[1]
    if p:
        design = R @ B
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        y = y - design @ coef
    return float(y @ y) / (n - p)


def mc_relay_conditional_variance(config, gamma, S, mode=1, n=1000000, seed=0):
    """Estimate a conditional variance by linear-MMSE regression residuals
    (exact for jointly Gaussian inputs) and compare to the closed form.

    mode 1: var(X_r | X_{S^c}) against the residual relay power.
    mode 2: var(sum_S X_k | X_{S^c}, X_r) against the relay-cut SNR
    numerator, P(S) - coherent(S)^2 / (gamma(S) + slack), whose penalty is
    0 where its denominator is.
    """
    vec = gamma if isinstance(gamma, CorrelationVector) else CorrelationVector(tuple(gamma))
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")
    if n < config.K + 1:
        raise ValueError(f"n must be at least K + 1 = {config.K + 1}, got {n!r}")
    # Subnormal correlations count as 0, as in the relay cutset bound table.
    g = vec.vector()
    g[g < np.finfo(np.float64).tiny] = 0.0
    P = config.powers()
    in_S = subset_indices(check_mask(S, config.K))
    comp = [k for k in range(config.K) if k not in in_S]
    # The regression has one column per complement input, plus X_r in mode 2.
    p = len(comp) + (mode == 2)
    if n <= p:
        raise ValueError(f"n must exceed the {p} regressors, got {n!r}")
    comp_mass = float(g[comp].sum()) if comp else 0.0
    resid_mass = max(0.0, 1.0 - float(g.sum()))

    if mode == 1:
        target = (1.0 - comp_mass) * config.P_r
    else:
        s = float(np.sqrt(g[in_S] * P[in_S]).sum())
        room = float(g[in_S].sum()) + resid_mass
        target = float(P[in_S].sum()) - (s * s / room if room > 0.0 else 0.0)

    # Every input is linear in a standard-normal draw W of n rows and K+1
    # columns, column 0 the relay's own part: X_k = sqrt(P_k) W[:, k+1] and
    # X_r = W @ relay, with source-relay correlations sqrt(gamma_k P_k P_r).
    # Column k of `source` holds the coefficients of X_k.
    source = np.vstack([np.zeros(config.K), np.diag(np.sqrt(P))])
    relay = np.concatenate([[np.sqrt(resid_mass * config.P_r)], np.sqrt(g * config.P_r)])
    if mode == 1:
        a = relay
        B = source[:, comp]
    else:
        a = source[:, in_S].sum(axis=1)
        B = np.column_stack([source[:, comp], relay])
    G = _gram(n, config.K + 1, np.random.default_rng(seed))
    estimate = _residual_variance(a, B, G, n)

    scale = max(1.0, config.P_r, float(P.sum()))
    degenerate = target <= DEGENERATE_TOL * scale
    if degenerate:
        se = 0.0
        z = 0.0
    else:
        se = estimate * np.sqrt(2.0 / (n - p))
        z = (estimate - target) / se
    return McReport(mode, int(S), n, seed, estimate, target, se, float(z), degenerate)


def grid_maxmin(config, step=0.01):
    """Dense lattice max of the equal-rate objective min(relay cut, dest
    cut) over the correlation simplex, then local refinement around the
    incumbent until the window is exhausted. Deterministic for fixed step."""
    if config.K > 3:
        raise ValueError("dense grid search supports K <= 3")
    if not 0 < step <= 1:
        raise ValueError(f"step must be in (0, 1], got {step!r}")
    n = max(1, round(1.0 / step))
    P = config.powers()
    snr, gamma = _kernels.lattice_maxmin(P, config.P_r, config.N_r, config.N_d, n)
    snr, gamma = _refine(config, snr, gamma, 1.0 / n)
    return GridMaxMin(awgn_capacity(max(snr, 0.0)), CorrelationVector(tuple(gamma)), step)


def _refine(config, best_snr, center, width):
    P = config.powers()
    K = config.K
    offsets = np.linspace(-1.0, 1.0, 11)
    while width > 1e-13:
        axes = [center[k] + width * offsets for k in range(K)]
        G = np.stack([ax.ravel() for ax in np.meshgrid(*axes, indexing="ij")], axis=1)
        keep = np.all(G >= 0.0, axis=1) & (G.sum(axis=1) <= 1.0) & np.all(G <= 1.0, axis=1)
        G = G[keep]
        if len(G):
            snrs = _kernels.min_snr_batch(P, config.P_r, config.N_r, config.N_d, G)
            i = int(np.argmax(snrs))
            if snrs[i] > best_snr:
                best_snr = float(snrs[i])
                center = G[i]
                continue
        width /= 10.0
    return best_snr, center


def gamma_sampler(config, seed=0):
    """Uniform-ish sampler over the correlation simplex (closure included).

    `draw(n)` returns an (n, K) array of rows. One draw of n rows gives the
    same rows as n draws of one row each."""
    rng = np.random.default_rng(seed)
    K = config.K

    def draw(n):
        return rng.dirichlet(np.ones(K + 1), size=n)[:, :K]

    return draw


def split_sampler(config, seed=0):
    """Sampler over the power-split domain: alpha in the unit cube, beta in
    the simplex (joint rows of length 2K).

    `draw(n)` returns an (n, 2K) array of rows. Each row draws its alpha and
    then its beta, so rows are drawn one at a time: a Dirichlet draw takes a
    varying number of random words, and the interleaved stream cannot be
    drawn in one batch. Beta is the stream of `rng.dirichlet(ones(K + 1))`
    without its per-call argument checks: for all-ones weights that draws
    K + 1 standard exponentials and multiplies them by the reciprocal of
    their left-to-right sum, which `np.add.accumulate` keeps (Python's `sum`
    and `ndarray.sum` round differently)."""
    rng = np.random.default_rng(seed)
    K = config.K

    def draw(n):
        alpha, gamma = np.empty((n, K)), np.empty((n, K + 1))
        for a, g in zip(alpha, gamma):
            rng.random(out=a)
            rng.standard_exponential(out=g)
        total = np.add.accumulate(gamma, axis=1)[:, -1:]
        return np.hstack([alpha, gamma[:, :K] * (1.0 / total)])

    return draw


def chord_check(fn, sampler, trials=1000, seed=0):
    """Concavity probe: random chords must not rise above the function.

    `sampler(n)` returns n domain rows as an (n, d) array; chord i runs
    from row 2i to row 2i+1. `fn` maps an (n, d) array of rows to n values,
    each depending on its own row only; the endpoints and midpoints of all
    chords go through one call. The callable returned by
    gamma_sampler/split_sampler already carries its own rng, so `seed` here
    only drives the chord mixing weights. A failing report's witness is the
    first failing chord, the one a chord-by-chord scan would stop at.
    """
    rng = np.random.default_rng(seed)
    rows = np.asarray(sampler(2 * trials), dtype=np.float64)
    a, b = rows[0::2], rows[1::2]
    lam = rng.random(trials)
    mid = lam[:, None] * a + (1.0 - lam[:, None]) * b
    values = np.asarray(fn(np.concatenate([a, b, mid])), dtype=np.float64)
    fa, fb, mid_value = values[:trials], values[trials : 2 * trials], values[2 * trials :]
    chord_value = lam * fa + (1.0 - lam) * fb
    failed = np.flatnonzero(mid_value < chord_value - CHORD_TOL)
    if not failed.size:
        return ChordReport(True, trials)
    t = int(failed[0])
    witness = {
        "a": a[t].tolist(),
        "b": b[t].tolist(),
        "lam": float(lam[t]),
        "midpoint_value": float(mid_value[t]),
        "chord_value": float(chord_value[t]),
    }
    return ChordReport(False, trials, witness)


def dominance_check(config, trials=500, seed=0):
    """Random power splits: the cutset destination bound dominates the
    decode-and-forward one at the induced correlations for every subset, and
    the proportional relay split makes the full-set relay bounds coincide.

    Each trial is one row of the bound tables; the report is the one a
    trial-by-trial, subset-by-subset scan stopping at the first gap above
    tolerance would give."""
    K = config.K
    rows = split_sampler(config, seed)(trials)
    alpha, beta = rows[:, :K], rows[:, K:]
    # The relay decode-and-forward bound does not depend on beta.
    inner, relay_df = family_tables(config, "inner", alpha, beta)
    outer = family_tables(config, "outer", (1.0 - alpha) * beta)[0]
    star = beta_star(config, alpha)
    relay_outer = family_tables(config, "outer", (1.0 - alpha) * star)[1][:, -1]
    relay_inner = relay_df[:, -1]
    # Per trial: destination gaps for subsets 1..2^K-1, then the relay gap.
    gaps = np.column_stack([(inner - outer)[:, 1:], np.abs(relay_outer - relay_inner)]).ravel()
    failed = np.flatnonzero(gaps > EQUALITY_TOL)
    if not failed.size:
        return DominanceReport(True, trials, float(gaps.max(initial=0.0)))
    first = int(failed[0])
    t, j = divmod(first, 1 << K)
    full = (1 << K) - 1
    if j < full:
        S = j + 1
        witness = {"kind": "dest_dominance", "alpha": alpha[t].tolist(), "beta": beta[t].tolist(), "subset": S,
                   "inner": float(inner[t, S]), "outer": float(outer[t, S])}
    else:
        witness = {"kind": "relay_full_equality", "alpha": alpha[t].tolist(), "beta": star[t].tolist(),
                   "subset": full, "inner": float(relay_inner[t]), "outer": float(relay_outer[t])}
    return DominanceReport(False, trials, float(gaps[: first + 1].max(initial=0.0)), witness)
