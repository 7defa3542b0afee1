"""The benchmark's own formulas, written from the model and not imported
from marc_cap: the K-user max-min by bisection, the decode-and-forward and
cutset bound tables, the polymatroid min-formula, a slice sampler over the
equalizing power splits, and planar polygon predicates.

Every check in checks.py compares the program against these functions or
against a property the method must have; none compares against saved
output of the program.
"""

import math

import numpy as np

# A min-formula gap inside this band is a tie that float noise may flip, so
# a label there is accepted either way; outside it the label must agree.
LABEL_TOL = 1e-9


def capacity(snr):
    return 0.5 * math.log2(1.0 + max(snr, 0.0))


def maxmin(P, P_r, N_r, N_delta):
    """(regime, x, value) of max_x min(relay, dest) K-user sum SNR.

    The relay SNR (sum P - x^2 P_max)/N_r falls and the destination SNR
    (sum P + P_r + 2 x sqrt(P_max P_r))/N_d rises in the correlation
    statistic x >= 0, so the max-min sits at x = 0 (Bottleneck) or where
    they cross, found by bisection to float resolution.
    """
    total, p_max, n_d = float(sum(P)), float(max(P)), N_r + N_delta
    relay = lambda x: (total - x * x * p_max) / N_r
    dest = lambda x: (total + P_r + 2.0 * x * math.sqrt(p_max * P_r)) / n_d
    if relay(0.0) <= dest(0.0):
        return "Bottleneck", 0.0, capacity(total / N_r)
    lo, hi = 0.0, math.sqrt(total / p_max)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if relay(mid) > dest(mid):
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    return "Equalized", x, capacity(min(relay(x), dest(x)))


def _subset_matrix(K):
    """(2^K, K) 0/1 membership of every bitmask."""
    masks = np.arange(1 << K)
    return ((masks[:, None] >> np.arange(K)) & 1).astype(np.float64)


def _cap(snr):
    return 0.5 * np.log2(1.0 + np.maximum(snr, 0.0))


def df_tables(P, P_r, N_r, N_delta, alpha, beta):
    """(dest, relay) decode-and-forward bounds, shape (n, 2^K) each, for
    power-split rows alpha, beta of shape (n, K)."""
    P = np.asarray(P, dtype=np.float64)
    M = _subset_matrix(len(P))
    alpha = np.atleast_2d(alpha)
    beta = np.atleast_2d(beta)
    relay = _cap((alpha * P) @ M.T / N_r)
    coherent = 2.0 * np.sqrt(np.clip((1.0 - alpha) * beta, 0.0, None) * P * P_r) @ M.T
    pledged = beta @ (1.0 - M).T
    dest = _cap((P @ M.T + (1.0 - pledged) * P_r + coherent) / (N_r + N_delta))
    dest[:, 0] = 0.0
    return dest, relay


def cutset_tables(P, P_r, N_r, N_delta, gamma):
    """(dest, relay) cutset bounds, shape (n, 2^K) each, for correlation
    rows gamma of shape (n, K). The relay bound switches to the
    uncorrelated form when the complement's correlations sum to 1."""
    P = np.asarray(P, dtype=np.float64)
    M = _subset_matrix(len(P))
    gamma = np.clip(np.atleast_2d(gamma), 0.0, 1.0)
    root_gp = np.sqrt(gamma * P)
    comp_mass = gamma @ (1.0 - M).T
    ubar = 1.0 - comp_mass
    subset_power = P @ M.T
    coherent = root_gp @ M.T
    deterministic = np.abs(comp_mass - 1.0) <= 1e-12
    safe = np.where(deterministic | (ubar <= 0.0), 1.0, ubar)
    relay_snr = np.where(deterministic, subset_power, subset_power - coherent**2 / safe) / N_r
    relay_snr[:, 0] = 0.0
    dest = _cap((subset_power + ubar * P_r + 2.0 * math.sqrt(P_r) * coherent) / (N_r + N_delta))
    dest[:, 0] = 0.0
    return dest, _cap(relay_snr)


def min_formula_gap(f1, f2):
    """Best mixed minus best full-sum candidate of min_S f1(S) + f2(S^c),
    per row: positive means the full sum-rate constraints bind (Active)."""
    totals = f1 + f2[:, ::-1]
    full = np.minimum(totals[:, 0], totals[:, -1])
    if f1.shape[1] <= 2:
        return np.full(len(f1), np.inf)
    return totals[:, 1:-1].min(axis=1) - full


def proportional_beta(P, alpha):
    """Relay split proportional to the power each source commits to
    cooperation; zero when nothing is committed."""
    w = (1.0 - np.atleast_2d(alpha)) * np.asarray(P, dtype=np.float64)
    total = w.sum(axis=1, keepdims=True)
    return np.where(total > 1e-300, w / np.where(total > 1e-300, total, 1.0), 0.0)


def df_gap(P, P_r, N_r, N_delta, alpha, beta=None):
    """Min-formula gap of the DF pair (destination first) at power splits."""
    alpha = np.atleast_2d(np.asarray(alpha, dtype=np.float64))
    if beta is None:
        beta = proportional_beta(P, alpha)
    return min_formula_gap(*df_tables(P, P_r, N_r, N_delta, alpha, beta))


def equalizing_alphas(lam, c, n, rng):
    """n power splits on the equalizer slice sum_k lam_k (1 - alpha_k) = c,
    alpha in [0, 1]^K, feasible by construction.

    u_k = lam_k (1 - alpha_k) ranges over [0, lam_k] with sum c. Coordinates
    are visited in a random order; each draws uniformly from the interval
    that still leaves the rest a feasible remainder, and the last takes the
    remainder.
    """
    lam = np.asarray(lam, dtype=np.float64)
    K = len(lam)
    u = np.zeros((n, K))
    order = np.argsort(rng.random((n, K)), axis=1)
    rows = np.arange(n)
    remaining = np.full(n, float(c))
    capacity_left = np.full(n, float(lam.sum()))
    for pos in range(K):
        k = order[:, pos]
        cap_k = lam[k]
        capacity_left -= cap_k
        lo = np.maximum(0.0, remaining - capacity_left)
        hi = np.minimum(cap_k, remaining)
        draw = hi if pos == K - 1 else lo + rng.random(n) * np.maximum(hi - lo, 0.0)
        draw = np.minimum(np.maximum(draw, lo), hi)
        u[rows, k] = draw
        remaining -= draw
    return 1.0 - u / lam


def polygon_problems(vertices, tol=1e-12):
    """Reasons a vertex list is not a counterclockwise convex polygon
    containing the origin (within tol); empty when it is one."""
    v = np.asarray(vertices, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
        return [f"degenerate vertex array of shape {v.shape}"]
    problems = []
    nxt = np.roll(v, -1, axis=0)
    after = np.roll(v, -2, axis=0)
    turn = (nxt[:, 0] - v[:, 0]) * (after[:, 1] - nxt[:, 1]) - (nxt[:, 1] - v[:, 1]) * (after[:, 0] - nxt[:, 0])
    if np.any(turn <= 0.0):
        problems.append(f"not strictly convex counterclockwise (min turn {turn.min():.3e})")
    area = 0.5 * float(np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]))
    if area <= 0.0:
        problems.append(f"signed area {area:.3e} is not positive")
    if not contains(v, np.zeros((1, 2)), tol=tol).all():
        problems.append("origin outside the polygon")
    return problems


def contains(vertices, points, tol=1e-9):
    """Per point, whether it lies in the counterclockwise convex polygon
    (edges may be crossed by at most tol)."""
    v = np.asarray(vertices, dtype=np.float64)
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    edge = np.roll(v, -1, axis=0) - v
    rel = p[:, None, :] - v[None, :, :]
    cross = edge[None, :, 0] * rel[:, :, 1] - edge[None, :, 1] * rel[:, :, 0]
    length = np.hypot(edge[:, 0], edge[:, 1])
    return np.all(cross >= -tol * np.maximum(length, 1e-300)[None, :], axis=1)
