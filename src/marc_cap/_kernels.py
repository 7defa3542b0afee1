"""Lattice kernels of the verification oracle.

The max-min lattice search evaluates min(relay SNR, destination SNR) of the
K-user sum bounds over the triangular correlation lattice {gamma = i/n,
sum(i) <= n}. Both SNRs are written here in their sum-statistic form,
independently of the bound tables, so the oracle does not check the tables
against themselves.
"""

import numpy as np


def _lattice_maxmin(sq1, sq2, sq3, sum_p, p_r, n_r, n_d, n, k_users):
    # gamma_k = i_k / n; both SNRs depend on gamma only through
    # s = sum_k sqrt(gamma_k P_k), tabulated per axis in sq1..sq3.
    sqrt_pr = np.sqrt(p_r)
    best = -np.inf
    arg = (0, 0, 0)
    for i in range(n + 1):
        j_top = n - i if k_users >= 2 else 0
        j = np.arange(j_top + 1)
        if k_users >= 3:
            k_top = n - i - j
            jj = np.repeat(j, k_top + 1)
            kk = np.concatenate([np.arange(t + 1) for t in k_top])
            s = sq1[i] + sq2[jj] + sq3[kk]
        else:
            jj = j
            kk = np.zeros_like(j)
            s = sq1[i] + sq2[jj]
        snr_r = (sum_p - s * s) / n_r
        snr_d = (sum_p + p_r + 2.0 * sqrt_pr * s) / n_d
        m = np.minimum(snr_r, snr_d)
        pos = int(np.argmax(m))
        if m[pos] > best:
            best = float(m[pos])
            arg = (i, int(jj[pos]), int(kk[pos]))
    return best, arg[0], arg[1], arg[2]


def lattice_maxmin(P, P_r, N_r, N_d, n):
    """Best min(relay, destination) sum-bound SNR over the correlation lattice.

    Args:
        P: source power vector (K <= 3).
        n: lattice density; gamma_k ranges over i/n with sum(i) <= n.

    Returns:
        (snr, gamma) for the lattice argmax; ties resolve to the
        lexicographically smallest index tuple.
    """
    P = np.asarray(P, dtype=np.float64)
    k_users = P.shape[0]
    if k_users > 3:
        raise ValueError("dense lattice search supports K <= 3")
    steps = np.arange(n + 1) / n
    pads = [P[i] if i < k_users else 0.0 for i in range(3)]
    sq1, sq2, sq3 = (np.sqrt(steps * p) for p in pads)
    snr, i, j, k = _lattice_maxmin(sq1, sq2, sq3, float(P.sum()), float(P_r), float(N_r), float(N_d), n, k_users)
    gamma = np.array([i, j, k][:k_users], dtype=np.float64) / n
    return float(snr), gamma


def min_snr_batch(P, P_r, N_r, N_d, G):
    """min(relay, destination) sum-bound SNR for each correlation row of G."""
    G = np.atleast_2d(np.asarray(G, dtype=np.float64))
    s = np.sqrt(G * P).sum(axis=1)
    sum_p = float(np.sum(P))
    snr_r = (sum_p - s * s) / N_r
    snr_d = (sum_p + P_r + 2.0 * np.sqrt(P_r) * s) / N_d
    return np.minimum(snr_r, snr_d)
