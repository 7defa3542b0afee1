"""Lattice kernels: the integer lattice enumerator and the verification
oracle's max-min lattice search.

`compositions` enumerates the integer points of a scaled simplex, the
oracle's correlation lattice among them. The max-min search evaluates
min(relay SNR, destination SNR) of the K-user sum bounds over the
triangular correlation lattice {gamma = i/n, sum(i) <= n}. Both SNRs are
written here in their sum-statistic form, independently of the bound tables,
so the oracle does not check the tables against themselves.
"""

import numpy as np


def compositions(K, n):
    """Rows of K nonnegative integers summing to n, in lexicographic order.

    Dropping the last column gives the points i in N^(K-1) with
    sum(i) <= n, in the same order."""
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([n])
    for _ in range(K - 1):
        # Each row branches into the values 0..left of the next column.
        counts = left + 1
        parent = np.repeat(np.arange(len(rows)), counts)
        value = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack([rows[parent], value])
        left = left[parent] - value
    return np.column_stack([rows, left])


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
    K = P.shape[0]
    if K > 3:
        raise ValueError("dense lattice search supports K <= 3")
    G = compositions(K + 1, n)[:, :-1] / n
    snr = min_snr_batch(P, P_r, N_r, N_d, G)
    pos = int(np.argmax(snr))
    return float(snr[pos]), G[pos].copy()


def min_snr_batch(P, P_r, N_r, N_d, G):
    """min(relay, destination) sum-bound SNR for each correlation row of G."""
    G = np.atleast_2d(np.asarray(G, dtype=np.float64))
    s = np.sqrt(G * P).sum(axis=1)
    sum_p = float(np.sum(P))
    snr_r = (sum_p - s * s) / N_r
    snr_d = (sum_p + P_r + 2.0 * np.sqrt(P_r) * s) / N_d
    return np.minimum(snr_r, snr_d)
