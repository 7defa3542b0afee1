"""Lattice kernels: the integer lattice enumerator and the verification
oracle's max-min lattice search.

`compositions` enumerates the integer points of a scaled simplex, the
oracle's correlation lattice among them. The max-min search evaluates
min(relay SNR, destination SNR) of the K-user sum bounds over the
triangular correlation lattice {gamma = i/n, sum(i) <= n}, one bounded
slice at a time, so its memory is one slice's, not the lattice's. Both SNRs
are written here in their sum-statistic form, independently of the bound
tables, so the oracle does not check the tables against themselves.
"""

import math

import numpy as np

# Row budget of one lattice_maxmin slice.
SLICE_ROWS = 1 << 14


def _branch(rows, left, columns):
    """Extend each integer row by `columns` nonnegative columns, in
    lexicographic order: each new column branches over 0..left, the part of
    the row's budget not yet used. Returns the rows and their unused budget."""
    for _ in range(columns):
        counts = left + 1
        parent = np.repeat(np.arange(len(rows)), counts)
        value = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack([rows[parent], value])
        left = left[parent] - value
    return rows, left


def compositions(K, n):
    """Rows of K nonnegative integers summing to n, in lexicographic order.

    Dropping the last column gives the points i in N^(K-1) with
    sum(i) <= n, in the same order."""
    rows, left = _branch(np.zeros((1, 0), dtype=np.int64), np.array([n]), K - 1)
    return np.column_stack([rows, left])


def lattice_maxmin(P, P_r, N_r, N_d, n):
    """Best min(relay, destination) sum-bound SNR over the correlation lattice.

    The lattice is searched in lexicographic slices of consecutive first
    indices, each of at most SLICE_ROWS rows unless one first index alone
    has more, and only each slice's best row is kept.

    Args:
        P: source power vector (K <= 3).
        n: lattice density; gamma_k ranges over i/n with sum(i) <= n.

    Returns:
        (snr, gamma) for the lattice argmax; ties resolve to the
        lexicographically smallest index tuple, and a NaN SNR counts as the
        maximum, as np.argmax over the whole lattice would resolve them.
    """
    P = np.asarray(P, dtype=np.float64)
    K = P.shape[0]
    if K > 3:
        raise ValueError("dense lattice search supports K <= 3")
    # First index 0 has the most rows: the points of N^(K-1) with sum <= n.
    width = max(1, SLICE_ROWS // math.comb(n + K - 1, K - 1))
    best, rows = [], []
    for lo in range(0, n + 1, width):
        first = np.arange(lo, min(lo + width, n + 1))
        G = _branch(first[:, None], n - first, K - 1)[0] / n
        snr = min_snr_batch(P, P_r, N_r, N_d, G)
        pos = int(np.argmax(snr))
        best.append(snr[pos])
        rows.append(G[pos].copy())
    # The first maximum (or first NaN) of the slices' maxima is the lattice's.
    pick = int(np.argmax(best))
    return float(best[pick]), rows[pick]


def min_snr_batch(P, P_r, N_r, N_d, G):
    """min(relay, destination) sum-bound SNR for each correlation row of G."""
    G = np.atleast_2d(np.asarray(G, dtype=np.float64))
    s = np.sqrt(G * P).sum(axis=1)
    sum_p = float(np.sum(P))
    snr_r = (sum_p - s * s) / N_r
    snr_d = (sum_p + P_r + 2.0 * np.sqrt(P_r) * s) / N_d
    return np.minimum(snr_r, snr_d)
