"""Rate-region polytopes: per-parameter polymatroid intersections, the
decode-and-forward region as a union over power splits, and the cutset outer
region with its time-sharing closure. Two-user regions export as convex
polygons with a deterministic vertex order."""

from dataclasses import dataclass

import numpy as np

from .bounds import CorrelationVector, DfPowerSplit, DomainError, beta_star, bound_functions, family_tables

# Relative orientation epsilon for the planar hull. A chain point a between
# neighbours o and b is dropped as collinear when the cross product
# (a - o) x (b - o) is at most HULL_EPS * |a - o| * |b - o| and a lies between
# o and b, so vertex lists stay minimal and deterministic. Being relative,
# the test keeps real extreme points of small-scale inputs.
HULL_EPS = 1e-12

# Bins of x in the first pass of `_staircase`, which leaves its sort a few
# hundred of a lattice's hundred thousand candidates.
STAIRCASE_BINS = 256

# A region lattice has at most this many points: (n + 1)^2 power splits.
# Where no block of the lattice is dropped, as on segment polygons, the
# decode-and-forward grid and its polygon take up to about 186 B a split
# (tracemalloc peaks of 44.5 MiB for n = 500 and 174.9 MiB for n = 1023),
# so under 190 MiB at the cap; on the two examples, which drop most
# blocks, about 16 B a split.
MAX_REGION_POINTS = 1 << 20

# Block side, in lattice steps, of `_pruned_lattice_candidates`, and the
# most rows it evaluates in one batch: a batch of rows and its tables peak
# near 160 B a row.
LATTICE_BLOCK = 8
LATTICE_BATCH_ROWS = 1 << 16

@dataclass(frozen=True)
class RegionPolytope:
    K: int
    vertices: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vertices, dtype=np.float64))
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    def max_sum(self):
        return float(self.vertices.sum(axis=1).max())


def build_intersection(config, params):
    """Two-user polytope cut out by both bound families of one parameter
    choice, with its exact vertices in hull order.

    Only K=2 is supported: for K>2 the solver needs the intersection's
    maximum sum-rate alone, which the min-formula of the two set functions
    gives without listing vertices.
    """
    if config.K != 2:
        raise DomainError(f"polytope vertices support K=2 only, got K={config.K}")
    g = np.minimum(*(f.values for f in bound_functions(config, params)))
    return _polygon(_pentagon_candidates_batch(*g[1:, None]))


def _polygon(candidates):
    """The convex hull of the candidates' downward closure in the quadrant
    R >= 0, counterclockwise from the origin.

    Every region here is a union of pentagons R >= 0, R_S <= g(S), each of
    which holds the box under each of its points, so its hull is that of the
    downward closure of its pentagons' candidate vertices. A candidate that
    another dominates lies in the box under it, which the origin, (x_max, 0)
    and (0, y_max) span with it, so the hull is that of those three points
    and the `_staircase`, whose last point has the greatest x and whose
    first the greatest y. Raises ValueError on a NaN or infinite
    coordinate."""
    if not np.isfinite([candidates.min(), candidates.max()]).all():
        raise ValueError("region candidates must be finite")
    stair = _staircase(candidates)
    corners = np.array([(0.0, 0.0), (stair[-1, 0], 0.0), (0.0, stair[0, 1])])
    return RegionPolytope(2, convex_hull(np.vstack([corners, stair])))


def _staircase(pts):
    """The points that no other point dominates (lies at least as far right
    and at least as high), x ascending, one per distinct x.

    A first pass over STAIRCASE_BINS equal bins of x drops each point no
    higher than the highest point of some strictly higher bin. The bin
    index is monotone in x, so that point lies strictly right of the dropped
    one and dominates it. A span of zero, one too small to divide by or one
    beyond the float range skips the pass. Then one sort on x gives the
    highest point of each distinct x, and those strictly above every column
    to their right are kept."""
    x, y = pts[:, 0], pts[:, 1]
    lo = x.min()
    span = float(x.max()) - float(lo)
    if 0.0 < span < np.inf and STAIRCASE_BINS / span < np.inf:
        bins = np.minimum(((x - lo) * (STAIRCASE_BINS / span)).astype(np.intp), STAIRCASE_BINS - 1)
        top = np.full(STAIRCASE_BINS, -np.inf)
        np.maximum.at(top, bins, y)
        high = y > _right_max(top)[bins]
        x, y = x[high], y[high]
    order = np.argsort(x, kind="stable")
    x, y = x[order], y[order]
    starts = np.flatnonzero(np.concatenate([[True], x[1:] != x[:-1]]))
    top = np.maximum.reduceat(y, starts)
    kept = top > _right_max(top)
    return np.column_stack([x[starts][kept], top[kept]])


def _right_max(v):
    """For each entry of v, the greatest entry after it (-inf for the last)."""
    return np.concatenate([np.maximum.accumulate(v[::-1])[::-1][1:], [-np.inf]])


def _dominating_pentagon(config, corner):
    """The pentagon of the corner parameters when it holds every lattice
    pentagon of their family, else None.

    The corner is the lattice row whose relay table bounds every other
    row's entry by entry: relay decode-and-forward rises in every alpha_k
    (corner alpha = 1, where beta_star is the zero split) and the relay
    cutset falls in every gamma_k, its penalty being at least 0 (corner
    gamma = 0). Both hold in floats too. Where the corner's destination
    table is at least its relay table on every subset, the corner's
    min(dest, relay) is that relay table, so it bounds every lattice row's
    min, each lattice pentagon lies in the corner's, and the corner's
    pentagon, one of them, is the hull of them all: the exact region, not an
    approximation of it. The test is the Bottleneck condition
    P(S) N_delta <= P_r N_r per subset, read from the tables, so on
    Bottleneck configs both families take it: the relay multiaccess pentagon
    R(S) <= C(P(S)/N_r). Within rounding of the boundary the two tests can
    disagree, which moves no polygon beyond rounding."""
    dest, relay = (f.values for f in bound_functions(config, corner))
    return _polygon(_pentagon_candidates_batch(*relay[1:, None])) if (dest >= relay).all() else None


def _df_pentagon_grid(config, n):
    """Candidate vertices of the lattice power splits' intersections under
    beta_star and under the even relay split (0.5, 0.5), less those of the
    splits whose pentagons `_pruned_lattice_candidates` finds strictly inside
    the polygon.

    A split with beta_k = 0 adds none: the destination bound then does not
    depend on alpha_k (its coherent term is sqrt(0)) and the relay bound
    only rises in it, so its pentagon at alpha_k = 1 holds the others on its
    line, and there beta_star is that split bit for bit ((1.0, 0.0) at
    alpha = (a, 1) as w/w and 0/w; at (1, 1) the zero split, whose pentagon
    holds those of (1, 0) and (0, 1))."""

    def tables(rows, family):
        alpha = rows / n
        return family_tables(config, "inner", alpha, np.where(family[:, None] == 0, beta_star(config, alpha), 0.5))

    return _pruned_lattice_candidates(n, 2 * n, 2, tables)


def _pentagon_candidates_batch(g1, g2, g12):
    """Candidate vertices, less the origin, of the pentagons R >= 0,
    R1 <= g1, R2 <= g2, R1 + R2 <= g12, one pentagon per row.

    Of the points on each axis only the nearest to the origin and the
    farthest are kept: every other one lies between them on that axis, so
    it is no vertex of a hull of the candidates."""
    x = _ends(np.minimum(g1, g12))
    y = _ends(np.minimum(g2, g12))
    rect = g1 + g2 <= g12
    c = ~rect & (g12 - g1 >= 0.0) & (g12 - g1 <= g2)
    d = ~rect & (g12 - g2 >= 0.0) & (g12 - g2 <= g1)
    return np.column_stack([
        np.concatenate([x, np.zeros_like(y), g1[rect], g1[c], (g12 - g2)[d]]),
        np.concatenate([np.zeros_like(x), y, g2[rect], (g12 - g1)[c], g2[d]]),
    ])


def _ends(v):
    """The smallest and the largest entry of v, once each."""
    return np.unique(v[[v.argmin(), v.argmax()]])


def _outer_pentagon_grid(config, n):
    """Candidate vertices of the lattice correlations' intersections, less
    those of the correlations whose pentagons `_pruned_lattice_candidates`
    finds strictly inside the polygon."""
    return _pruned_lattice_candidates(n, n, 1, lambda rows, _: family_tables(config, "outer", rows / n))


def _pruned_lattice_candidates(n, max_sum, F, tables):
    """Pentagon candidates of the lattice rows (i, j), 0 <= i, j <= n and
    i + j <= max_sum, for each of F families of pentagons, less the rows
    whose pentagons lie strictly inside the polygon. `tables(rows, family)`
    gives the (dest, relay) tables of the parameters rows / n, each row in
    the family of that index.

    The rows with both indices in every LATTICE_BLOCK-th index and n are
    evaluated first; their polygon lies inside the final one. The rest of
    the lattice falls into blocks between those indices, whose four corners
    are such rows. Each table entry is monotone in each parameter, so over
    a block it is greatest at one of the four corners, and per subset the
    least of the greatest destination entry and the greatest relay entry
    over the corners cuts out an upper pentagon holding the pentagon of
    every row of the block. A corner off the lattice counts +inf on the
    destination side, so the relay entries alone bound, and 0.0 on the
    relay side, below every rate, so the greatest is that of the corners
    on it: relay entries peak at a corner on the lattice, the low one on
    the cutset simplex, where they fall in every gamma_k, and the DF
    lattice is square. Where both upper-right vertices of the upper
    pentagon lie strictly below every upper-right edge line of the coarse
    polygon, by a relative margin far above rounding, so does every
    candidate of the block: none is a vertex or an axis extreme of the
    hull, whose vertices stay the same bits. The rows of the other blocks
    are evaluated, and so are all of them when the coarse polygon has fewer
    than 3 vertices."""
    m = -(-n // LATTICE_BLOCK) + 1
    axis = np.minimum(np.arange(m) * LATTICE_BLOCK, n)
    square = axis[np.indices((m, m)).reshape(2, -1).T]
    valid = square.sum(axis=1) <= max_sum
    dest, relay = tables(np.tile(square[valid], (F, 1)), np.arange(F).repeat(valid.sum()))
    g = np.minimum(dest, relay)
    candidates = [_pentagon_candidates_batch(g[:, 0b01], g[:, 0b10], g[:, 0b11])]
    vertices = _polygon(candidates[0]).vertices

    def peak(table, fill):
        # Per family and block, the greatest entry of each subset over the
        # block's four corner rows.
        t = np.full((F, m * m, 4), fill)
        t[:, valid] = table.reshape(F, -1, 4)
        t = t.reshape(F, m, m, 4)
        t = np.maximum(t[:, 1:], t[:, :-1])
        return np.maximum(t[:, :, 1:], t[:, :, :-1])

    u1, u2, u12 = np.moveaxis(np.minimum(peak(dest, np.inf), peak(relay, 0.0))[..., 1:], -1, 0)

    # The upper pentagon's two upper-right vertices, the rightmost highest
    # and the highest rightmost, against the coarse polygon's upper-right
    # edge lines n . p <= c, from (x_max, 0) to (0, y_max), less the margin
    # by which a point must lie below them.
    xa, yb = np.minimum(u1, u12), np.minimum(u2, u12)
    ends = np.stack([xa, np.minimum(u2, u12 - xa), np.minimum(u1, u12 - yb), yb], axis=-1).reshape(*xa.shape, 2, 2)
    chain = vertices[1:]
    normal = np.diff(chain, axis=0)[:, ::-1] * [1.0, -1.0]
    bound = (normal * chain[:-1]).sum(axis=1) - 1e-9 * np.abs(normal).sum(axis=1) * vertices.max(axis=0).sum()
    drop = (ends @ normal.T < bound).all(axis=(-2, -1)) & (len(vertices) >= 3)

    # A block owns its rows from its low indices up to the next block's,
    # the last block's through n: a row on a block edge is evaluated with
    # the block that owns it, or proven inside by the other. A block whose
    # low corner is off the lattice owns no rows. The coarse rows, those
    # with both indices on the axis, are not evaluated again.
    kept, a, b = np.nonzero(~drop & valid.reshape(m, m)[:-1, :-1])
    end = axis[1:] + (axis[1:] == n)
    p = np.arange(LATTICE_BLOCK + 1)
    i, j = axis[a, None, None] + p[:, None], axis[b, None, None] + p
    own = (i < end[a, None, None]) & (j < end[b, None, None]) & (i + j <= max_sum)
    block, di, dj = np.nonzero(own & ((p[:, None] > 0) & (i < n) | (p > 0) & (j < n)))
    rows, family = np.column_stack([axis[a[block]] + di, axis[b[block]] + dj]), kept[block]
    for k in range(0, len(rows), LATTICE_BATCH_ROWS):
        g = np.minimum(*tables(rows[k : k + LATTICE_BATCH_ROWS], family[k : k + LATTICE_BATCH_ROWS]))
        candidates.append(_pentagon_candidates_batch(g[:, 0b01], g[:, 0b10], g[:, 0b11]))
    return np.vstack(candidates)


def build_df_region(config, grid_resolution=0.02):
    """Two-user decode-and-forward region: hull of the per-split
    intersections over a power-split lattice. The region is convex, so the
    hull converges to it from inside as the lattice refines. Where the
    pentagon of alpha = (1, 1) with its zero relay split holds every other
    (`_dominating_pentagon`, as on Bottleneck configs), that pentagon is the
    region, and the lattice is not evaluated."""
    n = _lattice_steps(config, grid_resolution)
    corner = _dominating_pentagon(config, DfPowerSplit((1.0, 1.0), (0.0, 0.0)))
    if corner is not None:
        return corner
    return _polygon(_df_pentagon_grid(config, n))


def build_outer_region(config, grid_resolution=0.02):
    """Two-user cutset outer region: hull over the correlation lattice. The
    hull realizes the time-sharing closure, which in the plane equals the
    set of at-most-3-point mixtures. Where the pentagon of gamma = (0, 0)
    holds every other (`_dominating_pentagon`, as on Bottleneck configs),
    that pentagon is the region, and the lattice is not evaluated."""
    n = _lattice_steps(config, grid_resolution)
    corner = _dominating_pentagon(config, CorrelationVector((0.0, 0.0)))
    if corner is not None:
        return corner
    return _polygon(_outer_pentagon_grid(config, n))


def _lattice_steps(config, grid_resolution):
    """Steps n per axis of a two-user lattice, round(1 / grid_resolution),
    checked before anything is allocated: (n + 1)^2 points at most."""
    if config.K != 2:
        raise DomainError("polygon export supports K=2 only")
    if not 0 < grid_resolution <= 1:
        raise DomainError(f"grid resolution must be in (0, 1], got {grid_resolution!r}")
    n = max(1, round(min(1.0 / grid_resolution, MAX_REGION_POINTS)))
    if (n + 1) ** 2 > MAX_REGION_POINTS:
        raise DomainError(f"grid resolution {grid_resolution!r} needs more than {MAX_REGION_POINTS} lattice points")
    return n


def convex_hull(points):
    """Andrew monotone-chain hull of any finite point set, counterclockwise
    from the lexicographically smallest vertex; collinear points dropped.
    Every returned row is an input row, bit for bit. The chain runs in
    Python over every distinct point, so the region builders pass it the
    few hundred points of `_polygon`, not their candidate grids. Raises
    ValueError on a NaN or infinite coordinate."""
    pts = np.asarray(points, dtype=np.float64)
    if not np.isfinite(pts).all():
        raise ValueError("convex_hull needs finite coordinates")
    pts = _distinct_sorted(pts)
    if len(pts) <= 2:
        return pts
    # The chain runs on each axis scaled by a power of two that brings its
    # largest magnitude into [0.5, 1), so cross products of tiny coordinates
    # do not underflow to 0. The scaling is exact (above the subnormal
    # range) and keeps the order; the original points are returned. The
    # chain reads them as Python floats, which cost less than numpy scalars
    # in its few operations per test.
    _, exponent = np.frexp(np.abs(pts).max(axis=0))
    scaled = np.ldexp(pts, -exponent).tolist()

    def drop(o, a, b):
        # A near-collinear middle point a is dropped only when it lies between
        # o and b; when the chain doubles back on it, a is an extreme point.
        (ox, oy), (ax, ay), (bx, by) = scaled[o], scaled[a], scaled[b]
        ux, uy, vx, vy = ax - ox, ay - oy, bx - ox, by - oy
        cross = ux * vy - uy * vx
        if cross <= 0.0:
            return True
        # hypot(x, y) <= |x| + |y|, so a cross product above this bound is
        # above the one with hypot, and the two hypot calls are skipped. The
        # factor 4 keeps the bound the larger one after rounding, subnormal
        # products included, so no decision changes.
        if cross > 4.0 * HULL_EPS * (abs(ux) + abs(uy)) * (abs(vx) + abs(vy)):
            return False
        near = cross <= HULL_EPS * np.hypot(ux, uy) * np.hypot(vx, vy)
        return near and ux * (bx - ax) + uy * (by - ay) > 0.0

    lower = []
    for i in range(len(pts)):
        while len(lower) >= 2 and drop(lower[-2], lower[-1], i):
            lower.pop()
        lower.append(i)
    upper = []
    for i in reversed(range(len(pts))):
        while len(upper) >= 2 and drop(upper[-2], upper[-1], i):
            upper.pop()
        upper.append(i)
    return pts[lower[:-1] + upper[:-1]]


def _distinct_sorted(pts):
    """The rows of `np.unique(pts, axis=0)`: sorted by x, then y, one row per
    distinct (x, y). One stable lexsort and a comparison of adjacent rows,
    with less fixed cost per call than `np.unique` on the small sets the
    chain sees."""
    if len(pts) < 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    new = np.concatenate([[True], (pts[1:] != pts[:-1]).any(axis=1)])
    return pts[new]


def polygon_contains(vertices, point, tol=1e-9):
    """Membership test for a counterclockwise convex polygon."""
    v = np.asarray(vertices, dtype=np.float64)
    p = np.asarray(point, dtype=np.float64)
    if len(v) == 1:
        return bool(np.all(np.abs(v[0] - p) <= tol))
    nxt = np.roll(v, -1, axis=0)
    cross = (nxt[:, 0] - v[:, 0]) * (p[1] - v[:, 1]) - (nxt[:, 1] - v[:, 1]) * (p[0] - v[:, 0])
    return bool(np.all(cross >= -tol))


def _point_segment_distance(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def point_polygon_distance(vertices, point):
    v = np.asarray(vertices, dtype=np.float64)
    p = np.asarray(point, dtype=np.float64)
    if len(v) >= 3 and polygon_contains(v, p, tol=0.0):
        return 0.0
    if len(v) == 1:
        return float(np.linalg.norm(v[0] - p))
    nxt = np.roll(v, -1, axis=0)
    return min(_point_segment_distance(p, a, b) for a, b in zip(v, nxt))


def hausdorff_distance(poly_a, poly_b):
    """Hausdorff distance between two convex polygons (vertex-attained)."""
    a = np.atleast_2d(poly_a)
    b = np.atleast_2d(poly_b)
    d_ab = max(point_polygon_distance(b, p) for p in a)
    d_ba = max(point_polygon_distance(a, p) for p in b)
    return max(d_ab, d_ba)
