"""Rate-region polytopes: per-parameter polymatroid intersections, the
decode-and-forward region as a union over power splits, and the cutset outer
region with its time-sharing closure. Two-user regions export as convex
polygons with a deterministic vertex order."""

from dataclasses import dataclass

import numpy as np

from ._kernels import compositions
from .bounds import DomainError, bound_functions, family_tables

# Relative orientation epsilon for the planar hull. A chain point a between
# neighbours o and b is dropped as collinear when the cross product
# (a - o) x (b - o) is at most HULL_EPS * |a - o| * |b - o| and a lies between
# o and b, so vertex lists stay minimal and deterministic. Being relative,
# the test keeps real extreme points of small-scale inputs.
HULL_EPS = 1e-12

# Above HULL_BIN_MIN_POINTS input points the hull first drops, in one pass
# over HULL_BINS bins of x, points it can show to lie inside the hull; the
# thousands of small hulls of a pentagon stay clear of the pass's cost.
HULL_BINS = 256
HULL_BIN_MIN_POINTS = 16 * HULL_BINS

# A region lattice has at most this many points: (n + 1)^2 power splits,
# about 223 B each while the decode-and-forward grid and hull run (a
# tracemalloc peak of 53.5 MiB for n = 500), so about 223 MiB at the cap.
MAX_REGION_POINTS = 1 << 20


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
    cands = _pentagon_candidates_batch(g[None, 0b01], g[None, 0b10], g[None, 0b11])
    verts = convex_hull(np.vstack([np.zeros((1, 2)), cands]))
    return RegionPolytope(2, verts)


def _df_pentagon_grid(config, n):
    """Candidate vertices of every lattice power split's intersection under
    beta_star and under the even relay split (0.5, 0.5).

    A split with beta_k = 0 adds none: the destination bound then does not
    depend on alpha_k (its coherent term is sqrt(0)) and the relay bound
    only rises in it, so its pentagon at alpha_k = 1 holds the others on its
    line, and there beta_star is that split bit for bit ((1.0, 0.0) at
    alpha = (a, 1) as w/w and 0/w; at (1, 1) the zero split, whose pentagon
    holds those of (1, 0) and (0, 1))."""
    steps = np.arange(n + 1) / n
    alpha = np.stack([x.ravel() for x in np.meshgrid(steps, steps, indexing="ij")], axis=1)
    even = np.full(alpha.shape, 0.5)
    tables = (np.minimum(*family_tables(config, "inner", alpha, beta)) for beta in (None, even))
    return np.vstack([_pentagon_candidates_batch(g[:, 0b01], g[:, 0b10], g[:, 0b11]) for g in tables])


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
    """Candidate vertices of every lattice correlation's intersection."""
    gamma = compositions(3, n)[:, :2] / n
    g = np.minimum(*family_tables(config, "outer", gamma))
    return _pentagon_candidates_batch(g[:, 0b01], g[:, 0b10], g[:, 0b11])


def build_df_region(config, grid_resolution=0.02):
    """Two-user decode-and-forward region: hull of the per-split
    intersections over a power-split lattice. The region is convex, so the
    hull converges to it from inside as the lattice refines."""
    n = _lattice_steps(config, grid_resolution)
    verts = convex_hull(_df_pentagon_grid(config, n))
    return RegionPolytope(2, verts)


def build_outer_region(config, grid_resolution=0.02):
    """Two-user cutset outer region: hull over the correlation lattice. The
    hull realizes the time-sharing closure, which in the plane equals the
    set of at-most-3-point mixtures."""
    n = _lattice_steps(config, grid_resolution)
    verts = convex_hull(_outer_pentagon_grid(config, n))
    return RegionPolytope(2, verts)


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
    """Andrew monotone-chain hull, counterclockwise from the
    lexicographically smallest vertex; collinear points dropped.

    Before the chain runs, points that cannot be hull vertices are dropped:
    all but the lowest and the highest point of each distinct x, a highest
    point that is not strictly above every highest point to its left or to
    its right, and a lowest point that is not strictly below every lowest
    point to its left or to its right. This is sound for any input: a
    dropped highest point lies on or below a segment joining two other
    highest points, and either above its own column's lowest point or, being
    that point too, on or above a segment joining two other lowest points,
    so it lies in the hull of the other points. The filter costs one stable
    sort on x; a region grid of a hundred thousand candidates leaves a few
    hundred for the chain. Above HULL_BIN_MIN_POINTS points, an O(n) pass
    over x bins (`_binned_candidates`) first drops most of the points the
    sort would. Every returned row is an input row, bit for bit. Raises
    ValueError on a NaN or infinite coordinate."""
    pts = np.asarray(points, dtype=np.float64)
    if not np.isfinite(pts).all():
        raise ValueError("convex_hull needs finite coordinates")
    if len(pts) > HULL_BIN_MIN_POINTS:
        pts = _binned_candidates(pts)
    if len(pts) > 2:
        pts = _hull_candidates(pts)
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
        cross = (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
        if cross <= 0.0:
            return True
        near = cross <= HULL_EPS * np.hypot(ax - ox, ay - oy) * np.hypot(bx - ox, by - oy)
        return near and (ax - ox) * (bx - ax) + (ay - oy) * (by - ay) > 0.0

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


def _binned_candidates(pts):
    """The points that survive one pass over HULL_BINS equal bins of x: a
    point is dropped when points in strictly lower bins and points in
    strictly higher bins reach at least its height, and points on both
    sides reach at least as low. The bin index is monotone in x, so a
    dropped point lies in the hull of four points of other x. The highest
    point left of any bin survives (in the lowest bin holding that height),
    and so does the lowest, so `_hull_candidates` keeps the same points
    after this pass as without it. A zero span, or one whose reciprocal
    overflows, skips the pass."""
    x, y = pts[:, 0], pts[:, 1]
    lo = x.min()
    with np.errstate(over="ignore", divide="ignore"):
        span = x.max() - lo
        inv = 1.0 / span
    if not (np.isfinite(span) and np.isfinite(inv)):
        return pts
    bins = np.minimum(((x - lo) * inv * HULL_BINS).astype(np.intp), HULL_BINS - 1)
    top = np.full(HULL_BINS, -np.inf)
    bottom = np.full(HULL_BINS, -np.inf)
    np.maximum.at(top, bins, y)
    np.maximum.at(bottom, bins, -y)
    return pts[(y > _reach(top)[bins]) | (-y > _reach(bottom)[bins])]


def _hull_candidates(pts):
    """The lowest and highest points of each distinct x that the filter in
    `convex_hull` keeps: one stable sort on x, then the least and greatest y
    of each run of equal x."""
    # The bits of x, read as integers and with the magnitude bits of
    # negatives flipped, sort as x does but put -0.0 before 0.0. A run then
    # holds one bit pattern of x, and each kept (x, y) is an input row; -0.0
    # and 0.0 make two columns at one abscissa, for which the argument in
    # `convex_hull` holds as well.
    bits = pts[:, 0].view(np.int64)
    key = bits ^ ((bits >> 63) & np.iinfo(np.int64).max)
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    x = pts[order[starts], 0]
    y = pts[order, 1]
    low = np.minimum.reduceat(y, starts)
    high = np.maximum.reduceat(y, starts)
    low_kept = -low > _reach(-low)
    high_kept = high > _reach(high)
    return np.column_stack([np.concatenate([x[low_kept], x[high_kept]]),
                            np.concatenate([low[low_kept], high[high_kept]])])


def _reach(v):
    """For each entry of v, the greatest entry before it or the greatest
    after it, whichever is lower (-inf where a side is empty): an entry
    above its reach is strictly greater than every entry on one side."""
    before = np.concatenate([[-np.inf], np.maximum.accumulate(v)[:-1]])
    after = np.concatenate([np.maximum.accumulate(v[::-1])[::-1][1:], [-np.inf]])
    return np.minimum(before, after)


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


def polygon_area(vertices):
    v = np.asarray(vertices, dtype=np.float64)
    if len(v) < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


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
