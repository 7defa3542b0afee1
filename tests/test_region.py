"""Rate-region polytopes: pentagon vertices, grid hulls, geometry."""

import hashlib
import itertools

import numpy as np
import pytest

from marc_cap import (
    ChannelConfig,
    DomainError,
    RegionPolytope,
    build_df_region,
    build_intersection,
    build_outer_region,
    region,
)
from marc_cap.bounds import (
    CorrelationVector,
    DfPowerSplit,
    beta_star,
    df_to_correlation,
    family_tables,
)
from marc_cap._kernels import compositions
from marc_cap.region import (
    _pentagon_candidates_batch,
    convex_hull,
    hausdorff_distance,
    point_polygon_distance,
    polygon_area,
    polygon_contains,
)
from conftest import random_config, random_split

RATE_1 = 1.660964047443681
SQUARE = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])

# Zero-correlation intersection for the first worked example: the relay cut
# binds only on the full set, the destination cut on the singletons.
EX1_G = (1.292481250360578, 1.160964047443681, 1.5)
EX1_PENTAGON = np.array([
    (0.0, 0.0),
    (1.292481250360578, 0.0),
    (1.292481250360578, 0.207518749639422),
    (0.339035952556319, 1.160964047443681),
    (0.0, 1.160964047443681),
])


def test_pentagon_candidates_box_and_pentagon():
    def candidates(g1, g2, g12):
        return [tuple(p) for p in _pentagon_candidates_batch(np.array([g1]), np.array([g2]), np.array([g12])).tolist()]

    # Loose full-set bound: the rectangle corner is a vertex (the origin is
    # added by the callers).
    assert candidates(1.0, 1.0, 3.0) == [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    # Tight full-set bound: two diagonal corners instead.
    pts = candidates(1.0, 1.0, 1.5)
    assert (1.0, 0.5) in pts and (0.5, 1.0) in pts and len(pts) == 4
    # Full-set bound below one singleton: only the feasible corner survives.
    pts = candidates(5.0, 1.0, 5.5)
    assert (5.0, 0.5) in pts and (4.5, 1.0) in pts


def _nan_sentinel_candidates(g1, g2, g12):
    """The candidate builder before the axis points were reduced: both axis
    points of every row, infeasible corners written as NaN and filtered."""
    zero = np.zeros_like(g1)
    pts = [
        np.stack([np.minimum(g1, g12), zero], axis=1),
        np.stack([zero, np.minimum(g2, g12)], axis=1),
    ]
    rect = g1 + g2 <= g12
    pts.append(np.stack([np.where(rect, g1, np.nan), np.where(rect, g2, np.nan)], axis=1))
    c_ok = ~rect & (g12 - g1 >= 0.0) & (g12 - g1 <= g2)
    pts.append(np.stack([np.where(c_ok, g1, np.nan), np.where(c_ok, g12 - g1, np.nan)], axis=1))
    d_ok = ~rect & (g12 - g2 >= 0.0) & (g12 - g2 <= g1)
    pts.append(np.stack([np.where(d_ok, g12 - g2, np.nan), np.where(d_ok, g2, np.nan)], axis=1))
    out = np.vstack(pts)
    return out[~np.isnan(out).any(axis=1)]


def test_pentagon_candidates_keep_the_hull():
    # Dropping all but each axis's nearest and farthest point leaves the hull
    # of a batch's pentagons, with the origin as `build_intersection` adds
    # it, unchanged to the bit; every fourth batch is also checked without
    # the origin, as the region grids use it. A quarter of the batches lie
    # on g12 = g1 + g2, another quarter on g12 = g1 or g12 = g2; half of the
    # batches sit on a coarse grid, so rows tie and axis points repeat.
    rng = np.random.default_rng(909)
    for i in range(20000):
        n = rng.integers(1, 51)
        g1, g2 = rng.uniform(0.0, 2.0, size=(2, n))
        if i % 2:
            g1, g2 = np.round(4.0 * g1) / 4.0, np.round(4.0 * g2) / 4.0
        if i % 4 == 0:
            g12 = g1 + g2
        elif i % 4 == 1:
            g12 = np.where(rng.random(n) < 0.5, g1, g2)
        else:
            g12 = rng.uniform(0.0, 1.2, n) * (g1 + g2)
        new = _pentagon_candidates_batch(g1, g2, g12)
        old = _nan_sentinel_candidates(g1, g2, g12)
        origins = [np.zeros((1, 2)), np.zeros((0, 2))] if i % 4 == 3 else [np.zeros((1, 2))]
        for origin in origins:
            hull = convex_hull(np.vstack([origin, new]))
            reference = convex_hull(np.vstack([origin, old]))
            assert hull.tobytes() == reference.tobytes() and hull.shape == reference.shape


def _five_beta_df_grid(config, n):
    """The decode-and-forward candidate grid before the boundary betas were
    pruned: every lattice power split's pentagon under beta_star and under
    each of four boundary betas, written here rather than read from region."""
    steps = np.arange(n + 1) / n
    alpha = np.stack([x.ravel() for x in np.meshgrid(steps, steps, indexing="ij")], axis=1)
    boundary = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5))
    betas = [beta_star(config, alpha)] + [np.broadcast_to(b, alpha.shape) for b in boundary]
    tables = (np.minimum(*family_tables(config, "inner", alpha, beta)) for beta in betas)
    return np.vstack([_pentagon_candidates_batch(g[:, 0b01], g[:, 0b10], g[:, 0b11]) for g in tables])


@pytest.mark.parametrize("n", [20, 50])
def test_pruned_df_grid_keeps_the_hull(n, example1, example2):
    # The grid builds only the beta_star and (0.5, 0.5) pentagons; the hull
    # of the candidates stays the same to the bit.
    rng = np.random.default_rng(912)
    configs = [random_config(rng, K=2, lo=0.01, hi=100.0) for _ in range(20)]
    for config in [example1, example2, *configs]:
        pruned = region._df_pentagon_grid(config, n)
        full = _five_beta_df_grid(config, n)
        assert len(pruned) < len(full)
        hull = convex_hull(pruned)
        assert hull.tobytes() == convex_hull(full).tobytes() and len(hull) >= 3


def test_pruned_df_grid_size(example1):
    # At step 0.005 the grid builds the pentagons of beta_star and (0.5, 0.5)
    # over the 40,401 power splits, none of (0, 0), (1, 0) and (0, 1).
    assert len(region._df_pentagon_grid(example1, 200)) == 158_990
    assert len(_five_beta_df_grid(example1, 200)) == 395_877


def test_df_bounds_at_zero_beta_favour_full_alpha():
    # Why the pruning holds in floating point: with beta_k = 0 the
    # destination row does not depend on alpha_k, bit for bit, and the relay
    # row does not fall as alpha_k rises.
    rng = np.random.default_rng(913)
    for _ in range(50):
        config = random_config(rng, K=2, lo=0.01, hi=100.0)
        k = rng.integers(2)
        alpha = np.repeat(rng.uniform(size=(1, 2)), 40, axis=0)
        alpha[:, k] = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(size=38)]))
        beta = np.zeros((40, 2))
        beta[:, 1 - k] = rng.choice([0.0, 0.5, 1.0, rng.uniform()])
        dest, relay = family_tables(config, "inner", alpha, beta)
        assert (dest.view(np.int64) == dest[:1].view(np.int64)).all()
        assert (np.diff(relay, axis=0) >= 0.0).all()


def test_build_intersection_example1_zero_correlation(example1):
    poly = build_intersection(example1, CorrelationVector((0.0, 0.0)))
    assert poly.K == 2
    np.testing.assert_allclose(poly.vertices, EX1_PENTAGON, rtol=0, atol=1e-15)
    assert poly.max_sum() == EX1_G[2]
    assert not poly.vertices.flags.writeable


def test_build_intersection_accepts_split(example1):
    rng = np.random.default_rng(5)
    split = DfPowerSplit(*random_split(rng, 2))
    poly = build_intersection(example1, split)
    assert (poly.vertices >= 0.0).all()
    assert (poly.vertices == 0.0).all(axis=1).any()


def test_df_pentagon_inside_cutset_pentagon():
    # Any split's achievable pentagon sits inside the cutset pentagon at the
    # correlation that split induces: Cauchy-Schwarz on the coherent terms.
    rng = np.random.default_rng(11)
    for _ in range(10):
        cfg = random_config(rng, K=2)
        split = DfPowerSplit(*random_split(rng, 2))
        inner = build_intersection(cfg, split)
        outer = build_intersection(cfg, df_to_correlation(split))
        for v in inner.vertices:
            assert polygon_contains(outer.vertices, v, tol=1e-9)


def test_bottleneck_regions_coincide(bottleneck):
    # Weak sources, huge relay power: every parameter choice is dominated by
    # zero correlation, so inner and outer hulls collapse onto one pentagon.
    pent = build_intersection(bottleneck, CorrelationVector((0.0, 0.0)))
    inner = build_df_region(bottleneck, 0.05)
    outer = build_outer_region(bottleneck, 0.05)
    assert hausdorff_distance(inner.vertices, outer.vertices) < 1e-12
    assert hausdorff_distance(outer.vertices, pent.vertices) < 1e-12
    np.testing.assert_allclose(
        pent.vertices,
        [(0.0, 0.0), (0.5, 0.0), (0.5, 0.2924812503605781),
         (0.2924812503605781, 0.5), (0.0, 0.5)],
        rtol=0, atol=1e-15)


def test_region_max_sum_hits_closed_form(example1):
    # Step 0.05 puts an equalizing point on both lattices: alpha = (0.9, 0.9)
    # for the splits, gamma = (0, 0.25) for the correlations.
    inner = build_df_region(example1, 0.05)
    outer = build_outer_region(example1, 0.05)
    assert inner.max_sum() == pytest.approx(RATE_1, rel=1e-12)
    assert outer.max_sum() == pytest.approx(RATE_1, rel=1e-12)
    assert inner.max_sum() <= RATE_1 + 1e-12
    assert outer.max_sum() <= RATE_1 + 1e-12


def test_region_refinement_grows_the_hull(example1):
    # n=10 lattice points are a subset of the n=20 lattice, so the hull area
    # can only grow under refinement.
    for build in (build_df_region, build_outer_region):
        coarse = polygon_area(build(example1, 0.1).vertices)
        fine = polygon_area(build(example1, 0.05).vertices)
        assert fine >= coarse - 1e-12


def test_region_builder_validation(example1, example3):
    with pytest.raises(DomainError, match="K=2 only"):
        build_df_region(example3)
    with pytest.raises(DomainError, match="grid resolution"):
        build_outer_region(example1, 0.0)
    with pytest.raises(DomainError, match="grid resolution"):
        build_df_region(example1, 1.5)
    with pytest.raises(DomainError, match="grid resolution"):
        build_df_region(example1, float("nan"))
    # The lattice is capped before it is allocated: (n + 1)^2 points at most,
    # so n = 1023 is the finest lattice (checked here without building it).
    assert region.MAX_REGION_POINTS == 1024 ** 2
    assert region._lattice_steps(example1, 1 / 1023) == 1023
    for step in (1 / 1024, 1e-4, 5e-324):
        for build in (build_df_region, build_outer_region):
            with pytest.raises(DomainError, match=f"grid resolution {step!r} needs more than 1048576 lattice points"):
                build(example1, step)


def test_convex_hull_knowns():
    pts = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.5, 0), (0, 0), (1, 0.5)],
                   dtype=float)
    np.testing.assert_array_equal(convex_hull(pts), SQUARE)
    np.testing.assert_array_equal(convex_hull(np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])),
                                  [(0.0, 0.0), (2.0, 2.0)])
    np.testing.assert_array_equal(convex_hull(np.array([(0.3, 0.4)])), [(0.3, 0.4)])


@pytest.mark.parametrize("points, expected", [
    ([(0.0, 0.0), (0.0, 0.5), (1.0, 0.0), (-2.0033017293014965e-143, 1.0)],
     [(-2.0033017293014965e-143, 1.0), (0.0, 0.0), (1.0, 0.0)]),
    ([(0.0, 1.0), (-1.0, 0.0), (-4.999641353300204e-247, 0.0), (-7.837379627310001e-296, 2.0)],
     [(-1.0, 0.0), (-4.999641353300204e-247, 0.0), (0.0, 1.0), (-7.837379627310001e-296, 2.0)]),
    # Mixed scales: an absolute epsilon dropped the lowest point, then the
    # highest, although each lies 2e-8 to 7e-8 beyond a chord 3 to 17 long.
    ([(2.418785367323337e-06, 1.1064507974277359e-249), (1.6714078581523489e-22, -1.9385505846181193e-08),
      (5.905009896324608e-63, 0.0014021805297631139), (17.057153324166055, -3.2690186590164595e-40),
      (-1.6670720193487503e-07, 1.1550593198726128e-171)],
     [(-1.6670720193487503e-07, 1.1550593198726128e-171), (1.6714078581523489e-22, -1.9385505846181193e-08),
      (17.057153324166055, -3.2690186590164595e-40), (5.905009896324608e-63, 0.0014021805297631139)]),
    ([(-7.0430287906274285e-168, 6.876992179386011e-08), (-7.957024807909816e-09, 6.893889338544574e-11),
      (0.6942219093700253, -5.993655473004596), (9.505157526051008e-07, 3.100172037288985e-183),
      (-3.0673846251170183, -6.602590567333434e-222)],
     [(-3.0673846251170183, -6.602590567333434e-222), (0.6942219093700253, -5.993655473004596),
      (9.505157526051008e-07, 3.100172037288985e-183), (-7.0430287906274285e-168, 6.876992179386011e-08)]),
])
def test_convex_hull_keeps_extreme_points_of_near_vertical_chains(points, expected):
    # Near-collinear points within HULL_EPS (relative to the lengths of the
    # two chords) are dropped only when they lie between their chain
    # neighbours, never when the chain doubles back.
    pts = np.array(points)
    hull = convex_hull(pts)
    np.testing.assert_array_equal(hull, expected)
    assert all(polygon_contains(hull, p, tol=0.0) for p in pts)


def _point_sets(rng):
    for _ in range(40):
        yield rng.normal(size=(rng.integers(3, 60), 2))
        yield rng.integers(-4, 5, size=(rng.integers(3, 80), 2)).astype(float)
        t = rng.uniform(-1.0, 1.0, size=rng.integers(3, 40))
        yield np.stack([t, 0.5 * t + 1e-13 * rng.normal(size=t.size)], axis=1)
        # Mixed scales down to 1e-300, where raw cross products underflow.
        n = rng.integers(3, 20)
        yield rng.uniform(-1.0, 1.0, size=(n, 2)) * 10.0 ** rng.integers(-300, 2, size=(n, 2))
        # One scale per axis, down to 1e-300.
        yield rng.normal(size=(rng.integers(3, 40), 2)) * 10.0 ** rng.integers(-300, 2, size=2)


def test_convex_hull_keeps_every_extreme_point():
    # Oracle independent of the candidate filter: a point that maximizes p.d
    # over the set by a clear margin, for some direction d, is a vertex.
    rng = np.random.default_rng(606)
    checked = 0
    for pts in _point_sets(rng):
        hull = convex_hull(pts)
        distinct = np.unique(pts, axis=0)
        scale = np.abs(distinct).max()
        for d in rng.normal(size=(50, 2)):
            score = distinct @ d
            order = np.argsort(score)
            if len(distinct) > 1 and score[order[-1]] - score[order[-2]] <= 1e-9 * scale * np.hypot(*d):
                continue
            assert (hull == distinct[order[-1]]).all(axis=1).any()
            checked += 1
    assert checked > 5000


def _filter_sets(rng):
    # Repeated x columns, exact duplicates, and 0.0 mixed with -0.0.
    for _ in range(40):
        n = rng.integers(3, 60)
        yield np.stack([rng.integers(-3, 4, size=n).astype(float), rng.normal(size=n)], axis=1)
        base = rng.integers(-2, 3, size=(rng.integers(1, 8), 2)).astype(float)
        yield base[rng.integers(0, len(base), size=rng.integers(3, 30))]
        yield rng.choice([-1.0, -0.0, 0.0, 1.0], size=(rng.integers(3, 30), 2))
    # A column's top and bottom come from rows whose x differ in the sign of
    # zero; pairing one row's x with another's y makes a row not in the set.
    yield np.array([(-0.0, 1.0), (0.0, 2.0), (0.0, -1.0), (-0.0, -2.0), (1.0, 0.0), (-1.0, 0.0)])
    yield np.array([(0.0, 2.0), (-0.0, 1.0), (-0.0, -1.0), (0.0, -2.0), (-1.0, 0.0), (1.0, 0.0)])


def test_hull_filter_matches_the_chain_alone(monkeypatch):
    # The candidate filter drops only points that are no hull vertex: with it
    # the hull equals the monotone chain run on every distinct point, and
    # every vertex is an input row, bit for bit.
    sets = [*_point_sets(np.random.default_rng(606)), *_filter_sets(np.random.default_rng(607))]
    hulls = [convex_hull(pts) for pts in sets]
    monkeypatch.setattr(region, "_hull_candidates", lambda pts: pts)
    for pts, hull in zip(sets, hulls):
        np.testing.assert_array_equal(hull, convex_hull(np.unique(pts, axis=0)), strict=True)
        rows = {row.tobytes() for row in pts}
        assert all(row.tobytes() in rows for row in hull)


def _large_sets(rng):
    # Sets above the threshold of the binned pass, each with whether the
    # pass is skipped: x ties, 0.0 mixed with -0.0, a quarter disc like the
    # region grids, and spans of zero, or whose reciprocal overflows.
    n = region.HULL_BIN_MIN_POINTS + 1000
    yield rng.normal(size=(n, 2)), False
    yield rng.integers(-300, 301, size=(n, 2)).astype(float), False
    yield rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(n, 2)) + [0.0, 1.0] * rng.normal(size=(n, 1)), False
    t, r = rng.uniform(0.0, np.pi / 2, n), np.sqrt(rng.uniform(size=n))
    yield np.stack([r * np.cos(t), r * np.sin(t)], axis=1), False
    yield np.stack([rng.uniform(-1.0, 1.0, n) * 1e-300, rng.normal(size=n)], axis=1), False
    yield rng.choice([-0.0, 0.0], size=(n, 2)) + [0.0, 1.0] * rng.normal(size=(n, 1)), True
    yield rng.uniform(-1.0, 1.0, size=(n, 2)) * 1.7e308, True
    yield np.stack([rng.integers(-2000, 2001, n) * 5e-324, rng.normal(size=n)], axis=1), True


def test_binned_pass_matches_the_chain_alone(monkeypatch):
    # The binned pass drops only points that `_hull_candidates` drops too,
    # so the candidates, and the hull, are the same with it as without it:
    # the monotone chain run on every distinct point.
    sets, skipped = zip(*_large_sets(np.random.default_rng(608)))
    hulls = [convex_hull(pts) for pts in sets]
    for pts, skip in zip(sets, skipped):
        binned = region._binned_candidates(pts)
        assert len(binned) == len(pts) if skip else len(binned) < len(pts) / 2
        same = region._hull_candidates(binned)
        assert same.tobytes() == region._hull_candidates(pts).tobytes()
    monkeypatch.setattr(region, "_binned_candidates", lambda pts: pts)
    monkeypatch.setattr(region, "_hull_candidates", lambda pts: pts)
    for pts, hull in zip(sets, hulls):
        np.testing.assert_array_equal(hull, convex_hull(np.unique(pts, axis=0)), strict=True)


def test_small_hulls_skip_the_binned_pass(monkeypatch):
    # Hulls of at most HULL_BIN_MIN_POINTS points, like the many pentagon
    # hulls, do not pay for the pass.
    calls = []
    monkeypatch.setattr(region, "_binned_candidates", lambda pts: calls.append(len(pts)) or pts)
    convex_hull(np.random.default_rng(1).normal(size=(region.HULL_BIN_MIN_POINTS, 2)))
    assert calls == []
    convex_hull(np.random.default_rng(1).normal(size=(region.HULL_BIN_MIN_POINTS + 1, 2)))
    assert calls == [region.HULL_BIN_MIN_POINTS + 1]


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_convex_hull_rejects_non_finite_points(axis, bad):
    pts = np.array([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0), (0.5, 0.5)])
    pts[1, axis] = bad
    with pytest.raises(ValueError, match="finite"):
        convex_hull(pts)


def test_convex_hull_keeps_vertices_when_cross_products_underflow():
    # x of order 1e-206 and y of order 1e-155: every cross product of the raw
    # coordinates underflows to 0.0, and the chain used to drop all but two
    # points. With each axis divided by its largest magnitude the hull has
    # six vertices, and so it must have here.
    rng = np.random.default_rng(3)
    x = rng.uniform(-10.0, 10.0, 12) * 1e-206
    y = rng.uniform(-10.0, 10.0, 12) * 1e-155
    pts = np.stack([x, y], axis=1)
    assert convex_hull(pts).tolist() == [
        [-8.287016657127513e-206, -1.3874395917164435e-155],
        [-8.117427155192016e-206, -4.315976725024171e-155],
        [4.6915430281842915e-206, -9.970198329823276e-155],
        [6.025489304127937e-206, 4.756755745843204e-155],
        [1.6432407212873558e-206, 9.125345096721973e-155],
        [-7.726559601571932e-206, 9.469205495328254e-155],
    ]
    assert len(convex_hull(pts / np.abs(pts).max(axis=0))) == 6


# Vertex arrays of both regions at step 0.02, frozen to the bit.
REGION_VERTICES_002 = {
    ("example1", "inner"): [
        (0.0, 0.0),
        (1.3785116232537298, 0.0),
        (1.3785116232537298, 0.20482970381918753),
        (1.3655916207861, 0.24508786202008337),
        (1.339035952556319, 0.3219280948873622),
        (0.5601471168588559, 1.1008169305848252),
        (0.5448186062423384, 1.1132542649043398),
        (0.5399424482818933, 1.115227612024182),
        (0.39995518980961986, 1.1493291577822575),
        (0.3390359525563189, 1.160964047443681),
        (0.0, 1.160964047443681),
    ],
    ("example1", "outer"): [
        (0.0, 0.0),
        (1.3785116232537298, 0.0),
        (1.3785116232537298, 0.2048297038191873),
        (1.3779887813460048, 0.2494201916668779),
        (1.3774437510817343, 0.26745842724857716),
        (1.376875089230885, 0.2811682172313761),
        (1.3639602272815996, 0.2970038201620815),
        (0.5249842296370424, 1.1359798178066387),
        (0.5091358897289227, 1.1483085031790874),
        (0.3390359525563189, 1.160964047443681),
        (0.0, 1.160964047443681),
    ],
    ("example2", "inner"): [
        (0.0, 0.0),
        (1.3785116232537298, 0.0),
        (1.3785116232537298, 0.041468170491036016),
        (1.2884625908278688, 0.1315172029168969),
        (1.2317816488953233, 0.18739171936529203),
        (1.1839440687422491, 0.23442197148731875),
        (1.1650743008461655, 0.24271341358512083),
        (0.0, 0.24271341358512083),
    ],
    ("example2", "outer"): [
        (0.0, 0.0),
        (1.3785116232537298, 0.0),
        (1.3785116232537298, 0.041468170491036016),
        (1.177266380159645, 0.24271341358512083),
        (0.0, 0.24271341358512083),
    ],
}


@pytest.mark.parametrize("example, bound", sorted(REGION_VERTICES_002))
def test_region_vertices_frozen_at_step_002(request, example, bound):
    build = build_df_region if bound == "inner" else build_outer_region
    vertices = build(request.getfixturevalue(example), 0.02).vertices
    np.testing.assert_array_equal(vertices, REGION_VERTICES_002[example, bound], strict=True)


# Vertex count and SHA-256 of the vertex bytes of both regions at step
# 0.005, where the candidate grids hold hundreds of thousands of points.
REGION_DIGESTS_0005 = {
    ("example1", "inner"): (14, "77b40c07ecc4187b2fde522f1327765fdc799d7aa4940917d8bde13b83283c2d"),
    ("example1", "outer"): (16, "1d11f7f7e6ced547d0829cc990ceb3f6329103fb6e24a5dc426a8372bbef5e36"),
    ("example2", "inner"): (14, "ed601922dfe99e8503e004af5f24c9fd4c6032ea50e6129688ac4e288c68c8a4"),
    ("example2", "outer"): (12, "ac50c37d2b0f6f347986e176bd82d8517872207895871024dddafb59dfca549d"),
}


@pytest.mark.parametrize("example, bound", sorted(REGION_DIGESTS_0005))
def test_region_vertices_frozen_at_step_0005(request, example, bound):
    build = build_df_region if bound == "inner" else build_outer_region
    vertices = build(request.getfixturevalue(example), 0.005).vertices
    assert (len(vertices), hashlib.sha256(vertices.tobytes()).hexdigest()) == REGION_DIGESTS_0005[example, bound]


def test_region_stages_keep_their_names():
    # The benchmark's span tracer wraps these three by name to time the
    # candidate grids and the hull; after a rename it would time nothing.
    for name in ("_df_pentagon_grid", "_outer_pentagon_grid", "convex_hull"):
        assert callable(getattr(region, name, None)), name


def test_correlation_lattice_rows():
    # The enumerator behind the cutset region grid (and every other simplex
    # lattice): rows of K nonnegative integers summing to n, in
    # lexicographic order.
    for K in range(1, 5):
        for n in range(13):
            rows = np.array([r for r in itertools.product(range(n + 1), repeat=K) if sum(r) == n]).reshape(-1, K)
            np.testing.assert_array_equal(compositions(K, n), rows, strict=True)


def test_polygon_area_knowns():
    assert polygon_area(SQUARE) == 1.0
    assert polygon_area(np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])) == 0.5
    assert polygon_area(np.array([(0.0, 0.0), (1.0, 1.0)])) == 0.0


def test_polygon_contains_and_distance():
    assert polygon_contains(SQUARE, (0.5, 0.5))
    assert polygon_contains(SQUARE, (1.0, 0.5))
    assert not polygon_contains(SQUARE, (1.1, 0.5))
    assert point_polygon_distance(SQUARE, (0.5, 0.5)) == 0.0
    assert point_polygon_distance(SQUARE, (2.0, 0.5)) == 1.0
    assert point_polygon_distance(SQUARE, (2.0, 2.0)) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert point_polygon_distance(np.array([(1.0, 1.0)]), (4.0, 5.0)) == 5.0


def test_hausdorff_knowns():
    assert hausdorff_distance(SQUARE, SQUARE) == 0.0
    assert hausdorff_distance(SQUARE, SQUARE + np.array([0.3, 0.0])) == pytest.approx(0.3, rel=1e-15)
    assert hausdorff_distance(SQUARE, 2.0 * SQUARE) == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_build_intersection_rejects_unknown_params(example1):
    with pytest.raises(DomainError, match="unsupported parameter type"):
        build_intersection(example1, (0.1, 0.2))
    three_user = ChannelConfig(3, (3.0, 1.5, 0.7), 2.0, 1.0, 1.5)
    with pytest.raises(DomainError, match="K=2 only"):
        build_intersection(three_user, CorrelationVector((0.1, 0.2, 0.3)))


def test_region_polytope_max_sum():
    poly = RegionPolytope(2, [(0.0, 0.0), (1.0, 0.25), (0.25, 0.9)])
    assert poly.max_sum() == 1.25
