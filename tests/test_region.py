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
    bound_functions,
    family_tables,
)
from marc_cap._kernels import compositions
from marc_cap.region import (
    _pentagon_candidates_batch,
    convex_hull,
    hausdorff_distance,
    point_polygon_distance,
    polygon_contains,
)
from marc_cap.sumcap import bottleneck_check
from conftest import random_config, random_split, sha256_of

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
    # Dropping all but each axis's nearest and farthest point leaves the
    # polygon of a batch's pentagons unchanged to the bit: `_polygon` reads
    # only the candidates' maxima and their staircase, and both stay the same.
    # Every tenth polygon is also checked against the plain hull of the
    # origin and every candidate. A quarter of the batches lie on
    # g12 = g1 + g2, another quarter on g12 = g1 or g12 = g2; half of the
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
        assert region._staircase(new).tobytes() == region._staircase(old).tobytes()
        assert new.max(axis=0).tobytes() == old.max(axis=0).tobytes()
        if i % 10 == 0:
            hull = convex_hull(np.vstack([np.zeros((1, 2)), old]))
            np.testing.assert_array_equal(region._polygon(new).vertices, hull, strict=True)


def _undominated(pts):
    """Brute force, O(n^2): the distinct points that no other distinct point
    lies at least as far right and at least as high as, sorted by x."""
    p = np.unique(pts, axis=0)
    dominators = ((p[:, None, 0] <= p[None, :, 0]) & (p[:, None, 1] <= p[None, :, 1])).sum(axis=1)
    return p[dominators == 1]


def _staircase_sets(rng):
    # Pentagon candidates with their axis points, x ties, exact duplicates,
    # single points, a quarter disc like the region grids, and x spans of
    # zero, of a few subnormals, near the float range and beyond it, where
    # the binned pass is skipped.
    for _ in range(40):
        n = rng.integers(1, 40)
        g1, g2 = rng.uniform(0.0, 2.0, size=(2, n))
        yield _pentagon_candidates_batch(g1, g2, rng.uniform(0.0, 1.2, n) * (g1 + g2))
        yield rng.integers(0, 6, size=(rng.integers(1, 80), 2)).astype(float)
        base = rng.uniform(size=(rng.integers(1, 6), 2))
        yield base[rng.integers(0, len(base), size=rng.integers(1, 30))]
        yield rng.uniform(size=(1, 2))
    n = 3000
    t, r = rng.uniform(0.0, np.pi / 2, n), np.sqrt(rng.uniform(size=n))
    yield np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    yield rng.uniform(size=(n, 2))
    yield np.stack([np.full(n, 0.7), rng.normal(size=n)], axis=1)
    yield np.stack([np.zeros(n), rng.uniform(size=n)], axis=1)
    yield np.stack([rng.integers(0, 2000, n) * 5e-324, rng.normal(size=n)], axis=1)
    yield np.stack([rng.uniform(size=n) * 1.7e308, rng.normal(size=n)], axis=1)
    yield np.stack([rng.uniform(-1.0, 1.0, n) * 1.7e308, rng.normal(size=n)], axis=1)


def test_staircase_matches_a_domination_oracle():
    for pts in _staircase_sets(np.random.default_rng(927)):
        stair = region._staircase(pts)
        expected = _undominated(pts)
        assert stair.tobytes() == expected.tobytes() and stair.shape == expected.shape


@pytest.mark.parametrize("bad", [(np.nan, 0.5), (0.5, np.nan), (np.inf, 0.5), (0.5, np.inf), (-np.inf, 0.0)])
def test_polygon_rejects_non_finite_candidates(bad):
    # (-inf, 0) is dominated by every other candidate, so the staircase alone
    # would drop it without a word.
    candidates = np.array([(1.0, 0.0), (0.0, 1.0), (0.75, 0.75), bad])
    with pytest.raises(ValueError, match="finite"):
        region._polygon(candidates)


@pytest.mark.parametrize("step", [1.0, 0.5])
def test_polygons_start_at_the_exact_origin(step):
    # On these Equalized configs the cutset lattice's rows at gamma = (1, 0)
    # and (0, 1) give singleton bounds of rounding dust, such as 4.8e-16;
    # its polygon used to have such dust vertices in place of the origin.
    configs = [
        ChannelConfig(2, (7.222453015528535, 4.772821226488525), 0.10051895732090366,
                      1.2185084171135434, 0.36650709675910786),
        ChannelConfig(2, (3.0, 1.5), 2.0, 1.0, 1.5),
    ]
    for config in configs:
        for build in (build_df_region, build_outer_region):
            vertices = build(config, step).vertices
            assert vertices[0].tobytes() == bytes(16)
            assert (np.hypot(*vertices[1:].T) > 1e-9).all()


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
    # The grid builds only the beta_star and (0.5, 0.5) pentagons; the
    # polygon of the candidates stays the same to the bit.
    rng = np.random.default_rng(912)
    configs = [random_config(rng, K=2, lo=0.01, hi=100.0) for _ in range(20)]
    for config in [example1, example2, *configs]:
        pruned = region._df_pentagon_grid(config, n)
        full = _five_beta_df_grid(config, n)
        assert len(pruned) < len(full)
        polygon = region._polygon(pruned).vertices
        assert polygon.tobytes() == region._polygon(full).vertices.tobytes() and len(polygon) >= 3


def _full_lattice_candidates(config, n, bound):
    """The candidates of every lattice row's pentagon, as the grids gave them
    before they were pruned block by block: the power splits under
    beta_star and under (0.5, 0.5) for 'inner', the correlations for
    'outer'; written here rather than read from region."""
    if bound == "inner":
        steps = np.arange(n + 1) / n
        alpha = np.stack([x.ravel() for x in np.meshgrid(steps, steps, indexing="ij")], axis=1)
        tables = [family_tables(config, "inner", alpha, beta) for beta in (None, np.full(alpha.shape, 0.5))]
    else:
        tables = [family_tables(config, "outer", compositions(3, n)[:, :2] / n)]
    g = [np.minimum(*t) for t in tables]
    return np.vstack([_pentagon_candidates_batch(x[:, 0b01], x[:, 0b10], x[:, 0b11]) for x in g])


def test_pruned_df_grid_size(example1):
    # At step 0.005 the pentagons of beta_star and (0.5, 0.5) over the
    # 40,401 power splits, none of (0, 0), (1, 0) and (0, 1), give 158,990
    # candidates; the grid, which skips the blocks of splits whose pentagons
    # lie strictly inside the polygon, returns 7,185.
    assert len(_full_lattice_candidates(example1, 200, "inner")) == 158_990
    assert len(_five_beta_df_grid(example1, 200)) == 395_877
    assert len(region._df_pentagon_grid(example1, 200)) == 7_185


# A config over 24 decades whose polygons are segments: a coarse polygon of
# fewer than 3 vertices keeps every block.
SEGMENT = ChannelConfig(2, (8.264699269404356e-08, 100656.82615306925), 1.68534256973385e-12,
                        7.593009504436562e-07, 114285553855.61026)


@pytest.mark.filterwarnings("error")
def test_pruned_lattices_keep_the_full_lattice_polygons():
    # Both polygons, from the grids and from the builders, are the bits of
    # the full lattice's, on seeded configs over 24 decades, segment
    # polygons among them, at steps that leave the lattice one block, a few
    # and many, and whose steps n are and are not multiples of the block.
    rng = np.random.default_rng(932)
    configs = [SEGMENT] + [random_config(rng, K=2, lo=1e-12, hi=1e12) for _ in range(40)]
    segments = 0
    for config in configs:
        for step in (1.0, 0.5, 0.1, 0.02, 0.01):
            n = round(1.0 / step)
            for bound, build, grid in (("inner", build_df_region, region._df_pentagon_grid),
                                       ("outer", build_outer_region, region._outer_pentagon_grid)):
                full = region._polygon(_full_lattice_candidates(config, n, bound)).vertices
                assert region._polygon(grid(config, n)).vertices.tobytes() == full.tobytes(), (config, step, bound)
                assert build(config, step).vertices.tobytes() == full.tobytes(), (config, step, bound)
                segments += len(full) < 3
    assert segments >= 20


def _evaluated_rows(monkeypatch):
    """The parameter rows, (i, j) / n, that the grids pass to
    family_tables, one array per call."""
    seen = []
    real = region.family_tables

    def counted(config, family, rows, beta=None):
        seen.append(rows)
        return real(config, family, rows, beta)

    monkeypatch.setattr(region, "family_tables", counted)
    return seen


def test_unpruned_lattices_evaluate_every_row_once(monkeypatch):
    # Where no block is dropped, as on a segment polygon, every lattice row
    # goes through the tables once per family, block edges and the last,
    # shorter blocks included.
    seen = _evaluated_rows(monkeypatch)
    for n in (1, 2, 7, 8, 9, 16, 17, 50):
        for grid, lattice, families in ((region._df_pentagon_grid, np.indices((n + 1, n + 1)).reshape(2, -1).T, 2),
                                        (region._outer_pentagon_grid, compositions(3, n)[:, :2], 1)):
            seen.clear()
            grid(SEGMENT, n)
            rows, counts = np.unique(np.rint(np.vstack(seen) * n).astype(int), axis=0, return_counts=True)
            np.testing.assert_array_equal(rows, np.unique(lattice, axis=0))
            assert (counts == families).all(), (grid.__name__, n)


def test_pruned_lattices_evaluate_few_rows(monkeypatch, example1, example2):
    # At step 0.005 each grid evaluates under 15% of its lattice rows: the
    # 2 x 40,401 power-split rows of the two relay splits, the 20,301
    # correlation rows.
    seen = _evaluated_rows(monkeypatch)
    for config in (example1, example2):
        for grid, lattice in ((region._df_pentagon_grid, 2 * 201 ** 2), (region._outer_pentagon_grid, 201 * 202 // 2)):
            seen.clear()
            grid(config, 200)
            assert sum(map(len, seen)) < 0.15 * lattice, grid.__name__


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
        outer = build_intersection(cfg, CorrelationVector(tuple((1.0 - np.asarray(split.alpha)) * split.beta)))
        for v in inner.vertices:
            assert polygon_contains(outer.vertices, v, tol=1e-9)


def test_bottleneck_regions_coincide(bottleneck):
    # Weak sources, huge relay power: every parameter choice is dominated by
    # zero correlation, so inner and outer polygons are one pentagon, bit
    # for bit.
    pent = build_intersection(bottleneck, CorrelationVector((0.0, 0.0)))
    inner = build_df_region(bottleneck, 0.05)
    outer = build_outer_region(bottleneck, 0.05)
    np.testing.assert_array_equal(inner.vertices, pent.vertices, strict=True)
    np.testing.assert_array_equal(outer.vertices, pent.vertices, strict=True)
    np.testing.assert_allclose(
        pent.vertices,
        [(0.0, 0.0), (0.5, 0.0), (0.5, 0.2924812503605781),
         (0.2924812503605781, 0.5), (0.0, 0.5)],
        rtol=0, atol=1e-15)


def _regime_configs(rng, count, lo, hi, bottleneck=True):
    """Seeded K=2 configs of one regime, Bottleneck or Equalized, every input
    log-uniform in [lo, hi]."""
    configs = []
    while len(configs) < count:
        config = random_config(rng, K=2, lo=lo, hi=hi)
        if bottleneck_check(config) == bottleneck:
            configs.append(config)
    return configs


def test_bottleneck_regions_equal_their_lattice_hulls():
    # The builders skip the lattice on these configs; the pentagon they
    # return is the polygon of the lattice candidates at step 0.02, bit for
    # bit.
    for config in _regime_configs(np.random.default_rng(926), 100, 1e-3, 1e3):
        inner = build_df_region(config, 0.02).vertices
        outer = build_outer_region(config, 0.02).vertices
        np.testing.assert_array_equal(inner, region._polygon(region._df_pentagon_grid(config, 50)).vertices, strict=True)
        np.testing.assert_array_equal(outer, region._polygon(region._outer_pentagon_grid(config, 50)).vertices, strict=True)


def _count_grid_calls(monkeypatch):
    calls = []
    for name in ("_df_pentagon_grid", "_outer_pentagon_grid"):
        grid = getattr(region, name)
        monkeypatch.setattr(region, name, lambda config, n, grid=grid, name=name: calls.append(name) or grid(config, n))
    return calls


def test_only_a_dominating_corner_skips_the_lattice(monkeypatch, example1, example2, bottleneck):
    # Where the corner row's destination table lies below its relay table on
    # some subset, here the full set, both builders evaluate their lattice;
    # on Bottleneck configs neither does.
    calls = _count_grid_calls(monkeypatch)
    hair = ChannelConfig(2, (1.0, 1.0), 2.0, 1.0, 1.0 + 2.0 ** -20)
    for config in (example1, example2, hair):
        for corner in (DfPowerSplit((1.0, 1.0), (0.0, 0.0)), CorrelationVector((0.0, 0.0))):
            dest, relay = (f.values for f in bound_functions(config, corner))
            assert dest[0b11] < relay[0b11]
        build_df_region(config, 0.05)
        build_outer_region(config, 0.05)
        assert calls == ["_df_pentagon_grid", "_outer_pentagon_grid"]
        calls.clear()
    for config in (bottleneck, *_regime_configs(np.random.default_rng(927), 10, 0.1, 10.0)):
        build_df_region(config, 0.05)
        build_outer_region(config, 0.05)
    assert calls == []


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
    # n=10 lattice points are a subset of the n=20 lattice, so every coarse
    # vertex lies in the fine hull.
    for build in (build_df_region, build_outer_region):
        fine = build(example1, 0.05).vertices
        for v in build(example1, 0.1).vertices:
            assert polygon_contains(fine, v, tol=1e-9)


def test_region_builder_validation(example1, example3, bottleneck):
    # A Bottleneck config, whose region skips the lattice, is checked the
    # same way: the step, the lattice cap and K come first.
    for build in (build_df_region, build_outer_region):
        for config in (example3, ChannelConfig(3, (1.0, 1.0, 1.0), 100.0, 1.0, 1.0)):
            with pytest.raises(DomainError, match="K=2 only"):
                build(config)
    for config in (example1, bottleneck):
        with pytest.raises(DomainError, match="grid resolution"):
            build_outer_region(config, 0.0)
        with pytest.raises(DomainError, match="grid resolution"):
            build_df_region(config, 1.5)
        with pytest.raises(DomainError, match="grid resolution"):
            build_df_region(config, float("nan"))
    # The lattice is capped before it is allocated: (n + 1)^2 points at most,
    # so n = 1023 is the finest lattice (checked here without building it).
    assert region.MAX_REGION_POINTS == 1024 ** 2
    assert region._lattice_steps(example1, 1 / 1023) == 1023
    for config in (example1, bottleneck):
        for step in (1 / 1024, 1e-4, 5e-324):
            for build in (build_df_region, build_outer_region):
                with pytest.raises(DomainError, match=f"grid resolution {step!r} needs more than 1048576 lattice points"):
                    build(config, step)


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


def _tied_sets(rng):
    # Repeated x columns, exact duplicates, and 0.0 mixed with -0.0.
    for _ in range(40):
        n = rng.integers(3, 60)
        yield np.stack([rng.integers(-3, 4, size=n).astype(float), rng.normal(size=n)], axis=1)
        base = rng.integers(-2, 3, size=(rng.integers(1, 8), 2)).astype(float)
        yield base[rng.integers(0, len(base), size=rng.integers(3, 30))]
        yield rng.choice([-1.0, -0.0, 0.0, 1.0], size=(rng.integers(3, 30), 2))
    # Columns whose rows differ in the sign of zero of x: a hull that paired
    # one row's x with another's y would return a row not in the set.
    yield np.array([(-0.0, 1.0), (0.0, 2.0), (0.0, -1.0), (-0.0, -2.0), (1.0, 0.0), (-1.0, 0.0)])
    yield np.array([(0.0, 2.0), (-0.0, 1.0), (-0.0, -1.0), (0.0, -2.0), (-1.0, 0.0), (1.0, 0.0)])


def test_convex_hull_keeps_every_extreme_point():
    # A point that maximizes p.d over the set by a clear margin, for some
    # direction d, is a vertex; and every vertex is an input row, bit for
    # bit, also where 0.0 and -0.0 share a column.
    rng = np.random.default_rng(606)
    checked = 0
    for pts in itertools.chain(_point_sets(rng), _tied_sets(np.random.default_rng(607))):
        hull = convex_hull(pts)
        rows = {row.tobytes() for row in pts}
        assert all(row.tobytes() in rows for row in hull)
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


def _hypot_hull(points):
    """convex_hull as it was before its chain skipped hypot: every cross
    product above 0 is compared with HULL_EPS times the two hypot lengths."""
    pts = region._distinct_sorted(np.asarray(points, dtype=np.float64))
    if len(pts) <= 2:
        return pts
    _, exponent = np.frexp(np.abs(pts).max(axis=0))
    scaled = np.ldexp(pts, -exponent).tolist()

    def drop(o, a, b):
        (ox, oy), (ax, ay), (bx, by) = scaled[o], scaled[a], scaled[b]
        cross = (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
        if cross <= 0.0:
            return True
        near = cross <= region.HULL_EPS * np.hypot(ax - ox, ay - oy) * np.hypot(bx - ox, by - oy)
        return near and (ax - ox) * (bx - ax) + (ay - oy) * (by - ay) > 0.0

    chains = []
    for order in (range(len(pts)), reversed(range(len(pts)))):
        chain = []
        for i in order:
            while len(chain) >= 2 and drop(chain[-2], chain[-1], i):
                chain.pop()
            chain.append(i)
        chains.append(chain[:-1])
    return pts[chains[0] + chains[1]]


def _near_collinear_sets(rng):
    # Points on a line, each moved off it by a relative 1e-16 to 1e-10, so
    # cross products land on both sides of the HULL_EPS test; at scales
    # down to 1e-300 and with the line's slope over 24 decades. Lines off
    # the origin and parallel to an axis, where |x| + |y| is the chord's
    # length, come in both orientations.
    for _ in range(300):
        t = np.sort(rng.uniform(-1.0, 1.0, size=rng.integers(3, 40)))
        slope = 10.0 ** rng.uniform(-12.0, 12.0) * rng.choice([-1.0, 1.0])
        y = slope * t + abs(slope) * 10.0 ** rng.uniform(-16.0, -10.0) * rng.normal(size=t.size)
        yield np.stack([t, y], axis=1) * 10.0 ** rng.integers(-300, 3)
        flat = np.stack([t, 0.5 + 10.0 ** rng.uniform(-13.0, -11.0) * rng.normal(size=t.size)], axis=1)
        yield flat if rng.random() < 0.5 else flat[:, ::-1]


def test_convex_hull_skips_hypot_without_changing_a_vertex(example1, example2):
    # The chain's |x| + |y| bound decides no point that the hypot test would
    # keep or drop otherwise: the hull is the same, bit for bit, on random,
    # tied and near-collinear sets and on the region staircases.
    rng = np.random.default_rng(2932)
    sets = itertools.chain(
        _point_sets(rng), _tied_sets(np.random.default_rng(2933)), _near_collinear_sets(rng),
        (region._staircase(region._outer_pentagon_grid(cfg, n)) for cfg in (example1, example2) for n in (50, 200)),
        (region._staircase(region._df_pentagon_grid(cfg, n)) for cfg in (example1, example2) for n in (50, 200)),
    )
    for pts in sets:
        assert convex_hull(pts).tobytes() == _hypot_hull(pts).tobytes()


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


BOTTLENECK_REGION_CONFIGS = {
    "bottleneck": lambda: [ChannelConfig(2, (1.0, 1.0), 100.0, 1.0, 1.0)],
    "subnormal": lambda: [ChannelConfig(2, (5e-324, 4.0), 4.0, 1.0, 1.0)],
    "n_delta_zero": lambda: [ChannelConfig(2, (3.0, 2.0), 0.5, 1.0, 0.0)],
    "seeded_draws": lambda: _regime_configs(np.random.default_rng(26), 20, 0.1, 10.0),
}

# Per config set, the vertex count of each polygon and the SHA-256 of the
# vertex bytes of all of them; both bounds at steps 0.02 and 0.005 give the
# same bits: the relay multiaccess pentagon.
BOTTLENECK_REGION_DIGESTS = {
    "bottleneck": ((5,), "9b61de9ba7e12cd671905ce09fba0c3fd693bdb51212e896128e03d1aeff42a5"),
    "subnormal": ((2,), "e6cd94f40bef3ff0bf3bd164a94499dff88422a7603b2e99e159023718a7c23d"),
    "n_delta_zero": ((5,), "5f5ef79cbc3a53eb5c0e29ce79018b58f2f162f255d2f469c6c49c9bd5dcf81e"),
    "seeded_draws": ((5,) * 20, "721c4a45d79f9529290137a2b08d8587b3ec2df8b32eed35f26b0e0be645d2ae"),
}


@pytest.mark.parametrize("name", sorted(BOTTLENECK_REGION_DIGESTS))
def test_bottleneck_region_vertices_are_frozen(name):
    configs = BOTTLENECK_REGION_CONFIGS[name]()
    for build in (build_df_region, build_outer_region):
        for step in (0.02, 0.005):
            polygons = [build(config, step).vertices for config in configs]
            got = tuple(len(v) for v in polygons), sha256_of(*polygons)
            assert got == BOTTLENECK_REGION_DIGESTS[name], (build.__name__, step)


EQUALIZED_REGION_CONFIGS = {
    "narrow": lambda: _regime_configs(np.random.default_rng(27), 20, 0.1, 10.0, bottleneck=False),
    "wide": lambda: _regime_configs(np.random.default_rng(28), 20, 1e-3, 1e3, bottleneck=False),
}

# Per config set, build and step, the vertex count of each polygon and the
# SHA-256 of the vertex bytes of all of them: the lattice hulls of seeded
# Equalized draws.
EQUALIZED_REGION_DIGESTS = {
    ("narrow", "inner", 0.1): (
        (8, 8, 7, 10, 11, 8, 5, 9, 10, 11, 5, 5, 10, 10, 7, 8, 9, 8, 9, 10),
        "d19699f807f603478779230b701a27746064d44b4f6812b6fb4bc4a986c0ed59"),
    ("narrow", "inner", 0.02): (
        (10, 9, 9, 15, 12, 13, 8, 13, 13, 13, 7, 7, 11, 12, 14, 14, 16, 9, 11, 13),
        "73d767487d2dd030a02e66e25d81ab9595557d402992f7d39c26bce0fafdfa56"),
    ("narrow", "outer", 0.1): (
        (13, 13, 8, 11, 11, 7, 5, 14, 7, 10, 5, 7, 7, 12, 8, 6, 8, 7, 7, 10),
        "b019374d6a332d1234d78075f06d378934f4066b2692cdc0902a52e2b18f745d"),
    ("narrow", "outer", 0.02): (
        (28, 28, 7, 19, 24, 13, 5, 29, 9, 24, 7, 9, 10, 38, 9, 9, 14, 9, 13, 22),
        "2c3cabee2d61abb1ec2c75e4b751b60d99f1b47a4a51cfc7190cbe90df71b74a"),
    ("wide", "inner", 0.1): (
        (12, 13, 8, 8, 9, 5, 8, 10, 13, 7, 13, 8, 8, 16, 8, 6, 16, 5, 10, 8),
        "23d3f27c93fb25dde9748420f91572abde5179e77608e3356dbdd93689477815"),
    ("wide", "inner", 0.02): (
        (11, 17, 8, 8, 11, 5, 8, 18, 26, 42, 37, 9, 8, 44, 9, 7, 54, 5, 9, 15),
        "406f26824d38f997d79b2f6cdf7fb76cf0706da238fe59bc1c330508bbdc0a6b"),
    ("wide", "outer", 0.1): (
        (11, 5, 14, 9, 9, 6, 14, 10, 8, 5, 17, 14, 14, 17, 10, 7, 23, 5, 11, 7),
        "ece6be8b3421b8451b1890247196bf3b38f0f4f4789f169537cc27b19064fb15"),
    ("wide", "outer", 0.02): (
        (21, 7, 54, 17, 10, 10, 54, 22, 13, 13, 67, 24, 54, 60, 26, 9, 17, 5, 18, 8),
        "442ff17f177d93dc51e1365a6b4666b4ea3004712f164f08e6c2a616688a0934"),
}


@pytest.mark.parametrize("name, bound, step", sorted(EQUALIZED_REGION_DIGESTS))
def test_equalized_region_vertices_are_frozen(name, bound, step):
    build = build_df_region if bound == "inner" else build_outer_region
    polygons = [build(config, step).vertices for config in EQUALIZED_REGION_CONFIGS[name]()]
    got = tuple(len(v) for v in polygons), sha256_of(*polygons)
    assert got == EQUALIZED_REGION_DIGESTS[name, bound, step]


def test_region_stages_keep_their_names():
    # The benchmark's span tracer wraps these three by name to time the
    # candidate grids and the hull; after a rename it would time nothing.
    for name in ("_df_pentagon_grid", "_outer_pentagon_grid", "convex_hull"):
        assert callable(getattr(region, name, None)), name


def test_correlation_lattice_rows():
    # The enumerator behind the oracle's correlation lattice and the full
    # cutset lattice these tests compare the region grid with: rows of K
    # nonnegative integers summing to n, in lexicographic order.
    for K in range(1, 5):
        for n in range(13):
            rows = np.array([r for r in itertools.product(range(n + 1), repeat=K) if sum(r) == n]).reshape(-1, K)
            np.testing.assert_array_equal(compositions(K, n), rows, strict=True)


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
