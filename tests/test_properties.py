"""Property-based invariants over random channels, subsets, and parameters."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from marc_cap import ChannelConfig, awgn_capacity, solve_equalizer
from marc_cap.bounds import (
    CorrelationVector,
    DfPowerSplit,
    beta_star,
    bound_functions,
    full_mask,
    relay_sum_snr,
)
from marc_cap.region import convex_hull, polygon_contains
from marc_cap.sumcap import bottleneck_check, k_coefficients

pos = st.floats(min_value=0.1, max_value=10.0, allow_nan=False, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def configs(draw, min_k=1, max_k=4):
    K = draw(st.integers(min_k, max_k))
    P = tuple(draw(st.lists(pos, min_size=K, max_size=K)))
    return ChannelConfig(K, P, draw(pos), draw(pos), draw(pos))


@st.composite
def config_gamma_mask(draw):
    cfg = draw(configs())
    w = draw(st.lists(unit, min_size=cfg.K + 1, max_size=cfg.K + 1))
    total = sum(w)
    gamma = tuple(x / total for x in w[: cfg.K]) if total > 0 else (0.0,) * cfg.K
    mask = draw(st.integers(1, full_mask(cfg.K)))
    return cfg, CorrelationVector(gamma), mask


@st.composite
def config_split_mask(draw):
    cfg = draw(configs())
    alpha = tuple(draw(st.lists(unit, min_size=cfg.K, max_size=cfg.K)))
    w = draw(st.lists(unit, min_size=cfg.K + 1, max_size=cfg.K + 1))
    total = sum(w)
    beta = tuple(x / total for x in w[: cfg.K]) if total > 0 else (0.0,) * cfg.K
    mask = draw(st.integers(1, full_mask(cfg.K)))
    return cfg, DfPowerSplit(alpha, beta), mask


@settings(deadline=None, max_examples=100)
@given(st.floats(0.0, 1e6, allow_nan=False), st.floats(0.0, 1e6, allow_nan=False))
def test_capacity_monotone_nonnegative(x, y):
    lo, hi = sorted((x, y))
    assert awgn_capacity(0.0) == 0.0
    assert 0.0 <= awgn_capacity(lo) <= awgn_capacity(hi)


@settings(deadline=None, max_examples=60)
@given(config_gamma_mask())
def test_cutset_bounds_nonnegative_zero_on_empty(case):
    cfg, gamma, mask = case
    dest, relay = bound_functions(cfg, gamma)
    assert relay(0) == 0.0
    assert dest(0) == 0.0
    assert relay(mask) >= 0.0
    assert dest(mask) >= 0.0


@st.composite
def config_boundary_gamma_mask(draw):
    """Correlations on the simplex boundary, sum(gamma) = 1 up to rounding,
    with one member as small as 1e-15."""
    cfg = draw(configs(min_k=2))
    w = draw(st.lists(st.floats(0.01, 1.0), min_size=cfg.K, max_size=cfg.K))
    w[draw(st.integers(0, cfg.K - 1))] = 10.0 ** -draw(st.floats(3.0, 15.0))
    gamma = tuple(x / sum(w) for x in w)
    return cfg, CorrelationVector(gamma), draw(st.integers(1, full_mask(cfg.K)))


@settings(deadline=None, max_examples=60)
@given(st.one_of(config_gamma_mask(), config_boundary_gamma_mask()), st.integers(0, 2**4 - 1))
# A correlation mass that rounds just above 1: the slack is 0, and {1,3}
# divides its penalty by gamma_3 alone.
@example((ChannelConfig(4, (1.0, 1.0, 1.0, 1.0), 1.0, 1.0, 1.0),
          CorrelationVector((0.0, 0.0, 3.178913377471486e-07, 0.9999996821086623)), 0b0001), 0b0100)
# sum(gamma) = 1 with a 1.4e-13 gamma_1: X_r and the complement reveal X_1.
@example((ChannelConfig(4, (32.34, 26.65, 1.404, 22.90), 1.0, 1.0, 1.0),
          CorrelationVector((1.4183247616826562e-13, 0.11188383521682158, 0.888112018377207,
                             4.1464058295309335e-06)), 0b0001), 0b1000)
# A subnormal gamma_1 with sum(gamma) = 1: the rounded gamma_1 P_1 gave S={1}
# a penalty of 2.0, above its power 1.5, so the relay SNR was -0.5.
@example((ChannelConfig(3, (1.5, 1.0, 1.0), 1.0, 1.0, 1.0), CorrelationVector((5e-324, 0.0, 1.0)), 0b001), 0b010)
def test_cutset_bounds_monotone_in_subset(case, extra):
    cfg, gamma, mask = case
    wider = (mask | extra) & full_mask(cfg.K)
    dest, relay = bound_functions(cfg, gamma)
    assert relay(mask) <= relay(wider) + 1e-12
    assert dest(mask) <= dest(wider) + 1e-12


@settings(deadline=None, max_examples=60)
@given(config_split_mask(), st.integers(0, 3), st.floats(0.0, 1.0, allow_nan=False))
def test_df_relay_monotone_dest_antitone_in_alpha(case, idx, bump):
    cfg, split, mask = case
    k = idx % cfg.K
    raised = list(split.alpha)
    raised[k] = min(1.0, raised[k] + bump)
    dest, relay = bound_functions(cfg, split)
    other_dest, other_relay = bound_functions(cfg, DfPowerSplit(tuple(raised), split.beta))
    assert other_relay(mask) >= relay(mask) - 1e-12
    assert other_dest(mask) <= dest(mask) + 1e-12


@settings(deadline=None, max_examples=60)
@given(config_split_mask())
def test_df_to_correlation_feasible(case):
    cfg, split, _ = case
    gamma = CorrelationVector(tuple((1.0 - np.asarray(split.alpha)) * split.beta))
    assert all(g >= 0.0 for g in gamma.gamma)
    assert sum(gamma.gamma) <= 1.0 + 1e-12


@settings(deadline=None, max_examples=60)
@given(config_split_mask())
def test_reduction_identity_full_relay_cut(case):
    # Proportional relay split: the coherent penalty saturates Cauchy-Schwarz
    # and the cutset bound collapses onto the achievable one on the full set.
    cfg, split, _ = case
    star = DfPowerSplit(split.alpha, tuple(beta_star(cfg, split.alpha)))
    full = full_mask(cfg.K)
    outer = bound_functions(cfg, CorrelationVector(tuple((1.0 - np.asarray(star.alpha)) * star.beta)))[1](full)
    inner = bound_functions(cfg, star)[1](full)
    assert outer == pytest.approx(inner, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(config_split_mask())
def test_dest_dominance(case):
    cfg, split, mask = case
    gamma = CorrelationVector(tuple((1.0 - np.asarray(split.alpha)) * split.beta))
    assert bound_functions(cfg, split)[0](mask) <= bound_functions(cfg, gamma)[0](mask) + 1e-12


@settings(deadline=None, max_examples=60)
@given(config_split_mask())
def test_beta_star_maximizes_full_dest_bound(case):
    cfg, split, _ = case
    star = DfPowerSplit(split.alpha, tuple(beta_star(cfg, split.alpha)))
    full = full_mask(cfg.K)
    assert bound_functions(cfg, star)[0](full) >= bound_functions(cfg, split)[0](full) - 1e-12


@settings(deadline=None, max_examples=60)
@given(configs(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_relay_sum_snr_decreasing_in_statistic(cfg, u, v):
    x_max = math.sqrt(sum(cfg.lam))
    x1, x2 = sorted((u * x_max, v * x_max))
    assert relay_sum_snr(cfg, x1) >= relay_sum_snr(cfg, x2) - 1e-12


@settings(deadline=None, max_examples=40)
@given(config_gamma_mask(), config_gamma_mask(), st.floats(0.0, 1.0))
def test_dest_cutset_concave_in_gamma(case_a, case_b, lam):
    cfg, ga, mask = case_a
    _, gb, _ = case_b
    if len(gb.gamma) != cfg.K:
        return
    a, b = np.array(ga.gamma), np.array(gb.gamma)
    dest = lambda gamma: bound_functions(cfg, gamma)[0](mask)
    mid = CorrelationVector(tuple(lam * a + (1.0 - lam) * b))
    chord = lam * dest(ga) + (1.0 - lam) * dest(gb)
    assert dest(mid) >= chord - 1e-9


# Coordinates of every scale from 1e-300 to 100, mixed within one point set.
mixed_scale = st.builds(lambda m, k: m * 10.0 ** k, st.floats(-10, 10), st.integers(-300, 1))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=1, max_size=30)
       | st.lists(st.tuples(mixed_scale, mixed_scale), min_size=1, max_size=30))
def test_convex_hull_idempotent_and_contains_inputs(points):
    pts = np.array(points, dtype=np.float64)
    hull = convex_hull(pts)
    np.testing.assert_allclose(convex_hull(hull), hull, rtol=0, atol=0)
    if len(hull) >= 3:
        for p in pts:
            assert polygon_contains(hull, p, tol=1e-7)


@settings(deadline=None, max_examples=25)
@given(configs(min_k=1, max_k=4))
def test_equalizer_root_matches_bisection(cfg):
    if bottleneck_check(cfg):
        assert solve_equalizer(cfg).sum_rate == awgn_capacity(sum(cfg.P) / cfg.N_r)
        return
    k0, k1, k2, k3 = k_coefficients(cfg)
    gap = lambda x: (k2 + 2.0 * k1 * x) - (k3 - k0 * x * x)
    ref = brentq(gap, 0.0, math.sqrt(k3 / k0), xtol=1e-14)
    assert solve_equalizer(cfg).root == pytest.approx(ref, abs=1e-12)
