"""Independent numeric cross-checks: Monte Carlo conditional variances,
dense grid search, concavity chords, and bound dominance."""

import itertools

import numpy as np
import pytest

from marc_cap import (
    ChannelConfig,
    DomainError,
    awgn_capacity,
    chord_check,
    dominance_check,
    grid_maxmin,
    mc_relay_conditional_variance,
    solve_equalizer,
)
from marc_cap.bounds import (
    DfPowerSplit,
    as_correlation,
    df_bound_dest,
    df_bound_relay,
    outer_bound_dest,
    outer_bound_relay,
)
from marc_cap.verify import gamma_sampler, split_sampler
from conftest import random_config

RATE_1 = 1.660964047443681


def cycle_sampler(points):
    it = itertools.cycle(points)
    return lambda: next(it)


def test_mc_mode1_residual_relay_power(example1):
    rep = mc_relay_conditional_variance(example1, (0.1, 0.05), 0b01, mode=1, n=100000, seed=3)
    # Residual relay power after conditioning on the complement: (1 - 0.05) * 4.
    assert rep.target == 3.8
    assert not rep.degenerate
    assert rep.std_error > 0.0
    assert abs(rep.z_score) <= 4.0
    assert rep.passed


def test_mc_mode2_relay_cut_numerator(example2):
    rep = mc_relay_conditional_variance(example2, (0.1, 0.05), 0b01, mode=2, n=100000, seed=3)
    assert rep.target == 6.0 - 0.6 / 0.95
    assert rep.passed


def test_mc_full_set_zero_correlation(example1):
    # Empty complement: the conditional variance is the raw relay power.
    rep = mc_relay_conditional_variance(example1, (0.0, 0.0), 0b11, mode=1, n=100000, seed=1)
    assert rep.target == example1.P_r
    assert rep.passed


def test_mc_mode2_exact_branch(example2):
    # Complement mass exactly 1: the target switches to the plain subset
    # power rather than the penalty ratio.
    rep = mc_relay_conditional_variance(example2, (1.0, 0.0), 0b10, mode=2, n=50000, seed=1)
    assert rep.target == 0.4
    assert not rep.degenerate
    assert rep.passed


def test_mc_degenerate_target(example1):
    # All correlation mass on the complement pins X_r: variance target 0,
    # the z-score is meaningless and the absolute check takes over.
    rep = mc_relay_conditional_variance(example1, (1.0, 0.0), 0b10, mode=1, n=20000, seed=1)
    assert rep.target == 0.0
    assert rep.degenerate
    assert rep.std_error == 0.0 and rep.z_score == 0.0
    assert rep.estimate <= 1e-9
    assert rep.passed


def test_mc_standard_error_scaling(example1):
    half = mc_relay_conditional_variance(example1, (0.1, 0.05), 0b01, 1, 50000, 9)
    full = mc_relay_conditional_variance(example1, (0.1, 0.05), 0b01, 1, 100000, 9)
    assert full.std_error / half.std_error == pytest.approx(1.0 / np.sqrt(2.0), rel=0.2)


def test_mc_deterministic(example1):
    a = mc_relay_conditional_variance(example1, (0.2, 0.1), 0b11, mode=2, n=50000, seed=7)
    b = mc_relay_conditional_variance(example1, (0.2, 0.1), 0b11, mode=2, n=50000, seed=7)
    assert a == b


def test_mc_validation(example1):
    with pytest.raises(ValueError, match="mode must be 1 or 2"):
        mc_relay_conditional_variance(example1, (0.1, 0.1), 0b01, mode=3)
    with pytest.raises(DomainError, match="sum\\(gamma\\)"):
        mc_relay_conditional_variance(example1, (0.9, 0.9), 0b01)


def test_grid_maxmin_example1_frozen(example1):
    rep = grid_maxmin(example1, step=0.01)
    assert rep.value == RATE_1
    assert rep.argmax.gamma == (0.0, 0.25)
    assert rep.step == 0.01


def test_grid_maxmin_bottleneck(bottleneck):
    rep = grid_maxmin(bottleneck, step=0.05)
    assert rep.value == awgn_capacity(2.0)
    assert rep.argmax.gamma == (0.0, 0.0)


def test_grid_maxmin_validation(example1):
    with pytest.raises(ValueError, match="step must be in"):
        grid_maxmin(example1, step=0.0)
    with pytest.raises(ValueError, match="K <= 3"):
        grid_maxmin(ChannelConfig(4, (1.0, 1.0, 1.0, 1.0), 1.0, 1.0, 1.0))


def test_grid_matches_solver(example1, bottleneck):
    rng = np.random.default_rng(21)
    configs = [example1, bottleneck] + [random_config(rng) for _ in range(5)]
    for cfg in configs:
        sol = solve_equalizer(cfg)
        rep = grid_maxmin(cfg, step=0.02)
        assert rep.value <= sol.sum_rate + 1e-12
        assert rep.value == pytest.approx(sol.sum_rate, abs=1e-3)


def test_chords_pass_on_dest_cutset_bound(example1):
    for S in (0b01, 0b11):
        fn = lambda g: outer_bound_dest(example1, as_correlation(g, 2), S)
        rep = chord_check(fn, gamma_sampler(example1, seed=5), trials=300, seed=5)
        assert rep.passed and rep.witness is None
        assert rep.trials == 300


def test_chords_pass_on_df_bounds(example1):
    # Joint split vector (alpha ++ beta): the coherent term is a geometric
    # mean of affine pieces, so both bounds are concave in it.
    def dest(v):
        return df_bound_dest(example1, DfPowerSplit(tuple(v[:2]), tuple(v[2:])), 0b11)

    def relay(v):
        return df_bound_relay(example1, DfPowerSplit(tuple(v[:2]), tuple(v[2:])), 0b01)

    for fn in (dest, relay):
        rep = chord_check(fn, split_sampler(example1, seed=6), trials=300, seed=6)
        assert rep.passed


def test_chord_negative_control(example1):
    rep = chord_check(lambda g: float(g[0]) ** 2, gamma_sampler(example1, seed=2), trials=50, seed=2)
    assert not rep.passed
    assert set(rep.witness) == {"a", "b", "lam", "midpoint_value", "chord_value"}
    assert rep.witness["chord_value"] > rep.witness["midpoint_value"] + 1e-9


def test_relay_full_cut_not_concave_in_gamma():
    # Equal unit powers: both simplex corners give C(1) but the midpoint
    # cancels the subset power entirely, so the chord sits strictly above.
    cfg = ChannelConfig(2, (1.0, 1.0), 1.0, 1.0, 1.0)
    fn = lambda g: outer_bound_relay(cfg, as_correlation(g, 2), 0b11)
    assert fn((1.0, 0.0)) == 0.5
    assert fn((0.0, 1.0)) == 0.5
    assert fn((0.5, 0.5)) == 0.0
    rep = chord_check(fn, cycle_sampler([(1.0, 0.0), (0.0, 1.0)]), trials=5, seed=0)
    assert not rep.passed
    assert rep.witness["chord_value"] == pytest.approx(0.5, abs=1e-15)
    assert rep.witness["midpoint_value"] < 0.1


def test_relay_singleton_cut_not_concave(example1):
    fn = lambda g: outer_bound_relay(example1, as_correlation(g, 2), 0b01)
    assert fn((0.5, 0.0)) == 1.0
    assert fn((0.0, 0.9)) == pytest.approx(1.403677461028802, rel=1e-15)
    mid = fn((0.25, 0.45))
    assert mid == pytest.approx(1.0475786165201701, rel=1e-12)
    assert 0.5 * (fn((0.5, 0.0)) + fn((0.0, 0.9))) == pytest.approx(1.2018387305144011, rel=1e-12)
    assert mid < 1.2018387305144011 - 0.15


def test_dominance_check_passes(example1, example2):
    rng = np.random.default_rng(13)
    for cfg in (example1, example2, random_config(rng), random_config(rng)):
        rep = dominance_check(cfg, trials=100, seed=4)
        assert rep.passed and rep.witness is None
        assert rep.trials == 100
        assert rep.max_gap <= 1e-12


def test_dominance_check_deterministic(example1):
    assert dominance_check(example1, trials=50, seed=1) == dominance_check(example1, trials=50, seed=1)


def test_dominance_check_reports_the_first_failing_trial(example1, monkeypatch):
    # A cutset destination bound lowered on one subset of one trial must be
    # caught there, with the running max gap up to that point.
    from marc_cap import verify

    real_dest = verify.dest_cutset_table

    def lowered(config, gamma):
        table = real_dest(config, gamma)
        table[7, 0b10] -= 0.25
        return table

    monkeypatch.setattr(verify, "dest_cutset_table", lowered)
    rep = dominance_check(example1, trials=20, seed=3)
    assert not rep.passed
    w = rep.witness
    assert (w["kind"], w["subset"]) == ("dest_dominance", 0b10)
    draws = np.random.default_rng(3)
    for _ in range(8):
        alpha, beta = draws.random(2), draws.dirichlet(np.ones(3))[:2]
    assert w["alpha"] == alpha.tolist() and w["beta"] == beta.tolist()
    split = DfPowerSplit(tuple(alpha), tuple(beta))
    assert w["inner"] == df_bound_dest(example1, split, 0b10)
    assert w["inner"] - w["outer"] == pytest.approx(rep.max_gap, abs=1e-15)

    monkeypatch.setattr(verify, "dest_cutset_table", real_dest)
    real_relay = verify.relay_df_table

    def shifted(config, alpha, beta):
        table = real_relay(config, alpha, beta)
        table[4, -1] += 1e-9
        return table

    monkeypatch.setattr(verify, "relay_df_table", shifted)
    rep = dominance_check(example1, trials=20, seed=3)
    assert not rep.passed
    assert (rep.witness["kind"], rep.witness["subset"]) == ("relay_full_equality", 0b11)
    assert rep.max_gap == pytest.approx(1e-9, rel=1e-6)
