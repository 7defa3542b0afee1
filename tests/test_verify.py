"""Independent numeric cross-checks: Monte Carlo conditional variances,
dense grid search, concavity chords, and bound dominance."""

import itertools
import json
import math

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
from marc_cap import cli, verify
from marc_cap.bounds import (
    CorrelationVector,
    DfPowerSplit,
    bound_functions,
    family_tables,
)
from marc_cap.verify import (
    CHORD_TOL,
    DEGENERATE_TOL,
    ChordReport,
    McReport,
    _CHUNK_ROWS,
    _gram,
    _seeded_gram,
    gamma_sampler,
    split_sampler,
)
from conftest import random_config

RATE_1 = 1.660964047443681


def cycle_sampler(points):
    it = itertools.cycle(points)
    return lambda n: np.array([next(it) for _ in range(n)], dtype=np.float64)


def rows(f):
    """A scalar function of one domain vector as a function of rows."""
    return lambda V: np.array([f(v) for v in V])


def sequential_chords(fn, sampler, trials, seed, tol=CHORD_TOL):
    """Chord-by-chord reference for chord_check: draw one row at a time,
    evaluate one row at a time, stop at the first failing chord."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        a = sampler(1)[0]
        b = sampler(1)[0]
        lam = rng.random()
        mid_value = float(fn((lam * a + (1.0 - lam) * b)[None])[0])
        chord_value = lam * float(fn(a[None])[0]) + (1.0 - lam) * float(fn(b[None])[0])
        if mid_value < chord_value - tol:
            witness = {"a": a.tolist(), "b": b.tolist(), "lam": lam,
                       "midpoint_value": mid_value, "chord_value": chord_value}
            return ChordReport(False, trials, witness)
    return ChordReport(True, trials)


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
    # Complement mass exactly 1: the subset has no correlation and the relay
    # none of its own, so the penalty's denominator is 0 and the target is
    # the plain subset power.
    rep = mc_relay_conditional_variance(example2, (1.0, 0.0), 0b10, mode=2, n=50000, seed=1)
    assert rep.target == 0.4
    assert not rep.degenerate
    assert rep.passed


def test_mc_mode2_subnormal_correlation_counts_as_zero():
    # gamma_1 = 5e-324 with sum(gamma) = 1: as in the relay cutset bound
    # table, the subnormal correlation counts as 0, so S={1} keeps its power
    # 1.5. The rounded quotient used to give a target of -0.5, a degenerate
    # report and FAIL against an estimate near 1.5.
    config = ChannelConfig(3, (1.5, 1.0, 1.0), 1.0, 1.0, 1.0)
    gamma = (5e-324, 0.0, 1.0)
    rep = mc_relay_conditional_variance(config, gamma, 0b001, mode=2, n=20000, seed=1)
    assert rep.target == 1.5
    table_snr = 2.0 ** (2.0 * family_tables(config, "outer", [gamma])[1][0, 0b001]) - 1.0
    assert rep.target == pytest.approx(config.N_r * table_snr, rel=1e-15)
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
    # K=2 masks lie in [0, 4): S=4 was the empty subset in mode 1 and an
    # IndexError in mode 2.
    for S in (4, -1):
        for mode in (1, 2):
            with pytest.raises(DomainError, match=f"subset mask {S} outside \\[0, 4\\)"):
                mc_relay_conditional_variance(example1, (0.1, 0.05), S, mode=mode, n=1000)


def test_mc_rejects_fewer_samples_than_regressors(example1):
    for n in (-5, 0, 1, 2):
        with pytest.raises(ValueError, match="n must be at least K \\+ 1 = 3"):
            mc_relay_conditional_variance(example1, (0.1, 0.05), 0b01, mode=2, n=n)
    rep = mc_relay_conditional_variance(example1, (0.1, 0.05), 0b01, mode=2, n=3)
    assert rep.n == 3 and np.isfinite(rep.estimate)
    # S empty in mode 2 regresses on all K inputs and X_r: n = K + 1 leaves
    # no degree of freedom.
    with pytest.raises(ValueError, match="n must exceed the 3 regressors, got 3"):
        mc_relay_conditional_variance(example1, (0.1, 0.05), 0, mode=2, n=3)
    rep = mc_relay_conditional_variance(example1, (0.1, 0.05), 0, mode=2, n=4)
    assert rep.degenerate and rep.target == 0.0


@pytest.mark.parametrize("n", [1000, _CHUNK_ROWS, 2 * _CHUNK_ROWS, 2 * _CHUNK_ROWS + 37])
@pytest.mark.parametrize("width", [3, 5])
def test_mc_gram_continues_one_stream(n, width):
    # The chunked draw is the one-call draw: same rows, and the generator
    # left where one standard_normal call of n rows leaves it.
    chunked = np.random.default_rng(11)
    G = _gram(n, width, chunked)
    whole = np.random.default_rng(11)
    W = whole.standard_normal((n, width))
    assert chunked.bit_generator.state == whole.bit_generator.state
    ref = W.T @ W
    assert np.abs(G - ref).max() <= 1e-12 * np.abs(ref).max()


def test_seeded_gram_is_the_one_stream_draw_read_only():
    _seeded_gram.cache_clear()
    for n, width, seed in [(1000, 3, 0), (2 * _CHUNK_ROWS + 37, 4, 5)]:
        G = _seeded_gram(n, width, seed)
        assert G.tobytes() == _gram(n, width, np.random.default_rng(seed)).tobytes()
        assert not G.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            G[0, 0] = 0.0
        assert _seeded_gram(n, width, seed) is G


K2_A = {"P": [6.0, 4.0], "P_r": 4.0, "N_r": 1.0, "N_delta": 1.0}
K2_B = {"P": [0.3, 2.5], "P_r": 0.7, "N_r": 1.3, "N_delta": 0.4}


def verify_all(tmp_path, capsys, spec, name, n="100000"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    code = cli.main(["verify", str(path), "--suite", "all", "--n", n])
    return code, capsys.readouterr().out


def test_verify_draws_each_gram_once_per_process(tmp_path, capsys, monkeypatch):
    # The mc suite's five draws depend on (n, K+1, seed) only, so a second
    # K=2 config with other powers and noises makes no new draw.
    _seeded_gram.cache_clear()
    real_gram = verify._gram
    calls = []

    def counted(n, width, rng):
        calls.append((n, width))
        return real_gram(n, width, rng)

    monkeypatch.setattr(verify, "_gram", counted)
    assert verify_all(tmp_path, capsys, K2_A, "a.json")[0] == 0
    assert calls == [(100000, 3)] * 5
    assert verify_all(tmp_path, capsys, K2_B, "b.json")[0] == 0
    assert len(calls) == 5


def test_verify_stdout_does_not_depend_on_earlier_configs(tmp_path, capsys):
    _seeded_gram.cache_clear()
    alone = verify_all(tmp_path, capsys, K2_B, "b.json")
    _seeded_gram.cache_clear()
    verify_all(tmp_path, capsys, K2_A, "a.json")
    assert verify_all(tmp_path, capsys, K2_B, "b.json") == alone


# CI's config over 24 decades whose region polygons are segments.
SEG = {"P": [8.264699269404356e-08, 100656.82615306925], "P_r": 1.68534256973385e-12,
       "N_r": 7.593009504436562e-07, "N_delta": 114285553855.61026}


def test_verify_passes_on_a_config_over_24_decades(tmp_path, capsys):
    # The mc checks of S={1} (power 8.3e-8) and of the relay (1.7e-12) have
    # targets far below the total power 1e5. Judged on their own power, they
    # are not degenerate and get the z-test.
    code, out = verify_all(tmp_path, capsys, SEG, "seg.json", n="1000000")
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "verify result=PASS checks=12"
    mc = [line for line in lines if line.startswith("PASS mc")]
    assert len(mc) == 5 and sum(line.endswith(" degenerate") for line in mc) == 1


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_verify_mc_fails_on_an_estimate_off_by_one_percent(tmp_path, capsys, monkeypatch, factor):
    # Negative control: at the default n, a regression estimate 1% off its
    # target fails every z-tested check of the same config.
    real_residual = verify._residual_variance
    monkeypatch.setattr(verify, "_residual_variance", lambda *args: factor * real_residual(*args))
    code, out = verify_all(tmp_path, capsys, SEG, "seg.json", n="1000000")
    mc = [line for line in out.splitlines() if " mc " in line]
    assert code == 1 and len(mc) == 5
    assert [line.startswith("FAIL") for line in mc] == [not line.endswith(" degenerate") for line in mc]


def test_mc_degenerate_rule_uses_the_checks_own_power(example1, monkeypatch):
    # Target 0 in mode 1: the estimate counts as 0 up to 1e-9 of the relay
    # power P_r = 4, and no further.
    real_residual = verify._residual_variance
    for extra, passed in [(3.9e-9, True), (4.1e-9, False)]:
        monkeypatch.setattr(verify, "_residual_variance", lambda *args: real_residual(*args) + extra)
        rep = mc_relay_conditional_variance(example1, (1.0, 0.0), 0b10, mode=1, n=20000, seed=1)
        assert rep.degenerate and rep.floor == DEGENERATE_TOL * example1.P_r
        assert rep.passed == passed


def test_mc_variance_below_the_smallest_normal_counts_as_zero():
    # P_1 = 5e-324: 1e-9 of the subset's power underflows to 0, and a target
    # and estimate of that power's size count as 0, as subnormal
    # correlations do.
    config = ChannelConfig(2, (5e-324, 4.0), 4.0, 1.0, 1.0)
    rep = mc_relay_conditional_variance(config, (0.3, 0.2), 0b01, mode=2, n=20000, seed=3)
    assert rep.floor == np.finfo(np.float64).tiny
    assert rep.degenerate and rep.passed


def reference_mc(config, gamma, S, mode, n, seed):
    """The regression as it ran on the materialized draw: X and X_r of n
    rows each, then np.linalg.lstsq on the n-row design."""
    g = np.asarray(gamma, dtype=np.float64)
    P = config.powers()
    in_S = [k for k in range(config.K) if S >> k & 1]
    comp = [k for k in range(config.K) if k not in in_S]
    comp_mass = float(g[comp].sum()) if comp else 0.0
    resid_mass = max(0.0, 1.0 - float(g.sum()))
    # The check's own power scales its degenerate rule.
    scale = config.P_r if mode == 1 else float(P[in_S].sum())
    floor = max(DEGENERATE_TOL * scale, np.finfo(np.float64).tiny)
    if mode == 1:
        target = (1.0 - comp_mass) * config.P_r
    else:
        s = float(np.sqrt(g[in_S] * P[in_S]).sum())
        room = float(g[in_S].sum()) + resid_mass
        target = float(P[in_S].sum()) - (s * s / room if room > 0.0 else 0.0)
    W = np.random.default_rng(seed).standard_normal((n, config.K + 1))
    X = W[:, 1:] * np.sqrt(P)
    X_r = W[:, 1:] @ np.sqrt(g * config.P_r) + W[:, 0] * np.sqrt(resid_mass * config.P_r)
    if mode == 1:
        y, design = X_r, X[:, comp]
    else:
        y, design = X[:, in_S].sum(axis=1), np.column_stack([X[:, comp], X_r])
    p = design.shape[1]
    if p:
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        y = y - design @ coef
    estimate = float(y @ y) / (n - p)
    degenerate = target <= floor
    se = 0.0 if degenerate else estimate * np.sqrt(2.0 / (n - p))
    z = 0.0 if degenerate else (estimate - target) / se
    return McReport(mode, S, n, seed, estimate, target, se, float(z), degenerate, floor)


def test_mc_matches_the_materialized_regression():
    # The five check shapes of `verify --suite mc`, plus a rank-deficient
    # design (X_r a multiple of the one complement input), on K = 2..4.
    rng = np.random.default_rng(1010)
    degenerate = 0
    for i in range(18):
        config = random_config(rng, K=2 + i % 3)
        K = config.K
        full = (1 << K) - 1
        g = list(gamma_sampler(config, i)(1)[0])
        boundary = [1.0] + [0.0] * (K - 1)
        shapes = [([0.0] * K, full, 1), (g, 1, 1), (g, full, 2), (g, 1, 2), (boundary, full ^ 1, 1),
                  (boundary, full ^ 1, 2)]
        for j, (gamma, S, mode) in enumerate(shapes):
            rep = mc_relay_conditional_variance(config, gamma, S, mode=mode, n=20000, seed=i + j)
            ref = reference_mc(config, gamma, S, mode, 20000, i + j)
            assert (rep.target, rep.degenerate, rep.passed) == (ref.target, ref.degenerate, ref.passed)
            if rep.degenerate:
                degenerate += 1
                assert 0.0 <= rep.estimate <= DEGENERATE_TOL
            else:
                assert rep.estimate == pytest.approx(ref.estimate, rel=1e-10, abs=0.0)
                assert rep.z_score == pytest.approx(ref.z_score, rel=1e-6, abs=1e-9)
    assert degenerate == 18


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
    with pytest.raises(ValueError, match="step must be in"):
        grid_maxmin(example1, step=math.nan)
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
        fn = rows(lambda g: bound_functions(example1, CorrelationVector(tuple(g)))[0](S))
        rep = chord_check(fn, gamma_sampler(example1, seed=5), trials=300, seed=5)
        assert rep.passed and rep.witness is None
        assert rep.trials == 300


def test_chords_pass_on_df_bounds(example1):
    # Joint split vector (alpha ++ beta): the coherent term is a geometric
    # mean of affine pieces, so both bounds are concave in it.
    def dest(v):
        return bound_functions(example1, DfPowerSplit(tuple(v[:2]), tuple(v[2:])))[0](0b11)

    def relay(v):
        return bound_functions(example1, DfPowerSplit(tuple(v[:2]), tuple(v[2:])))[1](0b01)

    for fn in (dest, relay):
        rep = chord_check(rows(fn), split_sampler(example1, seed=6), trials=300, seed=6)
        assert rep.passed


def test_chord_negative_control(example1):
    rep = chord_check(lambda G: G[:, 0] ** 2, gamma_sampler(example1, seed=2), trials=50, seed=2)
    assert not rep.passed
    assert set(rep.witness) == {"a", "b", "lam", "midpoint_value", "chord_value"}
    assert rep.witness["chord_value"] > rep.witness["midpoint_value"] + 1e-9


def test_relay_full_cut_not_concave_in_gamma():
    # Equal unit powers: both simplex corners give C(1) but the midpoint
    # cancels the subset power entirely, so the chord sits strictly above.
    cfg = ChannelConfig(2, (1.0, 1.0), 1.0, 1.0, 1.0)
    fn = lambda g: bound_functions(cfg, CorrelationVector(tuple(g)))[1](0b11)
    assert fn((1.0, 0.0)) == 0.5
    assert fn((0.0, 1.0)) == 0.5
    assert fn((0.5, 0.5)) == 0.0
    rep = chord_check(rows(fn), cycle_sampler([(1.0, 0.0), (0.0, 1.0)]), trials=5, seed=0)
    assert not rep.passed
    assert rep.witness["chord_value"] == pytest.approx(0.5, abs=1e-15)
    assert rep.witness["midpoint_value"] < 0.1


def test_samplers_match_one_row_draws(example1):
    # Rows drawn one at a time by the scalar samplers of earlier releases,
    # frozen bit for bit: gamma_sampler(seed=11) and split_sampler(seed=12).
    k3 = ChannelConfig(3, (3.0, 1.5, 0.7), 2.0, 1.0, 1.5)
    frozen = [
        (example1, gamma_sampler, 11, [
            [0.12145774030291094, 0.28477224787671734],
            [0.011584676553326637, 0.029490820096476175],
            [0.1293537479835835, 0.34182004285813966],
        ]),
        (example1, split_sampler, 12, [
            [0.2508244581084461, 0.9467529428594246, 0.06959912043958295, 0.21132093539081784],
            [0.23054124658990593, 0.6704457427727847, 0.10601771570064839, 0.703190833076066],
            [0.00282703218662006, 0.5414661617187942, 0.37573298684309014, 0.19856984871942907],
        ]),
        (k3, gamma_sampler, 11, [
            [0.11858475181020678, 0.27803618157784765, 0.5797248434596043],
            [0.02797434044855968, 0.9096145998459279, 0.017134027073350447],
            [0.13535606700490527, 0.32631848894570953, 0.16045547886033232],
        ]),
        (k3, split_sampler, 12, [
            [0.2508244581084461, 0.9467529428594246, 0.1893203845397613,
             0.040360229021059436, 0.13733722679895305, 0.1968620798545553],
            [0.11507938212344748, 0.8963093737046804, 0.8581304890839089,
             0.009625336359459008, 0.17690721154736735, 0.5322045035268391],
            [0.4168960406331027, 0.4536161218532765, 0.46814659094390065,
             0.537530478237529, 0.2803580720857553, 0.0968956991511951],
        ]),
    ]
    for cfg, make, seed, expected in frozen:
        assert make(cfg, seed)(3).tolist() == expected


def test_samplers_batch_equals_one_row_draws():
    rng = np.random.default_rng(8)
    for K in range(1, 7):
        cfg = random_config(rng, K=K)
        for make in (gamma_sampler, split_sampler):
            batch = make(cfg, seed=K)(40)
            one = make(cfg, seed=K)
            assert np.array_equal(batch, np.concatenate([one(1) for _ in range(40)]))
            assert make(cfg, seed=K)(0).shape == (0, batch.shape[1])


@pytest.mark.parametrize("K", range(1, 9))
def test_split_sampler_is_the_dirichlet_stream(K):
    # Each row is rng.random(K) and then rng.dirichlet(ones(K + 1))[:K],
    # byte for byte, on the same generator.
    cfg = ChannelConfig(K, (1.0,) * K, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(K)
    expect = np.array([np.concatenate([rng.random(K), rng.dirichlet(np.ones(K + 1))[:K]]) for _ in range(500)])
    assert split_sampler(cfg, seed=K)(500).tobytes() == expect.tobytes()


def test_chord_check_matches_sequential_reference(example1):
    # Batched endpoints and midpoints give the report and witness of a
    # chord-by-chord scan: the convex negative control, the relay cutset's
    # failing corner chords, and a table function whose first failing chord
    # is one of trials 6 to 10 (so 5 trials pass).
    unit = ChannelConfig(2, (1.0, 1.0), 1.0, 1.0, 1.0)
    cases = [
        (lambda G: np.einsum("ij,ij->i", G, G), lambda: gamma_sampler(example1, seed=4), 1000, 0),
        (rows(lambda g: bound_functions(unit, CorrelationVector(tuple(g)))[1](0b11)),
         lambda: cycle_sampler([(1.0, 0.0), (0.0, 1.0)]), 5, 0),
        (lambda G: family_tables(example1, "outer", G)[1][:, 0b01], lambda: gamma_sampler(example1, seed=0), 1000, 0),
        (lambda G: family_tables(example1, "outer", G)[1][:, 0b01], lambda: gamma_sampler(example1, seed=0), 5, 0),
    ]
    failed = 0
    for fn, sampler, trials, seed in cases:
        rep = chord_check(fn, sampler(), trials=trials, seed=seed)
        assert rep == sequential_chords(fn, sampler(), trials, seed)
        failed += not rep.passed
    assert failed == 3


def test_relay_singleton_cut_not_concave(example1):
    fn = lambda g: bound_functions(example1, CorrelationVector(tuple(g)))[1](0b01)
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

    real_tables = verify.family_tables

    def lowered(config, family, rows, beta=None):
        tables = real_tables(config, family, rows, beta)
        if family == "outer":
            tables[0][7, 0b10] -= 0.25
        return tables

    monkeypatch.setattr(verify, "family_tables", lowered)
    rep = dominance_check(example1, trials=20, seed=3)
    assert not rep.passed
    w = rep.witness
    assert (w["kind"], w["subset"]) == ("dest_dominance", 0b10)
    draws = np.random.default_rng(3)
    for _ in range(8):
        alpha, beta = draws.random(2), draws.dirichlet(np.ones(3))[:2]
    assert w["alpha"] == alpha.tolist() and w["beta"] == beta.tolist()
    split = DfPowerSplit(tuple(alpha), tuple(beta))
    assert w["inner"] == bound_functions(example1, split)[0](0b10)
    assert w["inner"] - w["outer"] == pytest.approx(rep.max_gap, abs=1e-15)

    def shifted(config, family, rows, beta=None):
        tables = real_tables(config, family, rows, beta)
        if family == "inner":
            tables[1][4, -1] += 1e-9
        return tables

    monkeypatch.setattr(verify, "family_tables", shifted)
    rep = dominance_check(example1, trials=20, seed=3)
    assert not rep.passed
    assert (rep.witness["kind"], rep.witness["subset"]) == ("relay_full_equality", 0b11)
    assert rep.max_gap == pytest.approx(1e-9, rel=1e-6)
