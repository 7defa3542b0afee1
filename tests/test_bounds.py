"""Rate-bound formulas: frozen spot values, branch behavior, parameter
validation, and the closed-form relay-split optimum."""

import math

import numpy as np
import pytest

from marc_cap import (
    CorrelationVector,
    DfPowerSplit,
    DomainError,
    awgn_capacity,
    beta_star,
    bound_functions,
    subset_label,
)
from marc_cap import ChannelConfig
from marc_cap.bounds import (
    MAX_TABLE_CELLS,
    dest_sum_snr,
    family_tables,
    full_mask,
    k_coefficients,
    relay_sum_snr,
    subset_indices,
)
from marc_cap.polymatroid import intersection_rows
from conftest import random_config, random_gamma, random_split, sha256_of

# Frozen values computed by hand from 0.5*log2(1+x) before wiring the tests.
C4 = 1.160964047443681
C6 = 1.403677461028802
C7 = 1.5
C10 = 1.7297158093186487
RELAY_1_SNR = 5.368421052631579  # 6 - 0.1*6/0.95
RELAY_1_CAP = 1.3354678619155045
DEST_1_CAP = 1.4485421034196642  # C((6 + 0.95*4 + 2*sqrt(2.4))/2)
DF_RELAY_2_CAP = 1.035194663945699  # C(0.8*4/1)
DF_DEST_12_CAP = 1.686923752143384


def test_subset_helpers():
    assert full_mask(3) == 0b111
    assert subset_indices(0b101) == [0, 2]
    assert subset_indices(0) == []
    assert subset_label(0b101) == "{1,3}"
    assert subset_label(0) == "{}"
    # A negative mask used to shift forever.
    with pytest.raises(DomainError, match="subset mask -1 is negative"):
        subset_indices(-1)


def test_empty_subset_is_zero(example1):
    gamma = CorrelationVector((0.2, 0.1))
    split = DfPowerSplit((0.5, 0.5), (0.5, 0.5))
    for params in (gamma, split):
        dest, relay = bound_functions(example1, params)
        assert relay(0) == 0.0
        assert dest(0) == 0.0


def test_outer_relay_zero_correlation(example1):
    _, relay = bound_functions(example1, CorrelationVector((0.0, 0.0)))
    assert relay(0b11) == pytest.approx(C10, rel=1e-15)
    assert relay(0b01) == pytest.approx(C6, rel=1e-15)
    assert relay(0b10) == pytest.approx(C4, rel=1e-15)


def test_outer_dest_zero_correlation(example1):
    dest, _ = bound_functions(example1, CorrelationVector((0.0, 0.0)))
    assert dest(0b11) == pytest.approx(C7, rel=1e-15)


def test_outer_relay_frozen_point(example1):
    value = bound_functions(example1, CorrelationVector((0.1, 0.05)))[1](0b01)
    assert value == pytest.approx(RELAY_1_CAP, rel=1e-15)
    assert value == pytest.approx(awgn_capacity(6.0 - 0.6 / 0.95), rel=1e-15)


def test_outer_dest_frozen_point(example1):
    value = bound_functions(example1, CorrelationVector((0.1, 0.05)))[0](0b01)
    assert value == pytest.approx(DEST_1_CAP, rel=1e-15)
    assert value == pytest.approx(
        awgn_capacity((6.0 + 0.95 * 4.0 + 2.0 * math.sqrt(0.1 * 6.0 * 4.0)) / 2.0), rel=1e-15
    )


def test_outer_relay_exact_branch_at_unit_complement(example1):
    # Complement mass exactly 1: the relay signal is a function of the
    # complement, so the subset sees its full power (the penalty's
    # denominator gamma(S) + slack is 0).
    assert bound_functions(example1, CorrelationVector((0.0, 1.0)))[1](0b01) == pytest.approx(C6, rel=1e-15)
    assert bound_functions(example1, CorrelationVector((1.0, 0.0)))[1](0b10) == pytest.approx(C4, rel=1e-15)


def test_outer_relay_penalty_grows_with_own_mass(example1):
    values = [bound_functions(example1, CorrelationVector((g, 0.0)))[1](0b01) for g in (0.0, 0.2, 0.5, 1.0)]
    assert values == sorted(values, reverse=True)
    assert values[-1] <= 1e-12


def test_relay_cutset_falls_in_every_correlation():
    # The region's cutset lattice bounds a block's relay entries by those
    # of its corners on the simplex, which rests on this: raising one
    # gamma_k inside the simplex lowers every relay cutset entry, here up
    # to a few ulps, on inputs over 24 decades.
    rng = np.random.default_rng(77)
    eps = np.finfo(np.float64).eps
    for _ in range(200):
        config = random_config(rng, int(rng.integers(2, 5)), 1e-12, 1e12)
        draw = rng.dirichlet(np.ones(config.K + 1), 32)
        gamma = draw[:, :-1]
        _, relay = family_tables(config, "outer", gamma)
        for k in range(config.K):
            raised = gamma.copy()
            raised[:, k] += rng.random(32) * draw[:, -1]
            _, higher = family_tables(config, "outer", raised)
            assert (higher <= relay + 4 * eps * (1.0 + relay)).all()


def test_outer_dest_monotone_in_correlations(example1):
    # More own correlation boosts the coherent term; more complement
    # correlation eats the residual relay power.
    dest = lambda gamma: bound_functions(example1, CorrelationVector(gamma))[0](0b01)
    low = dest((0.1, 0.0))
    high = dest((0.2, 0.0))
    assert high > low
    taxed = dest((0.1, 0.3))
    assert taxed < low


def test_df_relay_frozen_point(example1):
    _, relay = bound_functions(example1, DfPowerSplit((0.9, 0.8), (0.5, 0.5)))
    assert relay(0b10) == pytest.approx(DF_RELAY_2_CAP, rel=1e-15)
    assert relay(0b11) == pytest.approx(
        awgn_capacity(0.9 * 6.0 + 0.8 * 4.0), rel=1e-15
    )


def test_df_dest_frozen_point(example1):
    alpha = (0.9, 0.8)
    split = DfPowerSplit(alpha, tuple(beta_star(example1, alpha)))
    assert bound_functions(example1, split)[0](0b11) == pytest.approx(DF_DEST_12_CAP, rel=1e-15)


def test_df_dest_complement_share_reduces_relay_power(example1):
    # beta pledged to the complement is unavailable to the subset.
    full_relay = bound_functions(example1, DfPowerSplit((1.0, 1.0), (0.0, 0.0)))[0](0b01)
    taxed = bound_functions(example1, DfPowerSplit((1.0, 1.0), (0.0, 0.6)))[0](0b01)
    assert full_relay == pytest.approx(awgn_capacity((6.0 + 4.0) / 2.0), rel=1e-15)
    assert taxed == pytest.approx(awgn_capacity((6.0 + 0.4 * 4.0) / 2.0), rel=1e-15)


def test_beta_star_proportional_to_cooperative_power(example1):
    beta = beta_star(example1, (0.9, 0.8))
    assert beta == pytest.approx([3.0 / 7.0, 4.0 / 7.0], rel=1e-15)
    assert beta.sum() == pytest.approx(1.0, rel=1e-15)


def test_beta_star_no_cooperation_gives_zero_split(example1):
    assert np.array_equal(beta_star(example1, (1.0, 1.0)), [0.0, 0.0])


def test_beta_star_is_exact_where_one_source_keeps_all_its_power():
    # At alpha_k = 1 source k commits nothing to cooperation, and the split
    # is (1, 0), (0, 1) or (0, 0) bit for bit: the region grid builds no
    # separate pentagon for those relay splits.
    rng = np.random.default_rng(14)
    steps = np.arange(201) / 200
    for _ in range(20):
        config = random_config(rng, K=2, lo=0.01, hi=100.0)
        for k in range(2):
            alpha = np.ones((len(steps), 2))
            alpha[:, 1 - k] = steps
            star = beta_star(config, alpha)
            expect = np.zeros_like(alpha)
            expect[:-1, 1 - k] = 1.0
            assert star.tobytes() == expect.tobytes()


def test_beta_star_maximizes_dest_bound(example1):
    alpha = (0.7, 0.4)
    star = DfPowerSplit(alpha, tuple(beta_star(example1, alpha)))
    best = bound_functions(example1, star)[0](0b11)
    rng = np.random.default_rng(3)
    for _ in range(50):
        beta = rng.dirichlet((1.0, 1.0, 1.0))[:2]
        other = DfPowerSplit(alpha, tuple(beta))
        assert bound_functions(example1, other)[0](0b11) <= best + 1e-12


def test_beta_star_shape_check(example1):
    with pytest.raises(DomainError, match="alpha"):
        beta_star(example1, (0.5,))


def test_gamma_star_dest_maximizes_dest_bound(example1):
    # At a fixed total mass c, correlations proportional to the source powers
    # maximize the full-set destination cutset bound.
    c = 0.5
    star = c * example1.powers() / example1.powers().sum()
    best = bound_functions(example1, CorrelationVector(tuple(star)))[0](0b11)
    rng = np.random.default_rng(4)
    for _ in range(50):
        w = rng.dirichlet((1.0, 1.0))
        assert bound_functions(example1, CorrelationVector(tuple(c * w)))[0](0b11) <= best + 1e-12


def test_reduction_identity_under_beta_star(example1):
    # With the proportional relay split the induced correlations reproduce
    # the full-set relay cutset bound of the decode-and-forward family.
    rng = np.random.default_rng(5)
    for _ in range(20):
        alpha = tuple(rng.random(2))
        split = DfPowerSplit(alpha, tuple(beta_star(example1, alpha)))
        outer = bound_functions(example1, CorrelationVector(tuple((1.0 - np.asarray(alpha)) * split.beta)))[1](0b11)
        inner = bound_functions(example1, split)[1](0b11)
        assert outer == pytest.approx(inner, abs=1e-12)


def test_sum_snr_forms_match_subset_bounds(example1):
    rng = np.random.default_rng(6)
    lam = example1.lam_vector()
    for _ in range(20):
        gamma = random_gamma(rng, 2)
        x = float(np.sqrt(lam * np.asarray(gamma)).sum())
        dest, relay = bound_functions(example1, CorrelationVector(gamma))
        assert awgn_capacity(relay_sum_snr(example1, x)) == pytest.approx(relay(0b11), abs=1e-12)
        assert awgn_capacity(dest_sum_snr(example1, x)) == pytest.approx(dest(0b11), abs=1e-12)


def test_sum_snr_forms_evaluate_floats_and_arrays(example1, example2):
    x = np.linspace(0.0, 1.2, 7)
    for cfg in (example1, example2):
        k0, k1, k2, k3 = k_coefficients(cfg)
        assert relay_sum_snr(cfg, 0.0) == k3 == sum(cfg.P) / cfg.N_r
        assert dest_sum_snr(cfg, 0.0) == k2 == (sum(cfg.P) + cfg.P_r) / cfg.N_d
        assert relay_sum_snr(cfg, x).tolist() == [relay_sum_snr(cfg, v) for v in x.tolist()]
        assert dest_sum_snr(cfg, x).tolist() == [dest_sum_snr(cfg, v) for v in x.tolist()]


def test_bounds_monotone_in_subset():
    rng = np.random.default_rng(7)
    for _ in range(10):
        config = random_config(rng)
        K = config.K
        gamma = CorrelationVector(random_gamma(rng, K))
        split = DfPowerSplit(*random_split(rng, K))
        for f in (*bound_functions(config, gamma), *bound_functions(config, split)):
            for S in range(1 << K):
                for k in range(K):
                    if S >> k & 1:
                        continue
                    assert f(S | 1 << k) >= f(S) - 1e-12


def test_correlation_vector_validation():
    with pytest.raises(DomainError, match="gamma\\[2\\]"):
        CorrelationVector((0.2, -0.1))
    with pytest.raises(DomainError, match="gamma\\[1\\]"):
        CorrelationVector((1.2, 0.0))
    with pytest.raises(DomainError, match="sum\\(gamma\\)"):
        CorrelationVector((0.6, 0.5))
    vec = CorrelationVector((0.3, 0.7))
    assert vec.vector() == pytest.approx([0.3, 0.7], abs=0)


def test_power_split_validation():
    with pytest.raises(DomainError, match="alpha\\[1\\]"):
        DfPowerSplit((1.5, 0.5), (0.5, 0.5))
    with pytest.raises(DomainError, match="beta\\[2\\]"):
        DfPowerSplit((0.5, 0.5), (0.5, -0.5))
    with pytest.raises(DomainError, match="sum\\(beta\\)"):
        DfPowerSplit((0.5, 0.5), (0.6, 0.5))
    with pytest.raises(DomainError, match="entries"):
        DfPowerSplit((0.5, 0.5), (0.5,))
    # NaN fails the row checks the bound tables apply.
    with pytest.raises(DomainError, match="beta\\[1\\]=nan outside \\[0, 1\\]"):
        DfPowerSplit((0.5, 0.5), (float("nan"), 0.0))
    with pytest.raises(DomainError, match="alpha\\[2\\]=nan"):
        DfPowerSplit((0.5, float("nan")), (0.0, 0.0))
    with pytest.raises(DomainError, match="gamma\\[1\\]=nan"):
        CorrelationVector((float("nan"), 0.0))


def test_parameter_objects_with_no_sources():
    # K=0 objects pass the row checks (an empty row has mass 0).
    assert CorrelationVector(()).gamma == ()
    split = DfPowerSplit((), ())
    assert (split.alpha, split.beta) == ((), ())


def _table_rows(rng, K, n):
    gamma = np.array([random_gamma(rng, K) for _ in range(n)])
    splits = [random_split(rng, K) for _ in range(n)]
    alpha = np.array([a for a, _ in splits])
    beta = np.array([b for _, b in splits])
    # Boundary rows: unit complement mass, no cooperation, full cooperation.
    gamma[0] = np.eye(K)[0]
    alpha[1] = 1.0
    alpha[2] = 0.0
    return gamma, alpha, beta


def test_tables_are_batch_invariant():
    rng = np.random.default_rng(11)
    for K in range(1, 6):
        for _ in range(3):
            config = random_config(rng, K)
            gamma, alpha, beta = _table_rows(rng, K, 40)
            for family, rows in (("outer", (gamma,)), ("inner", (alpha, beta))):
                for side, batch in enumerate(family_tables(config, family, *rows)):
                    assert batch.shape == (40, 1 << K)
                    assert np.all(batch[:, 0] == 0.0)
                    for i in range(40):
                        alone = family_tables(config, family, *(r[i : i + 1] for r in rows))[side]
                        assert np.array_equal(alone[0], batch[i]), (family, side, K, i)


def test_scalar_bounds_and_builders_are_table_entries():
    rng = np.random.default_rng(12)
    for K in range(1, 6):
        config = random_config(rng, K)
        gamma, alpha, beta = _table_rows(rng, K, 5)
        # The family pairs, destination first; the inner beta defaults to beta_star.
        outer, inner = family_tables(config, "outer", gamma), family_tables(config, "inner", alpha, beta)
        star = family_tables(config, "inner", alpha, beta_star(config, alpha))
        for default, explicit in zip(family_tables(config, "inner", alpha), star):
            assert default.tobytes() == explicit.tobytes()
        # The relay decode-and-forward bound does not depend on beta.
        assert inner[1].tobytes() == star[1].tobytes()
        with pytest.raises(DomainError, match="unknown family 'sideways'"):
            family_tables(config, "sideways", gamma)
        # bound_functions is the one-row view, bit for bit.
        for i in range(5):
            for params, tables in ((CorrelationVector(tuple(gamma[i])), outer),
                                   (DfPowerSplit(tuple(alpha[i]), tuple(beta[i])), inner)):
                dest, relay = bound_functions(config, params)
                assert (dest.K, relay.K) == (K, K)
                assert dest.values.tobytes() == tables[0][i].tobytes()
                assert relay.values.tobytes() == tables[1][i].tobytes()
                assert [relay(S) for S in range(1 << K)] == tables[1][i].tolist()


def test_family_builders_tabulate_all_subsets(example1):
    gamma = CorrelationVector((0.1, 0.05))
    split = DfPowerSplit((0.9, 0.8), (0.5, 0.5))
    fd, fr = bound_functions(example1, gamma)
    gd, gr = bound_functions(example1, split)
    dest, relay = family_tables(example1, "outer", [gamma.gamma])
    dest_df, relay_df = family_tables(example1, "inner", [split.alpha], [split.beta])
    for f, row in ((fr, relay[0]), (fd, dest[0]), (gr, relay_df[0]), (gd, dest_df[0])):
        assert [f(mask) for mask in range(4)] == row.tolist()
    assert fr(0b01) == pytest.approx(RELAY_1_CAP, rel=1e-15)
    assert fd(0b01) == pytest.approx(DEST_1_CAP, rel=1e-15)
    assert gr(0b10) == pytest.approx(DF_RELAY_2_CAP, rel=1e-15)


def test_coercion_helpers(example1):
    # bound_functions takes a parameter object of the config's K, nothing else.
    vec = CorrelationVector((0.1, 0.2))
    split = DfPowerSplit((0.5, 0.5), (0.5, 0.5))
    for params in (vec, split):
        assert all(f.K == 2 for f in bound_functions(example1, params))
    for params in ((0.1, 0.2), [0.1, 0.2], None):
        with pytest.raises(DomainError, match=f"unsupported parameter type {type(params).__name__}"):
            bound_functions(example1, params)
    with pytest.raises(DomainError, match="gamma rows have shape \\(1, 3\\), expected \\(n, 2\\)"):
        bound_functions(example1, CorrelationVector((0.1, 0.1, 0.1)))
    with pytest.raises(DomainError, match="alpha rows have shape \\(1, 1\\), expected \\(n, 2\\)"):
        bound_functions(example1, DfPowerSplit((0.5,), (0.5,)))
    rng = np.random.default_rng(13)
    for K in range(1, 6):
        config = random_config(rng, K)
        with pytest.raises(DomainError, match="unsupported parameter type tuple"):
            bound_functions(config, random_gamma(rng, K))
        with pytest.raises(DomainError, match=f"gamma rows have shape \\(1, {K + 1}\\), expected \\(n, {K}\\)"):
            bound_functions(config, CorrelationVector((0.0,) * (K + 1)))
        with pytest.raises(DomainError, match=f"alpha rows have shape \\(1, {K + 1}\\), expected \\(n, {K}\\)"):
            bound_functions(config, DfPowerSplit((1.0,) * (K + 1), (0.0,) * (K + 1)))


def test_tables_check_the_parameter_domain(example1):
    with pytest.raises(DomainError, match="gamma\\[2\\]"):
        family_tables(example1, "outer", [[0.2, 0.1], [0.2, -0.1]])
    with pytest.raises(DomainError, match="sum\\(gamma\\)"):
        family_tables(example1, "outer", [[0.6, 0.5]])
    with pytest.raises(DomainError, match="alpha\\[1\\]"):
        family_tables(example1, "inner", [[1.5, 0.5]], [[0.5, 0.5]])
    with pytest.raises(DomainError, match="beta\\[2\\]"):
        family_tables(example1, "inner", [[0.5, 0.5]], [[0.5, -0.5]])
    with pytest.raises(DomainError, match="sum\\(beta\\)"):
        family_tables(example1, "inner", [[0.5, 0.5]], [[0.6, 0.5]])
    with pytest.raises(DomainError, match="shape"):
        family_tables(example1, "outer", [[0.1, 0.1, 0.1]])
    # At most MAX_TABLE_CELLS cells, rows times 2^K, checked before the rows
    # are read: numpy raised "Maximum allowed dimension exceeded" at K=64.
    many = ChannelConfig(64, (1.0,) * 64, 2.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="K=64 needs 1 x 2\\^64 bound table cells"):
        bound_functions(many, CorrelationVector((0.0,) * 64))
    with pytest.raises(DomainError, match="K=64 needs 3 x 2\\^64 bound table cells"):
        family_tables(many, "inner", np.ones((3, 64)))
    with pytest.raises(DomainError, match="K=2 needs 16777217 x 2\\^2"):
        family_tables(example1, "outer", range((MAX_TABLE_CELLS >> 2) + 1))


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_empty_batch_gives_empty_tables(K):
    # The inner family raised "cannot reshape array of size 0" here, while
    # the outer family returned (0, 2^K) tables.
    config = ChannelConfig(K, tuple(float(k + 1) for k in range(K)), 2.0, 1.0, 1.0)
    for family in ("inner", "outer"):
        tables = family_tables(config, family, np.zeros((0, K)))
        assert [table.shape for table in tables] == [(0, 1 << K)] * 2
        assert [len(array) for array in intersection_rows(*tables)] == [0, 0, 0]


def test_relay_cutset_clamps_dust_relative_to_power():
    # gamma proportional to the powers with unit mass: by Cauchy-Schwarz the
    # full-set relay SNR is exactly 0, and the rounding dust grows with power.
    config = ChannelConfig(2, (1e5, 3e5), 4.0, 1.0, 1.0)
    assert bound_functions(config, CorrelationVector((0.25, 0.75)))[1](0b11) == 0.0
    # Unit total mass with a tiny singleton: the penalty divides the
    # singleton's coherent term by its own tiny mass.
    config = ChannelConfig(2, (1.0, 1.0), 1.0, 1.0, 1.0)
    gamma = CorrelationVector((0.9999998807907247, 1.1920927538914698e-07))
    assert bound_functions(config, gamma)[1](0b10) == 0.0


@pytest.mark.parametrize("P1", [5e-324, 1e-320])
def test_relay_cutset_caps_the_penalty_at_a_subnormal_power(P1):
    # coherent^2 / room rounds an ulp above a subnormal P_1, and the dust
    # bound DOMAIN_TOL * P_1 / N_r underflows to 0: on this lattice of
    # correlations the table raised "negative SNR argument -5e-324".
    config = ChannelConfig(2, (P1, 4.0), 4.0, 1.0, 1.0)
    gamma = np.array([(i, j) for i in range(51) for j in range(51 - i)]) / 50
    dest, relay = family_tables(config, "outer", gamma)
    assert relay[:, 0b01].tolist() == [0.0] * len(gamma)
    assert np.isfinite(dest).all() and np.isfinite(relay).all()


def test_relay_cutset_is_zero_when_relay_and_complement_reveal_the_subset():
    # sum(gamma) = 1 and gamma_1 > 0: X_r and the complement's inputs reveal
    # X_1, so f({1}) = 0. The snap to the full subset power at complement
    # mass 1 gave f({1}) = 2.529591 > f({1,4}) = 2.529373.
    config = ChannelConfig(4, (32.34, 26.65, 1.404, 22.90), 1.0, 1.0, 1.0)
    gamma = (1.4183247616826562e-13, 0.11188383521682158, 0.888112018377207, 4.1464058295309335e-06)
    row = family_tables(config, "outer", [gamma])[1][0]
    assert row[0b0001] == 0.0
    assert row[0b1001] == pytest.approx(2.529373, abs=5e-7)
    for S in range(16):
        for k in range(4):
            assert row[S | 1 << k] >= row[S] - 1e-12


def test_negative_snr_beyond_dust_is_an_error():
    # Dust is judged against the subset's SNR scale power/noise: -1e-9 is
    # dust at power 1e5 but a formula bug at power 1.
    from marc_cap.bounds import _rates

    power = np.array([[0.0, 1e5]])
    assert np.array_equal(_rates(np.array([[0.0, -1e-9]]), power, 1.0), [[0.0, 0.0]])
    with pytest.raises(ValueError, match="negative SNR argument"):
        _rates(np.array([[0.0, -1e-9]]), power / 1e5, 1.0)


def test_beta_star_batches_rows(example1):
    alpha = np.array([[0.9, 0.8], [1.0, 1.0], [0.2, 0.7]])
    batch = beta_star(example1, alpha)
    for row, expect in zip(alpha, batch):
        assert np.array_equal(beta_star(example1, row), expect)
    assert np.array_equal(batch[1], [0.0, 0.0])


# Per K: the tables of both families on _table_rows (the inner family with
# the given beta and with beta_star), and their intersection_rows arrays.
FROZEN_TABLE_DIGESTS = {
    1: ("a34d44451bbd1e006b4e0694057347f7a579eddb5c4122f3a0eaab3901617d3c",
        "357048698f19a32fdd4b5f07449e531f5c5cec83cdc90790fb463f064b3a8aa3"),
    2: ("c71b4b953d84b528e7e7b54eb700b7bd051cb73a5eda4ffed8a1b9795b2096a2",
        "4cbeec8215a99abc1aba325ae909028959abadb4d6288de3022fbc3a9c4efe70"),
    3: ("57bdf739f2f68538f157ed5ceb971322866493d2eaeca039912388d43d2562af",
        "c8f2820cf4f2a04ca96a7c7c17c40b70ca5470cb9ac3ec639006f5b387bbf308"),
    4: ("fc123ece82c72f327f723e5d6b48131e9419e494ad281952747c9f61632296e9",
        "9e6e4ea0b6befdb68e96c76f0cae5b6aeec93eb0bff84a88d6e462a1aa4fd52f"),
    5: ("f8101434e6943f4c782d77144d3942b25c1eacfb3670b2857bee627339809307",
        "c8418f393653446d2b39799c4beb691f6123d1e0ba8291bb33b8a9db7a594ae9"),
    6: ("7d8c923f3d4a359e2787eadd6ca1d8338d03c541b35b43ce265f47d08699c58f",
        "0e614e58d7bf01148705e96f32e2789aa097312ae89511c63d5ee9bc6ec66e2f"),
}


def test_table_bits_are_frozen():
    for K, expect in FROZEN_TABLE_DIGESTS.items():
        rng = np.random.default_rng(100 + K)
        config = random_config(rng, K)
        gamma, alpha, beta = _table_rows(rng, K, 40)
        pairs = [family_tables(config, "outer", gamma), family_tables(config, "inner", alpha, beta),
                 family_tables(config, "inner", alpha)]
        verdicts = [array for pair in pairs for array in intersection_rows(*pair)]
        assert (sha256_of(*(table for pair in pairs for table in pair)), sha256_of(*verdicts)) == expect, K


def test_beta_star_does_not_depend_on_the_power_scale(example1):
    # No source cooperates exactly when the cooperative power is 0, at any
    # scale: example 1 scaled by 1e-300 cooperates 6e-302 at alpha (0.99, 1),
    # below the absolute threshold 1e-300 that once gave it the zero split.
    s = 1e-300
    alpha = (0.99, 1.0)
    tiny = ChannelConfig(2, (6.0 * s, 4.0 * s), 4.0 * s, s, s)
    assert beta_star(tiny, alpha).tobytes() == beta_star(example1, alpha).tobytes()
    assert beta_star(tiny, alpha).tolist() == [1.0, 0.0]
    # Power-of-two scales cancel exactly, at every alpha.
    alpha = np.random.default_rng(15).random((200, 2))
    alpha[0] = 1.0
    for e in (-1000, -500, 500, 1000):
        s = 2.0**e
        scaled = ChannelConfig(2, (6.0 * s, 4.0 * s), 4.0 * s, s, s)
        assert beta_star(scaled, alpha).tobytes() == beta_star(example1, alpha).tobytes(), e
