"""Polymatroid engine: certification with forged counterexamples, greedy
vertices against frozen values, and the max-sum intersection against two
independent brute-force oracles."""

import numpy as np
import pytest

from marc_cap import (
    ACTIVE,
    ChannelConfig,
    CorrelationVector,
    DfPowerSplit,
    INACTIVE,
    SubsetFunction,
    beta_star,
    bound_functions,
    build_intersection,
    certify,
    intersection_max_sum,
    solve_equalizer,
    vertex_enumeration,
)
from marc_cap.polymatroid import TIE_TOL, intersection_rows
from marc_cap.sumcap import equalizing_set
from conftest import grid_max_sum, linprog_max_sum, random_config, random_gamma, random_split

# Frozen greedy vertices of the no-cooperation relay family of example 1:
# marginals of C(6), C(4), C(10) in the two visit orders.
PERM_FWD = (1.403677461028802, 0.32603834828984657)
PERM_REV = (0.5687517618749676, 1.160964047443681)


def square(values):
    return SubsetFunction(2, np.asarray(values, dtype=np.float64))


def test_subset_function_validation():
    with pytest.raises(ValueError, match="empty-set"):
        square([0.5, 1.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="shape"):
        SubsetFunction(2, np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        square([0.0, np.nan, 1.0, 2.0])
    f = square([0.0, 1.0, 1.0, 1.5])
    assert f(0b01) == 1.0
    assert f.full() == 1.5
    with pytest.raises(ValueError):
        f.values[1] = 2.0


def test_subset_function_checks_its_mask():
    # A negative mask used to index from the end (f(-1) was f(full)), and
    # a mask past the end raised a bare IndexError.
    f = square([0.0, 1.0, 2.0, 3.0])
    assert [f(mask) for mask in range(4)] == [0.0, 1.0, 2.0, 3.0]
    for mask in (-1, -4, 4):
        with pytest.raises(ValueError, match=f"subset mask {mask} outside \\[0, 4\\)"):
            f(mask)


def test_subset_function_from_dict():
    f = SubsetFunction.from_dict(2, {1: 1.0, 2: 2.0, 3: 2.5})
    assert list(f.values) == [0.0, 1.0, 2.0, 2.5]
    with pytest.raises(KeyError):
        SubsetFunction.from_dict(2, {1: 1.0, 3: 2.5})


def test_certify_accepts_provably_submodular_families():
    # The destination cutset family and both decode-and-forward families are
    # submodular for every parameter choice; the relay cutset family is only
    # guaranteed at zero correlation (plain multiaccess polymatroid).
    rng = np.random.default_rng(11)
    for _ in range(10):
        config = random_config(rng)
        gamma = CorrelationVector(random_gamma(rng, config.K))
        split = DfPowerSplit(*random_split(rng, config.K))
        for f in (
            bound_functions(config, CorrelationVector((0.0,) * config.K))[1],
            bound_functions(config, gamma)[0],
            *bound_functions(config, split),
        ):
            result = certify(f)
            assert result.submodular and result.monotone
            assert result.witness is None


def test_relay_cutset_not_submodular_everywhere():
    # Frozen counterexample: correlating both sources this heavily with the
    # relay zeroes each single-source bound while the pair bound stays
    # positive, so the relay cutset family is not a rank function here. The
    # enclosed region is still computed exactly (it collapses to a point).
    config = ChannelConfig(2, (4.0, 1.0), 1.0, 1.0, 1.0)
    gamma = CorrelationVector((0.5, 0.5))
    f = bound_functions(config, gamma)[1]
    assert f(0b01) == 0.0
    assert f(0b10) == 0.0
    assert f(0b11) == pytest.approx(0.2924812503605781, rel=1e-15)
    result = certify(f)
    assert result.monotone
    assert not result.submodular
    assert result.witness == (0, 0, 1)
    region = build_intersection(config, gamma)
    assert region.max_sum() == 0.0


def test_certify_flags_supermodular_with_witness():
    result = certify(square([0.0, 1.0, 1.0, 3.0]))
    assert not result.submodular
    assert result.monotone
    assert result.witness == (0, 0, 1)


def test_certify_flags_nonmonotone_with_witness():
    result = certify(square([0.0, 1.0, 1.0, 0.5]))
    assert result.submodular
    assert not result.monotone
    assert result.witness == (0b01, 1, 1)


def test_certify_tolerance_absorbs_float_dust():
    result = certify(square([0.0, 1.0, 1.0, 2.0 + 1e-13]))
    assert result.submodular and result.monotone


def test_vertex_enumeration_frozen(example1):
    split = DfPowerSplit((1.0, 1.0), (0.0, 0.0))
    f = bound_functions(example1, split)[1]
    assert vertex_enumeration(f, [1, 2]) == pytest.approx(PERM_FWD, rel=1e-15)
    assert vertex_enumeration(f, [2, 1]) == pytest.approx(PERM_REV, rel=1e-15)


def test_vertex_enumeration_lies_on_dominant_face():
    rng = np.random.default_rng(12)
    for _ in range(10):
        config = random_config(rng)
        f = bound_functions(config, CorrelationVector(random_gamma(rng, config.K)))[0]
        perm = list(rng.permutation(config.K) + 1)
        rates = vertex_enumeration(f, perm)
        assert rates.sum() == pytest.approx(f.full(), rel=1e-12)
        for mask in range(1, 1 << config.K):
            total = sum(rates[k] for k in range(config.K) if mask >> k & 1)
            assert total <= f(mask) + 1e-12


def test_vertex_enumeration_rejects_bad_inputs():
    f = square([0.0, 1.0, 1.0, 1.5])
    with pytest.raises(ValueError, match="permutation"):
        vertex_enumeration(f, [1, 1])
    with pytest.raises(ValueError, match="witness"):
        vertex_enumeration(square([0.0, 1.0, 1.0, 3.0]), [1, 2])


def test_intersection_requires_matching_ground_sets():
    f2 = square([0.0, 1.0, 1.0, 1.5])
    f3 = SubsetFunction(3, np.zeros(8))
    with pytest.raises(ValueError, match="ground sets"):
        intersection_max_sum(f2, f3)


def test_intersection_value_is_min_total():
    rng = np.random.default_rng(13)
    for _ in range(20):
        config = random_config(rng)
        gamma = CorrelationVector(random_gamma(rng, config.K))
        f1, f2 = bound_functions(config, gamma)
        outcome = intersection_max_sum(f1, f2)
        full = (1 << config.K) - 1
        expect = min(f1(S) + f2(full ^ S) for S in range(1 << config.K))
        assert outcome.max_sum_rate == pytest.approx(expect, rel=1e-15)


@pytest.mark.parametrize(
    "f1_vals,f2_vals,kind,argmin,case",
    [
        # Full-set plane of the first family is strictly lower.
        ([0.0, 1.0, 1.0, 1.5], [0.0, 1.0, 1.0, 2.0], ACTIVE, 0b11, "3a"),
        # Mirror image: the second family's plane is lower.
        ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 1.0, 1.5], ACTIVE, 0b00, "3c"),
        # Equal planes tie.
        ([0.0, 1.0, 1.0, 1.5], [0.0, 1.0, 1.0, 1.5], ACTIVE, 0b00, "3b"),
        # Source 2 is cheap at the first bound, source 1 at the second.
        ([0.0, 5.0, 1.0, 5.5], [0.0, 1.0, 5.0, 5.5], INACTIVE, 0b10, "1"),
        ([0.0, 1.0, 5.0, 5.5], [0.0, 5.0, 1.0, 5.5], INACTIVE, 0b01, "2"),
    ],
)
def test_two_user_cases(f1_vals, f2_vals, kind, argmin, case):
    outcome = intersection_max_sum(square(f1_vals), square(f2_vals))
    assert outcome.kind == kind
    assert outcome.argmin_subset == argmin
    assert outcome.two_user_case == case


def test_tie_between_split_and_full_classifies_active():
    f = square([0.0, 1.0, 1.0, 2.0])
    outcome = intersection_max_sum(f, f)
    assert outcome.kind == ACTIVE
    assert outcome.argmin_subset == 0


def test_case_labels_limited_to_two_users():
    f3 = SubsetFunction(3, np.arange(8.0) * 0.0)
    assert intersection_max_sum(f3, f3).two_user_case is None


def test_example2_in_interval_rule_is_active(example2):
    alpha = (0.97, 0.8)
    split = DfPowerSplit(alpha, tuple(beta_star(example2, alpha)))
    outcome = intersection_max_sum(*bound_functions(example2, split))
    assert outcome.kind == ACTIVE
    assert outcome.two_user_case == "3c"
    assert outcome.max_sum_rate == pytest.approx(1.4179620371271875, rel=1e-15)


def test_example2_off_interval_rule_is_inactive_case_2(example2):
    _, a2 = equalizing_set(example2, solve_equalizer(example2), "inner").complete([0.99])
    assert a2 == pytest.approx(0.5661984870956629, rel=1e-12)
    split = DfPowerSplit((0.99, a2), tuple(beta_star(example2, (0.99, a2))))
    outcome = intersection_max_sum(*bound_functions(example2, split))
    assert outcome.kind == INACTIVE
    assert outcome.argmin_subset == 0b01
    assert outcome.two_user_case == "2"
    assert outcome.max_sum_rate == pytest.approx(1.2730751877361752, rel=1e-15)


def test_intersection_against_both_brute_force_oracles():
    # Certified pairs only: the min-formula is Edmonds' theorem and holds
    # for polymatroid inputs (the DF pairs always are; cutset pairs are
    # rejection-filtered through certify).
    rng = np.random.default_rng(14)
    kept = 0
    while kept < 15:
        config = random_config(rng, K=int(rng.integers(2, 5)))
        if rng.random() < 0.5:
            split = DfPowerSplit(*random_split(rng, config.K))
            f1, f2 = bound_functions(config, split)
        else:
            gamma = CorrelationVector(random_gamma(rng, config.K))
            f1, f2 = bound_functions(config, gamma)
        if not all(certify(f).submodular for f in (f1, f2)):
            continue
        kept += 1
        outcome = intersection_max_sum(f1, f2)
        g = np.minimum(f1.values, f2.values)
        lp = linprog_max_sum(g, config.K)
        grid = grid_max_sum(g, config.K)
        assert outcome.max_sum_rate == pytest.approx(lp, abs=1e-8)
        scale = max(1.0, outcome.max_sum_rate)
        assert abs(outcome.max_sum_rate - grid) <= 2e-3 * scale


def test_min_formula_upper_bounds_unverified_pairs():
    # For non-submodular inputs the min over splits can only overestimate
    # the true polytope maximum, never underestimate it.
    rng = np.random.default_rng(15)
    checked = 0
    while checked < 5:
        config = random_config(rng, K=int(rng.integers(2, 4)))
        gamma = CorrelationVector(random_gamma(rng, config.K))
        f1, f2 = bound_functions(config, gamma)
        if certify(f2).submodular:
            continue
        checked += 1
        g = np.minimum(f1.values, f2.values)
        lp = linprog_max_sum(g, config.K)
        assert intersection_max_sum(f1, f2).max_sum_rate >= lp - 1e-9


def test_intersection_rows_match_the_one_row_view():
    rng = np.random.default_rng(41)
    for K in (1, 2, 3, 4):
        T1 = rng.random((30, 1 << K))
        T2 = rng.random((30, 1 << K))
        T1[:, 0] = T2[:, 0] = 0.0
        if K > 1:
            # Ties within TIE_TOL between the best split and the best full sum.
            T2[:5, -1] = 10.0
            T1[:5, -1] = (T1[:5, 1:-1] + T2[:5, -2:0:-1]).min(axis=1) + 0.5 * TIE_TOL
        value, argmin, active = intersection_rows(T1, T2)
        for i in range(30):
            one = intersection_max_sum(SubsetFunction(K, T1[i]), SubsetFunction(K, T2[i]))
            assert (value[i], argmin[i]) == (one.max_sum_rate, one.argmin_subset)
            assert (ACTIVE if active[i] else INACTIVE) == one.kind
        if K > 1:
            assert active[:5].all() and not active.all()


def test_intersection_rows_do_not_depend_on_the_layout():
    # The bound tables are (n, 2^K) views of subset-major arrays; the same
    # pairs in C order, in F order and as such views give the same arrays.
    rng = np.random.default_rng(43)
    for K in range(1, 7):
        full = (1 << K) - 1
        # Small integers: many exact ties, between mixed subsets and between
        # the two full sums.
        T1 = rng.integers(1, 6, (40, full + 1)).astype(float)
        T2 = rng.integers(1, 6, (40, full + 1)).astype(float)
        T1[:, 0] = T2[:, 0] = 0.0
        if K > 1:
            # Rows 0-4: the best split within TIE_TOL below the best full sum.
            T2[:5, -1] = 10.0
            T1[:5, -1] = (T1[:5, 1:-1] + T2[:5, -2:0:-1]).min(axis=1) + 0.5 * TIE_TOL
            # Rows 5-9: every mixed subset ties, below both full sums.
            T1[5:10, 1:-1] = T2[5:10, 1:-1] = 1.0
            T1[5:10, -1] = T2[5:10, -1] = 10.0
        layouts = [
            (np.ascontiguousarray(T1), np.ascontiguousarray(T2)),
            (np.asfortranarray(T1), np.asfortranarray(T2)),
            (np.ascontiguousarray(T1.T).T, np.ascontiguousarray(T2.T).T),
        ]
        results = [intersection_rows(*pair) for pair in layouts]
        for result in results[1:]:
            for got, expect in zip(result, results[0]):
                assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes(), K
        value, argmin, active = results[0]
        if K > 1:
            assert active[:5].all()
            # The first mixed subset of the tie: argmin keeps the first occurrence.
            assert not active[5:10].any() and np.all(argmin[5:10] == 1)
            assert np.all(value[5:10] == 2.0)


def _full_argmin_rows(T1, T2):
    """intersection_rows with one argmin per row, Active rows included."""
    totals = T1 + T2[:, ::-1]
    full = totals.shape[1] - 1
    arg_full = np.where(totals[:, 0] <= totals[:, full], 0, full)
    if full == 1:
        return totals.min(axis=1), arg_full, np.ones(len(totals), dtype=bool)
    best_full = np.minimum(totals[:, 0], totals[:, full])
    arg_mixed = 1 + np.argmin(totals[:, 1:full], axis=1)
    active = totals[:, 1:full].min(axis=1) >= best_full - TIE_TOL
    return totals.min(axis=1), np.where(active, arg_full, arg_mixed), active


def test_intersection_rows_match_a_full_argmin_reference():
    rng = np.random.default_rng(47)
    for K in range(1, 7):
        # Small integers: exact ties between mixed subsets and between the
        # two full sums.
        T1 = rng.integers(1, 4, (60, 1 << K)).astype(float)
        T2 = rng.integers(1, 4, (60, 1 << K)).astype(float)
        T1[:, 0] = T2[:, 0] = 0.0
        T1[:, -1] = rng.integers(1, 9, 60)
        T2[:, -1] = rng.integers(1, 9, 60)
        # Full sums of 1 lie below every mixed total (at least 2); full sums
        # of 20 lie above every one (at most 6).
        low1, low2, high1, high2 = T1.copy(), T2.copy(), T1.copy(), T2.copy()
        low1[:, -1] = low2[:, -1] = 1.0
        high1[:, -1] = high2[:, -1] = 20.0
        batches = {
            "mixed": (T1, T2),
            "all Active": (low1, low2),
            "all Inactive": (high1, high2),
            "zero rows": (T1[:0], T2[:0]),
        }
        for name, (A, B) in batches.items():
            got = intersection_rows(A, B)
            for g, e in zip(got, _full_argmin_rows(A, B)):
                assert g.dtype == e.dtype and g.tobytes() == e.tobytes(), (K, name)
            active = got[2]
            if name == "all Active" or K == 1:
                assert active.all(), (K, name)
            elif name == "all Inactive":
                assert not active.any(), K
                # Rows whose smallest mixed total is attained more than once
                # pin argmin's first-occurrence tie-break.
                mixed = (A + B[:, ::-1])[:, 1:-1]
                ties = (mixed == mixed.min(axis=1, keepdims=True)).sum(axis=1) > 1
                assert ties.any(), K
            elif name == "mixed":
                assert 0 < active.sum() < len(active), K
