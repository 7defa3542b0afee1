"""Max-min equalizer solver, regime split, rule validation, and rule-set scans."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from marc_cap import (
    ChannelConfig,
    DomainError,
    awgn_capacity,
    scan_active_rules,
    solve_equalizer,
    sum_capacity,
)
from marc_cap import bounds
from marc_cap._kernels import compositions
from marc_cap.polymatroid import INACTIVE, intersection_max_sum, intersection_rows
from marc_cap.sumcap import (
    ACTIVE,
    ACTIVE_CLASS,
    BOTTLENECK,
    EQUALIZED,
    EXACT,
    INACTIVE_CLASS,
    MAX_SWEEP_POINTS,
    SCAN_DRAWS,
    UPPER_BOUND_ONLY,
    _runs,
    _sweep_grid,
    bottleneck_check,
    equalizing_set,
    gamma_rule_outer,
    k_coefficients,
    maxmin_rule_inner,
)
from marc_cap.bounds import CorrelationVector, DfPowerSplit, beta_star, bound_functions, family_tables
from marc_cap.sumcap import CONSTRAINT_TOL
from conftest import sha256_of

ROOT_1 = 0.40824829046386296
C_1 = 0.16666666666666663
RATE_1 = 1.660964047443681
ROOT_2 = 0.19728178035563534
C_2 = 0.038920100860289145
RATE_2 = 1.4206322772461797
BOTTLENECK_RATE = 0.792481250360578


def equalizer_gap(config, x):
    """Destination minus relay bound along the scalar coherent statistic."""
    k0, k1, k2, k3 = k_coefficients(config)
    return (k2 + 2.0 * k1 * x) - (k3 - k0 * x * x)


def random_equalized_configs(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        K = int(rng.integers(2, 5))
        P = tuple(np.exp(rng.uniform(np.log(0.1), np.log(10.0), K)))
        cfg = ChannelConfig(K, P,
                            float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))),
                            float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))),
                            float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))))
        if not bottleneck_check(cfg):
            out.append(cfg)
    return out


def test_regime_split(example1, bottleneck):
    assert solve_equalizer(example1).regime == EQUALIZED
    assert solve_equalizer(bottleneck).regime == BOTTLENECK
    assert not bottleneck_check(example1)
    assert bottleneck_check(bottleneck)


def test_boundary_counts_as_bottleneck():
    # Total SNR at the relay exactly equals the destination's: ties go to
    # the bottleneck branch, where the answer is exact with no correlation.
    cfg = ChannelConfig(2, (1.0, 1.0), 2.0, 1.0, 1.0)
    assert bottleneck_check(cfg)
    sol = solve_equalizer(cfg)
    assert sol.regime == BOTTLENECK
    assert sol.sum_rate == awgn_capacity(2.0)


def test_bottleneck_sum_rate(bottleneck):
    sol = solve_equalizer(bottleneck)
    assert sol.sum_rate == BOTTLENECK_RATE
    assert sol.sum_rate == awgn_capacity(sum(bottleneck.P) / bottleneck.N_r)


def test_example1_coefficients(example1):
    k0, k1, k2, k3 = k_coefficients(example1)
    assert (k0, k2, k3) == (6.0, 7.0, 10.0)
    assert k1 == 2.449489742783178
    assert k1 == math.sqrt(example1.P_max * example1.P_r) / example1.N_d
    assert k0 == example1.P_max / example1.N_r
    assert k3 == sum(example1.P) / example1.N_r


def test_example1_equalizer_frozen(example1):
    sol = solve_equalizer(example1)
    assert sol.regime == EQUALIZED
    assert sol.root == ROOT_1
    assert sol.constraint_value == C_1
    assert sol.sum_rate == RATE_1
    # Closed forms for this config: root = 1/sqrt(6), rate = C(9).
    assert sol.root == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-15)
    assert sol.sum_rate == pytest.approx(awgn_capacity(9.0), rel=1e-15)


def test_example2_equalizer_frozen(example2):
    sol = solve_equalizer(example2)
    assert sol.regime == EQUALIZED
    assert sol.root == ROOT_2
    assert sol.constraint_value == C_2
    assert sol.sum_rate == RATE_2


def test_constraint_value_is_squared_root(example1, example2):
    for cfg in (example1, example2):
        sol = solve_equalizer(cfg)
        assert sol.constraint_value == sol.root**2


def test_root_matches_independent_bisection(example1, example2):
    for cfg in [example1, example2] + random_equalized_configs(20, seed=3):
        sol = solve_equalizer(cfg)
        k0, k1, k2, k3 = k_coefficients(cfg)
        hi = math.sqrt(k3 / k0)
        assert equalizer_gap(cfg, 0.0) < 0.0 < equalizer_gap(cfg, hi)
        ref = brentq(lambda x: equalizer_gap(cfg, x), 0.0, hi, xtol=1e-14)
        assert sol.root == pytest.approx(ref, abs=1e-12)
        # Both cut bounds agree at the root and equal the reported rate.
        assert awgn_capacity(k2 + 2.0 * k1 * sol.root) == pytest.approx(sol.sum_rate, rel=1e-12)
        assert awgn_capacity(k3 - k0 * sol.constraint_value) == pytest.approx(sol.sum_rate, rel=1e-12)


def test_maxmin_rule_inner_accepts_equalizing_alpha(example1):
    sol = solve_equalizer(example1)
    split = maxmin_rule_inner(example1, sol, (0.9, 0.9))
    assert tuple(split.alpha) == (0.9, 0.9)
    assert np.array_equal(split.beta, beta_star(example1, (0.9, 0.9)))


def test_maxmin_rule_inner_rejects_violating_alpha(example1):
    sol = solve_equalizer(example1)
    with pytest.raises(DomainError, match="equalizer constraint violated"):
        maxmin_rule_inner(example1, sol, (0.8, 0.9))


def test_gamma_rule_outer_square_root_form(example1):
    # The correlation budget is linear in the root, not in its square:
    # sum of sqrt(lam_k * gamma_k) must hit the root.
    sol = solve_equalizer(example1)
    c = sol.constraint_value
    vec = gamma_rule_outer(example1, sol, (c / 4.0, 3.0 * c / 8.0))
    assert tuple(vec.gamma) == (c / 4.0, 3.0 * c / 8.0)
    # Putting the whole budget on the max-power user also works.
    gamma_rule_outer(example1, sol, (c, 0.0))
    # A gamma with sum(lam*gamma) = c but the wrong sqrt-sum must fail.
    with pytest.raises(DomainError, match="equalizer constraint violated"):
        gamma_rule_outer(example1, sol, (c / 2.0, 3.0 * c / 4.0))


def test_gamma_rule_outer_wrong_length(example1):
    sol = solve_equalizer(example1)
    with pytest.raises(DomainError, match="expected 2"):
        gamma_rule_outer(example1, sol, (0.1, 0.1, 0.1))


def test_classify_equalizing_rules_tie(example1):
    # Any rule satisfying the equalizer makes both full cuts equal, so the
    # two-user case is the tie "3b" and the value is the max-min rate.
    sol = solve_equalizer(example1)
    split = maxmin_rule_inner(example1, sol, (0.9, 0.9))
    out = intersection_max_sum(*bound_functions(example1, split))
    assert out.kind == ACTIVE
    assert out.two_user_case == "3b"
    assert out.max_sum_rate == RATE_1
    c = sol.constraint_value
    gamma = gamma_rule_outer(example1, sol, (c / 4.0, 3.0 * c / 8.0))
    outer = intersection_max_sum(*bound_functions(example1, gamma))
    assert outer.kind == ACTIVE
    assert outer.max_sum_rate == pytest.approx(RATE_1, rel=1e-12)


def test_classify_example2_on_and_off_interval(example2):
    sol = solve_equalizer(example2)
    lam = example2.lam

    def partner(a1):
        return 1.0 - (sol.constraint_value - lam[0] * (1.0 - a1)) / lam[1]

    def classify(a1):
        return intersection_max_sum(*bound_functions(example2, maxmin_rule_inner(example2, sol, (a1, partner(a1)))))

    on = classify(0.97)
    assert on.kind == ACTIVE
    assert on.two_user_case == "3b"
    assert on.max_sum_rate == pytest.approx(RATE_2, rel=1e-12)

    # Too little power split towards the relay by user 1: the single-user
    # relay constraint on user 2 bites before the full cut does.
    off = classify(0.99)
    assert off.kind == INACTIVE
    assert off.argmin_subset == 0b01
    assert off.two_user_case == "2"
    assert off.max_sum_rate == pytest.approx(1.2730751877361752, rel=1e-12)


def test_feasible_intervals_example1(example1):
    # The sweep's first and last rows are the ends of the feasible interval,
    # each with its partner coordinate.
    sol = solve_equalizer(example1)
    inner = equalizing_set(example1, sol, "inner").sweep(1e-3)
    assert (inner[0, 0], inner[-1, 0]) == (0.8333333333333334, 1.0)
    assert inner[-1, 1] == 0.75
    outer = equalizing_set(example1, sol, "outer").sweep(1e-3)
    assert (outer[0, 0], outer[-1, 0]) == (0.0, C_1)
    assert outer[0, 1] == 0.24999999999999994
    # Solving the last coordinate gives the same partners.
    assert equalizing_set(example1, sol, "inner").complete([1.0]) == [1.0, 0.75]
    assert equalizing_set(example1, sol, "outer").complete([0.0]) == [0.0, 0.24999999999999994]


def test_scan_example1_inner_full_box_active(example1):
    sol = solve_equalizer(example1)
    scan = scan_active_rules(example1, sol, resolution=1e-3)
    assert scan.family == "inner"
    assert scan.verdict == ACTIVE_CLASS
    assert scan.feasible_box == {"alpha1": (0.8333333333333334, 1.0),
                                 "alpha2": (0.75, 1.0)}
    # Every feasible rule is active: each run spans its whole box edge.
    assert scan.active_intervals == {"alpha1": [(0.8333333333333334, 1.0)],
                                     "alpha2": [(0.75, 1.0)]}


def test_scan_example1_outer_full_box_active(example1):
    sol = solve_equalizer(example1)
    scan = scan_active_rules(example1, sol, resolution=1e-3, family="outer")
    assert scan.verdict == ACTIVE_CLASS
    assert scan.feasible_box == {"gamma1": (0.0, C_1),
                                 "gamma2": (0.0, 0.24999999999999994)}
    assert scan.active_intervals == {"gamma1": [(0.0, C_1)],
                                     "gamma2": [(0.0, 0.24999999999999994)]}


def test_scan_example2_frozen_runs(example2):
    sol = solve_equalizer(example2)
    scan = scan_active_rules(example2, sol, resolution=1e-3)
    assert scan.verdict == ACTIVE_CLASS
    (a1_run,) = scan.active_intervals["alpha1"]
    (a2_run,) = scan.active_intervals["alpha2"]
    assert a1_run == pytest.approx((0.9610798991397108, 0.979), abs=1e-9)
    # The upper end carries float dust just above 1; the scan reports the
    # grid value, it does not clip.
    assert a2_run == pytest.approx((0.7311984870956632, 1.0000000000000007), abs=1e-9)
    box = scan.feasible_box
    assert box["alpha1"] == pytest.approx((0.9610798991397108, 1.0), abs=1e-12)
    assert box["alpha2"] == pytest.approx((0.4161984870956629, 1.0000000000000007), abs=1e-12)


def test_scan_three_user_sampled(example3):
    sol = solve_equalizer(example3)
    assert sol.regime == EQUALIZED
    scan = scan_active_rules(example3, sol)
    assert scan.verdict == ACTIVE_CLASS
    assert scan.active_intervals is None
    assert scan.feasible_box is None
    assert scan.resolution == 0.0
    assert len(scan.samples) == 64


def test_scan_requires_equalized(bottleneck):
    sol = solve_equalizer(bottleneck)
    with pytest.raises(DomainError, match="Equalized regime only"):
        scan_active_rules(bottleneck, sol)


def test_scan_validates_resolution_and_family(example1):
    sol = solve_equalizer(example1)
    with pytest.raises(DomainError, match="resolution must be positive"):
        scan_active_rules(example1, sol, resolution=0.0)
    with pytest.raises(DomainError, match="unknown family"):
        scan_active_rules(example1, sol, family="sideways")


@pytest.mark.parametrize("resolution", [math.nan, math.inf, -1.0, 0.0])
def test_sum_capacity_checks_the_resolution_in_either_regime(example1, bottleneck, resolution):
    for cfg in (example1, bottleneck):
        with pytest.raises(DomainError, match="resolution must be positive and finite"):
            sum_capacity(cfg, resolution=resolution)


def test_sweep_holds_at_most_max_sweep_points():
    assert MAX_SWEEP_POINTS == 2**21
    assert len(_sweep_grid(0.0, 1.0, 1.0 / MAX_SWEEP_POINTS)) == MAX_SWEEP_POINTS + 1
    for resolution in (1.0 / (MAX_SWEEP_POINTS + 1), 1e-12, 5e-324):
        with pytest.raises(DomainError, match=f"sweep points, more than {MAX_SWEEP_POINTS}$"):
            _sweep_grid(0.0, 1.0, resolution)


def test_scan_rejects_a_resolution_too_fine_for_the_sweep(example1):
    sol = solve_equalizer(example1)
    with pytest.raises(DomainError, match=r"^resolution 1e-12 gives 1\.66667e\+11 sweep points"):
        scan_active_rules(example1, sol, resolution=1e-12)


def test_sweep_grid_endpoints_and_multiples():
    pts = _sweep_grid(0.1003, 0.1027, 1e-3).tolist()
    assert pts[0] == 0.1003
    assert pts[-1] == 0.1027
    assert pts[1:-1] == [101 * 1e-3, 102 * 1e-3]
    assert all(a < b for a, b in zip(pts, pts[1:]))
    assert _sweep_grid(0.5, 0.5, 1e-3).tolist() == [0.5]


def _active_runs(points, kinds):
    """Reference: the (first, last) points of each run of Active kinds, one
    point at a time."""
    runs = []
    start = None
    for p, k in zip(points, kinds):
        if k == ACTIVE:
            if start is None:
                start = p
            prev = p
        elif start is not None:
            runs.append((start, prev))
            start = None
    if start is not None:
        runs.append((start, prev))
    return runs


def _run_ends(kinds):
    """Reference: the indices at both ends of every run of equal kind."""
    return [i for i, k in enumerate(kinds) if i in (0, len(kinds) - 1) or k != kinds[i - 1] or k != kinds[i + 1]]


def test_active_runs_merges_consecutive_points():
    runs, ends = _runs(np.array([True, True, False, True, True]))
    assert runs.tolist() == [[0, 1], [3, 4]]
    assert ends.tolist() == [0, 1, 2, 3, 4]
    assert _runs(np.array([False, False]))[0].tolist() == []
    assert _runs(np.array([True, True]))[0].tolist() == [[0, 1]]


def test_runs_match_the_point_by_point_reference():
    # Every boolean array of length 0-10, the empty one included: an outer
    # sweep can keep no rows.
    for n in range(11):
        for bits in range(1 << n):
            active = np.array([bool(bits >> i & 1) for i in range(n)], dtype=bool)
            kinds = [ACTIVE if a else INACTIVE for a in active]
            runs, ends = _runs(active)
            assert [tuple(r) for r in runs.tolist()] == _active_runs(range(n), kinds)
            assert ends.tolist() == _run_ends(kinds)


def test_sum_capacity_equalized(example1):
    res = sum_capacity(example1)
    assert sorted(res) == ["evidence", "solution", "status", "value"]
    assert res["status"] == EXACT
    assert res["value"] == RATE_1
    assert res["evidence"].verdict == ACTIVE_CLASS
    assert res["solution"].regime == EQUALIZED


def test_sum_capacity_bottleneck(bottleneck):
    res = sum_capacity(bottleneck)
    assert res["status"] == EXACT
    assert res["value"] == BOTTLENECK_RATE
    assert res["evidence"] == BOTTLENECK


def test_sum_capacity_upper_bound_only():
    # Equalized config whose scanned rule set is wholly inactive at this
    # resolution: the equalizer value is reported as an upper bound only.
    cfg = ChannelConfig(2, (0.13296300946643722, 0.665324700283616),
                        3.373340472290549, 1.0, 4.27015438111622)
    assert not bottleneck_check(cfg)
    res = sum_capacity(cfg, resolution=5e-3)
    assert res["status"] == UPPER_BOUND_ONLY
    assert res["evidence"].verdict == INACTIVE_CLASS
    assert res["value"] == solve_equalizer(cfg).sum_rate


def test_sampled_scan_classifies_its_lattice_after_the_draws():
    # No draw is Active here, so the scan classifies all SCAN_DRAWS draws and
    # then every lattice load total * i / 8 (the 495 compositions of 8 into
    # five parts all stay within the caps).
    cfg = ChannelConfig(
        5,
        (0.2270536711210418, 0.043630259084022655, 0.022102891705732267, 0.012669700688172988, 0.01331918342024507),
        2.338600283146414, 1.0, 8.343551536260373,
    )
    res = sum_capacity(cfg)
    assert res["status"] == UPPER_BOUND_ONLY
    assert res["value"] == 0.19576403012430424
    scan = res["evidence"]
    assert scan.verdict == INACTIVE_CLASS
    assert len(scan.samples) == SCAN_DRAWS + 495
    assert all(kind == INACTIVE for _, kind in scan.samples)
    rule_set = equalizing_set(cfg, res["solution"], "inner")
    lattice = compositions(5, 8) / 8 * rule_set.total
    tail = np.array([split.alpha for split, _ in scan.samples[SCAN_DRAWS:]])
    np.testing.assert_array_equal(tail, rule_set.clip_rows(rule_set.param(slice(None), lattice)))


def test_k_coefficients_live_in_bounds(example1):
    # sumcap re-exports the one definition; the equalizer and the bottleneck
    # test evaluate the two sum-bound forms at the root and at 0.
    assert k_coefficients is bounds.k_coefficients
    sol = solve_equalizer(example1)
    assert sol.sum_rate == awgn_capacity(bounds.relay_sum_snr(example1, sol.root))


def _reference_runs(config, sol, family, resolution):
    """Active runs from the intersection of each rule's bound_functions
    pair, one rule of the K=2 sweep at a time."""
    rows = equalizing_set(config, sol, family).sweep(resolution).tolist()
    if family == "inner":
        rules = [(p[0], DfPowerSplit(tuple(p), tuple(beta_star(config, p)))) for p in rows]
    else:
        rules = [(p[0], CorrelationVector(tuple(p))) for p in rows]
    points = [p for p, _ in rules]
    kinds = [intersection_max_sum(*bound_functions(config, rule)).kind for _, rule in rules]
    ends = [(points[i], kinds[i]) for i in _run_ends(kinds)]
    return _active_runs(points, kinds), ends


def test_dense_scan_matches_per_point_classification():
    configs = [cfg for cfg in random_equalized_configs(40, seed=31) if cfg.K == 2][:8]
    assert len(configs) == 8
    for cfg in configs:
        sol = solve_equalizer(cfg)
        for family in ("inner", "outer"):
            scan = scan_active_rules(cfg, sol, resolution=1e-3, family=family)
            runs, ends = _reference_runs(cfg, sol, family, 1e-3)
            assert scan.active_intervals["alpha1" if family == "inner" else "gamma1"] == runs
            first = lambda rule: rule.alpha[0] if family == "inner" else rule.gamma[0]
            assert [(first(rule), kind) for rule, kind in scan.samples] == ends


def test_partner_alpha_stays_in_the_unit_interval():
    # lambda_2 = 1e-8: the partner alpha_2 is feasible by construction, but
    # dividing by lambda_2 used to push it past 1 by rounding.
    cfg = ChannelConfig(2, (1e5, 1e-3), 4.0, 1.0, 1.0)
    res = sum_capacity(cfg)
    assert res["status"] == EXACT
    box = res["evidence"].feasible_box["alpha2"]
    assert 0.0 <= box[0] <= box[1] <= 1.0
    for split, _ in res["evidence"].samples:
        assert 0.0 <= split.alpha[1] <= 1.0


@pytest.mark.parametrize("family", ["inner", "outer"])
@pytest.mark.parametrize("P, P_r, N_delta", [
    ((37.91, 10.89, 0.01386, 0.2739), 0.3084, 9.918),
    ((0.03082, 0.04818, 7.249), 19.83, 9.325),
])
def test_sampled_scan_draws_feasible_splits_with_a_tiny_power(P, P_r, N_delta, family):
    # One normalised power is below 0.01, so Dirichlet draws over the whole
    # simplex were almost all infeasible (the outer scan kept 3 of 10,045 on
    # the K=4 config); draws built on the constraint slice keep every split
    # and find the Active rules.
    cfg = ChannelConfig(len(P), P, P_r, 1.0, N_delta)
    res = sum_capacity(cfg)
    lam = cfg.lam_vector()
    if family == "inner":
        scan = res["evidence"]
        assert scan.verdict == ACTIVE_CLASS
        assert res["status"] == EXACT
        c = res["solution"].constraint_value
        for split, _ in scan.samples:
            alpha = np.asarray(split.alpha)
            assert abs(float((lam * (1.0 - alpha)).sum()) - c) <= CONSTRAINT_TOL
    else:
        root = res["solution"].root
        scan = scan_active_rules(cfg, res["solution"], family="outer")
        for vec, _ in scan.samples:
            gamma = np.asarray(vec.gamma)
            assert gamma.min() >= 0.0 and gamma.max() <= 1.0 and gamma.sum() <= 1.0 + 1e-12
            assert abs(float(np.sqrt(lam * gamma).sum()) - root) <= CONSTRAINT_TOL * max(1.0, root)
    assert len(scan.samples) >= 64


def test_sampled_scan_stops_at_the_first_active_sample_after_64(example3):
    sol = solve_equalizer(example3)
    for family in ("inner", "outer"):
        scan = scan_active_rules(example3, sol, family=family)
        kinds = [kind for _, kind in scan.samples]
        assert ACTIVE in kinds
        assert len(kinds) == max(64, kinds.index(ACTIVE) + 1)
        assert kinds == [intersection_max_sum(*bound_functions(example3, rule)).kind for rule, _ in scan.samples]


def test_scan_samples_equal_checked_objects(example1, example3):
    # The scans build their sample objects without the constructors' checks;
    # each equals the object its constructor builds from the same fields.
    for config in (example1, example3):
        sol = solve_equalizer(config)
        for family in ("inner", "outer"):
            for rule, _ in scan_active_rules(config, sol, family=family).samples:
                cls = type(rule)
                assert cls in (DfPowerSplit, CorrelationVector)
                fields = (rule.alpha, rule.beta) if cls is DfPowerSplit else (rule.gamma,)
                assert all(type(x) is float for field in fields for x in field)
                assert cls(*fields) == rule


# The K=2 sweep rows of example 1 at resolution 1e-5 and their
# intersection_rows (value, argmin, active) arrays, per family.
FROZEN_SWEEP_DIGESTS = {
    "inner": "bc24f3b99a2e5bf71151320f82e408e3a956a23b00744dc57abc17f9f863db9f",
    "outer": "878e872716eeed31f248c00bd7168b1e62fd38e1af61e5917433e69fa3eb1128",
}


def test_sweep_verdict_bits_are_frozen(example1):
    solution = solve_equalizer(example1)
    for family, expect in FROZEN_SWEEP_DIGESTS.items():
        rows = equalizing_set(example1, solution, family).sweep(1e-5)
        assert sha256_of(rows, *intersection_rows(*family_tables(example1, family, rows))) == expect, family
