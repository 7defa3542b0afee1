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
from marc_cap import bounds, sumcap
from marc_cap.polymatroid import INACTIVE, SubsetFunction, certify, intersection_max_sum, intersection_rows
from marc_cap.sumcap import (
    ACTIVE,
    ACTIVE_CLASS,
    BOTTLENECK,
    EQUALIZED,
    EXACT,
    INACTIVE_CLASS,
    MAX_SWEEP_POINTS,
    _runs,
    _sweep_grid,
    bottleneck_check,
    equalizing_set,
    k_coefficients,
)
from marc_cap.bounds import CorrelationVector, DfPowerSplit, beta_star, bound_functions, family_tables
from marc_cap.sumcap import CONSTRAINT_TOL
from conftest import random_config, sha256_of

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


# Valid and Equalized, but K_3 = 7.4e7 cancels to a relay sum SNR of 1.24 at
# the root, and one ulp of K_3 is 1.5e-8: the equalizer's fixed 1e-8-bit gap
# check raised on rounding.
HIGH_SNR = ChannelConfig(2, (1316549.961301616, 72627520.47426227), 112876.48408104481, 1.0, 64225742.78875685)


def test_equalizer_gap_allows_the_rounding_of_a_cancelled_sum_snr():
    k3 = k_coefficients(HIGH_SNR)[3]
    assert math.ulp(k3) > 1e-8
    sol = solve_equalizer(HIGH_SNR)
    assert sol.regime == EQUALIZED
    assert abs(equalizer_gap(HIGH_SNR, sol.root)) <= 8.0 * math.ulp(k3)
    res = sum_capacity(HIGH_SNR)
    assert res["status"] == EXACT and res["value"] == sol.sum_rate


def test_sum_capacity_solves_every_draw_over_24_decades():
    # The relay sum SNR K_3 - root^2 K_0 cancels below 0 on 21 of these
    # draws, and taking the sum rate from it raised ValueError: negative
    # SNR argument; the destination side K_2 + 2 K_1 root does not cancel.
    rng = np.random.default_rng(2930)
    for _ in range(2000):
        cfg = random_config(rng, K=2, lo=1e-12, hi=1e12)
        assert sum_capacity(cfg, resolution=1e-3)["value"] >= 0.0, cfg


@pytest.mark.parametrize("name", ["example1", "high_snr"])
def test_equalizer_gap_beyond_rounding_raises(monkeypatch, example1, name):
    # A relay sum SNR off by 1e-6 is a mismatch, not rounding, at either scale.
    config = {"example1": example1, "high_snr": HIGH_SNR}[name]
    monkeypatch.setattr(sumcap, "relay_sum_snr", lambda c, x: bounds.relay_sum_snr(c, x) + 1e-6)
    with pytest.raises(RuntimeError, match="^equalizer gap -"):
        solve_equalizer(config)


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


def test_inner_equalizing_set_accepts_equalizing_alpha(example1):
    # The inner rule: sum_k lambda_k (1 - alpha_k) = c.
    sol = solve_equalizer(example1)
    equalizing_set(example1, sol, "inner").check(np.array((0.9, 0.9)))


def test_inner_equalizing_set_rejects_violating_alpha(example1):
    sol = solve_equalizer(example1)
    with pytest.raises(DomainError, match="equalizer constraint violated"):
        equalizing_set(example1, sol, "inner").check(np.array((0.8, 0.9)))


def test_outer_equalizing_set_square_root_form(example1):
    # The correlation budget is linear in the root, not in its square:
    # sum of sqrt(lam_k * gamma_k) must hit the root.
    sol = solve_equalizer(example1)
    c = sol.constraint_value
    rule = equalizing_set(example1, sol, "outer")
    rule.check(np.array((c / 4.0, 3.0 * c / 8.0)))
    # Putting the whole budget on the max-power user also works.
    rule.check(np.array((c, 0.0)))
    # A gamma with sum(lam*gamma) = c but the wrong sqrt-sum must fail.
    with pytest.raises(DomainError, match="equalizer constraint violated"):
        rule.check(np.array((c / 2.0, 3.0 * c / 4.0)))


def test_outer_equalizing_set_wrong_length(example1):
    sol = solve_equalizer(example1)
    with pytest.raises(DomainError, match="expected 2"):
        equalizing_set(example1, sol, "outer").check(np.array((0.1, 0.1, 0.1)))


def test_classify_equalizing_rules_tie(example1):
    # Any rule satisfying the equalizer makes both full cuts equal, so the
    # two-user case is the tie "3b" and the value is the max-min rate.
    sol = solve_equalizer(example1)
    split = DfPowerSplit((0.9, 0.9), tuple(beta_star(example1, (0.9, 0.9))))
    out = intersection_max_sum(*bound_functions(example1, split))
    assert out.kind == ACTIVE
    assert out.two_user_case == "3b"
    assert out.max_sum_rate == RATE_1
    c = sol.constraint_value
    gamma = CorrelationVector((c / 4.0, 3.0 * c / 8.0))
    outer = intersection_max_sum(*bound_functions(example1, gamma))
    assert outer.kind == ACTIVE
    assert outer.max_sum_rate == pytest.approx(RATE_1, rel=1e-12)


def test_classify_example2_on_and_off_interval(example2):
    sol = solve_equalizer(example2)
    lam = example2.lam

    def partner(a1):
        return 1.0 - (sol.constraint_value - lam[0] * (1.0 - a1)) / lam[1]

    def classify(a1):
        alpha = np.array((a1, partner(a1)))
        equalizing_set(example2, sol, "inner").check(alpha)
        return intersection_max_sum(*bound_functions(example2, DfPowerSplit(tuple(alpha), tuple(beta_star(example2, alpha)))))

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


def test_scan_three_user_takes_the_uniform_split(example3):
    sol = solve_equalizer(example3)
    assert sol.regime == EQUALIZED
    scan = scan_active_rules(example3, sol)
    assert scan.verdict == ACTIVE_CLASS
    assert scan.active_intervals is None
    assert scan.feasible_box is None
    assert scan.resolution == 0.0
    # The inner verdict is the uniform split's, the one sample.
    ((split, kind),) = scan.samples
    assert kind == ACTIVE
    assert split.alpha == tuple(uniform_split(example3, sol)[0].tolist())


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


def test_active_runs_merges_consecutive_points():
    assert _runs(np.array([True, True, False, True, True])).tolist() == [[0, 1], [3, 4]]
    assert _runs(np.array([False, False])).tolist() == []
    assert _runs(np.array([True, True])).tolist() == [[0, 1]]


def test_runs_match_the_point_by_point_reference():
    # Every boolean array of length 0-10, the empty one included: an outer
    # sweep can keep no rows.
    for n in range(11):
        for bits in range(1 << n):
            active = np.array([bool(bits >> i & 1) for i in range(n)], dtype=bool)
            kinds = [ACTIVE if a else INACTIVE for a in active]
            assert [tuple(r) for r in _runs(active).tolist()] == _active_runs(range(n), kinds)


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


def test_sum_capacity_exact_where_the_sweep_misses_the_active_run():
    # Equalized config whose Active rules lie between two grid points at
    # this resolution: the sweep classifies every grid point Inactive, and
    # the uniform split, the one sample, decides as the one-point run [a, a]
    # of both coordinates.
    cfg = two_user_config("inner_run_between_points")
    assert not bottleneck_check(cfg)
    res = sum_capacity(cfg, resolution=5e-3)
    assert res["status"] == EXACT
    assert res["value"] == solve_equalizer(cfg).sum_rate
    assert sweep_kinds(cfg, res["solution"], "inner", 5e-3) == [INACTIVE, INACTIVE]
    scan = res["evidence"]
    assert scan.verdict == ACTIVE_CLASS
    ((split, kind),) = scan.samples
    a = 0.9998863201736844
    assert (split.alpha, kind) == ((a, a), ACTIVE)
    assert scan.active_intervals == {"alpha1": [(a, a)], "alpha2": [(a, a)]}


def test_k5_sampler_miss_is_exact_by_the_uniform_split():
    # No sampled power split was Active here, so the sampler that once gave
    # sum_capacity's verdict reported UpperBoundOnly; the uniform split is
    # Active, so the status is Exact.
    cfg = ChannelConfig(
        5,
        (0.2270536711210418, 0.043630259084022655, 0.022102891705732267, 0.012669700688172988, 0.01331918342024507),
        2.338600283146414, 1.0, 8.343551536260373,
    )
    res = sum_capacity(cfg)
    assert res["status"] == EXACT
    assert res["value"] == 0.19576403012430424
    ((split, kind),) = res["evidence"].samples
    assert (split.alpha, kind) == ((0.9780609484837861,) * 5, ACTIVE)
    assert res["evidence"].verdict == ACTIVE_CLASS


def test_k_coefficients_live_in_bounds(example1):
    # sumcap re-exports the one definition; the equalizer and the bottleneck
    # test evaluate the two sum-bound forms at the root and at 0.
    assert k_coefficients is bounds.k_coefficients
    sol = solve_equalizer(example1)
    assert sol.sum_rate == awgn_capacity(bounds.relay_sum_snr(example1, sol.root))


def sweep_kinds(config, solution, family, resolution):
    """The kinds of a K=2 sweep's grid points, from their tables."""
    rows = equalizing_set(config, solution, family).sweep(resolution)
    return np.where(intersection_rows(*family_tables(config, family, rows))[2], ACTIVE, INACTIVE).tolist()


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
    return _active_runs(points, kinds)


def test_dense_scan_matches_per_point_classification():
    configs = [cfg for cfg in random_equalized_configs(40, seed=31) if cfg.K == 2][:8]
    assert len(configs) == 8
    for cfg in configs:
        sol = solve_equalizer(cfg)
        for family in ("inner", "outer"):
            scan = scan_active_rules(cfg, sol, resolution=1e-3, family=family)
            runs = _reference_runs(cfg, sol, family, 1e-3)
            assert scan.active_intervals["alpha1" if family == "inner" else "gamma1"] == runs
            assert len(scan.samples) == 1


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
    # simplex were almost all infeasible (the outer scan once kept 3 of
    # 10,045 on the K=4 config). Either family's verdict is now its witness,
    # one feasible Active rule on the constraint.
    cfg = ChannelConfig(len(P), P, P_r, 1.0, N_delta)
    res = sum_capacity(cfg)
    assert res["status"] == EXACT
    lam = cfg.lam_vector()
    scan = res["evidence"] if family == "inner" else scan_active_rules(cfg, res["solution"], family="outer")
    assert scan.verdict == ACTIVE_CLASS
    ((rule, kind),) = scan.samples
    assert kind == ACTIVE
    if family == "inner":
        alpha = np.asarray(rule.alpha)
        assert abs(float((lam * (1.0 - alpha)).sum()) - res["solution"].constraint_value) <= CONSTRAINT_TOL
    else:
        root = res["solution"].root
        gamma = np.asarray(rule.gamma)
        assert gamma.min() >= 0.0 and gamma.max() <= 1.0 and gamma.sum() <= 1.0 + 1e-12
        assert abs(float(np.sqrt(lam * gamma).sum()) - root) <= CONSTRAINT_TOL * max(1.0, root)


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


# Configs that defeated the retired sampled scans: example 3; the K=5
# UpperBoundOnly config above; two K=6 configs where the outer filter kept
# 37 of 10,000 draws and where about 1 in 3,000 inner draws is Active;
# perfbench's two scan-fault configs; and four configs, from a seeded
# random search, whose first Active draw came after the first 64.
SCAN_CONFIGS = {
    "example3": ((6.0, 4.0, 2.0), 5.0, 1.5),
    "k5_upper_bound_only": (
        (0.2270536711210418, 0.043630259084022655, 0.022102891705732267, 0.012669700688172988, 0.01331918342024507),
        2.338600283146414, 8.343551536260373,
    ),
    "k6_outer_filter": ((32.59, 47.76, 0.2162, 0.3431, 0.05502, 15.59), 0.2369, 8.805),
    "k6_rare_active": ((0.04310, 0.1161, 0.1380, 0.04367, 0.1247, 0.1021), 3.884, 7.585),
    "k4_scan_fault": ((37.91, 10.89, 0.01386, 0.2739), 0.3084, 9.918),
    "k3_scan_fault": ((0.03082, 0.04818, 7.249), 19.83, 9.325),
    "k3_late_active": ((0.1512015474988098, 0.012249467124824533, 0.044915837316085595),
                       0.18072042106446862, 2.1112296776464436),
    "k4_late_active": ((0.18540179382843314, 10.550014776334981, 0.2970194661965018, 7.971096720521383),
                       0.10740866657553265, 9.969562704015056),
    "k5_late_active": (
        (0.12226405906509488, 0.43698532005029567, 0.09269437296524924, 0.014883699213052111, 0.011526225835187904),
        0.3696359335917249, 5.27867670806082,
    ),
    "k6_late_active": (
        (0.12595447617058553, 0.03228501683952108, 1.0269247784994728, 14.908970951692107, 0.027849259888680214,
         0.058323152850000295),
        0.17439022862899997, 9.431381100836159,
    ),
}

def scan_config(name):
    P, P_r, N_delta = SCAN_CONFIGS[name]
    return ChannelConfig(len(P), P, P_r, 1.0, N_delta)


@pytest.mark.parametrize("name", sorted(SCAN_CONFIGS))
def test_sampled_scan_bits_are_frozen(name):
    # Per config, the digest of each scan's verdict, kinds (Active as True)
    # and the float64 fields of every sample. Each scan is its family's
    # witness, so the digests are those of the witness tables below.
    config = scan_config(name)
    solution = solve_equalizer(config)
    expected = (FROZEN_WITNESS_DIGESTS[name], FROZEN_CORRELATION_WITNESS_DIGESTS[name])
    for family, expect in zip(("inner", "outer"), expected):
        scan = scan_active_rules(config, solution, family=family)
        kinds = np.array([kind == ACTIVE for _, kind in scan.samples])
        fields = [(*rule.alpha, *rule.beta) if family == "inner" else rule.gamma for rule, _ in scan.samples]
        verdict = np.frombuffer(scan.verdict.encode(), dtype=np.uint8)
        assert sha256_of(verdict, kinds, np.array(fields, dtype=np.float64)) == expect, family


@pytest.mark.parametrize("name, family, expect", [
    ("example3", "inner", 1),  # the uniform split, one row
    ("example3", "outer", 1),  # the sampler classified 64 rows here
    ("k4_scan_fault", "outer", 1),  # the sampler drew 18 chunks to keep 64 rows
    ("k5_upper_bound_only", "inner", 1),  # the sampler classified 10,495 rows here, in 14 batches
])
def test_witness_scan_classifies_one_row(monkeypatch, name, family, expect):
    # The batches are gone: each scan classifies its witness, one row.
    sizes = []

    def counted(config, family, rows, *args):
        sizes.append(len(rows))
        return family_tables(config, family, rows, *args)

    monkeypatch.setattr(sumcap, "family_tables", counted)
    config = scan_config(name)
    scan = scan_active_rules(config, solve_equalizer(config), family=family)
    assert sizes == [1] * expect and len(scan.samples) == 1


def uniform_split(config, solution):
    """The uniform power split alpha_k = 1 - c / sum(lambda) as one row."""
    a = 1.0 - solution.constraint_value / config.lam_vector().sum()
    return np.full((1, config.K), a)


def witness_draws():
    """The seeded draws of the witness property tests (K=2..6, powers over
    eight decades), each Equalized one with its solution."""
    rng = np.random.default_rng(5)
    for _ in range(3000):
        K = int(rng.integers(2, 7))
        P = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), K))
        P_r, N_delta = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 2))
        cfg = ChannelConfig(K, tuple(P.tolist()), float(P_r), 1.0, float(N_delta))
        if not bottleneck_check(cfg):
            yield cfg, solve_equalizer(cfg)


def test_uniform_split_tables_agree_and_classify_active():
    # With the uniform split, beta_star gives beta_k = P_k / P(K) and both
    # decode-and-forward tables become C(a P(S) / N_r): one concave function
    # of a modular one, so the intersection is Active with max sum C*.
    # Per entry the two agree to a relative 4e-10 on tiny subsets, and to
    # 4.2e-13 of C* at worst on these draws.
    draws = list(witness_draws())
    assert len(draws) == 2357
    for cfg, sol in draws:
        dest, relay = family_tables(cfg, "inner", uniform_split(cfg, sol))
        assert np.abs(dest - relay).max() <= 1e-12 * sol.sum_rate
        assert intersection_rows(dest, relay)[2][0]
        if cfg.K > 2:
            # The inner scan returns this split, Active, as its one sample.
            ((split, kind),) = scan_active_rules(cfg, sol).samples
            assert (split.alpha, kind) == (tuple(uniform_split(cfg, sol)[0].tolist()), ACTIVE)


def correlation_witness(config, solution):
    """The correlations gamma_k = (root / sum(lambda))^2 lambda_k as one row."""
    lam = config.lam_vector()
    share = solution.root / lam.sum()
    return (share**2 * lam)[None]


def test_correlation_witness_certifies_and_classifies_active():
    # The witness's loads sqrt(lambda_k gamma_k) are root * lambda_k /
    # sum(lambda), in proportion to lambda as the uniform split's are. Both
    # cutset tables are then concave functions of P(S), so both certify;
    # each entry is at least the uniform split's matching DF entry, and both
    # full sums are C*, so the pair is Active with max sum C*. Worst on
    # these draws: 4.4e-13 of C* for the value, 4.3e-13 for the dominance.
    draws = list(witness_draws())
    assert len(draws) == 2357
    for cfg, sol in draws:
        row = correlation_witness(cfg, sol)
        equalizing_set(cfg, sol, "outer").check(row[0])
        dest, relay = family_tables(cfg, "outer", row)
        for table in (dest, relay):
            cert = certify(SubsetFunction(cfg.K, table[0]))
            assert cert.submodular and cert.monotone, cert.witness
        value, _, active = intersection_rows(dest, relay)
        assert active[0]
        assert abs(value[0] - sol.sum_rate) <= 1e-12 * sol.sum_rate
        df_dest, df_relay = family_tables(cfg, "inner", uniform_split(cfg, sol))
        assert (df_dest - dest).max() <= 1e-12 * sol.sum_rate
        assert (df_relay - relay).max() <= 1e-12 * sol.sum_rate


@pytest.mark.parametrize("P", [(1.0, 1.0, 1e-12), (5.0, 3.0, 1e-300)])
def test_correlation_witness_with_a_vanishing_power_is_active(P):
    cfg = ChannelConfig(3, P, 4.0, 1.0, 3.0)
    sol = solve_equalizer(cfg)
    row = correlation_witness(cfg, sol)
    equalizing_set(cfg, sol, "outer").check(row[0])
    value, _, active = intersection_rows(*family_tables(cfg, "outer", row))
    assert active.tolist() == [True]
    assert abs(value[0] - sol.sum_rate) <= 1e-12 * sol.sum_rate
    ((vec, kind),) = scan_active_rules(cfg, sol, family="outer").samples
    assert (vec.gamma, kind) == (tuple(row[0].tolist()), ACTIVE)


@pytest.mark.parametrize("P", [(1.0, 1.0, 1e-12), (5.0, 3.0, 1e-300)])
def test_uniform_split_with_a_vanishing_power_is_active(P):
    # The witness's smallest mixed slack tends to 0 with one source's power;
    # TIE_TOL absorbs the rounding, and the label still comes from the tables.
    cfg = ChannelConfig(3, P, 4.0, 1.0, 3.0)
    res = sum_capacity(cfg)
    assert res["status"] == EXACT
    row = uniform_split(cfg, res["solution"])
    equalizing_set(cfg, res["solution"], "inner").check(row[0])
    assert intersection_rows(*family_tables(cfg, "inner", row))[2].tolist() == [True]
    ((split, kind),) = res["evidence"].samples
    assert (split.alpha, kind) == (tuple(row[0].tolist()), ACTIVE)


# Per scan config, the digest of the uniform-split witness's verdict, kind
# (Active as True) and float64 fields (alpha, then beta_star), laid out as
# test_sampled_scan_bits_are_frozen hashes a scan.
FROZEN_WITNESS_DIGESTS = {
    "example3": "415b366fbfceab67eeb7e558c29707fbf7b6bcebe9a3c006e343d4bcc079da06",
    "k5_upper_bound_only": "278a16512f99ae05e4f283efcb037f133bb9c1506c11ce1c49c128b4b4034062",
    "k6_outer_filter": "4e4e18f1b7016e1f12d0938ca5a490c26ddedeab04db1f4cc485378e360451fa",
    "k6_rare_active": "da741b9739f5b543b2297beae23fd37361123457f996b16db4fa5c24d536d74d",
    "k4_scan_fault": "b5292de0179a9c291b1a19b6dfc2953d63a2e167924ddfd65401321de86601b4",
    "k3_scan_fault": "0b9afe0033bd22a6975dc6c6ed3cb64644c177c67eeeb340c0409928d5924ba9",
    "k3_late_active": "19cd4999086437f6ea5cb33ec23c5607b7a76307ac64f3089295cca93051e989",
    "k4_late_active": "9067550e828740b2618a074b2ac7280455704ed67225578248250d6516cf50a1",
    "k5_late_active": "409eab79f844166a5116188e4ae1a73dbb9ca849d16f830472b9384fc8fa66a3",
    "k6_late_active": "48e791d4cd2e1177f3746380131b56c215e1a0a1c67e9fb825d4b8b00267242f",
}


@pytest.mark.parametrize("name", sorted(SCAN_CONFIGS))
def test_uniform_split_witness_bits_are_frozen(name):
    config = scan_config(name)
    row = uniform_split(config, solve_equalizer(config))
    active = intersection_rows(*family_tables(config, "inner", row))[2]
    verdict = np.frombuffer((ACTIVE_CLASS if active.all() else INACTIVE_CLASS).encode(), dtype=np.uint8)
    assert sha256_of(verdict, active, np.hstack([row, beta_star(config, row)])) == FROZEN_WITNESS_DIGESTS[name]


@pytest.mark.parametrize("resolution", [1e-3, 1e-5])
def test_two_user_sweep_without_an_active_point_takes_the_uniform_split(resolution):
    # The feasible alpha1 interval is 1.8e-6 wide, so at either resolution
    # the sweep classifies its two ends only, both Inactive, and the uniform
    # split inside it, the one sample, decides as the one-point run [a, a].
    cfg = two_user_config("inner_narrow_box")
    res = sum_capacity(cfg, resolution=resolution)
    assert res["status"] == EXACT
    assert sweep_kinds(cfg, res["solution"], "inner", resolution) == [INACTIVE, INACTIVE]
    scan = res["evidence"]
    assert scan.verdict == ACTIVE_CLASS
    ((split, kind),) = scan.samples
    a = 0.9999982569895003
    assert (split.alpha, kind) == ((a, a), ACTIVE)
    assert scan.active_intervals == {"alpha1": [(a, a)], "alpha2": [(a, a)]}
    lo, hi = scan.feasible_box["alpha1"]
    assert lo < a < hi


# Per scan config, the digest of the correlation witness's verdict, kind
# (Active as True) and float64 gamma, laid out as
# test_sampled_scan_bits_are_frozen hashes a scan.
FROZEN_CORRELATION_WITNESS_DIGESTS = {
    "example3": "e4a745f1c2a071475c8dd61dc6df695a3152591116ccdbd4ea0d2170244872ee",
    "k5_upper_bound_only": "6b24168ee179fb321a124fd6486d060d839110f9eaad100093fd93595ec830fa",
    "k6_outer_filter": "7d4b34598c2b010c47028a13c988e95e99da5a03a597e1ce42e36506eff5ea8d",
    "k6_rare_active": "af77fd29c4fffae0b39888cd5fe887585ea50000d70dab42e912bfae7144f36e",
    "k4_scan_fault": "68d5ea4337c053f0e8d24175f4634a12806e3ce7065a541aaf9240f6e360bd58",
    "k3_scan_fault": "e2deca298b12bcef7fc6f916508a6dae02e55c3aa3cb41b33a389e5eecdce5df",
    "k3_late_active": "c89898ec1e4daa10b26aa5d935e9c1c36394ee94158fcce23ff4ceec838b7037",
    "k4_late_active": "d4a815a85a3fe695be02a9a195b15f32f034ddf0798872ac3c5988b89a4a9a43",
    "k5_late_active": "ca7d18e5c57a9b051140c309013cfef1c5f3809989300f18318b29c1f53fe420",
    "k6_late_active": "27e2a639c50e73d6308164b4b8cb479dbf790d9aadbf23ce11d475bf2df9b0e7",
}


@pytest.mark.parametrize("name", sorted(SCAN_CONFIGS))
def test_correlation_witness_bits_are_frozen(name):
    config = scan_config(name)
    row = correlation_witness(config, solve_equalizer(config))
    active = intersection_rows(*family_tables(config, "outer", row))[2]
    verdict = np.frombuffer((ACTIVE_CLASS if active.all() else INACTIVE_CLASS).encode(), dtype=np.uint8)
    assert sha256_of(verdict, active, row) == FROZEN_CORRELATION_WITNESS_DIGESTS[name]


def test_two_user_outer_sweep_without_an_active_point_takes_the_correlation_witness():
    # At 1e-3 the sweep's points all miss the Active run [9e-05, 0.00042]
    # of gamma1, so the witness inside it decides, as the one-point run.
    cfg = two_user_config("outer_run_between_points")
    sol = solve_equalizer(cfg)
    g1, g2 = 0.0002026210543035322, 0.9581534115137799
    assert sweep_kinds(cfg, sol, "outer", 1e-3) == [INACTIVE] * 48
    scan = scan_active_rules(cfg, sol, resolution=1e-3, family="outer")
    assert scan.verdict == ACTIVE_CLASS
    assert [(vec.gamma, kind) for vec, kind in scan.samples] == [((g1, g2), ACTIVE)]
    assert scan.active_intervals == {"gamma1": [(g1, g1)], "gamma2": [(g2, g2)]}
    assert (g1, g2) == tuple(correlation_witness(cfg, sol)[0].tolist())
    # At 1e-5 the sweep finds the run, which contains the witness, and
    # reports it bit for bit as before; the witness is still the one sample.
    scan = scan_active_rules(cfg, sol, resolution=1e-5, family="outer")
    assert scan.verdict == ACTIVE_CLASS
    assert scan.active_intervals == {"gamma1": [(9e-05, 0.00042)], "gamma2": [(0.9579752209328806, 0.9582885776981943)]}
    assert 9e-05 < g1 < 0.00042
    assert [(vec.gamma, kind) for vec, kind in scan.samples] == [((g1, g2), ACTIVE)]


# The K=2 configs whose scan reports are frozen: the two worked examples and
# the three configs above whose sweeps can miss the Active run.
TWO_USER_CONFIGS = {
    "example1": ((6.0, 4.0), 4.0, 1.0),
    "example2": ((6.0, 0.4), 4.0, 1.0),
    "inner_run_between_points": ((0.13296300946643722, 0.665324700283616), 3.373340472290549, 4.27015438111622),
    "inner_narrow_box": ((0.2140153465175589, 0.011944506523696795), 0.18903472952110514, 0.8390037741230447),
    "outer_run_between_points": ((0.011432602965413334, 54.06243478223962), 0.022044647785174485, 23.9721621086347),
}


def two_user_config(name):
    P, P_r, N_delta = TWO_USER_CONFIGS[name]
    return ChannelConfig(2, P, P_r, 1.0, N_delta)


def scan_report_digest(scan):
    """SHA-256 of a K=2 scan's verdict, resolution, and per coordinate its
    name, feasible box (empty when the sweep keeps no rows) and Active runs."""
    parts = [np.frombuffer(scan.verdict.encode(), dtype=np.uint8), np.float64(scan.resolution)]
    for name in sorted(scan.active_intervals):
        box = scan.feasible_box[name] if scan.feasible_box else ()
        runs = np.array(scan.active_intervals[name], dtype=np.float64).reshape(-1, 2)
        parts += [np.frombuffer(name.encode(), dtype=np.uint8), np.array(box, dtype=np.float64), runs]
    return sha256_of(*parts)


# Per config, family and resolution, the scan_report_digest of the K=2 scan.
# Eight of these sweeps find no Active point and report the witness's
# one-point run: the inner ones of the first two fallback configs at 1e-3
# and 5e-3 (and the narrow box's at 1e-5 and 1e-6), the outer one of the
# third at 1e-3 and 5e-3. At 1e-6 example 2's 38,922-point sweeps hold both
# Active and Inactive points in either family.
FROZEN_TWO_USER_SCAN_DIGESTS = {
    "example1": {
        ("inner", 0.001): "12195f6f02d6bf688d51d1b05db3e63e7f10b66c62645febb4a78bf5836d4851",
        ("inner", 0.005): "1678a3e042f242db95879961bfb72ed26ce64ffd17924b003a482414cdc79f7d",
        ("inner", 1e-05): "785a843b9e6a92a0c90cf6e24fb9cba929a42fed9967c34ef0ab824f56e1e30f",
        ("inner", 1e-06): "33aa9d021c105b645f7f98466d3167b9232eed9dc27ed53543bcbdcfb51027fb",
        ("outer", 0.001): "841b539790b61e9f534c302f58d472180e08b40c261ab79f4222a6af4fdf3e6c",
        ("outer", 0.005): "eca8c3f8de6b45caa1064b4607fe79ed1f54783f6bb05ee6a16e9495de62e9ed",
        ("outer", 1e-05): "da2b84873b856d9be8ec8933012238295c37f5d43a018a2e68f25333b6e832cf",
        ("outer", 1e-06): "71219674b86d24c2124752987108c0b56a47e03ee32f2663735e9f0c5f432232",
    },
    "example2": {
        ("inner", 0.001): "35f62d44a40d4019797fcf8f268ee797a00dae1be2f5091687d004874ecbdb6f",
        ("inner", 0.005): "215e328cecc1adfc328ed21ef9e0360e82d78b58eee3ba4991b896ee4bf3a87e",
        ("inner", 1e-05): "d5792804d0b8c81f7b0a97d3b787dac7c2e6e99aa1e84fde92c7e19ffcbbae3c",
        ("inner", 1e-06): "8562bb822801f98724ad5117b9ae0b48cf2f8b00f0a9fb142bed3bd564bf99b7",
        ("outer", 0.001): "5e101b2002973fe9b1fb898221b28ef2bae4591bcf45ed675f285dd05d35b0fa",
        ("outer", 0.005): "4279f52d45c0aee3797a741dcea138d3be9f44dfb4db374fab765b71acb2391e",
        ("outer", 1e-05): "c79169707340f4f6bc9ab93c4bc671fe17eb742dc87db24ac52f7bfb5e09c967",
        ("outer", 1e-06): "a476c965404a1bc0b1bfb80d0188419da0f4e9fcc524490ef19b6cc79bdb88c6",
    },
    "inner_run_between_points": {
        ("inner", 0.001): "09433a1e2d30aeb9f96e29e80d48d651ebe3223e2c092a04fe8d2df9a4fef539",
        ("inner", 0.005): "ecdcf81b2343cdacc344a83e5233ea696aee77bd7f27a19041e8ce6af0a58a79",
        ("inner", 1e-05): "d0d11afa61b2d29ba7758ff8c1592f2c4e0eb67c7bbba8f7f8bd80a1af15b3c1",
        ("inner", 1e-06): "575a6740bee6ec8a240030b85280faa8563be8dedc64cfa5a25e6ce81816d8a9",
        ("outer", 0.001): "8745cf21e975ffa74ac87e474ec611bc323a604dbee0aeee57307c8ed6a4ae94",
        ("outer", 0.005): "a024a861d6ce6107328364409749de9f3998d2ed8e63fae18a3744c8195acac1",
        ("outer", 1e-05): "13695af7ea45913dd6897ef768ffcf38c0787176ce6e78acd2c826ba6ba56083",
        ("outer", 1e-06): "ed4a03325d10b54645be3f508615e62f86607aa25abd2eaa1180a12f1d7babce",
    },
    "inner_narrow_box": {
        ("inner", 0.001): "6e5bd39041f1f71b30c6b972eba1912eabab8d0ba6dbf2447a921bd6eb48e711",
        ("inner", 0.005): "c1a66352cb9c5ae9c7020e9e0d4e41223e299e73dbc57084cccdb9a45d1f760d",
        ("inner", 1e-05): "1be9decb521df91472514133b625bcaad645a54ef43a49fd263d1613a09f2315",
        ("inner", 1e-06): "c0b1585da71ad00b800ae790afaa7a9a19091faed13fc4aba828ba369da5d32d",
        ("outer", 0.001): "a46885652a308f362ba0cd2dce8f5d782de080617ccd5522adf4c6412fc7efeb",
        ("outer", 0.005): "cd5a36a46e6beb61109b59d1dd0271d138033126a0bcc7d6208567d52867abb7",
        ("outer", 1e-05): "113699fb4467ded8792be4da537ea6ea38115d7187ebdcbcd19a8a5b95ac1462",
        ("outer", 1e-06): "31138f4d281a06e1c79b265109bd943d49e487d5f503f92217b2a727022937b2",
    },
    "outer_run_between_points": {
        ("inner", 0.001): "08c8bf4be620407aa0b8c650783fd13cead448aee763bb807351fd552c358790",
        ("inner", 0.005): "71ec18b40d4e84acbd838f1123864b529827f1096d5a1a696fd1b6fc21831290",
        ("inner", 1e-05): "12e9ade855a3af63260e32f779710e1a2088954972239f007d2ad86008c7442f",
        ("inner", 1e-06): "dec1aa1e9c55a9d7a92727d69a8e28ab69168ed2f16a49a9e818bc90e53669d9",
        ("outer", 0.001): "d702cbb52ca522e6ad392499ab4fe784aaf3dd2365486d865d55bc439b53b7ce",
        ("outer", 0.005): "be3227fd867e6c6f3f3799216c4130967a1ef14444bc13ac2a18c79b1b7a8690",
        ("outer", 1e-05): "78084083a7622a0447af28a90954881589491ad5ae1b63c4c563fade6ebcdc7b",
        ("outer", 1e-06): "ee2affddb372ead3ab4821e02f0ba5c264be42dc1b2e40c958ca3555130b0ea4",
    },
}


@pytest.mark.parametrize("name", sorted(TWO_USER_CONFIGS))
def test_two_user_scan_reports_are_frozen(name):
    config = two_user_config(name)
    solution = solve_equalizer(config)
    got = {
        (family, resolution): scan_report_digest(scan_active_rules(config, solution, resolution, family))
        for family in ("inner", "outer")
        for resolution in (1e-3, 5e-3, 1e-5, 1e-6)
    }
    assert got == FROZEN_TWO_USER_SCAN_DIGESTS[name]


def test_every_scan_returns_its_witness_as_its_one_sample():
    # K=1 to 6 (example 3 among the K>2 configs), both families; the K=2
    # sweeps either find runs or fall back. Each scan's one sample is its
    # witness, the uniform split or the correlations in proportion to
    # lambda, labelled Active as its own pair classifies it.
    configs = [ChannelConfig(1, (5.0,), 4.0, 1.0, 3.0)]
    configs += [two_user_config(name) for name in TWO_USER_CONFIGS] + [scan_config(name) for name in SCAN_CONFIGS]
    assert sorted({cfg.K for cfg in configs}) == [1, 2, 3, 4, 5, 6]
    for cfg in configs:
        sol = solve_equalizer(cfg)
        assert sol.regime == EQUALIZED
        alpha, gamma = uniform_split(cfg, sol), correlation_witness(cfg, sol)
        expected = {"inner": (alpha, beta_star(cfg, alpha)), "outer": (gamma,)}
        for family, rows in expected.items():
            for resolution in (1e-3, 5e-3):
                scan = scan_active_rules(cfg, sol, resolution, family)
                assert scan.verdict == ACTIVE_CLASS
                ((rule, kind),) = scan.samples
                fields = (rule.alpha, rule.beta) if family == "inner" else (rule.gamma,)
                assert [np.array(f).tobytes() for f in fields] == [row[0].tobytes() for row in rows]
                assert kind == intersection_max_sum(*bound_functions(cfg, rule)).kind == ACTIVE


# A config whose relay sum SNR cancels to a few digits at the root, so its
# printed sum rate loses them; with HIGH_SNR above, a sweep near rounding.
CANCELLING_SUM_SNR = ChannelConfig(
    2, (0.0014750435309353565, 97994.16643719237), 32.5464970706179, 2.1822142218135687e-06, 530374.4380172977
)


def two_user_draws(seed, count):
    """Seeded Equalized K=2 configs, every input log-uniform over 24
    decades."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        cfg = random_config(rng, K=2, lo=1e-12, hi=1e12)
        if solve_equalizer(cfg).regime == EQUALIZED:
            out.append(cfg)
    return out


def pointwise_sweep(config, resolution):
    """The inner sweep rows, the uniform split and their verdicts from one
    intersection_rows call, the witness's last."""
    solution = solve_equalizer(config)
    rows = equalizing_set(config, solution, "inner").sweep(resolution)
    witness = uniform_split(config, solution)
    return rows, witness, intersection_rows(*family_tables(config, "inner", np.concatenate([rows, witness])))[2]


def test_inner_sweep_ranges_give_the_pointwise_verdicts(monkeypatch):
    # Every sweep row gets the verdict its own tables give, while most rows
    # are decided by pieces and never reach family_tables, which each sweep
    # calls twice: once for the corner rows, once for the rest.
    real, seen = sumcap.family_tables, []
    monkeypatch.setattr(sumcap, "family_tables", lambda cfg, family, rows: seen.append(len(rows)) or real(cfg, family, rows))
    configs = two_user_draws(2929, 60) + [HIGH_SNR, CANCELLING_SUM_SNR]
    configs += [two_user_config(name) for name in TWO_USER_CONFIGS]
    swept = 0
    for cfg in configs:
        for resolution in (1e-3, 1e-5):
            rows, witness, expect = pointwise_sweep(cfg, resolution)
            calls = len(seen)
            active, witness_active = sumcap._inner_sweep_verdicts(cfg, rows, witness)
            assert len(seen) - calls == 2
            assert active.tolist() == expect[:-1].tolist()
            assert witness_active == expect[-1]
            swept += len(rows)
    assert sum(seen) < swept / 10


@pytest.mark.parametrize("piece", [1, 2, 3, 16, 1 << 20])
def test_inner_sweep_pieces_give_the_pointwise_verdicts_at_any_size(monkeypatch, piece):
    # A piece of one row is decided from its own corners; a piece longer
    # than the sweep is one box over all of it.
    monkeypatch.setattr(sumcap, "SWEEP_PIECE", piece)
    configs = two_user_draws(2931, 12) + [HIGH_SNR] + [two_user_config(name) for name in TWO_USER_CONFIGS]
    for cfg in configs:
        rows, witness, expect = pointwise_sweep(cfg, 1e-3)
        active, witness_active = sumcap._inner_sweep_verdicts(cfg, rows, witness)
        assert active.tolist() == expect[:-1].tolist()
        assert witness_active == expect[-1]


# Per subset bitmask, the direction in which each inner table entry moves
# as alpha1 and as alpha2 rise, with beta_star: relay DF(S) rises in the
# alphas of S; dest DF{1} falls in alpha1 and rises in alpha2, DF{2} is the
# mirror, DF{1,2} falls in both.
INNER_DIRECTIONS = {
    "dest": [(0, 0), (-1, 1), (1, -1), (-1, -1)],
    "relay": [(0, 0), (1, 0), (0, 1), (1, 1)],
}


def test_inner_sweep_premises_hold_in_floats():
    # The range decider's premises: the sweep's alpha1 strictly rises and
    # its alpha2 never rises, so rows i..j lie in the box of rows i and j;
    # each table entry moves in its direction between box corners, up to
    # rounding of a few ulps of 1 + P_r / N_d + the entry.
    rng = np.random.default_rng(2930)
    for cfg in two_user_draws(2930, 40) + [HIGH_SNR, CANCELLING_SUM_SNR]:
        rows = equalizing_set(cfg, solve_equalizer(cfg), "inner").sweep(1e-4)
        assert (np.diff(rows[:, 0]) > 0.0).all() and (np.diff(rows[:, 1]) <= 0.0).all()
        # Boxes of two sweep rows, then boxes anywhere in the unit square.
        i, j = np.sort(rng.integers(0, len(rows), (2, 40)), axis=0)
        unit = np.sort(rng.random((2, 2, 40)), axis=1)
        x0, x1 = np.concatenate([rows[i, 0], unit[0, 0]]), np.concatenate([rows[j, 0], unit[0, 1]])
        y0, y1 = np.concatenate([rows[j, 1], unit[1, 0]]), np.concatenate([rows[i, 1], unit[1, 1]])
        corners = [family_tables(cfg, "inner", np.column_stack(c)) for c in ((x0, y0), (x1, y0), (x0, y1), (x1, y1))]
        for side, (name, directions) in enumerate(INNER_DIRECTIONS.items()):
            t00, t10, t01, t11 = (tables[side] for tables in corners)
            tol = 2.0**-48 * (1.0 + cfg.P_r / cfg.N_d + np.maximum.reduce([t00, t10, t01, t11]))
            for S, (d1, d2) in enumerate(directions):
                for start, end, d in ((t00, t10, d1), (t01, t11, d1), (t00, t01, d2), (t10, t11, d2)):
                    change = end[:, S] - start[:, S]
                    moved = np.abs(change) if d == 0 else -d * change
                    assert (moved <= tol[:, S]).all(), (cfg, name, S)
        # dest DF{1,2} = C((P + P_r + 2 sqrt(W P_r)) / N_d), W = sum (1 - alpha_k) P_k.
        alpha = np.column_stack([x0, y1])
        W = ((1.0 - alpha) * cfg.powers()).sum(axis=1)
        closed = 0.5 * np.log2(1.0 + (sum(cfg.P) + cfg.P_r + 2.0 * np.sqrt(W * cfg.P_r)) / cfg.N_d)
        np.testing.assert_allclose(family_tables(cfg, "inner", alpha)[0][:, 3], closed, rtol=1e-13, atol=1e-15)
