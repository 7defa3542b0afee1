"""Acceptance gate: ten end-to-end reproduction and verification criteria.

Each test prints one `[criterion NN] PASS/FAIL: detail` line before
asserting, so a verbose pytest run doubles as the acceptance report.
"""

import io
import time
from contextlib import redirect_stdout

import numpy as np

from marc_cap import (
    ChannelConfig,
    awgn_capacity,
    build_df_region,
    build_outer_region,
    dominance_check,
    grid_maxmin,
    mc_relay_conditional_variance,
    solve_equalizer,
    sum_capacity,
)
from marc_cap.bounds import CorrelationVector, DfPowerSplit, beta_star, bound_functions, full_mask
from marc_cap.cli import main
from marc_cap.polymatroid import ACTIVE, INACTIVE, TIE_TOL, certify, intersection_max_sum
from marc_cap.region import hausdorff_distance
from marc_cap.sumcap import (
    ACTIVE_CLASS,
    EXACT,
    bottleneck_check,
    equalizing_set,
)
from conftest import grid_max_sum, linprog_max_sum, random_config, random_gamma, random_split

EXAMPLE_1 = ChannelConfig(2, (6.0, 4.0), 4.0, 1.0, 1.0)
EXAMPLE_2 = ChannelConfig(2, (6.0, 0.4), 4.0, 1.0, 1.0)


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def test_criterion_01_example1_reproduction():
    start = time.perf_counter()
    result = sum_capacity(EXAMPLE_1, resolution=1e-3)
    sol, scan = result["solution"], result["evidence"]
    box = scan.feasible_box
    full_set_active = scan.active_intervals == {k: [v] for k, v in box.items()}
    checks = [
        abs(sol.root - 0.408) <= 1e-3,
        abs(box["alpha1"][0] - 0.833) <= 5e-3,
        abs(box["alpha2"][0] - 0.750) <= 5e-3,
        scan.verdict == ACTIVE_CLASS,
        full_set_active,
    ]
    elapsed = time.perf_counter() - start
    _report(1, all(checks) and elapsed < 5.0,
            f"root={sol.root:.6f} alpha_lo=({box['alpha1'][0]:.4f},{box['alpha2'][0]:.4f}) "
            f"verdict={scan.verdict} full_set_active={full_set_active} elapsed={elapsed:.2f}s")


def test_criterion_02_example2_reproduction():
    start = time.perf_counter()
    result = sum_capacity(EXAMPLE_2, resolution=1e-3)
    sol, scan = result["solution"], result["evidence"]
    box = scan.feasible_box
    (run1,) = scan.active_intervals["alpha1"]
    (run2,) = scan.active_intervals["alpha2"]
    off_ok = True
    for a1 in (0.985, 0.99, 1.0):
        alpha = equalizing_set(EXAMPLE_2, sol, "inner").complete([a1])
        split = DfPowerSplit(tuple(alpha), tuple(beta_star(EXAMPLE_2, alpha)))
        out = intersection_max_sum(*bound_functions(EXAMPLE_2, split))
        off_ok = off_ok and out.kind == INACTIVE and out.two_user_case == "2"
    checks = [
        abs(sol.root - 0.197) <= 1e-3,
        abs(box["alpha1"][0] - 0.961) <= 5e-3,
        abs(box["alpha2"][0] - 0.416) <= 1e-2,
        abs(run1[0] - 0.961) <= 5e-3,
        abs(run1[1] - 0.979) <= 5e-3,
        abs(run2[0] - 0.731) <= 5e-3,
        abs(run2[1] - 1.000) <= 5e-3,
        off_ok,
    ]
    elapsed = time.perf_counter() - start
    _report(2, all(checks) and elapsed < 30.0,
            f"root={sol.root:.6f} active_alpha1=({run1[0]:.4f},{run1[1]:.4f}) "
            f"active_alpha2=({run2[0]:.4f},{run2[1]:.4f}) off_interval_case2={off_ok} "
            f"elapsed={elapsed:.2f}s")


def test_criterion_03_solver_vs_grid_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(100):
        cfg = random_config(rng, K=2 + i % 2)
        diff = abs(solve_equalizer(cfg).sum_rate - grid_maxmin(cfg, step=0.01).value)
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    _report(3, worst <= 1e-3 and elapsed < 120.0,
            f"configs=100 worst_diff={worst:.2e} elapsed={elapsed:.1f}s")


def _certify_tol(f):
    return TIE_TOL * max(1.0, float(np.abs(f.values).max()))


def _brute_force_verdict(f):
    """(submodular, monotone) from f(A)+f(B) >= f(A|B)+f(A&B) and
    f(A) <= f(A|B) over every pair of subsets, at certify's tolerance."""
    v = f.values
    tol = _certify_tol(f)
    masks = np.arange(len(v))
    A, B = masks[:, None], masks[None, :]
    submodular = bool(np.all(v[A] + v[B] >= v[A | B] + v[A & B] - tol))
    monotone = bool(np.all(v[A] <= v[A | B] + tol))
    return submodular, monotone


def _witness_violation(value, witness):
    """Amount by which the inequality a certify witness names is violated:
    monotonicity for (S, k, k), submodularity for (S, k1, k2)."""
    S, k1, k2 = witness
    if k1 == k2:
        return value(S) - value(S | 1 << k1)
    return value(S) + value(S | 1 << k1 | 1 << k2) - value(S | 1 << k1) - value(S | 1 << k2)


def _relay_conditional_variance(cfg, vec, S):
    """var(sum_S X_k | X_{S^c}, X_r) for independent Gaussian sources with
    E[X_k X_r] = sqrt(gamma_k P_k P_r), as a Schur complement of the joint
    covariance of (X_1..X_K, X_r)."""
    K = cfg.K
    P = cfg.powers()
    cov = np.diag(np.append(P, cfg.P_r))
    cov[:K, K] = cov[K, :K] = np.sqrt(vec.vector() * P * cfg.P_r)
    a = np.array([float(S >> k & 1) for k in range(K)] + [0.0])
    given = [k for k in range(K) if not S >> k & 1] + [K]
    c = cov[given] @ a
    return float(a @ cov @ a - c @ np.linalg.solve(cov[np.ix_(given, given)], c))


def test_criterion_04_polymatroid_certification():
    # The intersection argument needs the destination cutset family and both
    # decode-and-forward families to be polymatroid rank functions. The relay
    # cutset family is the Gaussian conditional mutual information
    # I(X_S; Y_r | X_{S^c}, X_r): monotone by the chain rule, but not
    # submodular for every correlation vector (frozen counterexample in
    # test_polymatroid.py::test_relay_cutset_not_submodular_everywhere). For
    # it the criterion checks the closed form against the conditional
    # variance and checks that every certify witness is genuine.
    rng = np.random.default_rng(404)
    draw_gamma = lambda K: CorrelationVector(random_gamma(rng, K))
    draw_split = lambda K: DfPowerSplit(*random_split(rng, K))
    # Each family is one side of a bound_functions pair: 0 the destination, 1 the relay.
    families = (
        ("dest-cutset", draw_gamma, 0),
        ("relay-cutset", draw_gamma, 1),
        ("dest-df", draw_split, 0),
        ("relay-df", draw_split, 1),
    )
    counts = {}
    agree = nonmonotone = spurious = 0
    worst_rel = 0.0
    first = None
    for name, draw, side in families:
        bad = 0
        for i in range(200):
            cfg = random_config(rng, K=2 + i % 4)
            param = draw(cfg.K)
            f = bound_functions(cfg, param)[side]
            rep = certify(f)
            agree += (rep.submodular, rep.monotone) == _brute_force_verdict(f)
            certified = rep.submodular and rep.monotone
            bad += not certified
            if name != "relay-cutset":
                if not certified and first is None:
                    first = (name, rep.witness, cfg)
                continue
            nonmonotone += not rep.monotone
            for S in range(1, 1 << cfg.K):
                exact = awgn_capacity(_relay_conditional_variance(cfg, param, S) / cfg.N_r)
                worst_rel = max(worst_rel, abs(f(S) - exact) / exact)
            if not certified:
                spurious += _witness_violation(f, rep.witness) <= _certify_tol(f)
        counts[name] = bad
    polymatroids_clean = all(v == 0 for k, v in counts.items() if k != "relay-cutset")
    ok = (
        polymatroids_clean
        and nonmonotone == 0
        and agree == 4 * 200
        and spurious == 0
        and worst_rel <= 1e-10
        and counts["relay-cutset"] > 0
    )
    detail = (
        "witnesses/200 " + " ".join(f"{k}={v}" for k, v in counts.items())
        + f" relay-cutset-nonmonotone={nonmonotone} certify_agrees={agree}/{4 * 200}"
        f" spurious_witnesses={spurious} worst_schur_rel={worst_rel:.1e}"
    )
    if first is not None:
        detail += f"; first polymatroid witness family={first[0]} subsets={first[1]} config={first[2]}"
    _report(4, ok, detail)


def _certified(f):
    rep = certify(f)
    return rep.submodular and rep.monotone


def _constructed_active(k):
    # Symmetric equalized two-user channel: the equalizing split ties both
    # full cuts, which classifies Active.
    p = 1.0 + 0.7 * k
    cfg = ChannelConfig(2, (p, p), p, 1.0, 1.0)
    assert not bottleneck_check(cfg)
    c = solve_equalizer(cfg).constraint_value
    a = 1.0 - c / 2.0
    return bound_functions(cfg, DfPowerSplit((a, a), (0.5, 0.5)))


def _constructed_inactive(k):
    # Equalizing splits beyond the active sub-interval of the asymmetric
    # worked example classify Inactive.
    a1 = 0.982 + 0.0018 * k
    alpha = equalizing_set(EXAMPLE_2, solve_equalizer(EXAMPLE_2), "inner").complete([a1])
    split = DfPowerSplit(tuple(alpha), tuple(beta_star(EXAMPLE_2, alpha)))
    return bound_functions(EXAMPLE_2, split)


def test_criterion_05_intersection_lemma_oracle():
    rng = np.random.default_rng(505)
    pairs = []
    attempts = 0
    while len(pairs) < 100 and attempts < 4000:
        attempts += 1
        K = 2 + attempts % 3
        cfg = random_config(rng, K=K)
        if attempts % 2:
            f1, f2 = bound_functions(cfg, DfPowerSplit(*random_split(rng, K)))
        else:
            f1, f2 = bound_functions(cfg, CorrelationVector(random_gamma(rng, K)))
        if _certified(f1) and _certified(f2):
            pairs.append((f1, f2))
    kinds = [intersection_max_sum(f1, f2).kind for f1, f2 in pairs]
    n_active, n_inactive = kinds.count(ACTIVE), kinds.count(INACTIVE)
    built_ok = len(pairs) == 100
    k = 0
    while n_active < 10 and k < 12:
        f1, f2 = _constructed_active(k)
        k += 1
        built_ok &= _certified(f1) and _certified(f2)
        built_ok &= intersection_max_sum(f1, f2).kind == ACTIVE
        pairs.append((f1, f2))
        n_active += 1
    k = 0
    while n_inactive < 10 and k < 12:
        f1, f2 = _constructed_inactive(k)
        k += 1
        built_ok &= _certified(f1) and _certified(f2)
        built_ok &= intersection_max_sum(f1, f2).kind == INACTIVE
        pairs.append((f1, f2))
        n_inactive += 1
    worst_rel = 0.0
    lp_ok = True
    for f1, f2 in pairs:
        g = np.minimum(f1.values, f2.values)
        lemma = intersection_max_sum(f1, f2).max_sum_rate
        brute = grid_max_sum(g, f1.K)
        lp_ok &= abs(lemma - linprog_max_sum(g, f1.K)) <= 1e-8
        worst_rel = max(worst_rel, abs(lemma - brute) / max(lemma, 1e-6))
    ok = built_ok and lp_ok and worst_rel <= 2e-3 and n_active >= 10 and n_inactive >= 10
    _report(5, ok,
            f"pairs={len(pairs)} active={n_active} inactive={n_inactive} "
            f"worst_rel={worst_rel:.2e} lp_agree={lp_ok}")


def test_criterion_06_bottleneck_class():
    rng = np.random.default_rng(606)
    step = 0.05
    ok = True
    worst_h = 0.0
    count = attempts = 0
    while count < 50 and attempts < 3000:
        attempts += 1
        cfg = random_config(rng, K=2)
        if not bottleneck_check(cfg):
            continue
        count += 1
        res = sum_capacity(cfg)
        ok &= res["value"] == awgn_capacity(sum(cfg.P) / cfg.N_r)
        ok &= res["status"] == EXACT
        dest, relay = bound_functions(cfg, CorrelationVector((0.0, 0.0)))
        ok &= bool(np.all(relay.values <= dest.values + 1e-12))
        h = hausdorff_distance(build_df_region(cfg, step).vertices,
                               build_outer_region(cfg, step).vertices)
        worst_h = max(worst_h, h)
    ok = ok and count == 50 and worst_h <= 2.0 * step
    _report(6, ok, f"configs={count} worst_hausdorff={worst_h:.2e} budget={2.0 * step}")


def test_criterion_07_symmetric_class():
    rng = np.random.default_rng(707)
    draw = lambda: float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    ok = True
    worst_gap = 0.0
    count = attempts = 0
    while count < 20 and attempts < 1000:
        attempts += 1
        K = int(rng.integers(2, 4))
        p = draw()
        cfg = ChannelConfig(K, (p,) * K, draw(), draw(), draw())
        if bottleneck_check(cfg):
            continue
        count += 1
        sol = solve_equalizer(cfg)
        c = sol.constraint_value
        alpha = (1.0 - c / K,) * K
        beta = (1.0 / K,) * K
        gamma = (c / K**2,) * K
        equalizing_set(cfg, sol, "inner").check(np.array(alpha))
        ok &= bool(np.allclose(beta_star(cfg, alpha), beta, rtol=0, atol=1e-12))
        vec = CorrelationVector(gamma)
        equalizing_set(cfg, sol, "outer").check(vec.vector())
        inner = intersection_max_sum(*bound_functions(cfg, DfPowerSplit(alpha, beta)))
        outer = intersection_max_sum(*bound_functions(cfg, vec))
        ok &= inner.kind == ACTIVE and outer.kind == ACTIVE
        gap = abs(inner.max_sum_rate - outer.max_sum_rate)
        worst_gap = max(worst_gap, gap)
    ok = ok and count == 20 and worst_gap <= 1e-9
    _report(7, ok, f"configs={count} worst_inner_outer_gap={worst_gap:.2e}")


def test_criterion_08_monte_carlo_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    ok = True
    worst_z = 0.0
    for i in range(20):
        cfg = random_config(rng, K=2 + i % 2)
        gamma = random_gamma(rng, cfg.K)
        S = int(rng.integers(1, full_mask(cfg.K) + 1))
        for mode in (1, 2):
            rep = mc_relay_conditional_variance(cfg, gamma, S, mode=mode, n=10**6, seed=1000 + i)
            ok &= rep.passed
            if not rep.degenerate:
                worst_z = max(worst_z, abs(rep.z_score))
    elapsed = time.perf_counter() - start
    _report(8, ok and elapsed < 60.0,
            f"triples=20 modes=both worst_abs_z={worst_z:.2f} elapsed={elapsed:.1f}s")


def test_criterion_09_dominance_suite():
    rng = np.random.default_rng(909)
    ok = True
    worst = 0.0
    total = 0
    for seed in range(10):
        cfg = random_config(rng)
        rep = dominance_check(cfg, trials=50, seed=seed)
        total += rep.trials
        ok &= rep.passed
        worst = max(worst, rep.max_gap)
    ok = ok and total == 500 and worst <= 1e-12
    _report(9, ok, f"draws={total} max_gap={worst:.2e}")


def test_criterion_10_determinism():
    runs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["examples"])
        runs.append((code, buf.getvalue()))
    identical = runs[0][1] == runs[1][1]
    ok = identical and runs[0][0] == 0 and runs[1][0] == 0
    _report(10, ok, f"exit={runs[0][0]} bytes={len(runs[0][1])} identical={identical}")
