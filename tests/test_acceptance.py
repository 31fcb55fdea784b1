"""Acceptance gate: every criterion below prints one PASS/FAIL line and
fails the suite if its stated tolerance or runtime budget is violated.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from itertools import combinations

import numpy as np

from kfsslab.closed_forms import (
    msee_limit,
    limit_ratio_attack,
    limit_ratio_select,
    repeated_sensor_msee,
    scalar_sensor_msee,
)
from kfsslab.gadgets import (
    X3CInstance,
    build_example1,
    build_example2,
    no_instance_transform,
    x3c_bruteforce,
    x3c_decide_via_kfsa,
    x3c_decide_via_kfss,
)
from kfsslab.model import AttackVector, SelectionVector, SystemModel, complement, validate_model
from kfsslab.riccati import posteriori_from_priori, solve_dare
from kfsslab.solvers import (
    evaluate_selection,
    exhaustive_attack,
    exhaustive_select,
    greedy_and_optimal,
    greedy_attack,
    greedy_select,
)

LAMBDA_GRID = [round(0.05 * i, 2) for i in range(1, 20)]
NOISE_GRID = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1e4]

# shared between criteria 1-2 (which record) and criterion 3 (which asserts)
COUPLING = {"max_residual": 0.0, "solves": 0}


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def _track_coupling(A, W, priori_cov, C_sel, V_sel):
    post = posteriori_from_priori(priori_cov, C_sel, V_sel)
    residual = float(np.linalg.norm(priori_cov - (A @ post @ A.T + W)))  # Sigma = A Sigma* A' + W
    COUPLING["max_residual"] = max(COUPLING["max_residual"], residual)
    COUPLING["solves"] += 1
    return post


def test_criterion_1_closed_form_vs_dare():
    t0 = time.perf_counter()
    worst = 0.0
    for lam in LAMBDA_GRID:
        A1, C1, W1 = np.array([[lam]]), np.array([[1.0]]), np.eye(1)
        for noise in NOISE_GRID:
            res = solve_dare(A1, C1, W1, np.array([[noise]]))
            worst = max(worst, abs(scalar_sensor_msee(lam, noise) - res.cov[0, 0]))
            _track_coupling(A1, W1, res.cov, C1, np.array([[noise]]))
            for n_meas in (1, 2, 3, 6):
                A = np.diag([lam] + [0.0] * n_meas)
                C = np.hstack([np.ones((n_meas, 1)), math.sqrt(noise) * np.eye(n_meas)])
                V = np.zeros((n_meas, n_meas))
                res = solve_dare(A, C, np.eye(n_meas + 1), V)
                worst = max(worst, abs(repeated_sensor_msee(lam, noise, n_meas) - res.cov[0, 0]))
                _track_coupling(A, np.eye(n_meas + 1), res.cov, C, V)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    _report(1, ok, f"max |closed form - iterated| = {worst:.2e} over "
                   f"{len(LAMBDA_GRID)}x{len(NOISE_GRID)}x(scalar + 4 widths) in {elapsed:.1f}s")


def _random_diagonal_instance(rng):
    n = int(rng.integers(2, 6))
    q = int(rng.integers(2, 7))
    lams = rng.uniform(-0.9, 0.9, n)
    w = rng.uniform(0.0, 2.0, n)
    C = rng.standard_normal((q, n))
    L = rng.standard_normal((q, q)) * rng.uniform(0.2, 1.0)
    V = L @ L.T
    return np.diag(lams), np.diag(w), C, V, lams, w


def test_criterion_2_diagonal_bounds():
    rng = np.random.default_rng(2024)
    worst_violation = 0.0
    for _ in range(50):
        A, W, C, V, lams, w = _random_diagonal_instance(rng)
        n, q = A.shape[0], C.shape[0]
        hi = w / (1.0 - lams**2)
        for mask in range(2**q):
            rows = [i for i in range(q) if mask >> i & 1]
            C_sel = C[rows] if rows else np.zeros((0, n))
            V_sel = V[np.ix_(rows, rows)] if rows else np.zeros((0, 0))
            res = solve_dare(A, C_sel, W, V_sel)
            post = _track_coupling(A, W, res.cov, C_sel, V_sel)
            d_pri, d_post = np.diag(res.cov), np.diag(post)
            worst_violation = max(
                worst_violation,
                float(np.max(w - d_pri)),       # priori lower bound
                float(np.max(d_pri - hi)),      # priori upper bound
                float(np.max(-d_post)),         # posteriori lower bound
                float(np.max(d_post - hi)),     # posteriori upper bound
            )

    # unmeasured-state equality: column 1 of C is zero
    lam_b = np.array([0.8, -0.6, 0.3])
    w_b = np.array([1.5, 2.0, 0.7])
    rng_b = np.random.default_rng(7)
    C_b = rng_b.standard_normal((3, 3))
    C_b[:, 1] = 0.0
    L = rng_b.standard_normal((3, 3))
    eq_err = 0.0
    for rows in ([0, 1, 2], [0, 2], [1]):
        res = solve_dare(np.diag(lam_b), C_b[rows], np.diag(w_b), (L @ L.T)[np.ix_(rows, rows)])
        post = posteriori_from_priori(res.cov, C_b[rows], (L @ L.T)[np.ix_(rows, rows)])
        target = w_b[1] / (1.0 - lam_b[1] ** 2)
        eq_err = max(eq_err, abs(res.cov[1, 1] - target), abs(post[1, 1] - target))

    # exactly-recovered-state equality: noiseless rows combine to a coordinate axis
    A_c = np.diag([0.7, -0.4, 0.2])
    W_c = np.diag([1.2, 0.5, 0.9])
    for C_c, state in (
        (np.array([[1.0, 2.0, -1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 0),
        (np.array([[0.0, 1.0, 3.0], [0.0, 0.0, 1.0]]), 1),  # e2 = row0 - 3 row1
    ):
        V_c = np.zeros((C_c.shape[0], C_c.shape[0]))
        res = solve_dare(A_c, C_c, W_c, V_c)
        post = posteriori_from_priori(res.cov, C_c, V_c)
        eq_err = max(eq_err, abs(res.cov[state, state] - W_c[state, state]), abs(post[state, state]))

    ok = worst_violation < 1e-8 and eq_err < 1e-8
    _report(2, ok, f"worst bound violation {worst_violation:.2e}, "
                   f"worst equality error {eq_err:.2e} over 50 instances x all selections")


def test_criterion_3_coupling_identity():
    ok = COUPLING["solves"] >= 1500 and COUPLING["max_residual"] < 1e-8
    _report(3, ok, f"max coupling residual {COUPLING['max_residual']:.2e} "
                   f"over {COUPLING['solves']} solves from criteria 1-2")


def test_criterion_4_selection_counterexample():
    t0 = time.perf_counter()
    lam = 0.9
    problems = []
    ratios = {"priori": [], "posteriori": []}
    for h in (10.0, 1e2, 1e3, 1e4):
        m = build_example1(lam, h)
        for metric in ("priori", "posteriori"):
            if greedy_select(m, 2, metric).chosen.support != (1, 2):
                problems.append(f"greedy {metric} at h={h} missed sensors (2, 3)")
            if exhaustive_select(m, m.b, 2.0, metric).chosen.support != (0, 2):
                problems.append(f"exhaustive {metric} at h={h} missed sensors (1, 3)")
            ratios[metric].append(greedy_and_optimal([m], 2, "select", metric)[0][2])
    pri_limit, post_limit = limit_ratio_select(lam)
    if abs(ratios["priori"][-1] - pri_limit) / pri_limit > 0.02:
        problems.append(f"priori ratio {ratios['priori'][-1]:.6f} not within 2% of {pri_limit:.6f}")
    if abs(ratios["posteriori"][-1] - post_limit) / post_limit > 0.02:
        problems.append(f"posteriori ratio {ratios['posteriori'][-1]:.6f} not within 2% of {post_limit:.6f}")
    for metric, seq in ratios.items():
        if not all(a < b for a, b in zip(seq, seq[1:])):
            problems.append(f"{metric} ratios not increasing along h: {seq}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.1f}s")
    _report(4, not problems,
            problems or f"ratios -> ({ratios['priori'][-1]:.4f}, {ratios['posteriori'][-1]:.4f}) "
                        f"vs limits ({pri_limit:.4f}, {post_limit:.4f}) in {elapsed:.1f}s")


def test_criterion_5_attack_counterexample():
    t0 = time.perf_counter()
    lam, h = 0.9, 1e-4
    m = build_example2(lam, h)
    problems = []
    for metric in ("priori", "posteriori"):
        first_pick = greedy_attack(m, 2, metric).greedy_order[0]
        if first_pick != 3:
            problems.append(f"greedy {metric} first target was sensor {first_pick + 1}, not 4")
        if exhaustive_attack(m, m.omega, 2.0, metric).chosen.support != (0, 1):
            problems.append(f"exhaustive {metric} attack missed sensors (1, 2)")
    pri_limit, post_limit = limit_ratio_attack(lam)
    r_pri, r_post = (greedy_and_optimal([m], 2, "attack", metric)[0][2] for metric in ("priori", "posteriori"))
    if abs(r_pri - pri_limit) / pri_limit > 0.02:
        problems.append(f"priori ratio {r_pri:.6f} not within 2% of {pri_limit:.6f}")
    if abs(r_post - post_limit) / post_limit > 0.02:
        problems.append(f"posteriori ratio {r_post:.6f} not within 2% of {post_limit:.6f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.1f}s")
    _report(5, not problems,
            problems or f"ratios ({r_pri:.4f}, {r_post:.4f}) vs limits "
                        f"({pri_limit:.4f}, {post_limit:.4f}) in {elapsed:.1f}s")


# ten distinct triples over {1..6}; five complementary pairs so both answers occur
X3C_POOL = (
    (1, 2, 3), (4, 5, 6),
    (1, 2, 4), (3, 5, 6),
    (1, 3, 5), (2, 4, 6),
    (1, 4, 5), (2, 3, 6),
    (1, 2, 5), (3, 4, 6),
)
INSTANCE_CAP = 500


def _x3c_sweep_instances():
    out = []
    for tau in range(2, 7):
        for combo in combinations(range(len(X3C_POOL)), tau):
            out.append(X3CInstance(2, tuple(X3C_POOL[i] for i in combo)))
            if len(out) == INSTANCE_CAP:
                return out
    return out


def test_criterion_6_reduction_soundness():
    t0 = time.perf_counter()
    instances = _x3c_sweep_instances()
    mismatches = []
    yes_count = 0
    for idx, inst in enumerate(instances):
        expected, _ = x3c_bruteforce(inst)
        yes_count += expected
        got_sel = x3c_decide_via_kfss(inst, K=1.0, solver="exhaustive").answer
        got_att = x3c_decide_via_kfsa(inst, K=1.0, solver="exhaustive").answer
        if got_sel != expected or got_att != expected:
            mismatches.append((idx, inst.subsets, expected, got_sel, got_att))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 600.0
    _report(6, ok,
            mismatches[:3] if mismatches else
            f"{len(instances)} instances ({yes_count} yes / {len(instances) - yes_count} no), "
            f"selection and attack reductions both match brute force, {elapsed:.0f}s")


def test_criterion_7_monotonicity_property():
    rng = np.random.default_rng(777)
    violations = 0
    for _ in range(1000):
        lam = float(rng.uniform(0.01, 0.99) * rng.choice([-1.0, 1.0]))
        a, b = np.sort(10.0 ** rng.uniform(-4.0, 6.0, size=2))
        if a == b:
            b *= 1.0 + 1e-9
        va, vb = scalar_sensor_msee(lam, a), scalar_sensor_msee(lam, b)
        limit = msee_limit(lam)
        if not (va < vb < limit):
            violations += 1
    _report(7, violations == 0, f"{violations} violations in 1000 random (lambda, a < b) triples")


def test_criterion_8_certificate_basis():
    rng = np.random.default_rng(88)
    worst = 0.0
    checked = 0
    while checked < 100:
        m = int(rng.integers(2, 5))
        l = int(rng.integers(1, m + 1))
        dim = 3 * m
        forced = rng.choice(dim, size=int(rng.integers(1, dim - 4)), replace=False)
        allowed = [j for j in range(dim) if j not in set(forced)]
        rows = set()
        while len(rows) < l:
            rows.add(tuple(sorted(rng.choice(allowed, size=3, replace=False))))
        G = np.zeros((l, dim))
        for i, r in enumerate(rows):
            G[i, list(r)] = 1.0
        basis = no_instance_transform(G)
        kappa = len(basis.zero_columns)
        worst = max(
            worst,
            float(np.max(np.abs(basis.N.T @ basis.N - np.eye(dim)))),
            float(np.max(np.abs(G @ basis.null_part))),
        )
        r = np.linalg.matrix_rank(G)
        assert basis.rank == r
        assert np.linalg.matrix_rank(G @ basis.range_part) == r
        unit_hits = int(np.sum(np.abs(np.ones(dim) @ basis.null_part - 1.0) <= 1e-10))
        assert unit_hits >= kappa >= 1
        checked += 1
    _report(8, worst < 1e-10, f"100 random membership matrices, worst defect {worst:.2e}")


def _independent_best(model, mode, metric, budget):
    """Bitmask enumerator coded separately from the solvers module."""
    q = model.q
    costs = model.b if mode == "select" else model.omega
    entries = []
    for mask in range(2**q):
        bits = tuple(mask >> i & 1 for i in range(q))
        if sum(c for c, bit in zip(costs, bits) if bit) > budget:
            continue
        if mode == "select":
            trace = evaluate_selection(model, SelectionVector(bits), metric).trace
        else:
            trace = evaluate_selection(model, complement(AttackVector(bits)), metric).trace
        entries.append((trace, sum(bits), bits))
    traces = [t for t, _, _ in entries]
    best = min(traces) if mode == "select" else max(traces)
    if math.isinf(best):
        tied = [e for e in entries if math.isinf(e[0])]
    else:
        tied = [e for e in entries if abs(e[0] - best) <= 1e-9 * max(1.0, abs(best))]
    _, _, bits = min(tied, key=lambda e: (e[1], e[2]))
    return bits, best


def test_criterion_9_independent_enumerator():
    rng = np.random.default_rng(99)
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(2, 5))
        q = int(rng.integers(2, 7))
        L = rng.standard_normal((q, q)) * 0.5
        model = validate_model(SystemModel(
            n=n, q=q,
            A=np.diag(rng.uniform(-0.9, 0.9, n)),
            C=rng.standard_normal((q, n)),
            W=np.diag(rng.uniform(0.2, 2.0, n)),
            V=L @ L.T,
            b=np.ones(q), omega=np.ones(q),
            budget_select=1.0, budget_attack=1.0,
        ))
        budget = float(rng.integers(1, q + 1))
        metric = "priori" if k % 2 == 0 else "posteriori"
        rep_sel = exhaustive_select(model, model.b, budget, metric)
        bits_sel, best_sel = _independent_best(model, "select", metric, budget)
        assert rep_sel.chosen.bits == bits_sel, f"select support mismatch on instance {k}"
        worst = max(worst, abs(rep_sel.trace - best_sel))
        rep_att = exhaustive_attack(model, model.omega, budget, metric)
        bits_att, best_att = _independent_best(model, "attack", metric, budget)
        assert rep_att.chosen.bits == bits_att, f"attack support mismatch on instance {k}"
        worst = max(worst, abs(rep_att.trace - best_att))
    _report(9, worst < 1e-9, f"20 instances, both modes, worst trace gap {worst:.2e}")
