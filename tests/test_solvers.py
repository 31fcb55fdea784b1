import math
from itertools import combinations, groupby

import numpy as np
import pytest

from kfsslab.closed_forms import example1_predictions, example2_predictions, msee_limit
from kfsslab.gadgets import build_example1, build_example2
from kfsslab.model import AttackVector, SelectionVector, SystemModel, complement, validate_model
from kfsslab import riccati, solvers
from kfsslab.solvers import (
    METRICS,
    BudgetExceedsSensors,
    NonUnitCosts,
    SolverInputError,
    TooManySensors,
    evaluate_selection,
    exhaustive_attack,
    exhaustive_select,
    greedy_and_optimal,
    greedy_attack,
    greedy_select,
    report_to_dict,
    trace_ratio,
    _enumerate_feasible,
    _kept,
    _maximal_feasible,
    _ScoreTable,
    _score,
    _tied,
)

LAM = 0.9


def _stack(m, supports, metric):
    """Traces and diagonals of same-size ``supports``, scored as one request
    on a fresh table."""
    table = _ScoreTable(m, metric)
    return _score([(table, tuple(s)) for s in supports])


def _ratio(m, budget, mode, metric):
    return greedy_and_optimal([m], budget, mode, metric)[0][2]


def _random_model(rng, n_max=4, q_max=6, unit_costs=True, psd_v=True):
    n = int(rng.integers(2, n_max + 1))
    q = int(rng.integers(2, q_max + 1))
    lams = rng.uniform(-0.9, 0.9, n)
    C = rng.standard_normal((q, n))
    if psd_v:
        L = rng.standard_normal((q, q)) * 0.5
        V = L @ L.T
    else:
        V = np.zeros((q, q))
    return validate_model(SystemModel(
        n=n, q=q, A=np.diag(lams), C=C, W=np.diag(rng.uniform(0.2, 2.0, n)), V=V,
        b=np.ones(q) if unit_costs else rng.uniform(0.5, 2.0, q),
        omega=np.ones(q),
        budget_select=float(rng.integers(1, q + 1)),
        budget_attack=float(rng.integers(1, q + 1)),
    ))


def test_evaluate_selection_example1_optimal_pair():
    m = build_example1(LAM, 20.0)
    sel = SelectionVector((1, 0, 1))
    assert abs(evaluate_selection(m, sel, "priori").trace - 3.0) < 1e-8
    assert abs(evaluate_selection(m, sel, "posteriori").trace - 1.0) < 1e-8


def test_evaluate_attack_example2():
    m = build_example2(LAM, 0.5)
    limit = msee_limit(LAM)
    att = AttackVector((1, 1, 0, 0))
    assert abs(evaluate_selection(m, complement(att), "priori").trace - (limit + 2.0)) < 1e-8
    empty = AttackVector((0, 0, 0, 0))
    full = evaluate_selection(m, SelectionVector((1, 1, 1, 1)), "priori")
    assert evaluate_selection(m, complement(empty), "priori").trace == pytest.approx(full.trace)
    drop4 = AttackVector((0, 0, 0, 1))
    pred = example2_predictions(LAM, 0.5)
    assert abs(evaluate_selection(m, complement(drop4), "priori").trace - pred.trace_greedy_priori) < 1e-8


def test_greedy_select_example1_order():
    m = build_example1(LAM, 100.0)
    for metric in ("priori", "posteriori"):
        report = greedy_select(m, 2, metric)
        assert report.greedy_order == (1, 2)
        assert report.chosen.support == (1, 2)
        assert len(report.steps) == 2
        assert report.steps[0].scores.keys() == {0, 1, 2}


def test_greedy_select_full_budget_takes_everything():
    m = build_example1(LAM, 10.0)
    for metric in ("priori", "posteriori"):
        report = greedy_select(m, 3, metric)
        assert report.chosen.bits == (1, 1, 1)


def test_greedy_attack_example2_trajectory():
    m = build_example2(LAM, 0.25)
    report = greedy_attack(m, 2, "priori")
    # sensor 4 first; the three-way tie among survivors breaks to sensor 1
    assert report.greedy_order == (3, 0)
    post = greedy_attack(m, 2, "posteriori")
    assert post.greedy_order == (3, 0)


def test_greedy_attack_full_budget_reaches_open_loop():
    m = build_example2(LAM, 0.5)
    report = greedy_attack(m, 4, "priori")
    assert report.chosen.bits == (1, 1, 1, 1)
    assert report.trace == pytest.approx(msee_limit(LAM) + 2.0, abs=1e-8)


def test_exhaustive_select_example1():
    m = build_example1(LAM, 100.0)
    pri = exhaustive_select(m, m.b, 2.0, "priori")
    assert pri.chosen.support == (0, 2)
    assert abs(pri.trace - 3.0) < 1e-8
    post = exhaustive_select(m, m.b, 2.0, "posteriori")
    assert post.chosen.support == (0, 2)
    assert abs(post.trace - 1.0) < 1e-8
    # with the whole budget the optimum trace is still 3; the smaller of the
    # tied supports wins
    everything = exhaustive_select(m, m.b, 3.0, "priori")
    assert abs(everything.trace - 3.0) < 1e-8
    assert everything.chosen.bits == (1, 0, 1)


def test_exhaustive_select_takes_all_sensors_when_each_helps():
    rng = np.random.default_rng(77)
    m = _random_model(rng)  # dense noisy sensors: every addition strictly helps
    report = exhaustive_select(m, m.b, float(m.q), "priori")
    assert report.chosen.bits == (1,) * m.q


def test_exhaustive_attack_example2():
    m = build_example2(LAM, 0.5)
    pri = exhaustive_attack(m, m.omega, 2.0, "priori")
    assert pri.chosen.support == (0, 1)
    post = exhaustive_attack(m, m.omega, 2.0, "posteriori")
    assert post.chosen.support == (0, 1)
    assert post.trace == pytest.approx(msee_limit(LAM), abs=1e-8)
    nothing = exhaustive_attack(m, m.omega, 0.0, "priori")
    assert nothing.chosen.bits == (0, 0, 0, 0)


def test_exhaustive_supports_general_costs():
    rng = np.random.default_rng(2)
    m = _random_model(rng, unit_costs=False)
    costs = m.b
    budget = float(np.sort(costs)[:2].sum())
    report = exhaustive_select(m, costs, budget, "priori")
    assert costs[list(report.chosen.support)].sum() <= budget + 1e-12


def test_family_predictions_match_solvers():
    h = 17.0
    m1 = build_example1(LAM, h)
    p1 = example1_predictions(LAM, h)
    checks = [
        ((1, 0, 0), p1.msee_1 + 2.0),
        ((0, 1, 0), p1.msee_2 + 2.0),
        ((0, 0, 1), p1.msee_3 + 2.0),
        ((1, 1, 0), p1.msee_12 + 2.0),
        ((0, 1, 1), p1.msee_23 + 2.0),
    ]
    for bits, expected in checks:
        got = evaluate_selection(m1, SelectionVector(bits), "priori").trace
        assert abs(got - expected) < 1e-7, bits
    assert abs(greedy_select(m1, 2, "priori").trace - p1.trace_greedy_priori) < 1e-7
    assert abs(exhaustive_select(m1, m1.b, 2.0, "priori").trace - p1.trace_optimal_priori) < 1e-7
    assert abs(greedy_select(m1, 2, "posteriori").trace - p1.trace_greedy_posteriori) < 1e-7
    assert abs(exhaustive_select(m1, m1.b, 2.0, "posteriori").trace - p1.trace_optimal_posteriori) < 1e-7

    h2 = 0.3
    m2 = build_example2(LAM, h2)
    p2 = example2_predictions(LAM, h2)
    assert abs(greedy_attack(m2, 2, "priori").trace - p2.trace_greedy_priori) < 1e-7
    assert abs(exhaustive_attack(m2, m2.omega, 2.0, "priori").trace - p2.trace_optimal_priori) < 1e-7
    assert abs(greedy_attack(m2, 2, "posteriori").trace - p2.trace_greedy_posteriori) < 1e-7
    assert abs(exhaustive_attack(m2, m2.omega, 2.0, "posteriori").trace - p2.trace_optimal_posteriori) < 1e-7


def test_greedy_ratio_examples():
    m1 = build_example1(LAM, 1e4)
    pri = _ratio(m1, 2, "select", "priori")
    assert abs(pri - (2.0 / 3.0 + 1.0 / (3 * 0.19))) / pri < 0.02
    post = _ratio(m1, 2, "select", "posteriori")
    assert abs(post - 1.0 / 0.19) / post < 0.02
    assert _ratio(m1, 3, "select", "priori") == pytest.approx(1.0, abs=1e-9)

    m2 = build_example2(LAM, 1e-4)
    att_post = _ratio(m2, 2, "attack", "posteriori")
    assert abs(att_post - 1.0 / 0.19) / att_post < 0.02


def test_ratio_with_infinite_sides():
    # unstable mode observed only by sensor 0: removing it blinds the filter
    m = validate_model(SystemModel(
        n=2, q=2, A=np.diag([1.2, 0.3]),
        C=np.array([[1.0, 0.0], [0.0, 1.0]]),
        W=np.eye(2), V=np.eye(2) * 0.1,
        b=np.ones(2), omega=np.ones(2),
        budget_select=1.0, budget_attack=1.0,
    ))
    ratio = _ratio(m, 1, "attack", "priori")
    assert ratio == 1.0  # both greedy and optimum blind the filter
    rep = exhaustive_attack(m, m.omega, 1.0, "priori")
    assert math.isinf(rep.trace)
    assert rep.chosen.support == (0,)


def test_greedy_step_log_is_consistent():
    m = build_example1(LAM, 42.0)
    report = greedy_select(m, 2, "priori")
    for step in report.steps:
        best = min(step.scores.values())
        assert step.scores[step.chosen] <= best + 1e-9 * max(1.0, abs(best))
    report = greedy_attack(build_example2(LAM, 0.7), 2, "priori")
    for step in report.steps:
        best = max(step.scores.values())
        assert step.scores[step.chosen] >= best - 1e-9 * max(1.0, abs(best))


def test_exhaustive_dominates_greedy_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(6):
        m = _random_model(rng)
        budget = int(rng.integers(1, m.q))
        for metric in ("priori", "posteriori"):
            g_sel = greedy_select(m, budget, metric).trace
            o_sel = exhaustive_select(m, m.b, float(budget), metric).trace
            assert o_sel <= g_sel + 1e-9
            g_att = greedy_attack(m, budget, metric).trace
            o_att = exhaustive_attack(m, m.omega, float(budget), metric).trace
            assert o_att >= g_att - 1e-9
            assert _ratio(m, budget, "select", metric) >= 1.0 - 1e-6
            assert _ratio(m, budget, "attack", metric) >= 1.0 - 1e-6


def test_reports_are_reproducible():
    m = build_example2(LAM, 0.9)
    r1 = greedy_attack(m, 2, "priori")
    r2 = greedy_attack(m, 2, "priori")
    assert report_to_dict(r1) == report_to_dict(r2)
    e1 = exhaustive_select(build_example1(LAM, 9.0), np.ones(3), 2.0, "posteriori")
    e2 = exhaustive_select(build_example1(LAM, 9.0), np.ones(3), 2.0, "posteriori")
    assert report_to_dict(e1) == report_to_dict(e2)


def test_trace_matches_reevaluation_of_chosen():
    rng = np.random.default_rng(13)
    m = _random_model(rng)
    report = exhaustive_select(m, m.b, 2.0, "priori")
    again = evaluate_selection(m, report.chosen, "priori").trace
    assert abs(report.trace - again) < 1e-9


def test_independent_enumerator_spot_check():
    rng = np.random.default_rng(59)
    for _ in range(3):
        m = _random_model(rng, q_max=5)
        budget = 2.0
        report = exhaustive_select(m, m.b, budget, "priori")
        scored = []
        for r in range(m.q + 1):
            for combo in combinations(range(m.q), r):
                if len(combo) <= budget:
                    sel = SelectionVector.from_support(m.q, combo)
                    scored.append((evaluate_selection(m, sel, "priori").trace, sel))
        best = min(t for t, _ in scored)
        tied = [s for t, s in scored if abs(t - best) <= 1e-9 * max(1.0, abs(best))]
        expected = min(tied, key=lambda s: (s.count, s.bits))
        assert report.chosen == expected
        assert abs(report.trace - best) < 1e-9


def test_error_paths():
    m = build_example1(LAM, 5.0)
    with pytest.raises(BudgetExceedsSensors):
        greedy_select(m, 4, "priori")
    bad_costs = validate_model(SystemModel(
        n=3, q=3, A=m.A, C=m.C, W=m.W, V=m.V,
        b=np.array([1.0, 2.0, 1.0]), omega=np.ones(3),
        budget_select=2.0, budget_attack=2.0,
    ))
    with pytest.raises(NonUnitCosts):
        greedy_select(bad_costs, 2, "priori")
    wide = validate_model(SystemModel(
        n=2, q=25, A=np.diag([0.5, 0.2]), C=np.ones((25, 2)),
        W=np.eye(2), V=np.eye(25), b=np.ones(25), omega=np.ones(25),
        budget_select=2.0, budget_attack=2.0,
    ))
    with pytest.raises(TooManySensors):
        exhaustive_select(wide, wide.b, 2.0, "priori")
    with pytest.raises(ValueError):
        greedy_select(m, 2, "bogus")


@pytest.mark.parametrize("greedy", [greedy_select, greedy_attack])
@pytest.mark.parametrize("budget", [2.5, -0.5, 1.9, math.inf, math.nan, None, "x"])
def test_non_integral_cardinality_budget_is_rejected(greedy, budget):
    with pytest.raises(SolverInputError, match="must be an integer"):
        greedy(build_example1(LAM, 10.0), budget, "priori")


def test_report_dict_encodes_infinity():
    m = validate_model(SystemModel(
        n=1, q=1, A=np.array([[1.5]]), C=np.array([[1.0]]),
        W=np.eye(1), V=np.eye(1), b=np.ones(1), omega=np.ones(1),
        budget_select=1.0, budget_attack=1.0,
    ))
    report = exhaustive_attack(m, m.omega, 1.0, "priori")
    data = report_to_dict(report)
    assert data["infinite"] is True
    assert data["trace"] is None
    assert data["diag"] is None
    assert data["support"] == [1]


def test_exhaustive_budget_sum_within_rounding_is_feasible():
    # 0.1 + 0.2 > 0.3 in floating point; the pair must still fit the budget
    m = validate_model(SystemModel(
        n=2, q=2, A=np.diag([0.9, 0.5]), C=np.eye(2), W=np.eye(2), V=np.eye(2)))
    report = exhaustive_select(m, [0.1, 0.2], 0.3, "priori")
    assert report.chosen.support == (0, 1)


def test_pruned_enumerator_matches_full_scan():
    rng = np.random.default_rng(5)
    for _ in range(40):
        q = int(rng.integers(1, 9))
        costs = rng.choice([0.0, 0.1, 0.2, 0.3, 1.0, 2.5], size=q)
        budget = float(rng.choice([0.0, 0.3, 1.0, 2.0, 10.0, -0.5]))
        limit = budget + 1e-9 * max(1.0, abs(budget))
        full = [combo for r in range(q + 1) for combo in combinations(range(q), r)
                if sum(costs[i] for i in combo) <= limit]
        assert list(_enumerate_feasible(q, costs, budget)) == full


def _bit_mask_maximal(q, costs, budget):
    """The feasible count and the maximal sets as a per-sensor bit-mask
    probe finds them, over a full scan that sums numpy scalars: a set is
    maximal when no sensor it lacks joins it within budget."""
    limit = budget + 1e-9 * max(1.0, abs(budget))
    feasible = [combo for r in range(q + 1) for combo in combinations(range(q), r)
                if sum(costs[i] for i in combo) <= limit]
    fits = {sum(1 << i for i in c): c for c in feasible}
    return len(feasible), [c for mask, c in fits.items()
                           if all(mask | 1 << i not in fits for i in range(q) if i not in c)]


def test_maximal_feasible_equals_the_bit_mask_probe():
    rng = np.random.default_rng(59)
    for k in range(100):
        q = int(rng.integers(1, 10))
        m = validate_model(SystemModel(n=1, q=q, A=np.array([[0.5]]), C=np.ones((q, 1)), W=np.eye(1),
                                       V=np.eye(q)))
        if k % 2:
            costs = rng.choice([0.0, 0.1, 0.2, 0.25, 0.5, 1.0, 1.5], size=q)
        else:
            costs = rng.uniform(0.0, 1.5, q)
            costs[rng.random(q) < 0.3] = 0.0
        if k % 3:
            budget = float(rng.choice([-0.5, -1e-12, 0.0, 0.3, 0.75, 1.0, 2.5, 10.0]))
        else:
            budget = float(rng.uniform(-0.5, 3.0))
        count, maximal = _bit_mask_maximal(q, costs, budget)
        if not count:
            with pytest.raises(SolverInputError, match="no feasible"):
                _maximal_feasible(m, costs, budget, attack=bool(k % 2))
            continue
        assert _maximal_feasible(m, costs, budget, attack=bool(k % 2)) == (count, maximal)


def _random_solve_model(rng, q):
    """An instance like the benchmark's random-solve items: n = q / 2, one
    unstable mode that every sensor sees, nonsingular V and unit costs."""
    n = q // 2
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * np.concatenate([[1.05], np.linspace(-0.5, 0.5, n - 1)])) @ Q.T
    C = rng.standard_normal((q, n))
    C += np.outer(np.sign(C @ Q[:, 0]), Q[:, 0])
    B = rng.standard_normal((q, q))
    return validate_model(SystemModel(n=n, q=q, A=A, C=C, W=np.eye(n), V=B @ B.T / q + 0.5 * np.eye(q),
                                      b=np.ones(q), omega=np.ones(q)))


def test_exhaustive_on_generic_instances_solves_only_the_maximal_sets(monkeypatch):
    # a lone best maximal set: each of its one-sensor-smaller subsets lies
    # under another maximal set, scored and not tied, so the walk solves
    # nothing and the C(10, 3) = 120 maximal sets are the only members
    rng = np.random.default_rng(53)
    for _ in range(3):
        m = _random_solve_model(rng, 10)
        for run, metric in ((exhaustive_select, "priori"), (exhaustive_attack, "posteriori")):
            members = []
            original = riccati._solve_detectable
            monkeypatch.setattr(riccati, "_solve_detectable", lambda A, W, C, V: members.append(len(C))
                                or original(A, W, C, V))
            report = run(m, np.ones(m.q), 3.0, metric)
            monkeypatch.undo()
            assert members == [64, 56]
            assert report.chosen.count == 3


def _full_enumeration(m, costs, budget, metric, attack):
    """Every feasible indicator scored, one size layer per stack, and the
    smallest (largest) trace kept: ties to the smallest support, then the
    lexicographically smallest bits.  Returns (bits, trace, diag,
    evaluations) as an exhaustive report should give them."""
    combos, traces, diags = [], [], []
    for _, layer in groupby(_enumerate_feasible(m.q, np.asarray(costs, dtype=float), budget), key=len):
        layer = list(layer)
        layer_traces, layer_diags = _stack(m, [_kept(m.q, c, attack) for c in layer], metric)
        combos += layer
        traces += layer_traces
        diags += list(layer_diags)
    best = (max if attack else min)(traces)
    k = min((k for k, t in enumerate(traces) if _tied(t, best)),
            key=lambda k: (len(combos[k]), SelectionVector.from_support(m.q, combos[k]).bits))
    diag = None if math.isinf(traces[k]) else tuple(diags[k].tolist())
    return SelectionVector.from_support(m.q, combos[k]).bits, traces[k], diag, len(combos) + 1


def _tie_model(rng):
    """Random instance with exact ties: a zero-row sensor, which changes no
    trace, and a duplicated sensor with equal noise.  The first state is
    unstable and seen by some sensors only, so some selections and survivor
    sets are undetectable; V is singular on some draws."""
    n = int(rng.integers(2, 4))
    q = int(rng.integers(4, 7))
    C = rng.standard_normal((q, n))
    C[rng.random(q) < 0.5, 0] = 0.0
    C[0, 0] = 1.0  # the empty selection is the only undetectable one for sure
    C[1] = 0.0
    C[2] = C[3]
    noise = rng.uniform(0.2, 1.0, q)
    noise[2] = noise[3]
    if rng.random() < 0.3:
        noise[rng.integers(q)] = 0.0
    return validate_model(SystemModel(
        n=n, q=q, A=np.diag(np.concatenate([[1.05], rng.uniform(-0.8, 0.8, n - 1)])), C=C,
        W=np.diag(rng.uniform(0.2, 2.0, n)), V=np.diag(noise),
        b=rng.choice([0.0, 0.5, 1.0, 1.5], q), omega=np.ones(q),
    ))


def test_exhaustive_equals_full_enumeration():
    rng = np.random.default_rng(41)
    undetectable = ties = 0
    for _ in range(6):
        m = _tie_model(rng)
        for metric in METRICS:
            for budget in range(m.q + 1):
                for attack, costs in ((False, m.b), (False, np.ones(m.q)), (True, m.omega)):
                    run = exhaustive_attack if attack else exhaustive_select
                    report = run(m, costs, float(budget), metric)
                    want = _full_enumeration(m, costs, float(budget), metric, attack)
                    assert (report.chosen.bits, report.trace, report.diag, report.evaluations) == want
                    undetectable += math.isinf(report.trace)
                    # with unit costs every maximal set has `budget` sensors
                    ties += costs is not m.b and report.chosen.count < budget
    assert undetectable and ties  # both the infinite and the tie-walk paths ran


def test_tie_walk_continues_past_a_size_with_no_tied_set():
    # one noiseless sensor of cost 3, and three sensors of cost 1 whose
    # noises sum to zero: {0} and {1, 2, 3} are the maximal sets within
    # budget 3 and both see the state exactly, while no pair of 1, 2, 3 does
    V = np.zeros((4, 4))
    V[1:, 1:] = [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]]
    m = validate_model(SystemModel(n=1, q=4, A=np.array([[0.5]]), C=np.ones((4, 1)), W=np.eye(1), V=V,
                                   b=np.array([3.0, 1.0, 1.0, 1.0]), omega=np.ones(4)))
    for metric in METRICS:
        report = exhaustive_select(m, m.b, 3.0, metric)
        assert report.chosen.support == (0,)
        assert (report.chosen.bits, report.trace, report.diag, report.evaluations) == _full_enumeration(
            m, m.b, 3.0, metric, False)


def test_exhaustive_rejects_negative_costs():
    m = build_example1(LAM, 10.0)
    with pytest.raises(SolverInputError, match="nonnegative"):
        exhaustive_select(m, [1.0, -0.5, 1.0], 2.0, "priori")
    with pytest.raises(SolverInputError, match="nonnegative"):
        exhaustive_attack(m, [0.0, 0.0, -1e-300], 0.0, "priori")


def _close(got: float, want: float) -> bool:
    return got == want or abs(got - want) <= 1e-12 * abs(want)


def _assert_reports_agree(got, want):
    """The chosen bits, greedy choices and evaluations exactly; the traces,
    diagonals and step scores within 1e-12 relative, since a chunk that
    pads smaller supports rounds sums over the sensors differently."""
    assert (got.mode, got.metric, got.chosen, got.evaluations) == (want.mode, want.metric, want.chosen,
                                                                   want.evaluations)
    assert got.greedy_order == want.greedy_order
    assert _close(got.trace, want.trace)
    assert (got.diag is None) == (want.diag is None)
    assert got.diag is None or all(map(_close, got.diag, want.diag))
    for step, alone in zip(got.steps, want.steps):
        assert step.scores.keys() == alone.scores.keys()
        assert all(_close(step.scores[i], alone.scores[i]) for i in step.scores)


@pytest.mark.parametrize("mode", ["select", "attack"])
def test_greedy_and_optimal_scores_each_support_once(mode, monkeypatch):
    rng = np.random.default_rng(43)
    tie = _tie_model(rng)
    tie.b = np.ones(tie.q)  # greedy needs unit costs
    for m in (build_example1(LAM, 100.0), build_example2(LAM, 0.01), tie, _random_model(rng)):
        for metric in METRICS:
            for budget in range(m.q + 1):
                scored = []

                def spy(members):
                    scored.extend(members)
                    return _score(members)

                monkeypatch.setattr(solvers, "_score", spy)
                ((greedy, optimal, ratio),) = greedy_and_optimal([m], budget, mode, metric)
                monkeypatch.undo()
                assert len(scored) == len(set(scored)), (m.q, metric, budget)
                assert len({table for table, _ in scored}) == 1
                attack = mode == "attack"
                alone_greedy = (greedy_attack if attack else greedy_select)(m, budget, metric)
                alone_optimal = (exhaustive_attack if attack else exhaustive_select)(
                    m, m.omega if attack else m.b, float(budget), metric)
                _assert_reports_agree(greedy, alone_greedy)
                _assert_reports_agree(optimal, alone_optimal)
                assert ratio == (trace_ratio(optimal.trace, greedy.trace) if attack
                                 else trace_ratio(greedy.trace, optimal.trace))


@pytest.mark.parametrize("mode", ["select", "attack"])
def test_mode_images_are_computed_once_per_table(mode, monkeypatch):
    tie = _tie_model(np.random.default_rng(47))  # one unstable mode, so the images are not empty
    tie.b = np.ones(tie.q)
    for m in (tie, build_example1(LAM, 100.0)):
        calls = []
        original = riccati._mode_images
        monkeypatch.setattr(riccati, "_mode_images", lambda A, C: calls.append((A, C)) or original(A, C))
        for metric in METRICS:
            greedy_and_optimal([m], 2, mode, metric)
        monkeypatch.undo()
        # one per table, and one per call for its stabilizability test,
        # whose PBH test of (A', W^1/2) goes through _mode_images too
        tables = [A for A, C in calls if C is m.C]
        assert len(tables) == len(METRICS) and all(A is m.A for A in tables)
        assert len(calls) == 2 * len(METRICS)


def test_greedy_and_optimal_over_models_equals_each_model_alone(monkeypatch):
    # example1 at several gains shares A and W; one call scores greedy's
    # first step and the maximal sets of all of them as one stack
    models = [build_example1(LAM, h) for h in (0.1, 10.0, 1e3)]
    for mode in ("select", "attack"):
        for metric in METRICS:
            runs = []
            original = riccati._solve_detectable
            monkeypatch.setattr(riccati, "_solve_detectable", lambda *a: runs.append(1) or original(*a))
            joint = greedy_and_optimal(models, 2, mode, metric)
            monkeypatch.undo()
            assert len(runs) == 1  # sizes 1 and 2, or q - 1 and q - 2, in one chunk
            for m, (greedy, optimal, ratio) in zip(models, joint):
                ((g, o, r),) = greedy_and_optimal([m], 2, mode, metric)
                assert (report_to_dict(greedy), report_to_dict(optimal), ratio) == (
                    report_to_dict(g), report_to_dict(o), r)
    assert greedy_and_optimal([], 2, "select", "priori") == []
    # models that do not share A are refused before any solve
    monkeypatch.setattr(riccati, "_solve_detectable", lambda *a: pytest.fail("solved"))
    with pytest.raises(ValueError, match="share A, W"):
        greedy_and_optimal([models[0], build_example1(0.6, 1.0)], 2, "select", "priori")
