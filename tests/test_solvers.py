import math
import warnings
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from kfsslab.closed_forms import example1_predictions, example2_predictions, msee_limit
from kfsslab.gadgets import X3CInstance, build_example1, build_example2, build_kfsa_gadget, build_kfss_gadget
from kfsslab.model import (
    AttackVector,
    DimensionMismatch,
    NonFiniteInput,
    NotPSD,
    SelectionVector,
    SystemModel,
    complement,
    restrict,
    validate_model,
)
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
    _layers,
    _maximal_feasible,
    _ScoreTable,
    _tied,
)

LAM = 0.9


def _stack(m, supports, metric):
    """Traces and diagonals of ``supports``, scored as one request on a
    fresh table."""
    scored = _ScoreTable([m], metric, attack=False)([(0, tuple(sorted(s))) for s in supports])
    return [trace for trace, _ in scored], np.array([diag for _, diag in scored])


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


@pytest.mark.parametrize("call, match", [
    (lambda m: greedy_select(m, -1, "priori"), "budget must be nonnegative"),
    (lambda m: exhaustive_attack(m, np.ones(4), 1.0, "priori"), "costs must have length 3"),
    (lambda m: greedy_and_optimal([m], 2, "bogus", "priori"), "mode must be"),
    (lambda m: greedy_and_optimal([], 2, "select", "bogus"), "metric must be"),  # no models: checked all the same
], ids=["negative-budget", "costs-length", "mode", "metric-no-models"])
def test_bad_solver_input_is_rejected(call, match):
    with pytest.raises(SolverInputError, match=match):
        call(build_example1(LAM, 10.0))


def _four_sensor_model():
    return validate_model(SystemModel(
        n=1, q=4, A=np.array([[0.5]]), C=np.ones((4, 1)), W=np.eye(1), V=np.eye(4),
        budget_select=4.0, budget_attack=4.0,
    ))


@pytest.mark.parametrize("exhaustive", [exhaustive_select, exhaustive_attack])
@pytest.mark.parametrize("costs, budget, match", [
    ([math.nan, 1.0, 1.0, 1.0], 4.0, "costs must be nonnegative numbers"),
    ([1.0, 1.0, 1.0, 1.0], math.nan, "budget must be a number, got nan"),
], ids=["nan-cost", "nan-budget"])
def test_nan_cost_or_budget_is_refused_before_enumeration(monkeypatch, exhaustive, costs, budget, match):
    # a NaN budget fits no set, so the enumerator would walk every subset
    # before finding none; a NaN cost silently made its sensor unusable
    calls = []
    monkeypatch.setattr(solvers, "combinations", lambda *args: calls.append(args) or combinations(*args))
    with pytest.raises(SolverInputError, match=match):
        exhaustive(_four_sensor_model(), np.array(costs), budget, "priori")
    assert calls == []


@pytest.mark.parametrize("exhaustive", [exhaustive_select, exhaustive_attack])
def test_infinite_cost_or_budget_stays_allowed(exhaustive):
    m = _four_sensor_model()
    assert exhaustive(m, np.ones(4), math.inf, "priori").chosen.support == (0, 1, 2, 3)
    assert exhaustive(m, np.array([math.inf, 1.0, 1.0, 1.0]), 4.0, "priori").chosen.support == (1, 2, 3)


def test_trace_ratio_over_a_zero_trace():
    assert trace_ratio(0.0, 0.0) == 1.0
    assert trace_ratio(2.0, 0.0) == math.inf


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
        assert [c for _, sets in _layers(q, costs, budget) for c in sets] == full


# costs and a budget whose index-order sum of all three sensors equals the
# budget's limit, 1.4833333333333332, while np.cumsum of the sorted costs
# reaches 1.4833333333333334
ROUNDING_COSTS, ROUNDING_BUDGET = (0.7, 0.45, 1 / 3), 1.48333333185


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
    # the full set sums to the limit in index order, but its costs added in
    # ascending order round one ulp above it
    m = validate_model(SystemModel(n=1, q=3, A=np.array([[0.5]]), C=np.ones((3, 1)), W=np.eye(1), V=np.eye(3)))
    costs = np.array(ROUNDING_COSTS)
    assert _bit_mask_maximal(3, costs, ROUNDING_BUDGET) == (8, [(0, 1, 2)])
    for attack in (False, True):
        assert _maximal_feasible(m, costs, ROUNDING_BUDGET, attack) == (8, [(0, 1, 2)])


def test_maximal_feasible_counts_the_sizes_whose_sets_all_fit():
    # equal costs make every size either fit whole or not at all, but for
    # round-off at the limit (0.1 and 0.3 sum inexactly); the counted
    # sizes must give the probe's count and maximal sets, and a negative
    # budget, which not even the empty set fits, none
    for cost in (1.0, 0.1, 0.3):
        for q in range(1, 13):
            m = SystemModel(n=1, q=q, A=np.array([[0.5]]), C=np.ones((q, 1)), W=np.eye(1), V=np.eye(q))
            costs = np.full(q, cost)
            steps = np.arange(-1.0, q + 1.5, 0.5)
            for budget in sorted({*steps, *steps * cost}):  # in absolute steps, and in steps of the cost
                count, maximal = _bit_mask_maximal(q, costs, float(budget))
                if budget < 0.0:
                    assert count == 0
                    with pytest.raises(SolverInputError, match="no feasible"):
                        _maximal_feasible(m, costs, float(budget), attack=False)
                    continue
                assert _maximal_feasible(m, costs, float(budget), attack=False) == (count, maximal)
    # unit costs at the sensor cap's scale: the 10-sets, listed once
    m = SystemModel(n=1, q=20, A=np.array([[0.5]]), C=np.ones((20, 1)), W=np.eye(1), V=np.eye(20))
    count, maximal = _maximal_feasible(m, np.ones(20), 10.0, attack=True)
    assert count == 616_666 == sum(math.comb(20, r) for r in range(11))
    assert maximal == list(combinations(range(20), 10))


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
    # nothing and the C(10, 3) = 120 maximal sets are the only members.  The
    # attack solves them all; the select's screen solves the 64 with the
    # least floors, whose best trace drops the rest before any kernel run
    rng = np.random.default_rng(53)
    for _ in range(3):
        m = _random_solve_model(rng, 10)
        for run, metric, want in ((exhaustive_select, "priori", [64]), (exhaustive_attack, "posteriori", [64, 56])):
            members = []
            original = riccati._solve_detectable
            monkeypatch.setattr(riccati, "_solve_detectable", lambda A, W, C, V, *args:
                                members.append(len(C)) or original(A, W, C, V, *args))
            report = run(m, np.ones(m.q), 3.0, metric)
            monkeypatch.undo()
            assert members == want
            assert report.chosen.count == 3


def _floors(m, supports, metric):
    """The screen's floors of ``supports`` on a fresh selection table of
    ``m``, in the order given."""
    table = _ScoreTable([m], metric, attack=False)
    missing = [(len(s), s, 0, s) for s in supports]
    order, floors = table._screen(missing)
    return [float(floors[order.index(member)]) for member in missing]


@pytest.mark.parametrize("metric", METRICS)
def test_screen_floor_bounds_the_converged_trace(metric):
    # the floor, tr H_1 a priori or tr Wb a posteriori, is the second
    # iterate of the Riccati recursion from zero, or W's update: never
    # above the converged trace plus the tie band, on random members with
    # nonsingular, singular and zero noise, zero rows, one-column and zero
    # A, and a precise sensor off the axes (C = [g, g], V = 1e-11), whose
    # traces are known to 16 digits at every g.  On well-conditioned members
    # it is the direct (W^-1 + G)^-1, propagated a priori, to 1e-12
    rng = np.random.default_rng(101)
    near = direct = 0
    for draw in range(80):
        n, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        A = rng.standard_normal((n, n)) * rng.choice([0.0, 0.3, 0.9]) / math.sqrt(n)
        if draw % 4 == 1:
            A[:, 1:] = 0.0  # one nonzero column: the closed form
        C = rng.standard_normal((q, n)) * 10.0 ** rng.uniform(-1, 2, (q, 1))
        C[rng.random(q) < 0.15] = 0.0
        B = rng.standard_normal((q, q)) * 10.0 ** rng.uniform(-6, 0, q)
        V = {0: B @ B.T + 0.1 * np.eye(q), 1: B[:, :1] @ B[:, :1].T, 2: np.diag(rng.choice([0.0, 1.0], q))}[draw % 3]
        L = rng.standard_normal((n, n))
        m = validate_model(SystemModel(n=n, q=q, A=A, C=C, W=L @ L.T + 0.2 * np.eye(n), V=V))
        supports = [c for r in range(q + 1) for c in combinations(range(q), r)]
        for s, floor in zip(supports, _floors(m, supports, metric)):
            trace = evaluate_selection(m, SelectionVector.from_support(q, s), metric).trace
            assert floor <= trace + solvers._band(trace), (draw, s)
            near += trace - floor <= 1e-9 * trace
            if draw % 3 == 0 and s:
                Vs = m.V[np.ix_(s, s)]
                M = np.linalg.inv(m.W) + m.C[list(s)].T @ np.linalg.solve(Vs, m.C[list(s)])
                P = np.linalg.inv(M)
                want = np.trace(P if metric == "posteriori" else m.A @ P @ m.A.T + m.W)
                # well-conditioned: both inverses, and an update that keeps a tenth of tr W
                if np.linalg.cond(Vs) * np.linalg.cond(M) < 1e3 and np.trace(P) > 0.1 * np.trace(m.W):
                    assert abs(floor - want) <= 1e-12 * want, (draw, s)
                    direct += 1
    assert near > 100 and direct > 60
    # two noiseless rows at an angle delta measure the whole state of n = 2,
    # so P = 0 and S = W at every delta, whatever a third, noisy row adds;
    # in float their block of Q = C C' + V loses its second direction, whose
    # weight 1 / delta^2 the inverse needs
    c, d, e = rng.standard_normal((3, 2))
    for delta in 10.0 ** -np.arange(2, 14, 2):
        m = validate_model(SystemModel(n=2, q=3, A=0.5 * np.eye(2), C=np.array([c, c + delta * d, e]),
                                       W=np.eye(2), V=np.diag([0.0, 0.0, 1.0])))
        want = 0.0 if metric == "posteriori" else 2.0
        for floor in _floors(m, [(0, 1), (0, 1, 2)], metric):
            assert floor <= want + solvers._band(want), delta
    exact = {"priori": 2.750489783961217, "posteriori": 1.68649389654206}[metric]
    for g in 10.0 ** np.arange(13):
        m = validate_model(SystemModel(n=2, q=1, A=np.array([[0.9, 0.1], [0.0, 0.5]]), C=np.array([[g, g]]),
                                       W=np.eye(2), V=np.array([[1e-11]])))
        (floor,) = _floors(m, [(0,)], metric)
        assert 0.0 < floor <= exact


def test_screen_floor_keeps_to_a_padded_member_and_screens_nothing_it_cannot_solve():
    # a null sensor (zero row, identity noise) adds a row and column to Q
    # and nothing to the bound; a singular Q, as of a noiseless zero row,
    # or an overflowing one gives -inf, with no warning
    rng = np.random.default_rng(103)
    n, p = 3, 2
    A, W = rng.standard_normal((n, n)), np.eye(n)
    C = rng.standard_normal((p, n))
    V = np.eye(p)
    pad = np.zeros((p + 2, p + 2))
    pad[:p, :p], pad[p:, p:] = V, np.eye(2)
    Cp = np.concatenate([C, np.zeros((2, n))])
    for posteriori in (False, True):
        alone, padded = (riccati._floor(A, W, c[None], v[None], posteriori)[0] for c, v in ((C, V), (Cp, pad)))
        assert math.isfinite(alone) and abs(padded - alone) <= 1e-14 * abs(alone)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert riccati._floor(A, W, np.zeros((1, 1, n)), np.zeros((1, 1, 1)))[0] == -math.inf
        assert riccati._floor(A, W, np.full((1, 1, n), 1e200), np.eye(1)[None])[0] == -math.inf


def _full_enumeration(m, costs, budget, metric, attack):
    """Every feasible indicator scored, one size layer per stack, and the
    smallest (largest) trace kept: ties to the smallest support, then the
    lexicographically smallest bits.  Returns (bits, trace, diag,
    evaluations) as an exhaustive report should give them."""
    combos, traces, diags = [], [], []
    for _, layer in _layers(m.q, np.asarray(costs, dtype=float), budget):
        layer = list(layer)
        kept = [[i for i in range(m.q) if i not in c] if attack else c for c in layer]
        layer_traces, layer_diags = _stack(m, kept, metric)
        combos += layer
        traces += layer_traces
        diags += list(layer_diags)
    best = (max if attack else min)(traces)
    k = min((k for k, t in enumerate(traces) if _tied(t, best)),
            key=lambda k: (len(combos[k]), SelectionVector.from_support(m.q, combos[k]).bits))
    diag = None if math.isinf(traces[k]) else tuple(diags[k].tolist())
    return SelectionVector.from_support(m.q, combos[k]).bits, traces[k], diag, len(combos) + 1


def _tie_model(rng, q=None):
    """Random instance with exact ties: a zero-row sensor, which changes no
    trace, and a duplicated sensor with equal noise.  The first state is
    unstable and seen by some sensors only, so some selections and survivor
    sets are undetectable; V is singular on some draws.  q is drawn from
    4 to 6 unless given."""
    n = int(rng.integers(2, 4))
    q = int(rng.integers(4, 7)) if q is None else q
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


@pytest.mark.parametrize("metric", METRICS)
def test_screened_exhaustive_select_equals_the_search_that_solves_every_member(metric, monkeypatch):
    # the screen solves best first and drops members on their floors; with
    # one chunk holding every member it screens nothing.  Unit costs give
    # the same report bit for bit; mixed costs may pad other chunks, so the
    # same chosen set with its trace to 1e-12.  Tie models at q = 9 to 12
    # (exact ties, undetectable sets, singular V on some draws) and
    # random-solve models at q = 10 and 12
    rng = np.random.default_rng(107)
    fewer = 0
    for draw in range(8):
        q = int(rng.integers(9, 13)) if draw % 2 else 10 + 2 * (draw % 4 == 2)
        m = _tie_model(rng, q) if draw % 2 else _random_solve_model(rng, q)
        for unit in (True, False):
            costs = np.ones(m.q) if unit else rng.choice([0.5, 1.0, 1.5], m.q)
            runs = []
            for chunk in (solvers.STACK_CHUNK, 10**6):
                members = []
                original = riccati._solve_detectable
                monkeypatch.setattr(solvers, "STACK_CHUNK", chunk)
                monkeypatch.setattr(riccati, "_solve_detectable", lambda A, W, C, V, *args:
                                    members.append(len(C)) or original(A, W, C, V, *args))
                runs.append((exhaustive_select(m, costs, 3.0, metric), sum(members)))
                monkeypatch.undo()
            (report, solved), (want, every) = runs
            if unit:
                assert report_to_dict(report) == report_to_dict(want), draw
            else:
                assert report.chosen == want.chosen and report.evaluations == want.evaluations, draw
                assert report.trace == want.trace or abs(report.trace - want.trace) <= 1e-12 * want.trace, draw
            fewer += solved < every
    assert fewer >= 12


def test_screen_solves_q_18_select_in_at_most_two_kernel_runs(monkeypatch):
    # the C(18, 3) = 816 maximal sets of a random-solve model: the 64 with
    # the least floors hold the optimum's trace closely enough to drop all
    # but at most one more chunk before any kernel run
    rng = np.random.default_rng(109)
    for _ in range(3):
        m = _random_solve_model(rng, 18)
        runs = []
        original = riccati._solve_detectable
        monkeypatch.setattr(riccati, "_solve_detectable", lambda A, W, C, V, *args:
                            runs.append(len(C)) or original(A, W, C, V, *args))
        report = exhaustive_select(m, np.ones(m.q), 3.0, "priori")
        monkeypatch.undo()
        assert 1 <= len(runs) <= 2 and runs[0] == solvers.STACK_CHUNK
        assert report.chosen.count == 3


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


def _settled_exhaustive(m, costs, budget, attack, metric="priori"):
    """The exhaustive report under ``metric``, checked against the full
    enumeration and the public solver, the traces of the (0, indicator
    support) keys the table it left scored, and the keys the certified
    intervals dropped, which the table stores as None."""
    table = _ScoreTable([m], metric, attack)
    report = solvers._exhaustive(table, 0, *_maximal_feasible(m, costs, budget, attack))
    assert (report.chosen.bits, report.trace, report.diag, report.evaluations) == _full_enumeration(
        m, costs, budget, metric, attack)
    public = (exhaustive_attack if attack else exhaustive_select)(m, costs, budget, metric)
    assert report_to_dict(public) == report_to_dict(report)
    scored = {key: score[0] for key, score in table.scores.items() if score is not None}
    dropped = {key for key, score in table.scores.items() if score is None}
    # solved exactly, every dropped member is worse than the optimum and not tied with it
    for trace, _ in _ScoreTable([m], metric, attack)(dropped):
        assert not _tied(trace, report.trace) and (trace < report.trace if attack else trace > report.trace)
    return report, scored, dropped


def test_dropping_keeps_exact_ties_of_duplicated_sensors():
    # every sensor row appears twice with uncorrelated unit noise, so sets
    # that swap a sensor for its twin tie exactly; dropping must keep them,
    # under either metric
    for metric, want in (("priori", (16, 11)), ("posteriori", (16, 12))):
        rng = np.random.default_rng(67)
        dropped = tied = 0
        for _ in range(4):
            n = int(rng.integers(2, 4))
            C = np.repeat(rng.standard_normal((3, n)), 2, axis=0)
            A = np.diag(np.concatenate([[rng.choice([0.95, 1.05])], rng.uniform(-0.7, 0.7, n - 1)]))
            m = validate_model(SystemModel(n=n, q=6, A=A, C=C, W=np.eye(n), V=np.eye(6)))
            for budget in (2.0, 3.0):
                for attack in (False, True):
                    report, scored, lost = _settled_exhaustive(m, np.ones(6), budget, attack, metric)
                    dropped += bool(lost)
                    tied += sum(_tied(t, report.trace) for t in scored.values()) > 1
        assert (dropped, tied) == want, metric  # every run dropped sets, most kept a tie too


@pytest.mark.parametrize("blind", [(0, 1), (10, 11)])
def test_an_undetectable_survivor_set_drops_every_finite_one(blind):
    # only two sensors see the unstable mode, so the attack on them leaves
    # an undetectable survivor set, the optimum; the 66 survivor sets fill
    # two chunks, and the undetectable one lies in the first or the second
    rng = np.random.default_rng(71)
    q, n = 12, 3
    C = rng.standard_normal((q, n))
    C[:, 0] = 0.0
    C[list(blind), 0] = 1.0
    B = rng.standard_normal((q, q))
    m = validate_model(SystemModel(n=n, q=q, A=np.diag([1.05, 0.5, -0.3]), C=C, W=np.eye(n),
                                   V=B @ B.T / q + 0.5 * np.eye(q), omega=np.ones(q)))
    for metric in METRICS:
        report, scored, dropped = _settled_exhaustive(m, m.omega, 2.0, True, metric)
        assert math.isinf(report.trace) and report.chosen.support == blind
        finite = [key for key, t in scored.items() if math.isfinite(t)]
        assert len(dropped) > len(finite)
        assert not scored.keys() - {(0, blind)} - set(finite)


def test_tie_walk_descends_past_a_dropped_superset():
    # sensors 0 and 3 measure nothing, so {0, 1, 2}, {1, 2, 3} and {1, 2}
    # tie at the optimum; {0, 1, 3} and {0, 2, 3} see one useful sensor and
    # are dropped, which settles the walk's candidates {0, 1}, {0, 2},
    # {1, 3} and {2, 3} unsolved, and the walk goes on down to {1, 2},
    # whose subsets {1} and {2} it drops, under either metric
    C = np.array([[0.0, 0.0], [1.0, 0.3], [0.2, 1.0], [0.0, 0.0]])
    m = validate_model(SystemModel(n=2, q=4, A=np.diag([0.9, 0.5]), C=C, W=np.eye(2), V=np.eye(4)))
    for metric in METRICS:
        report, scored, dropped = _settled_exhaustive(m, np.ones(4), 3.0, False, metric)
        assert report.chosen.support == (1, 2)
        assert dropped == {(0, (0, 1, 3)), (0, (0, 2, 3)), (0, (1,)), (0, (2,))}
        assert set(scored) == {(0, (0, 1, 2)), (0, (1, 2, 3)), (0, (1, 2))}


def test_dropping_halves_the_doubling_solves_at_q_18(monkeypatch):
    # each doubling solves every live member once, and hands exactly those
    # members to settle; without dropping, each of the C(18, 3) = 816
    # maximal sets would pass through as many solves as it takes doublings
    rng = np.random.default_rng(61)
    m = _random_solve_model(rng, 18)
    sets = list(combinations(range(m.q), 3))
    lone = sum(riccati.solve_dare(m.A, m.C[list(s)], m.W, m.V[np.ix_(s, s)]).iterations for s in sets)
    solved = []
    doubling = riccati._doubling_dare

    def spy(A, G, W, settle=None, *args):
        assert settle is not None
        return doubling(A, G, W, lambda lo, hi: solved.append(len(lo)) or settle(lo, hi), *args)

    monkeypatch.setattr(riccati, "_doubling_dare", spy)
    report = exhaustive_select(m, np.ones(m.q), 3.0, "priori")
    monkeypatch.undo()
    assert report_to_dict(report) == report_to_dict(_settled_exhaustive(m, np.ones(m.q), 3.0, False)[0])
    assert 0 < sum(solved) <= lone / 2


@pytest.mark.parametrize("attack, doublings", [(False, 829), (True, 29)], ids=["select", "attack"])
def test_posteriori_dropping_halves_the_doubling_solves_at_q_18(attack, doublings, monkeypatch):
    # the model above under the a posteriori metric.  The maximal sets are
    # the triples (survivor sets of 15 sensors for the attack).  Every
    # member joins the filtered run, whose solution is the a posteriori
    # covariance, so its doubling hands settle the a posteriori interval
    # before the first doubling and once per doubling, as an a priori run
    # does, and no measurement update follows: each run settles every
    # member once before doubling and every live member once per doubling.
    # The attack drops most members before any doubling.  The select's
    # screen hands the run its members best first, so its incumbent falls
    # sooner: 829 doublings, where (size, kept) order took 887
    rng = np.random.default_rng(61)
    m = _random_solve_model(rng, 18)
    sets = [tuple(i for i in range(m.q) if i not in c) if attack else c for c in combinations(range(m.q), 3)]
    lone = sum(riccati.solve_dare(m.A, m.C[list(s)], m.W, m.V[np.ix_(s, s)]).iterations for s in sets)
    counted, solved, updated, members = [], [], [], []
    doubling, posteriori = riccati._doubling_dare, riccati._posteriori

    def spy(A, G, W, settle=None):
        assert settle is not None and A.shape == G.shape == W.shape  # the filtered equation's stacks
        S, counts = doubling(A, G, W, lambda lo, hi: solved.append(len(lo)) or settle(lo, hi))
        counted.append(counts.sum())
        members.append(len(G))
        return S, counts

    monkeypatch.setattr(riccati, "_doubling_dare", spy)
    monkeypatch.setattr(riccati, "_posteriori", lambda *a: updated.append(a) or posteriori(*a))
    report = (exhaustive_attack if attack else exhaustive_select)(m, np.ones(m.q), 3.0, "posteriori")
    monkeypatch.undo()
    settled = _settled_exhaustive(m, np.ones(m.q), 3.0, attack, "posteriori")[0]
    assert report_to_dict(report) == report_to_dict(settled)
    assert sum(solved) == sum(counted) + sum(members) and sum(counted) == doublings and not updated
    assert 0 < sum(solved) <= lone / 2


@pytest.mark.parametrize("attack", [False, True], ids=["select", "attack"])
def test_posteriori_update_takes_no_dropped_member(attack, monkeypatch):
    # a dropped member keeps its NaN covariance, and no member of an a
    # posteriori search without noiseless rows takes a measurement update:
    # the filtered run solves the a posteriori covariance itself
    rng = np.random.default_rng(61)
    m = _random_solve_model(rng, 10)
    updated = []
    posteriori = riccati._posteriori
    monkeypatch.setattr(riccati, "_posteriori", lambda *a: updated.append(a) or posteriori(*a))
    _, _, dropped = _settled_exhaustive(m, np.ones(m.q), 3.0, attack, "posteriori")
    monkeypatch.undo()
    assert dropped and not updated


def test_noiseless_posteriori_exhaustive_drops_under_the_bound():
    # noiseless sensors with W > 0 join the filtered run, which takes the
    # bound under the a posteriori metric: the search equals the no-bound
    # reference and drops members on some model.  With W singular the
    # members with sensors take Newton, which drops nothing; only the empty
    # set, which has no noiseless rows, may drop
    rng = np.random.default_rng(73)
    dropped_any = False
    for _ in range(4):
        m = _random_model(rng, psd_v=False)
        singular_w = replace(m, W=np.diag(np.concatenate([[0.0], np.diag(m.W)[1:]])))
        for attack in (False, True):
            _, scored, dropped = _settled_exhaustive(m, np.ones(m.q), float(m.q // 2), attack, "posteriori")
            dropped_any |= bool(dropped)
            assert scored
            _, scored, dropped = _settled_exhaustive(singular_w, np.ones(m.q), float(m.q // 2), attack,
                                                     "posteriori")
            kept = [set(range(m.q)).difference(s) if attack else s for _, s in dropped]
            assert scored and not any(kept)
    assert dropped_any


def test_evaluate_selection_posteriori_is_the_update_of_the_priori_solve():
    # evaluate_selection's a posteriori covariance is the filtered run's,
    # which the scorer uses; the public update of the a priori solve gives
    # the same trace to 1e-12 relative, on random-solve models and on every
    # subset of up to four sensors of both K = 1 reduction gadgets
    rng = np.random.default_rng(83)
    inst = X3CInstance(2, ((1, 2, 3), (4, 5, 6), (1, 4, 5)))
    models = [(_random_solve_model(rng, q), 3) for q in (6, 10)]
    models += [(build(inst, 1.0).model, 4) for build in (build_kfss_gadget, build_kfsa_gadget)]
    checked = 0
    for m, size in models:
        for r in range(1, size + 1):
            for support in combinations(range(m.q), r):
                sel = SelectionVector.from_support(m.q, support)
                post = evaluate_selection(m, sel, "posteriori")
                C_sel, V_sel = restrict(m, sel)
                prior = riccati.solve_dare(m.A, C_sel, m.W, V_sel)
                assert post.is_finite == prior.is_finite
                if prior.is_finite:
                    want = np.trace(riccati.posteriori_from_priori(prior.cov, C_sel, V_sel))
                    assert abs(post.trace - want) <= 1e-12 * want, (support, post.trace, want)
                    checked += 1
    assert checked >= 480


@pytest.mark.parametrize("metric", METRICS)
def test_exhaustive_takes_a_set_whose_sorted_costs_round_above_the_budget(metric):
    costs = np.array(ROUNDING_COSTS)
    m = validate_model(SystemModel(n=1, q=3, A=np.array([[0.5]]), C=np.ones((3, 1)), W=np.eye(1), V=np.eye(3),
                                   b=costs, omega=costs))
    for run in (exhaustive_select, exhaustive_attack):
        report = run(m, costs, ROUNDING_BUDGET, metric)
        assert report.chosen.support == (0, 1, 2) and report.evaluations == 9, run.__name__


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
                tables, scored = [], []

                class Table(_ScoreTable):
                    def __init__(self, *args):
                        super().__init__(*args)
                        tables.append(self)

                def spy(self, members, width):  # each chunk gathers all its members; a screen gathers more
                    if len(members) <= solvers.STACK_CHUNK:
                        scored.extend((j, kept) for _, kept, j, _ in members)
                    return rows(self, members, width)

                rows = _ScoreTable._rows
                monkeypatch.setattr(solvers, "_ScoreTable", Table)
                monkeypatch.setattr(_ScoreTable, "_rows", spy)
                ((greedy, optimal, ratio),) = greedy_and_optimal([m], budget, mode, metric)
                monkeypatch.undo()
                assert scored and len(scored) == len(set(scored)), (m.q, metric, budget)
                assert len(tables) == 1
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
    tie = _tie_model(np.random.default_rng(47))  # one unstable mode, so the bases are not empty
    tie.b = np.ones(tie.q)
    for m in (tie, build_example1(LAM, 100.0)):
        calls = []
        original = riccati._modes
        monkeypatch.setattr(riccati, "_modes", lambda A, *L: calls.append((A, *L)) or original(A, *L))
        for metric in METRICS:
            greedy_and_optimal([m, m], 2, mode, metric)
        monkeypatch.undo()
        # one per request's table, whatever its models and chunks, with W's
        # root, so that its SVDs also make the table's stabilizability test
        assert len(calls) == len(METRICS)
        assert all(A is m.A and len(L) == 1 and L[0] is not None for A, *L in calls)


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


def _spoilt(M, i, j, value):
    M = M.copy()
    M[i, j] = value
    return M


@pytest.mark.parametrize("C, V, error", [
    (_spoilt(np.eye(2), 1, 1, math.nan), np.eye(2), NonFiniteInput),
    (_spoilt(np.eye(2), 1, 0, math.inf), np.eye(2), NonFiniteInput),
    (np.eye(2), _spoilt(_spoilt(np.eye(2), 0, 1, math.nan), 1, 0, math.nan), NonFiniteInput),
    (np.eye(2), np.array([[0.5 - 5e-7, 0.5 + 5e-7], [0.5 + 5e-7, 0.5 - 5e-7]]), NotPSD),  # eigenvalues 1, -1e-6
    (np.ones((2, 3)), np.eye(2), DimensionMismatch),
], ids=["nan-in-C", "inf-in-C", "nan-in-V", "V-eigenvalue--1e-6", "C-of-wrong-width"])
def test_every_entry_point_refuses_bad_input_alike_before_any_kernel(monkeypatch, C, V, error):
    # an unvalidated model: each entry point applies validate_model's rule
    # itself, so all raise one ModelError subclass and no kernel runs
    used = []
    for name in ("_noise", "_solve_detectable", "_posteriori", "_doubling_dare", "_newton_dare", "_filtered"):
        monkeypatch.setattr(riccati, name, lambda *a, _name=name, **k: used.append(_name))
    m = SystemModel(n=2, q=2, A=np.diag([1.05, 0.5]), C=C, W=np.eye(2), V=V)
    calls = {
        "greedy_select": lambda: greedy_select(m, 1, "priori"),
        "greedy_attack": lambda: greedy_attack(m, 1, "posteriori"),
        "exhaustive_select": lambda: exhaustive_select(m, m.b, 1.0, "posteriori"),
        "exhaustive_attack": lambda: exhaustive_attack(m, m.omega, 1.0, "priori"),
        "greedy_and_optimal": lambda: greedy_and_optimal([m], 1, "select", "priori"),
        "evaluate_selection": lambda: evaluate_selection(m, SelectionVector((1, 1)), "posteriori"),
        "solve_dare": lambda: riccati.solve_dare(m.A, m.C, m.W, m.V),
        "posteriori_from_priori": lambda: riccati.posteriori_from_priori(np.eye(2), m.C, m.V),
    }
    raised = {}
    for name, call in calls.items():
        with pytest.raises(error) as exc:
            call()
        raised[name] = type(exc.value)
    assert len(set(raised.values())) == 1, raised
    assert used == []


def test_a_model_whose_rows_are_not_its_sensors_is_refused_before_any_stack(monkeypatch):
    # the table hands the door each model's C and V and the q null sensors,
    # q x n: a model of q = 2 with a third row (and a 3 x 3 V) is refused by
    # shape before the rows are stacked, alone or beside a good model
    monkeypatch.setattr(riccati, "_solve_detectable", lambda *a: pytest.fail("solved"))
    good = SystemModel(n=2, q=2, A=np.diag([1.05, 0.5]), C=np.eye(2), W=np.eye(2), V=np.eye(2))
    bad = replace(good, C=np.ones((3, 2)), V=np.eye(3))
    for call in (lambda: exhaustive_select(bad, bad.b, 1.0, "priori"), lambda: greedy_attack(bad, 1, "priori"),
                 lambda: greedy_and_optimal([good, bad], 1, "attack", "posteriori")):
        with pytest.raises(riccati.ShapeError, match=r"^C must be p x n with V p x p$"):
            call()


def test_evaluate_selection_refuses_a_model_that_every_solver_refuses(monkeypatch):
    # q = 2 with a 3 x 3 V, or with a third row of C and a 3 x 3 V: the
    # per-subset reference raises the score table's ShapeError, before any
    # kernel run, instead of scoring the block that restrict cuts out
    monkeypatch.setattr(riccati, "_solve_detectable", lambda *a: pytest.fail("solved"))
    good = SystemModel(n=2, q=2, A=np.diag([1.05, 0.5]), C=np.eye(2), W=np.eye(2), V=np.eye(2))
    for bad in (replace(good, V=np.eye(3)), replace(good, C=np.ones((3, 2)), V=np.eye(3))):
        for metric in METRICS:
            for call in (lambda: evaluate_selection(bad, SelectionVector((1, 1)), metric),
                         lambda: exhaustive_select(bad, bad.b, 2.0, metric)):
                with pytest.raises(riccati.ShapeError, match=r"^C must be p x n with V p x p$"):
                    call()


def _raw_models(seed):
    """Raw models (not validated) with W and V symmetric or not, PSD, some
    of rank below their size, whose round-off eigenvalues may be negative."""
    rng = np.random.default_rng(seed)
    for _ in range(6):
        n, q = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.3, 1.1) / max(abs(np.linalg.eigvals(A)))
        B, D = rng.standard_normal((n, n)), rng.standard_normal((q, int(rng.integers(1, q + 1))))
        W, V = B @ B.T + 0.1 * np.eye(n), D @ D.T
        if rng.random() < 0.5:  # asymmetric, with the symmetric part kept up to round-off
            T, U = rng.standard_normal((n, n)), rng.standard_normal((q, q))
            W, V = W + T - T.T, V + U - U.T
        yield SystemModel(n=n, q=q, A=A, C=rng.standard_normal((q, n)), W=W, V=V)
    yield SystemModel(n=2, q=2, A=np.diag([1.05, 0.5]), C=np.eye(2), W=np.eye(2), V=np.diag([1.0, -5e-11]))
    yield SystemModel(n=2, q=2, A=np.diag([1.05, 0.5]), C=np.eye(2), W=np.array([[1.0, 0.6], [0.0, 1.0]]),
                      V=np.array([[1.0, 0.0], [0.4, 1.0]]))


@pytest.mark.parametrize("seed", [3, 29, 2029])
def test_a_raw_model_gives_the_reports_of_its_validated_copy(seed):
    # the library answers the problem the CLI answers, bit for bit:
    # validate_model stores the symmetric parts of W and V that every solve
    # reads, round-off negative eigenvalues included
    for raw in _raw_models(seed):
        valid = validate_model(raw)
        k = raw.q // 2
        for metric in METRICS:
            runs = (lambda m: greedy_select(m, k, metric), lambda m: greedy_attack(m, k, metric),
                    lambda m: exhaustive_select(m, m.b, k, metric), lambda m: exhaustive_attack(m, m.omega, k, metric))
            for run in runs:
                assert report_to_dict(run(raw)) == report_to_dict(run(valid))
