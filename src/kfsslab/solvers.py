"""Sensor selection and attack solvers: one-step-ahead greedy, exhaustive
enumeration, and the greedy-to-optimal trace ratio.

Scores are steady-state covariance traces; infinite traces (undetectable
survivor sets) order above every finite value, which is exactly what an
attacker wants and a selector avoids.  Ties are resolved toward the lowest
sensor index (greedy) or the smallest support and lexicographically smallest
bit pattern (exhaustive).  Two candidates count as tied when their traces
agree within 1e-9 relative: mathematically equal selections can differ by
the solver's stopping error, so exact float comparison would make tie
handling depend on round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .model import AttackVector, SelectionVector, SteadyStateResult, SystemModel, complement, restrict
from .riccati import SolverOptions, check_stabilizable, dare_steady_state, posteriori_from_priori

METRICS = ("priori", "posteriori")

TIE_REL = 1e-9

EXHAUSTIVE_SENSOR_CAP = 24


class SolverInputError(ValueError):
    pass


class BudgetExceedsSensors(SolverInputError):
    pass


class NonUnitCosts(SolverInputError):
    pass


class TooManySensors(SolverInputError):
    pass


@dataclass(frozen=True)
class GreedyStep:
    """Candidate traces examined at one greedy iteration and the index taken."""

    scores: dict[int, float]
    chosen: int


@dataclass
class SolveReport:
    """Outcome of one solver run.

    ``chosen`` is the final indicator, ``trace`` its objective value
    (math.inf when the survivor pair is undetectable), ``diag`` the
    per-state errors, ``steps`` the greedy iteration log (empty for
    exhaustive runs) and ``evaluations`` the number of steady-state solves
    spent.
    """

    mode: str
    metric: str
    chosen: SelectionVector | AttackVector
    trace: float
    diag: tuple[float, ...] | None
    evaluations: int
    steps: list[GreedyStep] = field(default_factory=list)

    @property
    def greedy_order(self) -> tuple[int, ...]:
        return tuple(step.chosen for step in self.steps)


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise SolverInputError(f"metric must be one of {METRICS}, got {metric!r}")


def evaluate_selection(
    model: SystemModel, sel: SelectionVector, metric: str, opts: SolverOptions | None = None
) -> SteadyStateResult:
    """Steady-state covariance for a selection, under the requested metric.

    The posteriori metric applies the measurement update to the a priori
    fixed point; an infinite a priori result stays infinite.
    """
    _check_metric(metric)
    opts = opts or SolverOptions()
    result = dare_steady_state(model, sel, opts)
    if metric == "priori" or not result.is_finite:
        return result
    C_sel, V_sel = restrict(model, sel)
    post = posteriori_from_priori(result.cov, C_sel, V_sel, opts)
    return SteadyStateResult.finite(post, result.iterations)


def evaluate_attack(
    model: SystemModel, att: AttackVector, metric: str, opts: SolverOptions | None = None
) -> SteadyStateResult:
    """Steady-state covariance of the filter running on the surviving sensors."""
    return evaluate_selection(model, complement(att), metric, opts)


def _tied(score: float, best: float) -> bool:
    if math.isinf(best):
        return math.isinf(score)
    return abs(score - best) <= TIE_REL * max(1.0, abs(best))


def _check_stabilizable(model: SystemModel, opts: SolverOptions | None) -> None:
    # once per driver run: check_stabilizable remembers the verdict, so the
    # per-subset solves that follow skip the test
    check_stabilizable(model.A, model.W, (opts or SolverOptions()).pbh_tol)


def _require_unit_costs(costs: np.ndarray, what: str) -> None:
    if not np.all(costs == 1.0):
        raise NonUnitCosts(f"greedy requires unit {what} costs")


def _check_cardinality_budget(budget: int, q: int) -> int:
    budget = int(budget)
    if budget < 0:
        raise SolverInputError(f"budget must be nonnegative, got {budget}")
    if budget > q:
        raise BudgetExceedsSensors(f"budget {budget} exceeds sensor count {q}")
    return budget


def greedy_select(
    model: SystemModel, cardinality_budget: int, metric: str, opts: SolverOptions | None = None
) -> SolveReport:
    """Add, one at a time, the sensor whose inclusion yields the smallest
    trace, until exactly ``cardinality_budget`` sensors are selected."""
    _check_metric(metric)
    _require_unit_costs(model.b, "selection")
    budget = _check_cardinality_budget(cardinality_budget, model.q)
    _check_stabilizable(model, opts)
    picked: list[int] = []
    steps: list[GreedyStep] = []
    evaluations = 0
    for _ in range(budget):
        scores: dict[int, float] = {}
        for i in range(model.q):
            if i in picked:
                continue
            sel = SelectionVector.from_support(model.q, picked + [i])
            scores[i] = evaluate_selection(model, sel, metric, opts).trace
            evaluations += 1
        best = min(scores.values())
        j = min(i for i, s in scores.items() if _tied(s, best))
        steps.append(GreedyStep(scores=scores, chosen=j))
        picked.append(j)
    chosen = SelectionVector.from_support(model.q, picked)
    final = evaluate_selection(model, chosen, metric, opts)
    evaluations += 1
    return SolveReport(
        mode="select",
        metric=metric,
        chosen=chosen,
        trace=final.trace,
        diag=final.diag,
        evaluations=evaluations,
        steps=steps,
    )


def greedy_attack(
    model: SystemModel, cardinality_budget: int, metric: str, opts: SolverOptions | None = None
) -> SolveReport:
    """Remove, one at a time, the sensor whose removal yields the largest
    trace for the surviving set.  An infinite trace is maximal."""
    _check_metric(metric)
    _require_unit_costs(model.omega, "attack")
    budget = _check_cardinality_budget(cardinality_budget, model.q)
    _check_stabilizable(model, opts)
    picked: list[int] = []
    steps: list[GreedyStep] = []
    evaluations = 0
    for _ in range(budget):
        scores = {}
        for i in range(model.q):
            if i in picked:
                continue
            att = AttackVector.from_support(model.q, picked + [i])
            scores[i] = evaluate_attack(model, att, metric, opts).trace
            evaluations += 1
        best = max(scores.values())
        j = min(i for i, s in scores.items() if _tied(s, best))
        steps.append(GreedyStep(scores=scores, chosen=j))
        picked.append(j)
    chosen = AttackVector.from_support(model.q, picked)
    final = evaluate_attack(model, chosen, metric, opts)
    evaluations += 1
    return SolveReport(
        mode="attack",
        metric=metric,
        chosen=chosen,
        trace=final.trace,
        diag=final.diag,
        evaluations=evaluations,
        steps=steps,
    )


def _enumerate_feasible(q: int, costs: np.ndarray, budget: float):
    """Index tuples whose cost sum is within budget, by size, then in
    lexicographic order.

    Sums are compared with a 1e-9 relative allowance, so that 0.1 + 0.2
    fits a budget of 0.3.  Enumeration stops at the first size whose
    cheapest subsets, at that size or any larger one, exceed the budget.
    """
    limit = budget + 1e-9 * max(1.0, abs(budget))
    cheapest = np.cumsum(np.sort(costs))
    # cheapest subset of size r or larger (costs may be negative)
    floor = np.minimum.accumulate(cheapest[::-1])[::-1]
    for r in range(q + 1):
        if r and floor[r - 1] > limit:
            return
        for combo in combinations(range(q), r):
            if sum(costs[i] for i in combo) <= limit:
                yield combo


def exhaustive_select(
    model: SystemModel,
    costs,
    budget: float,
    metric: str,
    opts: SolverOptions | None = None,
) -> SolveReport:
    """Exact optimum by enumerating every selection within budget.

    Supports arbitrary nonnegative costs and real budgets.  Ties resolve to
    the smallest support, then the lexicographically smallest bit pattern.
    """
    _check_metric(metric)
    if model.q > EXHAUSTIVE_SENSOR_CAP:
        raise TooManySensors(f"refusing 2^{model.q} subsets (cap {EXHAUSTIVE_SENSOR_CAP})")
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (model.q,):
        raise SolverInputError(f"costs must have length {model.q}")
    _check_stabilizable(model, opts)
    scored = []
    for combo in _enumerate_feasible(model.q, costs, budget):
        sel = SelectionVector.from_support(model.q, combo)
        scored.append((evaluate_selection(model, sel, metric, opts).trace, sel))
    if not scored:
        raise SolverInputError("no feasible selection within budget")
    best = min(t for t, _ in scored)
    chosen = min(
        (sel for t, sel in scored if _tied(t, best)),
        key=lambda s: (s.count, s.bits),
    )
    final = evaluate_selection(model, chosen, metric, opts)
    return SolveReport(
        mode="select",
        metric=metric,
        chosen=chosen,
        trace=final.trace,
        diag=final.diag,
        evaluations=len(scored) + 1,
    )


def exhaustive_attack(
    model: SystemModel,
    costs,
    budget: float,
    metric: str,
    opts: SolverOptions | None = None,
) -> SolveReport:
    """Exact worst-case attack by enumerating every removal set within budget."""
    _check_metric(metric)
    if model.q > EXHAUSTIVE_SENSOR_CAP:
        raise TooManySensors(f"refusing 2^{model.q} subsets (cap {EXHAUSTIVE_SENSOR_CAP})")
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (model.q,):
        raise SolverInputError(f"costs must have length {model.q}")
    _check_stabilizable(model, opts)
    scored = []
    for combo in _enumerate_feasible(model.q, costs, budget):
        att = AttackVector.from_support(model.q, combo)
        scored.append((evaluate_attack(model, att, metric, opts).trace, att))
    if not scored:
        raise SolverInputError("no feasible attack within budget")
    best = max(t for t, _ in scored)
    chosen = min(
        (att for t, att in scored if _tied(t, best)),
        key=lambda a: (a.count, a.bits),
    )
    final = evaluate_attack(model, chosen, metric, opts)
    return SolveReport(
        mode="attack",
        metric=metric,
        chosen=chosen,
        trace=final.trace,
        diag=final.diag,
        evaluations=len(scored) + 1,
    )


def greedy_ratio(
    model: SystemModel,
    budget: int,
    mode: str,
    metric: str,
    opts: SolverOptions | None = None,
) -> float:
    """Suboptimality ratio of greedy against the exhaustive optimum.

    Selection mode returns trace(greedy) / trace(optimum); attack mode
    returns trace(optimum) / trace(greedy), so the ratio is >= 1 either way.
    With exactly one side infinite the ratio is +inf; with both infinite it
    is 1.
    """
    if mode == "select":
        num = greedy_select(model, budget, metric, opts).trace
        den = exhaustive_select(model, model.b, float(budget), metric, opts).trace
    elif mode == "attack":
        num = exhaustive_attack(model, model.omega, float(budget), metric, opts).trace
        den = greedy_attack(model, budget, metric, opts).trace
    else:
        raise SolverInputError(f"mode must be 'select' or 'attack', got {mode!r}")
    if math.isinf(num) and math.isinf(den):
        return 1.0
    if math.isinf(num) or math.isinf(den):
        return math.inf
    if den == 0.0:
        return 1.0 if num == 0.0 else math.inf
    return num / den


def report_to_dict(report: SolveReport) -> dict:
    """JSON-ready form of a report; sensor ids are 1-based, infinite traces
    are encoded as null plus an ``infinite`` flag."""
    finite = math.isfinite(report.trace)
    return {
        "mode": report.mode,
        "metric": report.metric,
        "bits": list(report.chosen.bits),
        "support": [i + 1 for i in report.chosen.support],
        "trace": report.trace if finite else None,
        "infinite": not finite,
        "diag": list(report.diag) if report.diag is not None else None,
        "evaluations": report.evaluations,
        "steps": [
            {
                "scores": {
                    str(i + 1): (s if math.isfinite(s) else None) for i, s in step.scores.items()
                },
                "chosen": step.chosen + 1,
            }
            for step in report.steps
        ],
    }
