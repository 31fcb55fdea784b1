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

Each driver scores its candidates in stacks: all candidates of one greedy
step, or all candidates of one size in an exhaustive search, go to the
riccati module's batched kernels in chunks of at most STACK_CHUNK members.
An attack is scored through its survivor set.  Scores are kept in a table
for one (model, metric), so a run solves each survivor set at most
once; greedy_and_optimal passes one table to both drivers.  Adding a sensor
never raises the trace, so the exhaustive search solves only the
inclusion-maximal feasible sets, and then the subsets of tied sets that the
smallest-support tie rule needs.  A report's trace and covariance diagonal
are those of the stack member that scored the chosen indicator; a greedy
run with budget 0 scores its one indicator as a stack of one, and nothing
is solved twice.  evaluate_selection is the per-subset reference that the
scorer agrees with, not a path the drivers take.  Select and attack share
one greedy and one exhaustive driver, which differ only in direction:
minimize over selections, or maximize over survivor sets.  They also share
one indicator type (AttackVector is SelectionVector); a report's mode says
whether its bits mark selected or removed sensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, groupby

import numpy as np

from . import riccati
from .model import AttackVector, SelectionVector, SteadyStateResult, SystemModel, complement, restrict
from .riccati import posteriori_from_priori

METRICS = ("priori", "posteriori")

TIE_REL = 1e-9

EXHAUSTIVE_SENSOR_CAP = 24

# Candidates are solved in stacks of at most this many members, which bounds
# the memory a greedy step or an exhaustive layer holds at once.
STACK_CHUNK = 64


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

    ``chosen`` is the final indicator (the removed sensors when ``mode`` is
    "attack"), ``trace`` its objective value
    (math.inf when the survivor pair is undetectable), ``diag`` the
    per-state errors, ``steps`` the greedy iteration log (empty for
    exhaustive runs) and ``evaluations`` the number of candidates, those of
    every greedy step or every feasible indicator, plus one for the chosen
    indicator.  It counts candidates, not solves.
    """

    mode: str
    metric: str
    chosen: SelectionVector
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


def evaluate_selection(model: SystemModel, sel: SelectionVector, metric: str) -> SteadyStateResult:
    """Steady-state covariance for a selection, under the requested metric.

    The posteriori metric applies the measurement update to the a priori
    fixed point; an infinite a priori result stays infinite.
    """
    _check_metric(metric)
    C_sel, V_sel = restrict(model, sel)
    result = riccati.solve_dare(model.A, C_sel, model.W, V_sel)
    if metric == "priori" or not result.is_finite:
        return result
    post = posteriori_from_priori(result.cov, C_sel, V_sel)
    return SteadyStateResult.finite(post, result.iterations)


def evaluate_attack(model: SystemModel, att: AttackVector, metric: str) -> SteadyStateResult:
    """Steady-state covariance of the filter running on the surviving sensors."""
    return evaluate_selection(model, complement(att), metric)


def _score(model: SystemModel, supports, metric: str) -> tuple[list[float], np.ndarray]:
    """Traces and covariance diagonals of evaluate_selection for same-size
    sorted supports, solved as stacks of at most STACK_CHUNK members.

    Undetectable members score math.inf, with a NaN diagonal, without a
    solve.  Every member gets the per-subset solve's tests and kernel, so
    the results agree with evaluate_selection to round-off.
    """
    idx = np.array(supports, dtype=np.intp).reshape(len(supports), -1)
    modes = riccati._unstable_modes(model.A)
    traces = np.full(len(idx), math.inf)
    diags = np.full((len(idx), model.n), math.nan)
    for lo in range(0, len(idx), STACK_CHUNK):
        chunk = idx[lo:lo + STACK_CHUNK]
        C = model.C[chunk]
        V = model.V[chunk[:, :, None], chunk[:, None, :]]
        finite = riccati._detectable(model.A, C, modes)
        if not finite.any():
            continue
        C, V = C[finite], V[finite]
        S, _ = riccati._solve_detectable(model.A, C, model.W, V)
        if metric == "posteriori":
            S = riccati._posteriori(S, C, V)
        at = lo + np.flatnonzero(finite)
        traces[at] = np.trace(S, axis1=1, axis2=2)
        diags[at] = S.diagonal(axis1=1, axis2=2)
    return traces.tolist(), diags


class _ScoreTable:
    """Trace and covariance diagonal of each kept support, for one (model,
    metric).  A request solves only the supports the table lacks,
    grouped by size, through _score; stack members are solved independently,
    so a stored score is the one a fresh stack would give."""

    def __init__(self, model: SystemModel, metric: str):
        self.model, self.metric = model, metric
        self.scores: dict[tuple[int, ...], tuple[float, np.ndarray]] = {}

    def __call__(self, supports) -> list[tuple[float, np.ndarray]]:
        supports = [tuple(s) for s in supports]
        missing = sorted(set(supports) - self.scores.keys(), key=lambda s: (len(s), s))
        for _, group in groupby(missing, key=len):
            group = list(group)
            traces, diags = _score(self.model, group, self.metric)
            self.scores.update(zip(group, zip(traces, diags)))
        return [self.scores[s] for s in supports]


def _kept(q: int, combo, attack: bool) -> list[int]:
    """Sensors the filter runs on: the selection, or the attack's survivors."""
    return [i for i in range(q) if i not in combo] if attack else sorted(combo)


def _tied(score: float, best: float) -> bool:
    if math.isinf(best):
        return math.isinf(score)
    return abs(score - best) <= TIE_REL * max(1.0, abs(best))


def _check_cardinality_budget(budget: int, q: int) -> int:
    if not float(budget).is_integer():
        raise SolverInputError(f"cardinality budget must be an integer, got {budget}")
    budget = int(budget)
    if budget < 0:
        raise SolverInputError(f"budget must be nonnegative, got {budget}")
    if budget > q:
        raise BudgetExceedsSensors(f"budget {budget} exceeds sensor count {q}")
    return budget


def _report(model, attack: bool, combo, metric, trace, diag, evaluations, steps) -> SolveReport:
    """Wrap a run up around the chosen indicator and the trace and diagonal
    it scored."""
    return SolveReport(
        mode="attack" if attack else "select",
        metric=metric,
        chosen=SelectionVector.from_support(model.q, combo),
        trace=trace,
        diag=None if math.isinf(trace) else tuple(diag.tolist()),
        evaluations=evaluations,
        steps=steps,
    )


def _greedy(model, cardinality_budget, metric, attack: bool, table: _ScoreTable | None = None) -> SolveReport:
    """Grow the selection (or the attack) one sensor at a time, taking the
    candidate with the smallest (largest) trace; ties go to the lowest index.
    Scores come from ``table``, a fresh one by default."""
    _check_metric(metric)
    costs, what = (model.omega, "attack") if attack else (model.b, "selection")
    if not np.all(costs == 1.0):
        raise NonUnitCosts(f"greedy requires unit {what} costs")
    budget = _check_cardinality_budget(cardinality_budget, model.q)
    riccati.check_stabilizable(model.A, model.W)
    table = table or _ScoreTable(model, metric)
    if not budget:
        ((trace, diag),) = table([_kept(model.q, [], attack)])
        return _report(model, attack, [], metric, trace, diag, 1, [])
    better = max if attack else min
    picked: list[int] = []
    steps: list[GreedyStep] = []
    for _ in range(budget):
        candidates = [i for i in range(model.q) if i not in picked]
        scored = table([_kept(model.q, picked + [i], attack) for i in candidates])
        traces = [trace for trace, _ in scored]
        best = better(traces)
        k = min(c for c, t in enumerate(traces) if _tied(t, best))  # candidates ascend
        steps.append(GreedyStep(scores=dict(zip(candidates, traces)), chosen=candidates[k]))
        picked.append(candidates[k])
    evaluations = sum(len(step.scores) for step in steps) + 1
    return _report(model, attack, picked, metric, *scored[k], evaluations, steps)


def _enumerate_feasible(q: int, costs: np.ndarray, budget: float):
    """Index tuples whose cost sum is within budget, by size, then in
    lexicographic order.

    Sums are compared with a 1e-9 relative allowance, so that 0.1 + 0.2
    fits a budget of 0.3.  Costs are nonnegative, so enumeration stops at
    the first size whose cheapest subset exceeds the budget.
    """
    limit = budget + 1e-9 * max(1.0, abs(budget))
    cheapest = np.cumsum(np.sort(costs))
    for r in range(q + 1):
        if r and cheapest[r - 1] > limit:
            return
        for combo in combinations(range(q), r):
            if sum(costs[i] for i in combo) <= limit:
                yield combo


def _exhaustive(model, costs, budget, metric, attack: bool, table: _ScoreTable | None = None) -> SolveReport:
    """Keep the feasible selection (attack) with the smallest (largest)
    trace; ties go to the smallest support, then the lexicographically
    smallest bit pattern.  Scores come from ``table``, a fresh one by default.

    Adding a sensor never raises a selection's trace (never lowers an
    attack's), so the optimum lies at an inclusion-maximal feasible set, one
    no further sensor fits into, and only those are scored for it.  A tied
    set lies in a tied maximal set and every set between them is tied, so a
    walk down from the tied maximal sets through subsets of tied sets, one
    size at a time, meets every tied set.  Nonnegative costs keep subsets of
    feasible sets feasible.
    """
    _check_metric(metric)
    if model.q > EXHAUSTIVE_SENSOR_CAP:
        raise TooManySensors(f"refusing 2^{model.q} subsets (cap {EXHAUSTIVE_SENSOR_CAP})")
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (model.q,):
        raise SolverInputError(f"costs must have length {model.q}")
    if np.any(costs < 0.0):
        raise SolverInputError("costs must be nonnegative")
    riccati.check_stabilizable(model.A, model.W)
    table = table or _ScoreTable(model, metric)
    feasible = list(_enumerate_feasible(model.q, costs, budget))
    if not feasible:
        raise SolverInputError(f"no feasible {'attack' if attack else 'selection'} within budget")
    fits = {sum(1 << i for i in c): c for c in feasible}  # keyed by bit mask
    maximal = [
        c for mask, c in fits.items() if all(mask | 1 << i not in fits for i in range(model.q) if i not in c)
    ]

    def traces(combos):
        return [trace for trace, _ in table([_kept(model.q, c, attack) for c in combos])]

    scores = traces(maximal)
    best = (max if attack else min)(scores)
    tied = [c for c, t in zip(maximal, scores) if _tied(t, best)]
    lowest = min(map(len, tied))
    level: list[tuple[int, ...]] = []
    for size in range(max(map(len, tied)), -1, -1):
        below = sorted({c[:j] + c[j + 1:] for c in level for j in range(len(c))})
        level = [c for c, t in zip(below, traces(below)) if _tied(t, best)]
        level += [c for c in tied if len(c) == size]
        if level:
            smallest = level
        elif size < lowest:
            break
    combo = min(smallest, key=lambda c: SelectionVector.from_support(model.q, c).bits)
    ((trace, diag),) = table([_kept(model.q, combo, attack)])
    return _report(model, attack, combo, metric, trace, diag, len(feasible) + 1, [])


def greedy_select(model: SystemModel, cardinality_budget: int, metric: str) -> SolveReport:
    """Add, one at a time, the sensor whose inclusion yields the smallest
    trace, until exactly ``cardinality_budget`` sensors are selected."""
    return _greedy(model, cardinality_budget, metric, attack=False)


def greedy_attack(model: SystemModel, cardinality_budget: int, metric: str) -> SolveReport:
    """Remove, one at a time, the sensor whose removal yields the largest
    trace for the surviving set.  An infinite trace is maximal."""
    return _greedy(model, cardinality_budget, metric, attack=True)


def exhaustive_select(model: SystemModel, costs, budget: float, metric: str) -> SolveReport:
    """Exact optimum over every selection within budget.

    Supports arbitrary nonnegative costs (a negative one raises
    SolverInputError) and real budgets.  Ties resolve to the smallest
    support, then the lexicographically smallest bit pattern.
    """
    return _exhaustive(model, costs, budget, metric, attack=False)


def exhaustive_attack(model: SystemModel, costs, budget: float, metric: str) -> SolveReport:
    """Exact worst-case attack over every removal set within budget, for
    nonnegative costs; ties resolve as in exhaustive_select."""
    return _exhaustive(model, costs, budget, metric, attack=True)


def trace_ratio(num: float, den: float) -> float:
    """num / den for traces that may be infinite or zero: 1 when both are
    infinite (or both zero), +inf when exactly one side is infinite or only
    the denominator is zero."""
    if math.isinf(num) and math.isinf(den):
        return 1.0
    if math.isinf(num) or math.isinf(den):
        return math.inf
    if den == 0.0:
        return 1.0 if num == 0.0 else math.inf
    return num / den


def greedy_and_optimal(
    model: SystemModel, budget: int, mode: str, metric: str
) -> tuple[SolveReport, SolveReport, float]:
    """Greedy and exhaustive reports for one cardinality budget, and the
    suboptimality ratio of greedy against the exhaustive optimum.

    Selection mode returns trace(greedy) / trace(optimum); attack mode
    returns trace(optimum) / trace(greedy), so the ratio is >= 1 either way.
    With exactly one side infinite the ratio is +inf; with both infinite it
    is 1.
    """
    if mode not in ("select", "attack"):
        raise SolverInputError(f"mode must be 'select' or 'attack', got {mode!r}")
    attack = mode == "attack"
    table = _ScoreTable(model, metric)
    greedy = _greedy(model, budget, metric, attack, table)
    costs = model.omega if attack else model.b
    optimal = _exhaustive(model, costs, float(budget), metric, attack, table)
    if attack:
        return greedy, optimal, trace_ratio(optimal.trace, greedy.trace)
    return greedy, optimal, trace_ratio(greedy.trace, optimal.trace)


def greedy_ratio(model: SystemModel, budget: int, mode: str, metric: str) -> float:
    """The ratio of greedy_and_optimal, which is >= 1 in both modes."""
    return greedy_and_optimal(model, budget, mode, metric)[2]


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
