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
step, or all the sets an exhaustive search reads at once, go to the
riccati module's batched kernels in chunks of at most STACK_CHUNK members.
A chunk pads its smaller sets with a null sensor (see _score), so it is
one (C, V) stack and one kernel run; a padded member agrees with its lone
solve to round-off, and any other keeps its bits.  An attack is scored
through its survivor set.  Scores are kept in a table for one (model,
metric), so a run solves each survivor set at most once.
greedy_and_optimal takes a sequence of models that share A and W, such as
a sweep's grid points: each model's greedy and exhaustive runs share one
table, and the sets both runs are known to read are scored for all models
at once, in one stack whose chunks mix the subset sizes.  Every public
solver checks its input and tests stabilizability once, uncached, before
it solves anything; the private drivers do neither.  Adding a sensor
never raises the trace, so the exhaustive search solves only the
inclusion-maximal feasible sets, and then the subsets of tied sets that the
smallest-support tie rule needs, less those one sensor short of a scored
set that is not tied, which cannot tie either.  A report's trace and
covariance diagonal are those of the stack member that scored the chosen
indicator; a greedy run with budget 0 scores its one indicator as a stack
of one, and nothing is solved twice.  evaluate_selection is the per-subset
reference that the scorer agrees with, not a path the drivers take.
Select and attack share one greedy and one exhaustive driver, which differ
only in direction: minimize over selections, or maximize over survivor
sets.  They also share one indicator type (AttackVector is
SelectionVector); a report's mode says whether its bits mark selected or
removed sensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import riccati
from .model import SelectionVector, SteadyStateResult, SystemModel, as_integer, restrict
from .model import complement  # unused here; perfbench's tracer patches solvers.complement
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


def _score(members) -> tuple[list[float], np.ndarray]:
    """Traces and covariance diagonals of evaluate_selection for members
    (table, sorted support), solved as stacks of at most STACK_CHUNK
    members.  The tables may differ if their models share A, W and the
    sensor count, and the tables the metric.  The supports may differ in
    size: a chunk pads each to its widest with null sensors (zero rows of C
    with unit, uncorrelated noise; see the riccati module), so each chunk
    is one PBH test, one kernel run and one measurement update.

    Undetectable members score math.inf, with a NaN diagonal, without a
    solve.  Every member gets the per-subset solve's tests and kernel, so
    the results agree with evaluate_selection to round-off.
    """
    tables = list(dict.fromkeys(table for table, _ in members))
    model, metric = tables[0].model, tables[0].metric
    if any(t.metric != metric or t.model.q != model.q or not np.array_equal(t.model.A, model.A)
           or not np.array_equal(t.model.W, model.W) for t in tables[1:]):
        raise ValueError("tables scored together must share A, W, the sensor count and the metric")
    # the tables' rows of C, V and the mode images, then the null sensor (-1)
    offset = {table: i * model.q for i, table in enumerate(tables)}
    C_all = np.concatenate([t.model.C for t in tables] + [np.zeros((1, model.n))])
    V_all = np.zeros((len(C_all), model.q + 1))
    V_all[:-1, :-1] = np.concatenate([t.model.V for t in tables])
    V_all[-1, -1] = 1.0
    images = [np.concatenate(parts + (np.zeros((1, parts[0].shape[1])),)) for parts in zip(*(t.images for t in tables))]
    traces = np.full(len(members), math.inf)
    diags = np.full((len(members), model.n), math.nan)
    for lo in range(0, len(members), STACK_CHUNK):
        chunk = members[lo:lo + STACK_CHUNK]
        width = max(len(s) for _, s in chunk)
        idx = np.array([s + (-1,) * (width - len(s)) for _, s in chunk], dtype=np.intp)
        rows = np.where(idx < 0, -1, idx + [[offset[table]] for table, _ in chunk])
        finite = riccati._detectable(images, rows)
        if not finite.any():
            continue
        row, col = rows[finite], idx[finite]
        C, V = C_all[row], V_all[row[:, :, None], col[:, None, :]]
        S, _, noise = riccati._solve_detectable(model.A, model.W, C, V)
        if metric == "posteriori":
            S = riccati._posteriori(S, C, V, noise)
        at = lo + np.flatnonzero(finite)
        traces[at] = np.trace(S, axis1=1, axis2=2)
        diags[at] = S.diagonal(axis1=1, axis2=2)
    return traces.tolist(), diags


class _ScoreTable:
    """Trace and covariance diagonal of each kept support, for one (model,
    metric), and the model's PBH mode images.  A request solves only the
    supports the table lacks, through _fill; stack members are solved
    independently, so a stored score is the one a fresh stack would give."""

    def __init__(self, model: SystemModel, metric: str):
        self.model, self.metric = model, metric
        self.images = riccati._mode_images(model.A, model.C)
        self.scores: dict[tuple[int, ...], tuple[float, np.ndarray]] = {}

    def __call__(self, supports) -> list[tuple[float, np.ndarray]]:
        supports = [tuple(s) for s in supports]
        _fill([(self, s) for s in supports])
        return [self.scores[s] for s in supports]


def _fill(members) -> None:
    """Score the (table, sorted support tuple) members that their table
    lacks, in one _score call whose stacks mix the tables and the sizes."""
    tables = list(dict.fromkeys(table for table, _ in members))
    order = {table: t for t, table in enumerate(tables)}
    missing = sorted({(len(s), s, order[table]) for table, s in members if s not in table.scores})
    if missing:
        members = [(tables[t], s) for _, s, t in missing]
        for (table, s), trace, diag in zip(members, *_score(members)):
            table.scores[s] = trace, diag


def _kept(q: int, combo, attack: bool) -> list[int]:
    """Sensors the filter runs on: the selection, or the attack's survivors."""
    return [i for i in range(q) if i not in combo] if attack else sorted(combo)


def _tied(score: float, best: float) -> bool:
    if math.isinf(best):
        return math.isinf(score)
    return abs(score - best) <= TIE_REL * max(1.0, abs(best))


def _check_cardinality_budget(model: SystemModel, budget, attack: bool) -> int:
    """The checked budget of a greedy run, whose costs must be unit ones."""
    costs, what = (model.omega, "attack") if attack else (model.b, "selection")
    if not np.all(costs == 1.0):
        raise NonUnitCosts(f"greedy requires unit {what} costs")
    budget = as_integer(budget, "cardinality budget", SolverInputError)
    if budget < 0:
        raise SolverInputError(f"budget must be nonnegative, got {budget}")
    if budget > model.q:
        raise BudgetExceedsSensors(f"budget {budget} exceeds sensor count {model.q}")
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


def _greedy(table: _ScoreTable, budget: int, attack: bool) -> SolveReport:
    """Grow the selection (or the attack) one sensor at a time, taking the
    candidate with the smallest (largest) trace; ties go to the lowest index.
    Scores come from ``table``, the budget from _check_cardinality_budget."""
    model, metric = table.model, table.metric
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
    the first size whose cheapest subset exceeds the budget.  Sums add
    Python floats left to right, the bits of a sum of numpy scalars (the
    builtin sum compensates float sums from Python 3.12 on).
    """
    limit = budget + 1e-9 * max(1.0, abs(budget))
    cheapest = np.cumsum(np.sort(costs))
    costs = costs.tolist()
    for r in range(q + 1):
        if r and cheapest[r - 1] > limit:
            return
        for combo in combinations(range(q), r):
            total = 0.0
            for i in combo:
                total += costs[i]
            if total <= limit:
                yield combo


def _maximal_feasible(model: SystemModel, costs, budget: float, attack: bool) -> tuple[int, list]:
    """The number of feasible indicators of an exhaustive run, and the
    inclusion-maximal ones, those no further sensor fits into, after
    checking the run's input."""
    if model.q > EXHAUSTIVE_SENSOR_CAP:
        raise TooManySensors(f"refusing 2^{model.q} subsets (cap {EXHAUSTIVE_SENSOR_CAP})")
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (model.q,):
        raise SolverInputError(f"costs must have length {model.q}")
    if np.any(costs < 0.0):
        raise SolverInputError("costs must be nonnegative")
    feasible = list(_enumerate_feasible(model.q, costs, budget))
    if not feasible:
        raise SolverInputError(f"no feasible {'attack' if attack else 'selection'} within budget")
    # the sets one sensor short of a feasible set, which are not maximal
    covered = {f[:j] + f[j + 1:] for f in feasible for j in range(len(f))}
    return len(feasible), [c for c in feasible if c not in covered]


def _exhaustive(table: _ScoreTable, n_feasible: int, maximal, attack: bool) -> SolveReport:
    """Keep the feasible selection (attack) with the smallest (largest)
    trace; ties go to the smallest support, then the lexicographically
    smallest bit pattern.  Scores come from ``table``, the count of feasible
    indicators and the maximal ones from _maximal_feasible.

    Adding a sensor never raises a selection's trace (never lowers an
    attack's), so the optimum lies at an inclusion-maximal feasible set, and
    only those are scored for it.  A tied set lies in a tied maximal set and
    every set between them is tied, so a walk down from the tied maximal
    sets through subsets of tied sets, one size at a time, meets every tied
    set.  Nonnegative costs keep subsets of feasible sets feasible.

    The walk skips every candidate one sensor short of a scored set that
    is not tied: the table holds feasible sets only (greedy_and_optimal's
    greedy sets fit the same unit-cost budget), so that set's trace lies
    beyond the best, and by monotonicity the candidate's does too.
    """
    model = table.model

    def traces(combos):
        return [trace for trace, _ in table([_kept(model.q, c, attack) for c in combos])]

    def settled(combo) -> bool:
        supersets = (table.scores.get(tuple(_kept(model.q, combo + (i,), attack)))
                     for i in range(model.q) if i not in combo)
        return any(s is not None and not _tied(s[0], best) for s in supersets)

    scores = traces(maximal)
    best = (max if attack else min)(scores)
    tied = [c for c, t in zip(maximal, scores) if _tied(t, best)]
    lowest = min(map(len, tied))
    level: list[tuple[int, ...]] = []
    for size in range(max(map(len, tied)), -1, -1):
        below = sorted({c[:j] + c[j + 1:] for c in level for j in range(len(c))})
        below = [c for c in below if not settled(c)]
        level = [c for c, t in zip(below, traces(below)) if _tied(t, best)]
        level += [c for c in tied if len(c) == size]
        if level:
            smallest = level
        elif size < lowest:
            break
    combo = min(smallest, key=lambda c: SelectionVector.from_support(model.q, c).bits)
    ((trace, diag),) = table([_kept(model.q, combo, attack)])
    return _report(model, attack, combo, table.metric, trace, diag, n_feasible + 1, [])


def _tables(models, metric: str) -> list[_ScoreTable]:
    """A fresh score table for each of ``models``, which share A and W, after
    checking the metric and testing once that (A, W^1/2) is stabilizable."""
    _check_metric(metric)
    riccati.check_stabilizable(models[0].A, models[0].W)
    return [_ScoreTable(m, metric) for m in models]


def greedy_select(model: SystemModel, cardinality_budget: int, metric: str) -> SolveReport:
    """Add, one at a time, the sensor whose inclusion yields the smallest
    trace, until exactly ``cardinality_budget`` sensors are selected."""
    budget = _check_cardinality_budget(model, cardinality_budget, attack=False)
    return _greedy(_tables([model], metric)[0], budget, attack=False)


def greedy_attack(model: SystemModel, cardinality_budget: int, metric: str) -> SolveReport:
    """Remove, one at a time, the sensor whose removal yields the largest
    trace for the surviving set.  An infinite trace is maximal."""
    budget = _check_cardinality_budget(model, cardinality_budget, attack=True)
    return _greedy(_tables([model], metric)[0], budget, attack=True)


def exhaustive_select(model: SystemModel, costs, budget: float, metric: str) -> SolveReport:
    """Exact optimum over every selection within budget.

    Supports arbitrary nonnegative costs (a negative one raises
    SolverInputError) and real budgets.  Ties resolve to the smallest
    support, then the lexicographically smallest bit pattern.
    """
    search = _maximal_feasible(model, costs, budget, attack=False)
    return _exhaustive(_tables([model], metric)[0], *search, attack=False)


def exhaustive_attack(model: SystemModel, costs, budget: float, metric: str) -> SolveReport:
    """Exact worst-case attack over every removal set within budget, for
    nonnegative costs; ties resolve as in exhaustive_select."""
    search = _maximal_feasible(model, costs, budget, attack=True)
    return _exhaustive(_tables([model], metric)[0], *search, attack=True)


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
    models, budget: int, mode: str, metric: str
) -> list[tuple[SolveReport, SolveReport, float]]:
    """Greedy and exhaustive reports for one cardinality budget, and the
    suboptimality ratio of greedy against the exhaustive optimum, for each
    of the sequence ``models`` (one model is a list of one).  The models
    must share A, W and the sensor count, else _score raises ValueError
    before any solve.

    Selection mode returns trace(greedy) / trace(optimum); attack mode
    returns trace(optimum) / trace(greedy), so the ratio is >= 1 either way.
    With exactly one side infinite the ratio is +inf; with both infinite it
    is 1.

    Every input is checked, and stabilizability tested once, before any
    solve.  Each model's two drivers share one score table, so no set is
    solved twice for a model.  The sets greedy's first step reads and the
    maximal sets exhaustive search reads are scored first, for all models
    and both sizes as one stack; greedy's later steps and the tie walk
    score what their table still lacks.
    """
    if mode not in ("select", "attack"):
        raise SolverInputError(f"mode must be 'select' or 'attack', got {mode!r}")
    attack = mode == "attack"
    if not models:
        return []
    for m in models:
        k = _check_cardinality_budget(m, budget, attack)
    q = models[0].q
    # greedy's unit costs make every model's feasible sets the same
    n_feasible, maximal = _maximal_feasible(models[0], np.ones(q), float(k), attack)
    tables = _tables(models, metric)
    first = [(i,) for i in range(q)] if k else [()]
    _fill([(table, tuple(_kept(q, c, attack))) for table in tables for c in first + maximal])
    out = []
    for table in tables:
        greedy, optimal = _greedy(table, k, attack), _exhaustive(table, n_feasible, maximal, attack)
        ratio = trace_ratio(optimal.trace, greedy.trace) if attack else trace_ratio(greedy.trace, optimal.trace)
        out.append((greedy, optimal, ratio))
    return out


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
