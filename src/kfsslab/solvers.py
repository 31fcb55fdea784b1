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

Select and attack share one greedy and one exhaustive search, and one
indicator type (AttackVector is SelectionVector); a report's mode says
whether its bits mark selected or removed sensors.  Only the score table
(_ScoreTable) knows the direction: it is keyed by indicators, scores an
attack through its survivor set, picks the better trace, applies a
request's bound and builds the reports.  Each public call keeps one table
for all its models, so a run solves each survivor set at most once per
model.  The table solves in stacks: all candidates of one greedy step, or
all the sets an exhaustive search reads at once, go to the riccati
module's batched kernels in chunks of at most STACK_CHUNK members.  A
chunk pads its smaller sets with null sensors, one per pad slot, so it is
one (C, V) stack and one kernel run; a padded member agrees with its lone
solve to round-off, and any other keeps its bits.
greedy_and_optimal takes a sequence of models that share A and W, such as
a sweep's grid points: both drivers of every model read the table, and
the sets both are known to read are scored for all models at once, in
one stack whose chunks mix the subset sizes.  Every public solver checks
its input and stabilizability at riccati's one door (_request), once per
request, before it enumerates or solves.  Adding a sensor never
raises the trace, so the exhaustive search solves only the maximal
feasible sets (by inclusion; counted, not listed, at sizes whose sets
all fit: _maximal_feasible), and then the subsets of tied sets that the
smallest-support tie rule needs, less those one sensor short of a scored
set that is not tied, which cannot tie either.  The search also passes
a bound, the neutral one for the maximal sets and the best trace for
each walk level, which drops inside the doubling every member whose
certified trace interval can neither beat nor tie the optimum (Narendra
& Fukunaga's monotone bound, 1977; see _ScoreTable._settle).  A request
that lacks more members than one chunk screens them first, on the
monotone Riccati recursion (Anderson & Moore, 1979): a selection on its
second iterate from zero (riccati._floor), an attack on the full set's
solution updated by each survivor set as a rank-r restore of the removed
rows, and on the cost of that update's gain (Kleinman, 1968; Hewer,
1971; riccati._bracket).  Its members are one index array, and each bound
forms its products once, so a member costs a gather, one r x r solve and
rank-r products (_ScoreTable._screen).  They are solved best first, and
before each chunk the same rule drops every member whose bracket can
neither beat nor tie the incumbent.  The table passes its metric to the
kernel run, which solves an equation in that metric and certifies
intervals in it (see riccati._solve_detectable): an a posteriori run
solves the a posteriori covariance itself, so no member needs an update
after it.  A dropped member is stored as None: it counts as not tied, and
a request without a bound, a greedy step or a report, solves it.  Greedy
and greedy_and_optimal's joint first scoring screen nothing, and inside
the kernel the Newton members, an a priori request's members with
noiseless rows, and the closed-form members of an A with one nonzero
column (every paper instance) drop nothing.
A report's trace and covariance diagonal are those of the stack member
that scored the chosen indicator, and nothing is solved twice.
evaluate_selection is the per-subset reference, riccati.solve_dare's
kernel run of a stack of one, not a path the searches take.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from . import riccati
from .model import SelectionVector, SteadyStateResult, SystemModel, as_integer, restrict
from .model import complement  # unused here; perfbench's tracer patches solvers.complement
from .riccati import posteriori_from_priori  # unused here; perfbench's tracer patches solvers.posteriori_from_priori

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
    """Steady-state covariance for a selection, under the requested metric,
    from riccati.solve_dare: the kernel run that scores the selection in a
    stack of one, so a report's trace is this one's bit for bit.  Under
    "posteriori" that run solves the a posteriori equation itself, and
    agrees with posteriori_from_priori of the a priori covariance to
    round-off; an undetectable selection is infinite under either metric.
    A C or V without q rows raises the score table's ShapeError first.
    """
    _check_metric(metric)
    riccati._check_shapes(model.A, [model.C, np.zeros((model.q,) + model.A.shape[1:])], model.W, [model.V])
    C_sel, V_sel = restrict(model, sel)
    return riccati.solve_dare(model.A, C_sel, model.W, V_sel, metric == "posteriori")


class _ScoreTable:
    """Trace and covariance diagonal of each indicator of one request,
    keyed by (j, support), j the index of the indicator's model and support
    its sorted sensor indices, or None for one that a bound dropped.  An
    attack indicator is scored through its survivor set.

    The constructor checks the solvers' own rules, the metric and that the
    models share A, W and q, and passes riccati's door (_request) each model's
    C and V, then the q zero rows of the null sensors -1 ... -q without
    noise.  It stacks the rows and the door's symmetric V's, lays the null
    sensors' identity block, zero against every real sensor, and keeps every
    row's images of A's unstable modes: one layout, which the chunks and
    both screens read.  A call holds the members it lacks as one array of
    supports (_index) and solves them in (size, kept, j) order, kept the
    sensors the filter runs on, or screened best first (_screen), as stacks
    of at most STACK_CHUNK members; a chunk gathers the rows of each kept
    set padded to its widest with null sensors, and their images (_rows),
    so it is one PBH test and one kernel run in the table's metric.  Stack
    members are solved independently, so a stored score is the one a fresh
    stack, or evaluate_selection to round-off, would give.  ``best`` picks
    the better of some traces (the least for a selection, the greatest for
    an attack), and ``worst`` is the neutral bound, no trace worse than it."""

    def __init__(self, models, metric: str, attack: bool):
        _check_metric(metric)
        model, q = models[0], models[0].q
        if any(m.q != q or not np.array_equal(m.A, model.A) or not np.array_equal(m.W, model.W)
               for m in models[1:]):
            raise ValueError("models scored together must share A, W and the sensor count")
        C = [m.C for m in models] + [np.zeros((q,) + model.A.shape[1:])]  # null sensors: q x n once A passes
        self.W, V, self.root, modes = riccati._request(model.A, model.W, C, [m.V for m in models])
        self.C = np.concatenate(C)
        self.images = riccati._images(modes, self.C)  # each member's PBH test gathers its rows'
        self.V = np.zeros((len(self.C), 2 * q))
        self.V[:-q, :q] = V.reshape(-1, q)
        self.V[-q:, q:] = np.eye(q)
        self.models, self.metric, self.attack = models, metric, attack
        self.best, self.worst = (max, -math.inf) if attack else (min, math.inf)
        self.scores: dict[tuple[int, tuple[int, ...]], tuple[float, np.ndarray] | None] = {}

    def __call__(self, members, bound: float | None = None) -> list:
        """The score of each (j, support) member, support a sorted tuple, or
        None for one that a bound drops or dropped.  A ``bound``, a trace the
        optimum is no worse than, drops the members that can neither beat
        nor tie the optimum (see _settle); a request without one solves every
        member it lacks, those stored as None included.
        Undetectable members score math.inf, with a NaN diagonal, without a
        solve, and reach the drop rule as the interval [inf, inf] before
        their chunk's kernel run.  A call with a bound that lacks more
        members than one chunk screens them first (_screen)."""
        lacking = [m for m in members if m not in self.scores or bound is None and self.scores[m] is None]
        if not lacking:  # greedy's later steps, the walk and report read stored scores
            return [self.scores[m] for m in members]
        lacking, settle = list(dict.fromkeys(lacking)), None if bound is None else self._settle(bound)
        A, W = self.models[0].A, self.W
        idx, js = self._index(lacking)
        size = (idx >= 0).sum(axis=1)  # (size, kept, j): an attack's kept sets ascend as its removed sets descend
        order = np.lexsort((js, *(-idx if self.attack else idx).T[::-1], -size if self.attack else size))
        screen = settle is not None and len(lacking) > STACK_CHUNK
        if screen:
            best, lo, hi = self._screen(idx[order], js[order])
            order = order[best]
        while order.size:
            if screen:  # each bracket against the incumbent
                drop = settle(lo, hi)
                self.scores.update((lacking[i], None) for i in order[drop].tolist())
                order, lo, hi = order[~drop], lo[~drop][STACK_CHUNK:], hi[~drop][STACK_CHUNK:]
            chunk, order = order[:STACK_CHUNK], order[STACK_CHUNK:]
            if not chunk.size:  # the screen dropped the rest
                break
            rows, kept, finite = self._rows(idx[chunk], js[chunk])
            if settle is not None and not finite.all():
                unseen = np.full(len(chunk) - finite.sum(), math.inf)
                settle(unseen, unseen)
            traces = np.full(len(chunk), math.inf)
            diags = np.full((len(chunk), A.shape[0]), math.nan)  # a copy: no score keeps S alive
            if finite.any():
                f = riccati._members(finite)
                C, V = self.C[rows[f]], self.V[rows[f][:, :, None], kept[f][:, None, :]]
                S, _ = riccati._solve_detectable(A, W, C, V, self.root, self.metric == "posteriori", settle)
                traces[finite] = np.trace(S, axis1=1, axis2=2)
                diags[finite] = S.diagonal(axis1=1, axis2=2)
            for i, trace, diag in zip(chunk.tolist(), traces.tolist(), diags):
                self.scores[lacking[i]] = None if math.isnan(trace) else (trace, diag)
        return [self.scores[m] for m in members]

    def _index(self, members):  # (idx, j): each support in a row, padded to the widest with -1, -2, ..., and its model
        js, supports = zip(*members)
        pads = tuple(range(-1, -max(map(len, supports)) - 1, -1))  # one null sensor per pad slot
        idx = np.fromiter(chain.from_iterable(s + pads[:len(pads) - len(s)] for s in supports), np.intp)
        return idx.reshape(len(js), len(pads)), np.array(js, dtype=np.intp)

    def _rows(self, idx, j):
        """The rows of the stacked C of the members (idx, j) (_index), the sensors they keep, a selection's support or
        an attack's complement, ascending and padded to the widest with the null sensors -1, -2, ..., and their PBH
        verdicts, riccati._detectable of their rows' images gathered from the table's."""
        q = self.models[0].q
        if self.attack:  # each kept sensor, then q for each removed one; a pad lands in a spare column
            removed = np.zeros((len(idx), q + idx.shape[1]), dtype=bool)
            removed[np.arange(len(idx))[:, None], idx] = True
            idx = np.sort(np.where(removed[:, :q], q, np.arange(q)), axis=1)
        size = ((idx >= 0) & (idx < q)).sum(axis=1)
        col = np.arange(size.max())
        idx = np.where(col < size[:, None], idx[:, :col.size], size[:, None] - col - 1)
        rows = np.where(idx < 0, idx, idx + j[:, None] * q)
        return rows, idx, riccati._detectable([image[rows] for image in self.images], len(rows))

    def _screen(self, idx, j):
        """Best first order of the members (idx, j) (_index) of one model,
        given in (size, kept) order, and a bracket [lo, hi] on each one's
        trace in the table's metric, in that order, both read from the
        model's rows, then the null sensors: a selection's (size, floor)
        order and [floor, inf] (riccati._floor), an attack's descending lo
        and riccati._bracket's from the full set's a priori solve, which
        settles nothing, is no score and is made only if a survivor set, and
        so the full set, is detectable (its chunk's PBH verdict, _rows).  A
        member either bound refuses gets [-inf, inf], as does every member
        of an attack whose full set is not solved, takes Newton's route
        (riccati._newton_route) or fails to converge, which is no error."""
        A, posteriori, k, j, q = self.models[0].A, self.metric == "posteriori", len(idx), int(j[0]), self.models[0].q
        C, V = (M[np.r_[j * q:(j + 1) * q, -q:0]] for M in (self.C, self.V))  # model j's sensors, then the null ones
        if not self.attack:
            floors = riccati._floor(A, self.W, C, V, idx, posteriori)
            order = np.lexsort((floors, (idx >= 0).sum(axis=1)))
            return order, floors[order], np.full(k, math.inf)
        finite, full, bracket = self._rows(idx, np.full(k, j))[2], (C[None, :q], V[None, :q, :q]), None
        if finite.any() and not riccati._newton_route(self.root, riccati._noise(*full)[0].any(axis=(1, 2)))[0]:
            with contextlib.suppress(riccati.NoConvergence):  # the full set is detectable, as a survivor set is
                P = riccati._solve_detectable(A, self.W, *full, self.root)[0][0]
                bracket = riccati._bracket(A, self.W, P, C, V, idx, posteriori)
        if bracket is None:
            return np.arange(k), np.full(k, -math.inf), np.full(k, math.inf)
        lo, hi = bracket
        lo[~finite] = hi[~finite] = math.inf  # undetectable: the interval [inf, inf]
        order = np.argsort(-lo, kind="stable")
        return order, lo[order], hi[order]

    def _settle(self, bound: float):
        """The settle callable of one request (see riccati._doubling_dare),
        which drops every member whose certified trace interval [lo, hi]
        can neither beat nor tie the optimum.  A selection keeps U, the
        least hi seen, and drops lo > U + _band(U); an attack keeps L, the
        greatest lo seen, and drops hi < L - _band(L), every finite member
        once L is infinite.  Both start from ``bound``.
        x -> x +- _band(x) increases and U >= best >= L, so a
        dropped member's trace is worse than the best and not tied with it.
        The bound carries across the calls and chunks of the request; the
        intervals are in the table's metric, which the kernel run is told:
        they bound the trace of the solution of the equation the run
        solves, the a posteriori one for an a posteriori table.  Every
        kernel run hands it each solved member's trace, as [t, t] where the
        route does not settle (riccati._solve_detectable), so U is the one
        incumbent of every chunk and route.  A screen also hands it each
        member's bracket before each chunk."""

        def settle(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
            nonlocal bound
            if self.attack:
                bound = L = max(bound, float(lo.max()))
                return hi < (L - _band(L) if math.isfinite(L) else L)
            bound = U = min(bound, float(hi.min()))
            return lo > U + _band(U)

        return settle

    def report(self, j: int, support, evaluations: int, steps=()) -> SolveReport:
        """Model j's report for the chosen indicator ``support``, with the
        trace and diagonal that scored it."""
        ((trace, diag),) = self([(j, tuple(sorted(support)))])
        return SolveReport(
            mode="attack" if self.attack else "select",
            metric=self.metric,
            chosen=SelectionVector.from_support(self.models[j].q, support),
            trace=trace,
            diag=None if math.isinf(trace) else tuple(diag.tolist()),
            evaluations=evaluations,
            steps=list(steps),
        )


def _band(x: float) -> float:  # the tie band's half-width at a trace x: _tied's and _settle's
    return TIE_REL * max(1.0, abs(x))


def _tied(score: float, best: float) -> bool:
    if math.isinf(best):
        return math.isinf(score)
    return abs(score - best) <= _band(best)


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


def _greedy(table: _ScoreTable, j: int, budget: int) -> SolveReport:
    """Grow the indicator one sensor at a time, taking the candidate with
    the best trace; ties go to the lowest index.  Scores come from
    ``table``'s model j, the budget from _check_cardinality_budget."""
    q = table.models[j].q
    picked: list[int] = []
    steps: list[GreedyStep] = []
    for _ in range(budget):
        candidates = [i for i in range(q) if i not in picked]
        traces = [trace for trace, _ in table([(j, tuple(sorted(picked + [i]))) for i in candidates])]
        best = table.best(traces)
        k = next(c for c, t in enumerate(traces) if _tied(t, best))  # candidates ascend: the first tied one
        steps.append(GreedyStep(scores=dict(zip(candidates, traces)), chosen=candidates[k]))
        picked.append(candidates[k])
    return table.report(j, picked, sum(len(step.scores) for step in steps) + 1, steps)


def _layers(q: int, costs: np.ndarray, budget: float):
    """(every, sets) for each set size r = 0, 1, ... until no set fits the
    budget: ``sets`` yields the r-sets whose cost sum is within it, in
    lexicographic order, unsummed when ``every`` says that all of them are.
    Sums have a 1e-9 relative allowance, so that 0.1 + 0.2 fits a budget
    of 0.3, and add Python floats left to right, the bits of a sum of numpy
    scalars (the builtin sum compensates from Python 3.12 on).  A float sum
    of r nonnegative terms is within a factor (1 +- eps/2)^(r-1) of the
    exact one, so a set's sum is at least cheapest (1 - (r - 1) eps) and at
    most dearest (1 + r eps), the sorted sums of the r least and largest
    costs.  So the sizes stop at the first whose cheapest (1 - 2 r eps),
    rounded, is above the limit, and all r-sets fit when dearest
    (1 + 2 r eps), rounded, is within it, the empty set when 0 is."""
    limit = budget + 1e-9 * max(1.0, abs(budget))
    eps, ascending = np.finfo(float).eps, np.sort(costs)
    cheapest, dearest = np.cumsum(ascending), np.cumsum(ascending[::-1])
    costs = costs.tolist()

    def within(combo) -> bool:
        total = 0.0
        for i in combo:
            total += costs[i]
        return total <= limit

    for r in range(q + 1):
        if r and cheapest[r - 1] * (1.0 - 2 * r * eps) > limit:
            return
        every = (dearest[r - 1] if r else 0.0) * (1.0 + 2 * r * eps) <= limit
        yield every, combinations(range(q), r) if every else filter(within, combinations(range(q), r))


def _maximal_feasible(model: SystemModel, costs, budget: float, attack: bool) -> tuple[int, list]:
    """The number of feasible indicators of an exhaustive run, and the inclusion-maximal ones, those no further
    sensor fits into, by size, then lexicographically, after checking the run's input.  A size whose sets all fit
    (_layers) is counted, and listed only below a size where not all do: for unit costs and a budget k, the k-sets."""
    if model.q > EXHAUSTIVE_SENSOR_CAP:
        raise TooManySensors(f"refusing 2^{model.q} subsets (cap {EXHAUSTIVE_SENSOR_CAP})")
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (model.q,):
        raise SolverInputError(f"costs must have length {model.q}")
    if not np.all(costs >= 0.0):  # NaN fails too, and would make its sensor unusable
        raise SolverInputError("costs must be nonnegative numbers")
    if math.isnan(budget):  # would enumerate every subset before finding none feasible
        raise SolverInputError("budget must be a number, got nan")
    count, maximal, below = 0, [], ()  # below: the feasible sets one size down
    for r, (every, sets) in enumerate(_layers(model.q, costs, budget)):
        if every:
            count += math.comb(model.q, r)
        else:
            sets = list(sets)
            count += len(sets)
            covered = {c[:j] + c[j + 1:] for c in sets for j in range(r)}  # not maximal below
            maximal += [c for c in below if c not in covered]
        below = sets
    if not count:
        raise SolverInputError(f"no feasible {'attack' if attack else 'selection'} within budget")
    return count, maximal + list(below)


def _exhaustive(table: _ScoreTable, j: int, n_feasible: int, maximal) -> SolveReport:
    """Keep the feasible indicator with the best trace; ties go to the
    smallest support, then the lexicographically smallest bit pattern.
    Scores come from ``table``'s model j, the count of feasible indicators
    and the maximal ones from _maximal_feasible.

    Adding a sensor never raises a selection's trace (never lowers an
    attack's), so the optimum lies at an inclusion-maximal feasible set, and
    only those are scored for it.  A tied set lies in a tied maximal set and
    every set between them is tied, so a walk down from the tied maximal
    sets through subsets of tied sets, one size at a time, meets every tied
    set.  Nonnegative costs keep subsets of feasible sets feasible.

    The walk skips every candidate one sensor short of a scored set that
    is not tied, or of a dropped set: the table holds feasible sets only
    (greedy_and_optimal's greedy sets fit the same unit-cost budget), so
    that set's trace is worse than the best, and by monotonicity the
    candidate's is too.  The maximal sets are scored under the neutral
    bound, and each walk level under the best trace; a level that fills
    more than a chunk is screened, solved best first (_ScoreTable._screen),
    so on random-solve's q = 18 models one or two chunks of the 816 maximal
    sets of budget 3 reach the kernel for a selection, and the full set and
    one survivor set for an attack.
    """
    q = table.models[j].q

    def scored(combos, bound: float):
        found = table([(j, c) for c in combos], bound)
        return [(c, s[0]) for c, s in zip(combos, found) if s is not None]

    def settled(combo) -> bool:
        supersets = ((j, tuple(sorted(combo + (i,)))) for i in range(q) if i not in combo)
        return any(table.scores[s] is None or not _tied(table.scores[s][0], best)
                   for s in supersets if s in table.scores)

    scores = scored(maximal, table.worst)
    best = table.best(t for _, t in scores)
    tied = [c for c, t in scores if _tied(t, best)]
    lowest = min(map(len, tied))
    level: list[tuple[int, ...]] = []
    for size in range(max(map(len, tied)), -1, -1):
        below = sorted({c[:k] + c[k + 1:] for c in level for k in range(len(c))})
        below = [c for c in below if not settled(c)]
        level = [c for c, t in scored(below, best) if _tied(t, best)]
        level += [c for c in tied if len(c) == size]
        if level:
            smallest = level
        elif size < lowest:
            break
    combo = min(smallest, key=lambda c: SelectionVector.from_support(q, c).bits)
    return table.report(j, combo, n_feasible + 1)


def greedy_select(model: SystemModel, cardinality_budget: int, metric: str) -> SolveReport:
    """Add, one at a time, the sensor whose inclusion yields the smallest
    trace, until exactly ``cardinality_budget`` sensors are selected."""
    budget = _check_cardinality_budget(model, cardinality_budget, attack=False)
    return _greedy(_ScoreTable([model], metric, attack=False), 0, budget)


def greedy_attack(model: SystemModel, cardinality_budget: int, metric: str) -> SolveReport:
    """Remove, one at a time, the sensor whose removal yields the largest
    trace for the surviving set.  An infinite trace is maximal."""
    budget = _check_cardinality_budget(model, cardinality_budget, attack=True)
    return _greedy(_ScoreTable([model], metric, attack=True), 0, budget)


def exhaustive_select(model: SystemModel, costs, budget: float, metric: str) -> SolveReport:
    """Exact optimum over every selection within budget.

    Supports nonnegative costs and budgets, infinite ones included; a
    negative cost or a NaN cost or budget raises SolverInputError before
    any enumeration.  Ties resolve to the smallest support, then the
    lexicographically smallest bit pattern.
    """
    table = _ScoreTable([model], metric, attack=False)
    return _exhaustive(table, 0, *_maximal_feasible(model, costs, budget, attack=False))


def exhaustive_attack(model: SystemModel, costs, budget: float, metric: str) -> SolveReport:
    """Exact worst-case attack over every removal set within budget, for
    nonnegative costs; ties resolve as in exhaustive_select."""
    table = _ScoreTable([model], metric, attack=True)
    return _exhaustive(table, 0, *_maximal_feasible(model, costs, budget, attack=True))


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
    must share A, W and the sensor count, else ValueError is raised before
    any solve.

    Selection mode returns trace(greedy) / trace(optimum); attack mode
    returns trace(optimum) / trace(greedy), so the ratio is >= 1 either way.
    With exactly one side infinite the ratio is +inf; with both infinite it
    is 1.

    Every input is checked, and stabilizability tested once, before any
    solve.  All drivers read one score table, so no set is solved twice
    for a model.  The sets greedy's first step reads and the maximal sets
    exhaustive search reads are scored first, for all models and both
    sizes as one stack; greedy's later steps and the tie walk score what
    the table still lacks.
    """
    if mode not in ("select", "attack"):
        raise SolverInputError(f"mode must be 'select' or 'attack', got {mode!r}")
    _check_metric(metric)
    attack = mode == "attack"
    if not models:
        return []
    for m in models:
        k = _check_cardinality_budget(m, budget, attack)
    q = models[0].q
    table = _ScoreTable(models, metric, attack)
    # greedy's unit costs make every model's feasible sets the same
    n_feasible, maximal = _maximal_feasible(models[0], np.ones(q), float(k), attack)
    first = [(i,) for i in range(q)] if k else [()]
    table([(j, c) for j in range(len(models)) for c in first + maximal])
    out = []
    for j in range(len(models)):
        greedy, optimal = _greedy(table, j, k), _exhaustive(table, j, n_feasible, maximal)
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
