"""The three workloads: seeded inputs, the timed item, and the checks on
each item's output.

An item's ``run(step)`` passes each call into kfsslab through
``step``, which times it; the item's latency is the sum of its steps, so the
benchmark can take its speed probes between steps, outside the timing.

Every workload is built from rounds of a fixed mix (one item per tau, per q,
or per family and metric), so two runs with the same number of rounds have
the same composition whatever the seed, and their order statistics compare.
The seed chooses only the instances inside that mix.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from kfsslab import cli, gadgets, model, solvers

# The ten triples over {1..6} of the acceptance gate's reduction sweep
# (criterion 6): five complementary pairs, so both answers occur.
X3C_POOL = (
    (1, 2, 3), (4, 5, 6),
    (1, 2, 4), (3, 5, 6),
    (1, 3, 5), (2, 4, 6),
    (1, 4, 5), (2, 3, 6),
    (1, 2, 5), (3, 4, 6),
)
X3C_TAUS = (2, 3, 4, 5, 6)

RANDOM_QS = (6, 10, 14, 18)
RANDOM_BUDGET = 3
UNSTABLE_POLE = 1.05  # one unstable mode: the empty selection is undetectable
STABLE_POLE_MAX = 0.5
# every sensor sees the unstable mode with at least this gain, so no solve
# crawls through a barely observed mode and solves stay short
UNSTABLE_GAIN = 1.0
DARE_REL_TOL = 1e-8
TIE_REL = 1e-9  # the solvers' own tie tolerance

SWEEP_ROUND = (("example1", "priori"), ("example2", "priori"),
               ("example1", "posteriori"), ("example2", "posteriori"))
SWEEP_POINTS = 4
SWEEP_LAMBDA = (0.6, 0.95)  # both limit ratios are reached within 2% here
SWEEP_LIMIT_EXP = {"example1": 4, "example2": -4}  # the limit rule applies at h = 1e4 / 1e-4
LIMIT_REL_TOL = 0.02
RATIO_FLOOR = 1.0 - 1e-9


@dataclass(frozen=True)
class Workload:
    round_size: int
    # seconds per round on the reference machine (2 CPUs, numpy path);
    # fixes how many rounds a run of a given length makes
    nominal_round_s: float

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_round_s))


WORKLOADS = {
    "x3c-decide": Workload(len(X3C_TAUS), 3.7),
    "random-solve": Workload(len(RANDOM_QS), 5.0),
    "family-sweep": Workload(len(SWEEP_ROUND), 0.75),
}


def make_items(workload: str, seed: int, rounds: int) -> list:
    rng = np.random.default_rng(seed)
    make = {"x3c-decide": _x3c_item, "random-solve": _random_item, "family-sweep": _sweep_item}[workload]
    size = WORKLOADS[workload].round_size
    return [make(rng, k) for _ in range(rounds) for k in range(size)]


def fingerprint(items: list) -> str:
    """Digest of the generated inputs, to tell seeds apart."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item.key()).encode())
    return h.hexdigest()


# --- x3c-decide -------------------------------------------------------------

@dataclass
class X3CItem:
    inst: gadgets.X3CInstance

    def key(self):
        return self.inst.subsets

    def run(self, step):
        kfss = step(lambda: gadgets.x3c_decide_via_kfss(self.inst, K=1.0, solver="exhaustive"))
        kfsa = step(lambda: gadgets.x3c_decide_via_kfsa(self.inst, K=1.0, solver="exhaustive"))
        return kfss.answer, kfsa.answer

    def check(self, out) -> list[str]:
        expected, _ = gadgets.x3c_bruteforce(self.inst)
        return [f"{via} answered {got}, brute force {expected} on {self.inst.subsets}"
                for via, got in zip(("kfss", "kfsa"), out) if got != expected]


def _x3c_item(rng, k: int) -> X3CItem:
    tau = X3C_TAUS[k]
    chosen = sorted(rng.choice(len(X3C_POOL), size=tau, replace=False))
    return X3CItem(gadgets.X3CInstance(2, tuple(X3C_POOL[i] for i in chosen)))


# --- random-solve -----------------------------------------------------------

@dataclass
class RandomItem:
    A: np.ndarray
    C: np.ndarray
    W: np.ndarray
    V: np.ndarray

    def key(self):
        return tuple(np.round(m, 12).tobytes() for m in (self.A, self.C, self.W, self.V))

    def run(self, step):
        q, n = self.C.shape
        mdl = step(lambda: model.validate_model(model.SystemModel(
            n=n, q=q, A=self.A, C=self.C, W=self.W, V=self.V,
            budget_select=float(RANDOM_BUDGET), budget_attack=float(RANDOM_BUDGET))))
        budget = float(RANDOM_BUDGET)
        return {
            "greedy_select": step(lambda: solvers.greedy_select(mdl, RANDOM_BUDGET, "priori")),
            "greedy_attack": step(lambda: solvers.greedy_attack(mdl, RANDOM_BUDGET, "posteriori")),
            "exhaustive_select": step(lambda: solvers.exhaustive_select(mdl, mdl.b, budget, "priori")),
            "exhaustive_attack": step(lambda: solvers.exhaustive_attack(mdl, mdl.omega, budget, "posteriori")),
        }

    def check(self, out) -> list[str]:
        problems = []
        for name, report in out.items():
            ref = self._reference_trace(report)
            err = abs(report.trace - ref) / abs(ref)
            if not err <= DARE_REL_TOL:
                problems.append(f"{name}: trace {report.trace!r} vs scipy {ref!r} (rel {err:.1e})")
        gs, es = out["greedy_select"].trace, out["exhaustive_select"].trace
        ga, ea = out["greedy_attack"].trace, out["exhaustive_attack"].trace
        if not es <= gs * (1.0 + TIE_REL):
            problems.append(f"exhaustive select {es!r} above greedy {gs!r}")
        if not ea >= ga * (1.0 - TIE_REL):
            problems.append(f"exhaustive attack {ea!r} below greedy {ga!r}")
        return problems

    def _reference_trace(self, report) -> float:
        """Trace from scipy's DARE solver for the sensors the report keeps."""
        bits = report.chosen.bits
        keep = [i for i, b in enumerate(bits) if b == (1 if report.mode == "select" else 0)]
        C_sel, V_sel = self.C[keep], self.V[np.ix_(keep, keep)]
        P = scipy.linalg.solve_discrete_are(self.A.T, C_sel.T, self.W, V_sel)
        if report.metric == "posteriori":
            PC = P @ C_sel.T
            P = P - PC @ np.linalg.solve(C_sel @ PC + V_sel, PC.T)
        return float(np.trace(P))


def _spd(rng, size: int) -> np.ndarray:
    B = rng.standard_normal((size, size))
    return B @ B.T / size + 0.5 * np.eye(size)


def _random_item(rng, k: int) -> RandomItem:
    q = RANDOM_QS[k]
    n = q // 2
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    # a fixed spectrum with random eigenvectors: the seed changes the
    # instance but hardly how many iterations its solves take
    poles = np.concatenate([[UNSTABLE_POLE], np.linspace(-STABLE_POLE_MAX, STABLE_POLE_MAX, n - 1)])
    A = (Q * poles) @ Q.T
    C = rng.standard_normal((q, n))
    C += UNSTABLE_GAIN * np.outer(np.sign(C @ Q[:, 0]), Q[:, 0])
    return RandomItem(A=A, C=C, W=_spd(rng, n), V=_spd(rng, q))


# --- family-sweep -----------------------------------------------------------

@dataclass
class SweepItem:
    family: str
    metric: str
    lambda1: float
    grid: tuple[float, ...]
    output: str = ""

    def key(self):
        return (self.family, self.metric, self.lambda1, self.grid)

    def argv(self) -> list[str]:
        return ["sweep", "--family", self.family, "--lambda1", repr(self.lambda1),
                "--metric", self.metric, "--h-grid", ",".join(repr(h) for h in self.grid),
                "--output", self.output]

    def run(self, step):
        # in this process, with the CLI's own pool (KFSSLAB_THREADS=1 in a
        # traced run, so that spans see every solve)
        with contextlib.redirect_stdout(io.StringIO()):
            code = step(lambda: cli.main(self.argv()))
        if code != 0:
            raise RuntimeError(f"kfsslab sweep exited {code}")
        return self.output

    def check(self, out) -> list[str]:
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["h", "trace_greedy", "trace_optimal", "ratio", "predicted_limit"] or len(rows) != len(self.grid) + 1:
            return [f"{out}: unexpected header or row count {len(rows) - 1}"]
        problems = []
        values = [[float(x) for x in row] for row in rows[1:]]
        if [v[0] for v in values] != list(self.grid):
            problems.append(f"{out}: rows not in grid order")
        low = [v for v in values if not v[3] >= RATIO_FLOOR]
        if low:
            problems.append(f"{out}: ratio below 1 at h={low[0][0]!r}")
        if self.grid[-1] == 10.0 ** SWEEP_LIMIT_EXP[self.family]:
            ratio, limit = values[-1][3], values[-1][4]
            if not abs(ratio - limit) / limit <= LIMIT_REL_TOL:
                problems.append(f"{out}: last ratio {ratio!r} not within 2% of {limit!r}")
        return problems


def _sweep_item(rng, k: int) -> SweepItem:
    family, metric = SWEEP_ROUND[k]
    lam = float(rng.uniform(*SWEEP_LAMBDA))
    limit = SWEEP_LIMIT_EXP[family]
    # example1 grows h towards 1e4, example2 shrinks it towards 1e-4; half
    # the grids stop one decade short of the limit point
    end = limit if rng.random() < 0.5 else limit - int(math.copysign(1, limit))
    start = float(rng.uniform(0.5, 1.5) if family == "example1" else rng.uniform(-0.5, 0.5))
    step = (end - start) / (SWEEP_POINTS - 1)
    grid = tuple(10.0 ** (start + i * step) for i in range(SWEEP_POINTS - 1)) + (10.0 ** end,)
    return SweepItem(family, metric, lam, grid)


def assign_outputs(items: list, workdir: str) -> None:
    """Give every sweep item its own CSV path under ``workdir``."""
    for i, item in enumerate(items):
        if isinstance(item, SweepItem):
            item.output = os.path.join(workdir, f"sweep-{i}.csv")
