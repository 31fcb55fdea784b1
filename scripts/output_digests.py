"""Print one sha256 per output category, so that two checkouts' outputs can
be compared bit for bit by running this in each and comparing the lines:

    PYTHONPATH=src python3 scripts/output_digests.py --seeds 1,2029,9001,9003

Each seed draws ``--rounds`` rounds of the benchmark's input mix:

* x3c: X3C instances over the ten-triple pool, one per tau = 2 ... 6,
  decided through both reductions (exhaustive, K = 1): answer, trace,
  threshold and report_to_dict of each decision;
* random: random models of q = 6, 10, 14, 18 (n = q // 2, one unstable
  pole), each solved by greedy and exhaustive select and attack with
  budget 3 under both metrics: report_to_dict of each;
* sweep: ``kfsslab sweep`` on both example families under both metrics,
  four grid points, as written plain and with ``--v-scale`` 0.3 and 1e-3:
  the CSV bytes.

Floats enter a digest as their repr, so a digest moves when any output
bit does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import tempfile

import numpy as np

from kfsslab import cli, gadgets, solvers
from kfsslab.model import SystemModel, validate_model

X3C_POOL = ((1, 2, 3), (4, 5, 6), (1, 2, 4), (3, 5, 6), (1, 3, 5),
            (2, 4, 6), (1, 4, 5), (2, 3, 6), (1, 2, 5), (3, 4, 6))
X3C_TAUS = (2, 3, 4, 5, 6)
RANDOM_QS = (6, 10, 14, 18)
BUDGET = 3
SWEEP_ROUND = (("example1", "priori"), ("example2", "priori"), ("example1", "posteriori"),
               ("example2", "posteriori"))
V_SCALES = ((), ("--v-scale", "0.3"), ("--v-scale", "1e-3"))


def _x3c(rng, digest) -> None:
    for tau in X3C_TAUS:
        chosen = sorted(rng.choice(len(X3C_POOL), size=tau, replace=False))
        inst = gadgets.X3CInstance(2, tuple(X3C_POOL[i] for i in chosen))
        for decide in (gadgets.x3c_decide_via_kfss, gadgets.x3c_decide_via_kfsa):
            d = decide(inst, K=1.0, solver="exhaustive")
            digest.update(json.dumps([d.answer, repr(d.trace), repr(d.threshold),
                                      solvers.report_to_dict(d.report)]).encode())


def _spd(rng, size: int) -> np.ndarray:
    B = rng.standard_normal((size, size))
    return B @ B.T / size + 0.5 * np.eye(size)


def _random(rng, digest) -> None:
    for q in RANDOM_QS:
        n = q // 2
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (Q * np.concatenate([[1.05], np.linspace(-0.5, 0.5, n - 1)])) @ Q.T
        C = rng.standard_normal((q, n))
        C += np.outer(np.sign(C @ Q[:, 0]), Q[:, 0])
        m = validate_model(SystemModel(n=n, q=q, A=A, C=C, W=_spd(rng, n), V=_spd(rng, q),
                                       budget_select=float(BUDGET), budget_attack=float(BUDGET)))
        for metric in solvers.METRICS:
            for report in (solvers.greedy_select(m, BUDGET, metric), solvers.greedy_attack(m, BUDGET, metric),
                           solvers.exhaustive_select(m, m.b, float(BUDGET), metric),
                           solvers.exhaustive_attack(m, m.omega, float(BUDGET), metric)):
                digest.update(json.dumps(solvers.report_to_dict(report)).encode())


def _sweep(rng, digest, workdir: str) -> None:
    for family, metric in SWEEP_ROUND:
        lam = float(rng.uniform(0.6, 0.95))
        limit = 4 if family == "example1" else -4
        end = limit if rng.random() < 0.5 else limit - int(math.copysign(1, limit))
        start = float(rng.uniform(0.5, 1.5) if family == "example1" else rng.uniform(-0.5, 0.5))
        grid = [10.0 ** (start + i * (end - start) / 3) for i in range(3)] + [10.0 ** end]
        for v_scale in V_SCALES:
            out = os.path.join(workdir, "sweep.csv")
            argv = ["sweep", "--family", family, "--lambda1", repr(lam), "--metric", metric,
                    "--h-grid", ",".join(map(repr, grid)), *v_scale, "--output", out]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            digest.update(repr(code).encode())
            if code == 0:
                with open(out, "rb") as fh:
                    digest.update(fh.read())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", required=True, help="comma-separated integer seeds")
    p.add_argument("--rounds", type=int, default=3, help="rounds of the input mix per seed (default 3)")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    digests = {name: hashlib.sha256() for name in ("x3c", "random", "sweep")}
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seeds:
            for name, draw in (("x3c", _x3c), ("random", _random), ("sweep", _sweep)):
                rng = np.random.default_rng(seed)
                for _ in range(args.rounds):
                    draw(rng, digests[name], *((workdir,) if name == "sweep" else ()))
    for name, digest in digests.items():
        print(f"{name} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
