"""The end-to-end checks with numpy as the only dependency.

One script runs in a fresh interpreter where importing scipy or hypothesis
fails and a numpy RuntimeWarning is an error, as in the tier-1 tests.  It
checks:

* sweeps of both noiseless example families, which take the
  perfect-measurement reduction end to end: every greedy/optimal ratio is at
  least 1, and the last grid point's ratio is within 1e-4 of the closed-form
  limit; at lambda1 = 0.9999, within 1% of it; a --v-scale sweep per family
  runs the nonsingular path;
* the reductions, exhaustively, on a yes and a no instance, also at K = 300
  against the brute force, and on the first six triples of criterion 6's
  pool;
* that every generator kind's file solves exhaustively to a finite trace;
* hand-built instances: a blind unstable mode, a double unstable mode under
  padding, non-unit costs at the budget's rounding edge, a defective blind
  mode and an overflowing trace (exit 2), and gadget sidecars that cannot
  be written (exit 1);
* a q = 12 brute force against the a posteriori exhaustive search, which
  drops members inside the filtered doubling, the a posteriori exhaustive
  searches of both noiseless families against the closed forms, and, with
  a second nonzero column in the families' A, that they drop members there
  too;
* the kernel's closed form on the K = 300 gadgets against two exact
  traces, where an overflow or invalid value in its root would fail;
* noiseless solves against numpy's pinv recursion and the closed forms;
* every ``kfsslab`` line of README's "## CLI" section and the Python block
  of its "## Library" section, as written.

Run it with ``PYTHONPATH=src python -m pytest -q tests/test_numpy_only.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r'''
import contextlib, csv, io, json, sys
sys.modules["scipy"] = sys.modules["hypothesis"] = None
from kfsslab.cli import main
out = sys.argv[1]
for family, grid in (("example1", "10,1000,10000"), ("example2", "1,0.01,0.0001")):
    for metric in ("priori", "posteriori"):
        path = f"{out}/{family}-{metric}.csv"
        argv = ["sweep", "--family", family, "--lambda1", "0.9", "--metric", metric,
                "--h-grid", grid, "--output", path]
        assert main(argv) == 0, argv
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3, (argv, rows)
        assert all(float(r["ratio"]) >= 1 - 1e-9 for r in rows), (argv, rows)
        last, limit = float(rows[-1]["ratio"]), float(rows[-1]["predicted_limit"])
        assert abs(last - limit) <= 1e-4 * limit, (argv, last, limit)
    # lambda1 = 0.9999, one point near the limit point, where the limits
    # are 1667 (priori) and 5000 (posteriori): within 1% (0.02% off at worst here)
    for metric in ("priori", "posteriori"):
        path = f"{out}/{family}-{metric}-0.9999.csv"
        argv = ["sweep", "--family", family, "--lambda1", "0.9999", "--metric", metric,
                "--h-grid", "5e5" if family == "example1" else "1e-3", "--output", path]
        assert main(argv) == 0, argv
        with open(path, newline="") as fh:
            (row,) = csv.DictReader(fh)
        ratio, limit = float(row["ratio"]), float(row["predicted_limit"])
        assert abs(ratio - limit) <= 1e-2 * limit, (argv, ratio, limit)
    # V = 0.3 I: both subset sizes of the whole grid in one nonsingular
    # (doubling) run per chunk of 64 members, under both metrics; a sweep
    # drops members only in the tie walk, which a unique best pair leaves
    # with nothing to solve on this grid
    for metric in ("priori", "posteriori"):
        path = f"{out}/{family}-{metric}-v.csv"
        argv = ["sweep", "--family", family, "--lambda1", "0.9", "--h-range", "1e-4", "1e4", "9",
                "--v-scale", "0.3", "--metric", metric, "--output", path]
        assert main(argv) == 0, argv
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9, (argv, rows)
        assert all(float(r["ratio"]) >= 1 - 1e-9 for r in rows), (argv, rows)
for answer, subsets in (("yes", [[1, 2, 3], [4, 5, 6], [1, 4, 5]]),
                        ("no", [[1, 2, 3], [1, 4, 5], [2, 5, 6]])):
    path = f"{out}/{answer}.json"
    with open(path, "w") as fh:
        json.dump({"m": 2, "subsets": subsets}, fh)
    for via in ("kfss", "kfsa"):
        argv = ["x3c", "decide", "--via", via, "--solver", "exhaustive", "--x3c", path]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0, argv
        assert stdout.getvalue().split()[0] == answer, (argv, stdout.getvalue())
# K = 300, the worst-conditioned gadget built here, where the certified
# trace intervals that prune the exhaustive search are tightest: each
# reduction's answer equals the brute-force one
for answer in ("yes", "no"):
    answers = []
    for via in ("bruteforce", "kfss", "kfsa"):
        argv = ["x3c", "decide", "--via", via, "--x3c", f"{out}/{answer}.json"]
        argv += [] if via == "bruteforce" else ["--k", "300", "--solver", "exhaustive"]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0, argv
        answers.append(stdout.getvalue().split()[0])
    assert answers == [answer] * 3, (answer, answers)
# each generator kind round-trips: gadget, then an exhaustive solve in the
# mode its budget is for, to a finite trace
import math
for kind, mode, opts in (("example1", "select", ["--h", "10"]), ("example2", "attack", ["--h", "0.1"]),
                         ("kfss", "select", ["--x3c", f"{out}/yes.json"]),
                         ("kfsa", "attack", ["--x3c", f"{out}/yes.json"])):
    path, report_path = f"{out}/{kind}-gen.json", f"{out}/{kind}-report.json"
    argv = ["solve", "--instance", path, "--mode", mode, "--algorithm", "exhaustive", "--output", report_path]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gadget", kind, *opts, "--output", path]) == 0, (kind, opts)
        assert main(argv) == 0, argv
    with open(report_path) as fh:
        report = json.load(fh)
    assert not report["infinite"] and math.isfinite(report["trace"]), (argv, report)
# tau = 6: the first six triples of criterion 6's pool, where kfsa's
# 66 maximal survivor sets span two stack chunks
from kfsslab.gadgets import X3CInstance, x3c_bruteforce
pool = [[1, 2, 3], [4, 5, 6], [1, 2, 4], [3, 5, 6], [1, 3, 5], [2, 4, 6]]
expected = "yes" if x3c_bruteforce(X3CInstance(2, tuple(map(tuple, pool))))[0] else "no"
path = f"{out}/tau6.json"
with open(path, "w") as fh:
    json.dump({"m": 2, "subsets": pool}, fh)
for via in ("kfss", "kfsa"):
    argv = ["x3c", "decide", "--via", via, "--solver", "exhaustive", "--x3c", path]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0, argv
    assert stdout.getvalue().split()[0] == expected, (argv, stdout.getvalue())
# one unstable mode that sensor 3 cannot see, nonsingular V: the PBH
# test and the a posteriori filtered run of nonsingular members, exhaustively
path = f"{out}/blind.json"
with open(path, "w") as fh:
    json.dump({"n": 2, "q": 3, "A": [[1.2, 0.0], [0.0, 0.5]],
               "C": [[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]], "W": [[1.0, 0.0], [0.0, 1.0]],
               "V": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
               "b": [1.0, 1.0, 1.0], "omega": [1.0, 1.0, 1.0],
               "budget_select": 1, "budget_attack": 2}, fh)
for mode, blind in (("select", False), ("attack", True)):
    argv = ["solve", "--instance", path, "--mode", mode, "--algorithm", "exhaustive",
            "--metric", "posteriori", "--output", f"{out}/{mode}.json"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    with open(f"{out}/{mode}.json") as fh:
        report = json.load(fh)
    assert report["infinite"] is blind, (argv, report)
    assert blind or 0 < report["trace"] < float("inf"), (argv, report)
# the unstable eigenvalue 1.2 with a two-dimensional kernel, whose PBH
# test counts the rows that see it: non-unit costs put maximal sets of
# two sizes into one padded chunk, so pads (zero rows) must not count
import numpy as np
path = f"{out}/double.json"
with open(path, "w") as fh:
    json.dump({"n": 3, "q": 4, "A": [[1.2, 0.0, 0.0], [0.0, 1.2, 0.0], [0.0, 0.0, 0.5]],
               "C": np.random.default_rng(19).standard_normal((4, 3)).tolist(),
               "W": np.eye(3).tolist(), "V": np.eye(4).tolist(),
               "b": [1.0, 1.0, 2.0, 2.0], "omega": [1.0, 1.0, 1.0, 3.0],
               "budget_select": 2, "budget_attack": 3}, fh)
for mode, support, infinite, evaluations in (("select", [1, 2], False, 7), ("attack", [1, 2, 3], True, 10)):
    for metric in ("priori", "posteriori"):
        argv = ["solve", "--instance", path, "--mode", mode, "--algorithm", "exhaustive",
                "--metric", metric, "--output", f"{out}/double-{mode}.json"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
        with open(f"{out}/double-{mode}.json") as fh:
            report = json.load(fh)
        assert (report["support"], report["infinite"], report["evaluations"]) == (
            support, infinite, evaluations), (argv, report)
        assert infinite or 0 < report["trace"] < float("inf"), (argv, report)
# non-unit costs whose full set sums to the budget's limit in index
# order while the three least costs, added in ascending order, round
# above it: the full set fits in both modes, after all 8 feasible sets
path = f"{out}/costs.json"
with open(path, "w") as fh:
    json.dump({"n": 1, "q": 3, "A": [[0.5]], "C": [[1.0], [1.0], [1.0]], "W": [[1.0]],
               "V": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
               "b": [0.7, 0.45, 1 / 3], "omega": [0.7, 0.45, 1 / 3],
               "budget_select": 1.48333333185, "budget_attack": 1.48333333185}, fh)
for mode in ("select", "attack"):
    argv = ["solve", "--instance", path, "--mode", mode, "--algorithm", "exhaustive",
            "--output", f"{out}/costs-{mode}.json"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    with open(f"{out}/costs-{mode}.json") as fh:
        report = json.load(fh)
    assert report["support"] == [1, 2, 3] and report["evaluations"] == 9, (argv, report)
# a random nonsingular-V model at q = 12: the a posteriori exhaustive
# search at budget 3, whose 220 maximal sets span four stack chunks and
# drop members inside the doubling, equals a brute force over
# evaluate_selection of every feasible set
from itertools import combinations
import numpy as np
from kfsslab import riccati
from kfsslab.model import SelectionVector, SystemModel, validate_model
from kfsslab.solvers import evaluate_selection, exhaustive_attack, exhaustive_select
rng = np.random.default_rng(12)
q, n = 12, 6
Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
C = rng.standard_normal((q, n))
C += np.outer(np.sign(C @ Q[:, 0]), Q[:, 0])
B = rng.standard_normal((q, q))
m = validate_model(SystemModel(n=n, q=q, A=(Q * np.concatenate([[1.05], np.linspace(-0.5, 0.5, n - 1)])) @ Q.T,
                               C=C, W=np.eye(n), V=B @ B.T / q + 0.5 * np.eye(q)))
doubling, dropped = riccati._doubling_dare, []
def spy(A, G, W, settle=None):
    counted = settle and (lambda lo, hi: dropped.append(settle(lo, hi)) or dropped[-1])
    return doubling(A, G, W, counted)
riccati._doubling_dare = spy
for run, attack in ((exhaustive_select, False), (exhaustive_attack, True)):
    dropped.clear()
    report = run(m, np.ones(q), 3.0, "posteriori")
    scores = {}
    for s in (s for r in range(4) for s in combinations(range(q), r)):
        kept = [i for i in range(q) if i not in s] if attack else s
        scores[s] = evaluate_selection(m, SelectionVector.from_support(q, kept), "posteriori").trace
    best = (max if attack else min)(scores.values())
    want = min((s for s, t in scores.items() if abs(t - best) <= 1e-9 * max(1.0, abs(best))),
               key=lambda s: (len(s), SelectionVector.from_support(q, s).bits))
    assert report.chosen.support == want, (run.__name__, report, want)
    assert abs(report.trace - scores[want]) <= 1e-12 * scores[want], (run.__name__, report, scores[want])
    assert sum(d.sum() for d in dropped) > 0, run.__name__
# the noiseless families under the a posteriori metric: the optimal traces
# match the closed forms.  Their A has one nonzero column, which the kernel
# solves in closed form; with 1e-3 added on state 2 the members join the
# filtered run, which drops members under the search's bound
from dataclasses import replace
from kfsslab.closed_forms import example1_predictions, example2_predictions
from kfsslab.gadgets import build_example1, build_example2
for build, predict, run, hs in ((build_example1, example1_predictions, exhaustive_select, (10.0, 1e3)),
                                (build_example2, example2_predictions, exhaustive_attack, (0.1, 1e-3))):
    for h in hs:
        family = build(0.9, h)
        costs = family.omega if run is exhaustive_attack else family.b
        report = run(family, costs, 2.0, "posteriori")
        want = predict(0.9, h).trace_optimal_posteriori
        assert abs(report.trace - want) <= 1e-10 * want, (run.__name__, h, report.trace, want)
        dropped.clear()
        run(validate_model(replace(family, A=family.A + np.diag([0.0, 1e-3, 0.0]))), costs, 2.0, "posteriori")
        assert sum(d.sum() for d in dropped) > 0, (run.__name__, h)
riccati._doubling_dare = doubling
# the named yes instance's K = 300 gadgets, whose A has one nonzero column:
# the closed form is within 1e-12 of the exact traces of the kfsa survivor
# set {1, 2, 3, 4, 6, 9} (a priori) and the kfss set {2, 3, 4} (a
# posteriori), sensors numbered from 1; the plain doubling is 3.7e-9 off
# on the first
from kfsslab.gadgets import X3CInstance, build_kfsa_gadget, build_kfss_gadget
named = X3CInstance(2, ((1, 2, 3), (4, 5, 6), (1, 4, 5)))
for build, support, metric, exact in ((build_kfsa_gadget, (0, 1, 2, 3, 5, 8), "priori", 3003.0035346265852),
                                      (build_kfss_gadget, (1, 2, 3), "posteriori", 3603.250017362499)):
    gadget = build(named, 300.0).model
    got = evaluate_selection(gadget, SelectionVector.from_support(gadget.q, support), metric)
    assert got.iterations == 0 and abs(got.trace - exact) <= 1e-12 * exact, (build.__name__, got.trace, exact)
# a sensor blind to a defective unstable mode passes PBH within
# round-off; its solution falls below W, which solve refuses (exit 2)
import numpy as np
Q = np.array([[np.cos(0.1), -np.sin(0.1)], [np.sin(0.1), np.cos(0.1)]])
path = f"{out}/defective.json"
with open(path, "w") as fh:
    json.dump({"n": 2, "q": 1, "A": (Q @ np.array([[1.1, 1.0], [0.0, 1.1]]) @ Q.T).tolist(),
               "C": (np.array([[0.0, 1.0]]) @ Q.T).tolist(), "W": [[1.0, 0.0], [0.0, 1.0]],
               "V": [[1.0]], "b": [1.0], "omega": [1.0], "budget_select": 1, "budget_attack": 0}, fh)
argv = ["solve", "--instance", path, "--mode", "select", "--algorithm", "exhaustive"]
assert main(argv) == 2, argv
# finite variances whose trace overflows the float range: exit 2, not
# an infinite trace that reads as undetectable, and no RuntimeWarning
path = f"{out}/loud.json"
with open(path, "w") as fh:
    json.dump({"n": 2, "q": 2, "A": [[0.5, 0.0], [0.0, 0.5]], "C": [[1.0, 0.0], [0.0, 1.0]],
               "W": [[1e308, 0.0], [0.0, 1e308]], "V": [[1.0, 0.0], [0.0, 1.0]],
               "b": [1.0, 1.0], "omega": [1.0, 1.0], "budget_select": 1, "budget_attack": 1}, fh)
argv = ["solve", "--instance", path, "--mode", "select", "--algorithm", "exhaustive"]
assert main(argv) == 2, argv
# a reduction gadget whose sidecar cannot be written leaves no model file
import os
argv = ["gadget", "kfss", "--x3c", f"{out}/yes.json", "--output", f"{out}/gadget.json",
        "--threshold-output", f"{out}/missing-dir/t.json"]
assert main(argv) == 1 and not os.path.exists(f"{out}/gadget.json"), argv
# nor does one whose model and sidecar paths name one file
argv = ["gadget", "kfss", "--x3c", f"{out}/yes.json", "--output", f"{out}/same.json",
        "--threshold-output", f"{out}/./same.json"]
assert main(argv) == 1 and not os.path.exists(f"{out}/same.json"), argv
# noiseless sensors with W = I take the perfect-measurement reduction: five
# states reach a fixed point of the Riccati recursion, taken with numpy's
# pinv (1.9e-16 relative here).  example1 at h = 1e3 and lambda1 = 0.9999
# and 0.99999, where reduced runs keep a pole near 1 and take the most
# doublings: the greedy and optimal a priori traces match the closed forms
# (6.7e-14 off at most here)
from kfsslab.closed_forms import example1_predictions
from kfsslab.gadgets import build_example1
from kfsslab.solvers import greedy_and_optimal
rng = np.random.default_rng(5)
Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
A, C = (Q * [0.95, 0.8, -0.6, 0.4, 0.2]) @ Q.T, rng.standard_normal((2, 5))
res = riccati.solve_dare(A, C, np.eye(5), np.zeros((2, 2)))
assert res.is_finite and math.isfinite(res.trace), res
S, ASC = res.cov, A @ res.cov @ C.T
residual = np.linalg.norm(S - (A @ S @ A.T + np.eye(5) - ASC @ np.linalg.pinv(C @ S @ C.T) @ ASC.T))
assert residual <= 1e-12 * max(1.0, np.linalg.norm(S)), (res, residual)
for lam in (0.9999, 0.99999):
    p = example1_predictions(lam, 1e3)
    ((greedy, optimal, _),) = greedy_and_optimal([build_example1(lam, 1e3)], 2, "select", "priori")
    for got, want in ((greedy.trace, p.trace_greedy_priori), (optimal.trace, p.trace_optimal_priori)):
        assert abs(got - want) <= 1e-9 * want, (lam, got, want)
# every kfsslab line of README's "## CLI" section runs as written and
# exits 0, in a directory that holds README's X3C example as cover.json
import re, shlex
readme = open("README.md", encoding="utf-8").read()
def section(title):
    return readme.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]
(cover,) = [b for b in re.findall(r"```json\n(.*?)```", section("File formats"), re.S) if '"subsets"' in b]
commands = [shlex.split(line, comments=True)[1:] for block in re.findall(r"```sh\n(.*?)```", section("CLI"), re.S)
            for line in block.splitlines() if line.startswith("kfsslab ")]
assert {argv[0] for argv in commands} == {"gadget", "solve", "x3c", "sweep"}, commands
os.mkdir(f"{out}/readme")
os.chdir(f"{out}/readme")
with open("cover.json", "w", encoding="utf-8") as fh:
    fh.write(cover)
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
# the Python block of README's "## Library" section runs as written
(block,) = re.findall(r"```python\n(.*?)```", section("Library"), re.S)
exec(compile(block, "README.md", "exec"), {})
'''


def test_numpy_only_end_to_end(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", SCRIPT, str(tmp_path)],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
