import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from kfsslab import closed_forms, gadgets, riccati
from kfsslab.cli import main
from kfsslab.model import validate_model
from kfsslab.solvers import STACK_CHUNK, greedy_and_optimal

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "example1.json"
    assert run_cli("gadget", "example1", "--lambda1", "0.9", "--h", "100", "--output", str(path)) == 0
    return path


@pytest.fixture
def example2_file(tmp_path):
    path = tmp_path / "example2.json"
    assert run_cli("gadget", "example2", "--lambda1", "0.9", "--h", "0.01", "--output", str(path)) == 0
    return path


@pytest.fixture
def yes_x3c_file(tmp_path):
    path = tmp_path / "yes.json"
    path.write_text(json.dumps({"m": 2, "subsets": [[1, 2, 3], [4, 5, 6], [1, 4, 5]]}))
    return path


def test_solve_greedy_on_example1(example1_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = run_cli(
        "solve", "--instance", str(example1_file), "--mode", "select",
        "--algorithm", "greedy", "--metric", "priori", "--output", str(report_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "chosen=[2, 3]" in out
    report = json.loads(report_path.read_text())
    assert report["support"] == [2, 3]
    assert report["mode"] == "select"
    assert len(report["steps"]) == 2


def test_solve_exhaustive_attack_on_example2(example2_file, capsys):
    code = run_cli(
        "solve", "--instance", str(example2_file), "--mode", "attack",
        "--algorithm", "exhaustive", "--metric", "priori",
    )
    assert code == 0
    assert "chosen=[1, 2]" in capsys.readouterr().out


def test_solve_rejects_malformed_json(example1_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run_cli("solve", "--instance", str(bad), "--mode", "select", "--algorithm", "greedy")
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # non-integral counts are refused, not truncated
    data = json.loads(example1_file.read_text())
    data["n"], data["q"] = 3.6, 3.2
    bad.write_text(json.dumps(data))
    code = run_cli("solve", "--instance", str(bad), "--mode", "select", "--algorithm", "greedy")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: n must be an integer")
    # a null or non-numeric budget is an input error, not a traceback
    for budget in (None, [1.0], "two"):
        data = json.loads(example1_file.read_text())
        data["budget_select"] = budget
        bad.write_text(json.dumps(data))
        code = run_cli("solve", "--instance", str(bad), "--mode", "select", "--algorithm", "greedy")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: budget_select and budget_attack must be numbers")
    # a JSON object, a string or a ragged list in a matrix or cost field
    for key, value in (("A", {"x": 1}), ("C", "rows"), ("W", [[1.0, 0.0], [1.0]]),
                       ("V", {"x": 1}), ("b", "ones"), ("omega", [[1.0], 1.0, 1.0])):
        data = json.loads(example1_file.read_text())
        data[key] = value
        bad.write_text(json.dumps(data))
        code = run_cli("solve", "--instance", str(bad), "--mode", "select", "--algorithm", "greedy")
        assert code == 1, key
        assert capsys.readouterr().err.startswith(f"error: {key} must be an array of numbers"), key


def test_solve_missing_file_is_input_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run_cli("solve", "--instance", missing, "--mode", "select", "--algorithm", "greedy") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and missing in err


def _assert_unwritable(capsys, code, path):
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and path in captured.err
    assert "Traceback" not in captured.err


def test_solve_unwritable_output_is_input_error(example1_file, tmp_path, capsys):
    path = str(tmp_path / "missing-dir" / "r.json")
    _assert_unwritable(capsys, run_cli("solve", "--instance", str(example1_file), "--mode", "select",
                                       "--algorithm", "greedy", "--output", path), path)


def test_gadget_unwritable_output_is_input_error(tmp_path, capsys):
    path = str(tmp_path / "missing-dir" / "g.json")
    _assert_unwritable(capsys, run_cli("gadget", "example1", "--output", path), path)


@pytest.mark.parametrize("unwritable", ["model", "sidecar"])
def test_gadget_with_an_unwritable_file_leaves_no_file_behind(yes_x3c_file, tmp_path, capsys, unwritable):
    # a reduction writes its model and its threshold sidecar, both or
    # neither; a file that was there before the run keeps its content
    bad = str(tmp_path / "missing-dir" / "x.json")
    kept = tmp_path / "kept.json"
    kept.write_text("before\n")
    for good in (tmp_path / "new.json", kept):
        paths = {"model": str(good), "sidecar": str(good), unwritable: bad}
        code = run_cli("gadget", "kfss", "--x3c", str(yes_x3c_file),
                       "--output", paths["model"], "--threshold-output", paths["sidecar"])
        _assert_unwritable(capsys, code, bad)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json", "yes.json"]
        assert kept.read_text() == "before\n"


def test_sweep_unwritable_output_is_input_error(tmp_path, capsys):
    path = str(tmp_path / "missing-dir" / "s.csv")
    _assert_unwritable(capsys, run_cli("sweep", "--family", "example1", "--lambda1", "0.9",
                                       "--h-grid", "10,100", "--output", path), path)


def test_usage_error_then_valid_call_in_one_process(example1_file, capsys):
    # the parser is built once per process, so a usage error must leave it
    # fit for the next call
    valid = ["solve", "--instance", str(example1_file), "--mode", "select", "--algorithm", "greedy"]
    assert run_cli(*valid) == 0
    before = capsys.readouterr().out
    assert "chosen=[2, 3]" in before
    for _ in range(2):
        assert run_cli(*valid[:4], "bogus", *valid[5:]) == 1
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert run_cli(*valid) == 0
        assert capsys.readouterr().out == before


def test_bad_flag_is_input_error(example1_file, capsys):
    code = run_cli("solve", "--instance", str(example1_file), "--mode", "bogus",
                   "--algorithm", "greedy")
    assert code == 1


def test_solver_error_exit_code(tmp_path, example1_file):
    # non-unit selection costs reject the greedy algorithm
    data = json.loads(example1_file.read_text())
    data["b"] = [1.0, 2.0, 1.0]
    path = tmp_path / "nonunit.json"
    path.write_text(json.dumps(data))
    assert run_cli("solve", "--instance", str(path), "--mode", "select",
                   "--algorithm", "greedy") == 2


@pytest.mark.parametrize("flag", ["--tol", "--pinv-rtol", "--pbh-tol"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_solver_flag_is_input_error(example1_file, capsys, flag, value):
    # the solver tolerances are fixed constants; no flag sets them
    code = run_cli("solve", "--instance", str(example1_file), "--mode", "select",
                   "--algorithm", "greedy", flag, value)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"unrecognized arguments: {flag}" in err


def test_gadget_kfss_writes_threshold_sidecar(yes_x3c_file, tmp_path, capsys):
    out = tmp_path / "kfss.json"
    code = run_cli("gadget", "kfss", "--x3c", str(yes_x3c_file), "--k", "1", "--output", str(out))
    assert code == 0
    sidecar = json.loads((tmp_path / "kfss.json.threshold.json").read_text())
    assert sidecar["threshold"] == 12.0
    assert sidecar["kind"] == "kfss"
    assert sidecar["constants"]["Z"] == 12
    instance = json.loads(out.read_text())
    assert instance["q"] == 4


def test_gadget_kfsa_writes_threshold_sidecar(yes_x3c_file, tmp_path):
    out = tmp_path / "kfsa.json"
    assert run_cli("gadget", "kfsa", "--x3c", str(yes_x3c_file), "--output", str(out)) == 0
    sidecar = json.loads((tmp_path / "kfsa.json.threshold.json").read_text())
    assert sidecar["kind"] == "kfsa"
    assert sidecar["threshold"] == 10.0  # (tau + 2) * 2 with tau = 3


def test_gadget_bad_lambda_is_input_error(tmp_path):
    assert run_cli("gadget", "example1", "--lambda1", "1.5", "--h", "10",
                   "--output", str(tmp_path / "x.json")) == 1


@pytest.mark.parametrize("k", ["inf", "nan", "1e300", "1000"])
@pytest.mark.parametrize("command", ["gadget kfsa --output OUT", "x3c decide --via kfss",
                                     "x3c decide --via kfsa"], ids=["gadget", "x3c", "x3c-kfsa"])
def test_reduction_bad_k_is_input_error(yes_x3c_file, tmp_path, capsys, command, k):
    argv = command.replace("OUT", str(tmp_path / "g.json")).split()
    assert run_cli(*argv, "--x3c", str(yes_x3c_file), "--k", k) == 1
    assert not (tmp_path / "g.json").exists()
    assert capsys.readouterr().err.startswith("error: K")


def test_x3c_decide_bruteforce(yes_x3c_file, capsys):
    assert run_cli("x3c", "decide", "--via", "bruteforce", "--x3c", str(yes_x3c_file)) == 0
    assert capsys.readouterr().out.startswith("yes witness=[1, 2]")


def test_x3c_decide_via_reductions(yes_x3c_file, capsys):
    assert run_cli("x3c", "decide", "--via", "kfss", "--x3c", str(yes_x3c_file)) == 0
    out = capsys.readouterr().out
    assert out.startswith("yes")
    assert "threshold=12.0" in out
    assert run_cli("x3c", "decide", "--via", "kfsa", "--solver", "greedy",
                   "--x3c", str(yes_x3c_file)) == 0
    assert "heuristic" in capsys.readouterr().out


def test_x3c_decide_no_instance(tmp_path, capsys):
    path = tmp_path / "no.json"
    path.write_text(json.dumps({"m": 2, "subsets": [[1, 2, 3], [1, 4, 5], [2, 5, 6]]}))
    assert run_cli("x3c", "decide", "--via", "bruteforce", "--x3c", str(path)) == 0
    assert capsys.readouterr().out.strip() == "no"
    assert run_cli("x3c", "decide", "--via", "kfss", "--x3c", str(path)) == 0
    assert capsys.readouterr().out.startswith("no")


def test_x3c_too_large_exit_code(tmp_path):
    subsets = [[3 * i + 1, 3 * i + 2, 3 * i + 3] for i in range(12)]
    subsets += [[3 * i + 1, 3 * i + 2, 3 * i + 4] for i in range(11)]
    subsets += [[2, 3, 5]]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"m": 12, "subsets": subsets}))
    assert run_cli("x3c", "decide", "--via", "bruteforce", "--x3c", str(path)) == 3


def test_sweep_single_point(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--family", "example1", "--lambda1", "0.9",
                   "--metric", "priori", "--h-grid", "100", "--output", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "h,trace_greedy,trace_optimal,ratio,predicted_limit"
    assert len(lines) == 2


def test_sweep_ratio_approaches_limit(tmp_path):
    out = tmp_path / "sweep2.csv"
    code = run_cli("sweep", "--family", "example2", "--lambda1", "0.9",
                   "--metric", "posteriori", "--h-grid", "1,0.01,0.0001",
                   "--output", str(out))
    assert code == 0
    rows = out.read_text().strip().splitlines()[1:]
    ratios = [float(r.split(",")[3]) for r in rows]
    limits = [float(r.split(",")[4]) for r in rows]
    assert ratios[0] < ratios[1] < ratios[2]
    assert limits == [pytest.approx(1.0 / 0.19)] * 3
    assert abs(ratios[-1] - limits[-1]) / limits[-1] < 0.02


def test_sweep_v_scale_flag(tmp_path):
    out = tmp_path / "sweep3.csv"
    code = run_cli("sweep", "--family", "example1", "--lambda1", "0.9",
                   "--h-grid", "100", "--v-scale", "0.5", "--output", str(out))
    assert code == 0
    row = out.read_text().strip().splitlines()[1]
    assert float(row.split(",")[2]) > 3.0  # extra sensor noise lifts the optimum


def _kernel_spy(monkeypatch):
    """Record the member count of every riccati._solve_detectable call."""
    runs = []
    original = riccati._solve_detectable

    def spy(A, W, C, V):
        runs.append(len(C))
        return original(A, W, C, V)

    monkeypatch.setattr(riccati, "_solve_detectable", spy)
    return runs


@pytest.mark.parametrize("family", ["example1", "example2"])
@pytest.mark.parametrize("metric", ["priori", "posteriori"])
@pytest.mark.parametrize("v_scale", [None, 0.3])
@pytest.mark.parametrize("lam", [0.6, 0.9, 0.99])
def test_sweep_rows_equal_points_solved_alone(tmp_path, family, metric, v_scale, lam):
    # the sweep scores its whole grid jointly; each row must carry the bits
    # of greedy_and_optimal run on that point's model alone
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--family", family, "--lambda1", repr(lam), "--metric", metric,
            "--h-range", "1e-4", "1e4", "9", "--output", str(out)]
    assert run_cli(*argv, *(["--v-scale", repr(v_scale)] if v_scale else [])) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 9
    attack = family == "example2"
    build = gadgets.build_example2 if attack else gadgets.build_example1
    predicted = (closed_forms.limit_ratio_attack if attack else closed_forms.limit_ratio_select)(lam)
    limit = predicted[0] if metric == "priori" else predicted[1]
    for row in rows:
        h = float(row[0])
        m = build(lam, h)
        if v_scale:
            m.V = v_scale * np.eye(m.q)
            m = validate_model(m)
        ((greedy, optimal, ratio),) = greedy_and_optimal([m], 2, "attack" if attack else "select", metric)
        assert row == [repr(x) for x in (h, greedy.trace, optimal.trace, ratio, limit)]


@pytest.mark.parametrize("family, members", [("example1", 54), ("example2", 90)])
def test_sweep_makes_one_kernel_run_per_stack_chunk(tmp_path, monkeypatch, family, members):
    # both sizes that budget 2 reads share each chunk of the joint stack:
    # one run, except example2's 90 members at 9 points, which fill two chunks
    out = tmp_path / "sweep.csv"
    for count, want, chunks in (("1", members // 9, 1), ("9", members, math.ceil(members / STACK_CHUNK))):
        runs = _kernel_spy(monkeypatch)
        assert run_cli("sweep", "--family", family, "--lambda1", "0.9",
                       "--h-range", "10", "1e4", count, "--output", str(out)) == 0
        monkeypatch.undo()
        assert len(runs) == chunks
        assert sum(runs) == want


def test_sweep_refuses_a_bad_point_before_any_solve(tmp_path, capsys, monkeypatch):
    out = tmp_path / "sweep.csv"
    runs = _kernel_spy(monkeypatch)
    assert run_cli("sweep", "--family", "example1", "--lambda1", "0.9",
                   "--h-grid", "1,1e6", "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: h = 1000000.0")
    assert runs == []
    assert not out.exists()


def test_sweep_refuses_example2_past_its_cutoff(tmp_path, capsys, monkeypatch):
    # h = 9e5 passes example1's bound (h^2 < 1e12) but not example2's
    # (2 + 2 h^2 < 1e12), where it wrote ratio 0.99999999998
    out = tmp_path / "sweep.csv"
    runs = _kernel_spy(monkeypatch)
    assert run_cli("sweep", "--family", "example2", "--lambda1", "0.9",
                   "--h-grid", "9e5", "--output", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: h = 900000.0")
    assert runs == []
    assert not out.exists()
    assert run_cli("sweep", "--family", "example2", "--lambda1", "0.9",
                   "--h-grid", "7e5", "--output", str(out)) == 0


@pytest.mark.parametrize("algorithm", ["greedy", "exhaustive"])
def test_solve_on_a_defective_blind_mode_is_solver_error(tmp_path, capsys, algorithm):
    # the sensor cannot see the defective mode 1.1 of A, but the PBH test
    # passes within round-off; the solution falls below W and is refused
    t = 0.1
    Q = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    path = tmp_path / "defective.json"
    path.write_text(json.dumps({
        "n": 2, "q": 1, "A": (Q @ np.array([[1.1, 1.0], [0.0, 1.1]]) @ Q.T).tolist(),
        "C": (np.array([[0.0, 1.0]]) @ Q.T).tolist(), "W": np.eye(2).tolist(), "V": [[1.0]],
        "b": [1.0], "omega": [1.0], "budget_select": 1, "budget_attack": 0}))
    assert run_cli("solve", "--instance", str(path), "--mode", "select", "--algorithm", algorithm) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: a priori variance below W's")


def test_sweep_no_convergence_is_solver_error(tmp_path, capsys, monkeypatch):
    out = tmp_path / "sweep.csv"
    monkeypatch.setattr(riccati, "MAX_STEPS", 2)
    monkeypatch.setattr(riccati, "TOL", 1e-300)
    assert run_cli("sweep", "--family", "example1", "--lambda1", "0.9",
                   "--h-range", "10", "1e4", "3", "--output", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: iteration cap reached")
    assert not out.exists()


@pytest.mark.parametrize("grid", ["--h-range 10 1000 2.7", "--h-range 10 1000 inf", "--h-range 10 1000 nan",
                                  "--h-range 10 1000 0", "--h-grid 1e6", "--h-grid 1e8", "--h-grid 1e200",
                                  "--h-grid nan", "--h-range 1 inf 2", "--h-range nan 10 2",
                                  "--h-range 1 1.7976931348623157e308 2"])
def test_bad_sweep_grid_is_input_error(tmp_path, capsys, grid):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--family", "example1", "--lambda1", "0.9", *grid.split(), "--output", str(out)]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if grid.startswith("--h-range"):
        assert "--h-range" in err
    assert not out.exists()


def test_outputs_are_byte_identical_between_runs(example1_file, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for path in (r1, r2):
        assert run_cli("solve", "--instance", str(example1_file), "--mode", "select",
                       "--algorithm", "exhaustive", "--output", str(path)) == 0
    assert r1.read_bytes() == r2.read_bytes()
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for path in (s1, s2):
        assert run_cli("sweep", "--family", "example1", "--lambda1", "0.9",
                       "--h-grid", "10,100", "--output", str(path)) == 0
    assert s1.read_bytes() == s2.read_bytes()


@pytest.mark.parametrize("kind", ["kfss", "kfsa"])
def test_gadget_reduction_without_x3c_is_input_error(kind, tmp_path, capsys):
    assert run_cli("gadget", kind, "--output", str(tmp_path / "x.json")) == 1
    assert "--x3c" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def _readme_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    (cover,) = [block for block in _readme_blocks("json") if '"subsets"' in block]
    (tmp_path / "cover.json").write_text(cover, encoding="utf-8")
    commands = [shlex.split(line, comments=True)[1:] for block in _readme_blocks("sh")
                for line in block.splitlines() if line.startswith("kfsslab ")]
    assert {argv[0] for argv in commands} == {"gadget", "solve", "x3c", "sweep"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
