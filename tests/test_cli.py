import json
import re
import shlex
from pathlib import Path

import pytest

from kfsslab.cli import main

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


def test_solve_missing_file_is_input_error(tmp_path):
    assert run_cli("solve", "--instance", str(tmp_path / "nope.json"),
                   "--mode", "select", "--algorithm", "greedy") == 1


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
