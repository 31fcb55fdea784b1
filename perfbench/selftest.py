"""Self-test of the benchmark itself (not of kfsslab).

    python3 perfbench/selftest.py

For every workload it checks that
  * two traced runs with the same seed report identical per-layer counts
    (every metric whose unit is ``count`` or ``ratio``, except the tracing
    overhead, which is a time ratio) and identical inputs;
  * a run with another seed generates different inputs;
and, once, that run.py fails without printing a result in a directory that
holds only BENCHMARK.json and perfbench/, i.e. without kfsslab's sources.
Short runs (--seconds 1, one round) keep it to about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMED_RATIOS = {"trace.overhead_frac", "trace.unattributed_frac", "cli.sweep.pool_efficiency"}


def _record(workload: str, seed: int, trace: int, tmp: Path) -> dict:
    out = tmp / f"{workload}-{seed}-{trace}.json"
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                    "--seconds", "1", "--trace", str(trace), "--record", str(out)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=200)
    return json.loads(out.read_text(encoding="utf-8"))


def _counts(rec: dict) -> dict:
    return {k: m["value"] for k, m in rec["metrics"].items()
            if m["unit"] in ("count", "ratio") and k not in TIMED_RATIOS}


def _without_sources(tmp: Path) -> list[str]:
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    res = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "x3c-decide", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=180)
    problems = []
    if res.returncode == 0:
        problems.append("run.py succeeded without kfsslab sources")
    if '"correct"' in res.stdout:
        problems.append("run.py printed a result without kfsslab sources")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    problems = []
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmpdir:
        tmp = Path(tmpdir)
        for workload in (w["name"] for w in spec["workloads"]):
            first, second = _record(workload, 1, 1, tmp), _record(workload, 1, 1, tmp)
            other = _record(workload, 2, 0, tmp)
            a, b = _counts(first), _counts(second)
            diff = {k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}
            if diff:
                problems.append(f"{workload}: per-layer counts differ between same-seed runs: {diff}")
            if first["inputs_sha256"] != second["inputs_sha256"]:
                problems.append(f"{workload}: same seed gave different inputs")
            if other["inputs_sha256"] == first["inputs_sha256"]:
                problems.append(f"{workload}: seeds 1 and 2 gave the same inputs")
            if first["failed"] or second["failed"] or other["failed"]:
                problems.append(f"{workload}: failed items")
            print(f"{workload}: {len(a)} counts repeat: {not diff}; seeds differ: "
                  f"{other['inputs_sha256'] != first['inputs_sha256']}", flush=True)
        problems += _without_sources(tmp)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
