"""kfsslab benchmark: run one workload on one seed and print its metrics.

    python3 perfbench/run.py --workload x3c-decide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; kfsslab is imported from its ``src``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Every metric is printed on its own line
with its unit; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, the metrics being those listed
for that mode in BENCHMARK.json.  See perfbench/README.md.

Set-up is timed in this process, from starting a fresh interpreter to the
moment it has imported kfsslab and warmed its kernel up.  It is measured
SETUP_SAMPLES times, in set-up-only processes, and the median is reported.
Every time is converted to the reference speed of speed.py's probe; the raw
times are printed alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread here and in every worker, so that BLAS threads never
# outnumber the two cores and the speed probe runs alike in both processes
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(SINGLE_THREAD)

import numpy as np  # noqa: E402  (after the thread settings)
from scipy.special import betainc  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
SETUP_SAMPLES = 8
DEADLINE_S = 170.0
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it


class BenchError(RuntimeError):
    pass


def _env(trace: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if trace:
        env["KFSSLAB_THREADS"] = "1"
    else:
        env.pop("KFSSLAB_THREADS", None)
    return env


def _start(worker_args: list[str], env: dict, deadline: float):
    """Start a worker and wait for READY; return (process, set-up seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *worker_args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError("worker did not get ready (is src/kfsslab present?)")
    except BaseException:
        _stop(proc)
        raise
    return proc, setup


def _stop(proc) -> None:
    proc.kill()
    proc.wait()
    proc.stdout.close()


def _finish(proc, deadline: float) -> None:
    """Wait for a worker that printed READY (it prints nothing after)."""
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker exceeded the deadline") from None
    proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() or None


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  Items come in clusters (one per tau, q or family), and
    a single order statistic jumps between clusters from seed to seed; the
    weighted mean moves smoothly."""
    n = len(values)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), sorted(values)))


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least TAIL_BEYOND samples
    above it, and that percentile; the maximum when there are too few."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return max(latencies), 100.0
    p = (n - TAIL_BEYOND) / n
    return quantile(latencies, p), 100.0 * p


def end_to_end(lat: list[float], setups: list[float], raw: dict, prefix: str = "") -> dict:
    tail_s, _ = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_items_per_s": (len(lat) / sum(lat), "1/s"),
        "item_p50_ms": (1e3 * quantile(lat, 0.5), "ms"),
        "item_tail_ms": (1e3 * tail_s, "ms"),
    }
    if not prefix:
        metrics["fail_frac"] = (raw["failed"] / raw["items"], "ratio")
        metrics["peak_rss_mb"] = (raw["peak_rss_mb"], "MB")
    return {prefix + name: v for name, v in metrics.items()}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    spec = _spec()
    env = _env(trace)
    # paths relative to ROOT, the working directory of every process
    workdir = WORKDIR.relative_to(ROOT) / f"run-{os.getpid()}"
    (ROOT / workdir).mkdir(parents=True, exist_ok=True)
    spans = WORKDIR.relative_to(ROOT) / f"spans-{workload}-seed{seed}.json"
    base = ["--workload", workload, "--seed", str(seed), "--trace", str(trace), "--workdir", str(workdir)]

    def setup_only() -> float:
        proc, setup = _start(base + ["--seconds", "0", "--setup-only"], env, deadline)
        _finish(proc, deadline)
        return setup

    try:
        clock = speed.Clock(speed.spawn_probe, speed.SPAWN_REFERENCE_S)
        raw_setups, setups = [], []
        for _ in range(SETUP_SAMPLES):
            setup = clock.time(setup_only)
            raw_setups.append(setup)
            setups.append(setup * clock.scale)
        result = workdir / "result.json"
        proc, _ = _start(base + ["--seconds", str(seconds), "--spans", str(spans), "--result", str(result)],
                         env, deadline)
        _finish(proc, deadline)
        raw = json.loads((ROOT / result).read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)

    if trace:
        metrics = {name: tuple(v) for name, v in raw["per_layer"].items()}
        listed = spec["per_layer"]
    else:
        metrics = end_to_end(raw["latencies_s"], setups, raw)
        metrics.update(end_to_end(raw["raw_latencies_s"], raw_setups, raw, prefix="raw."))
        listed = spec["end_to_end"]
    _, pct = tail(raw["latencies_s"])
    raw["stamp"]["git_rev"] = _git_rev()
    raw["stamp"]["setup_samples_s"] = setups
    raw["stamp"]["probes"] = {
        "items": {"median_s": statistics.median(raw["probes_s"]), "reference_s": raw["probe_reference_s"]},
        "setup": {"median_s": statistics.median(clock.probes), "reference_s": clock.reference},
    }
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "items": raw["items"], "rounds": raw["rounds"], "tail_percentile": pct,
        "attempted": raw["items"], "failed": raw["failed"], "problems": raw["problems"],
        "inputs_sha256": raw["inputs_sha256"], "stamp": raw["stamp"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "listed": [m["name"] for m in listed],
        "layers": raw.get("layers"), "spans": str(spans) if trace else None,
        "latencies_s": raw["latencies_s"], "raw_latencies_s": raw["raw_latencies_s"],
    }


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    workloads = [w["name"] for w in _spec()["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", default=None, help="also write the full run record (JSON) here")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    try:
        rec = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    print(f"# workload={rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"items={rec['items']} rounds={rec['rounds']} inputs_sha256={rec['inputs_sha256'][:16]}")
    print(f"# stamp {json.dumps(rec['stamp'], sort_keys=True)}")
    for problem in rec["problems"]:
        print(f"# FAILED {problem}")
    for name, m in rec["metrics"].items():
        note = ""
        if name == "item_tail_ms":
            note = f"  (p{rec['tail_percentile']:.1f} of N={rec['items']})"
        print(f"{name} {m['value']!r} {m['unit']}{note}")
    if rec["trace"]:
        print("# layer self time (s) and calls; spans in " + rec["spans"])
        for name, row in sorted(rec["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"#   {name:24s} {row['self_s']:10.4f} s {row['calls']:9d} calls")
    if args.record:
        Path(args.record).write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: rec["metrics"][name] for name in rec["listed"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
