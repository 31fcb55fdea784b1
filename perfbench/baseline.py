"""Repeat the benchmark over seeds and summarise the run-to-run spread.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline/BENCH_<label>.json

For every workload in BENCHMARK.json (or those given with --workloads) this
runs ``run.py --trace 0`` once per seed, one run at a time, then one traced
run on the first seed.  For each end-to-end metric it reports the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  The summary and every run record go to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        record = Path(tmp) / "record.json"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--record", str(record)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        if res.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd[1:])} exited {res.returncode}:\n{res.stderr}")
        rec = json.loads(record.read_text(encoding="utf-8"))
    rec.pop("latencies_s", None)
    rec.pop("raw_latencies_s", None)
    return rec


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--no-trace", action="store_true", help="skip the traced run")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    (ROOT / ".perfbench").mkdir(exist_ok=True)

    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            rec = _run(workload, seed, seconds, 0)
            runs.append(rec)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in rec["metrics"].items())
            print(f"{workload} seed={seed} failed={rec['failed']} {values}", flush=True)
        entry = {"stamp": runs[0]["stamp"], "items": runs[0]["items"],
                 "tail_percentile": runs[0]["tail_percentile"],
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}, "runs": runs}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = spread([r["metrics"][name]["value"] for r in runs])
            stats.update(unit=metric["unit"], bound=metric["bound"])
            entry["end_to_end"][name] = stats
            if name != "setup_s":
                worst = max(worst, stats["spread"] / metric["bound"])
            flag = "ok" if stats["spread"] < metric["bound"] / 3 else (
                "WITHIN BOUND" if stats["spread"] <= metric["bound"] else "OVER BOUND")
            print(f"  {name:24s} median {stats['median']:.6g} {metric['unit']:5s} "
                  f"spread {stats['spread']:.3f} (bound {metric['bound']}) {flag}", flush=True)
        for name in sorted(k for k in runs[0]["metrics"] if k.startswith("raw.")):
            stats = spread([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = stats
            print(f"  {name:24s} median {stats['median']:.6g} spread {stats['spread']:.3f} (unscaled)", flush=True)
        fail = runs[0]["metrics"].get("fail_frac")
        print(f"  fail_frac {fail['value'] if fail else None} on seed {seeds[0]}; "
              f"{entry['failed']} failed items over {len(runs)} runs", flush=True)
        if not args.no_trace:
            traced = _run(workload, seeds[0], seconds, 1)
            entry["traced"] = {"seed": seeds[0], "items": traced["items"], "failed": traced["failed"],
                               "per_layer": traced["metrics"], "layers": traced["layers"]}
            print(f"  traced: overhead {traced['metrics']['trace.overhead_frac']['value']:.4f}, "
                  f"unattributed {traced['metrics']['trace.unattributed_frac']['value']:.2e}", flush=True)
        summary["workloads"][workload] = entry
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
