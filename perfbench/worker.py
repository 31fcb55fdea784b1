"""One benchmark process: set kfsslab up, report readiness, run one workload.

run.py starts this file with PYTHONPATH pointing at the checkout's ``src``
and one BLAS thread.  It prints ``READY`` on stdout once kfsslab is imported
and its kernel warmed up (the end of set-up); unless ``--setup-only``, it
then runs the items and writes one JSON object to ``--result``: item
latencies, failures, peak memory, the stamp of the environment and, for a
traced run, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", default=None)
    p.add_argument("--spans", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import kfsslab
    from kfsslab import riccati

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(kfsslab.__file__).resolve().parents:
        print(f"kfsslab imported from {kfsslab.__file__}, not from {src}", file=sys.stderr)
        return 1
    riccati.warmup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # benchmark-side imports (scipy for the reference solves) come after
    # READY, so they are not counted as kfsslab's set-up
    import speed
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    rounds = wl.rounds(args.seconds)
    if args.trace:
        rounds = max(1, rounds // 2)  # each traced item also runs once untraced
    items = workloads.make_items(args.workload, args.seed, rounds)
    workloads.assign_outputs(items, args.workdir)
    clock = speed.Clock()
    if args.trace:
        result = _run_traced(items, clock, args.spans)
    else:
        result = _run_plain(items, clock)
    result.update(
        items=len(items),
        rounds=rounds,
        inputs_sha256=workloads.fingerprint(items),
        peak_rss_mb=_peak_rss_mb(),
        probes_s=clock.probes,
        probe_reference_s=clock.reference,
        stamp=_stamp(args),
    )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _attempt(clock, item, rec=None):
    """Run one item, timing each of its steps between speed probes; return
    (output or None, raw seconds, seconds at the reference speed, problems).
    With a recorder, each step is an ``item`` span covering exactly the
    timed call, so the probes stay outside every span."""

    def step(fn):
        if rec is None:
            return clock.time(fn)

        def spanned():
            span = rec.open("item")
            try:
                return fn()
            finally:
                rec.close(span)

        return clock.time(spanned)

    clock.raw = clock.scaled = 0.0
    try:
        out, problems = item.run(step), []
    except Exception as exc:  # a failed item is counted, not fatal
        out, problems = None, [f"{type(exc).__name__}: {exc}"]
    return out, clock.raw, clock.scaled, problems


def _checked(item, out, problems) -> list[str]:
    if problems:
        return problems
    try:
        return item.check(out)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def _run_plain(items, clock) -> dict:
    raw_s, latencies, failures = [], [], []
    for item in items:
        out, raw, scaled, problems = _attempt(clock, item)
        raw_s.append(raw)
        latencies.append(scaled)
        problems = _checked(item, out, problems)
        if problems:
            failures.append(problems)
    return {"latencies_s": latencies, "raw_latencies_s": raw_s,
            "failed": len(failures), "problems": failures[:5]}


def _run_traced(items, clock, spans_path) -> dict:
    """Run every item twice, plain and traced, alternating which goes first;
    the tracing overhead is the median over items of traced / plain time."""
    import statistics

    import tracing

    rec = tracing.Recorder()
    instrumentation = tracing.Instrumentation(rec)
    plain_s, raw_s, latencies, failures = [], [], [], []
    for i, item in enumerate(items):
        problems = []
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced:
                _, _, scaled, errors = _attempt(clock, item)
                plain_s.append(scaled)
                problems += errors
                continue
            rec.begin_item(i)
            with instrumentation:
                out, raw, scaled, errors = _attempt(clock, item, rec=rec)
                problems += _checked(item, out, errors)
            rec.end_item()
            raw_s.append(raw)
            latencies.append(scaled)
        if problems:
            failures.append(problems)
    if spans_path:
        rec.dump(spans_path)
    overhead = statistics.median(t / p for t, p in zip(latencies, plain_s)) - 1.0
    return {
        "latencies_s": latencies,
        "raw_latencies_s": raw_s,
        "failed": len(failures),
        "problems": failures[:5],
        "per_layer": tracing.per_layer_metrics(rec, overhead, sum(latencies) / sum(raw_s)),
        "layers": tracing.layer_table(rec),
    }


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child
    (the sweep's pool workers)."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _stamp(args) -> dict:
    import importlib.util
    import platform

    import numpy
    import scipy

    return {
        "backend": "numba" if importlib.util.find_spec("numba") else "numpy",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": args.seed,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "KFSSLAB_THREADS")},
    }


if __name__ == "__main__":
    sys.exit(main())
