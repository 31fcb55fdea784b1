"""Command-line front end.

Commands:
    solve   run a selection/attack solver on a JSON instance
    gadget  generate instance files (counterexample families, reductions)
    x3c     decide exact-cover instances directly or through a reduction
    sweep   h-parameter sweeps of the counterexample families, CSV output

Exit codes: 0 success, 1 input error, 2 solver error, 3 enumeration too
large.  Report payloads carry no timestamps, so identical invocations write
byte-identical files.  A file that cannot be read or written is an input
error, and a run that fails so leaves none of the files it created.  A
sweep builds every point's model first, then runs one
solvers.greedy_and_optimal over all of them, in this process, and writes
its rows in grid order.  No flag sets a solver tolerance: the solvers use
the constants of the riccati module.  The parser is built once, at import.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys

import numpy as np

from . import closed_forms, gadgets, model as model_mod, riccati, solvers

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_TOO_LARGE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the exit-code contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _InputError(message)


class _InputError(Exception):
    pass


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_model(path: str) -> model_mod.SystemModel:
    with open(path, encoding="utf-8") as fh:
        return model_mod.validate_model(model_mod.loads_model(fh.read()))


def _load_x3c(path: str) -> gadgets.X3CInstance:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise _InputError(f"invalid X3C JSON in {path}: {exc}") from exc
    try:
        return gadgets.x3c_from_dict(data)
    except (KeyError, TypeError) as exc:
        raise _InputError(f"malformed X3C instance in {path}: {exc}") from exc


def _write_json(*files: tuple[str, dict]) -> None:
    """Write each (path, payload) as JSON, or none of them.  Every path is
    opened, without truncating it, before any is written; when one cannot
    be opened or written, the files this call created are removed again."""
    created = []
    try:
        with contextlib.ExitStack() as stack:
            handles = []
            for path, _ in files:
                existed = os.path.exists(path)
                handles.append(stack.enter_context(open(path, "a", encoding="utf-8")))
                if not existed:
                    created.append(path)
            for fh, (_, payload) in zip(handles, files):
                fh.truncate(0)
                json.dump(payload, fh, sort_keys=True, indent=2)
                fh.write("\n")
    except OSError:
        for path in created:
            os.remove(path)
        raise


def _integral_budget(value: float, what: str) -> int:
    if abs(value - round(value)) > 1e-9:
        raise _InputError(f"greedy needs an integer {what} budget, got {value}")
    return int(round(value))


def cmd_solve(args) -> int:
    model = _load_model(args.instance)
    attack = args.mode == "attack"
    budget = model.budget_attack if attack else model.budget_select
    if args.algorithm == "greedy":
        greedy = solvers.greedy_attack if attack else solvers.greedy_select
        budget = _integral_budget(budget, "attack" if attack else "selection")
        report = greedy(model, budget, args.metric)
    else:
        exhaustive = solvers.exhaustive_attack if attack else solvers.exhaustive_select
        report = exhaustive(model, model.omega if attack else model.b, budget, args.metric)
    support = [i + 1 for i in report.chosen.support]
    trace_text = "inf" if math.isinf(report.trace) else repr(report.trace)
    print(f"trace={trace_text} chosen={support}")
    if args.output:
        _write_json((args.output, solvers.report_to_dict(report)))
    return EXIT_OK


def cmd_gadget(args) -> int:
    if args.kind in ("example1", "example2"):
        build = gadgets.build_example1 if args.kind == "example1" else gadgets.build_example2
        instance = build(args.lambda1, args.h)
        _write_json((args.output, model_mod.model_to_dict(instance)))
        print(f"wrote {args.kind} instance to {args.output}")
        return EXIT_OK
    if args.x3c is None:
        raise _InputError(f"gadget {args.kind} needs --x3c")
    x3c = _load_x3c(args.x3c)
    build = gadgets.build_kfss_gadget if args.kind == "kfss" else gadgets.build_kfsa_gadget
    gadget = build(x3c, args.k)
    sidecar = args.threshold_output or args.output + ".threshold.json"
    _write_json((args.output, model_mod.model_to_dict(gadget.model)),
                (sidecar, gadgets.gadget_to_dict(gadget)))
    print(f"wrote {gadget.kind} instance to {args.output} (threshold {gadget.threshold} in {sidecar})")
    return EXIT_OK


def cmd_x3c(args) -> int:
    inst = _load_x3c(args.x3c)
    if args.via == "bruteforce":
        answer, witness = gadgets.x3c_bruteforce(inst)
        if answer:
            print(f"yes witness={[i + 1 for i in witness]}")
        else:
            print("no")
        return EXIT_OK
    decide = gadgets.x3c_decide_via_kfss if args.via == "kfss" else gadgets.x3c_decide_via_kfsa
    decision = decide(inst, K=args.k, solver=args.solver)
    verdict = "yes" if decision.answer else "no"
    note = " (heuristic: greedy solver carries no guarantee)" if args.solver == "greedy" else ""
    print(f"{verdict} trace={decision.trace!r} threshold={decision.threshold!r}{note}")
    return EXIT_OK


def _sweep_model(family: str, lambda1: float, h: float, v_scale: float | None):
    build = gadgets.build_example1 if family == "example1" else gadgets.build_example2
    instance = build(lambda1, h)
    if v_scale is not None:
        instance.V = v_scale * np.eye(instance.q)
        instance = model_mod.validate_model(instance)
    return instance


def _sweep_grid(args) -> list[float]:
    if args.h_grid:
        try:
            grid = [float(tok) for tok in args.h_grid.split(",") if tok.strip()]
        except ValueError as exc:
            raise _InputError(f"bad --h-grid: {exc}") from exc
    else:
        lo, hi, count = args.h_range
        if not (0 < lo < math.inf and 0 < hi < math.inf and count >= 1 and count.is_integer()):
            raise _InputError(f"--h-range needs positive finite MIN and MAX and an integer COUNT >= 1, "
                              f"got {lo:g} {hi:g} {count:g}")
        count = int(count)
        if count == 1:
            grid = [lo]
        else:
            step = (math.log10(hi) - math.log10(lo)) / (count - 1)
            try:
                grid = [10 ** (math.log10(lo) + i * step) for i in range(count)]
            except OverflowError:
                raise _InputError(f"--h-range {lo:g} {hi:g} {count} has a grid point beyond the "
                                  f"float range") from None
    if not grid:
        raise _InputError("sweep grid is empty")
    return grid


def cmd_sweep(args) -> int:
    grid = _sweep_grid(args)
    models = [_sweep_model(args.family, args.lambda1, h, args.v_scale) for h in grid]
    attack = args.family == "example2"
    predicted = (closed_forms.limit_ratio_attack if attack else closed_forms.limit_ratio_select)(args.lambda1)
    limit = predicted[0] if args.metric == "priori" else predicted[1]
    reports = solvers.greedy_and_optimal(models, 2, "attack" if attack else "select", args.metric)
    rows = [(h, g.trace, o.trace, ratio, limit) for h, (g, o, ratio) in zip(grid, reports)]
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h", "trace_greedy", "trace_optimal", "ratio", "predicted_limit"])
        for row in rows:
            writer.writerow([repr(x) for x in row])
    print(f"wrote {len(rows)} sweep rows to {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kfsslab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a solver on a JSON instance")
    p_solve.add_argument("--instance", required=True, help="instance JSON path")
    p_solve.add_argument("--mode", choices=("select", "attack"), required=True)
    p_solve.add_argument("--algorithm", choices=("greedy", "exhaustive"), required=True)
    p_solve.add_argument("--metric", choices=solvers.METRICS, default="priori")
    p_solve.add_argument("--output", default=None, help="report JSON path")
    p_solve.set_defaults(func=cmd_solve)

    p_gadget = sub.add_parser("gadget", help="generate instance files")
    p_gadget.add_argument("kind", choices=("example1", "example2", "kfss", "kfsa"))
    p_gadget.add_argument("--lambda1", type=float, default=0.9, help="state-1 pole (example families)")
    p_gadget.add_argument("--h", type=float, default=100.0, help="coupling gain (example families)")
    p_gadget.add_argument("--x3c", default=None, help="X3C JSON path (reduction kinds)")
    p_gadget.add_argument("--k", type=float, default=1.0, help="separation factor K >= 1")
    p_gadget.add_argument("--output", required=True, help="instance JSON path")
    p_gadget.add_argument("--threshold-output", default=None, help="threshold sidecar path")
    p_gadget.set_defaults(func=cmd_gadget)

    p_x3c = sub.add_parser("x3c", help="decide an exact-cover instance")
    x3c_sub = p_x3c.add_subparsers(dest="x3c_command", required=True)
    p_decide = x3c_sub.add_parser("decide")
    p_decide.add_argument("--x3c", required=True, help="X3C JSON path")
    p_decide.add_argument("--via", choices=("bruteforce", "kfss", "kfsa"), required=True)
    p_decide.add_argument("--solver", choices=("greedy", "exhaustive"), default="exhaustive")
    p_decide.add_argument("--k", type=float, default=1.0)
    p_decide.set_defaults(func=cmd_x3c)

    p_sweep = sub.add_parser("sweep", help="h-sweep of a counterexample family")
    p_sweep.add_argument("--family", choices=("example1", "example2"), required=True)
    p_sweep.add_argument("--lambda1", type=float, required=True)
    p_sweep.add_argument("--metric", choices=solvers.METRICS, default="priori")
    grid = p_sweep.add_mutually_exclusive_group(required=True)
    grid.add_argument("--h-grid", default=None, help="comma-separated h values")
    grid.add_argument("--h-range", nargs=3, type=float, metavar=("MIN", "MAX", "COUNT"),
                      help="log-spaced grid")
    p_sweep.add_argument("--v-scale", type=float, default=None,
                         help="replace V with this multiple of the identity")
    p_sweep.add_argument("--output", required=True, help="CSV path")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except (_InputError, OSError) as exc:  # OSError: a file that cannot be read or written
        return _fail(str(exc), EXIT_INPUT)
    except (model_mod.ModelError, closed_forms.DomainError, ValueError) as exc:
        if isinstance(exc, gadgets.TooLarge):
            return _fail(str(exc), EXIT_TOO_LARGE)
        if isinstance(exc, (solvers.SolverInputError, riccati.StabilizabilityViolation)):
            return _fail(str(exc), EXIT_SOLVER)
        return _fail(str(exc), EXIT_INPUT)
    except riccati.NoConvergence as exc:
        return _fail(str(exc), EXIT_SOLVER)


if __name__ == "__main__":
    sys.exit(main())
