"""Command-line orchestrator.

Subcommands:
  partition  one circuit -> stage metrics + overhead report (table/json/csv/dot)
  bench      a directory of circuits -> one CSV row each, failures isolated
  verify     variance-bound presets; --full runs the full-scale budgets
  fixtures   write generated chain benchmark circuits

Data goes to stdout, diagnostics to stderr. Exit codes: 0 success, 1 input or
verification failure, 2 infeasible qubit cap.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import itertools
import json
import multiprocessing
import os
import sys
import time

from . import __version__
from ._checks import _check_eps
from .clustering import PipelineResult, run_pipeline
from .fixtures import ising_chain
from .graph import build_cut_graph, to_dot
from .overhead import build_report
from .qasm import QasmError, parse_qasm_file, to_qasm

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("expected a JSON object of flag defaults")
    return config


def _subparser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    return subparsers.choices[command]


def _config_value(action: argparse.Action, value):
    """``value`` as the flag ``action`` takes it: a JSON bool for a
    ``store_true`` flag, else a string the flag parses or a JSON number of
    its type, and one of its choices if it has any."""
    if action.nargs == 0:
        ok = isinstance(value, bool)
    elif isinstance(value, str):
        try:
            value = action.type(value) if action.type else value
            ok = True
        except ValueError:
            ok = False
    else:  # an int also for a float flag, as "--eps 1" is
        ok = (action.type in (int, float) and not isinstance(value, bool)
              and isinstance(value, (int, action.type)))
        value = action.type(value) if ok else value
    if not ok or (action.choices is not None and value not in action.choices):
        raise ValueError(f"{action.option_strings[0]} does not take {json.dumps(value)}")
    return value


def _config_defaults(subparser: argparse.ArgumentParser, config: dict) -> dict:
    """Config keys as flag destinations, each value checked as its flag would
    check it; only the subcommand's options are accepted, ``--config``
    itself excluded."""
    actions = {action.dest: action for action in subparser._actions
               if action.option_strings and action.dest not in ("help", "config")}
    defaults = {key.replace("-", "_"): value for key, value in config.items()}
    unknown = sorted(set(defaults) - set(actions))
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(unknown)}")
    return {dest: _config_value(actions[dest], value) for dest, value in defaults.items()}


def _run_file(path: str, args) -> tuple[PipelineResult, object, object]:
    circuit = parse_qasm_file(path)
    graph = build_cut_graph(circuit)
    result = run_pipeline(graph, args.max_qubits, restarts=args.restarts, seed=args.seed)
    # only the JSON output shows budgets
    eps = args.eps if getattr(args, "format", None) == "json" else None
    report = build_report(result.clustering, graph, eps=eps)
    return result, report, graph


def cmd_partition(args) -> int:
    try:
        result, report, graph = _run_file(args.file, args)
    except (QasmError, OSError, ValueError, OverflowError) as exc:
        return _fail(str(exc), EXIT_ERROR)

    name = os.path.splitext(os.path.basename(args.file))[0]
    if args.format == "table":
        _print_table(name, result)
    elif args.format == "json":
        payload = {
            "name": name,
            "max_qubits": args.max_qubits,
            "stages": [s.to_json_dict() for s in result.stages],
            "report": report.to_json_dict(),
            "clustering": result.clustering.to_json_dict(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("stage", "lq", "ld", "r", "wall_time_s"))
        writer.writerows((s.stage, f"{s.lq:.6f}", f"{s.ld:.6f}", s.r, f"{s.wall_time_s:.4f}")
                         for s in result.stages)
    elif args.format == "dot":
        sys.stdout.write(to_dot(graph, result.clustering))
    return EXIT_OK


def _print_table(name: str, result: PipelineResult) -> None:
    print(f"circuit: {name}")
    header = f"{'stage':<8}{'L_Q':>10}{'L_D':>10}{'R':>6}{'time[s]':>10}"
    print(header)
    print("-" * len(header))
    for s in result.stages:
        print(f"{s.stage:<8}{s.lq:>10.2f}{s.ld:>10.2f}{s.r:>6}{s.wall_time_s:>10.4f}")


_BENCH_COLUMNS = ("name", "lq", "n_space", "n_time", "l_tot", "r", "wall_time_s", "error")


def _bench_row(path: str, args) -> dict:
    """One row of ``cutplan bench`` by column; a failing file fills only
    ``name`` and ``error``."""
    name = os.path.splitext(os.path.basename(path))[0]
    start = time.perf_counter()
    try:
        _, report, _ = _run_file(path, args)
    except Exception as exc:  # isolate per-file failures
        return {"name": name, "error": str(exc).replace("\n", " ")}
    elapsed = time.perf_counter() - start
    return {"name": name, "lq": f"{report.lq:.6f}", "n_space": report.n_space,
            "n_time": report.n_time, "l_tot": f"{report.l_tot:.6f}", "r": report.r,
            "wall_time_s": f"{elapsed:.4f}"}


def cmd_bench(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        return _fail(f"--jobs must be at least 1, got {args.jobs}", EXIT_ERROR)
    try:
        files = sorted(
            os.path.join(args.dir, f) for f in os.listdir(args.dir)
            if f.endswith(".qasm")
        )
    except OSError as exc:
        return _fail(str(exc), EXIT_ERROR)
    if not files:
        return _fail("no circuits found", EXIT_ERROR)

    workers = min(len(files), args.jobs or os.cpu_count() or 1)
    # planning is pure Python, so only processes run files in parallel
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        rows = list(pool.map(_bench_row, files, itertools.repeat(args)))
    writer = csv.DictWriter(sys.stdout, _BENCH_COLUMNS, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    if not any("lq" in row for row in rows):
        return _fail("no circuit processed successfully", EXIT_ERROR)
    return EXIT_OK


_CI_PRESETS = ((3, 0.2, 20), (4, 0.2, 20))
_FULL_PRESETS = ((3, 0.03, 100), (4, 0.03, 100), (3, 0.01, 100), (4, 0.01, 100))


def cmd_verify(args) -> int:
    from .cutsim import ExperimentConfig, variance_experiment

    # open the CSV first, so that a bad path fails before any preset runs
    try:
        errors_csv = open(args.errors_csv, "w", encoding="utf-8") if args.errors_csv else None
    except OSError as exc:
        return _fail(str(exc), EXIT_ERROR)
    with errors_csv or contextlib.nullcontext():
        presets = _FULL_PRESETS if args.full else _CI_PRESETS
        summaries = []
        for label, (partitions, eps, reps) in enumerate(presets, start=1):
            reps = reps if args.repetitions is None else args.repetitions
            config = ExperimentConfig(partitions=partitions, eps=eps, repetitions=reps,
                                      seed=args.seed if args.seed is not None else 0)
            start = time.perf_counter()
            try:
                summary = variance_experiment(config)
            except ValueError as exc:
                return _fail(str(exc), EXIT_ERROR)
            elapsed = time.perf_counter() - start
            summaries.append((label, summary))
            verdict = "pass" if summary.within_bound and summary.exact_within_bound else "FAIL"
            print(f"preset ({label}): partitions={partitions} eps={eps} "
                  f"n_total={summary.n_total} std={summary.std:.6f} "
                  f"exact_std_max={summary.exact_std:.6f} [{verdict}] "
                  f"wall={elapsed:.2f}s", file=sys.stderr)
        payload = {"presets": [dict(label=label, **s.to_json_dict())
                               for label, s in summaries]}
        print(json.dumps(payload, indent=2, sort_keys=True))
        if errors_csv:
            writer = csv.writer(errors_csv, lineterminator="\n")
            writer.writerow(("preset", "repetition", "error"))
            writer.writerows((label, rep, repr(err)) for label, s in summaries
                             for rep, err in enumerate(s.errors))
    if not all(s.within_bound for _, s in summaries):
        return _fail("observed standard deviation exceeded eps", EXIT_ERROR)
    if not all(s.exact_within_bound for _, s in summaries):
        return _fail("exact standard deviation exceeded eps", EXIT_ERROR)
    return EXIT_OK


def cmd_fixtures(args) -> int:
    try:
        widths = [int(w) for w in args.widths.split(",")]
    except ValueError:
        return _fail(f"--widths must be comma-separated integers, got {args.widths!r}",
                     EXIT_ERROR)
    try:
        # every circuit is built before the first file is written
        circuits = [ising_chain(width, depth=args.depth, seed=args.seed or 0)
                    for width in widths]
        os.makedirs(args.out, exist_ok=True)
        for circuit in circuits:
            path = os.path.join(args.out, f"{circuit.name}.qasm")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(to_qasm(circuit))
            print(path)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), EXIT_ERROR)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cutplan",
                                     description="overhead-aware circuit cut planner")
    parser.add_argument("--version", action="version", version=f"cutplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max-qubits", "-D", type=int, default=30,
                       help="qubit cap per partition (default 30)")
        p.add_argument("--eps", type=float, default=None,
                       help="target standard deviation; adds shot budgets")
        p.add_argument("--restarts", type=int, default=1,
                       help="stage-2 runs, best kept: the weighted order, then random ones")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="JSON file with flag defaults")

    p = sub.add_parser("partition", help="partition one circuit")
    p.add_argument("file")
    common(p)
    p.add_argument("--format", choices=("table", "json", "csv", "dot"), default="table")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("bench", help="partition every .qasm in a directory")
    p.add_argument("dir")
    common(p)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: one per core)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="run the variance-bound experiment")
    p.add_argument("--full", action="store_true",
                   help="full-scale budgets (3/4 partitions at eps 0.03 and 0.01)")
    p.add_argument("--repetitions", type=int, default=None,
                   help="override repetitions per preset")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--errors-csv", default=None,
                   help="write per-repetition errors to this CSV file")
    p.add_argument("--config", default=None, help="JSON file with flag defaults")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fixtures", help="emit generated chain circuits")
    p.add_argument("--out", required=True)
    p.add_argument("--widths", default="8,16,34", help="comma-separated qubit counts")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # the config file supplies defaults; parsing again lets every
        # spelling of an explicit flag win over them
        subparser = _subparser(parser, args.command)
        try:
            subparser.set_defaults(**_config_defaults(subparser, _load_config(args.config)))
        except (OSError, ValueError) as exc:
            return _fail(f"bad config file: {exc}", EXIT_ERROR)
        args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        return _fail(f"--seed must not be negative, got {args.seed}", EXIT_ERROR)
    if getattr(args, "max_qubits", 1) < 1:
        return _fail(f"infeasible qubit cap {args.max_qubits}", EXIT_INFEASIBLE)
    if getattr(args, "eps", None) is not None:
        try:
            _check_eps(args.eps)
        except ValueError as exc:
            return _fail(str(exc), EXIT_ERROR)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
