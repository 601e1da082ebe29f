"""Command-line front end.

Subcommands
-----------
estimate    estimate the null proportion from a file of p-values
mtp         run the plug-in step-up procedure and report rejections
simulate    run a replicated scenario study and write summary tables
risk-debug  dump per-partition risk internals for cross-checking

Exit codes: 0 success, 2 usage error, 3 input data error, 4 numeric
degeneracy in the estimator.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
from collections import Counter
from pathlib import Path

from . import sim_harness
from .errors import (ConflictingFlags, DegenerateSelection, InputError, InvalidRange,
                     InvalidTheta, UsageError)
from .histogram_core import PartitionSpec, load_sample, partition_count, read_pvalue_file
from .jsonio import dumps17
from .lpo_risk import grid_diagnostics, partition_diagnostics
from .mtp import check_alpha, check_delta, plugin_mtp, rejected_mask
from .pi0_estimator import METHODS, EstimatorConfig, estimate_json_dict, estimate_pi0
from .sim_harness import parse_scenario_file, run_scenario

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DEGENERATE = 4


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, fmt: str, output: str | None) -> None:
    if fmt == "csv":
        def cell(value):
            if isinstance(value, str):
                return value
            if isinstance(value, (list, tuple)):
                return ";".join(str(v) for v in value)
            return dumps17(value)
        lines = [f"{key},{cell(value)}" for key, value in payload.items()]
        _write("\n".join(lines) + "\n", output)
    else:
        _write(dumps17(payload) + "\n", output)


def _load_input(args) -> tuple:
    raw = read_pvalue_file(args.input, column=args.column)
    return raw, load_sample(raw)


def _estimator_config(args) -> EstimatorConfig:
    return EstimatorConfig(n_min=args.nmin, n_max=args.nmax,
                           method=args.method, lam=args.lam)


def cmd_estimate(args) -> int:
    cfg = _estimator_config(args)   # flags first, as in cmd_mtp
    _, sample = _load_input(args)
    _emit(estimate_json_dict(estimate_pi0(sample, cfg)), args.format, args.output)
    return EXIT_OK


def cmd_mtp(args) -> int:
    # flags first, so a bad one is reported before a large input is parsed
    check_alpha(args.alpha)
    check_delta(args.delta)
    if args.pi0 is not None and not 0.0 < args.pi0 <= 1.0:
        raise InvalidTheta(f"--pi0 must lie in (0, 1], got {args.pi0}")
    cfg = _estimator_config(args)
    raw, sample = _load_input(args)
    pi0 = args.pi0 if args.pi0 is not None else estimate_pi0(sample, cfg)
    result = plugin_mtp(sample, args.alpha, pi0, args.delta)
    mask = rejected_mask(raw, result)
    base = 1 if args.one_based else 0
    payload = {
        "alpha": result.alpha,
        "theta": result.theta,
        "delta": result.delta,
        "k_hat": result.k_hat,
        "threshold": result.threshold,
        "rejected_indices": (mask.nonzero()[0] + base).tolist(),
    }
    _emit(payload, args.format, args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    given = [n for n in ("kind", *sim_harness.SCENARIO_TYPES) if getattr(args, n) is not None]
    if args.scenario:
        if given:
            raise ConflictingFlags("--scenario takes every scenario field from its file; "
                                   f"drop {', '.join(map(_flag, given))}")
        spec, alpha = parse_scenario_file(args.scenario)
    else:
        if args.kind is None:
            raise UsageError("either --scenario or --kind is required")
        fields = {**sim_harness.SCENARIO_DEFAULTS, **{name: getattr(args, name) for name in given}}
        alpha = fields.pop("alpha")
        spec = sim_harness.ScenarioSpec(**fields)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    table = run_scenario(spec, methods=methods, alpha=alpha, delta=args.delta)
    if args.output:
        base = Path(args.output)
        sim_harness.write_summary_csv(table, base.with_name(base.name + "_methods.csv"),
                                      base.with_name(base.name + "_procedures.csv"))
        sim_harness.write_replicates_json(table, base.with_name(base.name + "_replicates.json"))
    else:
        methods, procedures = sim_harness.summary_rows(table)
        csv.writer(sys.stdout, lineterminator="\n").writerows([*methods, [], *procedures])
    if not table.valid:
        # each distinct cause, in order of first occurrence, then the verdict
        causes = Counter(r.error for r in table.replicates if r.failed)
        for error, k in causes.items():
            sys.stderr.write(f"warning: {k} of {len(table.replicates)} replicates failed: {error}\n")
        sys.stderr.write("warning: table contains failed replicates\n")
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_risk_debug(args) -> int:
    # flags first, so a bad one is reported before a large input is parsed
    if args.limit is not None and args.limit < 0:
        raise InvalidRange(f"--limit must be >= 0, got {args.limit}")
    if args.all:
        given = [name for name in ("N", "k", "l") if getattr(args, name) is not None]
        if given:
            raise ConflictingFlags("--all enumerates every partition; "
                                   f"drop {', '.join(map(_flag, given))}")
        partition_count(args.nmin, args.nmax)   # rejects an invalid grid range
    elif args.N is None or args.k is None or args.l is None:
        raise UsageError("risk-debug needs --N, --k and --l, or --all")
    else:
        spec = PartitionSpec(args.N, args.k, args.l)
    _, sample = _load_input(args)
    if args.all:
        # records are scored a block at a time, and only until the limit
        records = itertools.islice(itertools.chain.from_iterable(
            grid_diagnostics(sample, n) for n in range(args.nmin, args.nmax + 1)), args.limit)
    else:
        records = [partition_diagnostics(sample, spec)]
    _write("\n".join(dumps17(rec) for rec in records) + "\n", args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pi0cv",
                                     description="null-proportion estimation and plug-in FDR control")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, with_format=True):
        p.add_argument("--input", required=True, help="file of p-values")
        p.add_argument("--column", default=None, help="CSV column name (default: plain text)")
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        if with_format:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    def add_grid(p):
        # a dataclass keeps each field's default as its class attribute
        p.add_argument("--nmin", type=int, default=EstimatorConfig.n_min)
        p.add_argument("--nmax", type=int, default=EstimatorConfig.n_max)

    def add_estimator(p):
        p.add_argument("--method", choices=METHODS, default=EstimatorConfig.method)
        p.add_argument("--lambda", dest="lam", type=float, default=EstimatorConfig.lam,
                       help="cutoff for --method ss")
        add_grid(p)

    p = sub.add_parser("estimate", help="estimate the proportion of true nulls")
    add_io(p)
    add_estimator(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("mtp", help="plug-in step-up testing")
    add_io(p)
    add_estimator(p)
    p.add_argument("--alpha", type=float, default=0.15)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--pi0", type=float, default=None,
                   help="plug this value instead of estimating")
    p.add_argument("--one-based", action="store_true",
                   help="report 1-based rejected indices")
    p.set_defaults(func=cmd_mtp)

    p = sub.add_parser("simulate", help="replicated scenario study")
    p.add_argument("--scenario", default=None, help="flat key=value scenario file")
    p.add_argument("--kind", choices=sim_harness.KINDS)
    for name, parse in sim_harness.SCENARIO_TYPES.items():
        default = sim_harness.SCENARIO_DEFAULTS.get(name)
        note = "" if default is None else f"default {default}; "
        p.add_argument(_flag(name), type=parse,
                       help=f"{note}not allowed with --scenario, whose file sets it")
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--methods", default=",".join(sim_harness.DEFAULT_METHODS))
    p.add_argument("--output", default=None, help="base path for CSV/JSON outputs")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("risk-debug", help="dump per-partition risk internals as JSON lines")
    add_io(p, with_format=False)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--all", action="store_true", help="enumerate the whole family")
    p.add_argument("--limit", type=int, default=None, help="cap --all output lines")
    add_grid(p)
    p.set_defaults(func=cmd_risk_debug)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        code, error = EXIT_USAGE, exc
    except (InputError, OSError) as exc:
        code, error = EXIT_DATA, exc
    except DegenerateSelection as exc:
        code, error = EXIT_DEGENERATE, exc
    name = "IOError" if isinstance(error, OSError) else type(error).__name__
    sys.stderr.write(dumps17({"error": name, "message": str(error)}) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
