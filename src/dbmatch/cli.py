"""Command-line front end.

Subcommands: ``capacity`` (exact value with its per-count decomposition
and a cross-check), ``simulate`` (one config, full trial records),
``sweep`` (growth-rate grid) and ``detect-bench``.  Output files are
written whole after a run succeeds, through a temporary file renamed onto
the target, so a crash never leaves one partially written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments, probability
from .errors import DbMatchError
from .probability import IDENTITY_TOL


def _capacity_report(cfg: experiments.ExperimentConfig) -> dict:
    """The capacity (the sum of the per-count terms, as in
    probability.capacity) and its cross-check against the direct joint;
    raises DbMatchError when the two disagree, whatever the output format."""
    per = probability.capacity_per_count(cfg.p_x, cfg.p_s, cfg.channel)
    cap = float(sum(per.values()))
    direct = probability.capacity_direct(cfg.p_x, cfg.p_s, cfg.channel)
    if not abs(cap - direct) <= IDENTITY_TOL:  # NaN fails too
        raise DbMatchError(
            f"capacity cross-check failed: decomposition {cap!r} vs direct {direct!r}"
        )
    return {
        "capacity": cap,
        "crossCheck": direct,
        "perCount": {str(s): term for s, term in sorted(per.items())},
    }


def _capacity_text(report: dict) -> str:
    cap, direct = report["capacity"], report["crossCheck"]
    lines = [f"capacity {cap!r} bits/column (cross-check {direct!r})"]
    lines.extend(f"  s={s}: {term!r}" for s, term in report["perCount"].items())
    return "\n".join(lines) + "\n"


# command -> (help, run, default format, JSON builder, text builder); for
# capacity the "csv" format is the plain-text report
COMMANDS = {
    "capacity": (
        "print the matching capacity and its per-count decomposition",
        _capacity_report, "csv", lambda report: report, _capacity_text,
    ),
    "simulate": (
        "run end-to-end trials for one config",
        experiments.simulate, "json", experiments.records_to_json, experiments.records_to_csv,
    ),
    "sweep": (
        "run a growth-rate sweep across the capacity value",
        experiments.run_sweep, "csv", experiments.sweep_to_json, experiments.sweep_to_csv,
    ),
    "detect-bench": (
        "benchmark the two detection stages",
        experiments.detection_bench, "csv", experiments.bench_to_json, experiments.bench_to_csv,
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbmatch",
        description="Database matching under noisy column repetitions: "
        "capacity calculator and simulation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, *_) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--seed", type=int, default=None, help="override masterSeed")
        if name == "sweep":
            p.add_argument("--grid", help="comma-separated rates overriding rateGrid")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        target = Path(out)
        tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(text)
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _, run, default_format, to_json, to_text = COMMANDS[args.command]
    try:
        cfg = experiments.load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, master_seed=args.seed)
        if args.threads is not None:
            cfg = replace(cfg, threads=args.threads)
        if getattr(args, "grid", None):
            cfg = replace(cfg, rate_grid=tuple(float(v) for v in args.grid.split(",")))
        result = run(cfg)
        if (args.format or default_format) == "json":
            text = json.dumps(to_json(result), indent=2) + "\n"
        else:
            text = to_text(result)
        _emit(text, args.out)
    except (DbMatchError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"dbmatch: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
