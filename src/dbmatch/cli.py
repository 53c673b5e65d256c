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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbmatch",
        description="Database matching under noisy column repetitions: "
        "capacity calculator and simulation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("capacity", "print the matching capacity and its per-count decomposition"),
        ("simulate", "run end-to-end trials for one config"),
        ("sweep", "run a growth-rate sweep across the capacity value"),
        ("detect-bench", "benchmark the two detection stages"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--seed", type=int, default=None, help="override masterSeed")
        if name == "sweep":
            p.add_argument(
                "--grid", default=None, help="comma-separated rates overriding rateGrid"
            )
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


def _capacity_values(cfg: experiments.ExperimentConfig):
    """(capacity, cross-check, per-count terms); the capacity is the sum of
    the per-count terms, as in probability.capacity."""
    per = probability.capacity_per_count(cfg.p_x, cfg.p_s, cfg.channel)
    direct = probability.capacity_direct(cfg.p_x, cfg.p_s, cfg.channel)
    return float(sum(per.values())), direct, per


def _capacity_text(cfg: experiments.ExperimentConfig) -> str:
    cap, direct, per = _capacity_values(cfg)
    if not abs(cap - direct) <= IDENTITY_TOL:  # NaN fails too
        raise DbMatchError(
            f"capacity cross-check failed: decomposition {cap!r} vs direct {direct!r}"
        )
    lines = [f"capacity {cap!r} bits/column (cross-check {direct!r})"]
    for s, term in sorted(per.items()):
        lines.append(f"  s={s}: {term!r}")
    return "\n".join(lines) + "\n"


def _capacity_json(cfg: experiments.ExperimentConfig) -> str:
    cap, direct, per = _capacity_values(cfg)
    return (
        json.dumps(
            {
                "capacity": cap,
                "crossCheck": direct,
                "perCount": {str(s): term for s, term in sorted(per.items())},
            },
            indent=2,
        )
        + "\n"
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = experiments.load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, master_seed=args.seed)
        if args.threads is not None:
            cfg = replace(cfg, threads=args.threads)

        if args.command == "capacity":
            fmt = args.format or "csv"  # csv means plain text here
            text = _capacity_json(cfg) if fmt == "json" else _capacity_text(cfg)
            _emit(text, args.out)
        elif args.command == "simulate":
            records = experiments.simulate(cfg)
            fmt = args.format or "json"
            if fmt == "json":
                text = json.dumps(experiments.records_to_json(records), indent=2) + "\n"
            else:
                text = experiments.records_to_csv(records)
            _emit(text, args.out)
        elif args.command == "sweep":
            grid = None
            if args.grid:
                grid = [float(v) for v in args.grid.split(",")]
            result = experiments.run_sweep(cfg, grid)
            fmt = args.format or "csv"
            if fmt == "json":
                text = json.dumps(experiments.sweep_to_json(result), indent=2) + "\n"
            else:
                text = experiments.sweep_to_csv(result)
            _emit(text, args.out)
        elif args.command == "detect-bench":
            rows = experiments.detection_bench(cfg)
            fmt = args.format or "csv"
            if fmt == "json":
                text = json.dumps(experiments.bench_to_json(rows), indent=2) + "\n"
            else:
                text = experiments.bench_to_csv(rows)
            _emit(text, args.out)
    except (DbMatchError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"dbmatch: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
