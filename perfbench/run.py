"""Trial benchmark for dbmatch: trials per second on three workloads, each
of which loads one layer of the pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

One process runs one workload.  It imports dbmatch from the `src/`
directory next to this one and drives the public API as a closed loop
with a single caller (threads=1): it builds a new
`model.trial_seed_sequence(seed, t)` for trial t and calls
`experiments.run_trial`, one trial after another, until `--seconds` have
passed and at least MIN_TRIALS trials have run.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
trials with every layer call wrapped in an in-memory span (see
tracing.py), prints the per-layer metrics, and writes the spans to
`.perfbench-out/`.  The line before the result records the environment,
the tail percentile with its sample count, the failed-trial share, the
correctness checks and a digest of the first records.

The correctness gate: the workload's quality band, equal records from two
passes over the first trials in one process, and, when traced, equal
records from the traced and an untraced pass.  A run that fails it prints
`"correct": false` and exits with code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads the library: a run measures one
# caller on one core.  Two threads on a shared two-core machine made the
# run-to-run spread several times wider.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench-out"

# set-up is repeated at least SETUP_REPS times and for SETUP_SECONDS
SETUP_REPS = 5
SETUP_SECONDS = 1.0
# the self-check's first pass runs for this share of --seconds; the digest
# covers its first DIGEST_TRIALS records, which every run has
CHECK_SHARE = 0.1
DIGEST_TRIALS = 2
# the tail is the highest percentile with ten trials beyond it
TAIL_BEYOND = 10
MIN_TRIALS = TAIL_BEYOND + 1
SMOKE_SEED = 1

END_TO_END = {
    "trials_per_s": "trials/s",
    "trial_s_p50": "s",
    "trial_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS uses, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "pipeline_threads": 1,
    }


def _clear_caches(modules) -> None:
    """Drop dbmatch's memoized results, so that every set-up repetition
    pays what a fresh process pays."""
    for module in modules:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def set_up(workload, seed: int):
    """Capacity, then the config, then the detection scalars (sigma, tau)."""
    from dbmatch import detection, experiments, matcher, model, probability

    _clear_caches((detection, experiments, matcher, model, probability))
    c = workload.config
    cap = probability.capacity(
        probability.Pmf(c["pX"]), probability.Pmf(c["pS"]), probability.Channel(c["channel"])
    )
    cfg = experiments.config_from_dict({**c, **workload.size(cap), "masterSeed": seed})
    experiments.config_scalars(cfg)
    return cfg


def run_trials(cfg, seed: int, count: int, seconds: float = 0.0, tracer=None):
    """Trials 0, 1, ... until `count` have run and `seconds` have passed.

    Returns the records, each trial's wall time and the loop's wall time.
    """
    from dbmatch import experiments, model

    records, times = [], []
    start = time.perf_counter()
    while len(records) < count or time.perf_counter() - start < seconds:
        t = len(records)
        if tracer is not None:
            tracer.trial = t
        ss = model.trial_seed_sequence(seed, t)
        t0 = time.perf_counter()
        records.append(experiments.run_trial(cfg, ss, t))
        times.append(time.perf_counter() - t0)
    return records, times, time.perf_counter() - start


def _comparable(records) -> list[dict]:
    return [dataclasses.asdict(dataclasses.replace(r, wall_time=0.0)) for r in records]


def digest(records) -> str:
    blob = json.dumps(_comparable(records), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, trials beyond it) of the highest percentile with
    TAIL_BEYOND trials beyond it; the maximum when there are too few."""
    ordered = sorted(times)
    idx = len(ordered) - 1 - min(TAIL_BEYOND, len(ordered) - 1)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx


def layer_metrics(tracer, overhead_frac: float) -> dict:
    from dbmatch import matcher
    from tracing import LAYERS

    busy = tracer.busy()
    out = {}
    for name, (_, counter, _) in LAYERS.items():
        out[f"{name}.calls"] = (tracer.calls[name], "count")
        out[f"{name}.busy_s"] = (busy[name], "s")
        if counter not in (None, "outcomes"):
            out[f"{name}.{counter}"] = (tracer.work[name], "count")
    for name, unit in (
        ("model.apply_repetition_noise", "entry"),
        ("detection.detect_replicas", "entry"),
        ("matcher.match_all", "pair"),
    ):
        work = tracer.work[name]
        out[f"{name}.ns_per_{unit}"] = (busy[name] / work * 1e9 if work else 0.0, f"ns/{unit}")
    out["detection.detect_deletions.cap_failures"] = (tracer.cap_failures, "count")
    for key, outcome in (
        ("correct", matcher.OUTCOME_CORRECT),
        ("wrong", matcher.OUTCOME_WRONG),
        ("ambiguous", matcher.OUTCOME_AMBIGUOUS),
        ("none", matcher.OUTCOME_NONE),
    ):
        out[f"matcher.outcome.{key}"] = (tracer.outcomes[outcome], "count")
    evaluated = sum(tracer.outcomes.values())
    out["matcher.useful_ratio"] = (
        tracer.outcomes[matcher.OUTCOME_CORRECT] / evaluated if evaluated else 0.0,
        "ratio",
    )
    out["experiments.other_s"] = (
        busy["experiments.run_trial"] - tracer.child_time("experiments.run_trial"),
        "s",
    )
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out


def run(workload, seed: int, seconds: float, trace: bool, min_trials: int = MIN_TRIALS):
    """One benchmark run; returns (summary, result) as JSON-ready dicts."""
    from tracing import Tracer

    tracer = Tracer() if trace else None

    def traced():
        return tracer.instrument() if tracer is not None else contextlib.nullcontext()

    setup_times = []
    with traced():
        while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_SECONDS:
            t0 = time.perf_counter()
            cfg = set_up(workload, seed)
            setup_times.append(time.perf_counter() - t0)

    # warm-up, and the first of the two passes the self-check compares
    first_pass, _, _ = run_trials(cfg, seed, DIGEST_TRIALS, seconds * CHECK_SHARE)
    with traced():
        records, times, loop_s = run_trials(
            cfg, seed, max(min_trials, len(first_pass)), seconds, tracer
        )
    if tracer is not None:
        untraced, _, untraced_s = run_trials(cfg, seed, len(records))

    checks = [
        (
            _comparable(first_pass) == _comparable(records[: len(first_pass)]),
            f"two passes over trials 0..{len(first_pass) - 1} give equal records",
        )
    ]
    if tracer is not None:
        checks.append(
            (
                _comparable(records) == _comparable(untraced),
                f"traced and untraced passes give equal records ({len(records)} trials)",
            )
        )
    ok_records = [r for r in records if not r.failed]
    if ok_records:
        checks.append(workload.band(ok_records))
    else:
        checks.append((False, "no successful trial to score"))
    correct = all(passed for passed, _ in checks)

    tail_s, tail_pct, beyond = tail(times)
    failed = len(records) - len(ok_records)
    summary = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "trials": len(records),
        "failed_frac": failed / len(records),
        "tail": {"percentile": tail_pct, "beyond": beyond, "samples": len(times)},
        "setup_reps": len(setup_times),
        "checks": [{"passed": passed, "check": what} for passed, what in checks],
        "digest": {"trials": DIGEST_TRIALS, "sha256_16": digest(first_pass[:DIGEST_TRIALS])},
    }
    if tracer is None:
        metrics = {
            "trials_per_s": len(ok_records) / loop_s,
            "trial_s_p50": statistics.median(times),
            "trial_s_tail": tail_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    else:
        metrics = layer_metrics(tracer, loop_s / untraced_s - 1.0)
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{workload.name}-{seed}.jsonl"
        tracer.write(span_file)
        summary["spans"] = str(span_file.relative_to(ROOT))
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return summary, result


def smoke() -> int:
    """Every workload in both modes with a few trials: each metric that
    BENCHMARK.json declares is emitted with its unit, and the gate runs
    and passes."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    declared = [w["name"] for w in spec["workloads"]]
    if declared != list(WORKLOADS):
        problems.append(f"workloads {list(WORKLOADS)} != declared {declared}")
    for name, workload in WORKLOADS.items():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            summary, result = run(workload, SMOKE_SEED, 0.0, trace, DIGEST_TRIALS)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != got:
                problems.append(f"{name} trace={int(trace)}: metrics {got} != declared {want}")
            if not summary["checks"] or not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: gate {summary['checks']}")
            print(f"smoke {name} trace={int(trace)}: {len(got)} metrics, gate {result['correct']}")
    for problem in problems:
        print(f"smoke FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=SMOKE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="short check of every metric and the gate")
    args = parser.parse_args(argv)

    if not (SRC / "dbmatch" / "__init__.py").is_file():
        print(f"error: no dbmatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    summary, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
