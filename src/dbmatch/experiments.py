"""Configuration, orchestration and reporting for seeded end-to-end
matching trials, growth-rate sweeps across the capacity value, and
detection benchmarks.

Trials are independent: each owns a generator substream keyed by the
master seed and its index, so batches are order-independent and a config
plus seed reproduces outputs byte for byte.  Infrastructure failures
(independent databases, memory caps) are recorded on the trial and kept
out of every matching-error aggregate.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import detection, matcher, model, probability
from .errors import (
    DegenerateGap,
    IndependentDatabases,
    MemoryCapExceeded,
    RunMismatch,
    ValidationError,
)
from .probability import Channel, Pmf

MIN_RECOMMENDED_TRIALS = 30
# log2 of the row count a rate may ask for: 2.0 ** 1024 overflows a float
_MAX_ROWS_LOG2 = 1024
_CI_Z = 1.96


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's full parameterization.

    Exactly one of rate / m must be set; with a rate, the row count is
    round(2**(n * rate)) floored at 2.  epsilon defaults to a tenth of the
    joint column entropy when omitted.
    """

    alphabet_size: int
    p_x: Pmf
    p_s: Pmf
    channel: Channel
    n: int
    trials: int
    master_seed: int
    rate: float | None = None
    m: int | None = None
    epsilon: float | None = None
    tau: float | None = None
    seed_rows: int | None = None
    seed_order: float | None = None
    entry_cap: int = model.DEFAULT_ENTRY_CAP
    match_rows: int | None = None
    rate_grid: tuple[float, ...] = ()
    m_grid: tuple[int, ...] = (1_000, 10_000, 100_000)
    b_grid: tuple[int, ...] = ()
    threads: int = 1

    def __post_init__(self) -> None:
        for key, (attr, kind, low) in CONFIG_FIELDS.items():
            value = getattr(self, attr)
            if low is None or value is None:
                continue
            for v in value if kind in ("ints", "floats") else (value,):
                if v < low or (kind == "float" and v == low):
                    raise ValidationError(f"{key} must be {'>' if kind == 'float' else '>='} {low}")
        if not (self.p_x.size == self.channel.size == self.alphabet_size):
            raise ValidationError("alphabetSize, pX and channel disagree")
        if (self.rate is None) == (self.m is None):
            raise ValidationError("exactly one of rate / m must be given")
        # 2**(n * rate) rows overflow a float, far beyond any entry cap
        for key, rates in (("rate", (self.rate,) if self.m is None else ()), ("rateGrid", self.rate_grid)):
            if any(self.n * r >= _MAX_ROWS_LOG2 for r in rates):
                raise MemoryCapExceeded(f"{key} must be < {_MAX_ROWS_LOG2 / self.n!r} at n = {self.n}")
        # so do n**seedOrder seed rows, when seedRows does not override them
        if self.seed_rows is None and self.seed_order is not None:
            if self.seed_order * math.log2(self.n) >= _MAX_ROWS_LOG2:
                bound = _MAX_ROWS_LOG2 / math.log2(self.n)
                raise MemoryCapExceeded(f"seedOrder must be < {bound!r} at n = {self.n}")

    @property
    def rows(self) -> int:
        if self.m is not None:
            return self.m
        return max(2, round(2.0 ** (self.n * self.rate)))  # type: ignore[operator]


# JSON key -> (attribute, kind, lower bound: inclusive for an int, strict for a float)
CONFIG_FIELDS = {
    "alphabetSize": ("alphabet_size", "int", 2),
    "pX": ("p_x", "pmf", None),
    "pS": ("p_s", "pmf", None),
    "channel": ("channel", "channel", None),
    "n": ("n", "int", 1),
    "trials": ("trials", "int", 1),
    "masterSeed": ("master_seed", "int", 0),
    "rate": ("rate", "float", None),
    "m": ("m", "int", 1),
    "epsilon": ("epsilon", "float", 0.0),
    "tau": ("tau", "float", None),
    "seedRows": ("seed_rows", "int", 0),
    "seedOrder": ("seed_order", "float", None),
    "entryCap": ("entry_cap", "int", 1),
    "matchRows": ("match_rows", "int", 1),
    "rateGrid": ("rate_grid", "floats", None),
    "mGrid": ("m_grid", "ints", 1),
    "bGrid": ("b_grid", "ints", 0),
    "threads": ("threads", "int", 1),
}
_NUMBER = (float, int, np.floating, np.integer)  # bool, an int, is refused apart
_FLOAT_MAX = sys.float_info.max
_NO_DEFAULT = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}
_REQUIRED = [key for key, (attr, *_) in CONFIG_FIELDS.items() if attr in _NO_DEFAULT]


def _read(key: str, kind: str, value):
    """A JSON value as its field's kind; ValidationError names the key."""
    if kind in ("int", "float"):
        what = "an integer" if kind == "int" else "a number"
        # value % 1 is nonzero, or NaN, unless the number is integral
        if isinstance(value, bool) or not isinstance(value, _NUMBER) or kind == "int" and value % 1:
            raise ValidationError(f"{key}: {value!r} is not {what}")
        if kind == "int":
            return int(value)
        if not -_FLOAT_MAX <= value <= _FLOAT_MAX:  # NaN, an infinity or a too-large integer
            raise ValidationError(f"{key}: {value!r} is not a finite number")
        return float(value)
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{key}: {value!r} is not an array")
    if kind in ("ints", "floats"):
        plain = int if kind == "ints" else float  # a finite one taken as is; others are checked
        return tuple(
            v if type(v) is plain and -_FLOAT_MAX <= v <= _FLOAT_MAX else _read(key, kind[:-1], v)
            for v in value
        )
    if kind == "pmf":
        return Pmf(_read(key, "floats", value), name=key)
    if value and isinstance(value[0], (list, tuple)):
        return Channel([_read(key, "floats", row) for row in value])
    flat = _read(key, "floats", value)  # row-major; a length that is not k * k stays one row
    k = math.isqrt(len(flat))
    return Channel([flat[i * k : (i + 1) * k] for i in range(k)] if k * k == len(flat) else [flat])


def config_from_dict(data: dict, **overrides) -> ExperimentConfig:
    """Build a config from the documented JSON schema (camelCase keys).

    A null value counts as absent: an optional key takes its default and a
    required one is reported missing.  A non-null override replaces its key.
    """
    if not isinstance(data, dict):
        raise ValidationError("config must be a JSON object")
    data = {key: value for d in (data, overrides) for key, value in d.items() if value is not None}
    missing = [k for k in _REQUIRED if k not in data]
    if missing:
        raise ValidationError(f"config missing required keys: {missing}")
    return ExperimentConfig(**{
        attr: _read(key, kind, data[key])
        for key, (attr, kind, _) in CONFIG_FIELDS.items() if key in data
    })


def load_config(path: str, **overrides) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh), **overrides)


@dataclass(frozen=True)
class TrialRecord:
    index: int
    replica_ok: bool = False
    deletion_ok: bool = False
    pattern_ok: bool = False
    error_rate: float | None = None
    wall_time: float = 0.0
    infrastructure_failure: str | None = None

    @property
    def failed(self) -> bool:
        return self.infrastructure_failure is not None


@dataclass(frozen=True)
class SweepPoint:
    rate: float
    m: int
    trials: int
    mean_error_rate: float
    ci_low: float
    ci_high: float
    replica_success_rate: float
    deletion_success_rate: float
    records: tuple[TrialRecord, ...] = field(repr=False, default=())


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    capacity: float


@functools.lru_cache(maxsize=64)
def _params(p_x: Pmf, ch: Channel, p_s: Pmf, epsilon: float | None) -> matcher.TypicalityParams:
    return matcher.TypicalityParams.from_components(p_x, ch, p_s, epsilon=epsilon)


def config_params(cfg: ExperimentConfig) -> matcher.TypicalityParams:
    """A config's TypicalityParams: the window, the column law and its
    entropies; memoized, as they are trial-invariant (h_observed holds the
    capacity sum over read types)."""
    return _params(cfg.p_x, cfg.channel, cfg.p_s, cfg.epsilon)


@functools.lru_cache(maxsize=64)
def _scalars(p_x: Pmf, ch: Channel, tau: float | None) -> probability.Scalars:
    return probability.pipeline_scalars(p_x, ch, tau_override=tau)


def config_scalars(cfg: ExperimentConfig) -> probability.Scalars:
    """Detection scalars for a config; memoized, they are trial-invariant."""
    return _scalars(cfg.p_x, cfg.channel, cfg.tau)


def seed_batch_size(cfg: ExperimentConfig) -> int:
    """Seed rows for a trial: explicit count, polynomial order, or the
    sufficient-size formula at the expected surviving-column fraction."""
    if cfg.seed_rows is not None:
        return cfg.seed_rows
    if cfg.seed_order is not None:
        return math.ceil(cfg.n**cfg.seed_order)
    k_hat_over_n = 1.0 - cfg.p_s[0]
    if k_hat_over_n in (0.0, 1.0):
        return 0
    scalars = config_scalars(cfg)
    return probability.recommend_seed_size(cfg.n, k_hat_over_n, scalars.q0, scalars.q1)


def _view(cfg: ExperimentConfig, st: model.Substreams, m: int, shuffled: bool):
    """Source, pattern, row labeling (sampled, or the identity) and noisy view."""
    d1 = model.generate_unlabeled(m, cfg.n, cfg.p_x, st.database, entry_cap=cfg.entry_cap)
    pattern = model.sample_pattern(cfg.n, cfg.p_s, st.pattern)
    labeling = model.sample_labeling(m, st.labeling) if shuffled else model.Labeling(np.arange(m))
    d2 = model.apply_repetition_noise(
        d1, pattern, labeling, cfg.channel, st.noise, entry_cap=cfg.entry_cap
    )
    return d1, pattern, labeling, d2


def _deletions(cfg: ExperimentConfig, st: model.Substreams, pattern, runs, b: int):
    """b seed rows collapsed onto the runs, then the deletion search: (estimate, exact?)."""
    seeds = model.generate_seeds(
        b, cfg.n, cfg.p_x, pattern, cfg.channel, st.seeds, entry_cap=cfg.entry_cap
    )
    g2_collapsed = detection.collapse_runs(seeds.g2, runs)
    dels = detection.detect_deletions(seeds.g1, g2_collapsed, config_scalars(cfg).sigma)
    return dels, set(dels.indices) == set(pattern.deleted_indices.tolist())


def run_trial(cfg: ExperimentConfig, trial_ss: np.random.SeedSequence, index: int = 0) -> TrialRecord:
    """One end-to-end pipeline pass: generate, detect, assemble, match, score."""
    t0 = time.perf_counter()
    st = model.substreams(trial_ss)
    try:
        scalars = config_scalars(cfg)
        m = cfg.rows
        d1, pattern, labeling, d2 = _view(cfg, st, m, shuffled=True)

        runs = detection.detect_replicas(d2, scalars.tau)
        replica_ok = runs == detection.true_runs(pattern)
        dels, deletion_ok = _deletions(cfg, st, pattern, runs, seed_batch_size(cfg))

        s_hat = detection.assemble_pattern(runs, dels, cfg.n)
        pattern_ok = bool(np.array_equal(s_hat.counts, pattern.counts))

        rows = None
        if cfg.match_rows is not None and cfg.match_rows < m:
            rows = np.sort(st.rows.choice(m, size=cfg.match_rows, replace=False))
        report = matcher.match_all(d1, d2, s_hat, config_params(cfg), match_rows=rows)
        report = matcher.evaluate(report, labeling)
        return TrialRecord(
            index=index,
            replica_ok=replica_ok,
            deletion_ok=deletion_ok,
            pattern_ok=pattern_ok,
            error_rate=report.error_rate,
            wall_time=time.perf_counter() - t0,
        )
    except (IndependentDatabases, RunMismatch, DegenerateGap, MemoryCapExceeded) as exc:
        return TrialRecord(
            index=index,
            wall_time=time.perf_counter() - t0,
            infrastructure_failure=f"{type(exc).__name__}: {exc}",
        )


def _run_batch(cfg: ExperimentConfig, seed_key: tuple[int, ...]) -> list[TrialRecord]:
    seqs = [model.trial_seed_sequence(cfg.master_seed, *seed_key, t) for t in range(cfg.trials)]
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            return list(pool.map(lambda it: run_trial(cfg, it[1], it[0]), enumerate(seqs)))
    return [run_trial(cfg, ss, t) for t, ss in enumerate(seqs)]


def simulate(cfg: ExperimentConfig) -> list[TrialRecord]:
    """cfg.trials independent end-to-end trials at the configured rate."""
    return _run_batch(cfg, ())


def _aggregate(rate: float, m: int, records: list[TrialRecord]) -> SweepPoint:
    ok = [r for r in records if not r.failed]
    errs = np.array([r.error_rate for r in ok], dtype=float)
    if errs.size:
        mean = float(errs.mean())
        half = _CI_Z * float(errs.std(ddof=1)) / math.sqrt(errs.size) if errs.size > 1 else 0.0
    else:
        mean, half = float("nan"), 0.0

    def share(flag: str) -> float:
        return sum(getattr(r, flag) for r in ok) / len(ok) if ok else float("nan")

    return SweepPoint(
        rate=rate,
        m=m,
        trials=len(records),
        mean_error_rate=mean,
        ci_low=mean - half,
        ci_high=mean + half,
        replica_success_rate=share("replica_ok"),
        deletion_success_rate=share("deletion_ok"),
        records=tuple(records),
    )


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Independent trial batches per rate of cfg.rate_grid, with the capacity value."""
    if not cfg.rate_grid:
        raise ValidationError("sweep needs a nonempty rate grid")
    if cfg.trials < MIN_RECOMMENDED_TRIALS:
        print(
            f"warning: {cfg.trials} trials/point is below the recommended "
            f"{MIN_RECOMMENDED_TRIALS}; confidence intervals will be crude",
            file=sys.stderr,
        )
    cap = probability.capacity(cfg.p_x, cfg.p_s, cfg.channel)
    points = []
    for gi, rate in enumerate(cfg.rate_grid):
        point_cfg = replace(cfg, rate=rate, m=None)
        records = _run_batch(point_cfg, (gi,))
        points.append(_aggregate(rate, point_cfg.rows, records))
    return SweepResult(points=tuple(points), capacity=cap)


# --- output: one field table per result kind, read by both formats ---------

# output key -> attribute, in column order
RECORD_FIELDS = {
    "trial": "index",
    "replicaOk": "replica_ok",
    "deletionOk": "deletion_ok",
    "patternOk": "pattern_ok",
    "errorRate": "error_rate",
    "wallTime": "wall_time",
    "infrastructureFailure": "infrastructure_failure",
}
SWEEP_FIELDS = {
    "rate": "rate",
    "m": "m",
    "trials": "trials",
    "meanErrorRate": "mean_error_rate",
    "ciLow": "ci_low",
    "ciHigh": "ci_high",
    "replicaSuccessRate": "replica_success_rate",
    "deletionSuccessRate": "deletion_success_rate",
}
BENCH_FIELDS = {
    "stage": "stage",
    "param": "param",
    "trials": "trials",
    "successes": "successes",
    "successRate": "success_rate",
    "analyticBound": "analytic_bound",
}


def _fields(obj, table: dict[str, str]) -> dict:
    return {key: getattr(obj, attr) for key, attr in table.items()}


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _csv(rows: list[dict], columns) -> str:
    """The one CSV writer: a header of the column keys, then one line per row."""
    lines = [",".join(columns)]
    lines.extend(",".join(_cell(row[c]) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def sweep_to_json(result: SweepResult) -> dict:
    return {
        "capacity": result.capacity,
        "points": [
            {**_fields(p, SWEEP_FIELDS), "lowTrialCount": p.trials < MIN_RECOMMENDED_TRIALS}
            for p in result.points
        ],
    }


def sweep_to_csv(result: SweepResult) -> str:
    rows = [{**_fields(p, SWEEP_FIELDS), "capacity": result.capacity} for p in result.points]
    return _csv(rows, [*SWEEP_FIELDS, "capacity"])


def records_to_json(records: list[TrialRecord]) -> list[dict]:
    return [_fields(r, RECORD_FIELDS) for r in records]


def records_to_csv(records: list[TrialRecord]) -> str:
    # the one exception to the cell rule: wall times print with six decimals
    rows = [{**_fields(r, RECORD_FIELDS), "wallTime": f"{r.wall_time:.6f}"} for r in records]
    return _csv(rows, RECORD_FIELDS)


# --- detection benchmark ---------------------------------------------------

@dataclass(frozen=True)
class BenchRow:
    stage: str
    param: int
    trials: int
    successes: int
    analytic_bound: float | None

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials


def detection_bench(cfg: ExperimentConfig) -> list[BenchRow]:
    """Empirical stage success frequencies against their driving knob.

    Replica detection is swept over row counts; deletion detection over
    seed batch sizes with the run structure taken from the ground truth so
    the second stage is measured in isolation.  The analytic replica bound
    is averaged over the realized column counts.
    """
    scalars = config_scalars(cfg)
    rows: list[BenchRow] = []
    for mi, m in enumerate(cfg.m_grid):
        successes = 0
        bounds = []
        for t in range(cfg.trials):
            st = model.substreams(model.trial_seed_sequence(cfg.master_seed, 0, mi, t))
            _, pattern, _, d2 = _view(cfg, st, m, shuffled=False)
            runs = detection.detect_replicas(d2, scalars.tau)
            successes += runs == detection.true_runs(pattern)
            bounds.append(
                probability.replica_error_bounds(
                    m, scalars.tau, scalars.p0, scalars.p1, pattern.total_columns
                )
            )
        rows.append(BenchRow("replica", m, cfg.trials, successes, float(np.mean(bounds))))
    b_default = seed_batch_size(cfg)
    b_grid = cfg.b_grid or (max(0, b_default // 10), b_default)
    for bi, b in enumerate(b_grid):
        successes = 0
        for t in range(cfg.trials):
            st = model.substreams(model.trial_seed_sequence(cfg.master_seed, 1, bi, t))
            pattern = model.sample_pattern(cfg.n, cfg.p_s, st.pattern)
            successes += _deletions(cfg, st, pattern, detection.true_runs(pattern), b)[1]
        rows.append(BenchRow("deletion", b, cfg.trials, successes, None))
    return rows


def bench_to_json(rows: list[BenchRow]) -> list[dict]:
    return [_fields(r, BENCH_FIELDS) for r in rows]


def bench_to_csv(rows: list[BenchRow]) -> str:
    return _csv(bench_to_json(rows), BENCH_FIELDS)
