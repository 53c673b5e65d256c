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
from dataclasses import dataclass, field, replace

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
        if self.alphabet_size < 2:
            raise ValidationError("matching experiments need an alphabet of size >= 2")
        if not (self.p_x.size == self.channel.size == self.alphabet_size):
            raise ValidationError("alphabetSize, pX and channel disagree")
        if self.n < 1:
            raise ValidationError("n must be positive")
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if (self.rate is None) == (self.m is None):
            raise ValidationError("exactly one of rate / m must be given")
        if self.m is not None and self.m < 1:
            raise ValidationError("m must be positive")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValidationError("epsilon must be positive")

    def rows_for_rate(self, rate: float) -> int:
        return max(2, round(2.0 ** (self.n * rate)))

    @property
    def rows(self) -> int:
        if self.m is not None:
            return self.m
        return self.rows_for_rate(self.rate)  # type: ignore[arg-type]


REQUIRED_CONFIG_KEYS = ("alphabetSize", "pX", "pS", "channel", "n", "trials", "masterSeed")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from the documented JSON schema (camelCase keys).

    A null value counts as absent: an optional key takes its default and
    a required one is reported missing.
    """
    if not isinstance(data, dict):
        raise ValidationError("config must be a JSON object")
    data = {key: value for key, value in data.items() if value is not None}
    missing = [k for k in REQUIRED_CONFIG_KEYS if k not in data]
    if missing:
        raise ValidationError(f"config missing required keys: {missing}")

    def optional(key: str, cast, default=None):
        return cast(data[key]) if key in data else default

    k = int(data["alphabetSize"])
    chan = data["channel"]
    if chan and not isinstance(chan[0], (list, tuple)):
        if len(chan) != k * k:
            raise ValidationError("row-major channel must have alphabetSize^2 entries")
        chan = [chan[i * k : (i + 1) * k] for i in range(k)]
    return ExperimentConfig(
        alphabet_size=k,
        p_x=Pmf(data["pX"]),
        p_s=Pmf(data["pS"]),
        channel=Channel(chan),
        n=int(data["n"]),
        trials=int(data["trials"]),
        master_seed=int(data["masterSeed"]),
        rate=optional("rate", float),
        m=optional("m", int),
        epsilon=optional("epsilon", float),
        tau=optional("tau", float),
        seed_rows=optional("seedRows", int),
        seed_order=optional("seedOrder", float),
        entry_cap=optional("entryCap", int, model.DEFAULT_ENTRY_CAP),
        match_rows=optional("matchRows", int),
        rate_grid=tuple(float(r) for r in data.get("rateGrid", ())),
        m_grid=tuple(int(v) for v in data.get("mGrid", (1_000, 10_000, 100_000))),
        b_grid=tuple(int(v) for v in data.get("bGrid", ())),
        threads=optional("threads", int, 1),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


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
def _params_cached(
    px_bytes: bytes, ps_bytes: bytes, ch_bytes: bytes, k: int, epsilon: float | None
):
    p_x = Pmf(np.frombuffer(px_bytes))
    ch = Channel(np.frombuffer(ch_bytes).reshape(k, k))
    return matcher.TypicalityParams.from_components(
        p_x, ch, Pmf(np.frombuffer(ps_bytes)), epsilon=epsilon
    )


def config_params(cfg: ExperimentConfig) -> matcher.TypicalityParams:
    """Typicality window and law for a config; memoized, they are
    trial-invariant (the law holds the capacity sum over read types)."""
    return _params_cached(
        cfg.p_x.probs.tobytes(),
        cfg.p_s.probs.tobytes(),
        cfg.channel.rows.tobytes(),
        cfg.alphabet_size,
        cfg.epsilon,
    )


@functools.lru_cache(maxsize=64)
def _scalars_cached(px_bytes: bytes, ch_bytes: bytes, k: int, tau: float | None):
    p_x = Pmf(np.frombuffer(px_bytes))
    ch = Channel(np.frombuffer(ch_bytes).reshape(k, k))
    return probability.pipeline_scalars(p_x, ch, tau_override=tau)


def config_scalars(cfg: ExperimentConfig) -> probability.Scalars:
    """Detection scalars for a config; memoized, they are trial-invariant."""
    return _scalars_cached(
        cfg.p_x.probs.tobytes(), cfg.channel.rows.tobytes(), cfg.alphabet_size, cfg.tau
    )


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


def run_trial(cfg: ExperimentConfig, trial_ss: np.random.SeedSequence, index: int = 0) -> TrialRecord:
    """One end-to-end pipeline pass: generate, detect, assemble, match, score."""
    t0 = time.perf_counter()
    st = model.substreams(trial_ss)
    try:
        scalars = config_scalars(cfg)
        m = cfg.rows
        d1 = model.generate_unlabeled(m, cfg.n, cfg.p_x, st.database, entry_cap=cfg.entry_cap)
        pattern = model.sample_pattern(cfg.n, cfg.p_s, st.pattern)
        labeling = model.sample_labeling(m, st.labeling)
        d2 = model.apply_repetition_noise(
            d1, pattern, labeling, cfg.channel, st.noise, entry_cap=cfg.entry_cap
        )

        runs = detection.detect_replicas(d2, scalars.tau)
        replica_ok = runs == detection.true_runs(pattern)

        b = seed_batch_size(cfg)
        seeds = model.generate_seeds(
            b, cfg.n, cfg.p_x, pattern, cfg.channel, st.seeds, entry_cap=cfg.entry_cap
        )
        g2_collapsed = detection.collapse_runs(seeds.g2, runs)
        dels = detection.detect_deletions(seeds.g1, g2_collapsed, scalars.sigma)
        deletion_ok = set(dels.indices) == set(pattern.deleted_indices.tolist())

        s_hat = detection.assemble_pattern(runs, dels, cfg.n)
        pattern_ok = bool(np.array_equal(s_hat.counts, pattern.counts))

        marked = matcher.build_marked(d2, s_hat)
        rows = None
        if cfg.match_rows is not None and cfg.match_rows < m:
            rows = np.sort(st.rows.choice(m, size=cfg.match_rows, replace=False))
        report = matcher.match_all(d1, marked, config_params(cfg), match_rows=rows)
        report = matcher.evaluate(report, model.GroundTruth(pattern, labeling))
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
    seqs = [
        model.trial_seed_sequence(cfg.master_seed, *seed_key, t) for t in range(cfg.trials)
    ]
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


def run_sweep(cfg: ExperimentConfig, r_grid: list[float] | None = None) -> SweepResult:
    """Independent trial batches per rate, with the capacity value attached."""
    grid = list(r_grid) if r_grid is not None else list(cfg.rate_grid)
    if not grid:
        raise ValidationError("sweep needs a nonempty rate grid")
    if cfg.trials < MIN_RECOMMENDED_TRIALS:
        print(
            f"warning: {cfg.trials} trials/point is below the recommended "
            f"{MIN_RECOMMENDED_TRIALS}; confidence intervals will be crude",
            file=sys.stderr,
        )
    cap = probability.capacity(cfg.p_x, cfg.p_s, cfg.channel)
    points = []
    for gi, rate in enumerate(grid):
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
            ss = model.trial_seed_sequence(cfg.master_seed, 0, mi, t)
            st = model.substreams(ss)
            d1 = model.generate_unlabeled(m, cfg.n, cfg.p_x, st.database, entry_cap=cfg.entry_cap)
            pattern = model.sample_pattern(cfg.n, cfg.p_s, st.pattern)
            labeling = model.Labeling(np.arange(m))
            d2 = model.apply_repetition_noise(
                d1, pattern, labeling, cfg.channel, st.noise, entry_cap=cfg.entry_cap
            )
            runs = detection.detect_replicas(d2, scalars.tau)
            successes += runs == detection.true_runs(pattern)
            bounds.append(
                probability.replica_error_bounds(
                    m, scalars.tau, scalars.p0, scalars.p1, pattern.total_columns
                )
            )
        rows.append(
            BenchRow("replica", m, cfg.trials, successes, float(np.mean(bounds)))
        )
    b_default = seed_batch_size(cfg)
    b_grid = cfg.b_grid or (max(0, b_default // 10), b_default)
    for bi, b in enumerate(b_grid):
        successes = 0
        for t in range(cfg.trials):
            ss = model.trial_seed_sequence(cfg.master_seed, 1, bi, t)
            st = model.substreams(ss)
            pattern = model.sample_pattern(cfg.n, cfg.p_s, st.pattern)
            seeds = model.generate_seeds(
                b, cfg.n, cfg.p_x, pattern, cfg.channel, st.seeds, entry_cap=cfg.entry_cap
            )
            g2c = detection.collapse_runs(seeds.g2, detection.true_runs(pattern))
            dels = detection.detect_deletions(seeds.g1, g2c, scalars.sigma)
            successes += set(dels.indices) == set(pattern.deleted_indices.tolist())
        rows.append(BenchRow("deletion", b, cfg.trials, successes, None))
    return rows


def bench_to_json(rows: list[BenchRow]) -> list[dict]:
    return [_fields(r, BENCH_FIELDS) for r in rows]


def bench_to_csv(rows: list[BenchRow]) -> str:
    return _csv(bench_to_json(rows), BENCH_FIELDS)
