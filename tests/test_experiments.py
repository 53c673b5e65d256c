"""Orchestration layer: trials, sweeps, benches, reproducibility."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dbmatch.errors import ValidationError
from dbmatch.experiments import (
    config_from_dict,
    config_params,
    config_scalars,
    detection_bench,
    records_to_csv,
    records_to_json,
    run_sweep,
    run_trial,
    seed_batch_size,
    simulate,
    sweep_to_csv,
    sweep_to_json,
)
from dbmatch.model import trial_seed_sequence
from dbmatch.probability import capacity, pipeline_scalars, recommend_seed_size

BASE = {
    "alphabetSize": 2,
    "pX": [0.5, 0.5],
    "pS": [0.2, 0.5, 0.3],
    "channel": [[0.9, 0.1], [0.1, 0.9]],
    "n": 20,
    "rate": 0.2,
    "trials": 4,
    "masterSeed": 11,
}


def make_config(**overrides):
    data = dict(BASE)
    data.update(overrides)
    return config_from_dict(data)


# --- configuration ---------------------------------------------------------------

def test_config_requires_exactly_one_size_spec():
    with pytest.raises(ValidationError):
        make_config(m=16)  # both rate and m
    data = dict(BASE)
    del data["rate"]
    with pytest.raises(ValidationError):
        config_from_dict(data)


def test_config_missing_keys():
    data = dict(BASE)
    del data["pX"]
    with pytest.raises(ValidationError):
        config_from_dict(data)


def test_config_row_major_channel():
    cfg = make_config(channel=[0.9, 0.1, 0.1, 0.9])
    assert np.allclose(cfg.channel.rows, [[0.9, 0.1], [0.1, 0.9]])
    with pytest.raises(ValidationError):
        make_config(channel=[0.9, 0.1, 0.1])


def test_configs_compare_and_hash_by_value():
    assert make_config() == make_config()
    assert hash(make_config()) == hash(make_config())
    assert make_config(pX=[0.4, 0.6]) != make_config()
    assert make_config(channel=[0.8, 0.2, 0.2, 0.8]) != make_config()


def test_config_alphabet_floor():
    with pytest.raises(ValidationError):
        config_from_dict(
            dict(BASE, alphabetSize=1, pX=[1.0], channel=[[1.0]])
        )


def test_rows_from_rate_rounding_and_floor():
    cfg = make_config(rate=0.2, n=20)
    assert cfg.rows == round(2 ** (20 * 0.2))
    low = make_config(rate=0.001, n=20)
    assert low.rows == 2
    explicit = config_from_dict({k: v for k, v in BASE.items() if k != "rate"} | {"m": 37})
    assert explicit.rows == 37


def test_seed_batch_size_modes():
    cfg = make_config()
    scal = pipeline_scalars(cfg.p_x, cfg.channel)
    expect = recommend_seed_size(20, 0.8, scal.q0, scal.q1)
    assert seed_batch_size(cfg) == expect
    assert seed_batch_size(make_config(seedRows=17)) == 17
    assert seed_batch_size(make_config(seedOrder=1.0)) == 20


# --- trials ------------------------------------------------------------------------

def test_noiseless_trial_matches_perfectly():
    cfg = make_config(
        channel=[[1.0, 0.0], [0.0, 1.0]],
        pS=[0.0, 1.0],
        n=30,
        rate=0.15,
        epsilon=0.5,
    )
    rec = run_trial(cfg, trial_seed_sequence(cfg.master_seed, 0), 0)
    assert not rec.failed
    assert rec.replica_ok and rec.deletion_ok and rec.pattern_ok
    assert rec.error_rate == 0.0


def test_trial_n40_with_deletions_completes():
    # C(40, d) deletion sets are out of reach of an enumeration; searchCap is
    # no longer a config key and is ignored like any unknown key, so old configs load
    cfg = make_config(n=40, rate=0.1, searchCap=10)
    rec = run_trial(cfg, trial_seed_sequence(cfg.master_seed, 0), 0)
    assert not rec.failed
    assert rec.error_rate is not None


def test_paper_scale_deletion_trials_complete():
    # the paper's n = 60 with 20% deletions, out of reach of an exhaustive search
    data = {k: v for k, v in BASE.items() if k != "rate"}
    cfg = config_from_dict(data | {"n": 60, "m": 1024, "trials": 10, "masterSeed": 5})
    records = simulate(cfg)
    assert not any(r.failed for r in records)
    assert sum(r.deletion_ok for r in records) >= 9


def test_trial_over_sixteen_symbols_completes():
    # the remapping is an assignment solve, so alphabets above 8 run end to end;
    # sMaxCap is no longer a config key and is ignored like any unknown key
    k = 16
    channel = 0.9 * np.eye(k) + 0.1 / k
    data = {key: v for key, v in BASE.items() if key != "rate"}
    cfg = config_from_dict(
        data
        | {
            "alphabetSize": k,
            "pX": [1.0 / k] * k,
            "channel": channel.tolist(),
            "n": 10,
            "m": 64,
            "sMaxCap": 4,
        }
    )
    rec = run_trial(cfg, trial_seed_sequence(cfg.master_seed, 0), 0)
    assert rec.infrastructure_failure is None
    assert rec.error_rate is not None


def test_trial_independent_channel_is_infrastructure():
    cfg = make_config(channel=[[0.5, 0.5], [0.5, 0.5]])
    rec = run_trial(cfg, trial_seed_sequence(cfg.master_seed, 0), 0)
    assert rec.failed
    assert "IndependentDatabases" in rec.infrastructure_failure


@pytest.mark.parametrize(
    ("overrides", "too_big"),
    [
        # m * n = 1280 fits, the m x 40 view does not
        ({"m": 64, "entryCap": 2000, "seedRows": 0}, "64 x 40"),
        # the view and B * n = 2000 fit, the B x 40 seed half does not
        ({"m": 64, "entryCap": 3000, "seedRows": 100}, "100 x 40"),
    ],
)
def test_trial_noisy_side_over_entry_cap_is_infrastructure(overrides, too_big):
    data = {k: v for k, v in BASE.items() if k != "rate"}
    cfg = config_from_dict(data | {"pS": [0.0, 0.0, 1.0]} | overrides)
    rec = run_trial(cfg, trial_seed_sequence(cfg.master_seed, 0), 0)
    assert rec.failed
    assert "MemoryCapExceeded" in rec.infrastructure_failure
    assert too_big in rec.infrastructure_failure


def test_simulate_is_deterministic():
    cfg = make_config(trials=3, n=16, rate=0.2)
    a = simulate(cfg)
    b = simulate(cfg)
    assert [r.error_rate for r in a] == [r.error_rate for r in b]
    assert [r.pattern_ok for r in a] == [r.pattern_ok for r in b]


def test_trial_is_a_pure_function_of_its_seed_sequence():
    # the substreams leave the sequence's spawn counter alone, so running
    # one sequence twice repeats the trial, as a fresh copy of it does
    cfg = make_config(rate=None, m=64, pS=[0.1, 0.6, 0.3])
    ss = trial_seed_sequence(1, 0)
    records = [run_trial(cfg, seq) for seq in (ss, ss, trial_seed_sequence(1, 0))]
    assert len({replace(r, wall_time=0.0) for r in records}) == 1
    assert not records[0].failed


def test_golden_records():
    # records of a small fixed config, computed once and pinned: any change
    # in how a stage consumes its random draws changes the error rates
    data = dict(BASE, n=30, m=256, matchRows=32, trials=5, masterSeed=2024)
    del data["rate"]
    records = records_to_json(simulate(config_from_dict(data)))
    for r in records:
        del r["wallTime"]
    flags = {"replicaOk": True, "deletionOk": True, "patternOk": True}
    assert records == [
        {"trial": t, **flags, "errorRate": err, "infrastructureFailure": None}
        for t, err in enumerate([0.96875, 0.28125, 0.09375, 0.1875, 0.25])
    ]


def test_match_rows_subsample():
    cfg = make_config(matchRows=4, n=16, rate=0.3, trials=1)
    rec = run_trial(cfg, trial_seed_sequence(cfg.master_seed, 0), 0)
    assert not rec.failed
    assert rec.error_rate is not None


def stated_trial_memory(m, n, k, b, matched):
    """README's bound on a trial's peak, in bytes: the source and the view,
    the labeling, its inverse and a row index, the match report and its
    scored copy, the seed rows and the deletion search, the scan budget
    and the tile buffers."""
    return m * (n + k) + 24 * m + 42 * matched + 20 * b * (n + k) + 3 * 16 * 2**20 + 2**20


@pytest.mark.parametrize(
    "overrides",
    [
        {"m": 50_000, "matchRows": 40},
        {"m": 50_000, "matchRows": 40, "pX": [0.3, 0.7], "channel": [[0.9, 0.1], [0.2, 0.8]]},
        {"m": 3000, "pX": [0.3, 0.7], "seedRows": 800},
    ],
)
def test_trial_peak_memory_within_stated_bound(overrides):
    data = {k: v for k, v in BASE.items() if k != "rate"}
    cfg = config_from_dict(data | {"n": 40, "trials": 1} | overrides)
    # set-up is memoized, so it is paid before the trial
    config_scalars(cfg)
    config_params(cfg)
    tracemalloc.start()
    try:
        rec = run_trial(cfg, trial_seed_sequence(cfg.master_seed, 0), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rec.failed
    m = cfg.rows
    k_max = cfg.n * (cfg.p_s.size - 1)
    matched = min(m, cfg.match_rows or m)
    assert peak <= stated_trial_memory(m, cfg.n, k_max, seed_batch_size(cfg), matched)


# --- sweeps -------------------------------------------------------------------------

def test_sweep_empty_grid_rejected():
    with pytest.raises(ValidationError):
        run_sweep(make_config())


def test_sweep_single_point_matches_trial_aggregation(capsys):
    cfg = make_config(trials=5, n=16, rateGrid=[0.2])
    result = run_sweep(cfg)
    point = result.points[0]
    ok = [r for r in point.records if not r.failed]
    assert point.mean_error_rate == pytest.approx(
        float(np.mean([r.error_rate for r in ok]))
    )
    assert point.m == cfg.rows  # cfg.rate is 0.2
    assert result.capacity == pytest.approx(capacity(cfg.p_x, cfg.p_s, cfg.channel))


def test_sweep_infrastructure_excluded_from_means():
    # an independent channel fails every trial; failures must not pollute means
    cfg = make_config(trials=6, n=18, channel=[[0.5, 0.5], [0.5, 0.5]], rateGrid=[0.2])
    result = run_sweep(cfg)
    point = result.points[0]
    failed = [r for r in point.records if r.failed]
    assert failed, "expected failed trials in this setup"
    ok = [r for r in point.records if not r.failed]
    if ok:
        assert point.mean_error_rate == pytest.approx(
            float(np.mean([r.error_rate for r in ok]))
        )
    else:
        assert math.isnan(point.mean_error_rate)


def test_sweep_csv_shape_and_determinism():
    cfg = make_config(trials=3, n=16, rateGrid=[0.1, 0.2])
    r1 = run_sweep(cfg)
    r2 = run_sweep(cfg)
    c1, c2 = sweep_to_csv(r1), sweep_to_csv(r2)
    assert c1 == c2
    header = c1.splitlines()[0]
    assert header == (
        "rate,m,trials,meanErrorRate,ciLow,ciHigh,"
        "replicaSuccessRate,deletionSuccessRate,capacity"
    )
    assert len(c1.splitlines()) == 3
    blob = sweep_to_json(r1)
    assert blob["points"][0]["lowTrialCount"] is True


def test_records_csv_contains_failures():
    cfg = make_config(trials=2, channel=[[0.5, 0.5], [0.5, 0.5]])
    text = records_to_csv(simulate(cfg))
    assert "IndependentDatabases" in text


def test_threaded_sweep_matches_serial():
    cfg = make_config(trials=4, n=16, rateGrid=[0.15])
    serial = sweep_to_csv(run_sweep(cfg))
    threaded = sweep_to_csv(run_sweep(replace(cfg, threads=4)))
    assert serial == threaded


# --- detection bench -------------------------------------------------------------------

def test_detection_bench_shapes():
    cfg = make_config(trials=3, n=10, mGrid=[200, 2000], bGrid=[0, 40])
    rows = detection_bench(cfg)
    stages = [(r.stage, r.param) for r in rows]
    assert ("replica", 200) in stages and ("replica", 2000) in stages
    assert ("deletion", 0) in stages and ("deletion", 40) in stages
    for r in rows:
        assert 0 <= r.successes <= r.trials
        if r.stage == "replica":
            assert r.analytic_bound is not None and r.analytic_bound >= 0.0


def test_detection_bench_zero_seeds_near_chance():
    # zero-row seeds are uninformative: lexicographic tie-break wins rarely
    cfg = make_config(trials=20, n=10, mGrid=[100], bGrid=[0, 60])
    rows = {r.param: r for r in detection_bench(cfg) if r.stage == "deletion"}
    assert rows[60].successes > rows[0].successes
    assert rows[0].successes <= 5


def test_detection_bench_noiseless_replica_perfect():
    cfg = make_config(
        channel=[[1.0, 0.0], [0.0, 1.0]], trials=4, n=12, mGrid=[50], bGrid=[5]
    )
    rows = detection_bench(cfg)
    replica = [r for r in rows if r.stage == "replica"][0]
    assert replica.successes == replica.trials
