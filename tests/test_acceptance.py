"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything is seeded,
so results are reproducible bit for bit on one machine.  The threshold
criterion (5) is exercised at n = 60 on two capacity regimes because the
row count 2**(n*R) is only simulatable when the relevant capacity is
small; the decisions are spelled out next to the test.
"""

import itertools
import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from dbmatch.cli import main as cli_main
from dbmatch.detection import (
    collapse_runs,
    detect_deletions,
    detect_replicas,
    true_runs,
)
from dbmatch.experiments import config_from_dict, run_sweep, run_trial
from dbmatch.matcher import (
    OUTCOME_AMBIGUOUS,
    OUTCOME_NONE,
    TypicalityParams,
    match_all,
)
from dbmatch.model import (
    Labeling,
    apply_repetition_noise,
    generate_seeds,
    generate_unlabeled,
    sample_labeling,
    sample_pattern,
    substreams,
    trial_seed_sequence,
)
from dbmatch.probability import (
    Channel,
    Pmf,
    capacity,
    capacity_direct,
    compute_p0_p1,
    compute_q0_q1,
    pipeline_scalars,
    recommend_seed_size,
)
from oracles import naive_accept_set, naive_deletion_search

TOL = 1e-10


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL  ({text})")
        raise
    print(f"criterion {num}: PASS  ({text})")


def random_pmf(rng, k):
    v = rng.random(k) + 0.05
    return Pmf(v / v.sum())


def random_channel(rng, k):
    rows = rng.random((k, k)) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    return Channel(rows)


# --- criterion 1: capacity closed forms -------------------------------------

def test_criterion_1_capacity_closed_forms():
    rng = np.random.default_rng(101)
    with criterion(1, "noiseless and no-sync capacity closed forms to 1e-10"):
        for _ in range(25):
            k = int(rng.integers(2, 5))
            p_x = random_pmf(rng, k)
            # noiseless with deletion probability delta: C = (1 - delta) H(X)
            delta = float(rng.random() * 0.9)
            rest = rng.random(int(rng.integers(1, 4))) + 0.01
            rest = rest / rest.sum() * (1.0 - delta)
            p_s = Pmf([delta, *rest])
            h_x = -sum(p * math.log2(p) for p in p_x.probs if p > 0)
            got = capacity(p_x, p_s, Channel.identity(k))
            assert abs(got - (1.0 - delta) * h_x) <= TOL
            # no synchronization errors: C = I(X;Y), evaluated inline
            ch = random_channel(rng, k)
            p_y = p_x.probs @ ch.rows
            mi = sum(
                p_x[x] * ch.rows[x, y] * math.log2(ch.rows[x, y] / p_y[y])
                for x in range(k)
                for y in range(k)
                if ch.rows[x, y] > 0
            )
            got = capacity(p_x, Pmf([0.0, 1.0]), ch)
            assert abs(got - mi) <= TOL


# --- criterion 2: exact identities --------------------------------------------

def test_criterion_2_identity_suite():
    rng = np.random.default_rng(202)
    with criterion(2, "psi / remapping-sum / decomposition identities to 1e-10"):
        for _ in range(100):
            k = int(rng.integers(2, 5))
            p_x = random_pmf(rng, k)
            ch = random_channel(rng, k)
            # p0 - p1 equals the inline psi sum and is nonnegative
            p0, p1 = compute_p0_p1(p_x, ch)
            p_y = p_x.probs @ ch.rows
            psi_sum = sum(
                p_x[x] * (ch.rows[x, y] - p_y[y]) ** 2
                for x in range(k)
                for y in range(k)
            )
            assert psi_sum >= -1e-15
            assert abs((p0 - p1) - psi_sum) <= TOL
            # remapped gaps cancel over all permutations
            net = 0.0
            for perm in itertools.permutations(range(k)):
                from dbmatch.probability import SymbolMap

                q0, q1 = compute_q0_q1(p_x, ch, SymbolMap(perm))
                net += q0 - q1
            assert abs(net) <= TOL
            # capacity decomposition equals the direct joint computation
            s_max = int(rng.integers(1, 4))
            w = rng.random(s_max + 1) + 0.02
            p_s = Pmf(w / w.sum())
            assert abs(capacity(p_x, p_s, ch) - capacity_direct(p_x, p_s, ch)) <= TOL


# --- criterion 3: replica detection --------------------------------------------

def test_criterion_3_replica_detection():
    p_x, ch, p_s = Pmf.uniform(2), Channel.symmetric(2, 0.1), Pmf([0.2, 0.5, 0.3])
    scal = pipeline_scalars(p_x, ch)
    assert scal.tau == pytest.approx(0.34)  # midpoint of (0.18, 0.5)
    hits = {}
    for m in (1_000, 10_000, 100_000):
        count = 0
        for t in range(100):
            st = substreams(100_000 + 7 * t + m)
            d1 = generate_unlabeled(m, 50, p_x, st.database)
            pat = sample_pattern(50, p_s, st.pattern)
            d2 = apply_repetition_noise(d1, pat, Labeling(np.arange(m)), ch, st.noise)
            count += detect_replicas(d2, scal.tau) == true_runs(pat)
        hits[m] = count
    with criterion(3, f"replica run recovery {hits} (>=99/100 at 1e4, nondecreasing)"):
        assert hits[10_000] >= 99
        assert hits[10_000] >= hits[1_000] - 1
        assert hits[100_000] >= hits[10_000] - 1


# --- criterion 4: seeded deletion detection --------------------------------------

def test_criterion_4_seeded_deletion_detection():
    p_x, ch, p_s = Pmf.uniform(2), Channel.symmetric(2, 0.1), Pmf([0.2, 0.5, 0.3])
    scal = pipeline_scalars(p_x, ch)
    b_full = recommend_seed_size(20, 1.0 - p_s[0], scal.q0, scal.q1)
    results = {}
    for b in (b_full, b_full // 10):
        count = 0
        for t in range(100):
            st = substreams(200_000 + t)
            pat = sample_pattern(20, p_s, st.pattern)
            seeds = generate_seeds(b, 20, p_x, pat, ch, st.seeds)
            g2c = collapse_runs(seeds.g2, true_runs(pat))
            est = detect_deletions(seeds.g1, g2c, scal.sigma)
            count += set(est.indices) == set(pat.deleted_indices.tolist())
        results[b] = count
    with criterion(
        4, f"deletion recovery {results} (>=95/100 at B={b_full}, lower at B/10)"
    ):
        assert results[b_full] >= 95
        assert results[b_full // 10] < results[b_full]


# --- criterion 5: threshold behavior ----------------------------------------------

def window_channel(k, w):
    """Flat cyclic window rows: k symbols, support width w."""
    rows = np.zeros((k, k))
    for x in range(k):
        for d in range(w):
            rows[x, (x + d) % k] = 1.0 / w
    return Channel(rows)


def isotonic_fit(values):
    """Least-squares nondecreasing fit (pool adjacent violators)."""
    blocks = [[v, 1] for v in values]
    i = 0
    while i < len(blocks) - 1:
        if blocks[i][0] > blocks[i + 1][0] + 1e-15:
            total = blocks[i][0] * blocks[i][1] + blocks[i + 1][0] * blocks[i + 1][1]
            count = blocks[i][1] + blocks[i + 1][1]
            blocks[i : i + 2] = [[total / count, count]]
            i = max(i - 1, 0)
        else:
            i += 1
    fit = []
    for mean, count in blocks:
        fit.extend([mean] * count)
    return fit


def test_criterion_5_threshold_behavior():
    # Below capacity.  n = 60 forces a small capacity wherever m = 2**(nR)
    # must be simulated, so the two threshold directions run on two regimes,
    # each scored against its own exactly-computed capacity value.
    k, w = 8, 6
    ch_a = window_channel(k, w)
    px_a, ps_a = Pmf.uniform(k), Pmf([0.0, 1.0])
    cap_a = capacity(px_a, ps_a, ch_a)
    cfg_a = config_from_dict(
        {
            "alphabetSize": k,
            "pX": px_a.probs.tolist(),
            "pS": ps_a.probs.tolist(),
            "channel": ch_a.rows.tolist(),
            "n": 60,
            "rate": 0.5 * cap_a,
            "trials": 1,
            "masterSeed": 4100,
            "matchRows": 40,
        }
    )
    below = []
    for t in range(50):
        rec = run_trial(cfg_a, trial_seed_sequence(4100, t), t)
        assert not rec.failed, rec.infrastructure_failure
        below.append(rec.error_rate)
    mean_below = float(np.mean(below))

    # Above capacity and the bracketing grid: weak symmetric channel with
    # replicas, where m = 2**(n * (C + 0.3)) is still generatable.
    px_b, ps_b = Pmf.uniform(2), Pmf([0.0, 0.5, 0.5])
    ch_b = Channel.symmetric(2, 0.42)
    cap_b = capacity(px_b, ps_b, ch_b)
    grid = [0.5 * cap_b, 0.75 * cap_b, cap_b, cap_b + 0.15, cap_b + 0.3]
    cfg_b = config_from_dict(
        {
            "alphabetSize": 2,
            "pX": px_b.probs.tolist(),
            "pS": ps_b.probs.tolist(),
            "channel": ch_b.rows.tolist(),
            "n": 60,
            "rate": cap_b,
            "trials": 50,
            "masterSeed": 2024,
            "matchRows": 40,
        }
    )
    sweep = run_sweep(cfg_b, grid)
    means = [p.mean_error_rate for p in sweep.points]
    mean_above = sweep.points[-1].mean_error_rate

    with criterion(
        5,
        f"threshold: err({0.5:.2f}C)={mean_below:.4f} <= 0.05, "
        f"err(C+0.3)={mean_above:.4f} >= 0.5, grid means {np.round(means, 3).tolist()}",
    ):
        assert mean_below <= 0.05
        assert mean_above >= 0.5
        assert sweep.points[-1].rate == pytest.approx(cap_b + 0.3)
        # monotone trend: each grid mean within its CI of a nondecreasing fit
        fit = isotonic_fit(means)
        for point, fitted in zip(sweep.points, fit):
            half_width = (point.ci_high - point.ci_low) / 2.0
            assert abs(fitted - point.mean_error_rate) <= half_width + 1e-12
        # the grid brackets the capacity value
        assert sweep.points[0].rate < cap_b < sweep.points[-1].rate


# --- criterion 6: oracle equivalence -------------------------------------------------

def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(606)
    from dbmatch.probability import SymbolMap

    with criterion(6, "deletion search and typicality decoder match enumerations"):
        sigma = SymbolMap([1, 0])
        for _ in range(200):
            n = int(rng.integers(3, 13))
            d = int(rng.integers(0, min(4, n)))
            b = int(rng.integers(1, 5))
            g1 = rng.integers(0, 2, size=(b, n)).astype(np.uint8)
            g2 = rng.integers(0, 2, size=(b, n - d)).astype(np.uint8)
            est = detect_deletions(g1, g2, sigma)
            ref_set, ref_dist = naive_deletion_search(g1, sigma.apply(g2))
            assert est.indices == ref_set
            assert est.min_distance == ref_dist

        p_x, ch, p_s = Pmf.uniform(2), Channel.symmetric(2, 0.1), Pmf([0.2, 0.5, 0.3])
        params = TypicalityParams.from_components(p_x, ch, p_s, epsilon=0.42)
        for trial in range(100):
            st = substreams(60_600 + trial)
            m, n = int(rng.integers(2, 17)), int(rng.integers(2, 9))
            d1 = generate_unlabeled(m, n, p_x, st.database)
            pat = sample_pattern(n, p_s, st.pattern)
            lab = sample_labeling(m, st.labeling)
            d2 = apply_repetition_noise(d1, pat, lab, ch, st.noise)
            report = match_all(d1, d2, pat, params)
            for pos, row in enumerate(report.matched_rows):
                ref = naive_accept_set(
                    d1.entries, d2.entries[row], pat.counts, p_x, ch, p_s, params.epsilon
                )
                if report.outcomes[pos] == OUTCOME_NONE:
                    assert ref == []
                elif report.outcomes[pos] == OUTCOME_AMBIGUOUS:
                    assert len(ref) >= 2
                else:
                    assert ref == [report.assignment[row]]


# --- criterion 7: model fidelity ------------------------------------------------------

def test_criterion_7_conditional_law():
    trials = 1_000_000
    ch = Channel([[0.8, 0.2], [0.3, 0.7]])
    rng_master = substreams(700)
    d1 = generate_unlabeled(trials, 2, Pmf.uniform(2), rng_master.database)
    pattern_counts = np.array([2, 1])
    from dbmatch.model import RepetitionPattern

    d2 = apply_repetition_noise(
        d1, RepetitionPattern(pattern_counts), Labeling(np.arange(trials)), ch,
        rng_master.noise,
    )
    with criterion(7, "conditional cell law within 4 sigma per cell, 1e6 trials"):
        worst = 0.0
        for x1 in (0, 1):
            for x2 in (0, 1):
                sel = (d1.entries[:, 0] == x1) & (d1.entries[:, 1] == x2)
                n_sel = int(sel.sum())
                for y in itertools.product((0, 1), repeat=3):
                    p = ch.rows[x1, y[0]] * ch.rows[x1, y[1]] * ch.rows[x2, y[2]]
                    freq = float(np.all(d2.entries[sel] == y, axis=1).mean())
                    sigma = math.sqrt(p * (1 - p) / n_sel)
                    worst = max(worst, abs(freq - p) / sigma)
                    assert abs(freq - p) <= 4 * sigma
        print(f"  worst cell deviation: {worst:.2f} sigma")


# --- criterion 8: determinism ----------------------------------------------------------

def test_criterion_8_sweep_determinism(tmp_path):
    config = {
        "alphabetSize": 2,
        "pX": [0.5, 0.5],
        "pS": [0.2, 0.5, 0.3],
        "channel": [[0.9, 0.1], [0.1, 0.9]],
        "n": 16,
        "rate": 0.2,
        "trials": 30,
        "masterSeed": 808,
        "rateGrid": [0.1, 0.2, 0.3],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    with criterion(8, "two sweep runs produce byte-identical output"):
        assert cli_main(["sweep", "--config", str(path), "--out", str(out_a)]) == 0
        assert cli_main(["sweep", "--config", str(path), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
