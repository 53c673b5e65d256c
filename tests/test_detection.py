"""Detection stages: run recovery, deletion search, pattern assembly."""

import tracemalloc

import numpy as np
import pytest

from dbmatch import detection
from dbmatch.detection import (
    DeletionEstimate,
    RunStructure,
    assemble_pattern,
    collapse_runs,
    consecutive_hamming,
    detect_deletions,
    detect_replicas,
    true_runs,
)
from dbmatch.errors import ArityMismatch, RunMismatch, ValidationError
from dbmatch.model import (
    Database,
    Labeling,
    apply_repetition_noise,
    generate_seeds,
    generate_unlabeled,
    sample_pattern,
    substreams,
)
from dbmatch.probability import Channel, Pmf, SymbolMap, pipeline_scalars
from oracles import naive_consecutive_hamming, naive_deletion_search, naive_runs


def labeled(rows):
    return Database(np.asarray(rows, dtype=np.uint8))


# --- consecutive hamming ------------------------------------------------------

def test_hamming_identical_columns():
    assert consecutive_hamming(labeled([[0, 0], [1, 1]])).tolist() == [0]


def test_hamming_complementary_columns():
    assert consecutive_hamming(labeled([[0, 1], [0, 1], [1, 0]])).tolist() == [3]


def test_hamming_single_difference():
    d2 = labeled(np.array([[0, 0], [1, 1], [0, 1]]))
    assert consecutive_hamming(d2).tolist() == [1]


def test_hamming_empty_cases():
    assert consecutive_hamming(labeled(np.zeros((4, 1)))).size == 0
    assert consecutive_hamming(labeled(np.zeros((4, 0)))).size == 0


def test_hamming_matches_oracle(monkeypatch):
    # random views, m = 0 and K in {0, 1} among them; a 7-entry budget cuts
    # most of them into several row tiles with a partial last one
    rng = np.random.default_rng(24)
    for budget in (detection._HAMMING_TILE_ENTRIES, 7):
        monkeypatch.setattr(detection, "_HAMMING_TILE_ENTRIES", budget)
        for case in range(300):
            m = case % 5 if case < 20 else int(rng.integers(0, 60))
            k = case % 4 if case < 20 else int(rng.integers(0, 14))
            e = rng.integers(0, (2, 8)[case % 2], size=(m, k)).astype(np.uint8)
            got = consecutive_hamming(labeled(e))
            assert got.dtype == np.int64
            assert np.array_equal(got, naive_consecutive_hamming(e))


def test_hamming_folds_its_accumulator_before_it_wraps(monkeypatch):
    # one-row tiles: 70,000 additions into a uint16 slot would read 4,464
    monkeypatch.setattr(detection, "_HAMMING_TILE_ENTRIES", 1)
    e = np.zeros((70_000, 2), dtype=np.uint8)
    e[:, 1] = 1
    assert consecutive_hamming(labeled(e)).tolist() == [70_000]


@pytest.mark.parametrize("m", [20_000, 200_000])
def test_hamming_memory_does_not_grow_with_rows(m):
    # the whole m x (K - 1) comparison takes 0.8 MB and 7.8 MB; the tile
    # buffers take 0.8 MB at both sizes
    d2 = labeled(np.random.default_rng(m).integers(0, 2, size=(m, 40), dtype=np.uint8))
    tracemalloc.start()
    try:
        dists = consecutive_hamming(d2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(dists, naive_consecutive_hamming(d2.entries))
    assert peak < 1e6


# --- replica detection --------------------------------------------------------

def test_single_column_is_one_run():
    rs = detect_replicas(labeled(np.zeros((5, 1))), 0.3)
    assert rs.lengths == (1,)


def test_noiseless_run_split():
    # pattern (2, 1) over distinct columns: first pair merges, second splits
    d2 = labeled([[0, 0, 1], [1, 1, 0], [0, 0, 0]])
    rs = detect_replicas(d2, 0.34)
    assert rs.k_tilde == 2
    assert rs.lengths == (2, 1)


def test_tie_at_threshold_splits():
    # distance exactly m*tau must not merge
    d2 = labeled([[0, 0], [0, 1], [0, 0], [0, 0]])  # distance 1, m=4
    assert detect_replicas(d2, 0.25).lengths == (1, 1)
    assert detect_replicas(d2, 0.26).lengths == (2,)


def test_runs_partition_columns():
    rng = np.random.default_rng(21)
    for _ in range(30):
        m, k = int(rng.integers(1, 8)), int(rng.integers(0, 12))
        d2 = labeled(rng.integers(0, 2, size=(m, k)))
        rs = detect_replicas(d2, float(rng.uniform(0.05, 0.95)))
        assert sum(rs.lengths) == k


def test_run_functions_match_naive_runs():
    # random views, K = 0 and K = 1 among them; an odd case whose m is a power
    # of two takes tau = d / m, so m * tau is exactly a distance that can occur
    rng = np.random.default_rng(23)
    ties = 0
    for case in range(400):
        m = int(rng.integers(1, 9))
        k = case if case < 2 else int(rng.integers(0, 14))
        if case % 2 and m in (2, 4, 8):
            tau = int(rng.integers(1, m)) / m
        else:
            tau = float(rng.uniform(0.05, 0.95))
        d2 = labeled(rng.integers(0, 2, size=(m, k)))
        dists = consecutive_hamming(d2)
        ties += int(np.count_nonzero(dists == m * tau))
        runs = naive_runs(dists, k, m * tau)
        rs = detect_replicas(d2, tau)
        assert rs.lengths == tuple(stop - start for start, stop in runs)
        mat = rng.integers(0, 5, size=(3, k))
        assert np.array_equal(collapse_runs(mat, rs), mat[:, [start for start, _ in runs]])
        # the same runs as a pattern: deletions at random places among n columns
        n = rs.k_tilde + int(rng.integers(0, 4))
        deleted = sorted(rng.choice(n, size=n - rs.k_tilde, replace=False).tolist())
        counts = np.zeros(n, dtype=np.int64)
        kept = [j for j in range(n) if j not in deleted]
        for j, (start, stop) in zip(kept, runs):
            counts[j] = stop - start
        got = assemble_pattern(rs, DeletionEstimate(tuple(deleted)), n)
        assert got.counts.tolist() == counts.tolist()
        assert true_runs(got) == rs
    assert ties > 0


def test_replica_recovery_monte_carlo():
    # quiet channel, large m: exact run recovery in at least 99/100 trials
    p_x, ch, p_s = Pmf.uniform(2), Channel.symmetric(2, 0.1), Pmf([0.2, 0.5, 0.3])
    scal = pipeline_scalars(p_x, ch)
    hits = 0
    for t in range(100):
        st = substreams(5000 + t)
        d1 = generate_unlabeled(10_000, 50, p_x, st.database)
        pat = sample_pattern(50, p_s, st.pattern)
        lab = Labeling(np.arange(10_000))
        d2 = apply_repetition_noise(d1, pat, lab, ch, st.noise)
        hits += detect_replicas(d2, scal.tau) == true_runs(pat)
    assert hits >= 99


# --- collapse -------------------------------------------------------------------

def test_collapse_keeps_first_columns():
    mat = np.array([[0, 1, 2], [3, 4, 5]], dtype=np.uint8)
    rs = RunStructure((2, 1))
    assert np.array_equal(collapse_runs(mat, rs), mat[:, [0, 2]])


def test_collapse_singletons_is_identity():
    mat = np.arange(12, dtype=np.uint8).reshape(3, 4)
    rs = RunStructure((1,) * 4)
    assert np.array_equal(collapse_runs(mat, rs), mat)


def test_collapse_empty():
    out = collapse_runs(np.zeros((3, 0), dtype=np.uint8), RunStructure(()))
    assert out.shape == (3, 0)


def test_collapse_refuses_column_count_mismatch():
    for lengths in ((), (2, 1), (2, 3)):
        with pytest.raises(ValidationError, match="column count"):
            collapse_runs(np.zeros((3, 4)), RunStructure(lengths))


# --- deletion detection ----------------------------------------------------------

def test_no_deletions_short_circuit():
    g1 = np.zeros((2, 4), dtype=np.uint8)
    est = detect_deletions(g1, g1.copy(), SymbolMap([0, 1]))
    assert est.indices == ()
    assert est.min_distance == 0


def test_noiseless_deletion_pinpointed():
    g1 = np.array([[0, 1, 0], [1, 0, 1], [0, 0, 1]], dtype=np.uint8)
    est = detect_deletions(g1, g1[:, [0, 1]], SymbolMap([0, 1]))
    assert est.indices == (2,)
    assert est.min_distance == 0


def test_zero_distance_on_noiseless_residual():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(1, min(3, n)))
        g1 = rng.integers(0, 3, size=(4, n)).astype(np.uint8)
        dels = sorted(rng.choice(n, size=d, replace=False).tolist())
        kept = [j for j in range(n) if j not in dels]
        est = detect_deletions(g1, g1[:, kept], SymbolMap([0, 1, 2]))
        assert est.min_distance == 0


def test_sigma_applied_to_noisy_side():
    # noiseless up to a global symbol flip: identity fails, flip nails it
    g1 = np.array([[0, 1, 0, 1], [1, 1, 0, 0]], dtype=np.uint8)
    g2 = 1 - g1[:, [0, 2, 3]]
    est = detect_deletions(g1, g2, SymbolMap([1, 0]))
    assert est.indices == (1,)
    assert est.min_distance == 0


def test_lexicographic_tie_break_zero_seeds():
    g1 = np.empty((0, 5), dtype=np.uint8)
    g2 = np.empty((0, 3), dtype=np.uint8)
    est = detect_deletions(g1, g2, SymbolMap([0, 1]))
    assert est.indices == (0, 1)


def test_zero_seed_rows_return_the_first_set_at_once():
    # with b = 0 every distance is zero: the early return must give the set
    # the alignment program reads back when it scores every set zero (one
    # all-zero seed row on each side), and the enumeration's first set
    rng = np.random.default_rng(78)
    cases = [(n, k_tilde) for n in (1, 2, 7) for k_tilde in (0, n)]
    for _ in range(40):
        n = int(rng.integers(1, 13))
        cases.append((n, int(rng.integers(0, n + 1))))
    for n, k_tilde in cases:
        g1 = np.empty((0, n), dtype=np.uint8)
        g2 = np.empty((0, k_tilde), dtype=np.uint8)
        est = detect_deletions(g1, g2, SymbolMap([0, 1]))
        ties = detect_deletions(
            np.zeros((1, n), dtype=np.uint8), np.zeros((1, k_tilde), dtype=np.uint8), SymbolMap([0, 1])
        )
        ref_set, ref_dist = naive_deletion_search(g1, g2)
        assert est == ties
        assert est.indices == ref_set == tuple(range(n - k_tilde))
        assert est.min_distance == ref_dist == 0


def test_run_mismatch():
    with pytest.raises(RunMismatch):
        detect_deletions(
            np.zeros((1, 2), dtype=np.uint8), np.zeros((1, 3), dtype=np.uint8), SymbolMap([0, 1])
        )


def test_deletion_search_oracle_equivalence():
    # every deletion count, zero seed rows and 3-symbol alphabets; few
    # symbols and rows make distance ties common, which pins the tie-break
    rng = np.random.default_rng(77)
    for _ in range(150):
        n = int(rng.integers(1, 13))
        d = int(rng.integers(0, n + 1))
        b = int(rng.integers(0, 6))
        k = int(rng.integers(2, 4))
        sigma = SymbolMap(rng.permutation(k))
        g1 = rng.integers(0, k, size=(b, n)).astype(np.uint8)
        g2 = rng.integers(0, k, size=(b, n - d)).astype(np.uint8)
        est = detect_deletions(g1, g2, sigma)
        ref_set, ref_dist = naive_deletion_search(g1, sigma.apply(g2))
        assert est.indices == ref_set
        assert est.min_distance == ref_dist


def test_deletion_search_memory_is_bounded():
    # b x n x k_tilde comparisons would take 164 MB as one bool tensor; the
    # mismatch table is built from per-symbol matmuls of b x n matrices
    rng = np.random.default_rng(5)
    b, n = 2000, 320
    g1 = rng.integers(0, 2, size=(b, n)).astype(np.uint8)
    dels = sorted(rng.choice(n, size=64, replace=False).tolist())
    kept = [j for j in range(n) if j not in dels]
    tracemalloc.start()
    try:
        est = detect_deletions(g1, g1[:, kept], SymbolMap([0, 1]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.indices == tuple(dels) and est.min_distance == 0
    assert peak < 32e6


def test_seeded_deletion_monte_carlo():
    # seeded minimum-distance search recovers the deleted set reliably
    from dbmatch.probability import recommend_seed_size

    p_x, ch, p_s = Pmf.uniform(2), Channel.symmetric(2, 0.1), Pmf([0.2, 0.5, 0.3])
    scal = pipeline_scalars(p_x, ch)
    b = recommend_seed_size(20, 1.0 - p_s[0], scal.q0, scal.q1)
    hits = 0
    for t in range(100):
        st = substreams(9000 + t)
        pat = sample_pattern(20, p_s, st.pattern)
        seeds = generate_seeds(b, 20, p_x, pat, ch, st.seeds)
        g2c = collapse_runs(seeds.g2, true_runs(pat))
        est = detect_deletions(seeds.g1, g2c, scal.sigma)
        hits += set(est.indices) == set(pat.deleted_indices.tolist())
    assert hits >= 95


# --- pattern assembly --------------------------------------------------------------

def test_assemble_interleaves_in_order():
    rs = RunStructure((2, 1))
    pe = assemble_pattern(rs, DeletionEstimate((1,)), 3)
    assert pe.counts.tolist() == [2, 0, 1]


def test_assemble_all_singletons():
    rs = RunStructure((1,) * 5)
    pe = assemble_pattern(rs, DeletionEstimate(()), 5)
    assert pe.counts.tolist() == [1, 1, 1, 1, 1]


def test_assemble_arity_mismatch():
    with pytest.raises(ArityMismatch):
        assemble_pattern(RunStructure((1,)), DeletionEstimate(()), 3)


def test_assemble_refuses_deletions_outside_columns():
    for indices in ((5,), (-1,)):
        with pytest.raises(ValidationError, match=r"0\.\.2"):
            assemble_pattern(RunStructure((1, 1)), DeletionEstimate(indices), 3)


def test_assemble_ground_truth_roundtrip():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        pat = sample_pattern(n, Pmf([0.25, 0.5, 0.25]), rng)
        rs = true_runs(pat)
        dels = DeletionEstimate(tuple(int(i) for i in pat.deleted_indices))
        got = assemble_pattern(rs, dels, n)
        assert np.array_equal(got.counts, pat.counts)


def test_run_structure_validation():
    for lengths in ((2, 0, 1), (0,), (-1,)):
        with pytest.raises(ValidationError, match="at least 1"):
            RunStructure(lengths)
