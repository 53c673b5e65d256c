"""Detection stages: run recovery, deletion search, pattern assembly."""

import numpy as np
import pytest

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
    LabeledDatabase,
    Labeling,
    apply_repetition_noise,
    generate_seeds,
    generate_unlabeled,
    sample_pattern,
    substreams,
)
from dbmatch.probability import Channel, Pmf, SymbolMap, pipeline_scalars
from oracles import naive_deletion_search


def labeled(rows):
    return LabeledDatabase(np.asarray(rows, dtype=np.uint8))


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


# --- replica detection --------------------------------------------------------

def test_single_column_is_one_run():
    rs = detect_replicas(labeled(np.zeros((5, 1))), 0.3)
    assert rs.runs == ((0, 1),)


def test_noiseless_run_split():
    # pattern (2, 1) over distinct columns: first pair merges, second splits
    d2 = labeled([[0, 0, 1], [1, 1, 0], [0, 0, 0]])
    rs = detect_replicas(d2, 0.34)
    assert rs.runs == ((0, 2), (2, 3))
    assert rs.k_tilde == 2
    assert rs.lengths == (2, 1)


def test_tie_at_threshold_splits():
    # distance exactly m*tau must not merge
    d2 = labeled([[0, 0], [0, 1], [0, 0], [0, 0]])  # distance 1, m=4
    assert detect_replicas(d2, 0.25).runs == ((0, 1), (1, 2))
    assert detect_replicas(d2, 0.26).runs == ((0, 2),)


def test_runs_partition_columns():
    rng = np.random.default_rng(21)
    for _ in range(30):
        m, k = int(rng.integers(1, 8)), int(rng.integers(0, 12))
        d2 = labeled(rng.integers(0, 2, size=(m, k)))
        rs = detect_replicas(d2, float(rng.uniform(0.05, 0.95)))
        pos = 0
        for start, stop in rs.runs:
            assert start == pos
            pos = stop
        assert pos == k


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
    rs = RunStructure(((0, 2), (2, 3)))
    assert np.array_equal(collapse_runs(mat, rs), mat[:, [0, 2]])


def test_collapse_singletons_is_identity():
    mat = np.arange(12, dtype=np.uint8).reshape(3, 4)
    rs = RunStructure(tuple((j, j + 1) for j in range(4)))
    assert np.array_equal(collapse_runs(mat, rs), mat)


def test_collapse_empty():
    out = collapse_runs(np.zeros((3, 0), dtype=np.uint8), RunStructure(()))
    assert out.shape == (3, 0)


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
    rs = RunStructure(((0, 2), (2, 3)))
    pe = assemble_pattern(rs, DeletionEstimate((1,)), 3)
    assert pe.counts.tolist() == [2, 0, 1]


def test_assemble_all_singletons():
    rs = RunStructure(tuple((j, j + 1) for j in range(5)))
    pe = assemble_pattern(rs, DeletionEstimate(()), 5)
    assert pe.counts.tolist() == [1, 1, 1, 1, 1]


def test_assemble_arity_mismatch():
    with pytest.raises(ArityMismatch):
        assemble_pattern(RunStructure(((0, 1),)), DeletionEstimate(()), 3)


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
    with pytest.raises(ValidationError):
        RunStructure(((0, 2), (3, 4)))
    with pytest.raises(ValidationError):
        RunStructure(((1, 2),))
