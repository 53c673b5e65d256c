"""The typicality matcher: its input checks, scan and scoring."""

import tracemalloc

import numpy as np
import pytest

from dbmatch import matcher
from dbmatch.errors import ArityMismatch, ValidationError
from dbmatch.matcher import (
    OUTCOME_AMBIGUOUS,
    OUTCOME_CORRECT,
    OUTCOME_MATCHED,
    OUTCOME_NONE,
    OUTCOME_WRONG,
    MatchReport,
    TypicalityParams,
    evaluate,
    match_all,
)
from dbmatch.model import (
    Database,
    Labeling,
    RepetitionPattern,
    apply_repetition_noise,
    generate_unlabeled,
    sample_labeling,
    sample_pattern,
    substreams,
)
from dbmatch.probability import Channel, Pmf, capacity
from oracles import naive_accept_set, naive_observed_stats, naive_outcome


P_X = Pmf.uniform(2)
CH = Channel.symmetric(2, 0.1)
P_S = Pmf([0.2, 0.5, 0.3])


def labeled(rows):
    return Database(np.asarray(rows, dtype=np.uint8))


# --- input checks ----------------------------------------------------------------

def test_match_all_refuses_counts_that_do_not_fit():
    params = TypicalityParams.from_components(P_X, CH, P_S)
    d1 = labeled([[0, 1, 0]])
    # three counts of 1 do not cover a two-column view
    with pytest.raises(ArityMismatch):
        match_all(d1, labeled([[0, 1]]), RepetitionPattern(np.array([1, 1, 1])), params)
    # two counts cover the view but not the three source columns
    with pytest.raises(ValidationError, match="column count"):
        match_all(d1, labeled([[0, 1]]), RepetitionPattern(np.array([1, 1])), params)


# --- per-column law --------------------------------------------------------------

def test_triple_law_entropies():
    law = TypicalityParams.from_components(P_X, CH, P_S)
    # oracle values: H(X)=1, H(S)+sum_s p(s)H(Y^s), H(X)+H(S)+E[S]H(Y|X)
    assert law.h_source == pytest.approx(1.0, abs=1e-12)
    assert law.h_observed == pytest.approx(2.489498410945818, abs=1e-12)
    assert law.h_joint == pytest.approx(3.0013704501755436, abs=1e-12)
    assert capacity(P_X, P_S, CH) == pytest.approx(0.48812796077027465, abs=1e-12)
    # consistency: H(X) + H(Y^S,S) - H(X,Y^S,S) == I, the capacity value
    assert law.h_source + law.h_observed - law.h_joint == pytest.approx(
        capacity(P_X, P_S, CH), abs=1e-9
    )


def test_default_epsilon_scales_with_joint_entropy():
    params = TypicalityParams.from_components(P_X, CH, P_S)
    assert params.epsilon == pytest.approx(0.1 * params.h_joint)
    with pytest.raises(ValidationError):
        TypicalityParams.from_components(P_X, CH, P_S, epsilon=0.0)


# --- typicality -------------------------------------------------------------------

def is_typical(x_row, y_row, counts, params):
    """Whether one (source row, flat view row) pair is jointly typical: a
    one-row source matches the row exactly when it is."""
    d1 = Database(np.asarray([x_row], dtype=np.uint8))
    report = match_all(d1, labeled([y_row]), RepetitionPattern(counts), params)
    return np.array_equal(report.outcomes, [OUTCOME_MATCHED])


def test_zero_probability_transition_rejects():
    params = TypicalityParams.from_components(P_X, Channel.identity(2), Pmf([0.0, 1.0]), epsilon=0.5)
    x_row = np.array([0, 1, 0])
    y_row = np.array([0, 1, 1])
    assert not is_typical(x_row, y_row, np.array([1, 1, 1]), params)
    assert is_typical(x_row, x_row.copy(), np.array([1, 1, 1]), params)
    # a count beyond the support of pS carries zero mass too
    assert not is_typical(x_row, np.array([0, 0, 1, 0]), np.array([2, 1, 1]), params)


def test_true_pair_aep_acceptance():
    # true pairs with the true per-column counts are typical almost always
    params = TypicalityParams.from_components(P_X, CH, P_S)
    n, trials = 200, 100
    hits = 0
    for t in range(trials):
        st = substreams(3000 + t)
        d1 = generate_unlabeled(1, n, P_X, st.database)
        pat = sample_pattern(n, P_S, st.pattern)
        d2 = apply_repetition_noise(d1, pat, Labeling(np.arange(1)), CH, st.noise)
        hits += is_typical(d1.entries[0], d2.entries[0], pat.counts, params)
    assert hits / trials >= 1.0 - 2.0 * params.epsilon


def test_decoder_equivalence_with_enumeration():
    # accept sets from match_all equal the plain re-implementation's
    rng = np.random.default_rng(55)
    params = TypicalityParams.from_components(P_X, CH, P_S, epsilon=0.45)
    for trial in range(30):
        st = substreams(7000 + trial)
        m, n = int(rng.integers(2, 17)), int(rng.integers(2, 9))
        d1 = generate_unlabeled(m, n, P_X, st.database)
        pat = sample_pattern(n, P_S, st.pattern)
        lab = sample_labeling(m, st.labeling)
        d2 = apply_repetition_noise(d1, pat, lab, CH, st.noise)
        report = match_all(d1, d2, pat, params)
        for pos, row in enumerate(report.matched_rows):
            ref = naive_accept_set(
                d1.entries, d2.entries[row], pat.counts, P_X, CH, P_S, params.epsilon
            )
            assert (report.outcomes[pos], report.candidate[pos]) == naive_outcome(ref)


# the k = 8 window channel: a read outside its support window is impossible,
# so its cell log-likelihoods hold LOG_ZERO entries
WINDOW_LAW = (
    Pmf.uniform(8),
    Channel(sum(np.roll(np.eye(8), d, axis=1) for d in range(6)) / 6),
    Pmf([0.0, 0.6, 0.4]),
)
SCAN_CASES = [
    # (law, windows, the pmf the counts are drawn from)
    # a wide window saturates rows partway through the scan (and may end it
    # early); a narrower one leaves unique and empty rows
    ((P_X, CH, P_S), (0.45, 1.0, 3.0), P_S),
    (WINDOW_LAW, (0.3, 0.6, 2.0), WINDOW_LAW[2]),
    # so narrow that some rows fail the observed-side window and never scan
    ((P_X, CH, P_S), (0.1, 0.15, 0.2), P_S),
    # a count of 3 lies beyond pS's support: its rows have zero mass
    ((P_X, CH, P_S), (0.45, 1.0, 3.0), Pmf([0.2, 0.4, 0.2, 0.2])),
    # every column erased: the view has no columns, every cell is empty
    ((P_X, CH, P_S), (0.45, 1.0, 3.0), Pmf([1.0])),
]


@pytest.mark.parametrize("budget", [1, 5, 12, 40])
def test_small_scan_blocks_match_oracle(monkeypatch, budget):
    # blocks of one to a few source rows, growing from one, and tiles of one
    # to a few matched rows: outcomes must not depend on either size
    obs_failures = 0
    for law, epsilons, count_pmf in SCAN_CASES:
        p_x, ch, p_s = law
        rng = np.random.default_rng(88)
        for trial in range(18):
            params = TypicalityParams.from_components(*law, epsilon=epsilons[trial % 3])
            st = substreams(8000 + trial)
            m, n = int(rng.integers(4, 17)), int(rng.integers(2, 9))
            d1 = generate_unlabeled(m, n, p_x, st.database)
            pat = sample_pattern(n, count_pmf, st.pattern)
            lab = sample_labeling(m, st.labeling)
            d2 = apply_repetition_noise(d1, pat, lab, ch, st.noise)
            rows = None
            if trial % 2:
                rows = np.sort(rng.choice(m, size=int(rng.integers(1, m)), replace=False))
            whole = match_all(d1, d2, pat, params, match_rows=rows)
            with monkeypatch.context() as patch:
                patch.setattr(matcher, "_SCAN_BLOCK_ENTRIES", budget)
                patch.setattr(matcher, "_FIRST_BLOCK_ROWS", 1)
                report = match_all(d1, d2, pat, params, match_rows=rows)
            for field in ("matched_rows", "outcomes", "candidate"):
                assert np.array_equal(getattr(report, field), getattr(whole, field))
            scanned = np.asarray(report.matched_rows)
            obs, _, table = matcher._observed_side_stats(d2, pat.counts, scanned, params)
            ref_obs, ref_table = naive_observed_stats(d2.entries[scanned], pat.counts, *law)
            assert obs.tolist() == pytest.approx(ref_obs, rel=1e-12, abs=1e-9)
            assert table.tolist() == [pytest.approx(r, rel=1e-12, abs=1e-9) for r in ref_table]
            obs_failures += int(np.sum(np.abs(-obs / n - params.h_observed) >= params.epsilon))
            for pos, row in enumerate(report.matched_rows):
                ref = naive_accept_set(d1.entries, d2.entries[row], pat.counts, *law, params.epsilon)
                assert (report.outcomes[pos], report.candidate[pos]) == naive_outcome(ref)
    assert obs_failures > 0


def test_scan_stops_once_every_row_saturates(monkeypatch):
    # a window wide enough that every source row is typical with every row:
    # two accepts each, found in the first block, end the scan
    st = substreams(31)
    m, n = 4096, 12
    d1 = generate_unlabeled(m, n, P_X, st.database)
    pat = sample_pattern(n, P_S, st.pattern)
    d2 = apply_repetition_noise(d1, pat, sample_labeling(m, st.labeling), CH, st.noise)
    params = TypicalityParams.from_components(P_X, CH, P_S, epsilon=50.0)
    blocks = []
    one_hot = matcher._one_hot

    def recording(x_blk, k):
        blocks.append(x_blk.shape[0])
        return one_hot(x_blk, k)

    monkeypatch.setattr(matcher, "_one_hot", recording)
    report = match_all(d1, d2, pat, params, match_rows=np.arange(40))
    assert np.array_equal(report.outcomes, [OUTCOME_AMBIGUOUS] * 40)
    assert sum(blocks) <= m // 64


def test_full_match_memory_is_bounded():
    # every shuffled row against every source row: the scan scores m x m
    # pairs, one bounded block of source rows at a time (unblocked, the
    # 4096 x 4096 float64 score matrix alone would take 134 MB)
    st = substreams(21)
    m, n = 4096, 16
    d1 = generate_unlabeled(m, n, P_X, st.database)
    pat = sample_pattern(n, P_S, st.pattern)
    lab = sample_labeling(m, st.labeling)
    d2 = apply_repetition_noise(d1, pat, lab, CH, st.noise)
    params = TypicalityParams.from_components(P_X, CH, P_S)
    tracemalloc.start()
    try:
        report = match_all(d1, d2, pat, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.matched_rows) == m
    # a few arrays of at most _SCAN_BLOCK_ENTRIES entries (16 MiB as float64)
    assert peak < 32e6


def test_full_match_memory_per_row_within_stated_term(monkeypatch):
    # README states up to 42 bytes per matched row at scoring's peak; the
    # slope between two row counts leaves out every fixed term.  Each view
    # row is a noiseless copy of one of 64 distinct source rows, so every
    # row is matched and scored.  A small scan budget keeps the scan's
    # tiles below its per-row arrays, so its slope is read too.
    monkeypatch.setattr(matcher, "_SCAN_BLOCK_ENTRIES", 1 << 14)
    n, p_x, ch, p_s = 64, Pmf.uniform(2), Channel.identity(2), Pmf([0.0, 1.0])
    params = TypicalityParams.from_components(p_x, ch, p_s)
    d1 = generate_unlabeled(64, n, p_x, np.random.default_rng(5))
    assert len({row.tobytes() for row in d1.entries}) == 64
    s_hat = RepetitionPattern(np.ones(n, dtype=np.int64))
    peaks = []
    for m in (100_000, 200_000):
        d2, lab = Database(d1.entries[np.arange(m) % 64]), Labeling(np.arange(m))
        tracemalloc.start()
        try:
            report = match_all(d1, d2, s_hat, params)
            scan = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            scored = evaluate(report, lab)
            score = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(np.bincount(report.outcomes), [0, m])
        assert scored.error_rate == (m - 64) / m
        peaks.append((scan, score))
    slopes = [(big - small) / 100_000 for small, big in zip(*peaks)]
    assert max(slopes) <= 42, slopes


def test_match_single_row():
    st = substreams(1)
    d1 = generate_unlabeled(1, 80, P_X, st.database)
    pat = sample_pattern(80, P_S, st.pattern)
    d2 = apply_repetition_noise(d1, pat, Labeling(np.arange(1)), CH, st.noise)
    report = match_all(d1, d2, pat, TypicalityParams.from_components(P_X, CH, P_S))
    assert np.array_equal(report.outcomes, [OUTCOME_MATCHED])
    assert np.array_equal(report.candidate, [0])


def test_duplicate_rows_are_ambiguous():
    x = np.array([[0, 1, 0, 1], [0, 1, 0, 1]], dtype=np.uint8)
    d1 = Database(x)
    d2 = labeled(x[:1])
    pattern = RepetitionPattern(np.ones(4, dtype=np.int64))
    params = TypicalityParams.from_components(P_X, Channel.identity(2), Pmf([0.0, 1.0]), epsilon=1.0)
    report = match_all(d1, d2, pattern, params)
    assert np.array_equal(report.outcomes, [OUTCOME_AMBIGUOUS])


def test_matching_error_below_capacity():
    # quiet channel, n=60, m=64: near-perfect matching at the default window
    errs = []
    params = TypicalityParams.from_components(P_X, CH, P_S)
    for t in range(50):
        st = substreams(4000 + t)
        m, n = 64, 60
        d1 = generate_unlabeled(m, n, P_X, st.database)
        pat = sample_pattern(n, P_S, st.pattern)
        lab = sample_labeling(m, st.labeling)
        d2 = apply_repetition_noise(d1, pat, lab, CH, st.noise)
        report = evaluate(match_all(d1, d2, pat, params), lab)
        errs.append(report.error_rate)
    assert float(np.mean(errs)) <= 0.05


def test_match_rows_subset():
    st = substreams(2)
    m, n = 32, 40
    d1 = generate_unlabeled(m, n, P_X, st.database)
    pat = sample_pattern(n, P_S, st.pattern)
    lab = sample_labeling(m, st.labeling)
    d2 = apply_repetition_noise(d1, pat, lab, CH, st.noise)
    params = TypicalityParams.from_components(P_X, CH, P_S)
    rows = np.array([3, 10, 17])
    report = match_all(d1, d2, pat, params, match_rows=rows)
    assert np.array_equal(report.matched_rows, rows)
    full = match_all(d1, d2, pat, params)
    assert np.array_equal(full.outcomes[rows], report.outcomes)
    assert np.array_equal(full.candidate[rows], report.candidate)
    empty = match_all(d1, d2, pat, params, match_rows=np.array([], dtype=np.int64))
    assert empty.matched_rows.size == empty.outcomes.size == empty.candidate.size == 0
    # a row outside 0..m-1 is refused, not wrapped around or left to IndexError
    for bad in ([-1, m - 1], [m]):
        with pytest.raises(ValidationError, match=f"0..{m - 1}"):
            match_all(d1, d2, pat, params, match_rows=np.array(bad))


# --- evaluation ---------------------------------------------------------------------

def test_evaluate_all_correct():
    report = MatchReport(
        matched_rows=[0, 1], outcomes=[OUTCOME_MATCHED, OUTCOME_MATCHED], candidate=[1, 0]
    )
    scored = evaluate(report, Labeling(np.array([1, 0])))
    assert scored.error_rate == 0.0
    assert np.array_equal(scored.outcomes, [OUTCOME_CORRECT, OUTCOME_CORRECT])
    # a scored report is scored again: its rows stay matched
    rescored = evaluate(scored, Labeling(np.array([0, 1])))
    assert rescored.error_rate == 1.0
    assert np.array_equal(rescored.outcomes, [OUTCOME_WRONG, OUTCOME_WRONG])


def test_evaluate_empty_assignment():
    report = MatchReport(
        matched_rows=[0, 1], outcomes=[OUTCOME_NONE, OUTCOME_NONE], candidate=[-1, -1]
    )
    assert evaluate(report, Labeling(np.array([0, 1]))).error_rate == 1.0


def test_evaluate_half_correct():
    report = MatchReport(
        matched_rows=[0, 1, 2, 3],
        outcomes=[OUTCOME_MATCHED, OUTCOME_MATCHED, OUTCOME_NONE, OUTCOME_NONE],
        candidate=[0, 1, -1, -1],
    )
    assert evaluate(report, Labeling(np.arange(4))).error_rate == 0.5


def test_outcome_split_matches_per_row_oracle():
    # every scored code against the accept set and the true labeling, row by
    # row, on full matches and on match_rows subsets
    params = TypicalityParams.from_components(P_X, CH, P_S, epsilon=0.45)
    rng = np.random.default_rng(26)
    seen = set()
    for trial in range(24):
        st = substreams(2600 + trial)
        m, n = int(rng.integers(2, 17)), int(rng.integers(2, 9))
        d1 = generate_unlabeled(m, n, P_X, st.database)
        pat = sample_pattern(n, P_S, st.pattern)
        lab = sample_labeling(m, st.labeling)
        d2 = apply_repetition_noise(d1, pat, lab, CH, st.noise)
        rows = None
        if trial % 2:
            rows = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
        scored = evaluate(match_all(d1, d2, pat, params, match_rows=rows), lab)
        expected = []
        for row in range(m) if rows is None else rows:
            code, src = naive_outcome(
                naive_accept_set(d1.entries, d2.entries[row], pat.counts, P_X, CH, P_S, 0.45)
            )
            if code == OUTCOME_MATCHED:
                code = OUTCOME_CORRECT if lab.perm[src] == row else OUTCOME_WRONG
            expected.append(code)
        assert np.array_equal(scored.outcomes, expected)
        split = np.bincount(scored.outcomes, minlength=5)
        assert split[OUTCOME_MATCHED] == 0 and split.sum() == len(expected)
        wrong = len(expected) - expected.count(OUTCOME_CORRECT)
        assert scored.error_rate == wrong / len(expected)
        seen.update(expected)
    assert seen == {OUTCOME_NONE, OUTCOME_AMBIGUOUS, OUTCOME_WRONG, OUTCOME_CORRECT}


def test_report_arrays_are_read_only_with_stated_dtypes():
    st = substreams(5)
    d1 = generate_unlabeled(16, 20, P_X, st.database)
    pat = sample_pattern(20, P_S, st.pattern)
    lab = sample_labeling(16, st.labeling)
    d2 = apply_repetition_noise(d1, pat, lab, CH, st.noise)
    report = match_all(d1, d2, pat, TypicalityParams.from_components(P_X, CH, P_S))
    dtypes = {"matched_rows": np.int64, "outcomes": np.int8, "candidate": np.int64}
    for r in (report, evaluate(report, lab)):
        for field, dtype in dtypes.items():
            arr = getattr(r, field)
            assert arr.dtype == dtype and arr.shape == (16,)
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
