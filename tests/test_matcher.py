"""Marked-view construction and the typicality matcher."""

import itertools
import math

import numpy as np
import pytest

from dbmatch.errors import ArityMismatch, ValidationError
from dbmatch.matcher import (
    OUTCOME_AMBIGUOUS,
    OUTCOME_CORRECT,
    OUTCOME_NONE,
    MatchReport,
    TripleLaw,
    TypicalityParams,
    build_marked,
    evaluate,
    is_jointly_typical,
    match_all,
    ml_match_all,
    observed_log_prob,
    report_to_json,
    triple_log_prob,
)
from dbmatch.model import (
    GroundTruth,
    LabeledDatabase,
    Labeling,
    RepetitionPattern,
    UnlabeledDatabase,
    apply_repetition_noise,
    generate_unlabeled,
    sample_labeling,
    sample_pattern,
    substreams,
)
from dbmatch.probability import Channel, Pmf, capacity


P_X = Pmf.uniform(2)
CH = Channel.symmetric(2, 0.1)
P_S = Pmf([0.2, 0.5, 0.3])


def labeled(rows):
    return LabeledDatabase(np.asarray(rows, dtype=np.uint8))


# --- marked view ---------------------------------------------------------------

def test_build_marked_all_singletons():
    d2 = labeled([[0, 1, 0], [1, 1, 1]])
    marked = build_marked(d2, RepetitionPattern(np.array([1, 1, 1])))
    assert not any(marked.is_erased(j) for j in range(3))
    assert [c.tolist() for c in marked.row_cells(0)] == [[0], [1], [0]]


def test_build_marked_with_erasures():
    d2 = labeled([[7 % 2, 1, 0]])  # row (a, b, c) = (1, 1, 0)
    marked = build_marked(d2, RepetitionPattern(np.array([2, 0, 1])))
    cells = marked.row_cells(0)
    assert cells[0].tolist() == [1, 1]
    assert cells[1].size == 0 and marked.is_erased(1)
    assert cells[2].tolist() == [0]


def test_build_marked_all_erased():
    d2 = labeled(np.zeros((3, 0)))
    marked = build_marked(d2, RepetitionPattern(np.zeros(4, dtype=np.int64)))
    assert all(marked.is_erased(j) for j in range(4))


def test_build_marked_arity_mismatch():
    with pytest.raises(ArityMismatch):
        build_marked(labeled([[0, 1]]), RepetitionPattern(np.array([1, 1, 1])))


def test_build_marked_is_lossless():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        pat = sample_pattern(n, Pmf([0.3, 0.4, 0.3]), rng)
        d2 = labeled(rng.integers(0, 2, size=(3, pat.total_columns)))
        marked = build_marked(d2, pat)
        for i in range(3):
            flat = np.concatenate([c for c in marked.row_cells(i)] or [np.array([])])
            assert np.array_equal(flat.astype(np.uint8), d2.entries[i])


# --- per-column laws --------------------------------------------------------------

def test_triple_log_prob_erased_branch():
    lp = triple_log_prob(1, [], 0, P_X, CH, P_S)
    assert lp == pytest.approx(math.log2(0.2) + math.log2(0.5))


def test_triple_log_prob_impossible_transition():
    assert triple_log_prob(0, [1], 1, P_X, Channel.identity(2), P_S) == -math.inf


def test_triple_log_prob_product_branch():
    lp = triple_log_prob(0, [0, 1], 2, P_X, CH, P_S)
    assert lp == pytest.approx(math.log2(0.3) + math.log2(0.5 * 0.9 * 0.1))


def test_triple_log_prob_count_outside_support():
    assert triple_log_prob(0, [0, 0, 0], 3, P_X, CH, P_S) == -math.inf


def test_triple_log_prob_sums_to_one():
    # over all (x, s, y^s): sum of 2^logmass == 1
    for p_x, ch, p_s in (
        (P_X, CH, P_S),
        (Pmf([0.6, 0.3, 0.1]), Channel.symmetric(3, 0.2), Pmf([0.1, 0.4, 0.3, 0.2])),
    ):
        total = 0.0
        for x in range(p_x.size):
            for s in range(p_s.size):
                for cell in itertools.product(range(p_x.size), repeat=s):
                    lp = triple_log_prob(x, list(cell), s, p_x, ch, p_s)
                    if math.isfinite(lp):
                        total += 2.0**lp
        assert total == pytest.approx(1.0, abs=1e-10)


def test_observed_log_prob_sums_to_one():
    total = 0.0
    for s in range(P_S.size):
        for cell in itertools.product(range(2), repeat=s):
            lp = observed_log_prob(list(cell), s, P_X, CH, P_S)
            if math.isfinite(lp):
                total += 2.0**lp
    assert total == pytest.approx(1.0, abs=1e-10)


def test_triple_law_entropies():
    law = TripleLaw.from_components(P_X, CH, P_S)
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
    assert params.epsilon == pytest.approx(0.1 * params.law.h_joint)
    with pytest.raises(ValidationError):
        TypicalityParams.from_components(P_X, CH, P_S, epsilon=0.0)


# --- typicality -------------------------------------------------------------------

def test_zero_probability_transition_rejects():
    params = TypicalityParams.from_components(P_X, Channel.identity(2), Pmf([0.0, 1.0]), epsilon=0.5)
    x_row = np.array([0, 1, 0])
    y_row = np.array([0, 1, 1])
    assert not is_jointly_typical(x_row, y_row, np.array([1, 1, 1]), params)
    assert is_jointly_typical(x_row, x_row.copy(), np.array([1, 1, 1]), params)


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
        hits += is_jointly_typical(d1.entries[0], d2.entries[0], pat.counts, params)
    assert hits / trials >= 1.0 - 2.0 * params.epsilon


def naive_accept_set(x_rows, y_row, counts, p_x, ch, p_s, eps):
    """Independent re-implementation of the three window conditions."""
    accepted = []
    n = len(counts)
    for i, x_row in enumerate(x_rows):
        src = obs = joint = 0.0
        dead = False
        off = 0
        for j in range(n):
            s = int(counts[j])
            cell = [int(v) for v in y_row[off : off + s]]
            off += s
            px = p_x[int(x_row[j])]
            ps = p_s[s] if s < p_s.size else 0.0
            pcell_x = 1.0
            pcell = 0.0
            for xx in range(p_x.size):
                term = p_x[xx]
                for y in cell:
                    term *= ch.rows[xx, y]
                pcell += term
            for y in cell:
                pcell_x *= ch.rows[int(x_row[j]), y]
            if px <= 0 or ps <= 0 or pcell_x <= 0 or pcell <= 0:
                dead = True
                break
            src += math.log2(px)
            obs += math.log2(ps) + math.log2(pcell)
            joint += math.log2(ps) + math.log2(px) + math.log2(pcell_x)
        if dead:
            continue
        law = TripleLaw.from_components(p_x, ch, p_s)
        if (
            abs(-src / n - law.h_source) < eps
            and abs(-obs / n - law.h_observed) < eps
            and abs(-joint / n - law.h_joint) < eps
        ):
            accepted.append(i)
    return accepted


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
        marked = build_marked(d2, pat)
        report = match_all(d1, marked, params)
        for pos, row in enumerate(report.matched_rows):
            ref = naive_accept_set(
                d1.entries, d2.entries[row], pat.counts, P_X, CH, P_S, params.epsilon
            )
            if report.outcomes[pos] == OUTCOME_NONE:
                assert ref == []
            elif report.outcomes[pos] == OUTCOME_AMBIGUOUS:
                assert len(ref) >= 2
            else:
                assert ref == [report.assignment[row]]


def test_match_single_row():
    st = substreams(1)
    d1 = generate_unlabeled(1, 80, P_X, st.database)
    pat = sample_pattern(80, P_S, st.pattern)
    d2 = apply_repetition_noise(d1, pat, Labeling(np.arange(1)), CH, st.noise)
    marked = build_marked(d2, pat)
    report = match_all(d1, marked, TypicalityParams.from_components(P_X, CH, P_S))
    assert report.outcomes == ("matched",)
    assert report.assignment[0] == 0


def test_duplicate_rows_are_ambiguous():
    x = np.array([[0, 1, 0, 1], [0, 1, 0, 1]], dtype=np.uint8)
    d1 = UnlabeledDatabase(x.copy())
    d2 = labeled(x[:1])
    marked = build_marked(d2, RepetitionPattern(np.ones(4, dtype=np.int64)))
    params = TypicalityParams.from_components(P_X, Channel.identity(2), Pmf([0.0, 1.0]), epsilon=1.0)
    report = match_all(d1, marked, params)
    assert report.outcomes == (OUTCOME_AMBIGUOUS,)


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
        marked = build_marked(d2, pat)
        report = evaluate(match_all(d1, marked, params), GroundTruth(pat, lab))
        errs.append(report.error_rate)
    assert float(np.mean(errs)) <= 0.05


def test_match_rows_subset():
    st = substreams(2)
    m, n = 32, 40
    d1 = generate_unlabeled(m, n, P_X, st.database)
    pat = sample_pattern(n, P_S, st.pattern)
    lab = sample_labeling(m, st.labeling)
    d2 = apply_repetition_noise(d1, pat, lab, CH, st.noise)
    marked = build_marked(d2, pat)
    params = TypicalityParams.from_components(P_X, CH, P_S)
    rows = np.array([3, 10, 17])
    report = match_all(d1, marked, params, match_rows=rows)
    assert report.matched_rows == (3, 10, 17)
    full = match_all(d1, marked, params)
    for row in rows:
        assert full.outcomes[row] == report.outcomes[report.matched_rows.index(row)]


# --- evaluation ---------------------------------------------------------------------

def test_evaluate_all_correct():
    truth = GroundTruth(
        RepetitionPattern(np.ones(2, dtype=np.int64)), Labeling(np.array([1, 0]))
    )
    report = MatchReport(matched_rows=(0, 1), outcomes=("matched", "matched"), assignment={0: 1, 1: 0})
    scored = evaluate(report, truth)
    assert scored.error_rate == 0.0
    assert scored.outcomes == (OUTCOME_CORRECT, OUTCOME_CORRECT)


def test_evaluate_empty_assignment():
    truth = GroundTruth(
        RepetitionPattern(np.ones(2, dtype=np.int64)), Labeling(np.array([0, 1]))
    )
    report = MatchReport(
        matched_rows=(0, 1), outcomes=(OUTCOME_NONE, OUTCOME_NONE), assignment={}
    )
    assert evaluate(report, truth).error_rate == 1.0


def test_evaluate_half_correct():
    truth = GroundTruth(
        RepetitionPattern(np.ones(2, dtype=np.int64)),
        Labeling(np.arange(4)),
    )
    report = MatchReport(
        matched_rows=(0, 1, 2, 3),
        outcomes=("matched", "matched", OUTCOME_NONE, OUTCOME_NONE),
        assignment={0: 0, 1: 1},
    )
    assert evaluate(report, truth).error_rate == 0.5


def test_report_json_shape():
    report = MatchReport(
        matched_rows=(0,), outcomes=(OUTCOME_CORRECT,), assignment={0: 2}, error_rate=0.0
    )
    blob = report_to_json(report)
    assert blob == {"assignment": {"0": 2}, "outcomes": [OUTCOME_CORRECT], "errorRate": 0.0}


# --- diagnostic likelihood decoder ----------------------------------------------------

def test_ml_decoder_matches_noiseless():
    st = substreams(13)
    m, n = 16, 30
    d1 = generate_unlabeled(m, n, P_X, st.database)
    pat = RepetitionPattern(np.ones(n, dtype=np.int64))
    lab = sample_labeling(m, st.labeling)
    d2 = apply_repetition_noise(d1, pat, lab, Channel.identity(2), st.noise)
    marked = build_marked(d2, pat)
    params = TypicalityParams.from_components(P_X, Channel.identity(2), Pmf([0.0, 1.0]), epsilon=0.5)
    report = evaluate(ml_match_all(d1, marked, params), GroundTruth(pat, lab))
    assert report.error_rate == 0.0
