"""Row matching: segment the shuffled view by the estimated per-column
counts (erasure cells where a column was deleted), then match each of its
rows to the unique source row that is jointly typical with it under the
(symbol, read-tuple, count) law.

Typicality is the weak, entropy-based flavor: the three empirical
per-column log-probability averages (source side, observed side, joint)
must each lie within epsilon of the corresponding entropy; any zero
probability factor rejects outright.

Row scans are pure and parallelize over matched rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, ValidationError
from .model import GroundTruth, LabeledDatabase, RepetitionPattern, UnlabeledDatabase
from .probability import LOG_ZERO, Channel, Pmf, _safe_log2, capacity, entropy

# score entries (matched rows x source rows) per block of the scan; each
# float64 block array takes 16 MiB
_SCAN_BLOCK_ENTRIES = 1 << 21

OUTCOME_CORRECT = "matched-correct"
OUTCOME_WRONG = "matched-wrong"
OUTCOME_AMBIGUOUS = "ambiguous"
OUTCOME_NONE = "none"


def _count_log_table(p_s: Pmf, max_count: int) -> np.ndarray:
    """log2 p_s lookup covering counts up to max_count; counts beyond the
    support carry zero mass (a misdetected run longer than s_max)."""
    table = np.full(max(max_count + 1, p_s.size), LOG_ZERO)
    table[: p_s.size] = _safe_log2(p_s.probs)
    return table


@dataclass(frozen=True)
class MarkedDatabase:
    """The shuffled view segmented into per-source-column cells.

    Cell (i, j) is the length counts[j] slice of row i starting at column
    offsets[j]; a zero count marks an erasure.  Concatenating the
    non-erased cells of a row reproduces the flat row exactly, by
    construction.
    """

    entries: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray

    @property
    def m(self) -> int:
        return int(self.entries.shape[0])

    @property
    def n(self) -> int:
        return int(self.counts.shape[0])


def build_marked(d2: LabeledDatabase, s_hat: RepetitionPattern) -> MarkedDatabase:
    """Segment the flat view by the count estimate."""
    if s_hat.total_columns != d2.total_columns:
        raise ArityMismatch(
            f"counts sum to {s_hat.total_columns} but the view has {d2.total_columns} columns"
        )
    counts = s_hat.counts
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
    offsets.flags.writeable = False
    return MarkedDatabase(entries=d2.entries, counts=counts, offsets=offsets)


@dataclass(frozen=True)
class TripleLaw:
    """Precomputed law of one (source symbol, read tuple, count) column."""

    p_x: Pmf
    ch: Channel
    p_s: Pmf
    h_source: float
    h_observed: float
    h_joint: float

    @staticmethod
    def from_components(p_x: Pmf, ch: Channel, p_s: Pmf) -> "TripleLaw":
        h_x = entropy(p_x)
        h_s = entropy(p_s)
        h_y_given_x = float(
            sum(
                p_x[x] * entropy(Pmf(ch.rows[x]))
                for x in range(ch.size)
                if p_x[x] > 0
            )
        )
        mean_s = float(sum(s * p_s[s] for s in range(p_s.size)))
        return TripleLaw(
            p_x=p_x,
            ch=ch,
            p_s=p_s,
            h_source=h_x,
            # H(S) + sum_s p_s(s) H(Y^s), as H(Y^s) = I(X; Y^s) + s H(Y|X)
            h_observed=h_s + capacity(p_x, p_s, ch) + mean_s * h_y_given_x,
            h_joint=h_x + h_s + mean_s * h_y_given_x,
        )


@dataclass(frozen=True)
class TypicalityParams:
    """Acceptance window and the distribution it is measured against."""

    epsilon: float
    law: TripleLaw

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValidationError("epsilon must be positive")

    @staticmethod
    def from_components(
        p_x: Pmf, ch: Channel, p_s: Pmf, epsilon: float | None = None
    ) -> "TypicalityParams":
        law = TripleLaw.from_components(p_x, ch, p_s)
        if epsilon is None:
            epsilon = 0.1 * law.h_joint
        return TypicalityParams(epsilon=epsilon, law=law)


@dataclass(frozen=True)
class MatchReport:
    """Outcome of matching a set of shuffled rows against the source rows.

    assignment maps a matched shuffled-row index to its unique typical
    source-row index.  error_rate is filled by evaluate() and is the
    fraction of evaluated rows that did not end up matched-correct.
    """

    matched_rows: tuple[int, ...]
    outcomes: tuple[str, ...]
    assignment: dict[int, int]
    error_rate: float | None = None


def _observed_side_stats(
    marked: MarkedDatabase, rows: np.ndarray, law: TripleLaw
) -> tuple[np.ndarray, float, np.ndarray]:
    """Per-row observed-side empirical average, the count-term constant,
    and per-symbol cell count matrices for the scoring matmul."""
    n = marked.n
    counts = marked.counts
    y = marked.entries[rows]
    lp_s = _count_log_table(law.p_s, int(counts.max()) if counts.size else 0)
    s_const = float(lp_s[counts].sum())
    obs = np.full(len(rows), s_const)
    for j in range(n):
        s = int(counts[j])
        if s == 0:
            continue
        off = int(marked.offsets[j])
        cell = y[:, off : off + s]
        cond = np.ones((law.p_x.size, len(rows)))
        for l in range(s):
            cond *= law.ch.rows[:, cell[:, l]]
        mass = law.p_x.probs @ cond
        obs += _safe_log2(mass)
    # symbol counts per (row, source column) for the joint-score matmul
    k = law.p_x.size
    col_of = np.repeat(np.arange(n), counts)
    seg = np.zeros((marked.entries.shape[1], n))
    if col_of.size:
        seg[np.arange(col_of.size), col_of] = 1.0
    cnt = np.stack([(y == sym).astype(float) @ seg for sym in range(k)])
    return obs, s_const, cnt


def _match_rows_against_source(
    d1: UnlabeledDatabase,
    marked: MarkedDatabase,
    params: TypicalityParams,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Scan every source row for each requested shuffled row.

    Returns (accept counts, unique candidate index or -1) per row.  Source
    rows are scored in blocks of about _SCAN_BLOCK_ENTRIES scores, and the
    scan ends once every row has at least two accepted candidates; neither
    changes any outcome, which reads a count only as 0, 1 or more, and the
    unique candidate is the first accepted row.
    """
    law = params.law
    eps = params.epsilon
    n = marked.n
    n_rows = len(rows)
    lp_x = _safe_log2(law.p_x.probs)
    lp_ch = _safe_log2(law.ch.rows)

    obs, s_const, cnt = _observed_side_stats(marked, rows, law)
    obs_ok = np.abs(-obs / n - law.h_observed) < eps

    counts = np.zeros(n_rows, dtype=np.int64)
    unique_idx = np.full(n_rows, -1, dtype=np.int64)
    x_all = d1.entries
    block = max(1, _SCAN_BLOCK_ENTRIES // max(1, n_rows))
    for lo in range(0, d1.m, block):
        hi = min(d1.m, lo + block)
        x_blk = x_all[lo:hi]
        src_terms = lp_x[x_blk].sum(axis=1)
        src_ok = np.abs(-src_terms / n - law.h_source) < eps
        joint = np.zeros((n_rows, hi - lo))
        for sym in range(law.p_x.size):
            joint += cnt[sym] @ lp_ch[x_blk, sym].T
        joint += s_const + src_terms[None, :]
        ok = (
            obs_ok[:, None]
            & src_ok[None, :]
            & (np.abs(-joint / n - law.h_joint) < eps)
        )
        blk_counts = ok.sum(axis=1)
        first = np.argmax(ok, axis=1)
        newly = (counts == 0) & (blk_counts > 0)
        unique_idx[newly] = lo + first[newly]
        counts += blk_counts
        if np.all(counts >= 2):
            break
    unique_idx[counts != 1] = -1
    return counts, unique_idx


def match_all(
    d1: UnlabeledDatabase,
    marked: MarkedDatabase,
    params: TypicalityParams,
    match_rows: np.ndarray | None = None,
) -> MatchReport:
    """Match shuffled rows to source rows by unique joint typicality.

    A row is matched when exactly one source row is typical with it,
    ambiguous when several are, and unmatched when none is.  match_rows
    restricts the scan to a subset of shuffled rows (the per-row outcome
    law is unchanged; this is the uniformly-drawn-row error estimator).
    """
    if d1.n != marked.n:
        raise ValidationError("source and marked views disagree on column count")
    if match_rows is None:
        rows = np.arange(marked.m)
    else:
        rows = np.asarray(match_rows, dtype=np.int64)
    counts, unique_idx = _match_rows_against_source(d1, marked, params, rows)
    outcomes = []
    assignment: dict[int, int] = {}
    for pos, row in enumerate(rows):
        if counts[pos] == 0:
            outcomes.append(OUTCOME_NONE)
        elif counts[pos] > 1:
            outcomes.append(OUTCOME_AMBIGUOUS)
        else:
            outcomes.append("matched")
            assignment[int(row)] = int(unique_idx[pos])
    return MatchReport(
        matched_rows=tuple(int(r) for r in rows),
        outcomes=tuple(outcomes),
        assignment=assignment,
    )


def evaluate(report: MatchReport, truth: GroundTruth) -> MatchReport:
    """Score a report against the hidden row permutation.

    A matched row is correct when its assigned source row maps to it under
    the true labeling.  error_rate is the fraction of evaluated rows not
    matched-correct, the uniformly-drawn-row estimator.
    """
    theta = truth.labeling.perm
    outcomes = []
    for row, outcome in zip(report.matched_rows, report.outcomes):
        if outcome in (OUTCOME_NONE, OUTCOME_AMBIGUOUS):
            outcomes.append(outcome)
        else:
            src = report.assignment[row]
            outcomes.append(OUTCOME_CORRECT if theta[src] == row else OUTCOME_WRONG)
    wrong = sum(1 for o in outcomes if o != OUTCOME_CORRECT)
    return MatchReport(
        matched_rows=report.matched_rows,
        outcomes=tuple(outcomes),
        assignment=dict(report.assignment),
        error_rate=wrong / len(outcomes) if outcomes else 0.0,
    )
