"""Row matching: cut each row of the shuffled view into per-column cells by
the estimated per-column counts (an empty cell where a column was deleted),
then match it to the unique source row that is jointly typical with it
under the (symbol, read-tuple, count) law.

Typicality is the weak, entropy-based flavor: the three empirical
per-column log-probability averages (source side, observed side, joint)
must each lie within epsilon of the corresponding entropy; any zero
probability factor rejects outright.  TypicalityParams holds epsilon, the
column law (pX, channel, pS) and its three entropies.

The scan scores a block of source rows against a tile of matched rows
with one matmul: a matched row's cell log-likelihoods form a row over
(column, symbol), and a source row is a one-hot row over the same axis.
Blocks start small and double up to a fixed entry budget, and a row
leaves the scan once two source rows accept it.  While n * k fits the
budget, no float64 array the scan builds exceeds it; beyond, one row's
n * k-entry cell table and one-hot row do.  Memory grows with n * k,
never with m.  Row scans are pure and parallelize over matched rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ArityMismatch, ValidationError
from .model import Database, Labeling, RepetitionPattern
from .probability import LOG_ZERO, Channel, Pmf, _read_only, _safe_log2, capacity, entropy

# entries per array of the scan: the score block (live rows x source rows),
# the one-hot block (source rows x n * k) and a tile's cell tables (rows x
# n * k); each float64 array takes at most 16 MiB
_SCAN_BLOCK_ENTRIES = 1 << 21
# source rows in a tile's first block; each later block doubles, up to the budget
_FIRST_BLOCK_ROWS = 64

# outcome codes: 0-2 are a row's accept count capped at 2, and evaluate
# splits each matched row into wrong or correct
OUTCOME_NONE, OUTCOME_MATCHED, OUTCOME_AMBIGUOUS, OUTCOME_WRONG, OUTCOME_CORRECT = range(5)


@dataclass(frozen=True)
class TypicalityParams:
    """Acceptance window and the (source symbol, read tuple, count) column
    law it is measured against, with the law's three entropies."""

    epsilon: float
    p_x: Pmf
    ch: Channel
    p_s: Pmf
    h_source: float
    h_observed: float
    h_joint: float

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValidationError("epsilon must be positive")

    @staticmethod
    def from_components(
        p_x: Pmf, ch: Channel, p_s: Pmf, epsilon: float | None = None
    ) -> "TypicalityParams":
        h_x = entropy(p_x)
        h_s = entropy(p_s)
        h_y_given_x = float(
            sum(p_x[x] * entropy(Pmf(ch.rows[x])) for x in range(ch.size) if p_x[x] > 0)
        )
        mean_s = float(sum(s * p_s[s] for s in range(p_s.size)))
        h_joint = h_x + h_s + mean_s * h_y_given_x
        return TypicalityParams(
            epsilon=0.1 * h_joint if epsilon is None else epsilon,
            p_x=p_x,
            ch=ch,
            p_s=p_s,
            h_source=h_x,
            # H(S) + sum_s p_s(s) H(Y^s), as H(Y^s) = I(X; Y^s) + s H(Y|X)
            h_observed=h_s + capacity(p_x, p_s, ch) + mean_s * h_y_given_x,
            h_joint=h_joint,
        )


@dataclass(frozen=True, eq=False)
class MatchReport:
    """Outcome of matching shuffled rows against the source rows, as
    read-only arrays aligned by position: the scanned rows (int64), their
    OUTCOME_* codes (int8) and candidate, the first accepted source row
    (int64, -1 where none was).  match_all gives the codes NONE, MATCHED
    and AMBIGUOUS; evaluate() splits MATCHED into WRONG and CORRECT and
    fills error_rate, the fraction of rows not CORRECT."""

    matched_rows: np.ndarray
    outcomes: np.ndarray
    candidate: np.ndarray
    error_rate: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "matched_rows", _read_only(self.matched_rows, np.int64))
        object.__setattr__(self, "outcomes", _read_only(self.outcomes, np.int8))
        object.__setattr__(self, "candidate", _read_only(self.candidate, np.int64))


def _observed_side_stats(
    d2: Database, counts: np.ndarray, rows: np.ndarray, params: TypicalityParams
) -> tuple[np.ndarray, float, np.ndarray]:
    """Per-row observed-side empirical average, the count-term constant,
    and the cell log-likelihood table L[i, j * k + x] = sum_l log2 W(y_il | x)
    over the reads y_il of row i's cell j: its counts[j] view columns from
    column counts[0] + ... + counts[j - 1] (zero for an erased cell)."""
    n, k = counts.shape[0], params.p_x.size
    offsets = np.cumsum(counts) - counts
    y = d2.entries[rows]
    s_max = int(counts.max()) if counts.size else 0
    # log2 p_s over counts up to s_max; a count beyond the support (a
    # misdetected run longer than s_max) carries zero mass
    lp_s = np.full(max(s_max + 1, params.p_s.size), LOG_ZERO)
    lp_s[: params.p_s.size] = _safe_log2(params.p_s.probs)
    s_const = float(lp_s[counts].sum())
    # row y holds W(y | x), or its log2, over x; row k stands for a missing read
    w_read = np.append(params.ch.rows.T, np.ones((1, k)), axis=0)
    lp_read = np.append(_safe_log2(params.ch.rows).T, np.zeros((1, k)), axis=0)
    cond = np.ones((len(rows), n, k))
    table = np.zeros((len(rows), n, k))
    for l in range(s_max):
        # read l of every cell, or row k where the cell has none (its clipped
        # index only keeps the gather in range)
        at = np.minimum(offsets + l, y.shape[1] - 1)
        read = np.where(counts > l, y[:, at], np.intp(k))
        cond *= w_read[read]
        table += lp_read[read]
    mass = _safe_log2(cond @ params.p_x.probs)
    obs = np.full(len(rows), s_const)
    for j in np.flatnonzero(counts):
        obs += mass[:, j]
    return obs, s_const, table.reshape(len(rows), n * k)


def _one_hot(x_blk: np.ndarray, k: int) -> np.ndarray:
    """Source rows as indicator rows over (column, symbol): block x n * k."""
    b, n = x_blk.shape
    hot = np.zeros((b, n * k))
    hot.reshape(-1)[(np.arange(b) * (n * k))[:, None] + np.arange(n) * k + x_blk] = 1.0
    return hot


def _scan_tile(
    d1: Database, d2: Database, counts: np.ndarray, params: TypicalityParams, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Accept counts (exact below 2) and first accepted source row, one tile of rows.

    Source rows are scored in blocks that start at _FIRST_BLOCK_ROWS and
    double while the score and one-hot blocks fit the budget; a row leaves
    the scan once it has two accepts, and the scan ends when none is left.
    """
    eps = params.epsilon
    n, k = d1.total_columns, params.p_x.size
    budget = _SCAN_BLOCK_ENTRIES
    lp_x = _safe_log2(params.p_x.probs)

    obs, s_const, table = _observed_side_stats(d2, counts, rows, params)
    # a row outside the observed-side window never accepts: it is never live
    live = np.flatnonzero(np.abs(-obs / n - params.h_observed) < eps)
    accepts = np.zeros(len(rows), dtype=np.int64)
    candidate = np.full(len(rows), -1, dtype=np.int64)
    live_table = table[live]
    block = _FIRST_BLOCK_ROWS
    lo = 0
    while lo < d1.m and live.size:
        block = min(block, max(1, budget // max(live.size, n * k)))
        hi = min(d1.m, lo + block)
        x_blk = d1.entries[lo:hi]
        src_terms = lp_x[x_blk].sum(axis=1)
        src_ok = np.abs(-src_terms / n - params.h_source) < eps
        joint = live_table @ _one_hot(x_blk, k).T
        # the window test, in place: |-joint / n - h_joint| < eps
        joint += s_const + src_terms
        np.negative(joint, out=joint)
        joint /= n
        joint -= params.h_joint
        np.abs(joint, out=joint)
        ok = joint < eps
        del joint  # free the score block before the next one is allocated
        ok &= src_ok
        blk_counts = np.count_nonzero(ok, axis=1)
        first = np.argmax(ok, axis=1)
        newly = (accepts[live] == 0) & (blk_counts > 0)
        candidate[live[newly]] = lo + first[newly]
        accepts[live] += blk_counts
        still = accepts[live] < 2
        if not still.all():
            live, live_table = live[still], live_table[still]
        lo = hi
        block *= 2
    return accepts, candidate


def match_all(
    d1: Database,
    d2: Database,
    s_hat: RepetitionPattern,
    params: TypicalityParams,
    match_rows: np.ndarray | None = None,
) -> MatchReport:
    """Match rows of the view d2, cut into cells by the count estimate
    s_hat, to source rows of d1 by unique joint typicality.

    A row is matched when exactly one source row is typical with it,
    ambiguous when several are, and unmatched when none is.  match_rows
    restricts the scan to a subset of shuffled rows (the per-row outcome
    law is unchanged; this is the uniformly-drawn-row error estimator).

    Rows are scanned in tiles whose cell table fits the _SCAN_BLOCK_ENTRIES
    budget.  Neither tile nor block size changes an outcome: accepts are
    read only as 0, 1 or more, and a matched row's candidate is the first
    accepted source row.
    """
    if s_hat.n != d1.total_columns:
        raise ValidationError("source and count estimate disagree on column count")
    if s_hat.total_columns != d2.total_columns:
        raise ArityMismatch(
            f"counts sum to {s_hat.total_columns} but the view has {d2.total_columns} columns"
        )
    if match_rows is None:
        rows = np.arange(d2.m)
    else:
        rows = np.asarray(match_rows, dtype=np.int64)
        if rows.size and not (0 <= rows.min() and rows.max() < d2.m):
            raise ValidationError(f"match rows must lie in 0..{d2.m - 1}")
    tile = max(1, _SCAN_BLOCK_ENTRIES // max(1, s_hat.n * params.p_x.size))
    accepts = np.zeros(len(rows), dtype=np.int64)
    candidate = np.full(len(rows), -1, dtype=np.int64)
    for lo in range(0, len(rows), tile):
        accepts[lo : lo + tile], candidate[lo : lo + tile] = _scan_tile(
            d1, d2, s_hat.counts, params, rows[lo : lo + tile]
        )
    return MatchReport(rows, np.minimum(accepts, 2).astype(np.int8), candidate)


def evaluate(report: MatchReport, labeling: Labeling) -> MatchReport:
    """Score a report against the hidden row permutation.

    A matched row is correct when its candidate source row maps to it
    under the true labeling; a scored report is scored again.  error_rate
    is the fraction of evaluated rows not OUTCOME_CORRECT, the
    uniformly-drawn-row estimator.
    """
    matched = np.flatnonzero(~np.isin(report.outcomes, (OUTCOME_NONE, OUTCOME_AMBIGUOUS)))
    correct = labeling.perm[report.candidate[matched]] == report.matched_rows[matched]
    outcomes = report.outcomes.copy()
    outcomes[matched] = np.where(correct, OUTCOME_CORRECT, OUTCOME_WRONG)
    rows = len(outcomes)
    wrong = rows - int(np.count_nonzero(correct))
    return replace(report, outcomes=outcomes, error_rate=wrong / rows if rows else 0.0)
