"""Slow, independent reference implementations that the fast library paths
are pinned against; shared by the unit and acceptance tests."""

import bisect
import itertools
import math
from fractions import Fraction

import numpy as np

from dbmatch.matcher import (
    OUTCOME_AMBIGUOUS,
    OUTCOME_MATCHED,
    OUTCOME_NONE,
    TypicalityParams,
)
from dbmatch.probability import LOG_ZERO


def psi_profile(p_x, ch):
    """Per-output-symbol squared deviation of the channel rows from the
    output marginal: nonnegative, and its sum equals p0 - p1."""
    p_y = p_x.probs @ ch.rows
    dev = ch.rows - p_y[None, :]
    return (p_x.probs[:, None] * dev * dev).sum(axis=0)


def naive_consecutive_hamming(entries):
    """Adjacent-column Hamming distances from one whole-view comparison."""
    if entries.shape[1] <= 1:
        return np.zeros(0, dtype=np.int64)
    return (entries[:, 1:] != entries[:, :-1]).sum(axis=0).astype(np.int64)


def naive_sample_symbols(probs, shape, rng):
    """Non-uniform source symbols, uint8: the byte-first draws of
    naive_noisy_view for a constant source symbol whose channel row is
    probs."""
    return _byte_first_draws(np.zeros(shape, dtype=np.int64), [list(probs)], rng)


def naive_uniform_symbols(k, shape, rng):
    """Uniform symbols on 0..k-1 from one Generator.integers call; uint8 output."""
    return rng.integers(0, k, size=shape, dtype=np.uint8)


def naive_noisy_view(source, rows, counts, ch, rng):
    """The noisy view from the byte-first draws, one entry at a time: output
    row i reads source row rows[i], and source column j is repeated
    counts[j] times."""
    x = np.asarray(source)[np.asarray(rows)][:, np.repeat(np.arange(len(counts)), counts)]
    return _byte_first_draws(x, [list(row) for row in ch.rows], rng)


def _byte_first_draws(x, channel_rows, rng):
    """Per-entry scalar loop in Python ints over uniform 64-bit words from
    rng.integers; the entry at [r, c] has source symbol x[r, c].

    Symbol x's thresholds are T = ceil(t * 2**53) for the cumulative sums t
    of its channel row, the last left out.  Blocks of max(1, 2**16 // K)
    rows each take ceil(entries / 8) words, one byte per entry, low byte
    first; an entry whose byte is the top byte min(T >> 45, 255) of one of
    its thresholds takes one more word, in row-major order after the
    block's bytes.  With w = (byte << 45) | (word >> 19), or byte << 45
    when no word is taken, the entry is #{T : w >= T}, counted by bisection
    as T is nondecreasing."""

    def words(count):
        return [int(v) for v in rng.integers(0, 2**64, size=count, dtype=np.uint64)]

    thresholds, tops = [], []
    for row in channel_rows:
        total, ts = 0.0, []
        for p in row[:-1]:
            total += float(p)
            ts.append(math.ceil(Fraction(total) * 2**53))
        thresholds.append(ts)
        tops.append({min(t >> 45, 255) for t in ts})
    m, k_total = x.shape
    xs = x.tolist()
    out = np.zeros((m, k_total), dtype=np.uint8)
    if k_total == 0 or len(channel_rows[0]) == 1:
        return out
    block = max(1, 2**16 // k_total)
    for lo in range(0, m, block):
        entries = [(r, c) for r in range(lo, min(m, lo + block)) for c in range(k_total)]
        first = words(-(-len(entries) // 8))
        for e, (r, c) in enumerate(entries):
            byte = (first[e // 8] >> (8 * (e % 8))) & 0xFF
            x_rc = xs[r][c]
            w = byte << 45
            if byte in tops[x_rc]:
                w |= words(1)[0] >> 19
            out[r, c] = bisect.bisect_right(thresholds[x_rc], w)
    return out


def naive_runs(dists, k, cut):
    """Replica runs of k columns as half-open intervals, by one pass over the
    adjacent-column distances: a distance below the cut merges, a tie splits."""
    if k == 0:
        return []
    runs = []
    start = 0
    for j, d in enumerate(dists):
        if not d < cut:
            runs.append((start, j + 1))
            start = j + 1
    runs.append((start, k))
    return runs


def naive_deletion_search(g1, g2_sigma):
    """Independent plain-enumeration reference: loops, no mismatch table."""
    n = g1.shape[1]
    d = n - g2_sigma.shape[1]
    best = None
    best_set = None
    for dels in itertools.combinations(range(n), d):
        kept = [j for j in range(n) if j not in dels]
        dist = 0
        for pos, col in enumerate(kept):
            for r in range(g1.shape[0]):
                if g1[r, col] != g2_sigma[r, pos]:
                    dist += 1
        if best is None or dist < best:
            best, best_set = dist, dels
    return best_set, best


def naive_observed_stats(y_rows, counts, p_x, ch, p_s):
    """Independent per-cell loops for the observed side: per row, the sum of
    log2 pS(s) over columns plus log2 sum_x pX(x) prod_l W(y_l | x) over
    non-erased cells, and the cell table sum_l log2 W(y_l | x) at j * k + x.
    A zero probability counts as LOG_ZERO."""

    def log2(v):
        return math.log2(v) if v > 0 else LOG_ZERO

    k, n = p_x.size, len(counts)
    obs, table = [], []
    for y_row in y_rows:
        total = 0.0
        cells = [0.0] * (n * k)
        off = 0
        for j in range(n):
            s = int(counts[j])
            cell = [int(v) for v in y_row[off : off + s]]
            off += s
            total += log2(p_s[s] if s < p_s.size else 0.0)
            if s:
                total += log2(
                    sum(p_x[x] * math.prod(ch.rows[x, y] for y in cell) for x in range(k))
                )
            for x in range(k):
                cells[j * k + x] = sum(log2(ch.rows[x, y]) for y in cell)
        obs.append(total)
        table.append(cells)
    return obs, table


def naive_accept_set(x_rows, y_row, counts, p_x, ch, p_s, eps):
    """Independent re-implementation of the three window conditions."""
    params = TypicalityParams.from_components(p_x, ch, p_s, epsilon=eps)
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
            for y in cell:
                pcell_x *= ch.rows[int(x_row[j]), y]
            pcell = sum(
                p_x[xx] * math.prod(ch.rows[xx, y] for y in cell)
                for xx in range(p_x.size)
            )
            if px <= 0 or ps <= 0 or pcell_x <= 0 or pcell <= 0:
                dead = True
                break
            src += math.log2(px)
            obs += math.log2(ps) + math.log2(pcell)
            joint += math.log2(ps) + math.log2(px) + math.log2(pcell_x)
        if not dead and (
            abs(-src / n - params.h_source) < eps
            and abs(-obs / n - params.h_observed) < eps
            and abs(-joint / n - params.h_joint) < eps
        ):
            accepted.append(i)
    return accepted


def naive_outcome(accepted):
    """A row's outcome code and candidate from its accept set: none, matched
    or ambiguous, and the first accepted source row, or -1."""
    if not accepted:
        return OUTCOME_NONE, -1
    return (OUTCOME_MATCHED if len(accepted) == 1 else OUTCOME_AMBIGUOUS), accepted[0]
