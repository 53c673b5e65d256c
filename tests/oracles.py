"""Slow, independent reference implementations that the fast library paths
are pinned against; shared by the unit and acceptance tests."""

import itertools
import math

import numpy as np

from dbmatch.matcher import TypicalityParams
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
    """One-shot inverse-cdf sampling: every float64 uniform drawn at once,
    then counted against the cdf; uint8 output."""
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(shape), side="right").astype(np.uint8)


def naive_uniform_symbols(k, shape, rng):
    """Uniform symbols on 0..k-1 from one Generator.integers call; uint8 output."""
    return rng.integers(0, k, size=shape, dtype=np.uint8)


def naive_noisy_view(source, rows, counts, ch, rng):
    """Slow oracle for the noisy view: one rng.random((m, K)) draw, then
    each entry is searchsorted(cdf[x], u, side="right") for its source
    symbol x, with output row i taken from source row rows[i]."""
    x = source[rows][:, np.repeat(np.arange(len(counts)), counts)]
    cdf = np.cumsum(ch.rows, axis=1)
    cdf[:, -1] = 1.0
    u = rng.random(x.shape)
    out = np.zeros(x.shape, dtype=np.uint8)
    for a in range(ch.size):
        hit = x == a
        out[hit] = np.searchsorted(cdf[a], u[hit], side="right")
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
