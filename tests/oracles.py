"""Slow, independent reference implementations that the fast library paths
are pinned against; shared by the unit and acceptance tests."""

import itertools
import math

from dbmatch.matcher import TripleLaw


def psi_profile(p_x, ch):
    """Per-output-symbol squared deviation of the channel rows from the
    output marginal: nonnegative, and its sum equals p0 - p1."""
    p_y = p_x.probs @ ch.rows
    dev = ch.rows - p_y[None, :]
    return (p_x.probs[:, None] * dev * dev).sum(axis=0)


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


def naive_accept_set(x_rows, y_row, counts, p_x, ch, p_s, eps):
    """Independent re-implementation of the three window conditions."""
    law = TripleLaw.from_components(p_x, ch, p_s)
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
            abs(-src / n - law.h_source) < eps
            and abs(-obs / n - law.h_observed) < eps
            and abs(-joint / n - law.h_joint) < eps
        ):
            accepted.append(i)
    return accepted
