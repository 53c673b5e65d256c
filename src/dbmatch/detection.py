"""Repetition-pattern recovery from the attacker's view.

Stage 1 groups consecutive columns of the shuffled view into replica runs
by thresholding their Hamming distances; a RunStructure holds the run
lengths in column order, so run i starts at the sum of the lengths before
it.  Stage 2 locates deleted columns by a minimum-Hamming search over
deletion sets, comparing remapped seed rows against the source-side seeds;
a deletions-only alignment dynamic program solves it exactly in
O(n * k_tilde).  The two stages combine into a per-column count estimate:
the run lengths written, in order, into the columns not estimated deleted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, RunMismatch, ValidationError
from .model import Database, RepetitionPattern
from .probability import SymbolMap

# marks alignment cells with fewer source columns left than noisy ones;
# adding up to n * b mismatches to it cannot overflow int64
_INFEASIBLE = np.int64(2**62)
# entries per row tile of the adjacent-column comparison: the bool tile
# and its uint16 accumulator take 768 KiB together, whatever the view's size
_HAMMING_TILE_ENTRIES = 1 << 18
# tiles a uint16 accumulator of 0/1 entries can add before it may wrap
_HAMMING_FOLD_TILES = int(np.iinfo(np.uint16).max)


@dataclass(frozen=True)
class RunStructure:
    """Lengths of the maximal detected replica runs, in column order."""

    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if min(self.lengths, default=1) < 1:
            raise ValidationError("run lengths must be at least 1")

    @property
    def k_tilde(self) -> int:
        return len(self.lengths)


@dataclass(frozen=True)
class DeletionEstimate:
    """Sorted estimated deleted source-column indices plus the achieved distance."""

    indices: tuple[int, ...]
    min_distance: int = 0

    def __post_init__(self) -> None:
        if list(self.indices) != sorted(set(self.indices)):
            raise ValidationError("deletion indices must be sorted and unique")


def consecutive_hamming(d2: Database) -> np.ndarray:
    """Hamming distance between each adjacent column pair of the view,
    counted in row tiles of about _HAMMING_TILE_ENTRIES entries."""
    e = d2.entries
    m, k = e.shape
    if k <= 1:
        return np.zeros(0, dtype=np.int64)
    # row tiles add their mismatches into a uint16 accumulator, folded into
    # the int64 distances before it can wrap, so no m x (k - 1) temporary
    tile = max(1, min(m, _HAMMING_TILE_ENTRIES // (k - 1)))
    dist = np.zeros(k - 1, dtype=np.int64)
    hit = np.empty((tile, k - 1), dtype=bool)
    acc = np.zeros((tile, k - 1), dtype=np.uint16)
    for i, lo in enumerate(range(0, m, tile)):
        hi = min(m, lo + tile)
        r = hi - lo
        np.not_equal(e[lo:hi, 1:], e[lo:hi, :-1], out=hit[:r])
        acc[:r] += hit[:r]
        if (i + 1) % _HAMMING_FOLD_TILES == 0:
            dist += acc.sum(axis=0, dtype=np.int64)
            acc.fill(0)
    dist += acc.sum(axis=0, dtype=np.int64)
    return dist


def detect_replicas(d2: Database, tau: float) -> RunStructure:
    """Merge adjacent columns whose distance is strictly below m * tau.

    Ties at exactly m * tau split; a lone column is its own run and an
    empty view yields an empty structure.
    """
    if not 0.0 < tau < 1.0:
        raise ValidationError("tau must lie strictly inside (0, 1)")
    k = d2.total_columns
    if k == 0:
        return RunStructure(())
    # a run starts at column j + 1 where its distance from column j reaches m * tau
    cuts = np.flatnonzero(consecutive_hamming(d2) >= d2.m * tau) + 1
    return RunStructure(tuple(np.diff(cuts, prepend=0, append=k).tolist()))


def true_runs(pattern: RepetitionPattern) -> RunStructure:
    """Ground-truth run structure implied by a repetition pattern."""
    return RunStructure(tuple(pattern.counts[pattern.counts > 0].tolist()))


def collapse_runs(mat: np.ndarray, runs: RunStructure) -> np.ndarray:
    """Keep the first column of each run, preserving run order."""
    if mat.ndim != 2:
        raise ValidationError("expected a 2-d matrix")
    lengths = np.array(runs.lengths, dtype=np.int64)
    if lengths.sum() != mat.shape[1]:
        raise ValidationError("run structure inconsistent with column count")
    return mat[:, np.cumsum(lengths) - lengths]


def detect_deletions(
    g1: np.ndarray,
    g2_collapsed: np.ndarray,
    sigma: SymbolMap,
) -> DeletionEstimate:
    """Minimum-Hamming deletion search over the seed rows.

    The remapping is applied to the collapsed noisy side, then every
    deletion set of the forced size is scored by the total mismatch count
    between the surviving source columns and the noisy columns, position
    by position.  The first set achieving the minimum in lexicographic
    order wins.  Zero seed rows make every distance zero, so the
    lexicographically smallest set is returned.

    The score is a sum over an order-preserving alignment of kept source
    columns to noisy columns, so the deletions-only edit-distance
    recurrence best[a, j] = min(best[a+1, j], mismatch[a, j] + best[a+1, j+1])
    gives the minimum exactly.  Reading it back from column 0 and deleting
    whenever deletion stays optimal yields the lexicographically first set.
    """
    if g1.ndim != 2 or g2_collapsed.ndim != 2:
        raise ValidationError("seed matrices must be 2-d")
    if g1.shape[0] != g2_collapsed.shape[0]:
        raise ValidationError("seed halves must have equal row counts")
    n = g1.shape[1]
    k_tilde = g2_collapsed.shape[1]
    if k_tilde > n:
        raise RunMismatch(f"{k_tilde} runs exceed the {n} source columns")
    if g1.shape[0] == 0:
        # every set scores zero, and the first n - k_tilde columns come first
        return DeletionEstimate(tuple(range(n - k_tilde)), 0)
    g2s = sigma.apply(g2_collapsed)
    # mismatch[a, j]: rows where source column a differs from noisy column j,
    # b minus the rows where they agree, summed symbol by symbol
    agree = np.zeros((n, k_tilde))
    for sym in range(sigma.size):
        agree += (g1 == sym).T.astype(float) @ (g2s == sym).astype(float)
    mismatch = g1.shape[0] - agree.astype(np.int64)

    # best[a, j]: least mismatch aligning source columns a.. onto noisy j..
    best = np.empty((n + 1, k_tilde + 1), dtype=np.int64)
    best[n, :k_tilde] = _INFEASIBLE
    best[:, k_tilde] = 0
    for a in range(n - 1, -1, -1):
        np.minimum(best[a + 1, :k_tilde], mismatch[a] + best[a + 1, 1:], out=best[a, :k_tilde])

    deleted: list[int] = []
    j = 0
    for a in range(n):
        if j == k_tilde or best[a + 1, j] == best[a, j]:
            deleted.append(a)
        else:
            j += 1
    return DeletionEstimate(tuple(deleted), int(best[0, 0]))


def assemble_pattern(runs: RunStructure, dels: DeletionEstimate, n: int) -> RepetitionPattern:
    """Interleave run lengths and deletions into per-column count estimates."""
    if runs.k_tilde + len(dels.indices) != n:
        raise ArityMismatch(
            f"{runs.k_tilde} runs + {len(dels.indices)} deletions != {n} columns"
        )
    if dels.indices and not (0 <= dels.indices[0] and dels.indices[-1] < n):
        raise ValidationError(f"deletion indices must lie in 0..{n - 1}")
    kept = np.ones(n, dtype=bool)
    kept[list(dels.indices)] = False
    counts = np.zeros(n, dtype=np.int64)
    counts[kept] = runs.lengths
    return RepetitionPattern(counts)
