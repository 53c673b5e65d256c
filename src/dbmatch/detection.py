"""Repetition-pattern recovery from the attacker's view.

Stage 1 groups consecutive columns of the shuffled view into replica runs
by thresholding their Hamming distances.  Stage 2 locates deleted columns
by a minimum-Hamming search over deletion sets, comparing remapped seed
rows against the source-side seeds; a deletions-only alignment dynamic
program solves it exactly in O(n * k_tilde).  The two stages combine into
a per-column count estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, RunMismatch, ValidationError
from .model import LabeledDatabase, RepetitionPattern
from .probability import SymbolMap

# marks alignment cells with fewer source columns left than noisy ones;
# adding up to n * b mismatches to it cannot overflow int64
_INFEASIBLE = np.int64(2**62)


@dataclass(frozen=True)
class RunStructure:
    """Maximal detected replica groups as half-open column intervals."""

    runs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pos = 0
        for start, stop in self.runs:
            if start != pos or stop <= start:
                raise ValidationError("runs must be contiguous, ordered and nonempty")
            pos = stop

    @property
    def k_tilde(self) -> int:
        return len(self.runs)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(stop - start for start, stop in self.runs)

    @property
    def first_columns(self) -> tuple[int, ...]:
        return tuple(start for start, _ in self.runs)


@dataclass(frozen=True)
class DeletionEstimate:
    """Sorted estimated deleted source-column indices plus the achieved distance."""

    indices: tuple[int, ...]
    min_distance: int = 0

    def __post_init__(self) -> None:
        if list(self.indices) != sorted(set(self.indices)):
            raise ValidationError("deletion indices must be sorted and unique")


def consecutive_hamming(d2: LabeledDatabase) -> np.ndarray:
    """Hamming distance between each adjacent column pair of the view."""
    e = d2.entries
    if e.shape[1] <= 1:
        return np.zeros(0, dtype=np.int64)
    return (e[:, 1:] != e[:, :-1]).sum(axis=0).astype(np.int64)


def detect_replicas(d2: LabeledDatabase, tau: float) -> RunStructure:
    """Merge adjacent columns whose distance is strictly below m * tau.

    Ties at exactly m * tau split; a lone column is its own run and an
    empty view yields an empty structure.
    """
    if not 0.0 < tau < 1.0:
        raise ValidationError("tau must lie strictly inside (0, 1)")
    k = d2.total_columns
    if k == 0:
        return RunStructure(())
    cut = d2.m * tau
    dists = consecutive_hamming(d2)
    runs: list[tuple[int, int]] = []
    start = 0
    for j, d in enumerate(dists):
        if not d < cut:
            runs.append((start, j + 1))
            start = j + 1
    runs.append((start, k))
    return RunStructure(tuple(runs))


def true_runs(pattern: RepetitionPattern) -> RunStructure:
    """Ground-truth run structure implied by a repetition pattern."""
    runs = []
    pos = 0
    for c in pattern.counts:
        if c > 0:
            runs.append((pos, pos + int(c)))
            pos += int(c)
    return RunStructure(tuple(runs))


def collapse_runs(mat: np.ndarray, runs: RunStructure) -> np.ndarray:
    """Keep the first column of each run, preserving run order."""
    if mat.ndim != 2:
        raise ValidationError("expected a 2-d matrix")
    if runs.k_tilde and (runs.runs[-1][1] != mat.shape[1]):
        raise ValidationError("run structure inconsistent with column count")
    return mat[:, list(runs.first_columns)]


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
    g2s = sigma.apply(g2_collapsed)
    # mismatch[a, j]: rows where source column a differs from noisy column j
    mismatch = (g1[:, :, None] != g2s[:, None, :]).sum(axis=0).astype(np.int64)

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
    deleted = set(dels.indices)
    counts = np.zeros(n, dtype=np.int64)
    lengths = iter(runs.lengths)
    for j in range(n):
        if j not in deleted:
            counts[j] = next(lengths)
    return RepetitionPattern(counts)

