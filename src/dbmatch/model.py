"""Generative model: source database, repetition pattern, row shuffle,
noisy repeated view, and seed rows, with ground truth kept for scoring.

The source and the attacker-visible view are both a Database; the view
stores its columns flat, and its run boundaries and row permutation live
only in the RepetitionPattern and Labeling that produced it.  A seed (a 64-bit
integer or a trial's SeedSequence) expands into six named substreams, one
per random choice of a trial, so that every artifact of a trial is
reproducible within this implementation.

All returned objects are immutable after construction and safe to share
across threads; generation itself draws from the caller's Generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MemoryCapExceeded, ValidationError
from .probability import Channel, Pmf

DEFAULT_ENTRY_CAP = 2_000_000_000
# entries per tile of the noisy view: each float64 tile buffer is 256 KiB,
# so the buffers of one tile stay in a core's L2 cache
_NOISE_TILE_ENTRIES = 1 << 15


class Substreams(NamedTuple):
    """Named independent generators derived from one seed: the source
    database, the repetition pattern, the row labeling, the channel noise,
    the seed rows, and the sample of shuffled rows a trial matches."""

    database: np.random.Generator
    pattern: np.random.Generator
    labeling: np.random.Generator
    noise: np.random.Generator
    seeds: np.random.Generator
    rows: np.random.Generator


def substreams(seed: int | np.random.SeedSequence) -> Substreams:
    """Child i of the seed's SeedSequence drives field i.  The children
    are built from the sequence's entropy and spawn key, as a fresh
    sequence's spawn() builds them, without advancing its spawn counter:
    the same sequence always gives the same streams."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    children = (
        np.random.SeedSequence(
            seed.entropy, spawn_key=(*seed.spawn_key, i), pool_size=seed.pool_size
        )
        for i in range(len(Substreams._fields))
    )
    return Substreams(*map(np.random.default_rng, children))


def trial_seed_sequence(master_seed: int, *indices: int) -> np.random.SeedSequence:
    """Deterministic per-trial entropy keyed by (master seed, index...)."""
    return np.random.SeedSequence(entropy=[master_seed, *indices])


def _read_only(values, dtype=None) -> np.ndarray:
    """A read-only view of values as an array.  The caller's array stays
    writable (the view sees its later writes), and no entry is copied
    unless dtype asks for a conversion."""
    arr = np.asarray(values, dtype=dtype).view()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Database:
    """A read-only m x columns symbol matrix: the source, or the shuffled
    noisy repeated view stored flat with no run markers."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = _read_only(self.entries)
        if entries.ndim != 2:
            raise ValidationError("database entries must be a 2-d matrix")
        object.__setattr__(self, "entries", entries)

    @property
    def m(self) -> int:
        return int(self.entries.shape[0])

    @property
    def total_columns(self) -> int:
        return int(self.entries.shape[1])


@dataclass(frozen=True)
class RepetitionPattern:
    counts: np.ndarray  # length n, nonnegative

    def __post_init__(self) -> None:
        arr = _read_only(self.counts, np.int64)
        if arr.ndim != 1 or np.any(arr < 0):
            raise ValidationError("pattern counts must be a 1-d nonnegative vector")
        object.__setattr__(self, "counts", arr)

    @property
    def n(self) -> int:
        return int(self.counts.shape[0])

    @property
    def total_columns(self) -> int:
        return int(self.counts.sum())

    @property
    def deleted_indices(self) -> np.ndarray:
        return np.flatnonzero(self.counts == 0)


@dataclass(frozen=True)
class Labeling:
    """Row permutation theta: source row i corresponds to shuffled row theta[i]."""

    perm: np.ndarray

    def __post_init__(self) -> None:
        arr = _read_only(self.perm, np.int64)
        if arr.ndim != 1 or arr.size < 1 or arr.min() < 0 or np.any(np.bincount(arr) != 1):
            raise ValidationError("labeling must be a permutation of 0..m-1")
        object.__setattr__(self, "perm", arr)
        inv = np.empty_like(arr)
        inv[arr] = np.arange(arr.size)
        object.__setattr__(self, "_inverse", _read_only(inv))

    @property
    def m(self) -> int:
        return int(self.perm.shape[0])

    @property
    def inverse(self) -> np.ndarray:
        return self._inverse  # type: ignore[attr-defined]


@dataclass(frozen=True)
class SeedBatch:
    """Aligned row pairs sharing the main pair's repetition pattern."""

    g1: np.ndarray  # B x n
    g2: np.ndarray  # B x K

    def __post_init__(self) -> None:
        g1, g2 = _read_only(self.g1), _read_only(self.g2)
        if g1.shape[0] != g2.shape[0]:
            raise ValidationError("seed halves must have the same row count")
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)

    @property
    def size(self) -> int:
        return int(self.g1.shape[0])


def _check_entry_budget(rows: int, cols: int, cap: int) -> None:
    if rows < 0 or cols < 0:
        raise ValidationError("matrix dimensions must be nonnegative")
    if rows * cols > cap:
        raise MemoryCapExceeded(
            f"{rows} x {cols} entries exceed the configured cap of {cap}"
        )


def _sample_symbols(p: Pmf, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Inverse-cdf sampling; one uniform draw per entry, uint8 output."""
    if p.size > 256:
        raise ValidationError("alphabets above 256 symbols are not supported")
    if np.all(p.probs == p.probs[0]):
        return rng.integers(0, p.size, size=shape, dtype=np.uint8)
    cdf = np.cumsum(p.probs)
    cdf[-1] = 1.0
    u = rng.random(shape)
    return np.searchsorted(cdf, u, side="right").astype(np.uint8)


def generate_unlabeled(
    m: int, n: int, p_x: Pmf, rng: np.random.Generator, entry_cap: int = DEFAULT_ENTRY_CAP
) -> Database:
    """m x n matrix of i.i.d. source symbols."""
    if m < 1 or n < 1:
        raise ValidationError("database dimensions must be positive")
    _check_entry_budget(m, n, entry_cap)
    return Database(_sample_symbols(p_x, (m, n), rng))


def sample_pattern(n: int, p_s: Pmf, rng: np.random.Generator) -> RepetitionPattern:
    """n i.i.d. repetition counts from p_s, supported on 0..s_max."""
    if n < 1:
        raise ValidationError("pattern length must be positive")
    cdf = np.cumsum(p_s.probs)
    cdf[-1] = 1.0
    counts = np.searchsorted(cdf, rng.random(n), side="right").astype(np.int64)
    return RepetitionPattern(counts)


def sample_labeling(m: int, rng: np.random.Generator) -> Labeling:
    if m < 1:
        raise ValidationError("row count must be positive")
    return Labeling(rng.permutation(m))


def _noisy_repeat(
    source: np.ndarray,
    pattern: RepetitionPattern,
    ch: Channel,
    rng: np.random.Generator,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Repeat columns per the pattern, pass every entry through the channel.

    Output row i derives from source row rows[i] (source row i when rows
    is None).  Reproducibility contract: one float64 uniform per output
    entry, drawn row-major over the output, mapped through the inverse cdf
    of the channel row of its source symbol (the output is the number of
    cdf values at or below the draw).  A float64 uniform takes one 64-bit
    draw, so the output and the generator's final state do not depend on
    how the rows are tiled.  The work runs in tiles of about
    _NOISE_TILE_ENTRIES entries whose buffers are allocated once per call.
    """
    if rows is None:
        rows = np.arange(source.shape[0])
    m = rows.shape[0]
    k_total = pattern.total_columns
    out = np.empty((m, k_total), dtype=np.uint8)
    if k_total == 0 or m == 0:
        return out
    if int(source.max()) >= ch.size:
        raise ValidationError("source symbols exceed the channel alphabet")
    col_of = np.repeat(np.arange(pattern.n), pattern.counts)
    # thresholds[c][x] = P(Y <= c | X = x); the last cdf value is 1 and no
    # draw reaches it, so k-1 thresholds decide the output
    thresholds = np.ascontiguousarray(np.cumsum(ch.rows, axis=1)[:, :-1].T)
    tile = min(m, max(1, _NOISE_TILE_ENTRIES // k_total))
    src = np.empty((tile, pattern.n), dtype=source.dtype)
    x = np.empty((tile, k_total), dtype=np.intp)
    u = np.empty((tile, k_total))
    t = np.empty((tile, k_total))
    hit = np.empty((tile, k_total), dtype=bool)
    for lo in range(0, m, tile):
        hi = min(m, lo + tile)
        r = hi - lo
        source.take(rows[lo:hi], axis=0, out=src[:r])
        x[:r] = src[:r, col_of]
        rng.random(out=u[:r])
        y = out[lo:hi]
        if thresholds.shape[0] == 0:
            y.fill(0)
            continue
        # mode="wrap" skips take's buffered bounds check; symbols were
        # checked against the alphabet above
        thresholds[0].take(x[:r], out=t[:r], mode="wrap")
        np.greater_equal(u[:r], t[:r], out=y.view(np.bool_))
        for c in range(1, thresholds.shape[0]):
            thresholds[c].take(x[:r], out=t[:r], mode="wrap")
            np.greater_equal(u[:r], t[:r], out=hit[:r])
            y += hit[:r]
    return out


def apply_repetition_noise(
    d1: Database,
    pattern: RepetitionPattern,
    labeling: Labeling,
    ch: Channel,
    rng: np.random.Generator,
    entry_cap: int = DEFAULT_ENTRY_CAP,
) -> Database:
    """Produce the shuffled noisy repeated view of d1.

    Row i of the output derives from row inverse(i) of d1; column j of d1
    contributes counts[j] output columns, each entry independently noised.
    Deleted columns contribute nothing, so the output is m x sum(counts),
    which must fit the entry budget.
    """
    if pattern.n != d1.total_columns or labeling.m != d1.m:
        raise ValidationError("pattern/labeling dimensions inconsistent with database")
    _check_entry_budget(d1.m, pattern.total_columns, entry_cap)
    return Database(_noisy_repeat(d1.entries, pattern, ch, rng, rows=labeling.inverse))


def generate_seeds(
    b: int,
    n: int,
    p_x: Pmf,
    pattern: RepetitionPattern,
    ch: Channel,
    rng: np.random.Generator,
    entry_cap: int = DEFAULT_ENTRY_CAP,
) -> SeedBatch:
    """B fresh aligned row pairs through the same pattern and channel; the
    B x n and B x sum(counts) halves must each fit the entry budget."""
    if b < 0:
        raise ValidationError("seed count must be nonnegative")
    if pattern.n != n:
        raise ValidationError("pattern length inconsistent with column count")
    _check_entry_budget(b, n, entry_cap)
    _check_entry_budget(b, pattern.total_columns, entry_cap)
    g1 = _sample_symbols(p_x, (b, n), rng)
    g2 = _noisy_repeat(g1, pattern, ch, rng)
    return SeedBatch(g1, g2)
