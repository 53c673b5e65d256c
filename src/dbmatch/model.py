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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MemoryCapExceeded, ValidationError
from .probability import Channel, Pmf

DEFAULT_ENTRY_CAP = 2_000_000_000
# entries per tile of the noisy view and of non-uniform source sampling:
# each float64 tile buffer is 256 KiB, so a tile's buffers stay in a
# core's L2 cache
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
        message = "labeling must be a permutation of 0..m-1"
        if arr.ndim != 1 or arr.size < 1 or arr.min() < 0 or arr.max() >= arr.size:
            raise ValidationError(message)
        # entries lie in 0..m-1, so a repeated one leaves some slot unfilled
        inv = np.full(arr.size, -1, dtype=np.int64)
        inv[arr] = np.arange(arr.size)
        if inv.min() < 0:
            raise ValidationError(message)
        object.__setattr__(self, "perm", arr)
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


def _uniform_symbols(k: int, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Uniform symbols on 0..k-1, equal bit for bit, with an equal final
    generator state, to rng.integers(0, k, size=shape, dtype=np.uint8).

    For k = 2**j that method takes one byte of a 32-bit draw per entry, low
    byte first, and keeps its top j bits, never rejecting; drawing the
    words at once and shifting their bytes in place does the same work
    without the per-entry loop.  Other k, and k = 1, which draws nothing,
    call that method."""
    if k == 1 or k & (k - 1):
        return rng.integers(0, k, size=shape, dtype=np.uint8)
    size = math.prod(shape)
    words = rng.integers(0, 2**32, size=-(-size // 4), dtype=np.uint32)
    # the low byte of each word comes first whatever the machine's byte order
    out = words.astype("<u4", copy=False).view(np.uint8)[:size]
    out >>= 8 - (k.bit_length() - 1)
    return out.reshape(shape)


def _sample_symbols(p: Pmf, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """I.i.d. symbols from p, uint8 output.

    Draw contract: a uniform p over 2**j symbols takes the top j bits of
    each byte of consecutive 32-bit draws, low byte first, four entries
    per draw; this equals Generator.integers(0, 2**j, dtype=np.uint8) on
    numpy 2.4.6.  Other uniform alphabets call Generator.integers, and a
    one-symbol alphabet draws nothing.  A non-uniform p is sampled by
    inverse cdf, one float64 uniform per entry, drawn in row-major tiles
    of _NOISE_TILE_ENTRIES so that no temporary grows with the output."""
    if p.size > 256:
        raise ValidationError("alphabets above 256 symbols are not supported")
    if np.all(p.probs == p.probs[0]):
        return _uniform_symbols(p.size, shape, rng)
    cdf = np.cumsum(p.probs)
    cdf[-1] = 1.0
    out = np.empty(shape, dtype=np.uint8)
    flat = out.reshape(-1)
    # row-major tiles take the draws one-shot sampling would take, in order
    u = np.empty(min(flat.size, _NOISE_TILE_ENTRIES))
    for lo in range(0, flat.size, _NOISE_TILE_ENTRIES):
        hi = min(flat.size, lo + _NOISE_TILE_ENTRIES)
        rng.random(out=u[: hi - lo])
        flat[lo:hi] = np.searchsorted(cdf, u[: hi - lo], side="right")
    return out


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
    is None), and every entry of rows must index a source row.
    Reproducibility contract, for every alphabet: one float64 uniform per
    output entry, drawn row-major over the output, mapped through the
    inverse cdf of the channel row of its source symbol (the output is the
    number of cdf values at or below the draw).  A float64 uniform takes
    one 64-bit draw, so the output and the generator's final state do not
    depend on how the rows are tiled.  The work runs in tiles of about
    _NOISE_TILE_ENTRIES entries whose buffers are allocated once per call.
    A two-symbol channel has one threshold per source symbol, so each
    entry selects between its two comparisons instead of gathering a
    threshold per entry.
    """
    if rows is None:
        rows = np.arange(source.shape[0])
    m = rows.shape[0]
    k_total = pattern.total_columns
    out = np.empty((m, k_total), dtype=np.uint8)
    if k_total == 0 or m == 0:
        return out
    k = ch.size
    if int(source.max()) >= k:
        raise ValidationError("source symbols exceed the channel alphabet")
    # symbols lie below the alphabet size, so they fit the output's type
    source = source.astype(np.uint8, copy=False)
    col_of = np.repeat(np.arange(pattern.n), pattern.counts)
    # thresholds[c][x] = P(Y <= c | X = x); the last cdf value is 1 and no
    # draw reaches it, so k-1 thresholds decide the output
    thresholds = np.ascontiguousarray(np.cumsum(ch.rows, axis=1)[:, :-1].T)
    tile = min(m, max(1, _NOISE_TILE_ENTRIES // k_total))
    src = np.empty((tile, pattern.n), dtype=np.uint8)
    u = np.empty((tile, k_total))
    if k == 2:
        t0, t1 = thresholds[0]
        hit0 = np.empty((tile, k_total), dtype=bool)
        hit1 = np.empty((tile, k_total), dtype=bool)
    elif k > 2:
        x = np.empty((tile, k_total), dtype=np.intp)
        t = np.empty((tile, k_total))
        hit = np.empty((tile, k_total), dtype=bool)
    for lo in range(0, m, tile):
        hi = min(m, lo + tile)
        r = hi - lo
        rng.random(out=u[:r])
        y = out[lo:hi]
        if k == 1:
            y.fill(0)
            continue
        # mode="wrap" skips take's buffered bounds check: rows and col_of
        # index the source, and symbols were checked against the alphabet
        source.take(rows[lo:hi], axis=0, out=src[:r], mode="wrap")
        if k == 2:
            # y = hit0 where x is 0 and hit1 where x is 1, as
            # hit0 ^ ((hit0 ^ hit1) & x); x is 0 or 1, so it reads as bool
            yb = y.view(np.bool_)
            src[:r].take(col_of, axis=1, out=y, mode="wrap")
            np.greater_equal(u[:r], t0, out=hit0[:r])
            np.greater_equal(u[:r], t1, out=hit1[:r])
            hit1[:r] ^= hit0[:r]
            yb &= hit1[:r]
            yb ^= hit0[:r]
            continue
        x[:r] = src[:r, col_of]
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
