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

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import MemoryCapExceeded, ValidationError
from .probability import ByValue, Channel, Pmf, _read_only

DEFAULT_ENTRY_CAP = 2_000_000_000
# entries per block of the noisy view, which also draws every source that
# is not uniform over 2**j >= 2 symbols; the block size is part of the
# draw contract of both.  A block's buffers, at most 10 bytes per entry
# besides its source rows, stay in a core's L2 cache.
_NOISE_BLOCK_ENTRIES = 1 << 16
# rows per slice in which a labeling writes its inverse
_INVERSE_SLICE = 1 << 16


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


@dataclass(frozen=True, eq=False)
class Database:
    """A read-only m x columns symbol matrix: the source, or the shuffled
    noisy repeated view stored flat with no run markers.  Like Labeling and
    SeedBatch, it holds data and compares by identity, never by value."""

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


@dataclass(frozen=True, eq=False)
class RepetitionPattern(ByValue):
    """Repetition count of each source column; equal and hashed by value."""

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


@dataclass(frozen=True, eq=False)
class Labeling:
    """Row permutation theta: source row i corresponds to shuffled row theta[i]."""

    perm: np.ndarray

    def __post_init__(self) -> None:
        arr = _read_only(self.perm, np.int64)
        message = "labeling must be a permutation of 0..m-1"
        if arr.ndim != 1 or arr.size < 1 or arr.min() < 0 or arr.max() >= arr.size:
            raise ValidationError(message)
        # entries lie in 0..m-1, so a repeated one leaves some slot unfilled;
        # the inverse is written a slice at a time, so its row index stays
        # small beside the 16 bytes per row that the two arrays hold
        inv = np.full(arr.size, -1, dtype=np.int64)
        for lo in range(0, arr.size, _INVERSE_SLICE):
            hi = min(arr.size, lo + _INVERSE_SLICE)
            inv[arr[lo:hi]] = np.arange(lo, hi)
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


@dataclass(frozen=True, eq=False)
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


def _word_source(rng: np.random.Generator) -> Callable[[int], np.ndarray]:
    """draw(count) gives count fresh 64-bit words from rng; every source
    symbol and noisy-view entry this module draws reads them.

    Word contract: a word is one next_uint64 of rng's bit generator, as
    rng.integers(0, 2**64, dtype=np.uint64) takes it, and a reader that
    takes bytes takes them low byte first (_word_bytes).  PCG64's raw
    outputs are these words, so random_raw takes them without integers'
    4 us per call, and like integers it leaves a buffered 32-bit half in
    place; a 32-bit generator's raw outputs leave the upper half of each
    word zero, so every other bit generator goes through integers."""
    if type(rng.bit_generator) is np.random.PCG64:
        return rng.bit_generator.random_raw
    return functools.partial(rng.integers, 0, 2**64, dtype=np.uint64)


def _word_bytes(draw: Callable[[int], np.ndarray], size: int) -> np.ndarray:
    """The first size bytes of ceil(size / 8) fresh words, writable."""
    # the low byte of each word comes first whatever the machine's byte order
    return draw(-(-size // 8)).astype("<u8", copy=False).view(np.uint8)[:size]


def _sample_symbols(p: Pmf, shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """I.i.d. symbols from p, uint8 output.

    Draw contract: a uniform p over 2**j >= 2 symbols takes the top j bits
    of each byte of _word_source's words, low byte first, eight entries
    per word.  Every other p, a one-symbol alphabet included (it draws
    nothing), is the noisy view of a constant symbol through a channel
    whose every row is p, so it keeps _noisy_repeat's draw contract."""
    if p.size > 256:
        raise ValidationError("alphabets above 256 symbols are not supported")
    k, (m, n) = p.size, shape
    if k > 1 and not k & (k - 1) and np.all(p.probs == p.probs[0]):
        out = _word_bytes(_word_source(rng), m * n)
        out >>= 8 - (k.bit_length() - 1)
        return out.reshape(shape)
    # every output row reads source row 0, through a zero-stride index
    rows = np.broadcast_to(np.intp(0), (m,))
    ch = Channel(np.tile(p.probs, (k, 1)))
    return _noisy_repeat(np.zeros((1, 1), np.uint8), RepetitionPattern([n]), ch, rng, rows)


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


class _DrawTables(NamedTuple):
    """A channel's thresholds in the form _noisy_repeat's draws read them;
    T[x, c] is defined in its docstring, and every array is read-only."""

    top: np.ndarray  # k x (k - 1): min(T >> 45, 255), uint8
    rest: np.ndarray  # k x (k - 1): T - (top << 45), uint64
    # at (x << 8) | byte: how many thresholds the byte alone passes, and
    # whether the byte opens the entry
    fired: np.ndarray
    opens: np.ndarray
    # T[x, c] + x * 2**53, flat and increasing: an open entry's w + x * 2**53
    # passes x * (k - 1) entries of the other symbols before its own
    keyed: np.ndarray


@functools.lru_cache(maxsize=8)
def _draw_tables(ch: Channel) -> _DrawTables:
    """Memoized: the tables depend on the channel's value alone, and
    building them (about 25 us) would cost as much as a 256-row view."""
    k = ch.size
    # w < 2**53 never reaches a threshold at 2**53 or above (a cdf prefix
    # may round above 1), so capping T there changes no output
    t = np.cumsum(ch.rows, axis=1)[:, :-1]
    thresholds = np.minimum(np.ceil(t * 2.0**53), 2.0**53).astype(np.int64)
    top = np.minimum(thresholds >> 45, 255)
    symbol = np.arange(k)[:, None]
    hits = np.bincount((symbol * 256 + top).ravel(), minlength=k * 256).reshape(k, 256)
    return _DrawTables(
        *map(
            _read_only,
            (
                top.astype(np.uint8),
                (thresholds - (top << 45)).astype(np.uint64),
                (np.cumsum(hits, axis=1) - hits).astype(np.uint8).ravel(),
                (hits > 0).ravel(),
                (thresholds + (symbol << 53)).ravel(),
            ),
        )
    )


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

    Draw contract, for every alphabet and for the non-uniform source
    sampler too (a source is the view of a constant symbol).  An entry
    with source symbol x is y = #{c : w >= T[x, c]}, where w is a uniform
    53-bit integer and T[x, c] = ceil(t * 2**53) for the cumulative sum
    t = P(Y <= c | X = x), c < k - 1.  That is the law of
    searchsorted(cdf, u, side="right") for a float64 uniform u.  w is
    drawn a byte first:
    - Words come from _word_source, which states their contract.
    - The output is walked in blocks of max(1, 2**16 // K) rows, K being
      its column count.  A block of r rows first takes ceil(r * K / 8)
      words and gives its entries, in row-major order, one byte each, low
      byte first.  The byte is w's top 8 bits.
    - An entry is open where its byte equals the top byte
      min(T[x, c] >> 45, 255) of one of its thresholds.  Elsewhere the
      byte alone settles every comparison.  Each open entry of the block,
      in row-major order, then takes one more word, whose top 45 bits
      are w's low bits.
    - A one-symbol channel draws nothing.
    """
    if ch.size > 256:
        raise ValidationError("alphabets above 256 symbols are not supported")
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
    # an unsigned source, as the samplers draw, cannot hold a negative symbol
    if source.dtype.kind != "u" and int(source.min()) < 0:
        raise ValidationError("source symbols must be nonnegative")
    if k == 1:
        out.fill(0)
        return out
    # symbols lie below the alphabet size, so they fit the output's type
    source = source.astype(np.uint8, copy=False)
    col_of = np.repeat(np.arange(pattern.n), pattern.counts)
    tables = _draw_tables(ch)
    draw = _word_source(rng)
    block = min(m, max(1, _NOISE_BLOCK_ENTRIES // k_total))
    src = np.empty((block, pattern.n), dtype=np.uint8)
    opened = np.empty(block * k_total, dtype=bool)
    if k == 2:
        # symbol x's top byte is top0 + x * step, mod 256; an open entry's
        # byte equals it, so w >= T[x, 0] reads as low bits >= rest[x].
        # Byte compares skip the tables' 8-byte index per entry, which
        # makes this path about twice as fast as theirs on a binary view.
        top0, top1 = tables.top[:, 0].tolist()
        step = (top1 - top0) % 256
        rest = tables.rest[:, 0]
        cut = np.empty(block * k_total, dtype=np.uint8)
    else:
        code = np.empty(block * k_total, dtype=np.intp)
    for lo in range(0, m, block):
        hi = min(m, lo + block)
        size = (hi - lo) * k_total
        first = _word_bytes(draw, size)
        # mode="wrap" skips take's buffered bounds check: rows and col_of
        # index the source, and symbols were checked against the alphabet
        source.take(rows[lo:hi], axis=0, out=src[: hi - lo], mode="wrap")
        y = out[lo:hi]
        src[: hi - lo].take(col_of, axis=1, out=y, mode="wrap")
        flat = y.reshape(-1)
        is_open = opened[:size]
        if k == 2:
            c = cut[:size]
            np.multiply(flat, step, out=c)
            c += top0
            np.equal(first, c, out=is_open)
            at = is_open.nonzero()[0]
            x = flat[at]
            np.greater(first, c, out=flat.view(np.bool_))
            flat[at] = (draw(at.size) >> 19) >= rest[x]
        else:
            # the tables read (x << 8) | byte, and an open entry searches
            # every symbol's thresholds for w + x * 2**53
            xb = code[:size]
            np.left_shift(flat, 8, out=xb, dtype=np.intp)
            xb |= first
            tables.fired.take(xb, out=flat, mode="wrap")
            tables.opens.take(xb, out=is_open, mode="wrap")
            at = is_open.nonzero()[0]
            xb_open = xb[at]
            w = (xb_open << 45) | (draw(at.size) >> 19).view(np.int64)
            flat[at] = np.searchsorted(tables.keyed, w, side="right") - (xb_open >> 8) * (k - 1)
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
