"""Generative-model behavior: laws, determinism, dimensions."""

import tracemalloc

import numpy as np
import pytest

from dbmatch import model
from dbmatch.errors import MemoryCapExceeded, ValidationError
from dbmatch.model import (
    Database,
    Labeling,
    RepetitionPattern,
    SeedBatch,
    apply_repetition_noise,
    generate_seeds,
    generate_unlabeled,
    sample_labeling,
    sample_pattern,
    substreams,
    trial_seed_sequence,
)
from dbmatch.probability import Channel, Pmf, SymbolMap, pipeline_scalars
from oracles import naive_noisy_view, naive_sample_symbols, naive_uniform_symbols


def test_point_mass_source_is_constant():
    rng = np.random.default_rng(0)
    db = generate_unlabeled(20, 7, Pmf([0, 0, 1]), rng)
    assert np.all(db.entries == 2)


def test_source_frequencies_concentrate():
    rng = np.random.default_rng(1)
    m, n = 100_000, 10
    db = generate_unlabeled(m, n, Pmf.uniform(2), rng)
    freq = db.entries.mean()
    sigma = 0.5 / np.sqrt(m * n)
    assert abs(freq - 0.5) < 3 * sigma + 1e-3


def test_generation_is_deterministic():
    a = generate_unlabeled(50, 9, Pmf.uniform(4), np.random.default_rng(33))
    b = generate_unlabeled(50, 9, Pmf.uniform(4), np.random.default_rng(33))
    assert np.array_equal(a.entries, b.entries)


def test_entry_cap_guard():
    with pytest.raises(MemoryCapExceeded):
        generate_unlabeled(10**6, 10**6, Pmf.uniform(2), np.random.default_rng(0), entry_cap=10**6)


def test_tiled_sampler_matches_one_shot():
    # bit for bit, with the generator left in the same state; 1 x block is
    # one full block, 3 x 21846 a block of two rows and a partial one of one
    # row, and 2500 x 61 two full blocks of 1074 rows and a partial third
    block = model._NOISE_BLOCK_ENTRIES
    assert block // 21846 == 2 and block // 61 == 1074
    weights = np.random.default_rng(39).random(256)
    pmfs = [Pmf([0.2, 0.3, 0.5]), Pmf([0.9, 0.1]), Pmf([0.5, 0.0, 0.25, 0.25])]
    # 256 symbols, and a cdf that passes 1.0 before its last symbol
    pmfs += [Pmf(weights / weights.sum()), Pmf([0.5, 0.5 + 1e-13, 0.0])]
    for p in pmfs:
        for shape in ((0, 60), (7, 0), (0, 0), (1, 1), (7, 3), (1, block), (3, 21846), (2500, 61)):
            rng, ref = np.random.default_rng(40), np.random.default_rng(40)
            got = model._sample_symbols(p, shape, rng)
            want = naive_sample_symbols(p.probs, shape, ref)
            assert got.dtype == np.uint8 and got.shape == shape
            assert np.array_equal(got, want)
            assert rng.bit_generator.state == ref.bit_generator.state


def test_uniform_sampler_matches_integers():
    # bit for bit, with the generator left in the same state, both from a
    # fresh generator and from one holding the unused half of a 64-bit draw
    # (an odd number of 32-bit draws taken before)
    shapes = [(0, 5), (5, 0), (0, 0), (1, 1000)]
    shapes += [(size, 1) for size in range(1, 10)]
    shapes += [(4 * j + extra, 1) for j in (2, 25) for extra in (1, 2, 3)]
    shapes += [(7, 3), (100, 60), (1001, 13)]
    for k in (1, 2, 3, 4, 5, 8, 16, 256):
        for shape in shapes:
            for prior in (0, 1):
                rng, ref = np.random.default_rng(60 + k), np.random.default_rng(60 + k)
                for g in (rng, ref):
                    g.integers(0, 2**32, size=prior, dtype=np.uint32)
                got = model._sample_symbols(Pmf.uniform(k), shape, rng)
                want = naive_uniform_symbols(k, shape, ref)
                assert got.dtype == np.uint8 and got.shape == shape
                assert np.array_equal(got, want), (k, shape, prior)
                assert rng.bit_generator.state == ref.bit_generator.state, (k, shape, prior)


def test_one_symbol_source_draws_nothing():
    rng = np.random.default_rng(61)
    rng.integers(0, 2**32, size=1, dtype=np.uint32)
    before = rng.bit_generator.state
    out = model._sample_symbols(Pmf.uniform(1), (40, 3), rng)
    assert out.shape == (40, 3) and not out.any()
    assert rng.bit_generator.state == before


def test_non_uniform_seed_sources_match_one_shot():
    p_x = Pmf([0.2, 0.3, 0.5])
    pattern = RepetitionPattern(np.array([1, 2, 0, 1]))
    seeds = generate_seeds(9000, 4, p_x, pattern, Channel.symmetric(3, 0.1), np.random.default_rng(41))
    want = naive_sample_symbols(p_x.probs, (9000, 4), np.random.default_rng(41))
    assert np.array_equal(seeds.g1, want)


def test_non_uniform_source_memory_is_one_byte_per_entry():
    # one-shot sampling peaked at 17 bytes per entry: float64 uniforms, then
    # intp indices, then the uint8 cast
    m, n = 200_000, 60
    rng = np.random.default_rng(42)
    tracemalloc.start()
    try:
        d1 = generate_unlabeled(m, n, Pmf([0.2, 0.3, 0.5]), rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d1.entries.shape == (m, n)
    # a block takes a random byte, an intp table index and a bool per entry
    assert peak < 1.1 * m * n + 16 * model._NOISE_BLOCK_ENTRIES


def test_pattern_degenerate_supports():
    rng = np.random.default_rng(2)
    all_ones = sample_pattern(40, Pmf([0.0, 1.0]), rng)
    assert np.all(all_ones.counts == 1)
    assert all_ones.total_columns == 40
    all_zero = sample_pattern(40, Pmf([1.0]), rng)
    assert all_zero.total_columns == 0
    assert all_zero.deleted_indices.tolist() == list(range(40))


def test_pattern_frequencies_concentrate():
    rng = np.random.default_rng(3)
    n = 10_000
    pat = sample_pattern(n, Pmf([0.2, 0.5, 0.3]), rng)
    for s, p in ((0, 0.2), (1, 0.5), (2, 0.3)):
        freq = (pat.counts == s).mean()
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(freq - p) < 4 * sigma


def test_labeling_properties():
    assert sample_labeling(1, np.random.default_rng(0)).perm.tolist() == [0]
    lab = sample_labeling(100, np.random.default_rng(5))
    assert np.all(lab.perm[lab.inverse] == np.arange(100))
    assert np.all(lab.inverse[lab.perm] == np.arange(100))


def test_labeling_inverse_on_random_permutations():
    rng = np.random.default_rng(43)
    for m in (1, 2, 17, 5000):
        perm = rng.permutation(m)
        lab = Labeling(perm)
        assert lab.inverse.dtype == np.int64
        assert np.array_equal(lab.inverse, np.argsort(perm))


def test_labeling_memory_per_row():
    # the permutation and its inverse hold 16 bytes per row; a transient
    # row index over all rows made the peak 24.9
    peaks = []
    for m in (200_000, 400_000):
        rng = np.random.default_rng(44)
        tracemalloc.start()
        try:
            lab = sample_labeling(m, rng)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert lab.m == m
    assert (peaks[1] - peaks[0]) / 200_000 <= 17


def test_labeling_refuses_non_permutations_without_counting_entries():
    # a count table sized by the largest entry would take 8 GB for 10**9
    # and 7.28 TiB for 10**12 before refusing
    for perm in ([0, 10**12], [0, 10**9], [0, 0], [-1, 0], [1, 2], [2, 0, 0]):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="labeling must be a permutation"):
                Labeling(np.array(perm))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5


def test_labeling_uniformity():
    from itertools import permutations

    counts = {p: 0 for p in permutations(range(3))}
    rng = np.random.default_rng(6)
    draws = 60_000
    for _ in range(draws):
        counts[tuple(sample_labeling(3, rng).perm.tolist())] += 1
    expect = draws / 6
    sigma = np.sqrt(draws * (1 / 6) * (5 / 6))
    for c in counts.values():
        assert abs(c - expect) < 4 * sigma


def test_noiseless_identity_roundtrip():
    rng = np.random.default_rng(7)
    d1 = generate_unlabeled(6, 11, Pmf.uniform(3), rng)
    pattern = RepetitionPattern(np.ones(11, dtype=np.int64))
    labeling = Labeling(np.arange(6))
    d2 = apply_repetition_noise(d1, pattern, labeling, Channel.identity(3), rng)
    assert np.array_equal(d2.entries, d1.entries)


def test_all_deleted_gives_empty_view():
    rng = np.random.default_rng(8)
    d1 = generate_unlabeled(4, 5, Pmf.uniform(2), rng)
    pattern = RepetitionPattern(np.zeros(5, dtype=np.int64))
    d2 = apply_repetition_noise(d1, pattern, Labeling(np.arange(4)), Channel.symmetric(2, 0.3), rng)
    assert d2.entries.shape == (4, 0)


def test_output_column_count_matches_pattern():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        d1 = generate_unlabeled(3, n, Pmf.uniform(2), rng)
        pattern = sample_pattern(n, Pmf([0.3, 0.4, 0.2, 0.1]), rng)
        lab = sample_labeling(3, rng)
        d2 = apply_repetition_noise(d1, pattern, lab, Channel.symmetric(2, 0.2), rng)
        assert d2.total_columns == pattern.total_columns


def test_row_permutation_wiring():
    # noiseless case: shuffled row i must equal source row inverse(i)
    rng = np.random.default_rng(10)
    d1 = generate_unlabeled(8, 6, Pmf.uniform(4), rng)
    pattern = RepetitionPattern(np.ones(6, dtype=np.int64))
    lab = sample_labeling(8, rng)
    d2 = apply_repetition_noise(d1, pattern, lab, Channel.identity(4), rng)
    for i in range(8):
        assert np.array_equal(d2.entries[i], d1.entries[lab.inverse[i]])


def test_replica_disagreement_rate():
    # one row, one column repeated twice: copies disagree w.p. 2q(1-q)
    q = 0.3
    rng = np.random.default_rng(11)
    trials = 100_000
    d1 = generate_unlabeled(trials, 1, Pmf.uniform(2), rng)
    pattern = RepetitionPattern(np.array([2]))
    d2 = apply_repetition_noise(
        d1, pattern, Labeling(np.arange(trials)), Channel.symmetric(2, q), rng
    )
    rate = (d2.entries[:, 0] != d2.entries[:, 1]).mean()
    expect = 2 * q * (1 - q)
    sigma = np.sqrt(expect * (1 - expect) / trials)
    assert abs(rate - expect) < 3 * sigma + 1e-4


def test_conditional_law_small_scale():
    # m=1, n=2, counts (2, 1): per-row cell law is the product channel law
    q = 0.2
    rng = np.random.default_rng(12)
    trials = 200_000
    d1_entries = np.tile(np.array([[0, 1]], dtype=np.uint8), (trials, 1))
    d1 = Database(d1_entries)
    pattern = RepetitionPattern(np.array([2, 1]))
    d2 = apply_repetition_noise(
        d1, pattern, Labeling(np.arange(trials)), Channel.symmetric(2, q), rng
    )
    ch = Channel.symmetric(2, q)
    for y0 in (0, 1):
        for y1 in (0, 1):
            for y2 in (0, 1):
                p = ch.rows[0, y0] * ch.rows[0, y1] * ch.rows[1, y2]
                hits = np.all(d2.entries == [y0, y1, y2], axis=1).mean()
                sigma = np.sqrt(p * (1 - p) / trials)
                assert abs(hits - p) < 4 * sigma + 1e-4


@pytest.mark.parametrize("k", [2, 3, 8])
def test_view_frequencies_follow_the_channel_rows(k):
    # chi-square of each source symbol's 2**21 outputs against its channel
    # row; a cell of probability 0 is never hit, and the test is fixed by
    # its seed, so it either always passes or always fails
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(90 + k)
    ch = random_channel(k, rng)
    reps, m = 64, 2**15
    d1 = Database(np.tile(np.arange(k, dtype=np.uint8), (m, 1)))
    view = apply_repetition_noise(
        d1, RepetitionPattern(np.full(k, reps)), Labeling(np.arange(m)), ch, rng
    )
    for x in range(k):
        got = np.bincount(view.entries[:, x * reps : (x + 1) * reps].ravel(), minlength=k)
        live = ch.rows[x] > 0
        assert not got[~live].any()
        expect = ch.rows[x, live] * m * reps
        chi2 = float(((got[live] - expect) ** 2 / expect).sum())
        assert stats.chi2.sf(chi2, live.sum() - 1) > 1e-4, (x, chi2)


def random_channel(k, rng):
    """A random k x k channel with about 40% zero entries."""
    rows = rng.random((k, k)) * (rng.random((k, k)) < 0.6)
    rows[np.arange(k), rng.integers(0, k, size=k)] += 0.05
    return Channel(rows / rows.sum(axis=1, keepdims=True))


def bit_state(rng):
    """rng's bit-generator state, comparable with == (MT19937 holds an array)."""
    state = rng.bit_generator.state
    return {**state, "state": {k: np.asarray(v).tolist() for k, v in state["state"].items()}}


def assert_noise_matches_oracle(k, m, counts, ch, seed, bit_generator=np.random.PCG64):
    """The view and the seeds' g2 equal the oracle's, draw for draw."""
    p_x = Pmf.uniform(k)
    pattern = RepetitionPattern(np.asarray(counts, dtype=np.int64))
    setup = np.random.default_rng(seed)
    d1 = generate_unlabeled(m, pattern.n, p_x, setup)
    lab = sample_labeling(m, setup)
    fast, slow = (np.random.Generator(bit_generator(seed + 1)) for _ in range(2))
    view = apply_repetition_noise(d1, pattern, lab, ch, fast)
    expect = naive_noisy_view(d1.entries, lab.inverse, pattern.counts, ch, slow)
    assert np.array_equal(view.entries, expect)
    assert bit_state(fast) == bit_state(slow)
    # the seed halves come from one stream, g1 first
    seeds = generate_seeds(m, pattern.n, p_x, pattern, ch, fast)
    g1 = generate_unlabeled(m, pattern.n, p_x, slow).entries
    assert np.array_equal(seeds.g1, g1)
    assert np.array_equal(seeds.g2, naive_noisy_view(g1, np.arange(m), pattern.counts, ch, slow))
    assert bit_state(fast) == bit_state(slow)
    return view.entries


def test_noise_oracle_several_tiles_with_partial_last():
    rng = np.random.default_rng(40)
    counts = rng.integers(0, 4, size=25)
    block = model._NOISE_BLOCK_ENTRIES // int(counts.sum())
    assert_noise_matches_oracle(3, 5 * block + block // 2, counts, random_channel(3, rng), 41)


def test_noise_oracle_edge_shapes():
    rng = np.random.default_rng(42)
    ch = random_channel(4, rng)
    assert_noise_matches_oracle(4, 1, [2, 0, 1, 3], ch, 43)  # one row
    empty = assert_noise_matches_oracle(4, 30, [0, 0, 0], ch, 44)  # K = 0
    assert empty.shape == (30, 0)
    # K above half a block: every block holds one row
    wide = [20_000, 0, 15_001]
    assert model._NOISE_BLOCK_ENTRIES // sum(wide) == 1
    assert_noise_matches_oracle(4, 3, wide, ch, 45)


def test_noise_oracle_alphabets_with_zero_rows():
    rng = np.random.default_rng(46)
    for k in (*range(2, 9), 256):
        for rep in range(3 if k < 256 else 1):
            n = int(rng.integers(1, 12))
            counts = rng.integers(0, 4, size=n)
            m = int(rng.integers(1, 400 if k < 256 else 40))
            assert_noise_matches_oracle(k, m, counts, random_channel(k, rng), 100 * k + rep)


# two-symbol channels select between two comparisons per entry; their
# thresholds P(Y = 0 | X = 0) and P(Y = 0 | X = 1) come in either order,
# and a threshold of exactly 0 or 1 opens entries whose outcome is fixed
TWO_SYMBOL_CHANNELS = [
    Channel.symmetric(2, 0.42),
    Channel([[1.0, 0.0], [0.3, 0.7]]),  # Z-channel: thresholds 1 > 0.3
    Channel([[0.0, 1.0], [0.7, 0.3]]),  # its mirror: thresholds 0 < 0.7
    Channel.identity(2),
    Channel([[0.0, 1.0], [1.0, 0.0]]),  # swap
]


@pytest.mark.parametrize("ch", TWO_SYMBOL_CHANNELS, ids=["bsc", "z", "z-mirror", "identity", "swap"])
def test_noise_oracle_two_symbol_channels(ch):
    rng = np.random.default_rng(49)
    counts = rng.integers(0, 4, size=25)
    block = model._NOISE_BLOCK_ENTRIES // int(counts.sum())
    # several blocks with a partial last, one row, K = 0, one row per block
    assert_noise_matches_oracle(2, 3 * block + block // 3, counts, ch, 50)
    assert_noise_matches_oracle(2, 1, [2, 0, 1, 3], ch, 51)
    empty = assert_noise_matches_oracle(2, 30, [0, 0, 0], ch, 52)
    assert empty.shape == (30, 0)
    assert_noise_matches_oracle(2, 3, [20_000, 0, 15_001], ch, 53)
    for rep in range(5):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(1, 400))
        assert_noise_matches_oracle(2, m, rng.integers(0, 4, size=n), ch, 60 + rep)


@pytest.mark.parametrize("k", [2, 3])
def test_noise_oracle_32_bit_generator(k):
    # MT19937's raw outputs fill only the low 32 bits of a word; the view,
    # the seeds and a non-uniform source still take full 64-bit words
    rng = np.random.default_rng(56)
    ch = Channel.symmetric(2, 0.42) if k == 2 else random_channel(3, rng)
    counts = rng.integers(0, 4, size=25)
    block = model._NOISE_BLOCK_ENTRIES // int(counts.sum())
    assert_noise_matches_oracle(k, 2 * block + block // 3, counts, ch, 57, np.random.MT19937)
    p = Pmf([0.2, 0.3, 0.5]) if k == 3 else Pmf([0.9, 0.1])
    fast, slow = (np.random.Generator(np.random.MT19937(58)) for _ in range(2))
    got = model._sample_symbols(p, (2500, 61), fast)
    assert np.array_equal(got, naive_sample_symbols(p.probs, (2500, 61), slow))
    assert bit_state(fast) == bit_state(slow)


# thresholds of exactly 0 and 1, repeated thresholds from zero entries, and
# a cdf prefix that rounds above 1
EDGE_CHANNELS = [
    Channel.identity(3),
    Channel([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
    Channel([[0.5, 0.5 + 1e-13, 0.0], [0.0, 0.5, 0.5], [0.25, 0.0, 0.75]]),
    Channel.identity(8),
]


@pytest.mark.parametrize("ch", EDGE_CHANNELS, ids=["identity3", "shift3", "over-one", "identity8"])
def test_noise_oracle_edge_thresholds(ch):
    assert_noise_matches_oracle(ch.size, 300, [2, 0, 1, 3], ch, 55)


@pytest.mark.parametrize("k", [2, 3])
def test_entry_on_its_threshold_takes_the_upper_symbol(k):
    # u >= t passes a threshold that u equals, so w = T[x, c] must too.  A
    # one-entry view takes the first word's low byte, and, once the byte
    # opens the entry, the second word's top 45 bits: set t to that w.
    words = np.random.default_rng(70).bit_generator.random_raw(2)
    w = (int(words[0]) & 0xFF) << 45 | int(words[1]) >> 19
    t = w / 2**53  # exact, as w < 2**53
    rows = np.full((k, k), 1 / k)
    rows[0] = [t, *[(1 - t) / (k - 1)] * (k - 1)]
    rng = np.random.default_rng(70)
    view = apply_repetition_noise(
        Database(np.zeros((1, 1), np.uint8)), RepetitionPattern([1]), Labeling([0]),
        Channel(rows), rng,
    )
    assert view.entries.tolist() == [[1]]
    ref = np.random.default_rng(70)
    ref.bit_generator.random_raw(2)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_noise_oracle_one_symbol_channel():
    out = assert_noise_matches_oracle(1, 50, [1, 2, 0, 3], Channel.identity(1), 47)
    assert out.shape == (50, 6)
    assert not out.any()
    # the view and the seeds of a one-symbol channel draw nothing
    rng = np.random.default_rng(47)
    before = rng.bit_generator.state
    pattern = RepetitionPattern([1, 2, 0, 3])
    d1 = Database(np.zeros((50, 4), np.uint8))
    apply_repetition_noise(d1, pattern, Labeling(np.arange(50)), Channel.identity(1), rng)
    generate_seeds(50, 4, Pmf.uniform(1), pattern, Channel.identity(1), rng)
    assert rng.bit_generator.state == before


def test_view_and_seeds_honour_entry_cap():
    # m * n = 500 fits the cap, m * sum(counts) = 1000 does not
    rng = np.random.default_rng(48)
    p_x, ch = Pmf.uniform(2), Channel.symmetric(2, 0.1)
    d1 = generate_unlabeled(50, 10, p_x, rng, entry_cap=500)
    pattern = RepetitionPattern(np.full(10, 2))
    lab = sample_labeling(50, rng)
    before = rng.bit_generator.state
    with pytest.raises(MemoryCapExceeded):
        apply_repetition_noise(d1, pattern, lab, ch, rng, entry_cap=500)
    with pytest.raises(MemoryCapExceeded):
        generate_seeds(50, 10, p_x, pattern, ch, rng, entry_cap=500)
    assert rng.bit_generator.state == before  # raised before any draw
    assert apply_repetition_noise(d1, pattern, lab, ch, rng, entry_cap=1000).entries.shape == (50, 20)
    assert generate_seeds(50, 10, p_x, pattern, ch, rng, entry_cap=1000).g2.shape == (50, 20)


def test_view_rejects_symbols_outside_channel():
    d1 = Database(np.array([[0, 2]], dtype=np.uint8))
    pattern = RepetitionPattern(np.array([1, 1]))
    with pytest.raises(ValidationError):
        apply_repetition_noise(
            d1, pattern, Labeling(np.arange(1)), Channel.symmetric(2, 0.1), np.random.default_rng(0)
        )


def test_view_and_seeds_refuse_alphabets_above_256():
    # the view is uint8: a 300-symbol channel would wrap symbol 299 to 43
    ch = Channel.identity(300)
    pattern = RepetitionPattern(np.ones(3, dtype=np.int64))
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError, match="above 256"):
        apply_repetition_noise(Database(np.array([[299, 256, 5]])), pattern, Labeling([0]), ch, rng)
    with pytest.raises(ValidationError, match="above 256"):
        generate_seeds(2, 3, Pmf.uniform(2), pattern, ch, rng)


@pytest.mark.parametrize("dtype", [np.int64, np.int8])
@pytest.mark.parametrize(
    "ch", [Channel.symmetric(2, 0.1), Channel.symmetric(3, 0.1)], ids=["bsc", "k3"]
)
def test_view_and_seeds_reject_negative_symbols(monkeypatch, dtype, ch):
    source = np.array([[-1, 0], [1, -3]], dtype=dtype)
    pattern = RepetitionPattern(np.array([1, 2]))
    with pytest.raises(ValidationError, match="nonnegative"):
        apply_repetition_noise(
            Database(source), pattern, Labeling(np.arange(2)), ch, np.random.default_rng(0)
        )
    monkeypatch.setattr(model, "_sample_symbols", lambda p, shape, rng: source)
    with pytest.raises(ValidationError, match="nonnegative"):
        generate_seeds(2, 2, Pmf.uniform(ch.size), pattern, ch, np.random.default_rng(0))
    # a signed source of nonnegative symbols gives the unsigned source's view
    views = [
        apply_repetition_noise(
            Database(np.array([[1, 0], [0, 1]], dtype=t)), pattern, Labeling(np.arange(2)), ch,
            np.random.default_rng(0),
        ).entries
        for t in (dtype, np.uint8)
    ]
    assert np.array_equal(*views)


def test_seeds_share_column_counts():
    rng = np.random.default_rng(13)
    pattern = sample_pattern(9, Pmf([0.2, 0.5, 0.3]), rng)
    seeds = generate_seeds(5, 9, Pmf.uniform(2), pattern, Channel.symmetric(2, 0.1), rng)
    assert seeds.size == 5
    assert seeds.g1.shape == (5, 9)
    assert seeds.g2.shape == (5, pattern.total_columns)


def test_empty_seed_batch():
    rng = np.random.default_rng(14)
    pattern = sample_pattern(4, Pmf([0.5, 0.5]), rng)
    for p_x in (Pmf.uniform(2), Pmf([0.2, 0.3, 0.5])):
        seeds = generate_seeds(0, 4, p_x, pattern, Channel.identity(p_x.size), rng)
        assert seeds.size == 0
        assert seeds.g1.shape == (0, 4) and seeds.g1.dtype == np.uint8
        assert seeds.g2.shape == (0, pattern.total_columns) and seeds.g2.dtype == np.uint8


def test_value_types_leave_the_callers_array_writable():
    # each type holds a read-only array; the array passed in stays writable,
    # and the memo-key types (Pmf, Channel) and SymbolMap hold a copy of it
    cases = [
        (lambda a: Database(a).entries, np.zeros((2, 3), dtype=np.uint8), False),
        (lambda a: RepetitionPattern(a).counts, np.array([2, 0, 1]), False),
        (lambda a: Labeling(a).perm, np.array([1, 2, 0]), False),
        (lambda a: Labeling(a).inverse, np.array([1, 2, 0]), True),
        (lambda a: SeedBatch(a, np.zeros((2, 1), np.uint8)).g1, np.zeros((2, 3), np.uint8), False),
        (lambda a: SeedBatch(np.zeros((2, 3), np.uint8), a).g2, np.zeros((2, 1), np.uint8), False),
        (lambda a: Pmf(a).probs, np.array([0.25, 0.75]), True),
        (lambda a: Channel(a).rows, np.eye(2), True),
        (lambda a: SymbolMap(a).map, np.array([1, 0]), True),
    ]
    for held, arr, copied in cases:
        out = held(arr)
        assert arr.flags.writeable
        assert not out.flags.writeable
        assert np.shares_memory(out, arr) != copied


# each maker builds a new instance of the same content on every call; the
# first three compare by value, the rest, which hold data, by identity
VALUE_TYPES = {
    "SymbolMap": (lambda: SymbolMap([1, 0, 2]), True),
    "Scalars": (lambda: pipeline_scalars(Pmf.uniform(2), Channel.symmetric(2, 0.1)), True),
    "RepetitionPattern": (lambda: RepetitionPattern(np.array([2, 0, 1])), True),
    "Database": (lambda: Database(np.zeros((2, 3), np.uint8)), False),
    "Labeling": (lambda: Labeling(np.array([1, 2, 0])), False),
    "SeedBatch": (lambda: SeedBatch(np.zeros((2, 3), np.uint8), np.zeros((2, 1), np.uint8)), False),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_compare_and_hash_without_raising(name):
    make, by_value = VALUE_TYPES[name]
    a, b = make(), make()
    assert a == a and a in [a]
    assert (a == b) is by_value and (a != b) is not by_value
    assert (b in [a]) is by_value
    assert len({a, b}) == (1 if by_value else 2)


def test_noiseless_seeds_repeat_source_columns():
    rng = np.random.default_rng(15)
    pattern = RepetitionPattern(np.array([2, 0, 1]))
    seeds = generate_seeds(4, 3, Pmf.uniform(2), pattern, Channel.identity(2), rng)
    expect = seeds.g1[:, [0, 0, 2]]
    assert np.array_equal(seeds.g2, expect)


def test_substreams_full_determinism():
    def build(seed):
        st = substreams(seed)
        d1 = generate_unlabeled(12, 8, Pmf.uniform(2), st.database)
        pat = sample_pattern(8, Pmf([0.2, 0.5, 0.3]), st.pattern)
        lab = sample_labeling(12, st.labeling)
        d2 = apply_repetition_noise(d1, pat, lab, Channel.symmetric(2, 0.1), st.noise)
        seeds = generate_seeds(3, 8, Pmf.uniform(2), pat, Channel.symmetric(2, 0.1), st.seeds)
        return d1, pat, lab, d2, seeds

    a, b = build(99), build(99)
    assert np.array_equal(a[0].entries, b[0].entries)
    assert np.array_equal(a[1].counts, b[1].counts)
    assert np.array_equal(a[2].perm, b[2].perm)
    assert np.array_equal(a[3].entries, b[3].entries)
    assert np.array_equal(a[4].g2, b[4].g2)
    c = build(100)
    assert not np.array_equal(a[3].entries, c[3].entries)


def test_substreams_from_int_or_seed_sequence():
    # an int seeds SeedSequence(seed); a SeedSequence is spawned from
    # directly, one child per named stream in field order
    def first_draws(st):
        return [int(g.integers(1 << 62)) for g in st]

    assert substreams(5)._fields == (
        "database", "pattern", "labeling", "noise", "seeds", "rows"
    )
    assert first_draws(substreams(5)) == first_draws(substreams(np.random.SeedSequence(5)))
    children = trial_seed_sequence(5, 2).spawn(6)
    expect = [int(np.random.default_rng(c).integers(1 << 62)) for c in children]
    assert first_draws(substreams(trial_seed_sequence(5, 2))) == expect
    assert len(set(expect)) == 6


def test_trial_seed_sequences_differ():
    a = np.random.default_rng(trial_seed_sequence(1, 0)).random(4)
    b = np.random.default_rng(trial_seed_sequence(1, 1)).random(4)
    assert not np.allclose(a, b)


def test_validation_errors():
    rng = np.random.default_rng(16)
    with pytest.raises(ValidationError):
        generate_unlabeled(0, 5, Pmf.uniform(2), rng)
    for perm in ([0, 0, 1], [-1, 0]):
        with pytest.raises(ValidationError, match="labeling must be a permutation"):
            Labeling(np.array(perm))
    with pytest.raises(ValidationError):
        RepetitionPattern(np.array([1, -1]))

