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
from dbmatch.probability import Channel, Pmf, SymbolMap
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
    # bit for bit, with the generator left in the same state; 1093 x 61 is
    # two full tiles and a partial third
    tile = model._NOISE_TILE_ENTRIES
    assert 2 * tile < 1093 * 61 < 3 * tile and (1093 * 61) % tile
    for p in (Pmf([0.2, 0.3, 0.5]), Pmf([0.9, 0.1]), Pmf([0.5, 0.0, 0.25, 0.25])):
        for shape in ((0, 60), (7, 0), (0, 0), (7, 3), (1, tile), (1093, 61)):
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
    # a tile takes a float64 uniform and an intp index per entry
    assert peak < 1.1 * m * n + 16 * model._NOISE_TILE_ENTRIES


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


def random_channel(k, rng):
    """A random k x k channel with about 40% zero entries."""
    rows = rng.random((k, k)) * (rng.random((k, k)) < 0.6)
    rows[np.arange(k), rng.integers(0, k, size=k)] += 0.05
    return Channel(rows / rows.sum(axis=1, keepdims=True))


def assert_noise_matches_oracle(k, m, counts, ch, seed):
    """The view and the seeds' g2 equal the oracle's, draw for draw."""
    p_x = Pmf.uniform(k)
    pattern = RepetitionPattern(np.asarray(counts, dtype=np.int64))
    setup = np.random.default_rng(seed)
    d1 = generate_unlabeled(m, pattern.n, p_x, setup)
    lab = sample_labeling(m, setup)
    fast, slow = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    view = apply_repetition_noise(d1, pattern, lab, ch, fast)
    expect = naive_noisy_view(d1.entries, lab.inverse, pattern.counts, ch, slow)
    assert np.array_equal(view.entries, expect)
    assert fast.bit_generator.state == slow.bit_generator.state
    # the seed halves come from one stream, g1 first
    seeds = generate_seeds(m, pattern.n, p_x, pattern, ch, fast)
    g1 = generate_unlabeled(m, pattern.n, p_x, slow).entries
    assert np.array_equal(seeds.g1, g1)
    assert np.array_equal(seeds.g2, naive_noisy_view(g1, np.arange(m), pattern.counts, ch, slow))
    assert fast.bit_generator.state == slow.bit_generator.state
    return view.entries


def test_noise_oracle_several_tiles_with_partial_last():
    rng = np.random.default_rng(40)
    counts = rng.integers(0, 4, size=25)
    k_total = int(counts.sum())
    tile = max(1, model._NOISE_TILE_ENTRIES // k_total)
    m = 5 * tile + tile // 2
    assert_noise_matches_oracle(3, m, counts, random_channel(3, rng), 41)


def test_noise_oracle_edge_shapes():
    rng = np.random.default_rng(42)
    ch = random_channel(4, rng)
    assert_noise_matches_oracle(4, 1, [2, 0, 1, 3], ch, 43)  # one row
    empty = assert_noise_matches_oracle(4, 30, [0, 0, 0], ch, 44)  # K = 0
    assert empty.shape == (30, 0)
    # K above any tile size: every tile holds one row
    wide = [40_000, 0, 30_001]
    assert sum(wide) > model._NOISE_TILE_ENTRIES
    assert_noise_matches_oracle(4, 3, wide, ch, 45)


def test_noise_oracle_alphabets_with_zero_rows():
    rng = np.random.default_rng(46)
    for k in range(2, 9):
        for rep in range(3):
            n = int(rng.integers(1, 12))
            counts = rng.integers(0, 4, size=n)
            m = int(rng.integers(1, 400))
            assert_noise_matches_oracle(k, m, counts, random_channel(k, rng), 100 * k + rep)


# two-symbol channels select between two comparisons per entry; their
# thresholds P(Y = 0 | X = 0) and P(Y = 0 | X = 1) come in either order
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
    tile = max(1, model._NOISE_TILE_ENTRIES // int(counts.sum()))
    # several tiles with a partial last, one row, K = 0, K above one tile
    assert_noise_matches_oracle(2, 3 * tile + tile // 3, counts, ch, 50)
    assert_noise_matches_oracle(2, 1, [2, 0, 1, 3], ch, 51)
    empty = assert_noise_matches_oracle(2, 30, [0, 0, 0], ch, 52)
    assert empty.shape == (30, 0)
    assert_noise_matches_oracle(2, 3, [40_000, 0, 30_001], ch, 53)
    for rep in range(5):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(1, 400))
        assert_noise_matches_oracle(2, m, rng.integers(0, 4, size=n), ch, 60 + rep)


def test_noise_oracle_one_symbol_channel():
    out = assert_noise_matches_oracle(1, 50, [1, 2, 0, 3], Channel.identity(1), 47)
    assert out.shape == (50, 6)
    assert not out.any()


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

