"""Probability-core operations and their exact identities."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from dbmatch.errors import DegenerateGap, IndependentDatabases, ValidationError
from dbmatch.matcher import TripleLaw, TypicalityParams
from dbmatch.probability import (
    PMF_TOL,
    Channel,
    Pmf,
    Scalars,
    SymbolMap,
    bernoulli_kl,
    binary_entropy,
    capacity,
    capacity_direct,
    capacity_per_count,
    compute_p0_p1,
    compute_q0_q1,
    entropy,
    find_best_sigma,
    pipeline_scalars,
    recommend_seed_size,
    recommend_threshold,
    repeat_mutual_information,
    replica_error_bounds,
)
from oracles import psi_profile

IDENTITY_TOL = 1e-10


def random_source_and_channel(rng, k):
    v = rng.random(k) + 0.05
    p_x = Pmf(v / v.sum())
    rows = rng.random((k, k)) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    return p_x, Channel(rows)


# --- entropies and divergences --------------------------------------------

def test_entropy_uniform_binary():
    assert entropy(Pmf([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)


def test_entropy_point_mass():
    assert entropy(Pmf.point_mass(3, 1)) == 0.0


def test_entropy_skewed_binary():
    # oracle: direct -sum p log2 p evaluation
    assert entropy(Pmf([0.9, 0.1])) == pytest.approx(0.4689955935892812, abs=1e-14)


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.2) == pytest.approx(0.7219280948873623, abs=1e-14)


def test_binary_entropy_rejects_out_of_range():
    with pytest.raises(ValidationError):
        binary_entropy(-0.01)
    with pytest.raises(ValidationError):
        binary_entropy(1.01)


def test_bernoulli_kl_values():
    assert bernoulli_kl(0.3, 0.3) == 0.0
    assert bernoulli_kl(0.5, 0.25) == pytest.approx(0.20751874963942185, abs=1e-14)
    assert bernoulli_kl(1.0, 0.5) == pytest.approx(1.0, abs=1e-14)


def test_bernoulli_kl_singular_cases():
    assert bernoulli_kl(0.5, 0.0) == math.inf
    assert bernoulli_kl(0.5, 1.0) == math.inf
    assert bernoulli_kl(0.0, 0.0) == 0.0
    assert bernoulli_kl(1.0, 1.0) == 0.0


def test_nonnegativity_and_kl_zero_iff_equal():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b = rng.random(), rng.random() * 0.98 + 0.01
        kl = bernoulli_kl(a, b)
        assert kl >= 0.0
        if abs(a - b) > 1e-9:
            assert kl > 0.0
        p, _ = random_source_and_channel(rng, int(rng.integers(2, 5)))
        assert entropy(p) >= 0.0


# --- disagreement scalars --------------------------------------------------

def test_p0_p1_symmetric_binary():
    # oracle: 2x2x2 joint enumeration gives p1 = 0.18, p0 = 0.5
    p0, p1 = compute_p0_p1(Pmf.uniform(2), Channel.symmetric(2, 0.1))
    assert p0 == pytest.approx(0.5, abs=1e-14)
    assert p1 == pytest.approx(0.18, abs=1e-14)


def test_p0_p1_identity_channel():
    p0, p1 = compute_p0_p1(Pmf.uniform(2), Channel.identity(2))
    assert p1 == 0.0
    assert p0 == pytest.approx(0.5, abs=1e-14)


def test_p0_equals_p1_for_independent_channel():
    ch = Channel([[0.3, 0.7], [0.3, 0.7]])
    p0, p1 = compute_p0_p1(Pmf([0.4, 0.6]), ch)
    assert p0 == pytest.approx(p1, abs=1e-14)


def test_p0_minus_p1_equals_psi_sum():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        p_x, ch = random_source_and_channel(rng, k)
        p0, p1 = compute_p0_p1(p_x, ch)
        psi = psi_profile(p_x, ch)
        assert np.all(psi >= -1e-15)
        assert p0 - p1 == pytest.approx(float(psi.sum()), abs=IDENTITY_TOL)


# --- remapped agreement scalars ---------------------------------------------

def test_q0_q1_flip_remapping():
    # oracle: joint enumeration with the flip; agreement becomes 0.6
    q0, q1 = compute_q0_q1(Pmf.uniform(2), Channel.symmetric(2, 0.6), SymbolMap([1, 0]))
    assert q0 == pytest.approx(0.5, abs=1e-14)
    assert q1 == pytest.approx(0.4, abs=1e-14)


def test_q0_q1_identity_noiseless():
    q0, q1 = compute_q0_q1(Pmf.uniform(2), Channel.identity(2), SymbolMap([0, 1]))
    assert q1 == 0.0
    assert q0 == pytest.approx(0.5, abs=1e-14)


def test_q0_equals_q1_for_independent_channel():
    ch = Channel([[0.3, 0.7], [0.3, 0.7]])
    for perm in ([0, 1], [1, 0]):
        q0, q1 = compute_q0_q1(Pmf([0.4, 0.6]), ch, SymbolMap(perm))
        assert q0 == pytest.approx(q1, abs=1e-14)


def test_sigma_sum_identities():
    rng = np.random.default_rng(17)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        p_x, ch = random_source_and_channel(rng, k)
        pairs = [
            compute_q0_q1(p_x, ch, SymbolMap(perm))
            for perm in itertools.permutations(range(k))
        ]
        sum_q0 = sum(p[0] for p in pairs)
        sum_q1 = sum(p[1] for p in pairs)
        assert sum_q0 - sum_q1 == pytest.approx(0.0, abs=IDENTITY_TOL)


def test_sigma_agreement_sums_hit_factorial_constant():
    rng = np.random.default_rng(23)
    for k in (2, 3, 4):
        p_x = Pmf.uniform(k)
        _, ch = random_source_and_channel(rng, k)
        pairs = [
            compute_q0_q1(p_x, ch, SymbolMap(perm))
            for perm in itertools.permutations(range(k))
        ]
        agree0 = sum(1.0 - p[0] for p in pairs)
        agree1 = sum(1.0 - p[1] for p in pairs)
        constant = math.factorial(k - 1)
        assert agree0 == pytest.approx(constant, abs=IDENTITY_TOL)
        assert agree1 == pytest.approx(constant, abs=IDENTITY_TOL)


def test_find_best_sigma_flip_for_noisy_channel():
    sigma = find_best_sigma(Pmf.uniform(2), Channel.symmetric(2, 0.6))
    assert sigma.map.tolist() == [1, 0]


def test_find_best_sigma_identity_for_quiet_channel():
    # oracle: both binary permutations enumerated; identity has gap 0.4
    sigma = find_best_sigma(Pmf.uniform(2), Channel.symmetric(2, 0.1))
    assert sigma.map.tolist() == [0, 1]


def test_find_best_sigma_independent_raises():
    with pytest.raises(IndependentDatabases):
        find_best_sigma(Pmf.uniform(2), Channel([[0.5, 0.5], [0.5, 0.5]]))


def test_find_best_sigma_large_alphabets():
    assert find_best_sigma(Pmf.uniform(9), Channel.identity(9)).map.tolist() == list(range(9))
    k = 256
    reversed_identity = Channel(np.eye(k)[::-1])
    sigma = find_best_sigma(Pmf.uniform(k), reversed_identity)
    assert sigma.map.tolist() == list(range(k - 1, -1, -1))


def naive_best_sigma(p_x, ch):
    """Exhaustive search over all k! remappings; a later permutation replaces
    the best so far only when its gap is larger by more than PMF_TOL."""
    k = p_x.size
    best_gap = -math.inf
    best = None
    for perm in itertools.permutations(range(k)):
        q0, q1 = compute_q0_q1(p_x, ch, SymbolMap(perm))
        gap = q0 - q1
        if gap > best_gap + PMF_TOL:
            best_gap, best = gap, perm
    if best is None or best_gap <= PMF_TOL:
        raise IndependentDatabases("no remapping separates correlated pairs")
    return list(best)


def window_rows(k, w):
    rows = np.zeros((k, k))
    for x in range(k):
        for d in range(w):
            rows[x, (x + d) % k] = 1.0 / w
    return rows


def random_pmf_with_zeros(rng, k):
    v = rng.random(k) * (rng.random(k) > 0.25)
    v[rng.integers(k)] += 0.1
    return v / v.sum()


def sigma_oracle_cases():
    """(label, p_x, channel) triples with k from 1 to 7, ties included."""
    rng = np.random.default_rng(2024)
    cases = []
    for k in range(1, 8):
        reps = 30 if k < 7 else 12
        for r in range(reps):
            rows = np.array([random_pmf_with_zeros(rng, k) for _ in range(k)])
            p_x = Pmf(random_pmf_with_zeros(rng, k) if r % 2 else np.full(k, 1.0 / k))
            cases.append(("random", p_x, Channel(rows)))
        if k == 1:
            continue
        edge = (k - 1) / k
        for crossover in (0.0, 0.3 * edge, 0.9 * edge, edge, min(1.0, 1.1 * edge), 1.0):
            for p_x in (Pmf.uniform(k), Pmf(random_pmf_with_zeros(rng, k))):
                cases.append(("symmetric", p_x, Channel.symmetric(k, crossover)))
        for w in range(1, k + 1):
            cases.append(("window", Pmf.uniform(k), Channel(window_rows(k, w))))
        for _ in range(2):
            rows = np.array([random_pmf_with_zeros(rng, k) for _ in range(k)])
            rows[1] = rows[0]
            cases.append(("repeated-row", Pmf(random_pmf_with_zeros(rng, k)), Channel(rows)))
            row = random_pmf_with_zeros(rng, k)
            cases.append(("independent", Pmf(random_pmf_with_zeros(rng, k)), Channel([row] * k)))
    return cases


def test_find_best_sigma_equals_exhaustive_oracle():
    cases = sigma_oracle_cases()
    assert len(cases) >= 300
    raised = 0
    for label, p_x, ch in cases:
        try:
            want = naive_best_sigma(p_x, ch)
        except IndependentDatabases:
            raised += 1
            with pytest.raises(IndependentDatabases):
                find_best_sigma(p_x, ch)
            continue
        assert find_best_sigma(p_x, ch).map.tolist() == want, (label, p_x.probs, ch.rows)
    # the independent, width-k window and crossover-(k-1)/k cases
    assert raised >= 30


@pytest.mark.parametrize("k", [16, 64, 256])
def test_find_best_sigma_reaches_assignment_optimum(k):
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(k)
    p_x = Pmf(random_pmf_with_zeros(rng, k))
    ch = Channel(np.array([random_pmf_with_zeros(rng, k) for _ in range(k)]))
    p_y = p_x.probs @ ch.rows
    gain = p_x.probs[None, :] * (ch.rows.T - p_y[:, None])
    rows, cols = optimize.linear_sum_assignment(gain, maximize=True)
    q0, q1 = compute_q0_q1(p_x, ch, find_best_sigma(p_x, ch))
    assert q0 - q1 == pytest.approx(gain[rows, cols].sum(), abs=1e-12)


# --- capacity ---------------------------------------------------------------

def test_capacity_noiseless_closed_form():
    rng = np.random.default_rng(41)
    for _ in range(25):
        k = int(rng.integers(2, 5))
        v = rng.random(k) + 0.05
        p_x = Pmf(v / v.sum())
        delta = float(rng.random() * 0.9)
        rest = rng.random(3) + 0.01
        rest = rest / rest.sum() * (1.0 - delta)
        p_s = Pmf([delta, *rest])
        cap = capacity(p_x, p_s, Channel.identity(k))
        assert cap == pytest.approx((1.0 - delta) * entropy(p_x), abs=IDENTITY_TOL)


def test_capacity_no_repetition_is_single_use_information():
    rng = np.random.default_rng(42)
    for _ in range(25):
        k = int(rng.integers(2, 5))
        p_x, ch = random_source_and_channel(rng, k)
        cap = capacity(p_x, Pmf([0.0, 1.0]), ch)
        assert cap == pytest.approx(repeat_mutual_information(p_x, ch, 1), abs=IDENTITY_TOL)


def test_capacity_mixed_repetitions_frozen_value():
    # oracle: read-tuple enumeration; 0.5*I(X;Y) + 0.3*I(X;Y^2)
    cap = capacity(Pmf.uniform(2), Pmf([0.2, 0.5, 0.3]), Channel.symmetric(2, 0.1))
    assert cap == pytest.approx(0.48812796077027465, abs=1e-12)
    assert repeat_mutual_information(
        Pmf.uniform(2), Channel.symmetric(2, 0.1), 1
    ) == pytest.approx(0.5310044064107188, abs=1e-12)


def test_capacity_decomposition_matches_direct_joint():
    rng = np.random.default_rng(4)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        p_x, ch = random_source_and_channel(rng, k)
        s_max = int(rng.integers(1, 4))
        w = rng.random(s_max + 1) + 0.02
        p_s = Pmf(w / w.sum())
        assert capacity(p_x, p_s, ch) == pytest.approx(
            capacity_direct(p_x, p_s, ch), abs=IDENTITY_TOL
        )


def test_capacity_zero_iff_independent():
    p_x = Pmf.uniform(2)
    p_s = Pmf([0.2, 0.8])
    indep = Channel([[0.5, 0.5], [0.5, 0.5]])
    assert capacity(p_x, p_s, indep) == pytest.approx(0.0, abs=IDENTITY_TOL)
    with pytest.raises(IndependentDatabases):
        find_best_sigma(p_x, indep)
    dep = Channel.symmetric(2, 0.1)
    assert capacity(p_x, p_s, dep) > 1e-6
    find_best_sigma(p_x, dep)  # must not raise


def test_capacity_per_count_terms_sum():
    p_x, p_s, ch = Pmf.uniform(2), Pmf([0.2, 0.5, 0.3]), Channel.symmetric(2, 0.1)
    per = capacity_per_count(p_x, p_s, ch)
    assert sum(per.values()) == pytest.approx(capacity(p_x, p_s, ch), abs=1e-14)


def test_capacity_large_smax_closed_forms():
    rng = np.random.default_rng(50)
    p_x = Pmf([0.1, 0.2, 0.3, 0.4])
    w = rng.random(51) + 0.01
    p_s = Pmf(w / w.sum())
    assert capacity(p_x, p_s, Channel.identity(4)) == pytest.approx(
        (1.0 - p_s[0]) * entropy(p_x), abs=IDENTITY_TOL
    )
    # I(X; Y^s) = term / p_s(s); rounding is monotone, so the checks hold exactly
    bsc = Channel.symmetric(2, 0.1)
    p_s = Pmf(np.full(201, 1.0 / 201))
    terms = capacity_per_count(Pmf.uniform(2), p_s, bsc)
    info = [terms[s] / p_s[s] for s in range(201)]
    assert max(info) <= 1.0
    assert all(b >= a for a, b in zip(info, info[1:]))
    assert info[200] == pytest.approx(1.0, abs=1e-12)
    assert info[200] == pytest.approx(repeat_mutual_information(Pmf.uniform(2), bsc, 200), abs=1e-15)


def test_capacity_at_s_max_200_is_fast():
    start = time.perf_counter()
    cap = capacity(Pmf.uniform(2), Pmf([0.0] * 200 + [1.0]), Channel.symmetric(2, 0.1))
    assert time.perf_counter() - start < 1.0
    assert cap == pytest.approx(1.0, abs=1e-12)


def test_capacity_direct_refuses_overflowing_multinomials():
    p_s = Pmf([0.0] * 1030 + [1.0])
    with pytest.raises(ValidationError, match="overflow"):
        capacity_direct(Pmf.uniform(2), p_s, Channel.symmetric(2, 0.1))


def test_capacity_and_typicality_law_memory_at_k16_smax6():
    rng = np.random.default_rng(16)
    p_x = Pmf(random_pmf_with_zeros(rng, 16))
    ch = Channel(np.array([random_pmf_with_zeros(rng, 16) for _ in range(16)]))
    p_s = Pmf(np.full(7, 1.0 / 7))
    tracemalloc.start()
    try:
        capacity(p_x, p_s, ch)
        TypicalityParams.from_components(p_x, ch, p_s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# --- tuple-level oracle for the type-based laws -------------------------------

def naive_tuple_joint(p_x, ch, s):
    """joint[x, t] = p_x(x) * prod_l ch[x, y_l] over the k^s read tuples t in
    lexicographic order; s = 0 gives the single empty tuple."""
    k = p_x.size
    cond = np.ones((k, 1))
    for _ in range(s):
        cond = (cond[:, :, None] * ch.rows[:, None, :]).reshape(k, -1)
    return p_x.probs[:, None] * cond


def naive_mutual_information(joint):
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    mask = joint > 0
    return float((joint[mask] * np.log2(joint[mask] / np.outer(px, py)[mask])).sum())


def naive_entropy(probs):
    nz = probs[probs > 0]
    return float(-(nz * np.log2(nz)).sum())


def tuple_oracle_cases():
    """Every (k, s) with k^(s+1) <= 2^16, k from 1 to 8 and s from 0 to 6,
    with zero entries in the source and in the channel rows."""
    rng = np.random.default_rng(65536)
    for k in range(1, 9):
        for s in range(7):
            if k ** (s + 1) > 2**16:
                continue
            for p_x in (Pmf.uniform(k), Pmf(random_pmf_with_zeros(rng, k))):
                rows = np.array([random_pmf_with_zeros(rng, k) for _ in range(k)])
                w = rng.random(s + 1) + 0.02
                yield k, s, p_x, Channel(rows), Pmf(w / w.sum())


def test_type_based_laws_equal_tuple_oracle():
    seen = set()
    for k, s, p_x, ch, p_s in tuple_oracle_cases():
        seen.add((k, s))
        joints = [naive_tuple_joint(p_x, ch, t) for t in range(s + 1)]
        infos = [naive_mutual_information(j) for j in joints]
        assert repeat_mutual_information(p_x, ch, s) == pytest.approx(infos[s], abs=1e-12)
        per = capacity_per_count(p_x, p_s, ch)
        for t in range(s + 1):
            assert per[t] == pytest.approx(p_s[t] * infos[t], abs=1e-12)
        flat = np.concatenate([p_s[t] * j for t, j in enumerate(joints)], axis=1)
        want = naive_mutual_information(flat)
        assert capacity(p_x, p_s, ch) == pytest.approx(want, abs=1e-12)
        assert capacity_direct(p_x, p_s, ch) == pytest.approx(want, abs=1e-12)
        h_observed = naive_entropy(p_s.probs) + sum(
            p_s[t] * naive_entropy(joints[t].sum(axis=0)) for t in range(1, s + 1)
        )
        law = TripleLaw.from_components(p_x, ch, p_s)
        assert law.h_observed == pytest.approx(h_observed, abs=1e-12)
    assert len(seen) == 50


# --- thresholds, seed sizes, bounds ----------------------------------------

def test_recommend_threshold_midpoint():
    assert recommend_threshold(0.5, 0.18) == pytest.approx(0.34)
    assert recommend_threshold(0.5, 0.0) == pytest.approx(0.25)


def test_recommend_threshold_degenerate():
    with pytest.raises(DegenerateGap):
        recommend_threshold(0.3, 0.3)


def test_recommend_threshold_override_window():
    assert recommend_threshold(0.5, 0.18, override=0.2) == 0.2
    with pytest.raises(ValidationError):
        recommend_threshold(0.5, 0.18, override=0.18)


def test_recommend_seed_size_formula():
    # oracle: ceil(2 * 100 * 1.0 / (0.09 * log2 e)) = 1541
    assert recommend_seed_size(100, 0.5, 0.5, 0.2) == 1541


def test_recommend_seed_size_endpoints_and_linearity():
    assert recommend_seed_size(100, 0.0, 0.5, 0.2) == 0
    assert recommend_seed_size(100, 1.0, 0.5, 0.2) == 0
    b1 = recommend_seed_size(100, 0.3, 0.6, 0.2)
    b2 = recommend_seed_size(200, 0.3, 0.6, 0.2)
    assert b2 >= b1
    assert b2 == pytest.approx(2 * b1, abs=1)


def test_recommend_seed_size_degenerate_gap():
    with pytest.raises(DegenerateGap):
        recommend_seed_size(100, 0.5, 0.3, 0.3)


def test_replica_error_bounds_plugin_value():
    # oracle: direct plug-in of both exponents
    bound = replica_error_bounds(1000, 0.34, 0.5, 0.18, 50)
    assert bound == pytest.approx(1.1438554991714545e-21, rel=1e-9)
    assert bound < 1e-10


def test_replica_error_bounds_single_column():
    assert replica_error_bounds(1000, 0.34, 0.5, 0.18, 1) == 0.0


def test_replica_error_bounds_monotone_in_m():
    prev = math.inf
    for m in (10, 100, 1000, 10_000):
        b = replica_error_bounds(m, 0.34, 0.5, 0.18, 50)
        assert b <= prev
        prev = b


def test_pipeline_scalars_bundle():
    s = pipeline_scalars(Pmf.uniform(2), Channel.symmetric(2, 0.1))
    assert isinstance(s, Scalars)
    assert s.p0 > s.p1
    assert s.q0 > s.q1
    assert s.p1 < s.tau < s.p0


# --- validation --------------------------------------------------------------

def test_pmf_validation():
    with pytest.raises(ValidationError):
        Pmf([0.5, 0.4])
    with pytest.raises(ValidationError):
        Pmf([1.2, -0.2])


def test_channel_validation():
    with pytest.raises(ValidationError):
        Channel([[0.5, 0.5], [0.5, 0.4]])
    with pytest.raises(ValidationError):
        Channel([[1.0, 0.0]])


def test_symbol_map_validation():
    with pytest.raises(ValidationError):
        SymbolMap([0, 0])
    sm = SymbolMap([2, 0, 1])
    assert sm.inverse.tolist() == [1, 2, 0]
