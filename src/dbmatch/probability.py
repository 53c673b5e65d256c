"""Exact finite-alphabet probability engine.

Distributions, channels, entropies, the matching-capacity value and every
derived scalar the pipeline needs (disagreement rates p0/p1, remapped
agreement rates q0/q1, detection thresholds, seed-size and error-bound
formulas).  Symbols are dense 0-based integers.  All logarithms are base 2,
so every returned quantity is in bits.

Everything here is a pure function of immutable inputs and safe to call
concurrently; nothing holds mutable state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGap, IndependentDatabases, ValidationError

PMF_TOL = 1e-12
IDENTITY_TOL = 1e-10
LOG_ZERO = -1.0e18


def _as_prob_vector(values, name: str) -> np.ndarray:
    """A read-only copy of values, checked to be a probability vector."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValidationError(f"{name} must be a nonempty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    if np.any(arr < 0):
        raise ValidationError(f"{name} contains negative entries")
    total = float(arr.sum())
    if abs(total - 1.0) > PMF_TOL:
        raise ValidationError(f"{name} sums to {total!r}, expected 1 within {PMF_TOL}")
    arr.flags.writeable = False
    return arr


def _value_key(arr: np.ndarray) -> tuple:
    """An array's shape and bytes: equal keys mean equal values."""
    return arr.shape, arr.tobytes()


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over symbols 0..k-1; equal and hashed by value."""

    probs: np.ndarray

    def __init__(self, probs, name: str = "pmf") -> None:
        object.__setattr__(self, "probs", _as_prob_vector(probs, name))

    @property
    def size(self) -> int:
        return int(self.probs.shape[0])

    def __getitem__(self, symbol: int) -> float:
        return float(self.probs[symbol])

    def __eq__(self, other) -> bool:
        return type(other) is Pmf and _value_key(self.probs) == _value_key(other.probs)

    def __hash__(self) -> int:
        return hash(_value_key(self.probs))

    @staticmethod
    def uniform(k: int) -> "Pmf":
        if k < 1:
            raise ValidationError("alphabet size must be >= 1")
        return Pmf(np.full(k, 1.0 / k))


@dataclass(frozen=True)
class Channel:
    """Conditional law rows[x][y] = P(Y=y | X=x) on a shared alphabet;
    equal and hashed by value."""

    rows: np.ndarray

    def __init__(self, rows) -> None:
        arr = np.array(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValidationError("channel must be a square matrix")
        for x in range(arr.shape[0]):
            _as_prob_vector(arr[x], f"channel row {x}")
        arr.flags.writeable = False
        object.__setattr__(self, "rows", arr)

    @property
    def size(self) -> int:
        return int(self.rows.shape[0])

    def __eq__(self, other) -> bool:
        return type(other) is Channel and _value_key(self.rows) == _value_key(other.rows)

    def __hash__(self) -> int:
        return hash(_value_key(self.rows))

    @staticmethod
    def identity(k: int) -> "Channel":
        return Channel(np.eye(k))

    @staticmethod
    def symmetric(k: int, crossover: float) -> "Channel":
        """Uniform-crossover channel: stay with 1-crossover, else spread evenly."""
        if not 0.0 <= crossover <= 1.0:
            raise ValidationError("crossover must lie in [0, 1]")
        if k == 1:
            return Channel(np.eye(1))
        off = crossover / (k - 1)
        rows = np.full((k, k), off)
        np.fill_diagonal(rows, 1.0 - crossover)
        return Channel(rows)


@dataclass(frozen=True)
class SymbolMap:
    """Bijective relabeling of the alphabet; map[y] is the new symbol for y."""

    map: np.ndarray

    def __init__(self, mapping) -> None:
        arr = np.asarray(mapping, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("symbol map must be a 1-d vector")
        if sorted(arr.tolist()) != list(range(arr.size)):
            raise ValidationError("symbol map must be a permutation of 0..k-1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "map", arr)

    @property
    def size(self) -> int:
        return int(self.map.shape[0])

    @property
    def inverse(self) -> np.ndarray:
        inv = np.empty_like(self.map)
        inv[self.map] = np.arange(self.size)
        return inv

    def apply(self, symbols: np.ndarray) -> np.ndarray:
        return self.map[symbols]


@dataclass(frozen=True)
class Scalars:
    """Derived scalar bundle consumed by the detection stages."""

    p0: float
    p1: float
    sigma: SymbolMap
    q0: float
    q1: float
    tau: float


def _plogp(values: np.ndarray) -> float:
    """sum of v * log2 v over the positive entries."""
    nz = values[values > 0]
    return float((nz * np.log2(nz)).sum())


def _safe_log2(values: np.ndarray) -> np.ndarray:
    """log2 with zero entries floored at LOG_ZERO, so 0 * log stays finite."""
    return np.log2(values, out=np.full(values.shape, LOG_ZERO), where=values > 0)


def entropy(p: Pmf) -> float:
    """Shannon entropy in bits; 0*log(0) terms contribute nothing."""
    return -_plogp(p.probs)


def binary_entropy(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"binary entropy argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def bernoulli_kl(a: float, b: float) -> float:
    """D(Bernoulli(a) || Bernoulli(b)) in bits, +inf when absolutely singular."""
    if not 0.0 <= a <= 1.0 or not 0.0 <= b <= 1.0:
        raise ValidationError("bernoulli_kl arguments must lie in [0, 1]")
    if (b == 0.0 and a > 0.0) or (b == 1.0 and a < 1.0):
        return float("inf")
    total = 0.0
    if a > 0.0:
        total += a * math.log2(a / b)
    if a < 1.0:
        total += (1.0 - a) * math.log2((1.0 - a) / (1.0 - b))
    return total


def compute_p0_p1(p_x: Pmf, ch: Channel) -> tuple[float, float]:
    """Disagreement probabilities of two noisy reads.

    p0 compares reads of independent source symbols, p1 compares two reads
    of the same symbol.  p0 >= p1 always, with equality exactly when the
    noisy view is independent of the source.
    """
    if p_x.size != ch.size:
        raise ValidationError("alphabet size mismatch")
    p_y = p_x.probs @ ch.rows
    weighted = p_x.probs[:, None] * ch.rows
    p0 = float((weighted * (1.0 - p_y[None, :])).sum())
    p1 = float((weighted * (1.0 - ch.rows)).sum())
    if p0 < p1 - PMF_TOL:
        raise AssertionError(f"p0={p0} < p1={p1}; broken channel arithmetic")
    return p0, p1


def compute_q0_q1(p_x: Pmf, ch: Channel, sigma: SymbolMap) -> tuple[float, float]:
    """Remapped disagreement rates.

    q1 = P(sigma(Y) != X) for a correlated source/read pair, q0 the same
    for an independent pair.  Deletion detection needs q0 > q1.
    """
    if not (p_x.size == ch.size == sigma.size):
        raise ValidationError("alphabet size mismatch")
    inv = sigma.inverse
    # agreement prob of sigma(Y) with symbol t is P(Y = inv[t])
    agree_cond = ch.rows[:, inv]            # [x1, t] = P(sigma(Y)=t | X=x1)
    q0 = 1.0 - float(p_x.probs @ agree_cond @ p_x.probs)
    q1 = 1.0 - float((p_x.probs * agree_cond[np.arange(ch.size), np.arange(ch.size)]).sum())
    return q0, q1


def _augment(cost, u, v, row_of, col_of, row, live) -> None:
    """Assign `row` by one shortest augmenting path (a Hungarian step).

    cost is a k x k minimisation matrix; the duals (u, v) are feasible on
    every live column and tight on every assigned pair, row_of[t] is the row
    assigned to column t (-1 when free) and col_of its inverse.  Only the
    columns flagged in `live` take part.  All four arrays are updated in
    place and stay feasible and tight, so the assignment stays optimal on
    the rows it covers.  O(k^2).
    """
    dist = np.full(cost.shape[1], np.inf)
    prev = np.full(cost.shape[1], -1)
    done = ~live
    tree: list[int] = []
    i = row
    while True:
        slack = cost[i] - u[i] - v
        closer = ~done & (slack < dist)
        dist[closer] = slack[closer]
        prev[closer] = tree[-1] if tree else -1
        j = int(np.argmin(np.where(done, np.inf, dist)))
        delta = dist[j]
        u[row] += delta
        u[row_of[tree]] += delta
        v[tree] -= delta
        dist[~done] -= delta
        done[j] = True
        tree.append(j)
        if row_of[j] < 0:
            break
        i = row_of[j]
    while j >= 0:
        back = prev[j]
        r = row_of[back] if back >= 0 else row
        row_of[j], col_of[r] = r, j
        j = back


def _assignment(cost: np.ndarray):
    """Minimum-cost perfect assignment of a square matrix with its duals.

    Column reduction and a greedy start, then one shortest augmenting path
    per row left over (Hungarian / Jonker-Volgenant).  Returns
    (u, v, row_of, col_of).  O(k^3).
    """
    k = cost.shape[0]
    u = np.zeros(k)
    v = cost.min(axis=0)
    row_of = np.full(k, -1)
    col_of = np.full(k, -1)
    for t, y in enumerate(cost.argmin(axis=0)):
        if col_of[y] < 0:
            row_of[t], col_of[y] = y, t
    live = np.ones(k, dtype=bool)
    for y in (col_of < 0).nonzero()[0]:
        _augment(cost, u, v, row_of, col_of, int(y), live)
    return u, v, row_of, col_of


def _pin(cost, u, v, row_of, col_of, y: int, t: int, live) -> None:
    """Re-solve an optimal assignment with row y pinned to column t.

    The row that held t and the column y held are left over; one
    augmenting path over the other live columns joins them again.
    """
    freed, moved = col_of[y], row_of[t]
    row_of[freed], col_of[moved] = -1, -1
    row_of[t], col_of[y] = y, t
    rest = live.copy()
    rest[t] = False
    _augment(cost, u, v, row_of, col_of, int(moved), rest)


def find_best_sigma(p_x: Pmf, ch: Channel) -> SymbolMap:
    """The remapping maximizing the agreement gap q0 - q1, in O(k^3).

    The gap, sum_y p_x(map[y]) * (W[map[y], y] - p_y(y)), is linear in the
    permutation, so its maximum is a linear assignment.  Ties are broken by
    one lexicographic pass: the result is the lexicographically smallest
    map whose gap is within PMF_TOL of the maximum.  For y = 0, 1, ... the
    pass pins map[y] to the smallest free symbol that some completion still
    carries to within PMF_TOL: a symbol the dual bound rules out is skipped,
    the one the current optimal assignment uses is taken at once, and any
    other is tried by re-solving the remaining sub-problem (one augmenting
    path).  Raises IndependentDatabases when the maximum gap is <= PMF_TOL,
    which happens exactly when the joint law factorizes.
    """
    k = p_x.size
    if k != ch.size:
        raise ValidationError("alphabet size mismatch")
    p_y = p_x.probs @ ch.rows
    # cost[y, t] is minus the gap term of mapping read symbol y to t
    cost = p_x.probs[None, :] * (p_y[:, None] - ch.rows.T)
    rows = np.arange(k)
    u, v, row_of, col_of = _assignment(cost)
    total = float(cost[rows, col_of].sum())
    if -total <= PMF_TOL:
        raise IndependentDatabases(
            "no symbol remapping separates correlated pairs; matching capacity is zero"
        )
    limit = total + PMF_TOL
    live = np.ones(k, dtype=bool)
    for y in range(k):
        # total + the reduced cost bounds every completion with map[y] = t
        reduced = cost[y] - u[y] - v
        for t in (live & (total + reduced <= limit)).nonzero()[0]:
            if t == col_of[y]:
                break
            alt = [a.copy() for a in (u, v, row_of, col_of)]
            _pin(cost, *alt, y, int(t), live)
            alt_total = float(cost[rows, alt[3]].sum())
            if alt_total <= limit:
                u, v, row_of, col_of = alt
                total = alt_total
                break
        live[col_of[y]] = False
    return SymbolMap(col_of)


def recommend_threshold(p0: float, p1: float, override: float | None = None) -> float:
    """Replica-detection threshold, the midpoint of (p1, p0) by default."""
    if p0 - p1 <= PMF_TOL:
        raise DegenerateGap(f"p0={p0} and p1={p1} leave no threshold window")
    if override is None:
        return 0.5 * (p0 + p1)
    if not p1 < override < p0:
        raise ValidationError(f"threshold override {override} outside ({p1}, {p0})")
    return float(override)


def recommend_seed_size(n: int, k_hat_over_n: float, q0: float, q1: float) -> int:
    """Seed rows sufficient for reliable deletion detection, ceil(2nH_b/gap^2 log2 e)."""
    if n < 0:
        raise ValidationError("n must be nonnegative")
    gap = q0 - q1
    if gap <= PMF_TOL:
        raise DegenerateGap("q0 - q1 gap is degenerate; seeds cannot localize deletions")
    h = binary_entropy(k_hat_over_n)
    if h == 0.0:
        return 0
    return math.ceil(2.0 * n * h / (gap * gap * math.log2(math.e)))


def replica_error_bounds(m: int, tau: float, p0: float, p1: float, k_cols: int) -> float:
    """Union bound on total replica-detection failure over K-1 column pairs."""
    if not p1 < tau < p0:
        raise ValidationError(f"tau={tau} outside ({p1}, {p0})")
    if k_cols <= 1:
        return 0.0
    miss = 2.0 ** (-m * bernoulli_kl(tau, p0))
    split = 2.0 ** (-m * bernoulli_kl(1.0 - tau, 1.0 - p1))
    return (k_cols - 1) * (miss + split)


def pipeline_scalars(
    p_x: Pmf,
    ch: Channel,
    tau_override: float | None = None,
) -> Scalars:
    """Bundle of every scalar the two detection stages consume."""
    p0, p1 = compute_p0_p1(p_x, ch)
    sigma = find_best_sigma(p_x, ch)
    q0, q1 = compute_q0_q1(p_x, ch, sigma)
    tau = recommend_threshold(p0, p1, override=tau_override)
    return Scalars(p0=p0, p1=p1, sigma=sigma, q0=q0, q1=q1, tau=tau)


# --- repeated-observation laws -------------------------------------------
#
# A read tuple y^s of one symbol enters every law only through its type,
# the vector tau of its symbol counts: P(y^s | x) = prod_y W[x, y]^tau_y.
# So a sum over the k^s tuples is a sum over the C(s+k-1, k-1) types, each
# weighted by the multinomial count of its tuples (the method of types).

_TYPE_BLOCK_ENTRIES = 1 << 16


def _read_types(k: int, s_max: int):
    """Every read type of every count s <= s_max over k symbols, in blocks.

    Stars and bars over k + 1 symbols, where the extra symbol k pads a
    count-s read to length s_max: each type is one sorted padded tuple of
    itertools.combinations_with_replacement, listed lazily.  Yields
    (symbols, counts, s): symbols[b] is the sorted padded tuple of type b,
    counts[b] its k symbol counts and s[b] its count.  A block holds about
    _TYPE_BLOCK_ENTRIES entries of the largest array built from it.
    """
    per_block = max(1, _TYPE_BLOCK_ENTRIES // ((k + 1) * (s_max + 1)))
    lists = itertools.combinations_with_replacement(range(k + 1), s_max)
    while True:
        rows = list(itertools.islice(lists, per_block))
        b = len(rows)
        if b == 0:
            return
        flat = itertools.chain.from_iterable(rows)
        block = np.fromiter(flat, dtype=np.intp, count=b * s_max).reshape(b, s_max)
        cells = (block + np.arange(0, b * (k + 1), k + 1)[:, None]).ravel()
        counts = np.bincount(cells, minlength=b * (k + 1)).reshape(b, k + 1)
        yield block, counts[:, :k], s_max - counts[:, k]
        if b < per_block:
            return


def _read_equivocations(p_x: Pmf, ch: Channel, s_max: int) -> np.ndarray:
    """H(X | Y^s) for s = 0..s_max: the uncertainty about a symbol left
    after an s-fold memoryless read of it, summed over read types.

    H(X | Y^s) = -sum_tau multinom(s; tau) sum_x p(x, y) log2 p(x | y), with
    y any one tuple of type tau.  log2 p(x, y) is log2 p_x(x) plus the sum
    of log2 W[x, y_l] over the tuple (tau @ log2(W)^T), with zero entries
    floored at LOG_ZERO; the posterior is normalised by a log-sum-exp over
    x, so no probability underflows at large s.
    """
    log_w = np.zeros((ch.size + 1, ch.size))
    log_w[:-1] = _safe_log2(ch.rows).T
    log_px = _safe_log2(p_x.probs)
    log_fact = np.array([math.lgamma(i + 1) for i in range(s_max + 1)]) / math.log(2)
    h = np.zeros(s_max + 1)
    for symbols, counts, s in _read_types(p_x.size, s_max):
        # log2 of p(x, y) times the multinomial, whose row constant
        # cancels out of the posterior
        log_joint = log_w[symbols].sum(axis=1) + log_px
        log_joint += (log_fact[s] - log_fact[counts].sum(axis=1))[:, None]
        log_post = log_joint - log_joint.max(axis=1, keepdims=True)
        log_post -= np.log2(np.exp2(log_post).sum(axis=1, keepdims=True))
        terms = (np.exp2(log_joint) * log_post).sum(axis=1)
        h -= np.bincount(s, weights=terms, minlength=s_max + 1)
    return h


def _check_alphabets(p_x: Pmf, ch: Channel) -> None:
    if p_x.size != ch.size:
        raise ValidationError("alphabet size mismatch")


def _repeat_informations(p_x: Pmf, ch: Channel, s_max: int) -> np.ndarray:
    """I(X; Y^s) for s = 0..s_max, taken as H(X) - H(X | Y^s).

    The equal form H(Y^s) - s * H(Y|X) subtracts two terms that grow with
    s and loses about 1e-11 at s = 200.
    """
    _check_alphabets(p_x, ch)
    info = entropy(p_x) - _read_equivocations(p_x, ch, s_max)
    info[0] = 0.0
    return info


def capacity_per_count(p_x: Pmf, p_s: Pmf, ch: Channel) -> dict[int, float]:
    """The per-count terms p_s(s) * I(X;Y^s) keyed by repetition count."""
    terms = p_s.probs * _repeat_informations(p_x, ch, p_s.size - 1)
    return dict(enumerate(terms.tolist()))


def capacity(p_x: Pmf, p_s: Pmf, ch: Channel) -> float:
    """Matching capacity in bits per column.

    Computed as sum_s p_s(s) * I(X; Y^s), the sum of the per-count terms;
    the repetition count is drawn independently of the source, so
    conditioning on it decomposes the mutual information of the pair (read
    tuple, count) against the symbol.
    """
    return float(sum(capacity_per_count(p_x, p_s, ch).values()))


def capacity_direct(p_x: Pmf, p_s: Pmf, ch: Channel) -> float:
    """Cross-check: the same capacity from the flattened joint law.

    The mutual information of the joint p(x, (s, tau)) of symbol against
    (repetition count, read type), taken blockwise from that joint's own
    marginals as H(X) + H(S,T) - H(X,S,T).  The joint is formed from
    probabilities, as products of channel entries with multinomial counts
    from Pascal's triangle, so it shares no arithmetic with the per-count
    decomposition, which works with log-probabilities and posteriors.
    Raises ValidationError where a multinomial count overflows float64:
    always from s_max = 1030 on (Pascal's triangle itself), and earlier on
    larger alphabets, where a count reaches about k^s.
    """
    _check_alphabets(p_x, ch)
    s_max = p_s.size - 1
    if s_max > 1029:
        raise ValidationError(f"s_max={s_max} overflows the multinomial counts (at most 1029)")
    w = np.ones((ch.size + 1, ch.size))
    w[:-1] = ch.rows.T
    pascal = np.zeros((s_max + 1, s_max + 1))
    pascal[:, 0] = 1.0
    for r in range(1, s_max + 1):
        pascal[r, 1:] = pascal[r - 1, 1:] + pascal[r - 1, :-1]
    marginal_x = np.zeros(p_x.size)
    plogp_st = plogp_xst = 0.0
    for symbols, counts, s in _read_types(p_x.size, s_max):
        mult = pascal[np.cumsum(counts, axis=1), counts].prod(axis=1)
        cond = w[symbols].prod(axis=1)
        joint = (p_s.probs[s] * mult)[:, None] * cond * p_x.probs
        if not np.isfinite(joint).all():
            raise ValidationError(f"multinomial counts overflow at s_max={s_max}, k={p_x.size}")
        marginal_x += joint.sum(axis=0)
        plogp_xst += _plogp(joint)
        plogp_st += _plogp(joint.sum(axis=1))
    return plogp_xst - plogp_st - _plogp(marginal_x)
