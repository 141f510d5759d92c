"""Closed-form statistics of parallel amplified searches, with Monte Carlo checks.

Setting: a database of N = 2^n entries contains m marked ("good") entries,
and an amplified measurement returns a good entry with probability pG
(uniform among the m goods), otherwise a bad entry (uniform among the
N - m bads). p workers measure independently. The closed forms:

* all workers return the same good entry:      pG^p * m^(1-p)
* all workers return pairwise-distinct goods:  pG^p * m! / (m^p (m-p)!)
* expected workers until every good has been
  returned at least once (coupon collection):  m * H_m / pG
  where H_m is the m-th harmonic number.

Noisy-oracle variant: the tagging oracle mislabels entries, so only m1 of
the m tagged-good entries are true solutions while m2 of the untagged
entries are missed solutions:

* one measurement is a true solution:    (m1/m) pG + (m2/(N-m)) (1 - pG)
* all p workers return the same true
  solution:                              m1 (pG/m)^p + m2 ((1-pG)/(N-m))^p
* expected workers to cover all m1
  reachable tagged solutions:            m1 * H_m1 / ((m1/m) pG)

Setting m1 = m and m2 = 0 reduces every noisy form to its exact-oracle
counterpart, and at p = m = 2 the all-same and all-different probabilities
are complementary within pG^2; the tests pin both identities.

The Monte Carlo helpers replay the draw process literally on a relabeled
index set (goods first, then bads) and tally the same three statistics, so
every closed form above has an independent numerical check. The collision
tally marks the all-solution rows. In the exact-oracle model a pick is a
solution exactly when it took the good branch, so those are the rows whose
uniforms all fell below pG, and only their good indices are compared; the
noisy model merges good and bad picks and tests each index. All-same and
all-distinct come from pairwise column compares for narrow rows and from
sorted rows for wide ones. The tally streams: each chunk's draws run in
sub-blocks of about 2^16 values that become per-row flags while they are in
cache, so the kernel holds a few bytes per row instead of (rows, p) arrays
of 8-byte values (the noisy model keeps its chunk's picks, which it must
merge element by element, so its chunks hold at most 2^21 picks). Picks
are drawn as int32: for a range below 2^32 numpy's bounded sampler gives
the same values for int32 as for int64, and a split call continues the
stream where the previous one stopped.
Coverage keeps, per episode, a packed bitset of the coupons seen
(ceil(m/64) uint64 words, the bits past the last coupon preset), ORs in one
bit per hit, and counts the words that have become full; an episode's draw
count is the round in which its last word fills. How the draws are tallied
never changes which random numbers are drawn: every chunk still draws the
bad indices the exact-oracle tally never reads, and ``tests/test_prob.py``
pins seeded statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qsim import _check_counts, _check_n

__all__ = [
    "ParallelSearchModel",
    "NoisyOracleModel",
    "MonteCarloStats",
    "prob_all_same",
    "prob_all_different",
    "expected_workers_all_solutions",
    "prob_true_good",
    "prob_all_same_noisy",
    "expected_workers_noisy",
    "harmonic",
    "monte_carlo_parallel_draws",
]

@dataclass(frozen=True)
class ParallelSearchModel:
    """Exact-oracle parallel search: n qubits, m good entries, p workers, pG."""

    n: int
    m: int
    p: int
    pG: float

    def __post_init__(self):
        _check_counts(self.n, self.m)
        if not (self.p >= 1):
            raise ValueError(f"p must be >= 1, got {self.p}")
        _check_pg(self.pG)


@dataclass(frozen=True)
class NoisyOracleModel:
    """Mislabeling oracle: m1 true solutions among the m tagged, m2 missed ones."""

    n: int
    m: int
    m1: int
    m2: int

    def __post_init__(self):
        _check_n(self.n)
        if not (0 < self.m < 2**self.n):
            raise ValueError(f"m must satisfy 0 < m < 2^{self.n}, got {self.m}")
        if not (0 <= self.m1 <= self.m):
            raise ValueError(f"m1 must be in [0, m={self.m}], got {self.m1}")
        if not (0 <= self.m2 <= 2**self.n - self.m):
            raise ValueError(f"m2 must be in [0, 2^n - m], got {self.m2}")


def harmonic(m: int) -> float:
    """H_m = sum_{i=1..m} 1/i."""
    if m < 0:
        raise ValueError(f"harmonic number undefined for m={m}")
    return math.fsum(1.0 / i for i in range(1, m + 1))


def prob_all_same(model: ParallelSearchModel) -> float:
    """P(all p workers measure the same good entry) = pG^p m^(1-p)."""
    if model.m < 1:
        raise ValueError("all-same probability needs at least one good entry")
    return model.pG**model.p * float(model.m) ** (1 - model.p)


def prob_all_different(model: ParallelSearchModel) -> float:
    """P(all p workers measure distinct good entries) = pG^p m!/(m^p (m-p)!).

    Evaluated as a falling-factorial product, which stays accurate for
    large m where the factorial form would overflow.
    """
    if not (1 <= model.p <= model.m):
        raise ValueError(f"all-different needs 1 <= p <= m, got p={model.p}, m={model.m}")
    frac = 1.0
    for i in range(model.p):
        frac *= (model.m - i) / model.m
    return model.pG**model.p * frac


def expected_workers_all_solutions(model: ParallelSearchModel) -> float:
    """Expected sequential measurements until every good entry has appeared."""
    if model.m < 1:
        raise ValueError("coverage expectation needs at least one good entry")
    if not (model.pG > 0.0):
        raise ValueError("coverage expectation diverges for pG = 0")
    return model.m * harmonic(model.m) / model.pG


def prob_true_good(noisy: NoisyOracleModel, pG: float) -> float:
    """P(one amplified measurement is a true solution) under mislabeling."""
    _check_pg(pG)
    n_bad = 2**noisy.n - noisy.m
    return (noisy.m1 / noisy.m) * pG + (noisy.m2 / n_bad) * (1.0 - pG)


def prob_all_same_noisy(noisy: NoisyOracleModel, p: int, pG: float) -> float:
    """P(all p workers return the same true solution) under mislabeling."""
    if not (p >= 1):
        raise ValueError(f"p must be >= 1, got {p}")
    _check_pg(pG)
    n_bad = 2**noisy.n - noisy.m
    return noisy.m1 * (pG / noisy.m) ** p + noisy.m2 * ((1.0 - pG) / n_bad) ** p


def expected_workers_noisy(noisy: NoisyOracleModel, pG: float) -> float:
    """Expected measurements until all m1 reachable tagged solutions appeared."""
    _check_pg(pG)
    if noisy.m1 < 1:
        raise ValueError("coverage expectation needs m1 >= 1")
    if not (pG > 0.0):
        raise ValueError("coverage expectation diverges for pG = 0")
    return noisy.m1 * harmonic(noisy.m1) / ((noisy.m1 / noisy.m) * pG)


def _check_pg(pG: float) -> None:
    if not (0.0 <= pG <= 1.0):
        raise ValueError(f"pG must be in [0, 1], got {pG}")


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

_DRAW_CHUNK = 250_000
# Draws per sub-block of a chunk: a few hundred KiB of picks or uniforms,
# small enough to stay in cache while they are turned into per-row flags.
_BLOCK_DRAWS = 1 << 16
# Most picks per noisy-tally chunk; each is held twice, as a good and a bad int32.
_NOISY_CHUNK_DRAWS = 1 << 21
# Widest row the collision tally compares column by column; wider rows are sorted.
_COLUMN_MAX_P = 10
_FULL_WORD = np.uint64((1 << 64) - 1)
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


@dataclass(frozen=True)
class MonteCarloStats:
    """Raw counts plus derived frequencies."""

    trials: int
    count_all_same: int
    count_all_different: int
    cover_episodes: int
    cover_total_draws: int
    cover_total_sq_draws: int = 0

    @property
    def freq_all_same(self) -> float:
        return self.count_all_same / self.trials

    @property
    def freq_all_different(self) -> float:
        return self.count_all_different / self.trials

    @property
    def mean_workers_to_cover(self) -> float:
        if self.cover_episodes == 0:
            return float("nan")
        return self.cover_total_draws / self.cover_episodes

    def se_all_same(self) -> float:
        f = self.freq_all_same
        return math.sqrt(max(f * (1.0 - f), 1.0 / self.trials) / self.trials)

    def se_all_different(self) -> float:
        f = self.freq_all_different
        return math.sqrt(max(f * (1.0 - f), 1.0 / self.trials) / self.trials)

    def se_workers_to_cover(self) -> float:
        if self.cover_episodes < 2:
            return float("nan")
        mean = self.mean_workers_to_cover
        var = self.cover_total_sq_draws / self.cover_episodes - mean * mean
        return math.sqrt(max(var, 0.0) / self.cover_episodes)


def _same_distinct(picks, same, distinct):
    """Write each row's all-same and all-distinct flags into same and distinct.

    Up to _COLUMN_MAX_P columns are compared pairwise; wider rows are
    sorted in place first, after which a row is all-same when its ends agree
    and all-distinct when no adjacent pair does. The compares run on a
    transposed copy, one contiguous array per column: strided columns cost
    several times more, and so do numpy's row reductions
    (``.all(axis=1)``), which run a short inner loop per row.
    """
    p = picks.shape[1]
    if p > _COLUMN_MAX_P:
        picks.sort(axis=1)
        ends = [(0, p - 1)]
        pairs = [(j - 1, j) for j in range(1, p)]
    else:
        ends = [(0, j) for j in range(1, p)]
        pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    cols = np.ascontiguousarray(picks.T)
    same.fill(True)
    for i, j in ends:
        same &= cols[i] == cols[j]
    distinct.fill(True)
    for i, j in pairs:
        distinct &= cols[i] != cols[j]


def _rows_and(flags, out):
    """Write into out the AND of each row of the bool block flags."""
    np.copyto(out, flags[:, 0])
    for j in range(1, flags.shape[1]):
        out &= flags[:, j]


def _tally(n, m, p, pG, trials, rng, noisy=None):
    """Count all-same-solution and all-distinct-solution rows over the trials.

    Every chunk of _DRAW_CHUNK rows draws its good indices, then its bad
    indices, then the uniforms that choose between them, even where a tally
    reads only some of them, so the random stream never depends on how it is
    tallied. Each of the three draws runs in sub-blocks of about _BLOCK_DRAWS
    values; the generator carries its state from call to call, so split
    calls continue the same stream.

    Plain model (noisy=None): a pick is a solution exactly when it took the
    good branch, so a row is all-solution when all its uniforms are below
    pG. The good picks become per-row all-same and all-distinct flags one
    sub-block at a time, the bad picks are drawn and dropped, and the
    uniforms fill one reused buffer whose rows are ANDed into the flags:
    the kernel holds a few bytes per row, never a (rows, p) array. Noisy
    model (noisy=(m1, m2)): the picks merge into one relabeled index (goods
    0..m-1, bads m..N-1) whose solutions are the indices below m1 and those
    in [m, m + m2). That needs a good pick, a bad pick and a uniform per
    element, so the chunk keeps its good and bad picks and streams the
    uniforms; its chunk is capped at _NOISY_CHUNK_DRAWS picks, so those two
    int32 arrays take at most 16 MiB at any p. The cap is above
    _DRAW_CHUNK rows up to p = 8, so those streams keep their chunks.
    """
    size = 2**n
    chunk = _DRAW_CHUNK if noisy is None else max(1, min(_DRAW_CHUNK, _NOISY_CHUNK_DRAWS // p))
    block = max(1, _BLOCK_DRAWS // p)
    uniforms = np.empty((min(block, trials), p))
    count_same = 0
    count_diff = 0
    done = 0
    while done < trials:
        rows = min(chunk, trials - done)
        done += rows
        same = np.empty(rows, dtype=bool)
        distinct = np.empty(rows, dtype=bool)
        keep = np.ones(rows, dtype=bool)
        blocks = [slice(lo, min(lo + block, rows)) for lo in range(0, rows, block)]
        if noisy is None:
            for b in blocks:
                picks = rng.integers(0, m, size=(b.stop - b.start, p), dtype=np.int32)
                _same_distinct(picks, same[b], distinct[b])
            if size != m:
                for b in blocks:  # bad picks never solve; drawn for the stream
                    rng.integers(0, size - m, size=(b.stop - b.start, p), dtype=np.int32)
                for b in blocks:
                    u = uniforms[: b.stop - b.start]
                    rng.random(out=u)
                    _rows_and(u < pG, keep[b])
        else:
            m1, m2 = noisy
            good = rng.integers(0, m, size=(rows, p), dtype=np.int32)
            merged = rng.integers(0, size - m, size=(rows, p), dtype=np.int32)
            merged += m
            for b in blocks:
                u = uniforms[: b.stop - b.start]
                rng.random(out=u)
                picks = merged[b]
                np.copyto(picks, good[b], where=u < pG)
                solution = (picks < m1) | ((picks >= m) & (picks < m + m2))
                _rows_and(solution, keep[b])
                _same_distinct(picks, same[b], distinct[b])
        same &= keep
        distinct &= keep
        count_same += int(np.count_nonzero(same))
        count_diff += int(np.count_nonzero(distinct))
    return count_same, count_diff


def _coupon_draws_total(num_coupons, success_prob, episodes, rng):
    """(sum, sum of squares) of per-episode draw counts until full coverage.

    One draw succeeds with success_prob and then lands on a uniform coupon;
    this covers both the exact oracle (success_prob = pG, coupons = m) and
    the noisy one (success_prob = (m1/m) pG, coupons = m1).

    Each episode's coupons seen so far are a packed bitset of ceil(m/64)
    uint64 words, about m/8 bytes. The bits past the last coupon start set,
    so an episode is covered once every one of its words reads all ones.
    A round ORs each draw's bit into its word (a miss ORs in zero) and
    counts the words that just became full; covered episodes leave the
    round arrays, and each one adds its round number to the totals, since it
    drew once in every round so far.
    """
    if not (success_prob > 0.0):
        raise ValueError("coverage simulation diverges for success probability 0")
    if num_coupons == 0:
        return 0, 0
    words = -(-num_coupons // 64)
    tail = num_coupons - 64 * (words - 1)
    bits = np.zeros(episodes * words, dtype=np.uint64)
    bits[words - 1 :: words] = ((1 << 64) - 1) ^ ((1 << tail) - 1)
    # Per open episode: the offset of its first word, and how many words are full.
    first_word = np.arange(0, episodes * words, words)
    full_words = np.zeros(episodes, dtype=np.int64)
    total = 0
    total_sq = 0
    rounds = 0
    while first_word.size:
        rounds += 1
        if rounds > 50_000_000:
            raise RuntimeError("coupon-collector simulation failed to terminate")
        k = first_word.size
        hit = rng.random(k) < success_prob
        coupons = rng.integers(0, num_coupons, size=k)
        word = _BIT[coupons & 63]
        word *= hit
        slot = coupons >> 6
        slot += first_word
        old = bits[slot]
        word |= old
        bits[slot] = word
        now_full = np.flatnonzero((word == _FULL_WORD) & (old != _FULL_WORD))
        if now_full.size:
            full_words[now_full] += 1
            still_open = full_words < words
            covered = k - int(np.count_nonzero(still_open))
            if covered:
                total += rounds * covered
                total_sq += rounds * rounds * covered
                first_word = first_word[still_open]
                full_words = full_words[still_open]
    return total, total_sq


def monte_carlo_parallel_draws(
    model: ParallelSearchModel | NoisyOracleModel,
    p: int | None = None,
    trials: int = 100_000,
    rng: np.random.Generator | None = None,
    pG: float | None = None,
    cover_episodes: int | None = None,
) -> MonteCarloStats:
    """Simulate p-worker measurement rounds and tally the three collision and coverage statistics.

    For a ParallelSearchModel, p and pG default to the model's own fields.
    For a NoisyOracleModel both must be supplied, and "solution" means true
    solution (the m1 reachable tagged entries plus the m2 missed ones);
    coverage then collects the m1 reachable tagged solutions.
    cover_episodes defaults to trials.
    """
    if rng is None:
        raise ValueError("an explicit rng is required for reproducibility")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    episodes = trials if cover_episodes is None else int(cover_episodes)
    if episodes < 0:
        raise ValueError(f"cover_episodes must be >= 0, got {cover_episodes}")

    if isinstance(model, ParallelSearchModel):
        p_eff = model.p if p is None else int(p)
        pg_eff = model.pG if pG is None else float(pG)
        if model.m < 1:
            raise ValueError("Monte Carlo needs at least one good entry")
        count_same, count_diff = _tally(model.n, model.m, p_eff, pg_eff, trials, rng)
        cover_total, cover_sq = (
            _coupon_draws_total(model.m, pg_eff, episodes, rng) if episodes else (0, 0)
        )
    elif isinstance(model, NoisyOracleModel):
        if p is None or pG is None:
            raise ValueError("noisy-oracle Monte Carlo needs explicit p and pG")
        _check_pg(pG)
        count_same, count_diff = _tally(
            model.n, model.m, int(p), float(pG), trials, rng, noisy=(model.m1, model.m2)
        )
        success = (model.m1 / model.m) * float(pG)
        cover_total, cover_sq = (
            _coupon_draws_total(model.m1, success, episodes, rng) if episodes else (0, 0)
        )
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")

    return MonteCarloStats(
        trials=trials,
        count_all_same=count_same,
        count_all_different=count_diff,
        cover_episodes=episodes,
        cover_total_draws=cover_total,
        cover_total_sq_draws=cover_sq,
    )
