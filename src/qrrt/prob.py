"""Closed-form statistics of parallel amplified searches, with Monte Carlo checks.

Setting: a database of N = 2^n entries contains m marked ("good") entries,
and an amplified measurement returns a good entry with probability pG
(uniform among the m goods), otherwise a bad entry (uniform among the
N - m bads). p workers measure independently. The closed forms:

* all workers return the same good entry:      pG^p * m^(1-p)
* all workers return pairwise-distinct goods:  pG^p * m! / (m^p (m-p)!)
* expected workers until every good has been
  returned at least once (coupon collection):  m * H_m / pG
  where H_m is the m-th harmonic number; dividing by a pool size p2 gives
  the expected number of pool passes.

Noisy-oracle variant: the tagging oracle mislabels entries, so only m1 of
the m tagged-good entries are true solutions while m2 of the untagged
entries are missed solutions. With q = (m - m1)/m the fraction of false
positives and v = m2/(N - m) the fraction of false negatives:

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
every closed form above has an independent numerical check. The tallies
read each round's draws once sorted (all-same, all-distinct and, for the
exact oracle, all-solution follow from the sorted row's ends and adjacent
pairs), and coverage keeps a per-episode count of distinct coupons seen, so
an episode's draw count is the round in which that count reaches the
number of coupons. How the draws are tallied never changes which random
numbers are drawn, and ``tests/test_prob.py`` pins seeded statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qsim import MAX_DATABASE_QUBITS

__all__ = [
    "ParallelSearchModel",
    "NoisyOracleModel",
    "MonteCarloStats",
    "prob_all_same",
    "prob_all_different",
    "expected_workers_all_solutions",
    "expected_passes",
    "prob_true_good",
    "prob_all_same_noisy",
    "expected_workers_noisy",
    "harmonic",
    "monte_carlo_parallel_draws",
    "monte_carlo_batched",
    "aggregate_stats",
]

@dataclass(frozen=True)
class ParallelSearchModel:
    """Exact-oracle parallel search: n qubits, m good entries, p workers, pG."""

    n: int
    m: int
    p: int
    pG: float

    def __post_init__(self):
        if not (1 <= self.n <= MAX_DATABASE_QUBITS):
            raise ValueError(f"n must be in [1, {MAX_DATABASE_QUBITS}], got {self.n}")
        if not (0 <= self.m <= 2**self.n):
            raise ValueError(f"m must be in [0, 2^{self.n}], got {self.m}")
        if not (self.p >= 1):
            raise ValueError(f"p must be >= 1, got {self.p}")
        if not (0.0 <= self.pG <= 1.0):
            raise ValueError(f"pG must be in [0, 1], got {self.pG}")


@dataclass(frozen=True)
class NoisyOracleModel:
    """Mislabeling oracle: m1 true solutions among the m tagged, m2 missed ones."""

    n: int
    m: int
    m1: int
    m2: int

    def __post_init__(self):
        if not (1 <= self.n <= MAX_DATABASE_QUBITS):
            raise ValueError(f"n must be in [1, {MAX_DATABASE_QUBITS}], got {self.n}")
        if not (0 < self.m < 2**self.n):
            raise ValueError(f"m must satisfy 0 < m < 2^{self.n}, got {self.m}")
        if not (0 <= self.m1 <= self.m):
            raise ValueError(f"m1 must be in [0, m={self.m}], got {self.m1}")
        if not (0 <= self.m2 <= 2**self.n - self.m):
            raise ValueError(f"m2 must be in [0, 2^n - m], got {self.m2}")

    @property
    def false_positive_fraction(self) -> float:
        """q: fraction of tagged entries that are not true solutions, (m - m1)/m."""
        return (self.m - self.m1) / self.m

    @property
    def false_negative_fraction(self) -> float:
        """v: fraction of untagged entries that are missed solutions, m2/(N - m)."""
        return self.m2 / (2**self.n - self.m)


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


def expected_passes(model: ParallelSearchModel, p2: int) -> float:
    """Expected full passes of a p2-wide pool until coverage."""
    if not (p2 >= 1):
        raise ValueError(f"pool width p2 must be >= 1, got {p2}")
    return expected_workers_all_solutions(model) / p2


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


@dataclass(frozen=True)
class MonteCarloStats:
    """Raw counts plus derived frequencies; counts make batches summable."""

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


def _draw_chunk(n, m, pG, rows, p, rng):
    """(rows, p) relabeled indices: goods are 0..m-1, bads are m..N-1."""
    size = 2**n
    good_idx = rng.integers(0, m, size=(rows, p))
    if size == m:
        return good_idx
    bad_idx = m + rng.integers(0, size - m, size=(rows, p))
    take_good = rng.random((rows, p)) < pG
    return np.where(take_good, good_idx, bad_idx)


def _tally(n, m, p, pG, trials, rng, sol_good, sol_bad_lo, sol_bad_hi):
    """Count all-same-solution and all-distinct-solution rows over the trials.

    Solutions are indices < sol_good plus indices in [sol_bad_lo, sol_bad_hi);
    the plain model passes sol_good = m and an empty bad interval. Each row
    is sorted once: it is all-same when its ends agree, all-distinct when no
    adjacent pair does, and (plain model) all-solution when its largest
    index is below sol_good.
    """
    count_same = 0
    count_diff = 0
    done = 0
    while done < trials:
        rows = min(_DRAW_CHUNK, trials - done)
        srt = np.sort(_draw_chunk(n, m, pG, rows, p, rng), axis=1)
        if sol_bad_lo == sol_bad_hi:
            all_sol = srt[:, -1] < sol_good
        else:
            all_sol = ((srt < sol_good) | ((srt >= sol_bad_lo) & (srt < sol_bad_hi))).all(axis=1)
        count_same += int(np.count_nonzero(all_sol & (srt[:, 0] == srt[:, -1])))
        for j in range(1, p):
            all_sol = all_sol & (srt[:, j] != srt[:, j - 1])
        count_diff += int(np.count_nonzero(all_sol))
        done += rows
    return count_same, count_diff


def _coupon_draws_total(num_coupons, success_prob, episodes, rng):
    """(sum, sum of squares) of per-episode draw counts until full coverage.

    One draw succeeds with success_prob and then lands on a uniform coupon;
    this covers both the exact oracle (success_prob = pG, coupons = m) and
    the noisy one (success_prob = (m1/m) pG, coupons = m1).
    """
    if not (success_prob > 0.0):
        raise ValueError("coverage simulation diverges for success probability 0")
    if num_coupons == 0:
        return 0, 0
    # An episode completes in the round its count of distinct coupons reaches
    # num_coupons, and it draws once in every round up to that one.
    remaining = np.arange(episodes)
    seen = np.zeros((episodes, num_coupons), dtype=bool)
    distinct = np.zeros(episodes, dtype=np.int64)
    draws = np.zeros(episodes, dtype=np.int64)
    rounds = 0
    while remaining.size:
        rounds += 1
        if rounds > 50_000_000:
            raise RuntimeError("coupon-collector simulation failed to terminate")
        k = remaining.size
        hit = rng.random(k) < success_prob
        coupons = rng.integers(0, num_coupons, size=k)
        rows, coupons = remaining[hit], coupons[hit]
        new = ~seen[rows, coupons]
        rows, coupons = rows[new], coupons[new]
        seen[rows, coupons] = True
        distinct[rows] += 1
        complete = distinct[rows] == num_coupons
        if complete.any():
            draws[rows[complete]] = rounds
            remaining = remaining[distinct[remaining] < num_coupons]
    return int(draws.sum()), int(np.sum(draws * draws))


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
        count_same, count_diff = _tally(
            model.n, model.m, p_eff, pg_eff, trials, rng, model.m, 0, 0
        )
        cover_total, cover_sq = (
            _coupon_draws_total(model.m, pg_eff, episodes, rng) if episodes else (0, 0)
        )
    elif isinstance(model, NoisyOracleModel):
        if p is None or pG is None:
            raise ValueError("noisy-oracle Monte Carlo needs explicit p and pG")
        _check_pg(pG)
        count_same, count_diff = _tally(
            model.n, model.m, int(p), float(pG), trials, rng,
            model.m1, model.m, model.m + model.m2,
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


def aggregate_stats(parts: list[MonteCarloStats]) -> MonteCarloStats:
    """Sum raw counts across batches; deterministic for a fixed batch list."""
    if not parts:
        raise ValueError("nothing to aggregate")
    return MonteCarloStats(
        trials=sum(s.trials for s in parts),
        count_all_same=sum(s.count_all_same for s in parts),
        count_all_different=sum(s.count_all_different for s in parts),
        cover_episodes=sum(s.cover_episodes for s in parts),
        cover_total_draws=sum(s.cover_total_draws for s in parts),
        cover_total_sq_draws=sum(s.cover_total_sq_draws for s in parts),
    )


def monte_carlo_batched(
    model: ParallelSearchModel | NoisyOracleModel,
    p: int | None,
    trials_per_batch: int,
    batch_seeds: list[int],
    pG: float | None = None,
    cover_episodes_per_batch: int | None = None,
) -> MonteCarloStats:
    """Independently seeded batches aggregated by summing counts.

    The result depends only on (model, p, trials_per_batch, batch_seeds), so
    repeated invocations reproduce byte-identical statistics.
    """
    if not batch_seeds:
        raise ValueError("batch_seeds must be non-empty")
    parts = [
        monte_carlo_parallel_draws(
            model,
            p=p,
            trials=trials_per_batch,
            rng=np.random.default_rng(seed),
            pG=pG,
            cover_episodes=cover_episodes_per_batch,
        )
        for seed in batch_seeds
    ]
    return aggregate_stats(parts)
