"""Closed-form worker-collision/coverage formulas and their Monte Carlo oracles."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from qrrt.cli import _analyze_grid
from qrrt.prob import (
    MonteCarloStats,
    NoisyOracleModel,
    ParallelSearchModel,
    aggregate_stats,
    expected_passes,
    expected_workers_all_solutions,
    expected_workers_noisy,
    harmonic,
    monte_carlo_batched,
    monte_carlo_parallel_draws,
    prob_all_different,
    prob_all_same,
    prob_all_same_noisy,
    prob_true_good,
)


def model(n=4, m=4, p=2, pG=1.0):
    return ParallelSearchModel(n=n, m=m, p=p, pG=pG)


# ---------------------------------------------------------------------------
# Model validation
# ---------------------------------------------------------------------------


def test_model_validation():
    with pytest.raises(ValueError):
        model(m=17)  # > 2^4
    with pytest.raises(ValueError):
        model(m=-1)
    with pytest.raises(ValueError):
        model(p=0)
    with pytest.raises(ValueError):
        model(pG=1.5)


def test_noisy_model_validation():
    with pytest.raises(ValueError):
        NoisyOracleModel(n=4, m=0, m1=0, m2=1)
    with pytest.raises(ValueError):
        NoisyOracleModel(n=4, m=16, m1=16, m2=0)
    with pytest.raises(ValueError):
        NoisyOracleModel(n=4, m=4, m1=5, m2=0)
    with pytest.raises(ValueError):
        NoisyOracleModel(n=4, m=4, m1=4, m2=13)  # m2 > 2^n - m


def test_noisy_model_derived_rates():
    noisy = NoisyOracleModel(n=8, m=16, m1=12, m2=8)
    assert noisy.false_positive_fraction == pytest.approx((16 - 12) / 16, abs=1e-15)
    assert noisy.false_negative_fraction == pytest.approx(8 / 240, abs=1e-15)


def test_harmonic_numbers():
    assert harmonic(1) == 1.0
    assert harmonic(3) == pytest.approx(1 + 0.5 + 1 / 3, abs=1e-15)
    assert harmonic(100) == pytest.approx(sum(1 / i for i in range(1, 101)), abs=1e-12)


# ---------------------------------------------------------------------------
# Collision probability (all same)
# ---------------------------------------------------------------------------


def test_all_same_single_solution_certain():
    assert prob_all_same(model(m=1, p=5, pG=1.0)) == 1.0


def test_all_same_two_solution_enumeration():
    # Two workers over two equally likely solutions: 4 outcome pairs, 2 agree.
    outcomes = list(itertools.product([0, 1], repeat=2))
    agree = sum(a == b for a, b in outcomes) / len(outcomes)
    assert prob_all_same(model(m=2, p=2, pG=1.0)) == pytest.approx(agree, abs=1e-15)


def test_all_same_frozen_anchor():
    assert prob_all_same(model(m=4, p=3, pG=0.9)) == pytest.approx(0.0455625, abs=1e-12)
    assert prob_all_same(model(m=4, p=3, pG=0.9)) == pytest.approx(0.9**3 / 16, abs=1e-15)


def test_all_same_rejects_zero_solutions():
    with pytest.raises(ValueError):
        prob_all_same(model(m=0, p=2, pG=1.0))


def test_all_same_monotone_in_m():
    vals = [prob_all_same(model(n=8, m=m, p=3, pG=0.9)) for m in range(2, 65)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# All different
# ---------------------------------------------------------------------------


def test_all_different_degenerate():
    assert prob_all_different(model(m=1, p=1, pG=1.0)) == 1.0


def test_all_different_two_solution_enumeration():
    assert prob_all_different(model(m=2, p=2, pG=1.0)) == pytest.approx(0.5, abs=1e-15)


def test_all_different_frozen_anchor():
    got = prob_all_different(model(n=4, m=8, p=3, pG=0.8))
    assert got == pytest.approx(0.8**3 * (8 * 7 * 6) / 8**3, abs=1e-15)
    assert got == pytest.approx(0.336, abs=1e-12)


def test_all_different_rejects_more_workers_than_solutions():
    with pytest.raises(ValueError):
        prob_all_different(model(m=2, p=3, pG=1.0))


def test_all_different_limit_is_joint_success_probability():
    got = prob_all_different(ParallelSearchModel(n=20, m=10**6, p=3, pG=0.85))
    assert got == pytest.approx(0.85**3, abs=1e-4)


def test_complementarity_at_two_workers_two_solutions():
    for pG in (0.3, 0.8, 1.0):
        m2 = model(m=2, p=2, pG=pG)
        assert prob_all_same(m2) + prob_all_different(m2) == pytest.approx(pG**2, abs=1e-15)


# ---------------------------------------------------------------------------
# Coverage expectation
# ---------------------------------------------------------------------------


def test_expected_workers_single_solution():
    assert expected_workers_all_solutions(model(m=1, pG=1.0)) == 1.0


def test_expected_workers_frozen_anchors():
    assert expected_workers_all_solutions(model(m=3, pG=1.0)) == pytest.approx(5.5, abs=1e-12)
    assert expected_workers_all_solutions(model(m=2, pG=0.5)) == pytest.approx(6.0, abs=1e-12)


def test_expected_workers_rejects_zero_success():
    with pytest.raises(ValueError):
        expected_workers_all_solutions(model(m=2, pG=0.0))


def test_expected_passes_divides_by_pool_width():
    m3 = model(m=3, pG=1.0)
    assert expected_passes(m3, 4) == pytest.approx(5.5 / 4, abs=1e-12)
    with pytest.raises(ValueError):
        expected_passes(m3, 0)


# ---------------------------------------------------------------------------
# Noisy oracle forms
# ---------------------------------------------------------------------------


def test_true_good_perfect_oracle_reduces():
    noisy = NoisyOracleModel(n=8, m=16, m1=16, m2=0)
    for pG in (0.3, 0.95):
        assert prob_true_good(noisy, pG) == pG


def test_true_good_frozen_anchor():
    noisy = NoisyOracleModel(n=8, m=16, m1=12, m2=8)
    expect = (12 / 16) * 0.95 + (8 / 240) * 0.05
    assert prob_true_good(noisy, 0.95) == pytest.approx(expect, abs=1e-15)
    assert prob_true_good(noisy, 0.95) == pytest.approx(0.7141666666666666, abs=1e-12)


def test_true_good_certain_amplification_never_measures_bad():
    noisy = NoisyOracleModel(n=8, m=16, m1=12, m2=8)
    assert prob_true_good(noisy, 1.0) == pytest.approx(12 / 16, abs=1e-15)


def test_all_same_noisy_reduces_to_clean_form():
    noisy = NoisyOracleModel(n=4, m=4, m1=4, m2=0)
    for p, pG in ((2, 0.9), (3, 0.7)):
        assert prob_all_same_noisy(noisy, p, pG) == prob_all_same(model(m=4, p=p, pG=pG))


def test_all_same_noisy_frozen_anchor():
    noisy = NoisyOracleModel(n=4, m=4, m1=3, m2=2)
    expect = 3 * (0.9 / 4) ** 2 + 2 * (0.1 / 12) ** 2
    assert prob_all_same_noisy(noisy, 2, 0.9) == pytest.approx(expect, abs=1e-15)
    assert prob_all_same_noisy(noisy, 2, 0.9) == pytest.approx(0.15201388888888888, abs=1e-12)


def test_all_same_noisy_certain_amplification():
    noisy = NoisyOracleModel(n=4, m=4, m1=3, m2=2)
    assert prob_all_same_noisy(noisy, 3, 1.0) == pytest.approx(3 * (1 / 4) ** 3, abs=1e-15)


def test_expected_workers_noisy_reduces_to_clean_form():
    noisy = NoisyOracleModel(n=4, m=4, m1=4, m2=0)
    assert expected_workers_noisy(noisy, 0.8) == expected_workers_all_solutions(
        model(m=4, pG=0.8)
    )


def test_expected_workers_noisy_frozen_anchor():
    noisy = NoisyOracleModel(n=4, m=4, m1=2, m2=0)
    assert expected_workers_noisy(noisy, 0.8) == pytest.approx(2 * 1.5 / (0.5 * 0.8), abs=1e-12)
    assert expected_workers_noisy(noisy, 0.8) == pytest.approx(7.5, abs=1e-12)


def test_expected_workers_noisy_rejects_zero_true_positives():
    noisy = NoisyOracleModel(n=4, m=4, m1=0, m2=2)
    with pytest.raises(ValueError):
        expected_workers_noisy(noisy, 0.8)


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------


def test_mc_requires_rng():
    with pytest.raises(ValueError):
        monte_carlo_parallel_draws(model(), trials=10)


def test_mc_single_solution_always_agrees(rng):
    stats = monte_carlo_parallel_draws(model(m=1, p=4, pG=1.0), trials=2000, rng=rng)
    assert stats.freq_all_same == 1.0


def test_mc_matches_enumerated_two_solution_case(rng):
    stats = monte_carlo_parallel_draws(model(m=2, p=2, pG=1.0), trials=100_000, rng=rng)
    assert abs(stats.freq_all_same - 0.5) < 3 * stats.se_all_same()
    assert abs(stats.freq_all_different - 0.5) < 3 * stats.se_all_different()


def test_mc_matches_closed_forms_small_grid(rng):
    for n, m, p, pG in ((4, 4, 3, 0.9), (8, 16, 2, 0.95), (4, 2, 2, 0.5)):
        mdl = model(n=n, m=m, p=p, pG=pG)
        stats = monte_carlo_parallel_draws(mdl, trials=100_000, rng=rng, cover_episodes=0)
        assert abs(stats.freq_all_same - prob_all_same(mdl)) < 3 * max(stats.se_all_same(), 1e-4)
        if p <= m:
            assert abs(stats.freq_all_different - prob_all_different(mdl)) < 3 * max(
                stats.se_all_different(), 1e-4
            )


def test_mc_cover_statistic_matches_expectation(rng):
    mdl = model(m=3, pG=1.0)
    stats = monte_carlo_parallel_draws(mdl, trials=1, rng=rng, cover_episodes=50_000)
    assert abs(stats.mean_workers_to_cover - 5.5) / 5.5 < 0.02


def test_mc_cover_with_failure_gate(rng):
    mdl = model(m=2, pG=0.5)
    stats = monte_carlo_parallel_draws(mdl, trials=1, rng=rng, cover_episodes=50_000)
    assert abs(stats.mean_workers_to_cover - 6.0) / 6.0 < 0.02


def test_mc_noisy_needs_explicit_parameters(rng):
    noisy = NoisyOracleModel(n=4, m=4, m1=3, m2=2)
    with pytest.raises(ValueError):
        monte_carlo_parallel_draws(noisy, trials=100, rng=rng)


def test_mc_noisy_true_good_frequency(rng):
    noisy = NoisyOracleModel(n=8, m=16, m1=12, m2=8)
    stats = monte_carlo_parallel_draws(noisy, p=1, trials=200_000, rng=rng, pG=0.95)
    closed = prob_true_good(noisy, 0.95)
    sigma = math.sqrt(closed * (1 - closed) / 200_000)
    assert abs(stats.freq_all_same - closed) < 3 * sigma


def test_mc_deterministic_given_seed():
    s1 = monte_carlo_parallel_draws(model(), trials=5000, rng=np.random.default_rng(9))
    s2 = monte_carlo_parallel_draws(model(), trials=5000, rng=np.random.default_rng(9))
    assert s1 == s2


def test_batched_aggregation_sums_counts(rng):
    parts = [
        monte_carlo_parallel_draws(model(), trials=2500, rng=np.random.default_rng(seed))
        for seed in range(4)
    ]
    total = aggregate_stats(parts)
    assert total.trials == 10_000
    assert total.count_all_same == sum(p.count_all_same for p in parts)
    assert total.cover_total_draws == sum(p.cover_total_draws for p in parts)


def test_batched_entry_point_matches_manual_aggregation():
    batched = monte_carlo_batched(model(), p=None, trials_per_batch=2500, batch_seeds=[3, 5, 8, 13])
    parts = [
        monte_carlo_parallel_draws(model(), trials=2500, rng=np.random.default_rng(seed))
        for seed in (3, 5, 8, 13)
    ]
    assert batched == aggregate_stats(parts)
    with pytest.raises(ValueError):
        monte_carlo_batched(model(), p=None, trials_per_batch=100, batch_seeds=[])


def test_stats_standard_errors_positive(rng):
    stats = monte_carlo_parallel_draws(model(m=4, p=2, pG=0.9), trials=20_000, rng=rng)
    assert stats.se_all_same() > 0
    assert stats.se_all_different() > 0
    assert stats.se_workers_to_cover() > 0


# ---------------------------------------------------------------------------
# Stream identity: the Monte Carlo kernels draw and tally exactly as pinned
# ---------------------------------------------------------------------------

# Each case runs both kernels (collision tally and coverage) from its own
# seeded stream. The pinned field tuples come from a literal per-cell tally
# and a full per-round coverage scan, so any change to the order or size of
# the draws, or to how they are counted, shows here.
_GRID_TRIALS = 20_000
_GRID_EPISODES = 2_000


def _grid_cases():
    cases = []
    for i, row in enumerate(_analyze_grid()):
        p = 1 if row.p is None else row.p
        if row.m1 is None:
            mdl = ParallelSearchModel(n=row.n, m=row.m, p=p, pG=row.pG)
            cases.append((f"grid{i}-{row.lemma_id}", mdl, {}, i))
        else:
            mdl = NoisyOracleModel(n=row.n, m=row.m, m1=row.m1, m2=row.m2)
            cases.append((f"grid{i}-{row.lemma_id}", mdl, {"p": p, "pG": row.pG}, i))
    return cases


_EDGE_CASES = [
    ("all-good", ParallelSearchModel(n=2, m=4, p=3, pG=1.0), {}),
    ("all-good-p5", ParallelSearchModel(n=3, m=8, p=5, pG=0.3), {}),
    ("one-worker", ParallelSearchModel(n=5, m=3, p=1, pG=0.7), {}),
    ("one-good", ParallelSearchModel(n=4, m=1, p=5, pG=0.9), {}),
    ("noisy-no-true-tagged", NoisyOracleModel(n=6, m=5, m1=0, m2=7), {"p": 3, "pG": 0.6, "cover_episodes": 0}),
    ("noisy-missed", NoisyOracleModel(n=5, m=6, m1=4, m2=20), {"p": 5, "pG": 0.5}),
    ("noisy-exact", NoisyOracleModel(n=4, m=3, m1=3, m2=0), {"p": 2, "pG": 0.8}),
    ("noisy-one-worker", NoisyOracleModel(n=4, m=3, m1=2, m2=5), {"p": 1, "pG": 0.4}),
]


def _stream_stats(mdl, kwargs, seed):
    kwargs = {"trials": _GRID_TRIALS, "cover_episodes": _GRID_EPISODES, **kwargs}
    rng = np.random.default_rng(np.random.SeedSequence(entropy=2024, spawn_key=(seed,)))
    return dataclasses.astuple(monte_carlo_parallel_draws(mdl, rng=rng, **kwargs))


_PINNED_STATS = {
    "grid0-L1": (20000, 5017, 14983, 2000, 16839, 171711),
    "grid1-L2": (20000, 4961, 15039, 2000, 16518, 164688),
    "grid2-L1": (20000, 1245, 7393, 2000, 16826, 169538),
    "grid3-L2": (20000, 1285, 7518, 2000, 16624, 167630),
    "grid4-L1": (20000, 0, 0, 2000, 16701, 170289),
    "grid5-L1": (20000, 1119, 17362, 2000, 112680, 7146898),
    "grid6-L2": (20000, 1169, 17361, 2000, 112243, 7008183),
    "grid7-L1": (20000, 63, 14654, 2000, 113284, 7168868),
    "grid8-L2": (20000, 62, 14577, 2000, 111477, 6946999),
    "grid9-L1": (20000, 0, 1820, 2000, 114042, 7343552),
    "grid10-L2": (20000, 0, 1788, 2000, 113067, 7207731),
    "grid11-L3": (20000, 20000, 20000, 2000, 11059, 74209),
    "grid12-L3": (20000, 10197, 10197, 2000, 12057, 100033),
    "grid13-L3": (20000, 17985, 17985, 2000, 47991, 1342285),
    "grid14-L4": (20000, 14253, 14253, 2000, 104921, 6248325),
    "grid15-L5": (20000, 883, 9361, 2000, 104206, 6186662),
    "grid16-L5": (20000, 55, 5499, 2000, 104664, 6278502),
    "grid17-L6": (20000, 12172, 12172, 2000, 124614, 8872174),
    "all-good": (20000, 1298, 7422, 2000, 16804, 169918),
    "all-good-p5": (20000, 10, 4091, 2000, 147212, 12958032),
    "one-worker": (20000, 13916, 13916, 2000, 15799, 158603),
    "one-good": (20000, 11804, 0, 2000, 2204, 2662),
    "noisy-no-true-tagged": (20000, 0, 2, 0, 0, 0),
    "noisy-missed": (20000, 0, 1880, 2000, 49415, 1571657),
    "noisy-exact": (20000, 4303, 8471, 2000, 13693, 118441),
    "noisy-one-worker": (20000, 9915, 9915, 2000, 22628, 382272),
    "chunked": (20000, 263, 1619, 0, 0, 0),
}


_STREAM_CASES = _grid_cases() + [(name, mdl, kw, 100 + i) for i, (name, mdl, kw) in enumerate(_EDGE_CASES)]


@pytest.mark.parametrize("name,mdl,kwargs,seed", _STREAM_CASES, ids=[case[0] for case in _STREAM_CASES])
def test_mc_replays_pinned_streams(name, mdl, kwargs, seed):
    assert _stream_stats(mdl, kwargs, seed) == _PINNED_STATS[name]


def test_mc_tally_across_chunk_boundaries(monkeypatch):
    # 20,000 trials in chunks of 7,000: two full chunks and a partial one.
    monkeypatch.setattr("qrrt.prob._DRAW_CHUNK", 7_000)
    mdl = ParallelSearchModel(n=4, m=4, p=3, pG=0.6)
    assert _stream_stats(mdl, {"cover_episodes": 0}, 200) == _PINNED_STATS["chunked"]
