"""Closed-form worker-collision/coverage formulas and their Monte Carlo oracles."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qrrt import prob as prob_module
from qrrt.cli import _analyze_grid
from qrrt.prob import (
    MonteCarloStats,
    NoisyOracleModel,
    ParallelSearchModel,
    expected_workers_all_solutions,
    expected_workers_noisy,
    harmonic,
    _tally,
    monte_carlo_parallel_draws,
    prob_all_different,
    prob_all_same,
    prob_all_same_noisy,
    prob_true_good,
    _coupon_draws_total,
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
    # Row widths on both sides of the column-compare / sort split of the collision tally.
    ("plain-p4", ParallelSearchModel(n=5, m=6, p=4, pG=0.85), {}),
    ("plain-p5", ParallelSearchModel(n=5, m=7, p=5, pG=0.9), {}),
    ("plain-p12", ParallelSearchModel(n=7, m=24, p=12, pG=0.97), {}),
    ("pg-zero", ParallelSearchModel(n=4, m=3, p=2, pG=0.0), {"cover_episodes": 0}),
    ("pg-one", ParallelSearchModel(n=5, m=4, p=3, pG=1.0), {}),
    ("all-good-p2", ParallelSearchModel(n=3, m=8, p=2, pG=0.5), {}),
    ("all-good-p12", ParallelSearchModel(n=4, m=16, p=12, pG=0.6), {}),
    ("noisy-no-true-tagged-p5", NoisyOracleModel(n=6, m=5, m1=0, m2=40), {"p": 5, "pG": 0.3, "cover_episodes": 0}),
    ("noisy-one-worker-exact", NoisyOracleModel(n=4, m=5, m1=3, m2=0), {"p": 1, "pG": 0.7}),
    ("noisy-p4", NoisyOracleModel(n=5, m=8, m1=6, m2=10), {"p": 4, "pG": 0.8}),
    ("noisy-p12", NoisyOracleModel(n=6, m=20, m1=16, m2=30), {"p": 12, "pG": 0.9}),
    # Coverage bitsets of one word, one full word, and one or more words plus a partial one.
    ("cover-m1", ParallelSearchModel(n=3, m=1, p=1, pG=0.35), {"trials": 1000}),
    ("cover-m63", ParallelSearchModel(n=8, m=63, p=1, pG=0.9), {"trials": 1000}),
    ("cover-m64", ParallelSearchModel(n=8, m=64, p=1, pG=0.9), {"trials": 1000}),
    ("cover-m65", ParallelSearchModel(n=8, m=65, p=1, pG=0.9), {"trials": 1000}),
    ("cover-m130", ParallelSearchModel(n=8, m=130, p=1, pG=0.75), {"trials": 1000}),
    ("noisy-cover-m64", NoisyOracleModel(n=8, m=80, m1=64, m2=3), {"p": 2, "pG": 0.9, "trials": 1000}),
    # One row past a 250,000-row draw chunk.
    ("over-one-chunk", ParallelSearchModel(n=4, m=5, p=3, pG=0.7), {"trials": 250_001, "cover_episodes": 0}),
    (
        "noisy-over-one-chunk",
        NoisyOracleModel(n=4, m=5, m1=4, m2=2),
        {"p": 2, "pG": 0.8, "trials": 250_001, "cover_episodes": 0},
    ),
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
    "plain-p4": (20000, 42, 2996, 2000, 34724, 713254),
    "plain-p5": (20000, 6, 1733, 2000, 40155, 947575),
    "plain-p12": (20000, 0, 483, 2000, 185792, 18953814),
    "pg-zero": (20000, 0, 0, 0, 0, 0),
    "pg-one": (20000, 1256, 7495, 2000, 16780, 170908),
    "all-good-p2": (20000, 2589, 17411, 2000, 85703, 4333169),
    "all-good-p12": (20000, 0, 76, 2000, 177250, 17817042),
    "noisy-no-true-tagged-p5": (20000, 0, 390, 0, 0, 0),
    "noisy-one-worker-exact": (20000, 8427, 8427, 2000, 26207, 461907),
    "noisy-p4": (20000, 10, 1735, 2000, 48612, 1422380),
    "noisy-p12": (20000, 0, 13, 2000, 151167, 12861081),
    "cover-m1": (1000, 345, 345, 2000, 5576, 25128),
    "cover-m63": (1000, 902, 902, 2000, 657664, 231121674),
    "cover-m64": (1000, 908, 908, 2000, 670088, 239270478),
    "cover-m65": (1000, 887, 887, 2000, 686935, 251350525),
    "cover-m130": (1000, 739, 739, 2000, 1882064, 1864603000),
    "noisy-cover-m64": (1000, 8, 544, 2000, 840183, 379028737),
    "over-one-chunk": (250001, 3559, 41084, 0, 0, 0),
    "noisy-over-one-chunk": (250001, 25740, 88392, 0, 0, 0),
    "chunked": (20000, 263, 1619, 0, 0, 0),
}


_STREAM_CASES = _grid_cases() + [(name, mdl, kw, 100 + i) for i, (name, mdl, kw) in enumerate(_EDGE_CASES)]


@pytest.mark.parametrize("name,mdl,kwargs,seed", _STREAM_CASES, ids=[case[0] for case in _STREAM_CASES])
def test_mc_replays_pinned_streams(name, mdl, kwargs, seed):
    assert _stream_stats(mdl, kwargs, seed) == _PINNED_STATS[name]


@pytest.mark.parametrize("column_max_p", [1, 64])
def test_mc_tally_paths_agree(monkeypatch, column_max_p):
    # Every row width through the sort path alone, then through column compares alone.
    monkeypatch.setattr("qrrt.prob._COLUMN_MAX_P", column_max_p)
    for name, mdl, kwargs, seed in _STREAM_CASES:
        got = _stream_stats(mdl, {**kwargs, "cover_episodes": 0}, seed)
        assert got[:3] == _PINNED_STATS[name][:3], name


def test_mc_tally_across_chunk_boundaries(monkeypatch):
    # 20,000 trials in chunks of 7,000: two full chunks and a partial one.
    monkeypatch.setattr("qrrt.prob._DRAW_CHUNK", 7_000)
    mdl = ParallelSearchModel(n=4, m=4, p=3, pG=0.6)
    assert _stream_stats(mdl, {"cover_episodes": 0}, 200) == _PINNED_STATS["chunked"]


def _case_width(mdl, kwargs):
    return kwargs.get("p", getattr(mdl, "p", None))


@pytest.mark.parametrize("block_rows", [1, 3, 7])
def test_mc_tally_sub_blocks_keep_the_stream(monkeypatch, block_rows):
    # Sub-blocks of 1, 3 and 7 rows split the draws at other places than the
    # default 2^16 draws, and 400-row chunks add chunk ends inside the first
    # 1,000 trials. Row-sized sub-blocks cost a Python round trip a row, so
    # each case runs 1,000 trials against the default sub-blocks here; the
    # pinned full-size figures are checked with odd sub-blocks below.
    monkeypatch.setattr("qrrt.prob._DRAW_CHUNK", 400)
    default = prob_module._BLOCK_DRAWS
    for name, mdl, kwargs, seed in _STREAM_CASES:
        case = {**kwargs, "trials": min(kwargs.get("trials", _GRID_TRIALS), 1000), "cover_episodes": 0}
        monkeypatch.setattr("qrrt.prob._BLOCK_DRAWS", default)
        want = _stream_stats(mdl, case, seed)
        monkeypatch.setattr("qrrt.prob._BLOCK_DRAWS", block_rows * _case_width(mdl, kwargs))
        assert _stream_stats(mdl, case, seed) == want, name


def test_mc_replays_pinned_streams_in_odd_sub_blocks(monkeypatch):
    # 1,009-row sub-blocks: at the default size a 20,000-trial case of width
    # 2 or 3 fits in one sub-block, so this is where those cases split.
    for name, mdl, kwargs, seed in _STREAM_CASES:
        monkeypatch.setattr("qrrt.prob._BLOCK_DRAWS", 1009 * _case_width(mdl, kwargs))
        got = _stream_stats(mdl, {**kwargs, "cover_episodes": 0}, seed)
        assert got[:3] == _PINNED_STATS[name][:3], name


def test_mc_plain_tally_memory_is_bounded():
    # One 250,000-row chunk at p = 16 used to hold (rows, p) arrays of 8-byte
    # picks and uniforms, a traced peak of about 65 MiB; the streamed tally
    # keeps a few bytes per row.
    rng = np.random.default_rng(np.random.SeedSequence(entropy=2024, spawn_key=(300,)))
    tracemalloc.start()
    try:
        counts = _tally(10, 512, 16, 0.99, 250_000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == (0, 168263)
    assert peak < 8 * 2**20


def test_mc_noisy_tally_memory_is_bounded():
    # The noisy tally holds its chunk's good and bad int32 picks. A 250,000-row
    # chunk at p = 64 would hold 122 MiB of them; a chunk is capped at 2^21
    # picks, 16 MiB, whatever p is.
    rng = np.random.default_rng(np.random.SeedSequence(entropy=2024, spawn_key=(301,)))
    tracemalloc.start()
    try:
        counts = _tally(14, 4096, 64, 0.999, 250_000, rng, noisy=(4000, 100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert counts == (0, 30913)


class _SweepStream:
    """Stand-in rng for coverage: every draw hits, and each round gives
    episode e the coupon (round + e) mod m, so all episodes cover in round m."""

    def __init__(self):
        self.round = 0

    def random(self, k):
        self.round += 1
        return np.zeros(k)

    def integers(self, low, high, size):
        return (self.round + np.arange(size)) % high


def test_coverage_bitset_memory_is_bounded():
    # 8,000 episodes of 4,096 coupons: one byte per coupon would hold 31.2 MiB.
    # A seeded generator takes about 40,000 rounds to cover; the sweep takes
    # 4,096 and holds the same bitset.
    tracemalloc.start()
    try:
        totals = _coupon_draws_total(4096, 0.9, 8000, _SweepStream())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert totals == (4096 * 8000, 4096**2 * 8000)
    assert peak < 8 * 2**20
