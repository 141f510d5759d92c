"""Exact amplitude-amplification simulation: statevector vs two-level closed form."""

import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import wilson_hilferty_chi2_quantile

from qrrt import qsim
from qrrt.qsim import (
    MAX_DATABASE_QUBITS,
    AmplifiedState,
    amplify,
    good_probability,
    grover_iterate,
    init_uniform,
    measure,
    optimal_iterations,
)


def good_mass(state):
    """Born-rule probability on the good indices."""
    return float(np.sum(state.amplitudes[state.good_mask] ** 2))


def mask(n, good_indices):
    out = np.zeros(2**n, dtype=bool)
    out[list(good_indices)] = True
    return out


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def test_init_n1_amplitudes():
    s = init_uniform(1, mask(1, [0]))
    assert np.allclose(s.amplitudes, [0.70710678, 0.70710678], atol=1e-8)
    assert s.oracle_calls == 0


def test_init_n8_amplitudes():
    s = init_uniform(8, mask(8, range(16)))
    assert s.amplitudes.shape == (256,)
    assert np.all(s.amplitudes == 0.0625)


def test_init_n12_normalized():
    s = init_uniform(12, mask(12, [7]))
    assert abs(np.sum(s.amplitudes**2) - 1.0) < 1e-12


def test_init_rejects_bad_n():
    with pytest.raises(ValueError):
        init_uniform(0, np.zeros(1, dtype=bool))
    with pytest.raises(ValueError):
        init_uniform(MAX_DATABASE_QUBITS + 1, np.zeros(2, dtype=bool))


def test_init_rejects_wrong_mask_length():
    with pytest.raises(ValueError):
        init_uniform(3, np.zeros(7, dtype=bool))


# ---------------------------------------------------------------------------
# Iteration
# ---------------------------------------------------------------------------


def test_exact_four_element_search():
    # Single iteration over 4 entries lands the full amplitude on the good
    # index: textbook exact case.
    s = amplify(init_uniform(2, mask(2, [2])), 1)
    expect = np.zeros(4)
    expect[2] = 1.0
    assert np.allclose(s.amplitudes, expect, atol=1e-12)
    assert s.oracle_calls == 1


def test_all_good_iteration_preserves_unit_probability():
    s = init_uniform(3, mask(3, range(8)))
    s = grover_iterate(s)
    assert good_mass(s) == pytest.approx(1.0, abs=1e-12)


def test_quarter_good_single_iteration_is_certain():
    # m/N = 1/4 means theta = pi/6 and sin^2(3*theta) = 1.
    s = amplify(init_uniform(8, mask(8, range(64))), 1)
    assert good_mass(s) == pytest.approx(1.0, abs=1e-12)
    assert good_probability(8, 64, 1) == pytest.approx(1.0, abs=1e-15)


def test_zero_good_iteration_is_counted_noop():
    s = init_uniform(4, mask(4, []))
    before = s.amplitudes.copy()
    s = grover_iterate(s)
    assert np.array_equal(s.amplitudes, before)
    assert s.oracle_calls == 1


def test_normalization_preserved_over_random_iterations(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 2**n + 1))
        good = rng.choice(2**n, size=m, replace=False) if m else []
        s = grover_iterate(init_uniform(n, mask(n, good)))
        assert abs(np.sum(s.amplitudes**2) - 1.0) < 1e-10


def test_two_level_structure_preserved(rng):
    s = init_uniform(6, mask(6, rng.choice(64, size=10, replace=False)))
    for _ in range(25):
        s = grover_iterate(s)
        goods = s.amplitudes[s.good_mask]
        bads = s.amplitudes[~s.good_mask]
        assert goods.max() - goods.min() < 1e-12
        assert bads.max() - bads.min() < 1e-12


def test_amplify_counts_oracle_calls():
    s = amplify(init_uniform(5, mask(5, [1, 2])), 7)
    assert s.oracle_calls == 7


def _iterate(s, k):
    for _ in range(k):
        s = grover_iterate(s)
    return s


def test_amplify_matches_iterated_statevector(rng):
    # amplify evolves the class means in closed form; the literal
    # statevector iteration is the reference, on uniform starts and on
    # arbitrary real states that are not two-level.
    for case in range(300):
        n = int(rng.integers(1, 11))
        size = 2**n
        m = int(rng.choice([0, 1, int(rng.integers(0, size + 1)), size - 1, size]))
        good = rng.choice(size, size=m, replace=False) if m else []
        s = init_uniform(n, mask(n, good))
        if case % 2:
            amps = rng.normal(size=size)
            s = AmplifiedState(n=n, amplitudes=amps / np.linalg.norm(amps), good_mask=s.good_mask)
        k = int(rng.integers(0, 41))
        got, ref = amplify(s, k), _iterate(s, k)
        assert np.max(np.abs(got.amplitudes - ref.amplitudes)) <= 1e-12
        assert got.oracle_calls == ref.oracle_calls == k
        a, b = int(rng.integers(0, 21)), int(rng.integers(0, 21))
        split, whole = amplify(amplify(s, a), b), amplify(s, a + b)
        assert np.max(np.abs(split.amplitudes - whole.amplitudes)) <= 1e-12
        assert split.oracle_calls == whole.oracle_calls


# ---------------------------------------------------------------------------
# Closed form and iteration count
# ---------------------------------------------------------------------------


def test_good_probability_zero_iterations_is_uniform_mass():
    assert good_probability(4, 3, 0) == pytest.approx(3 / 16, abs=1e-15)


def test_good_probability_exact_four_element_value():
    assert good_probability(2, 1, 1) == pytest.approx(1.0, abs=1e-15)


def test_good_probability_single_solution_optimal():
    # sin^2(25 * arcsin(1/16)) for the 256-entry single-solution search.
    theta = math.asin(math.sqrt(1 / 256))
    expect = math.sin(25 * theta) ** 2
    assert good_probability(8, 1, 12) == pytest.approx(expect, abs=1e-15)
    assert expect == pytest.approx(0.999947, abs=5e-7)


def test_optimal_iterations_known_values():
    assert optimal_iterations(8, 64) == 1
    assert optimal_iterations(8, 1) == 12
    assert optimal_iterations(2, 1) == 1
    assert optimal_iterations(8, 256) == 0
    assert optimal_iterations(8, 0) == 0


def test_optimal_iterations_floor_vs_sqrt_approximation():
    # The sqrt approximation pi/4 * sqrt(N/m) suggests 1.571 at N=256, m=64;
    # the exact-angle floor gives 1 and achieves unit probability, while 2
    # iterations would collapse to 0.25.
    assert optimal_iterations(8, 64) == 1
    assert good_probability(8, 64, 2) == pytest.approx(0.25, abs=1e-12)


def test_optimal_iterations_maximizes_up_to_first_peak():
    # The rotation angle (2k+1)theta grows past pi/2 and wraps, so very large
    # k can score higher by aliasing; the stopping rule targets the first
    # peak (fewest oracle calls). Up to half-full databases the floor formula
    # is the exact argmax over that window, checked by brute force.
    for n in (4, 6, 8):
        big_n = 2**n
        for m in range(1, big_n // 2 + 1):
            theta = math.asin(math.sqrt(m / big_n))
            k_star = optimal_iterations(n, m)
            first_peak = max(1, math.floor(math.pi / (4 * theta)))
            assert k_star == first_peak
            best = max(range(0, first_peak + 1), key=lambda k: good_probability(n, m, k))
            assert good_probability(n, m, k_star) >= good_probability(n, m, best) - 1e-12


def test_minimum_one_iteration_trades_probability_above_half_full():
    # Past half full the mandated at-least-one iteration overshoots pi/2 and
    # scores below the unamplified m/2^n; the cost is bounded and accepted.
    for n in (4, 8):
        big_n = 2**n
        for m in range(big_n // 2 + 1, big_n):
            assert optimal_iterations(n, m) == 1
            assert good_probability(n, m, 1) < m / big_n


def test_iterating_past_first_peak_can_alias_higher():
    # Wraparound example fixing the first-peak convention: at 16 entries with
    # 6 good, k=3 aliases to a higher probability than the first peak at k=1,
    # at triple the oracle cost.
    assert optimal_iterations(4, 6) == 1
    assert good_probability(4, 6, 3) > good_probability(4, 6, 1)


def test_optimal_iterations_at_least_one_when_amplifiable():
    for m in (200, 255):
        assert optimal_iterations(8, m) == 1


def test_optimal_iterations_rejects_bad_m():
    with pytest.raises(ValueError):
        optimal_iterations(4, -1)
    with pytest.raises(ValueError):
        optimal_iterations(4, 17)


# ---------------------------------------------------------------------------
# Two-level vs statevector equivalence
# ---------------------------------------------------------------------------


def test_statevector_matches_closed_form_grid(rng):
    for n in (2, 4, 6):
        big_n = 2**n
        for m in (0, 1, big_n // 4, big_n // 2, big_n - 1, big_n):
            good = rng.choice(big_n, size=m, replace=False) if m else []
            s = init_uniform(n, mask(n, good))
            for k in range(12):
                assert good_mass(s) == pytest.approx(
                    good_probability(n, m, k), abs=1e-10
                )
                s = grover_iterate(s)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def test_measure_point_mass_certain(rng):
    s = amplify(init_uniform(2, mask(2, [3])), 1)
    draws = {measure(s, rng) for _ in range(100)}
    assert draws == {3}


def test_measure_exact_four_element_frequency(rng):
    s = amplify(init_uniform(2, mask(2, [1])), 1)
    hits = sum(measure(s, rng) == 1 for _ in range(10_000))
    assert hits == 10_000


def test_measure_uniform_chi_square(rng):
    s = init_uniform(8, mask(8, [0]))
    counts = np.bincount([measure(s, rng) for _ in range(100_000)], minlength=256)
    expected = 100_000 / 256
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # Upper z=3.09 (about the 0.1% tail) multinomial bound, 255 dof.
    assert chi2 < wilson_hilferty_chi2_quantile(255, 3.09)


def test_measure_zero_good_state_returns_valid_index(rng):
    s = grover_iterate(init_uniform(3, mask(3, [])))
    for _ in range(50):
        assert 0 <= measure(s, rng) < 8


def test_measure_does_not_mutate_state(rng):
    s = amplify(init_uniform(4, mask(4, [5])), 2)
    before = s.amplitudes.copy()
    measure(s, rng)
    assert np.array_equal(s.amplitudes, before)


def _measure_rebuilding_cdf(state, rng):
    """Born-rule sample that builds the CDF afresh on every call."""
    probs = state.amplitudes**2
    cdf = np.cumsum(probs)
    u = rng.random() * cdf[-1]
    idx = int(np.searchsorted(cdf, u, side="right"))
    return min(idx, probs.shape[0] - 1)


def test_repeated_measure_matches_a_cdf_rebuilt_per_call(rng):
    # A pool measures one state p times; every call after the first reuses
    # the cached CDF and must pick what a rebuilt CDF picks, bit for bit,
    # also when draws alternate between states, which rebuilds the cache.
    for n in [*range(1, 17), *range(1, 17)]:
        good = mask(n, rng.choice(2**n, size=int(rng.integers(0, 2**n + 1)), replace=False))
        amps = rng.standard_normal(2**n)
        uniform = init_uniform(n, good)
        amplified = amplify(init_uniform(n, good), int(rng.integers(1, 20)))
        states = [
            uniform,
            amplify(uniform, 0),  # the same object
            AmplifiedState(n=n, amplitudes=amps / np.linalg.norm(amps), good_mask=good),
            amplified,
            dataclasses.replace(amplified),  # another object sharing the frozen amplitudes
        ]
        p = int(rng.integers(1, 17))
        # p draws in a row from each state, then strict alternation between
        # two states, then a random order over all of them.
        order = [i for i in range(len(states)) for _ in range(p)]
        order += [2, 3] * p + rng.integers(0, len(states), size=2 * p).tolist()
        seed = int(rng.integers(2**32))
        ref_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [_measure_rebuilding_cdf(states[i], ref_rng) for i in order]
        assert [measure(states[i], got_rng) for i in order] == want


def test_cached_cdf_is_freed_with_its_state(rng):
    s = amplify(init_uniform(8, mask(8, [3])), 4)
    measure(s, rng)
    cdf = weakref.ref(qsim._last_cdf[1])
    measure(s, rng)
    assert cdf() is qsim._last_cdf[1]  # the second draw reused it
    del s
    assert cdf() is None and qsim._last_cdf is None


def test_measured_states_hold_one_cdf_between_them(rng):
    # Eight measured n = 16 states keep their amplitudes and masks alive;
    # the only CDF left is that of the state measured last.
    n = 16
    tracemalloc.start()
    try:
        states = []
        for i in range(8):
            states.append(amplify(init_uniform(n, mask(n, [i, 100 + i])), 3))
            for _ in range(4):
                measure(states[-1], rng)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    state_bytes = sum(s.amplitudes.nbytes + s.good_mask.nbytes for s in states)
    cdf_bytes = 8 * 2**n
    assert state_bytes + cdf_bytes <= held < state_bytes + cdf_bytes + cdf_bytes // 4


def test_measured_state_freezes_its_amplitudes(rng):
    s = amplify(init_uniform(5, mask(5, [3, 17])), 2)
    s.amplitudes[0] = s.amplitudes[0]  # writable before the first measure
    measure(s, rng)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0
    # Evolving a measured state still gives a fresh, writable state.
    assert amplify(s, 1).amplitudes.flags.writeable
    assert amplify(s, 0) is s


def test_state_cdf_is_not_part_of_its_value(rng):
    s = amplify(init_uniform(4, mask(4, [5])), 2)
    twin = dataclasses.replace(s)
    before = repr(s)
    measure(s, rng)
    assert not hasattr(s, "cdf")
    assert s == twin and repr(s) == before
    with pytest.raises(TypeError):
        AmplifiedState(n=4, amplitudes=s.amplitudes, good_mask=s.good_mask, cdf=np.cumsum(s.amplitudes**2))


def test_state_m_property():
    s = init_uniform(4, mask(4, [1, 5, 9]))
    assert s.m == 3
