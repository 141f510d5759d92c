"""Exact classical simulation of amplitude amplification over a 2^n database.

The search state is a real statevector over N = 2^n basis indices. Starting
from the uniform superposition (every amplitude 2^(-n/2)), one amplification
iteration applies

  1. the oracle phase flip: negate the amplitudes of the m marked ("good")
     indices, then
  2. inversion about the mean: a_i -> 2 mean(a) - a_i.

Real amplitudes are closed under both operations, so no complex arithmetic
appears anywhere. With sin^2(theta) = m / N, the state after k iterations is
the standard two-level form

  good amplitude  sin((2k+1) theta) / sqrt(m)
  bad amplitude   cos((2k+1) theta) / sqrt(N - m)

so the probability of measuring a good index is sin^2((2k+1) theta), which
``good_probability`` evaluates in closed form; the statevector route and the
closed form must agree to float precision, and the test suite pins that.

``grover_iterate`` applies one iteration literally to the whole vector and
is the reference. ``amplify`` gives the same state in O(2^n + k) instead of
O(k 2^n): the plane spanned by the uniform-good and uniform-bad vectors is
invariant under the iteration, and each amplitude's offset from its class
mean stays (goods) or changes sign (bads). So k scalar steps on the two class
means and a few passes over the vector evolve any real state, not only the
uniform start.

Oracle-call accounting: each iteration is one oracle call, tracked on the
state. Measurement samples the Born rule and never changes what the state
describes. A pooled round has p workers measure one state in a row, so
``measure`` keeps the Born-rule CDF ``cumsum(amplitudes**2)`` of the state it
measured last, and every later call on that state searches the same array:
one O(2^n) pass per state instead of one per worker. The module holds that
one CDF, 8 bytes per amplitude, and only while its state lives; a state
itself carries no CDF. A caller who alternates draws between two states
rebuilds the CDF on every draw. The first draw makes the amplitudes
read-only, so an in-place write cannot leave the cached CDF stale;
``amplify`` and ``grover_iterate`` never write to their input and return a
fresh, writable state.

Edge cases follow the uniform-state algebra: m = 0 leaves the state untouched
(the iteration still counts as an oracle call); m = N keeps the good
probability at exactly 1.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_DATABASE_QUBITS",
    "AmplifiedState",
    "init_uniform",
    "grover_iterate",
    "amplify",
    "optimal_iterations",
    "good_probability",
    "measure",
]

# 2^20 amplitudes is the largest database the simulator accepts; beyond that
# the dense statevector stops being a desk-scale object.
MAX_DATABASE_QUBITS = 20


def _check_n(n: int) -> int:
    """The package's one bound on the database exponent n, for every caller."""
    n = int(n)
    if not (1 <= n <= MAX_DATABASE_QUBITS):
        raise ValueError(f"n must be a database exponent in [1, {MAX_DATABASE_QUBITS}], got {n}")
    return n


def _check_counts(n: int, m: int) -> tuple[int, int]:
    n = _check_n(n)
    m = int(m)
    if not (0 <= m <= 2**n):
        raise ValueError(f"marked count m must be in [0, 2^{n}], got {m}")
    return n, m


@dataclass
class AmplifiedState:
    """Real statevector plus the good-index mask and per-state call counters.

    A state holds no Born-rule CDF: ``measure`` caches one for the state it
    measured last, outside the state, so a draw leaves the state's value
    and ``repr`` as they were and only makes its amplitudes read-only.
    """

    n: int
    amplitudes: np.ndarray  # float64, shape (2^n,)
    good_mask: np.ndarray  # bool, shape (2^n,)
    oracle_calls: int = 0

    @property
    def m(self) -> int:
        return int(self.good_mask.sum())


def init_uniform(n: int, good_mask) -> AmplifiedState:
    """Uniform superposition over 2^n indices with the given good mask."""
    n = _check_n(n)
    mask = np.asarray(good_mask, dtype=bool).reshape(-1)
    size = 2**n
    if mask.shape[0] != size:
        raise ValueError(f"good_mask must have length 2^{n} = {size}, got {mask.shape[0]}")
    amps = np.full(size, 2.0 ** (-n / 2.0))
    return AmplifiedState(n=n, amplitudes=amps, good_mask=mask.copy())


def grover_iterate(state: AmplifiedState) -> AmplifiedState:
    """One oracle flip + inversion about the mean; returns a new state.

    An all-bad mask is a documented no-op on the amplitudes, but the oracle
    call is still counted: the hardware would have paid for the query.
    """
    amps = state.amplitudes
    if state.m > 0:
        amps = np.where(state.good_mask, -amps, amps)
        amps = 2.0 * amps.mean() - amps
    else:
        amps = amps.copy()
    return AmplifiedState(
        n=state.n,
        amplitudes=amps,
        good_mask=state.good_mask,
        oracle_calls=state.oracle_calls + 1,
    )


def amplify(state: AmplifiedState, k: int) -> AmplifiedState:
    """Apply k amplification iterations in O(2^n + k); equals k ``grover_iterate`` calls.

    Split every amplitude into its class mean (g over the m goods, b over the
    N - m bads) plus an offset. One iteration maps the means by
    mu = (-m g + (N - m) b) / N, g -> 2 mu + g, b -> 2 mu - b, keeps every
    good offset and negates every bad one. So k scalar steps on (g, b) and
    a few passes over the amplitudes give the state for any real input.
    """
    if k < 0:
        raise ValueError(f"iteration count must be >= 0, got {k}")
    k = int(k)
    if k == 0:
        return state
    amps, mask = state.amplitudes, state.good_mask
    size = amps.shape[0]
    m = int(np.count_nonzero(mask))
    if m == 0:
        out = amps.copy()
    else:
        # The mask enters as a 0/1 factor: masked ufuncs and np.where branch
        # on every entry, which costs several times more on scattered masks.
        good_sum = float(np.dot(amps, mask))
        g0 = good_sum / m
        b0 = (float(amps.sum()) - good_sum) / (size - m) if m < size else 0.0
        g, b = g0, b0
        for _ in range(k):
            mu = (-m * g + (size - m) * b) / size
            g, b = 2.0 * mu + g, 2.0 * mu - b
        # good: a + d; bad: a + c (even k) or c - a (odd k, offsets negated)
        d = g - g0
        if k % 2:
            c = b + b0
            out = amps * 2.0
            out += d - c
            out *= mask
            out += c
            out -= amps
        else:
            c = b - b0
            out = mask * (d - c)
            out += c
            out += amps
    return AmplifiedState(
        n=state.n,
        amplitudes=out,
        good_mask=mask,
        oracle_calls=state.oracle_calls + k,
    )


def optimal_iterations(n: int, m: int) -> int:
    """Iteration count maximizing the good-measurement probability.

    floor(pi / (4 theta)) with theta = arcsin(sqrt(m / 2^n)), clamped to at
    least 1 whenever 0 < m < 2^n (one iteration is the minimum meaningful
    amplification; for m > 2^n/2 the unclamped floor would be 0). Searching
    an all-good or all-bad database needs no amplification at all.
    """
    n, m = _check_counts(n, m)
    size = 2**n
    if m == 0 or m == size:
        return 0
    theta = math.asin(math.sqrt(m / size))
    return max(1, math.floor(math.pi / (4.0 * theta)))


def good_probability(n: int, m: int, k: int) -> float:
    """Closed form sin^2((2k+1) theta) for the probability of a good measurement."""
    n, m = _check_counts(n, m)
    if k < 0:
        raise ValueError(f"iteration count must be >= 0, got {k}")
    if m == 0:
        return 0.0
    theta = math.asin(math.sqrt(m / 2**n))
    return math.sin((2 * int(k) + 1) * theta) ** 2


# (weak reference to the state measured last, its Born-rule CDF), or None.
# One tuple, so a reader never pairs one state with another state's CDF.
_last_cdf: tuple[weakref.ref, np.ndarray] | None = None


def _drop_cdf(ref: weakref.ref) -> None:
    """Free the cached CDF once its state is collected."""
    global _last_cdf
    entry = _last_cdf
    if entry is not None and entry[0] is ref:
        _last_cdf = None


def measure(state: AmplifiedState, rng: np.random.Generator) -> int:
    """Born-rule sample of one basis index from one ``rng.random()`` draw.

    A call on the state measured last searches its cached CDF. A call on any
    other state builds that state's CDF, the same bits as
    ``np.cumsum(state.amplitudes**2)``, freezes its amplitudes and caches
    the CDF in place of the previous one.
    """
    global _last_cdf
    entry = _last_cdf
    if entry is not None and entry[0]() is state:
        cdf = entry[1]
    else:
        entry = _last_cdf = None  # free the previous CDF before building this one
        cdf = np.square(state.amplitudes)
        np.cumsum(cdf, out=cdf)
        state.amplitudes.flags.writeable = False
        _last_cdf = (weakref.ref(state, _drop_cdf), cdf)
    u = rng.random() * cdf[-1]
    idx = int(np.searchsorted(cdf, u, side="right"))
    return min(idx, cdf.shape[0] - 1)
