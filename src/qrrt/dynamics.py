"""Discrete-time closed-loop tracking dynamics and the reachability oracle.

A node target t is tracked from a parent node P by the error recursion
e(k+1) = (A - B K) e(k) with e(0) = P - t, giving the state trajectory
x(k) = t + e(k). The pair (t, P) is *reachable* when

* t itself lies in free space,
* every trajectory segment x(k) -> x(k+1) is collision-free, and
* the state enters the capture ball ||x(k) - t|| <= capture_radius within
  the configured horizon.

Stability of A - B K (spectral radius < 1) is enforced when a LinearSystem
is constructed; configs that fail the check are rejected with the offending
eigenvalues in the diagnostic, never silently accepted.

reachable_batch streams its rows through one queue of at most
_REACH_BLOCK_ROWS live rows. Each iteration advances every live row by one
step; a row leaves the queue when it collides, captures or runs out of
horizon, counted from the iteration at which it joined. When half a block or
less is left in flight, the next rows join after the step-0 tests (capture
and free target). So memory does not grow with the number of rows, and a
call runs one dwindling tail of small steps rather than one per block.

That tail is fused: once every row has joined, a step has run and two to
_REACH_TAIL_ROWS rows are live, each steps its error recursion on to its
capture or its horizon in windows of at most _TAIL_WINDOW steps, and each
window's segments up to the capture go to one segments_free call, which
drops the rows it blocks. A row is reachable iff it captured within its
horizon and all those segments are free, as in the step loop, which stops
at the first blocked one instead. Results do not depend on the block size,
the tail size, the window or on which rows share a step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .env import Environment, _as_floats, _as_number, points_free, segments_free

__all__ = [
    "LinearSystem",
    "UnstableGainError",
    "reachable",
    "reachable_batch",
    "default_system",
    "system_from_config",
    "load_system",
    "DEFAULT_A",
    "DEFAULT_B",
    "DEFAULT_GAIN",
    "UNSTABLE_EXAMPLE_GAIN",
]

# Open-loop plant used across the shipped configs and benches.
DEFAULT_A = ((-1.5, -2.0), (1.0, 3.0))
DEFAULT_B = ((0.5, 0.25), (0.0, 1.0))

# Gain placing the closed-loop poles at 0.5 and 0.6 (A - B K = diag(0.5, 0.6)),
# solved from K = B^-1 (A - A_cl).
DEFAULT_GAIN = ((-4.5, -5.2), (1.0, 2.4))

# A published-looking gain for the same plant that yields closed-loop poles
# -2.7 and -4.0: wildly unstable in discrete time. Shipped so the stability
# guard has a concrete config to reject.
UNSTABLE_EXAMPLE_GAIN = ((1.9, -7.5), (1.0, 7.0))

# Most rows reachable_batch keeps in flight at once. On the 2000-obstacle
# annealing world a row's first, longest segments cost about 4.5 KiB of
# collision temporaries, so a full queue peaks near 36 MiB.
_REACH_BLOCK_ROWS = 8192

# Once every row has joined and a step has run, a queue of two to this many
# live rows is finished by _tail with one segments_free call per window of
# _TAIL_WINDOW steps, rather than one call per remaining step. On the
# 2000-obstacle annealing world a 512-row tag has at most a few hundred rows
# left after its first step, so at 256 every tag there ends in the tail
# after that step (at 64, a third of them took a second step first, and the
# tag took 4% longer). A tail of 256 rows holds at most 256 x _TAIL_WINDOW
# segments at a time. A lone row stays in the step loop: it shares the
# tail's per-step cost with no other row, and on the 45-obstacle slopes
# world most lone rows that survive their first segment are blocked by their
# next one, where the loop stops at once.
_REACH_TAIL_ROWS = 256

# Most steps the tail takes before one segments_free call tests their
# segments. The shipped horizon of 50 fits in one window, so a tail there
# still makes a single call; at the horizon cap, 256 slow rows (rho = 0.999)
# that capture near the last step hold 256 x 65 points at a time instead of
# 256 x 1001, and peak at about 3.3 MiB traced instead of 49 MiB.
_TAIL_WINDOW = 64

# Longest tracking horizon: 20x the shipped 50. Each step of a live row
# costs a segment test, so a horizon of 10^9 would let slowly contracting
# rows run a call for as long as that.
MAX_HORIZON = 1000


class UnstableGainError(ValueError):
    """Raised when A - B K has spectral radius >= 1."""


def _as_matrix(m, name: str) -> np.ndarray:
    arr = _as_floats(m, name)
    if arr.shape != (2, 2) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be a finite 2x2 matrix, got {arr!r}")
    return arr


@dataclass(frozen=True)
class LinearSystem:
    """Plant (A, B), feedback gain K, tracking horizon (at most MAX_HORIZON) and capture radius.

    capture_radius None means "reuse the environment's goal radius delta".
    The closed-loop matrix a_cl = A - B K is precomputed and the spectral
    radius check runs once here, so every LinearSystem in existence is stable.
    """

    a: np.ndarray
    b: np.ndarray
    k: np.ndarray
    horizon: int = 50
    capture_radius: float | None = None

    def __post_init__(self):
        a = _as_matrix(self.a, "A")
        b = _as_matrix(self.b, "B")
        k = _as_matrix(self.k, "K")
        horizon = _as_number(self.horizon, "horizon", integral=True)
        if not (1 <= horizon <= MAX_HORIZON):
            raise ValueError(f"horizon must be in [1, {MAX_HORIZON}], got {self.horizon}")
        capture_radius = None if self.capture_radius is None else _as_number(self.capture_radius, "capture_radius")
        if capture_radius is not None and not capture_radius > 0:
            raise ValueError(f"capture_radius must be positive, got {self.capture_radius}")
        a_cl = a - b @ k
        eigs = np.linalg.eigvals(a_cl)
        rho = float(np.max(np.abs(eigs)))
        if rho >= 1.0:
            raise UnstableGainError(
                "closed-loop matrix A - B*K is not a discrete-time contraction: "
                f"eigenvalues {np.sort_complex(eigs).tolist()} give spectral radius "
                f"{rho:.6g} >= 1; choose K so all eigenvalues lie strictly inside "
                "the unit circle"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "capture_radius", capture_radius)
        # Derived attribute, set past the frozen guard; not a dataclass field.
        object.__setattr__(self, "a_cl", a_cl)
        for arr in (a, b, k, a_cl):
            arr.setflags(write=False)


def _capture_radius(env: Environment, sys: LinearSystem) -> float:
    return env.delta if sys.capture_radius is None else sys.capture_radius


def _advance(err: np.ndarray, a_cl: np.ndarray) -> np.ndarray:
    """One step of the error recursion for every row: e @ (A - B K)^T.

    Written out per row from the entries of A - B K, because a matmul rounds
    a lone row differently from the same row in a batch: output column c is
    e0 * a_cl[c, 0] + e1 * a_cl[c, 1], one column at a time, since numpy
    loops over a (K, 2) array broadcast against a (2,) one two elements at a
    time.
    """
    (a00, a01), (a10, a11) = a_cl.tolist()
    e0, e1 = err[:, 0], err[:, 1]
    out = np.empty_like(err)
    x = out[:, 0]
    np.multiply(e0, a00, out=x)
    x += e1 * a01
    y = out[:, 1]
    np.multiply(e0, a10, out=y)
    y += e1 * a11
    return out


def _captured(err: np.ndarray, rc2: float) -> np.ndarray:
    return np.einsum("ij,ij->i", err, err) <= rc2


def _tail(env, a_cl, rc2, err, targets, x_prev, horizon) -> np.ndarray:
    """The verdicts of the last few live rows, one segments_free call per window.

    Each row steps its error recursion, with the arithmetic of the queue's
    steps, until it captures or has taken its remaining horizon[i] steps.
    It is reachable iff it captured and every segment up to the capture is
    free, which is the queue's verdict. The steps run in windows of at most
    _TAIL_WINDOW: one segments_free call tests a window's segments up to
    each row's capture, and a row blocked there is dropped, so the points
    held never exceed rows x (_TAIL_WINDOW + 1). Rows that collide first
    only test a few segments more than the queue would.
    """
    reach = np.zeros(err.shape[0], dtype=bool)
    live = np.arange(err.shape[0])
    k = 0  # steps taken before this window
    while live.size:
        rows = live.size
        pending = np.ones(rows, dtype=bool)  # neither captured nor out of horizon
        captured_at = np.zeros(rows, dtype=np.intp)  # 0: not captured in this window
        points = [x_prev]
        j = 0
        while pending.any() and j < _TAIL_WINDOW:
            j += 1
            err = _advance(err, a_cl)
            points.append(targets + err)
            captured = pending & _captured(err, rc2)
            captured_at[captured] = j
            pending &= ~captured & (horizon > k + j)
        k += j
        # Segment i of row r, from points[i][r] to points[i + 1][r], has flat
        # index i * rows + r; a pending row's segments all count.
        flat = np.concatenate(points)
        seg = np.flatnonzero(np.arange(j)[:, None] < np.where(pending, j, captured_at))
        free = segments_free(env, np.take(flat, seg, axis=0), np.take(flat, seg + rows, axis=0))
        clear = np.ones(rows, dtype=bool)
        clear[seg[~free] % rows] = False
        reach[live[clear & (captured_at > 0)]] = True
        keep = clear & pending
        live, err, targets, x_prev, horizon = (a[keep] for a in (live, err, targets, points[-1], horizon))
    return reach


def reachable_batch(env: Environment, sys: LinearSystem, parents, targets) -> np.ndarray:
    """Vectorized reachability over paired (parent, target) rows.

    Each row simulates the closed-loop trajectory from its parent toward its
    target; rows are retired as soon as they collide (False) or capture
    (True). Rows whose targets are not in free space are False outright,
    which also covers annealed targets reprojected outside the bounds.

    Rows stream through one queue of at most _REACH_BLOCK_ROWS live rows,
    so the temporaries stay the same size however many rows a call holds.
    Every iteration advances each live row one step, and a row that has
    taken sys.horizon steps since it joined is retired (False). Whenever
    half a block or less is in flight, the next rows join: those captured
    at step 0 with a free target are True at once, and only the others
    enter the queue. A call that fits in one block joins once and runs the
    plain horizon loop, and the last few live rows finish in one fused tail
    (see the module docstring). Every row's arithmetic involves that row
    alone, so results do not depend on the block size or on which other
    rows share a step.
    """
    parents = np.asarray(parents, dtype=float).reshape(-1, 2)
    targets = np.asarray(targets, dtype=float).reshape(-1, 2)
    if parents.shape != targets.shape:
        raise ValueError("parents and targets must pair up")
    total = parents.shape[0]
    rc = _capture_radius(env, sys)
    rc2 = rc * rc
    result = np.zeros(total, dtype=bool)
    # The queue, in row order: row index, error, target and last point.
    live = np.zeros(0, dtype=np.intp)
    err = targets_live = x_prev = np.zeros((0, 2))
    # (step at which a join runs out of horizon, first row after it), in join order.
    expiry: list[tuple[int, int]] = []
    joined = 0
    step = 0
    while True:
        while live.size <= _REACH_BLOCK_ROWS // 2 and joined < total:
            stop = min(total, joined + _REACH_BLOCK_ROWS - live.size)
            p, t = parents[joined:stop], targets[joined:stop]
            e = p - t
            captured = _captured(e, rc2)
            free = points_free(env, t)
            result[joined:stop] = free & captured
            new = (free & ~captured).nonzero()[0]
            rows = [new + joined, e.take(new, axis=0), t.take(new, axis=0), p.take(new, axis=0)]
            if live.size:
                rows = [np.concatenate(pair) for pair in zip((live, err, targets_live, x_prev), rows)]
            live, err, targets_live, x_prev = rows
            expiry.append((step + sys.horizon, stop))
            joined = stop
        if live.size == 0:
            break
        if step and joined == total and 1 < live.size <= _REACH_TAIL_ROWS:
            # Each row's steps left: its join group is the first whose stop lies past it.
            ends, stops = np.array(expiry).T
            horizon = ends[stops.searchsorted(live, side="right")] - step
            result[live[_tail(env, sys.a_cl, rc2, err, targets_live, x_prev, horizon)]] = True
            break
        err = _advance(err, sys.a_cl)
        x_next = targets_live + err
        seg_ok = segments_free(env, x_prev, x_next)
        captured = seg_ok & _captured(err, rc2)
        result[live[captured]] = True
        keep = seg_ok & ~captured
        step += 1
        while expiry and expiry[0][0] == step:
            # Rows that joined horizon steps ago lead the queue, which is in row order.
            keep[: live.searchsorted(expiry.pop(0)[1])] = False
        if not keep.all():
            # Gather by row index: boolean-mask indexing of (rows, 2) arrays
            # costs several times more.
            kept = keep.nonzero()[0]
            live, err, targets_live, x_next = (a.take(kept, axis=0) for a in (live, err, targets_live, x_next))
        x_prev = x_next
    return result


def reachable(env: Environment, sys: LinearSystem, parent, target) -> bool:
    """Single-pair reachability; the oracle behind every planner admission."""
    return bool(reachable_batch(env, sys, np.asarray(parent), np.asarray(target))[0])


def default_system(horizon: int = 50, capture_radius: float | None = None) -> LinearSystem:
    return LinearSystem(a=DEFAULT_A, b=DEFAULT_B, k=DEFAULT_GAIN, horizon=horizon, capture_radius=capture_radius)


def system_from_config(cfg: dict) -> LinearSystem:
    """Build a LinearSystem from a config mapping with keys A, B, K[, horizon, capture_radius]."""
    if not isinstance(cfg, dict):
        raise ValueError(f"system config must hold a JSON object, got {type(cfg).__name__}")
    try:
        a = cfg["A"]
        b = cfg["B"]
        k = cfg["K"]
    except KeyError as exc:
        raise ValueError(f"system config is missing key {exc}") from exc
    try:
        return LinearSystem(
            a=a,
            b=b,
            k=k,
            horizon=cfg.get("horizon", 50),
            capture_radius=cfg.get("capture_radius"),
        )
    except TypeError as exc:  # a JSON value float() or int() cannot take, such as null or an object
        raise ValueError(f"system config holds a value of the wrong type: {exc}") from exc


def load_system(path) -> LinearSystem:
    with open(path) as fh:
        return system_from_config(json.load(fh))
