"""Output checks against reference computations that do not call the package.

Every check returns a list of problems; an empty list means the outputs
passed. The references read only plain data from the program's objects
(coordinates, parent links, counters, matrices) and recompute each fact:

* geometry: closed point-in-rectangle tests, and a sampled trajectory test
  against open obstacle interiors. The sampled test is one-sided: a segment
  that passed the program's exact closed test can never fail it.
* dynamics: the error recursion e <- (A - B K) e from the system's own A, B
  and K, with capture inside the horizon.
* accounting: amplification calls from the benchmark's own floor(pi / 4 theta).
* search: sin^2((2k+1) theta) and the collision and coverage closed forms.

Statistical checks allow 5 sigma plus 3 counts, and 6 sigma for coverage
means, so a correct program fails one with a chance far below one in a
million.
"""

from __future__ import annotations

import math

import numpy as np

SIGMA = 5.0
SLACK_COUNTS = 3.0
COVER_SIGMA = 6.0
REL = 1e-9  # relative slack on radii and capture distances
GRAZE = 1e-9  # obstacles shrink by this much for the open-interior test
SEGMENT_SAMPLES = np.linspace(0.0, 1.0, 9)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def optimal_k(n: int, m: int) -> int:
    """floor(pi / (4 theta)), at least 1, and 0 for an all-bad or all-good database."""
    size = 2**n
    if m == 0 or m == size:
        return 0
    theta = math.asin(math.sqrt(m / size))
    return max(1, math.floor(math.pi / (4.0 * theta)))


def good_mass(n: int, m: int, k: int) -> float:
    """sin^2((2k+1) theta): probability of measuring a good index after k iterations."""
    if m == 0:
        return 0.0
    theta = math.asin(math.sqrt(m / 2**n))
    return math.sin((2 * k + 1) * theta) ** 2


def prob_all_same_good(m: int, p: int, pg: float) -> float:
    return m * (pg / m) ** p


def prob_all_distinct_good(m: int, p: int, pg: float) -> float:
    if p > m:
        return 0.0
    frac = 1.0
    for i in range(p):
        frac *= (m - i) / m
    return pg**p * frac


def coverage_moments(coupons: int, success: float) -> tuple[float, float]:
    """Mean and variance of draws until all coupons are seen.

    Each draw succeeds with probability ``success`` and then lands on a
    uniform coupon, so collecting the (j+1)-th new coupon is geometric with
    q = success (coupons - j) / coupons.
    """
    mean = 0.0
    var = 0.0
    for j in range(coupons):
        q = success * (coupons - j) / coupons
        mean += 1.0 / q
        var += (1.0 - q) / (q * q)
    return mean, var


def count_within(observed: float, mean: float, var: float) -> bool:
    return abs(observed - mean) <= SIGMA * math.sqrt(max(var, 0.0)) + SLACK_COUNTS


# ---------------------------------------------------------------------------
# trees and records
# ---------------------------------------------------------------------------


def _in_closed(points: np.ndarray, rects: np.ndarray) -> np.ndarray:
    if rects.size == 0:
        return np.zeros(points.shape[0], dtype=bool)
    x = points[:, 0:1]
    y = points[:, 1:2]
    return ((x >= rects[:, 0]) & (x <= rects[:, 2]) & (y >= rects[:, 1]) & (y <= rects[:, 3])).any(axis=1)


def _in_open(points: np.ndarray, rects: np.ndarray) -> np.ndarray:
    if rects.size == 0:
        return np.zeros(points.shape[0], dtype=bool)
    x = points[:, 0:1]
    y = points[:, 1:2]
    return (
        (x > rects[:, 0] + GRAZE) & (x < rects[:, 2] - GRAZE) & (y > rects[:, 1] + GRAZE) & (y < rects[:, 3] - GRAZE)
    ).any(axis=1)


def reference_edges(env, system, parents: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(captured, crossed) per edge from the benchmark's own trajectory replay.

    Follows e <- (A - B K) e from e = parent - target up to the horizon,
    samples every trajectory segment before capture at nine points and marks
    the edge crossed when a sample lies inside an open obstacle interior.
    """
    a_cl = np.asarray(system.a, dtype=float) - np.asarray(system.b, dtype=float) @ np.asarray(system.k, dtype=float)
    rc = env.delta if system.capture_radius is None else float(system.capture_radius)
    reach2 = (rc * (1.0 + REL)) ** 2
    obstacles = np.asarray(env.obstacles, dtype=float).reshape(-1, 4)
    err = parents - targets
    x_prev = parents.copy()
    captured = np.einsum("ij,ij->i", err, err) <= reach2
    crossed = np.zeros(len(err), dtype=bool)
    active = ~captured
    for _ in range(int(system.horizon)):
        if not active.any():
            break
        err = err @ a_cl.T
        x = targets + err
        idx = np.flatnonzero(active)
        seg = x_prev[idx, None, :] + SEGMENT_SAMPLES[None, :, None] * (x[idx] - x_prev[idx])[:, None, :]
        hit = _in_open(seg.reshape(-1, 2), obstacles).reshape(len(idx), -1).any(axis=1)
        crossed[idx[hit]] = True
        alive = idx[~hit]
        done = alive[np.einsum("ij,ij->i", err[alive], err[alive]) <= reach2]
        captured[done] = True
        active[idx[hit]] = False
        active[done] = False
        x_prev = x
    return captured, crossed


def check_tree(env, system, coords, parents) -> list[str]:
    """Root and nodes in free space, parents precede children, every edge passes the reference oracle."""
    coords = np.asarray(coords, dtype=float).reshape(-1, 2)
    problems = []
    if len(parents) != len(coords) or parents[0] is not None:
        return [f"tree has {len(coords)} nodes but {len(parents)} parent links, root parent {parents[0]!r}"]
    if not np.array_equal(coords[0], np.asarray(env.x0, dtype=float)):
        problems.append(f"root {coords[0].tolist()} is not the start {list(env.x0)}")
    b = np.asarray(env.bounds, dtype=float)
    inside = (coords[:, 0] >= b[0]) & (coords[:, 0] <= b[2]) & (coords[:, 1] >= b[1]) & (coords[:, 1] <= b[3])
    blocked = _in_closed(coords, np.asarray(env.obstacles, dtype=float).reshape(-1, 4))
    for i in np.flatnonzero(~inside | blocked):
        problems.append(f"node {i} at {coords[i].tolist()} is not in free space")
    if len({(float(x), float(y)) for x, y in coords}) != len(coords):
        problems.append("tree holds a duplicate coordinate")
    if len(coords) < 2:
        return problems
    link = np.asarray(parents[1:], dtype=np.int64)
    bad_link = (link < 0) | (link >= np.arange(1, len(coords)))
    for i in np.flatnonzero(bad_link):
        problems.append(f"node {i + 1} has parent {link[i]}, not an earlier node")
    if bad_link.any():
        return problems
    captured, crossed = reference_edges(env, system, coords[link], coords[1:])
    for i in np.flatnonzero(crossed):
        problems.append(f"edge {link[i]}->{i + 1} enters an obstacle interior")
    for i in np.flatnonzero(~captured & ~crossed):
        problems.append(f"edge {link[i]}->{i + 1} never enters the capture ball within the horizon")
    return problems


def check_band(coords, parents, goal, stages) -> list[str]:
    """Every annealed edge except a goal snap has its stage's length band.

    Node i was admitted with i - 1 nodes already admitted, which selects the
    stage whose cumulative duration first exceeds i - 1.
    """
    coords = np.asarray(coords, dtype=float).reshape(-1, 2)
    goal = np.asarray(goal, dtype=float)
    problems = []
    for i in range(1, len(coords)):
        if np.array_equal(coords[i], goal):
            continue
        h = i - 1
        cumulative = 0
        r_min, r_max = stages[-1][1], stages[-1][2]
        for duration, lo, hi in stages:
            cumulative += duration
            if h < cumulative:
                r_min, r_max = lo, hi
                break
        length = math.hypot(*(coords[i] - coords[parents[i]]))
        if not (r_min * (1.0 - REL) <= length <= r_max * (1.0 + REL)):
            problems.append(f"annealed edge to node {i} has length {length!r} outside [{r_min}, {r_max}]")
    return problems


def check_record(record, tree_size: int, coords, algorithm: str, n: int, p: int, fixed_k) -> list[str]:
    """Call accounting and the admission log of one trial.

    Amplified planners log one m per database; shared pools bill every
    database's iterations once per worker. Every measurement costs one
    finalizer call, and a goal snap at most one more per admission.
    """
    problems = []
    parts = record.calls_amplification + record.calls_finalizer + record.calls_classical
    if record.total_calls() != parts:
        problems.append(f"total calls {record.total_calls()} != amp + final + classical = {parts}")
    if record.nodes_admitted != tree_size - 1:
        problems.append(f"record admits {record.nodes_admitted} nodes, tree has {tree_size - 1}")
    positions = np.asarray(record.node_positions, dtype=float).reshape(-1, 2)
    if not np.array_equal(positions, np.asarray(coords, dtype=float).reshape(-1, 2)[1:]):
        problems.append("record node positions differ from the tree nodes")
    running = list(record.calls_at_admission)
    if len(running) != record.nodes_admitted:
        problems.append(f"{len(running)} admission call totals for {record.nodes_admitted} nodes")
    if any(b < a for a, b in zip(running, running[1:])):
        problems.append("calls_at_admission decreases")
    if running and running[-1] > record.total_calls():
        problems.append(f"last admission total {running[-1]} exceeds total calls {record.total_calls()}")
    ms = list(record.per_step_m)
    if algorithm in ("rrt", "prrt"):
        expected_amp = 0
        measurements = 0
        if ms:
            problems.append(f"classical planner logged {len(ms)} databases")
    else:
        per_database = [fixed_k if fixed_k is not None else optimal_k(n, m) for m in ms]
        workers = p if algorithm == "pqrrt-shared" else 1
        expected_amp = workers * sum(per_database)
        measurements = workers * len(ms)
    if record.calls_amplification != expected_amp:
        problems.append(f"amplification calls {record.calls_amplification} != expected {expected_amp}")
    if not (measurements <= record.calls_finalizer <= measurements + record.nodes_admitted):
        problems.append(
            f"finalizer calls {record.calls_finalizer} outside [{measurements}, "
            f"{measurements + record.nodes_admitted}]"
        )
    return problems


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def check_state(n: int, m: int, k: int, oracle_calls: int, total: float, good: float) -> list[str]:
    problems = []
    if k != optimal_k(n, m) or oracle_calls != k:
        problems.append(f"n={n} m={m}: k={k}, oracle calls {oracle_calls}, reference k {optimal_k(n, m)}")
    if abs(total - 1.0) > 1e-9:
        problems.append(f"n={n} m={m} k={k}: total mass {total!r} is not 1")
    expected = good_mass(n, m, k)
    if abs(good - expected) > 1e-9:
        problems.append(f"n={n} m={m} k={k}: good mass {good!r} != sin^2((2k+1)theta) = {expected!r}")
    return problems


def check_pool_draws(rounds) -> list[str]:
    """Good, all-same-good and all-distinct-good counts over pooled measurements.

    ``rounds`` holds (n, m, k, indices, good_flags) per statevector round.
    """
    obs = {"good": 0, "same": 0, "distinct": 0}
    mean = dict.fromkeys(obs, 0.0)
    var = dict.fromkeys(obs, 0.0)
    for n, m, k, indices, good in rounds:
        p = len(indices)
        pg = good_mass(n, m, k)
        all_good = all(good)
        obs["good"] += sum(good)
        obs["same"] += int(all_good and len(set(indices)) == 1)
        obs["distinct"] += int(all_good and len(set(indices)) == p)
        mean["good"] += p * pg
        var["good"] += p * pg * (1.0 - pg)
        for key, prob in (("same", prob_all_same_good(m, p, pg)), ("distinct", prob_all_distinct_good(m, p, pg))):
            mean[key] += prob
            var[key] += prob * (1.0 - prob)
    return [
        f"{key} count {obs[key]} vs closed form {mean[key]:.3f} +- {math.sqrt(var[key]):.3f}"
        for key in obs
        if not count_within(obs[key], mean[key], var[key])
    ]


def analyze_grid() -> list[tuple]:
    """The ``qrrt analyze`` grid: (lemma, n, m, p, pG, m1, m2) rows."""
    rows = []
    for n, m in ((4, 4), (8, 16)):
        pg = good_mass(n, m, optimal_k(n, m))
        for p in (2, 3, 8):
            rows.append(("L1", n, m, p, pg, None, None))
            if p <= m:
                rows.append(("L2", n, m, p, pg, None, None))
    rows.append(("L3", 4, 3, 1, 1.0, None, None))
    rows.append(("L3", 4, 2, 1, 0.5, None, None))
    rows.append(("L3", 8, 8, 1, 0.9, None, None))
    rows.append(("L4", 8, 16, 1, 0.95, 12, 8))
    for p in (2, 3):
        rows.append(("L5", 8, 16, p, 0.95, 12, 8))
    rows.append(("L6", 8, 16, 1, 0.8, 12, 8))
    return rows


def check_monte_carlo(row, stats) -> list[str]:
    """One analytics row's Monte Carlo counts against the benchmark's closed form."""
    lemma, n, m, p, pg, m1, m2 = row
    trials = stats.trials
    if lemma in ("L3", "L6"):
        coupons, success = (m, pg) if lemma == "L3" else (m1, (m1 / m) * pg)
        mean, var = coverage_moments(coupons, success)
        got = stats.cover_total_draws / stats.cover_episodes
        sigma = math.sqrt(var / stats.cover_episodes)
        if abs(got - mean) > COVER_SIGMA * sigma:
            return [f"{lemma} n={n} m={m}: mean draws to cover {got!r} vs {mean!r} +- {sigma:.3g}"]
        return []
    if lemma == "L1":
        prob, got = prob_all_same_good(m, p, pg), stats.count_all_same
    elif lemma == "L2":
        prob, got = prob_all_distinct_good(m, p, pg), stats.count_all_different
    else:
        bad = 2**n - m
        prob = m1 * (pg / m) ** p + m2 * ((1.0 - pg) / bad) ** p
        got = stats.count_all_same
    if not count_within(got, trials * prob, trials * prob * (1.0 - prob)):
        return [f"{lemma} n={n} m={m} p={p}: count {got} vs closed form {trials * prob:.1f} of {trials}"]
    return []
