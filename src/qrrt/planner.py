"""Tree-based planners over sampled databases: RRT, q-RRT and annealed q-RRT.

One q-RRT step builds a database of 2^n (target, nearest-parent) pairs,
tags each pair with the reachability oracle, amplifies the tagged subset,
measures one index, which is charged one finalizer call and reads the tag's
verdict, and admits the surviving node. _step_database (build, plain or
annealed, then tag) and _amplified (resolve k, amplify the uniform state)
are that sequence's two halves, shared by qrrt_step, the worker kernel
below and the CLI's amplitude dump. Classical RRT is the one-sample
special case: _classical_attempts (draw, connect to the nearest node,
verify, one classical call an attempt) is the one classical kernel, run
with budget 1 by rrt_step and with per_worker_budget by each prrt worker.

Every planner, pooled ones included, runs in one plan engine, _plan: it
owns the record, the tree and the wall clock, captures the goal at the root
when x0 = xG, and calls the algorithm's step function until the goal is
captured or a budget (steps, nodes, cutoff calls) runs out. qrrt_plan steps
with qrrt_step, rrt_plan with rrt_step, parallel.run_parallel_plan with a
pool step; metrics.ALGORITHM_TABLE says which algorithm takes which.

A measurement returns a bad row with probability 1 - pG, so the paper
charges a classical finalizer call per measured row. The oracle is a
deterministic function of the (parent, target) row and tag_database already
ran it on that row, so the verdict is the row's good_mask entry; running
the oracle again would give the same bit. _measure_and_finalize is the one
worker kernel (amplify, measure per stream, finalize) of q-RRT and both
pooled q-RRT modes.

Nearest-parent search (Tree.nearest_batch) and tagging work through a
database in fixed row blocks, so their memory does not grow with 2^n; no
result depends on the block sizes.

Database annealing replaces free placement with ring placement: each raw
sample keeps only its direction from the chosen parent while the distance
is redrawn inside the current temperature stage's [r_min, r_max] band. The
stage is read off the tree: after h = len(tree) - 1 admitted nodes it is
the one whose cumulative duration first exceeds h. Constrained targets may
land outside the bounds or inside obstacles; the tagging oracle simply
marks them bad.

Every step, rrt_step, qrrt_step and the three pool steps in parallel, hands
its verified candidates in order to one admission loop, _admit_round, and
returns its StepSummary: the admitted node indices and the duplicates
discarded. Admission rules shared by every planner in the package:

* a candidate whose coordinates already sit in the tree is discarded as a
  duplicate;
* a candidate within delta of the goal is snapped onto the goal point,
  after the snapped edge is re-verified (an extra finalizer call); if the
  re-verification fails the node is admitted unmoved, and if the goal
  already sits in the tree no snap is attempted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import qsim
from .dynamics import LinearSystem, reachable, reachable_batch
from .env import Environment, sample_uniform_batch
from .records import StepSummary, TrialRecord

__all__ = [
    "Tree",
    "Database",
    "TemperatureSchedule",
    "PlanResult",
    "build_database",
    "build_database_annealed",
    "tag_database",
    "resolve_iterations",
    "qrrt_step",
    "rrt_step",
    "qrrt_plan",
    "rrt_plan",
    "extract_path",
    "extract_path_indices",
]

# Query rows x tree nodes per block of Tree.nearest_batch: 16 bytes of
# temporaries a pair, so about 2 MiB a block.
_NEAREST_BLOCK_PAIRS = 2**17


class Tree:
    """Planning tree: packed coordinates, parent indices, goal bookkeeping.

    Coordinate lookup for duplicate detection is exact float equality via a
    dict, matching the admission rule.
    """

    def __init__(self, root):
        root = np.asarray(root, dtype=float).reshape(2)
        self._coords = np.zeros((64, 2))
        self._coords[0] = root
        self._size = 1
        self.parents: list[int | None] = [None]
        self._lookup: dict[tuple[float, float], int] = {(root[0], root[1]): 0}
        self.goal_index: int | None = None

    def __len__(self) -> int:
        return self._size

    @property
    def coords(self) -> np.ndarray:
        return self._coords[: self._size]

    def has_point(self, point) -> bool:
        point = np.asarray(point, dtype=float).reshape(2)
        return (point[0], point[1]) in self._lookup

    def add(self, point, parent_index: int) -> int:
        point = np.asarray(point, dtype=float).reshape(2)
        if not (0 <= parent_index < self._size):
            raise IndexError(f"parent index {parent_index} outside tree of size {self._size}")
        key = (float(point[0]), float(point[1]))
        if key in self._lookup:
            raise ValueError(f"point {key} already in tree")
        if self._size == self._coords.shape[0]:
            grown = np.zeros((2 * self._size, 2))
            grown[: self._size] = self._coords[: self._size]
            self._coords = grown
        idx = self._size
        self._coords[idx] = point
        self._size += 1
        self.parents.append(int(parent_index))
        self._lookup[key] = idx
        return idx

    def nearest(self, point) -> int:
        """Index of the closest tree node; ties resolve to the lowest index."""
        point = np.asarray(point, dtype=float).reshape(2)
        d = self.coords - point
        return int(np.argmin(np.einsum("ij,ij->i", d, d)))

    def nearest_batch(self, points) -> np.ndarray:
        """Nearest node per query row; ties resolve to the lowest index.

        Queries run in blocks of at most _NEAREST_BLOCK_PAIRS rows x nodes
        (at least one row), so the distance temporaries stay the same size
        however many queries and nodes there are. Each row's distances and
        argmin involve that row alone, so results do not depend on the
        block size.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        nx, ny = self.coords.T
        rows = max(1, _NEAREST_BLOCK_PAIRS // nx.size)
        out = np.empty(pts.shape[0], dtype=np.intp)
        for start in range(0, pts.shape[0], rows):
            q = pts[start : start + rows]
            # (qx - nx)^2 + (qy - ny)^2 per axis, in place: the same roundings
            # as summing a (rows, nodes, 2) difference array over its last axis.
            d2 = q[:, :1] - nx
            d2 *= d2
            dy = q[:, 1:] - ny
            dy *= dy
            d2 += dy
            out[start : start + rows] = d2.argmin(axis=1)
        return out


@dataclass(frozen=True)
class Database:
    """2^n candidate (target, parent) pairs built against one tree snapshot.

    parent_points snapshots the parent coordinates at build time, so the
    database stays valid even while the tree keeps growing; good_mask/m are
    None until tag_database has run.
    """

    n: int
    points: np.ndarray  # (2^n, 2)
    parent_index: np.ndarray  # (2^n,)
    parent_points: np.ndarray  # (2^n, 2)
    good_mask: np.ndarray | None = None
    m: int | None = None


def build_database(env: Environment, tree: Tree, n: int, rng: np.random.Generator) -> Database:
    """Uniform targets paired with their nearest tree nodes.

    A sample landing exactly on an existing node would create a zero-length
    edge, so such rows are redrawn.
    """
    n = qsim._check_n(n)
    size = 2**n
    pts = sample_uniform_batch(env, rng, size)
    for _ in range(64):
        pidx = tree.nearest_batch(pts)
        # The same bits as tree.coords[pidx] and np.all(pts == ppts, axis=1),
        # several times faster on two-wide rows.
        ppts = np.take(tree.coords, pidx, axis=0)
        coincide = (pts[:, 0] == ppts[:, 0]) & (pts[:, 1] == ppts[:, 1])
        if not coincide.any():
            break
        pts[coincide] = sample_uniform_batch(env, rng, int(coincide.sum()))
    else:
        raise RuntimeError("could not draw database samples clear of existing nodes")
    # ppts is already a fresh gather, but copying it and freeing the gather
    # keeps later temporaries of its size on the allocator's heap: without
    # the copy one wide-database pass (2^16 rows) took 3x the page faults.
    return Database(n=n, points=pts, parent_index=pidx, parent_points=ppts.copy())


def build_database_annealed(
    env: Environment,
    tree: Tree,
    n: int,
    schedule: "TemperatureSchedule",
    rng: np.random.Generator,
) -> Database:
    """Ring-constrained targets: direction kept, distance redrawn per stage.

    Draw order is fixed for reproducibility: raw samples first, then radii,
    then replacement angles for samples that landed exactly on their parent
    (whose direction is undefined). Constrained targets are allowed to leave
    free space; tagging marks them bad.
    """
    n = qsim._check_n(n)
    size = 2**n
    raw = sample_uniform_batch(env, rng, size)
    pidx = tree.nearest_batch(raw)
    ppts = np.take(tree.coords, pidx, axis=0)
    r_min, r_max = schedule.current_stage(len(tree) - 1)
    radii = rng.uniform(r_min, r_max, size)
    vec = raw - ppts
    norms = np.hypot(vec[:, 0], vec[:, 1])
    degenerate = norms == 0.0
    if degenerate.any():
        angles = rng.uniform(0.0, 2.0 * math.pi, int(degenerate.sum()))
        vec[degenerate, 0] = np.cos(angles)
        vec[degenerate, 1] = np.sin(angles)
        norms[degenerate] = 1.0
    unit = vec / norms[:, None]
    pts = ppts + unit * radii[:, None]
    return Database(n=n, points=pts, parent_index=pidx, parent_points=ppts)


def tag_database(env: Environment, sys: LinearSystem, db: Database) -> Database:
    """Run the reachability oracle over every entry; fills good_mask and m."""
    mask = reachable_batch(env, sys, db.parent_points, db.points)
    return replace(db, good_mask=mask, m=int(mask.sum()))


@dataclass(frozen=True)
class TemperatureSchedule:
    """Piecewise-constant radius bands indexed by admitted-node count h.

    stages is a tuple of (duration_nodes, r_min, r_max); the band for h is
    the stage whose cumulative duration interval contains h, and past the
    last boundary the final stage persists. A tree's h is len(tree) - 1.
    """

    stages: tuple[tuple[int, float, float], ...]

    def __post_init__(self):
        if not self.stages:
            raise ValueError("schedule needs at least one stage")
        norm = []
        for stage in self.stages:
            dur, r_min, r_max = stage
            if int(dur) < 1:
                raise ValueError(f"stage duration must be >= 1, got {dur}")
            if not (0.0 < float(r_min) <= float(r_max)):
                raise ValueError(f"stage radii must satisfy 0 < r_min <= r_max, got {stage}")
            norm.append((int(dur), float(r_min), float(r_max)))
        object.__setattr__(self, "stages", tuple(norm))

    def current_stage(self, h: int) -> tuple[float, float]:
        """The (r_min, r_max) band once h nodes have been admitted."""
        cumulative = 0
        for dur, r_min, r_max in self.stages:
            cumulative += dur
            if h < cumulative:
                return (r_min, r_max)
        last = self.stages[-1]
        return (last[1], last[2])

    @classmethod
    def from_config(cls, stages) -> "TemperatureSchedule":
        return cls(stages=tuple((int(d), float(a), float(b)) for d, a, b in stages))


# Largest fixed iteration count: qsim.amplify runs k scalar steps, and the
# optimal k at n = 20 is at most floor((pi / 4) 2^10) = 804.
MAX_FIXED_ITERATIONS = 10**6


def _check_mode(mode) -> None:
    """The one rule for an iteration mode: "optimal", or an int in [0, MAX_FIXED_ITERATIONS]."""
    if mode == "optimal":
        return
    if not isinstance(mode, (int, np.integer)):
        raise ValueError(f"mode must be 'optimal' or a fixed iteration count, got {mode!r}")
    if mode < 0:
        raise ValueError(f"fixed iteration count must be >= 0, got {mode}")
    if mode > MAX_FIXED_ITERATIONS:
        raise ValueError(f"fixed iteration count must be <= {MAX_FIXED_ITERATIONS}, got {mode}")


def resolve_iterations(mode, n: int, m: int) -> int:
    """Amplification iteration count for a tagged database.

    mode is either the string "optimal" (closed-form optimum for the exact
    m) or a fixed count in [0, MAX_FIXED_ITERATIONS]; anything else raises.
    """
    _check_mode(mode)
    return qsim.optimal_iterations(n, m) if mode == "optimal" else int(mode)


def _admit_candidate(
    env: Environment,
    sys: LinearSystem,
    tree: Tree,
    point: np.ndarray,
    parent_index: int,
    record: TrialRecord,
) -> int | None:
    """Duplicate rejection, goal snap and the tree insertion: the new node's index, or None for a duplicate."""
    point = np.asarray(point, dtype=float).reshape(2).copy()
    if tree.has_point(point):
        record.duplicates_discarded += 1
        return None
    snapped = False
    if tree.goal_index is None and not tree.has_point(env.xG):
        if float(np.hypot(*(point - env.xG))) < env.delta:
            record.calls_finalizer += 1
            if reachable(env, sys, tree.coords[parent_index], env.xG):
                point = env.xG.copy()
                snapped = True
    idx = tree.add(point, parent_index)
    record.log_admission(point)
    if snapped:
        tree.goal_index = idx
    return idx


def _admit_round(env: Environment, sys: LinearSystem, tree: Tree, candidates, record, repeats: int = 0) -> StepSummary:
    """Admit (point, parent index) candidates in order: every step's one admission loop.

    repeats counts candidates the step already discarded as duplicates (a
    pool's repeated measurements of one row); they join the round's count.
    """
    duplicates = record.duplicates_discarded
    record.duplicates_discarded += repeats
    admitted = [_admit_candidate(env, sys, tree, point, parent_index, record) for point, parent_index in candidates]
    return StepSummary(
        admitted_indices=tuple(idx for idx in admitted if idx is not None),
        duplicates_discarded=record.duplicates_discarded - duplicates,
    )


def _step_database(
    env: Environment,
    sys: LinearSystem,
    tree: Tree,
    n: int,
    rng: np.random.Generator,
    schedule: TemperatureSchedule | None = None,
) -> Database:
    """One amplified step's tagged database; with a schedule, targets are ring-constrained."""
    if schedule is None:
        db = build_database(env, tree, n, rng)
    else:
        db = build_database_annealed(env, tree, n, schedule, rng)
    return tag_database(env, sys, db)


def _amplified(db: Database, mode) -> tuple[qsim.AmplifiedState, int]:
    """A tagged database's uniform state after k iterations, with k resolved from mode."""
    if db.m is None:
        raise ValueError("database must be tagged before amplification")
    k = resolve_iterations(mode, db.n, db.m)
    return qsim.amplify(qsim.init_uniform(db.n, db.good_mask), k), k


def _measure_and_finalize(
    db: Database,
    mode,
    rngs,
    record: TrialRecord,
    charged_workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """The quantum worker kernel: amplify a tagged database, measure, finalize.

    The state is amplified once and measured once per stream in rngs, in
    order (qsim.measure keeps the Born-rule CDF on the state, so it is built
    once too). charged_workers workers pay the amplification calls: 1 for a
    single planner or shared accounting, p for a pool charging every worker.
    Returns the measured indices and their finalizer verdicts. Each measured
    row is charged one finalizer call, and its verdict is the tag's:
    tag_database ran the same deterministic oracle on the same row.
    """
    state, k = _amplified(db, mode)
    record.per_step_m.append(db.m)
    record.calls_amplification += k * charged_workers
    indices = np.array([qsim.measure(state, rng) for rng in rngs], dtype=np.intp)
    record.calls_finalizer += len(indices)
    return indices, db.good_mask[indices]


def qrrt_step(
    env: Environment,
    sys: LinearSystem,
    tree: Tree,
    n: int,
    mode,
    rng: np.random.Generator,
    record: TrialRecord,
    schedule: TemperatureSchedule | None = None,
) -> StepSummary:
    """One amplified planning step (build, tag, amplify, measure, finalize, admit);
    with a schedule, targets are ring-constrained."""
    db = _step_database(env, sys, tree, n, rng, schedule)
    (idx,), (good,) = _measure_and_finalize(db, mode, [rng], record)
    candidates = [(db.points[idx], int(db.parent_index[idx]))] if good else []
    return _admit_round(env, sys, tree, candidates, record)


def _classical_attempts(
    env: Environment,
    sys: LinearSystem,
    tree: Tree,
    rng: np.random.Generator,
    budget: int,
    record: TrialRecord,
) -> tuple[np.ndarray, int] | None:
    """The classical attempt kernel of rrt (budget 1) and of each prrt worker.

    Each attempt draws a sample, takes its nearest tree node and is charged
    one classical oracle call. Returns the first verified (point, parent
    index), or None once budget attempts have failed. A sample that
    coincides with a tree node would make a zero-length edge, so it is
    redrawn at no charge.
    """
    for _ in range(budget):
        for _ in range(64):
            point = sample_uniform_batch(env, rng, 1)[0]
            if not tree.has_point(point):
                break
        else:
            raise RuntimeError("could not draw a sample clear of existing nodes")
        parent_index = tree.nearest(point)
        record.calls_classical += 1
        if reachable(env, sys, tree.coords[parent_index], point):
            return point, parent_index
    return None


def rrt_step(
    env: Environment,
    sys: LinearSystem,
    tree: Tree,
    rng: np.random.Generator,
    record: TrialRecord,
) -> StepSummary:
    """Classical step: one attempt (sample, nearest parent, one oracle call), then admission."""
    found = _classical_attempts(env, sys, tree, rng, 1, record)
    return _admit_round(env, sys, tree, [] if found is None else [found], record)


@dataclass
class PlanResult:
    """Path (possibly empty), instrumentation record and the grown tree."""

    path: list[tuple[float, float]]
    record: TrialRecord
    tree: Tree

    @property
    def goal_found(self) -> bool:
        return bool(self.path)


def _plan(env: Environment, algorithm: str, seed: int, max_steps: int, step, target_nodes, cutoff) -> PlanResult:
    """The plan engine of every planner: step(tree, record) until a stop.

    It owns the record, the tree and the wall clock, captures the goal at
    the root when x0 = xG, and steps until the goal is captured or a budget
    runs out: max_steps steps, target_nodes admitted nodes, or cutoff
    cutoff-counted calls. The path is empty unless the goal was captured.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    record = TrialRecord(algorithm=algorithm, seed=seed)
    tree = Tree(env.x0)
    start = time.perf_counter()
    if np.array_equal(env.x0, env.xG):
        tree.goal_index = 0
    steps = 0
    while tree.goal_index is None and steps < max_steps:
        if target_nodes is not None and record.nodes_admitted >= target_nodes:
            break
        if cutoff is not None and record.cutoff_calls() >= cutoff:
            break
        step(tree, record)
        steps += 1
    record.wall_time_s = time.perf_counter() - start
    path = extract_path(tree) if tree.goal_index is not None else []
    return PlanResult(path=path, record=record, tree=tree)


def qrrt_plan(
    env: Environment,
    sys: LinearSystem,
    n: int,
    mode,
    max_steps: int,
    rng: np.random.Generator,
    *,
    schedule: TemperatureSchedule | None = None,
    target_nodes: int | None = None,
    cutoff: int | None = None,
    seed: int = -1,
) -> PlanResult:
    """Amplified steps until goal capture or a budget (steps, nodes, calls) runs out.

    The record is labelled qda under a schedule and qrrt without one. mode is
    checked before the first step, so a bad one builds no database."""
    _check_mode(mode)

    def step(tree, record):
        qrrt_step(env, sys, tree, n, mode, rng, record, schedule=schedule)

    return _plan(env, "qrrt" if schedule is None else "qda", seed, max_steps, step, target_nodes, cutoff)


def rrt_plan(
    env: Environment,
    sys: LinearSystem,
    max_steps: int,
    rng: np.random.Generator,
    *,
    target_nodes: int | None = None,
    cutoff: int | None = None,
    seed: int = -1,
) -> PlanResult:
    """Classical RRT steps under the same stops as qrrt_plan."""

    def step(tree, record):
        rrt_step(env, sys, tree, rng, record)

    return _plan(env, "rrt", seed, max_steps, step, target_nodes, cutoff)


def extract_path_indices(tree: Tree) -> list[int]:
    """Node indices root -> goal; requires a captured goal."""
    if tree.goal_index is None:
        raise ValueError("tree has not captured the goal")
    chain = []
    idx: int | None = tree.goal_index
    while idx is not None:
        chain.append(idx)
        idx = tree.parents[idx]
    chain.reverse()
    return chain


def extract_path(tree: Tree) -> list[tuple[float, float]]:
    """Node coordinates root -> goal; requires a captured goal."""
    return [tuple(tree.coords[i]) for i in extract_path_indices(tree)]
