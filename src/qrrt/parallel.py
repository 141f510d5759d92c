"""Manager-worker pools: parallel RRT and the two pooled q-RRT variants.

Workers are pure functions of (database value or seed, tree snapshot), so
the pool runs them serially in worker-id order with per-worker RNG streams;
the observable behavior is identical to a concurrent pool because nothing a
worker reads is mutated until every worker has reported. In the quantum
modes every worker runs ``planner._measure_and_finalize``: its measured row
is charged one finalizer call and reads the tag's verdict. The manager then
admits candidates in worker-id order, discarding repeats.

Pool modes:

* shared: the manager builds and tags one database per step; every worker
  amplifies the same state (computed once, since it is identical for all)
  and measures with its own stream. Amplification is charged per worker, or
  once for the whole pool under shared-amplification accounting.
* unshared: every worker builds, tags, amplifies and measures its own
  database from its own stream against the common tree snapshot.
* classical: every worker runs sample/nearest/verify attempts until it finds
  an admissible candidate or exhausts its per-step call budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import LinearSystem, reachable
from .env import Environment, sample_uniform_batch
from .planner import (
    PlanResult,
    Tree,
    _admit_candidate,
    _measure_and_finalize,
    _stop,
    build_database,
    extract_path,
    tag_database,
)
from .records import ADDED, StepSummary, StopWatch, TrialRecord

__all__ = [
    "WorkerPool",
    "PoolRuntime",
    "ParallelPlanConfig",
    "worker_seed_sequences",
    "pqrrt_manager_step",
    "pqrrt_unshared_step",
    "prrt_manager_step",
    "run_parallel_plan",
]

POOL_MODES = ("shared", "unshared", "classical")


@dataclass(frozen=True)
class WorkerPool:
    """Pool configuration: width, mode, seeding and accounting flags.

    Exactly one of seeds (explicit, distinct, one per worker) or seed_base
    (deterministic per-worker derivation) must be given; seeds are never
    invented.
    """

    p: int
    mode: str
    seed_base: int | None = None
    seeds: tuple[int, ...] | None = None
    per_worker_budget: int = 64
    shared_amplification: bool = False

    def __post_init__(self):
        if not (self.p >= 1):
            raise ValueError(f"pool width p must be >= 1, got {self.p}")
        if self.mode not in POOL_MODES:
            raise ValueError(f"pool mode must be one of {POOL_MODES}, got {self.mode!r}")
        if (self.seeds is None) == (self.seed_base is None):
            raise ValueError("exactly one of seeds or seed_base is required")
        if self.seeds is not None:
            seeds = tuple(int(s) for s in self.seeds)
            if len(seeds) != self.p:
                raise ValueError(f"need {self.p} worker seeds, got {len(seeds)}")
            if len(set(seeds)) != len(seeds):
                raise ValueError("worker seeds must be distinct")
            object.__setattr__(self, "seeds", seeds)
        if not (self.per_worker_budget >= 1):
            raise ValueError(f"per_worker_budget must be >= 1, got {self.per_worker_budget}")

    @classmethod
    def from_config(cls, cfg: dict) -> "WorkerPool":
        try:
            p = cfg["p"]
            mode = cfg["mode"]
        except KeyError as exc:
            raise ValueError(f"pool config is missing key {exc}") from exc
        return cls(
            p=int(p),
            mode=mode,
            seed_base=cfg.get("seed_base"),
            seeds=tuple(cfg["seeds"]) if "seeds" in cfg else None,
            per_worker_budget=int(cfg.get("per_worker_budget", 64)),
            shared_amplification=bool(cfg.get("shared_amplification", False)),
        )


def worker_seed_sequences(pool: WorkerPool) -> list[np.random.SeedSequence]:
    if pool.seeds is not None:
        return [np.random.SeedSequence(s) for s in pool.seeds]
    return [
        np.random.SeedSequence(entropy=pool.seed_base, spawn_key=(wid,))
        for wid in range(pool.p)
    ]


@dataclass
class PoolRuntime:
    """A pool plus its live per-worker RNG streams (one planning run's state)."""

    pool: WorkerPool
    worker_rngs: list[np.random.Generator] = field(default_factory=list)

    @classmethod
    def start(cls, pool: WorkerPool) -> "PoolRuntime":
        return cls(
            pool=pool,
            worker_rngs=[np.random.default_rng(seq) for seq in worker_seed_sequences(pool)],
        )


def _summary(record: TrialRecord, admitted: list[int], dups_before: int, calls_before: int) -> StepSummary:
    return StepSummary(
        admitted_indices=tuple(admitted),
        duplicates_discarded=record.duplicates_discarded - dups_before,
        oracle_calls=record.total_calls() - calls_before,
    )


def _admit_in_order(env: Environment, sys: LinearSystem, tree: Tree, candidates, record: TrialRecord) -> list[int]:
    """Admit (point, parent index) candidates in worker order; the admitted node indices."""
    admitted = []
    for point, parent_index in candidates:
        step = _admit_candidate(env, sys, tree, point, parent_index, record)
        if step.outcome == ADDED:
            admitted.append(step.node_index)
    return admitted


def pqrrt_manager_step(
    env: Environment,
    sys: LinearSystem,
    tree: Tree,
    n: int,
    runtime: PoolRuntime,
    mode,
    rng: np.random.Generator,
    record: TrialRecord,
) -> StepSummary:
    """Shared-database round: build, tag, pooled measurement, ordered admission."""
    if runtime.pool.mode != "shared":
        raise ValueError(f"pool mode {runtime.pool.mode!r} cannot run a shared step")
    pool = runtime.pool
    dups_before = record.duplicates_discarded
    calls_before = record.total_calls()
    db = tag_database(env, sys, build_database(env, tree, n, rng))
    charged = 1 if pool.shared_amplification else pool.p
    indices, verified = _measure_and_finalize(db, mode, runtime.worker_rngs, record, charged)
    candidates = []
    seen_indices: set[int] = set()
    for idx, good in zip(indices.tolist(), verified.tolist()):
        if not good:
            continue
        if idx in seen_indices:
            record.duplicates_discarded += 1
            continue
        seen_indices.add(idx)
        candidates.append((db.points[idx], int(db.parent_index[idx])))
    admitted = _admit_in_order(env, sys, tree, candidates, record)
    return _summary(record, admitted, dups_before, calls_before)


def pqrrt_unshared_step(
    env: Environment,
    sys: LinearSystem,
    tree: Tree,
    n: int,
    runtime: PoolRuntime,
    mode,
    record: TrialRecord,
) -> StepSummary:
    """Per-worker databases against one tree snapshot; admission stays ordered.

    All workers build and measure before anything is admitted, so every
    database sees the same snapshot.
    """
    if runtime.pool.mode != "unshared":
        raise ValueError(f"pool mode {runtime.pool.mode!r} cannot run an unshared step")
    dups_before = record.duplicates_discarded
    calls_before = record.total_calls()
    # A worker keeps only its verified measured row, not its database.
    candidates = []
    for wrng in runtime.worker_rngs:
        db = tag_database(env, sys, build_database(env, tree, n, wrng))
        (idx,), (good,) = _measure_and_finalize(db, mode, [wrng], record)
        if good:
            candidates.append((db.points[idx].copy(), int(db.parent_index[idx])))
    admitted = _admit_in_order(env, sys, tree, candidates, record)
    return _summary(record, admitted, dups_before, calls_before)


def prrt_manager_step(
    env: Environment,
    sys: LinearSystem,
    tree: Tree,
    runtime: PoolRuntime,
    record: TrialRecord,
) -> StepSummary:
    """Classical pooled round: each worker retries until success or budget."""
    if runtime.pool.mode != "classical":
        raise ValueError(f"pool mode {runtime.pool.mode!r} cannot run a classical step")
    pool = runtime.pool
    dups_before = record.duplicates_discarded
    calls_before = record.total_calls()
    candidates = []
    for wrng in runtime.worker_rngs:
        for _ in range(pool.per_worker_budget):
            # Budget counts oracle calls; a coincident sample is redrawn free.
            for _ in range(64):
                point = sample_uniform_batch(env, wrng, 1)[0]
                if not tree.has_point(point):
                    break
            else:
                raise RuntimeError("could not draw a sample clear of existing nodes")
            parent_index = tree.nearest(point)
            record.calls_classical += 1
            if reachable(env, sys, tree.coords[parent_index], point):
                candidates.append((point, parent_index))
                break
    admitted = _admit_in_order(env, sys, tree, candidates, record)
    return _summary(record, admitted, dups_before, calls_before)


@dataclass(frozen=True)
class ParallelPlanConfig:
    """A pooled planning run: pool, database exponent, iteration mode, budget."""

    pool: WorkerPool
    n: int = 8
    mode: object = "optimal"  # "optimal" or a fixed iteration count
    max_steps: int = 10_000


def run_parallel_plan(
    env: Environment,
    sys: LinearSystem,
    config: ParallelPlanConfig,
    seed: int,
    *,
    target_nodes: int | None = None,
    cutoff: int | None = None,
) -> PlanResult:
    """Manager loop for whichever pool mode the config carries.

    seed drives the manager's own stream (database builds in shared mode);
    worker streams come from the pool's seed configuration.
    """
    if config.max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {config.max_steps}")
    pool = config.pool
    label = {"shared": "pqrrt-shared", "unshared": "pqrrt-unshared", "classical": "prrt"}[pool.mode]
    record = TrialRecord(algorithm=label, seed=seed)
    tree = Tree(env.x0)
    runtime = PoolRuntime.start(pool)
    rng = np.random.default_rng(seed)
    with StopWatch(record):
        if np.array_equal(env.x0, env.xG):
            tree.goal_index = 0
        steps = 0
        while not _stop(record, tree, steps, config.max_steps, target_nodes, cutoff):
            if pool.mode == "shared":
                pqrrt_manager_step(env, sys, tree, config.n, runtime, config.mode, rng, record)
            elif pool.mode == "unshared":
                pqrrt_unshared_step(env, sys, tree, config.n, runtime, config.mode, record)
            else:
                prrt_manager_step(env, sys, tree, runtime, record)
            steps += 1
    path = extract_path(tree) if tree.goal_index is not None else []
    return PlanResult(path=path, record=record, tree=tree)
