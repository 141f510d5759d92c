"""Manager-worker pools: parallel RRT and the two pooled q-RRT variants.

Workers are pure functions of (database value or seed, tree snapshot), so
the pool runs them serially in worker-id order with per-worker RNG streams;
the observable behavior is identical to a concurrent pool because nothing a
worker reads is mutated until every worker has reported. In the quantum
modes every worker runs ``planner._measure_and_finalize``: its measured row
is charged one finalizer call and reads the tag's verdict; in the classical
mode every worker runs ``planner._classical_attempts``. The manager then
admits candidates in worker-id order through ``planner._admit_round``, the
admission loop of every planner step, so a pool step returns the same
StepSummary as rrt_step and qrrt_step. The steps take the worker streams as
a plain list from worker_rngs. run_parallel_plan picks the step from the
pool's mode and drives one per round through the planner's plan engine.

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

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import LinearSystem
from .env import Environment
from .planner import (
    PlanResult,
    Tree,
    _admit_round,
    _classical_attempts,
    _measure_and_finalize,
    _plan,
    build_database,
    tag_database,
)
from .records import StepSummary, TrialRecord

if TYPE_CHECKING:
    from .metrics import AlgorithmConfig

__all__ = [
    "WorkerPool",
    "worker_rngs",
    "pqrrt_manager_step",
    "pqrrt_unshared_step",
    "prrt_manager_step",
    "run_parallel_plan",
]

POOL_MODES = ("shared", "unshared", "classical")

# Widest pool accepted: 128x the shipped width (8). A pool holds one seed
# sequence and one generator per worker, built before the first step.
MAX_POOL_WIDTH = 1024


@dataclass(frozen=True)
class WorkerPool:
    """Pool configuration: width, mode, seeding and accounting flags.

    p is at most MAX_POOL_WIDTH. Exactly one of seeds (explicit, distinct,
    one per worker) or seed_base (deterministic per-worker derivation) must
    be given; seeds are never invented.
    """

    p: int
    mode: str
    seed_base: int | None = None
    seeds: tuple[int, ...] | None = None
    per_worker_budget: int = 64
    shared_amplification: bool = False

    def __post_init__(self):
        if not (1 <= self.p <= MAX_POOL_WIDTH):
            raise ValueError(f"pool width p must be in [1, {MAX_POOL_WIDTH}], got {self.p}")
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


def worker_rngs(pool: WorkerPool) -> list[np.random.Generator]:
    """One fresh stream per worker, in worker-id order: from the explicit
    seeds, or spawned from seed_base with the worker id as spawn key."""
    if pool.seeds is not None:
        seqs = [np.random.SeedSequence(s) for s in pool.seeds]
    else:
        seqs = [np.random.SeedSequence(entropy=pool.seed_base, spawn_key=(wid,)) for wid in range(pool.p)]
    return [np.random.default_rng(seq) for seq in seqs]


def pqrrt_manager_step(
    env: Environment,
    sys: LinearSystem,
    tree: Tree,
    n: int,
    rngs: list[np.random.Generator],
    mode,
    rng: np.random.Generator,
    record: TrialRecord,
    shared_amplification: bool = False,
) -> StepSummary:
    """Shared-database round: build, tag, pooled measurement, ordered admission.

    A row measured by several workers is admitted once; the repeats count as
    duplicates. Amplification is charged once per worker in rngs, or once
    for the pool under shared_amplification.
    """
    db = tag_database(env, sys, build_database(env, tree, n, rng))
    charged = 1 if shared_amplification else len(rngs)
    indices, verified = _measure_and_finalize(db, mode, rngs, record, charged)
    rows = dict.fromkeys(idx for idx, good in zip(indices.tolist(), verified.tolist()) if good)
    candidates = [(db.points[idx], int(db.parent_index[idx])) for idx in rows]
    return _admit_round(env, sys, tree, candidates, record, repeats=int(verified.sum()) - len(rows))


def pqrrt_unshared_step(
    env: Environment,
    sys: LinearSystem,
    tree: Tree,
    n: int,
    rngs: list[np.random.Generator],
    mode,
    record: TrialRecord,
) -> StepSummary:
    """Per-worker databases against one tree snapshot; admission stays ordered.

    All workers build and measure before anything is admitted, so every
    database sees the same snapshot.
    """
    # A worker keeps only its verified measured row, not its database.
    candidates = []
    for wrng in rngs:
        db = tag_database(env, sys, build_database(env, tree, n, wrng))
        (idx,), (good,) = _measure_and_finalize(db, mode, [wrng], record)
        if good:
            candidates.append((db.points[idx].copy(), int(db.parent_index[idx])))
    return _admit_round(env, sys, tree, candidates, record)


def prrt_manager_step(
    env: Environment,
    sys: LinearSystem,
    tree: Tree,
    rngs: list[np.random.Generator],
    budget: int,
    record: TrialRecord,
) -> StepSummary:
    """Classical pooled round: each worker runs the classical attempt kernel
    with up to budget attempts against the same tree snapshot."""
    attempts = [_classical_attempts(env, sys, tree, wrng, budget, record) for wrng in rngs]
    return _admit_round(env, sys, tree, [found for found in attempts if found is not None], record)


def run_parallel_plan(
    env: Environment,
    sys: LinearSystem,
    config: AlgorithmConfig,
    seed: int,
    *,
    target_nodes: int | None = None,
    cutoff: int | None = None,
) -> PlanResult:
    """The plan engine stepping a pooled algorithm's pool with its mode's step.

    config names prrt, pqrrt-shared or pqrrt-unshared and carries its pool.
    seed drives the manager's own stream (database builds in shared mode);
    worker streams come from the pool's seed configuration. Each round looks
    its pool step up by module name, so a wrapper installed there sees it.
    """
    pool = config.pool
    rngs = worker_rngs(pool)
    rng = np.random.default_rng(seed)
    step = {
        "shared": lambda tree, record: pqrrt_manager_step(
            env, sys, tree, config.n, rngs, config.mode, rng, record, pool.shared_amplification
        ),
        "unshared": lambda tree, record: pqrrt_unshared_step(env, sys, tree, config.n, rngs, config.mode, record),
        "classical": lambda tree, record: prrt_manager_step(env, sys, tree, rngs, pool.per_worker_budget, record),
    }[pool.mode]
    return _plan(env, config.name, seed, config.max_steps, step, target_nodes, cutoff)
