"""Worker pools: seeding, shared/unshared/classical rounds, pooled plan loops."""

import numpy as np
import pytest

from qrrt import dynamics, parallel, planner, qsim
from qrrt.env import Environment
from qrrt.metrics import AlgorithmConfig
from qrrt.parallel import (
    PoolRuntime,
    WorkerPool,
    pqrrt_manager_step,
    pqrrt_unshared_step,
    prrt_manager_step,
    run_parallel_plan,
    worker_seed_sequences,
)
from qrrt.planner import (
    TemperatureSchedule,
    Tree,
    _measure_and_finalize,
    build_database,
    qrrt_plan,
    qrrt_step,
    rrt_step,
    tag_database,
)
from qrrt.records import TrialRecord


def record():
    return TrialRecord(algorithm="test", seed=0)


@pytest.fixture
def sealed_root_env():
    # Tiny walled pocket around the start: no sample outside it is reachable.
    return Environment(
        bounds=(0, 0, 10, 10),
        obstacles=(
            (0.9, 0.9, 1.1, 0.95),
            (0.9, 0.9, 0.95, 1.1),
            (0.9, 1.05, 1.1, 1.1),
            (1.05, 0.9, 1.1, 1.1),
        ),
        x0=(1.0, 1.0),
        xG=(9.0, 9.0),
        delta=0.5,
    )


# ---------------------------------------------------------------------------
# Pool configuration and seeding
# ---------------------------------------------------------------------------


def test_pool_requires_exactly_one_seed_source():
    with pytest.raises(ValueError):
        WorkerPool(p=2, mode="shared")
    with pytest.raises(ValueError):
        WorkerPool(p=2, mode="shared", seed_base=1, seeds=(1, 2))


def test_pool_validation():
    with pytest.raises(ValueError):
        WorkerPool(p=0, mode="shared", seed_base=1)
    with pytest.raises(ValueError):
        WorkerPool(p=2, mode="turbo", seed_base=1)
    with pytest.raises(ValueError):
        WorkerPool(p=2, mode="shared", seeds=(5, 5))
    with pytest.raises(ValueError):
        WorkerPool(p=3, mode="shared", seeds=(1, 2))
    with pytest.raises(ValueError):
        WorkerPool(p=2, mode="shared", seed_base=1, per_worker_budget=0)


def test_pool_width_is_capped(monkeypatch):
    # Nothing of size p may be built before the check: not the seed tuple, not a stream.
    def must_not_run(*args, **kwargs):
        raise AssertionError("built per-worker state past the pool width bound")

    monkeypatch.setattr(np.random, "SeedSequence", must_not_run)
    for p in (parallel.MAX_POOL_WIDTH + 1, 10**11):
        with pytest.raises(ValueError, match="pool width"):
            WorkerPool(p=p, mode="classical", seed_base=1)
        with pytest.raises(ValueError, match="pool width"):
            WorkerPool(p=p, mode="shared", seeds=(1, 2))
    monkeypatch.undo()
    pool = WorkerPool(p=parallel.MAX_POOL_WIDTH, mode="shared", seed_base=1)
    assert len(PoolRuntime.start(pool).worker_rngs) == parallel.MAX_POOL_WIDTH


def test_worker_seed_sequences_derivation():
    pool = WorkerPool(p=3, mode="shared", seed_base=42)
    seqs = worker_seed_sequences(pool)
    assert [s.entropy for s in seqs] == [42, 42, 42]
    assert [s.spawn_key for s in seqs] == [(0,), (1,), (2,)]
    explicit = worker_seed_sequences(WorkerPool(p=2, mode="unshared", seeds=(7, 9)))
    assert [s.entropy for s in explicit] == [7, 9]


def test_runtime_streams_are_distinct_and_reproducible():
    pool = WorkerPool(p=4, mode="shared", seed_base=10)
    a = PoolRuntime.start(pool)
    b = PoolRuntime.start(pool)
    assert len(a.worker_rngs) == 4
    draws_a = [r.random() for r in a.worker_rngs]
    draws_b = [r.random() for r in b.worker_rngs]
    assert draws_a == draws_b
    assert len(set(draws_a)) == 4


# ---------------------------------------------------------------------------
# Shared rounds
# ---------------------------------------------------------------------------


def test_shared_step_matches_independent_replay(box_env, system):
    pool = WorkerPool(p=8, mode="shared", seed_base=101)
    tree = Tree(box_env.x0)
    rec = record()
    summary = pqrrt_manager_step(
        box_env, system, tree, 6, PoolRuntime.start(pool), "optimal", np.random.default_rng(55), rec
    )

    # Replay with cloned streams: same database, same measurements.
    db = tag_database(
        box_env, system, build_database(box_env, Tree(box_env.x0), 6, np.random.default_rng(55))
    )
    indices, verified = _measure_and_finalize(db, "optimal", PoolRuntime.start(pool).worker_rngs, record(), 8)
    assert len(indices) == 8

    expected_points = []
    seen = set()
    dups = failures = 0
    for idx, ok in zip(indices.tolist(), verified.tolist()):
        if not ok:
            failures += 1
        elif idx in seen:
            dups += 1
        else:
            seen.add(idx)
            expected_points.append(tuple(db.points[idx]))
    assert failures + dups + len(expected_points) == 8
    assert summary.duplicates_discarded == dups
    assert list(summary.admitted_indices) == sorted(summary.admitted_indices)
    if tree.goal_index is None:  # a goal snap would rewrite one admitted point
        assert [tuple(tree.coords[i]) for i in summary.admitted_indices] == expected_points


def _quantum_steps(system):
    """One step of each quantum algorithm, as (name, step(env, tree, record))."""
    rng = np.random.default_rng(8)
    schedule = TemperatureSchedule(stages=((16, 2.7, 4.2), (32, 0.8, 2.0)))
    shared = PoolRuntime.start(WorkerPool(p=4, mode="shared", seed_base=9))
    unshared = PoolRuntime.start(WorkerPool(p=4, mode="unshared", seed_base=10))
    return [
        ("qrrt", lambda env, tree, rec: qrrt_step(env, system, tree, 6, "optimal", rng, rec)),
        ("qda", lambda env, tree, rec: qrrt_step(env, system, tree, 6, "optimal", rng, rec, schedule=schedule)),
        ("pqrrt-shared", lambda env, tree, rec: pqrrt_manager_step(env, system, tree, 6, shared, "optimal", rng, rec)),
        ("pqrrt-unshared", lambda env, tree, rec: pqrrt_unshared_step(env, system, tree, 6, unshared, "optimal", rec)),
    ]


@pytest.mark.parametrize("goal_delta", [None, 20.0], ids=["no-snap", "snap"])
def test_quantum_finalizers_make_no_oracle_call(monkeypatch, box_env, system, goal_delta):
    # Wrap every name the planners reach the oracle by outside tagging
    # (tag_database calls its own imported reachable_batch, left unwrapped).
    # A single-row reachable() runs through reachable_batch: count the outer call.
    oracle_rows, depth = [], [0]

    def spy(fn):
        def wrapped(env, sys, parents, targets):
            if depth[0] == 0:
                rows = zip(np.reshape(parents, (-1, 2)).tolist(), np.reshape(targets, (-1, 2)).tolist())
                oracle_rows.extend((tuple(a), tuple(b)) for a, b in rows)
            depth[0] += 1
            try:
                return fn(env, sys, parents, targets)
            finally:
                depth[0] -= 1

        return wrapped

    monkeypatch.setattr(dynamics, "reachable_batch", spy(dynamics.reachable_batch))
    monkeypatch.setattr(planner, "reachable", spy(planner.reachable))
    # Measured rows: each measurement reads the database tagged last.
    tagged, measured = [], []

    def spy_tag(fn):
        def wrapped(*args):
            tagged.append(fn(*args))
            return tagged[-1]

        return wrapped

    for module in (planner, parallel):
        monkeypatch.setattr(module, "tag_database", spy_tag(module.tag_database))
    original_measure = qsim.measure

    def spy_measure(state, rng):
        idx = original_measure(state, rng)
        db = tagged[-1]
        measured.append((tuple(db.parent_points[idx].tolist()), tuple(db.points[idx].tolist())))
        return idx

    monkeypatch.setattr(qsim, "measure", spy_measure)

    env = box_env
    if goal_delta is not None:  # every admitted candidate is within delta of the goal
        env = Environment(bounds=env.bounds, obstacles=env.obstacles, x0=env.x0, xG=env.xG, delta=goal_delta)
    goal = tuple(env.xG.tolist())
    for name, step in _quantum_steps(system):
        oracle_rows.clear()
        measured.clear()
        tree, rec = Tree(env.x0), record()
        for _ in range(3):
            step(env, tree, rec)
        assert measured, name
        assert not set(measured) & set(oracle_rows), name
        snaps = sum(target == goal for _, target in oracle_rows)
        assert len(oracle_rows) == snaps, name  # only goal snaps reach the oracle
        assert rec.calls_finalizer == len(measured) + snaps, name
        if goal_delta is not None:
            assert snaps == 1 and tree.goal_index is not None, name


def test_shared_step_charges_every_worker_for_amplification(free_env, system):
    coords = []
    for shared, expect_amp in ((False, 2 * 4), (True, 2)):
        pool = WorkerPool(p=4, mode="shared", seed_base=11, shared_amplification=shared)
        tree = Tree(free_env.x0)
        rec = record()
        pqrrt_manager_step(
            free_env, system, tree, 6, PoolRuntime.start(pool), 2, np.random.default_rng(3), rec
        )
        assert rec.calls_amplification == expect_amp
        assert rec.calls_finalizer >= 4  # one verification per worker
        coords.append(tree.coords.copy())
    # Accounting flag never changes planning behaviour.
    np.testing.assert_array_equal(coords[0], coords[1])


def test_shared_step_appends_one_m_per_round(free_env, system):
    pool = WorkerPool(p=8, mode="shared", seed_base=4)
    rec = record()
    runtime = PoolRuntime.start(pool)
    rng = np.random.default_rng(6)
    tree = Tree(free_env.x0)
    pqrrt_manager_step(free_env, system, tree, 6, runtime, "optimal", rng, rec)
    pqrrt_manager_step(free_env, system, tree, 6, runtime, "optimal", rng, rec)
    assert rec.per_step_m == [64, 64]  # free space: all 2^6 entries reachable


def test_shared_step_rejects_wrong_pool_mode(free_env, system, rng):
    pool = WorkerPool(p=2, mode="classical", seed_base=1)
    with pytest.raises(ValueError):
        pqrrt_manager_step(
            free_env, system, Tree(free_env.x0), 4, PoolRuntime.start(pool), "optimal", rng, record()
        )


# ---------------------------------------------------------------------------
# Unshared rounds
# ---------------------------------------------------------------------------


def test_unshared_step_uses_one_tree_snapshot(free_env, system):
    pool = WorkerPool(p=8, mode="unshared", seed_base=21)
    tree = Tree(free_env.x0)
    rec = record()
    summary = pqrrt_unshared_step(free_env, system, tree, 6, PoolRuntime.start(pool), "optimal", rec)
    assert len(rec.per_step_m) == 8  # one database per worker
    assert len(summary.admitted_indices) >= 1
    # Databases were all built against the root-only snapshot.
    for idx in summary.admitted_indices:
        assert tree.parents[idx] == 0


def test_unshared_step_rejects_wrong_pool_mode(free_env, system):
    pool = WorkerPool(p=2, mode="shared", seed_base=1)
    with pytest.raises(ValueError):
        pqrrt_unshared_step(
            free_env, system, Tree(free_env.x0), 4, PoolRuntime.start(pool), "optimal", record()
        )


def test_single_unshared_worker_matches_sequential_planner(box_env, system):
    pool = WorkerPool(p=1, mode="unshared", seeds=(123,))
    cfg = AlgorithmConfig(name="pqrrt-unshared", pool=pool, n=6, mode="optimal", max_steps=300)
    par = run_parallel_plan(box_env, system, cfg, seed=0, target_nodes=5)
    seq = qrrt_plan(
        box_env, system, 6, "optimal", 300, np.random.default_rng(123), target_nodes=5
    )
    np.testing.assert_array_equal(par.tree.coords, seq.tree.coords)
    assert par.tree.parents == seq.tree.parents
    assert par.record.per_step_m == seq.record.per_step_m
    assert par.record.calls_amplification == seq.record.calls_amplification
    assert par.record.calls_finalizer == seq.record.calls_finalizer


# ---------------------------------------------------------------------------
# Classical rounds
# ---------------------------------------------------------------------------


def test_classical_single_worker_matches_sequential_step(free_env, system):
    pool = WorkerPool(p=1, mode="classical", seeds=(9,), per_worker_budget=1)
    t_pool = Tree(free_env.x0)
    r_pool = record()
    prrt_manager_step(free_env, system, t_pool, PoolRuntime.start(pool), r_pool)
    t_seq = Tree(free_env.x0)
    r_seq = record()
    rrt_step(free_env, system, t_seq, np.random.default_rng(9), r_seq)
    np.testing.assert_array_equal(t_pool.coords, t_seq.coords)
    assert r_pool.calls_classical == r_seq.calls_classical == 1


def test_classical_round_in_free_space_admits_every_worker(free_env, system):
    pool = WorkerPool(p=8, mode="classical", seed_base=33, per_worker_budget=4)
    tree = Tree(free_env.x0)
    rec = record()
    summary = prrt_manager_step(free_env, system, tree, PoolRuntime.start(pool), rec)
    assert len(summary.admitted_indices) == 8
    assert rec.calls_classical == 8  # free space: first draw always verifies
    assert len(tree) == 9


def test_classical_round_exhausts_budget_when_blocked(sealed_root_env, system):
    pool = WorkerPool(p=4, mode="classical", seed_base=13, per_worker_budget=3)
    tree = Tree(sealed_root_env.x0)
    rec = record()
    summary = prrt_manager_step(sealed_root_env, system, tree, PoolRuntime.start(pool), rec)
    assert summary.admitted_indices == ()
    assert rec.calls_classical == 4 * 3
    assert len(tree) == 1


def test_classical_step_rejects_wrong_pool_mode(free_env, system):
    pool = WorkerPool(p=2, mode="unshared", seed_base=1)
    with pytest.raises(ValueError):
        prrt_manager_step(free_env, system, Tree(free_env.x0), PoolRuntime.start(pool), record())


# ---------------------------------------------------------------------------
# Pooled plan loop
# ---------------------------------------------------------------------------


def test_run_parallel_plan_labels(system):
    for mode, label in (("shared", "pqrrt-shared"), ("unshared", "pqrrt-unshared"), ("classical", "prrt")):
        pool = WorkerPool(p=2, mode=mode, seed_base=5)
        cfg = AlgorithmConfig(name=label, pool=pool, n=4, max_steps=10)
        env = Environment(bounds=(0, 0, 10, 10), obstacles=(), x0=(5, 5), xG=(5, 5), delta=0.5)
        result = run_parallel_plan(env, system, cfg, seed=1)
        assert result.record.algorithm == label
        assert result.goal_found and result.record.total_calls() == 0


def test_run_parallel_plan_deterministic(box_env, system):
    pool = WorkerPool(p=4, mode="shared", seed_base=77)
    cfg = AlgorithmConfig(name="pqrrt-shared", pool=pool, n=6, max_steps=100)
    runs = [
        run_parallel_plan(box_env, system, cfg, seed=9, target_nodes=6) for _ in range(2)
    ]
    np.testing.assert_array_equal(runs[0].tree.coords, runs[1].tree.coords)
    assert runs[0].record.total_calls() == runs[1].record.total_calls()
    assert runs[0].record.per_step_m == runs[1].record.per_step_m
    assert runs[0].path == runs[1].path


def test_run_parallel_plan_stops_on_cutoff(free_env, system):
    pool = WorkerPool(p=4, mode="classical", seed_base=3, per_worker_budget=2)
    cfg = AlgorithmConfig(name="prrt", pool=pool, max_steps=1000)
    result = run_parallel_plan(free_env, system, cfg, seed=2, cutoff=10)
    assert result.goal_found or result.record.cutoff_calls() >= 10


def test_run_parallel_plan_validates_max_steps(free_env, system):
    pool = WorkerPool(p=2, mode="shared", seed_base=5)
    with pytest.raises(ValueError):
        run_parallel_plan(free_env, system, AlgorithmConfig(name="pqrrt-shared", pool=pool, max_steps=0), seed=1)
