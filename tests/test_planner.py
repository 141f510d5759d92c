"""Tree mechanics, database construction/tagging, schedules and the sequential planners."""

import tracemalloc

import numpy as np
import pytest

from qrrt.dynamics import default_system, reachable
from qrrt.env import Environment, GeneratorSpec, generate_random_env
from qrrt.planner import (
    MAX_DATABASE_EXPONENT,
    Database,
    TemperatureSchedule,
    Tree,
    _admit_candidate,
    _qaa_admit_step,
    advance_temperature,
    build_database,
    build_database_annealed,
    extract_path,
    extract_path_indices,
    nearest,
    qrrt_plan,
    qrrt_step,
    resolve_iterations,
    rrt_plan,
    tag_database,
)
from qrrt.records import ADDED, DUPLICATE, FAILED, TrialRecord


def record():
    return TrialRecord(algorithm="test", seed=0)


@pytest.fixture
def walled_goal_env():
    # Goal pocket sealed by three walls plus the domain boundary on the right.
    return Environment(
        bounds=(0, 0, 10, 10),
        obstacles=((8.0, 8.0, 8.4, 10.0), (8.0, 8.0, 10.0, 8.4), (8.0, 9.6, 10.0, 10.0)),
        x0=(1.0, 1.0),
        xG=(9.0, 9.0),
        delta=0.5,
    )


# ---------------------------------------------------------------------------
# Tree
# ---------------------------------------------------------------------------


def test_tree_starts_with_root():
    tree = Tree((1.0, 2.0))
    assert len(tree) == 1
    assert tree.parents == [None]
    assert tree.goal_index is None
    np.testing.assert_array_equal(tree.node(0), [1.0, 2.0])


def test_tree_add_and_lookup():
    tree = Tree((0.0, 0.0))
    idx = tree.add((1.0, 1.0), 0)
    assert idx == 1
    assert tree.parents[1] == 0
    assert tree.has_point((1.0, 1.0))
    assert not tree.has_point((1.0, 1.0000001))


def test_tree_rejects_duplicate_point():
    tree = Tree((0.0, 0.0))
    tree.add((1.0, 1.0), 0)
    with pytest.raises(ValueError):
        tree.add((1.0, 1.0), 0)
    with pytest.raises(ValueError):
        tree.add((0.0, 0.0), 0)


def test_tree_rejects_bad_parent():
    tree = Tree((0.0, 0.0))
    with pytest.raises(IndexError):
        tree.add((1.0, 1.0), 1)
    with pytest.raises(IndexError):
        tree.add((1.0, 1.0), -1)


def test_nearest_tie_resolves_to_lowest_index():
    tree = Tree((0.0, 0.0))
    tree.add((2.0, 0.0), 0)
    # (1, 0) is exactly equidistant; the earlier node wins.
    assert nearest(tree, (1.0, 0.0)) == 0


def test_nearest_matches_brute_force(rng):
    tree = Tree((5.0, 5.0))
    pts = rng.uniform(0.0, 10.0, size=(1000, 2))
    for p in pts:
        tree.add(p, 0)
    queries = rng.uniform(0.0, 10.0, size=(50, 2))
    coords = tree.coords
    for q in queries:
        d2 = np.sum((coords - q) ** 2, axis=1)
        assert tree.nearest(q) == int(np.argmin(d2))
    batch = tree.nearest_batch(queries)
    assert batch.tolist() == [tree.nearest(q) for q in queries]


def test_tree_grows_past_initial_capacity(rng):
    tree = Tree((0.0, 0.0))
    pts = rng.uniform(0.0, 1.0, size=(200, 2))
    for i, p in enumerate(pts):
        idx = tree.add(p, i)  # chain: each node parents the next
        assert idx == i + 1
    assert len(tree) == 201
    assert tree.coords.shape == (201, 2)
    assert len(tree.parents) == 201
    np.testing.assert_array_equal(tree.node(200), pts[-1])
    np.testing.assert_array_equal(tree.node(1), pts[0])


# ---------------------------------------------------------------------------
# Database construction
# ---------------------------------------------------------------------------


def test_build_database_sizes(free_env, rng):
    tree = Tree(free_env.x0)
    db0 = build_database(free_env, tree, 0, rng)
    assert db0.points.shape == (1, 2)
    db8 = build_database(free_env, tree, 8, rng)
    assert db8.points.shape == (256, 2)
    assert db8.parent_index.shape == (256,)
    assert db8.parent_points.shape == (256, 2)
    assert db8.good_mask is None and db8.m is None


def test_build_database_exponent_bounds(free_env, rng):
    tree = Tree(free_env.x0)
    with pytest.raises(ValueError):
        build_database(free_env, tree, -1, rng)
    with pytest.raises(ValueError):
        build_database(free_env, tree, MAX_DATABASE_EXPONENT + 1, rng)


def test_build_database_parents_are_nearest(free_env, rng):
    tree = Tree(free_env.x0)
    for p in rng.uniform(0.5, 9.5, size=(12, 2)):
        tree.add(p, 0)
    db = build_database(free_env, tree, 6, rng)
    np.testing.assert_array_equal(db.parent_index, tree.nearest_batch(db.points))
    np.testing.assert_array_equal(db.parent_points, tree.coords[db.parent_index])
    lo, hi = free_env.bounds[:2], free_env.bounds[2:]
    assert np.all(db.points >= lo) and np.all(db.points <= hi)


def test_build_database_deterministic(free_env):
    tree = Tree(free_env.x0)
    a = build_database(free_env, tree, 7, np.random.default_rng(7))
    b = build_database(free_env, tree, 7, np.random.default_rng(7))
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.parent_index, b.parent_index)


def test_annealed_database_respects_radius_band(free_env, rng):
    tree = Tree(free_env.x0)
    tree.add((8.0, 2.0), 0)
    sched = TemperatureSchedule(stages=((16, 2.7, 4.2), (32, 0.8, 2.0)))
    db = build_database_annealed(free_env, tree, 8, sched, rng)
    dist = np.hypot(*(db.points - db.parent_points).T)
    assert np.all(dist >= 2.7 - 1e-9) and np.all(dist <= 4.2 + 1e-9)
    np.testing.assert_array_equal(db.parent_points, tree.coords[db.parent_index])


def test_annealed_database_uses_stage_for_current_h(free_env, rng):
    tree = Tree(free_env.x0)
    sched = TemperatureSchedule(stages=((16, 2.7, 4.2), (32, 0.8, 2.0)), h=16)
    db = build_database_annealed(free_env, tree, 8, sched, rng)
    dist = np.hypot(*(db.points - db.parent_points).T)
    assert np.all(dist >= 0.8 - 1e-9) and np.all(dist <= 2.0 + 1e-9)


def test_annealed_database_degenerate_band_is_a_ring(free_env, rng):
    tree = Tree(free_env.x0)
    sched = TemperatureSchedule(stages=((4, 1.5, 1.5),))
    db = build_database_annealed(free_env, tree, 6, sched, rng)
    dist = np.hypot(*(db.points - db.parent_points).T)
    np.testing.assert_allclose(dist, 1.5, atol=1e-9)


def test_annealed_database_deterministic(free_env):
    tree = Tree(free_env.x0)
    sched = TemperatureSchedule(stages=((8, 1.0, 2.0),))
    a = build_database_annealed(free_env, tree, 6, sched, np.random.default_rng(3))
    b = build_database_annealed(free_env, tree, 6, sched, np.random.default_rng(3))
    np.testing.assert_array_equal(a.points, b.points)


def test_tag_database_matches_direct_oracle(box_env, system, rng):
    tree = Tree(box_env.x0)
    tree.add((8.0, 1.5), 0)
    db = tag_database(box_env, system, build_database(box_env, tree, 7, rng))
    expect = np.array(
        [
            reachable(box_env, system, db.parent_points[i], db.points[i])
            for i in range(db.points.shape[0])
        ]
    )
    np.testing.assert_array_equal(db.good_mask, expect)
    assert db.m == int(expect.sum())
    assert 0 < db.m <= 128


def test_tag_database_can_yield_empty_mask(box_env, system):
    # Every target inside the obstacle: nothing is reachable.
    pts = np.array([[5.0, 5.0], [5.2, 5.2], [4.5, 5.5], [5.5, 4.5]])
    db = Database(
        n=2,
        points=pts,
        parent_index=np.zeros(4, dtype=int),
        parent_points=np.tile(box_env.x0, (4, 1)),
    )
    tagged = tag_database(box_env, system, db)
    assert tagged.m == 0
    assert not tagged.good_mask.any()


# ---------------------------------------------------------------------------
# Temperature schedule
# ---------------------------------------------------------------------------


def test_tag_database_memory_is_bounded_on_dense_world(system):
    # The bench annealing world: 2000 obstacles on 30x30. An annealed n=11
    # database must not cost memory in proportion to rows x obstacles.
    spec = GeneratorSpec(bounds=(0.0, 0.0, 30.0, 30.0), obstacle_count=2000, size_range=(0.15, 0.45), delta=0.3)
    env = generate_random_env(spec, 7)
    schedule = TemperatureSchedule.from_config(((16, 2.7, 4.2), (32, 0.8, 2.0)))
    db = build_database_annealed(env, Tree(env.x0), 11, schedule, np.random.default_rng(7))
    tracemalloc.start()
    try:
        tag_database(env, system, db)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, f"tag_database peaked at {peak / 2**20:.1f} MiB"


def test_schedule_stage_lookup_by_cumulative_duration():
    sched = TemperatureSchedule(stages=((16, 2.7, 4.2), (32, 0.8, 2.0)))
    assert sched.current_stage() == (2.7, 4.2)
    for h, band in ((15, (2.7, 4.2)), (16, (0.8, 2.0)), (47, (0.8, 2.0)), (48, (0.8, 2.0))):
        assert TemperatureSchedule(sched.stages, h=h).current_stage() == band
    # Last stage persists far beyond its nominal duration.
    assert TemperatureSchedule(sched.stages, h=10_000).current_stage() == (0.8, 2.0)


def test_advance_temperature_is_pure():
    sched = TemperatureSchedule(stages=((2, 1.0, 2.0),))
    bumped = advance_temperature(sched)
    assert bumped.h == 1 and sched.h == 0
    assert bumped.stages == sched.stages


def test_schedule_validation():
    with pytest.raises(ValueError):
        TemperatureSchedule(stages=())
    with pytest.raises(ValueError):
        TemperatureSchedule(stages=((0, 1.0, 2.0),))
    with pytest.raises(ValueError):
        TemperatureSchedule(stages=((4, 0.0, 2.0),))
    with pytest.raises(ValueError):
        TemperatureSchedule(stages=((4, 3.0, 2.0),))
    with pytest.raises(ValueError):
        TemperatureSchedule(stages=((4, 1.0, 2.0),), h=-1)


def test_schedule_from_config_coerces():
    sched = TemperatureSchedule.from_config([[16, "2.7", 4.2], (32, 0.8, 2)])
    assert sched.stages == ((16, 2.7, 4.2), (32, 0.8, 2.0))


def test_resolve_iterations():
    assert resolve_iterations("optimal", 8, 64) == 1
    assert resolve_iterations("optimal", 8, 0) == 0
    assert resolve_iterations(3, 8, 64) == 3
    assert resolve_iterations("5", 8, 64) == 5
    with pytest.raises(ValueError):
        resolve_iterations(-1, 8, 64)
    with pytest.raises(ValueError):
        resolve_iterations("fastest", 8, 64)


# ---------------------------------------------------------------------------
# Admission and goal snap
# ---------------------------------------------------------------------------


def test_admit_rejects_duplicates(free_env, system):
    tree = Tree(free_env.x0)
    rec = record()
    first = _admit_candidate(free_env, system, tree, np.array([2.0, 2.0]), 0, rec)
    assert first.outcome == ADDED and first.node_index == 1
    again = _admit_candidate(free_env, system, tree, np.array([2.0, 2.0]), 0, rec)
    assert again.outcome == DUPLICATE and again.node_index is None
    assert rec.duplicates_discarded == 1
    assert len(tree) == 2


def test_goal_snap_success(free_env, system):
    tree = Tree(free_env.x0)
    rec = record()
    candidate = np.array([8.8, 8.7])  # within delta of the goal
    assert reachable(free_env, system, free_env.x0, free_env.xG)
    result = _admit_candidate(free_env, system, tree, candidate, 0, rec)
    assert result.outcome == ADDED
    np.testing.assert_array_equal(tree.node(result.node_index), free_env.xG)
    assert tree.goal_index == result.node_index
    assert rec.calls_finalizer == 1


def test_goal_snap_failure_admits_unmoved(system):
    # Wall band between the candidate and the goal: snap re-verification fails.
    env = Environment(
        bounds=(0, 0, 10, 10),
        obstacles=((8.0, 9.3, 10.0, 9.45),),
        x0=(1.0, 1.0),
        xG=(9.0, 9.8),
        delta=0.7,
    )
    tree = Tree(env.x0)
    parent = tree.add((9.0, 8.5), 0)
    candidate = np.array([9.0, 9.25])
    assert not reachable(env, system, tree.node(parent), env.xG)
    rec = record()
    result = _admit_candidate(env, system, tree, candidate, parent, rec)
    assert result.outcome == ADDED
    np.testing.assert_array_equal(tree.node(result.node_index), candidate)
    assert tree.goal_index is None
    assert rec.calls_finalizer == 1


def test_goal_snap_skipped_once_goal_captured(free_env, system):
    tree = Tree(free_env.x0)
    rec = record()
    _admit_candidate(free_env, system, tree, np.array([8.8, 8.7]), 0, rec)
    assert tree.goal_index is not None
    result = _admit_candidate(free_env, system, tree, np.array([8.9, 8.8]), 0, rec)
    assert result.outcome == ADDED
    np.testing.assert_array_equal(tree.node(result.node_index), [8.9, 8.8])
    assert rec.calls_finalizer == 1  # no second snap attempt


# ---------------------------------------------------------------------------
# Step accounting
# ---------------------------------------------------------------------------


def test_qrrt_step_accounting_fixed_iterations(free_env, system, rng):
    tree = Tree(free_env.x0)
    rec = record()
    result = qrrt_step(free_env, system, tree, 8, 2, rng, rec)
    assert result.outcome == ADDED
    assert len(tree) == 2
    assert rec.per_step_m == [256]  # free space: every entry reachable
    assert rec.calls_amplification == 2
    assert rec.calls_classical == 0
    snapped = 1 if tree.goal_index is not None else 0
    assert rec.calls_finalizer == 1 + snapped


def test_qrrt_step_requires_positive_exponent(free_env, system, rng):
    with pytest.raises(ValueError):
        qrrt_step(free_env, system, Tree(free_env.x0), 0, "optimal", rng, record())


def test_amplified_admit_with_empty_mask_fails_cleanly(box_env, system, rng):
    pts = np.array([[5.0, 5.0], [5.2, 5.2], [4.5, 5.5], [5.5, 4.5]])
    db = tag_database(
        box_env,
        system,
        Database(
            n=2,
            points=pts,
            parent_index=np.zeros(4, dtype=int),
            parent_points=np.tile(box_env.x0, (4, 1)),
        ),
    )
    tree = Tree(box_env.x0)
    rec = record()
    result = _qaa_admit_step(box_env, system, tree, db, "optimal", rng, rec)
    assert result.outcome == FAILED
    assert len(tree) == 1
    assert rec.per_step_m == [0]
    assert rec.calls_amplification == 0  # zero optimal iterations at m = 0
    assert rec.calls_finalizer == 1


def test_amplified_admit_requires_tagged_database(free_env, system, rng):
    tree = Tree(free_env.x0)
    db = build_database(free_env, tree, 4, rng)
    with pytest.raises(ValueError):
        _qaa_admit_step(free_env, system, tree, db, "optimal", rng, record())


# ---------------------------------------------------------------------------
# Plan loops
# ---------------------------------------------------------------------------


def test_qrrt_plan_goal_at_root(system):
    env = Environment(bounds=(0, 0, 10, 10), obstacles=(), x0=(5, 5), xG=(5, 5), delta=0.5)
    result = qrrt_plan(env, system, 8, "optimal", 10, np.random.default_rng(0))
    assert result.goal_found
    assert result.path == [(5.0, 5.0)]
    assert len(result.tree) == 1
    assert result.record.total_calls() == 0


def test_qrrt_plan_walled_goal_returns_empty_path(walled_goal_env, system):
    result = qrrt_plan(walled_goal_env, system, 6, "optimal", 25, np.random.default_rng(11))
    assert not result.goal_found
    assert result.path == []
    assert result.tree.goal_index is None
    assert result.record.nodes_admitted == len(result.tree) - 1


def test_qrrt_plan_stops_at_target_nodes(free_env, system):
    result = qrrt_plan(
        free_env, system, 8, "optimal", 500, np.random.default_rng(2024), target_nodes=5
    )
    assert not result.goal_found
    assert result.record.nodes_admitted == 5
    assert len(result.tree) == 6
    assert len(result.record.node_positions) == 5


def test_qrrt_plan_stops_at_cutoff(free_env, system):
    result = qrrt_plan(
        free_env, system, 8, 2, 500, np.random.default_rng(5), cutoff=7
    )
    rec = result.record
    assert rec.cutoff_calls() >= 7
    if not result.goal_found:
        # Each step costs two amplification calls: 4 steps reach the cutoff.
        assert rec.calls_amplification == 8
        assert len(rec.per_step_m) == 4


def test_qrrt_plan_seed_reproducibility(box_env, system):
    runs = [
        qrrt_plan(box_env, system, 7, "optimal", 200, np.random.default_rng(42), target_nodes=6)
        for _ in range(2)
    ]
    np.testing.assert_array_equal(runs[0].tree.coords, runs[1].tree.coords)
    assert runs[0].record.total_calls() == runs[1].record.total_calls()
    assert runs[0].record.per_step_m == runs[1].record.per_step_m
    other = qrrt_plan(box_env, system, 7, "optimal", 200, np.random.default_rng(43), target_nodes=6)
    assert not np.array_equal(other.tree.coords, runs[0].tree.coords)


def test_qrrt_plan_validates_max_steps(free_env, system, rng):
    with pytest.raises(ValueError):
        qrrt_plan(free_env, system, 8, "optimal", 0, rng)


def test_qda_label_and_schedule_advance(free_env, system):
    sched = TemperatureSchedule(stages=((2, 1.0, 2.0), (4, 0.5, 1.0)))
    result = qrrt_plan(
        free_env,
        system,
        6,
        "optimal",
        80,
        np.random.default_rng(19),
        schedule=sched,
        target_nodes=4,
    )
    assert result.record.algorithm == "qda"
    assert result.record.nodes_admitted == 4
    # First two edges from the opening band, later ones from the second.
    coords = result.tree.coords
    parents = result.tree.parents
    edges = [
        float(np.hypot(*(coords[i] - coords[parents[i]]))) for i in range(1, len(result.tree))
    ]
    goal_snapped = result.tree.goal_index is not None
    if not goal_snapped:
        assert all(1.0 - 1e-9 <= e <= 2.0 + 1e-9 for e in edges[:2])
        assert all(0.5 - 1e-9 <= e <= 1.0 + 1e-9 for e in edges[2:])


def test_rrt_plan_accounting(walled_goal_env, system):
    result = rrt_plan(walled_goal_env, system, 40, np.random.default_rng(8))
    rec = result.record
    assert not result.goal_found
    assert rec.algorithm == "rrt"
    assert rec.calls_classical == 40  # exactly one oracle call per step
    assert rec.calls_amplification == 0
    assert rec.per_step_m == []
    assert rec.nodes_admitted == len(result.tree) - 1


def test_rrt_plan_validates_max_steps(free_env, system, rng):
    with pytest.raises(ValueError):
        rrt_plan(free_env, system, 0, rng)


def test_rrt_plan_reaches_open_goal(free_env, system):
    result = rrt_plan(free_env, system, 3000, np.random.default_rng(14))
    assert result.goal_found
    assert result.path[0] == (1.0, 1.0)
    assert result.path[-1] == (9.0, 9.0)


# ---------------------------------------------------------------------------
# Path extraction
# ---------------------------------------------------------------------------


def test_extract_path_requires_goal():
    tree = Tree((0.0, 0.0))
    with pytest.raises(ValueError):
        extract_path(tree)


def test_extract_path_single_node():
    tree = Tree((3.0, 4.0))
    tree.goal_index = 0
    assert extract_path_indices(tree) == [0]
    assert extract_path(tree) == [(3.0, 4.0)]


def test_extract_path_follows_parent_chain():
    tree = Tree((0.0, 0.0))
    for i in range(1, 5):
        tree.add((float(i), 0.0), i - 1)
    tree.add((9.0, 9.0), 2)  # off-path branch
    tree.goal_index = 4
    assert extract_path_indices(tree) == [0, 1, 2, 3, 4]
    path = extract_path(tree)
    assert path[0] == (0.0, 0.0)
    assert path[-1] == (4.0, 0.0)
    for i, idx in enumerate(extract_path_indices(tree)[1:], start=1):
        assert tree.parents[idx] == extract_path_indices(tree)[i - 1]
