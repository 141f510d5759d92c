"""Tree mechanics, database construction/tagging, schedules and the sequential planners."""

import math
import tracemalloc

import numpy as np
import pytest

from qrrt import cli, planner, qsim
from qrrt.dynamics import default_system, reachable
from qrrt.env import Environment, GeneratorSpec, generate_random_env
from qrrt.planner import (
    Database,
    TemperatureSchedule,
    Tree,
    _admit_candidate,
    _measure_and_finalize,
    build_database,
    build_database_annealed,
    extract_path,
    extract_path_indices,
    qrrt_plan,
    qrrt_step,
    resolve_iterations,
    rrt_plan,
    tag_database,
)
from qrrt.records import StepSummary, TrialRecord


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
    np.testing.assert_array_equal(tree.coords[0], [1.0, 2.0])


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


def test_tree_rejects_non_finite_points():
    # A NaN node would win every argmin of the block path and no comparison
    # of the node scan, so the two nearest paths would part; trees hold
    # finite nodes only.
    for bad in ((np.nan, 0.0), (0.0, np.inf), (-np.inf, np.nan)):
        with pytest.raises(ValueError, match="non-finite"):
            Tree(bad)
        tree = Tree((0.0, 0.0))
        with pytest.raises(ValueError, match="non-finite"):
            tree.add(bad, 0)
        assert len(tree) == 1


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
    assert tree.nearest((1.0, 0.0)) == 0


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


def lattice_tree_and_tied_queries(rng):
    """A shuffled 4x4 lattice tree and queries equidistant from 2 or 4 of its
    nodes, with the lowest tied index each must resolve to."""
    tree = Tree((0.0, 0.0))
    nodes = [(x, y) for x in range(4) for y in range(4) if (x, y) != (0, 0)]
    for i in rng.permutation(len(nodes)):
        tree.add((2.0 * nodes[i][0], 2.0 * nodes[i][1]), 0)
    lattice = [(int(x) // 2, int(y) // 2) for x, y in tree.coords]
    queries, expect = [], []
    for qx in range(7):
        for qy in range(7):
            if qx % 2 == 0 and qy % 2 == 0:
                continue  # on a node, not a tie
            d2 = [(2 * x - qx) ** 2 + (2 * y - qy) ** 2 for x, y in lattice]
            queries.append((float(qx), float(qy)))
            expect.append(d2.index(min(d2)))
    return tree, np.array(queries), np.array(expect)


def use_nearest_path(monkeypatch, path):
    """Send every nearest_batch call down the block path or the node scan."""
    monkeypatch.setattr(planner, "_NEAREST_SCAN_MIN_ROWS", 0 if path == "scan" else 10**9)


@pytest.mark.parametrize("block", [1, 3, 7])
def test_nearest_batch_blocks_match_one_block(monkeypatch, rng, block):
    tree, tied, tied_expect = lattice_tree_and_tied_queries(rng)
    assert len(tied) == 33
    # 33 ties then 9 random rows: 42 rows, a multiple of every block size
    # here, so tied rows sit on both sides of every block edge of either path.
    queries = np.concatenate([tied, rng.uniform(-1.0, 7.0, size=(9, 2))])
    use_nearest_path(monkeypatch, "block")
    monkeypatch.setattr(planner, "_NEAREST_BLOCK_PAIRS", 10**9)
    whole = {rows: tree.nearest_batch(queries[:rows]) for rows in (0, 1, 41, 42)}
    np.testing.assert_array_equal(whole[42][:33], tied_expect)
    for path, name, values in [
        ("block", "_NEAREST_BLOCK_PAIRS", (1, block * len(tree))),
        ("scan", "_NEAREST_SCAN_ROWS", (1, block, 10**9)),
    ]:
        use_nearest_path(monkeypatch, path)
        for value in values:
            monkeypatch.setattr(planner, name, value)
            for rows, expect in whole.items():
                got = tree.nearest_batch(queries[:rows])
                assert got.dtype == expect.dtype and got.shape == (rows,)
                np.testing.assert_array_equal(got, expect)


def einsum_nearest(coords, queries):
    """Reference nearest-node search through one (rows, nodes, 2) difference array."""
    diff = queries[:, None, :] - coords[None, :, :]
    return np.argmin(np.einsum("kij,kij->ki", diff, diff), axis=1)


@pytest.mark.parametrize("nodes", [1, 2, 17, 37, 1000, 3000])
def test_nearest_batch_matches_einsum_reference(monkeypatch, rng, nodes):
    # On the block path 300 queries run as one block up to 436 nodes and
    # split into 3 and 7 blocks of _NEAREST_BLOCK_PAIRS at 1000 and 3000
    # nodes; the scan runs them in 5 blocks of 64 rows, the last one short.
    monkeypatch.setattr(planner, "_NEAREST_SCAN_ROWS", 64)
    coords = rng.uniform(-7.0, 13.0, size=(nodes, 2))
    queries = np.vstack([rng.uniform(-9.0, 15.0, size=(297, 2)), coords[np.arange(3) % nodes]])  # 3 on a node
    tree = Tree(coords[0])
    for p in coords[1:]:
        tree.add(p, 0)
    # A shuffled integer lattice tree and integer and half-integer queries:
    # every squared distance is exact, so equidistant nodes are common and
    # each query must resolve to the lowest tied index.
    side = np.arange(-30, 31)
    lattice = np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)
    lattice = lattice[rng.permutation(lattice.shape[0])[:nodes]].astype(float)
    lattice_tree = Tree(lattice[0])
    for p in lattice[1:]:
        lattice_tree.add(p, 0)
    lattice_queries = rng.integers(-64, 65, size=(300, 2)) / 2.0
    d2 = ((2 * lattice_queries[:, None, :] - 2 * lattice[None, :, :]) ** 2).sum(axis=2)  # exact integers
    tied = d2 == d2.min(axis=1, keepdims=True)
    assert nodes <= 2 or (tied.sum(axis=1) > 1).any()
    for path in ("block", "scan"):
        use_nearest_path(monkeypatch, path)
        got = tree.nearest_batch(queries)
        assert got.dtype == np.intp and got.shape == (300,)
        np.testing.assert_array_equal(got, einsum_nearest(tree.coords, queries))
        got = lattice_tree.nearest_batch(lattice_queries)
        np.testing.assert_array_equal(got, einsum_nearest(lattice_tree.coords, lattice_queries))
        np.testing.assert_array_equal(got, tied.argmax(axis=1))


def test_nearest_batch_path_is_chosen_by_row_count(monkeypatch, rng):
    tree = Tree((0.0, 0.0))
    for p in rng.uniform(0.0, 20.0, size=(16, 2)):
        tree.add(p, 0)
    scans = []
    scan = Tree._nearest_scan
    monkeypatch.setattr(Tree, "_nearest_scan", lambda self, pts, out: scans.append(len(pts)) or scan(self, pts, out))
    rows = planner._NEAREST_SCAN_MIN_ROWS
    queries = rng.uniform(0.0, 20.0, size=(rows, 2))
    small = tree.nearest_batch(queries[:-1])
    large = tree.nearest_batch(queries)
    assert scans == [rows]
    np.testing.assert_array_equal(large[:-1], small)
    np.testing.assert_array_equal(large, einsum_nearest(tree.coords, queries))


@pytest.mark.parametrize("rows", [0, 1, 5000])
def test_nearest_batch_one_node_tree_is_all_zeros(rows):
    # NaN and infinite queries included: every row's one candidate is the root.
    queries = np.full((rows, 2), np.nan)
    queries[1::2] = (np.inf, -3.0)
    got = Tree((1.0, 2.0)).nearest_batch(queries)
    assert got.dtype == np.intp and got.shape == (rows,) and not got.any()


def test_tree_grows_past_initial_capacity(rng):
    tree = Tree((0.0, 0.0))
    pts = rng.uniform(0.0, 1.0, size=(200, 2))
    for i, p in enumerate(pts):
        idx = tree.add(p, i)  # chain: each node parents the next
        assert idx == i + 1
    assert len(tree) == 201
    assert tree.coords.shape == (201, 2)
    assert len(tree.parents) == 201
    np.testing.assert_array_equal(tree.coords[200], pts[-1])
    np.testing.assert_array_equal(tree.coords[1], pts[0])


# ---------------------------------------------------------------------------
# Database construction
# ---------------------------------------------------------------------------


def test_build_database_sizes(free_env, rng):
    tree = Tree(free_env.x0)
    db1 = build_database(free_env, tree, 1, rng)
    assert db1.points.shape == (2, 2)
    db8 = build_database(free_env, tree, 8, rng)
    assert db8.points.shape == (256, 2)
    assert db8.parent_index.shape == (256,)
    assert db8.parent_points.shape == (256, 2)
    assert db8.good_mask is None and db8.m is None


def test_build_database_exponent_bounds(free_env, rng):
    tree = Tree(free_env.x0)
    for n in (-1, 0, qsim.MAX_DATABASE_QUBITS + 1):
        with pytest.raises(ValueError, match="database exponent"):
            build_database(free_env, tree, n, rng)


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


def grown_tree(env, nodes):
    """A tree of the given size: the root plus a chain of admitted nodes."""
    tree = Tree(env.x0)
    for i in range(1, nodes):
        tree.add((1.0 + 0.25 * i, 2.0), i - 1)
    return tree


def test_annealed_database_uses_stage_for_current_h(free_env, rng):
    # A 17-node tree has admitted h = 16 nodes: the first stage's 16 are spent.
    sched = TemperatureSchedule(stages=((16, 2.7, 4.2), (32, 0.8, 2.0)))
    for nodes, (lo, hi) in ((16, (2.7, 4.2)), (17, (0.8, 2.0))):
        db = build_database_annealed(free_env, grown_tree(free_env, nodes), 8, sched, rng)
        dist = np.hypot(*(db.points - db.parent_points).T)
        assert np.all(dist >= lo - 1e-9) and np.all(dist <= hi + 1e-9), nodes


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


@pytest.mark.parametrize("annealed", [False, True], ids=["uniform", "annealed"])
@pytest.mark.parametrize("world", ["annealing-7", "slopes-1234"])
def test_tag_verdict_is_the_single_row_oracle(world, annealed):
    # The finalizers read good_mask instead of calling the oracle again. That
    # is exact only if the tag's batched verdict for a row is the verdict of
    # a single-row call on the same (parent, target) row.
    params, seed = {
        "annealing-7": (cli.ANNEALING_DEFAULTS, 7),
        "slopes-1234": (cli.SLOPES_DEFAULTS, 1234),
    }[world]
    env = generate_random_env(cli._env_spec(params), seed)
    system = default_system()
    rng = np.random.default_rng(seed)
    tree = qrrt_plan(env, system, 6, "optimal", 6, rng).tree
    if annealed:
        schedule = TemperatureSchedule.from_config(cli.ANNEALING_DEFAULTS["schedule"])
        db = build_database_annealed(env, tree, 10, schedule, rng)
    else:
        db = build_database(env, tree, 10, rng)
    db = tag_database(env, system, db)
    single = [reachable(env, system, db.parent_points[i], db.points[i]) for i in range(2**10)]
    np.testing.assert_array_equal(db.good_mask, single)
    assert 0 < db.m < 2**10


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


@pytest.fixture(scope="module")
def annealing_world():
    """The bench annealing world: 2000 obstacles on 30x30."""
    spec = GeneratorSpec(bounds=(0.0, 0.0, 30.0, 30.0), obstacle_count=2000, size_range=(0.15, 0.45), delta=0.3)
    return generate_random_env(spec, 7)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tag_database_memory_is_bounded_on_dense_world(annealing_world, system):
    # An annealed n=11 database must not cost memory in proportion to
    # rows x obstacles.
    schedule = TemperatureSchedule.from_config(((16, 2.7, 4.2), (32, 0.8, 2.0)))
    db = build_database_annealed(annealing_world, Tree(annealing_world.x0), 11, schedule, np.random.default_rng(7))
    peak = traced_peak(tag_database, annealing_world, system, db)
    assert peak <= 32 * 2**20, f"tag_database peaked at {peak / 2**20:.1f} MiB"


def test_tag_database_memory_does_not_grow_with_rows(annealing_world, system):
    # Uniform targets from a one-node tree give long first segments, the
    # costliest rows for the collision test; n=16 must still run in blocks.
    db = build_database(annealing_world, Tree(annealing_world.x0), 16, np.random.default_rng(7))
    peak = traced_peak(tag_database, annealing_world, system, db)
    assert peak <= 64 * 2**20, f"tag_database peaked at {peak / 2**20:.1f} MiB"


def test_nearest_batch_memory_is_bounded(monkeypatch, rng):
    tree = Tree((0.0, 0.0))
    for p in rng.uniform(0.0, 20.0, size=(1023, 2)):
        tree.add(p, 0)
    queries = rng.uniform(0.0, 20.0, size=(16_384, 2))
    for path in ("block", "scan"):
        use_nearest_path(monkeypatch, path)
        peak = traced_peak(tree.nearest_batch, queries)
        assert peak <= 32 * 2**20, f"nearest_batch {path} path peaked at {peak / 2**20:.1f} MiB"


def test_schedule_stage_lookup_by_cumulative_duration():
    sched = TemperatureSchedule(stages=((16, 2.7, 4.2), (32, 0.8, 2.0)))
    assert sched.current_stage(0) == (2.7, 4.2)
    for h, band in ((15, (2.7, 4.2)), (16, (0.8, 2.0)), (47, (0.8, 2.0)), (48, (0.8, 2.0))):
        assert sched.current_stage(h) == band
    # Last stage persists far beyond its nominal duration.
    assert sched.current_stage(10_000) == (0.8, 2.0)


def test_annealed_steps_read_their_stage_off_the_tree(free_env, system):
    # The schedule holds no counter: each qrrt_step reads h = len(tree) - 1,
    # so the stage turns once the tree has grown to 17 nodes, and the
    # schedule object is the same before and after.
    sched = TemperatureSchedule(stages=((16, 2.7, 4.2), (32, 0.8, 2.0)))
    env = Environment(bounds=(0, 0, 40, 40), obstacles=(), x0=(20, 20), xG=(39, 39), delta=0.1)
    tree, rec, rng = Tree(env.x0), record(), np.random.default_rng(17)
    for _ in range(17):  # free space far from the goal: every step admits one node
        qrrt_step(env, system, tree, 6, "optimal", rng, rec, schedule=sched)
    assert len(tree) == 18
    assert sched == TemperatureSchedule(stages=((16, 2.7, 4.2), (32, 0.8, 2.0)))
    edges = np.hypot(*(tree.coords[1:] - tree.coords[tree.parents[1:]]).T)
    assert np.all((edges[:16] >= 2.7 - 1e-9) & (edges[:16] <= 4.2 + 1e-9))
    assert 0.8 - 1e-9 <= edges[16] <= 2.0 + 1e-9


def test_schedule_validation():
    with pytest.raises(ValueError):
        TemperatureSchedule(stages=())
    with pytest.raises(ValueError):
        TemperatureSchedule(stages=((0, 1.0, 2.0),))
    with pytest.raises(ValueError):
        TemperatureSchedule(stages=((4, 0.0, 2.0),))
    with pytest.raises(ValueError):
        TemperatureSchedule(stages=((4, 3.0, 2.0),))
    # Radii must be finite: a band reaching inf has no uniform draw.
    for r_min, r_max in ((1.0, math.inf), (math.inf, math.inf), (1.0, math.nan), (math.nan, 2.0)):
        with pytest.raises(ValueError, match="finite"):
            TemperatureSchedule(stages=((4, 1.0, 2.0), (4, r_min, r_max)))
    assert TemperatureSchedule(stages=((4, 1.0, 1e308),)).current_stage(0) == (1.0, 1e308)


def test_schedule_from_config_coerces():
    sched = TemperatureSchedule.from_config([[16, "2.7", 4.2], (32, 0.8, 2)])
    assert sched.stages == ((16, 2.7, 4.2), (32, 0.8, 2.0))


def test_resolve_iterations():
    assert resolve_iterations("optimal", 8, 64) == 1
    assert resolve_iterations("optimal", 8, 0) == 0
    assert resolve_iterations(3, 8, 64) == 3
    for mode in ("fastest", "5", 2.5):
        with pytest.raises(ValueError, match="'optimal' or a fixed iteration count"):
            resolve_iterations(mode, 8, 64)


def test_resolve_iterations_bounds_a_fixed_count():
    # qsim.amplify runs k scalar steps: k = 10^12 would run for days.
    with pytest.raises(ValueError, match="fixed iteration count must be <= 1000000"):
        resolve_iterations(10**12, 4, 1)
    with pytest.raises(ValueError, match="fixed iteration count must be >= 0"):
        resolve_iterations(-1, 4, 1)
    assert resolve_iterations(planner.MAX_FIXED_ITERATIONS, 4, 1) == 10**6


def test_qrrt_plan_checks_a_fixed_count_before_its_first_step(monkeypatch, free_env):
    def must_not_run(*args):
        raise AssertionError("built a database before checking the iteration count")

    monkeypatch.setattr(planner, "build_database", must_not_run)
    with pytest.raises(ValueError, match="fixed iteration count must be <= 1000000"):
        qrrt_plan(free_env, default_system(), 4, 10**12, 1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Admission and goal snap
# ---------------------------------------------------------------------------


def test_admit_rejects_duplicates(free_env, system):
    tree = Tree(free_env.x0)
    rec = record()
    assert _admit_candidate(free_env, system, tree, np.array([2.0, 2.0]), 0, rec) == 1
    assert _admit_candidate(free_env, system, tree, np.array([2.0, 2.0]), 0, rec) is None
    assert rec.duplicates_discarded == 1
    assert len(tree) == 2


def test_goal_snap_success(free_env, system):
    tree = Tree(free_env.x0)
    rec = record()
    candidate = np.array([8.8, 8.7])  # within delta of the goal
    assert reachable(free_env, system, free_env.x0, free_env.xG)
    idx = _admit_candidate(free_env, system, tree, candidate, 0, rec)
    assert idx == 1
    np.testing.assert_array_equal(tree.coords[idx], free_env.xG)
    assert tree.goal_index == idx
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
    assert not reachable(env, system, tree.coords[parent], env.xG)
    rec = record()
    idx = _admit_candidate(env, system, tree, candidate, parent, rec)
    assert idx == 2
    np.testing.assert_array_equal(tree.coords[idx], candidate)
    assert tree.goal_index is None
    assert rec.calls_finalizer == 1


def test_goal_snap_skipped_once_goal_captured(free_env, system):
    tree = Tree(free_env.x0)
    rec = record()
    _admit_candidate(free_env, system, tree, np.array([8.8, 8.7]), 0, rec)
    assert tree.goal_index is not None
    idx = _admit_candidate(free_env, system, tree, np.array([8.9, 8.8]), 0, rec)
    assert idx == 2
    np.testing.assert_array_equal(tree.coords[idx], [8.9, 8.8])
    assert rec.calls_finalizer == 1  # no second snap attempt


# ---------------------------------------------------------------------------
# Step accounting
# ---------------------------------------------------------------------------


def test_qrrt_step_accounting_fixed_iterations(free_env, system, rng):
    tree = Tree(free_env.x0)
    rec = record()
    assert qrrt_step(free_env, system, tree, 8, 2, rng, rec) == StepSummary(admitted_indices=(1,), duplicates_discarded=0)
    assert len(tree) == 2
    assert rec.per_step_m == [256]  # free space: every entry reachable
    assert rec.calls_amplification == 2
    assert rec.calls_classical == 0
    snapped = 1 if tree.goal_index is not None else 0
    assert rec.calls_finalizer == 1 + snapped


def test_qrrt_step_requires_positive_exponent(free_env, system, rng):
    with pytest.raises(ValueError):
        qrrt_step(free_env, system, Tree(free_env.x0), 0, "optimal", rng, record())


def test_amplified_admit_with_empty_mask_fails_cleanly(system, rng):
    # The root sits in a closed ring of thin walls, so no sampled edge is free.
    sealed = Environment(
        bounds=(0, 0, 10, 10),
        obstacles=((0.9, 0.9, 1.1, 0.95), (0.9, 0.9, 0.95, 1.1), (0.9, 1.05, 1.1, 1.1), (1.05, 0.9, 1.1, 1.1)),
        x0=(1.0, 1.0),
        xG=(9.0, 9.0),
        delta=0.5,
    )
    tree = Tree(sealed.x0)
    rec = record()
    result = qrrt_step(sealed, system, tree, 2, "optimal", rng, rec)
    assert result == StepSummary(admitted_indices=(), duplicates_discarded=0)
    assert len(tree) == 1
    assert rec.per_step_m == [0]
    assert rec.calls_amplification == 0  # zero optimal iterations at m = 0
    assert rec.calls_finalizer == 1


def test_amplified_admit_requires_tagged_database(free_env, system, rng):
    tree = Tree(free_env.x0)
    db = build_database(free_env, tree, 4, rng)
    with pytest.raises(ValueError):
        _measure_and_finalize(db, "optimal", [rng], record())


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
