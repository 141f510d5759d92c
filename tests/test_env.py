"""Geometry layer: point/segment collision predicates, generation, file I/O."""

import json
import math

import numpy as np
import pytest

from qrrt import env as envmod
from qrrt.env import (
    CorridorSpec,
    EnvGenerationError,
    Environment,
    GeneratorSpec,
    corridor_region,
    generate_random_env,
    load_environment,
    point_free,
    points_free,
    sample_uniform,
    sample_uniform_batch,
    save_environment,
    segment_free,
    segments_free,
)


def make_env(obstacles=(), bounds=(0.0, 0.0, 10.0, 10.0), x0=(1.0, 1.0), xG=(9.0, 9.0), delta=0.5):
    return Environment(bounds=bounds, obstacles=tuple(obstacles), x0=x0, xG=xG, delta=delta)


# ---------------------------------------------------------------------------
# Environment construction
# ---------------------------------------------------------------------------


def test_construction_validates_degenerate_bounds():
    with pytest.raises(ValueError):
        make_env(bounds=(0.0, 0.0, 0.0, 10.0))
    with pytest.raises(ValueError):
        make_env(bounds=(5.0, 5.0, 5.0, 5.0))


def test_construction_rejects_blocked_endpoints():
    with pytest.raises(ValueError):
        make_env(obstacles=[(0.5, 0.5, 2.0, 2.0)])  # covers x0
    with pytest.raises(ValueError):
        make_env(obstacles=[(8.0, 8.0, 9.5, 9.5)])  # covers xG


def test_construction_rejects_out_of_bounds_points():
    with pytest.raises(ValueError):
        make_env(x0=(-1.0, 1.0))
    with pytest.raises(ValueError):
        make_env(xG=(11.0, 9.0))


def test_construction_rejects_bad_delta():
    with pytest.raises(ValueError):
        make_env(delta=0.0)
    with pytest.raises(ValueError):
        make_env(delta=-1.0)


def test_arrays_are_read_only(box_env):
    with pytest.raises(ValueError):
        box_env.obstacles[0, 0] = 99.0
    with pytest.raises(ValueError):
        box_env.x0[0] = 99.0


# ---------------------------------------------------------------------------
# point_free
# ---------------------------------------------------------------------------


def test_point_free_no_obstacles(free_env):
    assert point_free(free_env, (5.0, 5.0))


def test_point_inside_obstacle_blocked(box_env):
    assert not point_free(box_env, (5.0, 5.0))


def test_point_outside_bounds_blocked(free_env):
    assert not point_free(free_env, (-0.1, 5.0))
    assert not point_free(free_env, (5.0, 10.1))


def test_bounds_boundary_is_inside(free_env):
    assert point_free(free_env, (0.0, 0.0))
    assert point_free(free_env, (10.0, 10.0))


def test_obstacle_edge_counts_as_collision(box_env):
    # Closed obstacles: boundary membership decided by brute-force
    # rasterization just inside/outside the edge.
    edge_points = [(4.0, 5.0), (6.0, 5.0), (5.0, 4.0), (5.0, 6.0), (4.0, 4.0), (6.0, 6.0)]
    for p in edge_points:
        assert not point_free(box_env, p)

    eps = 1e-9
    rect = box_env.obstacles[0]

    def brute_inside(p):
        return rect[0] <= p[0] <= rect[2] and rect[1] <= p[1] <= rect[3]

    for p in edge_points:
        for dx in (-eps, 0.0, eps):
            for dy in (-eps, 0.0, eps):
                q = (p[0] + dx, p[1] + dy)
                assert point_free(box_env, q) == (not brute_inside(q))


def test_points_free_batch_agrees_with_scalar(box_env, rng):
    pts = rng.uniform(-1.0, 11.0, size=(500, 2))
    batch = points_free(box_env, pts)
    for i, p in enumerate(pts):
        assert batch[i] == point_free(box_env, p)


# ---------------------------------------------------------------------------
# segment_free
# ---------------------------------------------------------------------------


def test_degenerate_segment_free_point(free_env):
    assert segment_free(free_env, (3.0, 3.0), (3.0, 3.0))


def test_degenerate_segment_inside_obstacle(box_env):
    assert not segment_free(box_env, (5.0, 5.0), (5.0, 5.0))


def test_segment_through_obstacle_interior(box_env):
    assert not segment_free(box_env, (1.0, 5.0), (9.0, 5.0))


def test_segment_clear_of_obstacle(box_env):
    assert segment_free(box_env, (1.0, 1.0), (9.0, 1.0))


def test_segment_grazing_corner_blocked(box_env):
    # Line y = x + 2 touches the obstacle only at corner (4, 6).
    a, b = (3.0, 5.0), (5.0, 7.0)
    assert not segment_free(box_env, a, b)

    # Dense-sampling oracle at parameter step 1e-4 agrees: some sampled point
    # lies inside the closed rectangle.
    rect = box_env.obstacles[0]
    ts = np.linspace(0.0, 1.0, 10001)
    xs = a[0] + ts * (b[0] - a[0])
    ys = a[1] + ts * (b[1] - a[1])
    hit = np.any((xs >= rect[0]) & (xs <= rect[2]) & (ys >= rect[1]) & (ys <= rect[3]))
    assert hit


def test_segment_sliding_along_obstacle_edge_blocked(box_env):
    assert not segment_free(box_env, (4.0, 3.0), (4.0, 7.0))


def test_segment_leaving_bounds_blocked(free_env):
    assert not segment_free(free_env, (5.0, 5.0), (5.0, 12.0))


def test_segment_symmetry(box_env, rng):
    for _ in range(200):
        a = rng.uniform(0.0, 10.0, size=2)
        b = rng.uniform(0.0, 10.0, size=2)
        assert segment_free(box_env, a, b) == segment_free(box_env, b, a)


def test_segment_free_implies_endpoints_and_midpoint_free(box_env, rng):
    checked = 0
    for _ in range(400):
        a = rng.uniform(0.0, 10.0, size=2)
        b = rng.uniform(0.0, 10.0, size=2)
        if segment_free(box_env, a, b):
            mid = (a + b) / 2.0
            assert point_free(box_env, a)
            assert point_free(box_env, b)
            assert point_free(box_env, mid)
            checked += 1
    assert checked > 0


def test_segment_batch_agrees_with_dense_sampling(box_env, rng):
    # Exact slab predicate vs 1e-4-step sampling: sampling can only miss
    # hits (never invent them), so every sampled hit must be a predicate hit.
    a = rng.uniform(0.0, 10.0, size=(300, 2))
    b = rng.uniform(0.0, 10.0, size=(300, 2))
    batch = segments_free(box_env, a, b)
    rect = box_env.obstacles[0]
    ts = np.linspace(0.0, 1.0, 10001)
    for i in range(a.shape[0]):
        xs = a[i, 0] + ts * (b[i, 0] - a[i, 0])
        ys = a[i, 1] + ts * (b[i, 1] - a[i, 1])
        sampled_hit = bool(
            np.any((xs >= rect[0]) & (xs <= rect[2]) & (ys >= rect[1]) & (ys <= rect[3]))
        )
        if sampled_hit:
            assert not batch[i]
        assert batch[i] == segment_free(box_env, a[i], b[i])


# ---------------------------------------------------------------------------
# Grid broadphase against the dense reference
# ---------------------------------------------------------------------------


def _random_world(count, seed):
    """count obstacles in offset, non-square bounds; about a tenth touch an outer edge."""
    rng = np.random.default_rng(seed)
    corner = rng.uniform(-5.0, 5.0, 2)
    top = corner + rng.uniform(10.0, 30.0, 2)
    side = math.sqrt(np.prod(top - corner) / max(count, 1))
    size = rng.uniform(0.1, 0.7, (count, 2)) * side
    lo = rng.uniform(corner, top - size)
    hi = np.minimum(lo + size, top)
    for i in np.flatnonzero(rng.random(count) < 0.1):
        axis, upper = rng.integers(2), rng.integers(2)
        if upper:
            lo[i, axis], hi[i, axis] = top[axis] - size[i, axis], top[axis]
        else:
            lo[i, axis], hi[i, axis] = corner[axis], corner[axis] + size[i, axis]
    obstacles = np.hstack([lo, hi])
    cand = rng.uniform(corner, top, (500, 2))
    inside = ((cand[:, None] >= obstacles[None, :, :2]) & (cand[:, None] <= obstacles[None, :, 2:])).all(-1)
    x0, xg = cand[~inside.any(axis=1)][:2]
    return Environment(bounds=np.hstack([corner, top]), obstacles=obstacles, x0=x0, xG=xg, delta=0.5)


def _nudge(pts, rng):
    """Each coordinate moved 1-3 ulps up or down."""
    out = pts.copy()
    steps = rng.integers(1, 4, out.shape)
    toward = np.where(rng.random(out.shape) < 0.5, -np.inf, np.inf)
    for k in range(1, 4):
        out = np.where(steps >= k, np.nextafter(out, toward), out)
    return out


def _probe_points(env, rng):
    """Obstacle corners and edge points, exact and 1-3 ulps off; cell boundaries;
    random points inside, outside and far outside the bounds; non-finite points."""
    o = env.obstacles[rng.permutation(env.obstacles.shape[0])[:100]]
    lo, hi = env.bounds[:2], env.bounds[2:]
    along = rng.random((o.shape[0], 1))
    special = np.vstack(
        [
            o[:, [0, 1]], o[:, [2, 1]], o[:, [0, 3]], o[:, [2, 3]],
            np.column_stack([o[:, 0] + along[:, 0] * (o[:, 2] - o[:, 0]), o[:, 1]]),
            np.column_stack([o[:, 2], o[:, 1] + along[:, 0] * (o[:, 3] - o[:, 1])]),
            env.bounds[[[0, 1], [2, 3], [0, 3], [2, 1]]],
        ]
    )
    parts = [special, _nudge(special, rng), _nudge(special, rng), rng.uniform(lo, hi, (400, 2))]
    if env.grid is not None:
        cells = rng.integers(0, env.grid.shape + 1, (200, 2))
        parts.append(env.grid.origin + cells * env.grid.cell)
    parts.append(rng.uniform(lo - 3.0, hi + 3.0, (200, 2)))
    parts.append(rng.choice([-1e6, 1e6], (20, 2)) * rng.random((20, 2)) + rng.uniform(lo, hi, (20, 2)))
    bad = rng.uniform(lo, hi, (9, 2))
    bad[np.arange(9), np.arange(9) % 2] = np.tile([np.nan, np.inf, -np.inf], 3)
    parts.append(bad)
    return np.vstack(parts)


def _probe_segments(env, pts, rng):
    """Segments from every probe point: random directions short and long,
    axis-parallel, zero-length, ending on another probe point, and sliding
    along obstacle edges at 0 and 1-3 ulps off."""
    n = pts.shape[0]
    span = env.bounds[2:] - env.bounds[:2]
    length = np.where(rng.random((n, 1)) < 0.7, 0.05, 1.0) * span.max() * rng.random((n, 1))
    heading = rng.normal(size=(n, 2))
    heading /= np.linalg.norm(heading, axis=1, keepdims=True)
    axis_parallel = pts.copy()
    axis_parallel[np.arange(n), rng.integers(0, 2, n)] += rng.normal(0.0, 2.0, n)
    starts = [pts, pts, pts, pts]
    ends = [pts + length * heading, axis_parallel, pts.copy(), pts[rng.permutation(n)]]
    o = env.obstacles[:100]
    if o.size:
        reach = rng.uniform(0.0, 1.0, o.shape[0])
        slide_a = np.column_stack([o[:, 0] - reach, o[:, 3]])
        slide_b = np.column_stack([o[:, 2] + reach, o[:, 3]])
        starts += [slide_a, _nudge(slide_a, rng)]
        ends += [slide_b, _nudge(slide_b, rng)]
    return np.vstack(starts), np.vstack(ends)


LIMITS = ("_DENSE_MAX_SEGMENT_PAIRS", "_DENSE_MAX_POINT_PAIRS")


@pytest.mark.parametrize("split_min_cells", [0, math.inf])
@pytest.mark.parametrize("count, seed", [(0, 1), (1, 2), (45, 3), (45, 4), (2000, 5)])
def test_grid_broadphase_matches_dense_reference(count, seed, split_min_cells, monkeypatch):
    monkeypatch.setattr(envmod, "_SPLIT_MIN_CELLS", split_min_cells)
    env = _random_world(count, seed)
    rng = np.random.default_rng(seed)
    pts = _probe_points(env, rng)
    a, b = _probe_segments(env, pts, rng)

    def dense(fn, *arrays):
        with monkeypatch.context() as m:
            for limit in LIMITS:
                m.setattr(envmod, limit, math.inf)
            return np.concatenate([fn(env, *(x[i : i + 100] for x in arrays)) for i in range(0, arrays[0].shape[0], 100)])

    for limit in LIMITS:
        monkeypatch.setattr(envmod, limit, 0)
    assert np.array_equal(points_free(env, pts), dense(points_free, pts))
    assert np.array_equal(segments_free(env, a, b), dense(segments_free, a, b))
    assert not segments_free(env, a + 1e6, b + 1e6).any()
    # The probes must exercise both outcomes.
    assert count == 0 or 0 < segments_free(env, a, b).mean() < 1


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_sample_uniform_deterministic(free_env):
    r1 = np.random.default_rng(7)
    r2 = np.random.default_rng(7)
    seq1 = [sample_uniform(free_env, r1) for _ in range(20)]
    seq2 = [sample_uniform(free_env, r2) for _ in range(20)]
    assert np.array_equal(np.array(seq1), np.array(seq2))


def test_sample_uniform_mean_near_center(free_env):
    r = np.random.default_rng(11)
    pts = sample_uniform_batch(free_env, r, 100_000)
    assert pts.shape == (100_000, 2)
    assert np.all(pts >= 0.0) and np.all(pts <= 10.0)
    # CLT bound: per-axis sigma of the mean = (width / sqrt(12)) / sqrt(N)
    sigma = (10.0 / math.sqrt(12.0)) / math.sqrt(100_000)
    assert abs(pts[:, 0].mean() - 5.0) < 3 * sigma
    assert abs(pts[:, 1].mean() - 5.0) < 3 * sigma


def test_samples_ignore_obstacles(box_env):
    # Sampling is uniform over bounds; obstacle filtering is the oracle's job.
    r = np.random.default_rng(13)
    pts = sample_uniform_batch(box_env, r, 20_000)
    inside = ~points_free(box_env, pts)
    frac = inside.mean()
    # Central 2x2 obstacle covers 4% of the box.
    assert 0.03 < frac < 0.05


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def test_generate_no_obstacles():
    spec = GeneratorSpec(bounds=(0.0, 0.0, 10.0, 10.0), obstacle_count=0)
    env = generate_random_env(spec, seed=1)
    assert env.obstacles.shape == (0, 4)
    assert point_free(env, env.x0) and point_free(env, env.xG)


def test_generate_paper_scale_count():
    spec = GeneratorSpec(
        bounds=(0.0, 0.0, 120.0, 120.0),
        obstacle_count=6025,
        size_range=(0.2, 0.6),
        delta=0.5,
    )
    env = generate_random_env(spec, seed=4)
    assert env.obstacles.shape == (6025, 4)
    assert point_free(env, env.x0) and point_free(env, env.xG)


def test_generate_corridor_geometry():
    spec = GeneratorSpec(
        bounds=(0.0, 0.0, 12.0, 12.0),
        obstacle_count=10,
        size_range=(0.5, 1.0),
        delta=0.4,
        corridor=CorridorSpec(width=1.5, thickness=2.0),
    )
    env = generate_random_env(spec, seed=8)
    assert env.obstacles.shape == (12, 4)
    gap = corridor_region(spec)
    lower, upper = env.obstacles[0], env.obstacles[1]
    # Two walls share the gap's x-extent and leave exactly width open in y.
    assert lower[0] == upper[0] == gap[0]
    assert lower[2] == upper[2] == gap[2]
    assert upper[1] - lower[3] == pytest.approx(1.5)
    assert (gap[1], gap[3]) == (lower[3], upper[1])
    # Scattered obstacles keep the passage open.
    for rect in env.obstacles[2:]:
        assert not (
            rect[0] < gap[2] and rect[2] > gap[0] and rect[1] < gap[3] and rect[3] > gap[1]
        )
    # A straight crossing through the gap center is collision-free.
    cy = 0.5 * (gap[1] + gap[3])
    assert segment_free(env, (gap[0] - 0.2, cy), (gap[2] + 0.2, cy))


def test_generate_corridor_places_start_and_goal_on_opposite_sides():
    spec = GeneratorSpec(
        bounds=(0.0, 0.0, 12.0, 12.0),
        obstacle_count=6,
        size_range=(0.5, 1.0),
        corridor=CorridorSpec(width=2.0, thickness=1.0),
    )
    gap = corridor_region(spec)
    for seed in range(10):
        env = generate_random_env(spec, seed=seed)
        assert env.x0[0] < gap[0]
        assert env.xG[0] > gap[2]


def test_generate_explicit_points_kept_free():
    spec = GeneratorSpec(
        bounds=(0.0, 0.0, 12.0, 12.0),
        obstacle_count=40,
        size_range=(1.0, 2.0),
        x0=(4.0, 6.0),
        xG=(10.5, 6.0),
    )
    for seed in range(25):
        env = generate_random_env(spec, seed=seed)
        assert np.array_equal(env.x0, [4.0, 6.0])
        assert np.array_equal(env.xG, [10.5, 6.0])
        assert point_free(env, env.x0) and point_free(env, env.xG)


def test_generate_invariants_over_many_seeds():
    spec = GeneratorSpec(
        bounds=(0.0, 0.0, 15.0, 15.0),
        obstacle_count=20,
        size_range=(0.5, 2.0),
        delta=0.5,
    )
    for seed in range(1000):
        env = generate_random_env(spec, seed=seed)
        assert env.obstacles.shape == (20, 4)
        assert np.all(env.obstacles[:, 0] >= 0.0) and np.all(env.obstacles[:, 2] <= 15.0)
        assert np.all(env.obstacles[:, 1] >= 0.0) and np.all(env.obstacles[:, 3] <= 15.0)
        assert np.all(env.obstacles[:, 2] > env.obstacles[:, 0])
        assert np.all(env.obstacles[:, 3] > env.obstacles[:, 1])
        assert point_free(env, env.x0) and point_free(env, env.xG)


def test_generate_deterministic():
    spec = GeneratorSpec(bounds=(0.0, 0.0, 15.0, 15.0), obstacle_count=12)
    e1 = generate_random_env(spec, seed=42)
    e2 = generate_random_env(spec, seed=42)
    assert np.array_equal(e1.obstacles, e2.obstacles)
    assert np.array_equal(e1.x0, e2.x0)
    assert np.array_equal(e1.xG, e2.xG)


def test_generate_fails_when_no_free_placement():
    # A corridor so wide its walls fill the whole box leaves no wall beyond
    # the gap; instead force failure through an oversized scatter obstacle.
    spec = GeneratorSpec(
        bounds=(0.0, 0.0, 2.0, 2.0),
        obstacle_count=1,
        size_range=(5.0, 6.0),
    )
    with pytest.raises(EnvGenerationError):
        generate_random_env(spec, seed=0)


def test_generate_rejects_bad_size_range():
    with pytest.raises(ValueError):
        generate_random_env(
            GeneratorSpec(bounds=(0, 0, 5, 5), obstacle_count=1, size_range=(2.0, 1.0)), seed=0
        )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path, box_env):
    path = tmp_path / "env.json"
    save_environment(box_env, path)
    loaded = load_environment(path)
    assert np.array_equal(loaded.bounds, box_env.bounds)
    assert np.array_equal(loaded.obstacles, box_env.obstacles)
    assert np.array_equal(loaded.x0, box_env.x0)
    assert np.array_equal(loaded.xG, box_env.xG)
    assert loaded.delta == box_env.delta


def test_saved_file_field_names(tmp_path, box_env):
    path = tmp_path / "env.json"
    save_environment(box_env, path)
    doc = json.loads(path.read_text())
    assert set(doc) >= {"bounds", "obstacles", "x0", "xG", "delta"}
    assert doc["bounds"] == [0.0, 0.0, 10.0, 10.0]
    assert doc["obstacles"] == [[4.0, 4.0, 6.0, 6.0]]


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bounds": [0, 0, 1, 1]}))
    with pytest.raises(ValueError, match="missing key"):
        load_environment(path)
