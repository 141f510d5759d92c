"""Geometry layer: point/segment collision predicates, generation, file I/O."""

import json
import math
import tracemalloc
import warnings
import weakref

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


def test_construction_rejects_bounds_whose_span_overflows():
    # Finite corners whose width or height overflows to inf: no uniform
    # sample over them is finite.
    for bounds in [(-1e308, -1e308, 1e308, 1e308), (-1e308, 0.0, 1e308, 10.0), (0.0, -1e308, 10.0, 1e308)]:
        with pytest.raises(ValueError, match="finite width and height"):
            make_env(bounds=bounds)
    # The widest finite spans still pass, and sample finite points.
    wide = make_env(bounds=(-8e307, -8e307, 8e307, 8e307))
    pts = sample_uniform_batch(wide, np.random.default_rng(1), 1000)
    assert np.all(np.isfinite(pts)) and np.all(points_free(wide, pts))


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


def test_construction_rejects_a_non_finite_delta():
    # An infinite goal radius captures every free target at step 0, so the
    # root -> goal edge would be admitted without a single segment test.
    for delta in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            make_env(delta=delta)
    assert make_env(delta=1e308).delta == 1e308


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


def _dense_hits(env, a, b):
    """The dense slab reference, in chunks small enough for the 2000-obstacle worlds."""
    return np.concatenate(
        [np.zeros(0, dtype=bool)]
        + [envmod._segments_hit_rects(a[i : i + 256], b[i : i + 256], env.obstacles) for i in range(0, a.shape[0], 256)]
    )


def _pieces(env, a, b):
    """Piece count and piece step of each segment on the split path (cells of at most one side)."""
    d = b - a
    counts = np.maximum(np.ceil((np.abs(d) / env.grid.cell).max(axis=1)), 1.0)
    return counts, d / counts[:, None]


def _wave_segments(env, rng):
    """Segments for the piece waves: world diagonals and chords up to the world's
    length, rows blocked in their last piece alone, and rows grazing an obstacle
    corner at a piece boundary, exact and 1-3 ulps off."""
    lo, hi = env.bounds[:2], env.bounds[2:]
    corners = env.bounds[[[0, 1], [2, 3], [0, 3], [2, 1]]]
    starts, ends = [corners, rng.uniform(lo, hi, (200, 2))], [corners[[1, 0, 3, 2]], rng.uniform(lo, hi, (200, 2))]
    if env.grid is None:
        return np.vstack(starts), np.vstack(ends), 0
    cell = env.grid.cell
    o = env.obstacles[rng.permutation(env.obstacles.shape[0])[:400]]
    # Ends one ulp right of an obstacle's right edge, starts 1.5-8 cells back
    # along a heading within 30 degrees of +x.
    end = np.column_stack([np.nextafter(o[:, 2], np.inf), rng.uniform(o[:, 1], o[:, 3])])
    angle = rng.uniform(-np.pi / 6, np.pi / 6, o.shape[0])
    start = end - rng.uniform(1.5, 8.0, (o.shape[0], 1)) * cell * np.column_stack([np.cos(angle), np.sin(angle)])
    start = np.clip(start, lo, hi)
    counts, step = _pieces(env, start, end)
    last = _dense_hits(env, start, end) & ~_dense_hits(env, start, start + (counts - 1)[:, None] * step)
    starts.append(start[last])
    ends.append(end[last])
    # Through a lower-left corner on a heading that only touches the obstacle
    # there, with the corner at piece boundary j of n pieces.
    n = rng.integers(2, 40, o.shape[0])
    j = rng.integers(1, n)
    step = 0.999 * cell * np.array([1.0, -1.0])
    a = o[:, :2] - j[:, None] * step
    b = a + n[:, None] * step
    inside = ((a >= lo) & (a <= hi) & (b >= lo) & (b <= hi)).all(axis=1)
    starts += [a[inside], _nudge(a[inside], rng)]
    ends += [b[inside], _nudge(b[inside], rng)]
    return np.vstack(starts), np.vstack(ends), int(last.sum())


LIMITS = ("_DENSE_MAX_SEGMENT_PAIRS", "_DENSE_MAX_POINT_PAIRS")


def _use_raster(monkeypatch, on):
    """Send every grid-path call through the occupancy raster first, or none."""
    monkeypatch.setattr(envmod, "_last_raster", None)
    monkeypatch.setattr(envmod, "_RASTER_MIN_ROWS", 0 if on else math.inf)


# First wave widths: one piece, the shipped two, and more pieces than any
# in-bounds segment has, which tests every piece in one wave.
FIRST_WAVES = (1, 2, 10**6)


@pytest.mark.parametrize("split_min_cells", [0, math.inf])
@pytest.mark.parametrize("count, seed", [(0, 1), (1, 2), (45, 3), (45, 4), (2000, 5)])
def test_grid_broadphase_matches_dense_reference(count, seed, split_min_cells, monkeypatch):
    monkeypatch.setattr(envmod, "_SPLIT_MIN_CELLS", split_min_cells)
    env = _random_world(count, seed)
    rng = np.random.default_rng(seed)
    pts = _probe_points(env, rng)
    a, b = _probe_segments(env, pts, rng)
    wave_a, wave_b, last_piece_rows = _wave_segments(env, rng)
    a, b = np.vstack([a, wave_a]), np.vstack([b, wave_b])
    # Some rows must be blocked in their last piece alone.
    assert count < 45 or last_piece_rows >= 10

    def dense(fn, *arrays):
        with monkeypatch.context() as m:
            for limit in LIMITS:
                m.setattr(envmod, limit, math.inf)
            return np.concatenate([fn(env, *(x[i : i + 100] for x in arrays)) for i in range(0, arrays[0].shape[0], 100)])

    for limit in LIMITS:
        monkeypatch.setattr(envmod, limit, 0)
    expect_pts = dense(points_free, pts)
    expect = dense(segments_free, a, b)
    for raster in (False, True):
        _use_raster(monkeypatch, raster)
        assert np.array_equal(points_free(env, pts), expect_pts), raster
        # Waves run on the split path alone.
        for first_wave in FIRST_WAVES if split_min_cells == 0 else (2,):
            monkeypatch.setattr(envmod, "_FIRST_WAVE_PIECES", first_wave)
            assert np.array_equal(segments_free(env, a, b), expect), (raster, first_wave)
        assert not segments_free(env, a + 1e6, b + 1e6).any()
    # The probes must exercise both outcomes.
    assert count == 0 or 0 < expect.mean() < 1


RECIPE_WORLDS = {
    # bench slopes (and the wide-database benchmark workload): 45 obstacles on 20x20.
    "slopes-1234": (GeneratorSpec(bounds=(0.0, 0.0, 20.0, 20.0), obstacle_count=45, size_range=(1.5, 3.0), delta=0.4), 1234),
    # bench annealing: 2000 obstacles on 30x30.
    "annealing-7": (GeneratorSpec(bounds=(0.0, 0.0, 30.0, 30.0), obstacle_count=2000, size_range=(0.15, 0.45), delta=0.3), 7),
}


def _boundary_ends(env, rng):
    """Obstacle corners and edge points, each exact, one ulp inside, one ulp
    outside, and moved one ulp in, out or not at all per axis at random."""
    o = env.obstacles[rng.permutation(env.obstacles.shape[0])[:48]]
    along = rng.random((o.shape[0], 1))
    on_edge = np.vstack(
        [
            o[:, [0, 1]], o[:, [2, 1]], o[:, [0, 3]], o[:, [2, 3]],
            np.column_stack([o[:, 0] + along[:, 0] * (o[:, 2] - o[:, 0]), o[:, 3]]),
            np.column_stack([o[:, 2], o[:, 1] + along[:, 0] * (o[:, 3] - o[:, 1])]),
        ]
    )
    center = np.tile(0.5 * (o[:, :2] + o[:, 2:]), (6, 1))
    inward = np.nextafter(on_edge, center)
    outward = np.nextafter(on_edge, 2.0 * on_edge - center)
    pick = rng.integers(0, 3, on_edge.shape)
    mixed = np.choose(pick, [on_edge, inward, outward])
    return np.vstack([on_edge, inward, outward, mixed])


@pytest.mark.parametrize("world", sorted(RECIPE_WORLDS))
def test_grid_segments_match_slab_reference_at_obstacle_boundaries(world, monkeypatch):
    # Segments ending on, just inside and just outside obstacle boundaries,
    # from random, axis-parallel, coincident and one-ulp-away starts, must get
    # exactly the verdict of the dense slab test on the grid path, with and
    # without the occupancy raster.
    spec, seed = RECIPE_WORLDS[world]
    env = generate_random_env(spec, seed)
    rng = np.random.default_rng(seed)
    ends = _boundary_ends(env, rng)
    n = ends.shape[0]
    lo, hi = env.bounds[:2], env.bounds[2:]
    axis_parallel = ends.copy()
    row, axis = np.arange(n), rng.integers(0, 2, n)
    axis_parallel[row, axis] = rng.uniform(lo, hi, (n, 2))[row, axis]
    starts = [rng.uniform(lo, hi, (n, 2)), axis_parallel, ends.copy(), _nudge(ends, rng)]
    a = np.vstack(starts + [ends] * len(starts))
    b = np.vstack([ends] * len(starts) + starts)
    bad = rng.uniform(lo, hi, (12, 2))
    bad[np.arange(12), np.arange(12) % 2] = np.tile([np.nan, np.inf, -np.inf], 4)
    # From the far corner of the bounds: segments nearly the world's length.
    far = np.where(ends < 0.5 * (lo + hi), hi, lo)
    a = np.vstack([a, bad, ends[:12], far, ends])
    b = np.vstack([b, ends[:12], bad, ends, far])

    inside = (np.isfinite(a) & (a >= lo) & (a <= hi) & np.isfinite(b) & (b >= lo) & (b <= hi)).all(axis=1)
    hit = _dense_hits(env, a, b)
    for limit in LIMITS:
        monkeypatch.setattr(envmod, limit, 0)
    for raster in (False, True):
        _use_raster(monkeypatch, raster)
        for split_min_cells, first_wave in [(math.inf, 2)] + [(0, w) for w in FIRST_WAVES]:
            monkeypatch.setattr(envmod, "_SPLIT_MIN_CELLS", split_min_cells)
            monkeypatch.setattr(envmod, "_FIRST_WAVE_PIECES", first_wave)
            got = segments_free(env, a, b)
            np.testing.assert_array_equal(got, inside & ~hit)
    # Both verdicts occur among segments ending on a boundary.
    assert 0 < got[: 4 * n].mean() < 1


def _raster_edges(env, rng):
    """Points on the occupancy raster's cell edges where FULL cells start and
    end, on the edges of the one-cell margin around them, and on random cell
    corners; each exact and 1-3 ulps off."""
    raster = envmod._Raster(env.bounds, env.obstacles)
    o = env.obstacles[rng.permutation(env.obstacles.shape[0])[:60]]
    first = raster.cells(o[:, :2] + raster.pad) + 1  # first FULL cell
    last = raster.cells(o[:, 2:] - raster.pad)  # one past the last FULL cell
    near_lo, near_hi = raster.cells(o[:, :2]) - 1, raster.cells(o[:, 2:]) + 2  # the FREE margin's outer edges
    along = rng.random((o.shape[0], 1))
    mid = raster.cells(o[:, :2] + along * (o[:, 2:] - o[:, :2]))
    edges = []
    for ix in (first, last, near_lo, near_hi):
        # On an x edge at a y inside the obstacle, on a y edge likewise, and on the corner.
        edges += [np.column_stack([ix[:, 0], mid[:, 1]]), np.column_stack([mid[:, 0], ix[:, 1]]), ix]
    edges.append(rng.integers(0, raster.shape + 1, (200, 2)))
    pts = raster.origin + np.vstack(edges) * raster.cell
    pts = np.clip(pts, env.bounds[:2], env.bounds[2:])
    return raster, np.vstack([pts, _nudge(pts, rng), _nudge(pts, rng)])


EDGE_WORLDS = {
    **RECIPE_WORLDS,
    # Offset, non-square bounds holding 0 on both axes, with obstacles across both axes.
    "offset-40": (GeneratorSpec(bounds=(-7.5, -3.0, 21.0, 9.0), obstacle_count=40, size_range=(0.8, 4.0), delta=0.3), 40),
}


@pytest.mark.parametrize("world", sorted(EDGE_WORLDS))
def test_raster_verdicts_match_slab_reference_on_raster_edges(world, monkeypatch):
    # Points and segment samples on raster cell edges and on the edges of the
    # FULL cells and their margins, segment boxes ending there, axis-parallel
    # segments, direction components of 1e-300 and 5e-324, and segments
    # nearly the world's length must all get the dense reference's verdict.
    spec, seed = EDGE_WORLDS[world]
    env = generate_random_env(spec, seed)
    rng = np.random.default_rng(seed)
    _use_raster(monkeypatch, True)
    for limit in LIMITS:
        monkeypatch.setattr(envmod, limit, 0)
    raster, pts = _raster_edges(env, rng)
    n = pts.shape[0]
    lo, hi = env.bounds[:2], env.bounds[2:]
    heading = rng.normal(size=(n, 2)) * rng.choice([0.01, 0.2, 2.0], (n, 1))
    starts, ends = [], []
    # A sample at t lands on the point: a + t (b - a) with a = p - t v, b = p + (1 - t) v.
    for t in (0.25, 0.5, 0.75):
        starts.append(pts - t * heading)
        ends.append(pts + (1.0 - t) * heading)
    # Padded boxes with a corner on the point.
    starts += [pts + raster.pad, pts - raster.pad]
    ends += [pts + raster.pad + np.abs(heading), pts - raster.pad - np.abs(heading)]
    # Axis-parallel rows through the point, and rows nearly the world's length.
    for k in (0, 1):
        a, b = pts.copy(), pts.copy()
        a[:, k], b[:, k] = lo[k], hi[k]
        starts.append(a)
        ends.append(b)
    far = np.where(pts < 0.5 * (lo + hi), hi, lo)
    starts += [pts, lo + 0.0 * pts]
    ends += [far, hi + 0.0 * pts]
    # Direction components of 1e-300 and of the least subnormal, about x = 0 and y = 0.
    for k in (0, 1):
        for tiny in (1e-300, 5e-324):
            a, b = pts.copy(), pts.copy()
            a[:, k], b[:, k] = 0.0, tiny
            b[:, 1 - k] = rng.uniform(lo[1 - k], hi[1 - k], n)
            starts.append(a)
            ends.append(b)
    a, b = np.vstack(starts), np.vstack(ends)
    inside = ((a >= lo) & (a <= hi) & (b >= lo) & (b <= hi)).all(axis=1)
    expect = inside & ~_dense_hits(env, a, b)
    np.testing.assert_array_equal(segments_free(env, a, b), expect)
    np.testing.assert_array_equal(segments_free(env, b, a), expect)
    in_pts = ((pts >= lo) & (pts <= hi)).all(axis=1)
    hit_pts = ((pts[:, None] >= env.obstacles[None, :, :2]) & (pts[:, None] <= env.obstacles[None, :, 2:])).all(-1).any(1)
    np.testing.assert_array_equal(points_free(env, pts), in_pts & ~hit_pts)
    # The raster settles rows both ways here, and its states all occur.
    blocked, rest = raster.settle(a[inside], b[inside], b[inside] - a[inside])
    assert 0 < blocked.size and rest.size < inside.sum() - blocked.size
    assert set(np.unique(raster.states(pts[in_pts]))) == {envmod._FREE, envmod._MIXED, envmod._FULL}


def test_raster_points_free_takes_nan_and_infinite_rows(monkeypatch):
    # A raster-sized call: every row's raster state is looked up, the
    # out-of-bounds rows included, so NaN and +-inf rows must map to a valid
    # cell, raise and warn nothing, and come out blocked.
    monkeypatch.setattr(envmod, "_last_raster", None)
    world = generate_random_env(*RECIPE_WORLDS["slopes-1234"])
    rng = np.random.default_rng(17)
    pts = sample_uniform_batch(world, rng, envmod._RASTER_MIN_ROWS)
    bad = np.arange(0, pts.shape[0], 97)
    pts[bad] = np.array([[np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan], [np.inf, 1.0], [1.0, -np.inf], [-np.inf, np.inf]])[
        np.arange(bad.size) % 6
    ]
    hit = ((pts[:, None] >= world.obstacles[None, :, :2]) & (pts[:, None] <= world.obstacles[None, :, 2:])).all(-1).any(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = points_free(world, pts)
    assert envmod._last_raster is not None and envmod._last_raster[0]() is world
    assert not got[bad].any()
    np.testing.assert_array_equal(np.delete(got, bad), np.delete(~hit, bad))
    assert 0 < got.mean() < 1


def test_raster_is_chosen_by_call_size(monkeypatch):
    monkeypatch.setattr(envmod, "_last_raster", None)
    slopes = generate_random_env(*RECIPE_WORLDS["slopes-1234"])
    rows = envmod._RASTER_MIN_ROWS
    assert envmod._raster(slopes, rows - 1) is None and envmod._last_raster is None
    raster = envmod._raster(slopes, rows)
    assert raster is not None and envmod._last_raster[0]() is slopes
    assert envmod._raster(slopes, rows) is raster


def test_one_raster_is_held_and_freed_with_its_environment(monkeypatch):
    monkeypatch.setattr(envmod, "_last_raster", None)
    world = generate_random_env(*RECIPE_WORLDS["slopes-1234"])
    rng = np.random.default_rng(3)
    a = sample_uniform_batch(world, rng, envmod._RASTER_MIN_ROWS)
    b = a + rng.normal(0.0, 0.3, a.shape)
    tracemalloc.start()
    try:
        envs = []
        for _ in range(4):
            envs.append(Environment(bounds=world.bounds, obstacles=world.obstacles, x0=world.x0, xG=world.xG, delta=world.delta))
            segments_free(envs[-1], a, b)
            points_free(envs[-1], b)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    ref, raster = envmod._last_raster
    assert ref() is envs[-1]
    raster_bytes = raster.state.nbytes + raster.sat.nbytes
    # Four worlds with their grids hold well under half a raster more.
    assert raster_bytes <= held < 1.5 * raster_bytes, (held, raster_bytes)
    freed = weakref.ref(raster)
    del raster, ref, envs
    assert freed() is None and envmod._last_raster is None


def test_grid_holds_little_beyond_the_obstacles():
    # The bench annealing world (and the dense-annealing benchmark workload).
    # Its grid lists 4,235 (cell, obstacle) entries over 45 x 45 cells: as
    # int32 obstacle indices plus an int32 cell table it holds about 28 KB,
    # where float64 copies of every entry's corners held 154 KB.
    spec, seed = RECIPE_WORLDS["annealing-7"]
    world = generate_random_env(spec, seed)
    tracemalloc.start()
    try:
        env = Environment(bounds=world.bounds, obstacles=world.obstacles, x0=world.x0, xG=world.xG, delta=world.delta)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert env.grid is not None and np.shares_memory(env.obstacles, world.obstacles)
    assert held <= 40_000, held


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_sample_uniform_deterministic(free_env):
    r1 = np.random.default_rng(7)
    r2 = np.random.default_rng(7)
    seq1 = [sample_uniform_batch(free_env, r1, 1)[0] for _ in range(20)]
    seq2 = [sample_uniform_batch(free_env, r2, 1)[0] for _ in range(20)]
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


@pytest.mark.parametrize("count", [1, 2, 65_536])
@pytest.mark.parametrize("bounds", [(0.0, 0.0, 10.0, 10.0), (-7.5, -3.0, 21.0, 9.0), (0.1, 1e6, 0.3, 1e6 + 7.0)])
def test_sample_uniform_matches_rng_uniform_bit_for_bit(bounds, count):
    # Offset, non-square bounds too: the column-wise scale and shift must
    # give rng.uniform's lo + (hi - lo) * u and leave the generator where
    # rng.uniform leaves it.
    x0, y0, x1, y1 = bounds
    env = make_env(bounds=bounds, x0=(x0, y0), xG=(x1, y1))
    ours, ref = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(2):
        got = sample_uniform_batch(env, ours, count)
        expect = ref.uniform((x0, y0), (x1, y1), size=(count, 2))
        assert got.shape == expect.shape and got.dtype == expect.dtype
        assert got.tobytes() == expect.tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state


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


def test_generate_rejects_bounds_whose_span_overflows():
    # Placement draws uniforms over the bounds before any Environment exists.
    spec = GeneratorSpec(bounds=(-1e308, -1e308, 1e308, 1e308), obstacle_count=3)
    with pytest.raises(ValueError, match="finite width and height"):
        generate_random_env(spec, seed=0)


def test_generate_rejects_bad_size_range():
    with pytest.raises(ValueError):
        generate_random_env(
            GeneratorSpec(bounds=(0, 0, 5, 5), obstacle_count=1, size_range=(2.0, 1.0)), seed=0
        )
    # Sizes are drawn uniformly from the range, so it must be finite.
    for size_range in ((0.5, math.inf), (math.inf, math.inf), (0.5, math.nan)):
        with pytest.raises(ValueError, match="size range"):
            generate_random_env(GeneratorSpec(bounds=(0, 0, 5, 5), obstacle_count=1, size_range=size_range), seed=0)


def test_generator_spec_bounds_obstacle_count():
    for count in (-1, envmod.MAX_OBSTACLE_COUNT + 1, 10**11):
        with pytest.raises(ValueError, match="obstacle_count"):
            GeneratorSpec(bounds=(0, 0, 5, 5), obstacle_count=count)
    # The largest count a shipped recipe uses is 2000.
    for count in (0, 2000, envmod.MAX_OBSTACLE_COUNT):
        assert GeneratorSpec(bounds=(0, 0, 5, 5), obstacle_count=count).obstacle_count == count


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


def test_load_rejects_payload_that_is_not_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_environment(path)


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bounds": [0, 0, 1, 1]}))
    with pytest.raises(ValueError, match="missing key"):
        load_environment(path)


def test_load_rejects_a_fractional_seed(tmp_path, box_env):
    # A seed of 2.9 is not an integer: it may not load as seed 2.
    path = tmp_path / "env.json"
    save_environment(box_env, path)
    path.write_text(json.dumps({**json.loads(path.read_text()), "seed": 2.9}))
    with pytest.raises(ValueError, match="seed must be an integer, got 2.9"):
        load_environment(path)


def test_integral_and_numpy_values_still_load(tmp_path, box_env):
    path = tmp_path / "env.json"
    save_environment(box_env, path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "seed": 12.0, "delta": 1}))
    loaded = load_environment(path)
    assert loaded.rng_seed == 12 and type(loaded.rng_seed) is int and loaded.delta == 1.0
    env = make_env(bounds=np.array([0, 0, 10, 10]), delta=np.float32(0.5))
    assert Environment(env.bounds, env.obstacles, env.x0, env.xG, env.delta, rng_seed=np.int64(7)).rng_seed == 7


@pytest.mark.parametrize(
    "field, value",
    [
        ("delta", None),
        ("delta", [1]),
        ("x0", {"a": 1}),
        ("seed", None),
        # JSON true and false are not numbers: none may load as 1 or 0.
        ("seed", True),
        ("seed", False),
        ("delta", True),
        ("bounds", [False, 0.0, 10.0, 10.0]),
        ("x0", [True, 1.0]),
        ("xG", [9.0, False]),
        ("obstacles", [[4.0, 4.0, 6.0, 6.0], [True, 7.0, 2.0, 8.0]]),
    ],
)
def test_load_rejects_values_of_the_wrong_type(tmp_path, box_env, field, value):
    path = tmp_path / "env.json"
    save_environment(box_env, path)
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="wrong type"):
        load_environment(path)
