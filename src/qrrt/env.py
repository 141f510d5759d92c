"""Planar configuration space: rectangular bounds, rectangular obstacles, sampling.

Conventions used throughout the package:

* a point is a length-2 float array (anything ``np.asarray`` accepts);
* a rectangle is ``(xmin, ymin, xmax, ymax)``;
* obstacles are closed sets, so touching an obstacle boundary counts as a
  collision, while the workspace bounds are also closed, so lying exactly on
  the outer boundary still counts as inside.

Segment tests are exact closed slab (Liang-Barsky) interval intersections,
not sampled approximations, and point tests are exact closed
point-in-rectangle comparisons. A uniform grid over the bounds (Ericson,
*Real-Time Collision Detection*, 2004, ch. 7) decides which (segment,
obstacle) and (point, obstacle) pairs reach those tests:

* each Environment buckets its obstacles into grid cells once, at
  construction, as a CSR cell -> obstacle table; the cell side is about
  sqrt(area / obstacle count), capped per axis;
* a query maps its axis-aligned bounding box to the cells it reaches, takes
  the obstacles listed there and drops the pairs whose boxes do not overlap;
  only the survivors run the exact test;
* a segment's box is padded by a few ulps of the workspace scale, so no pair
  that the slab formula reports after floating-point rounding is dropped
  (the cell map is monotone, so overlapping boxes always share a cell);
* in a batch holding segments many cells long, each segment's box is
  replaced by the boxes of pieces at most one cell long, so its candidates
  grow with its length rather than with the length squared;
* calls of at most a fixed number of rows x obstacles skip the grid and run
  the same tests as one dense (row, obstacle) broadcast, which is cheaper at
  that size and is the reference the grid path is tested against.

Only rows that are finite and inside the bounds reach the grid; every other
row is blocked already.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Environment",
    "EnvGenerationError",
    "GeneratorSpec",
    "CorridorSpec",
    "point_free",
    "points_free",
    "segment_free",
    "segments_free",
    "sample_uniform",
    "sample_uniform_batch",
    "generate_random_env",
    "corridor_region",
    "save_environment",
    "load_environment",
]


class EnvGenerationError(RuntimeError):
    """Raised when random environment generation cannot satisfy its spec."""


def _as_rect(r) -> np.ndarray:
    rect = np.asarray(r, dtype=float).reshape(4)
    if not np.all(np.isfinite(rect)):
        raise ValueError(f"rectangle has non-finite entries: {rect!r}")
    return rect


def _as_point(p) -> np.ndarray:
    pt = np.asarray(p, dtype=float).reshape(2)
    if not np.all(np.isfinite(pt)):
        raise ValueError(f"point has non-finite entries: {pt!r}")
    return pt


@dataclass(frozen=True)
class Environment:
    """Workspace bounds, obstacle set, start/goal and the goal radius delta.

    Invariants are checked at construction: positive-area bounds, obstacles
    with positive extent lying inside the bounds, delta > 0, and free start
    and goal points.
    """

    bounds: np.ndarray
    obstacles: np.ndarray  # shape (O, 4), possibly O == 0
    x0: np.ndarray
    xG: np.ndarray
    delta: float
    rng_seed: int = 0

    def __post_init__(self):
        bounds = _as_rect(self.bounds)
        obstacles = np.asarray(self.obstacles, dtype=float).reshape(-1, 4)
        if not np.all(np.isfinite(obstacles)):
            raise ValueError("obstacles contain non-finite entries")
        x0 = _as_point(self.x0)
        xG = _as_point(self.xG)
        if not (bounds[2] > bounds[0] and bounds[3] > bounds[1]):
            raise ValueError(f"bounds must have positive area: {bounds.tolist()}")
        if obstacles.size:
            if not np.all((obstacles[:, 2] > obstacles[:, 0]) & (obstacles[:, 3] > obstacles[:, 1])):
                raise ValueError("every obstacle needs positive width and height")
            inside = (
                (obstacles[:, 0] >= bounds[0])
                & (obstacles[:, 1] >= bounds[1])
                & (obstacles[:, 2] <= bounds[2])
                & (obstacles[:, 3] <= bounds[3])
            )
            if not np.all(inside):
                raise ValueError("obstacles must lie inside the bounds")
        if not float(self.delta) > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "obstacles", obstacles)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "xG", xG)
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "rng_seed", int(self.rng_seed))
        for arr in (bounds, obstacles, x0, xG):
            arr.setflags(write=False)
        # Derived attribute, set past the frozen guard; not a dataclass field.
        object.__setattr__(self, "grid", _Grid(bounds, obstacles) if obstacles.size else None)
        if not point_free(self, x0):
            raise ValueError("start point x0 is not in free space")
        if not point_free(self, xG):
            raise ValueError("goal point xG is not in free space")


# Calls with at most this many rows x obstacles run the dense broadcast; the
# grid's fixed cost of a few dozen numpy calls only pays off above it. A
# dense point pair is several times cheaper than a segment pair, so points
# cross over later. Measured crossovers, on worlds of 2000 and of 45
# obstacles: about 4000 and 6500 pairs for segments, 6500 and 10500 for
# points.
_DENSE_MAX_SEGMENT_PAIRS = 4096
_DENSE_MAX_POINT_PAIRS = 8192

# A segment s cells long reaches up to (s + 1)^2 cells through its bounding
# box but only about 4s through pieces at most one cell long. Splitting costs
# several extra passes over every row of the batch, so it runs only on
# batches holding a segment that spans more than this many cells on an axis,
# where the saved candidates pay for it (uniform databases grown from a
# small tree).
_SPLIT_MIN_CELLS = 4

# Upper bound on the grid's cells per axis, so memory stays bounded however
# many obstacles a world has.
_MAX_CELLS_PER_AXIS = 256


def _boxes_overlap(box_lo, box_hi, lo, hi) -> np.ndarray:
    """Closed axis-aligned box overlap, elementwise over broadcast (..., 2) arrays."""
    return (
        (box_lo[..., 0] <= hi[..., 0])
        & (lo[..., 0] <= box_hi[..., 0])
        & (box_lo[..., 1] <= hi[..., 1])
        & (lo[..., 1] <= box_hi[..., 1])
    )


def _slab_hit(a, d, lo, hi) -> np.ndarray:
    """Closed slab test of segments a + t d, t in [0, 1], against boxes lo..hi.

    Elementwise over broadcast (..., 2) arrays. Axis-parallel segments (zero
    direction component) degenerate to a containment test on that axis;
    comparisons are closed so grazing contact counts as a hit.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - a) / d
        t2 = (hi - a) / d
    tmin = np.minimum(t1, t2)
    tmax = np.maximum(t1, t2)
    parallel = d == 0.0
    in_slab = (a >= lo) & (a <= hi)
    tmin = np.where(parallel, np.where(in_slab, -np.inf, np.inf), tmin)
    tmax = np.where(parallel, np.where(in_slab, np.inf, -np.inf), tmax)
    enter = np.maximum(np.maximum(tmin[..., 0], tmin[..., 1]), 0.0)
    exit_ = np.minimum(np.minimum(tmax[..., 0], tmax[..., 1]), 1.0)
    return enter <= exit_


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + c) over paired starts and counts."""
    shift = starts - (np.cumsum(counts) - counts)
    return np.repeat(shift, counts) + np.arange(int(counts.sum()))


class _Grid:
    """Uniform grid over the bounds with a CSR cell -> obstacle table.

    Cell (ix, iy) has id iy * nx + ix; entries start[id]:start[id + 1] of lo
    and hi are the corners of the obstacles reaching into it.
    """

    def __init__(self, bounds: np.ndarray, obstacles: np.ndarray):
        self.origin = bounds[:2]  # lower-left corner of the bounds
        size = bounds[2:] - self.origin
        side = math.sqrt(size[0] * size[1] / obstacles.shape[0])
        self.shape = np.clip(np.ceil(size / side), 1, _MAX_CELLS_PER_AXIS).astype(np.intp)  # (nx, ny)
        self.cell = size / self.shape  # cell side per axis
        # Segment box margin: a few ulps of the largest coordinate bound every
        # rounding error of the slab formula and of the segment pieces on
        # in-bounds segments, with margin to spare.
        self.pad = 16.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(bounds))))
        lo, hi = obstacles[:, :2], obstacles[:, 2:]
        owner, cells = self.box_cells(lo, hi)
        self.start = np.zeros(int(np.prod(self.shape)) + 1, dtype=np.intp)
        np.cumsum(np.bincount(cells, minlength=self.start.size - 1), out=self.start[1:])
        owner = owner[np.argsort(cells, kind="stable")]
        self.lo = np.take(lo, owner, axis=0)  # (entries, 2) obstacle lower corners
        self.hi = np.take(hi, owner, axis=0)  # (entries, 2) obstacle upper corners

    def cells(self, pts: np.ndarray) -> np.ndarray:
        """(K, 2) cell coordinates of points, clipped to the grid.

        Monotone in each coordinate, so boxes that overlap share a cell.
        """
        t = pts - self.origin
        t /= self.cell
        np.clip(t, 0, self.shape - 1, out=t)
        return t.astype(np.intp)

    def box_cells(self, box_lo: np.ndarray, box_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(box, cell id) for every cell every box reaches into."""
        lo = self.cells(box_lo)
        width = self.cells(box_hi) - lo + 1
        counts = width[:, 0] * width[:, 1]
        box = np.repeat(np.arange(counts.size), counts)
        dy, dx = np.divmod(_ranges(np.zeros_like(counts), counts), np.repeat(width[:, 0], counts))
        nx = self.shape[0]
        return box, np.repeat(lo[:, 1] * nx + lo[:, 0], counts) + dy * nx + dx

    def pairs(self, row: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, entry) for every obstacle entry listed in each (row, cell)."""
        first = np.take(self.start, cells)
        counts = np.take(self.start, cells + 1) - first
        return np.repeat(row, counts), _ranges(first, counts)


def _in_bounds(env: Environment, pts: np.ndarray) -> np.ndarray:
    b = env.bounds
    return (pts[:, 0] >= b[0]) & (pts[:, 0] <= b[2]) & (pts[:, 1] >= b[1]) & (pts[:, 1] <= b[3])


def _dense(env: Environment, rows: int, max_pairs: int) -> bool:
    return env.grid is None or rows * env.obstacles.shape[0] <= max_pairs


def points_free(env: Environment, points) -> np.ndarray:
    """Vector of booleans: inside the closed bounds and outside every closed obstacle."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    ok = _in_bounds(env, pts) & np.all(np.isfinite(pts), axis=1)
    grid = env.grid
    if grid is None:
        return ok
    if _dense(env, pts.shape[0], _DENSE_MAX_POINT_PAIRS):
        p = pts[:, None, :]
        o = env.obstacles[None]
        return ok & ~_boxes_overlap(p, p, o[..., :2], o[..., 2:]).any(axis=1)
    rows = np.flatnonzero(ok)
    cells = grid.cells(np.take(pts, rows, axis=0))
    row, entry = grid.pairs(rows, cells[:, 1] * grid.shape[0] + cells[:, 0])
    p = np.take(pts, row, axis=0)
    inside = _boxes_overlap(p, p, np.take(grid.lo, entry, axis=0), np.take(grid.hi, entry, axis=0))
    ok[row[inside]] = False
    return ok


def point_free(env: Environment, point) -> bool:
    return bool(points_free(env, _as_point(point))[0])


def _segments_hit_rects(a: np.ndarray, b: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """True per segment if the closed segment a->b meets any closed rectangle (dense)."""
    if rects.size == 0:
        return np.zeros(a.shape[0], dtype=bool)
    with np.errstate(invalid="ignore"):  # non-finite rows are blocked by the caller
        d = b - a
    return _slab_hit(a[:, None, :], d[:, None, :], rects[None, :, (0, 1)], rects[None, :, (2, 3)]).any(axis=1)


def segments_free(env: Environment, a, b) -> np.ndarray:
    """Vectorized segment_free over paired endpoint arrays of shape (K, 2).

    A segment is free iff both endpoints lie in the closed bounds (the bounds
    rectangle is convex, so the whole segment then does) and it intersects no
    obstacle.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    ok = np.all(np.isfinite(a), axis=1) & np.all(np.isfinite(b), axis=1) & _in_bounds(env, a) & _in_bounds(env, b)
    if _dense(env, a.shape[0], _DENSE_MAX_SEGMENT_PAIRS):
        return ok & ~_segments_hit_rects(a, b, env.obstacles)
    grid = env.grid
    rows = np.flatnonzero(ok)
    a, b = np.take(a, rows, axis=0), np.take(b, rows, axis=0)
    d = b - a
    p0, p1, piece_row = a, b, None
    span = np.abs(d) / grid.cell
    if np.any(span > _SPLIT_MIN_CELLS):
        # Cover each segment by pieces at most one cell long.
        counts = np.maximum(np.ceil(span.max(axis=1)), 1.0).astype(np.intp)
        piece_row = np.repeat(np.arange(rows.size), counts)
        step = np.repeat(d / counts[:, None], counts, axis=0)
        p0 = np.take(a, piece_row, axis=0) + _ranges(np.zeros_like(counts), counts)[:, None] * step
        p1 = p0 + step
    box_lo = np.minimum(p0, p1) - grid.pad
    box_hi = np.maximum(p0, p1) + grid.pad
    piece, entry = grid.pairs(*grid.box_cells(box_lo, box_hi))
    lo, hi = np.take(grid.lo, entry, axis=0), np.take(grid.hi, entry, axis=0)
    near = np.flatnonzero(_boxes_overlap(np.take(box_lo, piece, axis=0), np.take(box_hi, piece, axis=0), lo, hi))
    row = np.take(piece, near)
    if piece_row is not None:
        row = np.take(piece_row, row)
    lo, hi = np.take(lo, near, axis=0), np.take(hi, near, axis=0)
    hit = _slab_hit(np.take(a, row, axis=0), np.take(d, row, axis=0), lo, hi)
    ok[np.take(rows, row[hit])] = False
    return ok


def segment_free(env: Environment, a, b) -> bool:
    return bool(segments_free(env, _as_point(a), _as_point(b))[0])


def sample_uniform_batch(env: Environment, rng: np.random.Generator, count: int) -> np.ndarray:
    """count points uniform over the bounds rectangle (free or not)."""
    b = env.bounds
    return rng.uniform((b[0], b[1]), (b[2], b[3]), size=(count, 2))


def sample_uniform(env: Environment, rng: np.random.Generator) -> np.ndarray:
    return sample_uniform_batch(env, rng, 1)[0]


@dataclass(frozen=True)
class CorridorSpec:
    """A vertical wall split by a gap of the given width.

    The wall is centered at wall_x (bounds center when None) with the given
    thickness; the gap is centered at gap_center_y (bounds center when None).
    """

    width: float
    thickness: float = 1.0
    wall_x: float | None = None
    gap_center_y: float | None = None


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for seeded random environment generation.

    obstacle_count counts the scattered obstacles; a corridor adds its two
    wall pieces on top. Explicit x0/xG are used verbatim, otherwise both are
    rejection-sampled in free space (on opposite sides of the wall when a
    corridor is present).
    """

    bounds: tuple[float, float, float, float]
    obstacle_count: int = 0
    size_range: tuple[float, float] = (0.5, 2.0)
    delta: float = 0.5
    corridor: CorridorSpec | None = None
    x0: tuple[float, float] | None = None
    xG: tuple[float, float] | None = None
    max_retries: int = 10_000


def _corridor_walls(spec: GeneratorSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    b = _as_rect(spec.bounds)
    c = spec.corridor
    cx = 0.5 * (b[0] + b[2]) if c.wall_x is None else float(c.wall_x)
    cy = 0.5 * (b[1] + b[3]) if c.gap_center_y is None else float(c.gap_center_y)
    half_t = 0.5 * float(c.thickness)
    half_w = 0.5 * float(c.width)
    if not (c.width > 0 and c.thickness > 0):
        raise ValueError("corridor width and thickness must be positive")
    lower = np.array([cx - half_t, b[1], cx + half_t, cy - half_w])
    upper = np.array([cx - half_t, cy + half_w, cx + half_t, b[3]])
    gap = np.array([cx - half_t, cy - half_w, cx + half_t, cy + half_w])
    if not (lower[3] > lower[1] and upper[3] > upper[1]):
        raise ValueError("corridor gap leaves no room for wall pieces")
    return lower, upper, gap


def corridor_region(spec: GeneratorSpec) -> np.ndarray:
    """The gap rectangle of the corridor, derived deterministically from the generator parameters."""
    if spec.corridor is None:
        raise ValueError("spec has no corridor")
    return _corridor_walls(spec)[2]


def _rects_overlap(r1: np.ndarray, r2: np.ndarray) -> bool:
    return bool(r1[0] <= r2[2] and r2[0] <= r1[2] and r1[1] <= r2[3] and r2[1] <= r1[3])


def generate_random_env(spec: GeneratorSpec, seed: int) -> Environment:
    """Seeded environment: scattered axis-aligned obstacles, optional corridor.

    Scattered obstacles fit inside the bounds; with a corridor present they
    are rejection-sampled to avoid the gap rectangle so the passage always
    stays open. Start/goal sampling retries at most spec.max_retries times.
    """
    rng = np.random.default_rng(seed)
    b = _as_rect(spec.bounds)
    lo_s, hi_s = spec.size_range
    if not (0 < lo_s <= hi_s):
        raise ValueError(f"invalid obstacle size range: {spec.size_range}")
    obstacles: list[np.ndarray] = []
    gap = None
    if spec.corridor is not None:
        lower, upper, gap = _corridor_walls(spec)
        obstacles.extend([lower, upper])

    keep_clear = [np.asarray(p, dtype=float) for p in (spec.x0, spec.xG) if p is not None]

    def _rejected(rect: np.ndarray) -> bool:
        if gap is not None and _rects_overlap(rect, gap):
            return True
        # Explicit start/goal points must stay free, so obstacles avoid them.
        for pt in keep_clear:
            if rect[0] <= pt[0] <= rect[2] and rect[1] <= pt[1] <= rect[3]:
                return True
        return False

    tries = 0
    while len(obstacles) < spec.obstacle_count + (2 if gap is not None else 0):
        w, h = rng.uniform(lo_s, hi_s, size=2)
        if b[0] > b[2] - w or b[1] > b[3] - h:
            raise EnvGenerationError("obstacle size exceeds bounds")
        x = rng.uniform(b[0], b[2] - w)
        y = rng.uniform(b[1], b[3] - h)
        rect = np.array([x, y, x + w, y + h])
        if _rejected(rect):
            tries += 1
            if tries > spec.max_retries:
                raise EnvGenerationError("could not place obstacles clear of the corridor")
            continue
        obstacles.append(rect)

    obs = np.array(obstacles).reshape(-1, 4)

    # Start/goal sampling needs a free-point test before the Environment
    # object exists, so run it against the raw bounds/obstacle arrays.
    def _free(pt: np.ndarray) -> bool:
        if not (b[0] <= pt[0] <= b[2] and b[1] <= pt[1] <= b[3]):
            return False
        if obs.size:
            inside = (
                (pt[0] >= obs[:, 0]) & (pt[0] <= obs[:, 2]) & (pt[1] >= obs[:, 1]) & (pt[1] <= obs[:, 3])
            )
            if inside.any():
                return False
        return True

    def _draw(side: str | None, fixed) -> np.ndarray:
        if fixed is not None:
            return _as_point(fixed)
        for _ in range(spec.max_retries):
            if side == "left":
                x = rng.uniform(b[0], gap[0])
            elif side == "right":
                x = rng.uniform(gap[2], b[2])
            else:
                x = rng.uniform(b[0], b[2])
            y = rng.uniform(b[1], b[3])
            pt = np.array([x, y])
            if _free(pt):
                return pt
        raise EnvGenerationError("no free start/goal placement found within retry budget")

    if gap is not None:
        x0 = _draw("left", spec.x0)
        xG = _draw("right", spec.xG)
    else:
        x0 = _draw(None, spec.x0)
        xG = _draw(None, spec.xG)
    return Environment(bounds=b, obstacles=obs, x0=x0, xG=xG, delta=spec.delta, rng_seed=seed)


def save_environment(env: Environment, path) -> None:
    payload = {
        "bounds": env.bounds.tolist(),
        "obstacles": env.obstacles.tolist(),
        "x0": env.x0.tolist(),
        "xG": env.xG.tolist(),
        "delta": env.delta,
        "seed": env.rng_seed,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_environment(path) -> Environment:
    with open(path) as fh:
        payload = json.load(fh)
    try:
        return Environment(
            bounds=payload["bounds"],
            obstacles=payload.get("obstacles", []),
            x0=payload["x0"],
            xG=payload["xG"],
            delta=payload["delta"],
            rng_seed=payload.get("seed", 0),
        )
    except KeyError as exc:
        raise ValueError(f"environment file {path} is missing key {exc}") from exc
