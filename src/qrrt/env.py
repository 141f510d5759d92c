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
  construction, as a CSR cell -> obstacle table of int32 obstacle indices
  (corners are gathered from the obstacle array, so an entry costs 4 bytes);
  the cell side is about sqrt(area / obstacle count), capped per axis;
* a query maps its axis-aligned bounding box to the cells it reaches, takes
  the obstacles listed there and drops the pairs whose boxes do not overlap;
  only the survivors run the exact test;
* a segment's box is padded by a few ulps of the workspace scale, so no pair
  that the slab formula reports after floating-point rounding is dropped
  (the cell map is monotone, so overlapping boxes always share a cell);
* in a batch holding segments many cells long, each segment's box is
  replaced by the boxes of pieces at most one cell long, so its candidates
  grow with its length rather than with the length squared. The pieces are
  tested in waves along each segment, 2 pieces, then 4, 8 and so on, and a
  row leaves after the first wave that blocks it. A row's verdict is the OR,
  over its candidates, of the slab test on the whole segment; the pieces
  only choose the candidates, so neither their order nor the early exit
  changes a bit;
* calls of at most a fixed number of rows x obstacles skip the grid and run
  the same tests as one dense (row, obstacle) broadcast, which is cheaper at
  that size and is the reference the grid path is tested against.

Only rows inside the bounds reach the grid; every other row, NaN and
infinite ones included (they fail the closed bounds comparisons), is blocked
already.

On the grid path a segment whose end b lies in a closed obstacle is blocked
by a point query alone (the endpoint certificate), and only the remaining
rows go through the broadphase and the slab test. This gives exactly the
slab test's verdict in floating point. Say lo <= b <= hi on an axis and
d = fl(b - a). If d > 0, rounding is monotone, so fl(lo - a) <= d <=
fl(hi - a), hence t1 = fl(fl(lo - a) / d) <= 1 <= t2; if d < 0 the
inequalities flip with the same conclusion; if d = 0 then a = b, and the
parallel branch puts the axis's interval at (-inf, inf). On both axes, then,
tmin <= 1 <= tmax, so exit = 1 >= enter and the slab test reports a hit. The
dense path, which carries the single-row calls, skips the certificate: there
an extra point query would only add cost.

Grid-path calls of many rows first consult an occupancy raster, a second
tiling of the bounds into 256 x 256 cells with a summed-area table of its
non-FREE cells (Crow, "Summed-area tables for texture mapping", SIGGRAPH
1984), so the number of non-FREE cells in any box of cells costs four
lookups. With g the raster's point -> cell map, pad the grid's segment box
margin, and lo..hi an obstacle, a cell is

* FREE when it lies outside g(lo) - 1 .. g(hi) + 1 for every obstacle: one
  cell of margin around each obstacle's cells;
* FULL when it lies inside g(lo + pad) + 1 .. g(hi - pad) - 1 for some
  obstacle: its cells, less pad and then one cell on every side;
* MIXED otherwise.

Every verdict the raster gives is the exact test's, because g, like the
grid's map, is monotone: p <= q on an axis implies g(p) <= g(q) there.

* Points. A point in an obstacle has g(lo) <= g(p) <= g(hi), so its cell is
  not FREE. A point p in a FULL cell has g(lo + pad) < g(p) < g(hi - pad),
  so lo + pad < p < hi - pad on both axes: it lies inside the obstacle.
  points_free decides FREE and FULL rows so, and only MIXED rows go on to
  the grid.
* Free segments. If every cell of a segment's padded box is FREE, no
  obstacle meets that box, since an obstacle meeting it would share a cell
  with it. The slab test reports no obstacle outside the padded box (the
  premise of the grid's broadphase), so the segment is free.
* Blocked segments. Let s = fl(a + fl(t d)) for t = 1/4, 1/2 or 3/4 lie in a
  FULL cell. Then s lies at least 15/16 pad inside the obstacle (pad less
  the rounding of lo + pad) and within pad/8 of the exact a + t d, while
  fl(lo - a) and fl(hi - a) round by at most pad/16 (pad is 16 ulps of the
  largest coordinate bound). So on an axis with d > 0, fl(lo - a) < t d <
  fl(hi - a), hence t1 <= t <= t2 after the division, since rounding is
  monotone and t is a float; d < 0 swaps t1 and t2; and d = 0 gives s = a,
  inside the slab. On both axes tmin <= t <= tmax, so enter <= t <= exit
  and the slab test reports a hit.

segments_free settles free and blocked rows so after the endpoint
certificate, and only the rest run the grid. Which path a call takes never
changes a verdict, only its cost. The raster pays off on calls of many rows
in worlds of large obstacles, so it is used on calls of at least
_RASTER_MIN_ROWS rows. It is built on the first call that qualifies, and the module holds one raster at a time, for the Environment
that used one last, and only while that Environment lives; an Environment
itself carries none.
"""

from __future__ import annotations

import json
import math
import weakref
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
    "sample_uniform_batch",
    "generate_random_env",
    "corridor_region",
    "save_environment",
    "load_environment",
]


class EnvGenerationError(RuntimeError):
    """Raised when random environment generation cannot satisfy its spec."""


def _holds_bool(value) -> bool:
    """Whether value is a boolean, or an array or (nested) list holding one."""
    if isinstance(value, (bool, np.bool_)):
        return True
    if isinstance(value, np.ndarray):
        return value.dtype == bool
    return isinstance(value, (list, tuple)) and any(_holds_bool(v) for v in value)


def _as_floats(value, name: str) -> np.ndarray:
    """value as a float array; booleans, which float() would read as 0 and 1, are a TypeError."""
    if _holds_bool(value):
        raise TypeError(f"{name} must hold numbers, not booleans, got {value!r}")
    return np.asarray(value, dtype=float)


def _as_number(value, name: str, integral: bool = False) -> float | int:
    """A scalar as a float, or as an int when integral.

    Booleans are a TypeError and, for integral fields, numbers with a
    fractional part a ValueError, rather than read as 0, 1 or truncated.
    """
    if _holds_bool(value):
        raise TypeError(f"{name} must be a number, not a boolean, got {value!r}")
    if not integral:
        return float(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(number)


def _as_bounds(r) -> np.ndarray:
    """Workspace bounds (xmin, ymin, xmax, ymax) of positive, finite width
    and height: a uniform draw over a span that overflows to inf has no
    finite sample."""
    bounds = _as_floats(r, "bounds").reshape(4)
    if not np.all(np.isfinite(bounds)):
        raise ValueError(f"bounds have non-finite entries: {bounds!r}")
    x0, y0, x1, y1 = bounds.tolist()
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"bounds must have positive area: {bounds.tolist()}")
    if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
        raise ValueError(f"bounds must have a finite width and height: {bounds.tolist()}")
    return bounds


def _as_point(p, name: str = "point") -> np.ndarray:
    pt = _as_floats(p, name).reshape(2)
    if not np.all(np.isfinite(pt)):
        raise ValueError(f"{name} has non-finite entries: {pt!r}")
    return pt


@dataclass(frozen=True)
class Environment:
    """Workspace bounds, obstacle set, start/goal and the goal radius delta.

    Invariants are checked at construction: bounds of positive, finite width
    and height, obstacles with positive extent lying inside the bounds,
    a positive, finite delta, and free start and goal points.
    """

    bounds: np.ndarray
    obstacles: np.ndarray  # shape (O, 4), possibly O == 0
    x0: np.ndarray
    xG: np.ndarray
    delta: float
    rng_seed: int = 0

    def __post_init__(self):
        bounds = _as_bounds(self.bounds)
        obstacles = _as_floats(self.obstacles, "obstacles").reshape(-1, 4)
        if not np.all(np.isfinite(obstacles)):
            raise ValueError("obstacles contain non-finite entries")
        x0 = _as_point(self.x0, "x0")
        xG = _as_point(self.xG, "xG")
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
        delta = _as_number(self.delta, "delta")
        if not 0.0 < delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "obstacles", obstacles)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "xG", xG)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "rng_seed", _as_number(self.rng_seed, "seed", integral=True))
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

# Pieces per segment in the first wave of the split path; each later wave
# doubles it. Most blocked rows of a dense world are blocked in their first
# cells, so they skip the rest of their pieces.
_FIRST_WAVE_PIECES = 2

# Upper bound on the grid's cells per axis, so memory stays bounded however
# many obstacles a world has.
_MAX_CELLS_PER_AXIS = 256

# The occupancy raster's cells per axis: 2^16 cells, about 0.33 MB with its
# summed-area table.
_RASTER_CELLS_PER_AXIS = 256

# Grid-path calls of at least this many rows consult the raster first. Its
# lookups cost every row of a call, and smaller calls, such as the flattened
# tails of n = 8 planners, ran slower with it at 1024 rows.
_RASTER_MIN_ROWS = 4096


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
    comparisons are closed so grazing contact counts as a hit. A direction
    component so small that a quotient overflows gives it as +-inf, its limit.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t1 = (lo - a) / d
        t2 = (hi - a) / d
    tmin = np.minimum(t1, t2)
    tmax = np.maximum(t1, t2)
    parallel = d == 0.0
    if parallel.any():
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


class _Cells:
    """A uniform tiling of the bounds into shape = (nx, ny) cells; cell (ix, iy) has id iy * nx + ix."""

    def __init__(self, bounds: np.ndarray, shape: np.ndarray):
        self.origin = bounds[:2]  # lower-left corner of the bounds
        self.shape = shape
        self.cell = (bounds[2:] - self.origin) / shape  # cell side per axis
        self.top = (shape - 1).astype(float)  # highest cell coordinate per axis
        # Segment box margin: a few ulps of the largest coordinate bound every
        # rounding error of the slab formula and of the segment pieces on
        # in-bounds segments, with margin to spare.
        self.pad = 16.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(bounds))))

    def cells(self, pts: np.ndarray) -> np.ndarray:
        """(K, 2) cell coordinates of points, clipped to the tiling.

        Monotone in each coordinate, so boxes that overlap share a cell. A
        NaN coordinate maps to cell 0 (fmax and fmin drop the NaN), so every
        row gets a valid cell; callers drop the rows outside the bounds.
        """
        # One axis at a time: numpy loops over a (K, 2) array broadcast
        # against a (2,) one two elements at a time, several times slower.
        out = np.empty(pts.shape, dtype=np.intp)
        for k in (0, 1):
            t = pts[:, k] - self.origin[k]
            t /= self.cell[k]
            np.fmax(t, 0.0, out=t)
            np.fmin(t, self.top[k], out=t)
            out[:, k] = t
        return out


class _Grid(_Cells):
    """Uniform grid over the bounds with a CSR cell -> obstacle table.

    Entries start[id]:start[id + 1] of entries are the int32 indices of the
    obstacles reaching into cell id. Corners are gathered from the obstacle
    array itself, so the table costs 4 bytes an entry rather than 32.
    """

    def __init__(self, bounds: np.ndarray, obstacles: np.ndarray):
        size = bounds[2:] - bounds[:2]
        side = math.sqrt(size[0] * size[1] / obstacles.shape[0])
        super().__init__(bounds, np.clip(np.ceil(size / side), 1, _MAX_CELLS_PER_AXIS).astype(np.intp))
        self.obstacles = obstacles  # the Environment's own (O, 4) array, not a copy
        owner, cells = self.box_cells(obstacles[:, :2], obstacles[:, 2:])
        # int32 offsets and indices: a table of 2^31 entries would need tens
        # of GB of temporaries in box_cells before it overflowed.
        self.start = np.zeros(int(np.prod(self.shape)) + 1, dtype=np.int32)
        np.cumsum(np.bincount(cells, minlength=self.start.size - 1), out=self.start[1:])
        self.entries = owner[np.argsort(cells, kind="stable")].astype(np.int32)

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
        """(row, obstacle corners) for every obstacle listed in each (row, cell)."""
        first = np.take(self.start, cells)
        counts = np.take(self.start, cells + 1) - first
        owner = np.take(self.entries, _ranges(first, counts))
        return np.repeat(row, counts), np.take(self.obstacles, owner, axis=0)


# Raster cell states.
_FREE, _MIXED, _FULL = 0, 1, 2


def _covered(shape: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(ny, nx) mask of the cells inside any of the inclusive cell boxes lo..hi, clipped to shape."""
    lo = np.maximum(lo, 0)
    hi = np.minimum(hi, shape - 1) + 1
    keep = np.all(lo < hi, axis=1)
    lo, hi = lo[keep], hi[keep]
    # 2-D difference array: +1 at a box's lower and upper corners, -1 at its
    # other two, and the running sums over both axes count the boxes per cell.
    nx, ny = shape + 1
    size = nx * ny
    count = np.bincount(np.concatenate([lo[:, 1] * nx + lo[:, 0], hi[:, 1] * nx + hi[:, 0]]), minlength=size)
    count -= np.bincount(np.concatenate([lo[:, 1] * nx + hi[:, 0], hi[:, 1] * nx + lo[:, 0]]), minlength=size)
    count = count.reshape(ny, nx)
    np.cumsum(count, axis=0, out=count)
    np.cumsum(count, axis=1, out=count)
    return count[:-1, :-1] > 0


class _Raster(_Cells):
    """FREE / MIXED / FULL cell states and a summed-area table of the non-FREE
    cells (see the module docstring)."""

    def __init__(self, bounds: np.ndarray, obstacles: np.ndarray):
        super().__init__(bounds, np.full(2, _RASTER_CELLS_PER_AXIS, dtype=np.intp))
        lo, hi = obstacles[:, :2], obstacles[:, 2:]
        near = _covered(self.shape, self.cells(lo) - 1, self.cells(hi) + 1)
        self.state = np.where(near, np.int8(_MIXED), np.int8(_FREE)).ravel()
        self.state[_covered(self.shape, self.cells(lo + self.pad) + 1, self.cells(hi - self.pad) - 1).ravel()] = _FULL
        nx, ny = self.shape
        # sat[iy * (nx + 1) + ix]: non-FREE cells with both coordinates below (ix, iy).
        sat = np.zeros((ny + 1, nx + 1), dtype=np.int32)
        np.cumsum(np.cumsum(near, axis=0, dtype=np.int32), axis=1, out=sat[1:, 1:])
        self.sat = sat.ravel()

    def states(self, pts: np.ndarray) -> np.ndarray:
        """The state of each point's cell."""
        cells = self.cells(pts)
        return np.take(self.state, cells[:, 1] * self.shape[0] + cells[:, 0])

    def settle(self, a: np.ndarray, b: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(blocked, unsettled) row indices of segments a -> b, d = b - a; every other row is free.

        A row is free when every cell of its padded box is FREE, and blocked
        when its point at 1/4, 1/2 or 3/4 lies in a FULL cell.
        """
        lo = self.cells(np.minimum(a, b) - self.pad)
        hi = self.cells(np.maximum(a, b) + self.pad) + 1
        w = self.shape[0] + 1
        sat = self.sat
        near = (
            np.take(sat, hi[:, 1] * w + hi[:, 0])
            - np.take(sat, lo[:, 1] * w + hi[:, 0])
            - np.take(sat, hi[:, 1] * w + lo[:, 0])
            + np.take(sat, lo[:, 1] * w + lo[:, 0])
        ).nonzero()[0]
        a, d = np.take(a, near, axis=0), np.take(d, near, axis=0)
        deep = np.zeros(near.size, dtype=bool)
        for t in (0.25, 0.5, 0.75):
            deep |= self.states(a + t * d) == _FULL
        return near[deep], near[~deep]


# (weak reference to the Environment rastered last, its raster), or None.
# Held here rather than on the Environment, so the memory never grows with
# the number of live worlds.
_last_raster: tuple[weakref.ref, _Raster] | None = None


def _drop_raster(ref: weakref.ref) -> None:
    """Free the held raster once its Environment is collected."""
    global _last_raster
    entry = _last_raster
    if entry is not None and entry[0] is ref:
        _last_raster = None


def _raster(env: Environment, rows: int) -> _Raster | None:
    """The raster for a grid-path call of this many rows, or None to use the grid alone.

    Built on the first call that qualifies, in place of the one held before.
    """
    global _last_raster
    if rows < _RASTER_MIN_ROWS:
        return None
    entry = _last_raster
    if entry is None or entry[0]() is not env:
        entry = _last_raster = None  # free the previous raster before building this one
        entry = _last_raster = (weakref.ref(env, _drop_raster), _Raster(env.bounds, env.obstacles))
    return entry[1]


def _in_bounds(env: Environment, pts: np.ndarray) -> np.ndarray:
    b = env.bounds
    return (pts[:, 0] >= b[0]) & (pts[:, 0] <= b[2]) & (pts[:, 1] >= b[1]) & (pts[:, 1] <= b[3])


def _dense(env: Environment, rows: int, max_pairs: int) -> bool:
    return env.grid is None or rows * env.obstacles.shape[0] <= max_pairs


def points_free(env: Environment, points) -> np.ndarray:
    """Vector of booleans: inside the closed bounds and outside every closed obstacle."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    ok = _in_bounds(env, pts)
    grid = env.grid
    if grid is None:
        return ok
    if _dense(env, pts.shape[0], _DENSE_MAX_POINT_PAIRS):
        p = pts[:, None, :]
        o = env.obstacles[None]
        return ok & ~_boxes_overlap(p, p, o[..., :2], o[..., 2:]).any(axis=1)
    raster = _raster(env, pts.shape[0])
    if raster is None:
        rows = np.flatnonzero(ok)
    else:
        # Every row's state, out-of-bounds ones included, without gathering
        # the in-bounds rows first: ok already drops the others.
        state = raster.states(pts)
        ok &= state != _FULL
        rows = np.flatnonzero(ok & (state == _MIXED))
    cells = grid.cells(np.take(pts, rows, axis=0))
    row, rect = grid.pairs(rows, cells[:, 1] * grid.shape[0] + cells[:, 0])
    p = np.take(pts, row, axis=0)
    inside = _boxes_overlap(p, p, rect[:, :2], rect[:, 2:])
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


def _grid_hits(grid: _Grid, a, d, p0, p1, piece_row=None) -> np.ndarray:
    """Rows of segments a + t d that meet an obstacle listed near their pieces p0 -> p1.

    piece_row maps each piece to its segment (None: piece i is segment i).
    Every candidate runs the slab test on its whole segment, so the pieces
    only choose which obstacles are tried.
    """
    box_lo = np.minimum(p0, p1) - grid.pad
    box_hi = np.maximum(p0, p1) + grid.pad
    piece, rect = grid.pairs(*grid.box_cells(box_lo, box_hi))
    near = np.flatnonzero(
        _boxes_overlap(np.take(box_lo, piece, axis=0), np.take(box_hi, piece, axis=0), rect[:, :2], rect[:, 2:])
    )
    row = np.take(piece, near)
    if piece_row is not None:
        row = np.take(piece_row, row)
    rect = np.take(rect, near, axis=0)
    return row[_slab_hit(np.take(a, row, axis=0), np.take(d, row, axis=0), rect[:, :2], rect[:, 2:])]


def segments_free(env: Environment, a, b) -> np.ndarray:
    """Vectorized segment_free over paired endpoint arrays of shape (K, 2).

    A segment is free iff both endpoints lie in the closed bounds (the bounds
    rectangle is convex, so the whole segment then does) and it intersects no
    obstacle.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    ok = _in_bounds(env, a)
    if _dense(env, a.shape[0], _DENSE_MAX_SEGMENT_PAIRS):
        return ok & _in_bounds(env, b) & ~_segments_hit_rects(a, b, env.obstacles)
    # Endpoint certificate: a segment ending in an obstacle is blocked, as
    # the slab test would find (see the module docstring).
    ok &= points_free(env, b)
    grid = env.grid
    rows = np.flatnonzero(ok)
    a, b = np.take(a, rows, axis=0), np.take(b, rows, axis=0)
    d = b - a
    raster = _raster(env, ok.size)
    if raster is not None:
        # Rows the raster settles (see the module docstring) skip the grid.
        blocked, rest = raster.settle(a, b, d)
        ok[rows[blocked]] = False
        rows, a, b, d = rows[rest], *(np.take(x, rest, axis=0) for x in (a, b, d))
    # Cells spanned on the longer axis (per axis, as in _Grid.cells).
    span = np.maximum(np.abs(d[:, 0]) / grid.cell[0], np.abs(d[:, 1]) / grid.cell[1])
    hit = np.zeros(rows.size, dtype=bool)
    if not np.any(span > _SPLIT_MIN_CELLS):
        hit[_grid_hits(grid, a, d, a, b)] = True
    else:
        # Cover each segment by pieces at most one cell long and test them in
        # waves along it, each twice as wide as the last; a row leaves once a
        # wave blocks it or its pieces run out.
        counts = np.maximum(np.ceil(span), 1.0).astype(np.intp)
        step = d / counts[:, None]
        live = np.arange(rows.size)
        first, width = 0, _FIRST_WAVE_PIECES
        while live.size:
            wave = np.minimum(np.take(counts, live) - first, width)
            piece_row = np.repeat(live, wave)
            piece_step = np.take(step, piece_row, axis=0)
            p0 = np.take(a, piece_row, axis=0) + _ranges(np.full_like(wave, first), wave)[:, None] * piece_step
            hit[_grid_hits(grid, a, d, p0, p0 + piece_step, piece_row)] = True
            first += width
            width *= 2
            live = live[(np.take(counts, live) > first) & ~np.take(hit, live)]
    ok[rows[hit]] = False
    return ok


def segment_free(env: Environment, a, b) -> bool:
    return bool(segments_free(env, _as_point(a), _as_point(b))[0])


def sample_uniform_batch(env: Environment, rng: np.random.Generator, count: int) -> np.ndarray:
    """count points uniform over the bounds rectangle (free or not).

    The same values, and the same generator state after, as
    rng.uniform((x0, y0), (x1, y1), size=(count, 2)), whose element is
    lo + (hi - lo) * u: each column of rng.random is scaled and shifted in
    place, since numpy loops over a (count, 2) array broadcast against a
    (2,) one two elements at a time.
    """
    x0, y0, x1, y1 = env.bounds.tolist()
    pts = rng.random((count, 2))
    x = pts[:, 0]
    x *= x1 - x0
    x += x0
    y = pts[:, 1]
    y *= y1 - y0
    y += y0
    return pts


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


# Largest obstacle_count a generator spec accepts: 50x the largest shipped
# recipe (2000). Placement runs one obstacle at a time, about 4 s for 100,000
# on a 2-core x86-64 host.
MAX_OBSTACLE_COUNT = 100_000


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for seeded random environment generation.

    obstacle_count counts the scattered obstacles, in [0, MAX_OBSTACLE_COUNT];
    a corridor adds its two wall pieces on top. Explicit x0/xG are used
    verbatim, otherwise both are rejection-sampled in free space (on opposite
    sides of the wall when a corridor is present).
    """

    bounds: tuple[float, float, float, float]
    obstacle_count: int = 0
    size_range: tuple[float, float] = (0.5, 2.0)
    delta: float = 0.5
    corridor: CorridorSpec | None = None
    x0: tuple[float, float] | None = None
    xG: tuple[float, float] | None = None
    max_retries: int = 10_000

    def __post_init__(self):
        if not (0 <= self.obstacle_count <= MAX_OBSTACLE_COUNT):
            raise ValueError(f"obstacle_count must be in [0, {MAX_OBSTACLE_COUNT}], got {self.obstacle_count}")


def _corridor_walls(spec: GeneratorSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    b = _as_bounds(spec.bounds)
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


def generate_random_env(spec: GeneratorSpec, seed: int) -> Environment:
    """Seeded environment: scattered axis-aligned obstacles, optional corridor.

    Scattered obstacles fit inside the bounds; with a corridor present they
    are rejection-sampled to avoid the gap rectangle so the passage always
    stays open. Start/goal sampling retries at most spec.max_retries times.
    """
    rng = np.random.default_rng(seed)
    b = _as_bounds(spec.bounds)
    lo_s, hi_s = spec.size_range
    if not (0 < lo_s <= hi_s < math.inf):
        raise ValueError(f"invalid obstacle size range: {spec.size_range}")
    obstacles: list[np.ndarray] = []
    gap = None
    if spec.corridor is not None:
        lower, upper, gap = _corridor_walls(spec)
        obstacles.extend([lower, upper])

    keep_clear = [np.asarray(p, dtype=float) for p in (spec.x0, spec.xG) if p is not None]

    def _rejected(rect: np.ndarray) -> bool:
        lo, hi = rect[:2], rect[2:]
        if gap is not None and _boxes_overlap(lo, hi, gap[:2], gap[2:]):
            return True
        # Explicit start/goal points must stay free, so obstacles avoid them.
        return any(_boxes_overlap(pt, pt, lo, hi) for pt in keep_clear)

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
        in_bounds = b[0] <= pt[0] <= b[2] and b[1] <= pt[1] <= b[3]
        return in_bounds and not _boxes_overlap(pt, pt, obs[:, :2], obs[:, 2:]).any()

    def _draw(x_lo: float, x_hi: float, fixed) -> np.ndarray:
        if fixed is not None:
            return _as_point(fixed)
        for _ in range(spec.max_retries):
            x = rng.uniform(x_lo, x_hi)
            y = rng.uniform(b[1], b[3])
            pt = np.array([x, y])
            if _free(pt):
                return pt
        raise EnvGenerationError("no free start/goal placement found within retry budget")

    # With a corridor the start lies left of the wall and the goal right of it.
    left, right = ((b[0], gap[0]), (gap[2], b[2])) if gap is not None else ((b[0], b[2]),) * 2
    x0 = _draw(*left, spec.x0)
    xG = _draw(*right, spec.xG)
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
    if not isinstance(payload, dict):
        raise ValueError(f"environment file {path} must hold a JSON object")
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
    except TypeError as exc:  # a JSON value float() or int() cannot take, such as null or a list
        raise ValueError(f"environment file {path} holds a value of the wrong type: {exc}") from exc
