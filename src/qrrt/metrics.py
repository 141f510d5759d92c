"""Trial instrumentation: records, heatmaps, calls-per-node fits, exports.

run_trial runs one seeded trial of any algorithm in ALGORITHM_TABLE; its
docstring says how far an amplified step may overshoot a cutoff. The bench
recipes are CLI facts and live in cli.BENCH_RECIPES.

All exports are deterministic byte-for-byte for fixed inputs (floats are
written with repr round-tripping); the wall-clock column of a record CSV is
the single exception and comparisons must exclude it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import parallel as _parallel
from . import planner as _planner
from . import qsim
from .dynamics import LinearSystem
from .env import Environment
from .records import TrialRecord

__all__ = [
    "TrialRecord",
    "AlgorithmConfig",
    "Heatmap",
    "HeatmapSpec",
    "accumulate_heatmap",
    "run_trial",
    "count_in_region",
    "oracle_efficiency",
    "slope_fit",
    "edge_lengths",
    "RECORD_CSV_COLUMNS",
    "records_to_csv_lines",
    "write_records_csv",
    "write_heatmap_csv",
    "write_heatmap_pgm",
]

class Algorithm(NamedTuple):
    """One row of the algorithm table."""

    pool_mode: str | None  # the WorkerPool mode a pooled variant runs
    amplified: bool  # builds 2^n databases, so n is bounded


# The one table of algorithm facts; every caller reads it. run_trial runs a
# pooled row with parallel.run_parallel_plan, another amplified row with
# qrrt_plan and the rest with rrt_plan.
ALGORITHM_TABLE = {
    "rrt": Algorithm(None, False),
    "qrrt": Algorithm(None, True),
    "qda": Algorithm(None, True),
    "prrt": Algorithm("classical", False),
    "pqrrt-shared": Algorithm("shared", True),
    "pqrrt-unshared": Algorithm("unshared", True),
}
ALGORITHMS = tuple(ALGORITHM_TABLE)


@dataclass(frozen=True)
class AlgorithmConfig:
    """Everything needed to run one planner variant on an environment.

    mode is "optimal" or a fixed iteration count in [0, planner.MAX_FIXED_ITERATIONS];
    schedule is required for qda and refused for the others; pool is required
    for the pooled variants, in the table's mode, and refused for the others.
    """

    name: str
    n: int = 8
    mode: object = "optimal"
    schedule: _planner.TemperatureSchedule | None = None
    pool: _parallel.WorkerPool | None = None
    max_steps: int = 100_000

    def __post_init__(self):
        if self.name not in ALGORITHM_TABLE:
            raise ValueError(f"unknown algorithm {self.name!r}, expected one of {ALGORITHMS}")
        _planner._check_mode(self.mode)
        spec = ALGORITHM_TABLE[self.name]
        if spec.amplified:
            qsim._check_n(self.n)
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.name == "qda" and self.schedule is None:
            raise ValueError("qda needs a temperature schedule")
        if self.name != "qda" and self.schedule is not None:
            raise ValueError(f"{self.name} takes no temperature schedule; only qda does")
        if spec.pool_mode is None and self.pool is not None:
            raise ValueError(f"{self.name} runs no worker pool, got one in mode {self.pool.mode!r}")
        if spec.pool_mode is not None and (self.pool is None or self.pool.mode != spec.pool_mode):
            got = "none" if self.pool is None else repr(self.pool.mode)
            raise ValueError(f"{self.name} needs a worker pool in mode {spec.pool_mode!r}, got {got}")


def run_trial(
    algo: AlgorithmConfig,
    env: Environment,
    sys: LinearSystem,
    seed: int,
    *,
    cutoff: int | None = None,
    target_nodes: int | None = None,
) -> _planner.PlanResult:
    """One seeded planning trial of the configured algorithm.

    cutoff bounds the cutoff-counted calls (amplification and classical; the
    finalizer is excluded): the trial stops before any step that starts at
    or past it. Single-call classical steps exhaust it exactly; a multi-call
    amplified step may overshoot by its own cost, which is inherent to
    stepwise accounting and accepted.
    """
    spec = ALGORITHM_TABLE[algo.name]
    if spec.pool_mode is not None:
        return _parallel.run_parallel_plan(env, sys, algo, seed, target_nodes=target_nodes, cutoff=cutoff)
    rng = np.random.default_rng(seed)
    if not spec.amplified:
        return _planner.rrt_plan(
            env, sys, algo.max_steps, rng, target_nodes=target_nodes, cutoff=cutoff, seed=seed
        )
    return _planner.qrrt_plan(
        env,
        sys,
        algo.n,
        algo.mode,
        algo.max_steps,
        rng,
        schedule=algo.schedule,
        target_nodes=target_nodes,
        cutoff=cutoff,
        seed=seed,
    )


@dataclass(frozen=True)
class HeatmapSpec:
    """Grid geometry for node-placement histograms (default 100 x 100)."""

    bounds: tuple[float, float, float, float]
    nx: int = 100
    ny: int = 100

    def __post_init__(self):
        b = self.bounds
        if not (b[2] > b[0] and b[3] > b[1]):
            raise ValueError(f"heatmap bounds must have positive area: {b}")
        if not (self.nx >= 1 and self.ny >= 1):
            raise ValueError("heatmap needs at least one cell per axis")


@dataclass(frozen=True)
class Heatmap:
    """counts[iy, ix] histogram over the HeatmapSpec grid; total mass is conserved."""

    spec: HeatmapSpec
    counts: np.ndarray  # (ny, nx) int64


def _bin_axis(values: np.ndarray, lo: float, hi: float, cells: int) -> np.ndarray:
    """Cell index per value; values exactly on an interior cell boundary go to
    the lower-index cell, and both outer boundaries are valid."""
    if np.any(values < lo) or np.any(values > hi):
        raise ValueError("node position outside heatmap bounds")
    scaled = (values - lo) * (cells / (hi - lo))
    idx = np.ceil(scaled).astype(np.int64) - 1
    return np.clip(idx, 0, cells - 1)


def accumulate_heatmap(records: list[TrialRecord], spec: HeatmapSpec) -> Heatmap:
    """Histogram every node placement of every record onto the grid."""
    counts = np.zeros((spec.ny, spec.nx), dtype=np.int64)
    positions = [pos for rec in records for pos in rec.node_positions]
    if positions:
        pts = np.asarray(positions, dtype=float)
        b = spec.bounds
        ix = _bin_axis(pts[:, 0], b[0], b[2], spec.nx)
        iy = _bin_axis(pts[:, 1], b[1], b[3], spec.ny)
        np.add.at(counts, (iy, ix), 1)
    return Heatmap(spec=spec, counts=counts)


def count_in_region(records: list[TrialRecord], region) -> int:
    """Total node placements inside the closed rectangle region."""
    r = np.asarray(region, dtype=float).reshape(4)
    total = 0
    for rec in records:
        for x, y in rec.node_positions:
            if r[0] <= x <= r[2] and r[1] <= y <= r[3]:
                total += 1
    return total


def oracle_efficiency(records: list[TrialRecord]) -> float:
    """Admitted nodes per oracle call, all three categories included."""
    calls = sum(rec.total_calls() for rec in records)
    nodes = sum(rec.nodes_admitted for rec in records)
    if calls == 0:
        raise ValueError("oracle efficiency undefined for zero calls")
    return nodes / calls


def slope_fit(points) -> tuple[float, float]:
    """Ordinary least squares (slope, intercept) for (x, y) pairs.

    Needs at least two distinct x values; two exact points reproduce the
    line through them.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] < 2:
        raise ValueError("slope fit needs at least two points")
    x = pts[:, 0]
    y = pts[:, 1]
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise ValueError("slope fit needs at least two distinct x values")
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    return slope, float(y.mean() - slope * xbar)


def edge_lengths(tree: _planner.Tree) -> np.ndarray:
    """Parent-to-node distance of every non-root node, in insertion order."""
    coords = tree.coords
    parents = np.asarray(tree.parents[1:], dtype=int)
    diffs = coords[1:] - coords[parents]
    return np.hypot(diffs[:, 0], diffs[:, 1])


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

# Record CSV column -> the TrialRecord field it holds, in column order.
_RECORD_CSV_FIELDS = {
    "algorithm": "algorithm",
    "seed": "seed",
    "calls_amp": "calls_amplification",
    "calls_final": "calls_finalizer",
    "calls_classical": "calls_classical",
    "nodes": "nodes_admitted",
    "duplicates": "duplicates_discarded",
    "wall_s": "wall_time_s",
}
RECORD_CSV_COLUMNS = tuple(_RECORD_CSV_FIELDS)


def records_to_csv_lines(records: list[TrialRecord]) -> list[str]:
    """The header, then a row a record: the algorithm label as is, every other field's repr."""
    fields = tuple(_RECORD_CSV_FIELDS.values())[1:]
    rows = [",".join([rec.algorithm, *(repr(getattr(rec, field)) for field in fields)]) for rec in records]
    return [",".join(RECORD_CSV_COLUMNS), *rows]


def write_records_csv(records: list[TrialRecord], path) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(records_to_csv_lines(records)) + "\n")


def write_heatmap_csv(heatmap: Heatmap, path) -> None:
    """Row-major counts, one grid row per line, iy = 0 (ymin edge) first."""
    with open(path, "w") as fh:
        for row in heatmap.counts:
            fh.write(",".join(str(v) for v in row.tolist()) + "\n")


def write_heatmap_pgm(heatmap: Heatmap, path) -> None:
    """Binary PGM (P5), counts scaled linearly so the max count maps to 255."""
    counts = heatmap.counts
    peak = int(counts.max())
    if peak == 0:
        gray = np.zeros_like(counts, dtype=np.uint8)
    else:
        gray = np.floor(counts * (255.0 / peak)).astype(np.uint8)
    header = f"P5\n{counts.shape[1]} {counts.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(gray.tobytes())
