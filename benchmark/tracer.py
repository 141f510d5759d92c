"""Span tracer that wraps the package's public functions from outside.

The package imports several functions by name (``from .env import
segments_free`` and so on), so a function is wrapped at every name its
callers look it up by, not only where it is defined. Each call records a span
(name, start, end, parent) in memory; count hooks add work counts taken from
the call's arguments and result. Nothing inside the package changes, and
``Tracer.remove`` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import time
import tracemalloc
from collections import defaultdict

import numpy as np


def _rows(points) -> int:
    return int(np.size(points)) // 2


def _on_segments(counts, dur, result, env, a, b):
    rows = _rows(a)
    counts["env.segments_free.rows"] += rows
    counts["env.segments_free.pairs"] += rows * int(env.obstacles.shape[0])


def _on_points(counts, dur, result, env, points):
    counts["env.points_free.rows"] += _rows(points)


def _on_reachable(counts, dur, result, env, sys, parents, targets):
    rows = _rows(parents)
    counts["dynamics.reachable_batch.rows"] += rows
    if rows == 1:
        counts["dynamics.reachable_batch.single_row_calls"] += 1
        counts["dynamics.reachable_batch.single_row_s"] += dur


def _on_build(key):
    def hook(counts, dur, result, *args, **kwargs):
        counts[f"{key}.rows"] += int(result.points.shape[0])

    return hook


def _on_tag(counts, dur, result, env, sys, db):
    counts["planner.tag_database.rows"] += int(db.points.shape[0])
    counts["planner.tag_database.good"] += int(result.m)


def _on_nearest_batch(counts, dur, result, tree, points, *, peak_bytes):
    counts["planner.Tree.nearest_batch.pairs"] += _rows(points) * len(tree)
    key = "planner.Tree.nearest_batch.temp_mb_max"
    counts[key] = max(counts[key], peak_bytes / 2**20)


def _on_amplify(counts, dur, result, state, k):
    counts["qsim.amplify.iterations"] += int(k)
    counts["qsim.amplify.amplitude_updates"] += int(k) * int(state.amplitudes.shape[0])


def _on_measure(counts, dur, result, state, rng):
    counts["qsim.measure.amplitudes_scanned"] += int(state.amplitudes.shape[0])
    counts["qsim.measure.good"] += int(bool(state.good_mask[result]))


def _on_pool_step(counts, dur, result, *args, **kwargs):
    counts["parallel.duplicates"] += int(result.duplicates_discarded)
    counts["parallel.admitted"] += len(result.admitted_indices)


def _on_run_trial(counts, dur, result, algo, *args, **kwargs):
    counts[f"metrics.run_trial.{algo.name}.s"] += dur


def _on_monte_carlo(counts, dur, result, model, p=None, trials=100_000, *args, **kwargs):
    workers = model.p if p is None else int(p)
    counts["prob.draws"] += int(trials) * workers
    counts["prob.cover_draws"] += int(result.cover_total_draws)


class Tracer:
    """Spans and counts for every call through the wrapped names."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook, memory):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            if memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if hook is not None:
                if memory:
                    hook(counts, end - start, result, *args, peak_bytes=peak, **kwargs)
                else:
                    hook(counts, end - start, result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner, attr, name, hook=None, memory=False):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, hook, memory))

    def install(self):
        """Wrap the package's layer boundaries at every name they are called by."""
        from qrrt import dynamics, env, metrics, parallel, planner, prob, qsim

        for owner in (env, dynamics):
            self.patch(owner, "points_free", "env.points_free", _on_points)
            self.patch(owner, "segments_free", "env.segments_free", _on_segments)
        for owner in (dynamics, planner):
            self.patch(owner, "reachable_batch", "dynamics.reachable_batch", _on_reachable)
        for owner in (planner, parallel):
            self.patch(owner, "build_database", "planner.build_database", _on_build("planner.build_database"))
            self.patch(owner, "tag_database", "planner.tag_database", _on_tag)
        self.patch(
            planner,
            "build_database_annealed",
            "planner.build_database_annealed",
            _on_build("planner.build_database_annealed"),
        )
        self.patch(planner.Tree, "nearest_batch", "planner.Tree.nearest_batch", _on_nearest_batch, memory=True)
        self.patch(planner.Tree, "nearest", "planner.Tree.nearest")
        self.patch(qsim, "init_uniform", "qsim.init_uniform")
        self.patch(qsim, "amplify", "qsim.amplify", _on_amplify)
        self.patch(qsim, "measure", "qsim.measure", _on_measure)
        for step in ("pqrrt_manager_step", "pqrrt_unshared_step", "prrt_manager_step"):
            self.patch(parallel, step, f"parallel.{step}", _on_pool_step)
        self.patch(metrics, "run_trial", "metrics.run_trial", _on_run_trial)
        self.patch(prob, "monte_carlo_parallel_draws", "prob.monte_carlo_parallel_draws", _on_monte_carlo)

    def remove(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """Per span name: calls, inclusive and self seconds; plus cross-span facts.

        A span's self time is its duration minus the durations of its direct
        children. ``horizon_steps`` counts segment tests issued directly by
        a reachability call, one per simulated horizon step.
        """
        names = sorted({s[0] for s in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        name_id = np.fromiter((ids[s[0]] for s in self.spans), dtype=np.int64, count=len(self.spans))
        start = np.fromiter((s[1] for s in self.spans), dtype=float, count=len(self.spans))
        end = np.fromiter((s[2] for s in self.spans), dtype=float, count=len(self.spans))
        parent = np.fromiter((s[3] for s in self.spans), dtype=np.int64, count=len(self.spans))
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(self.spans))
        self_time = dur - child
        calls = np.bincount(name_id, minlength=len(names))
        inclusive = np.bincount(name_id, weights=dur, minlength=len(names))
        own = np.bincount(name_id, weights=self_time, minlength=len(names))
        out = {
            name: {"calls": int(calls[i]), "s": float(inclusive[i]), "self_s": float(own[i])}
            for name, i in ids.items()
        }
        horizon = 0
        if "env.segments_free" in ids and "dynamics.reachable_batch" in ids:
            seg = nested & (name_id == ids["env.segments_free"])
            horizon = int(np.count_nonzero(name_id[parent[seg]] == ids["dynamics.reachable_batch"]))
        out["_horizon_steps"] = horizon
        out["_root_s"] = float(dur[~nested].sum())
        return out

    def write(self, path) -> None:
        """Spans as gzip CSV: name, start and end in microseconds from the first span, parent row."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_us,end_us,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f},{parent}\n")
