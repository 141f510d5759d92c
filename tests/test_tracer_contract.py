"""The benchmark's tracer still sees every layer each planner runs through.

benchmark/tracer.py wraps package names from outside (``build_database``,
``tag_database``, ``reachable_batch``, the pool steps, ``Tree.nearest``...),
so a planner that reached a layer by another name would silently drop its
spans and counts. This runs one short trial of each algorithm under the
tracer, loaded by path and left unedited.
"""

import importlib.util
from pathlib import Path

import pytest

from qrrt import dynamics, metrics, parallel, planner
from qrrt.env import GeneratorSpec, generate_random_env

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"

POOL_STEPS = ("pqrrt_manager_step", "pqrrt_unshared_step", "prrt_manager_step")

# Spans each algorithm's trial must record, beyond the oracle's.
SPANS = {
    "rrt": ("planner.Tree.nearest",),
    "qrrt": ("planner.build_database", "planner.tag_database", "planner.Tree.nearest_batch"),
    "qda": ("planner.build_database_annealed", "planner.tag_database", "planner.Tree.nearest_batch"),
    "prrt": ("parallel.prrt_manager_step", "planner.Tree.nearest"),
    "pqrrt-shared": ("parallel.pqrrt_manager_step", "planner.build_database", "planner.tag_database"),
    "pqrrt-unshared": ("parallel.pqrrt_unshared_step", "planner.build_database", "planner.tag_database"),
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def world():
    spec = GeneratorSpec(bounds=(0.0, 0.0, 20.0, 20.0), obstacle_count=45, size_range=(1.5, 3.0), delta=0.4)
    return generate_random_env(spec, 3)


def _config(name):
    mode = metrics.ALGORITHM_TABLE[name].pool_mode
    pool = None if mode is None else parallel.WorkerPool(p=4, mode=mode, seed_base=11)
    schedule = planner.TemperatureSchedule(stages=((16, 2.7, 4.2), (32, 0.8, 2.0))) if name == "qda" else None
    return metrics.AlgorithmConfig(name=name, n=6, schedule=schedule, pool=pool, max_steps=200)


@pytest.mark.parametrize("name", metrics.ALGORITHMS)
def test_tracer_sees_every_layer_of_each_planner(world, name):
    originals = (planner.build_database, parallel.tag_database, planner.reachable_batch, planner.Tree.nearest)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        result = metrics.run_trial(_config(name), world, dynamics.default_system(), 11, target_nodes=4)
    finally:
        tracer.remove()
    assert (planner.build_database, parallel.tag_database, planner.reachable_batch, planner.Tree.nearest) == originals
    totals, counts = tracer.totals(), tracer.counts
    calls = {span: entry["calls"] for span, entry in totals.items() if not span.startswith("_")}
    assert result.record.nodes_admitted >= 1
    assert calls["metrics.run_trial"] == 1
    for span in ("dynamics.reachable_batch", *SPANS[name]):
        assert calls.get(span, 0) > 0, span
    assert counts["dynamics.reachable_batch.rows"] > 0
    steps = {step for step in POOL_STEPS if f"parallel.{step}" in calls}
    assert steps == {span.split(".")[1] for span in SPANS[name] if span.startswith("parallel.")}
    if steps:
        assert counts["parallel.admitted"] == result.record.nodes_admitted
        assert counts["parallel.admitted"] + counts["parallel.duplicates"] > 0
    if "planner.build_database" in SPANS[name]:
        assert counts["planner.build_database.rows"] > 0
    if "planner.tag_database" in SPANS[name]:
        assert counts["planner.tag_database.rows"] == 2**6 * len(result.record.per_step_m)
