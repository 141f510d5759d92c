"""Tests of the benchmark's own checks and tracer.

Each check must pass on outputs of the package and fail on a planted fault.
Run from the repository root:

    python3 -m pytest benchmark/test_checks.py -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from qrrt import dynamics, env as envmod, metrics, planner, prob, qsim  # noqa: E402

import checks  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SYSTEM = dynamics.default_system()


@pytest.fixture(scope="module")
def world():
    spec = envmod.GeneratorSpec(**workloads.SLOPES_WORLD)
    return envmod.generate_random_env(spec, 3)


def _trial(world, name, n=6, p=4, seed=11, target=12):
    trial = workloads.Trial(name, n, p, target, 2000, seed)
    result = metrics.run_trial(trial.config(), world, SYSTEM, seed, target_nodes=target)
    return trial, result


def _wall_env():
    return SimpleNamespace(
        bounds=np.array([0.0, 0.0, 10.0, 10.0]),
        obstacles=np.array([[4.0, 0.0, 5.0, 10.0]]),
        x0=np.array([1.0, 5.0]),
        xG=np.array([9.0, 9.0]),
        delta=0.5,
    )


# ---------------------------------------------------------------------------
# trees and records
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["rrt", "qrrt", "qda", "prrt", "pqrrt-shared", "pqrrt-unshared"])
def test_package_trials_pass_every_check(world, name):
    trial, result = _trial(world, name)
    coords, parents = result.tree.coords, result.tree.parents
    assert checks.check_tree(world, SYSTEM, coords, parents) == []
    assert checks.check_record(result.record, len(coords), coords, name, trial.n, trial.p, None) == []
    if name == "qda":
        assert checks.check_band(coords, parents, world.xG, workloads.ANNEALING_SCHEDULE) == []


def test_fixed_iteration_count_accounting(world):
    rng = np.random.default_rng(5)
    result = planner.qrrt_plan(world, SYSTEM, 6, 2, 200, rng, target_nodes=6)
    coords = result.tree.coords
    assert checks.check_record(result.record, len(coords), coords, "qrrt", 6, 1, 2) == []
    assert checks.check_record(result.record, len(coords), coords, "qrrt", 6, 1, 3) != []


def test_node_inside_obstacle_fails(world):
    _, result = _trial(world, "qrrt")
    coords = result.tree.coords.copy()
    ob = world.obstacles[0]
    coords[1] = [(ob[0] + ob[2]) / 2, (ob[1] + ob[3]) / 2]
    assert any("not in free space" in p for p in checks.check_tree(world, SYSTEM, coords, result.tree.parents))


def test_node_on_obstacle_boundary_fails(world):
    _, result = _trial(world, "qrrt")
    coords = result.tree.coords.copy()
    ob = world.obstacles[0]
    coords[2] = [ob[0], (ob[1] + ob[3]) / 2]
    assert any("not in free space" in p for p in checks.check_tree(world, SYSTEM, coords, result.tree.parents))


def test_edge_through_wall_fails():
    env = _wall_env()
    problems = checks.check_tree(env, SYSTEM, [[1.0, 5.0], [8.0, 5.0]], [None, 0])
    assert any("obstacle interior" in p for p in problems)


def test_edge_beyond_horizon_fails():
    env = _wall_env()
    short = dynamics.default_system(horizon=2)
    problems = checks.check_tree(env, short, [[1.0, 5.0], [1.0, 9.0]], [None, 0])
    assert any("capture ball" in p for p in problems)
    assert checks.check_tree(env, SYSTEM, [[1.0, 5.0], [1.0, 9.0]], [None, 0]) == []


def test_bad_parent_and_duplicate_fail():
    env = _wall_env()
    assert any("earlier node" in p for p in checks.check_tree(env, SYSTEM, [[1.0, 5.0], [1.0, 9.0]], [None, 1]))
    dup = [[1.0, 5.0], [1.0, 9.0], [1.0, 9.0]]
    assert any("duplicate" in p for p in checks.check_tree(env, SYSTEM, dup, [None, 0, 0]))


def test_annealed_edge_outside_band_fails(world):
    _, result = _trial(world, "qda")
    coords = result.tree.coords.copy()
    parents = result.tree.parents
    i = next(j for j in range(1, len(coords)) if not np.array_equal(coords[j], world.xG))
    coords[i] = coords[parents[i]] + 1.2 * (coords[i] - coords[parents[i]])
    assert any("outside" in p for p in checks.check_band(coords, parents, world.xG, workloads.ANNEALING_SCHEDULE))


@pytest.mark.parametrize(
    "fault",
    [
        lambda rec: replace(rec, calls_amplification=rec.calls_amplification + 1),
        lambda rec: replace(rec, calls_finalizer=0),
        lambda rec: replace(rec, calls_at_admission=list(reversed(rec.calls_at_admission))),
        lambda rec: replace(rec, nodes_admitted=rec.nodes_admitted - 1),
        lambda rec: replace(rec, node_positions=rec.node_positions[::-1]),
        lambda rec: replace(rec, per_step_m=rec.per_step_m[:-1]),
    ],
)
def test_record_faults_fail(world, fault):
    trial, result = _trial(world, "pqrrt-shared")
    coords = result.tree.coords
    planted = fault(result.record)
    assert checks.check_record(planted, len(coords), coords, "pqrrt-shared", trial.n, trial.p, None) != []


def test_total_not_sum_of_parts_fails(world):
    trial, result = _trial(world, "qrrt")
    rec = result.record
    fake = SimpleNamespace(**vars(rec))
    fake.total_calls = lambda: rec.total_calls() + 1
    coords = result.tree.coords
    assert any("amp + final" in p for p in checks.check_record(fake, len(coords), coords, "qrrt", 6, 1, None))


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _sv_round(n, m, p, seed, measure_fn=qsim.measure):
    rng = np.random.default_rng(seed)
    mask = np.zeros(2**n, dtype=bool)
    mask[rng.choice(2**n, size=m, replace=False)] = True
    k = qsim.optimal_iterations(n, m)
    state = qsim.amplify(qsim.init_uniform(n, mask), k)
    indices = [measure_fn(state, rng) for _ in range(p)]
    return state, k, indices, [bool(mask[i]) for i in indices]


def test_statevector_state_checks():
    state, k, _, _ = _sv_round(10, 3, 2, 1)
    a = state.amplitudes
    good = float(a[state.good_mask] @ a[state.good_mask])
    assert checks.check_state(10, 3, k, state.oracle_calls, float(a @ a), good) == []
    assert checks.check_state(10, 3, k, state.oracle_calls, float(a @ a) * (1 + 1e-6), good) != []
    assert checks.check_state(10, 3, k, state.oracle_calls, float(a @ a), good - 1e-6) != []
    assert checks.check_state(10, 3, k + 1, state.oracle_calls, float(a @ a), good) != []
    short = qsim.amplify(qsim.init_uniform(10, state.good_mask), k - 1)
    b = short.amplitudes
    short_good = float(b[short.good_mask] @ b[short.good_mask])
    assert checks.check_state(10, 3, k, short.oracle_calls, float(b @ b), short_good) != []


def test_pool_draws_pass_and_catch_uniform_measurement():
    rounds, uniform = [], []

    def uniform_measure(state, rng):
        return int(rng.integers(0, state.amplitudes.shape[0]))

    for j, (n, m) in enumerate([(6, 1), (6, 4), (8, 2), (8, 16)] * 10):
        for p in (2, 8):
            _, k, idx, good = _sv_round(n, m, p, 100 * j + p)
            rounds.append((n, m, k, idx, good))
            _, k, idx, good = _sv_round(n, m, p, 100 * j + p, uniform_measure)
            uniform.append((n, m, k, idx, good))
    assert checks.check_pool_draws(rounds) == []
    assert checks.check_pool_draws(uniform) != []


@pytest.mark.parametrize("seed", [2, 8])
def test_monte_carlo_rows_pass(seed):
    for i, row in enumerate(checks.analyze_grid()):
        stats = workloads.PooledSearchWorkload.monte_carlo(row, 1000 * seed + i, 200_000, 20_000)
        assert checks.check_monte_carlo(row, stats) == []


def test_monte_carlo_faults_fail():
    """A count or mean ten standard errors off fails its row."""
    for i, row in enumerate(checks.analyze_grid()):
        stats = workloads.PooledSearchWorkload.monte_carlo(row, i, 200_000, 20_000)
        if row[0] in ("L3", "L6"):
            shift = 10 * stats.cover_episodes * stats.se_workers_to_cover()
            planted = replace(stats, cover_total_draws=int(stats.cover_total_draws + shift) + 1)
        elif row[0] == "L2":
            shift = 10 * stats.trials * stats.se_all_different()
            planted = replace(stats, count_all_different=int(stats.count_all_different + shift) + 10)
        else:
            shift = 10 * stats.trials * stats.se_all_same()
            planted = replace(stats, count_all_same=int(stats.count_all_same + shift) + 10)
        assert checks.check_monte_carlo(row, planted) != [], row


def test_closed_forms_agree_with_the_package():
    for n, m in [(4, 1), (8, 16), (12, 3), (18, 16)]:
        assert checks.optimal_k(n, m) == qsim.optimal_iterations(n, m)
        assert checks.good_mass(n, m, 7) == pytest.approx(qsim.good_probability(n, m, 7), abs=1e-12)
    model = prob.ParallelSearchModel(n=8, m=16, p=3, pG=0.9)
    assert checks.prob_all_same_good(16, 3, 0.9) == pytest.approx(prob.prob_all_same(model))
    assert checks.prob_all_distinct_good(16, 3, 0.9) == pytest.approx(prob.prob_all_different(model))
    mean, _ = checks.coverage_moments(16, 0.9)
    assert mean == pytest.approx(prob.expected_workers_all_solutions(model))


# ---------------------------------------------------------------------------
# tracer and benchmark definition
# ---------------------------------------------------------------------------


def test_tracer_counts_and_restores(world):
    originals = (dynamics.segments_free, planner.reachable_batch, planner.Tree.nearest_batch, qsim.amplify)
    tracer = Tracer()
    tracer.install()
    try:
        _, result = _trial(world, "pqrrt-shared")
    finally:
        tracer.remove()
    assert (dynamics.segments_free, planner.reachable_batch, planner.Tree.nearest_batch, qsim.amplify) == originals
    totals = tracer.totals()
    counts = tracer.counts
    steps = totals["parallel.pqrrt_manager_step"]["calls"]
    assert counts["planner.tag_database.rows"] == steps * 2**6
    assert counts["planner.tag_database.good"] == sum(result.record.per_step_m)
    assert totals["_horizon_steps"] == totals["env.segments_free"]["calls"]
    assert totals["qsim.measure"]["calls"] == 4 * steps
    assert totals["metrics.run_trial"]["s"] == pytest.approx(totals["_root_s"])
    for name, entry in totals.items():
        if not name.startswith("_"):
            assert 0 <= entry["self_s"] <= entry["s"] + 1e-9


def test_benchmark_json_lists_the_reported_figures():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_median_pass_per_operation():
    nan = float("nan")
    first = workloads.RoundResult(times={"env": [0.1], "trial": [1.0, 3.0, nan]})
    second = workloads.RoundResult(times={"env": [0.05], "trial": [2.0, nan, nan]})
    third = workloads.RoundResult(times={"env": [0.3], "trial": [9.0, 5.0, nan]})
    (times, _), = measure.typical([[first], [second], [third]])
    assert times["env"].tolist() == [0.1]
    assert times["trial"][:2].tolist() == [2.0, 4.0]
    assert np.isnan(times["trial"][2])


def test_changed_output_on_a_repeat_pass_fails():
    pooled = workloads.WORKLOADS["pooled-search"]
    same = [[workloads.RoundResult(outputs=[("mc", 1)])], [workloads.RoundResult(outputs=[("mc", 1)])]]
    changed = [same[0], [workloads.RoundResult(outputs=[("mc", 2)])]]
    assert measure.repeat_problems(pooled, same) == []
    assert measure.repeat_problems(pooled, changed) != []


def test_tail_percentile_needs_ten_operations_beyond_it():
    assert measure.tail_percentile(list(range(1, 101))) == pytest.approx(np.percentile(range(1, 101), 90))
    assert measure.tail_percentile([1.0, 2.0, 3.0, 100.0]) == pytest.approx(2.5)
    assert measure.tail_percentile(list(range(1, 51))) == pytest.approx(np.percentile(range(1, 51), 80))
    assert measure.tail_percentile(list(range(1, 31))) == pytest.approx(15.5)
