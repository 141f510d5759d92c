"""Trial harness, histograms, fits, exports and the chi-square threshold helper."""

import numpy as np
import pytest
from conftest import wilson_hilferty_chi2_quantile

from qrrt.env import Environment
from qrrt.metrics import (
    ALGORITHMS,
    AlgorithmConfig,
    Heatmap,
    HeatmapSpec,
    RECORD_CSV_COLUMNS,
    accumulate_heatmap,
    count_in_region,
    edge_lengths,
    oracle_efficiency,
    records_to_csv_lines,
    run_trial,
    slope_fit,
    write_heatmap_csv,
    write_heatmap_pgm,
    write_records_csv,
)
from qrrt.parallel import WorkerPool
from qrrt.planner import TemperatureSchedule, Tree, resolve_iterations
from qrrt.qsim import MAX_DATABASE_QUBITS
from qrrt.records import TrialRecord


def rec_with_nodes(points, algorithm="rrt", seed=0):
    rec = TrialRecord(algorithm=algorithm, seed=seed)
    for p in points:
        rec.log_admission(np.asarray(p, dtype=float))
    return rec


@pytest.fixture
def sealed_root_env():
    return Environment(
        bounds=(0, 0, 10, 10),
        obstacles=(
            (0.9, 0.9, 1.1, 0.95),
            (0.9, 0.9, 0.95, 1.1),
            (0.9, 1.05, 1.1, 1.1),
            (1.05, 0.9, 1.1, 1.1),
        ),
        x0=(1.0, 1.0),
        xG=(9.0, 9.0),
        delta=0.5,
    )


# ---------------------------------------------------------------------------
# Algorithm configuration and dispatch
# ---------------------------------------------------------------------------


def test_algorithm_roster():
    assert ALGORITHMS == ("rrt", "qrrt", "qda", "prrt", "pqrrt-shared", "pqrrt-unshared")


def test_algorithm_config_validation():
    with pytest.raises(ValueError):
        AlgorithmConfig(name="dijkstra")
    with pytest.raises(ValueError):
        AlgorithmConfig(name="qda")  # schedule missing
    with pytest.raises(ValueError):
        AlgorithmConfig(name="prrt")  # pool missing
    with pytest.raises(ValueError):
        AlgorithmConfig(name="prrt", pool=WorkerPool(p=2, mode="shared", seed_base=1))
    with pytest.raises(ValueError):
        AlgorithmConfig(name="pqrrt-shared", pool=WorkerPool(p=2, mode="classical", seed_base=1))


@pytest.mark.parametrize("n", [0, -1, MAX_DATABASE_QUBITS + 1])
def test_algorithm_config_bounds_amplified_exponent(n):
    sched = TemperatureSchedule(stages=((8, 1.0, 2.0),))
    with pytest.raises(ValueError, match="database exponent"):
        AlgorithmConfig(name="qrrt", n=n)
    with pytest.raises(ValueError, match="database exponent"):
        AlgorithmConfig(name="qda", n=n, schedule=sched)
    for mode, name in (("shared", "pqrrt-shared"), ("unshared", "pqrrt-unshared")):
        with pytest.raises(ValueError, match="database exponent"):
            AlgorithmConfig(name=name, n=n, pool=WorkerPool(p=2, mode=mode, seed_base=1))
    # Classical variants never build a database, so n does not bind them.
    AlgorithmConfig(name="rrt", n=n)
    AlgorithmConfig(name="prrt", n=n, pool=WorkerPool(p=2, mode="classical", seed_base=1))


def test_algorithm_config_bounds_a_fixed_iteration_count():
    # qsim.amplify runs k scalar steps, so an unbounded k would run for days.
    with pytest.raises(ValueError, match="fixed iteration count must be <= 1000000"):
        AlgorithmConfig(name="qrrt", mode=10**12)
    with pytest.raises(ValueError, match="fixed iteration count must be >= 0"):
        AlgorithmConfig(name="qrrt", mode=-1)
    with pytest.raises(ValueError, match="'optimal' or a fixed iteration count"):
        AlgorithmConfig(name="qrrt", mode="fastest")
    # The largest pooled-search k, the optimal k at n = 20 and the cap itself.
    for k in (0, 402, 804, 10**6, np.int64(3)):
        assert AlgorithmConfig(name="qrrt", n=20, mode=k).mode == k


def test_algorithm_config_needs_a_step():
    with pytest.raises(ValueError, match="max_steps"):
        AlgorithmConfig(name="rrt", max_steps=0)
    AlgorithmConfig(name="qrrt", n=MAX_DATABASE_QUBITS, max_steps=1)


def test_run_trial_dispatches_every_algorithm(box_env, system):
    sched = TemperatureSchedule(stages=((8, 1.0, 2.0),))
    configs = [
        AlgorithmConfig(name="rrt"),
        AlgorithmConfig(name="qrrt", n=5),
        AlgorithmConfig(name="qda", n=5, schedule=sched),
        AlgorithmConfig(name="prrt", pool=WorkerPool(p=2, mode="classical", seed_base=3)),
        AlgorithmConfig(name="pqrrt-shared", n=5, pool=WorkerPool(p=2, mode="shared", seed_base=3)),
        AlgorithmConfig(
            name="pqrrt-unshared", n=5, pool=WorkerPool(p=2, mode="unshared", seed_base=3)
        ),
    ]
    for cfg in configs:
        result = run_trial(cfg, box_env, system, seed=17, target_nodes=2)
        assert result.record.algorithm == cfg.name
        assert result.record.seed == 17
        assert result.record.nodes_admitted >= 2 or result.goal_found


def test_run_trial_deterministic_per_seed(box_env, system):
    cfg = AlgorithmConfig(name="qrrt", n=6)
    a = run_trial(cfg, box_env, system, seed=5, target_nodes=4)
    b = run_trial(cfg, box_env, system, seed=5, target_nodes=4)
    np.testing.assert_array_equal(a.tree.coords, b.tree.coords)
    assert a.record.total_calls() == b.record.total_calls()


# ---------------------------------------------------------------------------
# Cutoff runs
# ---------------------------------------------------------------------------


def test_cutoff_run_classical_exhausts_exactly(sealed_root_env, system):
    rec = run_trial(AlgorithmConfig(name="rrt"), sealed_root_env, system, 4, cutoff=12).record
    assert rec.calls_classical == 12  # one call per step, nothing ever admitted
    assert rec.nodes_admitted == 0
    assert rec.cutoff_calls() == 12


def test_cutoff_run_prefix_monotone(box_env, system):
    cfg = AlgorithmConfig(name="qrrt", n=6)
    small = run_trial(cfg, box_env, system, 9, cutoff=10).record
    large = run_trial(cfg, box_env, system, 9, cutoff=20).record
    assert large.nodes_admitted >= small.nodes_admitted
    assert large.cutoff_calls() >= small.cutoff_calls()


def _every_algorithm(mode="optimal", n=5, p=3, seed_base=3):
    sched = TemperatureSchedule(stages=((8, 1.0, 2.0),))
    return [
        AlgorithmConfig(name="rrt"),
        AlgorithmConfig(name="qrrt", n=n, mode=mode),
        AlgorithmConfig(name="qda", n=n, mode=mode, schedule=sched),
        AlgorithmConfig(name="prrt", pool=WorkerPool(p=p, mode="classical", seed_base=seed_base)),
        AlgorithmConfig(
            name="pqrrt-shared", n=n, mode=mode, pool=WorkerPool(p=p, mode="shared", seed_base=seed_base)
        ),
        AlgorithmConfig(
            name="pqrrt-unshared", n=n, mode=mode, pool=WorkerPool(p=p, mode="unshared", seed_base=seed_base)
        ),
    ]


def _last_step_cutoff_cost(cfg, rec):
    """Cutoff-counted calls of a run's last step (a bound for prrt's retries)."""
    if cfg.name == "rrt":
        return 1
    if cfg.name == "prrt":
        return cfg.pool.p * cfg.pool.per_worker_budget
    ms = rec.per_step_m[-cfg.pool.p :] if cfg.name == "pqrrt-unshared" else rec.per_step_m[-1:]
    cost = sum(resolve_iterations(cfg.mode, cfg.n, m) for m in ms)
    return cost * cfg.pool.p if cfg.name == "pqrrt-shared" else cost


def _check_record_invariants(rec):
    assert rec.total_calls() == rec.calls_amplification + rec.calls_finalizer + rec.calls_classical
    assert len(rec.calls_at_admission) == rec.nodes_admitted
    assert all(a <= b for a, b in zip(rec.calls_at_admission, rec.calls_at_admission[1:]))
    if rec.calls_at_admission:
        assert 1 <= rec.calls_at_admission[0] and rec.calls_at_admission[-1] <= rec.total_calls()


@pytest.mark.parametrize("mode,seed", [("optimal", 17), ("optimal", 18), (3, 19), (3, 20)])
def test_record_invariants_hold_for_every_algorithm(box_env, system, mode, seed):
    # At n = 5 the optimal k is 1 on this world; a fixed k = 3 makes a pooled
    # step cost 9 cutoff-counted calls, so a cutoff can be overshot.
    for cfg in _every_algorithm(mode):
        _check_record_invariants(run_trial(cfg, box_env, system, seed=seed, target_nodes=6).record)
        for cutoff in (5, 40):
            result = run_trial(cfg, box_env, system, seed=seed, cutoff=cutoff)
            rec = result.record
            _check_record_invariants(rec)
            # The run stops at the first step that reaches the budget, so it
            # overshoots by less than that step's own cost.
            assert rec.cutoff_calls() - _last_step_cutoff_cost(cfg, rec) < cutoff, cfg.name
            assert result.goal_found or rec.cutoff_calls() >= cutoff, cfg.name


# ---------------------------------------------------------------------------
# Heatmaps
# ---------------------------------------------------------------------------


def test_heatmap_spec_validation():
    with pytest.raises(ValueError):
        HeatmapSpec(bounds=(0, 0, 0, 10))
    with pytest.raises(ValueError):
        HeatmapSpec(bounds=(0, 0, 10, 10), nx=0)


def test_heatmap_bins_boundaries_to_lower_cell():
    spec = HeatmapSpec(bounds=(0, 0, 10, 10), nx=10, ny=10)
    hm = accumulate_heatmap(
        [
            rec_with_nodes(
                [
                    (1.0, 5.0),  # interior x boundary: lower cell 0
                    (1.0 + 1e-9, 5.0),  # just past it: cell 1
                    (0.0, 0.0),  # outer lower corner stays valid
                    (10.0, 10.0),  # outer upper corner stays valid
                ]
            )
        ],
        spec,
    )
    assert hm.counts[4, 0] == 1
    assert hm.counts[4, 1] == 1
    assert hm.counts[0, 0] == 1
    assert hm.counts[9, 9] == 1


def test_heatmap_center_cell():
    spec = HeatmapSpec(bounds=(0, 0, 10, 10))
    hm = accumulate_heatmap([rec_with_nodes([(5.0, 5.0)])], spec)
    assert hm.counts[49, 49] == 1
    assert hm.counts.sum() == 1


def test_heatmap_conserves_mass(rng):
    pts = rng.uniform(0.0, 10.0, size=(500, 2))
    recs = [rec_with_nodes(pts[:250]), rec_with_nodes(pts[250:])]
    hm = accumulate_heatmap(recs, HeatmapSpec(bounds=(0, 0, 10, 10), nx=7, ny=13))
    assert hm.counts.shape == (13, 7)
    assert hm.counts.sum() == 500


def test_heatmap_rejects_outside_points():
    spec = HeatmapSpec(bounds=(0, 0, 10, 10))
    with pytest.raises(ValueError):
        accumulate_heatmap([rec_with_nodes([(10.1, 5.0)])], spec)


def test_heatmap_empty_records():
    hm = accumulate_heatmap([], HeatmapSpec(bounds=(0, 0, 1, 1), nx=3, ny=3))
    assert hm.counts.sum() == 0


def test_count_in_region_closed_rectangle():
    recs = [rec_with_nodes([(1.0, 1.0), (2.0, 2.0), (2.0, 3.0), (5.0, 5.0)])]
    assert count_in_region(recs, (2.0, 2.0, 5.0, 5.0)) == 3  # boundary points count
    assert count_in_region(recs, (0.0, 0.0, 10.0, 10.0)) == 4
    assert count_in_region(recs, (8.0, 8.0, 9.0, 9.0)) == 0


# ---------------------------------------------------------------------------
# Efficiency and fits
# ---------------------------------------------------------------------------


def test_oracle_efficiency_unit_case():
    rec = rec_with_nodes([(1.0, 1.0)])
    rec.calls_classical = 1
    assert oracle_efficiency([rec]) == 1.0


def test_oracle_efficiency_zero_nodes():
    rec = TrialRecord(algorithm="rrt", seed=0)
    rec.calls_classical = 10
    assert oracle_efficiency([rec]) == 0.0


def test_oracle_efficiency_rejects_zero_calls():
    with pytest.raises(ValueError):
        oracle_efficiency([TrialRecord(algorithm="rrt", seed=0)])


def test_oracle_efficiency_of_real_runs_is_a_rate(box_env, system):
    for name in ("rrt", "qrrt"):
        cfg = AlgorithmConfig(name=name, n=6)
        rec = run_trial(cfg, box_env, system, seed=3, target_nodes=5).record
        eff = oracle_efficiency([rec])
        assert 0.0 < eff <= 1.0  # every admission costs at least one call


def test_slope_fit_exact_line():
    slope, intercept = slope_fit([(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)])
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(1.0, abs=1e-12)


def test_slope_fit_two_points():
    slope, intercept = slope_fit([(1.0, 1.0), (3.0, 0.0)])
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert intercept == pytest.approx(1.5, abs=1e-12)


def test_slope_fit_matches_normal_equations(rng):
    pts = rng.normal(size=(40, 2)) * np.array([3.0, 5.0]) + np.array([1.0, -2.0])
    slope, intercept = slope_fit(pts)
    x, y = pts[:, 0], pts[:, 1]
    n = len(x)
    expect_slope = (n * np.sum(x * y) - x.sum() * y.sum()) / (n * np.sum(x * x) - x.sum() ** 2)
    assert slope == pytest.approx(expect_slope, rel=1e-10)
    assert intercept == pytest.approx((y.sum() - expect_slope * x.sum()) / n, rel=1e-10)


def test_slope_fit_validation():
    with pytest.raises(ValueError):
        slope_fit([(1.0, 2.0)])
    with pytest.raises(ValueError):
        slope_fit([(1.0, 2.0), (1.0, 3.0)])  # one distinct x


def test_mean_edge_length():
    # The mean the annealing recipe reports for each tree.
    tree = Tree((0.0, 0.0))
    tree.add((2.0, 0.0), 0)
    assert np.mean(edge_lengths(tree)) == pytest.approx(2.0, abs=1e-12)
    tree.add((2.0, 3.0), 1)
    assert np.mean(edge_lengths(tree)) == pytest.approx(2.5, abs=1e-12)
    assert edge_lengths(tree).tolist() == [2.0, 3.0]


def test_mean_edge_length_requires_edges():
    # A root-only tree has no edges to average; the annealing recipe writes nan.
    assert edge_lengths(Tree((0.0, 0.0))).shape == (0,)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def test_record_csv_header_and_row():
    assert RECORD_CSV_COLUMNS == (
        "algorithm",
        "seed",
        "calls_amp",
        "calls_final",
        "calls_classical",
        "nodes",
        "duplicates",
        "wall_s",
    )
    rec = rec_with_nodes([(1.0, 2.0)], algorithm="qrrt", seed=42)
    rec.calls_amplification = 3
    rec.calls_finalizer = 2
    rec.wall_time_s = 0.25
    lines = records_to_csv_lines([rec])
    assert lines[0] == ",".join(RECORD_CSV_COLUMNS)
    fields = lines[1].split(",")
    assert fields[0] == "qrrt"
    assert int(fields[1]) == 42
    assert int(fields[2]) == 3
    assert int(fields[3]) == 2
    assert int(fields[5]) == 1
    assert float(fields[7]) == 0.25


def test_write_records_csv_round_trip(tmp_path):
    recs = [rec_with_nodes([(1.0, 1.0)], seed=s) for s in (1, 2)]
    path = tmp_path / "records.csv"
    write_records_csv(recs, path)
    text = path.read_text()
    assert text.endswith("\n")
    rows = text.strip().split("\n")
    assert len(rows) == 3
    assert rows[0].split(",") == list(RECORD_CSV_COLUMNS)
    assert [r.split(",")[1] for r in rows[1:]] == ["1", "2"]


def test_write_heatmap_csv(tmp_path):
    hm = Heatmap(
        spec=HeatmapSpec(bounds=(0, 0, 2, 2), nx=2, ny=2),
        counts=np.array([[1, 2], [3, 4]], dtype=np.int64),
    )
    path = tmp_path / "hm.csv"
    write_heatmap_csv(hm, path)
    assert path.read_text() == "1,2\n3,4\n"


def test_write_heatmap_pgm(tmp_path):
    hm = Heatmap(
        spec=HeatmapSpec(bounds=(0, 0, 2, 2), nx=2, ny=2),
        counts=np.array([[0, 1], [2, 4]], dtype=np.int64),
    )
    path = tmp_path / "hm.pgm"
    write_heatmap_pgm(hm, path)
    blob = path.read_bytes()
    header = b"P5\n2 2\n255\n"
    assert blob.startswith(header)
    body = blob[len(header):]
    assert len(body) == 4
    # Linear scaling: max count 4 -> 255, floor elsewhere.
    assert list(body) == [0, 63, 127, 255]


def test_write_heatmap_pgm_all_zero(tmp_path):
    hm = Heatmap(
        spec=HeatmapSpec(bounds=(0, 0, 2, 2), nx=3, ny=2),
        counts=np.zeros((2, 3), dtype=np.int64),
    )
    path = tmp_path / "zero.pgm"
    write_heatmap_pgm(hm, path)
    blob = path.read_bytes()
    assert blob == b"P5\n3 2\n255\n" + bytes(6)


def test_chi2_quantile_against_table():
    # Reference upper quantiles: 95% at z = 1.6449.
    assert wilson_hilferty_chi2_quantile(10, 1.6449) == pytest.approx(18.307, rel=0.01)
    assert wilson_hilferty_chi2_quantile(100, 1.6449) == pytest.approx(124.342, rel=0.01)
    # 99.9% at z = 3.0902.
    assert wilson_hilferty_chi2_quantile(255, 3.0902) == pytest.approx(330.5, rel=0.02)
    # z = 0 recovers the distribution median.
    assert wilson_hilferty_chi2_quantile(10, 0.0) == pytest.approx(9.342, rel=0.01)
