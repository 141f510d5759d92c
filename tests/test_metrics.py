"""Trial harness, histograms, fits, exports and the chi-square threshold helper."""

import numpy as np
import pytest

from qrrt.env import Environment
from qrrt.metrics import (
    ALGORITHMS,
    AlgorithmConfig,
    Heatmap,
    HeatmapSpec,
    RECORD_CSV_COLUMNS,
    accumulate_heatmap,
    count_in_region,
    cutoff_run,
    edge_lengths,
    mean_edge_length,
    oracle_efficiency,
    records_to_csv_lines,
    run_trial,
    slope_fit,
    wilson_hilferty_chi2_quantile,
    write_heatmap_csv,
    write_heatmap_pgm,
    write_records_csv,
)
from qrrt.parallel import WorkerPool
from qrrt.planner import TemperatureSchedule, Tree
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


def test_cutoff_run_validates_budget(free_env, system):
    with pytest.raises(ValueError):
        cutoff_run(AlgorithmConfig(name="rrt"), free_env, system, 0, seed=1)


def test_cutoff_run_classical_exhausts_exactly(sealed_root_env, system):
    rec = cutoff_run(AlgorithmConfig(name="rrt"), sealed_root_env, system, 12, seed=4)
    assert rec.calls_classical == 12  # one call per step, nothing ever admitted
    assert rec.nodes_admitted == 0
    assert rec.cutoff_calls() == 12


def test_cutoff_run_prefix_monotone(box_env, system):
    cfg = AlgorithmConfig(name="qrrt", n=6)
    small = cutoff_run(cfg, box_env, system, 10, seed=9)
    large = cutoff_run(cfg, box_env, system, 20, seed=9)
    assert large.nodes_admitted >= small.nodes_admitted
    assert large.cutoff_calls() >= small.cutoff_calls()


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
    tree = Tree((0.0, 0.0))
    tree.add((2.0, 0.0), 0)
    assert mean_edge_length(tree) == pytest.approx(2.0, abs=1e-12)
    tree.add((2.0, 3.0), 1)
    assert mean_edge_length(tree) == pytest.approx(2.5, abs=1e-12)
    assert edge_lengths(tree).tolist() == [2.0, 3.0]


def test_mean_edge_length_requires_edges():
    assert edge_lengths(Tree((0.0, 0.0))).shape == (0,)
    with pytest.raises(ValueError):
        mean_edge_length(Tree((0.0, 0.0)))


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
