"""End-to-end command line coverage: every subcommand, exit codes, artifacts, config layering."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qrrt
from qrrt import env as envmod
from qrrt.cli import ANALYZE_COLUMNS, main
from qrrt.metrics import RECORD_CSV_COLUMNS

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


def gen_env(tmp_path, name="env.json", seed="3", extra=()):
    path = tmp_path / name
    rc = main(
        [
            "gen-env",
            "--seed",
            seed,
            "--out",
            str(path),
            "--bounds",
            "0",
            "0",
            "10",
            "10",
            "--obstacles",
            "6",
            "--size-range",
            "0.5",
            "1.5",
            "--delta",
            "0.5",
            *extra,
        ]
    )
    assert rc == 0
    return path


def read_csv(path):
    rows = Path(path).read_text().strip().split("\n")
    return [r.split(",") for r in rows]


def strip_wall_time(path):
    rows = read_csv(path)
    return [r[:-1] for r in rows]


def test_module_entry_point_runs_without_warnings():
    # Running the cli module as __main__ must not find it already imported
    # by the package, which makes runpy warn on every run.
    src = str(Path(qrrt.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "qrrt.cli", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "analyze" in done.stdout


# ---------------------------------------------------------------------------
# gen-env
# ---------------------------------------------------------------------------


def test_gen_env_writes_loadable_file(tmp_path):
    path = gen_env(tmp_path)
    environment = envmod.load_environment(path)
    assert environment.obstacles.shape == (6, 4)
    assert tuple(environment.bounds) == (0.0, 0.0, 10.0, 10.0)


def test_gen_env_corridor_and_endpoints(tmp_path):
    path = gen_env(
        tmp_path,
        name="corridor.json",
        extra=(
            "--corridor-width",
            "1.5",
            "--corridor-thickness",
            "1.0",
            "--x0",
            "1",
            "5",
            "--xg",
            "9",
            "5",
        ),
    )
    environment = envmod.load_environment(path)
    assert environment.obstacles.shape[0] == 8  # six scattered plus two wall pieces
    assert tuple(environment.x0) == (1.0, 5.0)
    assert tuple(environment.xG) == (9.0, 5.0)
    assert envmod.point_free(environment, environment.x0)
    assert envmod.point_free(environment, environment.xG)


def test_gen_env_deterministic(tmp_path):
    a = gen_env(tmp_path, name="a.json", seed="11")
    b = gen_env(tmp_path, name="b.json", seed="11")
    assert a.read_text() == b.read_text()


def test_gen_env_impossible_spec_is_config_error(tmp_path, capsys):
    rc = main(
        [
            "gen-env",
            "--seed",
            "1",
            "--out",
            str(tmp_path / "bad.json"),
            "--bounds",
            "0",
            "0",
            "2",
            "2",
            "--obstacles",
            "4",
            "--size-range",
            "5",
            "6",  # obstacles larger than the world
        ]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def test_plan_all_algorithms_produce_artifacts(tmp_path):
    env_path = gen_env(tmp_path)
    for algo in ("rrt", "qrrt", "qda", "prrt", "pqrrt-shared", "pqrrt-unshared"):
        out = tmp_path / f"run-{algo}"
        rc = main(
            [
                "plan",
                "--algo",
                algo,
                "--env",
                str(env_path),
                "--seed",
                "7",
                "--out",
                str(out),
                "--n",
                "5",
                "--p",
                "4",
                "--target-nodes",
                "3",
                "--max-steps",
                "500",
            ]
        )
        assert rc == 0, algo
        assert (out / "tree.json").exists()
        assert (out / "path.json").exists()
        rows = read_csv(out / "record.csv")
        assert rows[0] == list(RECORD_CSV_COLUMNS)
        assert rows[1][0] == algo
        tree = json.loads((out / "tree.json").read_text())
        assert len(tree["nodes"]) == len(tree["parents"])
        assert tree["parents"][0] is None
        path_payload = json.loads((out / "path.json").read_text())
        assert isinstance(path_payload["indices"], list)
        assert isinstance(path_payload["points"], list)


def test_plan_deterministic_modulo_wall_time(tmp_path):
    env_path = gen_env(tmp_path)
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = main(
            [
                "plan",
                "--algo",
                "qrrt",
                "--env",
                str(env_path),
                "--seed",
                "21",
                "--out",
                str(out),
                "--n",
                "6",
                "--target-nodes",
                "5",
            ]
        )
        assert rc == 0
        outs.append(out)
    assert (outs[0] / "tree.json").read_text() == (outs[1] / "tree.json").read_text()
    assert (outs[0] / "path.json").read_text() == (outs[1] / "path.json").read_text()
    assert strip_wall_time(outs[0] / "record.csv") == strip_wall_time(outs[1] / "record.csv")


def test_plan_missing_env_is_config_error(tmp_path, capsys):
    rc = main(
        [
            "plan",
            "--algo",
            "rrt",
            "--env",
            str(tmp_path / "nope.json"),
            "--seed",
            "1",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_plan_unstable_system_rejected(tmp_path, capsys):
    env_path = gen_env(tmp_path)
    rc = main(
        [
            "plan",
            "--algo",
            "rrt",
            "--env",
            str(env_path),
            "--sys",
            str(CONFIGS_DIR / "system_unstable_example.json"),
            "--seed",
            "1",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "spectral radius" in capsys.readouterr().err


def test_plan_blocked_output_path_is_io_error(tmp_path):
    env_path = gen_env(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    rc = main(
        [
            "plan",
            "--algo",
            "rrt",
            "--env",
            str(env_path),
            "--seed",
            "1",
            "--out",
            str(blocker / "sub"),
            "--target-nodes",
            "2",
        ]
    )
    assert rc == 2


def test_plan_amplitude_dump(tmp_path):
    env_path = gen_env(tmp_path)
    dump = tmp_path / "amps.csv"
    rc = main(
        [
            "plan",
            "--algo",
            "qrrt",
            "--env",
            str(env_path),
            "--seed",
            "5",
            "--out",
            str(tmp_path / "out"),
            "--n",
            "6",
            "--target-nodes",
            "2",
            "--dump-amplitudes",
            str(dump),
        ]
    )
    assert rc == 0
    rows = read_csv(dump)
    assert rows[0] == ["index", "x", "y", "parent_index", "good", "amplitude"]
    assert len(rows) == 1 + 2**6
    amps = [float(r[5]) for r in rows[1:]]
    good = [int(r[4]) for r in rows[1:]]
    assert set(good) <= {0, 1}
    assert math.fsum(a * a for a in amps) == pytest.approx(1.0, abs=1e-10)
    # Uniform-then-amplified states are two-level: one amplitude per tag value.
    good_amps = {round(a, 12) for a, g in zip(amps, good) if g == 1}
    bad_amps = {round(a, 12) for a, g in zip(amps, good) if g == 0}
    assert len(good_amps) <= 1
    assert len(bad_amps) <= 1


def test_plan_rejects_amplitude_dump_for_classical(tmp_path, capsys):
    env_path = gen_env(tmp_path)
    rc = main(
        [
            "plan",
            "--algo",
            "rrt",
            "--env",
            str(env_path),
            "--seed",
            "5",
            "--out",
            str(tmp_path / "out"),
            "--dump-amplitudes",
            str(tmp_path / "amps.csv"),
        ]
    )
    assert rc == 1
    assert "dump-amplitudes" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def run_analyze(tmp_path, out_name, *extra):
    out = tmp_path / out_name
    rc = main(
        [
            "analyze",
            "--seed",
            "5",
            "--out",
            str(out),
            "--trials",
            "3000",
            "--cover-episodes",
            "4000",
            *extra,
        ]
    )
    return rc, out


def test_analyze_grid_and_csv(tmp_path, capsys):
    rc, out = run_analyze(tmp_path, "analysis.csv")
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == list(ANALYZE_COLUMNS)
    assert len(rows) == 1 + 18
    lemma_ids = {r[6] for r in rows[1:]}
    assert lemma_ids == {"L1", "L2", "L3", "L4", "L5", "L6"}
    for r in rows[1:]:
        closed, mc, err, sigma = float(r[7]), float(r[8]), float(r[9]), float(r[10])
        assert err == pytest.approx(abs(closed - mc), rel=1e-12, abs=1e-15)
        assert sigma > 0
    assert "18 rows, 0 outside tolerance" in capsys.readouterr().out


def test_analyze_injected_error_flags_failures(tmp_path, capsys):
    rc, _ = run_analyze(tmp_path, "broken.csv", "--inject-error")
    assert rc == 3
    assert "tolerance failure" in capsys.readouterr().err


def test_analyze_validates_parameters(tmp_path):
    rc = main(["analyze", "--seed", "1", "--out", str(tmp_path / "x.csv"), "--trials", "0"])
    assert rc == 1
    rc = main(
        ["analyze", "--seed", "1", "--out", str(tmp_path / "x.csv"), "--cover-episodes", "0"]
    )
    assert rc == 1


def test_analyze_deterministic(tmp_path):
    rc1, a = run_analyze(tmp_path, "a.csv")
    rc2, b = run_analyze(tmp_path, "b.csv")
    assert rc1 == rc2 == 0
    assert a.read_text() == b.read_text()


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_config_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 3000, "cover_episodes": 4000}))
    _, flags_out = run_analyze(tmp_path, "flags.csv")
    cfg_out = tmp_path / "from_cfg.csv"
    rc = main(
        ["--config", str(cfg), "analyze", "--seed", "5", "--out", str(cfg_out)]
    )
    assert rc == 0
    assert cfg_out.read_text() == flags_out.read_text()


def test_explicit_flag_beats_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 500}))
    _, flags_out = run_analyze(tmp_path, "flags.csv")
    over_out = tmp_path / "override.csv"
    rc = main(
        [
            "--config",
            str(cfg),
            "analyze",
            "--seed",
            "5",
            "--out",
            str(over_out),
            "--trials",
            "3000",
            "--cover-episodes",
            "4000",
        ]
    )
    assert rc == 0
    assert over_out.read_text() == flags_out.read_text()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"warp_speed": 9}))
    rc = main(["--config", str(cfg), "analyze", "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_malformed_and_missing_config_rejected(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["--config", str(broken), "analyze", "--seed", "1", "--out", "x.csv"]) == 1
    assert main(["--config", str(tmp_path / "gone.json"), "analyze", "--seed", "1", "--out", "x.csv"]) == 1
    assert main(["analyze", "--seed", "1", "--out", "x.csv", "--config"]) == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_slopes_tiny(tmp_path, capsys):
    out = tmp_path / "slopes"
    rc = main(
        [
            "bench",
            "slopes",
            "--seed-base",
            "1234",
            "--out",
            str(out),
            "--envs",
            "2",
            "--target-nodes",
            "4",
            "--n",
            "5",
        ]
    )
    assert rc == 0
    for name in ("slope_points.csv", "slopes.csv", "runs.csv"):
        assert (out / name).exists(), name
    printed = capsys.readouterr().out
    assert "slope" in printed
    slope_rows = read_csv(out / "slopes.csv")
    assert {r[0] for r in slope_rows[1:]} == {"rrt", "qrrt", "pqrrt-shared", "prrt"}


def test_bench_heatmap_tiny(tmp_path):
    out = tmp_path / "heatmap"
    rc = main(
        [
            "bench",
            "heatmap",
            "--seed-base",
            "77",
            "--out",
            str(out),
            "--trials",
            "3",
            "--cutoff",
            "5",
            "--n",
            "5",
        ]
    )
    assert rc == 0
    for name in ("heatmap_rrt.csv", "heatmap_qrrt.csv", "summary.csv"):
        assert (out / name).exists(), name
    for name in ("heatmap_rrt.pgm", "heatmap_qrrt.pgm"):
        blob = (out / name).read_bytes()
        assert blob.startswith(b"P5\n100 100\n255\n")
        assert len(blob) == len(b"P5\n100 100\n255\n") + 100 * 100


def test_bench_corridor_tiny(tmp_path):
    out = tmp_path / "corridor"
    rc = main(
        [
            "bench",
            "corridor",
            "--seed-base",
            "55",
            "--out",
            str(out),
            "--trials",
            "2",
            "--cutoff",
            "10",
            "--n",
            "5",
        ]
    )
    assert rc == 0
    rows = read_csv(out / "corridor.csv")
    assert {r[0] for r in rows[1:]} == {"rrt", "qrrt"}


def test_bench_annealing_tiny(tmp_path):
    out = tmp_path / "annealing"
    rc = main(
        [
            "bench",
            "annealing",
            "--seed-base",
            "7",
            "--out",
            str(out),
            "--trees",
            "1",
            "--target-nodes",
            "4",
            "--n",
            "5",
        ]
    )
    assert rc == 0
    rows = read_csv(out / "annealing.csv")
    assert {r[0] for r in rows[1:]} == {"qda", "qrrt"}


def test_bench_annealing_tree_without_edges(tmp_path):
    out = tmp_path / "annealing"
    rc = main(
        ["bench", "annealing", "--seed-base", "7", "--out", str(out), "--trees", "1", "--target-nodes", "0"]
    )
    assert rc == 0
    rows = read_csv(out / "annealing.csv")
    assert rows[0] == ["algorithm", "seed", "nodes", "mean_edge", "min_edge", "max_edge"]
    for row in rows[1:]:
        assert row[2] == "0"
        assert row[3:] == ["nan", "nan", "nan"]


def test_bench_deterministic(tmp_path):
    outs = []
    for name in ("h1", "h2"):
        out = tmp_path / name
        rc = main(
            [
                "bench",
                "heatmap",
                "--seed-base",
                "9",
                "--out",
                str(out),
                "--trials",
                "2",
                "--cutoff",
                "4",
                "--n",
                "5",
            ]
        )
        assert rc == 0
        outs.append(out)
    assert (outs[0] / "heatmap_qrrt.pgm").read_bytes() == (outs[1] / "heatmap_qrrt.pgm").read_bytes()
    assert (outs[0] / "heatmap_rrt.csv").read_text() == (outs[1] / "heatmap_rrt.csv").read_text()
