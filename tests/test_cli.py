"""End-to-end command line coverage: every subcommand, exit codes, artifacts, config layering."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qrrt
from qrrt import cli, env as envmod, prob
from qrrt.cli import ANALYZE_COLUMNS, _family_z, main
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


def plan_args(env_path, out, algo, *extra):
    return ["plan", "--algo", algo, "--env", str(env_path), "--seed", "1", "--out", str(out), "--p", "2", *extra]


@pytest.mark.parametrize("algo", ["qrrt", "qda", "pqrrt-shared", "pqrrt-unshared"])
@pytest.mark.parametrize("n", ["0", "-1", "21"])
def test_plan_rejects_database_exponent_out_of_range(tmp_path, capsys, algo, n):
    env_path = gen_env(tmp_path)
    out = tmp_path / "out"
    assert main(plan_args(env_path, out, algo, "--n", n)) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("algo", ["rrt", "qrrt", "qda", "prrt", "pqrrt-shared", "pqrrt-unshared"])
def test_plan_rejects_zero_max_steps(tmp_path, capsys, algo):
    env_path = gen_env(tmp_path)
    assert main(plan_args(env_path, tmp_path / "out", algo, "--n", "4", "--max-steps", "0")) == 1
    err = capsys.readouterr().err
    assert "max_steps" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--target-nodes", "--cutoff"])
def test_plan_rejects_negative_budgets(tmp_path, capsys, flag):
    env_path = gen_env(tmp_path)
    out = tmp_path / "out"
    assert main(plan_args(env_path, out, "qrrt", "--n", "4", flag, "-1")) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "value,message",
    [
        ("1000000000000", "fixed iteration count must be <= 1000000, got 1000000000000"),
        ("1000001", "fixed iteration count must be <= 1000000, got 1000001"),
        ("-1", "fixed iteration count must be >= 0, got -1"),
        ("fast", "--iterations must be 'optimal' or a non-negative integer, got 'fast'"),
    ],
)
def test_plan_rejects_iteration_counts_out_of_range(tmp_path, capsys, value, message):
    env_path = gen_env(tmp_path)
    out = tmp_path / "out"
    assert main(plan_args(env_path, out, "qrrt", "--n", "4", "--max-steps", "1", "--iterations", value)) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_plan_accepts_the_largest_benchmarked_iteration_count(tmp_path):
    env_path = gen_env(tmp_path)
    assert main(plan_args(env_path, tmp_path / "out", "qrrt", "--n", "8", "--max-steps", "1", "--iterations", "402")) == 0


def test_plan_zero_target_nodes_stays_valid(tmp_path):
    env_path = gen_env(tmp_path)
    out = tmp_path / "out"
    assert main(plan_args(env_path, out, "qrrt", "--n", "4", "--target-nodes", "0")) == 0
    assert len(json.loads((out / "tree.json").read_text())["nodes"]) == 1


def test_plan_rejects_a_horizon_above_the_cap(tmp_path, capsys):
    env_path = gen_env(tmp_path)
    config = json.loads((CONFIGS_DIR / "system_default.json").read_text())
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps({**config, "horizon": 1_000_000_000}))
    out = tmp_path / "out"
    assert main(plan_args(env_path, out, "qrrt", "--n", "4", "--max-steps", "1", "--sys", str(sys_path))) == 1
    err = capsys.readouterr().err
    assert "horizon must be in [1, 1000], got 1000000000" in err and "Traceback" not in err
    assert not out.exists()


def test_plan_rejects_env_and_system_files_that_are_not_objects(tmp_path, capsys):
    env_path = gen_env(tmp_path)
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]\n")
    assert main(plan_args(listed, tmp_path / "a", "rrt")) == 1
    assert main(plan_args(env_path, tmp_path / "b", "rrt", "--sys", str(listed))) == 1
    err = capsys.readouterr().err
    assert err.count("must hold a JSON object") == 2 and "Traceback" not in err


def test_plan_rejects_env_and_system_values_of_the_wrong_type(tmp_path, capsys):
    env_path = gen_env(tmp_path)
    good_env = json.loads(env_path.read_text())
    good_sys = json.loads((Path(__file__).parent.parent / "configs" / "system_default.json").read_text())
    cases = [("env", {"delta": None}), ("env", {"delta": [1]}), ("env", {"x0": {"a": 1}}), ("env", {"seed": None})]
    cases += [("sys", {"horizon": None}), ("sys", {"K": {"x": 1}})]
    # Each would otherwise load as horizon 2 or 1, radius 1.0, seed 2 or 1, or delta 1.0.
    cases += [("sys", {"horizon": 2.7}), ("sys", {"horizon": True}), ("sys", {"capture_radius": True})]
    cases += [("env", {"seed": 2.9}), ("env", {"seed": True}), ("env", {"delta": True})]
    for i, (kind, change) in enumerate(cases):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps({**(good_env if kind == "env" else good_sys), **change}))
        files = (bad, ()) if kind == "env" else (env_path, ("--sys", str(bad)))
        out = tmp_path / f"out{i}"
        assert main(plan_args(files[0], out, "rrt", *files[1])) == 1, change
        err = capsys.readouterr().err
        assert f"bad {'environment' if kind == 'env' else 'system'} file" in err and "Traceback" not in err, err
        assert not out.exists()


def test_plan_rejects_bounds_whose_span_overflows(tmp_path, capsys):
    env_path = gen_env(tmp_path)
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({**json.loads(env_path.read_text()), "bounds": [-1e308, -1e308, 1e308, 1e308]}))
    out = tmp_path / "out"
    assert main(plan_args(wide, out, "qrrt", "--n", "4", "--max-steps", "1")) == 1
    err = capsys.readouterr().err
    assert "finite width and height" in err and "Traceback" not in err, err
    assert not out.exists()


def test_gen_env_rejects_ranges_that_overflow(tmp_path, capsys):
    # Placement draws uniforms over the bounds and the size range.
    out = tmp_path / "env.json"
    argv = ["gen-env", "--seed", "1", "--out", str(out), "--obstacles", "3"]
    for flags in (["--bounds", " -1e308", " -1e308", "1e308", "1e308"], ["--size-range", "0.5", "inf"]):
        assert main([*argv, *flags]) == 1, flags
        err = capsys.readouterr().err
        assert "environment generation failed" in err and "Traceback" not in err, err
    assert not out.exists()


def test_gen_env_rejects_an_infinite_delta(tmp_path, capsys):
    # json would write the radius as Infinity, which is not standard JSON.
    out = tmp_path / "env.json"
    for delta in ("inf", "nan"):
        assert main(["gen-env", "--seed", "1", "--out", str(out), "--obstacles", "3", "--delta", delta]) == 1, delta
        err = capsys.readouterr().err
        assert "delta must be positive and finite" in err and "Traceback" not in err, err
    assert not out.exists()


def test_plan_rejects_infinite_delta_and_capture_radius_files(tmp_path, capsys):
    env_path = gen_env(tmp_path)
    bad_env = tmp_path / "bad_env.json"
    bad_env.write_text(json.dumps({**json.loads(env_path.read_text()), "delta": math.inf}))
    config = json.loads((CONFIGS_DIR / "system_default.json").read_text())
    bad_sys = tmp_path / "bad_sys.json"
    bad_sys.write_text(json.dumps({**config, "capture_radius": math.inf}))
    for i, (files, message) in enumerate(
        [((bad_env,), "bad environment file"), ((env_path, "--sys", str(bad_sys)), "bad system file")]
    ):
        out = tmp_path / f"out{i}"
        assert main(plan_args(files[0], out, "qrrt", "--n", "4", "--max-steps", "5", *files[1:])) == 1
        err = capsys.readouterr().err
        assert message in err and "positive and finite" in err and "Traceback" not in err, err
        assert not out.exists()


def test_plan_rejects_infinite_schedule_radii(tmp_path, capsys):
    env_path = gen_env(tmp_path)
    for schedule in ("1:1:inf", "4:1:2,1:inf:inf", "1:1:nan"):
        out = tmp_path / "out"
        assert main(plan_args(env_path, out, "qda", "--n", "4", "--max-steps", "1", "--schedule", schedule)) == 1, schedule
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err, err
        assert not out.exists()


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
    for flag, value in (
        ("--sigma-tolerance", "0"),
        ("--sigma-tolerance", "-1"),
        ("--sigma-tolerance", "31"),
        ("--sigma-tolerance", "nan"),
        ("--expectation-tolerance", "-0.01"),
        ("--expectation-tolerance", "nan"),
    ):
        rc = main(["analyze", "--seed", "1", "--out", str(tmp_path / "x.csv"), flag, value])
        assert rc == 1, (flag, value)


def test_analyze_rejects_cover_episodes_above_cap(tmp_path, capsys, monkeypatch):
    # Coverage state takes about 75 bytes an episode, so 10^8 episodes would
    # need about 7 GB; the grid must be refused before any row runs.
    def must_not_run(*args):
        raise AssertionError("analyze ran a row past the --cover-episodes cap")

    monkeypatch.setattr(cli, "_analyze_row", must_not_run)
    out = tmp_path / "x.csv"
    for value in ("1000001", "100000000"):
        rc = main(["analyze", "--seed", "1", "--out", str(out), "--cover-episodes", value])
        assert rc == 1, value
        assert "--cover-episodes must be <= 1000000" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cover_episodes": 10**8}))
    assert main(["--config", str(cfg), "analyze", "--seed", "1", "--out", str(out)]) == 1
    assert "--cover-episodes must be <= 1000000" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_rejects_trials_above_cap(tmp_path, capsys, monkeypatch):
    # 10^12 trials would draw for days; the grid must be refused before any row runs.
    def must_not_run(*args):
        raise AssertionError("analyze ran a row past the --trials cap")

    monkeypatch.setattr(cli, "_analyze_row", must_not_run)
    out = tmp_path / "x.csv"
    for value in ("10000001", "1000000000000"):
        rc = main(["analyze", "--seed", "1", "--out", str(out), "--trials", value, "--cover-episodes", "10"])
        assert rc == 1, value
        assert "--trials must be <= 10000000" in capsys.readouterr().err
    assert not out.exists()


def test_gen_env_rejects_obstacle_count_out_of_range(tmp_path, capsys, monkeypatch):
    # A negative count used to write an empty world and 10^11 never finished:
    # the spec must be refused before generation starts.
    def must_not_run(*args):
        raise AssertionError("gen-env generated a world past the obstacle bound")

    monkeypatch.setattr(envmod, "generate_random_env", must_not_run)
    out = tmp_path / "e.json"
    for value in ("-1", "100001", "100000000000"):
        assert main(["gen-env", "--seed", "1", "--out", str(out), "--obstacles", value]) == 1, value
        err = capsys.readouterr().err
        assert "obstacle_count must be in [0, 100000]" in err and "Traceback" not in err
    assert not out.exists()


def test_plan_rejects_pool_width_above_cap(tmp_path, capsys, monkeypatch):
    # p = 10^11 used to stall building one seed sequence per worker: the pool
    # must be refused before any per-worker state exists.
    env_path = gen_env(tmp_path)

    def must_not_run(*args):
        raise AssertionError("built per-worker state past the pool width bound")

    monkeypatch.setattr(cli.parallel, "worker_rngs", must_not_run)
    out = tmp_path / "out"
    for algo in ("prrt", "pqrrt-shared", "pqrrt-unshared"):
        argv = ["plan", "--algo", algo, "--env", str(env_path), "--seed", "1", "--out", str(out)]
        assert main([*argv, "--n", "4", "--p", "100000000000"]) == 1, algo
        err = capsys.readouterr().err
        assert "bad pool config: pool width p must be in [1, 1024]" in err and "Traceback" not in err
    assert not out.exists()


def test_family_z_is_sidak_per_row_bound():
    # 14 sigma-gated rows held together to the two-sided 3-sigma rate of 0.27%.
    assert _family_z(3.0, 14) == pytest.approx(3.728, abs=5e-4)
    alpha = math.erfc(3.0 / math.sqrt(2.0))
    per_row = math.erfc(_family_z(3.0, 14) / math.sqrt(2.0))
    assert 1.0 - (1.0 - per_row) ** 14 == pytest.approx(alpha, rel=1e-9)
    for t in (0.5, 3.0, 30.0):
        assert _family_z(t, 1) == pytest.approx(t, rel=1e-12)


@pytest.mark.parametrize("seed", [2, 8])
def test_analyze_passes_correct_code_at_default_sizes(tmp_path, seed):
    # Gated row by row at 3 sigma, these seeds each raised one false alarm.
    assert main(["analyze", "--seed", str(seed), "--out", str(tmp_path / "a.csv")]) == 0


def test_analyze_injected_error_fails_at_every_seed(tmp_path):
    for seed in range(10):
        rc = main(["analyze", "--seed", str(seed), "--out", str(tmp_path / "a.csv"), "--inject-error"])
        assert rc == 3, seed


def test_analyze_catches_one_planted_closed_form(tmp_path, capsys, monkeypatch):
    exact = prob.prob_all_same

    def planted(model):
        value = exact(model)
        return 1.02 * value if (model.n, model.m, model.p) == (4, 4, 2) else value

    monkeypatch.setattr(prob, "prob_all_same", planted)
    assert main(["analyze", "--seed", "0", "--out", str(tmp_path / "a.csv")]) == 3
    failures = [line for line in capsys.readouterr().err.splitlines() if "tolerance failure" in line]
    assert len(failures) == 1
    assert "L1 n=4 m=4 p=2 " in failures[0]


def test_analyze_deterministic(tmp_path):
    rc1, a = run_analyze(tmp_path, "a.csv")
    rc2, b = run_analyze(tmp_path, "b.csv")
    assert rc1 == rc2 == 0
    assert a.read_text() == b.read_text()


# ---------------------------------------------------------------------------
# Input faults shared by every subcommand: seeds, output paths, fuzzed flags
# ---------------------------------------------------------------------------


def _negative_seed_argv(command, env_path, out):
    plan = ["plan", "--env", str(env_path), "--out", str(out), "--target-nodes", "2"]
    return {
        "plan": [*plan, "--algo", "rrt", "--seed", "-1"],
        "plan-pool-seed-base": [*plan, "--algo", "prrt", "--seed", "1", "--pool-seed-base", "-1"],
        "plan-pool-seeds": [*plan, "--algo", "prrt", "--seed", "1", "--p", "2", "--pool-seeds", "1,-2"],
        "analyze": ["analyze", "--seed", "-1", "--out", str(out / "x.csv")],
        "bench": ["bench", "slopes", "--seed-base", "-3", "--out", str(out)],
        "gen-env": ["gen-env", "--seed", "-2", "--out", str(out / "e.json")],
    }[command]


@pytest.mark.parametrize(
    "command", ["plan", "plan-pool-seed-base", "plan-pool-seeds", "analyze", "bench", "gen-env"]
)
def test_negative_seed_is_config_error(tmp_path, capsys, command):
    env_path = gen_env(tmp_path)
    out = tmp_path / "out"
    rc = main(_negative_seed_argv(command, env_path, out))
    assert rc == 1
    err = capsys.readouterr().err
    assert "must be a non-negative integer" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_negative_seed_from_config_is_config_error(tmp_path, capsys):
    env_path = gen_env(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pool_seed_base": -1}))
    out = tmp_path / "out"
    argv = ["--config", str(cfg), "plan", "--algo", "prrt", "--env", str(env_path), "--seed", "1"]
    rc = main([*argv, "--out", str(out), "--target-nodes", "2"])
    assert rc == 1
    assert "--pool-seed-base must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_output_directories_are_created(tmp_path):
    nested = tmp_path / "missing" / "deeper"
    env_path = gen_env(tmp_path, name="missing/deeper/env.json")
    assert env_path.exists()
    rc, out = run_analyze(tmp_path, "missing/deeper/analysis.csv")
    assert rc == 0 and out.exists()
    plan = ["plan", "--algo", "qrrt", "--env", str(env_path), "--seed", "1", "--n", "4", "--target-nodes", "2"]
    rc = main([*plan, "--out", str(nested / "plan"), "--dump-amplitudes", str(nested / "amps" / "a.csv")])
    assert rc == 0
    assert (nested / "plan" / "tree.json").exists() and (nested / "amps" / "a.csv").exists()
    rc = main(["bench", "annealing", "--seed-base", "7", "--out", str(nested / "bench"), "--trees", "1"])
    assert rc == 0 and (nested / "bench").is_dir()


_FUZZ_INTS = ("-1", "abc", "1.5", "", "0x10")
_FUZZ_FLOATS = ("-1", "abc", "nan", "-inf", "")
_ANALYZE_FUZZ = {
    "--seed": _FUZZ_INTS,
    "--trials": _FUZZ_INTS,
    "--cover-episodes": _FUZZ_INTS,
    "--sigma-tolerance": _FUZZ_FLOATS,
    "--expectation-tolerance": _FUZZ_FLOATS,
}


def test_analyze_fuzzed_flags_are_config_errors(tmp_path, capsys):
    out = tmp_path / "a.csv"
    for flag, values in _ANALYZE_FUZZ.items():
        for value in values:
            argv = ["analyze", "--seed", "1", "--out", str(out), "--trials", "3000", "--cover-episodes", "4000"]
            rc = main([*argv, flag, value])
            err = capsys.readouterr().err
            assert rc == 1, (flag, value, err)
            assert "Traceback" not in err, (flag, value)
    assert not out.exists()


@pytest.mark.parametrize("recipe", ["slopes", "heatmap", "corridor", "annealing"])
def test_bench_fuzzed_flags_are_config_errors(tmp_path, capsys, recipe):
    out = tmp_path / "bench"
    flags = ("--seed-base", "--trials", "--cutoff", "--envs", "--target-nodes", "--trees", "--n")
    for flag in flags:
        for value in _FUZZ_INTS:
            rc = main(["bench", recipe, "--seed-base", "1", "--out", str(out), flag, value])
            err = capsys.readouterr().err
            assert rc == 1, (flag, value, err)
            assert "Traceback" not in err, (flag, value)
    assert not out.exists()


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


def test_config_values_go_through_the_flag_converters(tmp_path, capsys):
    # Config values are parser defaults, which argparse never runs through a
    # flag's type: a float pool width used to reach range() (exit 2) and a
    # float obstacle count used to be rounded up into a world (exit 0).
    env_path = gen_env(tmp_path)
    out = tmp_path / "out"
    plan = ["plan", "--algo", "prrt", "--env", str(env_path), "--seed", "1", "--out", str(out), "--target-nodes", "2"]
    world = tmp_path / "world.json"
    cases = [
        ({"p": 2.5}, plan),
        ({"obstacles": 2.5}, ["gen-env", "--seed", "1", "--out", str(world)]),
        ({"obstacles": "many"}, ["gen-env", "--seed", "1", "--out", str(world)]),
        ({"obstacles": True}, ["gen-env", "--seed", "1", "--out", str(world)]),
        ({"bounds": [0, 0, 10]}, ["gen-env", "--seed", "1", "--out", str(world)]),
        ({"delta": [0.5]}, ["gen-env", "--seed", "1", "--out", str(world)]),
        ({"trials": "3e3"}, ["analyze", "--seed", "1", "--out", str(tmp_path / "a.csv")]),
        ({"trials": None}, ["analyze", "--seed", "1", "--out", str(tmp_path / "a.csv")]),
        ({"delta": None}, ["gen-env", "--seed", "1", "--out", str(world)]),
        ({"schedule": None}, plan),
    ]
    for cfg_values, argv in cases:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_values))
        rc = main(["--config", str(cfg), *argv])
        err = capsys.readouterr().err
        (key,) = cfg_values
        assert rc == 1, (cfg_values, err)
        assert f"config key '{key}'" in err and "Traceback" not in err, (cfg_values, err)
    assert not out.exists() and not world.exists() and not (tmp_path / "a.csv").exists()


def test_config_values_of_the_right_type_are_accepted(tmp_path):
    # Whole numbers for float flags, lists for nargs flags, strings a flag
    # would parse and null for flags that default to None all still work.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bounds": [0, 0, 10, 10], "obstacles": "6", "size_range": [0.5, 1.5], "delta": 1, "x0": None}))
    by_config = tmp_path / "by_config.json"
    assert main(["--config", str(cfg), "gen-env", "--seed", "3", "--out", str(by_config)]) == 0
    by_flags = gen_env(tmp_path, name="by_flags.json", extra=("--delta", "1"))
    assert by_config.read_text() == by_flags.read_text()


def test_config_null_keeps_bench_recipe_defaults(tmp_path, capsys):
    # analyze --trials and plan --n default to numbers, so null is refused
    # there; bench's own --trials and --n default to None, and null there
    # leaves the recipe's default, as if the key were absent.
    cases = [
        ({"trials": None}, ["heatmap", "--seed-base", "77", "--cutoff", "1", "--n", "5"]),
        ({"n": None}, ["slopes", "--seed-base", "1234", "--envs", "1", "--target-nodes", "2"]),
    ]
    cfg = tmp_path / "cfg.json"
    for i, (cfg_values, argv) in enumerate(cases):
        cfg.write_text(json.dumps(cfg_values))
        assert main(["--config", str(cfg), "bench", *argv, "--out", str(tmp_path / f"cfg{i}")]) == 0, cfg_values
        by_config = capsys.readouterr().out
        assert main(["bench", *argv, "--out", str(tmp_path / f"flags{i}")]) == 0
        assert by_config == capsys.readouterr().out != ""


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


_BAD_BENCH_OVERRIDES = [
    ("heatmap", "--n", "0", "database exponent in [1, 20]"),
    ("heatmap", "--n", "21", "database exponent in [1, 20]"),
    ("heatmap", "--trials", "0", "--trials must be >= 1"),
    ("heatmap", "--cutoff", "-1", "--cutoff must be >= 1"),
    ("corridor", "--cutoff", "0", "--cutoff must be >= 1"),
    ("slopes", "--envs", "0", "--envs must be >= 1"),
    ("slopes", "--target-nodes", "1", "--target-nodes must be >= 2"),
    ("annealing", "--trees", "0", "--trees must be >= 1"),
    ("annealing", "--target-nodes", "-1", "--target-nodes must be >= 0"),
    ("slopes", "--trials", "3", "--trials does not apply to bench slopes"),
    ("heatmap", "--envs", "2", "--envs does not apply to bench heatmap"),
    ("corridor", "--trees", "1", "--trees does not apply to bench corridor"),
    ("annealing", "--cutoff", "5", "--cutoff does not apply to bench annealing"),
]


@pytest.mark.parametrize(
    "recipe,flag,value,message",
    _BAD_BENCH_OVERRIDES,
    ids=[f"{recipe}{flag}={value}" for recipe, flag, value, _ in _BAD_BENCH_OVERRIDES],
)
def test_bench_rejects_out_of_range_overrides(tmp_path, capsys, recipe, flag, value, message):
    out = tmp_path / "bench"
    rc = main(["bench", recipe, "--seed-base", "1", "--out", str(out), flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name,overrides", [("corridor", {"cutoff": 0}), ("slopes", {"trials": 3}), ("annealing", {"n": 21})])
def test_bench_recipe_functions_check_their_overrides(tmp_path, name, overrides):
    # A direct call gets the bench subcommand's override check, before any output.
    out = tmp_path / name
    with pytest.raises(ValueError):
        getattr(cli, f"bench_{name}")(str(out), 1, **overrides)
    assert not out.exists()


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
