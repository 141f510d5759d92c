"""Command-line shell: gen-env, plan, analyze, bench.

Exit codes: 0 success, 1 configuration error (bad flags, malformed files,
missing seeds), 2 runtime failure, 3 analyze tolerance violation.

Every command requires explicit seeds; none are ever invented. Every seed
(--seed, --seed-base, --pool-seed-base, --pool-seeds) must be a non-negative
integer, which numpy's SeedSequence needs; any other value exits 1. A JSON
file passed via --config supplies per-flag defaults (keys are flag
destination names, and each value must pass its flag's own conversion, so
{"p": 2.5} exits 1 as --p 2.5 does); explicit command-line flags always win.

Every command creates the directories its outputs need: plan and bench
write into the directory --out, analyze and gen-env write the file --out,
and --dump-amplitudes names a file. A path that cannot be written is a
runtime failure (exit 2).

bench runs one seeded recipe of the table BENCH_RECIPES. An override flag
the recipe does not read, or one below its minimum, exits 1 before the
recipe starts.

All outputs are plain CSV/JSON/PGM files written deterministically; the
wall-clock column of record CSVs is the only non-reproducible field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
import traceback
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from . import dynamics, env as envmod, metrics, parallel, planner, prob, qsim

__all__ = ["main", "ConfigError", "bench_slopes", "bench_heatmap", "bench_corridor", "bench_annealing"]


class ConfigError(ValueError):
    """User-facing configuration problem; reported on stderr, exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# Shared parsing helpers
# ---------------------------------------------------------------------------


def _parse_mode(text) -> object:
    if text == "optimal":
        return "optimal"
    try:
        return int(text)
    except (TypeError, ValueError):
        raise ConfigError(f"--iterations must be 'optimal' or a non-negative integer, got {text!r}")


def _parse_schedule(text: str) -> planner.TemperatureSchedule:
    """Stage syntax: 'duration:r_min:r_max' triples joined by commas."""
    stages = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ConfigError(f"bad schedule stage {part!r}, expected duration:r_min:r_max")
        try:
            stages.append((int(pieces[0]), float(pieces[1]), float(pieces[2])))
        except ValueError as exc:
            raise ConfigError(f"bad schedule stage {part!r}: {exc}")
    try:
        return planner.TemperatureSchedule.from_config(stages)
    except ValueError as exc:
        raise ConfigError(str(exc))


# Destination names of the seed flags across all subcommands.
_SEED_FLAGS = ("seed", "seed_base", "pool_seed_base")


def _check_seed(flag: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"{flag} must be a non-negative integer, got {value!r}")
    return value


def _check_seeds(args) -> None:
    """The one seed check of every subcommand, on flags and config values alike."""
    for dest in _SEED_FLAGS:
        if getattr(args, dest, None) is not None:
            _check_seed("--" + dest.replace("_", "-"), getattr(args, dest))


def _parse_seed_list(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad seed list {text!r}: {exc}")
    return tuple(_check_seed("--pool-seeds", s) for s in seeds)


def _load_env(path) -> envmod.Environment:
    if not os.path.exists(path):
        raise ConfigError(f"environment file not found: {path}")
    try:
        return envmod.load_environment(path)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad environment file {path}: {exc}")


def _load_system(path) -> dynamics.LinearSystem:
    if path is None:
        return dynamics.default_system()
    if not os.path.exists(path):
        raise ConfigError(f"system file not found: {path}")
    try:
        return dynamics.load_system(path)
    except dynamics.UnstableGainError:
        raise
    except (ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad system file {path}: {exc}")


def _file_output(path):
    """An output file's path, with its missing directories created."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return path


def _write_lines(path, lines) -> None:
    with open(_file_output(path), "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# gen-env
# ---------------------------------------------------------------------------


def _env_spec(params: dict) -> envmod.GeneratorSpec:
    """A world from gen-env flags or a bench recipe's parameters.

    A corridor_width that is not None adds the corridor; x0 and xG, when
    given, fix the endpoints.
    """
    corridor = None
    if params.get("corridor_width") is not None:
        corridor = envmod.CorridorSpec(width=params["corridor_width"], thickness=params["corridor_thickness"])
    x0, xG = params.get("x0"), params.get("xG")
    return envmod.GeneratorSpec(
        bounds=tuple(params["bounds"]),
        obstacle_count=params["obstacles"],
        size_range=tuple(params["size_range"]),
        delta=params["delta"],
        corridor=corridor,
        x0=None if x0 is None else tuple(x0),
        xG=None if xG is None else tuple(xG),
    )


def _cmd_gen_env(args) -> int:
    try:
        spec = _env_spec({**vars(args), "xG": args.xg})
        environment = envmod.generate_random_env(spec, args.seed)
    except (ValueError, envmod.EnvGenerationError) as exc:
        raise ConfigError(f"environment generation failed: {exc}")
    envmod.save_environment(environment, _file_output(args.out))
    print(f"wrote {args.out}: {environment.obstacles.shape[0]} obstacles, seed {args.seed}")
    return 0


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def _build_pool(args) -> parallel.WorkerPool:
    seeds = _parse_seed_list(args.pool_seeds) if args.pool_seeds else None
    seed_base = args.pool_seed_base
    if seed_base is None:
        # Deterministic derivation from the required run seed, not invention.
        seed_base = args.seed
    try:
        return parallel.WorkerPool(
            p=args.p,
            mode=metrics.ALGORITHM_TABLE[args.algo].pool_mode,
            seed_base=None if seeds is not None else seed_base,
            seeds=seeds,
            per_worker_budget=args.per_worker_budget,
            shared_amplification=args.shared_amplification,
        )
    except ValueError as exc:
        raise ConfigError(f"bad pool config: {exc}")


def _algo_config(args) -> metrics.AlgorithmConfig:
    mode = _parse_mode(args.iterations)
    schedule = _parse_schedule(args.schedule) if args.algo == "qda" else None
    pool = _build_pool(args) if metrics.ALGORITHM_TABLE[args.algo].pool_mode is not None else None
    try:
        return metrics.AlgorithmConfig(
            name=args.algo,
            n=args.n,
            mode=mode,
            schedule=schedule,
            pool=pool,
            max_steps=args.max_steps,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def _dump_first_step_amplitudes(args, environment, system, algo: metrics.AlgorithmConfig) -> None:
    """Reproduce the run's first database (same seed, fresh stream), amplify it
    and dump the amplitude table; the run itself is not perturbed. Only runs
    whose first database comes from the run's own stream have one to dump."""
    spec = metrics.ALGORITHM_TABLE[args.algo]
    if not spec.amplified or spec.pool_mode == "unshared":
        raise ConfigError(f"--dump-amplitudes is not available for algo {args.algo!r}")
    rng = np.random.default_rng(args.seed)
    db = planner._step_database(environment, system, planner.Tree(environment.x0), algo.n, rng, algo.schedule)
    state, _ = planner._amplified(db, algo.mode)
    rows = zip(db.points.tolist(), db.parent_index.tolist(), db.good_mask.tolist(), state.amplitudes.tolist())
    lines = [f"{i},{x!r},{y!r},{parent},{int(good)},{amp!r}" for i, ((x, y), parent, good, amp) in enumerate(rows)]
    _write_lines(args.dump_amplitudes, ["index,x,y,parent_index,good,amplitude", *lines])


def _cmd_plan(args) -> int:
    environment = _load_env(args.env)
    system = _load_system(args.sys)
    algo = _algo_config(args)
    for flag, budget in (("--target-nodes", args.target_nodes), ("--cutoff", args.cutoff)):
        if budget is not None and budget < 0:
            raise ConfigError(f"{flag} must be >= 0, got {budget}")
    os.makedirs(args.out, exist_ok=True)
    if args.dump_amplitudes:
        _dump_first_step_amplitudes(args, environment, system, algo)
    result = metrics.run_trial(
        algo,
        environment,
        system,
        args.seed,
        cutoff=args.cutoff,
        target_nodes=args.target_nodes,
    )
    tree = result.tree
    tree_payload = {
        "nodes": [[float(x), float(y)] for x, y in tree.coords],
        "parents": tree.parents,
        "goal_index": tree.goal_index,
    }
    path_payload = {
        "indices": planner.extract_path_indices(tree) if tree.goal_index is not None else [],
        "points": [[float(x), float(y)] for x, y in result.path],
    }
    _write_lines(os.path.join(args.out, "tree.json"), [json.dumps(tree_payload)])
    _write_lines(os.path.join(args.out, "path.json"), [json.dumps(path_payload)])
    metrics.write_records_csv([result.record], os.path.join(args.out, "record.csv"))
    rec = result.record
    print(
        f"{args.algo}: goal={'yes' if result.goal_found else 'no'} "
        f"nodes={rec.nodes_admitted} calls={rec.total_calls()} "
        f"(amp={rec.calls_amplification} final={rec.calls_finalizer} "
        f"classical={rec.calls_classical}) duplicates={rec.duplicates_discarded}"
    )
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

ANALYZE_COLUMNS = ("n", "m", "m1", "m2", "p", "pG", "lemma_id", "closed_form", "monte_carlo", "abs_err", "sigma")


@dataclass(frozen=True)
class _AnalyzeRow:
    lemma_id: str
    n: int
    m: int
    p: int | None
    pG: float
    m1: int | None = None
    m2: int | None = None


def _analyze_grid() -> list[_AnalyzeRow]:
    rows: list[_AnalyzeRow] = []
    for n, m in ((4, 4), (8, 16)):
        pg = qsim.good_probability(n, m, qsim.optimal_iterations(n, m))
        for p in (2, 3, 8):
            rows.append(_AnalyzeRow("L1", n, m, p, pg))
            if p <= m:
                rows.append(_AnalyzeRow("L2", n, m, p, pg))
    rows.append(_AnalyzeRow("L3", 4, 3, None, 1.0))
    rows.append(_AnalyzeRow("L3", 4, 2, None, 0.5))
    rows.append(_AnalyzeRow("L3", 8, 8, None, 0.9))
    noisy = (8, 16, 12, 8)
    rows.append(_AnalyzeRow("L4", noisy[0], noisy[1], None, 0.95, m1=noisy[2], m2=noisy[3]))
    for p in (2, 3):
        rows.append(_AnalyzeRow("L5", noisy[0], noisy[1], p, 0.95, m1=noisy[2], m2=noisy[3]))
    rows.append(_AnalyzeRow("L6", noisy[0], noisy[1], None, 0.8, m1=noisy[2], m2=noisy[3]))
    return rows


def _analyze_row(row: _AnalyzeRow, trials: int, cover_episodes: int, rng) -> tuple[float, float, float, bool]:
    """(closed_form, monte_carlo, sigma, is_expectation) for one grid row."""
    if row.lemma_id in ("L1", "L2"):
        model = prob.ParallelSearchModel(n=row.n, m=row.m, p=row.p, pG=row.pG)
        stats = prob.monte_carlo_parallel_draws(model, trials=trials, rng=rng, cover_episodes=0)
        if row.lemma_id == "L1":
            return prob.prob_all_same(model), stats.freq_all_same, stats.se_all_same(), False
        return prob.prob_all_different(model), stats.freq_all_different, stats.se_all_different(), False
    if row.lemma_id == "L3":
        model = prob.ParallelSearchModel(n=row.n, m=row.m, p=1, pG=row.pG)
        stats = prob.monte_carlo_parallel_draws(model, trials=1, rng=rng, cover_episodes=cover_episodes)
        return (
            prob.expected_workers_all_solutions(model),
            stats.mean_workers_to_cover,
            stats.se_workers_to_cover(),
            True,
        )
    noisy = prob.NoisyOracleModel(n=row.n, m=row.m, m1=row.m1, m2=row.m2)
    if row.lemma_id == "L4":
        stats = prob.monte_carlo_parallel_draws(noisy, p=1, trials=trials, rng=rng, pG=row.pG, cover_episodes=0)
        return prob.prob_true_good(noisy, row.pG), stats.freq_all_same, stats.se_all_same(), False
    if row.lemma_id == "L5":
        stats = prob.monte_carlo_parallel_draws(noisy, p=row.p, trials=trials, rng=rng, pG=row.pG, cover_episodes=0)
        return prob.prob_all_same_noisy(noisy, row.p, row.pG), stats.freq_all_same, stats.se_all_same(), False
    if row.lemma_id == "L6":
        stats = prob.monte_carlo_parallel_draws(noisy, p=1, trials=1, rng=rng, pG=row.pG, cover_episodes=cover_episodes)
        return (
            prob.expected_workers_noisy(noisy, row.pG),
            stats.mean_workers_to_cover,
            stats.se_workers_to_cover(),
            True,
        )
    raise AssertionError(f"unknown lemma id {row.lemma_id}")


# Past about t = 38 the tail 2 Phi(-t) underflows to zero and the per-test bound is undefined.
_MAX_SIGMA_TOLERANCE = 30.0

# Coverage state takes about 75 bytes an episode: 1,000,000 episodes peak at
# about 71 MiB, so larger values are refused rather than run toward gigabytes.
_MAX_COVER_EPISODES = 1_000_000

# A million trials take about 1.1 s over the whole grid (2-core x86-64 host),
# so the cap keeps a run near 12 s; 10^12 trials would run for days.
_MAX_TRIALS = 10_000_000


def _family_z(sigma_tolerance: float, tests: int) -> float:
    """Per-test z bound that holds `tests` two-sided tests to one family-wise error rate.

    The rate is that of a single test at sigma_tolerance standard errors,
    alpha = 2 (1 - Phi(t)); Sidak's correction gives each test the rate
    1 - (1 - alpha)^(1/tests), which holds the family at alpha for
    independent tests. Both tails are taken through erfc and log1p, so a
    large t keeps its precision.
    """
    alpha = math.erfc(sigma_tolerance / math.sqrt(2.0))
    per_test = -math.expm1(math.log1p(-alpha) / tests)
    return -NormalDist().inv_cdf(per_test / 2.0)


def _cmd_analyze(args) -> int:
    caps = (("--trials", args.trials, _MAX_TRIALS), ("--cover-episodes", args.cover_episodes, _MAX_COVER_EPISODES))
    for flag, value, cap in caps:
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
        if value > cap:
            raise ConfigError(f"{flag} must be <= {cap}, got {value}")
    if not (0.0 < args.sigma_tolerance <= _MAX_SIGMA_TOLERANCE):
        raise ConfigError(
            f"--sigma-tolerance must be in (0, {_MAX_SIGMA_TOLERANCE}], got {args.sigma_tolerance}"
        )
    if not (args.expectation_tolerance >= 0.0):
        raise ConfigError(f"--expectation-tolerance must be >= 0, got {args.expectation_tolerance}")
    rows = _analyze_grid()
    results = []
    for i, row in enumerate(rows):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed, spawn_key=(i,)))
        closed, mc, sigma, is_expectation = _analyze_row(row, args.trials, args.cover_episodes, rng)
        if args.inject_error:
            closed *= 1.02
        results.append((row, closed, mc, sigma, is_expectation))
    # --sigma-tolerance sets the false-alarm rate of the whole grid, not of each row.
    z = _family_z(args.sigma_tolerance, sum(not is_expectation for *_, is_expectation in results))
    lines = [",".join(ANALYZE_COLUMNS)]
    failures = []
    for row, closed, mc, sigma, is_expectation in results:
        err = abs(closed - mc)
        if is_expectation:
            ok = err <= args.expectation_tolerance * closed
        else:
            ok = err <= z * sigma
        if not ok:
            failures.append((row, closed, mc, sigma))
        lines.append(
            ",".join(
                [
                    str(row.n),
                    str(row.m),
                    "" if row.m1 is None else str(row.m1),
                    "" if row.m2 is None else str(row.m2),
                    "" if row.p is None else str(row.p),
                    repr(row.pG),
                    row.lemma_id,
                    repr(closed),
                    repr(mc),
                    repr(err),
                    repr(sigma),
                ]
            )
        )
    _write_lines(args.out, lines)
    print(f"wrote {args.out}: {len(rows)} rows, {len(failures)} outside tolerance")
    if failures:
        for row, closed, mc, sigma in failures:
            print(
                f"tolerance failure: {row.lemma_id} n={row.n} m={row.m} p={row.p} "
                f"closed={closed!r} mc={mc!r} sigma={sigma!r}",
                file=_sys.stderr,
            )
        return 3
    return 0


# ---------------------------------------------------------------------------
# bench recipes
# ---------------------------------------------------------------------------

SLOPES_DEFAULTS = dict(
    envs=20,
    target_nodes=30,
    n=8,
    p=8,
    bounds=(0.0, 0.0, 20.0, 20.0),
    obstacles=45,
    size_range=(1.5, 3.0),
    delta=0.4,
    max_steps=5000,
)

HEATMAP_DEFAULTS = dict(
    trials=100,
    cutoff=10,
    n=8,
    bounds=(0.0, 0.0, 20.0, 20.0),
    obstacles=45,
    size_range=(1.5, 3.0),
    delta=0.4,
    grid=100,
)

CORRIDOR_DEFAULTS = dict(
    trials=50,
    cutoff=25,
    n=8,
    bounds=(0.0, 0.0, 12.0, 12.0),
    obstacles=34,
    size_range=(0.8, 1.6),
    delta=0.4,
    corridor_width=1.6,
    corridor_thickness=2.0,
    x0=(4.0, 6.0),
    xG=(10.5, 6.0),
)

ANNEALING_DEFAULTS = dict(
    trees=3,
    target_nodes=16,
    n=9,
    bounds=(0.0, 0.0, 30.0, 30.0),
    obstacles=2000,
    size_range=(0.15, 0.45),
    delta=0.3,
    schedule=((16, 2.7, 4.2), (32, 0.8, 2.0)),
    iterations=2,
    max_steps=4000,
)


def _bench_setup(name: str, out_dir, overrides: dict) -> tuple[dict, dynamics.LinearSystem]:
    """A recipe's parameters (its defaults, then the overrides) and the default
    system, with the output directory created.

    Overrides the recipe does not read or cannot run are refused first. n
    takes the bound on the database exponent, since every recipe runs an
    amplified planner.
    """
    recipe = BENCH_RECIPES[name]
    for key, value in overrides.items():
        flag = "--" + key.replace("_", "-")
        if key == "n":
            try:
                qsim._check_n(value)
            except ValueError as exc:
                raise ConfigError(str(exc))
        elif key not in recipe.minima:
            raise ConfigError(f"{flag} does not apply to bench {name}")
        elif value < recipe.minima[key]:
            raise ConfigError(f"{flag} must be >= {recipe.minima[key]}, got {value}")
    os.makedirs(out_dir, exist_ok=True)
    return {**recipe.defaults, **overrides}, dynamics.default_system()


def _cutoff_runs(params, environment, system, seed_base: int) -> dict:
    """Per planner, rrt then qrrt: params["trials"] runs under params["cutoff"]
    counted calls, trial t seeded seed_base + 1000 + t."""
    return {
        name: [
            metrics.run_trial(
                metrics.AlgorithmConfig(name=name, n=params["n"]), environment, system, seed, cutoff=params["cutoff"]
            ).record
            for seed in range(seed_base + 1000, seed_base + 1000 + params["trials"])
        ]
        for name in ("rrt", "qrrt")
    }


def bench_slopes(out_dir, seed_base: int, **overrides) -> dict:
    """Calls-per-node OLS slopes for rrt / qrrt / pqrrt-shared / prrt.

    Each of the seeded environments hosts one run per algorithm to the node
    target; per-admission (nodes, running-call-total) points are pooled per
    algorithm and fitted with ordinary least squares.
    """
    params, system = _bench_setup("slopes", out_dir, overrides)
    spec = _env_spec(params)
    algo_names = ("rrt", "qrrt", "pqrrt-shared", "prrt")
    points = {name: [] for name in algo_names}
    records = []
    point_lines = ["algorithm,seed,nodes,calls"]
    for i in range(params["envs"]):
        environment = envmod.generate_random_env(spec, seed_base + i)
        run_seed = seed_base + 10_000 + i
        for name in algo_names:
            mode = metrics.ALGORITHM_TABLE[name].pool_mode
            pool = None if mode is None else parallel.WorkerPool(p=params["p"], mode=mode, seed_base=run_seed)
            algo = metrics.AlgorithmConfig(name=name, n=params["n"], pool=pool, max_steps=params["max_steps"])
            result = metrics.run_trial(algo, environment, system, run_seed, target_nodes=params["target_nodes"])
            records.append(result.record)
            for j, calls in enumerate(result.record.calls_at_admission):
                points[name].append((j + 1, calls))
                point_lines.append(f"{name},{run_seed},{j + 1},{calls}")
    slopes = {}
    slope_lines = ["algorithm,slope,intercept"]
    for name in algo_names:
        slope, intercept = metrics.slope_fit(points[name])
        slopes[name] = slope
        slope_lines.append(f"{name},{slope!r},{intercept!r}")
    _write_lines(os.path.join(out_dir, "slope_points.csv"), point_lines)
    _write_lines(os.path.join(out_dir, "slopes.csv"), slope_lines)
    metrics.write_records_csv(records, os.path.join(out_dir, "runs.csv"))
    return {"slopes": slopes, "points": points, "records": records}


def bench_heatmap(out_dir, seed_base: int, **overrides) -> dict:
    """Node-placement heatmaps and oracle efficiency for rrt vs qrrt at a cutoff."""
    params, system = _bench_setup("heatmap", out_dir, overrides)
    environment = envmod.generate_random_env(_env_spec(params), seed_base)
    spec = metrics.HeatmapSpec(bounds=tuple(environment.bounds), nx=params["grid"], ny=params["grid"])
    summary_lines = ["algorithm,trials,nodes,calls_total,efficiency"]
    out = {"env": environment}
    for name, recs in _cutoff_runs(params, environment, system, seed_base).items():
        heatmap = metrics.accumulate_heatmap(recs, spec)
        metrics.write_heatmap_csv(heatmap, os.path.join(out_dir, f"heatmap_{name}.csv"))
        metrics.write_heatmap_pgm(heatmap, os.path.join(out_dir, f"heatmap_{name}.pgm"))
        nodes = sum(r.nodes_admitted for r in recs)
        calls = sum(r.total_calls() for r in recs)
        eff = metrics.oracle_efficiency(recs)
        summary_lines.append(f"{name},{len(recs)},{nodes},{calls},{eff!r}")
        out[name] = {"records": recs, "heatmap": heatmap, "nodes": nodes, "calls": calls, "efficiency": eff}
    _write_lines(os.path.join(out_dir, "summary.csv"), summary_lines)
    return out


def bench_corridor(out_dir, seed_base: int, **overrides) -> dict:
    """Corridor-entry node counts for rrt vs qrrt under a tight call cutoff."""
    params, system = _bench_setup("corridor", out_dir, overrides)
    spec = _env_spec(params)
    environment = envmod.generate_random_env(spec, seed_base)
    region = envmod.corridor_region(spec)
    lines = ["algorithm,trials,corridor_nodes,total_nodes"]
    out = {"env": environment, "region": region}
    for name, recs in _cutoff_runs(params, environment, system, seed_base).items():
        corridor_nodes = metrics.count_in_region(recs, region)
        total_nodes = sum(r.nodes_admitted for r in recs)
        lines.append(f"{name},{len(recs)},{corridor_nodes},{total_nodes}")
        out[name] = {"records": recs, "corridor_nodes": corridor_nodes, "total_nodes": total_nodes}
    _write_lines(os.path.join(out_dir, "corridor.csv"), lines)
    return out


def bench_annealing(out_dir, seed_base: int, **overrides) -> dict:
    """Edge-length statistics: annealed q-RRT against standard q-RRT.

    Both planners run at the same fixed iteration count to matched node
    targets; the annealed variant draws its targets from the temperature
    schedule's radius band.
    """
    params, system = _bench_setup("annealing", out_dir, overrides)
    environment = envmod.generate_random_env(_env_spec(params), seed_base)
    lines = ["algorithm,seed,nodes,mean_edge,min_edge,max_edge"]
    out = {"env": environment, "qda": [], "qrrt": []}
    for t in range(params["trees"]):
        run_seed = seed_base + 1000 + t
        for name in ("qda", "qrrt"):
            schedule = (
                planner.TemperatureSchedule.from_config(params["schedule"]) if name == "qda" else None
            )
            algo = metrics.AlgorithmConfig(
                name=name,
                n=params["n"],
                mode=params["iterations"],
                schedule=schedule,
                max_steps=params["max_steps"],
            )
            result = metrics.run_trial(
                algo, environment, system, run_seed, target_nodes=params["target_nodes"]
            )
            tree = result.tree
            edges = metrics.edge_lengths(tree)
            # A tree without edges has no lengths to summarize.
            mean_edge, min_edge, max_edge = (
                float(stat(edges)) if edges.size else float("nan") for stat in (np.mean, np.min, np.max)
            )
            lines.append(
                f"{name},{run_seed},{result.record.nodes_admitted},"
                f"{mean_edge!r},{min_edge!r},{max_edge!r}"
            )
            out[name].append(
                {"record": result.record, "tree": tree, "mean_edge": mean_edge, "edges": edges}
            )
    _write_lines(os.path.join(out_dir, "annealing.csv"), lines)
    return out


class BenchRecipe(NamedTuple):
    """One row of the bench-recipe table."""

    run: Callable[..., dict]  # bench_*(out_dir, seed_base, **overrides)
    defaults: dict  # the recipe's parameters
    minima: dict  # each override the recipe reads, besides n, with the smallest value it can run
    summary: Callable[[dict], list[str]]  # the stdout lines of a run's result


# The one table of `qrrt bench` recipes; the subcommand, its flags and
# _bench_setup read it.
BENCH_RECIPES = {
    "slopes": BenchRecipe(
        bench_slopes,
        SLOPES_DEFAULTS,
        {"envs": 1, "target_nodes": 2},  # the slope fit needs two node counts
        lambda r: [f"{name}: slope {slope:.3f} calls/node" for name, slope in r["slopes"].items()],
    ),
    "heatmap": BenchRecipe(
        bench_heatmap,
        HEATMAP_DEFAULTS,
        {"trials": 1, "cutoff": 1},
        lambda r: [
            f"{name}: {r[name]['nodes']} nodes, {r[name]['calls']} calls, efficiency {r[name]['efficiency']:.3f}"
            for name in ("rrt", "qrrt")
        ],
    ),
    "corridor": BenchRecipe(
        bench_corridor,
        CORRIDOR_DEFAULTS,
        {"trials": 1, "cutoff": 1},
        lambda r: [f"{k}: {r[k]['corridor_nodes']} corridor nodes of {r[k]['total_nodes']}" for k in ("rrt", "qrrt")],
    ),
    "annealing": BenchRecipe(
        bench_annealing,
        ANNEALING_DEFAULTS,
        {"trees": 1, "target_nodes": 0},
        lambda r: [
            f"{name}: mean edge lengths {[round(run['mean_edge'], 3) for run in r[name]]}" for name in ("qda", "qrrt")
        ],
    ),
}

# The integer overrides `qrrt bench` takes, each as a --flag: every recipe's
# own, and n.
_BENCH_OVERRIDES = (*dict.fromkeys(key for recipe in BENCH_RECIPES.values() for key in recipe.minima), "n")


def _cmd_bench(args) -> int:
    recipe = BENCH_RECIPES[args.recipe]
    overrides = {key: getattr(args, key) for key in _BENCH_OVERRIDES if getattr(args, key) is not None}
    print("\n".join(recipe.summary(recipe.run(args.out, args.seed_base, **overrides))))
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="qrrt", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("gen-env", help="generate a seeded random environment file")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--bounds", type=float, nargs=4, default=[0.0, 0.0, 20.0, 20.0])
    g.add_argument("--obstacles", type=int, default=40)
    g.add_argument("--size-range", type=float, nargs=2, default=[1.0, 3.0])
    g.add_argument("--delta", type=float, default=0.5)
    g.add_argument("--corridor-width", type=float, default=None)
    g.add_argument("--corridor-thickness", type=float, default=1.5)
    g.add_argument("--x0", type=float, nargs=2, default=None)
    g.add_argument("--xg", type=float, nargs=2, default=None)
    g.set_defaults(func=_cmd_gen_env)

    p = sub.add_parser("plan", help="run one planning trial")
    p.add_argument("--algo", required=True, choices=metrics.ALGORITHMS)
    p.add_argument("--env", required=True)
    p.add_argument("--sys", default=None, help="system config JSON (default: built-in stable gain)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--iterations", default="optimal", help="'optimal' or a fixed iteration count")
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--target-nodes", type=int, default=None)
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--p", type=int, default=8)
    p.add_argument("--pool-seed-base", type=int, default=None)
    p.add_argument("--pool-seeds", default=None, help="comma-separated explicit worker seeds")
    p.add_argument("--per-worker-budget", type=int, default=64)
    p.add_argument("--shared-amplification", action="store_true")
    p.add_argument("--schedule", default="16:2.7:4.2,32:0.8:2.0")
    p.add_argument("--dump-amplitudes", default=None, help="CSV dump of the first step's amplified state")
    p.set_defaults(func=_cmd_plan)

    a = sub.add_parser("analyze", help="closed forms vs Monte Carlo over the standard grid")
    a.add_argument("--seed", type=int, required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--trials", type=int, default=200_000, help=f"Monte Carlo trials per row, at most {_MAX_TRIALS:,}")
    a.add_argument(
        "--cover-episodes", type=int, default=20_000, help=f"coverage episodes per row, at most {_MAX_COVER_EPISODES:,}"
    )
    a.add_argument(
        "--sigma-tolerance",
        type=float,
        default=3.0,
        help="the whole grid's false-alarm rate is one two-sided test's at this many sigma",
    )
    a.add_argument("--expectation-tolerance", type=float, default=0.02)
    a.add_argument("--inject-error", action="store_true", help=argparse.SUPPRESS)
    a.set_defaults(func=_cmd_analyze)

    b = sub.add_parser("bench", help="seeded benchmark recipes")
    b.add_argument("recipe", choices=tuple(BENCH_RECIPES))
    b.add_argument("--seed-base", type=int, required=True)
    b.add_argument("--out", required=True)
    for key in _BENCH_OVERRIDES:
        b.add_argument("--" + key.replace("_", "-"), type=int, default=None)
    b.set_defaults(func=_cmd_bench)

    return parser


def _extract_config(argv: list[str]) -> tuple[list[str], dict]:
    argv = list(argv)
    if "--config" not in argv:
        return argv, {}
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ConfigError("--config needs a file path")
    path = argv[idx + 1]
    del argv[idx : idx + 2]
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad config file {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return argv, cfg


def _config_default(action: argparse.Action, value):
    """A --config value run through its flag's converter, as the flag's own text would be.

    argparse applies a flag's type only to text, so a JSON number would
    otherwise skip it: 2.5 for an integer flag must fail, as --p 2.5 does.
    """
    if value is None or action.type is None:
        return value
    key = action.dest
    many = isinstance(action.nargs, int)
    if many != isinstance(value, list) or (many and len(value) != action.nargs):
        shape = f"a list of {action.nargs} values" if many else "a single value"
        raise ConfigError(f"config key {key!r} must be {shape}, got {value!r}")
    converted = []
    for item in value if many else [value]:
        try:
            converted.append(action.type(str(item)))
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: bad value {item!r} ({exc})")
    return converted if many else converted[0]


def main(argv=None) -> int:
    if argv is None:
        argv = _sys.argv[1:]
    try:
        argv, cfg = _extract_config(list(argv))
        parser = _build_parser()
        nulls: dict[str, list[str]] = {}
        if cfg:
            # Config entries become per-subcommand defaults, so an explicit
            # flag still wins. Applying them on the subparsers (not the root
            # parser) keeps that layering on every argparse version.
            subparsers = parser._subparsers._group_actions[0].choices
            known: set[str] = set()
            for name, sp in subparsers.items():
                relevant = {a.dest: _config_default(a, cfg[a.dest]) for a in sp._actions if a.dest in cfg}
                known |= set(relevant)
                # null stands for a flag's default only where that default is
                # None; checked below for the subcommand that runs.
                nulls[name] = [a.dest for a in sp._actions if a.dest in cfg and cfg[a.dest] is None and a.default is not None]
                if relevant:
                    sp.set_defaults(**relevant)
            unknown = set(cfg) - known
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        args = parser.parse_args(argv)
        for key in nulls.get(args.command, ()):
            if getattr(args, key) is None:
                raise ConfigError(f"config key {key!r} must not be null")
        _check_seeds(args)
        return args.func(args)
    except (ConfigError, dynamics.UnstableGainError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
