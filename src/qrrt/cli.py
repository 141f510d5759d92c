"""Command-line shell: gen-env, plan, analyze, bench.

Exit codes: 0 success, 1 configuration error (bad flags, malformed files,
missing seeds), 2 runtime failure, 3 analyze tolerance violation.

Every command requires explicit seeds; none are ever invented. A JSON file
passed via --config supplies per-flag defaults (keys are flag destination
names); explicit command-line flags always win.

All outputs are plain CSV/JSON/PGM files written deterministically; the
wall-clock column of record CSVs is the only non-reproducible field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
import traceback
from dataclasses import dataclass

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
        k = int(text)
    except (TypeError, ValueError):
        raise ConfigError(f"--iterations must be 'optimal' or a non-negative integer, got {text!r}")
    if k < 0:
        raise ConfigError(f"fixed iteration count must be >= 0, got {k}")
    return k


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


def _parse_seed_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad seed list {text!r}: {exc}")


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


def _write_lines(path, lines) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# gen-env
# ---------------------------------------------------------------------------


def _cmd_gen_env(args) -> int:
    corridor = None
    if args.corridor_width is not None:
        corridor = envmod.CorridorSpec(width=args.corridor_width, thickness=args.corridor_thickness)
    spec = envmod.GeneratorSpec(
        bounds=tuple(args.bounds),
        obstacle_count=args.obstacles,
        size_range=tuple(args.size_range),
        delta=args.delta,
        corridor=corridor,
        x0=tuple(args.x0) if args.x0 is not None else None,
        xG=tuple(args.xg) if args.xg is not None else None,
    )
    try:
        environment = envmod.generate_random_env(spec, args.seed)
    except (ValueError, envmod.EnvGenerationError) as exc:
        raise ConfigError(f"environment generation failed: {exc}")
    envmod.save_environment(environment, args.out)
    print(f"wrote {args.out}: {environment.obstacles.shape[0]} obstacles, seed {args.seed}")
    return 0


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def _build_pool(args, default_seed_base: int) -> parallel.WorkerPool:
    mode = {"prrt": "classical", "pqrrt-shared": "shared", "pqrrt-unshared": "unshared"}[args.algo]
    seeds = _parse_seed_list(args.pool_seeds) if args.pool_seeds else None
    seed_base = args.pool_seed_base
    if seeds is None and seed_base is None:
        # Deterministic derivation from the required run seed, not invention.
        seed_base = default_seed_base
    try:
        return parallel.WorkerPool(
            p=args.p,
            mode=mode,
            seed_base=None if seeds is not None else seed_base,
            seeds=seeds,
            per_worker_budget=args.per_worker_budget,
            shared_amplification=args.shared_amplification,
        )
    except ValueError as exc:
        raise ConfigError(f"bad pool config: {exc}")


def _algo_config(args) -> metrics.AlgorithmConfig:
    mode = _parse_mode(args.iterations)
    schedule = None
    pool = None
    if args.algo == "qda":
        schedule = _parse_schedule(args.schedule)
    if args.algo in ("prrt", "pqrrt-shared", "pqrrt-unshared"):
        pool = _build_pool(args, default_seed_base=args.seed)
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
    and dump the amplitude table; the run itself is not perturbed."""
    if args.algo not in ("qrrt", "qda", "pqrrt-shared"):
        raise ConfigError(f"--dump-amplitudes is not available for algo {args.algo!r}")
    rng = np.random.default_rng(args.seed)
    tree = planner.Tree(environment.x0)
    if algo.schedule is not None:
        db = planner.build_database_annealed(environment, tree, algo.n, algo.schedule, rng)
    else:
        db = planner.build_database(environment, tree, algo.n, rng)
    db = planner.tag_database(environment, system, db)
    k = planner.resolve_iterations(algo.mode, algo.n, db.m)
    state = qsim.amplify(qsim.init_uniform(algo.n, db.good_mask), k)
    lines = ["index,x,y,parent_index,good,amplitude"]
    for i in range(2**algo.n):
        lines.append(
            ",".join(
                [
                    str(i),
                    repr(float(db.points[i, 0])),
                    repr(float(db.points[i, 1])),
                    str(int(db.parent_index[i])),
                    str(int(db.good_mask[i])),
                    repr(float(state.amplitudes[i])),
                ]
            )
        )
    _write_lines(args.dump_amplitudes, lines)


def _cmd_plan(args) -> int:
    environment = _load_env(args.env)
    system = _load_system(args.sys)
    algo = _algo_config(args)
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
    with open(os.path.join(args.out, "tree.json"), "w") as fh:
        json.dump(tree_payload, fh)
        fh.write("\n")
    path_payload = {
        "indices": planner.extract_path_indices(tree) if tree.goal_index is not None else [],
        "points": [[float(x), float(y)] for x, y in result.path],
    }
    with open(os.path.join(args.out, "path.json"), "w") as fh:
        json.dump(path_payload, fh)
        fh.write("\n")
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


def _cmd_analyze(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.cover_episodes < 1:
        raise ConfigError(f"--cover-episodes must be >= 1, got {args.cover_episodes}")
    rows = _analyze_grid()
    lines = [",".join(ANALYZE_COLUMNS)]
    failures = []
    for i, row in enumerate(rows):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed, spawn_key=(i,)))
        closed, mc, sigma, is_expectation = _analyze_row(row, args.trials, args.cover_episodes, rng)
        if args.inject_error:
            closed *= 1.02
        err = abs(closed - mc)
        if is_expectation:
            ok = err <= args.expectation_tolerance * closed
        else:
            ok = err <= args.sigma_tolerance * sigma
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


def _slope_env_spec(params) -> envmod.GeneratorSpec:
    return envmod.GeneratorSpec(
        bounds=tuple(params["bounds"]),
        obstacle_count=params["obstacles"],
        size_range=tuple(params["size_range"]),
        delta=params["delta"],
    )


def bench_slopes(out_dir, seed_base: int, **overrides) -> dict:
    """Calls-per-node OLS slopes for rrt / qrrt / pqrrt-shared / prrt.

    Each of the seeded environments hosts one run per algorithm to the node
    target; per-admission (nodes, running-call-total) points are pooled per
    algorithm and fitted with ordinary least squares.
    """
    params = dict(SLOPES_DEFAULTS)
    params.update(overrides)
    os.makedirs(out_dir, exist_ok=True)
    system = dynamics.default_system()
    spec = _slope_env_spec(params)

    def pool_for(name, run_seed):
        mode = {"prrt": "classical", "pqrrt-shared": "shared"}[name]
        return parallel.WorkerPool(p=params["p"], mode=mode, seed_base=run_seed)

    algo_names = ("rrt", "qrrt", "pqrrt-shared", "prrt")
    points = {name: [] for name in algo_names}
    records = []
    point_lines = ["algorithm,seed,nodes,calls"]
    for i in range(params["envs"]):
        environment = envmod.generate_random_env(spec, seed_base + i)
        run_seed = seed_base + 10_000 + i
        for name in algo_names:
            if name in ("prrt", "pqrrt-shared"):
                algo = metrics.AlgorithmConfig(
                    name=name, n=params["n"], pool=pool_for(name, run_seed), max_steps=params["max_steps"]
                )
            else:
                algo = metrics.AlgorithmConfig(name=name, n=params["n"], max_steps=params["max_steps"])
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
    params = dict(HEATMAP_DEFAULTS)
    params.update(overrides)
    os.makedirs(out_dir, exist_ok=True)
    system = dynamics.default_system()
    environment = envmod.generate_random_env(_slope_env_spec(params), seed_base)
    spec = metrics.HeatmapSpec(bounds=tuple(environment.bounds), nx=params["grid"], ny=params["grid"])
    summary_lines = ["algorithm,trials,nodes,calls_total,efficiency"]
    out = {"env": environment}
    for name in ("rrt", "qrrt"):
        algo = metrics.AlgorithmConfig(name=name, n=params["n"])
        recs = [
            metrics.cutoff_run(algo, environment, system, params["cutoff"], seed_base + 1000 + t)
            for t in range(params["trials"])
        ]
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
    params = dict(CORRIDOR_DEFAULTS)
    params.update(overrides)
    os.makedirs(out_dir, exist_ok=True)
    system = dynamics.default_system()
    spec = envmod.GeneratorSpec(
        bounds=tuple(params["bounds"]),
        obstacle_count=params["obstacles"],
        size_range=tuple(params["size_range"]),
        delta=params["delta"],
        corridor=envmod.CorridorSpec(
            width=params["corridor_width"], thickness=params["corridor_thickness"]
        ),
        x0=tuple(params["x0"]) if params.get("x0") is not None else None,
        xG=tuple(params["xG"]) if params.get("xG") is not None else None,
    )
    environment = envmod.generate_random_env(spec, seed_base)
    region = envmod.corridor_region(spec)
    lines = ["algorithm,trials,corridor_nodes,total_nodes"]
    out = {"env": environment, "region": region}
    for name in ("rrt", "qrrt"):
        algo = metrics.AlgorithmConfig(name=name, n=params["n"])
        recs = [
            metrics.cutoff_run(algo, environment, system, params["cutoff"], seed_base + 1000 + t)
            for t in range(params["trials"])
        ]
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
    params = dict(ANNEALING_DEFAULTS)
    params.update(overrides)
    os.makedirs(out_dir, exist_ok=True)
    system = dynamics.default_system()
    environment = envmod.generate_random_env(_slope_env_spec(params), seed_base)
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


def _cmd_bench(args) -> int:
    recipe = args.recipe
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.cutoff is not None:
        overrides["cutoff"] = args.cutoff
    if args.envs is not None:
        overrides["envs"] = args.envs
    if args.target_nodes is not None:
        overrides["target_nodes"] = args.target_nodes
    if args.trees is not None:
        overrides["trees"] = args.trees
    if args.n is not None:
        overrides["n"] = args.n
    if recipe == "slopes":
        result = bench_slopes(args.out, args.seed_base, **overrides)
        for name, slope in result["slopes"].items():
            print(f"{name}: slope {slope:.3f} calls/node")
    elif recipe == "heatmap":
        result = bench_heatmap(args.out, args.seed_base, **overrides)
        for name in ("rrt", "qrrt"):
            print(
                f"{name}: {result[name]['nodes']} nodes, {result[name]['calls']} calls, "
                f"efficiency {result[name]['efficiency']:.3f}"
            )
    elif recipe == "corridor":
        result = bench_corridor(args.out, args.seed_base, **overrides)
        for name in ("rrt", "qrrt"):
            print(f"{name}: {result[name]['corridor_nodes']} corridor nodes of {result[name]['total_nodes']}")
    elif recipe == "annealing":
        result = bench_annealing(args.out, args.seed_base, **overrides)
        for name in ("qda", "qrrt"):
            means = [run["mean_edge"] for run in result[name]]
            print(f"{name}: mean edge lengths {[round(v, 3) for v in means]}")
    else:
        raise ConfigError(f"unknown bench recipe {recipe!r}")
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
    a.add_argument("--trials", type=int, default=200_000)
    a.add_argument("--cover-episodes", type=int, default=20_000)
    a.add_argument("--sigma-tolerance", type=float, default=3.0)
    a.add_argument("--expectation-tolerance", type=float, default=0.02)
    a.add_argument("--inject-error", action="store_true", help=argparse.SUPPRESS)
    a.set_defaults(func=_cmd_analyze)

    b = sub.add_parser("bench", help="seeded benchmark recipes")
    b.add_argument("recipe", choices=("slopes", "heatmap", "corridor", "annealing"))
    b.add_argument("--seed-base", type=int, required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--trials", type=int, default=None)
    b.add_argument("--cutoff", type=int, default=None)
    b.add_argument("--envs", type=int, default=None)
    b.add_argument("--target-nodes", type=int, default=None)
    b.add_argument("--trees", type=int, default=None)
    b.add_argument("--n", type=int, default=None)
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


def main(argv=None) -> int:
    if argv is None:
        argv = _sys.argv[1:]
    try:
        argv, cfg = _extract_config(list(argv))
        parser = _build_parser()
        if cfg:
            # Config entries become per-subcommand defaults, so an explicit
            # flag still wins. Applying them on the subparsers (not the root
            # parser) keeps that layering on every argparse version.
            subparsers = parser._subparsers._group_actions[0].choices.values()
            known: set[str] = set()
            for sp in subparsers:
                dests = {action.dest for action in sp._actions}
                known |= dests
                relevant = {k: v for k, v in cfg.items() if k in dests}
                if relevant:
                    sp.set_defaults(**relevant)
            unknown = set(cfg) - known
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except dynamics.UnstableGainError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
