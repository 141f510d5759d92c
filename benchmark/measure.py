"""Measure one workload in this process and print its figures as one JSON line.

Started by run.py in a fresh process per run. The clock starts before numpy
and the package are imported, so ``setup_s`` covers imports and input
generation. With ``--setup-only`` the process stops after set-up.

Untraced (``--trace 0``): passes over every round of the workload repeat
while another pass fits in ``--seconds``, at least two of them. Each
operation counts with its median over the passes, which a first pass's
first-touch costs or one slow spell do not move; the end-to-end figures are
those of one whole pass made of these medians (percentiles over its
operations for the trial figures). Traced (``--trace 1``): after a warm-up
round, one pass runs untraced and one traced, so the counts repeat exactly
between runs of one seed, and the difference of the two passes is the
tracing overhead.
Every pass must give the same outputs as the first.
"""

import time

_CLOCK_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from qrrt import metrics  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "nodes_per_s": "1/s",
    "trial_p50_s": "s",
    "trial_p90_s": "s",
    "rounds_per_s": "1/s",
    "mc_draws_per_s": "1/s",
}

TRIAL_ALGORITHMS = ("rrt", "qrrt", "qda", "prrt", "pqrrt-shared", "pqrrt-unshared")
POOL_STEPS = ("pqrrt_manager_step", "pqrrt_unshared_step", "prrt_manager_step")

PER_LAYER = {
    "env.segments_free.calls": "count",
    "env.segments_free.rows": "count",
    "env.segments_free.pairs": "count",
    "env.segments_free.self_s": "s",
    "env.segments_free.ns_per_pair": "ns",
    "env.points_free.rows": "count",
    "env.points_free.self_s": "s",
    "dynamics.reachable_batch.calls": "count",
    "dynamics.reachable_batch.rows": "count",
    "dynamics.reachable_batch.single_row_calls": "count",
    "dynamics.reachable_batch.horizon_steps": "count",
    "dynamics.reachable_batch.self_s": "s",
    "dynamics.reachable_batch.us_per_single_row_call": "us",
    "planner.build_database.rows": "count",
    "planner.build_database.self_s": "s",
    "planner.tag_database.rows": "count",
    "planner.tag_database.s": "s",
    "planner.Tree.nearest_batch.pairs": "count",
    "planner.Tree.nearest_batch.self_s": "s",
    "planner.Tree.nearest_batch.temp_mb_max": "MB",
    "planner.build_database_annealed.rows": "count",
    "planner.build_database_annealed.self_s": "s",
    "planner.Tree.nearest.calls": "count",
    "planner.Tree.nearest.self_s": "s",
    "planner.good_fraction": "ratio",
    "qsim.amplify.calls": "count",
    "qsim.amplify.iterations": "count",
    "qsim.amplify.amplitude_updates": "count",
    "qsim.amplify.self_s": "s",
    "qsim.amplify.ns_per_amplitude_update": "ns",
    "qsim.measure.calls": "count",
    "qsim.measure.amplitudes_scanned": "count",
    "qsim.measure.self_s": "s",
    "qsim.measure.good_ratio": "ratio",
    **{f"parallel.{step}.{key}": unit for step in POOL_STEPS for key, unit in (("calls", "count"), ("s", "s"))},
    "parallel.duplicate_ratio": "ratio",
    "records.calls_amp": "count",
    "records.calls_final": "count",
    "records.calls_classical": "count",
    "records.nodes": "count",
    "metrics.oracle_efficiency": "nodes/call",
    **{f"metrics.run_trial.{name}.s": "s" for name in TRIAL_ALGORITHMS},
    "prob.monte_carlo_parallel_draws.calls": "count",
    "prob.monte_carlo_parallel_draws.self_s": "s",
    "prob.draws": "count",
    "prob.cover_draws": "count",
    "prob.ns_per_draw": "ns",
    "trace.overhead_s": "s",
    "trace.uncovered_share": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_figures(tracer: Tracer, records: list, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer figures over the traced rounds, zero where a layer did not run."""
    spans = tracer.totals()
    counts = tracer.counts

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    seg_self = span("env.segments_free", "self_s")
    seg_pairs = counts["env.segments_free.pairs"]
    amp_self = span("qsim.amplify", "self_s")
    updates = counts["qsim.amplify.amplitude_updates"]
    mc_self = span("prob.monte_carlo_parallel_draws", "self_s")
    all_draws = counts["prob.draws"] + counts["prob.cover_draws"]
    single = counts["dynamics.reachable_batch.single_row_calls"]
    pool_moves = counts["parallel.duplicates"] + counts["parallel.admitted"]
    figures = {
        "env.segments_free.calls": span("env.segments_free", "calls"),
        "env.segments_free.rows": counts["env.segments_free.rows"],
        "env.segments_free.pairs": seg_pairs,
        "env.segments_free.self_s": seg_self,
        "env.segments_free.ns_per_pair": _ratio(seg_self * 1e9, seg_pairs),
        "env.points_free.rows": counts["env.points_free.rows"],
        "env.points_free.self_s": span("env.points_free", "self_s"),
        "dynamics.reachable_batch.calls": span("dynamics.reachable_batch", "calls"),
        "dynamics.reachable_batch.rows": counts["dynamics.reachable_batch.rows"],
        "dynamics.reachable_batch.single_row_calls": single,
        "dynamics.reachable_batch.horizon_steps": spans["_horizon_steps"],
        "dynamics.reachable_batch.self_s": span("dynamics.reachable_batch", "self_s"),
        "dynamics.reachable_batch.us_per_single_row_call": _ratio(
            counts["dynamics.reachable_batch.single_row_s"] * 1e6, single
        ),
        "planner.build_database.rows": counts["planner.build_database.rows"],
        "planner.build_database.self_s": span("planner.build_database", "self_s"),
        "planner.tag_database.rows": counts["planner.tag_database.rows"],
        "planner.tag_database.s": span("planner.tag_database", "s"),
        "planner.Tree.nearest_batch.pairs": counts["planner.Tree.nearest_batch.pairs"],
        "planner.Tree.nearest_batch.self_s": span("planner.Tree.nearest_batch", "self_s"),
        "planner.Tree.nearest_batch.temp_mb_max": counts["planner.Tree.nearest_batch.temp_mb_max"],
        "planner.build_database_annealed.rows": counts["planner.build_database_annealed.rows"],
        "planner.build_database_annealed.self_s": span("planner.build_database_annealed", "self_s"),
        "planner.Tree.nearest.calls": span("planner.Tree.nearest", "calls"),
        "planner.Tree.nearest.self_s": span("planner.Tree.nearest", "self_s"),
        "planner.good_fraction": _ratio(counts["planner.tag_database.good"], counts["planner.tag_database.rows"]),
        "qsim.amplify.calls": span("qsim.amplify", "calls"),
        "qsim.amplify.iterations": counts["qsim.amplify.iterations"],
        "qsim.amplify.amplitude_updates": updates,
        "qsim.amplify.self_s": amp_self,
        "qsim.amplify.ns_per_amplitude_update": _ratio(amp_self * 1e9, updates),
        "qsim.measure.calls": span("qsim.measure", "calls"),
        "qsim.measure.amplitudes_scanned": counts["qsim.measure.amplitudes_scanned"],
        "qsim.measure.self_s": span("qsim.measure", "self_s"),
        "qsim.measure.good_ratio": _ratio(counts["qsim.measure.good"], span("qsim.measure", "calls")),
        "parallel.duplicate_ratio": _ratio(counts["parallel.duplicates"], pool_moves),
        "records.calls_amp": sum(r.calls_amplification for r in records),
        "records.calls_final": sum(r.calls_finalizer for r in records),
        "records.calls_classical": sum(r.calls_classical for r in records),
        "records.nodes": sum(r.nodes_admitted for r in records),
        "metrics.oracle_efficiency": metrics.oracle_efficiency(records) if records else 0.0,
        "prob.monte_carlo_parallel_draws.calls": span("prob.monte_carlo_parallel_draws", "calls"),
        "prob.monte_carlo_parallel_draws.self_s": mc_self,
        "prob.draws": counts["prob.draws"],
        "prob.cover_draws": counts["prob.cover_draws"],
        "prob.ns_per_draw": _ratio(mc_self * 1e9, all_draws),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.uncovered_share": _ratio(traced_wall - spans["_root_s"], traced_wall),
    }
    for step in POOL_STEPS:
        figures[f"parallel.{step}.calls"] = span(f"parallel.{step}", "calls")
        figures[f"parallel.{step}.s"] = span(f"parallel.{step}", "s")
    for name in TRIAL_ALGORITHMS:
        figures[f"metrics.run_trial.{name}.s"] = counts[f"metrics.run_trial.{name}.s"]
    return {name: {"value": float(figures[name]), "unit": unit} for name, unit in PER_LAYER.items()}


def tail_percentile(times: list) -> float:
    """The 90th percentile, or the highest percentile with ten operations beyond it.

    A percentile with fewer operations above it than that is the run's
    slowest one or two operations, which says nothing stable about the
    tail, so short runs fall back towards the median; under forty
    operations there is no tail to speak of and the median stands in.
    """
    if len(times) < 40:
        return float(np.median(times))
    q = min(90.0, 100.0 * (1.0 - 10.0 / len(times)))
    return float(np.percentile(times, q))


def typical(passes: list) -> list:
    """Per round: each operation's median time over the passes (failed ones left out), and the round's work."""
    combined = []
    for per_pass in zip(*passes):
        times = {}
        for kind in per_pass[0].times:
            samples = np.array([r.times[kind] for r in per_pass], dtype=float)
            ran = ~np.isnan(samples).all(axis=0)
            times[kind] = np.full(samples.shape[1], np.nan)
            times[kind][ran] = np.nanmedian(samples[:, ran], axis=0)
        combined.append((times, per_pass[0].work))
    return combined


def end_to_end_figures(workload, passes: list, setup_s: float, peak_rss_mb: float) -> dict:
    """Figures of one whole pass, every operation at its median over the passes.

    Totals over all rounds, not medians over rounds: a seed moves the work
    of single rounds far more than the work of the whole pass.
    """
    rounds = typical(passes)
    times = {kind: np.concatenate([t[kind] for t, _ in rounds]) for kind in rounds[0][0]}
    work = {key: sum(w[key] for _, w in rounds) for key in rounds[0][1]}
    ops = times[workload.unit]
    ops = ops[~np.isnan(ops)]
    figures = {
        "wall_s": workloads.wall_time(times),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "trial_p50_s": float(np.median(ops)),
        "trial_p90_s": tail_percentile(ops),
        **workload.rates(times, work),
    }
    return {name: {"value": float(figures[name]), "unit": unit} for name, unit in END_TO_END.items()}


def repeat_problems(workload, passes: list) -> list:
    """Every pass over the same inputs must give the same outputs as the first."""
    problems = []
    for p, later in enumerate(passes[1:], 1):
        for i, (a, b) in enumerate(zip(passes[0], later)):
            if [workload.signature(o) for o in a.outputs] != [workload.signature(o) for o in b.outputs]:
                problems.append(f"pass {p}, round {i}: outputs differ from pass 0 on the same inputs")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    setup_s = time.perf_counter() - _CLOCK_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    warm_up = []
    if args.trace:
        # A warm-up round keeps first-touch costs out of the two compared passes.
        warm_up = [workload.run_round(inputs[0])]
        # Elapsed time of each pass: a statevector round repeated within a
        # pass counts once in its wall time but is covered by every call's span.
        untraced_started = time.perf_counter()
        untraced = [workload.run_round(item) for item in inputs]
        untraced_wall = time.perf_counter() - untraced_started
        tracer = Tracer()
        tracer.install()
        try:
            traced_started = time.perf_counter()
            traced = [workload.run_round(item) for item in inputs]
            traced_wall = time.perf_counter() - traced_started
        finally:
            tracer.remove()
        passes = [untraced, traced]
        figures = layer_figures(
            tracer,
            [rec for r in traced for rec in workload.records(r.outputs)],
            traced_wall,
            untraced_wall,
        )
    else:
        # A pass starts only if one as long as the last still fits in --seconds.
        passes = []
        started = time.perf_counter()
        last = 0.0
        while len(passes) < 2 or time.perf_counter() - started + last <= args.seconds:
            pass_started = time.perf_counter()
            passes.append([workload.run_round(item) for item in inputs])
            last = time.perf_counter() - pass_started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        figures = end_to_end_figures(workload, passes, setup_s, peak_rss_mb)

    # Only whole passes count as attempted, so a failing operation is the same share of every run.
    timed = [r for p in passes for r in p]
    check_started = time.perf_counter()
    problems = workload.check([o for r in passes[0] for o in r.outputs]) + repeat_problems(workload, passes)
    check_s = time.perf_counter() - check_started
    for line in [e for r in warm_up + timed for e in r.errors] + problems:
        print(line, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in timed),
        "failed": sum(r.failed for r in timed),
        "metrics": figures,
        "pass_walls": [[r.wall for r in p] for p in passes],
        "check_s": check_s,
        "setup_s": setup_s,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}-spans.csv.gz")
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
