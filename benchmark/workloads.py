"""The benchmark's workloads: seeded inputs, timed rounds, and output checks.

A workload's inputs are a fixed list of rounds made from ``--seed`` before
timing starts. A round is a fixed list of operations (planning trials,
statevector rounds, analytics rows), each timed alone. A run passes over the
whole list at least twice; every operation's figure is its median over the
passes, and a round's wall time is the sum of its operations' figures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from qrrt import dynamics, metrics, parallel, planner, prob, qsim
from qrrt import env as envmod

import checks

# World generators of the `bench slopes` and `bench annealing` recipes.
SLOPES_WORLD = dict(bounds=(0.0, 0.0, 20.0, 20.0), obstacle_count=45, size_range=(1.5, 3.0), delta=0.4)
ANNEALING_WORLD = dict(bounds=(0.0, 0.0, 30.0, 30.0), obstacle_count=2000, size_range=(0.15, 0.45), delta=0.3)
ANNEALING_SCHEDULE = ((16, 2.7, 4.2), (32, 0.8, 2.0))

# `qrrt analyze` sizes raised to the figures the paper's analytics need.
MC_TRIALS = 1_000_000
MC_COVER_EPISODES = 100_000

# Statevector rounds: every (n, m) for each pool width; k = floor(pi/4 theta)
# runs from 6 (n=10, m=16) to 402 (n=18, m=1).
SV_SIZES = tuple((n, m) for n in (10, 12, 14, 16, 18) for m in (1, 4, 16))
SV_WIDTHS = (2, 8)

# Statevector rounds up to this n take 0.2-8 ms, where a single call's time
# is mostly the machine's noise of the moment: they run before every
# analytics row, so each pass samples them all through its length and
# counts their median. Larger rounds run once per pass, spread over the same
# slots.
SV_SWEEP_MAX_N = 14


def derive(seed: int, *keys: int) -> int:
    """A 32-bit seed for one input, fixed by the run seed and its position."""
    return int(np.random.SeedSequence([seed % 2**32, *keys]).generate_state(1)[0])


@dataclass(frozen=True)
class Trial:
    algorithm: str
    n: int
    p: int
    target_nodes: int | None
    max_steps: int
    seed: int

    def config(self) -> metrics.AlgorithmConfig:
        pool = None
        mode = {"prrt": "classical", "pqrrt-shared": "shared", "pqrrt-unshared": "unshared"}.get(self.algorithm)
        if mode is not None:
            pool = parallel.WorkerPool(p=self.p, mode=mode, seed_base=self.seed)
        schedule = None
        if self.algorithm == "qda":
            schedule = planner.TemperatureSchedule.from_config(ANNEALING_SCHEDULE)
        return metrics.AlgorithmConfig(
            name=self.algorithm, n=self.n, mode="optimal", schedule=schedule, pool=pool, max_steps=self.max_steps
        )


@dataclass
class RoundResult:
    """One pass over one round: operation times by kind (NaN where an operation failed) and work done."""

    times: dict[str, list[float]] = field(default_factory=dict)
    work: dict[str, int] = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return wall_time(self.times)


def wall_time(times: dict) -> float:
    """A round's wall time: the sum of its operations' times."""
    return float(sum(np.nansum(t) for t in times.values()))


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


class PlanningWorkload:
    """Worlds from one generator, each hosting the same list of trials per round."""

    unit = "trial"

    def __init__(self, world, world_seeds, trials, rounds):
        self.world = world
        self.world_seeds = world_seeds
        self.trials = trials  # [(algorithm, n, p, target_nodes, max_steps)]
        self.rounds = rounds
        self.system = dynamics.default_system()

    def make_inputs(self, seed: int) -> list:
        spec = envmod.GeneratorSpec(**self.world)
        worlds = [envmod.generate_random_env(spec, s) for s in self.world_seeds]
        rounds = []
        for r in range(self.rounds):
            trial_seed = derive(seed, r, 1)
            rounds.append((worlds[r % len(worlds)], [Trial(*t, seed=trial_seed) for t in self.trials]))
        return rounds

    def run_round(self, round_inputs) -> RoundResult:
        world, trials = round_inputs
        out = RoundResult(times={"env": [], "trial": []}, work=dict.fromkeys(("nodes", "searches", "draws"), 0))
        env, dt = _timed(
            envmod.Environment,
            bounds=world.bounds,
            obstacles=world.obstacles,
            x0=world.x0,
            xG=world.xG,
            delta=world.delta,
            rng_seed=world.rng_seed,
        )
        out.times["env"].append(dt)
        for trial in trials:
            algo = trial.config()
            out.attempted += 1
            try:
                result, dt = _timed(
                    metrics.run_trial, algo, env, self.system, trial.seed, target_nodes=trial.target_nodes
                )
            except Exception as exc:  # one failed operation; the run goes on
                out.failed += 1
                out.errors.append(f"{trial}: {exc!r}")
                out.times["trial"].append(float("nan"))
                continue
            out.times["trial"].append(dt)
            rec = result.record
            databases = len(rec.per_step_m)
            out.work["nodes"] += rec.nodes_admitted
            out.work["searches"] += databases + rec.calls_classical
            workers = trial.p if trial.algorithm == "pqrrt-shared" else 1
            out.work["draws"] += databases * workers + rec.calls_classical
            out.outputs.append((trial, env, result.tree.coords.copy(), list(result.tree.parents), rec))
        return out

    @staticmethod
    def rates(times: dict, work: dict) -> dict:
        wall = wall_time(times)
        return {
            "nodes_per_s": work["nodes"] / wall,
            "rounds_per_s": work["searches"] / wall,
            "mc_draws_per_s": work["draws"] / wall,
        }

    @staticmethod
    def signature(output) -> tuple:
        trial, _, coords, parents, rec = output
        return (
            trial,
            coords.tobytes(),
            tuple(parents),
            rec.calls_amplification,
            rec.calls_finalizer,
            rec.calls_classical,
            rec.duplicates_discarded,
            tuple(rec.per_step_m),
            tuple(rec.calls_at_admission),
        )

    def check(self, outputs) -> list[str]:
        problems = []
        for trial, env, coords, parents, rec in outputs:
            found = checks.check_tree(env, self.system, coords, parents)
            found += checks.check_record(rec, len(coords), coords, trial.algorithm, trial.n, trial.p, None)
            if trial.algorithm == "qda":
                found += checks.check_band(coords, parents, env.xG, ANNEALING_SCHEDULE)
            problems += [f"{trial.algorithm} seed {trial.seed}: {p}" for p in found]
        return problems

    @staticmethod
    def records(outputs) -> list:
        return [rec for *_, rec in outputs]


@dataclass(frozen=True)
class StatevectorRound:
    n: int
    m: int
    p: int
    mask: np.ndarray
    seed: int


class PooledSearchWorkload:
    """Statevector rounds for pooled measurement, then the analytics grid."""

    unit = "sv"
    rounds = 1

    def make_inputs(self, seed: int) -> list:
        rounds = []
        for r in range(self.rounds):
            sv = []
            for j, ((n, m), p) in enumerate((size, p) for p in SV_WIDTHS for size in SV_SIZES):
                mask = np.zeros(2**n, dtype=bool)
                mask[np.random.default_rng(derive(seed, r, 2, j)).choice(2**n, size=m, replace=False)] = True
                sv.append(StatevectorRound(n, m, p, mask, derive(seed, r, 3, j)))
            mc = [(row, derive(seed, r, 4, i)) for i, row in enumerate(checks.analyze_grid())]
            rounds.append((sv, mc))
        return rounds

    @staticmethod
    def _statevector(job: StatevectorRound):
        rng = np.random.default_rng(job.seed)
        k = qsim.optimal_iterations(job.n, job.m)
        state = qsim.amplify(qsim.init_uniform(job.n, job.mask), k)
        return k, state, [qsim.measure(state, rng) for _ in range(job.p)]

    @staticmethod
    def monte_carlo(row, seed, trials=MC_TRIALS, cover_episodes=MC_COVER_EPISODES):
        """One analytics row: collision rows draw ``trials`` rounds, coverage rows ``cover_episodes`` episodes."""
        lemma, n, m, p, pg, m1, m2 = row
        rng = np.random.default_rng(seed)
        trials, episodes = (1, cover_episodes) if lemma in ("L3", "L6") else (trials, 0)
        if m1 is None:
            model = prob.ParallelSearchModel(n=n, m=m, p=p, pG=pg)
            return prob.monte_carlo_parallel_draws(model, trials=trials, rng=rng, cover_episodes=episodes)
        model = prob.NoisyOracleModel(n=n, m=m, m1=m1, m2=m2)
        return prob.monte_carlo_parallel_draws(model, p=p, trials=trials, rng=rng, pG=pg, cover_episodes=episodes)

    def run_round(self, round_inputs) -> RoundResult:
        sv_jobs, mc_jobs = round_inputs
        out = RoundResult(times={"sv": [], "mc": []}, work=dict.fromkeys(("nodes", "searches", "draws"), 0))
        small = [j for j, job in enumerate(sv_jobs) if job.n <= SV_SWEEP_MAX_N]
        large = [j for j, job in enumerate(sv_jobs) if job.n > SV_SWEEP_MAX_N]
        sv_times = [[] for _ in sv_jobs]
        sv_first = [None] * len(sv_jobs)
        mc_outputs = []
        slots = len(mc_jobs)
        for slot, (row, seed) in enumerate(mc_jobs):
            for j in small + large[slot * len(large) // slots : (slot + 1) * len(large) // slots]:
                self._statevector_call(out, sv_jobs[j], sv_times[j], sv_first, j)
            out.attempted += 1
            try:
                stats, dt = _timed(self.monte_carlo, row, seed)
            except Exception as exc:
                out.failed += 1
                out.errors.append(f"analytics row {row}: {exc!r}")
                out.times["mc"].append(float("nan"))
                continue
            out.times["mc"].append(dt)
            out.work["draws"] += stats.trials * row[3] + stats.cover_total_draws
            mc_outputs.append(("mc", row, stats))
        for job, times, first in zip(sv_jobs, sv_times, sv_first):
            out.times["sv"].append(float(np.median(times)) if times else float("nan"))
            if first is None:
                continue
            k, state, indices = first
            amps = state.amplitudes
            good = [bool(job.mask[i]) for i in indices]
            out.work["nodes"] += len({i for i, g in zip(indices, good) if g})
            out.work["searches"] += 1
            total = float(amps @ amps)
            good_mass = float(amps[job.mask] @ amps[job.mask])
            out.outputs.append(("sv", job.n, job.m, k, state.oracle_calls, total, good_mass, tuple(indices), good))
        out.outputs += mc_outputs
        return out

    def _statevector_call(self, out: RoundResult, job: StatevectorRound, times: list, first: list, j: int) -> None:
        """One timed call of a statevector round; a repeated call must measure what the first one did."""
        out.attempted += 1
        try:
            (k, state, indices), dt = _timed(self._statevector, job)
        except Exception as exc:
            out.failed += 1
            out.errors.append(f"statevector n={job.n} m={job.m} p={job.p}: {exc!r}")
            return
        times.append(dt)
        if first[j] is None:
            first[j] = (k, state, indices)
        elif (first[j][0], first[j][1].oracle_calls, first[j][2]) != (k, state.oracle_calls, indices):
            out.errors.append(f"statevector n={job.n} m={job.m} p={job.p}: a repeated call measured other indices")
            out.outputs.append(("repeat-mismatch", job.n, job.m, job.p))

    @staticmethod
    def rates(times: dict, work: dict) -> dict:
        sv = float(np.nansum(times["sv"]))
        mc = float(np.nansum(times["mc"]))
        return {
            "nodes_per_s": work["nodes"] / (sv + mc),
            "rounds_per_s": work["searches"] / sv,
            "mc_draws_per_s": work["draws"] / mc,
        }

    @staticmethod
    def signature(output) -> tuple:
        return output

    def check(self, outputs) -> list[str]:
        problems = []
        pooled = []
        for item in outputs:
            if item[0] == "sv":
                _, n, m, k, calls, total, good_mass, indices, good = item
                problems += checks.check_state(n, m, k, calls, total, good_mass)
                pooled.append((n, m, k, indices, good))
            elif item[0] == "repeat-mismatch":
                problems.append(f"statevector n={item[1]} m={item[2]} p={item[3]}: repeated calls differ")
            else:
                _, row, stats = item
                problems += checks.check_monte_carlo(row, stats)
        return problems + checks.check_pool_draws(pooled)

    @staticmethod
    def records(outputs) -> list:
        return []


# Worlds are the recipes' own: `bench annealing --seed-base 7` plans in world
# 7 and `bench slopes --seed-base 1234` in worlds 1234, 1235, ... The run seed
# draws the trial streams, so every seed plans in the same worlds and the
# spread between seeds is not a spread between obstacle layouts.
# Every amplified trial runs at the optimal k: at the annealing recipe's fixed
# k=2 the steps to 16 nodes ranged from 20 to 117 between seeds.
# Trial tuples are (algorithm, n, p, target_nodes, max_steps). The dense and
# wide trials run a fixed number of steps, not to a node target: to 16 nodes
# a dense trial took 16-18 steps with the seed, 6% of its time a step, and
# one bad measurement costs a wide pool a whole extra round. The wide trials
# search 6, 3 and 12 databases, so the median trial is always qrrt. On the
# sparse worlds a trial runs to 30 nodes, its steps capped at 600 so a
# boxed-in start cannot outlast the rest; how many samples an rrt or prrt
# trial needs swings with the seed, so 40 worlds (160 trials) keep the
# median trial steady between seeds.
WORKLOADS = {
    "dense-annealing": PlanningWorkload(
        ANNEALING_WORLD,
        (7,),
        [("qda", 9, 1, None, 16), ("qrrt", 9, 1, None, 16)],
        rounds=1,
    ),
    "sparse-pools": PlanningWorkload(
        SLOPES_WORLD,
        tuple(range(1234, 1274)),
        [("rrt", 8, 1, 30, 600), ("qrrt", 8, 1, 30, 600), ("pqrrt-shared", 8, 8, 30, 600), ("prrt", 8, 8, 30, 600)],
        rounds=40,
    ),
    "wide-database": PlanningWorkload(
        SLOPES_WORLD,
        (1234,),
        [("qrrt", 16, 1, None, 6), ("pqrrt-shared", 16, 8, None, 3), ("pqrrt-unshared", 16, 4, None, 3)],
        rounds=1,
    ),
    "pooled-search": PooledSearchWorkload(),
}
