"""Acceptance gate: twelve seeded end-to-end checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict line;
without -s the lines still appear for any failing criterion.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from qrrt import prob, qsim
from qrrt.cli import bench_annealing, bench_corridor, bench_heatmap, bench_slopes, main
from qrrt.dynamics import UnstableGainError, load_system
from qrrt.parallel import WorkerPool, worker_rngs
from qrrt.planner import Database, _measure_and_finalize
from qrrt.records import TrialRecord

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _mask(n: int, m: int) -> np.ndarray:
    mask = np.zeros(2**n, dtype=bool)
    mask[:m] = True
    return mask


def test_criterion_01_closed_form_matches_statevector():
    t0 = time.monotonic()
    worst = 0.0
    for n in range(1, 13):
        size = 2**n
        for m in sorted(set(np.linspace(0, size, 20).round().astype(int).tolist())):
            mask = _mask(n, int(m))
            state = qsim.init_uniform(n, mask)
            for k in range(31):
                p_state = float(np.sum(state.amplitudes[mask] ** 2))
                p_closed = qsim.good_probability(n, int(m), k)
                worst = max(worst, abs(p_state - p_closed))
                state = qsim.grover_iterate(state)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    _report(1, ok, f"max |closed - statevector| = {worst:.3e} over n<=12, k<=30 in {elapsed:.1f}s")


def test_criterion_02_four_entry_search_is_certain():
    state = qsim.amplify(qsim.init_uniform(2, _mask(2, 1)), 1)
    rng = np.random.default_rng(2)
    draws = 10_000
    hits = sum(1 for _ in range(draws) if qsim.measure(state, rng) == 0)
    freq = hits / draws
    _report(2, freq == 1.0, f"good frequency {freq} over {draws} draws (amplitude 1 case)")


def test_criterion_03_measurement_follows_amplified_distribution():
    n, m = 8, 16
    k = qsim.optimal_iterations(n, m)
    p_good = qsim.good_probability(n, m, k)
    mask = _mask(n, m)
    state = qsim.amplify(qsim.init_uniform(n, mask), k)
    rng = np.random.default_rng(3)
    draws = 100_000
    hits = sum(1 for _ in range(draws) if mask[qsim.measure(state, rng)])
    freq = hits / draws
    sigma = math.sqrt(p_good * (1.0 - p_good) / draws)
    ok = abs(freq - p_good) <= 3.0 * sigma
    _report(
        3,
        ok,
        f"n=8 m=16 k={k}: freq {freq:.5f} vs closed {p_good:.5f} "
        f"({abs(freq - p_good) / sigma:.2f} sigma)",
    )


def test_criterion_04_worker_collision_probabilities():
    trials = 1_000_000
    worst = 0.0
    for n in (4, 8):
        for m in (2, 4, 16):
            pg = qsim.good_probability(n, m, qsim.optimal_iterations(n, m))
            for p in (2, 3, 8):
                model = prob.ParallelSearchModel(n=n, m=m, p=p, pG=pg)
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=4000, spawn_key=(n, m, p))
                )
                stats = prob.monte_carlo_parallel_draws(
                    model, trials=trials, rng=rng, cover_episodes=0
                )
                same = prob.prob_all_same(model)
                sigma = math.sqrt(same * (1.0 - same) / trials)
                worst = max(worst, abs(stats.freq_all_same - same) / (3.0 * sigma))
                if p <= m:
                    diff = prob.prob_all_different(model)
                    sigma_d = math.sqrt(diff * (1.0 - diff) / trials)
                    worst = max(worst, abs(stats.freq_all_different - diff) / (3.0 * sigma_d))
    pg2 = qsim.good_probability(4, 2, qsim.optimal_iterations(4, 2))
    two = prob.ParallelSearchModel(n=4, m=2, p=2, pG=pg2)
    complement_gap = abs(prob.prob_all_same(two) + prob.prob_all_different(two) - pg2**2)
    ok = worst <= 1.0 and complement_gap <= 1e-15
    _report(
        4,
        ok,
        f"worst deviation {worst:.2f} of the 3-sigma budget over 18 grid points "
        f"({trials} trials each); complement gap {complement_gap:.1e}",
    )


def test_criterion_05_workers_needed_to_cover_all_solutions():
    episodes = 100_000
    worst = 0.0
    for m in (1, 2, 3, 8):
        for pg in (0.5, 1.0):
            model = prob.ParallelSearchModel(n=4, m=m, p=1, pG=pg)
            rng = np.random.default_rng(np.random.SeedSequence(entropy=5000, spawn_key=(m,)))
            stats = prob.monte_carlo_parallel_draws(
                model, trials=1, rng=rng, cover_episodes=episodes
            )
            closed = prob.expected_workers_all_solutions(model)
            assert closed == m * prob.harmonic(m) / pg  # independent closed form
            worst = max(worst, abs(stats.mean_workers_to_cover - closed) / closed)
    ok = worst <= 0.02
    _report(5, ok, f"worst relative error {worst:.4f} over {episodes} episodes per case")


def test_criterion_06_mislabeling_oracle_forms():
    noisy = prob.NoisyOracleModel(n=8, m=16, m1=12, m2=8)
    trials = 1_000_000
    checks = []

    stats = prob.monte_carlo_parallel_draws(
        noisy, p=1, trials=trials, rng=np.random.default_rng(61), pG=0.95, cover_episodes=0
    )
    closed = prob.prob_true_good(noisy, 0.95)
    sigma = math.sqrt(closed * (1.0 - closed) / trials)
    checks.append(abs(stats.freq_all_same - closed) / (3.0 * sigma))

    for p in (2, 3):
        stats = prob.monte_carlo_parallel_draws(
            noisy, p=p, trials=trials, rng=np.random.default_rng(62 + p), pG=0.95, cover_episodes=0
        )
        closed = prob.prob_all_same_noisy(noisy, p, 0.95)
        sigma = math.sqrt(closed * (1.0 - closed) / trials)
        checks.append(abs(stats.freq_all_same - closed) / (3.0 * sigma))

    cover = prob.monte_carlo_parallel_draws(
        noisy, p=1, trials=1, rng=np.random.default_rng(66), pG=0.8, cover_episodes=100_000
    )
    closed_cover = prob.expected_workers_noisy(noisy, 0.8)
    cover_rel = abs(cover.mean_workers_to_cover - closed_cover) / closed_cover

    clean = prob.NoisyOracleModel(n=8, m=16, m1=16, m2=0)
    reduction_gap = max(
        abs(prob.prob_true_good(clean, 0.95) - 0.95),
        abs(
            prob.prob_all_same_noisy(clean, 3, 0.9)
            - prob.prob_all_same(prob.ParallelSearchModel(n=8, m=16, p=3, pG=0.9))
        ),
        abs(
            prob.expected_workers_noisy(clean, 0.8)
            - prob.expected_workers_all_solutions(prob.ParallelSearchModel(n=8, m=16, p=1, pG=0.8))
        ),
    )
    ok = max(checks) <= 1.0 and cover_rel <= 0.02 and reduction_gap <= 1e-15
    _report(
        6,
        ok,
        f"frequency checks worst {max(checks):.2f} of 3-sigma budget, cover "
        f"error {cover_rel:.4f}, exact-reduction gap {reduction_gap:.1e}",
    )


def test_criterion_07_calls_per_node_slopes(tmp_path):
    t0 = time.monotonic()
    result = bench_slopes(str(tmp_path / "slopes"), 1234)
    elapsed = time.monotonic() - t0
    slopes = result["slopes"]
    ok = (
        slopes["rrt"] >= 1.5 * slopes["qrrt"]
        and slopes["qrrt"] <= slopes["pqrrt-shared"] <= slopes["prrt"]
        and elapsed < 600.0
    )
    _report(
        7,
        ok,
        "slopes calls/node: "
        + ", ".join(f"{name} {slopes[name]:.2f}" for name in ("rrt", "qrrt", "pqrrt-shared", "prrt"))
        + f" in {elapsed:.1f}s",
    )


def test_criterion_08_pooled_collision_frequency():
    angles = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    points = np.stack([1.0 + 0.3 * np.cos(angles), 1.0 + 0.3 * np.sin(angles)], axis=1)
    steps = 20_000
    details = []
    ok = True
    for m in (1, 2, 4):
        mask = _mask(4, m)
        db = Database(
            n=4,
            points=points,
            parent_index=np.zeros(16, dtype=int),
            parent_points=np.tile([1.0, 1.0], (16, 1)),
            good_mask=mask,
            m=m,
        )
        k = qsim.optimal_iterations(4, m)
        pg = qsim.good_probability(4, m, k)
        rngs = worker_rngs(WorkerPool(p=8, mode="shared", seed_base=20_000 + m))
        rec = TrialRecord(algorithm="fixture", seed=0)
        hits = 0
        for _ in range(steps):
            measured, _ = _measure_and_finalize(db, k, rngs, rec, len(rngs))
            indices = set(measured.tolist())
            if len(indices) == 1 and mask[next(iter(indices))]:
                hits += 1
        freq = hits / steps
        closed = prob.prob_all_same(prob.ParallelSearchModel(n=4, m=m, p=8, pG=pg))
        sigma = math.sqrt(closed * (1.0 - closed) / steps)
        dev = abs(freq - closed) / sigma
        ok = ok and dev <= 3.0
        details.append(f"m={m}: {dev:.2f} sigma")
    _report(8, ok, f"all-same frequency over {steps} pooled steps, " + ", ".join(details))


def test_criterion_09_corridor_concentration(tmp_path):
    result = bench_corridor(str(tmp_path / "corridor"), 55)
    rrt_nodes = result["rrt"]["corridor_nodes"]
    qrrt_nodes = result["qrrt"]["corridor_nodes"]
    ok = qrrt_nodes >= 2 * rrt_nodes and rrt_nodes > 0
    _report(9, ok, f"corridor nodes: amplified {qrrt_nodes} vs classical {rrt_nodes}")


def test_criterion_10_annealed_edge_band(tmp_path):
    result = bench_annealing(str(tmp_path / "annealing"), 7)
    annealed = float(np.mean([run["mean_edge"] for run in result["qda"]]))
    standard = float(np.mean([run["mean_edge"] for run in result["qrrt"]]))
    ok = 2.7 <= annealed <= 4.2 and annealed >= 1.5 * standard
    _report(
        10,
        ok,
        f"mean edge length: annealed {annealed:.3f} (band [2.7, 4.2]) vs standard {standard:.3f}",
    )


def _rows_without_wall_time(path: Path) -> list[list[str]]:
    rows = [line.split(",") for line in path.read_text().strip().split("\n")]
    if rows and "wall_s" in rows[0]:
        drop = [i for i, name in enumerate(rows[0]) if name == "wall_s"]
        rows = [[v for i, v in enumerate(row) if i not in drop] for row in rows]
    return rows


# The four recipes at small overrides: (name, function, overrides, seed base).
SMALL_RECIPES = (
    ("slopes", bench_slopes, dict(envs=3, target_nodes=6, n=6), 9001),
    ("heatmap", bench_heatmap, dict(trials=4, cutoff=6, n=6), 9002),
    ("corridor", bench_corridor, dict(trials=4, cutoff=10, n=6), 9003),
    ("annealing", bench_annealing, dict(trees=1, target_nodes=6, n=6), 9004),
)

# sha256 of every artifact of SMALL_RECIPES and of the CLI_RUNS below, CSVs
# with the wall_s column stripped. Any change of these is a change of the
# seeded planner output.
GOLDEN_DIGESTS = {
    "slopes/runs.csv": "b2bd8acb9af4ee74de45402602161bb0b9612893eb2f2f457122280406127eef",
    "slopes/slope_points.csv": "2339d56c60643a8499604bba41511b43a6eca304b8669d2db4fa549318b3b1fa",
    "slopes/slopes.csv": "d17e6cc873b60fd7626f1cddf9877ee670a0b319b0b0b7cabdb0aac07bf6c561",
    "heatmap/heatmap_qrrt.csv": "15a14cb8c868458608143cd72b83060d7f12209b86b5e083d7d69954d51938da",
    "heatmap/heatmap_qrrt.pgm": "ff76685568de267693acfc8ca265e5ffc48e649b3dc50d76bfc0840997dbc01d",
    "heatmap/heatmap_rrt.csv": "ff8e5f352f9e674d0463fcc1452dd982e67530b4a2fd16205df70adc18a6da53",
    "heatmap/heatmap_rrt.pgm": "ebe8c0b5a001b1e5e99e95205f8a7e13c094417fd6c29dd25c217f9ddc0aa438",
    "heatmap/summary.csv": "a3a61cf0ccc72dcdec96ea73a2fd62d7808d6cf76acd4acd72d7f9481db2dc41",
    "corridor/corridor.csv": "36126c7de7af6bf7efbc2a233db5befa276f4643156478fe9c120341b9bed802",
    "annealing/annealing.csv": "27971544fc35a30d93f95ba17855de82d9b1149cb60841b51c9e07a3a900177f",
    "cli/analyze.csv": "086dd7b41dbbf273e777674e4996fd2a7e7f046d773dee3655f798567ced9c95",
    "cli/bench-annealing/stdout": "3a2a9c489bd6d76a6856165ae1a1b4012d0f7ffb73efa968bbe80cad954e217a",
    "cli/bench-corridor/stdout": "70e6c7b9610a788916330947cdb424b1617938b610fdf15036b36a1c5dd015c7",
    "cli/bench-heatmap/stdout": "a4ab940602518792ca0ef7d96ff2fa6e74248dbe958e730996ff8e2de278face",
    "cli/bench-slopes/stdout": "65409f70e04d7a73d70d65b329c879f5bd3a0edd50f19d0fbde9eaf701e9f508",
    "cli/plan-pqrrt-shared-amp/path.json": "d0e75268790c8b8ae0f39567e8c2a775be624f78eb7141b0d294b9ace1cdb011",
    "cli/plan-pqrrt-shared-amp/record.csv": "cadb062c0bc12c6ed6cb8fb76741ef899c49c084c6c8b2b1394cbae286c1a45a",
    "cli/plan-pqrrt-shared-amp/stdout": "251ffd1f6b1d866c00819373241a0363ba19557537b6327fe1de5fc4e361bba1",
    "cli/plan-pqrrt-shared-amp/tree.json": "d0273a885813d69ff0c970d6324bc4131131de2dd7b315d8991591000bccb144",
    "cli/plan-pqrrt-shared/amplitudes.csv": "b01f02930dbb72fb8e583f49847ed536b3a09017788d5ece069233faed0aabf6",
    "cli/plan-pqrrt-shared/path.json": "d0e75268790c8b8ae0f39567e8c2a775be624f78eb7141b0d294b9ace1cdb011",
    "cli/plan-pqrrt-shared/record.csv": "28ccc244df06625c324b39dd301e8b747510a47591a2cd148d95bbcc24c56f9c",
    "cli/plan-pqrrt-shared/stdout": "51cc102cc75931f5ae0d6fe635874e479f80302f8874f4299237b5912821cbd1",
    "cli/plan-pqrrt-shared/tree.json": "d0273a885813d69ff0c970d6324bc4131131de2dd7b315d8991591000bccb144",
    "cli/plan-pqrrt-unshared/path.json": "8ad20843dcd481483c43aa07c858883f78d0d8e9363319cbbd98b5507c1f72e6",
    "cli/plan-pqrrt-unshared/record.csv": "7a4156cb95765d344f54a2d846a1608d0765e14061c94180b5b35143d966f235",
    "cli/plan-pqrrt-unshared/stdout": "56850a02bb7d7baddd8ab0e2bb7de16b0eac28806150b0c6bbba274fb9e54b1c",
    "cli/plan-pqrrt-unshared/tree.json": "efea777347f335a15f3ab853f6b5477ea8734153be0e56446ce60e71083a0f23",
    "cli/plan-prrt/path.json": "cb1fa8ec375453a37aa8f8113040b66fffc19b08c3b6e9ee87e8b339193d6e7b",
    "cli/plan-prrt/record.csv": "7e658b3ae9d0dbba548caffb0a1ed32989252647bdf814db38eb02b995fe7ab3",
    "cli/plan-prrt/stdout": "0c2199e03943a2a06423c0baa12e5f514ac941ef6f76873789900f157b652883",
    "cli/plan-prrt/tree.json": "5b229d53de97e57edb3ca51312d70f99e7c0d43fb9b68d7408a5327f07e1f309",
    "cli/plan-qda/amplitudes.csv": "f3fa5c387e015d82003a3e558cac6b59251f27cc19e0203aa5e6b19a7809e3f4",
    "cli/plan-qda/path.json": "d3d6d4cc86f29c06fff3ce675085509e1b2ac1eaaadf0ccadf7428d3701c43a1",
    "cli/plan-qda/record.csv": "f4acf3aef89d1c5f18fe669a0bb39e7018065860bd59316216bd7b32b0ca370b",
    "cli/plan-qda/stdout": "912b975c96cd809744165dd55d35001cddacf70792b8d6f3bdaefa727d3b6a69",
    "cli/plan-qda/tree.json": "8022606b08f3ffabca85a3bca48a803cf5924ab49e0756404ec688cb2c881ebe",
    "cli/plan-qrrt/amplitudes.csv": "b01f02930dbb72fb8e583f49847ed536b3a09017788d5ece069233faed0aabf6",
    "cli/plan-qrrt/path.json": "c790f7a825d2cac9ac31a07834459c4c0591f5c4522738e7c086b91bb828bfc7",
    "cli/plan-qrrt/record.csv": "a60caa63d1b086f6ac3d96623e76fc2b6b82edbe2c8ce5e878620eced4d5ebae",
    "cli/plan-qrrt/stdout": "b01ac9448e291432fe2a85cfc11989629c00d9322e76536d34926e3479ae28db",
    "cli/plan-qrrt/tree.json": "376fe5a44b97444968c267688066e1920101259ebbccbb3c018703f2ca209ad4",
    "cli/plan-rrt/path.json": "a23ad7255a441a53665ca01d4f45932055f1085453834e35b85fe6abb40f11cc",
    "cli/plan-rrt/record.csv": "668b85f0f73573fb19947547700e99d3a413bdaf0054beacf66a53110f87542f",
    "cli/plan-rrt/stdout": "9bbea6d9a1710f1ef0e5581d3e0203f64756fd53de43a4835949d7ce7d998b12",
    "cli/plan-rrt/tree.json": "67fd407d140e4f5cbbeb2242ae7b35f696b4258bcb8de30de6b8bf928fc6aa76",
    "cli/world.json": "ec30677081e9ffe730db148813785ac1f64bea8f8bfde557ac5fac38daa82bee",
}


def _artifact_digest(path: Path) -> str:
    if path.suffix == ".csv":
        data = "\n".join(",".join(row) for row in _rows_without_wall_time(path)).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def _changed(digests: dict, cli: bool) -> list[str]:
    """Keys of one half of GOLDEN_DIGESTS (the cli/ keys or the rest) whose digest differs."""
    golden = {k: v for k, v in GOLDEN_DIGESTS.items() if k.startswith("cli/") == cli}
    return sorted(k for k in golden.keys() | digests.keys() if digests.get(k) != golden.get(k))


def test_bench_recipe_artifacts_match_golden_digests(tmp_path):
    digests = {}
    for name, fn, overrides, seed_base in SMALL_RECIPES:
        out = tmp_path / name
        fn(str(out), seed_base, **overrides)
        digests.update({f"{name}/{p.name}": _artifact_digest(p) for p in out.iterdir()})
    changed = _changed(digests, cli=False)
    assert not changed, f"artifacts differ from the golden digests: {changed}"


# A small seeded world, and one small seeded run of every other CLI output on
# it: (label, argv). Each plan run writes record.csv, tree.json and path.json
# into out/<label>, and --dump-amplitudes the amplified first database.
CLI_WORLD = ["--seed", "9005", "--bounds", "0", "0", "10", "10", "--obstacles", "8", "--size-range", "0.5", "1.5"]
CLI_WORLD += ["--delta", "0.6", "--x0", "1.5", "1.5", "--xg", "8.5", "8.5"]
CLI_PLAN = ["--seed", "9006", "--n", "5", "--p", "3", "--max-steps", "400"]
CLI_RUNS = (
    ("plan-rrt", ["--algo", "rrt"]),
    ("plan-qrrt", ["--algo", "qrrt", "--dump-amplitudes"]),
    ("plan-qda", ["--algo", "qda", "--dump-amplitudes"]),
    ("plan-prrt", ["--algo", "prrt"]),
    ("plan-pqrrt-shared", ["--algo", "pqrrt-shared", "--dump-amplitudes"]),
    ("plan-pqrrt-shared-amp", ["--algo", "pqrrt-shared", "--shared-amplification"]),
    ("plan-pqrrt-unshared", ["--algo", "pqrrt-unshared"]),
)
CLI_ANALYZE = ["--seed", "9007", "--trials", "2000", "--cover-episodes", "300"]


def _cli_digests(tmp_path: Path, capsys) -> dict:
    """Digests of every CLI output of the small runs above, stdout included."""
    digests = {}

    def run(key, argv):
        capsys.readouterr()
        assert main(argv) == 0, key
        digests[f"cli/{key}/stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    world = tmp_path / "world.json"
    assert main(["gen-env", "--out", str(world), *CLI_WORLD]) == 0
    digests["cli/world.json"] = _artifact_digest(world)
    for label, argv in CLI_RUNS:
        out = tmp_path / label
        if argv[-1] == "--dump-amplitudes":
            argv = [*argv, str(out / "amplitudes.csv")]
        run(label, ["plan", "--env", str(world), "--out", str(out), *CLI_PLAN, *argv])
        digests.update({f"cli/{label}/{p.name}": _artifact_digest(p) for p in out.iterdir()})
    analysis = tmp_path / "analyze.csv"
    assert main(["analyze", "--out", str(analysis), *CLI_ANALYZE]) == 0
    digests["cli/analyze.csv"] = _artifact_digest(analysis)
    for name, _, overrides, seed_base in SMALL_RECIPES:
        flags = [arg for key, value in overrides.items() for arg in ("--" + key.replace("_", "-"), str(value))]
        run(f"bench-{name}", ["bench", name, "--seed-base", str(seed_base), "--out", str(tmp_path / name), *flags])
    return digests


def test_cli_outputs_match_golden_digests(tmp_path, capsys):
    changed = _changed(_cli_digests(tmp_path, capsys), cli=True)
    assert not changed, f"CLI outputs differ from the golden digests: {changed}"


def test_criterion_11_bench_recipes_are_deterministic(tmp_path):
    mismatches = []
    for name, fn, overrides, seed_base in SMALL_RECIPES:
        dirs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}-{run}"
            fn(str(out), seed_base, **overrides)
            dirs.append(out)
        first = sorted(p.name for p in dirs[0].iterdir())
        second = sorted(p.name for p in dirs[1].iterdir())
        if first != second:
            mismatches.append(f"{name}: file sets differ")
            continue
        for fname in first:
            a, b = dirs[0] / fname, dirs[1] / fname
            if fname.endswith(".csv"):
                same = _rows_without_wall_time(a) == _rows_without_wall_time(b)
            else:
                same = a.read_bytes() == b.read_bytes()
            if not same:
                mismatches.append(f"{name}/{fname}")
    ok = not mismatches
    _report(
        11,
        ok,
        "all four recipes byte-stable across reruns"
        if ok
        else "unstable artifacts: " + ", ".join(mismatches),
    )


def test_criterion_12_gain_stability_guard():
    ok_reject = False
    message = ""
    try:
        load_system(CONFIGS_DIR / "system_unstable_example.json")
    except UnstableGainError as exc:
        message = str(exc)
        ok_reject = "spectral radius" in message

    # Independent check: closed-loop eigenvalues from the raw config via the
    # 2x2 trace/determinant formula, no package code involved.
    raw = json.loads((CONFIGS_DIR / "system_unstable_example.json").read_text())
    a, b, k = (raw[key] for key in ("A", "B", "K"))
    bk = [[sum(b[i][t] * k[t][j] for t in range(2)) for j in range(2)] for i in range(2)]
    acl = [[a[i][j] - bk[i][j] for j in range(2)] for i in range(2)]
    tr = acl[0][0] + acl[1][1]
    det = acl[0][0] * acl[1][1] - acl[0][1] * acl[1][0]
    disc = math.sqrt(tr * tr - 4.0 * det)
    eigs = sorted(((tr - disc) / 2.0, (tr + disc) / 2.0))
    ok_eigs = abs(eigs[0] - (-4.0)) < 1e-12 and abs(eigs[1] - (-2.7)) < 1e-12

    accepted = load_system(CONFIGS_DIR / "system_default.json")
    ok_accept = accepted is not None

    ok = ok_reject and ok_eigs and ok_accept
    _report(
        12,
        ok,
        f"unstable gain rejected (closed-loop eigenvalues {eigs[0]:.1f}, {eigs[1]:.1f}); "
        "shipped default accepted",
    )
