"""Closed-loop tracking dynamics and the ground-truth reachability predicate."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from qrrt import cli, dynamics, env as envmod
from qrrt.dynamics import (
    DEFAULT_A,
    DEFAULT_B,
    DEFAULT_GAIN,
    UNSTABLE_EXAMPLE_GAIN,
    LinearSystem,
    UnstableGainError,
    _advance,
    default_system,
    load_system,
    reachable,
    reachable_batch,
    system_from_config,
)


def eig2x2(m):
    """Closed-form 2x2 eigenvalues: an oracle independent of numpy.linalg."""
    a, b = m[0]
    c, d = m[1]
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4.0 * det
    if disc >= 0:
        r = math.sqrt(disc)
        return complex((tr + r) / 2), complex((tr - r) / 2)
    r = math.sqrt(-disc)
    return complex(tr / 2, r / 2), complex(tr / 2, -r / 2)


def spectral_radius(m):
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(m, dtype=float)))))


def matmul2(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def closed_loop_matrix(a, b, k):
    out = [[0.0, 0.0], [0.0, 0.0]]
    for i in range(2):
        for j in range(2):
            out[i][j] = a[i][j] - sum(b[i][r] * k[r][j] for r in range(2))
    return out


# ---------------------------------------------------------------------------
# Stability guard
# ---------------------------------------------------------------------------


def test_default_gain_is_stable_by_closed_form_eigenvalues():
    acl = closed_loop_matrix(DEFAULT_A, DEFAULT_B, DEFAULT_GAIN)
    lam1, lam2 = eig2x2(acl)
    assert max(abs(lam1), abs(lam2)) < 1.0
    sys = default_system()
    assert np.allclose(sys.a_cl, acl)


def test_example_gain_is_unstable_by_closed_form_eigenvalues():
    acl = closed_loop_matrix(DEFAULT_A, DEFAULT_B, UNSTABLE_EXAMPLE_GAIN)
    lam1, lam2 = eig2x2(acl)
    eigs = sorted((lam1.real, lam2.real))
    assert eigs == pytest.approx([-4.0, -2.7])
    assert max(abs(lam1), abs(lam2)) >= 1.0


def test_unstable_gain_rejected_with_diagnostic():
    with pytest.raises(UnstableGainError) as exc_info:
        LinearSystem(a=DEFAULT_A, b=DEFAULT_B, k=UNSTABLE_EXAMPLE_GAIN, horizon=50)
    msg = str(exc_info.value)
    assert "spectral radius" in msg
    assert "-4" in msg and "-2.7" in msg


def test_spectral_radius_matches_closed_form():
    m = [[0.3, 0.7], [-0.2, 0.4]]
    lam1, lam2 = eig2x2(m)
    assert spectral_radius(m) == pytest.approx(max(abs(lam1), abs(lam2)), abs=1e-12)


def test_horizon_and_capture_radius_validation():
    with pytest.raises(ValueError):
        LinearSystem(a=DEFAULT_A, b=DEFAULT_B, k=DEFAULT_GAIN, horizon=0)
    with pytest.raises(ValueError):
        LinearSystem(a=DEFAULT_A, b=DEFAULT_B, k=DEFAULT_GAIN, horizon=10, capture_radius=0.0)


def test_horizon_is_capped():
    for horizon in (1001, 10**9):
        with pytest.raises(ValueError, match=r"horizon must be in \[1, 1000\]"):
            LinearSystem(a=DEFAULT_A, b=DEFAULT_B, k=DEFAULT_GAIN, horizon=horizon)
    assert default_system(horizon=dynamics.MAX_HORIZON).horizon == 1000


def test_tail_memory_is_bounded_at_the_horizon_cap(monkeypatch):
    # A slow loop (rho = 0.999) with errors of 2.7 delta captures near step
    # 993, so 256 live tail rows on the slopes world run nearly the full
    # capped horizon. The tail holds one window of their points at a time:
    # 3.3 MiB traced, where holding every step's points took 49 MiB.
    world = envmod.generate_random_env(cli._env_spec(cli.SLOPES_DEFAULTS), 1234)
    rng = np.random.default_rng(1234)
    samples = envmod.sample_uniform_batch(world, rng, 4096)
    targets = samples[envmod.points_free(world, samples)][:256]
    angles = rng.uniform(0.0, 2.0 * math.pi, 256)
    parents = targets + 2.7 * world.delta * np.c_[np.cos(angles), np.sin(angles)]
    slow = LinearSystem(a=0.999 * np.eye(2), b=np.eye(2), k=np.zeros((2, 2)), horizon=dynamics.MAX_HORIZON)
    tracemalloc.start()
    try:
        reach = reachable_batch(world, slow, parents, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reach.sum() > 128  # most rows ran their long trajectories to capture
    assert peak <= 4 * 2**20, f"reachable_batch peaked at {peak / 2**20:.1f} MiB"
    monkeypatch.setattr(dynamics, "_TAIL_WINDOW", 10**9)  # one window: every step's points at once
    np.testing.assert_array_equal(reachable_batch(world, slow, parents, targets), reach)


def test_matrices_must_be_2x2():
    with pytest.raises(ValueError):
        LinearSystem(a=((1.0,),), b=DEFAULT_B, k=DEFAULT_GAIN, horizon=10)


# ---------------------------------------------------------------------------
# One step of the error recursion
# ---------------------------------------------------------------------------


def closed_loop_step(sys, e):
    return _advance(np.asarray(e, dtype=float).reshape(1, 2), sys.a_cl)[0]


@pytest.mark.parametrize("rows", [1, 100_000])
def test_advance_matches_the_broadcast_reference(rows):
    # The column-wise step must give the bits of the row-broadcast formula
    # e[:, :1] * a_cl[:, 0] + e[:, 1:] * a_cl[:, 1], for a lone row and a
    # large batch, across magnitudes and with non-finite entries.
    rng = np.random.default_rng(rows)
    err = rng.normal(size=(rows, 2)) * 10.0 ** rng.uniform(-300, 300, (rows, 2))
    if rows > 1:
        err[:12] = np.array([[np.nan, 1.0], [np.inf, -2.0], [-np.inf, np.inf], [0.0, -0.0]] * 3)
    for a_cl in (default_system().a_cl, np.array([[0.3, -0.7], [0.45, 0.2]])):
        with np.errstate(invalid="ignore", over="ignore"):
            expect = err[:, :1] * a_cl[:, 0] + err[:, 1:] * a_cl[:, 1]
            got = _advance(err, a_cl)
        assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


def test_origin_is_fixed_point(system):
    assert np.array_equal(closed_loop_step(system, (0.0, 0.0)), [0.0, 0.0])


def test_diagonal_contraction_case():
    sys = LinearSystem(
        a=((1.5, 0.0), (0.0, 1.5)),
        b=((1.0, 0.0), (0.0, 1.0)),
        k=((1.0, 0.0), (0.0, 1.0)),
        horizon=10,
    )
    assert np.allclose(sys.a_cl, [[0.5, 0.0], [0.0, 0.5]])
    assert np.allclose(closed_loop_step(sys, (1.0, 0.0)), [0.5, 0.0])


def test_default_gain_step_matches_matrix_multiply_oracle(system):
    acl = closed_loop_matrix(DEFAULT_A, DEFAULT_B, DEFAULT_GAIN)
    expect = matmul2(acl, (1.0, 1.0))
    assert np.allclose(closed_loop_step(system, (1.0, 1.0)), expect, atol=1e-15)


def test_eventual_contraction_of_power_iterates(system):
    acl = np.asarray(system.a_cl)
    norms = []
    power = np.eye(2)
    for _ in range(20):
        power = power @ acl
        norms.append(np.linalg.norm(power, 2))
    assert min(norms) < 1.0


# ---------------------------------------------------------------------------
# reachable
# ---------------------------------------------------------------------------


def scalar_reachable(env, sys, parent, target):
    """Plain-python trajectory simulation: the independent oracle."""
    if not envmod.point_free(env, target):
        return False
    radius = sys.capture_radius if sys.capture_radius is not None else env.delta
    acl = [[float(sys.a_cl[0][0]), float(sys.a_cl[0][1])],
           [float(sys.a_cl[1][0]), float(sys.a_cl[1][1])]]
    e = (parent[0] - target[0], parent[1] - target[1])
    x = (parent[0], parent[1])
    if math.hypot(*e) <= radius:
        return True
    for _ in range(sys.horizon):
        e = matmul2(acl, e)
        x_next = (target[0] + e[0], target[1] + e[1])
        if not envmod.segment_free(env, x, x_next):
            return False
        x = x_next
        if math.hypot(*e) <= radius:
            return True
    return False


def test_target_equals_parent(free_env, system):
    assert reachable(free_env, system, (3.0, 3.0), (3.0, 3.0))


def test_target_inside_obstacle(box_env, system):
    assert not reachable(box_env, system, (1.0, 1.0), (5.0, 5.0))


def test_free_channel_target_reached_within_horizon(free_env, system):
    parent, target = (2.0, 2.0), (6.0, 6.0)
    assert reachable(free_env, system, parent, target)
    assert scalar_reachable(free_env, system, parent, target)


def test_empty_environment_everything_reachable(free_env):
    sys = default_system(horizon=200)
    r = np.random.default_rng(3)
    for _ in range(50):
        parent = r.uniform(0.5, 9.5, size=2)
        target = r.uniform(0.5, 9.5, size=2)
        assert reachable(free_env, sys, parent, target)


def test_reachable_matches_scalar_oracle(box_env, system, rng):
    agree = 0
    for _ in range(300):
        parent = rng.uniform(0.0, 10.0, size=2)
        if not envmod.point_free(box_env, parent):
            continue
        target = rng.uniform(0.0, 10.0, size=2)
        assert reachable(box_env, system, parent, target) == scalar_reachable(
            box_env, system, parent, target
        )
        agree += 1
    assert agree > 200


def test_reachable_batch_matches_single(box_env, system, rng):
    parents = np.tile([1.0, 1.0], (200, 1))
    targets = rng.uniform(0.0, 10.0, size=(200, 2))
    batch = reachable_batch(box_env, system, parents, targets)
    for i in range(200):
        assert batch[i] == reachable(box_env, system, parents[i], targets[i])


def blocking_rows(env, sys, rng):
    """Paired rows covering every way a row leaves the horizon loop."""
    rc = env.delta if sys.capture_radius is None else sys.capture_radius
    lo, hi = env.bounds[:2], env.bounds[2:]
    parents = rng.uniform(lo, hi, size=(60, 2))
    targets = parents + rng.normal(0.0, 3.0, size=(60, 2))  # some out of bounds
    targets[:8] = parents[:8] + rng.uniform(-0.5, 0.5, size=(8, 2)) * rc  # captured at step 0
    targets[8:12] = parents[8:12] + np.array([[np.nan, 0.0], [np.inf, 1.0], [0.0, -np.inf], [np.nan, np.nan]])
    targets[12:15] = lo - 1.0, hi + 0.5, (hi[0] + 1e6, lo[1])
    order = rng.permutation(60)
    return parents[order], targets[order], order < 8


@pytest.mark.parametrize("gain", [DEFAULT_GAIN, ((-4.0, -5.0), (1.2, 2.5))], ids=["diagonal", "coupled"])
@pytest.mark.parametrize("block", [1, 3, 7])
def test_reachable_batch_blocks_match_one_block(monkeypatch, rng, gain, block):
    spec = envmod.GeneratorSpec(bounds=(0.0, 0.0, 20.0, 20.0), obstacle_count=45, size_range=(1.5, 3.0), delta=0.4)
    env = envmod.generate_random_env(spec, 1234)
    sys = LinearSystem(a=DEFAULT_A, b=DEFAULT_B, k=gain, horizon=20)
    parents, targets, step0 = blocking_rows(env, sys, rng)
    monkeypatch.setattr(dynamics, "_REACH_BLOCK_ROWS", 10**9)
    # 21 rows is a multiple of every block size here; 60 is not of 7.
    whole = {rows: reachable_batch(env, sys, parents[:rows], targets[:rows]) for rows in (0, 1, 21, 60)}
    assert 0 < whole[60].sum() < 60 and whole[60][step0].any()
    monkeypatch.setattr(dynamics, "_REACH_BLOCK_ROWS", block)
    for rows, expect in whole.items():
        got = reachable_batch(env, sys, parents[:rows], targets[:rows])
        assert got.dtype == bool and got.shape == (rows,)
        np.testing.assert_array_equal(got, expect)


def streaming_rows(env, sys, rng):
    """Rows in random order that settle at step 0, at later steps or only past the horizon.

    Besides random pairs at several distances, some targets lie inside an
    obstacle or outside the bounds with the parent within the capture
    radius: captured at step 0, they are reachable only if the target test
    is skipped.
    """
    rc = env.delta if sys.capture_radius is None else sys.capture_radius
    lo, hi = env.bounds[:2], env.bounds[2:]
    parents = rng.uniform(lo, hi, size=(150, 2))
    scale = np.repeat([0.3, 1.0, 3.0, 10.0], 30)[:, None] * rc * rng.normal(size=(120, 2))
    targets = parents.copy()
    targets[:120] += scale
    corners = env.obstacles[:20, :2] + 1e-9
    targets[120:140] = corners
    parents[120:140] = corners - 0.5 * rc
    targets[140:] = lo - 0.5 * rc * rng.uniform(size=(10, 2))
    parents[140:] = targets[140:] + 0.6 * rc
    order = rng.permutation(150)
    return parents[order], targets[order]


@pytest.mark.parametrize("gain", [DEFAULT_GAIN, ((-4.0, -5.0), (1.2, 2.5))], ids=["diagonal", "coupled"])
@pytest.mark.parametrize("horizon", [3, 20])
def test_reachable_batch_streamed_rows_match_scalar_oracle(monkeypatch, rng, gain, horizon):
    # Small blocks make rows join at different steps, so a fused tail holds
    # rows with different steps left; horizon 3 expires rows inside it. Tail
    # sizes: never (0, and 1, since a lone row stays in the loop), from two
    # rows, from seven, and every row once all have joined (10**9). Tail
    # windows of 1, 2 and 5 steps split a tail into windows whose pending
    # rows carry on into the next one.
    spec = envmod.GeneratorSpec(bounds=(0.0, 0.0, 20.0, 20.0), obstacle_count=45, size_range=(1.5, 3.0), delta=0.4)
    env = envmod.generate_random_env(spec, 1234)
    sys = LinearSystem(a=DEFAULT_A, b=DEFAULT_B, k=gain, horizon=horizon)
    parents, targets = streaming_rows(env, sys, rng)
    expect = np.array([scalar_reachable(env, sys, p, t) for p, t in zip(parents, targets)])
    assert 10 < expect.sum() < 140
    for block in (1, 3, 7, 16):
        monkeypatch.setattr(dynamics, "_REACH_BLOCK_ROWS", block)
        for tail in (0, 1, 2, 7, 10**9):
            monkeypatch.setattr(dynamics, "_REACH_TAIL_ROWS", tail)
            for window in (1, 2, 5, 64) if tail > 1 else (64,):
                monkeypatch.setattr(dynamics, "_TAIL_WINDOW", window)
                got = reachable_batch(env, sys, parents, targets)
                np.testing.assert_array_equal(got, expect, err_msg=f"{block} {tail} {window}")


@pytest.mark.parametrize("turn", [0.0, 0.03], ids=["straight", "spiral"])
def test_windowed_tail_matches_scalar_oracle(monkeypatch, box_env, rng, turn):
    # Slow rows (rho = 0.985) on the box world capture within their horizon
    # of 150 steps only from 4.83 or closer. Straight rows whose line crosses
    # the central obstacle are blocked about 20 steps in, windows before
    # they would capture; rows from farther away run out of horizon. Spiral
    # rows turn 0.03 rad a step about their target, so a segment that did
    # not start at the previous window's last point would cut the curve.
    c, s = math.cos(turn), math.sin(turn)
    sys = LinearSystem(a=0.985 * np.array([[c, -s], [s, c]]), b=np.eye(2), k=np.zeros((2, 2)), horizon=150)
    parents = np.c_[rng.uniform(2.5, 3.5, 60), rng.uniform(3.0, 7.0, 60)]
    targets = parents + np.c_[rng.uniform(2.0, 6.5, 60), rng.normal(0.0, 1.0, 60)]
    expect = np.array([scalar_reachable(box_env, sys, p, t) for p, t in zip(parents, targets)])
    assert 5 < expect.sum() < 55
    if not turn:
        crosses = np.array([not envmod.segment_free(box_env, p, t) for p, t in zip(parents, targets)])
        in_reach = envmod.points_free(box_env, targets) & (np.hypot(*(targets - parents).T) <= 0.5 / 0.985**150)
        assert (crosses & in_reach).sum() > 5 and (~crosses & ~in_reach).sum() > 5
    for window in (1, 7, 64, 10**9):
        monkeypatch.setattr(dynamics, "_TAIL_WINDOW", window)
        np.testing.assert_array_equal(reachable_batch(box_env, sys, parents, targets), expect, err_msg=str(window))


def test_reachable_deterministic(box_env, system):
    args = (box_env, system, (1.0, 1.0), (7.5, 2.5))
    assert reachable(*args) == reachable(*args)


def test_capture_radius_falls_back_to_env_delta(free_env):
    explicit = default_system(capture_radius=free_env.delta)
    fallback = default_system()
    assert fallback.capture_radius is None
    r = np.random.default_rng(17)
    parents = r.uniform(0.5, 9.5, size=(100, 2))
    targets = r.uniform(0.5, 9.5, size=(100, 2))
    assert np.array_equal(
        reachable_batch(free_env, explicit, parents, targets),
        reachable_batch(free_env, fallback, parents, targets),
    )


def test_short_horizon_blocks_far_targets(free_env):
    sys = default_system(horizon=1, capture_radius=0.1)
    assert not reachable(free_env, sys, (1.0, 1.0), (9.0, 9.0))


# ---------------------------------------------------------------------------
# Config I/O
# ---------------------------------------------------------------------------


def test_system_from_config_round_trip():
    cfg = {
        "A": [list(r) for r in DEFAULT_A],
        "B": [list(r) for r in DEFAULT_B],
        "K": [list(r) for r in DEFAULT_GAIN],
        "horizon": 50,
        "capture_radius": None,
    }
    sys = system_from_config(cfg)
    assert sys.horizon == 50
    assert sys.capture_radius is None
    assert np.allclose(sys.a_cl, closed_loop_matrix(DEFAULT_A, DEFAULT_B, DEFAULT_GAIN))


def test_shipped_default_config_accepted():
    sys = load_system("configs/system_default.json")
    assert spectral_radius(sys.a_cl) < 1.0


def test_shipped_unstable_config_rejected():
    with pytest.raises(UnstableGainError, match="spectral radius"):
        load_system("configs/system_unstable_example.json")


def test_system_config_must_be_an_object():
    for payload in ([1, 2], "A", 3, None):
        with pytest.raises(ValueError, match="JSON object"):
            system_from_config(payload)


def test_load_system_missing_key(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"A": [[1, 0], [0, 1]]}))
    with pytest.raises(ValueError):
        load_system(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("horizon", None),
        ("K", {"x": 1}),
        ("capture_radius", [1]),
        # JSON true and false are not numbers: none may read as 1 or 0.
        ("horizon", True),
        ("capture_radius", True),
        ("A", [[-1.5, -2.0], [True, 3.0]]),
    ],
)
def test_system_config_rejects_values_of_the_wrong_type(field, value):
    cfg = {"A": [list(r) for r in DEFAULT_A], "B": [list(r) for r in DEFAULT_B], "K": [list(r) for r in DEFAULT_GAIN]}
    cfg[field] = value
    with pytest.raises(ValueError, match="wrong type"):
        system_from_config(cfg)


def test_system_config_rejects_a_fractional_horizon():
    # A horizon of 2.7 is not an integer: it may not build a system of horizon 2.
    cfg = {"A": [list(r) for r in DEFAULT_A], "B": [list(r) for r in DEFAULT_B], "K": [list(r) for r in DEFAULT_GAIN]}
    with pytest.raises(ValueError, match="horizon must be an integer, got 2.7"):
        system_from_config({**cfg, "horizon": 2.7})

def test_integral_and_numpy_system_values_still_pass():
    cfg = {"A": [list(r) for r in DEFAULT_A], "B": [list(r) for r in DEFAULT_B], "K": [list(r) for r in DEFAULT_GAIN]}
    sys = system_from_config({**cfg, "horizon": 7.0, "capture_radius": 1})
    assert sys.horizon == 7 and type(sys.horizon) is int and sys.capture_radius == 1.0
    sys = LinearSystem(a=np.array(DEFAULT_A), b=DEFAULT_B, k=DEFAULT_GAIN, horizon=np.int64(9), capture_radius=np.float32(0.5))
    assert sys.horizon == 9 and sys.capture_radius == 0.5
