import warnings
from dataclasses import dataclass

import numpy as np
import pytest

import perfnet.engine as engine
from perfnet.engine import (
    RunConfig,
    StepSchedule,
    agent_streams,
    dsgd_gd_step,
    gamma,
    run,
)
from perfnet.environment import (
    GAUSSIAN,
    STRATEGIC,
    UnsupportedKindError,
    make_engine_sampler,
    make_heterogeneous_suite,
)
from perfnet.topology import Mixing, build_complete, build_ring, uniform_neighbor_weights
from reference import decoupled_risk_gradient, sample_batch, stepped


def gaussian_env(n, eps_avg, spread=0.0, zbar=10.0, sigma2=0.0):
    return make_heterogeneous_suite(n, eps_avg, spread, zbar=zbar, sigma2=sigma2)


def draw_for(env, seed, batch=1):
    """An unbuffered sampler of ``env`` on the streams of ``seed``, for single steps on (n, d)."""
    draw = make_engine_sampler([env], batch, [agent_streams(seed, env.n)], chunk=1)
    return lambda theta: tuple(part[0] for part in draw(theta[None]))


def consensus_sink(t, theta):
    return (t, theta.copy())


# ---------------------------------------------------------------- step sizes

def test_gamma_table_value():
    s = StepSchedule.inverse_time(50.0, 10_000.0)
    assert gamma(s, 1) == pytest.approx(50.0 / 10_001.0, rel=1e-15)


def test_gamma_constant():
    s = StepSchedule.constant(0.01)
    assert gamma(s, 1) == 0.01 and gamma(s, 999) == 0.01


def test_gamma_arithmetic():
    s = StepSchedule.inverse_time(1.0, 1000.0)
    assert gamma(s, 1000) == pytest.approx(1.0 / 2000.0)


def test_gamma_rejects_t_zero():
    with pytest.raises(ValueError):
        gamma(StepSchedule.constant(0.1), 0)


@pytest.mark.parametrize("sched", [
    StepSchedule.inverse_time(50.0, 10_000.0), StepSchedule.inverse_time(3.0, 7.0),
    StepSchedule("inverse_time", a0=5, a1=100), StepSchedule.constant(0.01), StepSchedule.constant(2),
], ids=["preset", "small_a1", "integer_a0_a1", "constant", "integer_constant"])
def test_gamma_of_an_array_is_the_scalar_at_every_element(sched):
    ts = np.arange(1, 200_001)
    got = gamma(sched, ts)
    assert got.dtype == np.float64 and got.shape == ts.shape
    want = np.array([float(gamma(sched, t)) for t in ts.tolist()])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("sched", [StepSchedule.constant(0.1), StepSchedule.inverse_time(1.0, 10.0)],
                         ids=["constant", "inverse_time"])
def test_gamma_of_an_array_refuses_a_step_below_one(sched):
    for ts in (np.array([3, 0, 5]), np.array([-2]), np.arange(0, 4)):
        with pytest.raises(ValueError, match="indexed from 1"):
            gamma(sched, ts)
    assert gamma(sched, np.array([], dtype=int)).shape == (0,)


def test_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule.constant(0.0)
    with pytest.raises(ValueError):
        StepSchedule.inverse_time(-1.0, 10.0)


# ---------------------------------------------------------------- single steps

def test_single_agent_reduces_to_gradient_descent():
    env = gaussian_env(1, 0.0, zbar=5.0)
    w = np.array([[1.0]])
    nxt = dsgd_gd_step(np.zeros((1, 1)), w, env, 0.5, draw_for(env, 0))
    assert np.allclose(nxt, [[2.5]], atol=1e-15)


def test_zero_step_is_pure_mixing():
    env = gaussian_env(2, 0.0)
    w = np.full((2, 2), 0.5)
    nxt = dsgd_gd_step(np.array([[0.0], [4.0]]), w, env, 0.0, draw_for(env, 0))
    assert np.allclose(nxt, [[2.0], [2.0]])


def test_scalar_recursion_oracle():
    # sigma=0, n=1, eps=0.9, zbar=10: theta' = (1 - 0.1 g) theta + 10 g, limit 100
    env = gaussian_env(1, 0.9)
    cfg = RunConfig(T=400, seed=0)
    traj = run(cfg, env, uniform_neighbor_weights(build_ring(1)),
               StepSchedule.constant(0.5), sink=consensus_sink)
    want = 0.0
    for _ in range(400):
        want = (1.0 - 0.05) * want + 10.0 * 0.5
    assert traj.final_theta[0, 0] == pytest.approx(want, rel=1e-12)
    assert abs(traj.final_theta[0, 0] - 100.0) < 100.0 * 0.95**400 + 1e-9


def test_homogeneous_consensus_matches_linear_recursion():
    # all agents identical and noiseless: consensus is preserved exactly and
    # the shared value follows theta' = (1 - g (1-eps)) theta + g zbar
    n = 5
    env = gaussian_env(n, 0.4)
    sched = StepSchedule.inverse_time(5.0, 50.0)
    cfg = RunConfig(T=1000, seed=3)
    traj = run(cfg, env, uniform_neighbor_weights(build_complete(n)), sched,
               sink=consensus_sink)
    want = 0.0
    for t in range(1000):
        g = gamma(sched, t + 1)
        want = (1.0 - g * 0.6) * want + g * 10.0
    final = traj.final_theta
    assert np.max(np.abs(final - final.mean())) < 1e-12
    assert final[0, 0] == pytest.approx(want, abs=1e-9)


def average_drifts(monkeypatch, env, mixing, sched, T, seed):
    """Per iteration, how far the agents' average moves off the average of the gradient steps.

    Column-stochastic weights preserve the average, so mean_i theta_{t+1} =
    mean_i theta_t - mean_i gamma_t g_t up to rounding. The gradients are
    captured where :func:`run` takes them and the decisions are the records
    of a ``record_every=1`` run, up to its last finite state. Each drift is
    divided by the size of the terms, max |theta_t| + max |gamma_t g_t|.
    """
    grads = []
    real_gradients = engine.deployed_gradients

    def capturing_gradients(env, thetas, samples):
        g = real_gradients(env, thetas, samples)
        grads.append(g[0].copy())  # the one seed's (n, d); run scales g by gamma_t in place
        return g

    monkeypatch.setattr(engine, "deployed_gradients", capturing_gradients)
    traj = run(RunConfig(T=T, record_every=1, seed=seed), env, mixing, sched,
               sink=lambda t, theta: theta)
    drifts = []
    for t, (theta, nxt) in enumerate(zip(traj.records, traj.records[1:])):
        step = gamma(sched, t + 1) * grads[t]
        drift = np.abs(nxt.mean(axis=0) - theta.mean(axis=0) + step.mean(axis=0)).max()
        drifts.append(drift / (np.abs(theta).max() + np.abs(step).max()))
    return traj, np.array(drifts)


# the mixing product, the subtraction and the means above each round by at most
# a few eps times the size of their terms when n = 4
AVERAGE_TOL = 16 * np.finfo(float).eps


def test_average_preservation_identity_checked_every_step(monkeypatch):
    env = gaussian_env(4, 0.9, spread=0.5, sigma2=50.0)
    _, drifts = average_drifts(monkeypatch, env, uniform_neighbor_weights(build_ring(4)),
                               StepSchedule.constant(0.01), T=200, seed=11)
    assert len(drifts) == 200 and drifts.max() <= AVERAGE_TOL


def test_average_preservation_holds_on_large_decisions(monkeypatch):
    # the decisions grow to ~8e11 before the seed stops at t = 45; an absolute
    # bound on the drift fires on rounding long before that
    env = gaussian_env(4, 1.5, spread=0.5, sigma2=50.0)
    traj, drifts = average_drifts(monkeypatch, env, uniform_neighbor_weights(build_ring(4)),
                                  StepSchedule.constant(0.9), T=2000, seed=1)
    assert traj.diverged_at == 45 and np.abs(traj.records[-1]).max() > 1e11
    assert len(drifts) == 44 and drifts.max() <= AVERAGE_TOL


def test_average_check_catches_weights_that_are_not_column_stochastic(monkeypatch):
    # agent 0 keeps its own decision: every row still sums to 1, column 0 does not;
    # run reads only the one matrix, not the made-up gap
    weights = uniform_neighbor_weights(build_ring(4)).matrices[0].copy()
    weights[0] = [1.0, 0.0, 0.0, 0.0]
    env = gaussian_env(4, 0.9, spread=0.5, sigma2=50.0)
    _, drifts = average_drifts(monkeypatch, env, Mixing((weights,), 1, 0.5),
                               StepSchedule.constant(0.01), T=200, seed=11)
    assert drifts.max() > 1e6 * AVERAGE_TOL


def test_consensus_contracts_under_pure_mixing():
    # gamma = 0: Theta^t = W^t Theta^0; squared consensus shrinks by (1-rho)^2
    n = 6
    mix = uniform_neighbor_weights(build_ring(n))
    rng = np.random.default_rng(0)
    env = gaussian_env(n, 0.0)
    draw = draw_for(env, 0)
    theta = theta0 = rng.standard_normal((n, 1))
    for t in range(50):
        prev = theta - theta.mean(axis=0)
        theta = dsgd_gd_step(theta, mix.matrices[0], env, 0.0, draw)
        cur = theta - theta.mean(axis=0)
        assert np.sum(cur**2) <= (1.0 - mix.rho) ** 2 * np.sum(prev**2) + 1e-15
    assert np.allclose(theta, np.linalg.matrix_power(mix.matrices[0], 50) @ theta0)


# ---------------------------------------------------------------- full runs

def test_run_records_at_start_every_cadence_and_end():
    env = gaussian_env(2, 0.5, sigma2=1.0)
    cfg = RunConfig(T=10, record_every=4, seed=1)
    traj = run(cfg, env, uniform_neighbor_weights(build_complete(2)),
               StepSchedule.constant(0.1), sink=consensus_sink)
    assert [t for t, _ in traj.records] == [0, 4, 8, 10]


def test_run_T_zero_only_initial_record():
    env = gaussian_env(2, 0.5)
    cfg = RunConfig(T=0, seed=1)
    traj = run(cfg, env, uniform_neighbor_weights(build_complete(2)),
               StepSchedule.constant(0.1), sink=consensus_sink)
    assert len(traj.records) == 1 and traj.records[0][0] == 0


def test_determinism_bit_identical():
    env = gaussian_env(5, 0.9, spread=0.6, sigma2=50.0)
    cfg = RunConfig(T=300, record_every=50, seed=123)
    mix = uniform_neighbor_weights(build_ring(5))
    sched = StepSchedule.inverse_time(50.0, 1e4)
    a = run(cfg, env, mix, sched, sink=consensus_sink)
    b = run(cfg, env, mix, sched, sink=consensus_sink)
    assert np.array_equal(a.final_theta, b.final_theta)
    for (ta, xa), (tb, xb) in zip(a.records, b.records):
        assert ta == tb and np.array_equal(xa, xb)


def test_different_seeds_differ():
    env = gaussian_env(3, 0.5, sigma2=50.0)
    mix = uniform_neighbor_weights(build_ring(3))
    sched = StepSchedule.constant(0.01)
    a = run(RunConfig(T=50, seed=1), env, mix, sched)
    b = run(RunConfig(T=50, seed=2), env, mix, sched)
    assert not np.array_equal(a.final_theta, b.final_theta)


def test_greedy_deployment_uses_pre_mixing_decision(monkeypatch):
    # gaussian draws do not read the decision, so the deployment enters
    # through the gradient: record every decision it is taken at, then check
    # the recorded decisions equal the pre-mixing states (not the mixed ones)
    recorded = []
    real_gradients = engine.deployed_gradients

    def recording_gradients(env, thetas, samples):
        recorded.append(thetas.copy())
        return real_gradients(env, thetas, samples)

    monkeypatch.setattr(engine, "deployed_gradients", recording_gradients)
    env = gaussian_env(3, 0.9, spread=0.5, sigma2=50.0)
    mix = uniform_neighbor_weights(build_ring(3))
    cfg = RunConfig(T=20, record_every=1, seed=7)
    traj = run(cfg, env, mix, StepSchedule.constant(0.05), sink=consensus_sink)
    states = [x for _, x in traj.records]
    for k in range(20):
        assert np.array_equal(recorded[k][0], states[k])
        mixed = mix.matrices[0] @ states[k]
        if not np.allclose(mixed, states[k]):
            assert not np.array_equal(recorded[k][0], mixed)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e12 * (1 + 1e-15), -2e12])
def test_finite_rejects_nan_inf_and_oversized(bad):
    theta = np.ones((3, 2))
    theta[1, 0] = bad
    assert engine._first_failures(theta[None], 1e12) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_finite_rejects_nan_and_inf_under_an_infinite_threshold(bad):
    # a config may set divergence_threshold to inf; inf rows are still no final state
    theta = np.ones((3, 2))
    theta[1, 0] = bad
    assert engine._first_failures(theta[None], np.inf) == 0


def test_finite_accepts_entries_at_the_threshold():
    theta = np.array([[1e12, -1e12], [0.0, 5.0]])
    assert engine._first_failures(theta[None], 1e12) == 1
    assert engine._first_failures(np.nextafter(theta, 0.0)[None], 1e12) == 1


def test_divergence_flag_and_truncation():
    # eps > 1 with a large constant step blows up; the trajectory stops at the
    # last finite state and carries the failing iteration index
    env = gaussian_env(1, 1.5, zbar=10.0)
    cfg = RunConfig(T=10_000, record_every=100, seed=0, divergence_threshold=1e6)
    traj = run(cfg, env, uniform_neighbor_weights(build_ring(1)),
               StepSchedule.constant(0.9), sink=consensus_sink)
    assert traj.diverged and traj.diverged_at is not None
    assert np.all(np.isfinite(traj.final_theta))
    assert traj.records[-1][0] < 10_000


def test_step_divergence_keeps_rows_and_flag():
    # noiseless, eps = 0: one unit step sends both agents from 1 to zbar = 10,
    # past the threshold; the seed stops at t = 1 with its start rows, and the
    # later steps of the run neither move it nor clear its flag
    env = gaussian_env(2, 0.0, zbar=10.0)
    mix = uniform_neighbor_weights(build_complete(2))
    cfg = RunConfig(T=3, seed=0, theta0=1.0, divergence_threshold=5.0)
    traj = run(cfg, env, mix, StepSchedule.constant(1.0), sink=consensus_sink)
    assert traj.diverged and traj.diverged_at == 1
    assert np.array_equal(traj.final_theta, [[1.0], [1.0]])
    assert [t for t, _ in traj.records] == [0]


def test_batch_gradient_is_sample_average():
    env = gaussian_env(2, 0.3, sigma2=50.0)
    mix = uniform_neighbor_weights(build_complete(2))
    theta = np.array([[1.0], [2.0]])
    # collect what the step would sample, then reproduce the update by hand
    manual_streams = agent_streams(5, 2)
    z = np.stack([sample_batch(env, i, theta[i], 8, manual_streams[i]) for i in range(2)])
    nxt = dsgd_gd_step(theta, mix.matrices[0], env, 0.1, draw_for(env, 5, batch=8))
    want = mix.matrices[0] @ theta - 0.1 * (theta - z.mean(axis=1))
    assert np.allclose(nxt, want, atol=1e-12)


@pytest.mark.parametrize("kind", [GAUSSIAN, STRATEGIC])
def test_step_without_sampler_matches_run(kind):
    # single steps on an unbuffered sampler consume the streams exactly as run's sampler
    if kind == GAUSSIAN:
        env = gaussian_env(3, 0.5, spread=0.4, sigma2=50.0)
    else:
        rng = np.random.default_rng(4)
        shards = [(rng.standard_normal((m, 2)), rng.integers(0, 2, m).astype(float))
                  for m in (5, 8, 11)]
        env = make_heterogeneous_suite(3, 0.5, 0.4, shards=shards, beta=0.1)
    mix = uniform_neighbor_weights(build_complete(3))
    sched = StepSchedule.constant(0.05)
    cfg = RunConfig(T=5, batch=3, seed=13)
    traj = run(cfg, env, mix, sched)
    _, states = stepped(cfg, [env], mix, sched, [13])
    assert states[-1][0].tobytes() == traj.final_theta.tobytes()


def batch_envs(kind):
    """Three per-seed environments of one size and loss; the data differ per seed."""
    if kind == GAUSSIAN:
        return [gaussian_env(3, 0.5, spread=0.4, zbar=z, sigma2=50.0) for z in (5.0, 10.0, 15.0)]
    envs = []
    for data_seed in (1, 2, 3):
        rng = np.random.default_rng(data_seed)
        shards = [(rng.standard_normal((m, 2)), rng.integers(0, 2, m).astype(float))
                  for m in (5, 8, 11)]
        envs.append(make_heterogeneous_suite(3, 0.5, 0.4, shards=shards, beta=0.1))
    return envs


def assert_same_run(a, b):
    assert (a.diverged, a.diverged_at) == (b.diverged, b.diverged_at)
    assert a.final_theta.tobytes() == b.final_theta.tobytes()
    assert [t for t, _ in a.records] == [t for t, _ in b.records]
    for (_, xa), (_, xb) in zip(a.records, b.records):
        assert xa.tobytes() == xb.tobytes()


@pytest.mark.parametrize("kind", [GAUSSIAN, STRATEGIC])
def test_seed_in_batch_matches_seed_alone(kind):
    envs = batch_envs(kind)
    mix = uniform_neighbor_weights(build_ring(3))
    sched = StepSchedule.inverse_time(5.0, 50.0)
    cfg = RunConfig(T=45, batch=3, record_every=10)
    seeds = [7, 8, 9]
    batch = run(cfg, envs, mix, sched, sink=[consensus_sink] * 3, seeds=seeds)
    assert len(batch) == 3
    for env, seed, traj in zip(envs, seeds, batch):
        alone = run(RunConfig(T=45, batch=3, record_every=10, seed=seed), env, mix, sched,
                    sink=consensus_sink)
        assert_same_run(traj, alone)
        assert [t for t, _ in traj.records] == [0, 10, 20, 30, 40, 45]


def test_divergence_stops_only_that_seed():
    # eps = 1.5 blows up under a large constant step, eps = 0.5 converges
    envs = [gaussian_env(2, 1.5), gaussian_env(2, 0.5), gaussian_env(2, 1.5, zbar=20.0)]
    mix = uniform_neighbor_weights(build_complete(2))
    sched = StepSchedule.constant(0.9)
    cfg = RunConfig(T=2000, record_every=100, divergence_threshold=1e6)
    batch = run(cfg, envs, mix, sched, sink=[consensus_sink] * 3, seeds=[0, 1, 2])
    assert batch[0].diverged and not batch[1].diverged and batch[2].diverged
    assert batch[0].diverged_at != batch[2].diverged_at
    assert batch[1].records[-1][0] == 2000
    for env, seed, traj in zip(envs, [0, 1, 2], batch):
        alone = run(RunConfig(T=2000, record_every=100, seed=seed, divergence_threshold=1e6),
                    env, mix, sched, sink=consensus_sink)
        assert_same_run(traj, alone)
        if traj.diverged:
            assert traj.records[-1][0] == traj.diverged_at - 1


def assert_matches_stepped(cfg, envs, mix, sched, seeds):
    """run equals the one-step-at-a-time reference; its sinks keep the rows they are handed."""
    batch = run(cfg, envs, mix, sched, sink=[lambda t, theta: (t, theta)] * len(seeds),
                seeds=seeds)
    stops, states = stepped(cfg, envs, mix, sched, seeds)
    for s, traj in enumerate(batch):
        last = cfg.T if stops[s] is None else stops[s] - 1
        times = sorted({t for t in range(last + 1) if t % cfg.record_every == 0} | {last})
        assert (traj.diverged, traj.diverged_at) == (stops[s] is not None, stops[s])
        assert [t for t, _ in traj.records] == times
        for t, rows in traj.records:
            assert rows.tobytes() == states[t][s].tobytes()
        assert traj.final_theta.tobytes() == states[-1][s].tobytes()  # kept since the stop
    return stops


# the stacks below are small, so run advances full blocks of _BLOCK iterations
K = engine._BLOCK


def growing_env(eps_avg=1.5, zbar=10.0):
    """Noisy but, for eps_avg > 1 under a constant step of 0.1, steadily growing."""
    return gaussian_env(2, eps_avg, zbar=zbar, sigma2=1.0)


def threshold_for(env, seed, stop, mix, sched):
    """A threshold that the seed alone first crosses at iteration ``stop``."""
    cfg = RunConfig(T=stop, divergence_threshold=np.inf)
    _, states = stepped(cfg, [env], mix, sched, [seed])
    sizes = [np.abs(x).max() for x in states]
    return float(np.sqrt(sizes[stop - 1] * sizes[stop]))


@pytest.mark.parametrize("T, stop", [
    (200, K),           # the last iteration of the first block
    (200, K + 1),       # the first iteration of the second
    (200, 2 * K),
    (150, 2 * K + 1),   # the first iteration of a short last block
    (150, 150),         # t = T, with T not a multiple of K
])
def test_block_scan_stops_a_seed_where_single_steps_do(T, stop):
    # the second seed converges, so the batch runs on past the first one's stop
    envs = [growing_env(), growing_env(eps_avg=0.5)]
    mix = uniform_neighbor_weights(build_complete(2))
    sched = StepSchedule.constant(0.1)
    threshold = threshold_for(envs[0], 5, stop, mix, sched)
    cfg = RunConfig(T=T, record_every=8, divergence_threshold=threshold)
    assert assert_matches_stepped(cfg, envs, mix, sched, [5, 6]) == [stop, None]


@pytest.mark.parametrize("envs, same_block", [
    ([growing_env(), growing_env(eps_avg=1.2), growing_env(eps_avg=0.5)], False),
    ([growing_env(), growing_env(zbar=11.0), growing_env(zbar=12.0)], True),
])
def test_block_scan_stops_seeds_in_their_own_blocks(envs, same_block):
    mix = uniform_neighbor_weights(build_complete(2))
    sched = StepSchedule.constant(0.1)
    cfg = RunConfig(T=300, record_every=10, divergence_threshold=1e4)
    stops = assert_matches_stepped(cfg, envs, mix, sched, [1, 2, 3])
    blocks = {(t - 1) // K for t in stops if t is not None}
    if same_block:  # every seed stops inside one block, which ends the batch
        assert None not in stops and len(set(stops)) == 3 and len(blocks) == 1
    else:
        assert stops[2] is None and len(blocks) == 2


def test_seed_overflowing_after_its_stop_raises_no_warning(monkeypatch):
    # a factor of 1e10 per step stops the first seed at t = 2 and overflows
    # the rest of its block to inf; the second seed (eps = 1, zbar = 0) has a
    # zero gradient at its start, so it stays put and keeps the batch going
    deployed = []
    real_gradients = engine.deployed_gradients

    def watching_gradients(env, thetas, samples):
        deployed.append(thetas[0].copy())
        return real_gradients(env, thetas, samples)

    monkeypatch.setattr(engine, "deployed_gradients", watching_gradients)
    envs = [gaussian_env(2, 2.0), gaussian_env(2, 1.0, zbar=0.0)]
    mix = uniform_neighbor_weights(build_complete(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = run(RunConfig(T=200), envs, mix, StepSchedule.constant(1e10), seeds=[0, 1])
    assert np.isinf(deployed[K - 1]).all()
    assert batch[0].diverged_at == 2 and np.all(np.isfinite(batch[0].final_theta))
    assert not batch[1].diverged
    # each later block steps the stopped seed on from its last finite rows
    for t0 in range(K, 200, K):
        assert np.array_equal(deployed[t0], batch[0].final_theta)


def test_batch_rejects_mismatched_environments():
    mix = uniform_neighbor_weights(build_complete(2))
    with pytest.raises(ValueError, match="one loss"):
        run(RunConfig(T=1), [gaussian_env(2, 0.5), gaussian_env(3, 0.5)], mix,
            StepSchedule.constant(0.1), seeds=[0, 1])


@pytest.mark.parametrize("seeds", [None, [4, 5, 6]], ids=["one_seed", "three_seeds"])
def test_run_takes_one_dsgd_gd_step_per_iteration(monkeypatch, seeds):
    # the benchmark times engine.run's iterations as its dsgd_gd_step calls
    outputs = []
    real_step = engine.dsgd_gd_step

    def counting_step(*args, **kwargs):
        out = real_step(*args, **kwargs)
        outputs.append(out.copy())
        return out

    monkeypatch.setattr(engine, "dsgd_gd_step", counting_step)
    env = gaussian_env(3, 0.5, spread=0.4, sigma2=50.0)
    mix = uniform_neighbor_weights(build_ring(3))
    sched = StepSchedule.inverse_time(5.0, 50.0)
    T = 2 * K + 5
    cfg = RunConfig(T=T, record_every=10, seed=4)
    if seeds is None:
        trajs = [run(cfg, env, mix, sched, sink=consensus_sink)]
    else:
        trajs = run(cfg, [env] * 3, mix, sched, sink=[consensus_sink] * 3, seeds=seeds)
    assert len(outputs) == T
    for s, traj in enumerate(trajs):
        assert not traj.diverged
        assert [t for t, _ in traj.records] == [*range(0, T, 10), T]
        for t, rows in traj.records[1:]:
            assert rows.tobytes() == outputs[t - 1][s].tobytes()


@pytest.mark.parametrize("S, batch", [(1, 3), (3, 64)])
def test_gaussian_sampler_draws_do_not_depend_on_the_chunk(S, batch):
    # chunk 1 is unbuffered; 600 steps cross two refills of a 256-step chunk,
    # and at 3 seeds of batch 64 run picks a chunk of 170
    n, d, steps = 4, 2, 600
    envs = [make_heterogeneous_suite(n, 0.5, 0.4, zbar=[1.0, -2.0], sigma2=s + 2.0) for s in range(S)]
    chunks = {1, 256, max(1, min(engine._CHUNK, engine._CHUNK_DRAWS // (S * n * batch)))}
    theta = np.zeros((S, n, d))
    draws = {}
    for chunk in chunks:
        draw = make_engine_sampler(envs, batch, [agent_streams(seed, n) for seed in range(5, 5 + S)], chunk)
        draws[chunk] = [draw(theta)[0].copy() for _ in range(steps)]
    for chunk in chunks:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(draws[chunk], draws[1]))


def test_time_varying_mixing_converges():
    from perfnet.topology import GraphSchedule, from_edge_list, schedule_mixing
    n = 6
    cycle = [(i, (i + 1) % n) for i in range(n)]
    sched = GraphSchedule(
        graphs=(from_edge_list(n, cycle[0::2]), from_edge_list(n, cycle[1::2])),
        window=2,
    )
    ms = schedule_mixing(sched)
    env = gaussian_env(n, 0.5, sigma2=0.0)
    draw = draw_for(env, 0)
    theta = np.random.default_rng(2).standard_normal((n, 1))
    for t in range(1200):
        theta = dsgd_gd_step(theta, ms.at(t + 1), env, 0.05, draw)
    assert np.allclose(theta, 20.0, atol=1e-6)  # 10 / (1 - 0.5)


# ---------------------------------------------------------------- bias probe

@dataclass(frozen=True)
class BiasProbe:
    """Monte Carlo deployed-gradient mean and its distance to the decoupled gradient."""

    mc_mean: np.ndarray
    diff_norm: float


def bias_probe(env, i, theta, mc, rng) -> BiasProbe:
    """Check that deployed samples estimate the decoupled gradient at (theta; theta).

    The deployed stochastic gradient is unbiased for the gradient of the
    decoupled risk with the distribution frozen at the deployed decision,
    which is not the total derivative of the performative risk. Gaussian
    populations only: the exact decoupled gradient, the reference, raises
    UnsupportedKindError for other kinds.
    """
    ref = decoupled_risk_gradient(env, i, theta, theta)
    z = sample_batch(env, i, theta, mc, rng)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    mc_mean = theta - z.mean(axis=0)
    return BiasProbe(mc_mean=mc_mean, diff_norm=float(np.linalg.norm(mc_mean - ref)))


def test_bias_probe_exact_when_noiseless():
    env = gaussian_env(2, 0.7, sigma2=0.0)
    probe = bias_probe(env, 0, np.array([3.0]), mc=10, rng=engine.stream(0, 9))
    assert probe.diff_norm < 1e-12  # deterministic sample, rounding only


def test_bias_probe_clt_bound():
    env = gaussian_env(2, 0.7, sigma2=50.0)
    mc = 100_000
    probe = bias_probe(env, 1, np.array([3.0]), mc=mc, rng=engine.stream(1, 9))
    assert probe.diff_norm < 4.0 * np.sqrt(50.0 / mc)


def test_bias_probe_classical_when_insensitive():
    env = gaussian_env(1, 0.0, sigma2=0.0)
    theta = np.array([4.0])
    probe = bias_probe(env, 0, theta, mc=5, rng=engine.stream(0, 9))
    assert probe.mc_mean == pytest.approx([4.0 - 10.0])


def test_bias_probe_rejects_strategic():
    rng = np.random.default_rng(0)
    env = make_heterogeneous_suite(
        1, 0.5,
        shards=[(rng.standard_normal((4, 2)), np.array([0.0, 1.0, 1.0, 0.0]))],
        beta=0.1,
    )
    with pytest.raises(UnsupportedKindError):
        bias_probe(env, 0, np.zeros(2), mc=3, rng=engine.stream(0, 9))
