import numpy as np
import pytest

import perfnet.engine as engine
from perfnet.engine import (
    RunConfig,
    SchemeState,
    StepSchedule,
    agent_streams,
    bias_probe,
    dsgd_gd_step,
    gamma,
    run,
)
from perfnet.environment import UnsupportedKindError, make_heterogeneous_suite
from perfnet.metrics import metric_recorder
from perfnet.topology import build_complete, build_ring, uniform_neighbor_weights


def gaussian_env(n, eps_avg, spread=0.0, zbar=10.0, sigma2=0.0):
    return make_heterogeneous_suite(n, eps_avg, spread, zbar=zbar, sigma2=sigma2)


def consensus_sink(state):
    return (state.t, state.theta.copy())


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


def test_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule.constant(0.0)
    with pytest.raises(ValueError):
        StepSchedule.inverse_time(-1.0, 10.0)


# ---------------------------------------------------------------- single steps

def test_single_agent_reduces_to_gradient_descent():
    env = gaussian_env(1, 0.0, zbar=5.0)
    w = np.array([[1.0]])
    state = SchemeState(np.zeros((1, 1)), 0, agent_streams(0, 1))
    nxt = dsgd_gd_step(state, w, env, gamma_t=0.5)
    assert np.allclose(nxt.theta, [[2.5]], atol=1e-15)


def test_zero_step_is_pure_mixing():
    env = gaussian_env(2, 0.0)
    w = np.full((2, 2), 0.5)
    state = SchemeState(np.array([[0.0], [4.0]]), 0, agent_streams(0, 2))
    nxt = dsgd_gd_step(state, w, env, gamma_t=0.0)
    assert np.allclose(nxt.theta, [[2.0], [2.0]])


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


def test_average_preservation_identity_checked_every_step():
    env = gaussian_env(4, 0.9, spread=0.5, sigma2=50.0)
    cfg = RunConfig(T=200, seed=11)
    run(cfg, env, uniform_neighbor_weights(build_ring(4)),
        StepSchedule.constant(0.01), check_averages=True)


def test_consensus_contracts_under_pure_mixing():
    # gamma = 0: Theta^t = W^t Theta^0; squared consensus shrinks by (1-rho)^2
    n = 6
    mix = uniform_neighbor_weights(build_ring(n))
    rng = np.random.default_rng(0)
    env = gaussian_env(n, 0.0)
    state = SchemeState(rng.standard_normal((n, 1)), 0, agent_streams(0, n))
    theta0 = state.theta.copy()
    for t in range(50):
        prev = state.theta - state.theta.mean(axis=0)
        state = dsgd_gd_step(state, mix.weights, env, gamma_t=0.0)
        cur = state.theta - state.theta.mean(axis=0)
        assert np.sum(cur**2) <= (1.0 - mix.rho) ** 2 * np.sum(prev**2) + 1e-15
    assert np.allclose(state.theta, np.linalg.matrix_power(mix.weights, 50) @ theta0)


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
    # wrap the sampler factory so every deployed decision is recorded, then
    # replay the run and check the recorded deployments equal the pre-mixing
    # states (not the mixed ones)
    recorded = []
    real_factory = engine.make_engine_sampler

    def recording_factory(env, batch, streams, chunk=256):
        inner = real_factory(env, batch, streams, chunk)

        def draw(thetas):
            recorded.append(thetas.copy())
            return inner(thetas)

        return draw

    monkeypatch.setattr(engine, "make_engine_sampler", recording_factory)
    env = gaussian_env(3, 0.9, spread=0.5, sigma2=50.0)
    mix = uniform_neighbor_weights(build_ring(3))
    cfg = RunConfig(T=20, record_every=1, seed=7)
    traj = run(cfg, env, mix, StepSchedule.constant(0.05), sink=consensus_sink)
    states = [x for _, x in traj.records]
    for k in range(20):
        assert np.array_equal(recorded[k], states[k])
        mixed = mix.weights @ states[k]
        if not np.allclose(mixed, states[k]):
            assert not np.array_equal(recorded[k], mixed)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e12 * (1 + 1e-15), -2e12])
def test_finite_rejects_nan_inf_and_oversized(bad):
    theta = np.ones((3, 2))
    theta[1, 0] = bad
    assert engine._finite(theta, 1e12) is False


def test_finite_accepts_entries_at_the_threshold():
    theta = np.array([[1e12, -1e12], [0.0, 5.0]])
    assert engine._finite(theta, 1e12) is True
    assert engine._finite(np.nextafter(theta, 0.0), 1e12) is True


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


def test_batch_gradient_is_sample_average():
    env = gaussian_env(2, 0.3, sigma2=50.0)
    mix = uniform_neighbor_weights(build_complete(2))
    state = SchemeState(np.array([[1.0], [2.0]]), 0, agent_streams(5, 2))
    # collect what the step would sample, then reproduce the update by hand
    from perfnet.environment import sample_batch
    manual_streams = agent_streams(5, 2)
    z = np.stack([sample_batch(env, i, state.theta[i], 8, manual_streams[i]) for i in range(2)])
    nxt = dsgd_gd_step(state, mix.weights, env, gamma_t=0.1, batch=8)
    want = mix.weights @ state.theta - 0.1 * (state.theta - z.mean(axis=1))
    assert np.allclose(nxt.theta, want, atol=1e-12)


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
    rng = np.random.default_rng(2)
    state = SchemeState(rng.standard_normal((n, 1)), 0, agent_streams(0, n))
    for t in range(1200):
        state = dsgd_gd_step(state, ms.at(t + 1), env, gamma_t=0.05)
    assert np.allclose(state.theta, 20.0, atol=1e-6)  # 10 / (1 - 0.5)


# ---------------------------------------------------------------- bias probe

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
        1, 0.5, kind="strategic_shift",
        shards=[(rng.standard_normal((4, 2)), np.array([0.0, 1.0, 1.0, 0.0]))],
        beta=0.1,
    )
    with pytest.raises(UnsupportedKindError):
        bias_probe(env, 0, np.zeros(2), mc=3, rng=engine.stream(0, 9))
