import dataclasses
import warnings

import numpy as np
import pytest
from scipy.special import expit

import perfnet.environment as environment
from perfnet.engine import RunConfig, StepSchedule, run, stream
from perfnet.environment import (
    GAUSSIAN,
    STRATEGIC,
    Environment,
    UnsupportedKindError,
    assumption_constants,
    decoupled_full_gradient,
    deployed_gradients,
    eps_multipliers,
    exact_risk,
    make_engine_sampler,
    make_heterogeneous_suite,
)
from perfnet.oracle import apply_M, stable_point
from perfnet.topology import build_complete, uniform_neighbor_weights
from reference import (
    LOGISTIC,
    QUADRATIC,
    LossSpec,
    decoupled_risk_gradient,
    loss_gradient,
    loss_of,
    loss_value,
    sample_batch,
    shard,
)


# ---------------------------------------------------------------- oracles

def fd_gradient(f, theta, h=1e-6):
    """Central finite differences, the reference for every analytic gradient."""
    g = np.zeros_like(theta, dtype=float)
    for k in range(len(theta)):
        e = np.zeros_like(theta, dtype=float)
        e[k] = h
        g[k] = (f(theta + e) - f(theta - e)) / (2 * h)
    return g


def gaussian_env(n=3, eps_avg=0.5, spread=0.0, zbar=10.0, sigma2=50.0):
    return make_heterogeneous_suite(n, eps_avg, spread, zbar=zbar, sigma2=sigma2)


def strategic_env(n=4, eps_avg=0.5, spread=0.0, d=5, m=30, beta=0.1, seed=3):
    rng = np.random.default_rng(seed)
    shards = [
        (rng.standard_normal((m, d)), rng.integers(0, 2, m).astype(float))
        for _ in range(n)
    ]
    return make_heterogeneous_suite(n, eps_avg, spread, kind=STRATEGIC, shards=shards, beta=beta)


# ---------------------------------------------------------------- sampling

def test_gaussian_sample_zero_deployment_hits_base():
    env = gaussian_env(sigma2=0.0)
    z = sample_batch(env, 0, np.zeros(1), 1, stream(0, 1))
    assert z == pytest.approx(10.0)


def test_gaussian_deterministic_self_consistency():
    # zbar 10, eps 0.9, no noise: deploying 100 returns exactly 100
    env = gaussian_env(eps_avg=0.9, sigma2=0.0)
    z = sample_batch(env, 1, np.array([100.0]), 1, stream(0, 1))
    assert z == pytest.approx(100.0, abs=0.0)


def test_strategic_shift_closed_form():
    x = np.zeros((1, 4))
    x[0, 0] = 1.0
    env = make_heterogeneous_suite(
        1, 0.5, kind=STRATEGIC, shards=[(x, np.array([1.0]))], beta=0.1
    )
    theta = np.array([2.0, 0.0, 0.0, 0.0])
    xs, y = sample_batch(env, 0, theta, 3, stream(0, 1))
    assert np.allclose(xs, [[2.0, 0.0, 0.0, 0.0]] * 3)
    assert np.all(y == 1.0)


def test_sample_rejects_bad_shape():
    env = gaussian_env()
    with pytest.raises(ValueError, match="shape"):
        sample_batch(env, 0, np.zeros(3), 1, stream(0, 1))


def test_gaussian_sampler_mean_statistical():
    # empirical mean of 1e5 draws within 4 sigma / sqrt(1e5) of the model mean
    env = gaussian_env(n=2, eps_avg=0.8, sigma2=50.0)
    theta = np.array([3.0])
    draws = sample_batch(env, 1, theta, 100_000, stream(42, 1))
    want = 10.0 + 0.8 * 3.0
    tol = 4.0 * np.sqrt(50.0) / np.sqrt(100_000)
    assert abs(draws.mean() - want) < tol


def test_wasserstein_sensitivity_on_means():
    # scalar gaussian: |mean D(a) - mean D(b)| = eps |a - b| identically
    env = gaussian_env(n=1, eps_avg=0.7)
    zbar, eps = env.zbar_stack[0], env.eps[0]
    for a, b in [(0.0, 1.0), (-3.0, 5.5), (100.0, 100.25)]:
        lhs = abs((zbar + eps * a) - (zbar + eps * b))
        assert lhs == pytest.approx(eps * abs(a - b), rel=1e-12)


# ---------------------------------------------------------------- losses

def test_quadratic_value_and_gradient():
    loss = LossSpec(QUADRATIC, dim=1)
    assert loss_value(loss, np.array([3.0]), np.array([1.0])) == pytest.approx(2.0)
    assert loss_gradient(loss, np.array([3.0]), np.array([1.0])) == pytest.approx([2.0])


def test_logistic_at_zero_is_log_two():
    loss = LossSpec(LOGISTIC, dim=3, beta=0.5)
    z = (np.array([1.0, -2.0, 0.5]), 1.0)
    assert loss_value(loss, np.zeros(3), z) == pytest.approx(np.log(2.0), rel=1e-15)
    assert np.allclose(loss_gradient(loss, np.zeros(3), z), -0.5 * z[0])


@pytest.mark.parametrize("kind", [GAUSSIAN, STRATEGIC])
def test_loss_value_on_a_batch_is_per_sample(kind):
    env = gaussian_env() if kind == GAUSSIAN else strategic_env()
    theta = np.full(env.dim, 0.3)
    draw = sample_batch(env, 1, theta, 6, stream(2, 1))
    singles = list(draw) if kind == GAUSSIAN else list(zip(*draw))
    loss = loss_of(env)
    got = loss_value(loss, theta, draw)
    assert got.shape == (6,)
    assert np.allclose(got, [loss_value(loss, theta, z) for z in singles], rtol=1e-12, atol=0)


def test_logistic_large_score_no_overflow():
    # softplus(u) - u = log1p(exp(-u)); at u=50 this is e^-50 to 1e-12 relative
    loss = LossSpec(LOGISTIC, dim=1, beta=1e-9)
    val = loss_value(loss, np.array([50.0]), (np.array([1.0]), 1.0))
    core = val - 0.5 * loss.beta * 50.0**2
    assert core == pytest.approx(np.exp(-50.0), rel=1e-12)
    big = loss_value(loss, np.array([1000.0]), (np.array([1.0]), 0.0))
    assert np.isfinite(big) and big == pytest.approx(1000.0 + 0.5 * loss.beta * 1e6)


def numpy_sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def test_expit_is_numpys_sigmoid_within_4_ulp_of_scipy():
    # numpy's SIMD exp differs from glibc's, which scipy's ufunc calls, in the
    # last bits: on 38 801 of 2e6 standard normals on an AVX-512 host, by at
    # most 4 ulp. The error filter catches an overflow warning at large
    # negative scores.
    z = np.random.default_rng(0).standard_normal(100_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in [z, 40.0 * z, 800.0 * z, np.array([np.inf, -np.inf, np.nan, 0.0])]:
            got = environment.expit(x)
            assert np.array_equal(got.view(np.int64), numpy_sigmoid(x).view(np.int64))
            np.testing.assert_array_max_ulp(got, expit(x), maxulp=4)
        got = environment.expit(0.3)
        assert type(got) is np.float64
        assert np.asarray(got).view(np.int64) == np.asarray(numpy_sigmoid(0.3)).view(np.int64)


def test_expit_bits_do_not_depend_on_layout():
    # a seed's scores are an (n, b) slice of the (S, n, b) batch; each value
    # must come out the same alone, from a strided view and at an offset, or
    # a seed run in a batch would not match the seed run alone
    S, n, b = 3, 5, 7
    scores = 40.0 * np.random.default_rng(1).standard_normal((S, n, b))
    batch = environment.expit(scores)
    for idx in np.ndindex(S, n, b):
        assert batch[idx] == environment.expit(scores[idx])
    for k in range(S):
        assert np.array_equal(batch[k], environment.expit(scores[k].copy()))
    assert np.array_equal(batch[:, :, 1::2], environment.expit(scores[:, :, 1::2]))
    assert np.array_equal(batch[:, 1], environment.expit(scores[:, 1]))
    shifted = np.empty(scores.size + 1)
    shifted[1:] = scores.ravel()
    assert np.array_equal(batch.ravel(), environment.expit(shifted[1:]))


@pytest.mark.parametrize("kind", [QUADRATIC, LOGISTIC])
def test_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(11)
    d = 4
    loss = LossSpec(kind, dim=d, beta=0.3 if kind == LOGISTIC else 0.0)
    for _ in range(100):
        theta = rng.standard_normal(d)
        if kind == QUADRATIC:
            z = rng.standard_normal(d)
        else:
            z = (rng.standard_normal(d), float(rng.integers(0, 2)))
        g = loss_gradient(loss, theta, z)
        ref = fd_gradient(lambda th: loss_value(loss, th, z), theta)
        assert np.linalg.norm(g - ref) <= 1e-6 * max(1.0, np.linalg.norm(ref))


def test_logistic_strong_convexity_probe():
    # Hessian quadratic form along random directions stays above beta
    rng = np.random.default_rng(5)
    beta = 0.2
    loss = LossSpec(LOGISTIC, dim=3, beta=beta)
    z = (rng.standard_normal(3), 1.0)
    for _ in range(20):
        theta = rng.standard_normal(3)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        h = 1e-5
        gp = loss_gradient(loss, theta + h * v, z)
        gm = loss_gradient(loss, theta - h * v, z)
        curvature = float(v @ (gp - gm)) / (2 * h)
        assert curvature >= beta - 1e-10


# ---------------------------------------------------------------- decoupled gradients

def test_decoupled_gradient_zero_at_fixed_point():
    env = gaussian_env(eps_avg=0.9)
    theta = np.array([100.0])
    assert decoupled_risk_gradient(env, 0, theta, theta) == pytest.approx([0.0], abs=1e-12)


def test_decoupled_gradient_classical_when_insensitive():
    env = gaussian_env(eps_avg=0.0)
    g = decoupled_risk_gradient(env, 2, np.array([4.0]), np.array([77.0]))
    assert g == pytest.approx([4.0 - 10.0])


def test_decoupled_gradient_direct_substitution():
    env = gaussian_env(eps_avg=0.5)
    g = decoupled_risk_gradient(env, 0, np.array([0.0]), np.array([1.0]))
    assert g == pytest.approx([-10.5])


def test_decoupled_gradient_strategic_unsupported():
    env = strategic_env()
    with pytest.raises(UnsupportedKindError):
        decoupled_risk_gradient(env, 0, np.zeros(5), np.zeros(5))


def test_decoupled_gradient_matches_monte_carlo():
    # the analytic decoupled gradient equals the sample average of deployed
    # gradients within 3 standard errors
    env = gaussian_env(n=2, eps_avg=0.6, sigma2=25.0)
    theta = np.array([2.0])
    deployed = np.array([7.0])
    mc = 200_000
    z = sample_batch(env, 1, deployed, mc, stream(9, 1))
    grads = theta[None, :] - z
    se = grads.std(ddof=1) / np.sqrt(mc)
    ref = decoupled_risk_gradient(env, 1, theta, deployed)
    assert abs(grads.mean() - ref[0]) < 3 * se


def test_decoupled_full_gradient_strategic_matches_shard_average():
    env = strategic_env(n=2, eps_avg=0.3, d=3, m=10)
    theta = np.array([0.2, -0.1, 0.4])
    deployed = np.array([1.0, 0.0, -1.0])
    total = np.zeros(3)
    for i in range(env.n):
        features, labels = shard(env, i)
        per_sample = np.array([
            loss_gradient(loss_of(env), theta, (features[k] + env.eps[i] * deployed, labels[k]))
            for k in range(len(labels))
        ])
        total += per_sample.mean(axis=0)
    # per-sample gradients each carry the ridge term; agent-averaging keeps one
    want = total / env.n
    got = decoupled_full_gradient(env, theta, deployed)
    assert np.allclose(got, want, atol=1e-12)


def unequal_shard_env(sizes=(7, 10, 13), d=3, eps_avg=0.4, spread=0.5, beta=0.1, seed=11):
    rng = np.random.default_rng(seed)
    shards = [(rng.standard_normal((m, d)), rng.integers(0, 2, m).astype(float)) for m in sizes]
    return make_heterogeneous_suite(len(sizes), eps_avg, spread, kind=STRATEGIC,
                                    shards=shards, beta=beta)


def test_decoupled_full_gradient_strategic_unequal_shards():
    # every agent weighs 1/n whatever its shard size m_i, so each row weighs 1/(n m_i)
    env = unequal_shard_env()
    theta = np.array([0.2, -0.1, 0.4])
    deployed = np.array([1.0, 0.0, -1.0])
    want = np.mean([
        np.mean([
            loss_gradient(loss_of(env), theta, (x + eps * deployed, y))
            for x, y in zip(*shard(env, i))
        ], axis=0)
        for i, eps in enumerate(env.eps)
    ], axis=0)
    got = decoupled_full_gradient(env, theta, deployed)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_strategic_rows_are_stacked_read_only():
    env = unequal_shard_env()
    rows = env.rows
    assert rows.features.shape == (30, 3)
    assert np.array_equal(rows.eps, np.repeat(env.eps, [7, 10, 13]))
    assert rows.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert env.rows is rows
    assert np.array_equal(env.sizes, [7, 10, 13])
    with pytest.raises(ValueError):
        rows.features[0, 0] = 1.0
    with pytest.raises(ValueError):
        env.sizes[0] = 1


def test_new_sensitivities_give_new_rows():
    # the per-row sensitivities are derived from eps, so a copy with new eps
    # cannot keep the old ones, even after the original's rows were built
    env = unequal_shard_env()
    old_rows = env.rows
    new = np.array([0.1, 0.7, 1.3])
    moved = dataclasses.replace(env, eps=new)
    assert np.array_equal(moved.rows.eps, np.repeat(new, env.sizes))
    assert np.array_equal(moved.rows.weights, old_rows.weights)
    fresh = make_heterogeneous_suite(3, float(new.mean()), kind=STRATEGIC, eps=new, beta=env.beta,
                                     shards=[shard(env, i) for i in range(env.n)])
    theta = np.array([0.2, -0.1, 0.4])
    deployed = np.array([1.0, 0.0, -1.0])
    assert np.array_equal(decoupled_full_gradient(moved, theta, deployed),
                          decoupled_full_gradient(fresh, theta, deployed))
    assert not np.array_equal(decoupled_full_gradient(env, theta, deployed),
                              decoupled_full_gradient(fresh, theta, deployed))
    assert gaussian_env().rows is None


def test_gaussian_zbar_mean_and_eps_avg_are_cached():
    rng = np.random.default_rng(4)
    env = make_heterogeneous_suite(5, 0.7, 0.4, zbar=rng.standard_normal((5, 3)), sigma2=2.0)
    zbar_mean = env.zbar_mean
    assert np.array_equal(zbar_mean, env.zbar_stack.mean(axis=0))
    assert env.eps_avg == float(env.eps.mean())
    assert env.zbar_mean is zbar_mean
    with pytest.raises(ValueError):
        zbar_mean[0] = 1.0
    theta, deployed = rng.standard_normal(3), rng.standard_normal(3)
    assert np.array_equal(decoupled_full_gradient(env, theta, deployed),
                          theta - env.zbar_stack.mean(axis=0) - float(env.eps.mean()) * deployed)
    assert unequal_shard_env().zbar_mean is None


def test_float32_rows_are_read_only_built_once_and_only_for_a_frozen_solve():
    env = unequal_shard_env()
    mix = uniform_neighbor_weights(build_complete(env.n))
    run(RunConfig(T=20, batch=2, seed=3), env, mix, StepSchedule.constant(0.05))
    assert "rows32" not in vars(env)
    apply_M(env, np.ones(env.dim))
    built = vars(env)["rows32"]
    features, eps = built
    assert features.dtype == eps.dtype == np.float32
    assert np.array_equal(features, env.rows.features.astype(np.float32))
    assert np.array_equal(eps, env.rows.eps.astype(np.float32))
    for arr in built:
        with pytest.raises(ValueError):
            arr[0] = 1.0
    apply_M(env, -np.ones(env.dim))
    assert env.rows32 is built
    assert gaussian_env().rows32 is None


@pytest.mark.parametrize("d", [1, 3])
def test_gaussian_exact_risk_equals_population_loop(d):
    # every agent has its own zbar, eps and sigma2, so the per-agent arrays
    # are exercised (make_heterogeneous_suite shares one sigma2)
    rng = np.random.default_rng(40 + d)
    n = 25
    agents = [
        (float(rng.uniform(0.0, 1.5)), rng.normal(0.0, 10.0 ** rng.integers(-3, 4), d),
         float(rng.uniform(0.1, 80.0)))
        for _ in range(n)
    ]
    eps, zbar, sigma2 = (np.array(col) for col in zip(*agents))
    env = Environment(eps, zbar_stack=zbar, sigma2=sigma2)
    for theta in (np.zeros(d), rng.normal(0.0, 5.0, d), rng.normal(0.0, 1e4, d)):
        total = 0.0
        for e, z, s2 in agents:
            resid = (1.0 - e) * theta - z
            total += 0.5 * float(np.sum(resid**2)) + 0.5 * s2 * d
        assert exact_risk(env, theta) == total / n


# ---------------------------------------------------------------- suites

def test_suite_grid_canonical_pattern():
    env = gaussian_env(n=25, eps_avg=0.01, spread=0.6)
    assert env.eps[0] == pytest.approx(0.004)
    assert env.eps[1] == pytest.approx(0.0045)
    assert env.eps[-1] == pytest.approx(0.016)
    assert env.eps_avg == pytest.approx(0.01, abs=1e-15)


def test_suite_homogeneous_when_spread_zero():
    env = gaussian_env(n=7, eps_avg=0.3, spread=0.0)
    assert np.all(env.eps == 0.3)


def test_suite_mean_exact():
    env = gaussian_env(n=25, eps_avg=0.9, spread=0.6)
    assert env.eps.mean() == pytest.approx(0.9, abs=1e-14)


def test_suite_rejects_uncentered_grid():
    with pytest.raises(ValueError, match="sensitivity mean"):
        make_heterogeneous_suite(3, 0.5, eps=[0.5, 1.0, 2.0])


def test_eps_multipliers_symmetric():
    m = eps_multipliers(25, 0.6)
    assert abs(m.mean() - 1.0) <= 1e-12
    assert m[0] == pytest.approx(0.4) and m[-1] == pytest.approx(1.6)


def test_smoothness_constants():
    env = gaussian_env()
    assert env.mu == 1.0 and env.smoothness == 1.0
    senv = strategic_env(beta=0.05)
    peak = max(np.max(np.sum(shard(senv, i)[0] ** 2, axis=1)) for i in range(senv.n))
    assert senv.mu == 0.05
    assert senv.smoothness == pytest.approx(0.05 + peak / 4.0)


# ---------------------------------------------------------------- engine plumbing

def draw_alone(env, batch, streams, chunk=256):
    """A sampler of ``env`` alone, as a batch of one seed, on (n, d) decisions and n ``streams``."""
    draw = make_engine_sampler([env], batch, [streams], chunk=chunk)
    return lambda thetas: tuple(part[0] for part in draw(thetas[None]))


def test_engine_sampler_matches_plain_sampling():
    # a draw is (zbar_i + sigma_i * mean_b xi, 1 - eps_i), xi drawn one
    # iteration at a time from agent i's stream
    env = gaussian_env(n=3, eps_avg=0.4, sigma2=9.0)
    thetas = np.array([[1.0], [2.0], [3.0]])
    fast = draw_alone(env, batch=2, streams=[stream(5, 1, i) for i in range(3)], chunk=4)
    out = [fast(thetas) for _ in range(6)]
    slow_streams = [stream(5, 1, i) for i in range(3)]
    for k in range(6):
        base, keep = out[k]
        ref = np.stack([z + np.sqrt(s2) * g.standard_normal((2, 1)).mean(axis=0)
                        for z, s2, g in zip(env.zbar_stack, env.sigma2, slow_streams)])
        assert np.array_equal(base, ref)
        assert np.array_equal(keep, 1.0 - env.eps[:, None]) and not keep.flags.writeable


def gaussian_gradients_written_out(env, thetas, gens, batch):
    """Per agent, ``(1 - eps_i) theta_i - (zbar_i + sigma_i xi_bar)`` with xi from ``gens``."""
    return np.stack([(1.0 - e) * th - (z + np.sqrt(s2)
                                        * g.standard_normal((batch, env.dim)).mean(axis=0))
                     for e, z, s2, th, g in zip(env.eps, env.zbar_stack, env.sigma2, thetas, gens)])


def unequal_noise_env():
    """Three agents with their own sensitivity, base mean and noise variance."""
    z = np.array([3.0, 10.0, -5.0])
    return Environment(np.array([0.2, 0.9, 1.4]), zbar_stack=np.column_stack([z, -z]),
                       sigma2=np.array([1.0, 4.0, 50.0]))


@pytest.mark.parametrize("batch", [1, 4])
def test_gaussian_gradient_is_the_mean_shift_identity(batch):
    # bit for bit the written-out identity, and within 1e-12 of the gradient
    # over the shifted sample that earlier releases formed
    env = unequal_noise_env()
    thetas = np.random.default_rng(2).standard_normal((3, 2))
    draw = draw_alone(env, batch, agent_streams_of(11), chunk=3)
    written, shifted = agent_streams_of(11), agent_streams_of(11)
    for _ in range(7):
        got = deployed_gradients(env, thetas, draw(thetas))
        assert np.array_equal(got, gaussian_gradients_written_out(env, thetas, written, batch))
        old = thetas - np.stack([sample_batch(env, i, thetas[i], batch, g).mean(axis=0)
                                 for i, g in enumerate(shifted)])
        assert_close_per_agent(got, old, 1e-12)


def test_gaussian_draw_kept_by_the_caller_is_not_overwritten():
    env = unequal_noise_env()
    draw = draw_alone(env, 4, agent_streams_of(12), chunk=2)
    thetas = np.zeros((3, 2))
    first = draw(thetas)
    kept = first[0].copy()
    for _ in range(5):  # past two refills
        draw(thetas)
    assert np.array_equal(first[0], kept)


def seed_envs(kind, seeds):
    """One three-agent environment per seed; the data differ per seed, strategic shards are unequal."""
    if kind == GAUSSIAN:
        return [make_heterogeneous_suite(3, 0.5, 0.4, zbar=np.arange(6.0).reshape(3, 2) + seed,
                                         sigma2=9.0) for seed in seeds]
    envs = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        shards = [(rng.standard_normal((m, 2)), rng.integers(0, 2, m).astype(float))
                  for m in (5, 8, 11)]
        envs.append(make_heterogeneous_suite(3, 0.5, 0.4, kind=STRATEGIC, shards=shards, beta=0.1))
    return envs


def agent_streams_of(seed, n=3):
    return [stream(seed, 1, i) for i in range(n)]


@pytest.mark.parametrize("kind", [GAUSSIAN, STRATEGIC])
def test_batched_sampler_gives_each_seed_its_own_draws(kind):
    seeds = (21, 22, 23)
    envs = seed_envs(kind, seeds)
    thetas = np.random.default_rng(0).standard_normal((3, 3, 2))
    # chunk lengths differ on purpose: buffering must not change the draws
    batched = make_engine_sampler(envs, 4, [agent_streams_of(s) for s in seeds], chunk=3)
    alone = [draw_alone(env, 4, agent_streams_of(s), chunk=5) for env, s in zip(envs, seeds)]
    for _ in range(8):
        got = batched(thetas)
        grads = deployed_gradients(envs[0], thetas, got)
        for k in range(3):
            want = alone[k](thetas[k])
            assert all(np.array_equal(part[k], one) for part, one in zip(got, want))
            assert np.array_equal(grads[k], deployed_gradients(envs[k], thetas[k], want))


def logistic_gradients_written_out(thetas, rows, labels, eps, beta):
    """The strategic gradient identity, one agent at a time: never forms F + eps theta."""
    b = rows.shape[-2]
    out = np.empty_like(thetas)
    for i, (th, f, y, e) in enumerate(zip(thetas, rows, labels, eps[:, 0])):
        sq = th[None, :] @ th[:, None]
        resid = expit((f @ th[:, None])[:, 0] + e * sq[0]) - y
        coef = e * resid.sum(keepdims=True) / b + beta
        out[i] = (resid[None, :] @ f)[0] / b + coef * th
    return out


def logistic_gradients_shifted_copy(thetas, rows, labels, eps, beta):
    """Earlier releases' formula: shift every row, then two einsums over the copy."""
    x = rows + eps[:, :, None] * thetas[:, None, :]
    resid = expit(np.einsum("nbd,nd->nb", x, thetas)) - labels
    return np.einsum("nb,nbd->nd", resid, x) / rows.shape[-2] + beta * thetas


def assert_close_per_agent(got, want, rel):
    gap = np.linalg.norm(got - want, axis=-1)
    assert np.all(gap <= rel * np.linalg.norm(want, axis=-1))


@pytest.mark.parametrize("kind", [GAUSSIAN, STRATEGIC])
def test_batched_deployed_gradients_equal_per_seed_calls(kind):
    seeds = (31, 32, 33)
    envs = seed_envs(kind, seeds)
    thetas = np.random.default_rng(1).standard_normal((3, 3, 2))
    samples = make_engine_sampler(envs, 16, [agent_streams_of(s) for s in seeds])(thetas)
    got = deployed_gradients(envs[0], thetas, samples)
    for k in range(3):
        one = tuple(part[k] for part in samples)
        if kind == GAUSSIAN:
            old = np.stack([(1.0 - e) * th - b for e, th, b in zip(envs[k].eps, thetas[k], one[0])])
        else:
            old = logistic_gradients_written_out(thetas[k], *one, beta=0.1)
        want = deployed_gradients(envs[0], thetas[k], one)
        assert np.array_equal(got[k], want)
        assert np.array_equal(want, old)


def test_deployed_gradients_logistic_within_1e12_of_the_shifted_copy():
    env = strategic_env(n=4, eps_avg=0.8, spread=0.5, d=6, m=40, beta=0.05)
    thetas = np.random.default_rng(4).standard_normal((4, 6))
    rows, labels, eps = draw_alone(env, 32, agent_streams_of(8, n=4))(thetas)
    got = deployed_gradients(env, thetas, (rows, labels, eps))
    assert np.array_equal(got, logistic_gradients_written_out(thetas, rows, labels, eps, 0.05))
    assert_close_per_agent(got, logistic_gradients_shifted_copy(thetas, rows, labels, eps, 0.05),
                           1e-12)


def test_batch_with_a_zero_sensitivity_arm_gives_each_seed_its_alone_gradient():
    # the non-performative baseline's batch: one environment and its copy
    # with every sensitivity zeroed, on the same shards and streams
    env = strategic_env(n=3, eps_avg=0.7, spread=0.4, d=4, m=25, beta=0.1)
    shards = [shard(env, i) for i in range(env.n)]
    env_zero = make_heterogeneous_suite(3, 0.0, kind=STRATEGIC, shards=shards, beta=0.1)
    thetas = np.random.default_rng(5).standard_normal((2, 3, 4))
    batched = make_engine_sampler([env, env_zero], 8, [agent_streams_of(9), agent_streams_of(9)])
    alone = [draw_alone(e, 8, agent_streams_of(9)) for e in (env, env_zero)]
    for _ in range(4):
        samples = batched(thetas)
        assert np.array_equal(samples[2][:, :, 0], np.stack([env.eps, env_zero.eps]))
        got = deployed_gradients(env, thetas, samples)
        for k, e in enumerate((env, env_zero)):
            assert np.array_equal(got[k], deployed_gradients(e, thetas[k], alone[k](thetas[k])))
        assert not np.array_equal(got[0], got[1])


def test_shifting_the_sampler_rows_reproduces_the_shifted_population():
    env = strategic_env(n=3, eps_avg=0.6, spread=0.5, d=4, m=12)
    thetas = np.random.default_rng(6).standard_normal((3, 4))
    rows, labels, eps = draw_alone(env, 5, agent_streams_of(10), chunk=1)(thetas)
    gens = agent_streams_of(10)
    for i in range(env.n):
        features, labels_i = shard(env, i)
        idx = gens[i].integers(0, len(labels_i), size=(1, 5))[0]
        assert np.array_equal(rows[i] + eps[i] * thetas[i], features[idx] + env.eps[i] * thetas[i])
        assert np.array_equal(labels[i], labels_i[idx])


def test_deployed_gradients_quadratic():
    env = gaussian_env(n=2, eps_avg=0.0, sigma2=0.0)
    thetas = np.array([[1.0], [5.0]])
    samples = (np.array([[3.0], [4.0]]), 1.0 - env.eps[:, None])
    g = deployed_gradients(env, thetas, samples)
    assert np.allclose(g, [[-2.0], [1.0]])


def test_deployed_gradients_logistic_matches_per_sample():
    env = strategic_env(n=2, d=3, m=8, beta=0.2)
    rng = np.random.default_rng(0)
    thetas = rng.standard_normal((2, 3))
    xs = rng.standard_normal((2, 4, 3))
    ys = rng.integers(0, 2, (2, 4)).astype(float)
    eps = env.eps[:, None]
    got = deployed_gradients(env, thetas, (xs, ys, eps))
    for i in range(2):
        shifted = xs[i] + env.eps[i] * thetas[i]
        want = np.mean(
            [loss_gradient(loss_of(env), thetas[i], (shifted[b], ys[i, b])) for b in range(4)],
            axis=0,
        )
        assert np.allclose(got[i], want, atol=1e-12)


def test_assumption_constants_gaussian_exact():
    env = gaussian_env(n=25, eps_avg=0.9, spread=0.6)
    theta_ps = np.array([100.0])
    sigma, varsigma = assumption_constants(env, theta_ps)
    assert sigma == pytest.approx(np.sqrt(50.0))
    a = np.array([(1 - e) * 100.0 - 10.0 for e in env.eps])
    b = env.eps - env.eps_avg
    assert varsigma == pytest.approx(np.sqrt(np.max(a**2 + b**2)), rel=1e-12)


def test_assumption_constants_strategic_equal_a_per_agent_loop():
    # sigma^2 = max_i mean_k |g_ik - g_i|^2 and varsigma^2 = max_i |g_i - g|^2,
    # with g_ik the per-sample gradients on agent i's shard shifted to theta_ps,
    # g_i their mean and g the agent average of the g_i
    env = unequal_shard_env()
    theta_ps = stable_point(env)
    loss = loss_of(env)
    grads = [
        np.array([loss_gradient(loss, theta_ps, (x + eps * theta_ps, y))
                  for x, y in zip(*shard(env, i))])
        for i, eps in enumerate(env.eps)
    ]
    means = [g.mean(axis=0) for g in grads]
    avg = np.mean(means, axis=0)
    sigma = np.sqrt(max(np.mean(np.sum((g - m) ** 2, axis=1)) for g, m in zip(grads, means)))
    varsigma = np.sqrt(max(np.sum((m - avg) ** 2) for m in means))
    assert assumption_constants(env, theta_ps) == pytest.approx((sigma, varsigma), rel=1e-12, abs=0)


# ---------------------------------------------------------------- input checks

def one_agent_env(kind):
    """One agent at eps 0.5: a d=1 gaussian population or a d=2 strategic one of 3 rows."""
    if kind == GAUSSIAN:
        return make_heterogeneous_suite(1, 0.5, zbar=[10.0], sigma2=1.0)
    return make_heterogeneous_suite(1, 0.5, kind=STRATEGIC, beta=0.1,
                                    shards=[(np.ones((3, 2)), np.array([0.0, 1.0, 1.0]))])


@pytest.mark.parametrize("build, match", [
    (lambda: Environment(np.empty(0), zbar_stack=np.empty((0, 1)), sigma2=np.empty(0)),
     "at least one"),
    (lambda: make_heterogeneous_suite(0, 0.5), "at least one"),
    (lambda: make_heterogeneous_suite(0, 0.5, 0.3), "at least one"),
    (lambda: make_heterogeneous_suite(3, 0.5, eps=[np.nan, 1.0, 2.0]), "not finite"),
    (lambda: make_heterogeneous_suite(3, 0.5, np.nan), "not finite"),
    (lambda: make_heterogeneous_suite(3, -0.5), "sensitivity must be nonnegative"),
    (lambda: make_heterogeneous_suite(3, np.nan), "sensitivity must be finite"),
    (lambda: make_heterogeneous_suite(3, np.inf), "sensitivity must be finite"),
    (lambda: make_heterogeneous_suite(3, 0.5, sigma2=-1.0), "noise variance must be nonnegative"),
    (lambda: make_heterogeneous_suite(3, 0.5, sigma2=np.nan), "noise variance must be finite"),
    (lambda: make_heterogeneous_suite(3, 0.5, zbar=np.ones((2, 4))), "2 rows for 3 agents"),
    (lambda: make_heterogeneous_suite(2, 0.5, kind=STRATEGIC, shards=[
        (np.ones((3, 2)), np.ones(3)), (np.ones((0, 2)), np.ones(0))]), "nonempty"),
    (lambda: dataclasses.replace(one_agent_env(STRATEGIC), sizes=np.array([0])), "nonempty"),
    (lambda: dataclasses.replace(one_agent_env(STRATEGIC), sizes=np.array([4])), "3 feature rows"),
    (lambda: dataclasses.replace(one_agent_env(STRATEGIC), labels=np.ones(2)), "3 feature rows"),
    (lambda: dataclasses.replace(one_agent_env(STRATEGIC), labels=np.ones((3, 1))),
     "3 feature rows"),
    (lambda: dataclasses.replace(one_agent_env(STRATEGIC), beta=0.0), "beta > 0"),
    (lambda: dataclasses.replace(one_agent_env(STRATEGIC), beta=-0.1), "beta > 0"),
    (lambda: dataclasses.replace(one_agent_env(STRATEGIC), beta=np.nan), "beta > 0"),
    (lambda: dataclasses.replace(one_agent_env(GAUSSIAN), beta=0.1), "no ridge beta"),
    (lambda: dataclasses.replace(one_agent_env(GAUSSIAN), features=np.ones((3, 2)),
                                 labels=np.ones(3), sizes=np.array([3]), beta=0.1),
     "exactly one population kind"),
], ids=["empty", "no_agents", "no_agents_spread", "nan_multiplier", "nan_spread", "negative_eps",
        "nan_eps", "inf_eps", "negative_sigma2", "nan_sigma2", "zbar_rows", "empty_shard",
        "empty_shard_stacked", "size_rows", "label_rows", "label_shape", "strategic_zero_beta",
        "strategic_negative_beta", "strategic_nan_beta", "gaussian_beta", "both_kinds"])
# every check fires before a numpy warning, such as the mean of an empty grid
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_environment_rejects_bad_input(build, match):
    with pytest.raises(ValueError, match=match):
        build()
