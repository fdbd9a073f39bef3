import numpy as np
import pytest

from perfnet.engine import stream
from perfnet.environment import (
    UnsupportedKindError,
    decoupled_full_gradient,
    make_heterogeneous_suite,
)
from perfnet.experiments import build_environment, preset
from perfnet.oracle import (
    NoFixedPointError,
    _frozen_hessian,
    _stable_jacobian,
    apply_M,
    closed_form_multi_ps,
    closed_form_or_none,
    contraction_probe,
    existence_check,
    repeated_gd_fixed_point,
    stable_point,
)


def gaussian_env(n=25, eps_avg=0.9, spread=0.0, zbar=10.0, sigma2=50.0):
    return make_heterogeneous_suite(n, eps_avg, spread, zbar=zbar, sigma2=sigma2)


def strategic_env(n=3, eps_avg=0.05, d=4, m=40, beta=0.5, seed=1, spread=0.0):
    rng = np.random.default_rng(seed)
    shards = []
    w = rng.standard_normal(d)
    for size in np.broadcast_to(m, n):
        x = rng.standard_normal((size, d))
        y = (x @ w + 0.3 * rng.standard_normal(size) > 0).astype(float)
        shards.append((x, y))
    return make_heterogeneous_suite(n, eps_avg, spread, kind="strategic_shift",
                                    shards=shards, beta=beta)


def preset_env(name):
    cfg = preset(name)
    return build_environment(cfg.environment, cfg.run.seed)[0]


# ---------------------------------------------------------------- closed form

def test_closed_form_canonical_instance():
    assert closed_form_multi_ps(gaussian_env()) == pytest.approx([100.0])


def test_closed_form_no_feedback():
    assert closed_form_multi_ps(gaussian_env(eps_avg=0.0)) == pytest.approx([10.0])


def test_closed_form_beyond_threshold_raises():
    with pytest.raises(NoFixedPointError):
        closed_form_multi_ps(gaussian_env(eps_avg=1.01))
    with pytest.raises(NoFixedPointError):
        closed_form_multi_ps(gaussian_env(eps_avg=1.0))


def test_closed_form_kind_error_comes_before_threshold():
    with pytest.raises(UnsupportedKindError):
        closed_form_multi_ps(strategic_env(eps_avg=1.5))


def test_closed_form_or_none():
    assert closed_form_or_none(gaussian_env()) == pytest.approx([100.0])
    assert closed_form_or_none(gaussian_env(eps_avg=1.0)) is None
    assert closed_form_or_none(strategic_env()) is None


# ---------------------------------------------------------------- deployment map

def test_apply_M_gaussian_affine():
    env = gaussian_env(eps_avg=0.6)
    for theta in [0.0, -5.0, 42.0]:
        assert apply_M(env, [theta]) == pytest.approx([0.6 * theta + 10.0])


def test_apply_M_fixed_point_identity():
    env = gaussian_env(eps_avg=0.9)
    assert apply_M(env, [100.0]) == pytest.approx([100.0])


def test_apply_M_constant_when_insensitive():
    env = gaussian_env(eps_avg=0.0)
    assert np.array_equal(apply_M(env, [3.0]), apply_M(env, [-77.0]))


def test_apply_M_strategic_first_order_optimal():
    from perfnet.environment import decoupled_full_gradient
    env = strategic_env()
    theta = np.full(4, 0.2)
    m_theta = apply_M(env, theta, inner=2000, inner_tol=1e-11)
    g = decoupled_full_gradient(env, m_theta, theta)
    assert np.linalg.norm(g) <= 1e-11


def test_apply_M_budget_exhaustion_warns():
    env = strategic_env()
    with pytest.warns(RuntimeWarning, match="budget"):
        apply_M(env, np.zeros(4), inner=2, inner_tol=1e-14)


def test_apply_M_strategic_equals_gradient_descent_on_unequal_shards():
    # reference: full-batch gradient descent with step 1/L run to |g| <= 1e-13
    env = strategic_env(eps_avg=0.3, m=[5, 8, 11], spread=0.5, beta=0.2)
    rng = np.random.default_rng(11)
    for _ in range(3):
        deployed = rng.standard_normal(4)
        theta = deployed.copy()
        for _ in range(100_000):
            g = decoupled_full_gradient(env, theta, deployed)
            if np.linalg.norm(g) <= 1e-13:
                break
            theta = theta - g / env.smoothness
        assert np.linalg.norm(g) <= 1e-13
        assert np.allclose(apply_M(env, deployed, inner_tol=1e-13), theta, rtol=0, atol=1e-9)


def test_frozen_hessian_matches_gradient_differences():
    env = strategic_env(eps_avg=0.4, m=[5, 8, 11], spread=0.5, beta=0.3)
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        theta, deployed = rng.standard_normal(4), rng.standard_normal(4)
        hv = _frozen_hessian(env, theta, deployed)
        for _ in range(3):
            v = rng.standard_normal(4)
            fd = (decoupled_full_gradient(env, theta + 1e-6 * v, deployed)
                  - decoupled_full_gradient(env, theta - 1e-6 * v, deployed)) / 2e-6
            worst = max(worst, float(np.linalg.norm(hv(v) - fd)) / max(1.0, float(np.linalg.norm(fd))))
    assert worst <= 1e-6


def test_stable_jacobian_matches_differences_of_G():
    env = strategic_env(eps_avg=0.4, m=[5, 8, 11], spread=0.5, beta=0.3)
    rng = np.random.default_rng(78)
    worst = 0.0
    for _ in range(20):
        theta = rng.standard_normal(4)
        fd = np.column_stack([
            (decoupled_full_gradient(env, theta + h, theta + h)
             - decoupled_full_gradient(env, theta - h, theta - h)) / 2e-6
            for h in np.eye(4) * 1e-6
        ])
        worst = max(worst, float(np.linalg.norm(_stable_jacobian(env, theta) - fd))
                    / max(1.0, float(np.linalg.norm(fd))))
    assert worst <= 1e-6


# ---------------------------------------------------------------- stable point

def test_stable_point_gaussian_is_closed_form():
    env = gaussian_env(eps_avg=0.6, spread=0.3)
    assert np.array_equal(stable_point(env), closed_form_multi_ps(env))


def test_stable_point_gaussian_beyond_threshold_raises():
    with pytest.raises(NoFixedPointError):
        stable_point(gaussian_env(eps_avg=1.0))


def test_stable_point_agrees_with_exact_repeated_deployment():
    env = preset_env("hetero_vs_homo")
    theta = stable_point(env)
    assert np.linalg.norm(decoupled_full_gradient(env, theta, theta)) <= 1e-10
    res = repeated_gd_fixed_point(env, tol=1e-12, inner_tol=1e-12)
    assert res.converged
    assert np.max(np.abs(res.theta_ps - theta)) <= 1e-8


def test_stable_point_where_repeated_deployment_does_not_contract():
    # on spam_logistic the exact deployment map has spectral radius ~1.18
    env = preset_env("spam_logistic")
    theta = stable_point(env)
    assert np.linalg.norm(decoupled_full_gradient(env, theta, theta)) <= 1e-10
    # exact repeated deployment started next to it drifts away
    start = theta + 1e-4 * np.random.default_rng(0).standard_normal(env.dim)
    moved = start
    for _ in range(40):
        moved = apply_M(env, moved, inner_tol=1e-12)
    assert np.linalg.norm(moved - theta) > 10 * np.linalg.norm(start - theta)


def test_stable_point_iteration_cap_raises(monkeypatch):
    from perfnet import oracle
    monkeypatch.setattr(oracle, "_ROOT_ITERATIONS", 1)
    with pytest.raises(NoFixedPointError, match="after 1 iterations"):
        stable_point(strategic_env(eps_avg=0.5))


# ---------------------------------------------------------------- repeated GD

def test_repeated_gd_geometric_convergence():
    # error after k deployments is 100 * 0.9^k; successive steps shrink by the
    # same ratio, so tolerance 1e-8 is hit within 200 deployments
    env = gaussian_env(eps_avg=0.9)
    res = repeated_gd_fixed_point(env, tol=1e-8)
    assert res.converged
    assert res.deployments <= 200
    assert res.theta_ps == pytest.approx([100.0], abs=1e-6)
    assert res.residual <= 10 * 1e-8


def test_repeated_gd_divergence_report():
    env = gaussian_env(eps_avg=1.01)
    res = repeated_gd_fixed_point(env, deployments=100_000)
    assert res.diverged and not res.converged


def test_repeated_gd_insensitive_one_step():
    env = gaussian_env(eps_avg=0.0)
    res = repeated_gd_fixed_point(env, tol=1e-10, theta0=[10.0])
    assert res.converged and res.theta_ps == pytest.approx([10.0])
    # the first deployment already lands on the minimizer
    assert res.deployments <= 3


def test_repeated_gd_agrees_with_closed_form_across_regimes():
    for eps in [0.0, 0.3, 0.9, 0.99]:
        env = gaussian_env(eps_avg=eps, spread=0.4 if eps else 0.0)
        res = repeated_gd_fixed_point(env, tol=1e-10)
        assert res.converged
        assert np.allclose(res.theta_ps, closed_form_multi_ps(env), atol=1e-8)


def test_contraction_chain_geometric():
    env = gaussian_env(eps_avg=0.9)
    theta_ps = closed_form_multi_ps(env)
    theta = np.array([0.0])
    err0 = np.linalg.norm(theta - theta_ps)
    for k in range(1, 51):
        theta = apply_M(env, theta)
        assert np.linalg.norm(theta - theta_ps) <= 0.9**k * err0 + 1e-8


# ---------------------------------------------------------------- contraction probe

def test_contraction_ratio_exact_for_affine_map():
    for eps in [0.3, 0.5, 0.9]:
        env = gaussian_env(eps_avg=eps)
        report = contraction_probe(env, pairs=12, rng=stream(2, 7))
        assert report.empirical_ratio == pytest.approx(eps, abs=1e-8)
        assert report.theoretical_bound == pytest.approx(eps)


def test_contraction_ratio_zero_when_insensitive():
    env = gaussian_env(eps_avg=0.0)
    report = contraction_probe(env, pairs=6, rng=stream(3, 7))
    assert report.empirical_ratio == 0.0


def test_contraction_strategic_within_bound():
    env = strategic_env(eps_avg=0.02)
    report = contraction_probe(env, pairs=6, radius=0.5, rng=stream(4, 7),
                               inner=3000, inner_tol=1e-12)
    assert report.empirical_ratio <= report.theoretical_bound + 1e-6


# ---------------------------------------------------------------- existence

def test_existence_local_variant():
    res = existence_check(0.9, 1.0, 1.0)
    assert res.exists and res.threshold == 1.0


def test_existence_global_influence_variant():
    res = existence_check(0.9, 1.0, 1.0, variant="global_influence", n=25)
    assert not res.exists
    assert res.threshold == pytest.approx(1.0 / 5.0)


def test_existence_zero_sensitivity_both_variants():
    assert existence_check(0.0, 1.0, 1.0).exists
    assert existence_check(0.0, 1.0, 1.0, variant="global_influence", n=100).exists


def test_consensus_threshold_never_tighter_than_game_threshold():
    for n in [1, 2, 10, 1000]:
        local = existence_check(0.5, 2.0, 3.0).threshold
        game = existence_check(0.5, 2.0, 3.0, variant="global_influence", n=n).threshold
        assert local >= game
