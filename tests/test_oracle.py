import warnings

import numpy as np
import pytest

from perfnet import oracle
from perfnet.datasets import synthetic_agent_shards
from perfnet.engine import DATA_STREAM, PROBE_STREAM, stream
from perfnet.environment import (
    UnsupportedKindError,
    decoupled_full_gradient,
    exact_risk,
    make_heterogeneous_suite,
)
from perfnet.experiments import build_environment, preset
from perfnet.metrics import metric_recorder
from perfnet.oracle import (
    NoFixedPointError,
    _conjugate_gradient,
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
import reference
from reference import frozen_hessian


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
    return make_heterogeneous_suite(n, eps_avg, spread, shards=shards, beta=beta)


def preset_env(name):
    cfg = preset(name)
    return build_environment(cfg.environment, cfg.run.seed)[0]


def old_forcing_rule(monkeypatch):
    """Make every frozen Newton step solve its CG to ``1e-3 * min(1, |g|)``.

    That was the rule before the forcing term ``min(0.5, |g|)``; the tests
    compare the two in one process.
    """
    cg = oracle._conjugate_gradient
    monkeypatch.setattr(oracle, "_conjugate_gradient", lambda hv, g, iterations, rtol: cg(
        hv, g, iterations, 1e-3 * min(1.0, float(np.linalg.norm(g)))))


def plain_forcing_rule(monkeypatch):
    """Make every frozen Newton step solve its CG to ``min(0.5, |g|)``.

    That was the rule before the safeguard ``0.5 _INNER_TOL / |g|``; the tests
    compare the two in one process.
    """
    cg = oracle._conjugate_gradient
    monkeypatch.setattr(oracle, "_conjugate_gradient", lambda hv, g, iterations, rtol: cg(
        hv, g, iterations, min(0.5, float(np.linalg.norm(g)))))


def frozen_scores(env, theta, deployed):
    """A fresh scoring ``F theta + eps_row (deployed . theta)`` of the shifted rows."""
    return env.features @ theta + env.row_eps * float(deployed @ theta)


def counting_hessians(monkeypatch, counts):
    """Count Newton steps (Hessians built) and Hessian-vector products in ``counts``."""
    build = oracle._frozen_hessian

    def counting(*args):
        counts["newton"] += 1
        hv = build(*args)

        def product(v):
            counts["products"] += 1
            return hv(v)

        return product

    monkeypatch.setattr(oracle, "_frozen_hessian", counting)


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


def test_apply_M_strategic_first_order_optimal(monkeypatch):
    from perfnet.environment import decoupled_full_gradient
    env = strategic_env()
    theta = np.full(4, 0.2)
    monkeypatch.setattr(oracle, "_INNER_TOL", 1e-11)
    m_theta = apply_M(env, theta, inner=2000)
    g = decoupled_full_gradient(env, m_theta, theta)
    assert np.linalg.norm(g) <= 1e-11


def test_apply_M_budget_exhaustion_warns(monkeypatch):
    env = strategic_env()
    monkeypatch.setattr(oracle, "_INNER_TOL", 1e-14)
    with pytest.warns(RuntimeWarning, match="budget"):
        apply_M(env, np.zeros(4), inner=2)


def test_apply_M_strategic_equals_gradient_descent_on_unequal_shards(monkeypatch):
    # reference: full-batch gradient descent with step 1/L run to |g| <= 1e-13
    env = strategic_env(eps_avg=0.3, m=[5, 8, 11], spread=0.5, beta=0.2)
    monkeypatch.setattr(oracle, "_INNER_TOL", 1e-13)
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
        assert np.allclose(apply_M(env, deployed), theta, rtol=0, atol=1e-9)


def test_frozen_hessian_matches_gradient_differences():
    env = strategic_env(eps_avg=0.4, m=[5, 8, 11], spread=0.5, beta=0.3)
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        theta, deployed = rng.standard_normal(4), rng.standard_normal(4)
        hv = _frozen_hessian(env, frozen_scores(env, theta, deployed), deployed)
        for _ in range(3):
            v = rng.standard_normal(4)
            fd = (decoupled_full_gradient(env, theta + 1e-6 * v, deployed)
                  - decoupled_full_gradient(env, theta - 1e-6 * v, deployed)) / 2e-6
            worst = max(worst, float(np.linalg.norm(hv(v) - fd)) / max(1.0, float(np.linalg.norm(fd))))
    assert worst <= 1e-6


def random_spd(d, cond, rng):
    """A dense SPD matrix with eigenvalues log-spaced over ``[1, cond]``."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (q * np.logspace(0.0, np.log10(cond), d)) @ q.T


@pytest.mark.parametrize("cond", [1e1, 1e2, 1e3, 1e4])
@pytest.mark.parametrize("d", [5, 20, 50])
def test_conjugate_gradient_contract(d, cond):
    rng = np.random.default_rng(1000 * d + int(np.log10(cond)))
    h = random_spd(d, cond, rng)
    # the recursive residual drifts from the true one by about k eps |H| |p|
    # after k <= d products, with |H| = cond and |p| <= |g|
    eps = np.finfo(float).eps
    for _ in range(5):
        g = rng.standard_normal(d)
        gn = float(np.linalg.norm(g))
        for iterations in (3, d):
            for rtol in (0.5, 1e-3, 1e-12):
                products = []

                def hv(v):
                    products.append(1)
                    return h @ v

                p = _conjugate_gradient(hv, g, iterations, rtol)
                assert len(products) <= iterations
                if len(products) < iterations:
                    assert np.linalg.norm(h @ p - g) <= rtol * gn + 1e3 * eps * cond * gn
                assert float(g @ p) > 0.0


def test_apply_M_forcing_rule_keeps_accuracy(monkeypatch):
    # each frozen objective is beta-strongly convex (row weights sum to 1), so
    # two points with |g| <= inner_tol lie within 2 inner_tol / beta
    inner_tol = 1e-12
    monkeypatch.setattr(oracle, "_INNER_TOL", inner_tol)
    small = strategic_env(eps_avg=0.3, m=[5, 8, 11], spread=0.5, beta=0.2)
    hetero = preset_env("hetero_vs_homo")
    rng = np.random.default_rng(17)
    center = stable_point(hetero)
    cases = [(small, rng.standard_normal(small.dim)) for _ in range(3)]
    cases += [(hetero, np.zeros(hetero.dim)), (hetero, center),
              (hetero, center + rng.uniform(-1.0, 1.0, hetero.dim))]
    for env, deployed in cases:
        solved = apply_M(env, deployed)
        assert np.linalg.norm(decoupled_full_gradient(env, solved, deployed)) <= inner_tol
        with monkeypatch.context() as m:
            old_forcing_rule(m)
            old = apply_M(env, deployed)
        assert np.max(np.abs(solved - old)) <= 2 * inner_tol / env.beta


def strategic_oracle_unit(seed=7):
    """The benchmark's strategic_oracle unit: fixed point, then a 4-pair probe."""
    env = preset_env("hetero_vs_homo")
    theta0 = 0.1 * stream(seed, DATA_STREAM).standard_normal(env.dim)
    res = repeated_gd_fixed_point(env, deployments=100, inner=200, tol=1e-6, theta0=theta0)
    probe = contraction_probe(env, pairs=4, radius=1.0, rng=stream(seed, PROBE_STREAM),
                              center=res.theta_ps, inner=200)
    return res, probe


def assert_unit_cuts_products(monkeypatch, reference_rule, factor):
    """The shipped rule needs at most ``factor`` times the reference rule's Hessian products.

    Both run the strategic_oracle unit; Newton steps may grow by 2, and the
    deployments, probe ratio and budget counts must hold.
    """
    counts = {"newton": 0, "products": 0}
    with monkeypatch.context() as m:
        reference_rule(m)
        counting_hessians(m, counts)
        old_res, old_probe = strategic_oracle_unit()
    old_counts = dict(counts)
    counts.update(newton=0, products=0)
    with monkeypatch.context() as m:
        counting_hessians(m, counts)
        res, probe = strategic_oracle_unit()
    assert counts["products"] <= factor * old_counts["products"]
    assert counts["newton"] <= old_counts["newton"] + 2
    assert res.converged and res.residual <= 1e-6
    assert res.deployments == old_res.deployments
    assert probe.empirical_ratio == pytest.approx(old_probe.empirical_ratio, rel=0, abs=1e-9)
    assert res.budget_exhausted == probe.budget_exhausted == 0
    assert old_res.budget_exhausted == old_probe.budget_exhausted == 0


def test_forcing_rule_cuts_hessian_products(monkeypatch):
    assert_unit_cuts_products(monkeypatch, old_forcing_rule, 0.7)


def test_safeguarded_forcing_stops_oversolving(monkeypatch):
    # the last Newton step of each solve no longer runs CG to |g| ~ 1e-8
    assert_unit_cuts_products(monkeypatch, plain_forcing_rule, 0.75)


@pytest.mark.parametrize("inner_tol", [1e-8, 1e-12, 0.0])
def test_forcing_cap_binds_far_from_the_solution(monkeypatch, inner_tol):
    # started far out, |g| > 0.5, so the first steps solve CG only to 0.5
    monkeypatch.setattr(oracle, "_INNER_TOL", inner_tol)
    env = strategic_env(eps_avg=0.3, m=[5, 8, 11], spread=0.5, beta=0.2)
    deployed = np.full(4, 30.0)
    rtols = []
    cg = oracle._conjugate_gradient

    def recording(hv, g, iterations, rtol):
        rtols.append(rtol)
        return cg(hv, g, iterations, rtol)

    with monkeypatch.context() as m:
        m.setattr(oracle, "_conjugate_gradient", recording)
        if inner_tol > 0:
            solved = apply_M(env, deployed, inner=200)
            assert np.linalg.norm(decoupled_full_gradient(env, solved, deployed)) <= inner_tol
        else:
            # |g| <= 0 never holds in floating point, so the budget runs out;
            # the safeguard term is 0 and the steps are the plain rule's
            with pytest.warns(RuntimeWarning, match="budget"):
                solved = apply_M(env, deployed, inner=40)
            with monkeypatch.context() as plain, pytest.warns(RuntimeWarning, match="budget"):
                plain_forcing_rule(plain)
                assert np.array_equal(apply_M(env, deployed, inner=40), solved)
            assert np.linalg.norm(decoupled_full_gradient(env, solved, deployed)) <= 1e-14
    assert rtols[0] == 0.5 and max(rtols) == 0.5


def test_hessian_from_line_search_scores_equals_fresh_scoring(monkeypatch):
    # the Hessian weights reuse the accepted iterate's scores; they must be the
    # weights a fresh scoring of that iterate gives, bit for bit
    env = preset_env("hetero_vs_homo")
    rng = np.random.default_rng(19)
    build = oracle._frozen_hessian
    iterate = {}
    gradient = oracle.decoupled_full_gradient
    builds = []

    def recording_gradient(env_, theta, deployed, scores=None):
        iterate["theta"] = np.array(theta)
        return gradient(env_, theta, deployed, scores)

    def checking(env_, scores, deployed):
        hv = build(env_, scores, deployed)
        fresh = build(env_, frozen_scores(env_, iterate["theta"], deployed), deployed)
        for _ in range(2):
            v = rng.standard_normal(env_.dim)
            assert np.array_equal(hv(v), fresh(v))
        builds.append(1)
        return hv

    monkeypatch.setattr(oracle, "decoupled_full_gradient", recording_gradient)
    monkeypatch.setattr(oracle, "_frozen_hessian", checking)
    center = stable_point(env)
    for deployed in (np.zeros(env.dim), center + rng.uniform(-1.0, 1.0, env.dim)):
        apply_M(env, deployed)
    assert len(builds) > 4


@pytest.mark.parametrize("name", ["hetero_vs_homo", "spam_logistic"])
def test_gradient_from_given_scores_equals_fresh_scoring(name):
    env = preset_env(name)
    rng = np.random.default_rng(23)
    center = stable_point(env)
    off = center + rng.uniform(-1.0, 1.0, env.dim)
    for theta in (np.zeros(env.dim), center, off):
        for deployed in (theta, off if theta is not off else center):
            fresh = decoupled_full_gradient(env, theta, deployed)
            given = decoupled_full_gradient(env, theta, deployed,
                                            scores=frozen_scores(env, theta, deployed))
            assert np.array_equal(given, fresh)


def test_gaussian_gradient_ignores_scores():
    env = gaussian_env(spread=0.3)
    theta, deployed = np.array([3.0]), np.array([5.0])
    assert np.array_equal(decoupled_full_gradient(env, theta, deployed, scores=np.full(1, np.nan)),
                          decoupled_full_gradient(env, theta, deployed))


@pytest.mark.parametrize("seed, counts", [(7, (39, 207, 54)), (31, None)])
def test_frozen_solve_reusing_scores_matches_fresh_scoring(monkeypatch, seed, counts):
    # the frozen solve hands the line search's scores to the gradient; a
    # gradient that drops them and scores afresh must give the same bits
    gradient = oracle.decoupled_full_gradient
    runs = []
    for fresh in (False, True):
        tally = {"newton": 0, "products": 0, "gradients": 0}

        def counting_gradient(env_, theta, deployed, scores=None):
            tally["gradients"] += 1
            return gradient(env_, theta, deployed, None if fresh else scores)

        with monkeypatch.context() as m:
            counting_hessians(m, tally)
            m.setattr(oracle, "decoupled_full_gradient", counting_gradient)
            res, probe = strategic_oracle_unit(seed)
        runs.append((res.theta_ps.tobytes(), res.residual, res.deployments, res.converged,
                     probe.empirical_ratio, tally["newton"], tally["products"], tally["gradients"]))
    assert runs[0] == runs[1]
    assert runs[0][3] and runs[0][4] < 1.0
    if counts is not None:
        assert runs[0][5:] == counts


@pytest.mark.parametrize("name", ["hetero_vs_homo", "spam_logistic"])
def test_single_precision_hessian_matches_float64_reference(name):
    # the bound sits under the smallest CG tolerance _INNER_TOL = 1e-10 asks
    # for, sqrt(0.5e-10) = 7.1e-6
    env = preset_env(name)
    rng = np.random.default_rng(29)
    center = stable_point(env)
    for point in (np.zeros(env.dim), center, center + rng.uniform(-1.0, 1.0, env.dim)):
        scores = frozen_scores(env, point, point)
        hv = _frozen_hessian(env, scores, point)
        want = frozen_hessian(env, scores, point)
        for _ in range(3):
            v = rng.standard_normal(env.dim)
            got, ref = hv(v), want(v)
            assert got.dtype == np.float64
            assert np.linalg.norm(got - ref) <= 5e-6 * np.linalg.norm(ref)


def test_single_precision_hessian_on_a_badly_scaled_problem(monkeypatch):
    # features x 1000 and beta = 1e-8 make the frozen Hessian's condition
    # number huge; the float32 model may cost at most one extra Newton step
    shards, _ = synthetic_agent_shards(n=10, per_agent=60, d=40, seed=5)
    env = make_heterogeneous_suite(10, 1e-7, shards=[(1000.0 * x, y) for x, y in shards], beta=1e-8)
    counts = {"newton": 0, "products": 0}
    with monkeypatch.context() as m:
        m.setattr(oracle, "_frozen_hessian", frozen_hessian)
        counting_hessians(m, counts)
        float64_run = repeated_gd_fixed_point(env, tol=1e-8)
    float64_steps = counts["newton"]
    counts.update(newton=0, products=0)
    with monkeypatch.context() as m:
        counting_hessians(m, counts)
        res = repeated_gd_fixed_point(env, tol=1e-8)
    assert float64_run.converged and float64_run.budget_exhausted == 0
    assert res.converged and res.budget_exhausted == 0
    assert counts["newton"] <= float64_steps + 1


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


def test_stable_point_agrees_with_exact_repeated_deployment(monkeypatch):
    env = preset_env("hetero_vs_homo")
    theta = stable_point(env)
    assert np.linalg.norm(decoupled_full_gradient(env, theta, theta)) <= 1e-10
    monkeypatch.setattr(oracle, "_INNER_TOL", 1e-12)
    res = repeated_gd_fixed_point(env, tol=1e-12)
    assert res.converged
    assert np.max(np.abs(res.theta_ps - theta)) <= 1e-8


def test_stable_point_where_repeated_deployment_does_not_contract(monkeypatch):
    # on spam_logistic the exact deployment map has spectral radius ~1.18
    env = preset_env("spam_logistic")
    theta = stable_point(env)
    assert np.linalg.norm(decoupled_full_gradient(env, theta, theta)) <= 1e-10
    # exact repeated deployment started next to it drifts away
    start = theta + 1e-4 * np.random.default_rng(0).standard_normal(env.dim)
    moved = start
    monkeypatch.setattr(oracle, "_INNER_TOL", 1e-12)
    for _ in range(40):
        moved = apply_M(env, moved)
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


def test_repeated_gd_residual_is_the_last_move(monkeypatch):
    # at the last iterate |G| is already below _INNER_TOL, so a frozen solve
    # warm-started there returns its start: |M(theta) - theta| measured that
    # way reads exactly 0, while the last move does not
    env = preset_env("hetero_vs_homo")
    calls = []
    apply_M = oracle.apply_M

    def recording(env_, theta, **kwargs):
        image = apply_M(env_, theta, **kwargs)
        calls.append((np.array(theta), image))
        return image

    monkeypatch.setattr(oracle, "apply_M", recording)
    res = repeated_gd_fixed_point(env)
    theta, image = calls[-1]
    assert res.converged and res.deployments == len(calls)
    assert np.array_equal(res.theta_ps, image)
    assert res.residual == float(np.linalg.norm(image - theta))
    assert 0.0 < res.residual <= 1e-8


def test_repeated_gd_agrees_with_closed_form_across_regimes():
    for eps in [0.0, 0.3, 0.9, 0.99]:
        env = gaussian_env(eps_avg=eps, spread=0.4 if eps else 0.0)
        res = repeated_gd_fixed_point(env, tol=1e-10)
        assert res.converged
        assert np.allclose(res.theta_ps, closed_form_multi_ps(env), atol=1e-8)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-12])
def test_repeated_gd_refuses_a_tolerance_no_residual_can_meet(tol):
    with pytest.raises(ValueError, match="tol"):
        repeated_gd_fixed_point(gaussian_env(), tol=tol)


@pytest.mark.parametrize("kwargs, match", [
    ({"deployments": 0}, "deployments must be at least 1, got 0"),
    ({"deployments": -5}, "deployments must be at least 1, got -5"),
    ({"inner": 0}, "inner must be at least 1, got 0"),
    ({"inner": -1}, "inner must be at least 1, got -1"),
], ids=["no_deployments", "negative_deployments", "no_inner", "negative_inner"])
def test_repeated_gd_refuses_a_budget_below_one(kwargs, match):
    # unrefused, deployments=-5 returned residual inf after no deployment, and
    # a gaussian solve, which reads no inner budget, ignored inner=-1
    with pytest.raises(ValueError, match=match):
        repeated_gd_fixed_point(gaussian_env(), **kwargs)


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


def test_contraction_strategic_within_bound(monkeypatch):
    env = strategic_env(eps_avg=0.02)
    monkeypatch.setattr(oracle, "_INNER_TOL", 1e-12)
    report = contraction_probe(env, pairs=6, radius=0.5, rng=stream(4, 7), inner=3000)
    assert report.empirical_ratio <= report.theoretical_bound + 1e-6


@pytest.mark.parametrize("kwargs, match", [
    ({"pairs": 0}, "pairs"),
    ({"pairs": -3}, "pairs"),
    ({"radius": 0.0}, "radius"),
    ({"radius": -1.0}, "radius"),
    ({"radius": float("nan")}, "radius"),
    ({"radius": float("inf")}, "radius"),
    ({"inner": 0}, "inner must be at least 1"),
    ({"inner": -1}, "inner must be at least 1"),
])
def test_contraction_probe_refuses_a_probe_that_measures_no_pair(kwargs, match):
    # unrefused, all but the negative radius read ratio 0.0, a contraction,
    # with no pair measured; a box radius is positive by definition
    with pytest.raises(ValueError, match=match):
        contraction_probe(gaussian_env(), rng=stream(2, 7), **kwargs)


def cold_start_probe_ratio(env, pairs, radius, rng, center):
    """The probe's ratio with every frozen solve started at its probe point."""
    worst = 0.0
    for _ in range(pairs):
        a = center + radius * rng.uniform(-1.0, 1.0, size=env.dim)
        b = center + radius * rng.uniform(-1.0, 1.0, size=env.dim)
        worst = max(worst, float(np.linalg.norm(apply_M(env, a) - apply_M(env, b)))
                    / float(np.linalg.norm(a - b)))
    return worst


@pytest.mark.parametrize("at_stable_point", [True, False], ids=["stable_point", "origin"])
def test_contraction_probe_matches_cold_starts_with_fewer_gradients(monkeypatch, at_stable_point):
    from perfnet import oracle
    env = strategic_env(eps_avg=0.05, m=(7, 10, 13))
    center = stable_point(env) if at_stable_point else np.zeros(env.dim)
    calls = []

    def counting_gradient(*args):
        calls.append(1)
        return decoupled_full_gradient(*args)

    monkeypatch.setattr(oracle, "decoupled_full_gradient", counting_gradient)
    # the ratio is ~0.006, so 1e-9 relative needs solves well below _INNER_TOL = 1e-10
    monkeypatch.setattr(oracle, "_INNER_TOL", 1e-12)
    reference = cold_start_probe_ratio(env, 6, 1.0, stream(5, 7), center)
    cold_calls = len(calls)
    calls.clear()
    report = contraction_probe(env, pairs=6, radius=1.0, rng=stream(5, 7), center=center)
    assert report.empirical_ratio == pytest.approx(reference, rel=1e-9, abs=0)
    assert len(calls) < cold_calls


def short_solves(monkeypatch, env, inner_tol):
    """Stop frozen solves at ``|g| <= inner_tol``; record, per solve, whether its result misses it."""
    monkeypatch.setattr(oracle, "_INNER_TOL", inner_tol)
    solve = oracle._solve_frozen
    missed = []

    def recording(env_, deployed, *args):
        out = solve(env_, deployed, *args)
        missed.append(bool(np.linalg.norm(decoupled_full_gradient(env, out, deployed)) > inner_tol))
        return out

    monkeypatch.setattr(oracle, "_solve_frozen", recording)
    return missed


def test_repeated_gd_counts_budget_exhaustion_under_one_warning(monkeypatch):
    env = strategic_env()
    missed = short_solves(monkeypatch, env, 1e-14)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        res = repeated_gd_fixed_point(env, deployments=3, inner=1, tol=0.0)
    # one frozen solve per deployment
    assert len(missed) == res.deployments == 3
    assert res.budget_exhausted == sum(missed) > 0
    assert [w.category for w in record] == [RuntimeWarning]
    assert f"budget 1 exhausted in {sum(missed)} of 3 frozen solves" in str(record[0].message)
    assert record[0].filename == __file__


@pytest.mark.parametrize("center", [None, 0.0], ids=["stable_point", "origin"])
def test_contraction_probe_counts_budget_exhaustion_under_one_warning(monkeypatch, center):
    env = strategic_env(eps_avg=0.05, m=(7, 10, 13))
    center = None if center is None else np.full(env.dim, center)
    missed = short_solves(monkeypatch, env, 1e-14)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        report = contraction_probe(env, pairs=2, rng=stream(6, 7), center=center, inner=1)
    # M(center) and both points of each pair
    assert len(missed) == 5
    assert report.budget_exhausted == sum(missed) > 0
    assert [w.category for w in record] == [RuntimeWarning]
    assert f"budget 1 exhausted in {sum(missed)} of 5 frozen solves" in str(record[0].message)


def test_budget_count_passes_other_warnings_through():
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        with oracle._exhausted_solves() as exhausted:
            warnings.warn("counted", oracle._BudgetExhausted)
            warnings.warn("passed through", UserWarning)
            warnings.warn("counted too", oracle._BudgetExhausted)
    assert exhausted == [2]
    assert [(w.category, str(w.message)) for w in record] == [(UserWarning, "passed through")]


def test_contraction_probe_budget_exhaustion_warns(monkeypatch):
    env = strategic_env(eps_avg=0.05, m=(7, 10, 13))
    monkeypatch.setattr(oracle, "_INNER_TOL", 1e-14)
    with pytest.warns(RuntimeWarning, match="inner Newton budget 1 exhausted") as record:
        contraction_probe(env, pairs=2, rng=stream(6, 7), inner=1)
    # the warning points at the probe's caller
    assert {w.filename for w in record} == {__file__}


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


# ---------------------------------------------------------------- one rule, one implementation

@pytest.mark.parametrize("call", [
    lambda env: apply_M(env, [1.0, 2.0, 3.0]),
    lambda env: repeated_gd_fixed_point(env, theta0=[0.0, 5.0]),
    lambda env: contraction_probe(env, center=[0.0, 0.0]),
    lambda env: metric_recorder(env, theta_ps=[20.0, 0.0]),
], ids=["apply_M", "repeated_gd_fixed_point", "contraction_probe", "metric_recorder"])
def test_a_decision_of_the_wrong_shape_is_refused(call):
    # on this d = 1 suite each used to broadcast: apply_M returned three
    # values, the repeated map "converged" to [20, 20], the probe read 0.5
    # and the recorder's gap_sq came out 400
    with pytest.raises(ValueError, match=r"^decision has shape \(\d,\), expected \(1,\)$"):
        call(gaussian_env(eps_avg=0.5))


def test_closed_form_is_refused_exactly_at_the_existence_threshold():
    below = np.nextafter(1.0, 0.0)
    assert gaussian_env(n=1, eps_avg=below).eps_avg == below
    assert closed_form_multi_ps(gaussian_env(n=1, eps_avg=below)) == pytest.approx([10.0 / (1.0 - below)])
    assert existence_check(1.0, 1.0, 1.0).threshold == 1.0
    with pytest.raises(NoFixedPointError, match=r"^eps_avg = 1\.0 >= 1: no stable point exists$"):
        closed_form_multi_ps(gaussian_env(n=1, eps_avg=1.0))


def test_the_frozen_objective_is_the_risk_at_the_frozen_scores(monkeypatch):
    env = strategic_env(eps_avg=0.05, m=(7, 10, 13))
    deployed = np.array([0.3, -0.2, 0.5, 0.1])
    calls = []

    def recorded(env_, theta, scores=None):
        value = exact_risk(env_, theta, scores)
        calls.append((theta.copy(), scores, value))
        return value

    monkeypatch.setattr(oracle, "exact_risk", recorded)
    apply_M(env, deployed)
    assert len(calls) > 1
    for theta, scores, value in calls:
        assert scores.tobytes() == frozen_scores(env, theta, deployed).tobytes()
        want = reference.frozen_objective(env, theta, deployed)
        assert np.float64(value).tobytes() == np.float64(want).tobytes()
