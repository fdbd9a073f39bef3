import csv
import math
from dataclasses import asdict

import numpy as np
import pytest

from perfnet import theory
from perfnet.engine import StepSchedule, gamma
from perfnet.environment import make_heterogeneous_suite
from perfnet.metrics import rate_fit, write_csv
from perfnet.oracle import closed_form_multi_ps
from perfnet.theory import (
    ConstantsInapplicableError,
    StabilityViolatedError,
    bound_curves,
    compute_constants,
    instance_constants,
    ratio_condition_check,
    step_size_cap,
    transient_threshold,
)
from perfnet.topology import build_ring, uniform_neighbor_weights
import reference


def reference_constants(mu, L, sigma, varsigma, rho, n, eps_avg, eps_max,
                        gamma1, gap0_sq, q0_sq, delta):
    """Independent re-derivation of every constant, different groupings."""
    mu_tilde = mu - eps_avg * L - delta * eps_avg * L
    one_plus = 1.0 + eps_max
    c1 = (L / (2.0 * delta)) * one_plus * one_plus / (n * eps_avg)
    c2 = 4.0 * sigma * sigma / n + (2.0 * L * one_plus) ** 2
    c3 = 12.0 * (sigma * sigma + 1.5 * (L * one_plus) ** 2)
    D = gap0_sq + (8.0 * gamma1 * c1 * q0_sq) / (rho * n)
    delta_bar = D + 3.0 / 2.0 + (8.0 / n) * (sigma * sigma / c2)
    return dict(mu_tilde=mu_tilde, c1=c1, c2=c2, c3=c3, D=D, delta_bar=delta_bar)


def reference_cap(tc):
    noise = tc.sigma**2 + tc.varsigma**2
    vals = [
        4.0 / tc.mu_tilde,
        tc.mu_tilde / tc.c2,
        tc.rho / math.sqrt(2.0 * tc.c3),
        math.inf if noise == 0 else math.sqrt(tc.rho**2 * tc.mu_tilde / (192.0 * tc.c1 * noise)),
        tc.rho * tc.c1 / (4.0 * tc.mu_tilde * tc.c1 + tc.rho * tc.c2),
    ]
    return min(vals)


CANON = dict(mu=1.0, L=1.0, sigma=math.sqrt(50.0), varsigma=54.0, rho=0.0209,
             n=25, eps_avg=0.9, eps_max=1.44, gamma1=50.0 / 10_001.0,
             gap0_sq=1e4, q0_sq=3.0, delta=0.1)


# ---------------------------------------------------------------- constants

def test_constants_dual_path_agreement():
    cases = [
        CANON,
        dict(mu=10.0, L=2.0, sigma=1.3, varsigma=0.0, rho=1.0, n=4,
             eps_avg=0.5, eps_max=0.7, gamma1=0.02, gap0_sq=7.0, q0_sq=0.4, delta=2.0),
        dict(mu=1.0, L=1.0, sigma=0.0, varsigma=0.0, rho=0.5, n=1,
             eps_avg=0.2, eps_max=0.2, gamma1=0.1, gap0_sq=0.0, q0_sq=0.0, delta=1.0),
    ]
    for kw in cases:
        tc = compute_constants(**kw)
        ref = reference_constants(**kw)
        for name, want in ref.items():
            got = getattr(tc, name)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300), name


def test_canonical_instance_mu_tilde():
    tc = compute_constants(**CANON)
    assert tc.mu_tilde == pytest.approx(1.0 - 1.1 * 0.9, rel=1e-12)


def test_c1_single_agent_substitution():
    # eps_max = eps_avg = eps, n = 1, delta = 1: c1 = (1 + eps)^2 / (2 eps)
    eps = 0.3
    tc = compute_constants(mu=1.0, L=1.0, sigma=0.0, varsigma=0.0, rho=1.0, n=1,
                           eps_avg=eps, eps_max=eps, gamma1=0.01, delta=1.0)
    assert tc.c1 == pytest.approx((1 + eps) ** 2 / (2 * eps), rel=1e-14)


def test_stability_violated_names_binding_condition():
    kw = dict(CANON)
    kw["eps_avg"] = 0.95
    with pytest.raises(StabilityViolatedError, match="eps_avg < mu / "):
        compute_constants(**kw)


def test_zero_sensitivity_inapplicable():
    kw = dict(CANON)
    kw["eps_avg"] = 0.0
    with pytest.raises(ConstantsInapplicableError, match="classical"):
        compute_constants(**kw)


def test_instance_constants_exact_gaussian():
    env = make_heterogeneous_suite(25, 0.9, 0.6, zbar=10.0, sigma2=50.0)
    mix = uniform_neighbor_weights(build_ring(25))
    sched = StepSchedule.inverse_time(50.0, 1e4)
    tc = instance_constants(env, mix.rho, sched, theta0=0.0, theta_ps=closed_form_multi_ps(env), delta=0.1)
    assert tc.sigma == pytest.approx(math.sqrt(50.0))
    assert tc.eps_max == pytest.approx(1.44)
    assert tc.gap0_sq == pytest.approx(1e4)
    assert tc.q0_sq == 0.0 and tc.D == pytest.approx(1e4)
    # the caller names the stable point; the theory layer computes none
    with pytest.raises(TypeError, match="theta_ps"):
        instance_constants(env, mix.rho, sched, theta0=0.0, delta=0.1)


# ---------------------------------------------------------------- step cap

def test_cap_fourth_term_infinite_when_noise_free():
    tc = compute_constants(mu=1.0, L=1.0, sigma=0.0, varsigma=0.0, rho=1.0, n=2,
                           eps_avg=0.4, eps_max=0.4, gamma1=0.01, delta=0.1)
    cap = step_size_cap(tc)
    assert cap.terms["coupling"] == math.inf
    assert cap.binding != "coupling"


def test_cap_matches_independent_reimplementation():
    tc = compute_constants(**CANON)
    cap = step_size_cap(tc)
    assert cap.cap == pytest.approx(reference_cap(tc), rel=1e-12)
    assert cap.cap > 0
    assert cap.terms[cap.binding] == cap.cap
    # with the canonical constants the noise-coupling term binds
    assert cap.binding == "coupling"


def test_cap_weakly_decreasing_in_sigma():
    kw = dict(CANON)
    caps = []
    for s in [0.5, 1.0, 2.0, 4.0, 8.0]:
        kw["sigma"] = s
        caps.append(step_size_cap(compute_constants(**kw)).cap)
    assert all(a >= b - 1e-15 for a, b in zip(caps, caps[1:]))


# ---------------------------------------------------------------- ratio condition

def test_ratio_constant_schedule_passes():
    tc = compute_constants(**CANON)
    check = ratio_condition_check(StepSchedule.constant(1e-6), tc, T=10_000)
    assert check.ok


def test_ratio_inverse_time_passes_within_horizon():
    # the root bounds decay like powers of gamma while the ratio decays like
    # 1/t, so inverse-time schedules pass only up to a finite horizon; find
    # that horizon by independent direct evaluation and check agreement
    tc = compute_constants(mu=1.0, L=1.0, sigma=1.0, varsigma=0.0, rho=0.5, n=4,
                           eps_avg=0.1, eps_max=0.1, gamma1=100.0 / 11.0, delta=1.0)
    assert tc.mu_tilde == pytest.approx(0.8)
    sched = StepSchedule.inverse_time(100.0, 10.0)

    def violates(t):
        g_next = 100.0 / (10.0 + t + 1)
        ratio = (10.0 + t + 1) / (10.0 + t)
        bound = min(
            (1.0 + 0.2 * g_next**2) ** 0.5,
            (1.0 + 0.2 * g_next**3) ** (1.0 / 3.0),
            1.0 + 0.5 / 3.0,
        )
        return ratio > bound

    first_bad = next(t for t in range(1, 5000) if violates(t))
    assert first_bad > 100  # genuinely passes for a while
    assert ratio_condition_check(sched, tc, T=first_bad - 1).ok
    late = ratio_condition_check(sched, tc, T=first_bad + 50)
    assert not late.ok and late.first_violation == first_bad


def test_ratio_violation_reported_at_small_t():
    # gamma_t = 1/t with rho = 1 and tiny mu_tilde: the ratio 2 at t=1 exceeds
    # every bound, and the check reports it rather than raising
    tc = compute_constants(mu=1.0, L=1.0, sigma=1.0, varsigma=0.0, rho=1.0, n=4,
                           eps_avg=0.001, eps_max=0.001, gamma1=1.0, delta=0.1)
    check = ratio_condition_check(StepSchedule.inverse_time(1.0, 0.0), tc, T=100)
    assert not check.ok and check.first_violation == 1


@pytest.mark.parametrize("a0", [20.0, 50.0, 100.0, 200.0, 1e3, 1e4])
@pytest.mark.parametrize("a1", [0.0, 10.0, 100.0, 1000.0])
def test_ratio_check_from_one_array_call_equals_the_step_by_step_loop(a0, a1):
    # the grid holds violations at t = 1, at t from 12 to 8153, and none within 10 000 steps
    sched = StepSchedule.inverse_time(a0, a1)
    tc = compute_constants(mu=1.0, L=1.0, sigma=1.0, varsigma=0.0, rho=0.5, n=4, eps_avg=0.1,
                           eps_max=0.1, gamma1=gamma(sched, 1), delta=1.0)
    for T in (0, 1, 300, 10_000):
        assert ratio_condition_check(sched, tc, T) == reference.ratio_condition_check(sched, tc, T)


# ---------------------------------------------------------------- bound curves

def curve_constants():
    return compute_constants(mu=10.0, L=1.0, sigma=1.0, varsigma=0.0, rho=1.0, n=50,
                             eps_avg=1.0, eps_max=1.0, gamma1=3.0 / 11.0,
                             gap0_sq=1.0, q0_sq=0.0, delta=4.0)


def test_curves_baseline_at_zero():
    tc = compute_constants(**CANON)
    sched = StepSchedule.constant(1e-6)
    curves = bound_curves(tc, sched, [0])
    assert curves.gap_bound[0] == pytest.approx(tc.D)
    assert curves.consensus_bound[0] == pytest.approx(tc.q0_sq / tc.n)


def test_curves_noise_free_reduce_to_product_term():
    tc = compute_constants(mu=2.0, L=1.0, sigma=0.0, varsigma=0.0, rho=0.8, n=3,
                           eps_avg=0.5, eps_max=0.5, gamma1=0.05,
                           gap0_sq=9.0, q0_sq=0.0, delta=0.1)
    sched = StepSchedule.constant(0.05)
    ts = [0, 1, 5, 20]
    curves = bound_curves(tc, sched, ts)
    for k, t in enumerate(ts):
        want = (1.0 - tc.mu_tilde * 0.05 / 2.0) ** t * 9.0
        assert curves.gap_bound[k] == pytest.approx(want, rel=1e-12)
        assert curves.term_network[k] == 0.0 and curves.term_fluctuation[k] == 0.0
        assert curves.consensus_bound[k] == 0.0


def test_curve_asymptotic_slopes():
    # inverse-time schedule: the gap bound decays like gamma_t and the
    # consensus bound like gamma_t^2 once the product term has died
    tc = curve_constants()
    sched = StepSchedule.inverse_time(3.0, 10.0)
    ts = np.unique(np.geomspace(1e3, 1e5, 60).astype(int))
    curves = bound_curves(tc, sched, ts)
    gap_fit = rate_fit(curves.t, curves.gap_bound, window=1.0, min_t=1000)
    cons_fit = rate_fit(curves.t, curves.consensus_bound, window=1.0, min_t=1000)
    assert abs(gap_fit.slope - (-1.0)) < 0.05
    assert abs(cons_fit.slope - (-2.0)) < 0.05


def test_curves_nonincreasing_under_admissible_constant_step():
    # from t >= 1 on: the t = 0 baseline has no noise floor, so the first
    # recorded step can sit above it
    tc = compute_constants(**CANON)
    cap = step_size_cap(tc).cap
    sched = StepSchedule.constant(0.9 * cap)
    curves = bound_curves(tc, sched, range(1, 200, 10))
    assert np.all(np.diff(curves.gap_bound) <= 1e-15)
    assert np.all(np.diff(curves.consensus_bound) <= 1e-15)


@pytest.mark.parametrize("sched", [StepSchedule.inverse_time(50.0, 10_000.0), StepSchedule.constant(1e-5)],
                         ids=["inverse_time", "constant"])
def test_curves_equal_the_step_by_step_products_bit_for_bit(sched):
    # T = 2e5 spans many chunks of running products; t = 0, repeated and
    # unsorted iterations and a chunk's first and last steps are all asked for
    tc = compute_constants(**CANON)  # q0_sq > 0, so the (1 - rho/2)^t decay counts
    chunk = theory._CURVE_CHUNK
    ts = [0, 200_000, 5, 5, 1, chunk, chunk + 1, 2 * chunk, *range(0, 200_001, 200), 0, 200_000]
    got, want = bound_curves(tc, sched, ts), reference.bound_curves(tc, sched, ts)
    for name, value in asdict(want).items():
        assert getattr(got, name).dtype == value.dtype
        assert getattr(got, name).tobytes() == value.tobytes(), name
    # t = 0 alone, and grids ending on a chunk's last step or on the next chunk's first
    for ts in ([0], [1], [3, 0], [0, chunk], range(0, 2 * chunk + 1, 512), [chunk + 1]):
        got, want = bound_curves(tc, sched, ts), reference.bound_curves(tc, sched, ts)
        assert all(getattr(got, k).tobytes() == v.tobytes() for k, v in asdict(want).items())


def test_curves_csv_reads_back_as_floats(tmp_path):
    # numpy 2 reprs a float64 as "np.float64(...)"; every cell must be a number
    tc = compute_constants(**CANON)
    curves = bound_curves(tc, StepSchedule.inverse_time(3.0, 10.0), [0, 50, 100, 110])
    path = tmp_path / "curves.csv"
    write_csv(path, asdict(curves))
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header[0] == "t" and len(rows) == 4
    values = np.array([[float(cell) for cell in row] for row in rows])
    assert values[:, 0].tolist() == [0.0, 50.0, 100.0, 110.0]
    assert values[:, 1].tolist() == curves.gap_bound.tolist()
    assert values[:, 5].tolist() == curves.term_fluctuation.tolist()


# ---------------------------------------------------------------- transient threshold

def test_transient_threshold_substitution():
    # varsigma = 0, rho = 1, C = 1, L = 1: sigma^2 cancels leaving delta * eps
    tc = compute_constants(mu=1.0, L=1.0, sigma=2.0, varsigma=0.0, rho=1.0, n=4,
                           eps_avg=0.5, eps_max=0.5, gamma1=0.01, delta=0.3)
    assert transient_threshold(tc) == pytest.approx(0.3 * 0.5, rel=1e-12)


def test_transient_threshold_quadratic_in_rho():
    base = dict(mu=1.0, L=1.0, sigma=2.0, varsigma=1.0, n=4,
                eps_avg=0.5, eps_max=0.5, gamma1=0.01, delta=0.3)
    big = transient_threshold(compute_constants(rho=0.8, **base))
    small = transient_threshold(compute_constants(rho=0.08, **base))
    assert small == pytest.approx(big / 100.0, rel=1e-12)


def test_transient_threshold_decreasing_in_heterogeneity():
    base = dict(mu=1.0, L=1.0, sigma=2.0, rho=0.5, n=4,
                eps_avg=0.5, eps_max=0.5, gamma1=0.01, delta=0.3)
    lo = transient_threshold(compute_constants(varsigma=1.0, **base))
    hi = transient_threshold(compute_constants(varsigma=2.0, **base))
    assert hi < lo
