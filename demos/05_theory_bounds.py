"""Rate constants, the step-size cap, and the bound curves.

For an exactly instantiated scalar Gaussian problem the gradient-noise and
heterogeneity constants are known in closed form, so the non-asymptotic
bound curves can be evaluated and compared against simulation.
"""

import numpy as np

from perfnet import (
    RunConfig,
    StepSchedule,
    bound_curves,
    build_ring,
    closed_form_multi_ps,
    instance_constants,
    make_heterogeneous_suite,
    metric_recorder,
    ratio_condition_check,
    run,
    step_size_cap,
    uniform_neighbor_weights,
)

env = make_heterogeneous_suite(25, 0.2, 0.6, zbar=10.0, sigma2=50.0)
mix = uniform_neighbor_weights(build_ring(25))
theta_ps = closed_form_multi_ps(env)

tc = instance_constants(env, mix.rho, StepSchedule.constant(1.0),
                        theta0=0.0, theta_ps=theta_ps, delta=0.1)
cap = step_size_cap(tc)
print(f"mu_tilde = {tc.mu_tilde:.3f}, c1 = {tc.c1:.3f}, c2 = {tc.c2:.2f}, c3 = {tc.c3:.1f}")
print(f"step-size cap = {cap.cap:.3e} (binding term: {cap.binding})")

gamma = 0.9 * cap.cap
sched = StepSchedule.constant(gamma)
print("ratio condition:", ratio_condition_check(sched, tc, 2000))

ts = list(range(0, 2001, 250))
curves = bound_curves(tc, sched, ts)

gaps = []
for seed in range(8):
    sink = metric_recorder(env, theta_ps=theta_ps)
    traj = run(RunConfig(T=2000, record_every=250, seed=seed), env, mix, sched, sink=sink)
    gaps.append([r.gap_sq for r in traj.records])
mean_gap = np.mean(gaps, axis=0)

print(f"\n{'t':>5} {'empirical gap^2':>16} {'bound':>12}")
for k, t in enumerate(ts):
    print(f"{t:>5} {mean_gap[k]:>16.4f} {curves.gap_bound[k]:>12.4f}")
