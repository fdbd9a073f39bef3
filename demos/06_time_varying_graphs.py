"""Gossip over a time-varying graph.

The 25-ring's edges are split into two alternating sparse graphs; neither
is connected alone but every window of two unions to the ring, which is
enough for the scheme to converge.
"""

import numpy as np

from perfnet import (
    GraphSchedule,
    RunConfig,
    StepSchedule,
    build_ring,
    closed_form_multi_ps,
    from_edge_list,
    make_heterogeneous_suite,
    metric_recorder,
    run,
    schedule_mixing,
)
from perfnet.topology import DisconnectedGraphError

n = 25
cycle = [(i, (i + 1) % n) for i in range(n)]
schedule = GraphSchedule(
    graphs=(from_edge_list(n, cycle[0::2]), from_edge_list(n, cycle[1::2])),
    window=2,
)
print("union is the full ring:",
      (schedule.graphs[0].edges | schedule.graphs[1].edges) == build_ring(n).edges)
try:
    schedule_mixing(GraphSchedule(graphs=schedule.graphs, window=1))
except DisconnectedGraphError as exc:
    print("window 1 refused:", exc)

mix = schedule_mixing(schedule)
print(f"window 2 certified: contraction rho = {mix.rho:.4f}")

env = make_heterogeneous_suite(n, 0.9, 0.05, zbar=10.0, sigma2=50.0)
theta_ps = closed_form_multi_ps(env)
sink = metric_recorder(env, theta_ps=theta_ps)
traj = run(RunConfig(T=30_000, record_every=5_000, seed=0), env, mix,
           StepSchedule.inverse_time(50.0, 1e4), sink=sink)
for r in traj.records:
    print(f"t={r.t:>6}  gap^2={r.gap_sq:.4e}  consensus^2={r.consensus_sq:.4e}")
