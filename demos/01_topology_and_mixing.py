"""Communication graphs and their mixing matrices.

Builds the 25-agent ring used throughout, inspects its uniform 1/3 weights
and spectral gap, compares with Metropolis weights on an irregular star,
and certifies a time-varying schedule.
"""

import numpy as np

from perfnet import (
    GraphSchedule,
    build_ring,
    build_star,
    from_edge_list,
    metropolis_weights,
    schedule_mixing,
    uniform_neighbor_weights,
)
from perfnet.topology import DisconnectedGraphError

ring = build_ring(25)
mix = uniform_neighbor_weights(ring)
print(f"ring(25): degree {ring.degree(0)} per vertex, weights 1/3 on every edge")
print(f"  spectral gap rho = {mix.rho:.6f}")
print(f"  circulant check: 1 - (1 + 2 cos(2 pi/25))/3 = "
      f"{1 - (1 + 2 * np.cos(2 * np.pi / 25)) / 3:.6f}")

star = build_star(5)
w = metropolis_weights(star)
print(f"\nstar(5) is irregular, Metropolis weights give rho = {w.rho:.4f}")
print("  hub row:", np.round(w.matrices[0][0], 4))

# two sparse graphs that are individually disconnected but union to the ring
cycle = [(i, (i + 1) % 25) for i in range(25)]
halves = (from_edge_list(25, cycle[0::2]), from_edge_list(25, cycle[1::2]))
try:
    schedule_mixing(GraphSchedule(graphs=halves, window=1))
except DisconnectedGraphError as exc:
    print(f"\nalternating half-rings, window B = 1: refused ({exc})")
mix2 = schedule_mixing(GraphSchedule(graphs=halves, window=2))
print(f"alternating half-rings, window B = 2: contraction rho = {mix2.rho:.4f}")
