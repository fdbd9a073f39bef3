"""Communication graphs, doubly stochastic mixing matrices, and time-varying schedules.

Graphs are undirected, carry a self-loop at every vertex, and are immutable
after construction. Every weight rule returns one type, :class:`Mixing`: a
cycled sequence of matrices with a window ``B`` and a certified gap ``rho``.
A static graph is the one-matrix sequence with window 1, and with
``J = (1/n) 11^T`` its ``rho = 1 - ||W - J||_2`` is the spectral gap.

The certificate is the only connectivity test: a graph mixes when ``rho > 0``
(:func:`spectral_gap`), and a schedule with window ``B`` mixes when every
cyclic window product ``(W_{t+B-1} - J) ... (W_t - J) = P - J``, where ``P``
is the product of the window's ``W_t``, has norm below 1
(:func:`schedule_mixing`). Every weight rule here is symmetric and doubly
stochastic with a positive diagonal, and then the norm is below 1 exactly
when each window's union graph is connected:

- If a window's union has a component ``S``, every ``W_t`` in the window
  fixes the indicator ``1_S``, and so does ``P``; so ``P - J`` fixes the
  nonzero vector ``1_S - (|S|/n) 1`` and has norm 1.
- If the union is connected, the positive diagonals put the union into the
  support of ``P``. Then ``P^T P`` is an irreducible, aperiodic, symmetric
  stochastic matrix, its eigenvalue 1 is simple, and ``||P - J||_2^2``, its
  second-largest eigenvalue, is below 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "TopologyError",
    "DisconnectedGraphError",
    "IrregularGraphError",
    "Graph",
    "Mixing",
    "GraphSchedule",
    "build_ring",
    "build_complete",
    "build_star",
    "from_edge_list",
    "read_edge_list",
    "uniform_neighbor_weights",
    "metropolis_weights",
    "spectral_gap",
    "schedule_mixing",
]

# Validation tolerance for externally supplied matrices. Matrices built by
# this module satisfy the stochasticity identities to ~1e-16.
_STOCHASTIC_ATOL = 1e-8
_RHO_FLOOR = 1e-12


class TopologyError(ValueError):
    """Invalid graph or mixing-matrix construction."""


class DisconnectedGraphError(TopologyError):
    """The graph (or schedule window product) cannot mix globally."""


class IrregularGraphError(TopologyError):
    """Raised when uniform neighbor weights are requested on an irregular graph."""


def _check_vertices(i, j) -> None:
    # a float, a bool or a string is not a vertex, even when it equals one
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in (i, j)):
        raise TopologyError(f"edge ({i!r}, {j!r}) has a non-integer vertex")


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices ``0..n-1``; every vertex has a self-loop.

    Edges are stored as normalized ``(min, max)`` integer pairs, self-loops
    included.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise TopologyError(f"agent count must be positive, got {self.n}")
        for i, j in self.edges:
            _check_vertices(i, j)
            if not (0 <= i <= j < self.n):
                raise TopologyError(f"edge ({i},{j}) outside vertex range 0..{self.n - 1}")
        missing = [i for i in range(self.n) if (i, i) not in self.edges]
        if missing:
            raise TopologyError(f"vertices {missing} lack self-loops")

    def adjacency(self, include_self: bool = True) -> np.ndarray:
        i, j = np.array(list(self.edges)).T
        a = np.zeros((self.n, self.n))
        a[i, j] = a[j, i] = (i != j) | include_self
        return a


def build_ring(n: int) -> Graph:
    """Ring graph with self-loops; for n <= 2 this is the complete graph."""
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def build_complete(n: int) -> Graph:
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def build_star(n: int) -> Graph:
    """Star graph with vertex 0 as the hub."""
    return from_edge_list(n, [(0, j) for j in range(1, n)])


def from_edge_list(n: int, pairs) -> Graph:
    """Graph from explicit undirected pairs; self-loops are implicit."""
    edges = {(i, i) for i in range(n)}
    for i, j in pairs:
        _check_vertices(i, j)
        edges.add((i, j) if i <= j else (j, i))
    return Graph(n, frozenset(edges))


def read_edge_list(path, n: int) -> Graph:
    """Parse an edge-list file on ``n`` vertices: one ``i j`` pair per line, 0-indexed.

    Blank lines and ``#`` comments are skipped. Self-loops are implicit.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise TopologyError(f"cannot read edge list {path}: {exc}") from None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TopologyError(f"{path}:{lineno}: expected 'i j', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise TopologyError(f"{path}:{lineno}: non-integer vertex in {raw!r}") from None
        pairs.append((i, j))
    return from_edge_list(n, pairs)


@dataclass(frozen=True)
class Mixing:
    """Doubly stochastic weights ``W_t = matrices[t % len(matrices)]``, cycled in time.

    ``rho`` certifies every cyclic product of ``window`` consecutive steps:
    ``||A_{t+B-1} ... A_t||_2 <= 1 - rho`` with ``A_t = W_t - (1/n) 11^T``. At
    window 1 it is a per-step spectral gap; a static graph is one matrix at
    window 1. The matrices are read-only, in an unpickled copy too.
    """

    matrices: tuple
    window: int
    rho: float

    def __post_init__(self):
        for w in self.matrices:
            w.setflags(write=False)

    def __reduce__(self):
        """Pickle as the constructor's arguments, so an unpickled copy's matrices are read-only too."""
        return Mixing, (self.matrices, self.window, self.rho)

    def at(self, t: int) -> np.ndarray:
        return self.matrices[t % len(self.matrices)]


def spectral_gap(w: np.ndarray) -> float:
    """Exact spectral gap ``1 - |lambda_2|`` of a symmetric doubly stochastic matrix.

    ``lambda_2`` is the second-largest eigenvalue in absolute value, so the
    result equals ``1 - ||W - (1/n) 11^T||_2`` exactly (not just a bound).
    Raises :class:`DisconnectedGraphError` when the gap is zero (no mixing).
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise TopologyError(f"mixing matrix must be square, got shape {w.shape}")
    if np.min(w) < -_STOCHASTIC_ATOL:
        raise TopologyError("mixing matrix has negative entries")
    if not np.allclose(w.sum(axis=1), 1.0, atol=_STOCHASTIC_ATOL):
        raise TopologyError("row sums differ from 1")
    if not np.allclose(w.sum(axis=0), 1.0, atol=_STOCHASTIC_ATOL):
        raise TopologyError("column sums differ from 1")
    if not np.allclose(w, w.T, atol=_STOCHASTIC_ATOL):
        raise TopologyError("mixing matrix must be symmetric")
    if w.shape[0] == 1:
        return 1.0
    eig = np.sort(np.linalg.eigvalsh(w))
    # The consensus eigenvalue is eig[-1] == 1 (Perron root); drop one copy.
    rho = 1.0 - max(abs(eig[0]), abs(eig[-2]))
    if rho <= _RHO_FLOOR:
        raise DisconnectedGraphError(f"spectral gap {rho:.3e} is not positive; matrix cannot mix")
    return float(rho)


def _certify(w: np.ndarray) -> Mixing:
    return Mixing((w,), 1, spectral_gap(w))


def uniform_neighbor_weights(g: Graph) -> Mixing:
    """``W_ij = 1/deg`` on each edge of a regular graph (degree counts the self-loop)."""
    a = g.adjacency()
    degs = a.sum(axis=1)
    if np.any(degs != degs[0]):
        raise IrregularGraphError(
            f"degrees {np.unique(degs).astype(int).tolist()} are not all equal; use metropolis_weights"
        )
    return _certify(a / degs[0])


def _metropolis_matrix(g: Graph) -> np.ndarray:
    """Metropolis rule: off-diagonal 1/(1 + max(d_i, d_j)), diagonal absorbs the rest.

    Degrees exclude the self-loop. Valid (doubly stochastic) even when the
    graph is disconnected, which schedule construction relies on.
    """
    a = g.adjacency(include_self=False)
    deg = a.sum(axis=1)
    w = a / (1.0 + np.maximum.outer(deg, deg))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def metropolis_weights(g: Graph) -> Mixing:
    """Symmetric doubly stochastic weights; a disconnected graph has no spectral gap."""
    return _certify(_metropolis_matrix(g))


@dataclass(frozen=True)
class GraphSchedule:
    """Cyclically repeated sequence of graphs with a declared connectivity window."""

    graphs: tuple
    window: int

    def __post_init__(self):
        if not self.graphs:
            raise TopologyError("schedule needs at least one graph")
        if self.window < 1:
            raise TopologyError(f"window must be positive, got {self.window}")
        sizes = {g.n for g in self.graphs}
        if len(sizes) != 1:
            raise TopologyError(f"graphs in a schedule must share n, got sizes {sorted(sizes)}")

    @property
    def n(self) -> int:
        return self.graphs[0].n


def _window_product(devs: list, start: int, window: int) -> np.ndarray:
    """``devs[start + window - 1] ... devs[start]``, indices cyclic, in O(m log window) products.

    A window longer than the cycle is ``R C^q``: ``C`` is the product of one
    cycle from ``start``, and ``R`` that of its first ``window % m`` factors.
    """
    m, n = len(devs), devs[0].shape[0]

    def run(length: int) -> np.ndarray:
        p = np.eye(n)
        for k in range(length):
            p = devs[(start + k) % m] @ p
        return p

    if window <= m:
        return run(window)
    q, r = divmod(window, m)
    return run(r) @ np.linalg.matrix_power(run(m), q)


def schedule_mixing(s: GraphSchedule) -> Mixing:
    """Build per-graph Metropolis weights and certify the window contraction factor.

    Individual graphs may be disconnected; only the product over each cyclic
    window of ``s.window`` steps must contract. The first window start whose
    product does not is named in a :class:`DisconnectedGraphError`.
    """
    mats = [_metropolis_matrix(g) for g in s.graphs]
    devs = [w - 1.0 / s.n for w in mats]
    worst = 0.0
    for start in range(len(mats)):
        norm = float(np.linalg.norm(_window_product(devs, start, s.window), 2))
        if 1.0 - norm <= _RHO_FLOOR:
            raise DisconnectedGraphError(
                f"schedule window starting at {start} does not contract: product norm {norm:.6f}"
            )
        worst = max(worst, norm)
    return Mixing(tuple(mats), s.window, 1.0 - worst)
