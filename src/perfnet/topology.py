"""Communication graphs, doubly stochastic mixing matrices, and time-varying schedules.

Graphs are undirected, carry a self-loop at every vertex, and are immutable
after construction. Mixing matrices come with a certified spectral gap
``rho`` such that ``||W - (1/n) 11^T||_2 = 1 - rho``.
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
    "MixingMatrix",
    "GraphSchedule",
    "MixingSchedule",
    "ScheduleCheck",
    "build_ring",
    "build_complete",
    "build_star",
    "from_edge_list",
    "read_edge_list",
    "uniform_neighbor_weights",
    "metropolis_weights",
    "spectral_gap",
    "validate_schedule",
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


def _norm_edge(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i <= j else (j, i)


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices ``0..n-1``; every vertex has a self-loop.

    Edges are stored as normalized ``(min, max)`` pairs, self-loops included.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise TopologyError(f"agent count must be positive, got {self.n}")
        for i, j in self.edges:
            if not (0 <= i <= j < self.n):
                raise TopologyError(f"edge ({i},{j}) outside vertex range 0..{self.n - 1}")
        missing = [i for i in range(self.n) if (i, i) not in self.edges]
        if missing:
            raise TopologyError(f"vertices {missing} lack self-loops")

    def neighbors(self, i: int) -> list[int]:
        """Neighbors of ``i`` excluding ``i`` itself, sorted."""
        out = set()
        for a, b in self.edges:
            if a == i and b != i:
                out.add(b)
            elif b == i and a != i:
                out.add(a)
        return sorted(out)

    def degree(self, i: int, include_self: bool = True) -> int:
        return len(self.neighbors(i)) + (1 if include_self else 0)

    def adjacency(self, include_self: bool = True) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for i, j in self.edges:
            if i == j:
                if include_self:
                    a[i, i] = 1.0
            else:
                a[i, j] = 1.0
                a[j, i] = 1.0
        return a

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        adj = {i: [] for i in range(self.n)}
        for i, j in self.edges:
            if i != j:
                adj[i].append(j)
                adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def union(self, other: "Graph") -> "Graph":
        if self.n != other.n:
            raise TopologyError("cannot union graphs of different sizes")
        return Graph(self.n, self.edges | other.edges)


def _with_self_loops(n: int, pairs) -> frozenset:
    edges = {(i, i) for i in range(n)}
    for i, j in pairs:
        if i != j:
            edges.add(_norm_edge(i, j))
    return frozenset(edges)


def build_ring(n: int) -> Graph:
    """Ring graph with self-loops; for n <= 2 this is the complete graph."""
    pairs = [(i, (i + 1) % n) for i in range(n)]
    return Graph(n, _with_self_loops(n, pairs))


def build_complete(n: int) -> Graph:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, _with_self_loops(n, pairs))


def build_star(n: int) -> Graph:
    """Star graph with vertex 0 as the hub."""
    pairs = [(0, j) for j in range(1, n)]
    return Graph(n, _with_self_loops(n, pairs))


def from_edge_list(n: int, pairs) -> Graph:
    """Graph from explicit undirected pairs; self-loops are implicit."""
    return Graph(n, _with_self_loops(n, pairs))


def read_edge_list(path, n: int | None = None) -> Graph:
    """Parse an edge-list file: one ``i j`` pair per line, 0-indexed.

    Blank lines and ``#`` comments are skipped. Self-loops are implicit.
    When ``n`` is omitted it is inferred as ``max vertex + 1``.
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
    if n is None:
        if not pairs:
            raise TopologyError(f"{path}: empty edge list and no vertex count given")
        n = max(max(i, j) for i, j in pairs) + 1
    return from_edge_list(n, pairs)


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic weights with certified spectral gap."""

    weights: np.ndarray
    rho: float

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def _validate_stochastic(w: np.ndarray, atol: float = _STOCHASTIC_ATOL) -> None:
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise TopologyError(f"mixing matrix must be square, got shape {w.shape}")
    if np.min(w) < -atol:
        raise TopologyError("mixing matrix has negative entries")
    if not np.allclose(w.sum(axis=1), 1.0, atol=atol):
        raise TopologyError("row sums differ from 1")
    if not np.allclose(w.sum(axis=0), 1.0, atol=atol):
        raise TopologyError("column sums differ from 1")
    if not np.allclose(w, w.T, atol=atol):
        raise TopologyError("mixing matrix must be symmetric")


def spectral_gap(w: np.ndarray) -> float:
    """Exact spectral gap ``1 - |lambda_2|`` of a symmetric doubly stochastic matrix.

    ``lambda_2`` is the second-largest eigenvalue in absolute value, so the
    result equals ``1 - ||W - (1/n) 11^T||_2`` exactly (not just a bound).
    Raises :class:`DisconnectedGraphError` when the gap is zero (no mixing).
    """
    w = np.asarray(w, dtype=float)
    _validate_stochastic(w)
    n = w.shape[0]
    if n == 1:
        return 1.0
    eig = np.sort(np.linalg.eigvalsh(w))
    # The consensus eigenvalue is eig[-1] == 1 (Perron root); drop one copy.
    second = max(abs(eig[0]), abs(eig[-2]))
    rho = 1.0 - second
    if rho <= _RHO_FLOOR:
        raise DisconnectedGraphError(
            f"spectral gap {rho:.3e} is not positive; matrix cannot mix"
        )
    return float(rho)


def _certify(w: np.ndarray) -> MixingMatrix:
    rho = spectral_gap(w)
    w = np.asarray(w, dtype=float)
    w.setflags(write=False)
    return MixingMatrix(weights=w, rho=rho)


def uniform_neighbor_weights(g: Graph) -> MixingMatrix:
    """``W_ij = 1/deg`` on each edge of a regular graph (degree counts the self-loop)."""
    degs = [g.degree(i) for i in range(g.n)]
    if len(set(degs)) != 1:
        raise IrregularGraphError(
            f"degrees {sorted(set(degs))} are not all equal; use metropolis_weights"
        )
    w = g.adjacency() / degs[0]
    return _certify(w)


def _metropolis_matrix(g: Graph) -> np.ndarray:
    """Metropolis rule: off-diagonal 1/(1 + max(d_i, d_j)), diagonal absorbs the rest.

    Degrees exclude the self-loop. Valid (doubly stochastic) even when the
    graph is disconnected, which schedule construction relies on.
    """
    n = g.n
    deg = np.array([g.degree(i, include_self=False) for i in range(n)], dtype=float)
    w = np.zeros((n, n))
    for i, j in g.edges:
        if i != j:
            v = 1.0 / (1.0 + max(deg[i], deg[j]))
            w[i, j] = v
            w[j, i] = v
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def metropolis_weights(g: Graph) -> MixingMatrix:
    """Symmetric doubly stochastic weights for any connected graph."""
    if not g.is_connected():
        raise DisconnectedGraphError("graph is disconnected; spectral gap would be zero")
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

    def at(self, t: int) -> Graph:
        return self.graphs[t % len(self.graphs)]


@dataclass(frozen=True)
class ScheduleCheck:
    """Result of window-connectivity validation.

    ``window`` is the smallest certified window when ``connected``;
    ``violation_at`` is the first failing start index otherwise.
    """

    connected: bool
    window: int | None
    violation_at: int | None


def _window_union(s: GraphSchedule, start: int, length: int) -> Graph:
    g = s.graphs[start % len(s.graphs)]
    for k in range(1, length):
        g = g.union(s.graphs[(start + k) % len(s.graphs)])
    return g


def validate_schedule(s: GraphSchedule) -> ScheduleCheck:
    """Certify the smallest window B' <= declared B whose every cyclic union is connected.

    Violations are reported as a result, not raised: a momentarily
    disconnected graph is legal as long as some window unions to connected.
    """
    m = len(s.graphs)
    for b in range(1, s.window + 1):
        if all(_window_union(s, t, b).is_connected() for t in range(m)):
            return ScheduleCheck(connected=True, window=b, violation_at=None)
    for t in range(m):
        if not _window_union(s, t, s.window).is_connected():
            return ScheduleCheck(connected=False, window=None, violation_at=t)
    # Unreachable: if every declared-window union is connected the loop above returned.
    raise AssertionError("schedule validation inconsistency")


@dataclass(frozen=True)
class MixingSchedule:
    """Per-step mixing matrices for a B-connected schedule.

    ``rho`` certifies every cyclic window product: ``||A_{t+B-1} ... A_t||_2
    <= 1 - rho`` with ``A_t = W_t - (1/n) 11^T``.
    """

    matrices: tuple
    window: int
    rho: float

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    def at(self, t: int) -> np.ndarray:
        return self.matrices[t % len(self.matrices)]


def schedule_mixing(s: GraphSchedule) -> MixingSchedule:
    """Build per-graph Metropolis weights and certify the window contraction factor.

    Individual graphs may be disconnected; only the B-window product must
    contract.
    """
    check = validate_schedule(s)
    if not check.connected:
        raise DisconnectedGraphError(
            f"schedule window starting at {check.violation_at} has a disconnected union"
        )
    mats = [_metropolis_matrix(g) for g in s.graphs]

    n = s.n
    proj = np.full((n, n), 1.0 / n)
    devs = [w - proj for w in mats]
    m = len(mats)
    worst = 0.0
    for start in range(m):
        p = np.eye(n)
        for k in range(s.window):
            p = devs[(start + k) % m] @ p
        worst = max(worst, float(np.linalg.norm(p, 2)))
    rho = 1.0 - worst
    if rho <= _RHO_FLOOR:
        raise DisconnectedGraphError(
            f"window product norm {worst:.6f} does not contract"
        )
    for w in mats:
        w.setflags(write=False)
    return MixingSchedule(matrices=tuple(mats), window=s.window, rho=rho)
