import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perfnet.topology import (
    DisconnectedGraphError,
    Graph,
    GraphSchedule,
    IrregularGraphError,
    TopologyError,
    build_complete,
    build_ring,
    build_star,
    from_edge_list,
    metropolis_weights,
    read_edge_list,
    schedule_mixing,
    spectral_gap,
    uniform_neighbor_weights,
)


# ---------------------------------------------------------------- oracles

def union_find_connected(n, edges):
    """Independent connectivity check (the library reads the spectral gap)."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        parent[find(i)] = find(j)
    return len({find(i) for i in range(n)}) == 1


def ring_third_eigenvalues(n):
    """Circulant eigenvalues of the ring with all weights 1/3."""
    k = np.arange(n)
    return (1.0 + 2.0 * np.cos(2.0 * np.pi * k / n)) / 3.0


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    # random spanning tree guarantees connectivity; then sprinkle extras
    attach = [draw(st.integers(min_value=0, max_value=k - 1)) for k in range(1, n)]
    pairs = [(k, attach[k - 1]) for k in range(1, n)]
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    pairs += [e for e in extra if e[0] != e[1]]
    return from_edge_list(n, pairs)


@st.composite
def any_graphs(draw, n=None):
    """Random pairs on up to 10 vertices: connected or not, regular or not."""
    n = n if n is not None else draw(st.integers(min_value=1, max_value=10))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    return from_edge_list(n, pairs)


@st.composite
def circulant_graphs(draw):
    """Regular graphs: vertex i meets i +- s for each offset s, under a random relabeling.

    Connected exactly when gcd(n, offsets) == 1, which the tests do not use:
    union-find is the oracle.
    """
    n = draw(st.integers(min_value=2, max_value=12))
    offsets = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=3))
    perm = draw(st.permutations(range(n)))
    return from_edge_list(n, [(perm[i], perm[(i + s) % n]) for i in range(n) for s in offsets])


@st.composite
def schedules(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    graphs = draw(st.lists(any_graphs(n), min_size=1, max_size=4))
    return GraphSchedule(graphs=tuple(graphs), window=draw(st.integers(1, 3)))


# ---------------------------------------------------------------- graphs

def test_ring_25_degrees():
    g = build_ring(25)
    assert g.adjacency().sum(axis=1).tolist() == [3] * 25
    assert union_find_connected(25, g.edges)


def test_ring_single_vertex():
    g = build_ring(1)
    assert g.edges == frozenset({(0, 0)})


def test_ring_3_is_complete():
    assert build_ring(3).edges == build_complete(3).edges


def test_ring_zero_size_rejected():
    with pytest.raises(TopologyError):
        build_ring(0)


def test_self_loops_required():
    with pytest.raises(TopologyError):
        Graph(2, frozenset({(0, 1)}))


def test_adjacency_and_degree():
    g = from_edge_list(4, [(1, 0), (2, 3), (0, 1)])
    assert g.edges == frozenset({(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (2, 3)})
    a = g.adjacency()
    assert np.array_equal(a, [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]])
    assert np.array_equal(g.adjacency(include_self=False), a - np.eye(4))
    assert a.sum(axis=1).tolist() == [2, 2, 2, 2]
    assert build_star(4).adjacency(include_self=False).sum(axis=1).tolist() == [3, 1, 1, 1]


@pytest.mark.parametrize("edge", [(0.5, 1), (1.0, 2), (True, 2), (0, False), ("1", 2), (None, 0)])
def test_from_edge_list_rejects_non_integer_vertices(edge):
    with pytest.raises(TopologyError, match="non-integer vertex"):
        from_edge_list(3, [(0, 1), edge])


def test_graph_rejects_non_integer_vertices():
    with pytest.raises(TopologyError, match=r"edge \(0\.0, 1\) has a non-integer vertex"):
        Graph(2, frozenset({(0, 0), (1, 1), (0.0, 1)}))


def test_numpy_integer_vertices_are_valid():
    g = from_edge_list(3, [(np.int64(2), np.int32(0)), (np.uint8(1), 2)])
    assert g.edges == frozenset({(0, 0), (1, 1), (2, 2), (0, 2), (1, 2)})
    plain = from_edge_list(3, [(0, 2), (1, 2)])
    assert np.array_equal(metropolis_weights(g).matrices[0], metropolis_weights(plain).matrices[0])


def test_read_edge_list(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# a ring of three\n0 1\n1 2\n2 0\n")
    g = read_edge_list(p, 3)
    assert g.n == 3 and union_find_connected(3, g.edges)
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1 two\n")
    with pytest.raises(TopologyError, match="bad.txt:2"):
        read_edge_list(bad, 3)


# ---------------------------------------------------------------- weights

def test_uniform_ring_25_entries_are_one_third():
    w = uniform_neighbor_weights(build_ring(25)).matrices[0]
    nz = w[w != 0]
    assert np.allclose(nz, 1.0 / 3.0) and len(nz) == 75


def test_uniform_single_vertex_identity():
    m = uniform_neighbor_weights(build_ring(1))
    assert np.array_equal(m.matrices[0], [[1.0]]) and m.rho == 1.0


def test_uniform_ring3_rho_from_eigen_oracle():
    # (1/3) * all-ones has eigenvalues {1, 0, 0}, so the gap is exactly 1
    m = uniform_neighbor_weights(build_ring(3))
    assert np.allclose(m.matrices[0], np.full((3, 3), 1.0 / 3.0))
    assert m.rho == pytest.approx(1.0, abs=1e-12)


def test_uniform_rejects_irregular():
    with pytest.raises(IrregularGraphError):
        uniform_neighbor_weights(build_star(3))


def test_metropolis_star3_by_hand():
    # hub degree 2, leaves degree 1: off-diagonal 1/(1+2) = 1/3,
    # leaf diagonals absorb to 2/3
    w = metropolis_weights(build_star(3)).matrices[0]
    expected = np.array([
        [1 / 3, 1 / 3, 1 / 3],
        [1 / 3, 2 / 3, 0.0],
        [1 / 3, 0.0, 2 / 3],
    ])
    assert np.allclose(w, expected, atol=1e-15)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-15)


def test_metropolis_complete2():
    w = metropolis_weights(build_complete(2)).matrices[0]
    assert np.allclose(w, 0.5)


def test_metropolis_matches_uniform_on_ring():
    # 2-regular ring: both rules give 1/3 everywhere on the support
    # (the Metropolis diagonal is 1 - 2/3, one ulp away from 1/3)
    a = metropolis_weights(build_ring(25)).matrices[0]
    b = uniform_neighbor_weights(build_ring(25)).matrices[0]
    assert np.allclose(a, b, atol=1e-15)
    assert np.array_equal(a != 0, b != 0)


def test_metropolis_rejects_disconnected():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        metropolis_weights(g)


@settings(max_examples=200, deadline=None)
@given(any_graphs())
def test_metropolis_refuses_exactly_the_disconnected_graphs(g):
    if union_find_connected(g.n, g.edges):
        assert metropolis_weights(g).rho > 0.0
    else:
        with pytest.raises(DisconnectedGraphError):
            metropolis_weights(g)


@settings(max_examples=100, deadline=None)
@given(circulant_graphs())
def test_uniform_refuses_exactly_the_disconnected_regular_graphs(g):
    if union_find_connected(g.n, g.edges):
        assert uniform_neighbor_weights(g).rho > 0.0
    else:
        with pytest.raises(DisconnectedGraphError):
            uniform_neighbor_weights(g)


# ---------------------------------------------------------------- spectral gap

def test_spectral_gap_projector():
    assert spectral_gap(np.full((4, 4), 0.25)) == pytest.approx(1.0)


def test_spectral_gap_identity_is_error():
    with pytest.raises(DisconnectedGraphError):
        spectral_gap(np.eye(2))


def test_spectral_gap_ring25_circulant_formula():
    lam = ring_third_eigenvalues(25)
    expected = 1.0 - np.sort(np.abs(lam))[-2]
    m = uniform_neighbor_weights(build_ring(25))
    assert m.rho == pytest.approx(expected, abs=1e-12)
    assert m.rho == pytest.approx(1.0 - (1.0 + 2.0 * np.cos(2 * np.pi / 25)) / 3.0, abs=1e-12)


def test_spectral_gap_rejects_nonstochastic():
    with pytest.raises(TopologyError):
        spectral_gap(np.array([[0.5, 0.2], [0.2, 0.5]]))


def test_mixing_stays_read_only_when_unpickled():
    ring = build_ring(5)
    for mixing in (uniform_neighbor_weights(ring), schedule_mixing(GraphSchedule(graphs=(ring, ring), window=1))):
        copy = pickle.loads(pickle.dumps(mixing))
        assert (copy.window, copy.rho) == (mixing.window, mixing.rho)
        for w, w_copy in zip(mixing.matrices, copy.matrices, strict=True):
            assert w_copy.tobytes() == w.tobytes()
            assert not w.flags.writeable and not w_copy.flags.writeable


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_mixing_matrix_invariants(g):
    m = metropolis_weights(g)
    w = m.matrices[0]
    assert m.window == 1 and len(m.matrices) == 1 and m.at(7) is w  # a static graph is window 1
    assert np.all(np.abs(w.sum(axis=1) - 1.0) < 1e-12)
    assert np.all(np.abs(w.sum(axis=0) - 1.0) < 1e-12)
    assert np.array_equal(w, w.T)
    assert 0.0 < m.rho <= 1.0
    # the deviation operator norm certificate is tight
    n = g.n
    dev = np.linalg.norm(w - np.full((n, n), 1.0 / n), 2)
    assert dev == pytest.approx(1.0 - m.rho, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(connected_graphs(), st.integers(min_value=0, max_value=2**31))
def test_gap_invariant_under_relabeling_and_mean_preserved(g, seed):
    m = metropolis_weights(g)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.n)
    pw = m.matrices[0][np.ix_(perm, perm)]
    assert spectral_gap(pw) == pytest.approx(m.rho, abs=1e-10)
    theta = rng.standard_normal((g.n, 3))
    mixed = m.matrices[0] @ theta
    assert np.allclose(mixed.mean(axis=0), theta.mean(axis=0), atol=1e-10)


# ---------------------------------------------------------------- schedules

def ring_matchings(n):
    """Split the ring's cycle edges into two sparse graphs (union = ring)."""
    cycle = [(i, (i + 1) % n) for i in range(n)]
    first = from_edge_list(n, cycle[0::2])
    second = from_edge_list(n, cycle[1::2])
    return first, second


def window_unions_connected(s):
    """Union-find verdict on each cyclic window's union of edges, by start."""
    m = len(s.graphs)
    return [
        union_find_connected(s.n, set().union(*(s.graphs[(t + k) % m].edges for k in range(s.window))))
        for t in range(m)
    ]


def test_constant_schedule_certificate_is_one():
    ring = build_ring(6)
    ms = schedule_mixing(GraphSchedule(graphs=(ring,), window=1))
    assert ms.window == 1
    assert ms.rho == pytest.approx(metropolis_weights(ring).rho, abs=1e-12)


def test_alternating_matchings_certify_window_two():
    a, b = ring_matchings(25)
    assert not union_find_connected(25, a.edges) and not union_find_connected(25, b.edges)
    assert a.edges | b.edges == build_ring(25).edges
    with pytest.raises(DisconnectedGraphError, match="starting at 0 does not contract"):
        schedule_mixing(GraphSchedule(graphs=(a, b), window=1))
    assert schedule_mixing(GraphSchedule(graphs=(a, b), window=2)).rho > 0.0


def test_schedule_with_isolated_vertex_violates_at_zero():
    g = from_edge_list(4, [(0, 1), (1, 2)])  # vertex 3 isolated in every graph
    with pytest.raises(DisconnectedGraphError, match="starting at 0 does not contract"):
        schedule_mixing(GraphSchedule(graphs=(g, g), window=3))


def test_schedule_names_the_first_window_that_does_not_contract():
    # windows of two: {a, b} unions to the ring, {b, empty} and {empty, a} do not
    a, b = ring_matchings(6)
    empty = from_edge_list(6, [])
    with pytest.raises(DisconnectedGraphError, match="starting at 1 does not contract"):
        schedule_mixing(GraphSchedule(graphs=(a, b, empty), window=2))
    assert schedule_mixing(GraphSchedule(graphs=(a, b, empty), window=3)).rho > 0.0


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_schedule_mixing_refuses_exactly_the_disconnected_windows(s):
    verdicts = window_unions_connected(s)
    if all(verdicts):
        assert schedule_mixing(s).rho > 0.0
    else:
        with pytest.raises(DisconnectedGraphError, match=f"starting at {verdicts.index(False)} does not"):
            schedule_mixing(s)


def test_schedule_mixing_certifies_contraction():
    a, b = ring_matchings(25)
    ms = schedule_mixing(GraphSchedule(graphs=(a, b), window=2))
    assert 0.0 < ms.rho <= 1.0
    for w in ms.matrices:
        assert np.all(np.abs(w.sum(axis=1) - 1.0) < 1e-12)
        assert np.array_equal(w, w.T)
    assert ms.at(0) is ms.matrices[0] and ms.at(3) is ms.matrices[1]


def test_schedule_mixing_keeps_the_declared_window():
    # the ring alone is connected, so the smallest connected window is 1, but
    # rho certifies products over the declared window of 3
    ring = build_ring(6)
    ms = schedule_mixing(GraphSchedule(graphs=(ring, ring), window=3))
    dev = ms.matrices[0] - np.full((6, 6), 1.0 / 6.0)
    assert ms.window == 3
    assert ms.rho == pytest.approx(1.0 - np.linalg.norm(np.linalg.matrix_power(dev, 3), 2), abs=1e-12)
    assert ms.rho == pytest.approx(0.7037, abs=1e-4)
    assert 1.0 - np.linalg.norm(dev, 2) == pytest.approx(1.0 / 3.0)


def sequential_window_norm(ms, start):
    """``||A_{start+B-1} ... A_start||_2``, multiplied out one factor at a time."""
    n = ms.matrices[0].shape[0]
    p = np.eye(n)
    for k in range(ms.window):
        p = (ms.at(start + k) - 1.0 / n) @ p
    return np.linalg.norm(p, 2)


@pytest.mark.parametrize("window", [4, 11], ids=["m+1", "3m+2"])
def test_long_window_matches_the_sequential_product(window):
    a, b = ring_matchings(25)
    chords = from_edge_list(25, [(0, 12), (5, 18)])
    ms = schedule_mixing(GraphSchedule(graphs=(a, b, chords), window=window))
    worst = max(sequential_window_norm(ms, start) for start in range(3))
    assert 0.5 < worst < 1.0  # a product far from both identity and zero
    assert ms.rho == pytest.approx(1.0 - worst, abs=1e-12)


def test_huge_window_certifies_in_logarithmic_time():
    a, b = ring_matchings(25)
    start = time.perf_counter()
    ms = schedule_mixing(GraphSchedule(graphs=(a, b), window=10**9))
    assert time.perf_counter() - start < 1.0
    assert ms.window == 10**9 and ms.rho == pytest.approx(1.0)


def test_schedule_mixing_rejects_never_connected():
    g = from_edge_list(3, [(0, 1)])
    with pytest.raises(DisconnectedGraphError):
        schedule_mixing(GraphSchedule(graphs=(g,), window=3))
