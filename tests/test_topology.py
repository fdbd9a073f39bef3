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
    validate_schedule,
)


# ---------------------------------------------------------------- oracles

def union_find_connected(n, edges):
    """Independent connectivity check (the library uses BFS)."""
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


# ---------------------------------------------------------------- graphs

def test_ring_25_degrees():
    g = build_ring(25)
    assert all(g.degree(i) == 3 for i in range(25))
    assert g.is_connected()


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


def test_union_and_neighbors():
    a = from_edge_list(4, [(0, 1)])
    b = from_edge_list(4, [(2, 3)])
    u = a.union(b)
    assert not a.is_connected()
    assert u.neighbors(1) == [0]
    assert union_find_connected(4, u.edges) == u.is_connected()


def test_read_edge_list(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# a ring of three\n0 1\n1 2\n2 0\n")
    g = read_edge_list(p)
    assert g.n == 3 and g.is_connected()
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1 two\n")
    with pytest.raises(TopologyError, match="bad.txt:2"):
        read_edge_list(bad)


# ---------------------------------------------------------------- weights

def test_uniform_ring_25_entries_are_one_third():
    w = uniform_neighbor_weights(build_ring(25)).weights
    nz = w[w != 0]
    assert np.allclose(nz, 1.0 / 3.0) and len(nz) == 75


def test_uniform_single_vertex_identity():
    m = uniform_neighbor_weights(build_ring(1))
    assert np.array_equal(m.weights, [[1.0]]) and m.rho == 1.0


def test_uniform_ring3_rho_from_eigen_oracle():
    # (1/3) * all-ones has eigenvalues {1, 0, 0}, so the gap is exactly 1
    m = uniform_neighbor_weights(build_ring(3))
    assert np.allclose(m.weights, np.full((3, 3), 1.0 / 3.0))
    assert m.rho == pytest.approx(1.0, abs=1e-12)


def test_uniform_rejects_irregular():
    with pytest.raises(IrregularGraphError):
        uniform_neighbor_weights(build_star(3))


def test_metropolis_star3_by_hand():
    # hub degree 2, leaves degree 1: off-diagonal 1/(1+2) = 1/3,
    # leaf diagonals absorb to 2/3
    w = metropolis_weights(build_star(3)).weights
    expected = np.array([
        [1 / 3, 1 / 3, 1 / 3],
        [1 / 3, 2 / 3, 0.0],
        [1 / 3, 0.0, 2 / 3],
    ])
    assert np.allclose(w, expected, atol=1e-15)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-15)


def test_metropolis_complete2():
    w = metropolis_weights(build_complete(2)).weights
    assert np.allclose(w, 0.5)


def test_metropolis_matches_uniform_on_ring():
    # 2-regular ring: both rules give 1/3 everywhere on the support
    # (the Metropolis diagonal is 1 - 2/3, one ulp away from 1/3)
    a = metropolis_weights(build_ring(25)).weights
    b = uniform_neighbor_weights(build_ring(25)).weights
    assert np.allclose(a, b, atol=1e-15)
    assert np.array_equal(a != 0, b != 0)


def test_metropolis_rejects_disconnected():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        metropolis_weights(g)


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


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_mixing_matrix_invariants(g):
    m = metropolis_weights(g)
    w = m.weights
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
    pw = m.weights[np.ix_(perm, perm)]
    assert spectral_gap(pw) == pytest.approx(m.rho, abs=1e-10)
    theta = rng.standard_normal((g.n, 3))
    mixed = m.weights @ theta
    assert np.allclose(mixed.mean(axis=0), theta.mean(axis=0), atol=1e-10)


# ---------------------------------------------------------------- schedules

def ring_matchings(n):
    """Split the ring's cycle edges into two sparse graphs (union = ring)."""
    cycle = [(i, (i + 1) % n) for i in range(n)]
    first = from_edge_list(n, cycle[0::2])
    second = from_edge_list(n, cycle[1::2])
    return first, second


def test_constant_schedule_certificate_is_one():
    s = GraphSchedule(graphs=(build_ring(6),), window=4)
    check = validate_schedule(s)
    assert check.connected and check.window == 1


def test_alternating_matchings_certify_window_two():
    a, b = ring_matchings(25)
    assert not a.is_connected() and not b.is_connected()
    assert union_find_connected(25, a.union(b).edges)
    check = validate_schedule(GraphSchedule(graphs=(a, b), window=2))
    assert check.connected and check.window == 2


def test_schedule_with_isolated_vertex_violates_at_zero():
    g = from_edge_list(4, [(0, 1), (1, 2)])  # vertex 3 isolated in every graph
    check = validate_schedule(GraphSchedule(graphs=(g, g), window=2))
    assert not check.connected and check.violation_at == 0


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


def test_schedule_mixing_rejects_never_connected():
    g = from_edge_list(3, [(0, 1)])
    with pytest.raises(DisconnectedGraphError):
        schedule_mixing(GraphSchedule(graphs=(g,), window=3))
