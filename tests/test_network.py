"""Graphs, Metropolis-Hastings weights, consensus rounds, step bounds."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cobadd as cb
from cobadd import network
from cobadd.errors import ConfigurationError
from cobadd.network import _edge_steps


# ---------------------------------------------------------------------------
# graph generation
# ---------------------------------------------------------------------------

def test_two_nodes_single_edge():
    g = cb.random_connected_graph(2, 1.0, seed=0)
    assert np.array_equal(g.edges, [[0, 1]])


def test_graph_determinism_and_degree(fig_graph):
    again = cb.random_connected_graph(100, 3.12, 7)
    assert np.array_equal(again.edges, fig_graph.edges)
    assert fig_graph.is_connected()
    assert abs(fig_graph.average_degree - 3.12) <= 0.8


def test_graph_seed_changes_edges():
    a = cb.random_connected_graph(30, 4.0, 1)
    b = cb.random_connected_graph(30, 4.0, 2)
    assert not np.array_equal(a.edges, b.edges)


def test_graph_rejects_malformed_edges():
    with pytest.raises(ValueError):
        cb.Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        cb.Graph(3, ((0, 5),))
    with pytest.raises(ValueError):
        cb.Graph(3, ((0, 1), (1, 0)))


def bfs_connected(n, pairs):
    """Reference connectivity: a breadth-first search from node 0."""
    nbrs = [[] for _ in range(n)]
    for i, j in pairs:
        nbrs[i].append(j)
        nbrs[j].append(i)
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [v for u in frontier for v in nbrs[u] if v not in seen]
        seen.update(frontier)
    return len(seen) == n


@given(st.integers(1, 40), st.floats(0.0, 0.3), st.integers(0, 2**32 - 1))
def test_graph_canonical_edges_and_connectivity(n, p, seed):
    # any random edge set: connectivity agrees with BFS, the edge array
    # is the sorted (i < j) list whatever the order and orientation given,
    # and a duplicate given reversed is rejected
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    pairs = list(zip(iu[keep].tolist(), ju[keep].tolist()))
    g = cb.Graph(n, pairs)
    assert g.is_connected() == bfs_connected(n, pairs)
    assert np.array_equal(g.edges, np.array(pairs, dtype=int).reshape(-1, 2))
    assert not g.edges.flags.writeable
    assert np.array_equal(g.degrees(), [sum(v in e for e in pairs) for v in range(n)])
    given_as = [(j, i) if flip else (i, j)
                for (i, j), flip in zip(pairs, rng.random(len(pairs)) < 0.5)]
    shuffled = [given_as[k] for k in rng.permutation(len(pairs))]
    assert np.array_equal(cb.Graph(n, shuffled).edges, g.edges)
    if pairs:
        i, j = pairs[int(rng.integers(len(pairs)))]
        with pytest.raises(ValueError, match="duplicate"):
            cb.Graph(n, shuffled + [(j, i)])


def test_unreachable_degree_raises():
    with pytest.raises(ConfigurationError,
                       match=r"no connected graph in 1000 draws; increase target_avg_degree "
                             r"\(currently 0\.2\)"):
        cb.random_connected_graph(200, 0.2, seed=0)


@pytest.mark.parametrize("degree", [math.nan, math.inf, -math.inf, 0.0])
def test_degree_must_be_finite_and_positive(degree):
    with pytest.raises(ValueError, match="target_avg_degree must be finite and positive"):
        cb.random_connected_graph(100, degree, seed=0)


def reference_connected_graph(n, target_avg_degree, seed):
    """The all-pairs sampler: one ``rng.random`` over every upper-triangle
    pair per draw, each draw built and checked as a ``Graph``."""
    p = min(target_avg_degree / (n - 1), 1.0)
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    for _ in range(1000):
        mask = rng.random(iu.size) < p
        g = cb.Graph(n, np.stack([iu[mask], ju[mask]], axis=1))
        if g.is_connected():
            return g
    raise AssertionError("no connected reference graph")


def test_generator_stream_splits_into_chunks():
    # the chunked sampler rests on this: a + b doubles in one call are
    # the a doubles of a first call followed by the b of a second
    for seed, a, b in [(7, 4950, 4950), (3, 65536, 167), (0, 7, 1218)]:
        whole = np.random.default_rng(seed).random(a + b)
        rng = np.random.default_rng(seed)
        assert np.array_equal(whole, np.concatenate([rng.random(a), rng.random(b)]))


@pytest.mark.parametrize("n, degree, seed, chunk", [
    (2, 1.0, 0, None),
    (100, 3.12, 7, None),           # the paper's graph, 95th draw
    *[(100, 3.12, s, None) for s in range(8, 13)],
    (30, 100.0, 0, None),           # p = 1: the complete graph
    (363, 5.0, 3, None),            # 65,703 pairs: just over one chunk
    (50, 4.0, 1, 7),                # chunk edges fall mid-row
    (1000, 8.0, 7, None),
])
def test_chunked_sampler_matches_all_pairs_draw(monkeypatch, n, degree, seed, chunk):
    if chunk is not None:
        monkeypatch.setattr(network, "_PAIR_CHUNK", chunk)
    got = cb.random_connected_graph(n, degree, seed)
    assert np.array_equal(got.edges, reference_connected_graph(n, degree, seed).edges)


def test_sampler_memory_is_linear_in_n():
    # the all-pairs draw traced 118 MB on this call: pair indices and doubles
    # for all 4.5 million pairs
    tracemalloc.start()
    try:
        cb.random_connected_graph(3000, 10.0, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# ---------------------------------------------------------------------------
# Metropolis-Hastings weights
# ---------------------------------------------------------------------------

def test_metropolis_two_node_path():
    W = cb.metropolis_weights(cb.Graph(2, ((0, 1),)))
    assert np.allclose(W.W, [[0.5, 0.5], [0.5, 0.5]])
    assert W.nu == pytest.approx(0.0, abs=1e-12)


def test_metropolis_three_node_path_hand_values():
    # path 0-1-2: off-diagonal weights 1/3, diagonals 2/3 and 1/3.
    # Characteristic polynomial of 3W is (2-t) t (t-3), so the
    # eigenvalues of W are {0, 2/3, 1} and nu = 2/3.
    W = cb.metropolis_weights(cb.Graph(3, ((0, 1), (1, 2))))
    expected = np.array([[2/3, 1/3, 0.0], [1/3, 1/3, 1/3], [0.0, 1/3, 2/3]])
    assert np.allclose(W.W, expected)
    assert W.nu == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_metropolis_rows_sum_to_one(fig_graph):
    W = cb.metropolis_weights(fig_graph)
    assert np.max(np.abs(W.W.sum(axis=1) - 1.0)) < 1e-12
    assert 0.0 < W.nu < 1.0


def test_metropolis_rejects_disconnected():
    g = cb.Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(ConfigurationError):
        cb.metropolis_weights(g)


def test_conditions_checker_flags_corrupted_row(fig_graph):
    W = cb.metropolis_weights(fig_graph)
    bad = W.W.copy()
    bad[0, 0] += 0.1  # row sum 1.1
    problems = cb.check_consensus_conditions(bad, fig_graph)
    assert any("row sums" in p for p in problems)
    assert not cb.check_consensus_conditions(W.W, fig_graph)


_TRIANGLE = cb.Graph(3, ((0, 1), (1, 2), (0, 2)))


@pytest.mark.parametrize("W, nu, message, reported", [
    (np.full((3, 2), 0.5), 0.5, "shape (3, 2)", "shape (3, 2)"),
    ([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.25, 0.0, 0.75]], 0.5, "not symmetric",
     "not symmetric"),
    (np.full((3, 3), 1.0 / 3.0) + 0.1 * np.eye(3), 0.1, "row sums", "row sums"),
    ([[0.5, 0.6, -0.1], [0.6, 0.5, -0.1], [-0.1, -0.1, 1.2]], 0.5, "negative entries",
     "negative entries"),
    (np.eye(3), 1.0, "nu=1.0", "spectral radius"),
], ids=["not_square", "asymmetric", "rows_off_one", "negative", "no_gap"])
def test_bad_consensus_matrix_is_rejected(W, nu, message, reported):
    # the constructor and the verify checker share the weight conditions,
    # so both name the same fault; nu outside [0, 1) has no gap to certify
    with pytest.raises(ValueError, match=re.escape(message)):
        cb.ConsensusMatrix(np.array(W), nu)
    assert any(reported in p for p in cb.check_consensus_conditions(np.array(W), _TRIANGLE))


def test_nu_below_the_trace_bound_is_rejected(fig_graph):
    # the n - 1 eigenvalues besides W's 1 sum to tr W - 1, so W's gap is
    # at least |tr W - 1| / (n - 1): 0.407 on fig1's Metropolis weights
    W = cb.metropolis_weights(fig_graph)
    floor = abs(np.trace(W.W) - 1.0) / 99
    assert 0.40 < floor < 0.41 < W.nu
    with pytest.raises(ValueError, match=re.escape("nu=0.0 lies below |tr W - 1| / (n - 1)")):
        cb.ConsensusMatrix(W.W, 0.0)
    with pytest.raises(ValueError, match="lies below"):
        cb.ConsensusMatrix(W.W, floor - 1e-9)
    assert cb.ConsensusMatrix(W.W, floor).nu == floor
    # the exact averaging weights' other eigenvalues are all 0: any nu passes
    assert carrying_nu(100, 0.0).nu == 0.0


def test_edge_count_must_match_the_weights():
    # messages are counted from edge_count, which W's nonzero node pairs give
    path = np.array([[2/3, 1/3, 0.0], [1/3, 1/3, 1/3], [0.0, 1/3, 2/3]])
    assert cb.ConsensusMatrix(path, 2/3).edge_count == 2
    W = cb.metropolis_weights(cb.Graph(4, ((0, 1), (1, 2), (2, 3))))
    assert W.edge_count == 3
    assert cb.exact_averaging_matrix(6).edge_count == 15


def test_consensus_matrix_checks_weights_in_one_temporary():
    # beside the caller's W, the symmetry check and the kept copy each
    # hold one n x n array, one after the other
    M = cb.metropolis_weights(cb.random_connected_graph(300, 6.0, 2))
    W = M.W
    tracemalloc.start()
    try:
        cb.ConsensusMatrix(W, M.nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * W.nbytes


# ---------------------------------------------------------------------------
# consensus rounds
# ---------------------------------------------------------------------------

def test_consensus_round_two_node_exact_average():
    W = cb.metropolis_weights(cb.Graph(2, ((0, 1),)))
    out = cb.consensus_round(W, np.array([[0.0], [2.0]]), 1)
    assert np.allclose(out, [[1.0], [1.0]])


def test_consensus_round_identical_payloads_fixed_point(fig_graph):
    W = cb.metropolis_weights(fig_graph)
    x = np.full((100, 3), 1.7)
    out = cb.consensus_round(W, x, 5)
    assert np.max(np.abs(out - 1.7)) < 1e-12


def test_consensus_round_mean_preservation_and_contraction(fig_graph):
    W = cb.metropolis_weights(fig_graph)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(100, 2))
    phi = 26
    out = cb.consensus_round(W, x, phi)
    assert np.max(np.abs(out.mean(axis=0) - x.mean(axis=0))) < 1e-10
    dev0 = np.linalg.norm(x - x.mean(axis=0), axis=0)
    dev1 = np.linalg.norm(out - out.mean(axis=0), axis=0)
    assert np.all(dev1 <= (W.nu ** phi) * dev0 + 1e-12)
    # spread also contracts after a single step
    one = cb.consensus_round(W, x, 1)
    spread = lambda v: np.max(v, axis=0) - np.min(v, axis=0)
    assert np.all(spread(one) <= spread(x) + 1e-12)


def random_tree_plus_edges(n, p, rng):
    """A connected graph: a random spanning tree plus each other pair with
    probability p."""
    order = rng.permutation(n)
    edges = {tuple(sorted((int(order[i]), int(order[rng.integers(i)]))))
             for i in range(1, n)}
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    edges |= {(int(i), int(j)) for i, j in zip(iu[keep], ju[keep])}
    return cb.Graph(n, tuple(sorted(edges)))


@given(st.integers(2, 40), st.floats(0.0, 1.0), st.integers(1, 8),
       st.sampled_from([None, 0, 1, 2, 3]), st.integers(-3, 6),
       st.integers(0, 2**32 - 1))
def test_consensus_round_properties(n, p, phi, d, scale, seed):
    # on any connected graph with Metropolis weights, phi steps keep each
    # column mean and contract each column's deviation from it by nu**phi
    rng = np.random.default_rng(seed)
    graph = random_tree_plus_edges(n, p, rng)
    W = cb.metropolis_weights(graph)
    shape = (n,) if d is None else (n, 1 + d * d)
    x = rng.normal(size=shape) * 10.0 ** scale
    out = cb.consensus_round(W, x, phi)
    assert out.shape == shape
    tol = 1e-12 * max(1.0, np.max(np.abs(x)))
    assert np.all(np.abs(out.mean(axis=0) - x.mean(axis=0)) <= tol)
    dev0 = np.linalg.norm(x - x.mean(axis=0), axis=0)
    dev1 = np.linalg.norm(out - out.mean(axis=0), axis=0)
    assert np.all(dev1 <= W.nu ** phi * dev0 + tol)


@given(st.integers(2, 40), st.floats(0.0, 1.0), st.integers(1, 30),
       st.sampled_from([None, 0, 1, 2, 3]), st.integers(-3, 6),
       st.integers(0, 2**32 - 1))
def test_power_round_matches_phi_products(n, p, phi, d, scale, seed):
    # no graph of at most 40 nodes is sparse enough for edge-list steps, so
    # a round is one product by W^phi; it equals phi products by W to 1e-13
    # of each payload column's magnitude
    rng = np.random.default_rng(seed)
    W = cb.metropolis_weights(random_tree_plus_edges(n, p, rng))
    shape = (n,) if d is None else (n, 1 + d * d)
    x = rng.normal(size=shape) * 10.0 ** scale
    ref = x.reshape(n, -1)
    for _ in range(phi):
        ref = W.W @ ref
    out = cb.consensus_round(W, x, phi)
    assert out.shape == shape
    err = np.abs(out.reshape(n, -1) - ref).max(axis=0)
    assert np.all(err <= 1e-13 * np.abs(x.reshape(n, -1)).max(axis=0))


@given(st.integers(2, 40), st.floats(0.0, 1.0), st.integers(1, 8),
       st.sampled_from([None, 0, 1, 2, 3]), st.integers(-3, 6),
       st.integers(0, 2**32 - 1))
def test_edge_steps_match_phi_products(n, p, phi, d, scale, seed):
    # phi steps over W's nonzero pattern equal phi products by W to 1e-13
    # of each payload column's magnitude, on any connected graph
    rng = np.random.default_rng(seed)
    W = cb.metropolis_weights(random_tree_plus_edges(n, p, rng))
    shape = (n,) if d is None else (n, 1 + d * d)
    flat = (rng.normal(size=shape) * 10.0 ** scale).reshape(n, -1)
    ref = flat
    for _ in range(phi):
        ref = W.W @ ref
    out = _edge_steps(W, flat, phi)
    assert out.shape == ref.shape
    err = np.abs(out - ref).max(axis=0)
    assert np.all(err <= 1e-13 * np.abs(flat).max(axis=0))
    cols, starts, weights = W.neighbours
    assert not (cols.flags.writeable or starts.flags.writeable or weights.flags.writeable)
    assert len(cols) == n + 2 * W.edge_count


class GraphShape:
    """Only the n and |E| of a graph, recording which operator
    ``consensus_round`` reads; both mix as the identity."""

    def __init__(self, n, edge_count):
        self.n, self.edge_count, self.used = n, edge_count, []

    def stack(self, phis):
        self.used.append("stack")
        return np.broadcast_to(np.eye(self.n), (len(phis), self.n, self.n))

    @property
    def neighbours(self):
        self.used.append("neighbours")
        return np.arange(self.n), np.arange(self.n), np.ones(self.n)


def test_round_operator_rule_on_counts(fig_graph, monkeypatch):
    # a step over the n + 2|E| nonzeros is charged 32 dense entries, so
    # fig1's graph (n^2 / (n + 2|E|) = 23.5) and lmi_d2's (n = 200,
    # average degree 40) mix with W^phi, while n1000's (112) and an
    # n = 3000, average degree 10 graph take edge-list steps, whatever phi
    for n, edge_count, phis, used in ((100, 163, (1, 2, 4, 26), "stack"),
                                      (200, 3966, (16,), "stack"),
                                      (1000, 3947, (4,), "neighbours"),
                                      (3000, 15055, (4,), "neighbours")):
        for phi in phis:
            shape = GraphShape(n, edge_count)
            x = np.arange(float(n))
            assert np.array_equal(cb.consensus_round(shape, x, phi), x)
            assert shape.used == [used]
    # fig1's rounds never build the neighbour form, and W^1 is W itself
    W = cb.metropolis_weights(fig_graph)
    assert (fig_graph.n, W.edge_count) == (100, 163)
    for phi in (1, 2, 4, 26):
        cb.consensus_round(W, np.ones(100), phi)
    assert "neighbours" not in vars(W)
    assert sorted(W._stacks) == [(1,), (2,), (4,), (26,)]
    assert W._stacks[(1,)].base is W.W
    # a ring of 1000 nodes mixes over its neighbours and builds no W^phi
    ring = cb.metropolis_weights(cb.Graph(1000, [(i, (i + 1) % 1000) for i in range(1000)]))
    monkeypatch.setattr(cb.ConsensusMatrix, "stack", lambda W, phis: pytest.fail("W^phi"))
    x = np.arange(1000.0)
    out = cb.consensus_round(ring, x, 4)
    assert "neighbours" in vars(ring)
    assert abs(out.mean() - x.mean()) <= 1e-12 * x.mean()


def test_stacked_round_matches_each_runs_own_round(fig_graph):
    # R runs in one round: on fig1's graph one product by the kept (R, n, n)
    # stack of W^phi_r, on an n = 1000, degree 8 graph each run's edge-list
    # steps; either way each run's payload mixes bit for bit as in its own
    # round, and only the dense branch keeps a stack
    rng = np.random.default_rng(0)
    for W, phis in ((cb.metropolis_weights(fig_graph), (1, 2, 4, 26, 1)),
                    (cb.metropolis_weights(cb.random_connected_graph(1000, 8.0, 7)), (4, 1, 4))):
        for width in (1, 5):
            x = rng.normal(size=(len(phis), W.n, width))
            out = cb.consensus_round(W, x, phis)
            assert out.shape == x.shape
            for r, phi in enumerate(phis):
                assert np.array_equal(out[r], cb.consensus_round(W, x[r], phi))
        # the dense branch keeps the runs' stack and each own round's stack of one
        assert set(W._stacks) == ({phis} | {(phi,) for phi in phis} if W.n == 100 else set())
    stack = cb.metropolis_weights(fig_graph).stack((1, 2, 4, 26, 1))
    assert stack.shape == (5, 100, 100) and not stack.flags.writeable


def test_one_run_round_is_matrix_power_bit_for_bit(fig_graph):
    # a one-run dense round is a stack of one: the bits of one product by
    # matrix_power(W, phi), on the graphs of fig1, verify_dense and lmi_d2,
    # and at phi = 1 the stack is a view of W itself
    rng = np.random.default_rng(3)
    for graph, phis in ((fig_graph, (1, 2, 4, 26)),
                        (cb.random_connected_graph(100, 40.0, 11), (6, 8)),
                        (cb.random_connected_graph(200, 40.0, 7), (1, 16))):
        W = cb.metropolis_weights(graph)
        for phi in phis:
            for width in (1, 5):
                x = rng.normal(size=(W.n, width))
                ref = np.linalg.matrix_power(W.W, phi) @ x
                assert np.array_equal(cb.consensus_round(W, x, phi), ref)
        assert np.shares_memory(W.stack((1,)), W.W)


@pytest.mark.parametrize("held", [1, 3])
def test_round_names_a_run_count_mismatch(fig_graph, held):
    # two phis with another number of runs' payloads fail by name on the
    # dense and the edge-list branch, even where a reshape would succeed
    for W in (cb.metropolis_weights(fig_graph),
              cb.metropolis_weights(cb.random_connected_graph(1000, 8.0, 7))):
        for width in (1, 2):
            with pytest.raises(ValueError, match=re.escape(
                    f"values hold {held} run(s), given 2 phi(s)")):
                cb.consensus_round(W, np.ones((held, W.n, width)), (4, 1))


def test_exact_averaging_matrix_reaches_mean_in_one_step():
    W = cb.exact_averaging_matrix(5)
    x = np.arange(5.0)[:, None]
    out = cb.consensus_round(W, x, 1)
    assert np.allclose(out, 2.0)
    assert W.nu == 0.0


def test_consensus_round_rejects_zero_phi(fig_graph):
    W = cb.metropolis_weights(fig_graph)
    with pytest.raises(ValueError):
        cb.consensus_round(W, np.zeros((100, 1)), 0)


# ---------------------------------------------------------------------------
# minimum consensus steps and the contraction factor
# ---------------------------------------------------------------------------

def carrying_nu(n, nu):
    """A consensus matrix on n nodes that carries the given nu: the exact
    averaging weights, whose true gap 0 lies below any nu in [0, 1)."""
    return cb.ConsensusMatrix(np.full((n, n), 1.0 / n), nu)


def test_min_consensus_steps_simplified_value():
    out = carrying_nu(100, 0.9).phibar(beta0=1e6, alpha=1.0, M=1.0, d=0)
    expected = math.log(1.0 / 400.0) / math.log(0.9)
    assert out == pytest.approx(expected, rel=1e-3)
    assert out == pytest.approx(56.87, abs=0.02)


def test_min_consensus_steps_small_nu_limit():
    # phibar decreases to 0+ as nu -> 0+ and is 0 at exact averaging
    vals = [carrying_nu(10, nu).phibar(1.0, 1.0, 1.0, 0)
            for nu in (1e-3, 1e-6, 1e-12, 1e-100)]
    assert all(v > 0.0 for v in vals)
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] < 0.02
    assert carrying_nu(10, 0.0).phibar(1.0, 1.0, 1.0, 0) == 0.0


def test_min_consensus_steps_doubling_n():
    a = carrying_nu(50, 0.9).phibar(5.0, 1.0, 1.0, 0)
    b = carrying_nu(100, 0.9).phibar(5.0, 1.0, 1.0, 0)
    assert b - a == pytest.approx(math.log(2.0) / abs(math.log(0.9)))


def test_contraction_is_nu_to_the_steps(fig_graph):
    for W in (carrying_nu(10, 0.9), cb.metropolis_weights(fig_graph),
              cb.exact_averaging_matrix(4)):
        assert [W.contraction(k) for k in range(301)] == [W.nu ** k for k in range(301)]


@pytest.mark.parametrize("n, avg_degree, phibar", [(100, 3.12, 205.4), (1000, 8.0, 80.3)],
                         ids=["fig1", "scale_n1000"])
def test_phibar_on_the_bundled_graphs(n, avg_degree, phibar):
    # the configs' graphs (seed 7) at the default beta0: bit for bit the
    # docstring's formula, written out in the same float order
    W = cb.metropolis_weights(cb.random_connected_graph(n, avg_degree, 7))
    alpha, d, M = 1.0, 0, cb.subgradient_bounds(cb.make_sample_num_instance(n, 42)).M
    beta0 = cb.default_beta0(alpha, M)
    formula = float((np.log(beta0) - np.log(4.0 * n * (1 + d * d) * (beta0 + alpha * M)))
                    / np.log(W.nu))
    assert W.phibar(beta0, alpha, M, d) == formula
    assert formula == pytest.approx(phibar, abs=0.05)
