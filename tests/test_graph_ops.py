from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from flowgraph.spectral_gcn import (
    VARIANT_CHEBYSHEV,
    build_operator,
    chebyshev_basis,
    lambda_max,
    normalized_laplacian,
    renormalize_adjacency,
    scale_laplacian,
    union_matrices,
)
from oracles import (
    adjacency_oracle,
    chebyshev_eig_oracle,
    edges_of,
    graph_from,
    laplacian_oracle,
    renormalize_oracle,
)


def graph_with_edges(n, edges, labels=None):
    """n nodes, node i with every feature i; all normal unless `labels` says."""
    return graph_from([np.full(8, float(i)) for i in range(n)], labels or [0] * n, edges)


def adjacency(n, edges):
    return union_matrices([graph_with_edges(n, edges)])[0]


def unit_weights(g):
    """g with the flow count of every edge set to 1."""
    return replace(g, edges=g.edges * [1, 1, 0] + [0, 0, 1])


def dense(op):
    return op @ np.eye(op.n)


def random_symmetric_adjacency(rng, n, p=0.3):
    a = (rng.uniform(size=(n, n)) < p).astype(float)
    a = np.triu(a, 1)
    return a + a.T


def random_graph(rng, n, p=0.3):
    return adjacency(n, edges_of(random_symmetric_adjacency(rng, n, p)))


def random_directed_graph(seed):
    """Distinct directed pairs with integer flow counts; self-loops and
    reciprocal pairs occur at this density."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 16))
    pairs = {(int(s), int(d)) for s, d in rng.integers(0, n, size=(2 * n, 2))}
    return graph_with_edges(n, [(s, d, int(rng.integers(1, 10))) for s, d in sorted(pairs)])


ORACLE_CASES = {
    "self_loops": graph_with_edges(3, [(0, 0, 2), (0, 1, 1), (2, 2, 5)]),
    "reciprocal": graph_with_edges(3, [(0, 1, 2), (1, 0, 3), (1, 2, 1)]),
    "isolated_nodes": graph_with_edges(5, [(0, 1, 1), (1, 2, 4)]),
    "single_node": graph_with_edges(1, []),
    "single_self_loop": graph_with_edges(1, [(0, 0, 3)]),
    "no_edges": graph_with_edges(4, []),
    **{f"random_{seed}": random_directed_graph(seed) for seed in range(8)},
}


@pytest.mark.parametrize("weights", ["binary", "weighted"])
@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_operators_match_dense_oracles(name, weights):
    """A "weighted" case keeps its flow counts, a "binary" one has each set to 1;
    the adjacency and the oracle are binary, so they read neither."""
    g = ORACLE_CASES[name] if weights == "weighted" else unit_weights(ORACLE_CASES[name])
    a = union_matrices([g])[0]
    a_dense = adjacency_oracle(g)
    assert a.shape == (g.n_nodes, g.n_nodes)
    assert np.array_equal(dense(a), a_dense)
    assert np.array_equal(dense(renormalize_adjacency(a)), renormalize_oracle(a_dense))
    lap = normalized_laplacian(a)
    lap_dense = laplacian_oracle(a_dense)
    assert np.array_equal(dense(lap), lap_dense)

    lam = lambda_max(lap)
    top = float(np.linalg.eigvalsh(lap_dense)[-1])
    if top > 1e-8:
        # a Rayleigh quotient never exceeds lambda_max; iteration stops on
        # a 1e-6 step, which leaves more error when the top eigenvalues are close
        assert top - 1e-4 * top <= lam <= top + 1e-12
    else:
        assert lam == 2.0
    expected = (2.0 / lam) * lap_dense - np.eye(g.n_nodes)
    assert np.abs(dense(scale_laplacian(lap)) - expected).max(initial=0.0) <= 1e-12


def test_union_matches_block_diagonal_oracle():
    graphs = list(ORACLE_CASES.values())
    expected = np.zeros((sum(g.n_nodes for g in graphs),) * 2)
    offset = 0
    for g in graphs:
        block = slice(offset, offset + g.n_nodes)
        expected[block, block] = adjacency_oracle(g)
        offset += g.n_nodes
    for blocks in (graphs, [unit_weights(g) for g in graphs]):
        assert np.array_equal(dense(union_matrices(blocks)[0]), expected)


def test_operator_layout():
    a = union_matrices([random_directed_graph(3), graph_with_edges(2, [])])[0]
    keys = a.rows * a.n + a.cols
    assert np.all(np.diff(keys) > 0)  # sorted by row, then column, no duplicates
    assert np.array_equal(a.rows[a.diagonal], np.arange(a.n))  # every diagonal entry
    assert set(zip(a.rows.tolist(), a.cols.tolist())) \
        == set(zip(a.cols.tolist(), a.rows.tolist()))
    assert a.nbytes < a.n * a.n * 8
    v = np.random.default_rng(0).standard_normal((a.n, 1))  # a vector goes in as a column
    a_hat = renormalize_adjacency(a)
    assert np.abs(a_hat @ v - dense(a_hat) @ v).max() < 1e-12


def test_single_node_renormalized():
    a_hat = renormalize_adjacency(adjacency(1, []))
    assert np.array_equal(dense(a_hat), [[1.0]])


def test_two_node_renormalized():
    a = adjacency(2, [(0, 1, 1)])
    assert np.allclose(dense(renormalize_adjacency(a)), [[0.5, 0.5], [0.5, 0.5]],
                       rtol=0.0, atol=1e-15)


def test_path_graph_spectrum():
    a_hat = dense(renormalize_adjacency(adjacency(3, [(0, 1, 1), (1, 2, 1)])))
    assert np.array_equal(a_hat, a_hat.T)
    eigs = np.linalg.eigvalsh(a_hat)
    assert eigs.max() <= 1.0 + 1e-9
    assert eigs.min() >= -1.0 - 1e-9


def test_renormalized_spectrum_random_graphs():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(2, 51))
        eigs = np.linalg.eigvalsh(dense(renormalize_adjacency(random_graph(rng, n))))
        assert eigs.max() <= 1.0 + 1e-9
        assert eigs.min() >= -1.0 - 1e-9


def test_adjacency_symmetrization():
    # a flow count scales no entry
    a = adjacency(3, [(0, 1, 5), (2, 2, 7)])
    assert np.array_equal(dense(a), [[0, 1, 0], [1, 0, 0], [0, 0, 1]])


def test_adjacency_sums_both_directions_when_weighted():
    """The adjacency is binary: a reciprocal pair with flow counts 2 and 3
    is one entry of 1 each way, not their sum."""
    a = adjacency(2, [(0, 1, 2), (1, 0, 3)])
    assert np.array_equal(dense(a), [[0, 1], [1, 0]])


def test_isolated_node_laplacian_and_scaling():
    lap = normalized_laplacian(adjacency(1, []))
    assert np.array_equal(dense(lap), [[0.0]])
    assert lambda_max(lap) == 2.0  # power iteration cannot converge on 0
    assert np.array_equal(dense(scale_laplacian(lap)), [[-1.0]])


def test_two_node_laplacian():
    lap = normalized_laplacian(adjacency(2, [(0, 1, 1)]))
    assert np.allclose(np.linalg.eigvalsh(dense(lap)), [0.0, 2.0])
    assert lambda_max(lap) == pytest.approx(2.0, abs=1e-6)
    assert np.allclose(np.linalg.eigvalsh(dense(scale_laplacian(lap))), [-1.0, 1.0],
                       atol=1e-6)


def test_complete_graph_k3_lambda_max():
    lap = normalized_laplacian(adjacency(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)]))
    assert lambda_max(lap) == pytest.approx(1.5, abs=1e-6)


def test_degree_zero_rows_are_zero():
    lap = dense(normalized_laplacian(adjacency(3, [(0, 1, 1)])))  # node 2 isolated
    assert np.array_equal(lap[2], [0.0, 0.0, 0.0])
    assert np.array_equal(lap[:, 2], [0.0, 0.0, 0.0])


def test_chebyshev_recursion_bases():
    rng = np.random.default_rng(2)
    l_tilde = scale_laplacian(normalized_laplacian(random_graph(rng, 6)))
    x = rng.standard_normal((6, 4))
    assert [b.shape for b in chebyshev_basis(l_tilde, x, 0)] == [(6, 4)]
    k0 = chebyshev_basis(l_tilde, x, 0)
    assert np.array_equal(k0[0], x)
    k1 = chebyshev_basis(l_tilde, x, 1)
    assert np.array_equal(k1[1], l_tilde @ x)
    with pytest.raises(ValueError):
        chebyshev_basis(l_tilde, x, -1)


def test_chebyshev_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(2, 21))
        l_tilde = scale_laplacian(normalized_laplacian(random_graph(rng, n)))
        x = rng.standard_normal((n, 8))
        basis = chebyshev_basis(l_tilde, x, 5)
        for j in range(6):
            expected = chebyshev_eig_oracle(dense(l_tilde), x, j)
            assert np.abs(basis[j] - expected).max() < 1e-8


def test_scaled_laplacian_from_graph():
    g = graph_with_edges(2, [(0, 1, 1)])
    a, _, _ = union_matrices([g])
    assert lambda_max(normalized_laplacian(a)) == pytest.approx(2.0, abs=1e-6)
    # L = [[1, -1], [-1, 1]] and lambda_max = 2, so L~ = L - I
    assert np.allclose(dense(build_operator(a, VARIANT_CHEBYSHEV)),
                       [[0.0, -1.0], [-1.0, 0.0]], rtol=0.0, atol=1e-6)


def test_union_matrices_block_structure():
    g1 = graph_with_edges(2, [(0, 1, 1)], labels=[0, 1])
    g2 = graph_with_edges(3, [(0, 2, 4)], labels=[1, 0, 0])
    a, x, y = union_matrices([g1, g2])
    assert a.shape == (5, 5)
    a = dense(a)
    assert a[0, 1] == 1.0 and a[2, 4] == 1.0
    assert a[:2, 2:].sum() == 0.0  # no cross-block edges
    assert x.shape == (5, 8)
    assert np.array_equal(y, [0, 1, 1, 0, 0])
    assert np.array_equal(x[2], np.zeros(8))  # g2 node 0 features
