"""Tests for the ASP application."""

import numpy as np
import pytest

from repro.apps.asp import Asp, floyd_oracle, random_graph, INF

from tests.conftest import make_jvm


def test_random_graph_properties():
    g = random_graph(10, seed=3)
    assert g.shape == (10, 10)
    assert np.all(np.diag(g) == 0.0)
    present = g[(g > 0) & (g < INF)]
    assert present.min() >= 1 and present.max() <= 100
    assert (g == INF).any()  # some edges are absent


def test_random_graph_deterministic():
    assert np.array_equal(random_graph(8, seed=1), random_graph(8, seed=1))
    assert not np.array_equal(random_graph(8, seed=1), random_graph(8, seed=2))


def test_floyd_oracle_matches_networkx():
    networkx = pytest.importorskip("networkx")
    n = 12
    matrix = random_graph(n, seed=5)
    ours = floyd_oracle(matrix)
    graph = networkx.DiGraph()
    graph.add_nodes_from(range(n))
    for i in range(n):
        for j in range(n):
            if i != j and matrix[i, j] < INF:
                graph.add_edge(i, j, weight=matrix[i, j])
    lengths = dict(networkx.all_pairs_dijkstra_path_length(graph))
    for i in range(n):
        for j in range(n):
            expected = lengths.get(i, {}).get(j)
            if expected is None:
                assert ours[i, j] >= INF / 2  # unreachable stays huge
            else:
                assert ours[i, j] == pytest.approx(expected)


@pytest.mark.parametrize("nodes,threads", [(2, 2), (4, 4), (4, 3)])
def test_asp_correct_on_dsm(nodes, threads):
    app = Asp(size=24, seed=9)
    result = make_jvm(nodes=nodes).run(app, nthreads=threads)
    app.verify(result.output)


def test_asp_correct_under_all_policies():
    for policy in ("NM", "FT1", "FT2", "AT", "JIAJIA"):
        from repro.core.policies import make_policy

        app = Asp(size=16, seed=2)
        result = make_jvm(nodes=4, policy=make_policy(policy)).run(app)
        app.verify(result.output)


def test_asp_migrations_happen_under_at():
    app = Asp(size=32)
    result = make_jvm(nodes=4).run(app)
    app.verify(result.output)
    # rows whose round-robin home is not their owner migrate exactly once
    assert result.migrations > 0
    assert result.migrations <= 32


def test_asp_validation():
    with pytest.raises(ValueError):
        Asp(size=1)
