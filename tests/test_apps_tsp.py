"""Tests for the branch-and-bound TSP application."""

import itertools

import numpy as np
import pytest

from repro.apps.tsp import (
    Tsp,
    held_karp_oracle,
    nearest_neighbour_tour,
    random_cities,
)

from tests.conftest import make_jvm


def brute_force(dist):
    n = dist.shape[0]
    best = float("inf")
    for perm in itertools.permutations(range(1, n)):
        length = dist[0, perm[0]]
        for a, b in zip(perm, perm[1:]):
            length += dist[a, b]
        length += dist[perm[-1], 0]
        best = min(best, length)
    return best


def test_distance_matrix_properties():
    dist = random_cities(8, seed=1)
    assert dist.shape == (8, 8)
    assert np.allclose(dist, dist.T)
    assert np.all(np.diag(dist) == 0.0)
    off_diag = dist[~np.eye(8, dtype=bool)]
    assert np.all(off_diag > 0)


def test_held_karp_matches_brute_force():
    for seed in (1, 2, 3):
        dist = random_cities(7, seed=seed)
        assert held_karp_oracle(dist) == pytest.approx(brute_force(dist))


def test_held_karp_size_cap():
    with pytest.raises(ValueError):
        held_karp_oracle(np.zeros((17, 17)))


def test_nearest_neighbour_is_valid_upper_bound():
    dist = random_cities(9, seed=4)
    assert nearest_neighbour_tour(dist) >= held_karp_oracle(dist) - 1e-9


@pytest.mark.parametrize("nodes", [2, 4])
def test_tsp_finds_optimum_on_dsm(nodes):
    app = Tsp(cities=8, seed=3)
    result = make_jvm(nodes=nodes).run(app)
    app.verify(result.output)


def test_tsp_correct_under_nm_and_at():
    for policy in ("NM", "AT"):
        from repro.core.policies import make_policy

        app = Tsp(cities=7, seed=5)
        result = make_jvm(nodes=3, policy=make_policy(policy)).run(app)
        app.verify(result.output)


def test_tsp_bound_object_rarely_migrates():
    """The incumbent bound is multiple-writer: the adaptive protocol must
    not thrash its home (the paper's TSP observation)."""
    app = Tsp(cities=8, seed=3)
    result = make_jvm(nodes=4).run(app)
    assert result.migrations <= 3


def test_tsp_validation():
    with pytest.raises(ValueError):
        Tsp(cities=3)
    with pytest.raises(ValueError):
        Tsp(cities=17)
