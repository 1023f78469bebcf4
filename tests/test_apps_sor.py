"""Tests for the SOR application."""

import numpy as np
import pytest

from repro.apps.sor import Sor, sor_oracle, _relax_row, OMEGA

from tests.conftest import make_jvm


def test_relax_row_touches_only_one_color():
    row = np.ones(10)
    above = np.zeros(10)
    below = np.zeros(10)
    before = row.copy()
    _relax_row(row, above, below, i=2, color=0)
    changed = np.nonzero(row != before)[0]
    assert len(changed) > 0
    for j in changed:
        assert (2 + j) % 2 == 0
        assert 1 <= j <= 8  # boundary columns fixed


def test_relax_row_boundaries_fixed():
    row = np.arange(10.0)
    _relax_row(row, np.zeros(10), np.zeros(10), i=1, color=0)
    assert row[0] == 0.0 and row[9] == 9.0


def test_oracle_converges_toward_harmonic():
    """With zero boundary, SOR drives the interior toward zero."""
    grid = np.zeros((10, 10))
    grid[1:-1, 1:-1] = 1.0
    out = sor_oracle(grid, iterations=200)
    assert np.abs(out[1:-1, 1:-1]).max() < 1e-6


def test_oracle_preserves_boundary():
    rng = np.random.default_rng(0)
    grid = rng.random((8, 8))
    out = sor_oracle(grid, iterations=3)
    assert np.array_equal(out[0], grid[0])
    assert np.array_equal(out[-1], grid[-1])
    assert np.array_equal(out[:, 0], grid[:, 0])
    assert np.array_equal(out[:, -1], grid[:, -1])


@pytest.mark.parametrize("nodes,threads", [(2, 2), (4, 4), (3, 3)])
def test_sor_correct_on_dsm(nodes, threads):
    app = Sor(size=16, iterations=3)
    result = make_jvm(nodes=nodes).run(app, nthreads=threads)
    app.verify(result.output)


def test_sor_correct_under_all_policies():
    from repro.core.policies import make_policy

    for policy in ("NM", "FT1", "FT2", "AT", "JIAJIA", "JUMP"):
        app = Sor(size=12, iterations=2)
        result = make_jvm(nodes=3, policy=make_policy(policy)).run(app)
        app.verify(result.output)


def test_sor_single_thread_matches_oracle_trivially():
    app = Sor(size=10, iterations=2)
    result = make_jvm(nodes=1).run(app)
    app.verify(result.output)
    assert result.stats.total_messages() == 0  # all local


def test_sor_interior_rows_migrate_to_owners():
    app = Sor(size=24, iterations=4)
    result = make_jvm(nodes=4).run(app)
    app.verify(result.output)
    gos = result.gos
    # after the run, every interior row is homed at its owner's node
    from repro.gos.distribution import block_owner

    for i, row in enumerate(app.rows[1:-1], start=1):
        owner_tid = block_owner(i - 1, app.size, result.nthreads)
        assert gos.current_home(row) == owner_tid % result.nnodes


def test_sor_validation():
    with pytest.raises(ValueError):
        Sor(size=0)
    with pytest.raises(ValueError):
        Sor(size=4, iterations=0)


def test_omega_in_stable_range():
    assert 0 < OMEGA < 2  # SOR stability condition
