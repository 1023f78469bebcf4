"""Tests for the LU application."""

import numpy as np
import pytest

from repro.apps.lu import Lu, dominant_matrix, lu_oracle

from tests.conftest import make_jvm


def test_dominant_matrix_is_dominant():
    m = dominant_matrix(12, seed=1)
    for i in range(12):
        off = np.abs(m[i]).sum() - abs(m[i, i])
        assert abs(m[i, i]) > off


def test_oracle_reconstructs_input():
    m = dominant_matrix(10, seed=2)
    lu = lu_oracle(m)
    lower = np.tril(lu, k=-1) + np.eye(10)
    upper = np.triu(lu)
    assert np.allclose(lower @ upper, m)


def test_oracle_matches_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    m = dominant_matrix(16, seed=3)
    lu_ours = lu_oracle(m)
    # scipy's lu with permutation disabled equivalently: since the matrix
    # is diagonally dominant, P should be identity
    p, l, u = scipy_linalg.lu(m)
    assert np.allclose(p, np.eye(16))
    assert np.allclose(np.tril(lu_ours, k=-1) + np.eye(16), l)
    assert np.allclose(np.triu(lu_ours), u)


@pytest.mark.parametrize("nodes,threads", [(2, 2), (4, 4), (4, 3)])
def test_lu_correct_on_dsm(nodes, threads):
    app = Lu(size=20, seed=5)
    result = make_jvm(nodes=nodes).run(app, nthreads=threads)
    app.verify(result.output)


def test_lu_correct_under_policies():
    from repro.core.policies import make_policy

    for policy in ("NM", "AT", "JIAJIA", "FT2"):
        app = Lu(size=16)
        result = make_jvm(nodes=4, policy=make_policy(policy)).run(app)
        app.verify(result.output)


def test_lu_migration_benefit():
    from repro.core.policies import NoMigration

    app_nm = Lu(size=48)
    res_nm = make_jvm(nodes=4, policy=NoMigration()).run(app_nm)
    app_nm.verify(res_nm.output)
    app_at = Lu(size=48)
    res_at = make_jvm(nodes=4).run(app_at)
    app_at.verify(res_at.output)
    assert res_at.execution_time_us < 0.8 * res_nm.execution_time_us
    assert res_at.migrations > 0


def test_lu_rows_stop_migrating_once_pivoted():
    """After row i becomes the pivot it is only read — migration churn
    on read-shared pivots would show up as extra migrations beyond one
    per row."""
    app = Lu(size=32)
    result = make_jvm(nodes=4).run(app)
    app.verify(result.output)
    assert result.migrations <= 32


def test_lu_validation():
    with pytest.raises(ValueError):
        Lu(size=1)
