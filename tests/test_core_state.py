"""Tests for the per-object home access monitor state (§3.3, §4.1)."""

import pytest

from repro.core.coefficient import home_access_coefficient
from repro.core.state import HOME_WRITER, SHARED, ObjectAccessState


def make_state(**kwargs):
    return ObjectAccessState(oid=1, object_bytes=1024, **kwargs)


def test_initial_state():
    state = make_state()
    assert state.consecutive_writes == 0
    assert state.consecutive_writer is None
    assert state.exclusive_home_writes == 0
    assert state.redirections == 0
    assert state.threshold_base == 1.0
    assert state.diff_bytes_avg == 1024.0  # seeded with the object size


def test_invalid_object_bytes():
    with pytest.raises(ValueError):
        ObjectAccessState(oid=1, object_bytes=0)


def test_alpha_follows_the_diff_average_exactly():
    m_half = 1150.0
    state = make_state(half_peak_bytes=m_half)
    assert state.alpha == home_access_coefficient(1024, 1024.0, m_half)
    for writer, diff_bytes in ((2, 100), (2, 37), (3, 513), (2, 8)):
        state.record_remote_write(writer, diff_bytes)
        # bit-exact: the cached value is the function's own expression
        assert state.alpha == home_access_coefficient(
            1024, state.diff_bytes_avg, m_half
        )
    kept = state.alpha
    state.record_home_write()
    state.record_remote_read(4, hops=2)
    assert state.alpha == kept  # nothing but a diff moves it
    assert make_state().alpha is None  # no network, no alpha


def test_consecutive_writes_same_writer():
    state = make_state()
    for i in range(4):
        state.record_remote_write(writer=2, diff_bytes=100)
        assert state.consecutive_writes == i + 1
    assert state.consecutive_writer == 2
    assert state.remote_writes == 4


def test_other_writer_restarts_chain():
    state = make_state()
    state.record_remote_write(2, 100)
    state.record_remote_write(2, 100)
    state.record_remote_write(3, 100)
    assert state.consecutive_writer == 3
    assert state.consecutive_writes == 1


def test_home_write_breaks_chain():
    state = make_state()
    state.record_remote_write(2, 100)
    state.record_home_write()
    assert state.consecutive_writes == 0
    assert state.consecutive_writer is None


def test_remote_read_does_not_break_chain():
    """§1: the single-writer pattern tolerates concurrent readers."""
    state = make_state()
    state.record_remote_write(2, 100)
    state.record_remote_read(5)
    state.record_remote_write(2, 100)
    assert state.consecutive_writes == 2


def test_exclusive_home_write_requires_prior_home_write():
    state = make_state()
    assert state.record_home_write() is False  # first: last writer unknown
    assert state.record_home_write() is True
    assert state.record_home_write() is True
    assert state.exclusive_home_writes == 2
    assert state.last_writer == HOME_WRITER


def test_remote_write_interrupts_exclusivity():
    state = make_state()
    state.record_home_write()
    state.record_remote_write(4, 10)
    assert state.record_home_write() is False  # remote write intervened
    assert state.exclusive_home_writes == 0


def test_redirection_accumulation():
    """A request redirected three times counts three (§4.1)."""
    state = make_state()
    state.record_redirections(3)
    state.record_redirections(0)
    state.record_redirections(2)
    assert state.redirections == 5
    with pytest.raises(ValueError):
        state.record_redirections(-1)


def test_negative_writer_rejected():
    state = make_state()
    with pytest.raises(ValueError):
        state.record_remote_write(-1, 10)


def test_diff_size_ewma_moves_toward_observations():
    state = make_state()
    state.record_remote_write(2, 0)
    assert state.diff_bytes_avg == 512.0  # halfway toward 0
    state.record_remote_write(2, 0)
    assert state.diff_bytes_avg == 256.0


def test_reset_after_migration():
    state = make_state()
    state.record_remote_write(2, 100)
    state.record_redirections(4)
    state.record_home_write()
    state.record_home_write()
    state.reset_after_migration(new_threshold_base=7.5)
    assert state.migrations == 1
    assert state.transitions == 1
    assert state.threshold_base == 7.5
    assert state.consecutive_writes == 0
    assert state.consecutive_writer is None
    assert state.exclusive_home_writes == 0
    assert state.redirections == 0
    assert state.last_writer is None
    assert state.sharer is None


def test_first_home_write_after_migration_not_exclusive():
    state = make_state()
    state.record_remote_write(2, 100)
    state.reset_after_migration(1.0)
    assert state.record_home_write() is False
    assert state.record_home_write() is True


def test_sharers_tracking():
    state = make_state()
    assert state.sharer is None
    state.record_remote_read(1)
    state.record_remote_read(1)
    assert state.sharer == 1  # one reader, however often it reads
    state.record_remote_read(2)
    assert state.sharer == SHARED
    state.record_remote_read(1)
    assert state.sharer == SHARED  # a second reader is never forgotten
