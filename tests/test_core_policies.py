"""Tests for the migration policy family."""

import pytest

from repro.core.policies import (
    AdaptiveThreshold,
    BarrierMigration,
    FixedThreshold,
    LazyFlushing,
    MigratingHome,
    NoMigration,
)
from repro.core.state import ObjectAccessState

ALPHA = 2.0


def make_state(**kwargs):
    return ObjectAccessState(oid=1, object_bytes=1000, **kwargs)


# -- NoMigration ------------------------------------------------------------


def test_no_migration_never_fires():
    policy = NoMigration()
    state = make_state()
    for _ in range(100):
        state.record_remote_write(2, 10)
    assert not policy.should_migrate(state, 2, ALPHA, True)
    assert policy.name == "NM"


# -- FixedThreshold -----------------------------------------------------------


def test_fixed_threshold_fires_at_k():
    policy = FixedThreshold(3)
    state = make_state()
    for _ in range(2):
        state.record_remote_write(2, 10)
        assert not policy.should_migrate(state, 2, ALPHA, False)
    state.record_remote_write(2, 10)
    assert policy.should_migrate(state, 2, ALPHA, False)


def test_fixed_threshold_requires_matching_requester():
    policy = FixedThreshold(1)
    state = make_state()
    state.record_remote_write(2, 10)
    assert not policy.should_migrate(state, 3, ALPHA, False)
    assert policy.should_migrate(state, 2, ALPHA, False)


def test_fixed_threshold_names():
    assert FixedThreshold(1).name == "FT1"
    assert FixedThreshold(2).name == "FT2"


def test_fixed_threshold_validation():
    with pytest.raises(ValueError):
        FixedThreshold(0)


def test_fixed_threshold_on_migrated_resets():
    policy = FixedThreshold(1)
    state = make_state()
    state.record_remote_write(2, 10)
    policy.on_migrated(state, ALPHA)
    assert state.consecutive_writes == 0
    assert state.migrations == 1


# -- AdaptiveThreshold --------------------------------------------------------


def test_adaptive_starts_at_t_init():
    policy = AdaptiveThreshold()
    state = make_state()
    assert policy.current_threshold(state, ALPHA) == 1.0
    state.record_remote_write(2, 10)
    assert policy.should_migrate(state, 2, ALPHA, False)


def test_adaptive_redirections_inhibit():
    policy = AdaptiveThreshold()
    state = make_state()
    state.record_redirections(5)
    state.record_remote_write(2, 10)
    assert policy.current_threshold(state, ALPHA) == 6.0
    assert not policy.should_migrate(state, 2, ALPHA, False)


def test_adaptive_exclusive_home_writes_sensitize():
    policy = AdaptiveThreshold()
    state = make_state(threshold_base=5.0)
    state.record_redirections(2)
    # two exclusive home writes at alpha=2 cancel four redirections
    state.record_home_write()
    state.record_home_write()
    state.record_home_write()
    assert state.exclusive_home_writes == 2
    assert policy.current_threshold(state, ALPHA) == pytest.approx(3.0)


def test_adaptive_on_migrated_freezes_threshold():
    policy = AdaptiveThreshold()
    state = make_state()
    state.record_redirections(3)
    state.record_remote_write(2, 10)
    frozen = policy.current_threshold(state, ALPHA)
    policy.on_migrated(state, ALPHA)
    assert state.threshold_base == frozen
    assert state.redirections == 0
    assert state.exclusive_home_writes == 0


def test_adaptive_requires_matching_requester():
    policy = AdaptiveThreshold()
    state = make_state()
    state.record_remote_write(2, 10)
    assert not policy.should_migrate(state, 9, ALPHA, False)


def test_adaptive_custom_lambda():
    policy = AdaptiveThreshold(lam=0.5)
    state = make_state()
    state.record_redirections(4)
    assert policy.current_threshold(state, ALPHA) == 3.0


def test_adaptive_t_init_validation():
    with pytest.raises(ValueError):
        AdaptiveThreshold(t_init=0.5)


# -- MigratingHome (JUMP) ------------------------------------------------------


def test_jump_migrates_on_any_write_request():
    policy = MigratingHome()
    state = make_state()
    assert policy.should_migrate(state, 7, ALPHA, for_write=True)
    assert not policy.should_migrate(state, 7, ALPHA, for_write=False)


# -- LazyFlushing (Jackal) ------------------------------------------------------


def test_lazy_flushing_requires_sole_sharer():
    policy = LazyFlushing()
    state = make_state()
    state.record_remote_read(3)
    assert policy.should_migrate(state, 3, ALPHA, for_write=True)
    state.record_remote_read(4)  # another sharer appears
    assert not policy.should_migrate(state, 3, ALPHA, for_write=True)


def test_lazy_flushing_read_requests_never_migrate():
    policy = LazyFlushing()
    state = make_state()
    assert not policy.should_migrate(state, 3, ALPHA, for_write=False)


def test_lazy_flushing_transition_cap():
    policy = LazyFlushing(max_transitions=2)
    state = make_state()
    for _ in range(2):
        assert policy.should_migrate(state, 3, ALPHA, for_write=True)
        policy.on_migrated(state, ALPHA)
    assert state.transitions == 2
    assert not policy.should_migrate(state, 3, ALPHA, for_write=True)


def test_lazy_flushing_validation():
    with pytest.raises(ValueError):
        LazyFlushing(max_transitions=0)


# -- BarrierMigration (JiaJia) ---------------------------------------------------


def test_barrier_migration_never_fires_on_requests():
    policy = BarrierMigration()
    state = make_state()
    state.record_remote_write(2, 10)
    assert not policy.should_migrate(state, 2, ALPHA, True)
    assert policy.wants_barrier_migration()


def test_non_barrier_policies_decline_barrier_hook():
    for policy in (NoMigration(), FixedThreshold(1), AdaptiveThreshold()):
        assert not policy.wants_barrier_migration()
