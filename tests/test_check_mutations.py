"""Mutation self-test: the checkers must catch every built-in mutation."""

import pytest

from repro.check.mutations import (
    MUTATION_NAMES,
    apply_mutation,
    mutation_spec,
)
from repro.check.runner import run_episode, run_self_test


def test_self_test_catches_every_mutation():
    outcome = run_self_test()
    assert set(outcome) == set(MUTATION_NAMES)
    for name, (clean_unmutated, caught_mutated) in outcome.items():
        assert clean_unmutated, f"{name}: crafted episode dirty unmutated"
        assert caught_mutated, f"{name}: mutation not caught"


@pytest.mark.parametrize("name", MUTATION_NAMES)
def test_each_crafted_episode_is_clean_without_its_mutation(name):
    result = run_episode(spec=mutation_spec(name))
    assert result.ok, result.oracle_violations + result.invariant_violations


def test_unknown_mutation_rejected():
    with pytest.raises(ValueError):
        with apply_mutation("no_such_mutation"):
            pass


def test_mutations_are_fully_restored_after_exit():
    import repro.dsm.interval as interval
    from repro.core.policies import AdaptiveThreshold
    from repro.dsm.redirection import ForwardingPointerMechanism

    originals = (
        interval.apply_diff,
        ForwardingPointerMechanism.miss_directive,
        AdaptiveThreshold.current_threshold,
    )
    for name in MUTATION_NAMES:
        with apply_mutation(name):
            pass
        assert (
            interval.apply_diff,
            ForwardingPointerMechanism.miss_directive,
            AdaptiveThreshold.current_threshold,
        ) == originals, f"{name} leaked its patch"


def test_mutation_restored_even_when_run_crashes():
    import repro.dsm.interval as interval

    original = interval.apply_diff
    with pytest.raises(RuntimeError):
        with apply_mutation("skip_diff"):
            raise RuntimeError("episode blew up")
    assert interval.apply_diff is original
