"""Tests for the bench runner and the policy/mechanism registries."""

import pytest

from repro.apps import SingleWriterBenchmark, Sor
from repro.bench.runner import run_once
from repro.core.policies import (
    POLICIES,
    AdaptiveThreshold,
    FixedThreshold,
    make_policy,
)
from repro.dsm.redirection import MECHANISMS, make_mechanism


def test_policy_registry_complete():
    assert set(POLICIES) == {
        "NM", "FT", "FT1", "FT2", "AT", "ATD", "JUMP", "LF", "JIAJIA"
    }
    for name in POLICIES:
        if name == "FT":
            assert make_policy(name, threshold=3).name == "FT3"
        else:
            assert make_policy(name).name == name


def test_mechanism_registry_complete():
    assert set(MECHANISMS) == {
        "forwarding-pointer", "broadcast", "home-manager"
    }
    for name in MECHANISMS:
        assert make_mechanism(name).name == name


def test_unknown_names_rejected():
    with pytest.raises(ValueError):
        make_policy("nope")
    with pytest.raises(ValueError):
        make_mechanism("nope")


def test_ft_instances_are_fresh():
    a, b = make_policy("FT1"), make_policy("FT1")
    assert a is not b
    assert isinstance(a, FixedThreshold)


def test_run_once_by_name_and_instance():
    by_name = run_once(Sor(size=8, iterations=1), policy="AT", nodes=2)
    by_instance = run_once(
        Sor(size=8, iterations=1), policy=AdaptiveThreshold(), nodes=2
    )
    assert by_name.execution_time_us == by_instance.execution_time_us


def test_run_once_verifies_by_default():
    result = run_once(
        SingleWriterBenchmark(total_updates=32, repetition=2),
        policy="NM",
        nodes=3,
    )
    assert result.output >= 32


def test_run_once_custom_mechanism():
    result = run_once(
        SingleWriterBenchmark(total_updates=32, repetition=4),
        policy="AT",
        nodes=3,
        mechanism="broadcast",
    )
    assert result.mechanism_name == "broadcast"
