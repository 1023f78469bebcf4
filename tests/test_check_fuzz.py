"""Fuzzer properties: determinism, serialization, DRF well-formedness."""

import json

import pytest

from repro.check.fuzz import (
    ProgramSpec,
    episode_seeds,
    generate_program,
)

SEEDS = list(range(20))


def test_same_seed_is_byte_identical():
    for seed in SEEDS:
        assert generate_program(seed).to_json() == generate_program(seed).to_json()


def test_different_seeds_differ():
    texts = {generate_program(seed).to_json() for seed in SEEDS}
    assert len(texts) == len(SEEDS)


def test_json_round_trip_is_lossless():
    for seed in SEEDS:
        spec = generate_program(seed)
        rebuilt = ProgramSpec.from_dict(json.loads(spec.to_json()))
        assert rebuilt.to_json() == spec.to_json()


def test_episode_seed_sequence_is_deterministic():
    assert list(episode_seeds(0, 10)) == list(episode_seeds(0, 10))
    assert list(episode_seeds(0, 10)) != list(episode_seeds(1, 10))
    # a longer run extends, never reshuffles, a shorter one
    assert list(episode_seeds(7, 20))[:10] == list(episode_seeds(7, 10))


def test_specs_are_structurally_valid():
    for seed in SEEDS:
        spec = generate_program(seed)
        assert 2 <= spec.nodes <= 5
        assert 2 <= spec.nthreads <= 5
        assert len(spec.placement) == spec.nthreads
        assert all(0 <= node < spec.nodes for node in spec.placement)
        assert spec.objects
        names = {obj.name for obj in spec.objects}
        assert all(0 <= obj.home < spec.nodes for obj in spec.objects)
        assert all(0 <= home < spec.nodes for home in spec.lock_homes)
        for phase in spec.phases:
            assert len(phase) == spec.nthreads
            for sections in phase:
                for section in sections:
                    if section.lock is not None:
                        assert 0 <= section.lock < len(spec.lock_homes)
                    for op in section.ops:
                        assert op[1] in names


def test_specs_are_drf_by_construction():
    """Within a phase, every object is single-thread-owned or guarded by
    exactly one lock — the property that makes log-order replay exact."""
    for seed in SEEDS:
        spec = generate_program(seed)
        for phase in spec.phases:
            # object -> set of (tid, lock) contexts touching it
            contexts: dict[str, set] = {}
            for tid, sections in enumerate(phase):
                for section in sections:
                    for op in section.ops:
                        key = (
                            ("lock", section.lock)
                            if section.lock is not None
                            else ("owner", tid)
                        )
                        contexts.setdefault(op[1], set()).add(key)
            for obj, keys in contexts.items():
                locks = {k for k in keys if k[0] == "lock"}
                owners = {k for k in keys if k[0] == "owner"}
                assert (len(locks) == 1 and not owners) or (
                    len(owners) == 1 and not locks
                ), f"seed {seed}: {obj} raced via {keys}"


def test_policy_and_mechanism_build():
    for seed in SEEDS:
        spec = generate_program(seed)
        cluster = spec.cluster
        assert cluster.resolved_policy.name.startswith(spec.policy)
        assert cluster.resolved_mechanism.name == spec.mechanism


def test_from_dict_rejects_incomplete_payload():
    with pytest.raises((ValueError, KeyError, TypeError)):
        ProgramSpec.from_dict({"seed": 0})
