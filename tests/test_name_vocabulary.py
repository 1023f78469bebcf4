"""One name vocabulary for policies and mechanisms, at every entry point.

Policy names resolve through :func:`repro.core.policies.make_policy` and
mechanism spec strings through :func:`repro.dsm.redirection.make_mechanism`,
whether the run starts from ``run_spec``, a fuzzer ``ProgramSpec`` or a
serving episode — so a name and its parameters mean the same thing
everywhere, and a malformed one is refused with a single line.
"""

import pytest

from repro.apps.serving import ServingSpec, build_serving_program
from repro.bench.executor import RunSpec, run_spec
from repro.bench.serving import run_serving
from repro.check.fuzz import generate_program
from repro.core.policies import make_policy
from repro.dsm.redirection import HomeManagerMechanism, make_mechanism

TINY_SERVING = dict(seed=1, nodes=4, keys=8, phases=1, requests_per_thread=2)


def test_program_spec_passes_policy_params():
    spec = generate_program(0)
    spec.policy, spec.policy_params = "LF", {"max_transitions": 2}
    assert spec.cluster.resolved_policy.max_transitions == 2


def test_run_spec_passes_policy_kwargs_to_every_policy():
    outcome = run_spec(
        RunSpec(
            app="synthetic",
            app_kwargs={"total_updates": 32, "repetition": 2},
            policy="LF",
            policy_params={"max_transitions": 2},
            nodes=3,
        )
    )
    assert outcome.policy == "LF"


def test_serving_accepts_fixed_threshold_names():
    report = run_serving(ServingSpec(policy="FT1", **TINY_SERVING))
    assert report["policy"] == "FT1"
    assert report["requests"] > 0


def test_serving_mechanism_parameters_keep_the_drawn_manager():
    spec = ServingSpec(mechanism="home-manager:shards=2", **TINY_SERVING)
    pspec = build_serving_program(spec)
    mech = spec.cluster(pspec.manager_node).resolved_mechanism
    assert isinstance(mech, HomeManagerMechanism)
    assert (mech.manager_node, mech.shards) == (pspec.manager_node, 2)
    assert run_serving(spec)["requests"] > 0


def test_manager_in_the_spec_string_overrides_the_default():
    assert make_mechanism("home-manager:manager=1", 3).manager_node == 1
    assert make_mechanism("home-manager", 3).manager_node == 3


#: Malformed names -> (resolver, name, params, start of the message).
BAD_NAMES = {
    "unknown policy": (make_policy, "nope", {}, "unknown policy 'nope'"),
    "unknown policy parameter": (
        make_policy, "AT", {"bogus": 1}, "bad parameters for policy 'AT'"
    ),
    "FT without threshold": (
        make_policy, "FT", {}, "bad parameters for policy 'FT'"
    ),
    "FT1 given a threshold": (
        make_policy, "FT1", {"threshold": 2}, "bad parameters for policy 'FT1'"
    ),
    "unknown mechanism": (
        make_mechanism, "gossip", {}, "unknown mechanism 'gossip'"
    ),
    "parameter of another mechanism": (
        make_mechanism, "broadcast:shards=2", {},
        "bad mechanism parameter 'shards=2'",
    ),
    "non-integer parameter": (
        make_mechanism, "broadcast:fanout=wide", {},
        "mechanism parameter fanout='wide'",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_NAMES))
def test_malformed_names_rejected_in_one_line(case):
    resolve, name, params, start = BAD_NAMES[case]
    with pytest.raises(ValueError) as err:
        resolve(name, **params)
    message = str(err.value)
    assert message.startswith(start)
    assert "\n" not in message
