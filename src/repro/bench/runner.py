"""Single-run driver and the communication-model registry.

Policy and mechanism names resolve where their classes live:
:func:`repro.core.policies.make_policy` and
:func:`repro.dsm.redirection.make_mechanism`.
"""

from __future__ import annotations

from repro.apps.base import DsmApplication
from repro.cluster.hockney import FAST_ETHERNET, GIGABIT, MYRINET, HockneyModel
from repro.core.policies import MigrationPolicy, make_policy
from repro.dsm.redirection import NotificationMechanism, make_mechanism
from repro.gos.jvm import DistributedJVM, RunResult

#: Communication models by report name (used by picklable run specs,
#: which cannot carry the module-level singletons by identity).
COMM_MODELS: dict[str, HockneyModel] = {
    model.name: model for model in (FAST_ETHERNET, GIGABIT, MYRINET)
}


def make_comm_model(name: str) -> HockneyModel:
    """Look up a communication model from its report name."""
    try:
        return COMM_MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown comm model {name!r}; choose from {sorted(COMM_MODELS)}"
        ) from None


def run_once(
    app: DsmApplication,
    policy: str | MigrationPolicy = "AT",
    nodes: int = 8,
    mechanism: str | NotificationMechanism = "forwarding-pointer",
    comm_model: HockneyModel = FAST_ETHERNET,
    nthreads: int | None = None,
    verify: bool = True,
) -> RunResult:
    """Run one application once under one configuration; verify by default."""
    policy_obj = make_policy(policy) if isinstance(policy, str) else policy
    mech_obj = (
        make_mechanism(mechanism) if isinstance(mechanism, str) else mechanism
    )
    jvm = DistributedJVM(
        nodes=nodes, comm_model=comm_model, policy=policy_obj, mechanism=mech_obj
    )
    result = jvm.run(app, nthreads=nthreads)
    if verify:
        app.verify(result.output)
    return result
