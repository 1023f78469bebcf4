"""Seeded random DSM workload generator.

One integer seed deterministically expands into a complete
:class:`ProgramSpec`: a cluster size, a thread placement, a random
object graph, a migration policy with per-episode ``alpha``/``lambda``
draws, and a phase-structured program of reads, writes, lock-guarded
critical sections, method shipping and barriers.  The spec is executed
on the simulated DSM by :class:`repro.apps.fromspec.SpecProgram` and
checked by :mod:`repro.check.oracle` and :mod:`repro.check.invariants`.

Generated programs are **data-race-free by construction**, which is
what makes a sequential oracle possible under lazy release consistency
(LRC only constrains properly synchronized programs):

* the program is a sequence of *phases* separated by global barriers;
* within a phase every object is either assigned to a **lock group**
  (threads touch it only inside critical sections of that one lock) or
  **owned** by a single thread (unsynchronized single-writer access —
  the pattern that exercises home migration);
* critical sections never nest locks, so the lock graph is trivially
  deadlock-free, and every thread reaches every barrier.

Under that discipline any two conflicting accesses are ordered by
happens-before, so the simulator's execution order of operations on
each object is *the* legal order, and replaying the execution log
sequentially yields the unique legal final heap (see
``docs/PROTOCOL.md`` §13).

Operation vocabulary (tuples, JSON-serializable):

* ``("read", obj, idx)`` — observe ``obj[idx]``;
* ``("set", obj, idx, v)`` — ``obj[idx] = v``;
* ``("add", obj, idx, d)`` — ``obj[idx] += d``;
* ``("scale", obj, idx, a, b)`` — ``obj[idx] = a*obj[idx] + b``;
* ``("copy", obj, dst, src, d)`` — ``obj[dst] = obj[src] + d``;
* ``("ship_add", obj, idx, d)`` — method-ship ``+= d`` to the home,
  observing the result (only inside critical sections).

All constants are small exactly-representable floats and both the
application and the oracle evaluate the same numpy float64 expressions
in the same order, so comparisons are exact (bit-identical), not
approximate.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from repro.core.policies import MigrationPolicy, make_policy
from repro.dsm.redirection import NotificationMechanism, make_mechanism

#: Operation kinds a generated program may contain.
OP_KINDS = ("read", "set", "add", "scale", "copy", "ship_add")

#: Mechanism names the generator draws from (the order fixes the draws).
MECHANISM_NAMES = ("forwarding-pointer", "broadcast", "home-manager")


@dataclass
class ObjectSpec:
    """One shared array object: name, length, initial home, initial data."""

    name: str
    length: int
    home: int
    init: list[float]


@dataclass(slots=True)
class SectionSpec:
    """One access block of a thread.

    ``lock`` names the guarding lock (an index into
    ``ProgramSpec.lock_homes``), or is ``None`` for an *owned* block —
    unsynchronized accesses to objects this thread exclusively owns in
    the current phase.  ``ops`` is the operation list (tuples from the
    module vocabulary); ``compute_us`` is local CPU charged after the
    ops, varying the interleavings the scheduler produces.

    ``request`` optionally labels the section as one serving-tier
    request of that class (e.g. ``"get"``/``"put"``, see
    :mod:`repro.apps.serving`): the runner brackets the whole section —
    lock wait included — in a ``request`` causal span, which is what
    the SLO pipeline measures.  ``None`` (the default, and the only
    value the core fuzz generator emits) records no span.

    ``think_us`` is virtual time waited *before* the section (a serving
    client's arrival gap), outside any request span; 0.0 in core specs.
    """

    lock: int | None
    ops: list[tuple]
    compute_us: float = 0.0
    request: str | None = None
    think_us: float = 0.0


@dataclass
class ProgramSpec:
    """A complete generated episode: cluster, policy, objects, program.

    ``phases[p][tid]`` is the ordered list of :class:`SectionSpec` thread
    ``tid`` executes in phase ``p``; every thread ends every phase at the
    global barrier.
    """

    seed: int
    nnodes: int
    nthreads: int
    placement: list[int]
    policy_name: str
    policy_params: dict
    mechanism_name: str
    manager_node: int
    lock_discipline: str
    objects: list[ObjectSpec] = field(default_factory=list)
    lock_homes: list[int] = field(default_factory=list)
    barrier_home: int = 0
    phases: list[list[list[SectionSpec]]] = field(default_factory=list)

    # -- construction of engine collaborators -----------------------------

    def build_policy(self) -> MigrationPolicy:
        """Instantiate the migration policy this spec names."""
        return make_policy(self.policy_name, **self.policy_params)

    def build_mechanism(self) -> NotificationMechanism:
        """Instantiate the stale-hint notification mechanism; the spec
        string may carry ``:key=int`` parameters, and a home manager
        defaults to :attr:`manager_node`."""
        return make_mechanism(self.mechanism_name, self.manager_node)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data form (JSON round-trippable via :meth:`from_dict`)."""
        return {
            "seed": self.seed,
            "nnodes": self.nnodes,
            "nthreads": self.nthreads,
            "placement": list(self.placement),
            "policy_name": self.policy_name,
            "policy_params": dict(self.policy_params),
            "mechanism_name": self.mechanism_name,
            "manager_node": self.manager_node,
            "lock_discipline": self.lock_discipline,
            "objects": [
                {
                    "name": o.name,
                    "length": o.length,
                    "home": o.home,
                    "init": list(o.init),
                }
                for o in self.objects
            ],
            "lock_homes": list(self.lock_homes),
            "barrier_home": self.barrier_home,
            "phases": [
                [[_section_dict(s) for s in sections] for sections in phase]
                for phase in self.phases
            ],
        }

    def to_json(self) -> str:
        """Canonical JSON text — byte-identical for equal specs."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ProgramSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            seed=data["seed"],
            nnodes=data["nnodes"],
            nthreads=data["nthreads"],
            placement=list(data["placement"]),
            policy_name=data["policy_name"],
            policy_params=dict(data["policy_params"]),
            mechanism_name=data["mechanism_name"],
            manager_node=data["manager_node"],
            lock_discipline=data["lock_discipline"],
            objects=[
                ObjectSpec(
                    name=o["name"],
                    length=o["length"],
                    home=o["home"],
                    init=list(o["init"]),
                )
                for o in data["objects"]
            ],
            lock_homes=list(data["lock_homes"]),
            barrier_home=data["barrier_home"],
            phases=[
                [
                    [
                        SectionSpec(
                            lock=s["lock"],
                            ops=[tuple(op) for op in s["ops"]],
                            compute_us=s["compute_us"],
                            request=s.get("request"),
                            think_us=s.get("think_us", 0.0),
                        )
                        for s in sections
                    ]
                    for sections in phase
                ]
                for phase in data["phases"]
            ],
        )


def _section_dict(s: SectionSpec) -> dict:
    """Plain-data form of one section; ``think_us`` only when non-zero,
    so specs without think time keep their historical JSON bytes."""
    out = {
        "lock": s.lock,
        "ops": [list(op) for op in s.ops],
        "compute_us": s.compute_us,
        "request": s.request,
    }
    if s.think_us:
        out["think_us"] = s.think_us
    return out


def _draw_policy(rng: random.Random) -> tuple[str, dict]:
    """Draw a (policy_name, params) pair, varying alpha/lambda per episode."""
    menu = [
        ("NM", {}),
        ("FT", {"threshold": 1}),
        ("FT", {"threshold": 2}),
        (
            "AT",
            {
                "lam": rng.choice([0.5, 1.0, 2.0]),
                "t_init": float(rng.choice([1, 2])),
            },
        ),
        ("AT", {"fixed_alpha": rng.choice([0.5, 1.0, 2.0])}),
        ("ATD", {"gamma": rng.choice([0.5, 0.9]), "lam": 1.0, "t_init": 1.0}),
        ("JUMP", {}),
        ("LF", {}),
        ("JIAJIA", {}),
    ]
    return rng.choice(menu)


def _draw_direct_op(
    rng: random.Random, obj: ObjectSpec
) -> tuple:
    """One direct (non-shipped) operation on ``obj``."""
    idx = rng.randrange(obj.length)
    r = rng.random()
    if r < 0.35:
        return ("read", obj.name, idx)
    if r < 0.55:
        return ("add", obj.name, idx, float(rng.randint(-6, 6)))
    if r < 0.70:
        return ("set", obj.name, idx, float(rng.randint(-16, 16)))
    if r < 0.85:
        return (
            "scale",
            obj.name,
            idx,
            rng.choice([0.5, 2.0, -1.0]),
            float(rng.randint(-4, 4)),
        )
    return (
        "copy",
        obj.name,
        idx,
        rng.randrange(obj.length),
        float(rng.randint(-2, 2)),
    )


#: Episode flavors :func:`generate_program` understands.
#:
#: * ``core`` — the original random access-pattern generator below;
#: * ``serving`` — a request-driven serving episode (Zipfian keyed
#:   store, affinity routing, hot-set shifts; see
#:   :func:`repro.apps.serving.generate_serving_program`);
#: * ``mixed`` — deterministically interleaves both: seeds with
#:   ``seed % 4 == 3`` expand to serving episodes, the rest to core
#:   ones, so long soak runs cover the serving paths without a separate
#:   job.
FLAVORS = ("core", "serving", "mixed")


def generate_program(seed: int, flavor: str = "core") -> ProgramSpec:
    """Expand one integer seed into a complete episode spec.

    Deterministic: equal (seed, flavor) pairs yield byte-identical
    :meth:`ProgramSpec.to_json` texts (the conformance CI relies on it).
    The default ``core`` flavor is unchanged from before flavors
    existed, so historical corpora stay replayable.
    """
    if flavor not in FLAVORS:
        raise ValueError(
            f"unknown flavor {flavor!r}; choose from {FLAVORS}"
        )
    if flavor == "serving" or (flavor == "mixed" and seed % 4 == 3):
        # Local import: repro.apps.serving imports the spec classes from
        # this module, so the dependency must stay one-way at import time.
        from repro.apps.serving import generate_serving_program

        return generate_serving_program(seed)
    rng = random.Random(seed)
    nnodes = rng.randint(2, 5)
    nthreads = rng.randint(2, 5)
    placement = [rng.randrange(nnodes) for _ in range(nthreads)]

    nobjects = rng.randint(1, 4)
    objects = [
        ObjectSpec(
            name=f"obj{i}",
            length=rng.randint(1, 6),
            home=rng.randrange(nnodes),
            init=[],
        )
        for i in range(nobjects)
    ]
    for obj in objects:
        obj.init = [float(rng.randint(-8, 8)) for _ in range(obj.length)]

    nlocks = rng.randint(1, 3)
    lock_homes = [rng.randrange(nnodes) for _ in range(nlocks)]
    barrier_home = rng.randrange(nnodes)

    policy_name, policy_params = _draw_policy(rng)
    mechanism_name = rng.choice(list(MECHANISM_NAMES))
    manager_node = rng.randrange(nnodes)
    lock_discipline = rng.choice(["fifo", "retry"])

    by_name = {obj.name: obj for obj in objects}
    phases: list[list[list[SectionSpec]]] = []
    for _phase in range(rng.randint(1, 3)):
        # Race freedom: each object is lock-guarded or single-owner
        # for the whole phase.
        owners: dict[str, int] = {}
        guards: dict[str, int] = {}
        for obj in objects:
            if rng.random() < 0.25:
                owners[obj.name] = rng.randrange(nthreads)
            else:
                guards[obj.name] = rng.randrange(nlocks)
        lock_groups: dict[int, list[str]] = {}
        for name, lock in guards.items():
            lock_groups.setdefault(lock, []).append(name)

        sections_by_tid: list[list[SectionSpec]] = []
        for tid in range(nthreads):
            blocks: list[SectionSpec] = []
            for _ in range(rng.randint(0, 3)):
                candidates = sorted(lock_groups)
                if not candidates:
                    break
                lock = rng.choice(candidates)
                group = lock_groups[lock]
                # Within one section an object is accessed either only
                # by shipping or only directly — never both, so the log
                # order equals the home's apply order.
                shipped = {n for n in group if rng.random() < 0.15}
                ops: list[tuple] = []
                for _ in range(rng.randint(1, 5)):
                    name = rng.choice(group)
                    obj = by_name[name]
                    if name in shipped:
                        ops.append(
                            (
                                "ship_add",
                                name,
                                rng.randrange(obj.length),
                                float(rng.randint(-4, 4)),
                            )
                        )
                    else:
                        ops.append(_draw_direct_op(rng, obj))
                blocks.append(
                    SectionSpec(
                        lock=lock,
                        ops=ops,
                        compute_us=rng.choice([0.0, 20.0, 100.0]),
                    )
                )
            for name, owner in owners.items():
                if owner != tid:
                    continue
                obj = by_name[name]
                for _ in range(rng.randint(1, 2)):
                    ops = [
                        _draw_direct_op(rng, obj)
                        for _ in range(rng.randint(1, 5))
                    ]
                    blocks.append(
                        SectionSpec(
                            lock=None,
                            ops=ops,
                            compute_us=rng.choice([0.0, 20.0]),
                        )
                    )
            rng.shuffle(blocks)
            sections_by_tid.append(blocks)
        phases.append(sections_by_tid)

    return ProgramSpec(
        seed=seed,
        nnodes=nnodes,
        nthreads=nthreads,
        placement=placement,
        policy_name=policy_name,
        policy_params=policy_params,
        mechanism_name=mechanism_name,
        manager_node=manager_node,
        lock_discipline=lock_discipline,
        objects=objects,
        lock_homes=lock_homes,
        barrier_home=barrier_home,
        phases=phases,
    )


def episode_seeds(base_seed: int, episodes: int) -> list[int]:
    """The per-episode seed sequence a `repro check` run derives from
    its base seed (deterministic, so corpora are reproducible)."""
    rng = random.Random(base_seed)
    return [rng.randrange(2**63) for _ in range(episodes)]
