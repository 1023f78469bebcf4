"""Request-driven serving workload over a keyed object store.

Every workload the repo had before this module is a SPLASH-style
scripted kernel.  The paper's adaptive home-migration rule, though, is
motivated by *emergent* single-writer access patterns — exactly what
request traffic over a keyed store produces when requests are routed by
key affinity.  This module generates that traffic deterministically and
compiles it down to an ordinary :class:`~repro.check.fuzz.ProgramSpec`,
so a serving episode inherits the whole conformance stack for free: it
runs through :class:`~repro.apps.fromspec.SpecProgram`, replays under
the sequential happens-before oracle, and streams through the runtime
invariant checker.

The traffic model (:class:`ServingSpec` is the knob set):

* **Key space** — ``keys`` shared arrays (``key000`` ...), homes drawn
  from the seeded RNG; each key is one "record" of ``key_len`` floats.
* **Zipfian popularity** — request keys are drawn by inverse-CDF
  sampling from a Zipf(``zipf_s``) distribution over popularity ranks
  (:class:`ZipfSampler`), so a small hot set takes most traffic.
* **Phase-shifting hot sets** — the rank→key mapping rotates by
  ``hot_shift`` keys at every barrier (:func:`hot_key`), moving the hot
  set to a different part of the key space each phase.  The shift is
  *exact* at barrier boundaries: phase ``p``'s ranking is phase 0's
  rotated by ``p * hot_shift``.
* **Affinity routing** — per phase, the hottest ``owned_fraction`` of
  keys are *owned*: all their requests route to one worker thread
  (unsynchronized single-writer access, the migration-friendly
  pattern), and ownership follows the hot set as it shifts.  The
  remaining keys are lock-guarded and served by round-robin frontends.
  This is precisely the data-race-freedom discipline of
  :mod:`repro.check.fuzz`, so the oracle stays sound.
* **Read/write mix** — each request is a ``get`` (reads) or ``put``
  (read-modify-write) drawn with probability ``read_fraction``.
* **Arrival processes** — ``open`` draws exponential inter-arrival
  gaps (a Poisson process in sim virtual time, mean ``mean_gap_us``)
  from the seeded RNG; ``closed`` waits a fixed ``think_us`` between
  requests.  Gaps compile to zero-op compute sections *before* each
  request, so measured request latency never includes think time.
* **Node churn** — per phase, ``churn`` of the nodes go *quiet*
  (:func:`quiet_nodes`, a deterministic rotating window): their worker
  threads issue no requests that phase and just meet the barrier,
  rejoining afterwards.  A quiet node keeps serving the homes and locks
  it hosts — churn models frontends going idle, not failures.

Determinism: expansion is a pure function of the spec (one
``random.Random(seed)`` stream), so equal specs yield byte-identical
``ProgramSpec.to_json()`` texts on every backend, and the simulated run
is bit-identical under python and compiled kernels.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field

from repro.check.fuzz import ObjectSpec, ProgramSpec, SectionSpec, _draw_policy

__all__ = [
    "REQUEST_CLASSES",
    "ServingSpec",
    "ZipfSampler",
    "build_serving_program",
    "generate_serving_program",
    "hot_key",
    "phase_hot_keys",
    "quiet_nodes",
    "zipf_weights",
]

#: Request classes a serving episode emits (the span/report categories).
REQUEST_CLASSES = ("get", "put")


def zipf_weights(nkeys: int, s: float) -> list[float]:
    """Normalized Zipf(s) probability of each popularity rank.

    ``weights[r]`` is the probability of rank ``r`` (0 = hottest):
    ``(r+1)^-s / H(nkeys, s)`` with the generalized harmonic number as
    normalizer.  Pure and deterministic — the property tests compare the
    sampler against exactly these weights.
    """
    if nkeys < 1:
        raise ValueError(f"nkeys must be >= 1, got {nkeys}")
    raw = [(rank + 1) ** -s for rank in range(nkeys)]
    total = math.fsum(raw)
    return [w / total for w in raw]


class ZipfSampler:
    """Inverse-CDF sampler over Zipf popularity ranks.

    ``rank_of(u)`` maps a uniform draw ``u`` in [0, 1) to the rank whose
    CDF interval contains it, so the measure of ``u`` values yielding
    rank ``r`` is exactly ``weights[r]`` — sampling accuracy reduces to
    the RNG's uniformity, with no rejection loop to perturb the stream.
    """

    def __init__(self, nkeys: int, s: float) -> None:
        self.nkeys = nkeys
        self.s = s
        self.weights = zipf_weights(nkeys, s)
        acc = 0.0
        self.cdf: list[float] = []
        for w in self.weights:
            acc += w
            self.cdf.append(acc)
        self.cdf[-1] = 1.0  # guard float summation shortfall at the tail

    def rank_of(self, u: float) -> int:
        """The popularity rank whose CDF interval contains ``u``."""
        if not 0.0 <= u < 1.0:
            raise ValueError(f"u must be in [0, 1), got {u!r}")
        return bisect.bisect_right(self.cdf, u)

    def sample(self, rng: random.Random) -> int:
        """Draw one rank from the RNG (one ``rng.random()`` consumed)."""
        return self.rank_of(rng.random())


def hot_key(rank: int, phase: int, shift: int, nkeys: int) -> int:
    """The key holding popularity ``rank`` during ``phase``.

    Phase 0 maps rank ``r`` to key ``r``; every later phase rotates the
    mapping by ``shift`` keys, so the hot set walks the key space and
    the rotation is exact at each barrier: ``hot_key(r, p+1) ==
    hot_key(r, p) + shift (mod nkeys)``.
    """
    return (rank + phase * shift) % nkeys


def phase_hot_keys(nkeys: int, phase: int, shift: int) -> list[int]:
    """Keys in popularity order (hottest first) for one phase."""
    return [hot_key(rank, phase, shift, nkeys) for rank in range(nkeys)]


def quiet_nodes(nnodes: int, phase: int, churn: float) -> set[int]:
    """The nodes whose workers go quiet in ``phase``.

    A rotating window of ``floor(churn * nnodes)`` node ids (capped at
    ``nnodes - 1`` so at least one node always serves traffic): phase
    ``p`` silences nodes ``p*count .. p*count+count-1 (mod nnodes)``.
    Deterministic and closed-form, so tests can predict churn exactly.
    """
    count = min(int(churn * nnodes), nnodes - 1)
    if count <= 0:
        return set()
    return {(phase * count + i) % nnodes for i in range(count)}


@dataclass(frozen=True)
class ServingSpec:
    """Declarative description of one serving episode.

    Compiles to a :class:`~repro.check.fuzz.ProgramSpec` via
    :func:`build_serving_program`; every field is plain data so the spec
    is picklable and JSON-friendly.  ``threads`` defaults to one worker
    per node; ``hot_shift`` defaults to a quarter of the key space.
    ``topology`` and ``release_fanout`` are run-level knobs (PROTOCOL.md
    §15) consumed by :mod:`repro.bench.serving`, not by the program
    expansion.
    """

    seed: int = 0
    nodes: int = 8
    threads: int | None = None
    keys: int = 48
    key_len: int = 4
    zipf_s: float = 0.99
    phases: int = 3
    requests_per_thread: int = 8
    read_fraction: float = 0.7
    hot_shift: int | None = None
    owned_fraction: float = 0.5
    arrival: str = "open"
    mean_gap_us: float = 50.0
    think_us: float = 20.0
    churn: float = 0.0
    policy: str = "AT"
    policy_params: dict = field(default_factory=dict)
    mechanism: str = "forwarding-pointer"
    lock_discipline: str = "fifo"
    topology: str | None = None
    release_fanout: int | None = None

    def __post_init__(self) -> None:
        # Malformed traffic is rejected here, with one line naming the
        # field and its value, rather than expanding to an empty or
        # silently thinned episode (or dying deep inside the expansion).
        for name in ("nodes", "keys", "key_len", "phases", "requests_per_thread"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        if self.threads is not None and self.threads < 1:
            raise ValueError(
                f"threads must be None or >= 1, got {self.threads!r}"
            )
        for name in ("read_fraction", "owned_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        for name in ("zipf_s", "mean_gap_us", "think_us"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value!r}"
                )
        if self.arrival not in ("open", "closed"):
            raise ValueError(
                f"arrival must be 'open' or 'closed', got {self.arrival!r}"
            )
        if not 0.0 <= self.churn < 1.0:
            raise ValueError(f"churn must be in [0, 1), got {self.churn!r}")
        if self.release_fanout is not None and self.release_fanout < 2:
            raise ValueError(
                f"release_fanout must be >= 2, got {self.release_fanout}"
            )

    @property
    def nthreads(self) -> int:
        """Worker thread count (defaults to one per node)."""
        return self.threads if self.threads is not None else self.nodes

    @property
    def shift(self) -> int:
        """Effective per-phase hot-set rotation (defaults to keys/4)."""
        if self.hot_shift is not None:
            return self.hot_shift
        return max(1, self.keys // 4)


def _request_ops(
    rng: random.Random, key_name: str, key_len: int, cls: str
) -> list[tuple]:
    """The op list of one request, in the fuzz module's op vocabulary."""
    idx = rng.randrange(key_len)
    if cls == "get":
        ops: list[tuple] = [("read", key_name, idx)]
        if rng.random() < 0.3:
            ops.append(("read", key_name, rng.randrange(key_len)))
        return ops
    # put: read-modify-write with an exactly-representable update
    r = rng.random()
    if r < 0.5:
        op = ("add", key_name, idx, float(rng.randint(-6, 6)))
    elif r < 0.8:
        op = ("set", key_name, idx, float(rng.randint(-16, 16)))
    else:
        op = ("scale", key_name, idx, rng.choice([0.5, 2.0, -1.0]),
              float(rng.randint(-4, 4)))
    return [op, ("read", key_name, idx)]


def _arrival_gap(rng: random.Random, spec: ServingSpec) -> float:
    """One inter-arrival think time in virtual microseconds.

    ``open`` draws from the exponential distribution (Poisson arrivals)
    via inverse transform of one uniform; ``closed`` is the constant
    think time of a closed-loop client.
    """
    if spec.arrival == "open":
        return -spec.mean_gap_us * math.log1p(-rng.random())
    return spec.think_us


def build_serving_program(spec: ServingSpec) -> ProgramSpec:
    """Compile a :class:`ServingSpec` into a runnable ProgramSpec.

    Deterministic: one ``random.Random(spec.seed)`` stream drives every
    draw (homes, initial data, request keys, classes, gaps), so equal
    specs produce byte-identical ``to_json()`` texts regardless of
    backend or host.
    """
    rng = random.Random(spec.seed)
    nthreads = spec.nthreads
    placement = [t % spec.nodes for t in range(nthreads)]

    objects = [
        ObjectSpec(
            name=f"key{i:03d}",
            length=spec.key_len,
            home=rng.randrange(spec.nodes),
            init=[float(rng.randint(0, 8)) for _ in range(spec.key_len)],
        )
        for i in range(spec.keys)
    ]
    nlocks = max(1, min(8, spec.keys // 2))
    lock_homes = [rng.randrange(spec.nodes) for _ in range(nlocks)]
    barrier_home = rng.randrange(spec.nodes)
    manager_node = rng.randrange(spec.nodes)

    sampler = ZipfSampler(spec.keys, spec.zipf_s)
    owned_count = min(spec.keys, int(round(spec.owned_fraction * spec.keys)))
    phases: list[list[list[SectionSpec]]] = []
    for phase in range(spec.phases):
        quiet = quiet_nodes(spec.nodes, phase, spec.churn)
        active = [t for t in range(nthreads) if placement[t] not in quiet]
        if not active:  # churn may never silence every worker
            active = list(range(nthreads))
        ranking = phase_hot_keys(spec.keys, phase, spec.shift)
        # The hottest keys are affinity-owned; ownership rotates with
        # the hot set, so a shift re-homes the hot traffic (the single
        # writer moves — exactly the pattern Eq-2 migration rewards).
        owner_of = {
            ranking[rank]: active[rank % len(active)]
            for rank in range(owned_count)
        }
        sections_by_tid: list[list[SectionSpec]] = [[] for _ in range(nthreads)]
        total = len(active) * spec.requests_per_thread
        for i in range(total):
            rank = sampler.sample(rng)
            key = ranking[rank]
            cls = "get" if rng.random() < spec.read_fraction else "put"
            tid = owner_of.get(key, active[i % len(active)])
            gap = _arrival_gap(rng, spec)
            obj = objects[key]
            ops = _request_ops(rng, obj.name, obj.length, cls)
            lock = None if key in owner_of else key % nlocks
            if gap > 0.0:
                sections_by_tid[tid].append(
                    SectionSpec(lock=None, ops=[], compute_us=gap)
                )
            sections_by_tid[tid].append(
                SectionSpec(lock=lock, ops=ops, request=cls)
            )
        phases.append(sections_by_tid)

    return ProgramSpec(
        seed=spec.seed,
        nnodes=spec.nodes,
        nthreads=nthreads,
        placement=placement,
        policy_name=spec.policy,
        policy_params=dict(spec.policy_params),
        mechanism_name=spec.mechanism,
        manager_node=manager_node,
        lock_discipline=spec.lock_discipline,
        objects=objects,
        lock_homes=lock_homes,
        barrier_home=barrier_home,
        phases=phases,
    )


def generate_serving_program(seed: int) -> ProgramSpec:
    """Fuzz one small serving-flavoured episode from an integer seed.

    The conformance harness's serving flavor
    (``generate_program(seed, flavor="serving")``): a compact cluster
    (2–5 nodes) with randomly drawn traffic knobs, policy and mechanism,
    small enough for the oracle yet covering churn, both arrival modes
    and every policy family.  Deterministic per seed.
    """
    rng = random.Random(seed)
    nodes = rng.randint(2, 5)
    policy_name, policy_params = _draw_policy(rng)
    spec = ServingSpec(
        seed=seed,
        nodes=nodes,
        keys=rng.randint(3, 8),
        key_len=rng.randint(1, 4),
        zipf_s=rng.choice([0.6, 0.99, 1.2]),
        phases=rng.randint(1, 3),
        requests_per_thread=rng.randint(2, 5),
        read_fraction=rng.choice([0.5, 0.7, 0.9]),
        owned_fraction=rng.choice([0.25, 0.5, 0.75]),
        arrival=rng.choice(["open", "closed"]),
        mean_gap_us=rng.choice([20.0, 50.0]),
        think_us=rng.choice([0.0, 20.0]),
        churn=rng.choice([0.0, 0.0, 0.25]),
        policy=policy_name,
        policy_params=policy_params,
        mechanism=rng.choice(
            ["forwarding-pointer", "broadcast", "home-manager"]
        ),
        lock_discipline=rng.choice(["fifo", "retry"]),
    )
    return build_serving_program(spec)
