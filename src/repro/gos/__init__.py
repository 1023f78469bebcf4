"""Global Object Space: the distributed-JVM-facing layer.

The GOS "virtualizes a single Java object heap spanning the entire
cluster" (§1).  This package provides:

* :class:`~repro.gos.space.GlobalObjectSpace` — object/lock/barrier
  allocation with the paper's home assignment defaults (creation node is
  the default home; large array collections are distributed round-robin);
* :class:`~repro.gos.thread.ThreadContext` — the API simulated Java
  threads program against (object read/write, field access, synchronized
  sections, barriers, compute charging);
* :class:`~repro.gos.jvm.ClusterSpec` — the one description of a
  simulated machine, every setting checked at construction;
* :class:`~repro.gos.jvm.DistributedJVM` — one-call construction of the
  whole simulated machine and execution of a DSM application.
"""

from repro.gos.distribution import round_robin_homes
from repro.gos.jvm import ClusterSpec, DistributedJVM, RunResult
from repro.gos.space import GlobalObjectSpace
from repro.gos.thread import ThreadContext

__all__ = [
    "ClusterSpec",
    "DistributedJVM",
    "GlobalObjectSpace",
    "RunResult",
    "ThreadContext",
    "round_robin_homes",
]
