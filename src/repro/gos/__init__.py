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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".distribution": ["round_robin_homes"],
    ".jvm": ["ClusterSpec", "DistributedJVM", "RunResult"],
    ".space": ["GlobalObjectSpace"],
    ".thread": ["ThreadContext"],
})
