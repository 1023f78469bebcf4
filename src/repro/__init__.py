"""Reproduction of "A Novel Adaptive Home Migration Protocol in Home-based DSM".

Fang, Wang, Zhu, Lau — IEEE CLUSTER 2004.

This package implements, from scratch and on top of a deterministic
discrete-event cluster simulator:

* a home-based lazy-release-consistency (HLRC) object DSM modelled on the
  Global Object Space (GOS) of the authors' distributed JVM, with twins,
  diffs, write notices, distributed locks and barriers
  (:mod:`repro.dsm`, :mod:`repro.memory`);
* the paper's contribution — the **adaptive-threshold home migration
  protocol** — together with the fixed-threshold protocol of the authors'
  earlier work and the related-work baselines (JUMP migrating-home, Jackal
  lazy flushing, JiaJia barrier migration) (:mod:`repro.core`);
* the four evaluation applications (ASP, SOR, Barnes–Hut N-body, TSP) and
  the synthetic single-writer benchmark of Figure 4 (:mod:`repro.apps`);
* a benchmark harness that regenerates Figures 2, 3 and 5 of the paper
  (:mod:`repro.bench`).

Quickstart::

    from repro import ClusterSpec, DistributedJVM
    from repro.apps import Sor

    jvm = DistributedJVM(ClusterSpec(nodes=8, policy="AT"))
    result = jvm.run(Sor(size=256, iterations=10))
    print(result.execution_time_us, result.stats.events["migration"])
"""

# Resolving the backend here makes a bad REPRO_BACKEND fail at
# ``import repro``; every other name loads on first access.
from repro import _kernel  # noqa: F401
from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".cluster.hockney": ["FAST_ETHERNET", "GIGABIT", "HockneyModel"],
    ".core.policies": [
        "AdaptiveThreshold", "BarrierMigration", "FixedThreshold",
        "LazyFlushing", "MigratingHome", "MigrationPolicy", "NoMigration",
    ],
    ".dsm.redirection": [
        "BroadcastMechanism", "ForwardingPointerMechanism",
        "HomeManagerMechanism", "NotificationMechanism",
    ],
    ".gos.jvm": ["ClusterSpec", "DistributedJVM", "RunResult"],
    ".trace.recorder": ["TraceRecorder"],
})
__all__.append("__version__")
