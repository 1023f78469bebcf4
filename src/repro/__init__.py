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

from repro.cluster.hockney import FAST_ETHERNET, GIGABIT, HockneyModel
from repro.core.policies import (
    AdaptiveThreshold,
    BarrierMigration,
    FixedThreshold,
    LazyFlushing,
    MigratingHome,
    MigrationPolicy,
    NoMigration,
)
from repro.dsm.redirection import (
    BroadcastMechanism,
    ForwardingPointerMechanism,
    HomeManagerMechanism,
    NotificationMechanism,
)
from repro.gos.jvm import ClusterSpec, DistributedJVM, RunResult
from repro.trace import TraceRecorder

__version__ = "1.0.0"

__all__ = [
    "AdaptiveThreshold",
    "BarrierMigration",
    "BroadcastMechanism",
    "ClusterSpec",
    "DistributedJVM",
    "FAST_ETHERNET",
    "FixedThreshold",
    "ForwardingPointerMechanism",
    "GIGABIT",
    "HockneyModel",
    "HomeManagerMechanism",
    "LazyFlushing",
    "MigratingHome",
    "MigrationPolicy",
    "NoMigration",
    "NotificationMechanism",
    "RunResult",
    "TraceRecorder",
    "__version__",
]
