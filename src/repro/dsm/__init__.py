"""Home-based LRC object DSM (the paper's GOS protocol substrate).

Each cluster node runs one :class:`~repro.dsm.protocol.DsmEngine`, which
implements:

* per-node object **caches** with invalid/read/write access states and
  twin creation on the first write of an interval (:mod:`repro.dsm.cache`);
* the **home side** — the always-valid home copy, its version counter, and
  the access monitor feeding the migration policy (:mod:`repro.dsm.home`);
* **object fault-in** (:mod:`repro.dsm.faultin`), **diff propagation**
  with version-carrying acks (:mod:`repro.dsm.interval`), and **home
  migration** (:mod:`repro.dsm.migration`) with forwarding-pointer /
  broadcast / home-manager notification (:mod:`repro.dsm.redirection`),
  over the messages of :mod:`repro.dsm.wire`;
* distributed **locks** (:mod:`repro.dsm.locks`) and **barriers**
  (:mod:`repro.dsm.barrier`) that piggyback LRC write notices
  (:mod:`repro.dsm.sync`);
* a **homeless (TreadMarks-style) LRC** baseline for the paper's §1
  motivation (:mod:`repro.dsm.homeless`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".cache": ["AccessMode", "CacheEntry"],
    ".home": ["HomeEntry"],
    ".homeless": ["HomelessEngine"],
    ".protocol": ["DsmEngine"],
    ".redirection": [
        "BroadcastMechanism", "ForwardingPointerMechanism",
        "HomeManagerMechanism", "NotificationMechanism",
    ],
})
