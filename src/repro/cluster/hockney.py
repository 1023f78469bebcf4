"""Hockney point-to-point communication model.

Hockney [8] characterises point-to-point communication time (microseconds)
as a linear function of message length ``m`` (bytes)::

    t(m) = t0 + m / r_inf

where ``t0`` is the start-up time (us) and ``r_inf`` the asymptotic
bandwidth (MB/s).  Note 1 MB/s == 1 byte/us, so ``r_inf`` is used directly
as bytes-per-microsecond.

The *half-peak length* ``m_half = t0 * r_inf`` is the message length at
which half the asymptotic bandwidth is achieved; the paper's home access
coefficient (Appendix A, reimplemented in :mod:`repro.core.coefficient`)
is expressed in terms of it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HockneyModel:
    """Linear latency/bandwidth model for one point-to-point message.

    Parameters
    ----------
    startup_us:
        ``t0`` — per-message start-up time in microseconds.
    bandwidth_mb_s:
        ``r_inf`` — asymptotic bandwidth in MB/s (== bytes/us).
    name:
        Human-readable label used in reports.
    """

    startup_us: float
    bandwidth_mb_s: float
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.startup_us <= 0:
            raise ValueError(f"startup_us must be positive, got {self.startup_us}")
        if self.bandwidth_mb_s <= 0:
            raise ValueError(
                f"bandwidth_mb_s must be positive, got {self.bandwidth_mb_s}"
            )

    def latency_us(self, nbytes: float) -> float:
        """``t(m) = t0 + m / r_inf`` for an ``nbytes``-byte message."""
        if nbytes < 0:
            raise ValueError(f"message size must be non-negative, got {nbytes}")
        return self.startup_us + nbytes / self.bandwidth_mb_s

    def transfer_us(self, nbytes: float) -> float:
        """Wire-occupancy component only: ``m / r_inf``."""
        if nbytes < 0:
            raise ValueError(f"message size must be non-negative, got {nbytes}")
        return nbytes / self.bandwidth_mb_s

    @property
    def half_peak_bytes(self) -> float:
        """``m_half = t0 * r_inf`` — the half-peak message length in bytes."""
        return self.startup_us * self.bandwidth_mb_s

    def bandwidth_at(self, nbytes: float) -> float:
        """Effective bandwidth (MB/s) achieved by an ``nbytes`` message."""
        if nbytes <= 0:
            return 0.0
        return nbytes / self.latency_us(nbytes)


#: Fast Ethernet with a 2004-era TCP stack — the paper's testbed
#: (2 GHz P4 cluster, Foundry Fast-Ethernet switch).  t0 ~ 100 us and
#: r_inf ~ 11.5 MB/s give m_half ~ 1150 bytes, consistent with measured
#: half-peak lengths for 100 Mb/s TCP of the period.
FAST_ETHERNET = HockneyModel(startup_us=100.0, bandwidth_mb_s=11.5, name="fast-ethernet")

#: Gigabit Ethernet with a tuned stack (for sensitivity studies).
GIGABIT = HockneyModel(startup_us=30.0, bandwidth_mb_s=110.0, name="gigabit")

#: Myrinet/GM-class user-level network (for sensitivity studies).
MYRINET = HockneyModel(startup_us=8.0, bandwidth_mb_s=240.0, name="myrinet")

#: Communication models by report name (used by picklable run specs,
#: which cannot carry the module-level singletons by identity).
COMM_MODELS: dict[str, HockneyModel] = {
    model.name: model for model in (FAST_ETHERNET, GIGABIT, MYRINET)
}


def make_comm_model(name: str) -> HockneyModel:
    """Look up a communication model from its report name."""
    try:
        return COMM_MODELS[name]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown comm model {name!r}; choose from {sorted(COMM_MODELS)}"
        ) from None
