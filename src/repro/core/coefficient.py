"""The home access coefficient ``alpha`` (paper §4.1 and Appendix A).

``alpha`` is "the overhead ratio of one eliminated pair of object fault-in
and diff propagation to one home redirection", considering communication
overhead only, under the Hockney model ``t(m) = t0 + m/r_inf`` with
half-peak length ``m_half = t0 * r_inf``.

One eliminated pair costs: the fault-in request (a unit-sized message,
``t(1)``), the object reply (``t(o)`` for an ``o``-byte object) and the diff
propagation (``t(d)`` for a ``d``-byte diff).  One home redirection costs a
round trip of unit-sized messages, ``2 t(1)``.  Expressing ``t`` through
``m_half`` (``t(m) = (m_half + m)/r_inf``)::

    alpha = (t(1) + t(o) + t(d)) / (2 t(1))
          = (3 m_half + 1 + o + d) / (2 (m_half + 1))
          ~ 3/2 + (o + d) / (2 m_half)        for m_half >> 1

The appendix of the available scan is partially garbled; this derivation is
reconstructed from its stated premises (``m_half >> 1``, ``o > d``) and is
unit-tested against the exact ratio of Hockney times.
"""

from __future__ import annotations


def home_access_coefficient(
    object_bytes: float,
    diff_bytes: float,
    half_peak_bytes: float,
) -> float:
    """Exact ``alpha`` for an object of ``object_bytes`` and typical diff
    of ``diff_bytes`` on a network with half-peak length ``half_peak_bytes``.

    Always > 1/2; for any real network (``m_half >= 1``) it is >= ~3/2,
    i.e. one eliminated fault-in/diff pair is always worth more than one
    redirection — which is why migration pays off at all.
    """
    if object_bytes <= 0:
        raise ValueError(f"object size must be positive, got {object_bytes}")
    if diff_bytes < 0:
        raise ValueError(f"diff size must be non-negative, got {diff_bytes}")
    if half_peak_bytes <= 0:
        raise ValueError(
            f"half-peak length must be positive, got {half_peak_bytes}"
        )
    return (3 * half_peak_bytes + 1 + object_bytes + diff_bytes) / (
        2 * (half_peak_bytes + 1)
    )
