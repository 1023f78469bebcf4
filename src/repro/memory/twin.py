"""Twin creation.

A *twin* is the pristine copy of an object snapshot taken immediately
before the first write in a synchronization interval (TreadMarks' write
trapping).  The diff at release is ``current - twin``; see
:mod:`repro.memory.diff`.  Twins are never exposed to application code:
created at the first write of an interval, dropped once the diff is
computed at release.
"""

from __future__ import annotations

import numpy as np


def make_twin(payload: np.ndarray) -> np.ndarray:
    """Snapshot ``payload`` into an independent twin copy."""
    if payload.ndim != 1:
        raise ValueError(f"payloads are 1-D arrays, got ndim={payload.ndim}")
    return payload.copy()
