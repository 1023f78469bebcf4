"""Diff computation, encoding size, and application.

A diff is the set of elements that changed between a twin and the current
copy of an object.  We carry real indices and values (so homes apply real
updates and application results stay verifiable) and charge a run-length
encoded wire size: changed elements group into maximal runs of consecutive
indices; each run costs ``RUN_HEADER_BYTES`` (offset + length) plus its
payload bytes, on top of a fixed ``DIFF_HEADER_BYTES`` per diff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import _kernel

#: Per-diff fixed overhead: object id, base version, run count.
DIFF_HEADER_BYTES = 16
#: Per-run overhead: 4-byte offset + 4-byte length.
RUN_HEADER_BYTES = 8

def _runs(indices: np.ndarray) -> int:
    """Number of maximal runs of consecutive indices (indices sorted)."""
    n = int(indices.size)
    if n == 0:
        return 0
    # Contiguous-block fast path: dense writes (SOR row sweeps, LU panel
    # updates) change one solid span, recognisable from the endpoints
    # alone — no per-element gap scan needed.
    if int(indices[-1]) - int(indices[0]) + 1 == n:
        return 1
    # Direct subtraction instead of np.diff: same gap vector without the
    # generic wrapper's axis/prepend handling, which shows up at this
    # call rate.
    return 1 + int(np.count_nonzero(indices[1:] - indices[:-1] != 1))


def diff_size_bytes(indices: np.ndarray, itemsize: int) -> int:
    """Encoded wire size of a diff over ``indices`` with ``itemsize`` data."""
    if indices.size == 0:
        return 0
    return (
        DIFF_HEADER_BYTES
        + _runs(indices) * RUN_HEADER_BYTES
        + int(indices.size) * itemsize
    )


@dataclass(slots=True)
class Diff:
    """An encoded update set for one object.

    ``indices`` are sorted element positions; ``values`` the new contents.
    ``size_bytes`` is the run-length-encoded wire size.  A plain record
    like every wire payload: receivers only read it (``dsm/wire.py``).
    """

    oid: int
    indices: np.ndarray
    values: np.ndarray
    size_bytes: int

    @property
    def nchanged(self) -> int:
        return int(self.indices.size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Diff oid={self.oid} changed={self.nchanged} {self.size_bytes}B>"


def diff_arrays(
    current: np.ndarray, twin: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int] | None:
    """The scan of :func:`compute_diff` (pure-Python twin of the kernel's
    ``diff_arrays``): ``None`` when the arrays are equal, else the
    changed indices, their values and the run count.

    One element-wise comparison feeds the cheap exit, the index
    extraction and the run count.  Most sync intervals leave most twins
    untouched, so the ``not neq.any()`` exit fires far more often than
    the materialisation.
    """
    neq = current != twin
    if not neq.any():
        return None
    changed = np.flatnonzero(neq)
    return changed, current[changed], _runs(changed)  # fancy indexing copies


def compute_diff(oid: int, twin: np.ndarray, current: np.ndarray) -> Diff | None:
    """Diff ``current`` against ``twin``; ``None`` when nothing changed.

    Comparison is exact bit-for-bit (``!=`` on the arrays); NaNs compare
    unequal to themselves, which conservatively treats a written NaN as a
    change — acceptable since our applications never store NaN.
    """
    if twin.shape != current.shape or twin.dtype != current.dtype:
        raise ValueError(
            f"twin/current layout mismatch for oid {oid}: "
            f"{twin.dtype}{twin.shape} vs {current.dtype}{current.shape}"
        )
    # The seam table's scan.  Only exact ndarray operands go to it, so
    # subclasses keep their comparison-operator semantics (and the
    # single-comparison contract stays observable); the kernel's scan
    # returns NotImplemented for layouts and dtypes it does not handle,
    # which take this module's.
    scan = NotImplemented
    if type(twin) is np.ndarray and type(current) is np.ndarray:
        scan = _kernel.SEAMS.diff_arrays(current, twin)
    if scan is NotImplemented:
        scan = diff_arrays(current, twin)
    if scan is None:
        return None
    indices, values, nruns = scan
    return Diff(
        oid=oid,
        indices=indices,
        values=values,
        size_bytes=(
            DIFF_HEADER_BYTES
            + nruns * RUN_HEADER_BYTES
            + int(indices.size) * current.dtype.itemsize
        ),
    )


def apply_diff(payload: np.ndarray, diff: Diff) -> None:
    """Apply ``diff`` in place to ``payload``."""
    if diff.indices.size and int(diff.indices[-1]) >= payload.size:
        raise IndexError(
            f"diff for oid {diff.oid} touches index {int(diff.indices[-1])} "
            f"outside payload of size {payload.size}"
        )
    payload[diff.indices] = diff.values
