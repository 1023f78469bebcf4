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

#: The compiled kernel module, or ``None``: resolved once at import and
#: re-pointed by :func:`repro._kernel.select_backend`, never per call.
_kernel_module = _kernel.kernel()


def _rebind_kernel() -> None:
    """Re-resolve the kernel (called by ``select_backend``)."""
    global _kernel_module
    _kernel_module = _kernel.kernel()


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


@dataclass(frozen=True, slots=True)
class Diff:
    """An encoded update set for one object.

    ``indices`` are sorted element positions; ``values`` the new contents.
    ``size_bytes`` is the run-length-encoded wire size.
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


def compute_diff(
    oid: int,
    twin: np.ndarray,
    current: np.ndarray,
    scratch: np.ndarray | None = None,
) -> Diff | None:
    """Diff ``current`` against ``twin``; ``None`` when nothing changed.

    Comparison is exact bit-for-bit (``!=`` on the arrays); NaNs compare
    unequal to themselves, which conservatively treats a written NaN as a
    change — acceptable since our applications never store NaN.

    ``scratch`` (a bool buffer of at least ``current.size`` elements,
    typically :meth:`~repro.memory.arena.Arena.bool_scratch`) receives
    the element-wise comparison in place of a fresh temporary; its
    contents afterwards are unspecified.
    """
    if twin.shape != current.shape or twin.dtype != current.dtype:
        raise ValueError(
            f"twin/current layout mismatch for oid {oid}: "
            f"{twin.dtype}{twin.shape} vs {current.dtype}{current.shape}"
        )
    # Compiled fast path: one C scan produces indices, values and the run
    # count together.  Restricted to exact ndarray operands so subclasses
    # keep their comparison-operator semantics (and the single-comparison
    # contract below stays observable); the kernel returns NotImplemented
    # for layouts/dtypes it does not handle, which fall through to the
    # numpy path.
    kernel_module = _kernel_module
    if (
        kernel_module is not None
        and type(twin) is np.ndarray
        and type(current) is np.ndarray
    ):
        scan = kernel_module.diff_arrays(current, twin)
        if scan is None:
            return None
        if scan is not NotImplemented:
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
    # Single scan: one element-wise comparison feeds the cheap exit, the
    # index extraction, and (via ``_runs``) the wire-size computation.
    # Most sync intervals leave most twins untouched, so the ``not
    # neq.any()`` exit fires far more often than the materialisation.
    if scratch is not None and scratch.size >= current.size:
        neq = np.not_equal(current, twin, out=scratch[: current.size])
    else:
        neq = current != twin
    if not neq.any():
        return None
    changed = np.flatnonzero(neq)
    values = current[changed]  # fancy indexing already copies
    return Diff(
        oid=oid,
        indices=changed,
        values=values,
        size_bytes=diff_size_bytes(changed, current.dtype.itemsize),
    )


def apply_diff(payload: np.ndarray, diff: Diff) -> None:
    """Apply ``diff`` in place to ``payload``."""
    if diff.indices.size and int(diff.indices[-1]) >= payload.size:
        raise IndexError(
            f"diff for oid {diff.oid} touches index {int(diff.indices[-1])} "
            f"outside payload of size {payload.size}"
        )
    payload[diff.indices] = diff.values
