"""Memory substrate: shared objects, twins, diffs, and write notices.

The coherence unit is the *object* (the paper's GOS choice, matching the
Java memory model): either an array object (numpy-backed) or a small
fields object (named scalar slots, also numpy-backed so that twin/diff
machinery is uniform).

Twins and diffs follow TreadMarks/HLRC: a writer snapshots a twin before
its first write in a synchronization interval; at release the diff —
the set of changed elements, run-length encoded for sizing — is shipped
to the home and applied there.
"""

from repro.memory.diff import Diff, apply_diff, compute_diff, diff_size_bytes
from repro.memory.heap import ObjectHeap
from repro.memory.objects import FieldsSpec, ArraySpec, SharedObject
from repro.memory.twin import make_twin
from repro.memory.version import WriteNotice

__all__ = [
    "ArraySpec",
    "Diff",
    "FieldsSpec",
    "ObjectHeap",
    "SharedObject",
    "WriteNotice",
    "apply_diff",
    "compute_diff",
    "diff_size_bytes",
    "make_twin",
]
