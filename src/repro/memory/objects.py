"""Shared coherence units: array objects and fields objects.

A :class:`SharedObject` is the *descriptor* of one coherence unit — its
identity, layout and Java-like size model.  Payloads (the actual bytes)
live in replicas managed by the DSM layer; every payload is a 1-D numpy
array so twin/diff machinery is uniform and fast.

Size model (Java-flavoured, matching the paper's object-granularity DSM):
every object pays :data:`OBJECT_HEADER_BYTES` of header; array objects add
``length * itemsize``; fields objects add one slot per field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

#: JVM-like per-object header (mark word, class pointer, array length).
OBJECT_HEADER_BYTES = 16


@dataclass(frozen=True)
class ArraySpec:
    """Layout of an array object: ``length`` elements of ``dtype``."""

    length: int
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"array length must be positive, got {self.length}")
        np.dtype(self.dtype)  # validates

    # Layout sizes are cached on first access (specs are frozen, so the
    # values can never change): size lookups sit on the per-message hot
    # path, and ``np.dtype(...)`` per call is measurable there.
    @cached_property
    def itemsize(self) -> int:
        return np.dtype(self.dtype).itemsize

    def new_payload(self) -> np.ndarray:
        return np.zeros(self.length, dtype=self.dtype)

    @cached_property
    def data_bytes(self) -> int:
        return self.length * self.itemsize


@dataclass(frozen=True)
class FieldsSpec:
    """Layout of a plain object with named scalar fields.

    Fields map to slots of a small 1-D array; :meth:`slot` translates a
    field name to its index.
    """

    fields: tuple[str, ...]
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if not self.fields:
            raise ValueError("fields object needs at least one field")
        if len(set(self.fields)) != len(self.fields):
            raise ValueError(f"duplicate field names in {self.fields}")
        np.dtype(self.dtype)

    @cached_property
    def itemsize(self) -> int:
        return np.dtype(self.dtype).itemsize

    def slot(self, name: str) -> int:
        try:
            return self.fields.index(name)
        except ValueError:
            raise KeyError(f"object has no field {name!r}") from None

    def new_payload(self) -> np.ndarray:
        return np.zeros(len(self.fields), dtype=self.dtype)

    @cached_property
    def data_bytes(self) -> int:
        return len(self.fields) * self.itemsize


@dataclass(frozen=True)
class SharedObject:
    """Descriptor of one shared coherence unit.

    Instances are immutable and hashable; they are what application code
    passes to the :class:`~repro.gos.thread.ThreadContext` access methods.
    """

    oid: int
    spec: ArraySpec | FieldsSpec
    label: str = ""
    #: Extra metadata slot for applications (e.g. row index), not sized.
    meta: Mapping | None = field(default=None, compare=False, hash=False)

    @cached_property
    def size_bytes(self) -> int:
        """Wire size of a full object image (header + data)."""
        return OBJECT_HEADER_BYTES + self.spec.data_bytes

    @cached_property
    def itemsize(self) -> int:
        return self.spec.itemsize

    def new_payload(self) -> np.ndarray:
        """A fresh zeroed payload with this object's layout."""
        return self.spec.new_payload()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = self.label or type(self.spec).__name__
        return f"<SharedObject #{self.oid} {tag} {self.size_bytes}B>"
