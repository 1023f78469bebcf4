"""Object heap: allocation of shared coherence units.

The heap allocates object ids and remembers every descriptor, plus the
*initial* home assignment of each object (the well-known mapping the paper
assumes: "all units are initially assigned a home node", §3.2).  Current
home locations are protocol state and live in the DSM layer, not here.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.memory.objects import ArraySpec, FieldsSpec, SharedObject


class ObjectHeap:
    """Allocator and registry of :class:`~repro.memory.objects.SharedObject`."""

    def __init__(self) -> None:
        self._objects: dict[int, SharedObject] = {}
        #: oid -> initial home: the well-known mapping (read it, never
        #: write it; the protocol's hot paths index it directly).
        self.initial_homes: dict[int, int] = {}
        #: Initial payload images (used by the homeless protocol, whose
        #: nodes all start from identical images, and by verification).
        self.initial_values: dict[int, "object"] = {}
        self._next_oid = 1

    def alloc_array(
        self,
        length: int,
        dtype: str = "float64",
        home: int = 0,
        label: str = "",
        meta: Mapping | None = None,
    ) -> SharedObject:
        """Allocate an array object whose initial home is ``home``."""
        return self._alloc(ArraySpec(length, dtype), home, label, meta)

    def alloc_fields(
        self,
        fields: tuple[str, ...] | list[str],
        dtype: str = "float64",
        home: int = 0,
        label: str = "",
        meta: Mapping | None = None,
    ) -> SharedObject:
        """Allocate a named-fields object whose initial home is ``home``."""
        return self._alloc(FieldsSpec(tuple(fields), dtype), home, label, meta)

    def _alloc(
        self,
        spec: ArraySpec | FieldsSpec,
        home: int,
        label: str,
        meta: Mapping | None,
    ) -> SharedObject:
        if home < 0:
            raise ValueError(f"initial home must be non-negative, got {home}")
        obj = SharedObject(oid=self._next_oid, spec=spec, label=label, meta=meta)
        self._next_oid += 1
        self._objects[obj.oid] = obj
        self.initial_homes[obj.oid] = home
        return obj

    def get(self, oid: int) -> SharedObject:
        """Descriptor for ``oid``; KeyError for unknown ids."""
        return self._objects[oid]

    def initial_home(self, oid: int) -> int:
        """The well-known initial home node of ``oid``."""
        return self.initial_homes[oid]

    def total_data_bytes(self) -> int:
        """Sum of every allocated object's payload data bytes.

        The denominator for memory-footprint reporting: one full replica
        set of the heap costs exactly this much payload storage, so
        arena/GC telemetry can express live cache bytes as a multiple of
        the heap's data size.
        """
        return sum(obj.spec.data_bytes for obj in self._objects.values())

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[SharedObject]:
        return iter(self._objects.values())

    def __contains__(self, oid: int) -> bool:
        return oid in self._objects
