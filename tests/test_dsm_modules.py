"""The protocol package stays readable: no ``repro.dsm`` module grows
past the size a reader can hold, so each part of the paper keeps its
own module (DESIGN.md §3, "where the paper lives"), and each protocol
step has one home across both engines (DESIGN.md §6 rule 15)."""

from pathlib import Path

import pytest

import repro.dsm

MAX_MODULE_LINES = 700


def test_dsm_modules_stay_small():
    package = Path(repro.dsm.__file__).parent
    sizes = {
        path.name: len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(package.glob("*.py"))
    }
    too_big = {name: n for name, n in sizes.items() if n > MAX_MODULE_LINES}
    assert not too_big, f"split these modules along the paper's seams: {too_big}"


#: The manager side of locks and barriers (repro.dsm.sync.SyncManager).
MANAGER_HANDLERS = (
    "_handle_lock_acquire",
    "_manager_release",
    "register_barrier",
    "_manager_barrier_arrive",
    "_on_barrier_release",
)


def test_both_engines_share_one_lock_and_barrier_manager():
    """One protocol step, one code path, across engines too: a copy of a
    manager handler in either engine fails here."""
    from repro.dsm.homeless import HomelessEngine
    from repro.dsm.protocol import DsmEngine

    for name in MANAGER_HANDLERS:
        assert getattr(DsmEngine, name) is getattr(HomelessEngine, name), name


def test_homeless_register_barrier_on_wrong_node_names_everything():
    from repro.cluster.hockney import FAST_ETHERNET
    from repro.dsm.barrier import BarrierHandle
    from repro.gos.homeless import HomelessObjectSpace

    gos = HomelessObjectSpace(3, FAST_ETHERNET)
    with pytest.raises(ValueError, match="barrier 7 homed at 2, not 1"):
        gos.engines[1].register_barrier(
            BarrierHandle(barrier_id=7, home=2, parties=3)
        )
