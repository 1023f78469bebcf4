"""Per-seam knockout parity: each Python twin among compiled seams.

``repro._kernel.SEAMS`` names one implementation of every hot seam.
Here each seam in turn is swapped for its Python twin while the others
stay compiled — with the pairs the table forces (a Python ``Engine``
takes the Python ``NetFabric``, a Python ``LocalAccess`` the Python
``Accessor``) — and the ``determinism``, ``serving_parity`` and
``homeless`` pins of ``tests/test_pins.py`` must still hold.  So a twin
cannot drift from its C object unseen behind a seam the whole-backend
runs never mix.  The ``homeless`` pin is the one whose threads take the
table's ``Ready``: a home-based thread over the C ``LocalAccess`` runs
the C ``Accessor``, which makes its own.

Runs on the compiled leg; skips where the extension is unavailable.
"""

import pytest

from repro import _kernel
from tests.test_pins import PINS

#: Seam knocked out -> every seam the table then takes from the twins.
KNOCKOUTS = {
    "Engine": {"Engine", "NetFabric"},
    "NetFabric": {"NetFabric"},
    "LocalAccess": {"LocalAccess", "Accessor"},
    "Accessor": {"Accessor"},
    "Ready": {"Ready"},
    "Future": {"Future"},
    "route_reply": {"route_reply"},
    "diff_arrays": {"diff_arrays"},
}


@pytest.fixture(scope="module")
def km():
    module = _kernel.kernel()
    if module is None:
        pytest.skip(
            f"compiled backend unavailable: {_kernel.backend_info()['reason']}"
        )
    return module


def test_every_seam_is_knocked_out():
    assert set(KNOCKOUTS) == set(_kernel.Seams._fields)


@pytest.mark.parametrize("seam", KNOCKOUTS)
def test_knocked_out_seam_holds_the_pins(km, seam, monkeypatch):
    table = _kernel.seam_table(km, {seam})
    compiled = _kernel.seam_table(km)
    twins = _kernel.seam_table(None)
    swapped = {
        name for name in _kernel.Seams._fields
        if getattr(table, name) is getattr(twins, name)
    }
    assert swapped == KNOCKOUTS[seam]
    assert all(
        getattr(table, name) is getattr(compiled, name)
        for name in _kernel.Seams._fields
        if name not in swapped
    )
    monkeypatch.setattr(_kernel, "SEAMS", table)
    for pin in ("determinism", "serving_parity", "homeless"):
        produce, expected = PINS[pin]
        assert produce() == expected, f"pin {pin} drifted with {seam} in Python"
