"""The protocol package stays readable: no ``repro.dsm`` module grows
past the size a reader can hold, so each part of the paper keeps its
own module (DESIGN.md §3, "where the paper lives")."""

from pathlib import Path

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
