"""Package exports resolved on first access (PEP 562).

A package ``__init__`` names the module that defines each of its public
names; that module is imported when the name is first read, so importing
one submodule never pulls in its siblings::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".asp": ["Asp"],
        "repro.core.policies": ["POLICIES", "make_policy"],
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, modules: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, whose public
    names ``modules`` lists under the module defining them (relative to
    ``package`` when it starts with a dot).  A name is imported on first
    access and then cached in the package namespace; any other name is
    tried as a submodule, so ``repro.sim`` works without an import."""
    home = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name in home:
            value = getattr(importlib.import_module(home[name], package), name)
            setattr(sys.modules[package], name, value)
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *home})

    return list(home), __getattr__, __dir__
