"""Docstring coverage lint: every public callable ships documentation."""

import importlib
import inspect
import pkgutil

import repro

EXEMPT_NAMES = frozenset({"main"})  # CLI entry points are documented in-module


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # executing `python -m` shims on import is not useful
        yield importlib.import_module(info.name)


def test_every_module_has_a_docstring():
    missing = [m.__name__ for m in _walk_modules() if not m.__doc__]
    assert not missing, f"modules without docstrings: {missing}"


def test_every_public_class_and_function_documented():
    missing = []
    for module in _walk_modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or name in EXEMPT_NAMES:
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export; documented at its home
            if not inspect.getdoc(obj):
                missing.append(f"{module.__name__}.{name}")
    assert not missing, f"undocumented public items: {sorted(set(missing))}"


def test_public_methods_documented_on_key_classes():
    from repro.core.policies import MigrationPolicy
    from repro.dsm.protocol import DsmEngine
    from repro.gos.thread import ThreadContext

    missing = []
    # DsmEngine's public methods live on its mixins
    for cls in (*DsmEngine.__mro__[:-1], ThreadContext, MigrationPolicy):
        for name, member in vars(cls).items():
            if name.startswith("_") or not inspect.isfunction(member):
                continue
            if not inspect.getdoc(member):
                missing.append(f"{cls.__name__}.{name}")
    assert not missing, f"undocumented methods: {missing}"