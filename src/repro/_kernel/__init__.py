"""Compiled-kernel backend selection for the repro package.

The hot kernels of the reproduction (event-heap drain, network send and
delivery, the local-hit access paths, ``compute_diff``) have a compiled
C implementation in ``_kernelc.c``.  This module owns building, loading
and selecting it, and it alone decides what runs:

* ``SEAMS`` is the one read-only table of the hot seams
  (:class:`Seams`): under the compiled backend each entry is the C
  object, else its Python twin of the same constructor and call shape.
  Consumers read ``_kernel.SEAMS`` when they are built
  (``compute_diff`` on each call); none holds the extension module.
* ``kernel()`` returns the loaded extension module, or ``None`` when the
  pure-Python backend is active.
* ``REPRO_BACKEND`` (``auto`` | ``python`` | ``compiled``) overrides
  autodetection, read when this module is first imported.  ``auto`` (the
  default) tries the compiled backend and falls back to pure Python with
  a one-line warning; ``python`` skips the build entirely; ``compiled``
  raises when the extension is unavailable.  Any other value raises
  :class:`ValueError`, exactly as ``select_backend()`` does.
* ``select_backend()`` re-resolves at runtime (used by the CLI
  ``--backend`` flag) and replaces the table.

The extension is compiled at first use with the toolchain recorded in
Python's sysconfig (override with ``REPRO_KERNEL_CC``), into
``_kernel/_build/`` keyed by a hash of the C source and the Python/numpy
versions, so stale caches can never be loaded.  A ``setup.py`` build
(``python setup.py build_ext --inplace``) that produced an importable
``repro._kernel._kernelc`` takes precedence.

Both backends, and any mix :func:`seam_table` builds, are bit-identical
by contract: the virtual-time pins, the conformance oracle and the
backend-parity test suite all pass unchanged whichever is active.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.machinery
import importlib.util
import os
import sys
import warnings
from pathlib import Path
from typing import Any, Callable, NamedTuple

__all__ = [
    "SEAMS",
    "Seams",
    "backend_info",
    "backend_name",
    "build_hash",
    "build_log_path",
    "kernel",
    "seam_table",
    "select_backend",
]

_SOURCE = Path(__file__).with_name("_kernelc.c")

#: Resolution state: ``module`` is the loaded extension (or None), ``name``
#: the active backend, ``reason`` why that backend was chosen.
_state: dict[str, Any] = {"resolved": False, "module": None,
                          "name": "python", "reason": "unresolved"}

#: Latch for the auto-mode fallback warning (once per process, even
#: across ``select_backend()`` re-resolutions).
_fallback_warned = False


def _build_dir() -> Path:
    """Directory for first-use builds; falls back to the user cache when
    the package directory is not writable (e.g. system installs)."""
    local = _SOURCE.parent / "_build"
    try:
        local.mkdir(exist_ok=True)
        probe = local / f".probe-{os.getpid()}"
        probe.touch()
        probe.unlink()
        return local
    except OSError:
        cache_root = Path(
            os.environ.get("XDG_CACHE_HOME", Path.home() / ".cache")
        )
        fallback = cache_root / "repro-kernel"
        fallback.mkdir(parents=True, exist_ok=True)
        return fallback


def _build_tag() -> str:
    """Cache key: C source bytes + interpreter + numpy versions."""
    import numpy

    digest = hashlib.sha256()
    digest.update(_SOURCE.read_bytes())
    digest.update(sys.version.encode())
    digest.update(numpy.__version__.encode())
    return digest.hexdigest()[:16]


def build_log_path() -> Path:
    """Where the most recent compiler invocation's log is written."""
    return _build_dir() / "build.log"


def _compiler_command(target: Path) -> list[str]:
    import shlex
    import sysconfig

    import numpy

    cc = (
        os.environ.get("REPRO_KERNEL_CC")
        or sysconfig.get_config_var("CC")
        or "cc"
    )
    cmd = shlex.split(cc)
    cmd += ["-O2", "-fPIC", "-fno-strict-aliasing", "-shared"]
    if sys.platform == "darwin":  # pragma: no cover - linux containers
        cmd[cmd.index("-shared")] = "-bundle"
        cmd += ["-undefined", "dynamic_lookup"]
    cmd += [
        "-I" + sysconfig.get_paths()["include"],
        "-I" + numpy.get_include(),
        str(_SOURCE),
        "-o",
        str(target),
    ]
    return cmd


def _compile_extension(target: Path) -> None:
    """Compile the C source to ``target`` atomically (temp file + rename,
    so concurrent first-use builds in worker processes cannot collide)."""
    import subprocess

    tmp = target.with_name(f"{target.name}.tmp-{os.getpid()}")
    cmd = _compiler_command(tmp)
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=600
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise RuntimeError(f"kernel compiler failed to run: {exc}") from exc
    log = build_log_path()
    try:
        log.write_text(
            f"$ {' '.join(cmd)}\n"
            f"exit {proc.returncode}\n"
            f"--- stdout ---\n{proc.stdout}\n"
            f"--- stderr ---\n{proc.stderr}\n"
        )
    except OSError:  # pragma: no cover - log is best-effort
        pass
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(
            f"kernel build failed (exit {proc.returncode}: {tail[0]}; "
            f"full log at {log})"
        )
    os.replace(tmp, target)


def _load_from_path(path: Path) -> Any:
    spec = importlib.util.spec_from_file_location(
        "repro._kernel._kernelc", path
    )
    if spec is None or spec.loader is None:
        raise RuntimeError(f"cannot load kernel extension at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules["repro._kernel._kernelc"] = module
    return module


# Oldest extension ABI this selection layer can drive.  Bumped when the
# Python side starts depending on new C symbols or a changed contract
# (level 6: set_topology takes tier vectors + class costs; level 7: the
# engine re-queues arrivals as DeliveryPort delivery events — an older
# build batches them and drifts events_processed from the Python
# backend; level 8: LocalAccess reads the engine's cache as a plain
# dict; level 9: LocalAccess no longer reads ``engine.arena`` and calls
# ``upgrade_to_write()`` with no argument; level 10: LocalAccess takes
# only the engine and the fast-write flag, and reads a cache entry's
# ``twin`` instead of its retired ``mode``; level 11: a DeliveryPort
# calls ``handler(owner, payload)`` from a shared table, ``route_reply``
# replaces the ReplyRouter type, the Accessor enters one miss generator
# ``_fault_in(for_write, oid)``, and LocalAccess's cold write calls the
# engine's ``_write_local``; level 12: LocalAccess traps no home read,
# and its home-write trap calls the engine's ``_trap_home_write``); an
# installed in-place build predating them must lose to a fresh first-use build rather than load
# and misbehave.  Dropping a symbol the Python side no longer calls
# needs no bump.
_MIN_KERNEL_API = 12


class Seams(NamedTuple):
    """The hot seams, each the C object or its Python twin: the event
    core, the network send body, a home-based engine's local-hit probes,
    a thread's read/write bodies, a local hit's finished ``yield from``
    target, the request/reply futures, the reply handler and the diff
    scan (see :func:`_python_twins` for where each twin lives)."""

    Engine: type
    NetFabric: type
    LocalAccess: type
    Accessor: type
    Ready: type
    Future: type
    route_reply: Callable[[Any, Any], None]
    diff_arrays: Callable[[Any, Any], Any]


def _python_twins() -> Seams:
    from repro.cluster.network import PyNetFabric
    from repro.dsm.faultin import PyLocalAccess
    from repro.dsm.sync import SyncManager
    from repro.gos.thread import _PyAccessor, _PyReady
    from repro.memory.diff import diff_arrays
    from repro.sim.engine import PyEngine
    from repro.sim.future import Future

    return Seams(
        PyEngine, PyNetFabric, PyLocalAccess, _PyAccessor, _PyReady, Future,
        SyncManager._resolve_reply, diff_arrays,
    )


def seam_table(module: Any, python: Any = ()) -> Seams:
    """The seam table over the extension ``module`` (``None``: every
    Python twin), with the seams named in ``python`` swapped for their
    Python twins.

    Two pairings hold whatever is asked: the C ``NetFabric`` only over
    the C ``Engine`` (it pushes onto the C heap), and the C ``Accessor``
    only over the C ``LocalAccess`` (it calls its probes in C).  A mixed
    table is a test's tool; the backends themselves build pure ones.
    """
    python = set(Seams._fields if module is None else python)
    if "Engine" in python:
        python.add("NetFabric")
    if "LocalAccess" in python:
        python.add("Accessor")
    twins = _python_twins() if python else None
    return Seams(*(
        getattr(twins if name in python else module, name)
        for name in Seams._fields
    ))


def _load_or_build() -> Any:
    """Return the extension module, building it on first use."""
    existing = sys.modules.get("repro._kernel._kernelc")
    if existing is not None:
        return existing
    # An installed in-place build (setup.py build_ext) wins over the
    # first-use cache — but only at a compatible ABI level.
    try:
        module = importlib.import_module("repro._kernel._kernelc")
    except ImportError:
        pass
    else:
        if getattr(module, "KERNEL_API", 0) >= _MIN_KERNEL_API:
            return module
        del sys.modules["repro._kernel._kernelc"]
    # the interpreter's own extension suffix: sysconfig's EXT_SUFFIX
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    target = _build_dir() / f"_kernelc-{_build_tag()}{suffix}"
    if not target.exists():
        _compile_extension(target)
    return _load_from_path(target)


def _install_error_types(module: Any) -> None:
    from repro.sim.errors import SimulationError

    module._install(SimulationError)


def _parse_backend(requested: str) -> str:
    """Normalise a backend name (``REPRO_BACKEND`` or ``select_backend``);
    an empty value means ``auto``."""
    name = (requested or "auto").strip().lower()
    if name not in ("auto", "python", "compiled"):
        raise ValueError(
            f"unknown backend {requested!r}: expected auto, python or compiled"
        )
    return name


def _resolve(name: str) -> None:
    # the table is rebuilt from the new state on its next read
    globals().pop("SEAMS", None)
    if name == "python":
        _state.update(
            resolved=True, module=None, name="python",
            reason="selected explicitly",
        )
        return
    try:
        module = _load_or_build()
        _install_error_types(module)
    except Exception as exc:
        if name == "compiled":
            _state.update(
                resolved=False, module=None, name="python",
                reason=f"unavailable: {exc}",
            )
            raise RuntimeError(
                f"compiled backend requested but unavailable: {exc}"
            ) from exc
        global _fallback_warned
        if not _fallback_warned:
            # Once per *process*, not per resolution: select_backend()
            # clears _state["resolved"], so without this latch every
            # auto re-resolution on a compiler-less host re-fires the
            # same warning.
            _fallback_warned = True
            warnings.warn(
                f"repro: compiled kernel unavailable ({exc}); "
                f"falling back to the pure-Python backend",
                RuntimeWarning,
                stacklevel=3,
            )
        _state.update(
            resolved=True, module=None, name="python",
            reason=f"fallback: {exc}",
        )
        return
    _state.update(
        resolved=True, module=module, name="compiled",
        reason="extension loaded",
    )


def kernel() -> Any:
    """The loaded extension module, or ``None`` for the pure-Python backend.

    The backend is resolved when this module is first imported
    (honouring ``REPRO_BACKEND``); consumers read :data:`SEAMS` instead.
    """
    if not _state["resolved"]:
        _resolve(_parse_backend(os.environ.get("REPRO_BACKEND", "auto")))
    return _state["module"]


def backend_name() -> str:
    """``"compiled"`` or ``"python"`` — the active backend."""
    kernel()
    return _state["name"]


def build_hash() -> str | None:
    """Build provenance of the active backend.

    The 16-hex-digit cache key the compiled extension was built under
    (C source bytes + interpreter + numpy versions), or ``None`` when
    the pure-Python backend is active.  Recorded in trace metadata and
    printed on stderr by ``repro-bench analyze`` so a trace can always
    be tied back to the exact kernel build that produced it.
    """
    kernel()
    if _state["name"] != "compiled":
        return None
    return _build_tag()


def backend_info() -> dict:
    """Diagnostic summary: active backend, why, and build artefact paths."""
    kernel()
    info = {
        "backend": _state["name"],
        "reason": _state["reason"],
        "source": str(_SOURCE),
    }
    if _state["module"] is not None:
        info["extension"] = getattr(_state["module"], "__file__", None)
    log = build_log_path()
    if log.exists():
        info["build_log"] = str(log)
    return info


def select_backend(name: str) -> str:
    """Force the backend at runtime; returns the active backend name.

    Sets ``REPRO_BACKEND`` (so worker subprocesses inherit the choice),
    re-resolves, and replaces :data:`SEAMS`.  Raises :class:`ValueError`
    for an unknown name and :class:`RuntimeError` for
    ``name="compiled"`` when the extension cannot be built.  Call it
    before constructing simulators; already-built simulators, networks,
    engines and threads keep the seams they were built with.
    """
    name = _parse_backend(name)
    os.environ["REPRO_BACKEND"] = name
    _state["resolved"] = False
    _resolve(name)
    return _state["name"]


def __getattr__(name: str) -> Any:
    # SEAMS is built on its first read, once every twin's module can be
    # imported, and then lives in this module's namespace: later reads
    # are plain attribute lookups.
    if name == "SEAMS":
        table = globals()["SEAMS"] = seam_table(kernel())
        return table
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Resolve at import, so a bad REPRO_BACKEND fails the first import of
# the package rather than its first simulation.
kernel()
