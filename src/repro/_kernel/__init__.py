"""Compiled-kernel backend selection for the repro package.

The hot kernels of the reproduction (event-heap drain, network send and
delivery, the local-hit access paths, ``compute_diff``) have a compiled
C implementation in ``_kernelc.c``.  This
module owns building, loading and selecting it:

* ``kernel()`` returns the loaded extension module, or ``None`` when the
  pure-Python backend is active.  Resolution is lazy: the first call
  triggers a build (a few seconds, cached afterwards) unless the
  environment opts out.
* ``REPRO_BACKEND`` (``auto`` | ``python`` | ``compiled``) overrides
  autodetection.  ``auto`` (the default) tries the compiled backend and
  falls back to pure Python with a one-line warning; ``python`` skips the
  build entirely; ``compiled`` raises when the extension is unavailable.
  Any other value raises :class:`ValueError`, exactly as
  ``select_backend()`` does.
* ``select_backend()`` re-resolves at runtime (used by the CLI
  ``--backend`` flag) and rebinds every module that resolved the kernel
  once at import (``repro.sim.engine.Simulator`` and ``compute_diff``'s
  kernel handle).

The extension is compiled at first use with the toolchain recorded in
Python's sysconfig (override with ``REPRO_KERNEL_CC``), into
``_kernel/_build/`` keyed by a hash of the C source and the Python/numpy
versions, so stale caches can never be loaded.  A ``setup.py`` build
(``python setup.py build_ext --inplace``) that produced an importable
``repro._kernel._kernelc`` takes precedence.

Both backends are bit-identical by contract: the determinism digest, the
conformance oracle and the backend-parity test suite all pass unchanged
whichever backend is active.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path
from typing import Any

__all__ = [
    "backend_info",
    "backend_name",
    "build_hash",
    "build_log_path",
    "kernel",
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
# engine re-queues arrivals as DeliveryPort.deliver events — an older
# build batches them and drifts events_processed from the Python
# backend; level 8: LocalAccess reads the engine's cache as a plain
# dict; level 9: LocalAccess no longer reads ``engine.arena`` and calls
# ``upgrade_to_write()`` with no argument); an installed in-place build
# predating them must lose to a fresh first-use build rather than load
# and misbehave.  Dropping a symbol the Python side no longer calls
# needs no bump.
_MIN_KERNEL_API = 9

#: Modules that resolve the kernel once at import; ``select_backend()``
#: re-points each through its ``_rebind_kernel()``.
_REBOUND_MODULES = ("repro.sim.engine", "repro.memory.diff")


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
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
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

    Resolves lazily on first call (honouring ``REPRO_BACKEND``); hot-path
    consumers call this per operation, so after resolution it is a dict
    lookup and a branch.
    """
    if not _state["resolved"]:
        _resolve(_parse_backend(os.environ.get("REPRO_BACKEND", "auto")))
    return _state["module"]


def backend_name() -> str:
    """``"compiled"`` or ``"python"`` — the active backend (resolving
    lazily, like :func:`kernel`)."""
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
    re-resolves, and rebinds ``repro.sim.engine.Simulator`` /
    ``repro.sim.Simulator`` and the other ``_REBOUND_MODULES`` that are
    already imported.
    Raises :class:`ValueError` for an unknown name and
    :class:`RuntimeError` for ``name="compiled"`` when the extension
    cannot be built.  Call it before constructing simulators;
    already-built simulators keep their original backend.
    """
    name = _parse_backend(name)
    os.environ["REPRO_BACKEND"] = name
    _state["resolved"] = False
    _resolve(name)
    for module_name in _REBOUND_MODULES:
        module = sys.modules.get(module_name)
        if module is not None:
            module._rebind_kernel()
    return _state["name"]
