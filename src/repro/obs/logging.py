"""Structured, level-gated run logging (logfmt-style key=value lines).

The repo deliberately avoids the stdlib ``logging`` module: a simulated
run emits events at simulated timestamps from within a hot event loop,
so the logger must be (a) cheap to *skip* — one integer compare per
gated site, exposed as :meth:`RunLogger.enabled_for` so callers can hoist
the check — and (b) structured, so a line like ::

    [info] repro migration sim_us=10432.5 oid=3 old_home=0 new_home=2

is grep-able and machine-parseable without a format string per site.

Loggers are explicit objects passed down the stack (no global mutable
configuration): the CLI builds one from ``--log-level`` and hands it to
the bench executor, which hands it to the JVM.  The protocol engines
never see it: the JVM attaches a :class:`~repro.obs.sinks.LogSink` to
the run's trace stream, which writes each migration (and, at debug, each
Eq-2 decision) with the event's simulated time as ``sim_us=``.
"""

from __future__ import annotations

import sys
from typing import Any, TextIO

#: Recognised level names, most to least verbose.  ``"off"`` disables
#: every site, including errors — useful as an explicit null logger.
LEVELS: dict[str, int] = {
    "debug": 10,
    "info": 20,
    "warning": 30,
    "error": 40,
    "off": 100,
}


def _levelno(level: str) -> int:
    try:
        return LEVELS[level]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r}; choose from {sorted(LEVELS)}"
        ) from None


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    if " " in text or "=" in text:
        return repr(text)
    return text


class RunLogger:
    """A structured logger gated by a fixed level, writing to ``stream``
    (``sys.stderr`` when ``None``)."""

    __slots__ = ("name", "level", "_levelno", "_stream")

    def __init__(
        self,
        level: str = "info",
        name: str = "repro",
        stream: TextIO | None = None,
    ) -> None:
        self.name = name
        self.level = level
        self._levelno = _levelno(level)
        self._stream = stream

    # -- gating -------------------------------------------------------------

    def enabled_for(self, level: str) -> bool:
        """True when a ``level`` call would emit; hoist this on hot paths."""
        return LEVELS.get(level, 0) >= self._levelno

    # -- emission -----------------------------------------------------------

    def log(self, level: str, event: str, **fields: Any) -> None:
        """Emit one structured line when ``level`` clears the gate."""
        levelno = _levelno(level)
        if levelno < self._levelno:
            return
        parts = [f"[{level}]", self.name, event]
        for key, value in fields.items():
            parts.append(f"{key}={_format_value(value)}")
        stream = self._stream if self._stream is not None else sys.stderr
        print(" ".join(parts), file=stream)

    def debug(self, event: str, **fields: Any) -> None:
        """Log at debug level (per-message / per-decision detail)."""
        if self._levelno <= 10:
            self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        """Log at info level (migrations, phases, run lifecycle)."""
        if self._levelno <= 20:
            self.log("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        """Log at warning level (dropped events, fallbacks)."""
        if self._levelno <= 30:
            self.log("warning", event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        """Log at error level (failed runs)."""
        if self._levelno <= 40:
            self.log("error", event, **fields)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RunLogger {self.name} level={self.level}>"


#: A logger that emits nothing — a safe default where ``None`` is clumsy.
NULL_LOGGER = RunLogger(level="off", name="null")
