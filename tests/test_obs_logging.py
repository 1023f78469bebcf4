"""Tests for the structured level-gated run logger."""

import io

import pytest

from repro.obs.logging import LEVELS, RunLogger


def test_level_gating():
    buf = io.StringIO()
    log = RunLogger(level="info", stream=buf)
    for level in ("debug", "info"):
        log.log(level, level[0])
    log.info("i")
    lines = buf.getvalue().splitlines()
    assert lines == ["[info] repro i", "[info] repro i"]


def test_enabled_for_matches_emission():
    log = RunLogger(level="info", stream=io.StringIO())
    assert not log.enabled_for("debug")
    assert log.enabled_for("info")
    assert RunLogger(level="debug").enabled_for("debug")


def test_unknown_level_rejected():
    """Only the two levels something logs at are offered."""
    assert sorted(LEVELS) == ["debug", "info"]
    for level in ("verbose", "warning", "error", "off"):
        with pytest.raises(ValueError):
            RunLogger(level=level)
    with pytest.raises(ValueError):
        RunLogger(stream=io.StringIO()).log("loud", "event")


def test_structured_fields_and_clock():
    """Simulated time is an ordinary field, first after the event name
    (the log sink stamps it from the trace event's time)."""
    buf = io.StringIO()
    log = RunLogger(level="info", stream=buf)
    log.info("migration", sim_us=1234.5, oid=3, new_home=2)
    line = buf.getvalue().strip()
    assert line == "[info] repro migration sim_us=1234.5 oid=3 new_home=2"


def test_values_with_spaces_are_quoted():
    buf = io.StringIO()
    log = RunLogger(level="info", stream=buf)
    log.info("event", msg="two words", eq="a=b")
    line = buf.getvalue().strip()
    assert "msg='two words'" in line
    assert "eq='a=b'" in line

