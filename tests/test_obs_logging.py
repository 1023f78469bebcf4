"""Tests for the structured level-gated run logger."""

import io

import pytest

from repro.obs.logging import LEVELS, NULL_LOGGER, RunLogger


def test_level_gating():
    buf = io.StringIO()
    log = RunLogger(level="warning", stream=buf)
    log.debug("d")
    log.info("i")
    log.warning("w")
    log.error("e")
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[warning]")
    assert lines[1].startswith("[error]")


def test_enabled_for_matches_emission():
    log = RunLogger(level="info", stream=io.StringIO())
    assert not log.enabled_for("debug")
    assert log.enabled_for("info")
    assert log.enabled_for("error")


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        RunLogger(level="verbose")
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


def test_off_level_disables_everything():
    buf = io.StringIO()
    log = RunLogger(level="off", stream=buf)
    log.error("even errors")
    assert buf.getvalue() == ""
    assert not NULL_LOGGER.enabled_for("error")
    assert LEVELS["off"] > LEVELS["error"]
