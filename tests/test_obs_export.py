"""Tests for streaming JSONL trace export and its reader."""

import json

import pytest

from repro.apps import SingleWriterBenchmark
from repro.cluster.hockney import FAST_ETHERNET
from repro.core.policies import AdaptiveThreshold
from repro.gos.jvm import DistributedJVM
from repro.obs.export import TRACE_SCHEMA, JsonlTraceWriter, iter_trace
from repro.trace import TraceRecorder


def test_writer_meta_line_and_events(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    with JsonlTraceWriter(path, kinds=["migration"]) as sink:
        assert sink.wants("migration")
        assert not sink.wants("decision")
        sink.record("migration", 1.5, oid=1, node=0, new_home=2)
        sink.record("decision", 2.0, oid=1, node=0)  # filtered: no-op
        assert sink.events_written == 1
    lines = [json.loads(l) for l in open(path, encoding="utf-8")]
    from repro import _kernel
    from repro.obs.export import read_trace_meta

    assert lines[0] == {
        "schema": TRACE_SCHEMA,
        "kinds": ["migration"],
        "backend": _kernel.backend_name(),
        "kernel_build_hash": _kernel.build_hash(),
    }
    meta = read_trace_meta(path)
    assert meta["backend"] == _kernel.backend_name()
    # build provenance: the compiled kernel's build tag, None under
    # pure Python
    assert meta["kernel_build_hash"] == _kernel.build_hash()
    if _kernel.backend_name() == "compiled":
        assert isinstance(meta["kernel_build_hash"], str)
    else:
        assert meta["kernel_build_hash"] is None
    assert lines[1] == {
        "t": 1.5, "kind": "migration", "oid": 1, "node": 0,
        "detail": {"new_home": 2},
    }


def test_writer_creates_parent_directories(tmp_path):
    path = str(tmp_path / "deep" / "nested" / "trace.jsonl")
    with JsonlTraceWriter(path) as sink:
        sink.record("migration", 1.0, oid=1, node=0, new_home=2)
    assert next(iter_trace(path)).oid == 1


def test_writer_validates_kinds(tmp_path):
    with pytest.raises(ValueError):
        JsonlTraceWriter(str(tmp_path / "x.jsonl"), kinds=["bogus"])


def test_record_after_close_raises(tmp_path):
    sink = JsonlTraceWriter(str(tmp_path / "t.jsonl"))
    sink.close()
    sink.close()  # idempotent
    with pytest.raises(ValueError):
        sink.record("migration", 1.0, oid=1, node=0, new_home=2)


def test_iter_trace_rejects_non_trace_files(tmp_path):
    from repro.obs.export import read_trace_meta

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text('{"not": "a trace"}\n')
    for path in (str(empty), str(bogus)):
        with pytest.raises(ValueError):
            list(iter_trace(path))
        with pytest.raises(ValueError):
            read_trace_meta(path)


def _run(tracer):
    app = SingleWriterBenchmark(total_updates=128, repetition=8)
    jvm = DistributedJVM(
        nodes=5, comm_model=FAST_ETHERNET, policy=AdaptiveThreshold(),
        tracer=tracer,
    )
    result = jvm.run(app)
    return result, app


def test_streamed_trace_round_trips_to_recorder_queries(tmp_path):
    """Acceptance: the same deterministic run traced to memory and to a
    JSONL stream yields identical events, so a recorder refilled from
    the file answers every query as the live one does."""
    from repro.obs.export import read_trace_meta

    recorder = TraceRecorder()
    _run(recorder)

    path = str(tmp_path / "run.jsonl")
    with JsonlTraceWriter(path) as sink:
        result, app = _run(sink)
    assert sink.events_written == len(recorder.events)

    loaded = TraceRecorder(kinds=read_trace_meta(path)["kinds"])
    loaded.events.extend(iter_trace(path))
    assert loaded.kinds == recorder.kinds
    assert loaded.events == recorder.events
    oid = app.counter.oid
    assert loaded.threshold_series(oid) == recorder.threshold_series(oid)
    assert loaded.home_path(oid, 0) == recorder.home_path(oid, 0)
    assert len(loaded.migrations()) == result.migrations


def test_iter_trace_streams_without_loading(tmp_path):
    recorder = TraceRecorder(kinds=["migration"])
    _run(recorder)
    path = str(tmp_path / "run.jsonl")
    with JsonlTraceWriter(path, kinds=["migration"]) as sink:
        _run(sink)
    events = iter_trace(path)
    assert next(events) == recorder.events[0]  # a generator, not a list
    assert [recorder.events[0], *events] == recorder.events


def test_numpy_details_serialize(tmp_path):
    import numpy as np

    path = str(tmp_path / "np.jsonl")
    with JsonlTraceWriter(path) as sink:
        sink.record(
            "ship", 1.0, oid=1, node=0,
            size=np.int64(42), value=np.float64(1.5),
        )
    event = next(iter_trace(path))
    assert event.detail == {"size": 42, "value": 1.5}
