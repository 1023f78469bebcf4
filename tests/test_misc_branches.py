"""Remaining branch coverage: render details, misc."""

from repro.bench.figure2 import render_figure2
from repro.gos.thread import ThreadContext

from tests.conftest import make_gos, run_threads


def test_figure2_render_includes_speedup_row():
    data = {
        "times": {
            "DEMO": {
                "NoHM": {2: 8.0, 4: 6.0},
                "HM": {2: 4.0, 4: 2.0},
            }
        },
        "messages": {},
        "mode": "quick",
    }
    out = render_figure2(data)
    assert "HM/NoHM" in out
    assert "HM speedup" in out
    assert "2.00x" in out  # speedup at P=4 relative to P=2


def test_lu_with_more_threads_than_rows():
    from repro.apps import Lu
    from tests.conftest import make_jvm

    app = Lu(size=4)
    result = make_jvm(nodes=4).run(app, nthreads=4)
    app.verify(result.output)


def test_two_barriers_interleaved():
    gos = make_gos(nnodes=3)
    bar_a = gos.alloc_barrier(parties=2, home=0)
    bar_b = gos.alloc_barrier(parties=2, home=1)
    trace = []

    def body(tid):
        ctx = ThreadContext(gos, tid=tid, node=tid + 1)
        for phase in range(3):
            yield from ctx.barrier(bar_a)
            trace.append((tid, "a", phase))
            yield from ctx.barrier(bar_b)
            trace.append((tid, "b", phase))

    run_threads(gos, body(0), body(1))
    # phases interleave in lockstep: all "a" of phase k precede all "b"
    for phase in range(3):
        a_idx = [i for i, t in enumerate(trace) if t[1:] == ("a", phase)]
        b_idx = [i for i, t in enumerate(trace) if t[1:] == ("b", phase)]
        assert max(a_idx) < min(b_idx)


def test_stats_repr_and_engine_repr_smoke():
    gos = make_gos(nnodes=2)
    assert "ClusterStats" in repr(gos.stats)
    assert "DsmEngine" in repr(gos.engines[0])
