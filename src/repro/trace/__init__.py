"""Protocol tracing: structured event capture for analysis and debugging.

Attach a :class:`~repro.trace.recorder.TraceRecorder` to a
:class:`~repro.gos.space.GlobalObjectSpace` to capture per-object
protocol events — migrations (with the frozen threshold), redirections,
and the live adaptive-threshold evaluations with their C/E/R inputs —
timestamped in simulated time::

    from repro.trace import TraceRecorder
    tracer = TraceRecorder()
    gos = GlobalObjectSpace(8, FAST_ETHERNET, policy=AdaptiveThreshold(),
                            tracer=tracer)
    ... run ...
    for t, threshold in tracer.threshold_series(obj.oid):
        print(t, threshold)
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".events": ["TraceEvent"],
    ".recorder": ["TraceRecorder"],
})
