"""Unit tests for the compiled kernel primitives (``repro._kernel``).

Each primitive is checked directly against its pure-Python ground truth
in the same process — ordering, results, and error *messages* (the
fallback contract promises byte-identical behaviour, which includes what
an exception says).  The build/fallback machinery is exercised in
subprocesses with a deliberately broken compiler.

Skips (with the reason) when the extension is unavailable, e.g. under
``REPRO_BACKEND=python`` CI legs or a host with no C toolchain.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import _kernel
from tests.test_topology import BAD_TIERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def km():
    module = _kernel.kernel()
    if module is None:
        pytest.skip(
            f"compiled backend unavailable: {_kernel.backend_info()['reason']}"
        )
    return module


@pytest.fixture(scope="module")
def sim_classes(km):
    from repro.sim import engine

    compiled = engine.CompiledSimulator or engine._build_compiled_class(km)
    return engine.PySimulator, compiled


# --------------------------------------------------------------------------
# Engine: event ordering, time semantics, error messages
# --------------------------------------------------------------------------


def _drive(sim_cls, until=None):
    """Schedule a fixed mix of ties/out-of-order events; return the trace."""
    sim = sim_cls()
    order = []
    for label, delay in [
        ("a", 5.0), ("b", 1.0), ("c", 5.0), ("d", 0.0), ("e", 3.0),
    ]:
        sim.schedule(delay, lambda lb=label: order.append((lb, sim.now)))
    sim.call_soon(lambda: order.append(("soon", sim.now)))
    sim.schedule(2.0, lambda: sim.schedule(0.5, lambda: order.append(("nested", sim.now))))
    end = sim.run(until)
    return order, end, sim.events_processed


def test_engine_order_matches_python(sim_classes):
    py_cls, compiled_cls = sim_classes
    assert _drive(py_cls) == _drive(compiled_cls)
    assert _drive(py_cls, until=2.4) == _drive(compiled_cls, until=2.4)
    assert _drive(py_cls, until=100.0) == _drive(compiled_cls, until=100.0)


def test_engine_error_messages_match(sim_classes):
    from repro.sim.errors import SimulationError

    py_cls, compiled_cls = sim_classes
    messages = {}
    for name, cls in (("python", py_cls), ("compiled", compiled_cls)):
        sim = cls()
        with pytest.raises(SimulationError) as neg:
            sim.schedule(-1.5, lambda: None)
        sim.schedule(4.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError) as past:
            sim.at(1.0, lambda: None)
        messages[name] = (str(neg.value), str(past.value))
    assert messages["python"] == messages["compiled"]


def test_engine_rejects_non_finite_times_identically(sim_classes):
    """Delays 3, 1, 2, then NaN, then at(inf): both backends refuse the
    last two with the same message and run the rest in the same order.
    Accepted, a NaN would sit in the two heaps at different places
    (python [1, 2, 3, nan, inf], compiled [1, 2, nan, 3, inf]) and the
    clock would end at inf."""
    from repro.sim.errors import SimulationError

    py_cls, compiled_cls = sim_classes
    outcome = {}
    for name, cls in (("python", py_cls), ("compiled", compiled_cls)):
        sim = cls()
        order = []
        for delay in (3.0, 1.0, 2.0):
            sim.schedule(delay, order.append, delay)
        errors = []
        for call, value in (
            (sim.schedule, float("nan")),
            (sim.schedule, float("inf")),
            (sim.schedule, -1.0),
            (sim.at, float("nan")),
            (sim.at, float("inf")),
            (sim.at, -1.0),
        ):
            with pytest.raises(SimulationError) as err:
                call(value, order.append, value)
            errors.append(str(err.value))
        outcome[name] = (order, sim.run(), errors)
        assert outcome[name][:2] == ([1.0, 2.0, 3.0], 3.0)
    assert outcome["python"] == outcome["compiled"]


def test_engine_counter_exact_on_raise(sim_classes):
    py_cls, compiled_cls = sim_classes

    def boom():
        raise RuntimeError("boom")

    counts = {}
    for name, cls in (("python", py_cls), ("compiled", compiled_cls)):
        sim = cls()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, boom)
        sim.schedule(3.0, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run()
        counts[name] = sim.events_processed
    assert counts["python"] == counts["compiled"] == 2


# --------------------------------------------------------------------------
# diff_arrays
# --------------------------------------------------------------------------


def _reference_scan(current, twin):
    """The pure-numpy scan ``compute_diff`` performs."""
    indices = np.flatnonzero(current != twin)
    if indices.size == 0:
        return None
    nruns = 1 + int(np.count_nonzero(np.diff(indices) != 1))
    return indices, current[indices], nruns


@pytest.mark.parametrize(
    "dtype", ["float64", "float32", "int64", "int32", "int16", "int8", "bool"]
)
def test_diff_arrays_matches_numpy(km, dtype):
    rng = np.random.default_rng(42)
    for _ in range(25):
        size = int(rng.integers(1, 200))
        twin = (rng.integers(0, 4, size) * 10).astype(dtype)
        current = twin.copy()
        flips = rng.random(size) < 0.2
        current[flips] = (rng.integers(1, 4, size) * 7).astype(dtype)[flips]
        got = km.diff_arrays(current, twin)
        want = _reference_scan(current, twin)
        if want is None:
            assert got is None
            continue
        indices, values, nruns = got
        np.testing.assert_array_equal(indices, want[0])
        np.testing.assert_array_equal(values, want[1])
        assert values.dtype == current.dtype
        assert nruns == want[2]


def test_diff_arrays_float_edge_semantics(km):
    """NaN and signed zero follow numpy ``!=``: NaN always differs,
    -0.0 vs 0.0 never does."""
    twin = np.array([0.0, np.nan, 1.0, np.nan], dtype=np.float64)
    current = np.array([-0.0, np.nan, 1.0, 2.0], dtype=np.float64)
    indices, values, nruns = km.diff_arrays(current, twin)
    np.testing.assert_array_equal(indices, [1, 3])
    assert np.isnan(values[0]) and values[1] == 2.0
    assert nruns == 2


def test_diff_arrays_unsupported_layouts_return_notimplemented(km):
    base = np.zeros(16, dtype=np.float64)
    assert km.diff_arrays(base[::2], base[1::2]) is NotImplemented
    two_d = np.zeros((4, 4))
    assert km.diff_arrays(two_d, two_d) is NotImplemented
    cplx = np.zeros(4, dtype=np.complex128)
    assert km.diff_arrays(cplx, cplx) is NotImplemented


def test_compute_diff_skips_ndarray_subclasses(km):
    """``compute_diff`` must keep the numpy path for subclasses (tests
    count ``__ne__`` calls on them)."""

    class Tagged(np.ndarray):
        pass

    from repro.memory.diff import compute_diff

    twin = np.arange(8, dtype=np.float64).view(Tagged)
    current = twin.copy()
    current[3] += 1.0
    diff = compute_diff(1, current, twin)
    np.testing.assert_array_equal(diff.indices, [3])


# --------------------------------------------------------------------------
# Future: the C twin of repro.sim.future.Future
# --------------------------------------------------------------------------


def _future_transcript(cls):
    """Exercise one class through the full Future contract; return a
    comparable transcript (values, callback orders, error messages)."""
    from repro.sim.errors import SimulationError

    out = []
    fut = cls(label="t")
    out.append((fut.resolved, fut.exception, repr(fut)))
    calls = []
    fut.add_done_callback(lambda f: calls.append(("first", f.value)))
    fut.add_done_callback(lambda f: calls.append(("second", f.value)))
    fut.resolve(41)
    out.append((fut.resolved, fut.value, calls, repr(fut)))
    fut.add_done_callback(lambda f: calls.append(("late", f.value)))
    out.append(list(calls))
    for exc_case in ("resolve", "fail"):
        try:
            getattr(fut, exc_case)(RuntimeError("x") if exc_case == "fail" else 1)
        except SimulationError as exc:
            out.append(str(exc))
    unread = cls(label="u")
    try:
        unread.value
    except SimulationError as exc:
        out.append(str(exc))
    try:
        unread.peek()
    except SimulationError as exc:
        out.append(str(exc))
    failed = cls(label="f")
    error = ValueError("boom")
    failed.fail(error)
    value, exc = failed.peek()
    out.append((failed.resolved, failed.exception is error, value, exc is error))
    try:
        failed.value
    except ValueError as exc:
        out.append(("reraised", exc is error))
    return out


def test_future_twin_matches_python(km):
    from repro.sim.future import Future as PyFuture

    assert _future_transcript(PyFuture) == _future_transcript(km.Future)


def test_future_classes_cover_both_backends(km):
    from repro.sim.future import Future as PyFuture, future_class, future_classes

    classes = future_classes()
    assert PyFuture in classes and km.Future in classes
    assert future_class() is km.Future


def test_process_blocks_on_compiled_future(km, sim_classes):
    """A generator yielding a C Future suspends and resumes exactly like
    one yielding the Python Future."""
    from repro.sim.process import Process

    _, compiled_cls = sim_classes
    sim = compiled_cls()
    fut = km.Future(label="gate")
    trace = []

    def body():
        value = yield fut
        trace.append(value)
        return value * 2

    proc = Process(sim, body(), name="p")
    proc.start()
    sim.schedule(5.0, lambda: fut.resolve(21))
    sim.run()
    assert trace == [21]
    assert proc.finished.value == 42


# --------------------------------------------------------------------------
# Ready + Accessor: the fused local-access fast path
# --------------------------------------------------------------------------


def test_ready_is_single_use_yield_from_target(km):
    def consume(it):
        value = yield from it
        return value

    gen = consume(km.Ready({"k": 1}))
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == {"k": 1}
    # a consumed Ready ends iteration immediately, with no value
    spent = km.Ready(5)
    assert list(spent) == []
    assert list(spent) == []


def test_accessor_hit_and_miss_paths(km):
    """ctx.read/ctx.write route through the C Accessor under the
    compiled backend: a home-copy write is a local hit, a remote read
    faults in through the protocol generator — and the run's result is
    what the Python wrapper would produce."""
    from repro.apps.base import DsmApplication
    from repro.cluster.hockney import make_comm_model
    from repro.gos.jvm import DistributedJVM

    class Probe(DsmApplication):
        name = "accessor-probe"

        def setup(self, gos, nthreads):
            self.arr = gos.alloc_array(8, home=0, label="arr")
            self.gate = gos.alloc_barrier(nthreads)

        def thread_body(self, ctx, tid):
            if tid == 0:
                payload = yield from ctx.write(self.arr)  # home hit
                payload[0] = 42.0
            yield from ctx.barrier(self.gate)
            got = yield from ctx.read(self.arr)  # tid 1: remote fault-in
            self.seen[tid] = float(got[0])

        def setup_run(self):
            self.seen = {}

        def finalize(self, gos):
            return dict(self.seen)

    app = Probe()
    app.setup_run()
    jvm = DistributedJVM(nodes=2, comm_model=make_comm_model("fast-ethernet"))
    result = jvm.run(app, nthreads=2)
    assert result.output == {0: 42.0, 1: 42.0}


def test_thread_context_binds_accessor_methods(km):
    """Under the compiled backend the context's read/write are the C
    Accessor's bound methods, not the Python wrappers."""
    from repro.cluster.hockney import make_comm_model
    from repro.gos.space import GlobalObjectSpace
    from repro.gos.thread import ThreadContext

    gos = GlobalObjectSpace(
        nnodes=2, comm_model=make_comm_model("fast-ethernet")
    )
    ctx = ThreadContext(gos, tid=0, node=0)
    assert type(ctx.read).__name__ == "builtin_function_or_method"
    assert type(ctx.read.__self__) is km.Accessor
    assert ctx.write.__self__ is ctx.read.__self__


# --------------------------------------------------------------------------
# NetFabric topology: class-compressed tier vectors (PROTOCOL.md §15)
# --------------------------------------------------------------------------

FAT_TREE = "fat-tree:edge=2:pod=2:hop=1.5:oversub=2:core-oversub=3:contention=1"


def _fast_network(sim_cls, nnodes, topology):
    """A Network with every node registered: the C fabric under the
    compiled engine, ``Network.send`` under the Python one."""
    from repro.cluster.hockney import HockneyModel
    from repro.cluster.message import MsgCategory
    from repro.cluster.network import Network

    sim = sim_cls()
    net = Network(
        sim, HockneyModel(startup_us=100.0, bandwidth_mb_s=12.5), nnodes,
        service_us=0.0, topology=topology,
    )
    log = []
    for node in range(nnodes):
        net.register_fast_dispatch(
            node,
            {MsgCategory.DIFF: lambda tag, node=node: log.append((tag, node, sim.now))},
            lambda sender: None,
        )
    return sim, net, log


def test_fabric_topology_deliveries_match_python_fast_path(sim_classes):
    """One contended fat-tree message sequence — bursts behind one edge
    uplink, same-edge / same-pod / cross-pod pairs, ragged sizes, a
    second wave sent mid-run — delivers at exactly the same instants
    through the compiled fabric and the Python fast path."""
    from repro.cluster.message import MsgCategory

    def deliveries(sim_cls):
        sim, net, log = _fast_network(sim_cls, 12, FAT_TREE)

        def wave(base):
            for i in range(60):
                src = (i * 5 + base) % 12
                dst = (src + 1 + (i * 7) % 11) % 12
                net.send(src, dst, MsgCategory.DIFF, 17 * i + base, (base, i))

        wave(0)
        sim.schedule(400.0, wave, 3)
        sim.run()
        assert len(log) == 120
        return log

    py_cls, compiled_cls = sim_classes
    compiled = deliveries(compiled_cls)
    assert compiled == deliveries(py_cls)
    # contention really serialized something: arrivals spread well past
    # the uncontended worst case of the first wave
    assert max(t for _, _, t in compiled) > 1000.0


def test_fabric_selected_only_under_compiled_engine(sim_classes):
    py_cls, compiled_cls = sim_classes
    assert _fast_network(compiled_cls, 4, FAT_TREE)[1]._fabric is not None
    assert _fast_network(py_cls, 4, FAT_TREE)[1]._fabric is None


def _bare_fabric(km, sim_classes):
    """A 4-node compiled fabric with no ports and no topology yet."""
    from collections import Counter

    return km.NetFabric(
        sim_classes[1](), Counter(), Counter(), 100.0, 12.5, 40, [0.0] * 4
    )


@pytest.mark.parametrize("case", BAD_TIERS)
def test_fabric_set_topology_rejects_malformed_input(km, sim_classes, case):
    """The C validator refuses exactly what ClusterTopology.set_tiers
    refuses (same table of inputs), each with a one-line ValueError."""
    bad = BAD_TIERS[case]
    fabric = _bare_fabric(km, sim_classes)
    with pytest.raises(ValueError, match=bad["match"]) as err:
        fabric.set_topology(
            np.array(bad["group_ids"], dtype=np.int64),
            np.array(bad["class_costs"]),
            bad["nlinks"],
            True,
        )
    assert "\n" not in str(err.value)
    # nothing was attached: a well-formed topology is still accepted
    fabric.set_topology(np.zeros((1, 4), dtype=np.int64), np.zeros((2, 2)), 1, False)


def test_fabric_set_topology_rejects_wrong_array_types(km, sim_classes):
    ids = np.zeros((1, 4), dtype=np.int64)
    costs = np.zeros((2, 2))
    for args in (
        (ids.astype(np.int32), costs, 1, False),
        (ids.tolist(), costs, 1, False),
        (np.zeros(4, dtype=np.int64), costs, 1, False),
        (ids, costs.astype(np.float32), 1, False),
        (ids, np.zeros((2, 4))[:, ::2], 1, False),
        (ids, costs, -1, False),
    ):
        with pytest.raises(ValueError):
            _bare_fabric(km, sim_classes).set_topology(*args)


def test_fabric_topology_storage_is_linear_in_nodes(sim_classes):
    """A 1024-node fat-tree Network on the compiled fabric holds no
    topology array above ``levels * N`` elements — and the whole build,
    C allocations included, stays far below one dense N x N table."""
    import tracemalloc

    nnodes, levels = 1024, 2
    tracemalloc.start()
    try:
        _, net, _ = _fast_network(
            sim_classes[1], nnodes,
            "fat-tree:edge=16:pod=4:oversub=2:contention=1",
        )
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net._fabric is not None
    assert held < nnodes * nnodes * 8 // 2

    def sizes(value):
        if isinstance(value, np.ndarray):
            yield value.size
        elif isinstance(value, (list, tuple)):
            yield len(value)
            for item in value:
                yield from sizes(item)

    topo_sizes = [
        size for value in vars(net.topology).values() for size in sizes(value)
    ]
    assert max(topo_sizes) == levels * nnodes  # group_ids itself
    assert net.topology.group_ids.shape == (levels, nnodes)


# --------------------------------------------------------------------------
# Build / fallback machinery
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cacheless_src(tmp_path_factory):
    """A copy of ``src/`` with no build cache — a host that never built.

    Needed because ``import repro`` resolves the backend eagerly (the
    engine binds ``Simulator`` at import), so a cached ``.so`` next to
    the real source would satisfy even a broken compiler.
    """
    import shutil

    dest = tmp_path_factory.mktemp("cacheless") / "src"
    shutil.copytree(
        SRC, dest, ignore=shutil.ignore_patterns("_build", "__pycache__")
    )
    return dest


def _subprocess_check(src_dir: Path, backend: str, code: str) -> None:
    env = dict(
        os.environ,
        PYTHONPATH=str(src_dir),
        REPRO_BACKEND=backend,
        REPRO_KERNEL_CC="/nonexistent-compiler",
        XDG_CACHE_HOME="/nonexistent-cache",
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("OK"), proc.stdout


def test_auto_falls_back_when_compiler_is_broken(cacheless_src):
    """No toolchain + no cache => ``import repro`` still succeeds, on the
    pure-Python backend, with one RuntimeWarning."""
    _subprocess_check(
        cacheless_src,
        "auto",
        """\
import warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import repro
    from repro import _kernel
    name = _kernel.backend_name()
assert name == "python", name
assert any(
    "falling back to the pure-Python backend" in str(w.message)
    for w in caught
), [str(w.message) for w in caught]
from repro.sim.engine import Simulator, PySimulator
assert Simulator is PySimulator
print("OK")
""",
    )


def test_compiled_request_raises_when_compiler_is_broken(cacheless_src):
    _subprocess_check(
        cacheless_src,
        "compiled",
        """\
try:
    # raises during import: the engine binds Simulator eagerly
    import repro
    repro.sim  # pragma: no cover - unreachable
except RuntimeError as exc:
    assert "compiled backend requested but unavailable" in str(exc), exc
    print("OK")
else:
    raise SystemExit("expected RuntimeError")
""",
    )


def test_fallback_warning_fires_once_per_process(cacheless_src):
    """The auto-mode fallback RuntimeWarning is latched per process:
    ``select_backend()`` re-resolutions on a compiler-less host must not
    re-fire it."""
    _subprocess_check(
        cacheless_src,
        "auto",
        """\
import warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import repro
    from repro import _kernel
    assert _kernel.backend_name() == "python"
    # two explicit re-resolutions: each re-attempts (and re-fails) the
    # compiled build, but the warning must stay a one-liner
    assert _kernel.select_backend("auto") == "python"
    assert _kernel.select_backend("auto") == "python"
fallbacks = [
    w for w in caught
    if "falling back to the pure-Python backend" in str(w.message)
]
assert len(fallbacks) == 1, [str(w.message) for w in caught]
assert issubclass(fallbacks[0].category, RuntimeWarning)
print("OK")
""",
    )


def test_stale_inplace_build_is_rejected(km, cacheless_src, tmp_path):
    """An installed in-place build below ``_MIN_KERNEL_API`` loses to a
    fresh first-use build: a level-6 kernel batches same-instant
    arrivals and would drift ``events_processed`` from the Python
    backend.  Here the fresh build cannot compile, so ``auto`` falls
    back to Python instead of loading the stale module."""
    import shutil

    assert km.KERNEL_API == _kernel._MIN_KERNEL_API == 9
    src = tmp_path / "src"
    shutil.copytree(cacheless_src, src)
    (src / "repro" / "_kernel" / "_kernelc.py").write_text(
        "KERNEL_API = 6\nSTALE = True\n"
    )
    _subprocess_check(
        src,
        "auto",
        """\
import sys, warnings
with warnings.catch_warnings(record=True):
    warnings.simplefilter("always")
    import repro
    from repro import _kernel
assert _kernel.backend_name() == "python", _kernel.backend_info()
stale = sys.modules.get("repro._kernel._kernelc")
assert stale is None or not hasattr(stale, "STALE")
print("OK")
""",
    )


def test_backend_info_reports_extension(km):
    info = _kernel.backend_info()
    assert info["backend"] == "compiled"
    assert info["reason"] == "extension loaded"
    assert info.get("extension")


def test_unknown_backend_is_rejected_on_env_and_call_paths():
    """``REPRO_BACKEND`` and ``select_backend()`` share one parser: case
    and surrounding blanks are forgiven, a typo is the same one-line
    ``ValueError`` on both paths (never a silent ``auto``)."""
    with pytest.raises(ValueError) as call_err:
        _kernel.select_backend("complied")
    message = str(call_err.value)
    assert message == (
        "unknown backend 'complied': expected auto, python or compiled"
    )
    assert _kernel._parse_backend(" Python ") == "python"
    assert _kernel._parse_backend("") == "auto"
    proc = subprocess.run(
        [sys.executable, "-c", "import repro"],
        env=dict(os.environ, PYTHONPATH=str(SRC), REPRO_BACKEND="complied"),
        capture_output=True,
        text=True,
    )
    assert proc.returncode != 0
    assert proc.stderr.strip().splitlines()[-1] == f"ValueError: {message}"


#: The extension's public names, each a twin whose removal measurably
#: costs wall time on a benchmark leg or adds a Python call per access or
#: per message (PROTOCOL.md §11's kept-twin table gives the measurement).
#: A new twin must be added here and to that table.
LEDGERED_TWINS = {
    "Engine", "diff_arrays",
    "LocalAccess", "Accessor", "Ready",
    "DeliveryPort", "NetFabric", "FabricSender",
    "Future", "ReplyRouter",
}


def test_kernel_exports_only_ledgered_twins(km):
    public = {
        name for name in vars(km)
        if not name.startswith("_") and name != "KERNEL_API"
    }
    assert public == LEDGERED_TWINS


def test_protocol_twin_table_names_the_ledgered_twins():
    """PROTOCOL.md §11's kept-twin table lists exactly ``LEDGERED_TWINS``.

    Reads only the document, so it runs under either backend.
    """
    text = (ROOT / "docs" / "PROTOCOL.md").read_text(encoding="utf-8")
    section = text.split("\n## 11.", 1)[1].split("\n## 12.", 1)[0]
    rows = section.split("\n| C twin |", 1)[1].split("\n\n", 1)[0]
    named = set()
    for row in rows.splitlines()[2:]:
        first_cell = row.split("|")[1]
        named.update(re.findall(r"`(\w+)`", first_cell))
    assert named == LEDGERED_TWINS
