/* Compiled hot kernels for the repro package.
 *
 * A C twin exists only for a path that runs per access, per message or
 * per slot per epoch on a benchmark leg (the table in PROTOCOL.md §11 names
 * the counter that pays for each); deferral and per-epoch dict paths stay
 * Python.  Among them:
 *
 *   Engine            -- the event-heap core of repro.sim.engine (push +
 *                        drain).  repro.sim.engine.CompiledSimulator
 *                        subclasses it from Python and layers the process /
 *                        deadlock bookkeeping on top.
 *   diff_arrays       -- the element-wise scan behind
 *                        repro.memory.diff.compute_diff.
 *   adaptive_threshold -- Equation 2 of the paper (repro.core.threshold).
 *   NetFabric         -- the compiled twin of repro.cluster.network's
 *                        Network.send, with per-node DeliveryPorts that call
 *                        each node's category -> handler table.
 *
 * Determinism contract: every kernel reproduces the pure-Python semantics
 * bit for bit.  The event heap orders by (time, seq) with seq unique, so
 * any conforming priority queue pops the identical sequence heapq does.
 * Float comparisons in diff_arrays use the C `!=` operator, which matches
 * numpy's element-wise `!=` (NaN != NaN is true, -0.0 != 0.0 is false).
 * The threshold update applies the same IEEE-754 operations in the same
 * order as the Python expression.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

#include <math.h>
#include <stddef.h>
#include <string.h>
#include <structmember.h>

/* Set by _install(); the simulator raises this instead of RuntimeError. */
static PyObject *SimError = NULL;

static PyObject *str_payload = NULL;
static PyObject *str_value = NULL;
static PyObject *str_mode = NULL;
static PyObject *str_interval = NULL;
static PyObject *str_read_interval = NULL;
static PyObject *str_write_interval = NULL;
static PyObject *str_homes = NULL;
static PyObject *str_cache = NULL;
static PyObject *str_index = NULL;
static PyObject *str_slots = NULL;
static PyObject *str_dirty = NULL;
static PyObject *str_home_dirty = NULL;
static PyObject *str_try_read_local = NULL;
static PyObject *str_try_write_local = NULL;
static PyObject *str_state = NULL;
static PyObject *str_home_reads = NULL;
static PyObject *str_home_writes = NULL;
static PyObject *str_exclusive_home_writes = NULL;
static PyObject *str_last_writer = NULL;
static PyObject *str_consecutive_writes = NULL;
static PyObject *str_consecutive_writer = NULL;
static PyObject *str_upgrade_to_write = NULL;
static PyObject *str_twin = NULL;
static PyObject *str_request_id = NULL;
static PyObject *str_resolve = NULL;
static PyObject *str_arena = NULL;
static PyObject *str_stats = NULL;
static PyObject *str_events = NULL;
static PyObject *str_live = NULL;
static PyObject *str_oid = NULL;

/* ClusterStats.events keys (identical to the Python literals). */
static PyObject *ev_home_write = NULL;
static PyObject *ev_exclusive_home_write = NULL;

static PyObject *zero_long = NULL;
static PyObject *one_long = NULL;
static PyObject *minus_one_long = NULL;

static PyObject *
sim_error_class(void)
{
    return SimError != NULL ? SimError : PyExc_RuntimeError;
}

/* ====================================================================== */
/* Engine: the event-heap simulator core                                   */
/* ====================================================================== */

typedef struct {
    double time;
    long long seq;
    PyObject *cb;   /* callback, owned */
    PyObject *args; /* argument tuple, owned; NULL for the no-arg fast path */
} Ev;

typedef struct {
    PyObject_HEAD
    Ev *ev;
    Py_ssize_t n;
    Py_ssize_t cap;
    double now;
    long long seq;
    long long processed;
} EngineObject;

/* Strict weak order matching the (time, seq, ...) tuples of the Python
 * heap: seq is unique, so callbacks are never compared. */
static inline int
ev_lt(const Ev *a, const Ev *b)
{
    if (a->time != b->time) {
        return a->time < b->time;
    }
    return a->seq < b->seq;
}

static int
heap_ensure(EngineObject *self, Py_ssize_t need)
{
    Py_ssize_t newcap;
    Ev *grown;

    if (need <= self->cap) {
        return 0;
    }
    newcap = self->cap > 0 ? self->cap * 2 : 64;
    while (newcap < need) {
        newcap *= 2;
    }
    grown = PyMem_Realloc(self->ev, (size_t)newcap * sizeof(Ev));
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->ev = grown;
    self->cap = newcap;
    return 0;
}

static void
heap_push(EngineObject *self, Ev ev)
{
    Ev *h = self->ev;
    Py_ssize_t i = self->n++;

    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (!ev_lt(&ev, &h[parent])) {
            break;
        }
        h[i] = h[parent];
        i = parent;
    }
    h[i] = ev;
}

static Ev
heap_pop(EngineObject *self)
{
    Ev *h = self->ev;
    Ev top = h[0];
    Py_ssize_t n = --self->n;

    if (n > 0) {
        Ev last = h[n];
        Py_ssize_t i = 0;
        for (;;) {
            Py_ssize_t child = 2 * i + 1;
            if (child >= n) {
                break;
            }
            if (child + 1 < n && ev_lt(&h[child + 1], &h[child])) {
                child++;
            }
            if (!ev_lt(&h[child], &last)) {
                break;
            }
            h[i] = h[child];
            i = child;
        }
        h[i] = last;
    }
    return top;
}

/* argv[0] is the callback, argv[1:] its arguments. */
static PyObject *
engine_push_common(EngineObject *self, double time, PyObject *const *argv,
                   Py_ssize_t argc)
{
    PyObject *args = NULL;
    Ev ev;

    if (argc > 1) {
        args = PyTuple_New(argc - 1);
        if (args == NULL) {
            return NULL;
        }
        for (Py_ssize_t i = 1; i < argc; i++) {
            PyObject *item = argv[i];
            Py_INCREF(item);
            PyTuple_SET_ITEM(args, i - 1, item);
        }
    }
    if (heap_ensure(self, self->n + 1) < 0) {
        Py_XDECREF(args);
        return NULL;
    }
    ev.time = time;
    ev.seq = self->seq++;
    Py_INCREF(argv[0]);
    ev.cb = argv[0];
    ev.args = args;
    heap_push(self, ev);
    Py_RETURN_NONE;
}

static PyObject *
Engine_schedule(EngineObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double delay;

    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule() requires (delay, callback, *args)");
        return NULL;
    }
    delay = PyFloat_AsDouble(args[0]);
    if (delay == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    if (!(delay >= 0.0 && delay < Py_HUGE_VAL)) { /* NaN fails both */
        PyErr_Format(sim_error_class(),
                     "delay must be finite and non-negative, got %R", args[0]);
        return NULL;
    }
    return engine_push_common(self, self->now + delay, args + 1, nargs - 1);
}

static PyObject *
Engine_at(EngineObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double time;

    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "at() requires (time, callback, *args)");
        return NULL;
    }
    time = PyFloat_AsDouble(args[0]);
    if (time == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    if (!(time >= self->now && time < Py_HUGE_VAL)) { /* NaN fails both */
        PyObject *now_obj = PyFloat_FromDouble(self->now);
        if (now_obj == NULL) {
            return NULL;
        }
        PyErr_Format(sim_error_class(),
                     "cannot schedule at %R: time must be finite and not "
                     "before the current time %R",
                     args[0], now_obj);
        Py_DECREF(now_obj);
        return NULL;
    }
    return engine_push_common(self, time, args + 1, nargs - 1);
}

static PyObject *
Engine_call_soon(EngineObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1) {
        PyErr_SetString(PyExc_TypeError,
                        "call_soon() requires (callback, *args)");
        return NULL;
    }
    return engine_push_common(self, self->now, args, nargs);
}

/* One node's delivery endpoint (see DeliveryPort below).  A message's
 * arrival event has the port itself as its callback. */
typedef struct {
    PyObject_HEAD
    PyObject *dispatch;    /* category -> handler dict */
    double service;
    PyObject *deliver_cb;  /* bound self.deliver */
} PortObject;

static PyTypeObject PortType;

/* _drain(until_or_None)
 *
 * Returns True when stopped early at `until` (clock set to `until`,
 * remaining events left queued), False when the heap drained completely.
 * `processed` is incremented before each callback so the count stays
 * exact when a callback raises, mirroring the Python try/finally.
 *
 * An arrival event (callback a DeliveryPort) makes no call: it goes back
 * on the heap as the port's delivery at now + service_us with the next
 * seq, keeping its (category, payload) tuple -- the event the Python
 * backend's _PyDeliveryPort.arrive schedules. */
static PyObject *
Engine_drain(EngineObject *self, PyObject *arg)
{
    int has_until = 0;
    double until = 0.0;

    if (arg != Py_None) {
        until = PyFloat_AsDouble(arg);
        if (until == -1.0 && PyErr_Occurred()) {
            return NULL;
        }
        has_until = 1;
    }

    while (self->n > 0) {
        double time = self->ev[0].time;
        PyObject *res;
        Ev ev;

        if (has_until && time > until) {
            self->now = until;
            Py_RETURN_TRUE;
        }
        ev = heap_pop(self);
        self->now = ev.time;
        self->processed++;
        if (Py_IS_TYPE(ev.cb, &PortType)) {
            PortObject *port = (PortObject *)ev.cb;

            /* the pop freed the slot this push refills */
            ev.time = self->now + port->service;
            ev.seq = self->seq++;
            ev.cb = Py_NewRef(port->deliver_cb);
            Py_DECREF(port);
            heap_push(self, ev);
        }
        else {
            if (ev.args != NULL) {
                res = PyObject_Call(ev.cb, ev.args, NULL);
            }
            else {
                res = PyObject_CallNoArgs(ev.cb);
            }
            Py_DECREF(ev.cb);
            Py_XDECREF(ev.args);
            if (res == NULL) {
                return NULL;
            }
            Py_DECREF(res);
        }
    }
    Py_RETURN_FALSE;
}

static PyObject *
Engine_get_now(EngineObject *self, void *closure)
{
    return PyFloat_FromDouble(self->now);
}

static int
Engine_set_now(EngineObject *self, PyObject *value, void *closure)
{
    double now;

    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete _now");
        return -1;
    }
    now = PyFloat_AsDouble(value);
    if (now == -1.0 && PyErr_Occurred()) {
        return -1;
    }
    self->now = now;
    return 0;
}

static PyObject *
Engine_get_processed(EngineObject *self, void *closure)
{
    return PyLong_FromLongLong(self->processed);
}

static int
Engine_set_processed(EngineObject *self, PyObject *value, void *closure)
{
    long long processed;

    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete events_processed");
        return -1;
    }
    processed = PyLong_AsLongLong(value);
    if (processed == -1 && PyErr_Occurred()) {
        return -1;
    }
    self->processed = processed;
    return 0;
}

static PyObject *
Engine_get_seq(EngineObject *self, void *closure)
{
    return PyLong_FromLongLong(self->seq);
}

static PyObject *
Engine_get_pending(EngineObject *self, void *closure)
{
    return PyLong_FromSsize_t(self->n);
}

static int
Engine_traverse(EngineObject *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->n; i++) {
        Py_VISIT(self->ev[i].cb);
        Py_VISIT(self->ev[i].args);
    }
    return 0;
}

static int
Engine_clear(EngineObject *self)
{
    Py_ssize_t n = self->n;

    self->n = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_CLEAR(self->ev[i].cb);
        Py_CLEAR(self->ev[i].args);
    }
    return 0;
}

static void
Engine_dealloc(EngineObject *self)
{
    PyObject_GC_UnTrack(self);
    Engine_clear(self);
    PyMem_Free(self->ev);
    self->ev = NULL;
    self->cap = 0;
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
Engine_init(EngineObject *self, PyObject *args, PyObject *kwds)
{
    if ((args != NULL && PyTuple_GET_SIZE(args) > 0) ||
        (kwds != NULL && PyDict_GET_SIZE(kwds) > 0)) {
        PyErr_SetString(PyExc_TypeError, "Engine() takes no arguments");
        return -1;
    }
    Engine_clear(self);
    self->now = 0.0;
    self->seq = 0;
    self->processed = 0;
    return 0;
}

static PyMethodDef Engine_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))Engine_schedule,
     METH_FASTCALL,
     "schedule(delay, callback, *args)\n--\n\n"
     "Run callback(*args) delay microseconds from now."},
    {"at", (PyCFunction)(void (*)(void))Engine_at, METH_FASTCALL,
     "at(time, callback, *args)\n--\n\n"
     "Run callback(*args) at absolute simulated time."},
    {"call_soon", (PyCFunction)(void (*)(void))Engine_call_soon,
     METH_FASTCALL,
     "call_soon(callback, *args)\n--\n\n"
     "Schedule callback(*args) at the current instant (after pending ties)."},
    {"_drain", (PyCFunction)Engine_drain, METH_O,
     "_drain(until)\n--\n\n"
     "Drain the heap; True when stopped early at `until`, False when empty."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef Engine_getset[] = {
    {"_now", (getter)Engine_get_now, (setter)Engine_set_now,
     "Current simulated time in microseconds.", NULL},
    {"now", (getter)Engine_get_now, NULL,
     "Current simulated time in microseconds.", NULL},
    {"events_processed", (getter)Engine_get_processed,
     (setter)Engine_set_processed,
     "Total events dispatched by this simulator.", NULL},
    {"_seq", (getter)Engine_get_seq, NULL,
     "Monotone tie-breaking sequence counter.", NULL},
    {"_pending", (getter)Engine_get_pending, NULL,
     "Number of events currently queued.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject EngineType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._kernel._kernelc.Engine",
    .tp_doc = "Compiled event-heap simulator core (time, seq)-ordered, "
              "subclassed by repro.sim.engine.CompiledSimulator.",
    .tp_basicsize = sizeof(EngineObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Engine_init,
    .tp_dealloc = (destructor)Engine_dealloc,
    .tp_traverse = (traverseproc)Engine_traverse,
    .tp_clear = (inquiry)Engine_clear,
    .tp_methods = Engine_methods,
    .tp_getset = Engine_getset,
};

/* ====================================================================== */
/* diff_arrays: the compute_diff scan                                      */
/* ====================================================================== */

/* Count pass + fill pass per element width.  Integer (and bool) dtypes
 * compare bitwise; float dtypes use the C != operator so NaN/-0.0
 * semantics match numpy's element-wise comparison exactly. */
#define DIFF_COUNT(CTYPE)                                                  \
    do {                                                                   \
        const CTYPE *ca = (const CTYPE *)a;                                \
        const CTYPE *cb = (const CTYPE *)b;                                \
        for (npy_intp i = 0; i < n; i++) {                                 \
            if (ca[i] != cb[i]) {                                          \
                nchanged++;                                                \
            }                                                              \
        }                                                                  \
    } while (0)

#define DIFF_FILL(CTYPE)                                                   \
    do {                                                                   \
        const CTYPE *ca = (const CTYPE *)a;                                \
        const CTYPE *cb = (const CTYPE *)b;                                \
        CTYPE *cv = (CTYPE *)values_data;                                  \
        npy_intp k = 0;                                                    \
        for (npy_intp i = 0; i < n; i++) {                                 \
            if (ca[i] != cb[i]) {                                          \
                if (k == 0 || indices_data[k - 1] + 1 != i) {              \
                    nruns++;                                               \
                }                                                          \
                indices_data[k] = i;                                       \
                cv[k] = ca[i];                                             \
                k++;                                                       \
            }                                                              \
        }                                                                  \
    } while (0)

enum diff_mode {
    DIFF_UNSUPPORTED = 0,
    DIFF_I8,
    DIFF_I16,
    DIFF_I32,
    DIFF_I64,
    DIFF_F32,
    DIFF_F64,
};

static enum diff_mode
diff_mode_for(int typenum, int itemsize)
{
    if (PyTypeNum_ISBOOL(typenum) || PyTypeNum_ISINTEGER(typenum)) {
        switch (itemsize) {
        case 1:
            return DIFF_I8;
        case 2:
            return DIFF_I16;
        case 4:
            return DIFF_I32;
        case 8:
            return DIFF_I64;
        default:
            return DIFF_UNSUPPORTED;
        }
    }
    if (typenum == NPY_FLOAT32) {
        return DIFF_F32;
    }
    if (typenum == NPY_FLOAT64) {
        return DIFF_F64;
    }
    return DIFF_UNSUPPORTED;
}

static PyObject *
diff_arrays(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    PyArrayObject *cur, *twin;
    const char *a, *b;
    npy_intp n, nchanged = 0, nruns = 0;
    npy_intp *indices_data;
    char *values_data;
    int typenum, itemsize;
    enum diff_mode mode;
    PyObject *indices = NULL, *values = NULL, *result;

    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "diff_arrays() requires (current, twin)");
        return NULL;
    }
    if (!PyArray_Check(args[0]) || !PyArray_Check(args[1])) {
        Py_RETURN_NOTIMPLEMENTED;
    }
    cur = (PyArrayObject *)args[0];
    twin = (PyArrayObject *)args[1];
    if (PyArray_NDIM(cur) != 1 || PyArray_NDIM(twin) != 1) {
        Py_RETURN_NOTIMPLEMENTED;
    }
    typenum = PyArray_TYPE(cur);
    if (PyArray_TYPE(twin) != typenum) {
        Py_RETURN_NOTIMPLEMENTED;
    }
    n = PyArray_DIM(cur, 0);
    if (PyArray_DIM(twin, 0) != n) {
        Py_RETURN_NOTIMPLEMENTED;
    }
    if (!PyArray_ISCARRAY_RO(cur) || !PyArray_ISCARRAY_RO(twin) ||
        !PyArray_ISNOTSWAPPED(cur) || !PyArray_ISNOTSWAPPED(twin)) {
        Py_RETURN_NOTIMPLEMENTED;
    }
    itemsize = (int)PyArray_ITEMSIZE(cur);
    mode = diff_mode_for(typenum, itemsize);
    if (mode == DIFF_UNSUPPORTED) {
        Py_RETURN_NOTIMPLEMENTED;
    }
    a = PyArray_BYTES(cur);
    b = PyArray_BYTES(twin);

    switch (mode) {
    case DIFF_I8:
        DIFF_COUNT(npy_uint8);
        break;
    case DIFF_I16:
        DIFF_COUNT(npy_uint16);
        break;
    case DIFF_I32:
        DIFF_COUNT(npy_uint32);
        break;
    case DIFF_I64:
        DIFF_COUNT(npy_uint64);
        break;
    case DIFF_F32:
        DIFF_COUNT(npy_float);
        break;
    case DIFF_F64:
        DIFF_COUNT(npy_double);
        break;
    default:
        Py_RETURN_NOTIMPLEMENTED;
    }

    if (nchanged == 0) {
        Py_RETURN_NONE;
    }

    indices = PyArray_SimpleNew(1, &nchanged, NPY_INTP);
    if (indices == NULL) {
        return NULL;
    }
    values = PyArray_SimpleNew(1, &nchanged, typenum);
    if (values == NULL) {
        Py_DECREF(indices);
        return NULL;
    }
    indices_data = (npy_intp *)PyArray_BYTES((PyArrayObject *)indices);
    values_data = PyArray_BYTES((PyArrayObject *)values);

    switch (mode) {
    case DIFF_I8:
        DIFF_FILL(npy_uint8);
        break;
    case DIFF_I16:
        DIFF_FILL(npy_uint16);
        break;
    case DIFF_I32:
        DIFF_FILL(npy_uint32);
        break;
    case DIFF_I64:
        DIFF_FILL(npy_uint64);
        break;
    case DIFF_F32:
        DIFF_FILL(npy_float);
        break;
    case DIFF_F64:
        DIFF_FILL(npy_double);
        break;
    default:
        break;
    }

    result = Py_BuildValue("(NNn)", indices, values, (Py_ssize_t)nruns);
    return result;
}

/* ====================================================================== */
/* adaptive_threshold: Equation 2                                          */
/* ====================================================================== */

static PyObject *
kernel_adaptive_threshold(PyObject *mod, PyObject *const *args,
                          Py_ssize_t nargs)
{
    double base, redirections, exclusive, alpha, lam, t_init, result;

    if (nargs != 6) {
        PyErr_SetString(
            PyExc_TypeError,
            "adaptive_threshold() requires (base, redirections, "
            "exclusive_home_writes, alpha, lam, t_init)");
        return NULL;
    }
    base = PyFloat_AsDouble(args[0]);
    if (base == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    redirections = PyFloat_AsDouble(args[1]);
    if (redirections == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    exclusive = PyFloat_AsDouble(args[2]);
    if (exclusive == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    alpha = PyFloat_AsDouble(args[3]);
    if (alpha == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    lam = PyFloat_AsDouble(args[4]);
    if (lam == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    t_init = PyFloat_AsDouble(args[5]);
    if (t_init == -1.0 && PyErr_Occurred()) {
        return NULL;
    }

    if (base < t_init) {
        PyErr_Format(PyExc_ValueError, "threshold base %S below floor %S",
                     args[0], args[5]);
        return NULL;
    }
    if (redirections < 0.0 || exclusive < 0.0) {
        PyErr_Format(PyExc_ValueError,
                     "feedback counters must be non-negative, got R=%S, E=%S",
                     args[1], args[2]);
        return NULL;
    }
    if (alpha <= 0.0) {
        PyErr_Format(PyExc_ValueError, "alpha must be positive, got %S",
                     args[3]);
        return NULL;
    }
    if (lam < 0.0) {
        PyErr_Format(PyExc_ValueError, "lambda must be non-negative, got %S",
                     args[4]);
        return NULL;
    }

    /* Same IEEE-754 operation order as the Python expression:
     * base + lam * (R - alpha * E), floored at t_init. */
    result = base + lam * (redirections - alpha * exclusive);
    if (result < t_init) {
        result = t_init;
    }
    return PyFloat_FromDouble(result);
}

/* ====================================================================== */
/* Protocol fast paths                                                     */
/*                                                                         */
/* C twins of the per-access and per-message protocol bodies: the          */
/* try_read_local / try_write_local hit paths (LocalAccess, reading the    */
/* flat CacheIndex slots directly), the fused thread accessor, the reply   */
/* router, and the network send + delivery boundary (NetFabric /           */
/* DeliveryPort / FabricSender).  Each reproduces the pure-Python          */
/* semantics bit for bit; cold paths fall back to the bound Python         */
/* methods.                                                                */
/* ====================================================================== */

/* obj.name += 1 through the attribute protocol (plain-int counters on
 * dataclass monitors). */
static int
attr_incr(PyObject *obj, PyObject *name)
{
    PyObject *cur = PyObject_GetAttr(obj, name);
    PyObject *next;
    int rc;

    if (cur == NULL) {
        return -1;
    }
    next = PyNumber_Add(cur, one_long);
    Py_DECREF(cur);
    if (next == NULL) {
        return -1;
    }
    rc = PyObject_SetAttr(obj, name, next);
    Py_DECREF(next);
    return rc;
}

/* counter[key] += delta with collections.Counter semantics: a missing key
 * reads as 0 (__missing__ does not insert), and the sum is computed with
 * PyNumber_Add so numpy integer operands keep their dtype exactly as in
 * the Python `+=`. */
static int
counter_add(PyObject *counter, PyObject *key, PyObject *delta)
{
    PyObject *cur = PyDict_GetItemWithError(counter, key);
    PyObject *sum;
    int rc;

    if (cur == NULL) {
        if (PyErr_Occurred()) {
            return -1;
        }
        sum = PyNumber_Add(zero_long, delta);
    }
    else {
        Py_INCREF(cur);
        sum = PyNumber_Add(cur, delta);
        Py_DECREF(cur);
    }
    if (sum == NULL) {
        return -1;
    }
    rc = PyDict_SetItem(counter, key, sum);
    Py_DECREF(sum);
    return rc;
}

/* ---------------------------------------------------------------------- */
/* LocalAccess: try_read_local / try_write_local hit paths                 */
/* ---------------------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    PyObject *engine;       /* protocol engine, owned */
    PyObject *homes;        /* engine.homes dict */
    PyObject *index;        /* engine.cache._index dict (never rebound) */
    PyObject *slots;        /* engine.cache._slots list (never rebound) */
    PyObject *dirty;        /* engine.dirty set */
    PyObject *home_dirty;   /* engine.home_dirty set */
    PyObject *events;       /* engine.stats.events Counter (dict subclass) */
    PyObject *arena;        /* engine.arena (twin pool) */
    PyObject *py_read;      /* bound pure-Python try_read_local */
    PyObject *py_write;     /* bound pure-Python try_write_local */
    PyObject *invalid_mode; /* AccessMode.INVALID (identity-compared) */
    PyObject *write_mode;   /* AccessMode.WRITE */
    int fast_cache_write;
} LocalAccessObject;

static int
LocalAccess_init(LocalAccessObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *engine, *invalid_mode, *write_mode, *cache;
    int fast_cache_write;

    if (kwds != NULL && PyDict_GET_SIZE(kwds) > 0) {
        PyErr_SetString(PyExc_TypeError,
                        "LocalAccess() takes no keyword arguments");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "OOOp:LocalAccess", &engine, &invalid_mode,
                          &write_mode, &fast_cache_write)) {
        return -1;
    }
    Py_INCREF(engine);
    Py_XSETREF(self->engine, engine);
    Py_INCREF(invalid_mode);
    Py_XSETREF(self->invalid_mode, invalid_mode);
    Py_INCREF(write_mode);
    Py_XSETREF(self->write_mode, write_mode);
    self->fast_cache_write = fast_cache_write;

    Py_XSETREF(self->homes, PyObject_GetAttr(engine, str_homes));
    if (self->homes == NULL || !PyDict_Check(self->homes)) {
        goto bad_engine;
    }
    cache = PyObject_GetAttr(engine, str_cache);
    if (cache == NULL) {
        return -1;
    }
    Py_XSETREF(self->index, PyObject_GetAttr(cache, str_index));
    Py_XSETREF(self->slots, PyObject_GetAttr(cache, str_slots));
    Py_DECREF(cache);
    if (self->index == NULL || !PyDict_Check(self->index) ||
        self->slots == NULL || !PyList_Check(self->slots)) {
        goto bad_engine;
    }
    Py_XSETREF(self->dirty, PyObject_GetAttr(engine, str_dirty));
    Py_XSETREF(self->home_dirty, PyObject_GetAttr(engine, str_home_dirty));
    if (self->dirty == NULL || !PyAnySet_Check(self->dirty) ||
        self->home_dirty == NULL || !PyAnySet_Check(self->home_dirty)) {
        goto bad_engine;
    }
    {
        PyObject *stats = PyObject_GetAttr(engine, str_stats);
        if (stats == NULL) {
            return -1;
        }
        Py_XSETREF(self->events, PyObject_GetAttr(stats, str_events));
        Py_DECREF(stats);
    }
    if (self->events == NULL || !PyDict_Check(self->events)) {
        goto bad_engine;
    }
    Py_XSETREF(self->arena, PyObject_GetAttr(engine, str_arena));
    if (self->arena == NULL) {
        return -1;
    }
    /* The bound class methods, captured before the engine shadows them
     * with this object's fast entry points. */
    Py_XSETREF(self->py_read, PyObject_GetAttr(engine, str_try_read_local));
    Py_XSETREF(self->py_write, PyObject_GetAttr(engine, str_try_write_local));
    if (self->py_read == NULL || self->py_write == NULL) {
        return -1;
    }
    return 0;

bad_engine:
    if (!PyErr_Occurred()) {
        PyErr_SetString(PyExc_TypeError,
                        "LocalAccess() requires a protocol engine with dict "
                        "homes, a CacheIndex cache, and set dirty tracking");
    }
    return -1;
}

static PyObject *
local_cache_entry(LocalAccessObject *self, PyObject *oid)
{
    /* Borrowed live CacheEntry, Py_None for a dead/absent slot, NULL on
     * error. */
    PyObject *slot = PyDict_GetItemWithError(self->index, oid);
    Py_ssize_t i;

    if (slot == NULL) {
        if (PyErr_Occurred()) {
            return NULL;
        }
        return Py_None;
    }
    i = PyLong_AsSsize_t(slot);
    if (i == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (i < 0 || i >= PyList_GET_SIZE(self->slots)) {
        PyErr_Format(PyExc_IndexError,
                     "cache index slot %zd out of range", i);
        return NULL;
    }
    return PyList_GET_ITEM(self->slots, i);
}

/* Home-copy read hit, including the once-per-interval read trap
 * (trap_home_read + record_home_read inlined).  `home` is borrowed and
 * kept alive by the caller; returns a new payload reference. */
static PyObject *
la_home_read(LocalAccessObject *self, PyObject *home)
{
    PyObject *iv, *ri, *state;
    int hit;

    iv = PyObject_GetAttr(self->engine, str_interval);
    if (iv == NULL) {
        return NULL;
    }
    ri = PyObject_GetAttr(home, str_read_interval);
    if (ri == NULL) {
        goto fail;
    }
    hit = PyObject_RichCompareBool(ri, iv, Py_EQ);
    Py_DECREF(ri);
    if (hit < 0) {
        goto fail;
    }
    if (!hit) {
        /* trap_home_read: mark this interval, bump the monitor count. */
        if (PyObject_SetAttr(home, str_read_interval, iv) < 0) {
            goto fail;
        }
        state = PyObject_GetAttr(home, str_state);
        if (state == NULL) {
            goto fail;
        }
        if (attr_incr(state, str_home_reads) < 0) {
            Py_DECREF(state);
            goto fail;
        }
        Py_DECREF(state);
    }
    Py_DECREF(iv);
    return PyObject_GetAttr(home, str_payload);

fail:
    Py_DECREF(iv);
    return NULL;
}

/* Home-copy write hit, including the once-per-interval write trap
 * (trap_home_write + record_home_write + the home_write /
 * exclusive_home_write stats, all inlined). */
static PyObject *
la_home_write(LocalAccessObject *self, PyObject *oid, PyObject *home)
{
    PyObject *iv, *wi, *state, *last;
    int hit, exclusive;

    iv = PyObject_GetAttr(self->engine, str_interval);
    if (iv == NULL) {
        return NULL;
    }
    wi = PyObject_GetAttr(home, str_write_interval);
    if (wi == NULL) {
        goto fail;
    }
    hit = PyObject_RichCompareBool(wi, iv, Py_EQ);
    Py_DECREF(wi);
    if (hit < 0) {
        goto fail;
    }
    if (!hit) {
        if (PyObject_SetAttr(home, str_write_interval, iv) < 0) {
            goto fail;
        }
        state = PyObject_GetAttr(home, str_state);
        if (state == NULL) {
            goto fail;
        }
        /* record_home_write: E bumps only when no remote write broke the
         * home-write chain (last_writer still HOME_WRITER == -1). */
        if (attr_incr(state, str_home_writes) < 0) {
            goto fail_state;
        }
        last = PyObject_GetAttr(state, str_last_writer);
        if (last == NULL) {
            goto fail_state;
        }
        exclusive = PyObject_RichCompareBool(last, minus_one_long, Py_EQ);
        Py_DECREF(last);
        if (exclusive < 0) {
            goto fail_state;
        }
        if (exclusive &&
            attr_incr(state, str_exclusive_home_writes) < 0) {
            goto fail_state;
        }
        if (PyObject_SetAttr(state, str_last_writer, minus_one_long) < 0 ||
            PyObject_SetAttr(state, str_consecutive_writes, zero_long) < 0 ||
            PyObject_SetAttr(state, str_consecutive_writer, Py_None) < 0) {
            goto fail_state;
        }
        Py_DECREF(state);
        if (counter_add(self->events, ev_home_write, one_long) < 0) {
            goto fail;
        }
        if (exclusive &&
            counter_add(self->events, ev_exclusive_home_write,
                        one_long) < 0) {
            goto fail;
        }
    }
    Py_DECREF(iv);
    if (PySet_Add(self->home_dirty, oid) < 0) {
        return NULL;
    }
    return PyObject_GetAttr(home, str_payload);

fail_state:
    Py_DECREF(state);
fail:
    Py_DECREF(iv);
    return NULL;
}

static PyObject *
LocalAccess_try_read(LocalAccessObject *self, PyObject *oid)
{
    PyObject *home, *entry, *mode, *payload;

    home = PyDict_GetItemWithError(self->homes, oid);
    if (home == NULL && PyErr_Occurred()) {
        return NULL;
    }
    if (home != NULL) {
        Py_INCREF(home);
        payload = la_home_read(self, home);
        Py_DECREF(home);
        return payload;
    }
    entry = local_cache_entry(self, oid);
    if (entry == NULL) {
        return NULL;
    }
    if (entry == Py_None) {
        Py_RETURN_NONE;
    }
    mode = PyObject_GetAttr(entry, str_mode);
    if (mode == NULL) {
        return NULL;
    }
    if (mode == self->invalid_mode) {
        Py_DECREF(mode);
        Py_RETURN_NONE;
    }
    Py_DECREF(mode);
    payload = PyObject_GetAttr(entry, str_payload);
    return payload;
}

static PyObject *
LocalAccess_try_write(LocalAccessObject *self, PyObject *oid)
{
    PyObject *home, *entry, *mode, *payload;

    home = PyDict_GetItemWithError(self->homes, oid);
    if (home == NULL && PyErr_Occurred()) {
        return NULL;
    }
    if (home != NULL) {
        Py_INCREF(home);
        payload = la_home_write(self, oid, home);
        Py_DECREF(home);
        return payload;
    }
    entry = local_cache_entry(self, oid);
    if (entry == NULL) {
        return NULL;
    }
    if (entry == Py_None) {
        Py_RETURN_NONE;
    }
    Py_INCREF(entry);
    mode = PyObject_GetAttr(entry, str_mode);
    if (mode == NULL) {
        Py_DECREF(entry);
        return NULL;
    }
    if (mode == self->invalid_mode) {
        Py_DECREF(mode);
        Py_DECREF(entry);
        Py_RETURN_NONE;
    }
    if (!self->fast_cache_write) {
        /* Tracer armed: twin-create tracing needs the Python body. */
        Py_DECREF(mode);
        Py_DECREF(entry);
        return PyObject_CallOneArg(self->py_write, oid);
    }
    if (mode != self->write_mode) {
        /* READ copy: snapshot the twin and upgrade (arena-pooled), then
         * continue on the common dirty-mark path below. */
        PyObject *r = PyObject_CallMethodObjArgs(
            entry, str_upgrade_to_write, self->arena, NULL);
        if (r == NULL) {
            Py_DECREF(mode);
            Py_DECREF(entry);
            return NULL;
        }
        Py_DECREF(r);
    }
    Py_DECREF(mode);
    if (PySet_Add(self->dirty, oid) < 0) {
        Py_DECREF(entry);
        return NULL;
    }
    payload = PyObject_GetAttr(entry, str_payload);
    Py_DECREF(entry);
    return payload;
}

static int
LocalAccess_traverse(LocalAccessObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->engine);
    Py_VISIT(self->homes);
    Py_VISIT(self->index);
    Py_VISIT(self->slots);
    Py_VISIT(self->dirty);
    Py_VISIT(self->home_dirty);
    Py_VISIT(self->events);
    Py_VISIT(self->arena);
    Py_VISIT(self->py_read);
    Py_VISIT(self->py_write);
    Py_VISIT(self->invalid_mode);
    Py_VISIT(self->write_mode);
    return 0;
}

static int
LocalAccess_clear_gc(LocalAccessObject *self)
{
    Py_CLEAR(self->engine);
    Py_CLEAR(self->homes);
    Py_CLEAR(self->index);
    Py_CLEAR(self->slots);
    Py_CLEAR(self->dirty);
    Py_CLEAR(self->home_dirty);
    Py_CLEAR(self->events);
    Py_CLEAR(self->arena);
    Py_CLEAR(self->py_read);
    Py_CLEAR(self->py_write);
    Py_CLEAR(self->invalid_mode);
    Py_CLEAR(self->write_mode);
    return 0;
}

static void
LocalAccess_dealloc(LocalAccessObject *self)
{
    PyObject_GC_UnTrack(self);
    LocalAccess_clear_gc(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef LocalAccess_methods[] = {
    {"try_read", (PyCFunction)LocalAccess_try_read, METH_O,
     "try_read(oid)\n--\n\n"
     "Serve a local read hit (home or valid cached copy); None on miss. "
     "Cold paths (trap bookkeeping) fall back to the Python body."},
    {"try_write", (PyCFunction)LocalAccess_try_write, METH_O,
     "try_write(oid)\n--\n\n"
     "Serve a local write hit; None on miss.  Twin creation and trap "
     "bookkeeping fall back to the Python body."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject LocalAccessType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._kernel._kernelc.LocalAccess",
    .tp_doc = "Compiled try_read_local/try_write_local hit paths over the "
              "flat CacheIndex of one protocol engine.",
    .tp_basicsize = sizeof(LocalAccessObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)LocalAccess_init,
    .tp_dealloc = (destructor)LocalAccess_dealloc,
    .tp_traverse = (traverseproc)LocalAccess_traverse,
    .tp_clear = (inquiry)LocalAccess_clear_gc,
    .tp_methods = LocalAccess_methods,
};

/* ---------------------------------------------------------------------- */
/* Ready: an already-resolved ``yield from`` target                        */
/* ---------------------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    PyObject *value; /* owned; NULL once consumed */
} ReadyObject;

static int
Ready_init(ReadyObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *value;

    if (kwds != NULL && PyDict_GET_SIZE(kwds) > 0) {
        PyErr_SetString(PyExc_TypeError,
                        "Ready() takes no keyword arguments");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "O:Ready", &value)) {
        return -1;
    }
    Py_INCREF(value);
    Py_XSETREF(self->value, value);
    return 0;
}

static PyObject *
Ready_iter(PyObject *self)
{
    Py_INCREF(self);
    return self;
}

static PyObject *
Ready_iternext(ReadyObject *self)
{
    PyObject *value = self->value;

    if (value != NULL) {
        self->value = NULL;
        if (value != Py_None) {
            /* Build the StopIteration instance explicitly: raw
             * PyErr_SetObject would unpack tuple values into separate
             * exception args. */
            PyObject *exc = PyObject_CallOneArg(PyExc_StopIteration, value);
            if (exc != NULL) {
                PyErr_SetObject(PyExc_StopIteration, exc);
                Py_DECREF(exc);
            }
        }
        Py_DECREF(value);
    }
    return NULL;
}

static int
Ready_traverse(ReadyObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->value);
    return 0;
}

static int
Ready_clear_gc(ReadyObject *self)
{
    Py_CLEAR(self->value);
    return 0;
}

static void
Ready_dealloc(ReadyObject *self)
{
    PyObject_GC_UnTrack(self);
    Ready_clear_gc(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyTypeObject ReadyType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._kernel._kernelc.Ready",
    .tp_doc = "Single-use iterator that immediately raises "
              "StopIteration(value): the zero-event ``yield from`` target "
              "for local access hits, sparing a generator per call.",
    .tp_basicsize = sizeof(ReadyObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Ready_init,
    .tp_dealloc = (destructor)Ready_dealloc,
    .tp_traverse = (traverseproc)Ready_traverse,
    .tp_clear = (inquiry)Ready_clear_gc,
    .tp_iter = Ready_iter,
    .tp_iternext = (iternextfunc)Ready_iternext,
};

/* ---------------------------------------------------------------------- */
/* Accessor: fused ThreadContext.read / ThreadContext.write fast path      */
/* ---------------------------------------------------------------------- */

/* One C call replaces the whole Python access wrapper: fetch ``obj.oid``,
 * probe the LocalAccess hit path, and either wrap the payload in a Ready
 * (hit) or delegate to the engine's miss generator.  Side effects are the
 * wrapper's exactly — same probe, same miss call, same iterator type. */
typedef struct {
    PyObject_HEAD
    PyObject *la;         /* kernel LocalAccess, owned */
    PyObject *miss_read;  /* bound engine.read (miss generator) */
    PyObject *miss_write; /* bound engine.write (miss generator) */
} AccessorObject;

static PyTypeObject AccessorType; /* forward */

static int
Accessor_init(AccessorObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *la, *miss_read, *miss_write;

    if (kwds != NULL && PyDict_GET_SIZE(kwds) > 0) {
        PyErr_SetString(PyExc_TypeError,
                        "Accessor() takes no keyword arguments");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "O!OO:Accessor", &LocalAccessType, &la,
                          &miss_read, &miss_write)) {
        return -1;
    }
    Py_INCREF(la);
    Py_XSETREF(self->la, la);
    Py_INCREF(miss_read);
    Py_XSETREF(self->miss_read, miss_read);
    Py_INCREF(miss_write);
    Py_XSETREF(self->miss_write, miss_write);
    return 0;
}

/* Steal ``payload`` into a fresh Ready iterator. */
static PyObject *
accessor_ready(PyObject *payload)
{
    ReadyObject *ready = PyObject_GC_New(ReadyObject, &ReadyType);

    if (ready == NULL) {
        Py_DECREF(payload);
        return NULL;
    }
    ready->value = payload;
    PyObject_GC_Track((PyObject *)ready);
    return (PyObject *)ready;
}

static PyObject *
Accessor_read(AccessorObject *self, PyObject *obj)
{
    PyObject *oid, *payload, *gen;

    oid = PyObject_GetAttr(obj, str_oid);
    if (oid == NULL) {
        return NULL;
    }
    payload = LocalAccess_try_read((LocalAccessObject *)self->la, oid);
    if (payload == NULL) {
        Py_DECREF(oid);
        return NULL;
    }
    if (payload == Py_None) {
        Py_DECREF(payload);
        gen = PyObject_CallOneArg(self->miss_read, oid);
        Py_DECREF(oid);
        return gen;
    }
    Py_DECREF(oid);
    return accessor_ready(payload);
}

static PyObject *
Accessor_write(AccessorObject *self, PyObject *obj)
{
    PyObject *oid, *payload, *gen;

    oid = PyObject_GetAttr(obj, str_oid);
    if (oid == NULL) {
        return NULL;
    }
    payload = LocalAccess_try_write((LocalAccessObject *)self->la, oid);
    if (payload == NULL) {
        Py_DECREF(oid);
        return NULL;
    }
    if (payload == Py_None) {
        Py_DECREF(payload);
        gen = PyObject_CallOneArg(self->miss_write, oid);
        Py_DECREF(oid);
        return gen;
    }
    Py_DECREF(oid);
    return accessor_ready(payload);
}

static int
Accessor_traverse(AccessorObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->la);
    Py_VISIT(self->miss_read);
    Py_VISIT(self->miss_write);
    return 0;
}

static int
Accessor_clear_gc(AccessorObject *self)
{
    Py_CLEAR(self->la);
    Py_CLEAR(self->miss_read);
    Py_CLEAR(self->miss_write);
    return 0;
}

static void
Accessor_dealloc(AccessorObject *self)
{
    PyObject_GC_UnTrack(self);
    Accessor_clear_gc(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef Accessor_methods[] = {
    {"read", (PyCFunction)Accessor_read, METH_O,
     "read(obj) -> Ready | miss generator.  The ThreadContext.read body "
     "in one C call."},
    {"write", (PyCFunction)Accessor_write, METH_O,
     "write(obj) -> Ready | miss generator.  The ThreadContext.write body "
     "in one C call."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject AccessorType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._kernel._kernelc.Accessor",
    .tp_doc = "Fused ThreadContext access fast path: oid fetch + local "
              "probe + Ready wrap (hit) or miss-generator delegation, "
              "without a Python frame.",
    .tp_basicsize = sizeof(AccessorObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Accessor_init,
    .tp_dealloc = (destructor)Accessor_dealloc,
    .tp_traverse = (traverseproc)Accessor_traverse,
    .tp_clear = (inquiry)Accessor_clear_gc,
    .tp_methods = Accessor_methods,
};

/* ---------------------------------------------------------------------- */
/* ReplyRouter: pop-and-resolve reply dispatch                             */
/* ---------------------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    PyObject *waiters; /* request_id -> Future dict, owned, never rebound */
} RouterObject;

static PyObject *
Router_vectorcall(PyObject *op, PyObject *const *args, size_t nargsf,
                  PyObject *kwnames)
{
    RouterObject *self = (RouterObject *)op;
    PyObject *payload, *rid, *fut, *res;

    if (kwnames != NULL && PyTuple_GET_SIZE(kwnames) > 0) {
        PyErr_SetString(PyExc_TypeError,
                        "ReplyRouter takes no keyword arguments");
        return NULL;
    }
    if (PyVectorcall_NARGS(nargsf) != 1) {
        PyErr_Format(PyExc_TypeError,
                     "ReplyRouter expects exactly one payload, got %zd",
                     PyVectorcall_NARGS(nargsf));
        return NULL;
    }
    payload = args[0];
    rid = PyObject_GetAttr(payload, str_request_id);
    if (rid == NULL) {
        return NULL;
    }
    fut = PyDict_GetItemWithError(self->waiters, rid);
    if (fut == NULL) {
        if (!PyErr_Occurred()) {
            /* identical failure to dict.pop without default */
            PyErr_SetObject(PyExc_KeyError, rid);
        }
        Py_DECREF(rid);
        return NULL;
    }
    Py_INCREF(fut);
    if (PyDict_DelItem(self->waiters, rid) < 0) {
        Py_DECREF(fut);
        Py_DECREF(rid);
        return NULL;
    }
    Py_DECREF(rid);
    res = PyObject_CallMethodObjArgs(fut, str_resolve, payload, NULL);
    Py_DECREF(fut);
    return res;
}

static int
Router_init(RouterObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *waiters;

    if (kwds != NULL && PyDict_GET_SIZE(kwds) > 0) {
        PyErr_SetString(PyExc_TypeError,
                        "ReplyRouter() takes no keyword arguments");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "O!:ReplyRouter", &PyDict_Type, &waiters)) {
        return -1;
    }
    Py_INCREF(waiters);
    Py_XSETREF(self->waiters, waiters);
    self->vectorcall = Router_vectorcall;
    return 0;
}

static int
Router_traverse(RouterObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->waiters);
    return 0;
}

static int
Router_clear_gc(RouterObject *self)
{
    Py_CLEAR(self->waiters);
    return 0;
}

static void
Router_dealloc(RouterObject *self)
{
    PyObject_GC_UnTrack(self);
    Router_clear_gc(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyTypeObject RouterType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._kernel._kernelc.ReplyRouter",
    .tp_doc = "Callable reply handler: pops the waiter future keyed by "
              "payload.request_id and resolves it with the payload "
              "(the C twin of _resolve_reply).",
    .tp_basicsize = sizeof(RouterObject),
    .tp_vectorcall_offset = offsetof(RouterObject, vectorcall),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Router_init,
    .tp_call = PyVectorcall_Call,
    .tp_dealloc = (destructor)Router_dealloc,
    .tp_traverse = (traverseproc)Router_traverse,
    .tp_clear = (inquiry)Router_clear_gc,
};

/* ---------------------------------------------------------------------- */
/* DeliveryPort: per-node message delivery                                 */
/* ---------------------------------------------------------------------- */

/* deliver(category, payload): run the node's handler for one message. */
static PyObject *
Port_deliver(PortObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *handler, *res;

    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "deliver() requires (category, payload)");
        return NULL;
    }
    handler = PyDict_GetItemWithError(self->dispatch, args[0]);
    if (handler == NULL) {
        if (!PyErr_Occurred()) {
            PyErr_Format(PyExc_RuntimeError,
                         "unhandled message category %R", args[0]);
        }
        return NULL;
    }
    Py_INCREF(handler);
    res = PyObject_CallOneArg(handler, args[1]);
    Py_DECREF(handler);
    return res;
}

static int
Port_traverse(PortObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->dispatch);
    Py_VISIT(self->deliver_cb);
    return 0;
}

static int
Port_clear_gc(PortObject *self)
{
    Py_CLEAR(self->dispatch);
    Py_CLEAR(self->deliver_cb);
    return 0;
}

static void
Port_dealloc(PortObject *self)
{
    PyObject_GC_UnTrack(self);
    Port_clear_gc(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef Port_methods[] = {
    {"deliver", (PyCFunction)(void (*)(void))Port_deliver, METH_FASTCALL,
     "deliver(category, payload)\n--\n\n"
     "Run this node's handler for one message."},
    {NULL, NULL, 0, NULL},
};

static int
Port_init(PortObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *dispatch;
    double service;

    if (kwds != NULL && PyDict_GET_SIZE(kwds) > 0) {
        PyErr_SetString(PyExc_TypeError,
                        "DeliveryPort() takes no keyword arguments");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "O!d:DeliveryPort", &PyDict_Type, &dispatch,
                          &service)) {
        return -1;
    }
    if (service < 0.0) {
        PyErr_SetString(PyExc_ValueError, "service_us must be >= 0");
        return -1;
    }
    Py_INCREF(dispatch);
    Py_XSETREF(self->dispatch, dispatch);
    self->service = service;
    Py_XSETREF(self->deliver_cb,
               PyObject_GetAttrString((PyObject *)self, "deliver"));
    return self->deliver_cb == NULL ? -1 : 0;
}

static PyTypeObject PortType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._kernel._kernelc.DeliveryPort",
    .tp_doc = "Delivery endpoint for one node: an arrival event whose "
              "callback is the port is re-queued by Engine._drain as one "
              "deliver() event service_us later.",
    .tp_basicsize = sizeof(PortObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Port_init,
    .tp_dealloc = (destructor)Port_dealloc,
    .tp_traverse = (traverseproc)Port_traverse,
    .tp_clear = (inquiry)Port_clear_gc,
    .tp_methods = Port_methods,
};

/* ---------------------------------------------------------------------- */
/* NetFabric + FabricSender: the compiled network send path                */
/* ---------------------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    EngineObject *engine;  /* owned */
    PyObject *msg_count;   /* ClusterStats Counter (dict subclass) */
    PyObject *msg_bytes;
    PyObject *ports;       /* list of DeliveryPort, one per node */
    double *nic_free;
    Py_ssize_t nnodes;
    double startup_us;
    double bandwidth;
    PyObject *header_obj;  /* HEADER_BYTES as PyLong */
    long long header_ll;
    /* Optional class-compressed topology (PROTOCOL.md §15), owned copies:
     * topo_ids[t * nnodes + node] is node's switch group at tier t
     * (innermost first); a pair differing at k tiers is class k and costs
     * topo_cost[2k] extra hop us, topo_cost[2k + 1] bandwidth penalty
     * (link_free rides in the same block).  topo_ids == NULL is the flat
     * switch. */
    int topo_contention;
    Py_ssize_t topo_levels;
    long long *topo_ids;
    double *topo_cost, *link_free;
} FabricObject;

static int
Fabric_init(FabricObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *engine, *msg_count, *msg_bytes, *nic, *fast;
    double startup, bandwidth;
    long long header;
    Py_ssize_t nnodes;
    double *nic_free;

    if (kwds != NULL && PyDict_GET_SIZE(kwds) > 0) {
        PyErr_SetString(PyExc_TypeError,
                        "NetFabric() takes no keyword arguments");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "O!O!O!ddLO:NetFabric", &EngineType, &engine,
                          &PyDict_Type, &msg_count, &PyDict_Type, &msg_bytes,
                          &startup, &bandwidth, &header, &nic)) {
        return -1;
    }
    if (bandwidth <= 0.0) {
        PyErr_SetString(PyExc_ValueError, "bandwidth_mb_s must be positive");
        return -1;
    }
    fast = PySequence_Fast(nic, "nic_free must be a sequence");
    if (fast == NULL) {
        return -1;
    }
    nnodes = PySequence_Fast_GET_SIZE(fast);
    nic_free = PyMem_Malloc((size_t)(nnodes > 0 ? nnodes : 1) *
                            sizeof(double));
    if (nic_free == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < nnodes; i++) {
        nic_free[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(fast, i));
        if (nic_free[i] == -1.0 && PyErr_Occurred()) {
            Py_DECREF(fast);
            PyMem_Free(nic_free);
            return -1;
        }
    }
    Py_DECREF(fast);

    Py_INCREF(engine);
    Py_XSETREF(self->engine, (EngineObject *)engine);
    Py_INCREF(msg_count);
    Py_XSETREF(self->msg_count, msg_count);
    Py_INCREF(msg_bytes);
    Py_XSETREF(self->msg_bytes, msg_bytes);
    Py_XSETREF(self->ports, PyList_New(0));
    if (self->ports == NULL) {
        PyMem_Free(nic_free);
        return -1;
    }
    PyMem_Free(self->nic_free);
    self->nic_free = nic_free;
    self->nnodes = nnodes;
    self->startup_us = startup;
    self->bandwidth = bandwidth;
    self->header_ll = header;
    Py_XSETREF(self->header_obj, PyLong_FromLongLong(header));
    if (self->header_obj == NULL) {
        return -1;
    }
    return 0;
}

static PyObject *
Fabric_add_port(FabricObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *port;

    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "add_port() requires (dispatch, service_us)");
        return NULL;
    }
    if (PyList_GET_SIZE(self->ports) >= self->nnodes) {
        PyErr_SetString(PyExc_RuntimeError,
                        "add_port() called more times than nnodes");
        return NULL;
    }
    port = PyObject_CallFunction((PyObject *)&PortType, "Od", args[0],
                                 PyFloat_AsDouble(args[1]));
    if (port == NULL) {
        return NULL;
    }
    if (PyList_Append(self->ports, port) < 0) {
        Py_DECREF(port);
        return NULL;
    }
    return port;
}

/* Data of a C-contiguous native array of this dtype and length, or NULL
 * with a ValueError naming it. */
static const void *
fabric_array(PyObject *obj, int typenum, Py_ssize_t length, const char *what)
{
    PyArrayObject *arr = (PyArrayObject *)obj;

    if (!PyArray_Check(obj) || PyArray_TYPE(arr) != typenum ||
        !PyArray_ISCARRAY_RO(arr) || PyArray_SIZE(arr) != length) {
        PyErr_Format(PyExc_ValueError, "%s must be a C-contiguous %s array "
                     "of %zd entries", what,
                     typenum == NPY_INT64 ? "int64" : "float64", length);
        return NULL;
    }
    return PyArray_DATA(arr);
}

/* set_topology(group_ids, class_costs, nlinks, contention): attach a
 * class-compressed topology.  group_ids is int64[levels, nnodes],
 * innermost tier first, ids in [0, nlinks), tiers nested; class_costs is
 * float64[levels + 1, 2], (hop_us, bw_penalty) per pair class.  The
 * fabric keeps its own O(levels * nnodes) copy. */
static PyObject *
Fabric_set_topology(FabricObject *self, PyObject *args)
{
    PyObject *arg_ids, *arg_costs;
    PyArrayObject *group_ids;
    long long nlinks, *ids = NULL, *parent;
    Py_ssize_t levels, ncost, n = self->nnodes, t, i;
    const void *src_ids, *src_costs;
    double *cost = NULL;
    int contention;

    if (!PyArg_ParseTuple(args, "OOLp:set_topology", &arg_ids, &arg_costs,
                          &nlinks, &contention)) {
        return NULL;
    }
    if (self->topo_ids != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "topology already set");
        return NULL;
    }
    group_ids = (PyArrayObject *)arg_ids;
    if (nlinks < 0 || nlinks > n || !PyArray_Check(arg_ids) ||
        PyArray_NDIM(group_ids) != 2 || PyArray_DIM(group_ids, 1) != n) {
        PyErr_Format(PyExc_ValueError, "need 0 <= nlinks <= nnodes=%zd and "
                     "group_ids as an int64[levels, nnodes] array", n);
        return NULL;
    }
    levels = PyArray_DIM(group_ids, 0);
    ncost = 2 * (levels + 1);
    src_ids = fabric_array(arg_ids, NPY_INT64, levels * n, "group_ids");
    src_costs = fabric_array(arg_costs, NPY_FLOAT64, ncost,
                             "class_costs[levels + 1, 2]");
    if (src_ids == NULL || src_costs == NULL) {
        return NULL;
    }
    /* behind the ids: one scratch row for the nesting check; behind the
     * class costs: the zeroed per-uplink busy-until times */
    ids = PyMem_Malloc((size_t)(levels * n + nlinks + 1) * sizeof(*ids));
    cost = PyMem_Calloc((size_t)(ncost + nlinks), sizeof(*cost));
    if (ids == NULL || cost == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    memcpy(ids, src_ids, (size_t)(levels * n) * sizeof(*ids));
    memcpy(cost, src_costs, (size_t)ncost * sizeof(*cost));
    for (i = 0; i < ncost; i++) {
        if (!isfinite(cost[i]) || cost[i] < 0.0) {
            PyErr_SetString(PyExc_ValueError,
                            "class costs must be finite and >= 0");
            goto fail;
        }
    }
    parent = ids + levels * n;
    for (t = 0; t < levels; t++) {
        /* each group of the tier below must map to one group here; the
         * innermost tier stands in as its own "below" */
        const long long *row = ids + t * n, *below = t > 0 ? row - n : row;

        memset(parent, -1, (size_t)nlinks * sizeof(*parent));
        for (i = 0; i < n; i++) {
            if (row[i] < 0 || row[i] >= nlinks) {
                PyErr_Format(PyExc_ValueError, "tier %zd group id %lld "
                             "outside [0, nlinks=%lld)", t, row[i], nlinks);
                goto fail;
            }
            if (parent[below[i]] >= 0 && parent[below[i]] != row[i]) {
                PyErr_Format(PyExc_ValueError, "tiers are not nested: "
                             "tier-%zd group %lld spans several tier-%zd "
                             "groups", t - 1, below[i], t);
                goto fail;
            }
            parent[below[i]] = row[i];
        }
    }
    self->topo_ids = ids;
    self->topo_cost = cost;
    self->link_free = cost + ncost;
    self->topo_levels = levels;
    self->topo_contention = contention;
    Py_RETURN_NONE;

fail:
    PyMem_Free(ids);
    PyMem_Free(cost);
    return NULL;
}

/* The Network.send body, op for op: the same validation order and
 * error strings, the same Counter updates, and the same IEEE-754
 * sequence for the Hockney NIC occupancy math, so walls and stats hash
 * identically under both backends.  The topology branch mirrors
 * Network._topo_arrival with the same operation order. */
static PyObject *
fabric_send_core(FabricObject *f, PyObject *src_obj, PyObject *dst_obj,
                 PyObject *category, PyObject *size_obj, PyObject *payload)
{
    long long src, dst;
    PyObject *total, *evargs;
    double total_d, now, nic_free, injection_start, injection_end, arrival;
    EngineObject *eng;
    PortObject *port;
    Ev ev;

    src = PyLong_AsLongLong(src_obj);
    if (src == -1 && PyErr_Occurred()) {
        return NULL;
    }
    dst = PyLong_AsLongLong(dst_obj);
    if (dst == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (src == dst) {
        PyObject *value = PyObject_GetAttr(category, str_value);

        if (value == NULL) {
            return NULL;
        }
        PyErr_Format(PyExc_ValueError,
                     "local message %S on node %lld; node-local operations "
                     "must bypass the network", value, src);
        Py_DECREF(value);
        return NULL;
    }
    if (src < 0 || src >= f->nnodes || dst < 0 || dst >= f->nnodes) {
        PyErr_Format(PyExc_ValueError,
                     "endpoints %lld->%lld outside cluster", src, dst);
        return NULL;
    }
    if (PyList_GET_SIZE(f->ports) != f->nnodes) {
        PyErr_SetString(PyExc_RuntimeError,
                        "NetFabric has unregistered delivery ports");
        return NULL;
    }
    total = PyNumber_Add(size_obj, f->header_obj);
    if (total == NULL) {
        return NULL;
    }
    total_d = PyFloat_AsDouble(total);
    if (total_d == -1.0 && PyErr_Occurred()) {
        Py_DECREF(total);
        return NULL;
    }
    if (total_d < (double)f->header_ll) {
        PyErr_Format(PyExc_ValueError,
                     "message size %S smaller than header (%lld bytes)",
                     total, f->header_ll);
        Py_DECREF(total);
        return NULL;
    }
    if (counter_add(f->msg_count, category, one_long) < 0 ||
        counter_add(f->msg_bytes, category, total) < 0) {
        Py_DECREF(total);
        return NULL;
    }
    Py_DECREF(total);

    eng = f->engine;
    now = eng->now;
    nic_free = f->nic_free[src];
    injection_start = now >= nic_free ? now : nic_free;
    injection_end = injection_start + total_d / f->bandwidth;
    f->nic_free[src] = injection_end;
    if (f->topo_ids != NULL) {
        const long long *ids = f->topo_ids;
        Py_ssize_t k = 0;
        double hop, pen;

        /* tiers nest: walk outward while src and dst sit apart */
        while (k < f->topo_levels && ids[src] != ids[dst]) {
            ids += f->nnodes;
            k++;
        }
        hop = f->topo_cost[2 * k];
        pen = f->topo_cost[2 * k + 1];
        if (f->topo_contention && k > 0) {
            long long uplink = f->topo_ids[src];
            double occupancy = total_d * (1.0 + pen) / f->bandwidth;
            double link_free = f->link_free[uplink];
            double start =
                injection_end >= link_free ? injection_end : link_free;
            double link_end = start + occupancy;

            f->link_free[uplink] = link_end;
            arrival = link_end + f->startup_us + hop;
        } else {
            arrival = injection_end + f->startup_us + hop +
                      total_d * pen / f->bandwidth;
        }
    } else {
        arrival = injection_end + f->startup_us;
    }

    port = (PortObject *)PyList_GET_ITEM(f->ports, dst);
    evargs = PyTuple_Pack(2, category, payload);
    if (evargs == NULL) {
        return NULL;
    }
    if (heap_ensure(eng, eng->n + 1) < 0) {
        Py_DECREF(evargs);
        return NULL;
    }
    ev.time = arrival; /* >= now: injection waits, startup is >= 0 */
    ev.seq = eng->seq++;
    ev.cb = Py_NewRef((PyObject *)port); /* an arrival: see Engine_drain */
    ev.args = evargs;
    heap_push(eng, ev);
    Py_RETURN_NONE;
}

static PyObject *
Fabric_send(FabricObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"src", "dst", "category", "size_bytes",
                             "payload", NULL};
    PyObject *src, *dst, *category, *size, *payload = Py_None;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOO|O:send", kwlist, &src,
                                     &dst, &category, &size, &payload)) {
        return NULL;
    }
    return fabric_send_core(self, src, dst, category, size, payload);
}

static int
Fabric_traverse(FabricObject *self, visitproc visit, void *arg)
{
    Py_VISIT((PyObject *)self->engine);
    Py_VISIT(self->msg_count);
    Py_VISIT(self->msg_bytes);
    Py_VISIT(self->ports);
    Py_VISIT(self->header_obj);
    return 0;
}

static int
Fabric_clear_gc(FabricObject *self)
{
    Py_CLEAR(self->engine);
    Py_CLEAR(self->msg_count);
    Py_CLEAR(self->msg_bytes);
    Py_CLEAR(self->ports);
    Py_CLEAR(self->header_obj);
    return 0;
}

static void
Fabric_dealloc(FabricObject *self)
{
    PyObject_GC_UnTrack(self);
    Fabric_clear_gc(self);
    PyMem_Free(self->nic_free);
    self->nic_free = NULL;
    PyMem_Free(self->topo_ids);
    PyMem_Free(self->topo_cost); /* link_free is part of this block */
    Py_TYPE(self)->tp_free((PyObject *)self);
}

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    FabricObject *fabric; /* owned */
    PyObject *src_obj;    /* owned PyLong */
} SenderObject;

static PyObject *
Sender_vectorcall(PyObject *op, PyObject *const *args, size_t nargsf,
                  PyObject *kwnames)
{
    SenderObject *self = (SenderObject *)op;
    Py_ssize_t nargs = PyVectorcall_NARGS(nargsf);

    if (kwnames != NULL && PyTuple_GET_SIZE(kwnames) > 0) {
        PyErr_SetString(PyExc_TypeError,
                        "sender takes no keyword arguments");
        return NULL;
    }
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "sender requires (dst, category, size_bytes, "
                        "payload)");
        return NULL;
    }
    return fabric_send_core(self->fabric, self->src_obj, args[0], args[1],
                            args[2], args[3]);
}

static int
Sender_traverse(SenderObject *self, visitproc visit, void *arg)
{
    Py_VISIT((PyObject *)self->fabric);
    Py_VISIT(self->src_obj);
    return 0;
}

static int
Sender_clear_gc(SenderObject *self)
{
    Py_CLEAR(self->fabric);
    Py_CLEAR(self->src_obj);
    return 0;
}

static void
Sender_dealloc(SenderObject *self)
{
    PyObject_GC_UnTrack(self);
    Sender_clear_gc(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyTypeObject SenderType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._kernel._kernelc.FabricSender",
    .tp_doc = "Per-node bound send entry point: sender(dst, category, "
              "size_bytes, payload).",
    .tp_basicsize = sizeof(SenderObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_vectorcall_offset = offsetof(SenderObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_dealloc = (destructor)Sender_dealloc,
    .tp_traverse = (traverseproc)Sender_traverse,
    .tp_clear = (inquiry)Sender_clear_gc,
};

static PyObject *
Fabric_sender(FabricObject *self, PyObject *src)
{
    SenderObject *sender;
    long long value;

    value = PyLong_AsLongLong(src);
    if (value == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (value < 0 || value >= self->nnodes) {
        PyErr_Format(PyExc_ValueError, "sender node %lld outside cluster",
                     value);
        return NULL;
    }
    sender = PyObject_GC_New(SenderObject, &SenderType);
    if (sender == NULL) {
        return NULL;
    }
    sender->vectorcall = Sender_vectorcall;
    Py_INCREF(self);
    sender->fabric = self;
    Py_INCREF(src);
    sender->src_obj = src;
    PyObject_GC_Track((PyObject *)sender);
    return (PyObject *)sender;
}

static PyMethodDef Fabric_methods[] = {
    {"add_port", (PyCFunction)(void (*)(void))Fabric_add_port,
     METH_FASTCALL,
     "add_port(dispatch, service_us)\n--\n\n"
     "Register the next node's delivery port (call once per node, in "
     "node order); returns the DeliveryPort."},
    {"send", (PyCFunction)(void (*)(void))Fabric_send,
     METH_VARARGS | METH_KEYWORDS,
     "send(src, dst, category, size_bytes, payload=None)\n--\n\n"
     "Network.send in C: validate, account, occupy the source NIC, and "
     "schedule the arrival."},
    {"sender", (PyCFunction)Fabric_sender, METH_O,
     "sender(src)\n--\n\nA bound per-node send callable."},
    {"set_topology", (PyCFunction)Fabric_set_topology, METH_VARARGS,
     "set_topology(group_ids, class_costs, nlinks, contention)\n--\n\n"
     "Attach a class-compressed topology: int64[levels, nnodes] nested "
     "group ids (innermost tier first) and float64[levels + 1, 2] per-class "
     "(hop latency, bandwidth penalty)."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject FabricType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._kernel._kernelc.NetFabric",
    .tp_doc = "Compiled network send + delivery boundary over the "
              "compiled Engine.",
    .tp_basicsize = sizeof(FabricObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Fabric_init,
    .tp_dealloc = (destructor)Fabric_dealloc,
    .tp_traverse = (traverseproc)Fabric_traverse,
    .tp_clear = (inquiry)Fabric_clear_gc,
    .tp_methods = Fabric_methods,
};

/* ====================================================================== */
/* module                                                                  */
/* ====================================================================== */

/* cache_sweep_invalid(cache, invalid_mode, free): barrier-GC sweep of the
 * flat CacheIndex — pool every INVALID twinless entry's payload and
 * tombstone its slot, returning the drop count.  Mirrors the Python
 * dead-scan + pop + free loop of collect_garbage. */
static PyObject *
kernel_cache_sweep(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *cache, *invalid, *freefn, *slots, *live, *adjusted;
    Py_ssize_t i, ndead = 0;

    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError,
                     "cache_sweep_invalid expects 3 arguments, got %zd",
                     nargs);
        return NULL;
    }
    cache = args[0];
    invalid = args[1];
    freefn = args[2];
    slots = PyObject_GetAttr(cache, str_slots);
    if (slots == NULL) {
        return NULL;
    }
    if (!PyList_Check(slots)) {
        Py_DECREF(slots);
        PyErr_SetString(PyExc_TypeError,
                        "cache_sweep_invalid needs a CacheIndex");
        return NULL;
    }
    for (i = 0; i < PyList_GET_SIZE(slots); i++) {
        PyObject *entry = PyList_GET_ITEM(slots, i);
        PyObject *mode, *twin, *payload, *r;
        int dead;

        if (entry == Py_None) {
            continue;
        }
        mode = PyObject_GetAttr(entry, str_mode);
        if (mode == NULL) {
            goto fail;
        }
        dead = (mode == invalid);
        Py_DECREF(mode);
        if (!dead) {
            continue;
        }
        twin = PyObject_GetAttr(entry, str_twin);
        if (twin == NULL) {
            goto fail;
        }
        dead = (twin == Py_None);
        Py_DECREF(twin);
        if (!dead) {
            continue;
        }
        payload = PyObject_GetAttr(entry, str_payload);
        if (payload == NULL) {
            goto fail;
        }
        /* pop: tombstone the slot (the index entry stays sticky) */
        Py_INCREF(Py_None);
        if (PyList_SetItem(slots, i, Py_None) < 0) {
            Py_DECREF(payload);
            goto fail;
        }
        r = PyObject_CallOneArg(freefn, payload);
        Py_DECREF(payload);
        if (r == NULL) {
            goto fail;
        }
        Py_DECREF(r);
        ndead++;
    }
    Py_DECREF(slots);
    /* cache._live -= ndead (pop's bookkeeping, batched) */
    live = PyObject_GetAttr(cache, str_live);
    if (live == NULL) {
        return NULL;
    }
    {
        PyObject *delta = PyLong_FromSsize_t(ndead);
        if (delta == NULL) {
            Py_DECREF(live);
            return NULL;
        }
        adjusted = PyNumber_Subtract(live, delta);
        Py_DECREF(delta);
    }
    Py_DECREF(live);
    if (adjusted == NULL) {
        return NULL;
    }
    if (PyObject_SetAttr(cache, str_live, adjusted) < 0) {
        Py_DECREF(adjusted);
        return NULL;
    }
    Py_DECREF(adjusted);
    return PyLong_FromSsize_t(ndead);

fail:
    Py_DECREF(slots);
    return NULL;
}

/* cache_invalidate_read(cache, read_mode, invalid_mode): the Java-
 * consistency cache flush of invalidate_all_cached — flip every READ
 * entry of the flat CacheIndex to INVALID (identity compare on the
 * enum members, like the Python `is` check), returning the flip
 * count.  Dirty WRITE copies and tombstones are untouched. */
static PyObject *
kernel_cache_invalidate_read(PyObject *mod, PyObject *const *args,
                             Py_ssize_t nargs)
{
    PyObject *cache, *readm, *invalid, *slots;
    Py_ssize_t i, nswept = 0;

    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError,
                     "cache_invalidate_read expects 3 arguments, got %zd",
                     nargs);
        return NULL;
    }
    cache = args[0];
    readm = args[1];
    invalid = args[2];
    slots = PyObject_GetAttr(cache, str_slots);
    if (slots == NULL) {
        return NULL;
    }
    if (!PyList_Check(slots)) {
        Py_DECREF(slots);
        PyErr_SetString(PyExc_TypeError,
                        "cache_invalidate_read needs a CacheIndex");
        return NULL;
    }
    for (i = 0; i < PyList_GET_SIZE(slots); i++) {
        PyObject *entry = PyList_GET_ITEM(slots, i);
        PyObject *mode;
        int is_read;

        if (entry == Py_None) {
            continue;
        }
        mode = PyObject_GetAttr(entry, str_mode);
        if (mode == NULL) {
            Py_DECREF(slots);
            return NULL;
        }
        is_read = (mode == readm);
        Py_DECREF(mode);
        if (!is_read) {
            continue;
        }
        if (PyObject_SetAttr(entry, str_mode, invalid) < 0) {
            Py_DECREF(slots);
            return NULL;
        }
        nswept++;
    }
    Py_DECREF(slots);
    return PyLong_FromSsize_t(nswept);
}

/* ---------------------------------------------------------------------- */
/* Future: one-shot resolvable value (C twin of repro.sim.future.Future)   */
/* ---------------------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    PyObject *value;     /* owned; NULL = unset */
    PyObject *exception; /* owned; NULL = none */
    PyObject *callbacks; /* owned list, lazily allocated; NULL = empty */
    PyObject *label;     /* owned */
} FutureObject;

static int
Future_init(FutureObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"label", NULL};
    PyObject *label = NULL;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O:Future", kwlist,
                                     &label)) {
        return -1;
    }
    if (label == NULL) {
        label = PyUnicode_FromString("");
        if (label == NULL) {
            return -1;
        }
    }
    else {
        Py_INCREF(label);
    }
    Py_XSETREF(self->label, label);
    Py_CLEAR(self->value);
    Py_CLEAR(self->exception);
    Py_CLEAR(self->callbacks);
    return 0;
}

static inline int
future_is_resolved(FutureObject *self)
{
    return self->value != NULL || self->exception != NULL;
}

/* Fire callbacks in registration order; the list is detached first so a
 * callback adding callbacks sees the post-resolution immediate path,
 * exactly like the Python twin. */
static int
future_fire(FutureObject *self)
{
    PyObject *callbacks = self->callbacks;
    Py_ssize_t i, n;

    if (callbacks == NULL) {
        return 0;
    }
    self->callbacks = NULL;
    n = PyList_GET_SIZE(callbacks);
    for (i = 0; i < n; i++) {
        PyObject *res = PyObject_CallOneArg(PyList_GET_ITEM(callbacks, i),
                                            (PyObject *)self);
        if (res == NULL) {
            Py_DECREF(callbacks);
            return -1;
        }
        Py_DECREF(res);
    }
    Py_DECREF(callbacks);
    return 0;
}

static PyObject *
Future_resolve(FutureObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *value;

    if (nargs > 1) {
        PyErr_Format(PyExc_TypeError,
                     "resolve expects at most one argument, got %zd", nargs);
        return NULL;
    }
    if (future_is_resolved(self)) {
        PyErr_Format(sim_error_class(), "future %R resolved twice",
                     self->label);
        return NULL;
    }
    value = nargs == 1 ? args[0] : Py_None;
    Py_INCREF(value);
    self->value = value;
    if (future_fire(self) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
Future_fail(FutureObject *self, PyObject *exc)
{
    if (future_is_resolved(self)) {
        PyErr_Format(sim_error_class(), "future %R resolved twice",
                     self->label);
        return NULL;
    }
    Py_INCREF(exc);
    self->exception = exc;
    if (future_fire(self) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
Future_peek(FutureObject *self, PyObject *noarg)
{
    (void)noarg;
    if (self->exception != NULL) {
        return PyTuple_Pack(2, Py_None, self->exception);
    }
    if (self->value == NULL) {
        PyErr_Format(sim_error_class(), "future %R peeked unresolved",
                     self->label);
        return NULL;
    }
    return PyTuple_Pack(2, self->value, Py_None);
}

static PyObject *
Future_add_done_callback(FutureObject *self, PyObject *callback)
{
    if (future_is_resolved(self)) {
        PyObject *res = PyObject_CallOneArg(callback, (PyObject *)self);
        if (res == NULL) {
            return NULL;
        }
        Py_DECREF(res);
        Py_RETURN_NONE;
    }
    if (self->callbacks == NULL) {
        self->callbacks = PyList_New(0);
        if (self->callbacks == NULL) {
            return NULL;
        }
    }
    if (PyList_Append(self->callbacks, callback) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
Future_get_resolved(FutureObject *self, void *closure)
{
    (void)closure;
    return PyBool_FromLong(future_is_resolved(self));
}

static PyObject *
Future_get_value(FutureObject *self, void *closure)
{
    (void)closure;
    if (self->exception != NULL) {
        PyErr_SetObject((PyObject *)Py_TYPE(self->exception),
                        self->exception);
        return NULL;
    }
    if (self->value == NULL) {
        PyErr_Format(sim_error_class(),
                     "future %R read before resolution", self->label);
        return NULL;
    }
    Py_INCREF(self->value);
    return self->value;
}

static PyObject *
Future_get_exception(FutureObject *self, void *closure)
{
    (void)closure;
    if (self->exception == NULL) {
        Py_RETURN_NONE;
    }
    Py_INCREF(self->exception);
    return self->exception;
}

static PyObject *
Future_repr(FutureObject *self)
{
    return PyUnicode_FromFormat(
        "<Future %R %s>", self->label,
        future_is_resolved(self) ? "resolved" : "pending");
}

static int
Future_traverse(FutureObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->value);
    Py_VISIT(self->exception);
    Py_VISIT(self->callbacks);
    Py_VISIT(self->label);
    return 0;
}

static int
Future_clear_gc(FutureObject *self)
{
    Py_CLEAR(self->value);
    Py_CLEAR(self->exception);
    Py_CLEAR(self->callbacks);
    Py_CLEAR(self->label);
    return 0;
}

static void
Future_dealloc(FutureObject *self)
{
    PyObject_GC_UnTrack(self);
    Future_clear_gc(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef Future_methods[] = {
    {"resolve", (PyCFunction)(void (*)(void))Future_resolve, METH_FASTCALL,
     "resolve(value=None)\n--\n\n"
     "Provide the value and fire callbacks (in registration order)."},
    {"fail", (PyCFunction)Future_fail, METH_O,
     "fail(exc)\n--\n\n"
     "Resolve the future with an exception instead of a value."},
    {"peek", (PyCFunction)Future_peek, METH_NOARGS,
     "peek()\n--\n\n"
     "(value, exception) without raising - exactly one is set."},
    {"add_done_callback", (PyCFunction)Future_add_done_callback, METH_O,
     "add_done_callback(callback)\n--\n\n"
     "Run callback(self) when resolved (immediately if already)."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef Future_getset[] = {
    {"resolved", (getter)Future_get_resolved, NULL,
     "Whether the future holds a value or an exception.", NULL},
    {"value", (getter)Future_get_value, NULL,
     "The resolved value; raises if unresolved or resolved to an error.",
     NULL},
    {"exception", (getter)Future_get_exception, NULL,
     "The exception this future was failed with, if any.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef Future_members[] = {
    {"label", T_OBJECT_EX, offsetof(FutureObject, label), 0,
     "Debug label carried into error messages."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject FutureType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._kernel._kernelc.Future",
    .tp_doc = "One-shot future (C twin of repro.sim.future.Future): "
              "single-assignment, callbacks fired in registration order.",
    .tp_basicsize = sizeof(FutureObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Future_init,
    .tp_dealloc = (destructor)Future_dealloc,
    .tp_traverse = (traverseproc)Future_traverse,
    .tp_clear = (inquiry)Future_clear_gc,
    .tp_repr = (reprfunc)Future_repr,
    .tp_methods = Future_methods,
    .tp_getset = Future_getset,
    .tp_members = Future_members,
};

/* ---------------------------------------------------------------------- */
/* Arena: slab allocator with exact-size free lists (C twin of            */
/* repro.memory.arena.Arena; byte-identical accounting)                    */
/* ---------------------------------------------------------------------- */

#define ARENA_ALIGN_BYTES 16
#define ARENA_DEFAULT_SLAB_BYTES (1 << 20)

typedef struct {
    PyObject_HEAD
    PyObject *label;   /* owned */
    PyObject *slab;    /* owned uint8 ndarray or NULL */
    PyObject *free;    /* owned dict: (length, dtype) -> list of views */
    PyObject *scratch; /* owned bool ndarray */
    long long slab_bytes;
    long long offset;
    long long slabs_allocated;
    long long slab_bytes_total;
    long long carve_count;
    long long reuse_count;
    long long free_count;
    long long live_bytes;
    long long pooled_bytes;
} ArenaObject;

static int
Arena_init(ArenaObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"slab_bytes", "label", NULL};
    long long slab_bytes = ARENA_DEFAULT_SLAB_BYTES;
    PyObject *label = NULL, *free_dict, *scratch;
    npy_intp zero = 0;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|LO:Arena", kwlist,
                                     &slab_bytes, &label)) {
        return -1;
    }
    if (slab_bytes < ARENA_ALIGN_BYTES) {
        PyErr_Format(PyExc_ValueError,
                     "slab_bytes must be >= %d, got %lld",
                     ARENA_ALIGN_BYTES, slab_bytes);
        return -1;
    }
    if (label == NULL) {
        label = PyUnicode_FromString("");
        if (label == NULL) {
            return -1;
        }
    }
    else {
        Py_INCREF(label);
    }
    free_dict = PyDict_New();
    if (free_dict == NULL) {
        Py_DECREF(label);
        return -1;
    }
    scratch = PyArray_SimpleNew(1, &zero, NPY_BOOL);
    if (scratch == NULL) {
        Py_DECREF(label);
        Py_DECREF(free_dict);
        return -1;
    }
    Py_XSETREF(self->label, label);
    Py_XSETREF(self->free, free_dict);
    Py_XSETREF(self->scratch, scratch);
    Py_CLEAR(self->slab);
    self->slab_bytes = slab_bytes;
    self->offset = 0;
    self->slabs_allocated = 0;
    self->slab_bytes_total = 0;
    self->carve_count = 0;
    self->reuse_count = 0;
    self->free_count = 0;
    self->live_bytes = 0;
    self->pooled_bytes = 0;
    return 0;
}

/* Carve a fresh view from the current slab (Arena._carve).  Steals no
 * references; returns a new writeable 1-D view of `length` elements of
 * `descr` backed by the slab. */
static PyObject *
arena_carve(ArenaObject *self, npy_intp length, PyArray_Descr *descr)
{
    long long nbytes = (long long)length * PyDataType_ELSIZE(descr);
    long long aligned =
        (nbytes + ARENA_ALIGN_BYTES - 1) / ARENA_ALIGN_BYTES *
        ARENA_ALIGN_BYTES;
    PyArrayObject *slab = (PyArrayObject *)self->slab;
    PyObject *view;
    npy_intp dims[1];
    long long start;

    if (slab == NULL ||
        self->offset + aligned > (long long)PyArray_DIM(slab, 0)) {
        long long size =
            self->slab_bytes > aligned ? self->slab_bytes : aligned;
        npy_intp slab_dims[1];

        slab_dims[0] = (npy_intp)size;
        slab = (PyArrayObject *)PyArray_SimpleNew(1, slab_dims, NPY_UINT8);
        if (slab == NULL) {
            return NULL;
        }
        Py_XSETREF(self->slab, (PyObject *)slab);
        self->offset = 0;
        self->slabs_allocated += 1;
        self->slab_bytes_total += size;
    }
    start = self->offset;
    self->offset = start + aligned;
    dims[0] = length;
    Py_INCREF(descr);
    view = PyArray_NewFromDescr(&PyArray_Type, descr, 1, dims, NULL,
                                PyArray_BYTES(slab) + start,
                                NPY_ARRAY_CARRAY, NULL);
    if (view == NULL) {
        return NULL;
    }
    Py_INCREF(slab);
    if (PyArray_SetBaseObject((PyArrayObject *)view, (PyObject *)slab) < 0) {
        Py_DECREF(view);
        return NULL;
    }
    return view;
}

/* Shared alloc body: returns a new reference, `descr` is borrowed. */
static PyObject *
arena_alloc_impl(ArenaObject *self, npy_intp length, PyArray_Descr *descr)
{
    PyObject *key, *stack, *view;
    long long nbytes;

    if (length <= 0) {
        PyErr_Format(PyExc_ValueError,
                     "allocation length must be positive, got %zd",
                     (Py_ssize_t)length);
        return NULL;
    }
    key = Py_BuildValue("(nO)", (Py_ssize_t)length, (PyObject *)descr);
    if (key == NULL) {
        return NULL;
    }
    stack = PyDict_GetItemWithError(self->free, key);
    Py_DECREF(key);
    if (stack == NULL && PyErr_Occurred()) {
        return NULL;
    }
    nbytes = (long long)length * PyDataType_ELSIZE(descr);
    if (stack != NULL && PyList_GET_SIZE(stack) > 0) {
        Py_ssize_t last = PyList_GET_SIZE(stack) - 1;

        view = PyList_GET_ITEM(stack, last);
        Py_INCREF(view);
        if (PyList_SetSlice(stack, last, last + 1, NULL) < 0) {
            Py_DECREF(view);
            return NULL;
        }
        self->reuse_count += 1;
        self->pooled_bytes -= nbytes;
        self->live_bytes += nbytes;
        return view;
    }
    view = arena_carve(self, length, descr);
    if (view == NULL) {
        return NULL;
    }
    self->carve_count += 1;
    self->live_bytes += nbytes;
    return view;
}

/* Parse the (length, dtype=...) argument pair shared by alloc/zeros. */
static int
arena_parse_alloc_args(PyObject *const *args, Py_ssize_t nargs,
                       const char *name, npy_intp *length,
                       PyArray_Descr **descr)
{
    Py_ssize_t n;

    if (nargs < 1 || nargs > 2) {
        PyErr_Format(PyExc_TypeError, "%s expects (length[, dtype]), got "
                     "%zd arguments", name, nargs);
        return -1;
    }
    n = PyNumber_AsSsize_t(args[0], PyExc_OverflowError);
    if (n == -1 && PyErr_Occurred()) {
        return -1;
    }
    *length = (npy_intp)n;
    if (nargs == 2) {
        if (!PyArray_DescrConverter(args[1], descr)) {
            return -1;
        }
    }
    else {
        *descr = PyArray_DescrFromType(NPY_FLOAT64);
        if (*descr == NULL) {
            return -1;
        }
    }
    return 0;
}

static PyObject *
Arena_alloc(ArenaObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    npy_intp length;
    PyArray_Descr *descr;
    PyObject *view;

    if (arena_parse_alloc_args(args, nargs, "alloc", &length, &descr) < 0) {
        return NULL;
    }
    view = arena_alloc_impl(self, length, descr);
    Py_DECREF(descr);
    return view;
}

static PyObject *
Arena_zeros(ArenaObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    npy_intp length;
    PyArray_Descr *descr;
    PyObject *view;

    if (arena_parse_alloc_args(args, nargs, "zeros", &length, &descr) < 0) {
        return NULL;
    }
    view = arena_alloc_impl(self, length, descr);
    Py_DECREF(descr);
    if (view == NULL) {
        return NULL;
    }
    memset(PyArray_DATA((PyArrayObject *)view), 0,
           (size_t)PyArray_NBYTES((PyArrayObject *)view));
    return view;
}

static PyObject *
Arena_take_copy(ArenaObject *self, PyObject *src_obj)
{
    PyArrayObject *src, *dst;
    PyObject *view;

    if (!PyArray_Check(src_obj)) {
        PyErr_Format(PyExc_TypeError, "take_copy expects an ndarray, got %s",
                     Py_TYPE(src_obj)->tp_name);
        return NULL;
    }
    src = (PyArrayObject *)src_obj;
    if (PyArray_NDIM(src) != 1) {
        PyErr_Format(PyExc_ValueError,
                     "arenas hold 1-D buffers, got ndim=%d",
                     PyArray_NDIM(src));
        return NULL;
    }
    view = arena_alloc_impl(self, PyArray_DIM(src, 0), PyArray_DESCR(src));
    if (view == NULL) {
        return NULL;
    }
    dst = (PyArrayObject *)view;
    if (PyArray_ISCARRAY_RO(src)) {
        memcpy(PyArray_DATA(dst), PyArray_DATA(src),
               (size_t)PyArray_NBYTES(src));
    }
    else if (PyArray_CopyInto(dst, src) < 0) {
        Py_DECREF(view);
        return NULL;
    }
    return view;
}

static PyObject *
Arena_free(ArenaObject *self, PyObject *buf_obj)
{
    PyArrayObject *buf;
    PyObject *key, *stack;
    long long nbytes;

    if (!PyArray_Check(buf_obj)) {
        PyErr_Format(PyExc_TypeError, "free expects an ndarray, got %s",
                     Py_TYPE(buf_obj)->tp_name);
        return NULL;
    }
    buf = (PyArrayObject *)buf_obj;
    if (PyArray_NDIM(buf) != 1) {
        PyErr_Format(PyExc_ValueError,
                     "arenas hold 1-D buffers, got ndim=%d",
                     PyArray_NDIM(buf));
        return NULL;
    }
    key = Py_BuildValue("(nO)", (Py_ssize_t)PyArray_DIM(buf, 0),
                        (PyObject *)PyArray_DESCR(buf));
    if (key == NULL) {
        return NULL;
    }
    stack = PyDict_GetItemWithError(self->free, key);
    if (stack == NULL) {
        if (PyErr_Occurred()) {
            Py_DECREF(key);
            return NULL;
        }
        stack = PyList_New(0);
        if (stack == NULL || PyDict_SetItem(self->free, key, stack) < 0) {
            Py_XDECREF(stack);
            Py_DECREF(key);
            return NULL;
        }
        Py_DECREF(stack); /* dict holds it */
    }
    Py_DECREF(key);
    if (PyList_Append(stack, buf_obj) < 0) {
        return NULL;
    }
    nbytes = (long long)PyArray_NBYTES(buf);
    self->free_count += 1;
    self->pooled_bytes += nbytes;
    self->live_bytes -= nbytes;
    if (self->live_bytes < 0) {
        self->live_bytes = 0;
    }
    Py_RETURN_NONE;
}

static PyObject *
Arena_bool_scratch(ArenaObject *self, PyObject *length_obj)
{
    Py_ssize_t length = PyNumber_AsSsize_t(length_obj, PyExc_OverflowError);
    PyArrayObject *scratch;
    PyObject *view;
    npy_intp dims[1];

    if (length == -1 && PyErr_Occurred()) {
        return NULL;
    }
    scratch = (PyArrayObject *)self->scratch;
    if (PyArray_DIM(scratch, 0) < (npy_intp)length) {
        npy_intp grown = 2 * PyArray_DIM(scratch, 0);

        dims[0] = (npy_intp)length > grown ? (npy_intp)length : grown;
        scratch = (PyArrayObject *)PyArray_SimpleNew(1, dims, NPY_BOOL);
        if (scratch == NULL) {
            return NULL;
        }
        Py_XSETREF(self->scratch, (PyObject *)scratch);
    }
    dims[0] = (npy_intp)length;
    view = PyArray_NewFromDescr(&PyArray_Type,
                                PyArray_DescrFromType(NPY_BOOL), 1, dims,
                                NULL, PyArray_DATA(scratch),
                                NPY_ARRAY_CARRAY, NULL);
    if (view == NULL) {
        return NULL;
    }
    Py_INCREF(scratch);
    if (PyArray_SetBaseObject((PyArrayObject *)view,
                              (PyObject *)scratch) < 0) {
        Py_DECREF(view);
        return NULL;
    }
    return view;
}

static PyObject *
Arena_stats(ArenaObject *self, PyObject *noarg)
{
    PyObject *out, *val, *stack;
    Py_ssize_t pos = 0, pooled_buffers = 0;
    PyObject *key;

    (void)noarg;
    while (PyDict_Next(self->free, &pos, &key, &stack)) {
        pooled_buffers += PyList_GET_SIZE(stack);
    }
    out = PyDict_New();
    if (out == NULL) {
        return NULL;
    }
#define STATS_SET(name, expr)                                              \
    do {                                                                   \
        val = (expr);                                                      \
        if (val == NULL || PyDict_SetItemString(out, name, val) < 0) {     \
            Py_XDECREF(val);                                               \
            Py_DECREF(out);                                                \
            return NULL;                                                   \
        }                                                                  \
        Py_DECREF(val);                                                    \
    } while (0)
    STATS_SET("label", (Py_INCREF(self->label), self->label));
    STATS_SET("slabs", PyLong_FromLongLong(self->slabs_allocated));
    STATS_SET("slab_bytes", PyLong_FromLongLong(self->slab_bytes_total));
    STATS_SET("carves", PyLong_FromLongLong(self->carve_count));
    STATS_SET("reuses", PyLong_FromLongLong(self->reuse_count));
    STATS_SET("frees", PyLong_FromLongLong(self->free_count));
    STATS_SET("live_bytes", PyLong_FromLongLong(self->live_bytes));
    STATS_SET("pooled_bytes", PyLong_FromLongLong(self->pooled_bytes));
    STATS_SET("pooled_buffers", PyLong_FromSsize_t(pooled_buffers));
    STATS_SET("scratch_bytes",
              PyLong_FromLongLong(
                  (long long)PyArray_NBYTES(
                      (PyArrayObject *)self->scratch)));
#undef STATS_SET
    return out;
}

static int
Arena_traverse(ArenaObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->label);
    Py_VISIT(self->slab);
    Py_VISIT(self->free);
    Py_VISIT(self->scratch);
    return 0;
}

static int
Arena_clear_gc(ArenaObject *self)
{
    Py_CLEAR(self->label);
    Py_CLEAR(self->slab);
    Py_CLEAR(self->free);
    Py_CLEAR(self->scratch);
    return 0;
}

static void
Arena_dealloc(ArenaObject *self)
{
    PyObject_GC_UnTrack(self);
    Arena_clear_gc(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef Arena_methods[] = {
    {"alloc", (PyCFunction)(void (*)(void))Arena_alloc, METH_FASTCALL,
     "alloc(length, dtype='float64')\n--\n\n"
     "An uninitialised 1-D buffer; reuses a pooled same-shape buffer "
     "when one exists, else carves fresh slab space."},
    {"zeros", (PyCFunction)(void (*)(void))Arena_zeros, METH_FASTCALL,
     "zeros(length, dtype='float64')\n--\n\n"
     "A zeroed buffer (pool-reuse equivalent of np.zeros)."},
    {"take_copy", (PyCFunction)Arena_take_copy, METH_O,
     "take_copy(src)\n--\n\n"
     "A pooled copy of 1-D src (pool-reuse equivalent of .copy())."},
    {"free", (PyCFunction)Arena_free, METH_O,
     "free(buf)\n--\n\n"
     "Return buf to the pool for same-shape reuse."},
    {"bool_scratch", (PyCFunction)Arena_bool_scratch, METH_O,
     "bool_scratch(length)\n--\n\n"
     "The shared grow-only boolean scratch buffer, sliced to length."},
    {"stats", (PyCFunction)Arena_stats, METH_NOARGS,
     "stats()\n--\n\n"
     "Plain-dict accounting snapshot (telemetry and tests)."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef Arena_members[] = {
    {"label", T_OBJECT_EX, offsetof(ArenaObject, label), 0, NULL},
    {"slab_bytes", T_LONGLONG, offsetof(ArenaObject, slab_bytes), 0, NULL},
    {"slabs_allocated", T_LONGLONG,
     offsetof(ArenaObject, slabs_allocated), 0, NULL},
    {"slab_bytes_total", T_LONGLONG,
     offsetof(ArenaObject, slab_bytes_total), 0, NULL},
    {"carve_count", T_LONGLONG, offsetof(ArenaObject, carve_count), 0, NULL},
    {"reuse_count", T_LONGLONG, offsetof(ArenaObject, reuse_count), 0, NULL},
    {"free_count", T_LONGLONG, offsetof(ArenaObject, free_count), 0, NULL},
    {"live_bytes", T_LONGLONG, offsetof(ArenaObject, live_bytes), 0, NULL},
    {"pooled_bytes", T_LONGLONG,
     offsetof(ArenaObject, pooled_bytes), 0, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject ArenaType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._kernel._kernelc.Arena",
    .tp_doc = "Slab allocator with exact-size free lists (C twin of "
              "repro.memory.arena.Arena; byte-identical accounting).",
    .tp_basicsize = sizeof(ArenaObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Arena_init,
    .tp_dealloc = (destructor)Arena_dealloc,
    .tp_traverse = (traverseproc)Arena_traverse,
    .tp_clear = (inquiry)Arena_clear_gc,
    .tp_methods = Arena_methods,
    .tp_members = Arena_members,
};

static PyObject *
kernel_install(PyObject *mod, PyObject *exc)
{
    Py_INCREF(exc);
    Py_XSETREF(SimError, exc);
    Py_RETURN_NONE;
}

static PyMethodDef kernel_methods[] = {
    {"_install", kernel_install, METH_O,
     "_install(exc_type)\n--\n\n"
     "Register the SimulationError class the Engine raises."},
    {"diff_arrays", (PyCFunction)(void (*)(void))diff_arrays, METH_FASTCALL,
     "diff_arrays(current, twin)\n--\n\n"
     "Single-scan diff of two matching 1-D arrays.  Returns None when "
     "equal, (indices, values, nruns) when changed, or NotImplemented "
     "for layouts/dtypes the kernel does not handle."},
    {"adaptive_threshold",
     (PyCFunction)(void (*)(void))kernel_adaptive_threshold, METH_FASTCALL,
     "adaptive_threshold(base, redirections, exclusive_home_writes, alpha, "
     "lam, t_init)\n--\n\n"
     "Equation 2: max(base + lam * (R - alpha * E), t_init), with the "
     "pure-Python function's validation."},
    {"cache_sweep_invalid",
     (PyCFunction)(void (*)(void))kernel_cache_sweep, METH_FASTCALL,
     "cache_sweep_invalid(cache, invalid_mode, free)\n--\n\n"
     "Barrier-GC sweep of a CacheIndex: pool every INVALID twinless "
     "entry's payload via free(), tombstone its slot, return the count."},
    {"cache_invalidate_read",
     (PyCFunction)(void (*)(void))kernel_cache_invalidate_read,
     METH_FASTCALL,
     "cache_invalidate_read(cache, read_mode, invalid_mode)\n--\n\n"
     "Java-consistency flush of a CacheIndex: flip every READ entry to "
     "INVALID, return the flip count."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._kernel._kernelc",
    .m_doc = "Compiled hot kernels: event-heap engine, network send and "
             "delivery, local-hit access, diff scan, threshold "
             "update.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernelc(void)
{
    PyObject *mod;

    import_array();

#define INTERN(var, text)                                                  \
    do {                                                                   \
        var = PyUnicode_InternFromString(text);                            \
        if (var == NULL) {                                                 \
            return NULL;                                                   \
        }                                                                  \
    } while (0)
    INTERN(str_payload, "payload");
    INTERN(str_value, "value");
    INTERN(str_mode, "mode");
    INTERN(str_interval, "interval");
    INTERN(str_read_interval, "read_interval");
    INTERN(str_write_interval, "write_interval");
    INTERN(str_homes, "homes");
    INTERN(str_cache, "cache");
    INTERN(str_index, "_index");
    INTERN(str_slots, "_slots");
    INTERN(str_dirty, "dirty");
    INTERN(str_home_dirty, "home_dirty");
    INTERN(str_try_read_local, "try_read_local");
    INTERN(str_try_write_local, "try_write_local");
    INTERN(str_state, "state");
    INTERN(str_home_reads, "home_reads");
    INTERN(str_home_writes, "home_writes");
    INTERN(str_exclusive_home_writes, "exclusive_home_writes");
    INTERN(str_last_writer, "last_writer");
    INTERN(str_consecutive_writes, "consecutive_writes");
    INTERN(str_consecutive_writer, "consecutive_writer");
    INTERN(str_upgrade_to_write, "upgrade_to_write");
    INTERN(str_twin, "twin");
    INTERN(str_request_id, "request_id");
    INTERN(str_resolve, "resolve");
    INTERN(str_arena, "arena");
    INTERN(str_stats, "stats");
    INTERN(str_events, "events");
    INTERN(str_live, "_live");
    INTERN(str_oid, "oid");
    INTERN(ev_home_write, "home_write");
    INTERN(ev_exclusive_home_write, "exclusive_home_write");
#undef INTERN
    zero_long = PyLong_FromLong(0);
    one_long = PyLong_FromLong(1);
    minus_one_long = PyLong_FromLong(-1);
    if (zero_long == NULL || one_long == NULL || minus_one_long == NULL) {
        return NULL;
    }

    if (PyType_Ready(&EngineType) < 0 ||
        PyType_Ready(&LocalAccessType) < 0 || PyType_Ready(&PortType) < 0 ||
        PyType_Ready(&FabricType) < 0 || PyType_Ready(&SenderType) < 0 ||
        PyType_Ready(&ReadyType) < 0 || PyType_Ready(&RouterType) < 0 ||
        PyType_Ready(&FutureType) < 0 || PyType_Ready(&ArenaType) < 0 ||
        PyType_Ready(&AccessorType) < 0) {
        return NULL;
    }

    mod = PyModule_Create(&kernel_module);
    if (mod == NULL) {
        return NULL;
    }
    if (PyModule_AddObjectRef(mod, "Engine", (PyObject *)&EngineType) < 0 ||
        PyModule_AddObjectRef(mod, "LocalAccess",
                              (PyObject *)&LocalAccessType) < 0 ||
        PyModule_AddObjectRef(mod, "DeliveryPort",
                              (PyObject *)&PortType) < 0 ||
        PyModule_AddObjectRef(mod, "NetFabric",
                              (PyObject *)&FabricType) < 0 ||
        PyModule_AddObjectRef(mod, "FabricSender",
                              (PyObject *)&SenderType) < 0 ||
        PyModule_AddObjectRef(mod, "Ready", (PyObject *)&ReadyType) < 0 ||
        PyModule_AddObjectRef(mod, "ReplyRouter",
                              (PyObject *)&RouterType) < 0 ||
        PyModule_AddObjectRef(mod, "Future", (PyObject *)&FutureType) < 0 ||
        PyModule_AddObjectRef(mod, "Arena", (PyObject *)&ArenaType) < 0 ||
        PyModule_AddObjectRef(mod, "Accessor",
                              (PyObject *)&AccessorType) < 0 ||
        PyModule_AddIntConstant(mod, "KERNEL_API", 7) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
