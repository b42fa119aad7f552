/* Compiled twin of repro.sim.backend.pure.event_loop.
 *
 * One entry point: event_loop(engine, ctx).  The C loop implements the
 * engine's hot path -- the heap-event loop, the inlined chunk-completion
 * accounting, _dispatch, _drive, _begin_chunk, _advance and _setup_op --
 * and delegates everything cold or semantically rich (sync-op actions,
 * wakes, pauses, sample delivery, checkpoints, error raising) back to the
 * engine's own Python methods, so there is exactly one implementation of
 * each of those behaviours.
 *
 * Bit-identity contract (DESIGN.md section 5i):
 *   - all counters (_seq, _alive, _sleeping, _timer_count, total_cpu_ns)
 *     stay canonical on the engine object: the C loop reads-modifies-writes
 *     them through attributes, so Python callees always see current values;
 *   - `now` is kept in a C local and written through to engine.now the
 *     moment it advances, before any Python call can observe it;
 *   - events_processed accumulates in C and is flushed at exactly the same
 *     points the pure loop flushes (checkpoint, deadlock, overrun, normal
 *     exit) -- and, like the pure loop, NOT when an arbitrary exception
 *     unwinds;
 *   - heap pushes/pops go through heapq on the very list the engine owns,
 *     building the same 7-tuples, so a snapshot taken mid-run is
 *     indistinguishable from one taken under the pure loop.
 *
 * The wrapper (repro.sim.backend.accel) only routes engines here when
 * there are no observers, no fault plan, and interference is disabled;
 * this file re-checks those invariants at entry and refuses otherwise.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#if PY_VERSION_HEX < 0x030A0000
#error "repro.sim.backend._core requires CPython >= 3.10 (PyIter_Send)"
#endif

/* event kinds -- must match repro.sim.engine._EV_* */
#define EV_CHUNK 0
#define EV_PAUSE 1
#define EV_OVERHEAD 2
#define EV_SLEEP 3
#define EV_TIMER 4

#define SNAP_NONE LLONG_MIN

/* op-log special-entry tags -- must match repro.sim.engine._T_* */
#define T_SEND 0
#define T_STOP 1

/* ------------------------------------------------------------------ strings */

#define STR_LIST(X)                                                         \
    X(now) X(_seq) X(total_cpu_ns) X(_alive) X(_sleeping) X(_timer_count)   \
    X(events_processed) X(hook) X(_oplog) X(_line_watchers) X(_op_table)    \
    X(ready) X(running) X(observers) X(sampler) X(cfg) X(_coalesce)         \
    X(_sampling_live) X(_snap_next) X(_heap) X(_faults)                     \
    X(quantum_ns) X(cores) X(max_virtual_ns) X(flush_samples_on_block)      \
    X(interference_coeff) X(period_ns) X(batch_size) X(account) X(drain)    \
    X(line) X(memory_bound) X(duration) X(append) X(popleft) X(add)         \
    X(discard) X(on_line_visit) X(before_block) X(before_wake_op)           \
    X(_deliver_batch) X(_take_checkpoint) X(_raise_deadlock)                \
    X(_raise_overrun) X(_truncate_pending) X(_truncate_for_fairness)        \
    X(_wake) X(_make_ready) X(_start_pause) X(_start_overhead_slice)        \
    X(_begin_exit) X(_resolve_op_plan) X(_setup_op_body)                    \
    X(mutex) X(func) X(callsite) X(owner) X(acquires) X(waiters)            \
    X(name) X(n) X(progress_counts) X(on_progress) X(total_delay_ns)        \
    X(_call_overhead_ns) X(_do_lock) X(_do_unlock) X(_do_push_frame)        \
    X(_do_pop_frame) X(_do_progress) X(contended_acquires) X(on_unblock)   \
    X(ids) X(specials) X(sync)

#define DECL_STR(n) static PyObject *s_##n;
STR_LIST(DECL_STR)
#undef DECL_STR

static PyObject *float_one; /* 1.0, shared chunk_rate value */
static PyObject *str_inserted_pause; /* "inserted-pause" blocked_on marker */

/* ------------------------------------------------------------- thread slots */

enum {
    SL_STATE, SL_GEN, SL_SEND_VALUE, SL_CURRENT_OP, SL_ACTIVITY_REMAINING,
    SL_ACTIVITY_LINE, SL_ACTIVITY_MEMORY_BOUND, SL_CHUNK_START,
    SL_CHUNK_NOMINAL, SL_CHUNK_RATE, SL_CHUNK_TOKEN, SL_CHAIN_KEY,
    SL_CONTINUATION, SL_PENDING_PAUSE, SL_PENDING_CPU, SL_CPU_NS,
    SL_SAMPLE_ACCUM, SL_SAMPLE_BUFFER, SL_CHAIN_CACHE, SL_TID,
    SL_EXIT_VALUE, SL_STACK, SL_BLOCKED_ON, SL_PAUSE_NS, SL_PROFILER_CPU,
    SL_WOKEN_BY,
    SL_COUNT
};

static const char *slot_names[SL_COUNT] = {
    "state", "gen", "send_value", "current_op", "activity_remaining",
    "activity_line", "activity_memory_bound", "chunk_start",
    "chunk_nominal", "chunk_rate", "chunk_token", "chain_key",
    "continuation", "pending_pause_ns", "pending_cpu_ns", "cpu_ns",
    "sample_accum", "sample_buffer", "chain_cache", "tid",
    "exit_value", "stack", "blocked_on", "pause_ns", "profiler_cpu_ns",
    "woken_by",
};

static Py_ssize_t slot_off[SL_COUNT];
static PyTypeObject *slot_type = NULL;

/* Extract the VThread __slots__ member offsets once per process.  A
 * member_descriptor's offset is valid for subclass instances too, so the
 * per-thread check below is a subtype check, not an exact-type check. */
static int
resolve_slots(PyObject *vt_type)
{
    if ((PyTypeObject *)vt_type == slot_type)
        return 0;
    if (!PyType_Check(vt_type)) {
        PyErr_SetString(PyExc_TypeError, "accel ctx[8] must be the VThread type");
        return -1;
    }
    for (int i = 0; i < SL_COUNT; i++) {
        PyObject *descr = PyObject_GetAttrString(vt_type, slot_names[i]);
        if (descr == NULL)
            return -1;
        if (Py_TYPE(descr) != &PyMemberDescr_Type) {
            Py_DECREF(descr);
            PyErr_Format(PyExc_TypeError,
                         "VThread.%s is not a __slots__ member descriptor",
                         slot_names[i]);
            return -1;
        }
        PyMemberDef *m = ((PyMemberDescrObject *)descr)->d_member;
        if (m->type != T_OBJECT_EX) {
            Py_DECREF(descr);
            PyErr_Format(PyExc_TypeError,
                         "VThread.%s slot has unexpected member type",
                         slot_names[i]);
            return -1;
        }
        slot_off[i] = m->offset;
        Py_DECREF(descr);
    }
    slot_type = (PyTypeObject *)vt_type;
    return 0;
}

/* borrowed reference (slots are always initialized by VThread.__init__) */
static inline PyObject *
t_get(PyObject *t, int idx)
{
    PyObject *v = *(PyObject **)((char *)t + slot_off[idx]);
    if (v == NULL)
        PyErr_Format(PyExc_AttributeError, "unset thread slot '%s'",
                     slot_names[idx]);
    return v;
}

/* store a borrowed reference (increfs) */
static inline void
t_set(PyObject *t, int idx, PyObject *v)
{
    PyObject **p = (PyObject **)((char *)t + slot_off[idx]);
    Py_INCREF(v);
    PyObject *old = *p;
    *p = v;
    Py_XDECREF(old);
}

static inline int
t_get_ll(PyObject *t, int idx, long long *out)
{
    PyObject *v = t_get(t, idx);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLongLong(v);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

static inline int
t_set_ll(PyObject *t, int idx, long long val)
{
    PyObject *n = PyLong_FromLongLong(val);
    if (n == NULL)
        return -1;
    PyObject **p = (PyObject **)((char *)t + slot_off[idx]);
    PyObject *old = *p;
    *p = n;
    Py_XDECREF(old);
    return 0;
}

/* ------------------------------------------------------------ engine attrs */

static int
e_get_ll(PyObject *eng, PyObject *name, long long *out)
{
    PyObject *v = PyObject_GetAttr(eng, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

static int
e_set_ll(PyObject *eng, PyObject *name, long long val)
{
    PyObject *n = PyLong_FromLongLong(val);
    if (n == NULL)
        return -1;
    int r = PyObject_SetAttr(eng, name, n);
    Py_DECREF(n);
    return r;
}

static int
e_add_ll(PyObject *eng, PyObject *name, long long delta)
{
    long long v;
    if (e_get_ll(eng, name, &v) < 0)
        return -1;
    return e_set_ll(eng, name, v + delta);
}

/* ------------------------------------------------------------------- maths */

static inline int
add_ll(long long a, long long b, long long *out)
{
    if (__builtin_add_overflow(a, b, out)) {
        PyErr_SetString(PyExc_OverflowError,
                        "virtual-time overflow in the accel engine core");
        return -1;
    }
    return 0;
}

/* Python floor division for int64 (divisor > 0) */
static inline long long
fdiv_ll(long long a, long long b)
{
    long long q = a / b;
    if (a % b != 0 && (a < 0) != (b < 0))
        q--;
    return q;
}

/* --------------------------------------------------------------- loop ctx */

typedef struct {
    PyObject *eng;
    /* borrowed singletons from the ctx tuple (tuple outlives the call) */
    PyObject *READY, *RUNNING, *BLOCKED, *SLEEPING;
    PyObject *work_cls, *runtime_line;
    PyObject *heappush, *heappop;
    /* owned hoists */
    PyObject *heap, *ready, *running;
    PyObject *ready_append, *ready_popleft, *run_add, *run_discard;
    PyObject *sampler, *acct, *drain, *deliver;
    PyObject *op_table, *line_watchers;
    /* hook and action hoists: the hook and the per-op-class action table
     * are fixed for the duration of a run, so the underlying functions of
     * the hottest op actions are captured once and pattern-matched at the
     * action call sites (c_try_action) to run inline in C */
    PyObject *hook, *progress_counts;
    /* bound hook methods, hoisted once per loop (NULL when hook is None):
     * skips a per-edge attribute lookup on the hottest callback sites */
    PyObject *h_before_block, *h_before_wake, *h_unblock, *h_progress;
    PyObject *fn_lock, *fn_unlock, *fn_push, *fn_pop, *fn_progress;
    PyObject *frame_cls; /* borrowed from the ctx tuple */
    PyObject *sync_attrs; /* borrowed from the ctx tuple */
    /* the recorder's OpLog columns (all NULL when no recorder is attached) */
    PyObject *log_ids, *log_ids_append, *log_specials, *log_sync;
    long long call_overhead;
    long long quantum, cores, max_ns, period, batch_size;
    int has_max, sampling_live, coalesce, flush_on_block;
    long long now, snap_next, events;
} Ctx;

static void
ctx_clear(Ctx *c)
{
    Py_XDECREF(c->heap);
    Py_XDECREF(c->ready);
    Py_XDECREF(c->running);
    Py_XDECREF(c->ready_append);
    Py_XDECREF(c->ready_popleft);
    Py_XDECREF(c->run_add);
    Py_XDECREF(c->run_discard);
    Py_XDECREF(c->sampler);
    Py_XDECREF(c->acct);
    Py_XDECREF(c->drain);
    Py_XDECREF(c->deliver);
    Py_XDECREF(c->op_table);
    Py_XDECREF(c->line_watchers);
    Py_XDECREF(c->hook);
    Py_XDECREF(c->progress_counts);
    Py_XDECREF(c->h_before_block);
    Py_XDECREF(c->h_before_wake);
    Py_XDECREF(c->h_unblock);
    Py_XDECREF(c->h_progress);
    Py_XDECREF(c->fn_lock);
    Py_XDECREF(c->fn_unlock);
    Py_XDECREF(c->fn_push);
    Py_XDECREF(c->fn_pop);
    Py_XDECREF(c->fn_progress);
    Py_XDECREF(c->log_ids);
    Py_XDECREF(c->log_ids_append);
    Py_XDECREF(c->log_specials);
    Py_XDECREF(c->log_sync);
}

static int
flush_events(Ctx *c)
{
    if (c->events == 0)
        return 0;
    int r = e_add_ll(c->eng, s_events_processed, c->events);
    c->events = 0;
    return r;
}

/* push (when, lp, sub, seq, kind, obj, arg) via heapq.heappush */
static int
c_push(Ctx *c, long long when, long long lp, long long sub, long long seq,
       long kind, PyObject *obj, long long arg)
{
    PyObject *tup = PyTuple_New(7);
    if (tup == NULL)
        return -1;
    PyObject *v;
    if ((v = PyLong_FromLongLong(when)) == NULL) goto fail;
    PyTuple_SET_ITEM(tup, 0, v);
    if ((v = PyLong_FromLongLong(lp)) == NULL) goto fail;
    PyTuple_SET_ITEM(tup, 1, v);
    if ((v = PyLong_FromLongLong(sub)) == NULL) goto fail;
    PyTuple_SET_ITEM(tup, 2, v);
    if ((v = PyLong_FromLongLong(seq)) == NULL) goto fail;
    PyTuple_SET_ITEM(tup, 3, v);
    if ((v = PyLong_FromLong(kind)) == NULL) goto fail;
    PyTuple_SET_ITEM(tup, 4, v);
    Py_INCREF(obj);
    PyTuple_SET_ITEM(tup, 5, obj);
    if ((v = PyLong_FromLongLong(arg)) == NULL) goto fail;
    PyTuple_SET_ITEM(tup, 6, v);
    {
        PyObject *argv[2] = {c->heap, tup};
        PyObject *r = PyObject_Vectorcall(c->heappush, argv, 2, NULL);
        Py_DECREF(tup);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    return 0;
fail:
    Py_DECREF(tup);
    return -1;
}

static Py_ssize_t
buf_len(PyObject *buf)
{
    /* ColumnarBuf keeps a running count in its `n` slot; reading it as an
     * attribute skips the Python-level __len__ call on the hottest check */
    PyObject *n = PyObject_GetAttr(buf, s_n);
    if (n == NULL) {
        PyErr_Clear();
        return PyObject_Size(buf);
    }
    Py_ssize_t v = PyLong_AsSsize_t(n);
    Py_DECREF(n);
    return v;
}

/* forward decls */
static int c_drive(Ctx *c, PyObject *t);
static int c_advance(Ctx *c, PyObject *t);
static int c_setup_op(Ctx *c, PyObject *t, PyObject *op, PyObject *plan);
static int c_call_action(Ctx *c, PyObject *fnobj, PyObject *t, PyObject *arg);

/* ------------------------------------------------------------ _begin_chunk */

static int
c_begin_chunk(Ctx *c, PyObject *t)
{
    /* interference is disabled under accel eligibility, so the rate is
     * always exactly 1.0 and real time == nominal time */
    long long q = c->quantum;
    long long nominal, tok, ck, seq, when;
    if (t_get_ll(t, SL_ACTIVITY_REMAINING, &nominal) < 0)
        return -1;
    if (c->coalesce && nominal > q) {
        Py_ssize_t rn = PyObject_Size(c->ready);
        if (rn < 0)
            return -1;
        if (rn == 0) {
            if (c->sampling_live) {
                PyObject *sb = t_get(t, SL_SAMPLE_BUFFER);
                if (sb == NULL)
                    return -1;
                Py_ssize_t blen = buf_len(sb);
                if (blen < 0)
                    return -1;
                long long accum;
                if (t_get_ll(t, SL_SAMPLE_ACCUM, &accum) < 0)
                    return -1;
                long long x0 =
                    (c->batch_size - (long long)blen) * c->period - accum;
                long long bound = (x0 <= q) ? q : ((x0 + q - 1) / q) * q;
                if (bound < nominal)
                    nominal = bound;
            }
            if (c->has_max && nominal > q) {
                long long cap = (fdiv_ll(c->max_ns - c->now, q) + 1) * q;
                if (cap < q)
                    cap = q;
                if (cap < nominal)
                    nominal = cap;
            }
            if (t_get_ll(t, SL_CHAIN_KEY, &ck) < 0)
                return -1;
            long long seq_cur;
            if (e_get_ll(c->eng, s__seq, &seq_cur) < 0)
                return -1;
            if (ck == 0) {
                ck = seq_cur + 1;
                if (t_set_ll(t, SL_CHAIN_KEY, ck) < 0)
                    return -1;
            }
            if (t_set_ll(t, SL_CHUNK_START, c->now) < 0 ||
                t_set_ll(t, SL_CHUNK_NOMINAL, nominal) < 0)
                return -1;
            if (t_get_ll(t, SL_CHUNK_TOKEN, &tok) < 0)
                return -1;
            tok += 1;
            if (t_set_ll(t, SL_CHUNK_TOKEN, tok) < 0)
                return -1;
            t_set(t, SL_CHUNK_RATE, float_one);
            if (add_ll(c->now, nominal, &when) < 0)
                return -1;
            long long rem = (nominal - 1) % q + 1;
            seq = seq_cur + 1;
            if (e_set_ll(c->eng, s__seq, seq) < 0)
                return -1;
            return c_push(c, when, when - rem, ck, seq, EV_CHUNK, t, tok);
        }
    }
    /* legacy quantum path */
    if (nominal > q)
        nominal = q;
    if (t_set_ll(t, SL_CHUNK_START, c->now) < 0 ||
        t_set_ll(t, SL_CHUNK_NOMINAL, nominal) < 0)
        return -1;
    t_set(t, SL_CHUNK_RATE, float_one);
    if (t_get_ll(t, SL_CHUNK_TOKEN, &tok) < 0)
        return -1;
    tok += 1;
    if (t_set_ll(t, SL_CHUNK_TOKEN, tok) < 0)
        return -1;
    if (t_get_ll(t, SL_CHAIN_KEY, &ck) < 0)
        return -1;
    long long seq_cur;
    if (e_get_ll(c->eng, s__seq, &seq_cur) < 0)
        return -1;
    if (ck == 0 && t_set_ll(t, SL_CHAIN_KEY, seq_cur + 1) < 0)
        return -1;
    seq = seq_cur + 1;
    if (e_set_ll(c->eng, s__seq, seq) < 0)
        return -1;
    if (add_ll(c->now, nominal, &when) < 0)
        return -1;
    return c_push(c, when, c->now, seq, seq, EV_CHUNK, t, tok);
}

/* --------------------------------------------------------------- _setup_op */

/* Mirror of Engine._setup_op's inlined body for a Work subclass or a
 * cost/action op (shared by the pre-pause-free path). */
static int
c_setup_op_body(Ctx *c, PyObject *t, PyObject *op, long long cost,
                PyObject *action)
{
    if (action == Py_None) {
        /* Work subclass: activity fields set directly, no cost op */
        PyObject *line = PyObject_GetAttr(op, s_line);
        if (line == NULL)
            return -1;
        int wl = PySet_Contains(c->line_watchers, line);
        if (wl < 0) {
            Py_DECREF(line);
            return -1;
        }
        if (wl && c->hook != Py_None) {
            PyObject *r = PyObject_CallMethodObjArgs(
                c->hook, s_on_line_visit, t, line, NULL);
            if (r == NULL) {
                Py_DECREF(line);
                return -1;
            }
            Py_DECREF(r);
        }
        PyObject *cur = t_get(t, SL_ACTIVITY_LINE);
        if (cur == NULL) {
            Py_DECREF(line);
            return -1;
        }
        if (line != cur) {
            t_set(t, SL_ACTIVITY_LINE, line);
            t_set(t, SL_CHAIN_CACHE, Py_None);
        }
        Py_DECREF(line);
        PyObject *mb = PyObject_GetAttr(op, s_memory_bound);
        if (mb == NULL)
            return -1;
        t_set(t, SL_ACTIVITY_MEMORY_BOUND, mb);
        Py_DECREF(mb);
        PyObject *dur = PyObject_GetAttr(op, s_duration);
        if (dur == NULL)
            return -1;
        t_set(t, SL_ACTIVITY_REMAINING, dur);
        Py_DECREF(dur);
        return 0;
    }
    if (cost > 0) {
        PyObject *line = PyObject_GetAttr(op, s_line);
        if (line == NULL) {
            if (!PyErr_ExceptionMatches(PyExc_AttributeError))
                return -1;
            PyErr_Clear();
            line = c->runtime_line;
            Py_INCREF(line);
        } else if (line == Py_None) {
            Py_DECREF(line);
            line = c->runtime_line;
            Py_INCREF(line);
        }
        if (t_set_ll(t, SL_ACTIVITY_REMAINING, cost) < 0) {
            Py_DECREF(line);
            return -1;
        }
        PyObject *cur = t_get(t, SL_ACTIVITY_LINE);
        if (cur == NULL) {
            Py_DECREF(line);
            return -1;
        }
        if (line != cur) {
            t_set(t, SL_ACTIVITY_LINE, line);
            t_set(t, SL_CHAIN_CACHE, Py_None);
        }
        Py_DECREF(line);
        t_set(t, SL_ACTIVITY_MEMORY_BOUND, Py_False);
        PyObject *cont = PyTuple_Pack(2, action, op);
        if (cont == NULL)
            return -1;
        t_set(t, SL_CONTINUATION, cont);
        Py_DECREF(cont);
        return 0;
    }
    return c_call_action(c, action, t, op);
}

static int
c_setup_op(Ctx *c, PyObject *t, PyObject *op, PyObject *plan /* borrowed */)
{
    PyObject *owned_plan = NULL;
    int rv = -1;
    if (plan == NULL) {
        plan = PyDict_GetItemWithError(c->op_table, (PyObject *)Py_TYPE(op));
        if (plan == NULL) {
            if (PyErr_Occurred())
                return -1;
            owned_plan = PyObject_CallMethodObjArgs(
                c->eng, s__resolve_op_plan, t, op, NULL);
            if (owned_plan == NULL)
                return -1;
            plan = owned_plan;
        }
    }
    if (!PyTuple_Check(plan) || PyTuple_GET_SIZE(plan) != 4) {
        PyErr_SetString(PyExc_TypeError, "malformed op plan");
        goto done;
    }
    {
        long long cost = PyLong_AsLongLong(PyTuple_GET_ITEM(plan, 0));
        if (cost == -1 && PyErr_Occurred())
            goto done;
        PyObject *action = PyTuple_GET_ITEM(plan, 1);
        int blocking = PyObject_IsTrue(PyTuple_GET_ITEM(plan, 2));
        int waking = PyObject_IsTrue(PyTuple_GET_ITEM(plan, 3));
        if (blocking < 0 || waking < 0)
            goto done;
        if (blocking || waking) {
            if (c->flush_on_block && c->sampling_live) {
                PyObject *sb = t_get(t, SL_SAMPLE_BUFFER);
                if (sb == NULL)
                    goto done;
                Py_ssize_t blen = buf_len(sb);
                if (blen < 0)
                    goto done;
                if (blen > 0) {
                    PyObject *argv1[1] = {t};
                    PyObject *batch =
                        PyObject_Vectorcall(c->drain, argv1, 1, NULL);
                    if (batch == NULL)
                        goto done;
                    PyObject *argv2[2] = {t, batch};
                    PyObject *r =
                        PyObject_Vectorcall(c->deliver, argv2, 2, NULL);
                    Py_DECREF(batch);
                    if (r == NULL)
                        goto done;
                    Py_DECREF(r);
                }
            }
            if (c->hook != Py_None) {
                long long pre = 0;
                if (blocking) {
                    PyObject *r = PyObject_CallOneArg(c->h_before_block, t);
                    if (r == NULL)
                        goto done;
                    long long p = PyLong_AsLongLong(r);
                    Py_DECREF(r);
                    if (p == -1 && PyErr_Occurred())
                        goto done;
                    pre += p;
                }
                if (waking) {
                    PyObject *r = PyObject_CallOneArg(c->h_before_wake, t);
                    if (r == NULL)
                        goto done;
                    long long p = PyLong_AsLongLong(r);
                    Py_DECREF(r);
                    if (p == -1 && PyErr_Occurred())
                        goto done;
                    pre += p;
                }
                if (pre > 0) {
                    long long pp;
                    if (t_get_ll(t, SL_PENDING_PAUSE, &pp) < 0 ||
                        t_set_ll(t, SL_PENDING_PAUSE, pp + pre) < 0)
                        goto done;
                    PyObject *body =
                        PyObject_GetAttr(c->eng, s__setup_op_body);
                    if (body == NULL)
                        goto done;
                    PyObject *cont = PyTuple_Pack(2, body, op);
                    Py_DECREF(body);
                    if (cont == NULL)
                        goto done;
                    t_set(t, SL_CONTINUATION, cont);
                    Py_DECREF(cont);
                    rv = 0;
                    goto done;
                }
            }
        }
        rv = c_setup_op_body(c, t, op, cost, action);
    }
done:
    Py_XDECREF(owned_plan);
    return rv;
}

/* ---------------------------------------------------------------- _advance */

/* Log one generator send to the recorder's OpLog -- the C twin of the
 * logging in Engine._advance (keep in sync).  `op` is NULL when the send
 * finished the generator.  The op's sync primitives are walked first: an
 * op that introduces one is a special entry even when its send is None. */
static int
c_log(Ctx *c, PyObject *t, PyObject *sv, PyObject *op)
{
    PyObject *tid = t_get(t, SL_TID);
    if (tid == NULL)
        return -1;
    int fresh = 0;
    if (op != NULL) {
        /* first-encounter ids for the op's sync primitives */
        PyObject *attrs =
            PyDict_GetItemWithError(c->sync_attrs, (PyObject *)Py_TYPE(op));
        if (attrs == NULL && PyErr_Occurred())
            return -1;
        if (attrs != NULL && !PyTuple_Check(attrs)) {
            PyErr_SetString(PyExc_TypeError, "malformed sync-attribute table");
            return -1;
        }
        Py_ssize_t n_attrs = attrs != NULL ? PyTuple_GET_SIZE(attrs) : 0;
        for (Py_ssize_t i = 0; i < n_attrs; i++) {
            PyObject *obj = PyObject_GetAttr(op, PyTuple_GET_ITEM(attrs, i));
            if (obj == NULL)
                return -1;
            int has = PyDict_Contains(c->log_sync, obj);
            if (has == 0) {
                PyObject *id =
                    PyLong_FromSsize_t(PyDict_GET_SIZE(c->log_sync));
                has = id ? PyDict_SetItem(c->log_sync, obj, id) : -1;
                Py_XDECREF(id);
                fresh = 1;
            }
            Py_DECREF(obj);
            if (has < 0)
                return -1;
        }
    }
    if (op != NULL && sv == Py_None && !fresh) {
        /* the common entry: one thread id appended to the array column */
        PyObject *r = PyObject_CallOneArg(c->log_ids_append, tid);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
    Py_ssize_t pos = PyObject_Length(c->log_ids);
    if (pos < 0)
        return -1;
    PyObject *rec = Py_BuildValue(
        "(niOO)", pos, op != NULL ? T_SEND : T_STOP, tid, sv);
    if (rec == NULL)
        return -1;
    int ap = PyList_Append(c->log_specials, rec);
    Py_DECREF(rec);
    return ap;
}

static int
c_advance(Ctx *c, PyObject *t)
{
    int rv = -1;
    PyObject *gen = t_get(t, SL_GEN);
    if (gen == NULL)
        return -1;
    Py_INCREF(gen);
    for (;;) {
        PyObject *sv = t_get(t, SL_SEND_VALUE);
        if (sv == NULL)
            goto done;
        Py_INCREF(sv);
        PyObject *op = NULL;
        PySendResult sr = PyIter_Send(gen, sv, &op);
        if (sr == PYGEN_ERROR) {
            Py_DECREF(sv);
            goto done;
        }
        if (sr == PYGEN_RETURN) {
            if (c->log_ids != NULL && c_log(c, t, sv, NULL) < 0) {
                Py_DECREF(sv);
                Py_DECREF(op);
                goto done;
            }
            Py_DECREF(sv);
            t_set(t, SL_EXIT_VALUE, op);
            Py_DECREF(op);
            PyObject *r =
                PyObject_CallMethodOneArg(c->eng, s__begin_exit, t);
            if (r == NULL)
                goto done;
            Py_DECREF(r);
            rv = 0;
            goto done;
        }
        /* PYGEN_NEXT: op is the yielded value (new ref) */
        if (c->log_ids != NULL && c_log(c, t, sv, op) < 0) {
            Py_DECREF(sv);
            Py_DECREF(op);
            goto done;
        }
        Py_DECREF(sv);
        t_set(t, SL_SEND_VALUE, Py_None);
        t_set(t, SL_CURRENT_OP, op);
        if ((PyObject *)Py_TYPE(op) == c->work_cls) {
            /* Work fast path: neither blocking nor waking, no cost */
            int r = c_setup_op_body(c, t, op, 0, Py_None);
            Py_DECREF(op);
            if (r < 0)
                goto done;
            rv = 0;
            goto done;
        }
        PyObject *plan =
            PyDict_GetItemWithError(c->op_table, (PyObject *)Py_TYPE(op));
        PyObject *owned_plan = NULL;
        if (plan == NULL) {
            if (PyErr_Occurred()) {
                Py_DECREF(op);
                goto done;
            }
            owned_plan = PyObject_CallMethodObjArgs(
                c->eng, s__resolve_op_plan, t, op, NULL);
            if (owned_plan == NULL) {
                Py_DECREF(op);
                goto done;
            }
            plan = owned_plan;
        }
        if (!PyTuple_Check(plan) || PyTuple_GET_SIZE(plan) != 4) {
            PyErr_SetString(PyExc_TypeError, "malformed op plan");
            Py_XDECREF(owned_plan);
            Py_DECREF(op);
            goto done;
        }
        long long cost = PyLong_AsLongLong(PyTuple_GET_ITEM(plan, 0));
        if (cost == -1 && PyErr_Occurred()) {
            Py_XDECREF(owned_plan);
            Py_DECREF(op);
            goto done;
        }
        PyObject *action = PyTuple_GET_ITEM(plan, 1);
        int blocking = PyObject_IsTrue(PyTuple_GET_ITEM(plan, 2));
        int waking = PyObject_IsTrue(PyTuple_GET_ITEM(plan, 3));
        if (blocking < 0 || waking < 0) {
            Py_XDECREF(owned_plan);
            Py_DECREF(op);
            goto done;
        }
        if (blocking || waking || cost > 0 || action == Py_None) {
            int r = c_setup_op(c, t, op, plan);
            Py_XDECREF(owned_plan);
            Py_DECREF(op);
            if (r < 0)
                goto done;
            rv = 0;
            goto done;
        }
        /* instant op: run its action, keep pulling unless it rescheduled */
        {
            Py_INCREF(action);
            int cr = c_call_action(c, action, t, op);
            Py_DECREF(action);
            Py_XDECREF(owned_plan);
            if (cr < 0) {
                Py_DECREF(op);
                goto done;
            }
        }
        Py_DECREF(op);
        {
            PyObject *st = t_get(t, SL_STATE);
            if (st == NULL)
                goto done;
            long long pp, pc, ar;
            if (t_get_ll(t, SL_PENDING_PAUSE, &pp) < 0 ||
                t_get_ll(t, SL_PENDING_CPU, &pc) < 0 ||
                t_get_ll(t, SL_ACTIVITY_REMAINING, &ar) < 0)
                goto done;
            PyObject *cont = t_get(t, SL_CONTINUATION);
            if (cont == NULL)
                goto done;
            if (st != c->RUNNING || pp > 0 || pc > 0 || ar > 0 ||
                cont != Py_None) {
                rv = 0;
                goto done;
            }
        }
    }
done:
    Py_DECREF(gen);
    return rv;
}

/* ----------------------------------------------------- inlined hot actions */

/* _start_overhead_slice: charge pending profiler CPU cost */
static int
c_start_overhead(Ctx *c, PyObject *t)
{
    long long dur, v;
    if (t_get_ll(t, SL_PENDING_CPU, &dur) < 0 ||
        t_set_ll(t, SL_PENDING_CPU, 0) < 0 ||
        t_get_ll(t, SL_PROFILER_CPU, &v) < 0 ||
        t_set_ll(t, SL_PROFILER_CPU, v + dur) < 0 ||
        t_get_ll(t, SL_CPU_NS, &v) < 0 ||
        t_set_ll(t, SL_CPU_NS, v + dur) < 0 ||
        e_add_ll(c->eng, s_total_cpu_ns, dur) < 0)
        return -1;
    long long tok, seq, when;
    if (t_get_ll(t, SL_CHUNK_TOKEN, &tok) < 0 ||
        t_set_ll(t, SL_CHUNK_TOKEN, tok + 1) < 0 ||
        e_get_ll(c->eng, s__seq, &seq) < 0 ||
        e_set_ll(c->eng, s__seq, seq + 1) < 0)
        return -1;
    seq += 1;
    if (add_ll(c->now, dur, &when) < 0)
        return -1;
    return c_push(c, when, c->now, seq, seq, EV_OVERHEAD, t, tok + 1);
}

/* _start_pause: take the thread off-CPU for a profiler-inserted pause.
 * The fault injector's maybe_spike branch does not exist here: accel
 * eligibility guarantees engine._faults is None. */
static int
c_start_pause(Ctx *c, PyObject *t)
{
    long long pause, v;
    if (t_get_ll(t, SL_PENDING_PAUSE, &pause) < 0 ||
        t_set_ll(t, SL_PENDING_PAUSE, 0) < 0 ||
        t_get_ll(t, SL_PAUSE_NS, &v) < 0 ||
        t_set_ll(t, SL_PAUSE_NS, v + pause) < 0 ||
        e_add_ll(c->eng, s_total_delay_ns, pause) < 0)
        return -1;
    /* _go_offcpu(t, SLEEPING, "inserted-pause") */
    {
        PyObject *argv[1] = {t};
        PyObject *r = PyObject_Vectorcall(c->run_discard, argv, 1, NULL);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    t_set(t, SL_STATE, c->SLEEPING);
    t_set(t, SL_BLOCKED_ON, str_inserted_pause);
    if (e_add_ll(c->eng, s__sleeping, 1) < 0)
        return -1;
    long long tok, seq, when;
    if (t_get_ll(t, SL_CHUNK_TOKEN, &tok) < 0 ||
        t_set_ll(t, SL_CHUNK_TOKEN, tok + 1) < 0 ||
        e_get_ll(c->eng, s__seq, &seq) < 0 ||
        e_set_ll(c->eng, s__seq, seq + 1) < 0)
        return -1;
    seq += 1;
    if (add_ll(c->now, pause, &when) < 0)
        return -1;
    return c_push(c, when, c->now, seq, seq, EV_PAUSE, t, tok + 1);
}

/* The hottest op actions, replicated in C and selected by comparing the
 * bound method's underlying function against the engine class's own
 * (captured at loop entry, so subclass overrides never match and fall
 * back to Python).  Observer fan-out is omitted throughout: accel
 * eligibility guarantees there are none.
 *
 * Returns 0 = handled, 1 = not inlined (caller runs the Python action),
 * -1 = error.  A path that cannot complete without Python (contended
 * lock, waking unlock, error cases) bails out BEFORE mutating anything,
 * so the Python action re-runs from an untouched state. */
static int
c_try_action(Ctx *c, PyObject *bound, PyObject *t, PyObject *op)
{
    if (!PyMethod_Check(bound) || PyMethod_GET_SELF(bound) != c->eng)
        return 1;
    PyObject *fn = PyMethod_GET_FUNCTION(bound);
    if (fn == c->fn_push) {
        /* _do_push_frame: t.current_func() is only consumed by observer
         * fan-out, so it is skipped here */
        PyObject *stack = t_get(t, SL_STACK);
        if (stack == NULL)
            return -1;
        if (!PyList_Check(stack))
            return 1;
        PyObject *func = PyObject_GetAttr(op, s_func);
        if (func == NULL)
            return -1;
        PyObject *cs = PyObject_GetAttr(op, s_callsite);
        if (cs == NULL) {
            Py_DECREF(func);
            return -1;
        }
        PyObject *argv[2] = {func, cs};
        PyObject *fr = PyObject_Vectorcall(c->frame_cls, argv, 2, NULL);
        Py_DECREF(func);
        Py_DECREF(cs);
        if (fr == NULL)
            return -1;
        int ap = PyList_Append(stack, fr);
        Py_DECREF(fr);
        if (ap < 0)
            return -1;
        t_set(t, SL_CHAIN_CACHE, Py_None);
        if (c->call_overhead) {
            long long pc;
            if (t_get_ll(t, SL_PENDING_CPU, &pc) < 0 ||
                t_set_ll(t, SL_PENDING_CPU, pc + c->call_overhead) < 0)
                return -1;
        }
        return 0;
    }
    if (fn == c->fn_pop) {
        PyObject *stack = t_get(t, SL_STACK);
        if (stack == NULL)
            return -1;
        Py_ssize_t n;
        if (!PyList_Check(stack) || (n = PyList_GET_SIZE(stack)) == 0)
            return 1; /* empty stack: the Python action raises the error */
        if (PyList_SetSlice(stack, n - 1, n, NULL) < 0)
            return -1;
        t_set(t, SL_CHAIN_CACHE, Py_None);
        return 0;
    }
    if (fn == c->fn_progress) {
        if (!PyDict_Check(c->progress_counts))
            return 1;
        PyObject *name = PyObject_GetAttr(op, s_name);
        if (name == NULL)
            return -1;
        /* progress_counts[name] += 1: Counter.__missing__ yields 0 for an
         * absent key without inserting it, which the NULL branch mirrors */
        PyObject *cur = PyDict_GetItemWithError(c->progress_counts, name);
        long long v = 0;
        if (cur == NULL) {
            if (PyErr_Occurred()) {
                Py_DECREF(name);
                return -1;
            }
        } else if (PyLong_CheckExact(cur)) {
            v = PyLong_AsLongLong(cur);
            if (v == -1 && PyErr_Occurred()) {
                Py_DECREF(name);
                return -1;
            }
        } else {
            Py_DECREF(name);
            return 1;
        }
        PyObject *nv = PyLong_FromLongLong(v + 1);
        if (nv == NULL) {
            Py_DECREF(name);
            return -1;
        }
        int sr = PyDict_SetItem(c->progress_counts, name, nv);
        Py_DECREF(nv);
        if (sr < 0) {
            Py_DECREF(name);
            return -1;
        }
        if (c->h_progress != NULL) {
            PyObject *argv[2] = {t, name};
            PyObject *r = PyObject_Vectorcall(c->h_progress, argv, 2, NULL);
            if (r == NULL) {
                Py_DECREF(name);
                return -1;
            }
            Py_DECREF(r);
        }
        Py_DECREF(name);
        return 0;
    }
    if (fn == c->fn_lock) {
        /* _do_lock, uncontended path only */
        PyObject *m = PyObject_GetAttr(op, s_mutex);
        if (m == NULL)
            return -1;
        PyObject *owner = PyObject_GetAttr(m, s_owner);
        if (owner == NULL) {
            Py_DECREF(m);
            return -1;
        }
        int uncontended = (owner == Py_None);
        Py_DECREF(owner);
        if (!uncontended) {
            /* contended: waiters.append(t); contended_acquires += 1;
             * _block(t, f"mutex:{name}", m).  With no observers attached
             * (the accel precondition) _block reduces to _go_offcpu.  All
             * guards run before the first mutation so a fallback re-runs
             * the Python action cleanly. */
            PyObject *ca = PyObject_GetAttr(m, s_contended_acquires);
            if (ca == NULL) {
                Py_DECREF(m);
                return -1;
            }
            if (!PyLong_CheckExact(ca)) {
                Py_DECREF(ca);
                Py_DECREF(m);
                return 1;
            }
            long long cav = PyLong_AsLongLong(ca);
            Py_DECREF(ca);
            if (cav == -1 && PyErr_Occurred()) {
                Py_DECREF(m);
                return -1;
            }
            PyObject *nm = PyObject_GetAttr(m, s_name);
            if (nm == NULL) {
                Py_DECREF(m);
                return -1;
            }
            if (!PyUnicode_Check(nm)) {
                Py_DECREF(nm);
                Py_DECREF(m);
                return 1;
            }
            PyObject *why = PyUnicode_FromFormat("mutex:%U", nm);
            Py_DECREF(nm);
            if (why == NULL) {
                Py_DECREF(m);
                return -1;
            }
            PyObject *waiters = PyObject_GetAttr(m, s_waiters);
            if (waiters == NULL) {
                Py_DECREF(why);
                Py_DECREF(m);
                return -1;
            }
            PyObject *r = PyObject_CallMethodOneArg(waiters, s_append, t);
            Py_DECREF(waiters);
            if (r == NULL) {
                Py_DECREF(why);
                Py_DECREF(m);
                return -1;
            }
            Py_DECREF(r);
            PyObject *nca = PyLong_FromLongLong(cav + 1);
            if (nca == NULL ||
                PyObject_SetAttr(m, s_contended_acquires, nca) < 0) {
                Py_XDECREF(nca);
                Py_DECREF(why);
                Py_DECREF(m);
                return -1;
            }
            Py_DECREF(nca);
            Py_DECREF(m);
            /* _go_offcpu(t, BLOCKED, why) */
            r = PyObject_CallOneArg(c->run_discard, t);
            if (r == NULL) {
                Py_DECREF(why);
                return -1;
            }
            Py_DECREF(r);
            t_set(t, SL_STATE, c->BLOCKED);
            t_set(t, SL_BLOCKED_ON, why);
            Py_DECREF(why);
            return 0;
        }
        PyObject *acq = PyObject_GetAttr(m, s_acquires);
        if (acq == NULL) {
            Py_DECREF(m);
            return -1;
        }
        if (!PyLong_CheckExact(acq)) {
            Py_DECREF(acq);
            Py_DECREF(m);
            return 1;
        }
        long long a = PyLong_AsLongLong(acq);
        Py_DECREF(acq);
        if (a == -1 && PyErr_Occurred()) {
            Py_DECREF(m);
            return -1;
        }
        PyObject *na = PyLong_FromLongLong(a + 1);
        if (na == NULL) {
            Py_DECREF(m);
            return -1;
        }
        int ok = (PyObject_SetAttr(m, s_owner, t) == 0 &&
                  PyObject_SetAttr(m, s_acquires, na) == 0);
        Py_DECREF(na);
        Py_DECREF(m);
        return ok ? 0 : -1;
    }
    if (fn == c->fn_unlock) {
        /* _do_unlock with no waiters; owner mismatch (error) and the
         * waiter-wake path fall back */
        PyObject *m = PyObject_GetAttr(op, s_mutex);
        if (m == NULL)
            return -1;
        PyObject *owner = PyObject_GetAttr(m, s_owner);
        if (owner == NULL) {
            Py_DECREF(m);
            return -1;
        }
        int is_owner = (owner == t);
        Py_DECREF(owner);
        if (!is_owner) {
            Py_DECREF(m);
            return 1;
        }
        PyObject *waiters = PyObject_GetAttr(m, s_waiters);
        if (waiters == NULL) {
            Py_DECREF(m);
            return -1;
        }
        Py_ssize_t wn = PyObject_Size(waiters);
        if (wn < 0) {
            Py_DECREF(waiters);
            Py_DECREF(m);
            return -1;
        }
        if (wn == 0) {
            Py_DECREF(waiters);
            int ok = (PyObject_SetAttr(m, s_owner, Py_None) == 0);
            Py_DECREF(m);
            return ok ? 0 : -1;
        }
        /* waiter handoff: w = waiters.popleft(); owner = w; acquires += 1;
         * _wake(w, waker=t).  Peek the head waiter and run every guard —
         * thread type, BLOCKED state, counter shape — before the first
         * mutation so fallbacks re-run the Python action cleanly (the
         * non-BLOCKED error path falls back and raises from Python). */
        PyObject *w = PySequence_GetItem(waiters, 0);
        if (w == NULL) {
            Py_DECREF(waiters);
            Py_DECREF(m);
            return -1;
        }
        if (!PyObject_TypeCheck(w, slot_type)) {
            Py_DECREF(w);
            Py_DECREF(waiters);
            Py_DECREF(m);
            return 1;
        }
        PyObject *ws = t_get(w, SL_STATE);
        if (ws == NULL || ws != c->BLOCKED) {
            Py_DECREF(w);
            Py_DECREF(waiters);
            Py_DECREF(m);
            return ws == NULL ? -1 : 1;
        }
        PyObject *acq = PyObject_GetAttr(m, s_acquires);
        if (acq == NULL) {
            Py_DECREF(w);
            Py_DECREF(waiters);
            Py_DECREF(m);
            return -1;
        }
        if (!PyLong_CheckExact(acq)) {
            Py_DECREF(acq);
            Py_DECREF(w);
            Py_DECREF(waiters);
            Py_DECREF(m);
            return 1;
        }
        long long a = PyLong_AsLongLong(acq);
        Py_DECREF(acq);
        if (a == -1 && PyErr_Occurred()) {
            Py_DECREF(w);
            Py_DECREF(waiters);
            Py_DECREF(m);
            return -1;
        }
        PyObject *popped = PyObject_CallMethodNoArgs(waiters, s_popleft);
        Py_DECREF(waiters);
        if (popped == NULL) {
            Py_DECREF(w);
            Py_DECREF(m);
            return -1;
        }
        Py_DECREF(w);
        w = popped; /* the deque head cannot change between peek and pop */
        PyObject *na = PyLong_FromLongLong(a + 1);
        if (na == NULL ||
            PyObject_SetAttr(m, s_owner, w) < 0 ||
            PyObject_SetAttr(m, s_acquires, na) < 0) {
            Py_XDECREF(na);
            Py_DECREF(w);
            Py_DECREF(m);
            return -1;
        }
        Py_DECREF(na);
        Py_DECREF(m);
        /* _wake(w, waker=t): state already checked BLOCKED above */
        t_set(w, SL_WOKEN_BY, t);
        t_set(w, SL_SEND_VALUE, Py_None);
        if (c->h_unblock != NULL) {
            PyObject *argv[2] = {w, t};
            PyObject *pr = PyObject_Vectorcall(c->h_unblock, argv, 2, NULL);
            if (pr == NULL) {
                Py_DECREF(w);
                return -1;
            }
            long long pause = PyLong_AsLongLong(pr);
            Py_DECREF(pr);
            if (pause == -1 && PyErr_Occurred()) {
                Py_DECREF(w);
                return -1;
            }
            if (pause > 0) {
                long long pp;
                if (t_get_ll(w, SL_PENDING_PAUSE, &pp) < 0 ||
                    t_set_ll(w, SL_PENDING_PAUSE, pp + pause) < 0) {
                    Py_DECREF(w);
                    return -1;
                }
            }
        }
        t_set(w, SL_BLOCKED_ON, Py_None);
        t_set(w, SL_STATE, c->READY);
        {
            PyObject *r = PyObject_CallOneArg(c->ready_append, w);
            Py_DECREF(w);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
        }
        return 0;
    }
    return 1;
}

/* call an op action / continuation fn as fn(t, arg), inlining when known */
static int
c_call_action(Ctx *c, PyObject *fnobj, PyObject *t, PyObject *arg)
{
    int h = c_try_action(c, fnobj, t, arg);
    if (h <= 0)
        return h;
    PyObject *argv[2] = {t, arg};
    PyObject *r = PyObject_Vectorcall(fnobj, argv, 2, NULL);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* ------------------------------------------------------------------ _drive */

static int
c_drive(Ctx *c, PyObject *t)
{
    for (;;) {
        PyObject *st = t_get(t, SL_STATE);
        if (st == NULL)
            return -1;
        if (st != c->RUNNING)
            return 0;
        long long pend;
        if (t_get_ll(t, SL_PENDING_CPU, &pend) < 0)
            return -1;
        if (pend > 0)
            return c_start_overhead(c, t) < 0 ? -1 : 0;
        if (t_get_ll(t, SL_PENDING_PAUSE, &pend) < 0)
            return -1;
        if (pend > 0)
            return c_start_pause(c, t) < 0 ? -1 : 0;
        long long nominal;
        if (t_get_ll(t, SL_ACTIVITY_REMAINING, &nominal) < 0)
            return -1;
        if (nominal > 0) {
            if (nominal <= c->quantum) {
                /* inlined sub-quantum chunk start (dominant case) */
                if (t_set_ll(t, SL_CHUNK_START, c->now) < 0 ||
                    t_set_ll(t, SL_CHUNK_NOMINAL, nominal) < 0)
                    return -1;
                t_set(t, SL_CHUNK_RATE, float_one);
                long long tok;
                if (t_get_ll(t, SL_CHUNK_TOKEN, &tok) < 0)
                    return -1;
                tok += 1;
                if (t_set_ll(t, SL_CHUNK_TOKEN, tok) < 0)
                    return -1;
                long long ck, seq_cur;
                if (t_get_ll(t, SL_CHAIN_KEY, &ck) < 0 ||
                    e_get_ll(c->eng, s__seq, &seq_cur) < 0)
                    return -1;
                if (ck == 0 &&
                    t_set_ll(t, SL_CHAIN_KEY, seq_cur + 1) < 0)
                    return -1;
                long long seq = seq_cur + 1;
                if (e_set_ll(c->eng, s__seq, seq) < 0)
                    return -1;
                long long when;
                if (add_ll(c->now, nominal, &when) < 0)
                    return -1;
                return c_push(c, when, c->now, seq, seq, EV_CHUNK, t, tok);
            }
            return c_begin_chunk(c, t);
        }
        PyObject *cont = t_get(t, SL_CONTINUATION);
        if (cont == NULL)
            return -1;
        if (cont != Py_None) {
            Py_INCREF(cont);
            t_set(t, SL_CONTINUATION, Py_None);
            if (!PyTuple_Check(cont) || PyTuple_GET_SIZE(cont) != 2) {
                Py_DECREF(cont);
                PyErr_SetString(PyExc_TypeError,
                                "malformed thread continuation");
                return -1;
            }
            PyObject *fn = PyTuple_GET_ITEM(cont, 0);
            PyObject *arg = PyTuple_GET_ITEM(cont, 1);
            int cr = c_call_action(c, fn, t, arg);
            Py_DECREF(cont);
            if (cr < 0)
                return -1;
            continue;
        }
        if (c_advance(c, t) < 0)
            return -1;
    }
}

/* --------------------------------------------------------------- _dispatch */

static int
c_dispatch(Ctx *c)
{
    Py_ssize_t rn = PyObject_Size(c->ready);
    if (rn < 0)
        return -1;
    if (rn == 0)
        return 0;
    while (rn > 0 && PySet_GET_SIZE(c->running) < c->cores) {
        PyObject *t = PyObject_CallNoArgs(c->ready_popleft);
        if (t == NULL)
            return -1;
        if (!PyObject_TypeCheck(t, slot_type)) {
            Py_DECREF(t);
            PyErr_SetString(PyExc_TypeError,
                            "non-VThread object in ready queue");
            return -1;
        }
        PyObject *st = t_get(t, SL_STATE);
        if (st == NULL) {
            Py_DECREF(t);
            return -1;
        }
        if (st != c->READY) { /* defensive; should not happen */
            Py_DECREF(t);
            rn = PyObject_Size(c->ready);
            if (rn < 0)
                return -1;
            continue;
        }
        t_set(t, SL_STATE, c->RUNNING);
        /* leaving the ready queue starts a new chunk chain */
        if (t_set_ll(t, SL_CHAIN_KEY, 0) < 0) {
            Py_DECREF(t);
            return -1;
        }
        {
            PyObject *argv[1] = {t};
            PyObject *r = PyObject_Vectorcall(c->run_add, argv, 1, NULL);
            if (r == NULL) {
                Py_DECREF(t);
                return -1;
            }
            Py_DECREF(r);
        }
        int dr = c_drive(c, t);
        Py_DECREF(t);
        if (dr < 0)
            return -1;
        rn = PyObject_Size(c->ready);
        if (rn < 0)
            return -1;
    }
    if (rn > 0 && c->coalesce) {
        PyObject *r =
            PyObject_CallMethodNoArgs(c->eng, s__truncate_for_fairness);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    return 0;
}

/* -------------------------------------------------- chunk completion event */

static int
c_chunk_event(Ctx *c, PyObject *obj, long long tok_ev)
{
    long long tok;
    if (t_get_ll(obj, SL_CHUNK_TOKEN, &tok) < 0)
        return -1;
    PyObject *st = t_get(obj, SL_STATE);
    if (st == NULL)
        return -1;
    if (tok != tok_ev || st != c->RUNNING)
        return 0;
    long long nominal;
    if (t_get_ll(obj, SL_CHUNK_NOMINAL, &nominal) < 0)
        return -1;
    if (nominal > 0) {
        long long ar, cpu;
        if (t_get_ll(obj, SL_ACTIVITY_REMAINING, &ar) < 0 ||
            t_set_ll(obj, SL_ACTIVITY_REMAINING, ar - nominal) < 0 ||
            t_get_ll(obj, SL_CPU_NS, &cpu) < 0 ||
            t_set_ll(obj, SL_CPU_NS, cpu + nominal) < 0 ||
            e_add_ll(c->eng, s_total_cpu_ns, nominal) < 0)
            return -1;
        /* no observers under accel eligibility (checked at entry), so the
         * pure loop's on_work fan-out has nothing to do here */
        if (c->sampling_live) {
            long long accum;
            if (t_get_ll(obj, SL_SAMPLE_ACCUM, &accum) < 0)
                return -1;
            accum += nominal;
            int short_span = 0;
            if (accum < c->period) {
                PyObject *sb = t_get(obj, SL_SAMPLE_BUFFER);
                if (sb == NULL)
                    return -1;
                Py_ssize_t blen = buf_len(sb);
                if (blen < 0)
                    return -1;
                short_span = (long long)blen < c->batch_size;
            }
            if (short_span) {
                if (t_set_ll(obj, SL_SAMPLE_ACCUM, accum) < 0)
                    return -1;
            } else {
                PyObject *nom_o = PyLong_FromLongLong(nominal);
                PyObject *now_o = PyLong_FromLongLong(c->now);
                PyObject *rate_o = t_get(obj, SL_CHUNK_RATE);
                if (nom_o == NULL || now_o == NULL || rate_o == NULL) {
                    Py_XDECREF(nom_o);
                    Py_XDECREF(now_o);
                    return -1;
                }
                PyObject *argv[5] = {obj, nom_o, now_o, Py_True, rate_o};
                PyObject *batch =
                    PyObject_Vectorcall(c->acct, argv, 5, NULL);
                Py_DECREF(nom_o);
                Py_DECREF(now_o);
                if (batch == NULL)
                    return -1;
                if (batch != Py_None) {
                    PyObject *argv2[2] = {obj, batch};
                    PyObject *r =
                        PyObject_Vectorcall(c->deliver, argv2, 2, NULL);
                    Py_DECREF(batch);
                    if (r == NULL)
                        return -1;
                    Py_DECREF(r);
                } else {
                    Py_DECREF(batch);
                }
            }
        }
    }
    if (t_set_ll(obj, SL_CHUNK_NOMINAL, 0) < 0)
        return -1;
    long long ar2;
    if (t_get_ll(obj, SL_ACTIVITY_REMAINING, &ar2) < 0)
        return -1;
    if (ar2 > 0) {
        Py_ssize_t rn = PyObject_Size(c->ready);
        if (rn < 0)
            return -1;
        if (rn > 0) {
            /* round-robin fairness: requeue behind the waiters */
            PyObject *argv[1] = {obj};
            PyObject *r = PyObject_Vectorcall(c->run_discard, argv, 1, NULL);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
            t_set(obj, SL_STATE, c->READY);
            r = PyObject_Vectorcall(c->ready_append, argv, 1, NULL);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
            return 0;
        }
    }
    return c_drive(c, obj);
}

/* --------------------------------------------------------------- main loop */

static PyObject *
core_event_loop(PyObject *mod, PyObject *args)
{
    PyObject *eng, *ctxt;
    if (!PyArg_ParseTuple(args, "OO:event_loop", &eng, &ctxt))
        return NULL;
    if (!PyTuple_Check(ctxt) || PyTuple_GET_SIZE(ctxt) != 11) {
        PyErr_SetString(PyExc_TypeError, "accel ctx must be an 11-tuple");
        return NULL;
    }
    if (resolve_slots(PyTuple_GET_ITEM(ctxt, 8)) < 0)
        return NULL;

    Ctx c;
    memset(&c, 0, sizeof(c));
    c.eng = eng;
    c.READY = PyTuple_GET_ITEM(ctxt, 0);
    c.RUNNING = PyTuple_GET_ITEM(ctxt, 1);
    c.BLOCKED = PyTuple_GET_ITEM(ctxt, 2);
    c.SLEEPING = PyTuple_GET_ITEM(ctxt, 3);
    c.work_cls = PyTuple_GET_ITEM(ctxt, 4);
    c.runtime_line = PyTuple_GET_ITEM(ctxt, 5);
    c.heappush = PyTuple_GET_ITEM(ctxt, 6);
    c.heappop = PyTuple_GET_ITEM(ctxt, 7);
    c.frame_cls = PyTuple_GET_ITEM(ctxt, 9);
    c.sync_attrs = PyTuple_GET_ITEM(ctxt, 10);
    if (!PyDict_Check(c.sync_attrs)) {
        PyErr_SetString(PyExc_TypeError, "accel ctx[10] must be a dict");
        return NULL;
    }
    c.snap_next = SNAP_NONE;

    /* --- eligibility re-check (the accel wrapper should have filtered) --- */
    {
        PyObject *obs = PyObject_GetAttr(eng, s_observers);
        if (obs == NULL)
            return NULL;
        int has = PyObject_IsTrue(obs);
        Py_DECREF(obs);
        if (has < 0)
            return NULL;
        if (has) {
            PyErr_SetString(PyExc_RuntimeError,
                            "accel core: engine has observers attached");
            return NULL;
        }
        PyObject *faults = PyObject_GetAttr(eng, s__faults);
        if (faults == NULL)
            return NULL;
        int faulty = (faults != Py_None);
        Py_DECREF(faults);
        if (faulty) {
            PyErr_SetString(PyExc_RuntimeError,
                            "accel core: engine has a fault plan");
            return NULL;
        }
    }

    /* --- hoists ---------------------------------------------------------- */
    {
        PyObject *cfg = PyObject_GetAttr(eng, s_cfg);
        if (cfg == NULL)
            return NULL;
        PyObject *v;
        int bad = 0;
        if (e_get_ll(cfg, s_quantum_ns, &c.quantum) < 0 ||
            e_get_ll(cfg, s_cores, &c.cores) < 0)
            bad = 1;
        if (!bad) {
            v = PyObject_GetAttr(cfg, s_max_virtual_ns);
            if (v == NULL)
                bad = 1;
            else {
                c.has_max = (v != Py_None);
                if (c.has_max) {
                    c.max_ns = PyLong_AsLongLong(v);
                    if (c.max_ns == -1 && PyErr_Occurred())
                        bad = 1;
                }
                Py_DECREF(v);
            }
        }
        if (!bad) {
            v = PyObject_GetAttr(cfg, s_flush_samples_on_block);
            if (v == NULL)
                bad = 1;
            else {
                c.flush_on_block = PyObject_IsTrue(v);
                Py_DECREF(v);
                if (c.flush_on_block < 0)
                    bad = 1;
            }
        }
        if (!bad) {
            v = PyObject_GetAttr(cfg, s_interference_coeff);
            if (v == NULL)
                bad = 1;
            else {
                double coeff = PyFloat_AsDouble(v);
                Py_DECREF(v);
                if (coeff == -1.0 && PyErr_Occurred())
                    bad = 1;
                else if (coeff != 0.0) {
                    PyErr_SetString(
                        PyExc_RuntimeError,
                        "accel core: interference model is enabled");
                    bad = 1;
                }
            }
        }
        Py_DECREF(cfg);
        if (bad)
            return NULL;
    }

#define HOIST(dst, obj, name)                                               \
    do {                                                                    \
        c.dst = PyObject_GetAttr((obj), (name));                            \
        if (c.dst == NULL)                                                  \
            goto fail;                                                      \
    } while (0)

    HOIST(heap, eng, s__heap);
    if (!PyList_Check(c.heap)) {
        PyErr_SetString(PyExc_TypeError, "engine._heap is not a list");
        goto fail;
    }
    HOIST(ready, eng, s_ready);
    HOIST(running, eng, s_running);
    if (!PySet_Check(c.running)) {
        PyErr_SetString(PyExc_TypeError, "engine.running is not a set");
        goto fail;
    }
    HOIST(ready_append, c.ready, s_append);
    HOIST(ready_popleft, c.ready, s_popleft);
    HOIST(run_add, c.running, s_add);
    HOIST(run_discard, c.running, s_discard);
    HOIST(sampler, eng, s_sampler);
    HOIST(acct, c.sampler, s_account);
    HOIST(drain, c.sampler, s_drain);
    HOIST(deliver, eng, s__deliver_batch);
    HOIST(op_table, eng, s__op_table);
    if (!PyDict_Check(c.op_table)) {
        PyErr_SetString(PyExc_TypeError, "engine._op_table is not a dict");
        goto fail;
    }
    HOIST(line_watchers, eng, s__line_watchers);
    if (!PyAnySet_Check(c.line_watchers)) {
        PyErr_SetString(PyExc_TypeError,
                        "engine._line_watchers is not a set");
        goto fail;
    }
    HOIST(hook, eng, s_hook);
    HOIST(progress_counts, eng, s_progress_counts);
    if (c.hook != Py_None) {
        HOIST(h_before_block, c.hook, s_before_block);
        HOIST(h_before_wake, c.hook, s_before_wake_op);
        HOIST(h_unblock, c.hook, s_on_unblock);
        HOIST(h_progress, c.hook, s_on_progress);
    }
    /* underlying functions of the inlinable actions, from the engine's own
     * class: a subclass override produces a different function object, so
     * c_try_action never matches it and falls back to Python */
    {
        PyObject *etype = (PyObject *)Py_TYPE(eng);
        HOIST(fn_lock, etype, s__do_lock);
        HOIST(fn_unlock, etype, s__do_unlock);
        HOIST(fn_push, etype, s__do_push_frame);
        HOIST(fn_pop, etype, s__do_pop_frame);
        HOIST(fn_progress, etype, s__do_progress);
    }
    /* the recorder's op log: attached before the run starts, so fixed for
     * the whole loop */
    {
        PyObject *oplog = PyObject_GetAttr(eng, s__oplog);
        if (oplog == NULL)
            goto fail;
        if (oplog != Py_None) {
            c.log_ids = PyObject_GetAttr(oplog, s_ids);
            c.log_specials = PyObject_GetAttr(oplog, s_specials);
            c.log_sync = PyObject_GetAttr(oplog, s_sync);
            if (c.log_ids != NULL)
                c.log_ids_append = PyObject_GetAttr(c.log_ids, s_append);
        }
        Py_DECREF(oplog);
        if (PyErr_Occurred())
            goto fail;
        if (c.log_ids != NULL &&
            (!PyList_Check(c.log_specials) || !PyDict_Check(c.log_sync))) {
            PyErr_SetString(PyExc_TypeError, "malformed engine._oplog");
            goto fail;
        }
    }
#undef HOIST
    if (e_get_ll(c.sampler, s_period_ns, &c.period) < 0 ||
        e_get_ll(c.sampler, s_batch_size, &c.batch_size) < 0 ||
        e_get_ll(eng, s__call_overhead_ns, &c.call_overhead) < 0 ||
        e_get_ll(eng, s_now, &c.now) < 0)
        goto fail;
    {
        PyObject *v = PyObject_GetAttr(eng, s__sampling_live);
        if (v == NULL)
            goto fail;
        c.sampling_live = PyObject_IsTrue(v);
        Py_DECREF(v);
        if (c.sampling_live < 0)
            goto fail;
        v = PyObject_GetAttr(eng, s__coalesce);
        if (v == NULL)
            goto fail;
        c.coalesce = PyObject_IsTrue(v);
        Py_DECREF(v);
        if (c.coalesce < 0)
            goto fail;
        v = PyObject_GetAttr(eng, s__snap_next);
        if (v == NULL)
            goto fail;
        if (v != Py_None) {
            c.snap_next = PyLong_AsLongLong(v);
            if (c.snap_next == -1 && PyErr_Occurred()) {
                Py_DECREF(v);
                goto fail;
            }
        }
        Py_DECREF(v);
    }

    /* --- the loop -------------------------------------------------------- */
    for (;;) {
        long long alive;
        if (e_get_ll(eng, s__alive, &alive) < 0)
            goto fail;
        if (alive == 0)
            break;
        if (PyList_GET_SIZE(c.heap) == 0) {
            if (flush_events(&c) < 0)
                goto fail;
            PyObject *r =
                PyObject_CallMethodNoArgs(eng, s__raise_deadlock);
            if (r == NULL)
                goto fail;
            Py_DECREF(r); /* unreachable in practice: it always raises */
            continue;
        }
        if (c.snap_next != SNAP_NONE) {
            PyObject *ev0 = PyList_GET_ITEM(c.heap, 0);
            if (!PyTuple_Check(ev0) || PyTuple_GET_SIZE(ev0) != 7) {
                PyErr_SetString(PyExc_TypeError,
                                "malformed event in engine heap");
                goto fail;
            }
            long long when0 =
                PyLong_AsLongLong(PyTuple_GET_ITEM(ev0, 0));
            if (when0 == -1 && PyErr_Occurred())
                goto fail;
            if (when0 >= c.snap_next) {
                /* quiescent instant on the checkpoint grid: capture */
                if (flush_events(&c) < 0)
                    goto fail;
                PyObject *r =
                    PyObject_CallMethodNoArgs(eng, s__take_checkpoint);
                if (r == NULL)
                    goto fail;
                if (r == Py_None)
                    c.snap_next = SNAP_NONE;
                else {
                    c.snap_next = PyLong_AsLongLong(r);
                    if (c.snap_next == -1 && PyErr_Occurred()) {
                        Py_DECREF(r);
                        goto fail;
                    }
                }
                Py_DECREF(r);
            }
        }
        PyObject *ev;
        {
            PyObject *argv[1] = {c.heap};
            ev = PyObject_Vectorcall(c.heappop, argv, 1, NULL);
            if (ev == NULL)
                goto fail;
        }
        if (!PyTuple_Check(ev) || PyTuple_GET_SIZE(ev) != 7) {
            Py_DECREF(ev);
            PyErr_SetString(PyExc_TypeError,
                            "malformed event in engine heap");
            goto fail;
        }
        long long when = PyLong_AsLongLong(PyTuple_GET_ITEM(ev, 0));
        if (when == -1 && PyErr_Occurred()) {
            Py_DECREF(ev);
            goto fail;
        }
        long kind = PyLong_AsLong(PyTuple_GET_ITEM(ev, 4));
        if (kind == -1 && PyErr_Occurred()) {
            Py_DECREF(ev);
            goto fail;
        }
        PyObject *obj = PyTuple_GET_ITEM(ev, 5);
        PyObject *argo = PyTuple_GET_ITEM(ev, 6);
        if (when > c.now) {
            c.now = when;
            if (PyObject_SetAttr(eng, s_now,
                                 PyTuple_GET_ITEM(ev, 0)) < 0) {
                Py_DECREF(ev);
                goto fail;
            }
        }
        c.events++;
        int hr = 0;
        if (kind == EV_TIMER) {
            if (e_add_ll(eng, s__timer_count, -1) < 0)
                hr = -1;
            else {
                PyObject *r = PyObject_CallNoArgs(obj);
                if (r == NULL)
                    hr = -1;
                else {
                    Py_DECREF(r);
                    if (c.coalesce) {
                        /* an experiment boundary may have handed running
                         * threads pending pauses: pull mega-chunks back
                         * to the quantum grid, like the legacy engine */
                        r = PyObject_CallMethodNoArgs(
                            eng, s__truncate_pending);
                        if (r == NULL)
                            hr = -1;
                        else
                            Py_DECREF(r);
                    }
                }
            }
        } else {
            if (!PyObject_TypeCheck(obj, slot_type)) {
                PyErr_SetString(PyExc_TypeError,
                                "thread event on non-VThread object");
                hr = -1;
            } else {
                long long tok_ev = PyLong_AsLongLong(argo);
                if (tok_ev == -1 && PyErr_Occurred())
                    hr = -1;
                else if (kind == EV_CHUNK)
                    hr = c_chunk_event(&c, obj, tok_ev);
                else {
                    long long tok;
                    PyObject *st;
                    if (t_get_ll(obj, SL_CHUNK_TOKEN, &tok) < 0 ||
                        (st = t_get(obj, SL_STATE)) == NULL)
                        hr = -1;
                    else if (tok == tok_ev) {
                        if (kind == EV_SLEEP && st == c.SLEEPING) {
                            if (e_add_ll(eng, s__sleeping, -1) < 0)
                                hr = -1;
                            else {
                                /* transit state so _wake() is legal */
                                t_set(obj, SL_STATE, c.BLOCKED);
                                PyObject *r = PyObject_CallMethodObjArgs(
                                    eng, s__wake, obj, Py_None, NULL);
                                if (r == NULL)
                                    hr = -1;
                                else
                                    Py_DECREF(r);
                            }
                        } else if (kind == EV_PAUSE && st == c.SLEEPING) {
                            PyObject *r = PyObject_CallMethodOneArg(
                                eng, s__make_ready, obj);
                            if (r == NULL)
                                hr = -1;
                            else
                                Py_DECREF(r);
                        } else if (kind == EV_OVERHEAD &&
                                   st == c.RUNNING) {
                            hr = c_drive(&c, obj);
                        }
                    }
                }
            }
        }
        Py_DECREF(ev);
        if (hr < 0)
            goto fail;
        {
            Py_ssize_t rn = PyObject_Size(c.ready);
            if (rn < 0)
                goto fail;
            if (rn > 0 && c_dispatch(&c) < 0)
                goto fail;
        }
        if (c.has_max && c.now > c.max_ns) {
            if (flush_events(&c) < 0)
                goto fail;
            PyObject *r =
                PyObject_CallMethodNoArgs(eng, s__raise_overrun);
            if (r == NULL)
                goto fail;
            Py_DECREF(r); /* unreachable: it always raises */
        }
        if (e_get_ll(eng, s__alive, &alive) < 0)
            goto fail;
        if (alive && PySet_GET_SIZE(c.running) == 0) {
            Py_ssize_t rn = PyObject_Size(c.ready);
            if (rn < 0)
                goto fail;
            if (rn == 0) {
                long long sleeping, timers;
                if (e_get_ll(eng, s__sleeping, &sleeping) < 0 ||
                    e_get_ll(eng, s__timer_count, &timers) < 0)
                    goto fail;
                if (sleeping == 0 && timers == 0) {
                    if (flush_events(&c) < 0)
                        goto fail;
                    PyObject *r = PyObject_CallMethodNoArgs(
                        eng, s__raise_deadlock);
                    if (r == NULL)
                        goto fail;
                    Py_DECREF(r); /* unreachable: it always raises */
                }
            }
        }
    }
    if (flush_events(&c) < 0)
        goto fail;
    ctx_clear(&c);
    Py_RETURN_NONE;
fail:
    /* like the pure loop, an unwinding exception does NOT flush the
     * in-flight events counter */
    ctx_clear(&c);
    return NULL;
}

/* ------------------------------------------------------------------ module */

static PyMethodDef core_methods[] = {
    {"event_loop", core_event_loop, METH_VARARGS,
     "event_loop(engine, ctx) -> None\n\n"
     "Run the engine's event loop to completion in compiled code.\n"
     "Bit-identical to repro.sim.backend.pure.event_loop for eligible\n"
     "engines (no observers, no fault plan, interference disabled)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    "repro.sim.backend._core",
    "Compiled engine event-loop core (see repro.sim.backend).",
    -1,
    core_methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
#define INTERN(n)                                                           \
    do {                                                                    \
        s_##n = PyUnicode_InternFromString(#n);                             \
        if (s_##n == NULL)                                                  \
            return NULL;                                                    \
    } while (0);
#define INTERN_ONE(n) INTERN(n)
    STR_LIST(INTERN_ONE)
#undef INTERN_ONE
#undef INTERN
    str_inserted_pause = PyUnicode_InternFromString("inserted-pause");
    if (str_inserted_pause == NULL)
        return NULL;
    float_one = PyFloat_FromDouble(1.0);
    if (float_one == NULL)
        return NULL;
    return PyModule_Create(&core_module);
}
