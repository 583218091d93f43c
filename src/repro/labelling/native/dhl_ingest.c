/*
 * The id ingest: a Python list of vertex ids, or of (s, t) pairs,
 * written straight into a caller-allocated int64 buffer in one pass.
 *
 * Every query door that takes ids as a Python sequence hands it here
 * (repro.utils.pairs). The contract is operator.index per id and
 * exactly `width` ids per item:
 *
 *   - an exact int is read directly; anything else goes through
 *     PyNumber_Index, so a float or a str raises TypeError, a bool or a
 *     numpy integer scalar passes, and an id outside int64 raises
 *     OverflowError;
 *   - for width 2 each item is a sequence of exactly two ids: an exact
 *     tuple or list is read in place, any other iterable through
 *     PySequence_Fast, and a wrong length raises ValueError naming the
 *     item.
 *
 * C11 over the C API of Python.h; built into the kernel library
 * by repro.labelling.native and bound with ctypes.PYFUNCTYPE, so the
 * call holds the GIL and an exception set here is raised by ctypes.
 * An id's __index__ may run Python code that mutates the list being
 * walked, so every object is held while it is converted and the list's
 * size is checked before each item: the buffer is never written past
 * the length it was sized for.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>

/* *o as an int64 into *dst; 0, or -1 with an exception set. */
static int ingest_id(PyObject *o, int64_t *dst)
{
    int overflow;
    long long value;
    if (PyLong_CheckExact(o)) {
        value = PyLong_AsLongLongAndOverflow(o, &overflow);
    } else {
        PyObject *number = PyNumber_Index(o);
        if (number == NULL)
            return -1;
        value = PyLong_AsLongLongAndOverflow(number, &overflow);
        Py_DECREF(number);
    }
    if (overflow) {
        PyErr_Format(PyExc_OverflowError,
                     "vertex id %R is outside the int64 range", o);
        return -1;
    }
    if (value == -1 && PyErr_Occurred())
        return -1;
    *dst = (int64_t)value;
    return 0;
}

/* Item *at* of the outer list, *pair*, as two ids into dst[0..1]. */
static int ingest_pair(PyObject *pair, Py_ssize_t at, int64_t *dst)
{
    PyObject *seq;
    if (PyTuple_CheckExact(pair) || PyList_CheckExact(pair)) {
        Py_INCREF(pair);
        seq = pair;
    } else {
        seq = PySequence_Fast(pair, "a vertex pair must be a sequence of two ids");
        if (seq == NULL)
            return -1;
    }
    int status = -1;
    Py_ssize_t size = PySequence_Fast_GET_SIZE(seq);
    if (size != 2) {
        PyErr_Format(PyExc_ValueError,
                     "pair %zd has %zd ids, not 2: %R", at, size, pair);
    } else {
        /* Held: the first id's __index__ may empty a list pair. */
        PyObject *s = PySequence_Fast_GET_ITEM(seq, 0);
        PyObject *t = PySequence_Fast_GET_ITEM(seq, 1);
        Py_INCREF(s);
        Py_INCREF(t);
        status = ingest_id(s, dst) || ingest_id(t, dst + 1) ? -1 : 0;
        Py_DECREF(s);
        Py_DECREF(t);
    }
    Py_DECREF(seq);
    return status;
}

/*
 * Write the ids of *items* (an exact list or tuple) into *out*, a
 * writable C-contiguous buffer of len(items) * width int64 items;
 * width 1 takes one id per item, width 2 one (s, t) pair. Returns 0, or
 * -1 with an exception set (ctypes raises it).
 */
int dhl_ingest_ids(PyObject *items, int64_t width, PyObject *out)
{
    if (!PyList_CheckExact(items) && !PyTuple_CheckExact(items)) {
        PyErr_Format(PyExc_TypeError, "ids must come as a list or a tuple, not %.100s",
                     Py_TYPE(items)->tp_name);
        return -1;
    }
    if (width != 1 && width != 2) {
        PyErr_Format(PyExc_ValueError, "width must be 1 or 2, not %lld",
                     (long long)width);
        return -1;
    }
    Py_buffer view;
    if (PyObject_GetBuffer(out, &view, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS) < 0)
        return -1;
    Py_ssize_t m = PySequence_Fast_GET_SIZE(items);
    int status = 0;
    if (view.itemsize != (Py_ssize_t)sizeof(int64_t)
        || view.len != m * width * (Py_ssize_t)sizeof(int64_t)) {
        PyErr_Format(PyExc_ValueError,
                     "the output buffer must hold %zd int64 ids", m * (Py_ssize_t)width);
        status = -1;
    }
    int64_t *dst = view.buf;
    for (Py_ssize_t i = 0; status == 0 && i < m; i++) {
        if (PySequence_Fast_GET_SIZE(items) != m) {
            PyErr_SetString(PyExc_RuntimeError, "the id list changed size during ingest");
            status = -1;
            break;
        }
        PyObject *item = PySequence_Fast_GET_ITEM(items, i);
        Py_INCREF(item);
        status = width == 1 ? ingest_id(item, dst + i) : ingest_pair(item, i, dst + 2 * i);
        Py_DECREF(item);
    }
    PyBuffer_Release(&view);
    return status;
}
