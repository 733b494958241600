# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernel: Eisenstein matrix-group closure.

A drop-in replacement for `stratify._pure.close_eis`; interface and result
are identical (the pure module is the reference implementation, and the test
suite cross-checks the two).  The closest-point candidate search has no
compiled version: `_pure.projection_candidates` serves both backends.
"""

from cpython.dict cimport PyDict_GetItem
from libc.stdlib cimport free, malloc

from . import _pure

ResourceCapError = _pure.ResourceCapError

BACKEND = "compiled"

ctypedef long long i64


# ---------------------------------------------------------------------------
# Eisenstein matrix closure
# ---------------------------------------------------------------------------


cdef void _mul_eis(i64* x, i64* y, i64* out, int k) noexcept:
    cdef int i, j, l
    cdef i64 ra, rb, a, b, c, d, bd
    for i in range(k):
        for j in range(k):
            ra = 0
            rb = 0
            for l in range(k):
                a = x[2 * (i * k + l)]
                b = x[2 * (i * k + l) + 1]
                c = y[2 * (l * k + j)]
                d = y[2 * (l * k + j) + 1]
                bd = b * d
                ra += a * c - bd
                rb += a * d + b * c - bd
            out[2 * (i * k + j)] = ra
            out[2 * (i * k + j) + 1] = rb


def close_eis(gens, k, cap):
    """See `_pure.close_eis`."""
    cdef int kk = k
    cdef int size = 2 * kk * kk
    cdef int nbytes = size * sizeof(i64)
    cdef int ngens = len(gens)
    cdef int gi, i, capn = cap
    cdef i64* gbuf = <i64*> malloc(ngens * size * sizeof(i64))
    cdef i64* work = <i64*> malloc(size * sizeof(i64))
    cdef i64* cur
    cdef dict seen = {}
    cdef list elements = []
    cdef bytes key, k2
    cdef int head = 0
    try:
        for gi in range(ngens):
            flat = gens[gi]
            for i in range(size):
                gbuf[gi * size + i] = flat[i]
        ident = _pure.eis_identity_flat(kk)
        for i in range(size):
            work[i] = ident[i]
        key = (<char*> work)[:nbytes]
        seen[key] = True
        elements.append(key)
        while head < len(elements):
            key = elements[head]
            head += 1
            cur = <i64*> (<char*> key)
            for gi in range(ngens):
                _mul_eis(cur, gbuf + gi * size, work, kk)
                k2 = (<char*> work)[:nbytes]
                if PyDict_GetItem(seen, k2) == NULL:
                    seen[k2] = True
                    elements.append(k2)
                    if len(elements) > capn:
                        raise ResourceCapError(f"group closure exceeded cap {cap}")
    finally:
        free(gbuf)
        free(work)
    cdef list out = []
    cdef i64* p
    for key in elements:
        p = <i64*> (<char*> key)
        out.append(tuple([p[i] for i in range(size)]))
    out.sort()
    return out
