# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernels: convex-projection candidate enumeration and Eisenstein
matrix-group closure.

Drop-in replacements for the functions in `stratify._pure`; interfaces and
results are identical (the pure module is the reference implementation, and
the test suite cross-checks the two).
"""

from math import comb

from cpython.dict cimport PyDict_GetItem
from libc.math cimport sqrt
from libc.stdlib cimport free, malloc

from . import _pure

ResourceCapError = _pure.ResourceCapError

BACKEND = "compiled"

ctypedef long long i64
cdef extern from *:
    ctypedef long long i128 "__int128"


cdef i128 _gcd128(i128 a, i128 b) noexcept:
    if a < 0:
        a = -a
    if b < 0:
        b = -b
    while b:
        a, b = b, a % b
    return a


cdef object _py128(i128 v):
    cdef bint neg = v < 0
    if neg:
        v = -v
    cdef unsigned long long lo = <unsigned long long> (v & <i128> 0xFFFFFFFFFFFFFFFF)
    cdef unsigned long long hi = <unsigned long long> (v >> 64)
    out = (int(hi) << 64) + int(lo)
    return -out if neg else out


# ---------------------------------------------------------------------------
# closest-point candidate enumeration
# ---------------------------------------------------------------------------


cdef i128 _bareiss_det(i128* a, int n) noexcept:
    """Determinant by fraction-free forward elimination; destroys ``a``."""
    cdef int r, i, c, piv
    cdef i128 prev = 1, arr, air, tmp
    cdef int sign = 1
    for r in range(n - 1):
        if a[r * n + r] == 0:
            piv = -1
            for i in range(r + 1, n):
                if a[i * n + r] != 0:
                    piv = i
                    break
            if piv < 0:
                return 0
            for c in range(n):
                tmp = a[r * n + c]
                a[r * n + c] = a[piv * n + c]
                a[piv * n + c] = tmp
            sign = -sign
        arr = a[r * n + r]
        for i in range(r + 1, n):
            air = a[i * n + r]
            for c in range(r + 1, n):
                a[i * n + c] = (arr * a[i * n + c] - air * a[r * n + c]) // prev
            a[i * n + r] = 0
        prev = arr
    return sign * a[(n - 1) * n + (n - 1)]


def projection_candidates(weights, rank, budget, chamber_sort):
    """See `_pure.projection_candidates`; int64/int128 fast path.

    Falls back to the pure implementation when a runtime Hadamard bound shows
    the exact elimination might overflow 126 bits, or the subsets get large.
    """
    pts = [tuple(w) for w in weights]
    cdef int npts = len(pts)
    if npts == 0:
        raise ValueError("empty weight list")
    cdef int m = len(pts[0])
    cdef int kmax = min(rank + 1, npts)
    total = sum(comb(npts, k) for k in range(1, kmax + 1))
    if total > budget:
        raise ResourceCapError(f"candidate subsets {total} exceed budget {budget}")

    # Hadamard bound over minors of the bordered Gram matrix; generous margin
    maxabs = max(abs(x) for p in pts for x in p)
    cdef double rownorm = sqrt(<double> (m * maxabs * maxabs + 1))
    cdef double bound = sqrt(<double> (kmax + 1)) * (rownorm ** kmax)
    if kmax + 1 > 9 or bound > 1e36:
        return _pure.projection_candidates(weights, rank, budget, chamber_sort)

    cdef i64* coords = <i64*> malloc(npts * m * sizeof(i64))
    cdef i64* dots = <i64*> malloc(npts * npts * sizeof(i64))
    cdef int* idx = <int*> malloc((kmax + 2) * sizeof(int))
    cdef i128* beta = <i128*> malloc(m * sizeof(i128))
    cdef i128* nums = <i128*> malloc((kmax + 2) * sizeof(i128))
    cdef i128 work[100]
    cdef int i, j, t, k, n, col, ok
    cdef i64 s
    cdef i128 det, deti, g

    for i in range(npts):
        for t in range(m):
            coords[i * m + t] = pts[i][t]
    for i in range(npts):
        for j in range(npts):
            s = 0
            for t in range(m):
                s += coords[i * m + t] * coords[j * m + t]
            dots[i * npts + j] = s

    found = set()
    try:
        for k in range(1, kmax + 1):
            n = k + 1
            for i in range(k):
                idx[i] = i
            while True:
                if k == 1:
                    # singleton: the point itself, denominator 1 (already reduced)
                    i = idx[0]
                    out_nums = [coords[i * m + t] for t in range(m)]
                    if chamber_sort:
                        out_nums.sort(reverse=True)
                    found.add((tuple(out_nums), 1))
                else:
                    # bordered Gram matrix [[G, 1], [1, 0]]
                    for i in range(k):
                        for j in range(k):
                            work[i * n + j] = dots[idx[i] * npts + idx[j]]
                        work[i * n + k] = 1
                    for j in range(k):
                        work[k * n + j] = 1
                    work[k * n + k] = 0
                    det = _bareiss_det(work, n)
                    if det != 0:
                        ok = 1
                        # Cramer: barycentric numerator i = det with col i -> e_k
                        for col in range(k):
                            for i in range(k):
                                for j in range(k):
                                    work[i * n + j] = dots[idx[i] * npts + idx[j]]
                                work[i * n + k] = 1
                            for j in range(k):
                                work[k * n + j] = 1
                            work[k * n + k] = 0
                            for i in range(n):
                                work[i * n + col] = 0
                            work[k * n + col] = 1
                            deti = _bareiss_det(work, n)
                            if det < 0:
                                deti = -deti
                            if deti < 0:
                                ok = 0
                                break
                            nums[col] = deti
                        if ok:
                            if det < 0:
                                det = -det
                            for t in range(m):
                                beta[t] = 0
                            for i in range(k):
                                if nums[i] != 0:
                                    for t in range(m):
                                        beta[t] += nums[i] * <i128> coords[idx[i] * m + t]
                            g = det
                            for t in range(m):
                                g = _gcd128(g, beta[t])
                            if g <= 0:
                                g = 1
                            out_nums = [_py128(beta[t] // g) for t in range(m)]
                            if chamber_sort:
                                out_nums.sort(reverse=True)
                            found.add((tuple(out_nums), _py128(det // g)))
                # advance combination
                i = k - 1
                while i >= 0 and idx[i] == npts - k + i:
                    i -= 1
                if i < 0:
                    break
                idx[i] += 1
                for j in range(i + 1, k):
                    idx[j] = idx[j - 1] + 1
    finally:
        free(coords)
        free(dots)
        free(idx)
        free(beta)
        free(nums)
    return found


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
