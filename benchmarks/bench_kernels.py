"""Benchmark the compiled kernels against the pure-Python fallback.

Usage: python benchmarks/bench_kernels.py
"""

import time

from stratify import _pure
from stratify.eisenstein import E3, eisenstein_roots, triflection
from stratify.invariants import flatten_eis_matrix
from stratify.weights import hypersurface_weights

try:
    from stratify import _kernels
except ImportError:
    _kernels = None


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def compare(label, pure_fn, fast_fn, *args):
    t_pure, r_pure = timed(pure_fn, *args)
    if fast_fn is None:
        print(f"{label:<42} pure {t_pure:8.3f}s   (no compiled kernel)")
        return
    t_fast, r_fast = timed(fast_fn, *args)
    agree = "ok" if r_pure == r_fast else "MISMATCH"
    speedup = t_pure / t_fast if t_fast > 0 else float("inf")
    print(f"{label:<42} pure {t_pure:8.3f}s   compiled {t_fast:8.3f}s "
          f"  x{speedup:6.1f}  [{agree}]")


def main():
    fast = _kernels

    ws = hypersurface_weights(4, 3)
    scaled = [tuple(int(c * 5) for c in w) for w in ws.weights]
    compare("projection candidates, 35 weights rank 4",
            _pure.projection_candidates,
            fast.projection_candidates if fast else None,
            scaled, 4, 10**7, True)

    gens3 = [flatten_eis_matrix(triflection(E3, r)) for r in eisenstein_roots(E3)]
    gens3 = sorted(set(gens3))[:4]
    compare("group closure, rank 3 (order 648)",
            _pure.close_eis, fast.close_eis if fast else None, gens3, 3, 10**4)


if __name__ == "__main__":
    main()
