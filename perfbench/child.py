"""One child process of the benchmark.

    python3 perfbench/child.py [--trace FILE] cli ARG...     one stratify CLI call
    python3 perfbench/child.py [--trace FILE] sweep SPEC     one strata sweep pass
    python3 perfbench/child.py setup cli ARG...              set-up only, then exit
    python3 perfbench/child.py setup sweep SPEC

Untraced CLI calls are not made through this file: run.py starts them the way
the ``stratify`` console script does.  With ``--trace`` the child wraps, from
outside the program, the public functions of every stratify module, the
``runner.OPS`` registry entries and the three kernels, at each place a caller
looks them up, and writes one span per call to FILE:
``[name, layer, start_ns, end_ns, parent, op_id, counters]``.
Times are ``time.perf_counter_ns()``, the system-wide monotonic clock, so the
parent can compare them with its own spawn and exit times.
"""

import time

T_BOOT = time.perf_counter_ns()

import contextlib  # noqa: E402
import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from math import comb  # noqa: E402

# Per-call helpers whose cost is below that of a span.  Their time counts
# toward the layer of the caller (for the oracle, most of its Fraction work).
HOT_HELPERS = {
    ("weights", "vec"), ("weights", "dot"), ("weights", "norm2"),
    ("serialize", "frac_pair"), ("eisenstein", "eis"), ("eisenstein", "eis_gcd"),
}
# Arithmetic dunders are wrapped only for the series types: the scenario ops
# do their series algebra through them.  QOmega/EisInt arithmetic is per entry.
SERIES_DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__")
ORACLE = {"verify_strata_against_oracle", "closest_point"}
KERNELS = ("projection_candidates", "close_eis", "eis_char_sums")


def _count_candidates(args, kwargs, result):
    weights, rank = args[0], args[1]
    n = len(weights)
    subsets = sum(comb(n, k) for k in range(1, min(rank + 1, n) + 1))
    return {"subsets": subsets, "candidates": len(result)}


def _count_closure(args, kwargs, result):
    return {"elements": len(result)}


def _count_char_sums(args, kwargs, result):
    elements, k = args[0], args[1]
    return {"elements": len(elements), "entries": len(elements) * k * k}


def _count_strata(args, kwargs, result):
    return {"strata": len(result)}


def _count_checked(args, kwargs, result):
    return {"checked": result}


COUNTERS = {
    "kernels.projection_candidates": _count_candidates,
    "kernels.close_eis": _count_closure,
    "kernels.eis_char_sums": _count_char_sums,
    "strata.instability_index_set": _count_strata,
    "strata.normal_rep_strata": _count_strata,
    "strata.verify_strata_against_oracle": _count_checked,
}


class Tracer:
    """Spans kept in memory and written out once, when the child ends."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None

    def _enter(self, name, layer):
        rec = [name, layer, 0, 0, self.stack[-1] if self.stack else -1, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter_ns()
        return rec

    def _leave(self, rec):
        rec[3] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, fn, name, layer):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(rec)
            if counter is not None:
                rec[6] = counter(args, kwargs, result)
            return result

        return traced

    def wrap_op(self, fn):
        """runner.OPS entries: one span per scenario step, named by step id."""

        @functools.wraps(fn)
        def traced(ctx, args, step):
            rec = self._enter("step." + str(step.get("id")), "runner")
            try:
                return fn(ctx, args, step)
            finally:
                self._leave(rec)

        return traced

    @contextlib.contextmanager
    def span(self, name, layer):
        rec = self._enter(name, layer)
        try:
            yield
        finally:
            self._leave(rec)


def install(tracer):
    """Wrap every public stratify function where its callers look it up."""
    from stratify import _backend, runner

    modules = {n: m for n, m in sys.modules.items()
               if n == "stratify" or n.startswith("stratify.")}
    wrapped = {}
    for modname, mod in modules.items():
        layer = modname.rpartition(".")[2]
        if layer.startswith("_") or modname == "stratify":
            continue
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or (layer, name) in HOT_HELPERS:
                continue
            if inspect.isfunction(obj) and obj.__module__ == modname:
                span_layer = "oracle" if name in ORACLE else layer
                wrapped[obj] = tracer.wrap(obj, f"{layer}.{name}", span_layer)
            elif inspect.isclass(obj) and obj.__module__ == modname:
                _wrap_methods(tracer, obj, layer)
    for name in KERNELS:
        fn = getattr(_backend, name)
        wrapped[fn] = tracer.wrap(fn, f"kernels.{name}", "kernels")
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    for opname, fn in list(runner.OPS.items()):
        runner.OPS[opname] = tracer.wrap_op(fn)


def _wrap_methods(tracer, cls, layer):
    dunders = SERIES_DUNDERS if layer == "series" else ()
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") and name not in dunders:
            continue
        # report rendering is serialization, whichever class holds it
        span_layer = "serialize" if name.startswith("to_") else layer
        label = f"{layer}.{cls.__name__}.{name}"
        if isinstance(attr, staticmethod):
            setattr(cls, name, staticmethod(tracer.wrap(attr.__func__, label, span_layer)))
        elif inspect.isfunction(attr):
            setattr(cls, name, tracer.wrap(attr, label, span_layer))


def _load_sweep(path):
    """Weight systems of a sweep spec, each weight list in the given order."""
    from dataclasses import replace

    from stratify import weights

    with open(path) as fh:
        spec = json.load(fh)
    out = []
    for inst in spec["instances"]:
        ws = weights.hypersurface_weights(inst["n"], inst["d"])
        perm = inst["perm"]
        ws = replace(ws, monomials=tuple(ws.monomials[i] for i in perm),
                     weights=tuple(ws.weights[i] for i in perm))
        out.append((inst, ws))
    return out


def _sweep(instances, tracer):
    """Index set plus oracle cross-check per instance; one JSON line of results."""
    import hashlib

    from stratify import strata

    results = []
    for inst, ws in instances:
        if tracer is not None:
            tracer.op = inst["id"]
        with tracer.span("sweep." + inst["id"], "harness") if tracer else contextlib.nullcontext():
            found = strata.instability_index_set(ws, weyl=inst["weyl"])
            checked = strata.verify_strata_against_oracle(ws.weights, found,
                                                          inst["max_support"])
        betas = json.dumps([[str(c) for c in s.beta] for s in found])
        results.append({"id": inst["id"], "strata": len(found), "checked": checked,
                        "betas": hashlib.sha256(betas.encode()).hexdigest()})
    print(json.dumps(results))


def main(argv):
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    setup_only = argv[:1] == ["setup"]
    if setup_only:
        argv = argv[1:]
    mode, rest = argv[0], argv[1:]
    tracer = Tracer() if trace_path else None
    if tracer is not None:
        tracer.op = " ".join(rest)
    code = 0
    try:
        if tracer is not None:
            with tracer.span("import", "import"):
                import stratify.cli  # noqa: F401
            install(tracer)
        import stratify.cli

        if mode == "sweep":
            instances = _load_sweep(rest[0])
            if not setup_only:
                _sweep(instances, tracer)
        elif setup_only:
            args = stratify.cli.build_parser().parse_args(rest)
            if getattr(args, "source", None) is not None:
                stratify.runner.load_scenario(args.source)
        else:
            code = stratify.cli.main(rest)
    finally:
        if tracer is not None:
            t_end = time.perf_counter_ns()
            with open(trace_path, "w") as fh:
                json.dump({"boot": T_BOOT, "end": t_end, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
