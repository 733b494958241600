"""Argument probe: every declared argument of every op, set to a bad value,
ends in a documented error.

For each op in `runner.DECLARATIONS` the base is a valid step: the op's first
step in the built-in scenarios, with only the steps its "$" references need,
or one written here for ops no built-in scenario uses.  Each declared
argument is set in turn to each of `VALUES`.  A run may succeed (a value can
be valid), but when it fails it must fail with a parse error (exit 3), a
check failure (exit 2) or a resource cap (exit 4): never with a traceback.
"""

import copy

import pytest

from stratify._pure import BUILTIN_SCENARIOS
from stratify.runner import (
    DECLARATIONS,
    ResourceCapError,
    ScenarioCheckError,
    ScenarioParseError,
    load_scenario,
    run_scenario,
)

VALUES = (5, [1], "x", {"a": 1}, None, -1, 0, [[1]], [{"a": 1}])

# bases for the ops that no built-in scenario uses; the last step is probed
OWN_BASES = {
    "gf_expand": [{"id": "s", "op": "gf_expand", "args": {"factors": [[2, 1], [4, 1]]}}],
    "duality_check": [
        {"id": "t", "op": "projective_table", "args": {"dim": 2}},
        {"id": "s", "op": "duality_check", "args": {"table": "$t"}}],
    "wreath_symmetrize": [
        {"id": "t", "op": "projective_table", "args": {"dim": 1}},
        {"id": "s", "op": "wreath_symmetrize", "args": {"value": "$t", "n": 3}}],
    "glue_overlattice": [
        {"id": "lat", "op": "named_lattice", "args": {"name": "E1"}},
        {"id": "z", "op": "z_form", "args": {"lattice": "$lat"}},
        {"id": "s", "op": "glue_overlattice", "args": {"lattice": "$z", "glue": []}}],
    "assert_true": [
        {"id": "v", "op": "verify_cusp_vector", "args": {}},
        {"id": "s", "op": "assert_true", "args": {"value": "$v"}}],
}


def _refs(value):
    if isinstance(value, str) and value.startswith("$"):
        yield value[1:]
    elif isinstance(value, list):
        for v in value:
            yield from _refs(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _refs(v)


def base_of(op):
    """(order, steps, id of the probed step) for ``op``."""
    if op in OWN_BASES:
        return 8, OWN_BASES[op], OWN_BASES[op][-1]["id"]
    for name in BUILTIN_SCENARIOS:
        doc = load_scenario(name)
        by_id = {s["id"]: s for s in doc["steps"]}
        target = next((s for s in doc["steps"] if s["op"] == op), None)
        if target is None:
            continue
        needed, todo = {target["id"]}, [target["id"]]
        while todo:
            for ref in _refs(by_id[todo.pop()].get("args", {})):
                if ref not in needed:
                    needed.add(ref)
                    todo.append(ref)
        steps = [s for s in doc["steps"] if s["id"] in needed]
        return doc.get("order", 10), steps, target["id"]
    raise AssertionError(f"no base step for op {op!r}")


@pytest.mark.parametrize("op", sorted(DECLARATIONS))
def test_bad_argument_values_end_in_documented_errors(op):
    order, steps, target = base_of(op)
    run_scenario({"name": "base", "order": order, "steps": steps})  # the base is valid
    undocumented = []
    for arg in DECLARATIONS[op]:
        for value in VALUES:
            probe = copy.deepcopy(steps)
            next(s for s in probe if s["id"] == target).setdefault("args", {})[arg] = value
            try:
                run_scenario({"name": "probe", "order": order, "steps": probe})
            except (ScenarioParseError, ScenarioCheckError, ResourceCapError):
                pass
            except Exception as e:  # noqa: BLE001 - any other exception is the finding
                undocumented.append(f"{arg}={value!r}: {type(e).__name__}: {e}")
    assert undocumented == []
