"""The package loads its layers on first use, and imports nothing it does not use.

Every CLI call is a fresh interpreter, so the modules a call compiles are
most of its cost.  These tests count modules, not time: each runs a call in a
fresh interpreter and reads `sys.modules` after it.  Besides the stratify
submodules the probe reports `dataclasses` and `inspect`, which the layers'
records do without (`_pure.Record`): importing them costs about 10 ms.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import stratify

MATH_LAYERS = {"assembly", "eisenstein", "invariants", "orbits", "series", "strata",
               "weights"}

# standard modules that no layer but `weights` imports
HEAVY = {"dataclasses", "inspect"}

PROBE = """
import contextlib, io, json, sys
{load}
print(json.dumps(sorted([m.rpartition(".")[2] for m in sys.modules
                         if m.startswith("stratify.")]
                        + [m for m in ("dataclasses", "inspect") if m in sys.modules])))
"""
CLI_CALL = """
import stratify.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = stratify.cli.main(sys.argv[1:])
print(code)
"""


def loaded(load, *argv):
    """The stratify submodules, and those of `HEAVY`, that a fresh
    interpreter holds after ``load``, and the lines ``load`` printed."""
    proc = subprocess.run([sys.executable, "-c", PROBE.format(load=load), *argv],
                          capture_output=True, text=True, check=True)
    *printed, modules = proc.stdout.splitlines()
    return set(json.loads(modules)), printed


def test_import_loads_no_submodule():
    assert loaded("import stratify")[0] == set()


@pytest.mark.parametrize("argv, code, absent", [
    (("strata", "--n", "3", "--d", "3"), "0",
     {"eisenstein", "invariants", "orbits", "runner", "_exact"}),
    (("lattice", "roots", "E3"), "0", {"strata", "orbits", "runner"} | HEAVY),
    (("boundary", "{not json"), "3", MATH_LAYERS | {"runner"} | HEAVY),
    (("scenario", "run", "cubiccurve"), "0", {"eisenstein", "invariants", "orbits"}),
    (("scenario", "run", "no_such_scenario"), "3", MATH_LAYERS - {"series"} | HEAVY),
    (("strata", "--n", "3", "--d", "3", "--group", "torus"), "0",
     {"eisenstein", "invariants", "orbits", "runner", "_exact"}),
])
def test_a_call_loads_only_its_layers(argv, code, absent):
    modules, printed = loaded(CLI_CALL, *argv)
    assert printed == [code]
    assert not modules & absent, sorted(modules & absent)


def test_runner_reachable_after_importing_the_cli():
    # the benchmark's set-up probe and tracer look it up this way
    modules, printed = loaded("import stratify.cli\n"
                              "print(stratify.runner.load_scenario('cubicsurf')['name'])\n"
                              "from stratify import _backend, runner")
    assert printed == ["cubicsurf"] and {"runner", "_backend"} <= modules


def test_public_names_resolve():
    for name in stratify.__all__:
        assert getattr(stratify, name) is not None, name
    assert set(stratify.__all__) <= set(dir(stratify))


def test_star_import():
    namespace = {}
    exec("from stratify import *", namespace)
    assert set(stratify.__all__) <= set(namespace)
    assert namespace["run_scenario"] is stratify.runner.run_scenario


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        stratify.no_such_name
    assert not hasattr(stratify, "__no_such_dunder__")


def unused_imports(path):
    """Names that a module imports and never uses, as "module:line name".

    A name counts as used when it is read anywhere in the module.  A name
    listed in the module's `__all__` (its string items) or imported on a line
    marked ``# noqa: F401`` is a re-export."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    exported = {node.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
                for node in ast.walk(stmt.value)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).partition(".")[0]
            if name in used or name in exported or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            unused.append(f"{path.stem}:{alias.lineno} {name}")
    return unused


def test_no_unused_imports():
    modules = sorted((Path(stratify.__file__).parent).glob("*.py"))
    assert modules
    assert [name for path in modules for name in unused_imports(path)] == []


def test_unused_import_check_finds_an_unused_name(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from math import gcd, lcm\nimport os  # noqa: F401\n"
                      "from json import dumps, loads\n__all__ = ['dumps']\n"
                      "print(lcm(2, 3))\n")
    assert unused_imports(module) == ["module:1 gcd", "module:3 loads"]
