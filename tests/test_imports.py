"""The package loads its layers on first use, and imports nothing it does not use.

Every CLI call is a fresh interpreter, so the modules a call compiles are
most of its cost.  These tests count modules, not time: each runs a call in a
fresh interpreter and reads `sys.modules` after it.  Besides the stratify
submodules the probe reports the standard modules of `HEAVY`.  It runs with
`-S`, so that no site hook has loaded any of them before the package does.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import stratify

MATH_LAYERS = {"assembly", "discriminant", "eisenstein", "invariants", "orbits", "series",
               "strata", "weights", "weyl"}

# standard modules that cost milliseconds to load: no layer but `weights`
# imports `dataclasses` (which loads `inspect`), none imports `typing` or
# `importlib.resources`, and the CLI reads its command line without
# `argparse` (which loads `gettext`, and on its first message `locale`)
HEAVY = {"dataclasses", "inspect", "typing", "importlib.resources", "argparse", "gettext",
         "locale"}
# the modules a call that loads `weights` holds besides the stratify ones
WEIGHTS_STDLIB = {"dataclasses", "inspect"}

PROBE = """
import contextlib, io, json, sys
{load}
print(json.dumps(sorted([m.rpartition(".")[2] for m in sys.modules
                         if m.startswith("stratify.")]
                        + [m for m in %r if m in sys.modules])))
""" % sorted(HEAVY)
CLI_CALL = """
import stratify.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = stratify.cli.main(sys.argv[1:])
print(code)
"""


def loaded(load, *argv):
    """The stratify submodules, and those of `HEAVY`, that a fresh
    interpreter holds after ``load``, and the lines ``load`` printed."""
    env = {**os.environ, "PYTHONPATH": str(Path(stratify.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE.format(load=load), *argv],
                          capture_output=True, text=True, check=True, env=env)
    *printed, modules = proc.stdout.splitlines()
    return set(json.loads(modules)), printed


def test_import_loads_no_submodule():
    assert loaded("import stratify")[0] == set()


@pytest.mark.parametrize("argv, code, absent", [
    (("strata", "--n", "3", "--d", "3"), "0",
     {"eisenstein", "invariants", "orbits", "runner", "_exact"}),
    (("lattice", "roots", "E3"), "0", {"discriminant", "strata", "orbits", "runner"} | HEAVY),
    (("boundary", "{not json"), "3", MATH_LAYERS | {"runner"} | HEAVY),
    (("scenario", "run", "cubiccurve"), "0",
     {"discriminant", "eisenstein", "invariants", "orbits", "weyl"}),
    (("scenario", "run", "no_such_scenario"), "3", MATH_LAYERS - {"series"} | HEAVY),
    (("strata", "--n", "3", "--d", "3", "--group", "torus"), "0",
     {"eisenstein", "invariants", "orbits", "runner", "_exact"}),
])
def test_a_call_loads_only_its_layers(argv, code, absent):
    modules, printed = loaded(CLI_CALL, *argv)
    assert printed == [code]
    assert not modules & absent, sorted(modules & absent)


def _bad_scenario(steps):
    return {"name": "bad", "order": 6, "steps": steps, "outputs": {}}


# malformed scenarios of the benchmark's CLI mix
BAD_SCENARIOS = {
    "unknown-op": _bad_scenario([{"id": "x", "op": "no_such_op", "args": {}}]),
    "wrong-pin": _bad_scenario([
        {"id": "ws", "op": "hypersurface_weights", "args": {"n": 2, "d": 3}},
        {"id": "bset", "op": "instability_index_set", "args": {"weights": "$ws"}},
        {"id": "min", "op": "min_nonzero_codim", "args": {"strata": "$bset"}, "expect": 99}]),
    "string-n": _bad_scenario([
        {"id": "ws", "op": "hypersurface_weights", "args": {"n": "4", "d": 3}}]),
    "missing-d": _bad_scenario([{"id": "ws", "op": "hypersurface_weights", "args": {"n": 4}}]),
}
ALL_LAYERS = MATH_LAYERS | {"_exact", "_pure", "cli", "runner", "serialize", "stepargs"}
LATTICE = {"_exact", "_pure", "cli", "eisenstein", "serialize", "weyl"}
# a scenario that fails validation loads neither the argument reader nor a layer
SCENARIO_INVALID = {"_pure", "cli", "runner"}
SCENARIO_BASE = SCENARIO_INVALID | {"stepargs"}


@pytest.mark.parametrize("argv, code, expected", [
    # the cusp lattice's boundary has explicit generators: no roots, no discriminant
    (("scenario", "run", "cubicsurf", "--format", "json"), "0",
     ALL_LAYERS - {"discriminant", "weyl"} | WEIGHTS_STDLIB),
    (("scenario", "run", "cubiccurve", "--format", "latex"), "0",
     SCENARIO_BASE | {"assembly", "serialize", "series", "strata", "weights"} | WEIGHTS_STDLIB),
    (("lattice", "roots", "E3", "--format", "json"), "0", LATTICE),
    (("lattice", "weyl-order", "E3", "--format", "json"), "0", LATTICE | {"invariants"}),
    (("lattice", "discriminant", "H", "--format", "json"), "0", LATTICE | {"discriminant"}),
    (("lattice", "z-form", "E4", "--format", "csv"), "0", LATTICE - {"serialize"}),
    (("molien", "--gens", "[[[0,1],[1,0]],[[-1,1],[-1,0]]]", "--truncate", "8",
      "--format", "json"), "0",
     {"_exact", "_pure", "cli", "invariants", "serialize", "series", "stepargs"}),
    (("boundary", '{"factors":[{"lattice":"E3","group":"weyl","count":2}]}', "--format",
      "json"), "0", LATTICE | {"invariants", "series", "stepargs"}),
    (("blowup", "--exceptional", '{"complex_dim":2,"even":[1,2,1],"odd":[0,0]}', "--dim",
      "3", "--format", "json"), "0",
     {"_pure", "assembly", "cli", "serialize", "series", "stepargs"}),
    (("strata", "--n", "3", "--d", "3", "--format", "json"), "0",
     {"_pure", "cli", "serialize", "strata", "weights"} | WEIGHTS_STDLIB),
    (("strata", "--n", "3", "--d", "3", "--group", "torus", "--format", "csv"), "0",
     {"_pure", "cli", "strata", "weights"} | WEIGHTS_STDLIB),
    (("scenario", "run", "no_such_scenario", "--format", "json"), "3", SCENARIO_INVALID),
    (("boundary", "{not json", "--format", "json"), "3", {"_pure", "cli"}),
    (("blowup", "--exceptional", "[1,", "--dim", "4", "--format", "json"), "3",
     {"_pure", "cli"}),
    (("scenario", "run", "{unknown-op}", "--format", "json"), "3", SCENARIO_INVALID),
    (("scenario", "run", "{wrong-pin}", "--format", "json"), "2",
     SCENARIO_BASE | {"serialize", "strata", "weights"} | WEIGHTS_STDLIB),
    (("scenario", "run", "{string-n}", "--format", "json"), "3", SCENARIO_BASE),
    (("scenario", "run", "{missing-d}", "--format", "json"), "3", SCENARIO_BASE),
    # help and a malformed command line load no layer
    (("strata", "--help"), "0", {"_pure", "cli"}),
    (("strata", "--n", "abc", "--d", "3", "--format", "json"), "3", {"_pure", "cli"}),
])
def test_a_call_loads_exactly_its_modules(tmp_path, argv, code, expected):
    files = {}
    for name, doc in BAD_SCENARIOS.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    argv = [str(files[arg[1:-1]]) if arg[1:-1] in files else arg for arg in argv]
    modules, printed = loaded(CLI_CALL, *argv)
    assert printed == [code]
    assert modules == expected, (sorted(modules - expected), sorted(expected - modules))


def test_a_lattice_file_compiles_the_reader_but_not_the_runner(tmp_path):
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps({"gram": [[3, 0], [0, 3]]}))
    modules, printed = loaded(CLI_CALL, "lattice", "roots", str(lattice), "--format", "json")
    assert printed == ["0"]
    assert modules == LATTICE | {"stepargs"}


def test_runner_reachable_after_importing_the_cli():
    # the benchmark's set-up probe and tracer look it up this way
    modules, printed = loaded("import stratify.cli\n"
                              "print(stratify.runner.load_scenario('cubicsurf')['name'])\n"
                              "from stratify import _backend, runner")
    assert printed == ["cubicsurf"] and {"runner", "_backend"} <= modules


def test_every_encoder_key_names_a_live_class():
    # `serialize` finds an encoder by the module and name of a value's class:
    # a key left behind when a class moves would silently stop matching
    from stratify import serialize

    for key in serialize._ENCODERS:
        module, _, qualname = key.rpartition(".")
        if key == "builtins.NoneType":  # not a name in `builtins`
            cls = type(None)
        else:
            cls = importlib.import_module(module)
            for part in qualname.split("."):
                cls = getattr(cls, part, None)
        assert isinstance(cls, type), key
        assert f"{cls.__module__}.{cls.__qualname__}" == key
        assert serialize._encoder(cls) is serialize._ENCODERS[key]


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


def _names(node):
    """The identifiers under ``node`` that read a name, read an attribute or
    import a name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def dead_definitions(package):
    """Module-level functions and classes of the modules in directory
    ``package`` whose names begin with a single underscore and which no
    module there names outside their own definition, as "module:line name".

    A decorated function is exempt: its decorator registers it (the
    runner's `@op` table)."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    named = Counter(name for tree in trees.values() for name in _names(tree))
    return [f"{stem}:{node.lineno} {node.name}" for stem, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and not node.decorator_list
            and named[node.name] == Counter(_names(node))[node.name]]


def test_no_dead_definitions():
    assert dead_definitions(Path(stratify.__file__).parent) == []


def test_dead_definition_check_finds_an_unnamed_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    pass\n\n\ndef _dead():\n    return _dead\n\n\n"
        "@register\ndef _op():\n    pass\n\n\nclass _Unused:\n    pass\n\n\n"
        "def public():\n    return _used()\n")
    (tmp_path / "b.py").write_text(
        "from a import _imported\n\n\ndef _imported():\n    pass\n\n\n"
        "def _by_attribute():\n    pass\n\n\nx = a._by_attribute\n"
        "'_in_a_string'\n\n\ndef _in_a_string():\n    pass\n")
    # _dead names only itself, and a string does not name _in_a_string
    assert dead_definitions(tmp_path) == ["a:5 _dead", "a:14 _Unused", "b:16 _in_a_string"]


def json_calls(package):
    """The calls of `json.loads`, and of `json.dumps` with an ``indent``, in
    the modules of directory ``package``, each as "module.function json.name"
    by the innermost function that makes it, and each import from `json` or
    its submodules, which would hide such a call or write JSON another way."""
    found = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{module}.{child.name}"
            elif (isinstance(child, ast.ImportFrom)
                  and (child.module or "").partition(".")[0] == "json"):
                found.append(f"{where} from {child.module} import")
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and isinstance(child.func.value, ast.Name) and child.func.value.id == "json"
                  and (child.func.attr == "loads" or child.func.attr == "dumps"
                       and any(k.arg == "indent" for k in child.keywords))):
                found.append(f"{where} json.{child.func.attr}")
            visit(child, module, inner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path.stem)
    return found


def test_json_is_read_and_written_in_one_place():
    # every JSON input goes through `_pure.load_json` (no floats, parse
    # errors with one message form), every JSON text out through
    # `serialize.dumps` (sorted keys, indent 2, a final newline), which
    # alone takes json's string encoder
    assert json_calls(Path(stratify.__file__).parent) == [
        "_pure.load_json json.loads", "serialize from json.encoder import"]


def test_json_call_check_finds_each_call(tmp_path):
    (tmp_path / "a.py").write_text(
        "import json\n\n\ndef f():\n    return json.loads('1')\n\n\n"
        "class C:\n    def g(self):\n        json.dumps(1)\n"
        "        return json.dumps(1, indent=1)\n\n\n"
        "from json import loads\nx = json.loads('[]')\n")
    assert json_calls(tmp_path) == ["a.f json.loads", "a.g json.dumps",
                                    "a from json import", "a json.loads"]


# defined in `_pure`, where the strata and series layers reach them without
# loading Eisenstein arithmetic; `_exact` uses three of them but passes none on
PURE_HELPERS = {"_div", "_extend_ldl", "echelon", "rank", "rational"}


def helpers_from_exact(paths):
    """Each import of a `PURE_HELPERS` name from `_exact`, and each read of
    one as an attribute of `_exact`, in the modules ``paths``, as "module:line name"."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").rpartition(".")[2] == "_exact"):
                names = [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "_exact"):
                names = [node.attr]
            else:
                continue
            found += [f"{path.stem}:{node.lineno} {name}" for name in names
                      if name in PURE_HELPERS]
    return found


def test_pure_helpers_are_imported_from_pure():
    paths = [*sorted(Path(stratify.__file__).parent.glob("*.py")),
             *sorted(Path(__file__).parent.glob("*.py"))]
    assert helpers_from_exact(paths) == []


def test_helper_import_check_finds_each_use(tmp_path):
    module = tmp_path / "a.py"
    module.write_text("from ._exact import eis, rank\nfrom stratify._pure import echelon\n"
                      "from stratify import _exact\nx = _exact.echelon(_exact.det)\n")
    assert helpers_from_exact([module]) == ["a:1 rank", "a:4 echelon"]


def test_lattice_help_names_the_named_lattices():
    # the help writes the names out, as `cli` does not load `eisenstein`
    from stratify import cli, eisenstein

    help_ = {name: text for name, _, text in cli.COMMANDS["lattice"][2]}["lattice"]
    names = []
    for word in help_[help_.index("(") + 1:help_.index(")")].split(", "):
        first, dots, last = word.partition("..")
        if dots:  # a range such as E1..E4
            prefix = first.rstrip("0123456789")
            names += [f"{prefix}{i}" for i in range(int(first[len(prefix):]),
                                                      int(last[len(prefix):]) + 1)]
        else:
            names.append(word)
    assert names == list(eisenstein.NAMED_LATTICES)
    assert "eisenstein" not in loaded("import stratify.cli")[0]


def test_runner_names_no_layer_default():
    # a budget or cap left out reaches its layer as None, which the layer
    # reads as its own default
    runner = Path(stratify.__file__).parent / "runner.py"
    names = set(_names(ast.parse(runner.read_text(encoding="utf-8"))))
    assert not names & {"DEFAULT_BUDGET", "DEFAULT_CAP"}
