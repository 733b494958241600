"""Every public function and method of `stratify` is run by the program.

`CALLS`, run with `cli.main` under `sys.setprofile` in a fresh interpreter
that imports the package only then, are the program: the four built-in
scenarios in every format, a scenario of the ops they do not use, each
command and lattice action, the help, and the documented exit-2, exit-3
and exit-4 cases.  A public function or method (a name without a leading
underscore, defined in a module of the package) that none of these calls
is a helper only the tests use, and belongs beside the other references in
`tests/`.  `ALLOWED` names the ones kept for the benchmark's tracer
(`perfbench/child.py`).
"""

import contextlib
import importlib
import inspect
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

ALLOWED = {"_backend.close_eis", "_backend.eis_char_sums", "cli.build_parser"}

BOUNDARY_E3 = '{"factors":[{"lattice":"E3","group":"weyl","count":3}]}'
BOUNDARY_GENS = '{"factors":[{"lattice":"E1","group":{"generators":[[[[0,1]]],[[-1]]]}}]}'
EXCEPTIONAL = '{"complex_dim":3,"even":[1,1,1,1],"odd":[0,0,0]}'


def _symmetric(n):
    """An n-cycle and a transposition, as permutation matrices: S_n."""
    swap = (1, 0, *range(2, n))
    return json.dumps([[[int(j == (i + 1) % n) for j in range(n)] for i in range(n)],
                       [[int(j == swap[i]) for j in range(n)] for i in range(n)]])


# scenario files of the documented failures, each with its exit code
FILES = {
    "expect.json": (2, {"name": "bad", "order": 4, "steps": [
        {"id": "a", "op": "projective_series", "args": {"dim": 1},
         "expect": {"kind": "series", "order": 4, "triples": [[0, 9, 1]]}}]}),
    "not_a_table.json": (2, {"name": "out", "steps": [
        {"id": "s", "op": "projective_series", "args": {"dim": 1}}], "outputs": {"a": "$s"}}),
    "float.json": (3, {"name": "f", "steps": [
        {"id": "v", "op": "declare", "args": {"kind": "raw", "value": 1.5},
         "facts": [{"cite": "c"}], "expect": 1.5}]}),
    "forward.json": (3, {"name": "fwd", "steps": [
        {"id": "a", "op": "b_shift", "args": {"table": "$b"}},
        {"id": "b", "op": "projective_table", "args": {"dim": 1}}]}),
    "output.json": (3, {"name": "out", "steps": [
        {"id": "t", "op": "projective_table", "args": {"dim": 1}}], "outputs": {"a": "t"}}),
    "rank.json": (3, {"name": "rank", "steps": [
        {"id": "g", "op": "close_group", "args": {"ring": "E", "generators": [[[[0, 1]]]]}},
        {"id": "q", "op": "abelian_quotient_betti",
         "args": {"group": "$g", "rank": 2, "form": [[3, 0], [0, 3]]}}]}),
    # the ops that no built-in scenario runs
    "ops.json": (0, {"name": "ops", "order": 8, "steps": [
        {"id": "e", "op": "gf_expand", "args": {"factors": [[2, 1], [4, 1]]}},
        {"id": "t", "op": "projective_table", "args": {"dim": 1}},
        {"id": "w", "op": "wreath_symmetrize", "args": {"value": "$t", "n": 3}},
        {"id": "d", "op": "duality_check", "args": {"table": "$w"}},
        {"id": "a", "op": "assert_true", "args": {"value": True}},
        {"id": "l", "op": "named_lattice", "args": {"name": "E1"}},
        {"id": "z", "op": "z_form", "args": {"lattice": "$l"}},
        {"id": "g", "op": "glue_overlattice", "args": {"lattice": "$z", "glue": []}}]}),
    "order.json": (4, {"name": "huge", "order": 100000000, "steps": [
        {"id": "p", "op": "projective_series", "args": {"dim": 2}}]}),
}

# (command line, exit code); a file name of FILES stands for its path
CALLS = [
    *((("scenario", "run", name, "--format", fmt), 0)
      for name in ("cubic3fold", "cubicsurf", "cubiccurve", "binary12")
      for fmt in ("text", "json", "csv", "latex")),
    *((("scenario", "run", name), code) for name, (code, _) in FILES.items()),
    (("strata", "--n", "2", "--d", "3"), 0),
    (("strata", "--n", "3", "--d", "3", "--group", "torus", "--format", "json"), 0),
    (("strata", "--n", "2", "--d", "4", "--truncate", "2", "--format", "csv"), 0),
    (("molien", "--gens", "[[[0,1],[1,0]],[[-1,1],[-1,0]]]", "--truncate", "12"), 0),
    (("molien", "--gens", '{"ring":"E","generators":[[[[0,1]]]]}', "--format", "json"), 0),
    *((("lattice", action, "E3"), 0) for action in ("roots", "weyl-order", "discriminant")),
    (("lattice", "z-form", "H", "--format", "csv"), 0),
    (("lattice", "z-form", '{"gram":[[3]]}', "--format", "json"), 0),
    (("boundary", BOUNDARY_E3), 0),
    (("boundary", BOUNDARY_GENS, "--format", "json"), 0),
    (("blowup", "--exceptional", EXCEPTIONAL, "--dim", "4", "--truncate", "8"), 0),
    (("--help",), 0),
    (("strata", "-h"), 0),
    # exit 2: a check fails
    (("molien", "--gens", "[[[1,1],[0,1]]]"), 2),
    (("molien", "--gens", "[[[0,1],[-1,1]],[[-1,-1],[1,0]]]"), 2),
    (("lattice", "weyl-order", '{"gram":[[3,0],[0,-3]]}'), 2),
    # exit 3: malformed input
    ((), 3),
    (("strata", "--n", "abc", "--d", "3"), 3),
    (("strata", "--n", "3"), 3),
    (("strata", "--n", "2", "--d", "3", "--format", "latex"), 3),
    (("scenario", "run", "cubicsurf", "--truncate", "5"), 3),
    (("scenario", "run", "no-such-scenario"), 3),
    (("molien", "--gens", "[[[0,1],[1,0]]]", "--format", "csv"), 3),
    (("molien", "--gens", "[[[1.5]]]"), 3),
    (("molien", "--gens", "[[[0,1],[1,0]]]", "--degree", "3"), 3),
    (("lattice", "roots", "E9"), 3),
    (("lattice", "frobnicate", "E1"), 3),
    (("boundary", '{"factors":[]}'), 3),
    (("boundary", '{"factors":[{"lattice":"E1","cuont":2}]}'), 3),
    (("blowup", "--exceptional", EXCEPTIONAL, "--dim", "-1"), 3),
    # exit 4: a resource cap
    (("strata", "--n", "5", "--d", "3"), 4),
    (("strata", "--n", "2000", "--d", "2"), 4),
    (("molien", "--gens", _symmetric(10)), 4),
    (("molien", "--gens", "[[[1]]]", "--truncate", "1001"), 4),
    (("boundary", '{"factors":[{"lattice":"E1","count":13}]}'), 4),
    (("boundary", '{"factors":[{"lattice":"3E3"}]}'), 4),
]


def public_functions():
    """(name, code object) of each public function and method defined in a
    module of the package, a method's name qualified by its class."""
    import stratify

    for path in sorted(Path(stratify.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"stratify.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                members = [(f"{name}.{attr}", member) for attr, member in vars(obj).items()
                           if not attr.startswith("_")]
            else:
                members = [(name, obj)]
            for qualname, member in members:
                for fn in (getattr(member, "__func__", member), getattr(member, "fget", None)):
                    fn = inspect.unwrap(fn) if callable(fn) else fn
                    if inspect.isfunction(fn):
                        yield f"{path.stem}.{qualname}", fn.__code__


def probe(tmp):
    """Run `CALLS` under the profiler in this interpreter, which has not yet
    imported the package, so that what the modules run when they load is
    seen too: each call's exit code, and the public functions never called
    outside `ALLOWED`.

    A scenario is computed once and its report written in every format: the
    later calls of a scenario run only code that its first call ran, apart
    from the writer of their format."""
    for name, (_, doc) in FILES.items():
        (tmp / name).write_text(json.dumps(doc))
    called, exits, reports = set(), [], {}

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from stratify import cli, runner

        run = runner.run_scenario

        def run_once(source):
            if source not in reports:
                reports[source] = run(source)
            return reports[source]

        runner.run_scenario = run_once
        for argv, _ in CALLS:
            argv = [str(tmp / word) if word in FILES else word for word in argv]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                exits.append(cli.main(argv))
    finally:
        sys.setprofile(None)
    never = sorted(name for name, code in public_functions()
                   if code not in called and name not in ALLOWED)
    return {"exits": exits, "never": never}


@pytest.fixture(scope="module")
def probed(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reach")
    proc = subprocess.run([sys.executable, __file__, str(tmp)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_call_ends_with_its_documented_exit_code(probed):
    wrong = [(argv, want, got) for (argv, want), got in zip(CALLS, probed["exits"])
             if got != want]
    assert not wrong


def test_every_public_function_is_run_by_the_program(probed):
    assert not probed["never"], f"public functions no call runs: {probed['never']}"


def test_the_allowlist_names_public_functions():
    names = {name for name, _ in public_functions()}
    assert ALLOWED <= names


if __name__ == "__main__":
    print(json.dumps(probe(Path(sys.argv[1]))))
