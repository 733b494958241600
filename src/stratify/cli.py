"""Command-line front end.

Subcommands: `scenario run`, `strata`, `molien`, `lattice`, `boundary`,
`blowup`.  Output formats: text and json, and where a command writes them
(`WRITES`) csv and latex.  Exit codes: 0 success, 2 check failure, 3 parse
error, 4 resource cap exceeded.

`COMMANDS`, `COMMON` and `WRITES` are the one place that says what each
command accepts: its handler, positionals and options (`--truncate` only
where the command reads it), the options every command takes, and the
formats beyond text and json it writes.  `parse_args` reads the command
line from them and `--help` prints them, and a malformed command line (an
unknown word, a missing or ill-typed value, a value outside its range or
choices, a format the command does not write) is a parse error.  The
parser is the table and one loop, not `argparse`, so that no call loads
`argparse`, `gettext` or `locale`.

At load this module imports only `_pure`.  Each subcommand imports the
layers it runs, after its input has parsed, the JSON argument reader
(`stepargs`) when it has a JSON argument, and `serialize` only to print
JSON: a fresh interpreter per call pays to compile just those modules.
JSON arguments are read by `_pure.load_json` and JSON output is written by
`serialize.dumps`, the rules that scenario files and reports follow too.

`main()` without `argv`, as the program calls it, turns the cyclic
collector off for the whole call and ends with `gc.freeze()`, so neither
the call nor the interpreter's shutdown collects the call's objects;
`main(argv)` leaves the caller's collector alone (see `main`).
"""

from __future__ import annotations

import gc
import json
import os
import sys
from types import SimpleNamespace

from ._pure import (
    BACKEND,
    BUILTIN_SCENARIOS,
    ResourceCapError,
    ScenarioCheckError,
    ScenarioParseError,
    check_degree,
    check_order,
    load_json,
    read_input,
)

EXIT_OK = 0
EXIT_CHECK = 2
EXIT_PARSE = 3
EXIT_CAP = 4


def _emit(payload, fmt: str, text_fn, csv_fn=None):
    """Print ``payload`` as json or as ``text_fn`` or ``csv_fn`` writes it;
    `parse_args` has refused a format the command does not write."""
    if fmt != "json":
        print((csv_fn if fmt == "csv" else text_fn)(payload), end="")
    else:
        from .serialize import dumps, to_jsonable

        sys.stdout.write(dumps(to_jsonable(payload)))


def _json_arg(value: str, where: str, key: str):
    """`StepArgs` ``where`` holding as ``key`` the document of an argument
    that is either inline JSON or a path to a JSON file, read by `load_json`."""
    if os.path.exists(value):
        doc = load_json(read_input(value), f"{value} is not valid JSON")
    else:
        doc = load_json(value, "argument is neither a file nor JSON")
    from .stepargs import StepArgs

    return StepArgs(where, {key: doc})


def _cmd_scenario(args) -> int:
    from .runner import run_scenario

    report = run_scenario(args.source)
    writers = {"json": report.to_json, "latex": report.to_latex, "csv": report.to_csv,
               "text": report.to_text}
    sys.stdout.write(writers[args.format]())
    return EXIT_OK


def _cmd_strata(args) -> int:
    from . import strata, weights

    ws = weights.hypersurface_weights(args.n, args.d)
    weyl = "sym" if args.group == "sl" else "trivial"
    result = strata.instability_index_set(ws, weyl=weyl)
    if args.truncate is not None:
        result = [s for s in result if s.codim_expected <= args.truncate]

    def text(rs):
        lines = [f"index set for n={args.n}, d={args.d} [{BACKEND} backend]"]
        for s in rs:
            beta = ",".join(str(c) for c in s.beta)
            lines.append(
                f"  beta=({beta}) |beta|^2={s.norm2} n(beta)={s.n_beta} "
                f"dim G/P={s.dim_g_mod_p} codim={s.codim_expected}"
            )
        nz = [s for s in rs if not s.is_zero()]
        if nz:
            lines.append(f"minimal nonzero expected codimension: "
                         f"{min(s.codim_expected for s in nz)}")
        return "\n".join(lines) + "\n"

    def csv(rs):
        lines = ["beta,norm2,n_beta,dim_g_mod_p,codim_expected"]
        for s in rs:
            beta = ";".join(str(c) for c in s.beta)
            lines.append(f"{beta},{s.norm2},{s.n_beta},{s.dim_g_mod_p},{s.codim_expected}")
        return "\n".join(lines) + "\n"

    _emit(result, args.format, text, csv)
    return EXIT_OK


def _cmd_molien(args) -> int:
    spec = _json_arg(args.gens, "molien", "generators")
    if isinstance(spec["generators"], dict):  # an object of the generators and ring
        spec.update(spec.pop("generators"))
    spec.only(("generators", "ring"))
    gens = spec.generators("generators", spec.choice("ring", ("Q", "E"), "Q"))
    from . import invariants

    group = invariants.close_group(gens)
    series = invariants.molien(group, args.degree, args.truncate)

    def text(s):
        return f"group order {group.order}; invariant series {s}\n"

    _emit(series, args.format, text)
    return EXIT_OK


def _cmd_lattice(args) -> int:
    from . import eisenstein

    if args.lattice in eisenstein.NAMED_LATTICES:
        lat = eisenstein.named_lattice(args.lattice)
    elif os.path.exists(args.lattice) or args.lattice.lstrip()[:1] in ("{", "["):
        fields = _json_arg(args.lattice, f"lattice {args.action}", "lattice").nested(
            "lattice", ("gram",))
        lat = eisenstein.eis_lattice(fields.eis_matrix("gram"))
    else:
        raise ScenarioParseError(
            f"no lattice named {args.lattice!r} and no such file; named lattices: "
            f"{', '.join(eisenstein.NAMED_LATTICES)}")
    from . import weyl

    if args.action == "roots":
        roots = weyl.enumerate_roots(weyl.z_form(lat))
        _emit({"count": len(roots)}, args.format,
              lambda p: f"{p['count']} roots\n")
    elif args.action == "weyl-order":
        grp = weyl.weyl_group(lat)
        _emit({"order": grp.order}, args.format, lambda p: f"{p['order']}\n")
    elif args.action == "discriminant":
        from .discriminant import discriminant_form

        disc = discriminant_form(weyl.z_form(lat))
        _emit(disc, args.format,
              lambda d: f"invariant factors {list(d.invariant_factors)}, "
              f"q = {[str(q) for q in d.q_values]} mod 2Z\n")
    else:
        zl = weyl.z_form(lat)

        def csv(z):
            return "\n".join(",".join(str(x) for x in row) for row in z.gram) + "\n"

        _emit(zl, args.format,
              lambda z: "\n".join(str(list(r)) for r in z.gram) + "\n", csv)
    return EXIT_OK


def _cmd_boundary(args) -> int:
    spec = _json_arg(args.spec, "boundary", "spec").boundary_spec("spec")
    from . import eisenstein

    table = eisenstein.boundary_betti(spec)

    def text(t):
        return f"even Betti {t.even()}, odd {t.odd()}\n"

    _emit(table, args.format, text)
    return EXIT_OK


def _cmd_blowup(args) -> int:
    table = _json_arg(args.exceptional, "blowup", "exceptional").table("exceptional")
    from .assembly import blowup_correction

    corr = blowup_correction(table, args.dim, order=args.truncate)
    _emit(corr, args.format, lambda s: f"{s}\n")
    return EXIT_OK


DESCRIPTION = ("exact cohomology workbench for GIT quotients and ball-quotient boundaries;\n"
               "stratify COMMAND --help lists the arguments of a command")


def _option(kind=str, choices=None, minimum=None, required=False, default=None, text=""):
    """An option of the table: the type of its value (`int`, `str`, or an
    integer held to `check_order`: "order", or "bound", to >= 0 only, or to
    `check_degree`: "degree"), the values allowed (None: any), the least
    integer allowed (None: any), whether it must be given, its value when it
    is not, and its help line."""
    return kind, choices, minimum, required, default, text


# accepted before or after the command; the last one given wins
COMMON = {
    "--format": _option(choices=("text", "json", "csv", "latex"), default="text",
                        text="output format"),
}

# the formats beyond text and json that a command, with its action, writes
WRITES = {"scenario run": ("csv", "latex"), "strata": ("csv",), "lattice z-form": ("csv",)}

# What each command accepts: its handler, its help line, its positionals as
# (name, choices, help line) and its options by flag.  A value is stored
# under the positional's name or the flag without its dashes.
COMMANDS = {
    "scenario": (_cmd_scenario, "run a scenario pipeline",
                 (("action", ("run",), ""),
                  ("source", None, f"file path or one of: {', '.join(BUILTIN_SCENARIOS)}")),
                 {}),
    "strata": (_cmd_strata, "instability index set of a hypersurface action", (),
               {"--n": _option(int, minimum=1, required=True),
                "--d": _option(int, minimum=1, required=True),
                "--group": _option(choices=("sl", "torus"), default="sl"),
                "--truncate": _option("bound",
                                      text="list only the strata of codimension <= TRUNCATE")}),
    "molien": (_cmd_molien, "Molien series of a finite matrix group", (),
               {"--gens": _option(required=True, text="JSON file or inline JSON with generators"),
                "--degree": _option("degree", default=2, text="a positive even integer"),
                "--truncate": _option("order", default=10, text="truncation degree")}),
    "lattice": (_cmd_lattice, "Eisenstein lattice computations",
                (("action", ("roots", "weyl-order", "discriminant", "z-form"), ""),
                 ("lattice", None, "named lattice (E1..E4, H, 3E1, 3E3, E1+2E4) or JSON file")),
                {}),
    "boundary": (_cmd_boundary, "toroidal boundary divisor Betti table",
                 (("spec", None, "JSON file or inline JSON boundary spec"),), {}),
    "blowup": (_cmd_blowup, "point-blowup correction polynomial", (),
               {"--exceptional": _option(required=True,
                                         text="JSON Betti table of the exceptional divisor"),
                "--dim": _option(int, minimum=1, required=True,
                                 text="complex dimension of the target"),
                "--truncate": _option("order", text="truncation degree")}),
}


def _metavar(name, choices):
    return "{" + ",".join(choices) + "}" if choices else name.upper()


def _usage(command) -> str:
    """Help built from the table: the commands, or the arguments of one, and
    the common options."""
    if command is None:
        text, options = DESCRIPTION, COMMON
        synopsis, rows = ["COMMAND ..."], [(name, spec[1]) for name, spec in COMMANDS.items()]
    else:
        _, text, positionals, options = COMMANDS[command]
        options = {**options, **COMMON}
        rows = [(_metavar(name, choices), help_) for name, choices, help_ in positionals]
        synopsis = [command] + [word for word, _ in rows]
    for flag, (_, choices, _, required, default, help_) in options.items():
        word = f"{flag} {_metavar(flag[2:], choices)}"
        synopsis.append(word if required else f"[{word}]")
        rows.append((word, help_ if default is None else f"{help_} (default {default})".lstrip()))
    width = max(len(word) for word, _ in rows) + 2
    return "\n".join([f"usage: stratify [-h] {' '.join(synopsis)}", "", text, ""]
                     + [f"  {word:<{width}}{help_}".rstrip() for word, help_ in rows]) + "\n"


def _cmd_help(args) -> int:
    sys.stdout.write(_usage(args.command))
    return EXIT_OK


def _is_option(word: str) -> bool:
    # a negative number is a value, as in `--truncate -1`
    return word[:1] == "-" and len(word) > 1 and not word[1].isdigit()


def _flag(word: str, options, command) -> str:
    """The option ``word`` names: itself, or the one option it is a prefix of."""
    if word == "-h":
        return "--help"
    flags = (*options, "--help")
    if word in flags:
        return word
    found = [flag for flag in flags if flag.startswith(word)] if len(word) > 2 else []
    if len(found) == 1:
        return found[0]
    where = f" for {command}" if command else ""
    raise ScenarioParseError(f"unknown option {word}{where}; options: {', '.join(flags)}")


def _value(name: str, word: str, kind, choices, minimum=None):
    if kind is not str:
        try:
            word = int(word)
        except ValueError:
            raise ScenarioParseError(f"{name} must be an integer, got {word!r}") from None
        if minimum is not None and word < minimum:
            raise ScenarioParseError(f"{name} must be an integer >= {minimum}, got {word}")
        if kind == "order" or kind == "bound" and word < 0:
            check_order(word, name)
        if kind == "degree":
            check_degree(word, name)
    if choices is not None and word not in choices:
        raise ScenarioParseError(f"{name} must be one of {', '.join(choices)}, got {word!r}")
    return word


def parse_args(argv=None) -> SimpleNamespace:
    """The command line ``argv`` (default: the process's), read by the table:
    `fn`, the handler, `command`, `format` and the command's positionals
    and options as attributes.  ``-h`` or ``--help`` makes `fn`
    print the help.  A malformed command line raises `ScenarioParseError`
    naming the word or flag at fault."""
    words = iter(sys.argv[1:] if argv is None else argv)
    values = {flag[2:]: spec[4] for flag, spec in COMMON.items()}
    command, options, given = None, COMMON, []
    for word in words:
        if _is_option(word):
            flag, inline, value = word.partition("=")
            flag = _flag(flag, options, command)
            if flag == "--help":
                return SimpleNamespace(fn=_cmd_help, command=command)
            if not inline:
                value = next(words, None)
                if value is None or _is_option(value):
                    raise ScenarioParseError(f"{flag} needs a value")
            values[flag[2:]] = _value(flag, value, *options[flag][:3])
        elif command is not None:
            given.append(word)
        elif word in COMMANDS:
            command, options = word, {**COMMANDS[word][3], **COMMON}
        else:
            raise ScenarioParseError(f"unknown command {word!r}; commands: {', '.join(COMMANDS)}")
    if command is None:
        raise ScenarioParseError(f"no command given; commands: {', '.join(COMMANDS)}")
    fn, _, positionals, command_options = COMMANDS[command]
    if len(given) != len(positionals):
        wanted = " ".join(_metavar(name, choices) for name, choices, _ in positionals)
        raise ScenarioParseError(f"{command} takes {wanted or 'no positional argument'}, "
                                 f"got {' '.join(map(repr, given)) or 'none'}")
    for (name, choices, _), word in zip(positionals, given):
        values[name] = _value(f"{command} {name}", word, str, choices)
    for flag, (_, _, _, required, default, _) in command_options.items():
        if required and flag[2:] not in values:
            raise ScenarioParseError(f"{command} needs {flag}")
        values.setdefault(flag[2:], default)
    name = f"{command} {values['action']}" if "action" in values else command
    writes = ("text", "json", *WRITES.get(name, ()))
    if values["format"] not in writes:
        raise ScenarioParseError(f"{name} does not write {values['format']}; "
                                 f"it writes {', '.join(writes)}")
    return SimpleNamespace(fn=fn, command=command, **values)


def build_parser() -> SimpleNamespace:
    """The parser in the shape callers of `argparse` know:
    ``build_parser().parse_args(argv)`` is `parse_args`."""
    return SimpleNamespace(parse_args=parse_args)


def main(argv=None) -> int:
    """Run the command line ``argv`` (default: the process's); return its exit code.

    Without ``argv`` (program mode) `main` turns the cyclic collector off
    and ends with `gc.freeze()`: the process is about to exit, so its
    objects all die together, and neither the call nor the shutdown
    collections need walk them, while output, `atexit` handlers and the
    exit code are kept, as `os._exit` would not keep them.  A caller
    passing ``argv`` goes on running, so its collector stays as it was: a
    freeze would keep its objects out of every later collection.
    """
    if argv is None:
        gc.disable()
    try:
        args = parse_args(argv)
        return args.fn(args)
    except ResourceCapError as e:
        print(json.dumps({"error": "resource-cap", "message": str(e)}), file=sys.stderr)
        return EXIT_CAP
    except (ScenarioParseError, KeyError) as e:
        print(json.dumps({"error": "parse", "message": str(e)}), file=sys.stderr)
        return EXIT_PARSE
    except (ScenarioCheckError, ValueError, AssertionError) as e:
        print(json.dumps({"error": "check", "message": str(e)}), file=sys.stderr)
        return EXIT_CHECK
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
