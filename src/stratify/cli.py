"""Command-line front end.

Subcommands: `scenario run`, `strata`, `molien`, `lattice`, `boundary`,
`blowup`.  Output formats: text, json, csv, latex.  Exit codes: 0 success,
2 check failure, 3 parse error, 4 resource cap exceeded.

At load this module imports only `_pure`.  Each subcommand imports the
layers it runs, after its input has parsed, the JSON argument reader
(`stepargs`) when it has a JSON argument, and `serialize` only to print
JSON: a fresh interpreter per call pays to compile just those modules.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._pure import (
    BACKEND,
    BUILTIN_SCENARIOS,
    ResourceCapError,
    ScenarioCheckError,
    ScenarioParseError,
    check_order,
    read_input,
)

EXIT_OK = 0
EXIT_CHECK = 2
EXIT_PARSE = 3
EXIT_CAP = 4


def _emit(payload, fmt: str, text_fn=None, csv_fn=None, latex_fn=None):
    if fmt == "csv" and csv_fn:
        print(csv_fn(payload), end="")
    elif fmt == "latex" and latex_fn:
        print(latex_fn(payload), end="")
    elif fmt != "json" and text_fn:
        print(text_fn(payload), end="")
    else:
        from .serialize import to_jsonable

        print(json.dumps(to_jsonable(payload), sort_keys=True, indent=2))


def _load_json_arg(value: str):
    """Parse an argument that is either inline JSON or a path to a JSON file.

    Malformed JSON and an integer beyond the interpreter's digit limit (a
    plain `ValueError` from `json.loads`) are parse errors."""
    if os.path.exists(value):
        text = read_input(value)
        try:
            return json.loads(text)
        except ValueError as e:
            raise ScenarioParseError(f"{value} is not valid JSON: {e}") from e
    try:
        return json.loads(value)
    except ValueError as e:
        raise ScenarioParseError(f"argument is neither a file nor JSON: {e}") from e


def _cmd_scenario(args) -> int:
    from .runner import run_scenario

    if args.action != "run":
        raise ScenarioParseError("only 'scenario run' is supported")
    report = run_scenario(args.source)
    if args.format == "json":
        sys.stdout.write(report.to_json())
    elif args.format == "latex":
        sys.stdout.write(report.to_latex())
    elif args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(report.to_text())
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
    spec = _load_json_arg(args.gens)
    from .stepargs import StepArgs

    if not isinstance(spec, dict):
        spec = {"generators": spec}
    gens = StepArgs("molien", spec).only(("generators", "ring")).generators()
    from . import invariants

    group = invariants.close_group(gens)
    series = invariants.molien(group, args.degree, 10 if args.truncate is None else args.truncate)

    def text(s):
        return f"group order {group.order}; invariant series {s}\n"

    _emit(series, args.format, text)
    return EXIT_OK


def _cmd_lattice(args) -> int:
    from . import eisenstein

    if args.lattice in eisenstein.NAMED_LATTICES:
        lat = eisenstein.named_lattice(args.lattice)
    elif os.path.exists(args.lattice) or args.lattice.lstrip()[:1] in ("{", "["):
        doc = _load_json_arg(args.lattice)
        from .stepargs import StepArgs

        fields = StepArgs(f"lattice {args.action}", {"lattice": doc}).nested("lattice", ("gram",))
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
    elif args.action == "z-form":
        zl = weyl.z_form(lat)

        def csv(z):
            return "\n".join(",".join(str(x) for x in row) for row in z.gram) + "\n"

        _emit(zl, args.format,
              lambda z: "\n".join(str(list(r)) for r in z.gram) + "\n", csv)
    else:
        raise ScenarioParseError(f"unknown lattice action {args.action!r}")
    return EXIT_OK


def _cmd_boundary(args) -> int:
    doc = _load_json_arg(args.spec)
    from .stepargs import StepArgs

    spec = StepArgs("boundary", {"spec": doc}).boundary_spec("spec")
    from . import eisenstein

    table = eisenstein.boundary_betti(spec)

    def text(t):
        return f"even Betti {t.even()}, odd {t.odd()}\n"

    _emit(table, args.format, text)
    return EXIT_OK


def _cmd_blowup(args) -> int:
    doc = _load_json_arg(args.exceptional)
    from .stepargs import StepArgs

    table = StepArgs("blowup", {"exceptional": doc}).table("exceptional")
    from .assembly import blowup_correction

    corr = blowup_correction(table, args.dim, order=args.truncate)
    _emit(corr, args.format, lambda s: f"{s}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json", "csv", "latex"],
                        default=argparse.SUPPRESS)
    common.add_argument("--truncate", type=int, default=argparse.SUPPRESS, metavar="K",
                        help="truncation degree (series) or codimension bound (strata)")
    p = argparse.ArgumentParser(
        prog="stratify",
        description="exact cohomology workbench for GIT quotients and ball-quotient boundaries",
    )
    p.add_argument("--format", choices=["text", "json", "csv", "latex"], default="text")
    p.add_argument("--truncate", type=int, default=None, metavar="K",
                   help="truncation degree (series) or codimension bound (strata)")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("scenario", help="run a scenario pipeline", parents=[common])
    ps.add_argument("action", choices=["run"])
    ps.add_argument("source", help=f"file path or one of: {', '.join(BUILTIN_SCENARIOS)}")
    ps.set_defaults(fn=_cmd_scenario)

    pt = sub.add_parser("strata", help="instability index set of a hypersurface action", parents=[common])
    pt.add_argument("--n", type=int, required=True)
    pt.add_argument("--d", type=int, required=True)
    pt.add_argument("--group", choices=["sl", "torus"], default="sl")
    pt.set_defaults(fn=_cmd_strata)

    pm = sub.add_parser("molien", help="Molien series of a finite matrix group", parents=[common])
    pm.add_argument("--gens", required=True, help="JSON file or inline JSON with generators")
    pm.add_argument("--degree", type=int, default=2)
    pm.set_defaults(fn=_cmd_molien)

    pl = sub.add_parser("lattice", help="Eisenstein lattice computations", parents=[common])
    pl.add_argument("action", choices=["roots", "weyl-order", "discriminant", "z-form"])
    pl.add_argument("lattice", help="named lattice (E1..E4, H, 3E1, 3E3, E1+2E4) or JSON file")
    pl.set_defaults(fn=_cmd_lattice)

    pb = sub.add_parser("boundary", help="toroidal boundary divisor Betti table", parents=[common])
    pb.add_argument("spec", help="JSON file or inline JSON boundary spec")
    pb.set_defaults(fn=_cmd_boundary)

    pw = sub.add_parser("blowup", help="point-blowup correction polynomial", parents=[common])
    pw.add_argument("--exceptional", required=True,
                    help="JSON Betti table of the exceptional divisor")
    pw.add_argument("--dim", type=int, required=True, help="complex dimension of the target")
    pw.set_defaults(fn=_cmd_blowup)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.truncate is not None:
            check_order(args.truncate, "--truncate")
        return args.fn(args)
    except ResourceCapError as e:
        print(json.dumps({"error": "resource-cap", "message": str(e)}), file=sys.stderr)
        return EXIT_CAP
    except (ScenarioParseError, json.JSONDecodeError, KeyError) as e:
        print(json.dumps({"error": "parse", "message": str(e)}), file=sys.stderr)
        return EXIT_PARSE
    except (ScenarioCheckError, ValueError, AssertionError) as e:
        print(json.dumps({"error": "check", "message": str(e)}), file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
