"""Command-line front end.

Subcommands: `scenario run`, `strata`, `molien`, `lattice`, `boundary`,
`blowup`.  Output formats: text, json, csv, latex.  Exit codes: 0 success,
2 check failure, 3 parse error, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import eisenstein, invariants, serialize, strata, weights
from ._backend import BACKEND, ResourceCapError
from .runner import (
    BUILTIN_SCENARIOS,
    ScenarioCheckError,
    ScenarioParseError,
    StepArgs,
    boundary_spec,
    check_order,
    run_scenario,
)
from .series import BettiTable

EXIT_OK = 0
EXIT_CHECK = 2
EXIT_PARSE = 3
EXIT_CAP = 4


def _emit(payload, fmt: str, text_fn=None, csv_fn=None, latex_fn=None):
    if fmt == "json":
        print(json.dumps(serialize.to_jsonable(payload), sort_keys=True, indent=2))
    elif fmt == "csv" and csv_fn:
        print(csv_fn(payload), end="")
    elif fmt == "latex" and latex_fn:
        print(latex_fn(payload), end="")
    elif text_fn:
        print(text_fn(payload), end="")
    else:
        print(json.dumps(serialize.to_jsonable(payload), sort_keys=True, indent=2))


def _load_json_arg(value: str):
    """Parse an argument that is either inline JSON or a path to a JSON file."""
    if os.path.exists(value):
        with open(value) as fh:
            return json.load(fh)
    try:
        return json.loads(value)
    except json.JSONDecodeError as e:
        raise ScenarioParseError(f"argument is neither a file nor JSON: {e}") from e


def _cmd_scenario(args) -> int:
    if args.action != "run":
        raise ScenarioParseError("only 'scenario run' is supported")
    report = run_scenario(args.source, cache_dir=args.cache_dir)
    if args.format == "json":
        sys.stdout.write(report.to_json())
    elif args.format == "latex":
        sys.stdout.write(report.to_latex())
    elif args.format == "csv":
        lines = ["table,degree,betti"]
        for label, table in sorted(report.tables.items()):
            for j, b in enumerate(table.betti):
                lines.append(f"{label},{j},{b}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(report.to_text())
    return EXIT_OK


def _cmd_strata(args) -> int:
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
    gens = spec["generators"] if isinstance(spec, dict) else spec
    if isinstance(spec, dict) and spec.get("ring") == "E":
        gens = [[[tuple(e) for e in row] for row in m] for m in gens]
    group = invariants.close_group(gens, cache_dir=args.cache_dir)
    series = invariants.molien(group, args.degree, args.truncate or 10)

    def text(s):
        return f"group order {group.order}; invariant series {s}\n"

    _emit(series, args.format, text)
    return EXIT_OK


def _resolve_lattice(name: str) -> eisenstein.EisLattice:
    if name in eisenstein.NAMED_LATTICES:
        return eisenstein.named_lattice(name)
    doc = _load_json_arg(name)
    return eisenstein.eis_lattice(doc["gram"])


def _cmd_lattice(args) -> int:
    lat = _resolve_lattice(args.lattice)
    if args.action == "roots":
        roots = eisenstein.enumerate_roots(eisenstein.z_form(lat))
        _emit({"count": len(roots)}, args.format,
              lambda p: f"{p['count']} roots\n")
    elif args.action == "weyl-order":
        grp = eisenstein.weyl_group(lat, cache_dir=args.cache_dir)
        _emit({"order": grp.order}, args.format, lambda p: f"{p['order']}\n")
    elif args.action == "discriminant":
        disc = eisenstein.discriminant_form(eisenstein.z_form(lat))
        _emit(disc, args.format,
              lambda d: f"invariant factors {list(d.invariant_factors)}, "
              f"q = {[str(q) for q in d.q_values]} mod 2Z\n")
    elif args.action == "z-form":
        zl = eisenstein.z_form(lat)

        def csv(z):
            return "\n".join(",".join(str(x) for x in row) for row in z.gram) + "\n"

        _emit(zl, args.format,
              lambda z: "\n".join(str(list(r)) for r in z.gram) + "\n", csv)
    else:
        raise ScenarioParseError(f"unknown lattice action {args.action!r}")
    return EXIT_OK


def _cmd_boundary(args) -> int:
    spec = boundary_spec(StepArgs("boundary", {"spec": _load_json_arg(args.spec)}))
    table = eisenstein.boundary_betti(spec)

    def text(t):
        return f"even Betti {t.even()}, odd {t.odd()}\n"

    _emit(table, args.format, text)
    return EXIT_OK


def _cmd_blowup(args) -> int:
    doc = _load_json_arg(args.exceptional)
    table = serialize.table_from_jsonable(doc)
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
    common.add_argument("--cache-dir", default=argparse.SUPPRESS,
                        help="group-closure cache directory (default: env STRATIFY_CACHE)")
    p = argparse.ArgumentParser(
        prog="stratify",
        description="exact cohomology workbench for GIT quotients and ball-quotient boundaries",
    )
    p.add_argument("--format", choices=["text", "json", "csv", "latex"], default="text")
    p.add_argument("--truncate", type=int, default=None, metavar="K",
                   help="truncation degree (series) or codimension bound (strata)")
    p.add_argument("--cache-dir", default=os.environ.get("STRATIFY_CACHE"),
                   help="group-closure cache directory (default: env STRATIFY_CACHE)")
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
            check_order(args.truncate)
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
