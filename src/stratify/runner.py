"""Declarative scenario pipelines.

A scenario file is a JSON document with a list of named steps; each step
invokes one registered operation with literal inputs and references to
earlier steps ("$id").  Declared geometric facts must carry citations, and
any step may pin an expected output; mismatches fail the run with a diff.
The emitted report is deterministic, so identical invocations are
byte-identical.

At load this module imports only `_pure`.  `run_scenario` imports the
argument reader (`stepargs`) once the document has validated, `serialize`
once a step has a value to report and `series` just before its output
duality check, and each op imports the layers it calls when it runs, so a
scenario loads only the layers its steps use, and a scenario that fails
validation loads no other module.
"""

from __future__ import annotations

import json
import os

from ._pure import (
    BACKEND,
    BUILTIN_SCENARIOS,
    ResourceCapError,
    ScenarioCheckError,
    ScenarioParseError,
    check_order,
    no_float,
    read_input,
)


class Context:
    """A running scenario: its truncation order and the values of the steps
    run so far, by id."""

    def __init__(self, order: int):
        self.order = order
        self.values = {}

    def resolve(self, obj):
        if isinstance(obj, str) and obj.startswith("$"):
            key = obj[1:]
            if key not in self.values:
                raise ScenarioParseError(f"reference to unknown step {key!r}")
            return self.values[key]
        if isinstance(obj, list):
            return [self.resolve(x) for x in obj]
        if isinstance(obj, dict):
            return {k: self.resolve(v) for k, v in obj.items()}
        return obj



# ---------------------------------------------------------------------------
# operation registry
# ---------------------------------------------------------------------------

OPS = {}
# the step arguments each op reads; any other argument is a parse error
OP_ARGS = {}


def op(name, *argnames):
    """Register an op under ``name``, reading the step arguments ``argnames``."""

    def deco(fn):
        OPS[name] = fn
        OP_ARGS[name] = frozenset(argnames)
        return fn

    return deco


@op("declare", "kind", "value", "order")
def _op_declare(ctx, args, step):
    if not any(f.get("cite") for f in step.get("facts", [])):
        raise ScenarioParseError(
            f"declared value in step {step['id']!r} carries no citation"
        )
    kind = args.choice("kind", ("series", "betti_table", "int", "raw"), "series")
    if kind == "series":
        return args.series("value", args.order(ctx.order))
    if kind == "betti_table":
        return args.table("value")
    if kind == "int":
        return args.integer("value")
    return args["value"]


@op("hypersurface_weights", "n", "d")
def _op_hw(ctx, args, step):
    n, d = args.integer("n", minimum=1), args.integer("d", minimum=1)
    from . import weights

    return weights.hypersurface_weights(n, d)


@op("instability_index_set", "weights", "budget", "weyl")
def _op_iis(ctx, args, step):
    from . import strata

    ws = args.instance("weights", "WeightSystem")
    budget = args.integer("budget", strata.DEFAULT_BUDGET)
    return strata.instability_index_set(ws, args.choice("weyl", ("sym", "trivial"), "sym"),
                                        budget)


@op("min_nonzero_codim", "strata")
def _op_min_codim(ctx, args, step):
    vals = [s.codim_expected for s in args.strata("strata") if not s.is_zero()]
    if not vals:
        raise ScenarioCheckError("no nonzero strata")
    return min(vals)


@op("codim_census", "strata", "up_to")
def _op_codim_census(ctx, args, step):
    census: dict = {}
    bound = args.integer("up_to", None)
    for s in args.strata("strata"):
        if s.is_zero():
            continue
        if bound is not None and s.codim_expected > bound:
            continue
        census[s.codim_expected] = census.get(s.codim_expected, 0) + 1
    return [[c, census[c]] for c in sorted(census)]


@op("mark_nonempty", "strata", "codims")
def _op_mark_nonempty(ctx, args, step):
    """Fill the nonemptiness flag of selected strata from declared input."""
    if not any(f.get("cite") for f in step.get("facts", [])):
        raise ScenarioParseError(
            f"nonemptiness declaration in step {step['id']!r} carries no citation"
        )
    codims = {items.integer(name) for items, name in args.each("codims", [])}
    out = []
    for s in args.strata("strata"):
        if not s.is_zero() and s.codim_expected in codims:
            out.append(s.replace(nonemptiness="declared"))
        else:
            out.append(s)
    return out


@op("maximal_support_report", "weights", "strata")
def _op_msr(ctx, args, step):
    from . import strata

    found = args.strata("strata")
    report = strata.maximal_support_report(args.instance("weights", "WeightSystem"), found)
    return [[r.r, r.codim_expected] for r in report]


@op("verify_strata_oracle", "weights", "strata", "max_support")
def _op_vso(ctx, args, step):
    from . import strata

    found = args.strata("strata")
    rows = args["weights"]
    if isinstance(rows, list):
        weights = args.matrix("weights")
        if any(len(w) != len(weights[0]) for w in weights):
            args.reject("weights", "a list of equally long vectors", rows)
    else:
        weights = args.weights("weights", "WeightSystem", "NormalRep",
                               "TangentNormalSplit").weights
    return strata.verify_strata_against_oracle(
        weights, found, args.integer("max_support", None)
    )


@op("parse_poly", "text", "nvars")
def _op_parse_poly(ctx, args, step):
    return args.polynomial("text", args.integer("nvars", minimum=1))


@op("check_semiinvariant", "form", "matrix")
def _op_check_semi(ctx, args, step):
    from . import orbits, serialize

    matrix = args.matrix("matrix")
    form = args.instance("form", "MultiPoly")
    n = form.nvars
    if len(matrix) != n or any(len(row) != n for row in matrix):
        args.reject("matrix", f"a {n} x {n} matrix, one row per variable", args["matrix"])
    rep = orbits.check_semiinvariant(form, matrix)
    return {"ok": rep.ok, "scalar": serialize.to_jsonable(rep.scalar) if rep.scalar is not None else None}


@op("normal_rep_of", "form", "cocharacters", "extra_tangents")
def _op_normal_rep(ctx, args, step):
    from . import orbits

    form = args.instance("form", "MultiPoly")
    n = form.nvars
    cochars = args.matrix("cocharacters")
    if not cochars or any(len(c) != n for c in cochars):
        args.reject("cocharacters", f"a nonempty list of vectors of length {n}",
                    args["cocharacters"])
    extra = [items.polynomial(name, n) for items, name in args.each("extra_tangents", [])]
    return orbits.normal_rep_of(form, cochars, extra)


@op("split_summary", "split")
def _op_split_summary(ctx, args, step):
    sp = args.instance("split", "TangentNormalSplit")
    return {"span_dim": sp.span_dim, "relation_count": sp.relation_count,
            "normal_dim": sp.normal.dim}


@op("normal_rep_strata", "rep", "group")
def _op_nrs(ctx, args, step):
    from . import strata

    rep = args.weights("rep", "NormalRep", "TangentNormalSplit")
    return strata.normal_rep_strata(rep, args.choice("group", ("torus", "pgl2")))


@op("weyl_fiber_count", "strata", "beta", "stabilizer_weyl")
def _op_wfc(ctx, args, step):
    from . import strata

    index_set = [s.beta for s in args.strata("strata")]
    beta = tuple(args.rational("beta", c) for c in args.listing("beta"))
    wr = None
    if args.choice("stabilizer_weyl", ("sign",), None) == "sign":
        wr = [lambda v: v, lambda v: tuple(-c for c in v)]
    return strata.weyl_fiber_count(beta, index_set, wr)


@op("classifying_series", "group", "n", "order")
def _op_classifying(ctx, args, step):
    from .series import TruncatedSeries, gf_expand

    order = args.order(ctx.order)
    group = args.choice("group", ("SL", "PGL", "GL", "torus", "mu"))
    n = args.integer("n", 0)
    # a factor of period 2i above the order is 1 in the truncation
    top = min(n, order // 2)
    if group in ("SL", "PGL"):
        return gf_expand([(2 * i, 1) for i in range(2, top + 1)], order)
    if group == "GL":
        return gf_expand([(2 * i, 1) for i in range(1, top + 1)], order)
    if group == "torus":
        return gf_expand([(2, n)], order)
    return TruncatedSeries.one(order)


@op("gf_expand", "factors", "order")
def _op_gf(ctx, args, step):
    from .series import gf_expand

    factors = []
    for items, name in args.each("factors"):
        f = items[name]
        if not (isinstance(f, list) and len(f) == 2 and all(type(x) is int for x in f)):
            items.reject(name, "an integer pair [period, multiplicity]", f)
        factors.append(tuple(f))
    return gf_expand(factors, args.order(ctx.order))


@op("projective_series", "dim", "order")
def _op_proj(ctx, args, step):
    from .series import projective_space_series

    return projective_space_series(args.integer("dim"), args.order(ctx.order))


@op("projective_table", "dim")
def _op_proj_table(ctx, args, step):
    from .series import BettiTable

    return BettiTable.of_projective_space(args.integer("dim"))


@op("series_product", "factors", "order")
def _op_series_product(ctx, args, step):
    from .series import TruncatedSeries

    order = args.order(ctx.order)
    total = TruncatedSeries.one(order)
    for items, name in args.each("factors"):
        total = total * items.series(name, order)
    return total


@op("lincomb", "terms", "order")
def _op_lincomb(ctx, args, step):
    from .series import lincomb

    order = args.order(ctx.order)
    terms = []
    for items, name in args.each("terms"):
        term = items[name]
        if not (isinstance(term, list) and len(term) == 3 and type(term[1]) is int):
            items.reject(name, "a list [coefficient, integer shift, series]", term)
        coeff, shift, ref = term
        if shift < 0:
            items.reject(name, "a list [coefficient, integer shift >= 0, series]", term)
        terms.append((items.rational(name, coeff), shift, items.series(name, order, ref)))
    return lincomb(terms)


@op("close_group", "generators", "ring", "cap")
def _op_close_group(ctx, args, step):
    from . import invariants

    return invariants.close_group(args.generators(),
                                  args.integer("cap", invariants.DEFAULT_CAP))


@op("group_order", "group")
def _op_group_order(ctx, args, step):
    return args.group("group").order


@op("molien", "group", "degree", "order")
def _op_molien(ctx, args, step):
    from . import invariants

    return invariants.molien(args.group("group"), args.integer("degree"),
                             args.order(ctx.order))


@op("semistable_series", "ambient_dim", "bsl_exponents", "strata", "order")
def _op_semistable(ctx, args, step):
    from . import assembly

    exponents = [items.integer(name, minimum=1) for items, name in args.each("bsl_exponents")]
    return assembly.semistable_series(
        args.integer("ambient_dim"),
        exponents,
        args.contributions("strata", ctx.order),
        args.order(ctx.order),
    )


@op("main_term", "center_series", "normal_rank", "order")
def _op_main_term(ctx, args, step):
    from . import assembly
    from .stepargs import _instance

    rank = args["normal_rank"]
    if _instance(rank, "orbits", "TangentNormalSplit"):
        rank = rank.normal.dim
    elif _instance(rank, "orbits", "NormalRep"):
        rank = rank.dim
    else:
        rank = args.integer("normal_rank")
    return assembly.main_term(
        args.series("center_series", args.order(ctx.order)),
        rank,
        args.order(ctx.order),
    )


@op("extra_term", "items", "order")
def _op_extra_term(ctx, args, step):
    from . import assembly

    return assembly.extra_term(
        args.contributions("items", ctx.order), args.order(ctx.order)
    )


@op("b_shift", "table", "order")
def _op_b_shift(ctx, args, step):
    from . import assembly

    return assembly.b_shift(args.instance("table", "BettiTable"), args.order(ctx.order))


@op("blowup_correction", "exceptional", "dim", "order")
def _op_blowup(ctx, args, step):
    from . import assembly

    return assembly.blowup_correction(
        args.instance("exceptional", "BettiTable"), args.integer("dim"),
        args.order(ctx.order)
    )


@op("duality_complete", "series", "dim", "order")
def _op_duality_complete(ctx, args, step):
    from .series import duality_complete

    return duality_complete(
        args.series("series", args.order(ctx.order)), args.integer("dim")
    )


@op("duality_check", "table")
def _op_duality_check(ctx, args, step):
    from .series import duality_check

    return duality_check(args.instance("table", "BettiTable"))


@op("betti_product", "tables")
def _op_betti_product(ctx, args, step):
    tables = [items.instance(name, "BettiTable") for items, name in args.each("tables")]
    if not tables:
        args.reject("tables", "a nonempty list", tables)
    total = tables[0]
    for t in tables[1:]:
        total = total.kunneth(t)
    return total


@op("named_lattice", "name")
def _op_named_lattice(ctx, args, step):
    from . import eisenstein

    return eisenstein.named_lattice(args.lattice_name("name"))


@op("z_form", "lattice")
def _op_z_form(ctx, args, step):
    from . import weyl

    return weyl.z_form(args.instance("lattice", "EisLattice"))


@op("root_count", "lattice")
def _op_root_count(ctx, args, step):
    from . import weyl

    return len(weyl.enumerate_roots(args.z_lattice("lattice")))


@op("weyl_group", "lattice")
def _op_weyl_group(ctx, args, step):
    from . import weyl

    if isinstance(args["lattice"], str):
        from .eisenstein import named_lattice

        return weyl.weyl_group(named_lattice(args.lattice_name("lattice")))
    return weyl.weyl_group(args.instance("lattice", "EisLattice"))


@op("abelian_quotient_betti", "group", "rank", "form")
def _op_aqb(ctx, args, step):
    from . import invariants

    rank = args.integer("rank")
    invariants.check_quotient_rank(rank)
    form = None if args.get("form") is None else args.eis_matrix("form", rank)
    return invariants.abelian_quotient_betti(args.group("group", "E"), rank, form=form)


@op("wreath_symmetrize", "value", "n", "order")
def _op_wreath(ctx, args, step):
    from . import invariants
    from .series import BettiTable, TruncatedSeries

    value = args["value"]
    if not isinstance(value, (BettiTable, TruncatedSeries)):
        value = args.series("value", args.order(ctx.order))
    return invariants.wreath_symmetrize(value, args.integer("n", minimum=1))


@op("boundary_betti", "spec")
def _op_boundary(ctx, args, step):
    from . import eisenstein

    return eisenstein.boundary_betti(args.boundary_spec("spec"))


@op("discriminant_form", "lattice")
def _op_disc(ctx, args, step):
    from . import discriminant

    return discriminant.discriminant_form(args.z_lattice("lattice"))


@op("glue_overlattice", "lattice", "glue")
def _op_glue(ctx, args, step):
    from . import discriminant

    base = args.instance("lattice", "ZLattice")
    glue = args.matrix("glue")
    for items, name in args.each("glue"):
        if len(items[name]) != base.rank:
            items.reject(name, f"a vector of length {base.rank}, the lattice rank", items[name])
    res = discriminant.glue_overlattice(base, glue)
    return {"index": res.index, "even": res.lattice.is_even(),
            "invariant_factors": list(res.disc.invariant_factors)}


@op("glue_diagonal_norm12", "lattice", "copies")
def _op_glue_diag(ctx, args, step):
    """Glue n copies of a lattice along 1/3 of the diagonal norm-(-12) div-3 class."""
    from . import discriminant

    res = discriminant.glue_diagonal(args.instance("lattice", "ZLattice"),
                                     args.integer("copies", 3, minimum=1))
    return {"index": res.index, "even": res.lattice.is_even(),
            "invariant_factors": list(res.disc.invariant_factors)}


@op("verify_cusp_vector")
def _op_cusp_vector(ctx, args, step):
    from . import discriminant

    rep = discriminant.verify_unimodular_complement_vector()
    return {"ok": rep.ok, "norm": rep.norm, "div_ideal_norm": rep.div_norm}


@op("assert_nonpositive", "series", "order")
def _op_assert_nonpos(ctx, args, step):
    s = args.series("series", args.order(ctx.order))
    if any(c > 0 for c in s.coeffs):
        raise ScenarioCheckError(f"series has a positive coefficient: {s}")
    return True


@op("assert_true", "value")
def _op_assert_true(ctx, args, step):
    val = args["value"]
    ok = val.get("ok") if isinstance(val, dict) else val
    if type(ok) is not bool:
        args.reject("value", "a boolean or an object whose 'ok' is a boolean", val)
    if not ok:
        raise ScenarioCheckError(f"assertion failed at step {step['id']!r}")
    return True


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


class ScenarioReport:
    """What `run_scenario` returns: the step values, the checked output
    tables and the provenance ledger, with their json, latex, csv and text
    forms."""

    def __init__(self, name: str, description: str, steps: list, tables: dict,
                 provenance: list, notes: list):
        self.name = name
        self.description = description
        self.steps = steps
        self.tables = tables
        self.provenance = provenance
        self.notes = notes

    def to_jsonable(self) -> dict:
        from . import serialize

        return {
            "scenario": self.name,
            "description": self.description,
            "backend": BACKEND,
            "steps": self.steps,
            "tables": {k: serialize.to_jsonable(v) for k, v in sorted(self.tables.items())},
            "provenance": self.provenance,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, indent=2) + "\n"

    def to_latex(self) -> str:
        lines = [r"% scenario: " + self.name]
        for label, table in sorted(self.tables.items()):
            n = table.complex_dim
            degrees = [str(2 * j) for j in range(n + 1)]
            lines.append(r"\begin{array}{l|" + "c" * (n + 1) + "}")
            lines.append("j & " + " & ".join(degrees) + r" \\ \hline")
            lines.append(
                label.replace("_", r"\_")
                + " & "
                + " & ".join(str(b) for b in table.even())
                + r" \\"
            )
            lines.append(r"\end{array}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["table,degree,betti"]
        for label, table in sorted(self.tables.items()):
            for j, b in enumerate(table.betti):
                lines.append(f"{label},{j},{b}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"scenario {self.name}: all checks passed [{BACKEND} backend]"]
        width = max((len(k) for k in self.tables), default=0)
        for label, table in sorted(self.tables.items()):
            lines.append(f"  {label.ljust(width)}  even Betti {table.even()}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"


def builtin_scenario_path(name: str) -> str:
    """The file of built-in scenario ``name``, in the package's `scenarios`."""
    return os.path.join(os.path.dirname(__file__), "scenarios", f"{name}.json")


def load_scenario(source) -> dict:
    if isinstance(source, dict):
        return source
    name = str(source)
    if name in BUILTIN_SCENARIOS:
        text = read_input(builtin_scenario_path(name))
    elif os.path.exists(name):
        text = read_input(name)
    else:
        raise ScenarioParseError(
            f"no such scenario {name!r}; built-ins: {', '.join(BUILTIN_SCENARIOS)}"
        )
    try:
        return json.loads(text, parse_float=no_float, parse_constant=no_float)
    except ScenarioParseError:
        raise
    except ValueError as e:  # malformed, or an integer beyond the digit limit
        raise ScenarioParseError(f"scenario is not valid JSON: {e}") from e


def _validate(doc):
    if not isinstance(doc, dict) or "name" not in doc or "steps" not in doc:
        raise ScenarioParseError("scenario needs 'name' and 'steps'")
    if not (isinstance(doc["name"], str) and isinstance(doc.get("description", ""), str)):
        raise ScenarioParseError("scenario 'name' and 'description' must be strings")
    notes = doc.get("notes", [])
    if not (isinstance(notes, list) and all(isinstance(note, str) for note in notes)):
        raise ScenarioParseError("scenario 'notes' must be a list of strings")
    if not (isinstance(doc["steps"], list) and all(isinstance(s, dict) for s in doc["steps"])):
        raise ScenarioParseError("scenario 'steps' must be a list of objects")
    if not isinstance(doc.get("outputs", {}), dict):
        raise ScenarioParseError("scenario 'outputs' must be an object")
    if type(doc.get("order", 10)) is not int:
        raise ScenarioParseError("scenario 'order' must be an integer")
    check_order(doc.get("order", 10), "scenario 'order'")
    seen = set()
    for pos, step in enumerate(doc["steps"]):
        if "id" not in step or "op" not in step:
            raise ScenarioParseError("each step needs 'id' and 'op'")
        if isinstance(step["id"], (list, dict)):
            raise ScenarioParseError(f"steps[{pos}]: 'id' must not be a list or an object")
        if step["id"] in seen:
            raise ScenarioParseError(f"duplicate step id {step['id']!r}")
        if not isinstance(step["op"], str):
            raise ScenarioParseError(f"step {step['id']!r}: 'op' must be a string")
        if step["op"] not in OPS:
            raise ScenarioParseError(f"unknown op {step['op']!r}")
        if not isinstance(step.get("args", {}), dict):
            raise ScenarioParseError(f"arguments of step {step['id']!r} must be an object")
        unknown = sorted(set(step.get("args", {})) - OP_ARGS[step["op"]])
        if unknown:
            raise ScenarioParseError(
                f"step {step['id']!r}: op {step['op']!r} has no argument {unknown[0]!r}"
            )
        facts = step.get("facts", [])
        if not (isinstance(facts, list) and all(isinstance(f, dict) for f in facts)):
            raise ScenarioParseError(f"step {step['id']!r}: 'facts' must be a list of objects")
        for fact in facts:
            if not fact.get("cite"):
                raise ScenarioParseError(
                    f"fact without citation in step {step['id']!r}"
                )
        seen.add(step["id"])


def run_scenario(source) -> ScenarioReport:
    doc = load_scenario(source)
    _validate(doc)
    from .stepargs import StepArgs, _instance

    ctx = Context(order=doc.get("order", 10))
    step_reports = []
    provenance = []
    for step in doc["steps"]:
        args = StepArgs(f"step {step['id']!r}", ctx.resolve(step.get("args", {})))
        try:
            value = OPS[step["op"]](ctx, args, step)
        except (ScenarioParseError, ScenarioCheckError, ResourceCapError):
            raise
        except (ValueError, AssertionError, KeyError) as e:
            raise ScenarioCheckError(f"step {step['id']!r} failed: {e}") from e
        ctx.values[step["id"]] = value
        from . import serialize

        try:
            got = serialize.to_jsonable(value)
        except TypeError as e:  # a non-JSON value in a dict document
            raise ScenarioParseError(f"step {step['id']!r}: value is not JSON: {e}") from e
        rep = {"id": step["id"], "op": step["op"]}
        jexpect = step.get("expect")
        if jexpect is not None:
            if got != jexpect:
                raise ScenarioCheckError(
                    f"step {step['id']!r} mismatch:\n  expected {jexpect}\n  got      {got}"
                )
            rep["checked"] = True
        rep["value"] = got
        step_reports.append(rep)
        for fact in step.get("facts", []):
            provenance.append({"step": step["id"], **fact})
    tables = {}
    for label, ref in doc.get("outputs", {}).items():
        value = ctx.resolve(ref)
        if not _instance(value, "series", "BettiTable"):
            raise ScenarioCheckError(f"output {label!r} is not a Betti table")
        from .series import duality_check

        rep = duality_check(value)
        if not rep.ok:
            raise ScenarioCheckError(f"output {label!r} fails duality: {rep.message}")
        tables[label] = value
    return ScenarioReport(
        name=doc["name"],
        description=doc.get("description", ""),
        steps=step_reports,
        tables=tables,
        provenance=provenance,
        notes=doc.get("notes", []),
    )
