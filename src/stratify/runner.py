"""Declarative scenario pipelines.

A scenario file is a JSON document with a list of named steps; each step
invokes one registered operation with literal inputs and references to
earlier steps ("$id").  Declared geometric facts must carry citations, and
any step may pin an expected output; mismatches fail the run with a diff.
The emitted report is deterministic, so identical invocations are
byte-identical.

Each op declares its arguments once (`op`, `DECLARATIONS`).  Before the
first step runs, `_validate` checks every reference against the steps
before it and every output as a plain "$id" reference, and reads every
literal argument against its declaration; the run uses the values it read,
so each literal is read once.  An argument that holds or uses a reference,
and what needs an earlier step's value (a lattice's rank, a value's class),
is read and checked when its step runs; only such an argument has its
references resolved, and a literal one reaches its step as given.  A
`budget` or `cap` left out or null reaches its layer as None, the layer's
own default.  Scenario files are read by `_pure.load_json` and reports
written by `serialize.dumps`, as the command line's JSON is.

At load this module imports only `_pure`.  `_validate` imports the argument
reader (`stepargs`) once the document's shape, op names and references
hold; the readers, `run_scenario` and each op import the layers they use
when they use them.  So a scenario loads only the layers its steps use, and
one that fails before its arguments are read loads no other module.
"""

from __future__ import annotations

import importlib
import os

from ._pure import (
    BACKEND,
    BUILTIN_SCENARIOS,
    Record,
    ResourceCapError,
    ScenarioCheckError,
    ScenarioParseError,
    check_order,
    load_json,
    read_input,
)


def _resolve(obj, values: dict):
    """``obj`` with each "$id" replaced by ``values[id]``, the value of step
    id, which `_validate` has checked is an earlier step."""
    if isinstance(obj, str) and obj.startswith("$"):
        return values[obj[1:]]
    if isinstance(obj, list):
        return [_resolve(x, values) for x in obj]
    if isinstance(obj, dict):
        return {k: _resolve(v, values) for k, v in obj.items()}
    return obj


def _references(obj) -> list:
    """The step ids that the "$id" strings in ``obj`` name, nested ones included."""
    if isinstance(obj, str):
        return [obj[1:]] if obj.startswith("$") else []
    if isinstance(obj, dict):
        obj = list(obj.values())
    return [key for x in obj for key in _references(x)] if isinstance(obj, list) else []


# ---------------------------------------------------------------------------
# operation registry
# ---------------------------------------------------------------------------

# op name -> its entry, called with the argument values `_validate` read for
# the step, the step's `StepArgs` (an argument that holds or uses a
# reference resolved, a literal one as given) and the step
OPS = {}
# op name -> {argument: declaration (see `_arg`)}, in the order the op reads
# them: the one description of the scenario language.  Any other argument
# is a parse error.
DECLARATIONS = {}
# op name -> what a step of it declares, for the ops that need a cited fact
CITED = {}
# what a declaration's ``uses`` names for the scenario's truncation order
SCENARIO_ORDER = "scenario order"
# the value of an argument that holds or uses a reference, before the run
_PENDING = object()


def _arg(reader, *params, uses=(), **kw):
    """The declaration of an argument ``name``, read as
    ``StepArgs.<reader>(name, *params, *used, **kw)``, where ``used`` are the
    values of the arguments that ``uses`` names (or the scenario's order)."""
    return reader, params, uses, kw


NONNEGATIVE = _arg("integer", minimum=0)
POSITIVE = _arg("integer", minimum=1)
ORDER = _arg("order", uses=(SCENARIO_ORDER,))
SERIES = _arg("series", uses=("order",))
STRATA = _arg("items", "instance", "BetaStratum")
TABLE = _arg("instance", "BettiTable")


def _read(args, decls, known: dict) -> dict:
    """The values of the arguments that ``decls`` declares, in declaration
    order: those in ``known`` (which holds the scenario's order) as given,
    the others read from the `StepArgs` ``args``, each after those it uses.
    One that uses a `_PENDING` value is `_PENDING` and not read."""
    values = dict(known)

    def read(name):
        if name not in values:
            reader, params, uses, kw = decls[name]
            used = [read(u) for u in uses]
            values[name] = (_PENDING if any(u is _PENDING for u in used)
                            else getattr(args, reader)(name, *params, *used, **kw))
        return values[name]

    return {name: read(name) for name in decls}


def op(name, target=None, /, *, cite=None, **decls):
    """Register op ``name`` with its arguments declared as ``decls``.

    With ``target``, "layer.function", the op is that call on the argument
    values in declaration order; without it, `op` decorates the op's body,
    called with the step's `StepArgs` and the values by name.  With
    ``cite``, what a step of the op declares, a step needs a cited fact."""

    def register(body):
        def run(known, args, step):
            values = _read(args, decls, {k: v for k, v in known.items() if v is not _PENDING})
            if body is not None:
                return body(args, **values)
            layer, *path = target.split(".")
            fn = importlib.import_module(f".{layer}", __package__)
            for attr in path:
                fn = getattr(fn, attr)
            return fn(*values.values())

        OPS[name], DECLARATIONS[name] = run, decls
        if cite:
            CITED[name] = cite
        return body

    return register if target is None else register(None)


@op("declare", cite="declared value",
    kind=_arg("choice", ("series", "betti_table", "int", "raw"), "series"), order=ORDER,
    value=_arg("declared", uses=("kind", "order")))
def _op_declare(args, kind, order, value):
    return value


op("hypersurface_weights", "weights.hypersurface_weights", n=POSITIVE, d=POSITIVE)


op("instability_index_set", "strata.instability_index_set",
   weights=_arg("instance", "WeightSystem"), weyl=_arg("choice", ("sym", "trivial"), "sym"),
   budget=_arg("integer", None))


@op("min_nonzero_codim", strata=STRATA)
def _op_min_codim(args, strata):
    vals = [s.codim_expected for s in strata if not s.is_zero()]
    if not vals:
        raise ScenarioCheckError("no nonzero strata")
    return min(vals)


@op("codim_census", up_to=_arg("integer", None), strata=STRATA)
def _op_codim_census(args, up_to, strata):
    census: dict = {}
    for s in strata:
        if not s.is_zero() and (up_to is None or s.codim_expected <= up_to):
            census[s.codim_expected] = census.get(s.codim_expected, 0) + 1
    return [[c, census[c]] for c in sorted(census)]


@op("mark_nonempty", cite="nonemptiness declaration",
    codims=_arg("items", "integer", default=[]), strata=STRATA)
def _op_mark_nonempty(args, codims, strata):
    """Fill the nonemptiness flag of selected strata from declared input."""
    return [s.replace(nonemptiness="declared")
            if not s.is_zero() and s.codim_expected in codims else s for s in strata]


@op("maximal_support_report", strata=STRATA, weights=_arg("instance", "WeightSystem"))
def _op_msr(args, strata, weights):
    from .strata import maximal_support_report

    return [[r.r, r.codim_expected] for r in maximal_support_report(weights, strata)]


op("verify_strata_oracle", "strata.verify_strata_against_oracle", weights=_arg("weight_rows"),
   strata=STRATA, max_support=_arg("integer", None))


@op("parse_poly", nvars=POSITIVE, text=_arg("polynomial", uses=("nvars",)))
def _op_parse_poly(args, nvars, text):
    return text


@op("check_semiinvariant", matrix=_arg("matrix"), form=_arg("instance", "MultiPoly"))
def _op_check_semi(args, matrix, form):
    from . import orbits, serialize

    n = form.nvars
    if len(matrix) != n or any(len(row) != n for row in matrix):
        args.reject("matrix", f"a {n} x {n} matrix, one row per variable", args["matrix"])
    rep = orbits.check_semiinvariant(form, matrix)
    return {"ok": rep.ok, "scalar": serialize.to_jsonable(rep.scalar) if rep.scalar is not None else None}


@op("normal_rep_of", form=_arg("instance", "MultiPoly"), cocharacters=_arg("matrix"),
    extra_tangents=_arg("items", "polynomial", uses=("form",), default=[]))
def _op_normal_rep(args, form, cocharacters, extra_tangents):
    from . import orbits

    n = form.nvars
    if not cocharacters or any(len(c) != n for c in cocharacters):
        args.reject("cocharacters", f"a nonempty list of vectors of length {n}",
                    args["cocharacters"])
    return orbits.normal_rep_of(form, cocharacters, extra_tangents)


@op("split_summary", split=_arg("instance", "TangentNormalSplit"))
def _op_split_summary(args, split):
    return {"span_dim": split.span_dim, "relation_count": split.relation_count,
            "normal_dim": split.normal.dim}


op("normal_rep_strata", "strata.normal_rep_strata",
   rep=_arg("weights", "NormalRep", "TangentNormalSplit"),
   group=_arg("choice", ("torus", "pgl2")))


@op("weyl_fiber_count", strata=STRATA, beta=_arg("vector"),
    stabilizer_weyl=_arg("choice", ("sign",), None))
def _op_wfc(args, strata, beta, stabilizer_weyl):
    from .strata import weyl_fiber_count

    return weyl_fiber_count(beta, [s.beta for s in strata], sign=stabilizer_weyl == "sign")


@op("classifying_series", order=ORDER,
    group=_arg("choice", ("SL", "PGL", "GL", "torus", "mu")), n=_arg("integer", 0, minimum=0))
def _op_classifying(args, order, group, n):
    from .series import TruncatedSeries, gf_expand

    # a factor of period 2i above the order is 1 in the truncation
    top = min(n, order // 2)
    if group in ("SL", "PGL"):
        return gf_expand([(2 * i, 1) for i in range(2, top + 1)], order)
    if group == "GL":
        return gf_expand([(2 * i, 1) for i in range(1, top + 1)], order)
    if group == "torus" and n:
        return gf_expand([(2, n)], order)
    # a finite group, or the torus of rank 0: the classifying space of a point
    return TruncatedSeries.one(order)


op("gf_expand", "series.gf_expand", factors=_arg("items", "factor"), order=ORDER)
op("projective_series", "series.projective_space_series", dim=NONNEGATIVE, order=ORDER)
op("projective_table", "series.BettiTable.of_projective_space", dim=NONNEGATIVE)


@op("series_product", order=ORDER, factors=_arg("items", "series", uses=("order",)))
def _op_series_product(args, order, factors):
    from .series import TruncatedSeries

    total = TruncatedSeries.one(order)
    for factor in factors:
        total = total * factor
    return total


@op("lincomb", order=ORDER, terms=_arg("items", "term", uses=("order",)))
def _op_lincomb(args, order, terms):
    from .series import lincomb

    return lincomb(terms)


@op("close_group", ring=_arg("choice", ("Q", "E"), "Q"),
    generators=_arg("generators", uses=("ring",)), cap=_arg("integer", None))
def _op_close_group(args, ring, generators, cap):
    from . import invariants

    return invariants.close_group(generators, cap)


@op("group_order", group=_arg("group"))
def _op_group_order(args, group):
    return group.order


op("molien", "invariants.molien", group=_arg("group"), degree=_arg("degree"), order=ORDER)
op("semistable_series", "assembly.semistable_series", ambient_dim=NONNEGATIVE,
   bsl_exponents=_arg("items", "integer", minimum=1),
   strata=_arg("contributions", uses=("order",)), order=ORDER)
op("main_term", "assembly.main_term", center_series=SERIES, normal_rank=_arg("dimension", 2),
   order=ORDER)
op("extra_term", "assembly.extra_term", items=_arg("contributions", uses=("order",)),
   order=ORDER)
op("b_shift", "assembly.b_shift", table=TABLE, order=ORDER)
op("blowup_correction", "assembly.blowup_correction", exceptional=TABLE, dim=POSITIVE,
   order=ORDER)


@op("duality_complete", order=ORDER, series=SERIES, dim=NONNEGATIVE)
def _op_duality_complete(args, order, series, dim):
    from .series import duality_complete

    return duality_complete(series, dim)


op("duality_check", "series.duality_check", table=TABLE)


@op("betti_product", tables=_arg("items", "instance", "BettiTable"))
def _op_betti_product(args, tables):
    if not tables:
        args.reject("tables", "a nonempty list", tables)
    total = tables[0]
    for t in tables[1:]:
        total = total.kunneth(t)
    return total


op("named_lattice", "eisenstein.named_lattice", name=_arg("lattice_name"))
op("z_form", "weyl.z_form", lattice=_arg("instance", "EisLattice"))


@op("root_count", lattice=_arg("z_lattice"))
def _op_root_count(args, lattice):
    from . import weyl

    return len(weyl.enumerate_roots(lattice))


op("weyl_group", "weyl.weyl_group", lattice=_arg("lattice"))


@op("abelian_quotient_betti", rank=_arg("quotient_rank"),
    form=_arg("eis_matrix", uses=("rank",), default=None), group=_arg("group", "E"))
def _op_aqb(args, rank, form, group):
    from .invariants import abelian_quotient_betti

    if rank != group.dim:
        args.reject("rank", f"{group.dim}, the dimension of its group", rank)
    if form is None and group.form is None:
        args.reject("form", f"a {rank} x {rank} hermitian form, as the group carries none", form)
    return abelian_quotient_betti(group.gens, rank, group.form if form is None else form)


@op("wreath_symmetrize", order=ORDER, value=_arg("table_or_series", uses=("order",)),
    n=POSITIVE)
def _op_wreath(args, order, value, n):
    from . import invariants

    return invariants.wreath_symmetrize(value, n)


op("boundary_betti", "eisenstein.boundary_betti", spec=_arg("boundary_spec"))
op("discriminant_form", "discriminant.discriminant_form", lattice=_arg("z_lattice"))


@op("glue_overlattice", lattice=_arg("instance", "ZLattice"), glue=_arg("matrix"))
def _op_glue(args, lattice, glue):
    from . import discriminant

    for i, row in enumerate(glue):
        if len(row) != lattice.rank:
            args.reject(f"glue[{i}]", f"a vector of length {lattice.rank}, the lattice rank",
                        args["glue"][i])
    return _glue_report(discriminant.glue_overlattice(lattice, glue))


@op("glue_diagonal_norm12", lattice=_arg("instance", "ZLattice"), copies=_arg("integer", 3, 1))
def _op_glue_diag(args, lattice, copies):
    """Glue n copies of a lattice along 1/3 of the diagonal norm-(-12) div-3 class."""
    from . import discriminant

    return _glue_report(discriminant.glue_diagonal(lattice, copies))


def _glue_report(res) -> dict:
    """The value of a glue step: the overlattice's index, parity and invariant factors."""
    return {"index": res.index, "even": res.lattice.is_even(),
            "invariant_factors": list(res.disc.invariant_factors)}


@op("verify_cusp_vector")
def _op_cusp_vector(args):
    from . import discriminant

    rep = discriminant.verify_unimodular_complement_vector()
    return {"ok": rep.ok, "norm": rep.norm, "div_ideal_norm": rep.div_norm}


@op("assert_nonpositive", order=ORDER, series=SERIES)
def _op_assert_nonpos(args, order, series):
    if any(c > 0 for c in series.coeffs):
        raise ScenarioCheckError(f"series has a positive coefficient: {series}")
    return True


@op("assert_true", value=_arg("boolean"))
def _op_assert_true(args, value):
    if not value:
        raise ScenarioCheckError(f"assertion failed at {args.where}")
    return True


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


class ScenarioReport(Record):
    """What `run_scenario` returns: the step values, the checked output
    tables and the provenance ledger, with their json, latex, csv and text
    forms."""

    name: str
    description: str
    steps: list
    tables: dict
    provenance: list
    notes: list

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
        from .serialize import dumps

        return dumps(self.to_jsonable())

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
    return load_json(text, "scenario is not valid JSON")


def _validate(doc) -> dict:
    """Check ``doc`` before its first step runs: its shape, then each step's
    id, op, argument names, facts and "$" references (each names an earlier
    step), then each output (a "$id" reference to any step), then, with
    `stepargs`, read each literal argument against its op's declaration.
    Return, by step id, the scenario's order and the values read, with
    `_PENDING` for the arguments that hold or use a reference.  A document
    that fails before that last pass loads no other module."""
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
    seen, pending = set(), {}
    for pos, step in enumerate(doc["steps"]):
        if "id" not in step or "op" not in step:
            raise ScenarioParseError("each step needs 'id' and 'op'")
        if isinstance(step["id"], (list, dict)):
            raise ScenarioParseError(f"steps[{pos}]: 'id' must not be a list or an object")
        if not isinstance(step["id"], str):
            raise ScenarioParseError(f"steps[{pos}]: 'id' must be a string, got {step['id']!r}")
        if step["id"] in seen:
            raise ScenarioParseError(f"duplicate step id {step['id']!r}")
        if not isinstance(step["op"], str):
            raise ScenarioParseError(f"step {step['id']!r}: 'op' must be a string")
        if step["op"] not in OPS:
            raise ScenarioParseError(f"unknown op {step['op']!r}")
        if not isinstance(step.get("args", {}), dict):
            raise ScenarioParseError(f"arguments of step {step['id']!r} must be an object")
        unknown = sorted(set(step.get("args", {})) - set(DECLARATIONS[step["op"]]))
        if unknown:
            raise ScenarioParseError(
                f"step {step['id']!r}: op {step['op']!r} has no argument {unknown[0]!r}")
        facts = step.get("facts", [])
        if not (isinstance(facts, list) and all(isinstance(f, dict) for f in facts)):
            raise ScenarioParseError(f"step {step['id']!r}: 'facts' must be a list of objects")
        if not all(fact.get("cite") for fact in facts):
            raise ScenarioParseError(f"fact without citation in step {step['id']!r}")
        if step["op"] in CITED and not facts:
            raise ScenarioParseError(
                f"{CITED[step['op']]} in step {step['id']!r} carries no citation")
        pending[step["id"]] = {k: _PENDING for k, v in step.get("args", {}).items()
                               if _check_references(v, seen)}
        seen.add(step["id"])
    for label, ref in doc.get("outputs", {}).items():
        if not (isinstance(label, str) and isinstance(ref, str) and ref.startswith("$")):
            raise ScenarioParseError(f"output {label!r} must be a \"$id\" reference, got {ref!r}")
        if not (label.isascii() and label.replace("_", "a").isalnum()):  # a CSV/LaTeX cell
            raise ScenarioParseError(
                f"output {label!r} must be a nonempty name of ASCII letters, digits and '_'")
        _check_references(ref, seen)
    from .stepargs import StepArgs

    known, order = {}, {SCENARIO_ORDER: doc.get("order", 10)}
    for step in doc["steps"]:
        held = pending[step["id"]]
        literal = {k: v for k, v in step.get("args", {}).items() if k not in held}
        known[step["id"]] = {**order, **_read(StepArgs(f"step {step['id']!r}", literal),
                                              DECLARATIONS[step["op"]], {**order, **held})}
    return known


def _check_references(obj, ids) -> list:
    keys = _references(obj)
    for key in keys:
        if key not in ids:
            raise ScenarioParseError(f"reference to unknown step {key!r}")
    return keys


def _same(got, want) -> bool:
    """``got == want`` for a JSON value ``got``, except that a boolean equals
    only a boolean and an integer only an integer (in Python True == 1).  A
    ``want`` of another type is unequal, never compared."""
    if type(got) is not type(want):
        return False
    if type(got) is list:
        return len(got) == len(want) and all(map(_same, got, want))
    if type(got) is dict:
        return got.keys() == want.keys() and all(_same(v, want[k]) for k, v in got.items())
    return got == want


def run_scenario(source) -> ScenarioReport:
    doc = load_scenario(source)
    known = _validate(doc)
    from .stepargs import StepArgs, _instance

    values = {}
    step_reports = []
    provenance = []
    for step in doc["steps"]:
        read = known[step["id"]]
        args = StepArgs(f"step {step['id']!r}", {
            k: _resolve(v, values) if read[k] is _PENDING else v
            for k, v in step.get("args", {}).items()})
        try:
            value = OPS[step["op"]](read, args, step)
        except (ScenarioParseError, ScenarioCheckError, ResourceCapError):
            raise
        except (ValueError, AssertionError, KeyError) as e:
            raise ScenarioCheckError(f"step {step['id']!r} failed: {e}") from e
        values[step["id"]] = value
        from . import serialize

        try:
            got = serialize.to_jsonable(value)
        except TypeError as e:  # a non-JSON value in a dict document
            raise ScenarioParseError(f"step {step['id']!r}: value is not JSON: {e}") from e
        rep = {"id": step["id"], "op": step["op"]}
        jexpect = step.get("expect")
        if jexpect is not None:
            if not _same(got, jexpect):
                raise ScenarioCheckError(
                    f"step {step['id']!r} mismatch:\n  expected {jexpect}\n  got      {got}")
            rep["checked"] = True
        rep["value"] = got
        step_reports.append(rep)
        for fact in step.get("facts", []):
            provenance.append({"step": step["id"], **fact})
    tables = {}
    for label, ref in doc.get("outputs", {}).items():
        value = values[ref[1:]]
        if not _instance(value, "series", "BettiTable"):
            raise ScenarioCheckError(f"output {label!r} is not a Betti table")
        from .series import duality_check

        rep = duality_check(value)
        if not rep.ok:
            raise ScenarioCheckError(f"output {label!r} fails duality: {rep.message}")
        tables[label] = value
    return ScenarioReport(name=doc["name"], description=doc.get("description", ""),
                          steps=step_reports, tables=tables, provenance=provenance,
                          notes=doc.get("notes", []))
