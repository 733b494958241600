import json
import subprocess
import sys
import time

import pytest
from test_invariants import LEHMER, S7_GENS, SALEM, UNIPOTENT7, symmetric_gens


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "stratify.cli", *args],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestScenarioCommand:
    def test_builtin_text(self):
        code, out, _ = run_cli("scenario", "run", "binary12")
        assert code == 0
        assert "all checks passed" in out
        assert "[1, 1, 2, 2, 3, 3, 2, 2, 1, 1]" in out

    def test_json_round_trips(self):
        code, out, _ = run_cli("--format", "json", "scenario", "run", "cubiccurve")
        assert code == 0
        doc = json.loads(out)
        assert doc["scenario"] == "cubiccurve"
        assert doc["tables"]["git_quotient_IH"]["even"] == [1, 1]

    def test_json_deterministic(self):
        a = run_cli("--format", "json", "scenario", "run", "cubiccurve")
        b = run_cli("--format", "json", "scenario", "run", "cubiccurve")
        assert a == b

    def test_latex(self):
        code, out, _ = run_cli("scenario", "run", "cubiccurve", "--format", "latex")
        assert code == 0 and r"\begin{array}" in out

    def test_parse_error_exit_code(self):
        code, _, err = run_cli("scenario", "run", "no-such-scenario")
        assert code == 3
        assert json.loads(err.strip())["error"] == "parse"

    def test_check_failure_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "bad", "order": 4,
            "steps": [{"id": "a", "op": "projective_series", "args": {"dim": 1},
                       "expect": {"kind": "series", "order": 4,
                                  "triples": [[0, 9, 1]]}}]}))
        code, _, err = run_cli("scenario", "run", str(bad))
        assert code == 2
        assert json.loads(err.strip())["error"] == "check"

    def test_bad_step_argument_exit_code(self, tmp_path):
        for args, named in (({"n": 4}, "'d'"), ({"n": "4", "d": 3}, "'n'"),
                            ({"n": 0, "d": 3}, "'n' must be an integer >= 1"),
                            ({"n": 3, "d": 0}, "'d' must be an integer >= 1")):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({
                "name": "bad",
                "steps": [{"id": "ws", "op": "hypersurface_weights", "args": args}]}))
            code, _, err = run_cli("scenario", "run", str(bad))
            assert code == 3
            err = json.loads(err.strip())
            assert err["error"] == "parse"
            assert "'ws'" in err["message"] and named in err["message"]


    def test_huge_truncation_order_hits_the_cap(self, tmp_path):
        doc = tmp_path / "huge.json"
        doc.write_text(json.dumps({"name": "huge", "order": 100000000, "steps": [
            {"id": "p", "op": "projective_series", "args": {"dim": 2}}]}))
        step = tmp_path / "step.json"
        step.write_text(json.dumps({"name": "step", "steps": [
            {"id": "p", "op": "projective_series", "args": {"dim": 2, "order": 100000000}}]}))
        for argv in (("scenario", "run", str(doc)), ("scenario", "run", str(step)),
                     ("molien", "--gens", "[[[1]]]", "--truncate", "100000000")):
            t0 = time.perf_counter()
            code, _, err = run_cli(*argv)
            assert time.perf_counter() - t0 < 1
            assert code == 4 and json.loads(err)["error"] == "resource-cap"


    def test_negative_truncation_order_is_parse_error(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"name": "neg", "order": -1, "steps": []}))
        step = tmp_path / "step.json"
        step.write_text(json.dumps({"name": "neg", "steps": [
            {"id": "g", "op": "close_group", "args": {"generators": [[[0, 1], [1, 0]]]}},
            {"id": "m", "op": "molien", "args": {"group": "$g", "degree": 2, "order": -1}}]}))
        for argv, source in (
                (("molien", "--gens", "[[[0,1],[1,0]]]", "--truncate", "-1"), "--truncate"),
                (("blowup", "--exceptional", '{"complex_dim":1,"even":[1,1]}', "--dim", "2",
                  "--truncate", "-2"), "--truncate"),
                (("strata", "--n", "2", "--d", "3", "--truncate", "-1"), "--truncate"),
                (("scenario", "run", str(doc)), "scenario 'order'"),
                (("scenario", "run", str(step)), "step 'm': argument 'order'")):
            code, out, err = run_cli(*argv)
            assert code == 3 and out == ""
            err = json.loads(err)
            assert err["error"] == "parse"
            assert err["message"].startswith(f"{source} must be a truncation order >= 0, got -")

    def test_bad_literal_values_exit_code(self, tmp_path):
        for step, field in (
                ({"op": "series_product", "args": {"factors": [[[0]]]}}, "'factors[0]'"),
                ({"op": "check_semiinvariant", "args": {"form": "x0", "matrix": [["a"]]}},
                 "'matrix'"),
                # out of range: refused by the reader, not by the layer
                ({"op": "semistable_series", "args": {
                    "ambient_dim": 3, "bsl_exponents": [2], "strata": [{"codim": 0}]}},
                 "'codim'"),
                ({"op": "extra_term", "args": {"items": [{"codim": 2, "weyl_share": 0}]}},
                 "'weyl_share'"),
                ({"op": "classifying_series", "args": {"group": "GL", "n": -2}}, "'n'")):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({"name": "bad", "steps": [{"id": "s", **step}]}))
            code, _, err = run_cli("scenario", "run", str(bad))
            assert code == 3
            err = json.loads(err.strip())
            assert err["error"] == "parse"
            assert "step 's'" in err["message"] and field in err["message"]

    def test_bad_extra_tangents_exit_code(self, tmp_path):
        # read with the variables of the form, an earlier step's value, when
        # the step runs: still a parse error naming the step and the field
        for value, message in (
                (5, "argument 'extra_tangents' must be a list, got 5"),
                ([1], "argument 'extra_tangents[0]' must be a polynomial in x0..x1, got 1")):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({"name": "bad", "steps": [
                {"id": "f", "op": "parse_poly", "args": {"text": "x0^2*x1^2", "nvars": 2}},
                {"id": "s", "op": "normal_rep_of", "args": {
                    "form": "$f", "cocharacters": [[1, -1]], "extra_tangents": value}}]}))
            code, out, err = run_cli("scenario", "run", str(bad))
            assert code == 3 and out == ""
            assert json.loads(err) == {"error": "parse", "message": f"step 's': {message}"}

    def test_huge_multiplicity_and_rank_answer_at_once(self, tmp_path):
        doc = tmp_path / "huge.json"
        doc.write_text(json.dumps({"name": "huge", "steps": [
            {"id": "g", "op": "gf_expand", "args": {"factors": [[2, 100000000]]}},
            {"id": "s", "op": "classifying_series", "args": {"group": "SL", "n": 100000000}},
            {"id": "l", "op": "classifying_series", "args": {"group": "GL", "n": 100000000}}]}))
        t0 = time.perf_counter()
        code, out, _ = run_cli("--format", "json", "scenario", "run", str(doc))
        assert time.perf_counter() - t0 < 1
        assert code == 0
        values = {s["id"]: s["value"]["triples"] for s in json.loads(out)["steps"]}
        # C(10^8 - 1 + j, j) at t^(2j); prod over i >= 2 of 1/(1 - t^(2i)) to order 10
        assert values["g"][1] == [2, 100000000, 1]
        assert values["s"] == [[0, 1, 1], [4, 1, 1], [6, 1, 1], [8, 2, 1], [10, 2, 1]]
        assert values["l"] == [[0, 1, 1], [2, 1, 1], [4, 2, 1], [6, 3, 1], [8, 5, 1],
                               [10, 7, 1]]

    @pytest.mark.parametrize("step", [
        # C(10^8 + 999, 1000) has about 5,400 digits; Python writes at most
        # 4,300 of them by default
        {"op": "gf_expand", "args": {"factors": [[1, 10**8]]}},
        {"op": "gf_expand", "args": {"factors": [[1, 10**8]] * 3}},
        # C(10^1000 + 4, 5) already has about 5,000 digits
        {"op": "gf_expand", "args": {"factors": [[1, 10**1000]]}},
        # every input is printable, the product is not: the writer refuses it
        {"op": "lincomb", "args": {"terms": [[10**3000, 0, [[0, 10**2000]]]]}},
    ], ids=["multiplicity-1e8", "three-factors-1e8", "multiplicity-1e1000", "lincomb"])
    def test_integer_beyond_the_digit_limit_hits_the_cap(self, tmp_path, step):
        doc = tmp_path / "digits.json"
        doc.write_text(json.dumps({"name": "digits", "order": 1000,
                                   "steps": [{"id": "g", **step}]}))
        for fmt in ("json", "text"):
            t0 = time.perf_counter()
            code, out, err = run_cli("--format", fmt, "scenario", "run", str(doc))
            assert time.perf_counter() - t0 < 1
            assert code == 4 and out == ""
            assert json.loads(err)["error"] == "resource-cap"

    def test_huge_wreath_count_hits_the_cap(self, tmp_path):
        doc = tmp_path / "wreath.json"
        doc.write_text(json.dumps({"name": "wreath", "steps": [
            {"id": "b", "op": "boundary_betti",
             "args": {"spec": {"factors": [{"lattice": "E4", "count": 100}]}}}]}))
        for argv in (("scenario", "run", str(doc)),
                     ("boundary", '{"factors":[{"lattice":"E1","count":100}]}')):
            t0 = time.perf_counter()
            code, _, err = run_cli(*argv)
            assert time.perf_counter() - t0 < 1
            assert code == 4 and json.loads(err)["error"] == "resource-cap"


class TestLatticeCommand:
    def test_weyl_order(self):
        code, out, _ = run_cli("lattice", "weyl-order", "E3")
        assert code == 0 and out.strip() == "648"

    def test_roots_json(self):
        code, out, _ = run_cli("--format", "json", "lattice", "roots", "E4")
        assert code == 0 and json.loads(out)["count"] == 240

    def test_discriminant(self):
        code, out, _ = run_cli("lattice", "discriminant", "E3")
        assert code == 0 and "[3]" in out

    def test_z_form_csv(self):
        code, out, _ = run_cli("--format", "csv", "lattice", "z-form", "E1")
        assert code == 0 and out.splitlines() == ["-2,1", "1,-2"]

    def test_weyl_order_of_orthogonal_sums(self):
        # each root of a sum of minimum-3 lattices lies in one summand, so
        # the Weyl group is the product of the summands' groups
        for name, order in (("3E3", 648**3), ("E1+2E4", 3 * 155520**2)):
            code, out, _ = run_cli("lattice", "weyl-order", name)
            assert code == 0 and out.strip() == str(order)

    def test_lattice_file(self, tmp_path):
        f = tmp_path / "lat.json"
        f.write_text(json.dumps({"gram": [[3]]}))
        code, out, _ = run_cli("lattice", "weyl-order", str(f))
        assert code == 0 and out.strip() == "3"
        # a negative definite lattice: its roots have norm -3
        code, out, _ = run_cli("lattice", "weyl-order", '{"gram": [[-3]]}')
        assert code == 0 and out.strip() == "3"

    def test_smith_growth_hits_the_cap(self, tmp_path):
        # a dense theta-valued Gram: Smith elimination of its z-form grows
        # its entries exponentially, and ran past 30 s before the cap
        f = tmp_path / "dense.json"
        f.write_text(json.dumps({"gram": [
            [-396, [-291, -9], [-28, -266], [-246, -333]],
            [[-282, 9], 567, [-52, 19], [145, 272]],
            [[238, 266], [-71, -19], -279, [-250, -353]],
            [[87, 333], [-127, -272], [103, 353], -558]]}))
        t0 = time.perf_counter()
        code, _, err = run_cli("lattice", "discriminant", str(f))
        assert time.perf_counter() - t0 < 5
        assert code == 4 and json.loads(err)["error"] == "resource-cap"


class TestStrataCommand:
    def test_min_codim_line(self):
        code, out, _ = run_cli("strata", "--n", "4", "--d", "3", "--truncate", "5")
        assert code == 0
        assert "minimal nonzero expected codimension: 5" in out

    def test_truncate_is_a_codimension_bound_without_the_order_cap(self):
        full = run_cli("strata", "--n", "2", "--d", "3")
        assert full[0] == 0
        assert run_cli("strata", "--n", "2", "--d", "3", "--truncate", "2000") == full

    def test_csv(self):
        code, out, _ = run_cli("--format", "csv", "strata", "--n", "1", "--d", "12")
        assert code == 0
        assert out.splitlines()[0] == "beta,norm2,n_beta,dim_g_mod_p,codim_expected"

    def test_over_budget_exits_at_once(self):
        # the budget bounds the flat subset count before any search
        for n, d in (("5", "3"), ("6", "3"), ("4", "5")):
            t0 = time.perf_counter()
            code, _, err = run_cli("strata", "--n", n, "--d", d)
            assert time.perf_counter() - t0 < 1
            assert code == 4 and json.loads(err)["error"] == "resource-cap"

    def test_too_many_monomials_exit_at_once(self):
        # the monomials are counted before any is enumerated
        for n, d in (("2000", "2"), ("2", "1000000000000")):
            t0 = time.perf_counter()
            code, _, err = run_cli("strata", "--n", n, "--d", d)
            assert time.perf_counter() - t0 < 1
            assert code == 4 and json.loads(err)["error"] == "resource-cap"


class TestOtherCommands:
    def test_molien_inline(self):
        code, out, _ = run_cli(
            "molien", "--gens", "[[[0,1],[1,0]],[[-1,1],[-1,0]]]",
            "--degree", "2", "--truncate", "8")
        assert code == 0 and "group order 6" in out

    def test_molien_generator_input(self):
        code, out, _ = run_cli("molien", "--gens", '{"ring":"E","generators":[[[1]]]}',
                               "--truncate", "4")
        assert code == 0 and "group order 1" in out
        for gens in ('{"ring":"E","generators":[[[1,2,3]]]}', "[[]]"):
            code, _, err = run_cli("molien", "--gens", gens)
            assert code == 3
            err = json.loads(err)
            assert err["error"] == "parse" and "'generators[0]'" in err["message"]
        for gens in ("[[[1,0],[0,1]],[[1]]]", '{"ring":"E","generators":[[[1,0],[0,1]],[[1]]]}'):
            code, _, err = run_cli("molien", "--gens", gens)
            assert code == 3
            err = json.loads(err)
            assert err["error"] == "parse" and (
                "'generators[1]' must be a 2 x 2 matrix like generators[0]" in err["message"])

    def test_molien_generator_of_infinite_order_fails_at_once(self):
        for gens, message in (("[[[2]]]", "not a unit"),
                              ("[[[1,1],[0,1]]]", "infinite order"),  # unipotent
                              ("[[[2,1],[1,1]]]", "infinite order"),  # hyperbolic, det 1
                              (json.dumps([LEHMER]), "a power has trace 10"),
                              (json.dumps([SALEM]), "a power has trace 7"),
                              # refused before S_7's 5040 elements are closed
                              (json.dumps([*S7_GENS, UNIPOTENT7]),
                               "generator 2 has infinite order")):
            start = time.perf_counter()
            code, _, err = run_cli("molien", "--gens", gens, "--degree", "2")
            assert time.perf_counter() - start < 1.0
            assert code == 2 and message in json.loads(err)["message"]

    def test_molien_infinite_group_of_finite_order_generators_fails_at_once(self):
        # each generator has finite order; their product [[1, 0], [2, 1]] has not
        start = time.perf_counter()
        code, _, err = run_cli("molien", "--gens", "[[[0,1],[-1,1]],[[-1,-1],[1,0]]]")
        assert time.perf_counter() - start < 1.0
        err = json.loads(err)
        assert code == 2 and err["error"] == "check" and "trace 2" in err["message"]

    def test_molien_group_above_the_cap_fails_at_once(self):
        # S_10 has 3,628,800 elements, above DEFAULT_CAP; its order is not a closure
        start = time.perf_counter()
        code, _, err = run_cli("molien", "--gens", json.dumps(symmetric_gens(10)))
        assert time.perf_counter() - start < 1.0
        err = json.loads(err)
        assert code == 4 and err["error"] == "resource-cap" and "3628800" in err["message"]

    def test_blowup(self):
        code, out, _ = run_cli(
            "blowup", "--exceptional",
            '{"complex_dim":3,"even":[1,1,1,1],"odd":[0,0,0]}', "--dim", "4")
        assert code == 0 and "t^2" in out

    def test_boundary(self):
        code, out, _ = run_cli(
            "boundary", '{"factors":[{"lattice":"E3","group":"weyl","count":3}]}')
        assert code == 0 and "[1, 1, 2, 3, 3, 3, 3, 2, 1, 1]" in out

    def test_boundary_single_factor_may_have_odd_cohomology(self):
        # E1 by the trivial group is an elliptic curve; one copy symmetrizes nothing
        code, out, _ = run_cli(
            "boundary", '{"factors":[{"lattice":"E1","group":{"generators":[[[1]]]}}]}')
        assert code == 0 and out == "even Betti [1, 1], odd [2]\n"

    def test_boundary_symmetrizes_odd_cohomology(self):
        # Sym^2 of an elliptic curve, a P^1-bundle over it: Betti 1, 2, 2, 2, 1
        code, out, _ = run_cli(
            "boundary", '{"factors":[{"lattice":"E1","group":{"generators":[[[1]]]},"count":2}]}')
        assert code == 0 and out == "even Betti [1, 2, 1], odd [2, 2]\n"

    def test_boundary_bad_spec_is_parse_error(self):
        code, _, err = run_cli("boundary", '{"factors":[{"group":"weyl","count":2}]}')
        assert code == 3
        err = json.loads(err)
        assert err["error"] == "parse"
        assert "spec.factors[0]" in err["message"] and "'lattice'" in err["message"]

    @pytest.mark.parametrize("argv, field", [
        (("boundary", '{"factors":[{"lattice":"E1","cuont":2}]}'),
         "spec.factors[0] has no field 'cuont'"),
        (("molien", "--gens", '{"generators": [[[0,1],[1,0]]], "rng": "E"}'),
         "has no field 'rng'"),
        (("boundary", '{"factors":[{"lattice":"E1"}],"extra_projective_lines":1}'),
         "spec has no field 'extra_projective_lines'"),
        # a table factor is an earlier step's table: a call names no step
        (("boundary", '{"factors":[{"table":{"complex_dim":1,"even":[1,1]}}]}'),
         "spec.factors[0]: argument 'table' must be a Betti table"),
    ])
    def test_unknown_nested_field_is_parse_error(self, argv, field):
        code, _, err = run_cli(*argv)
        assert code == 3
        err = json.loads(err)
        assert err["error"] == "parse" and field in err["message"]

    def test_high_rank_boundary_hits_the_cap(self, tmp_path):
        # a factor of rank 9, then products whose twice complex dimension is
        # above the truncation-order cap, refused before any quotient: 600
        # E1 factors, and a P^300 table factor squared
        doc = tmp_path / "boundary.json"
        doc.write_text(json.dumps({"name": "boundary", "steps": [
            {"id": "p", "op": "projective_table", "args": {"dim": 300}},
            {"id": "b", "op": "boundary_betti",
             "args": {"spec": {"factors": [{"table": "$p", "count": 2}]}}}]}))
        specs = [{"factors": [{"lattice": "3E3"}]}, {"factors": [{"lattice": "E1+2E4"}]},
                 {"factors": [{"lattice": "E1"}] * 600}]
        for argv in [("boundary", json.dumps(spec)) for spec in specs] + [
                ("scenario", "run", str(doc))]:
            t0 = time.perf_counter()
            code, _, err = run_cli(*argv)
            assert time.perf_counter() - t0 < 1
            assert code == 4 and json.loads(err)["error"] == "resource-cap"

    @pytest.mark.parametrize("dim, n", [(300, 2), (500, 6), (500, 12), (3, 12)])
    def test_wreath_of_a_table_is_held_to_the_order_cap(self, tmp_path, dim, n):
        # the symmetric power of a table of dimension dim has dimension
        # dim * n, held to the cap as betti_product holds its product
        doc = tmp_path / "wreath.json"
        doc.write_text(json.dumps({"name": "wreath", "steps": [
            {"id": "p", "op": "projective_table", "args": {"dim": dim}},
            {"id": "w", "op": "wreath_symmetrize", "args": {"value": "$p", "n": n}}]}))
        t0 = time.perf_counter()
        code, out, err = run_cli("scenario", "run", str(doc), "--format", "json")
        if 2 * dim * n <= 1000:
            assert code == 0 and json.loads(out)["steps"][1]["value"]["complex_dim"] == dim * n
        else:
            assert time.perf_counter() - t0 < 1
            assert code == 4 and out == "" and json.loads(err)["error"] == "resource-cap"

    def test_huge_table_dimension_exits_at_once(self, tmp_path):
        # a table of complex dimension n has a Poincare series of order 2n,
        # held to the truncation-order cap before 2n + 1 numbers are allocated
        doc = tmp_path / "table.json"
        doc.write_text(json.dumps({"name": "table", "steps": [
            {"id": "t", "op": "projective_table", "args": {"dim": 10**12}}]}))
        for argv in (("blowup", "--exceptional", '{"complex_dim": 1000000000000, "even": [1]}',
                      "--dim", "4"),
                     ("scenario", "run", str(doc))):
            t0 = time.perf_counter()
            code, out, err = run_cli(*argv)
            assert time.perf_counter() - t0 < 1
            assert code == 4 and out == ""
            assert json.loads(err)["error"] == "resource-cap"

    def test_huge_table_product_exits_at_once(self, tmp_path):
        # each factor is within the cap, their product is not: the Kunneth
        # product is held to the cap before its series is multiplied
        doc = tmp_path / "product.json"
        doc.write_text(json.dumps({"name": "product", "steps": [
            {"id": "p", "op": "projective_table", "args": {"dim": 500}},
            {"id": "t", "op": "betti_product", "args": {"tables": ["$p", "$p", "$p"]}}]}))
        t0 = time.perf_counter()
        code, out, err = run_cli("scenario", "run", str(doc))
        assert time.perf_counter() - t0 < 1
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == "resource-cap"

    def test_integer_beyond_the_digit_limit_is_parse_error(self, tmp_path):
        # json.loads refuses an integer of more than 4,300 digits with a
        # plain ValueError, not a JSONDecodeError
        count = "1" * 4301
        spec = '{"factors":[{"lattice":"E3","group":"weyl","count":%s}]}' % count
        (tmp_path / "spec.json").write_text(spec)
        (tmp_path / "doc.json").write_text('{"name": "x", "order": %s, "steps": []}' % count)
        for argv, message in ((("boundary", str(tmp_path / "spec.json")), "is not valid JSON"),
                              (("boundary", spec), "argument is neither a file nor JSON"),
                              (("scenario", "run", str(tmp_path / "doc.json")),
                               "scenario is not valid JSON")):
            t0 = time.perf_counter()
            code, out, err = run_cli(*argv)
            assert time.perf_counter() - t0 < 1
            assert code == 3 and out == ""
            err = json.loads(err)
            assert err["error"] == "parse" and message in err["message"]


class TestBadInput:
    """Malformed input exits 3 naming the problem, never with a traceback.
    ``@dir`` stands for a directory, ``@latin1`` for a file that is not UTF-8
    and any other ``@name`` for a file holding ``FILES[name]``."""

    FILES = {
        "@number": "5",
        "@list-id": '{"name": "x", "steps": [{"id": ["s"], "op": "declare"}]}',
        "@object-id": '{"name": "x", "steps": [{"id": {"s": 1}, "op": "declare"}]}',
        "@float": '{"name": "x", "steps": [{"id": "v", "op": "declare", "args": '
                  '{"kind": "raw", "value": 1.5}, "facts": [{"cite": "c"}], "expect": 1.5}]}',
        "@float-spec": '{"factors": [{"lattice": "E1", "count": 1e0}]}',
        "@int-id": '{"name": "x", "steps": [{"id": 1, "op": "projective_series", "args": '
                   '{"dim": 1}}, {"id": "s", "op": "b_shift", "args": {"table": "$1"}}]}',
        "@plain-output": '{"name": "x", "steps": [{"id": "t", "op": "projective_table", '
                         '"args": {"dim": 1}}], "outputs": {"a": "t"}}',
        "@wrong-rank": '{"name": "x", "steps": [{"id": "g", "op": "close_group", "args": '
                       '{"ring": "E", "generators": [[[[0, 1]]]]}}, {"id": "q", "op": '
                       '"abelian_quotient_betti", "args": {"group": "$g", "rank": 2, '
                       '"form": [[3, 0], [0, 3]]}}]}',
        "@empty-spec": '{"name": "x", "steps": [{"id": "first", "op": "assert_true", "args": '
                       '{"value": false}}, {"id": "b", "op": "boundary_betti", "args": '
                       '{"spec": {"factors": []}}}]}',
    }

    @pytest.mark.parametrize("argv, message", [
        (("boundary", "@dir"), "Is a directory"),
        (("scenario", "run", "@dir"), "Is a directory"),
        (("boundary", "@latin1"), "is not UTF-8 text"),
        (("scenario", "run", "@latin1"), "is not UTF-8 text"),
        (("scenario", "run", "@number"), "scenario needs 'name' and 'steps'"),
        (("lattice", "roots", '{"gram": 5}'), "argument 'gram' must be a square matrix"),
        (("lattice", "roots", "[1]"), "argument 'lattice' must be an object"),
        (("blowup", "--exceptional", "[1,2]", "--dim", "4"),
         "argument 'exceptional' must be an object"),
        (("blowup", "--exceptional", '{"complex_dim": "3", "even": [1]}', "--dim", "4"),
         "argument 'complex_dim' must be an integer >= 0"),
        (("blowup", "--exceptional", '{"complex_dim": 1, "even": [1, 1], "odd": [0, 0]}',
          "--dim", "3"), "argument 'odd' must be a list of at most 1 integers"),
        (("scenario", "run", "@list-id"), "steps[0]: 'id' must not be a list or an object"),
        (("scenario", "run", "@object-id"), "steps[0]: 'id' must not be a list or an object"),
        (("lattice", "roots", "E9"), "no lattice named 'E9' and no such file; named "
         "lattices: E1, E2, E3, E4, H, 3E1, 3E3, E1+2E4"),
        # a float is not exact, in a file or inline
        (("scenario", "run", "@float"), "the number 1.5 is a float"),
        (("boundary", "@float-spec"), "the number 1e0 is a float"),
        (("boundary", '{"factors": [{"lattice": "E1", "count": 1.0}]}'),
         "the number 1.0 is a float"),
        (("molien", "--gens", '{"generators": [[[NaN]]]}'), "the number NaN is a float"),
        (("lattice", "roots", '{"gram": [[-Infinity]]}'), "the number -Infinity is a float"),
        # a reference is a string, so an id must be one
        (("scenario", "run", "@int-id"), "steps[0]: 'id' must be a string, got 1"),
        (("scenario", "run", "@plain-output"), "output 'a' must be a \"$id\" reference, got 't'"),
        # a boundary of no factors, refused before step 1, which would fail
        (("boundary", '{"factors": []}'),
         "boundary: spec: argument 'factors' must be a nonempty list of factors, got []"),
        (("scenario", "run", "@empty-spec"),
         "step 'b': spec: argument 'factors' must be a nonempty list of factors, got []"),
        # an abelian quotient's rank is the dimension of its group
        (("scenario", "run", "@wrong-rank"),
         "step 'q': argument 'rank' must be 1, the dimension of its group, got 2"),
    ])
    def test_bad_input_is_parse_error(self, tmp_path, argv, message):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
        paths = {"@dir": tmp_path, "@latin1": latin1}
        for name, text in self.FILES.items():
            paths[name] = tmp_path / (name[1:] + ".json")
            paths[name].write_text(text)
        code, _, err = run_cli(*(str(paths.get(a, a)) for a in argv))
        assert code == 3
        err = json.loads(err)
        assert err["error"] == "parse" and message in err["message"]


# (scenario op, its field, its other steps and arguments, command line
# without the value, value): one range read through both doors
_GENS = [[[0, 1], [1, 0]]]
_TABLE = {"complex_dim": 1, "even": [1, 1], "odd": [0]}
RANGES = [
    ("molien", "degree", [{"id": "g", "op": "close_group", "args": {"generators": _GENS}}],
     {"group": "$g"}, ("molien", "--gens", json.dumps(_GENS), "--degree"), value)
    for value in (0, -2, 3)
] + [
    ("blowup_correction", "dim", [{"id": "t", "op": "declare", "args": {
        "kind": "betti_table", "value": _TABLE}, "facts": [{"cite": "test"}]}],
     {"exceptional": "$t"}, ("blowup", "--exceptional", json.dumps(_TABLE), "--dim"), value)
    for value in (0, -1)
]


class TestCommandLine:
    """The command line is read from `cli.COMMANDS` and `cli.COMMON`."""

    @pytest.mark.parametrize("argv, named", [
        (("strata", "--n", "abc", "--d", "3"), "--n must be an integer, got 'abc'"),
        (("strata", "--n", "3"), "--d"),
        (("nosuch",), "'nosuch'"),
        (("lattice", "roots"), "LATTICE, got 'roots'"),
        (("lattice", "frobnicate", "E1"), "'frobnicate'"),
        (("--format", "yaml", "scenario", "run", "cubicsurf"), "--format must be one of"),
        (("molien", "--gens"), "--gens needs a value"),
        ((), "no command"),
        (("strata", "--n", "3", "--d", "3", "--nn", "3"), "unknown option --nn"),
        (("lattice", "roots", "E1", "E2"), "'E2'"),
        (("--n", "3", "strata", "--d", "3"), "unknown option --n"),
        (("strata", "--n", "0", "--d", "3"), "--n must be an integer >= 1, got 0"),
        (("strata", "--n", "3", "--d", "-1"), "--d must be an integer >= 1, got -1"),
        # --truncate only where the command reads it
        (("scenario", "run", "cubicsurf", "--truncate", "5"), "unknown option --truncate"),
        (("lattice", "roots", "E1", "--truncate", "3"), "unknown option --truncate"),
        # a format the command does not write, refused before it computes
        (("strata", "--n", "2", "--d", "3", "--format", "latex"),
         "strata does not write latex; it writes text, json, csv"),
        (("molien", "--gens", "[[[0,1],[1,0]]]", "--format", "csv"),
         "molien does not write csv; it writes text, json"),
        (("lattice", "roots", "E1", "--format", "csv"),
         "lattice roots does not write csv; it writes text, json"),
        (("--format", "latex", "lattice", "z-form", "E1"),
         "lattice z-form does not write latex; it writes text, json, csv"),
        (("strata", "--n", "5", "--d", "3", "--format", "latex"), "strata does not write latex"),
        # out of range: refused with the command line, before the command runs
        (("molien", "--gens", "[[[0,1],[1,0]]]", "--degree", "0"),
         "--degree must be a positive even integer, got 0"),
        (("molien", "--gens", "[[[0,1],[1,0]]]", "--degree", "3"),
         "--degree must be a positive even integer, got 3"),
        (("blowup", "--exceptional", '{"complex_dim":1,"even":[1,1],"odd":[0]}', "--dim", "-1"),
         "--dim must be an integer >= 1, got -1"),
        # no generators is malformed input, not a failed check
        (("molien", "--gens", "[]"), "argument 'generators' must be a nonempty list"),
        # a boundary factor's generators: at least one, each sized to the lattice's rank
        (("boundary", '{"factors":[{"lattice":"E1","group":{"generators":[]}}]}'),
         "spec.factors[0].group: argument 'generators' must be a nonempty list"),
        (("boundary", '{"factors":[{"lattice":"E3","group":{"generators":[[[1,0],[0,1]]]}}]}'),
         "argument 'generators[0]' must be a 3 x 3 matrix, got [[1, 0], [0, 1]]"),
        (("boundary", '{"factors":[{"lattice":"E3","group":{"generators":'
                      '[[[1,0,0],[0,1,0],[0,0,1]],[[1]]]}}]}'),
         "argument 'generators[1]' must be a 3 x 3 matrix, got [[1]]"),
    ])
    def test_malformed_command_line_is_parse_error(self, argv, named):
        code, out, err = run_cli(*argv)
        assert code == 3 and out == ""
        err = json.loads(err)
        assert err["error"] == "parse" and named in err["message"]

    @pytest.mark.parametrize("op, field, steps, args, argv, value", RANGES)
    def test_one_range_through_both_doors(self, tmp_path, op, field, steps, args, argv, value):
        # a first step that fails if it runs: the value is refused before step 1
        doc = {"name": "range", "steps": [
            {"id": "first", "op": "assert_true", "args": {"value": False}}, *steps,
            {"id": "s", "op": op, "args": {**args, field: value}}]}
        path = tmp_path / "range.json"
        path.write_text(json.dumps(doc))
        messages = []
        for call in (("scenario", "run", str(path)), (*argv, str(value))):
            code, out, err = run_cli(*call)
            assert code == 3 and out == "", call
            err = json.loads(err)
            assert err["error"] == "parse"
            messages.append(err["message"])
        assert messages[0].startswith(f"step 's': argument '{field}' must be ")
        assert messages[1].startswith(f"{argv[-1]} must be ")
        # the same range, in the same words
        assert messages[0].split(" must be ")[1] == messages[1].split(" must be ")[1]

    @pytest.mark.parametrize("argv", [
        ("--format", "json", "lattice", "weyl-order", "E2"),
        ("lattice", "weyl-order", "E2", "--format", "json"),
        ("lattice", "--format", "json", "weyl-order", "E2"),
        ("--format", "csv", "lattice", "weyl-order", "E2", "--format", "json"),
        ("lattice", "weyl-order", "E2", "--format=json"),
        ("--form", "json", "lattice", "weyl-order", "E2"),
    ])
    def test_common_flags_anywhere_and_the_last_wins(self, argv):
        code, out, _ = run_cli(*argv)
        assert code == 0 and json.loads(out) == {"order": 24}

    def test_option_prefix(self):
        gens = "[[[0,1],[1,0]],[[-1,1],[-1,0]]]"
        full = run_cli("molien", "--gens", gens, "--degree", "2", "--truncate", "8")
        assert full[0] == 0 and "group order 6" in full[1]
        assert run_cli("molien", "--gens", gens, "--deg", "2", "--trunc=8") == full

    @pytest.mark.parametrize("argv, words", [
        (("--help",), ("scenario", "strata", "molien", "lattice", "boundary", "blowup",
                       "--format")),
        (("-h",), ("scenario", "strata", "molien", "lattice", "boundary", "blowup")),
        (("strata", "-h"), ("--n N", "--d D", "--group {sl,torus}", "--format", "--truncate")),
        (("molien", "--gens", "[[[1]]]", "--help"), ("--gens GENS", "--degree DEGREE")),
        (("lattice", "--help"), ("{roots,weyl-order,discriminant,z-form}", "LATTICE")),
    ])
    def test_help_prints_usage_from_the_table(self, argv, words):
        code, out, err = run_cli(*argv)
        assert code == 0 and err == "" and out.startswith("usage: stratify")
        for word in words:
            assert word in out, word

    def test_parser_of_the_benchmark_set_up_probe(self):
        from stratify.cli import build_parser

        args = build_parser().parse_args(["scenario", "run", "cubicsurf", "--format", "json"])
        assert (args.action, args.source, args.format) == ("run", "cubicsurf", "json")
        assert callable(args.fn)
        args = build_parser().parse_args(["strata", "--n", "3", "--d", "2"])
        assert (args.n, args.d, args.group, args.format) == (3, 2, "sl", "text")


class TestProgramMode:
    """`main()` without arguments, as the console script calls it, turns the
    cyclic collector off and ends with `gc.freeze()`; a caller that passes
    `argv` keeps its collector as it was."""

    BOOT = "import sys; from stratify.cli import main; sys.exit(main())"
    TORUS = ("strata", "--n", "3", "--d", "3", "--group", "torus", "--format", "json")

    def run_program(self, *argv, prelude=""):
        return subprocess.run([sys.executable, "-c", prelude + self.BOOT, *argv],
                              capture_output=True)

    def test_in_process_call_freezes_nothing(self, capsys):
        import gc

        from stratify.cli import main

        before = gc.get_freeze_count()
        assert main(["lattice", "weyl-order", "E2"]) == 0
        assert main(["strata", "--n", "5", "--d", "3"]) == 4
        assert gc.get_freeze_count() == before
        enabled = gc.isenabled()
        try:
            for state in (True, False):  # the caller's collector, on or off
                (gc.enable if state else gc.disable)()
                assert main(["lattice", "roots", "E1"]) == 0
                assert main(["strata", "--n", "5", "--d", "3"]) == 4
                assert gc.isenabled() is state
        finally:
            (gc.enable if enabled else gc.disable)()
        capsys.readouterr()

    def test_program_writes_the_bytes_of_the_in_process_call(self, capsys):
        from stratify.cli import main

        assert main(list(self.TORUS)) == 0
        expected = capsys.readouterr().out.encode()
        proc = self.run_program(*self.TORUS)
        assert proc.returncode == 0 and proc.stderr == b""
        assert proc.stdout == expected and len(expected) > 100_000

    def test_atexit_handlers_still_run_after_the_freeze(self):
        prelude = ("import atexit, gc; "
                   "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, "
                   "'collector on', gc.isenabled())); ")
        proc = self.run_program("lattice", "weyl-order", "E2", prelude=prelude)
        assert proc.returncode == 0
        assert proc.stdout.decode().splitlines() == ["24", "frozen True collector on False"]

    def test_resource_cap_still_exits_4(self):
        proc = self.run_program("strata", "--n", "5", "--d", "3")
        assert proc.returncode == 4 and proc.stdout == b""
        assert json.loads(proc.stderr)["error"] == "resource-cap"
