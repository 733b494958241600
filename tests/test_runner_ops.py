"""Coverage for scenario ops not exercised by the built-in pipelines."""

import collections
import re
import time

import pytest

from stratify.runner import ScenarioCheckError, ScenarioParseError, load_scenario, run_scenario


def run_steps(steps, order=8):
    return run_scenario({"name": "adhoc", "order": order, "steps": steps})


def value_of(report, step_id):
    return next(s["value"] for s in report.steps if s["id"] == step_id)


def test_gf_expand_op():
    rep = run_steps([
        {"id": "a", "op": "gf_expand", "args": {"factors": [[2, 1], [4, 1]]},
         "expect": {"kind": "series", "order": 8,
                    "triples": [[0, 1, 1], [2, 1, 1], [4, 2, 1], [6, 2, 1], [8, 3, 1]]}}])
    assert value_of(rep, "a")["order"] == 8


def test_duality_check_op():
    rep = run_steps([
        {"id": "t", "op": "projective_table", "args": {"dim": 2}},
        {"id": "chk", "op": "duality_check", "args": {"table": "$t"}}])
    assert value_of(rep, "chk")["ok"] is True


def test_wreath_op():
    rep = run_steps([
        {"id": "t", "op": "projective_table", "args": {"dim": 1}},
        {"id": "w", "op": "wreath_symmetrize", "args": {"value": "$t", "n": 3},
         "expect": {"kind": "betti_table", "complex_dim": 3,
                    "even": [1, 1, 1, 1], "odd": [0, 0, 0]}}])
    assert value_of(rep, "w")["complex_dim"] == 3


def test_named_lattice_and_glue_ops():
    rep = run_steps([
        {"id": "lat", "op": "named_lattice", "args": {"name": "E1"}},
        {"id": "z", "op": "z_form", "args": {"lattice": "$lat"}},
        {"id": "g", "op": "glue_overlattice", "args": {"lattice": "$z", "glue": []},
         "expect": {"index": 1, "even": True, "invariant_factors": [3]}}])
    assert value_of(rep, "g")["index"] == 1


@pytest.mark.parametrize("lattice, glue, message", [
    ("$z", [["1/3"]], r"'glue\[0\]' must be a vector of length 2, the lattice rank"),
    ("$z", [["1/3", "1/3", "0"]], r"'glue\[0\]' must be a vector of length 2, the lattice rank"),
    ("$z", [[], ["1/3", "1/3"]], r"'glue\[0\]' must be a vector of length 2, the lattice rank"),
    ("$lat", [["1/3"]], "'lattice' must be a Z-lattice"),
])
def test_glue_op_checks_its_arguments(lattice, glue, message):
    with pytest.raises(ScenarioParseError, match=message) as info:
        run_steps([
            {"id": "lat", "op": "named_lattice", "args": {"name": "E1"}},
            {"id": "z", "op": "z_form", "args": {"lattice": "$lat"}},
            {"id": "g", "op": "glue_overlattice", "args": {"lattice": lattice, "glue": glue}}])
    assert "step 'g'" in str(info.value)


def test_unknown_lattice_is_parse_error():
    with pytest.raises(ScenarioParseError,
                       match=r"step 'lat': argument 'name' must be a lattice name, one of "
                             r"'E1', .*, got 'E99'"):
        run_steps([{"id": "lat", "op": "named_lattice", "args": {"name": "E99"}}])


WS = {"id": "ws", "op": "hypersurface_weights", "args": {"n": 1, "d": 4}}
SPLIT = [{"id": "f", "op": "parse_poly", "args": {"text": "x0^2*x1^2", "nvars": 2}},
         {"id": "sp", "op": "normal_rep_of", "args": {"form": "$f", "cocharacters": [[1, -1]]}}]


@pytest.mark.parametrize("steps, message", [
    ([WS, {"id": "s", "op": "instability_index_set", "args": {"weights": "$ws", "weyl": [1]}}],
     r"argument 'weyl' must be one of 'sym', 'trivial', got \[1\]"),
    ([WS, {"id": "s", "op": "instability_index_set", "args": {"weights": "$ws", "weyl": "x"}}],
     r"argument 'weyl' must be one of 'sym', 'trivial', got 'x'"),
    (SPLIT + [{"id": "s", "op": "normal_rep_strata", "args": {"rep": "$sp", "group": "sym"}}],
     r"argument 'group' must be one of 'torus', 'pgl2', got 'sym'"),
    (SPLIT + [{"id": "s", "op": "normal_rep_strata", "args": {"rep": "$sp"}}],
     r"needs argument 'group'"),
    ([{"id": "s", "op": "close_group", "args": {"ring": "X", "generators": [[[1]]]}}],
     r"argument 'ring' must be one of 'Q', 'E', got 'X'"),
    ([{"id": "s", "op": "weyl_fiber_count",
       "args": {"strata": [], "beta": [0], "stabilizer_weyl": "flip"}}],
     r"argument 'stabilizer_weyl' must be one of 'sign', got 'flip'"),
    ([{"id": "s", "op": "weyl_group", "args": {"lattice": "E9"}}],
     r"argument 'lattice' must be a lattice name, one of 'E1', .*, got 'E9'"),
    ([{"id": "s", "op": "boundary_betti", "args": {"spec": {"factors": [{"lattice": "E9"}]}}}],
     r"spec.factors\[0\]: argument 'lattice' must be a lattice name, one of 'E1'"),
    ([{"id": "s", "op": "classifying_series", "args": {"group": "SO", "n": 2}}],
     r"argument 'group' must be one of 'SL', 'PGL', 'GL', 'torus', 'mu', got 'SO'"),
    ([{"id": "s", "op": "declare", "args": {"kind": "float", "value": 1},
       "facts": [{"cite": "unit test"}]}],
     r"argument 'kind' must be one of 'series', 'betti_table', 'int', 'raw', got 'float'"),
    ([{"id": "s", "op": "declare", "args": {"kind": "int", "value": [1]},
       "facts": [{"cite": "unit test"}]}],
     r"argument 'value' must be an integer, got \[1\]"),
])
def test_bad_choice_values_are_parse_errors(steps, message):
    with pytest.raises(ScenarioParseError, match=message) as info:
        run_steps(steps)
    assert "step 's'" in str(info.value)


def test_choice_values_are_read():
    rep = run_steps(SPLIT + [
        {"id": "bt", "op": "normal_rep_strata", "args": {"rep": "$sp", "group": "torus"}},
        {"id": "w", "op": "weyl_fiber_count",
         "args": {"strata": "$bt", "beta": [-2, 2], "stabilizer_weyl": "sign"}, "expect": 1},
        {"id": "w0", "op": "weyl_fiber_count",
         "args": {"strata": "$bt", "beta": [-2, 2], "stabilizer_weyl": None}, "expect": 2},
        {"id": "c", "op": "classifying_series", "args": {"group": "mu"}}])
    assert value_of(rep, "w") == 1 and value_of(rep, "w0") == 2


@pytest.mark.parametrize("steps, message", [
    ([{"id": "s", "op": "parse_poly", "args": {"text": 5, "nvars": 2}}],
     r"argument 'text' must be a polynomial in x0..x1, got 5"),
    ([{"id": "s", "op": "parse_poly", "args": {"text": "x", "nvars": 2}}],
     r"argument 'text' must be a polynomial in x0..x1 \(cannot parse term 'x'\), got 'x'"),
    ([{"id": "s", "op": "parse_poly", "args": {"text": "x2", "nvars": 2}}],
     r"argument 'text' must be a polynomial in x0..x1 \(variable x2 out of range"),
    ([{"id": "s", "op": "parse_poly", "args": {"text": "x0", "nvars": 0}}],
     r"argument 'nvars' must be an integer >= 1, got 0"),
    ([{"id": "s", "op": "normal_rep_of", "args": {"form": "x0", "cocharacters": [[1]]}}],
     r"argument 'form' must be a polynomial, got 'x0'"),
    (SPLIT[:1] + [{"id": "s", "op": "normal_rep_of", "args": {"form": "$f", "cocharacters": 5}}],
     r"argument 'cocharacters' must be a matrix \(a list of rows\), got 5"),
    (SPLIT[:1] + [{"id": "s", "op": "normal_rep_of", "args": {"form": "$f", "cocharacters": []}}],
     r"argument 'cocharacters' must be a nonempty list of vectors of length 2, got \[\]"),
    (SPLIT[:1] + [{"id": "s", "op": "normal_rep_of",
                   "args": {"form": "$f", "cocharacters": [[1, -1, 0]]}}],
     r"argument 'cocharacters' must be a nonempty list of vectors of length 2"),
    (SPLIT[:1] + [{"id": "s", "op": "normal_rep_of",
                   "args": {"form": "$f", "cocharacters": [[1, -1]], "extra_tangents": 5}}],
     r"argument 'extra_tangents' must be a list, got 5"),
    (SPLIT[:1] + [{"id": "s", "op": "normal_rep_of",
                   "args": {"form": "$f", "cocharacters": [[1, -1]], "extra_tangents": [1]}}],
     r"argument 'extra_tangents\[0\]' must be a polynomial in x0..x1, got 1"),
    (SPLIT[:1] + [{"id": "s", "op": "check_semiinvariant", "args": {"form": 5, "matrix": [[1]]}}],
     r"argument 'form' must be a polynomial, got 5"),
    (SPLIT[:1] + [{"id": "s", "op": "check_semiinvariant", "args": {"form": "$f", "matrix": [[1]]}}],
     r"argument 'matrix' must be a 2 x 2 matrix, one row per variable, got \[\[1\]\]"),
    ([{"id": "s", "op": "semistable_series",
       "args": {"ambient_dim": 2, "bsl_exponents": 5, "strata": []}}],
     r"argument 'bsl_exponents' must be a list, got 5"),
    ([{"id": "s", "op": "semistable_series",
       "args": {"ambient_dim": 2, "bsl_exponents": [2, "x"], "strata": []}}],
     r"argument 'bsl_exponents\[1\]' must be an integer >= 1, got 'x'"),
    ([{"id": "s", "op": "semistable_series",
       "args": {"ambient_dim": 2, "bsl_exponents": [0], "strata": []}}],
     r"argument 'bsl_exponents\[0\]' must be an integer >= 1, got 0"),
    # a close_group result carries no form, so the step must give one
    ([{"id": "g", "op": "close_group", "args": {"ring": "E", "generators": [[[[0, 1]]]]}},
      {"id": "s", "op": "abelian_quotient_betti", "args": {"group": "$g", "rank": 1}}],
     r"argument 'form' must be a 1 x 1 hermitian form, as the group carries none, got None"),
])
def test_bad_orbit_and_semistable_arguments_are_parse_errors(steps, message):
    with pytest.raises(ScenarioParseError, match=message) as info:
        run_steps(steps)
    assert "step 's'" in str(info.value)


def test_extra_tangents_accept_text_and_polynomials():
    rep = run_steps(SPLIT[:1] + [
        {"id": "t", "op": "parse_poly", "args": {"text": "x0^4", "nvars": 2}},
        {"id": "a", "op": "normal_rep_of",
         "args": {"form": "$f", "cocharacters": [[1, -1]], "extra_tangents": ["x0^4"]}},
        {"id": "b", "op": "normal_rep_of",
         "args": {"form": "$f", "cocharacters": [["1/2", "-1/2"]], "extra_tangents": ["$t"]}}])
    assert value_of(rep, "a")["span_dim"] == value_of(rep, "b")["span_dim"]


def test_assert_true_op():
    rep = run_steps([
        {"id": "v", "op": "verify_cusp_vector", "args": {}},
        {"id": "a", "op": "assert_true", "args": {"value": "$v"}}])
    assert value_of(rep, "a") is True


def test_assert_true_rejects_failed_check():
    with pytest.raises(ScenarioCheckError):
        run_steps([
            {"id": "p", "op": "parse_poly", "args": {"text": "x0^3", "nvars": 3}},
            {"id": "f", "op": "check_semiinvariant",
             "args": {"form": "$p", "matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]}},
            {"id": "a", "op": "assert_true", "args": {"value": "$f"}}])


@pytest.mark.parametrize("value", ["false", "no", [0], {"ok": "no"}])
def test_assert_true_takes_only_a_boolean(value):
    with pytest.raises(ScenarioParseError,
                       match=r"step 'a': argument 'value' must be a boolean") as info:
        run_steps([{"id": "a", "op": "assert_true", "args": {"value": value}}])
    assert repr(value) in str(info.value)


def test_assert_true_false_is_a_check_failure():
    with pytest.raises(ScenarioCheckError, match="assertion failed at step 'a'"):
        run_steps([{"id": "a", "op": "assert_true", "args": {"value": False}}])


def test_assert_nonpositive_rejects_positive():
    with pytest.raises(ScenarioCheckError):
        run_steps([
            {"id": "s", "op": "projective_series", "args": {"dim": 1}},
            {"id": "a", "op": "assert_nonpositive", "args": {"series": "$s"}}])


def test_molien_over_eisenstein_ring():
    # cyclotomic entries are lifted to exact field arithmetic
    rep = run_steps([
        {"id": "g", "op": "close_group", "args": {"ring": "E",
         "generators": [[[[0, 1]]]]}},
        {"id": "m", "op": "molien", "args": {"group": "$g", "degree": 2},
         "expect": {"kind": "series", "order": 8,
                    "triples": [[0, 1, 1], [6, 1, 1]]}}])
    assert value_of(rep, "m")["triples"][1] == [6, 1, 1]


def test_eisenstein_generators_accept_integer_entries():
    # an integer entry is a + 0*omega, as in a boundary spec's generators
    rep = run_steps([
        {"id": "g", "op": "close_group", "args": {"ring": "E", "generators": [[[1]], [[-1]]]}},
        {"id": "n", "op": "group_order", "args": {"group": "$g"}, "expect": 2}])
    assert value_of(rep, "g")["ring"] == "E"


def test_declare_kinds():
    rep = run_steps([
        {"id": "s", "op": "declare",
         "args": {"kind": "series", "value": [[0, 1], [2, 3]]},
         "facts": [{"statement": "test literal", "cite": "unit test"}]},
        {"id": "n", "op": "declare", "args": {"kind": "int", "value": 7},
         "facts": [{"statement": "test literal", "cite": "unit test"}]}])
    assert value_of(rep, "n") == 7
    assert value_of(rep, "s")["triples"] == [[0, 1, 1], [2, 3, 1]]


OMEGA_GROUP = {"id": "g", "op": "close_group", "args": {"ring": "E", "generators": [[[[0, 1]]]]}}
P1_TABLE = {"id": "t", "op": "projective_table", "args": {"dim": 1}}


@pytest.mark.parametrize("step, message", [
    ({"op": "hypersurface_weights", "args": {"n": 4}}, "needs argument 'd'"),
    ({"op": "wreath_symmetrize", "args": {"n": 2}}, "needs argument 'value'"),
    ({"op": "hypersurface_weights", "args": {"n": "4", "d": 3}}, "'n' must be an integer"),
    ({"op": "hypersurface_weights", "args": {"n": True, "d": 3}}, "'n' must be an integer"),
    ({"op": "projective_series", "args": {"dim": 2.0}}, "'dim' must be an integer"),
    ({"op": "projective_series", "args": {"dim": 2, "order": "6"}}, "'order' must be an integer"),
    ({"op": "codim_census", "args": {"strata": [], "up_to": [3]}}, "'up_to' must be an integer"),
    ({"op": "extra_term", "args": {"items": [{"weyl_share": 1}]}}, "needs argument 'codim'"),
    ({"op": "extra_term", "args": {"items": [{"codim": "2"}]}}, "'codim' must be an integer"),
    ({"op": "boundary_betti", "args": {"spec": {"factors": [{"lattice": "E1", "count": "3"}]}}},
     r"spec.factors\[0\]: argument 'count' must be an integer"),
    ({"op": "boundary_betti", "args": {"spec": {"factors": [{"lattice": "E1", "count": 0}]}}},
     r"spec.factors\[0\]: argument 'count' must be an integer >= 1"),
    ({"op": "boundary_betti", "args": {"spec": {"factors": [{"group": "weyl"}]}}},
     r"spec.factors\[0\] needs argument 'lattice'"),
    ({"op": "boundary_betti", "args": {"spec": {"factors": [
        {"lattice": "E1", "group": {"generators": [[[1.5]]]}}]}}},
     r"spec.factors\[0\].group: argument 'generators\[0\]' must be a square matrix"),
    ({"op": "gf_expand", "args": {"factors": [[2, "1"]]}},
     r"argument 'factors\[0\]' must be an integer pair"),
    ({"op": "lincomb", "args": {"terms": [[1, [[0, 1]]]]}},
     r"argument 'terms\[0\]' must be a list \[coefficient, integer shift, series\]"),
    ({"op": "lincomb", "args": {"terms": [["z", 0, 1]]}},
     r"argument 'terms\[0\]' must be a rational"),
    ({"op": "series_product", "args": {"factors": [[[0]]]}},
     r"argument 'factors\[0\]' must be a series"),
    ({"op": "series_product", "args": {"factors": [[["0", 1]]]}},
     r"argument 'factors\[0\]' must be a series"),
    ({"op": "series_product", "args": {"factors": [1, [[-1, 1]]]}},
     r"argument 'factors\[1\]' must be a series"),
    ({"op": "series_product", "args": {"factors": [[[0, 1, 0]]]}},
     r"argument 'factors\[0\]' must be a series"),
    ({"op": "series_product", "args": {"factors": [
        {"kind": "series", "order": "4", "triples": []}]}},
     r"argument 'factors\[0\]' must be a series"),
    ({"op": "series_product", "args": {"factors": [
        {"kind": "series", "order": 4, "triples": [[6, 1, 1]]}]}},
     r"argument 'factors\[0\]' must be a series"),
    ({"op": "wreath_symmetrize", "args": {"value": "x", "n": 2}},
     r"argument 'value' must be a series"),
    ({"op": "check_semiinvariant", "args": {"form": "x0", "matrix": [["a"]]}},
     r"argument 'matrix' must be a rational"),
    ({"op": "check_semiinvariant", "args": {"form": "x0", "matrix": [1]}},
     r"argument 'matrix' must be a matrix"),
    ({"op": "weyl_fiber_count", "args": {"strata": [], "beta": ["1/0"]}},
     r"argument 'beta' must be a rational"),
    ({"op": "close_group", "args": {"ring": "E", "generators": [[[[1, 2, 3]]]]}},
     r"argument 'generators\[0\]' must be a square matrix of integers or \[a, b\] pairs"),
    ({"op": "close_group", "args": {"generators": [[[1, 2]]]}},
     r"argument 'generators\[0\]' must be a square matrix, got \[\[1, 2\]\]"),
    ({"op": "weyl_group", "args": {"lattice": "E3", "cap": 10}},
     r"op 'weyl_group' has no argument 'cap'"),
    ({"op": "molien", "args": {"group": [], "degree": 2, "ordr": 2}},
     r"op 'molien' has no argument 'ordr'"),
    ({"op": "boundary_betti", "args": {"spec": {"factors": [{"lattice": "E1", "cuont": 2}]}}},
     r"spec.factors\[0\] has no field 'cuont'"),
    ({"op": "boundary_betti", "args": {"spec": {"factors": [], "extra_lines": 1}}},
     r"spec has no field 'extra_lines'"),
    ({"op": "boundary_betti", "args": {"spec": {"factors": [
        {"lattice": "E1", "group": {"generators": [], "ring": "E"}}]}}},
     r"spec.factors\[0\].group has no field 'ring'"),
    ({"op": "extra_term", "args": {"items": [{"codim": 2, "weyl_shar": 3}]}},
     r"items\[0\] has no field 'weyl_shar'"),
    ({"op": "semistable_series", "args": {"ambient_dim": 2, "bsl_exponents": [],
                                          "strata": [{"codim": 1, "seres": 1}]}},
     r"strata\[0\] has no field 'seres'"),
    ({"op": "declare", "args": {"kind": "betti_table", "value": {"complex_dim": "1"}},
      "facts": [{"cite": "unit test"}]},
     r"value: argument 'complex_dim' must be an integer >= 0"),
    ({"op": "declare", "args": {"kind": "betti_table",
                                "value": {"complex_dim": 1, "even": [1, 1, 1]}},
      "facts": [{"cite": "unit test"}]},
     r"value: argument 'even' must be a list of at most 2 integers"),
    ({"op": ["declare"]}, "'op' must be a string"),
    ({"op": {"declare": 1}}, "'op' must be a string"),
    ({"op": "declare", "args": {"kind": "int", "value": 1}, "facts": ["nope"]},
     "'facts' must be a list of objects"),
    ({"op": "declare", "args": {"kind": "int", "value": 1}, "facts": "nope"},
     "'facts' must be a list of objects"),
    ({"op": "declare", "args": {"kind": "int", "value": 1}, "facts": 5},
     "'facts' must be a list of objects"),
    ({"op": "z_form", "args": {"lattice": 5}},
     r"argument 'lattice' must be an Eisenstein lattice, got 5"),
    ({"op": "root_count", "args": {"lattice": 5}},
     r"argument 'lattice' must be an Eisenstein lattice or a Z-lattice, got 5"),
    ({"op": "discriminant_form", "args": {"lattice": [[2]]}},
     r"argument 'lattice' must be an Eisenstein lattice or a Z-lattice"),
    ({"op": "weyl_group", "args": {"lattice": 5}},
     r"argument 'lattice' must be an Eisenstein lattice, got 5"),
    ({"op": "glue_diagonal_norm12", "args": {"lattice": "E3"}},
     r"argument 'lattice' must be a Z-lattice"),
    ({"op": "verify_strata_oracle", "args": {"weights": [[1], [-1]], "strata": [1]}},
     r"argument 'strata\[0\]' must be a stratum, got 1"),
    ({"op": "maximal_support_report", "args": {"weights": [[1], [-1]], "strata": [1]}},
     r"argument 'strata\[0\]' must be a stratum, got 1"),
    ({"op": "min_nonzero_codim", "args": {"strata": 5}},
     r"argument 'strata' must be a list, got 5"),
    ({"op": "mark_nonempty", "args": {"strata": [{"beta": [0]}]}, "facts": [{"cite": "unit test"}]},
     r"argument 'strata\[0\]' must be a stratum"),
    ({"op": "instability_index_set", "args": {"weights": 5}},
     r"argument 'weights' must be a weight system, got 5"),
    ({"op": "maximal_support_report", "args": {"weights": 5, "strata": []}},
     r"argument 'weights' must be a weight system, got 5"),
    ({"op": "verify_strata_oracle", "args": {"weights": 5, "strata": []}},
     r"argument 'weights' must be a weight system or a normal representation or a "
     r"tangent-normal split, got 5"),
    ({"op": "verify_strata_oracle", "args": {"weights": [5], "strata": []}},
     r"argument 'weights' must be a matrix \(a list of rows\)"),
    ({"op": "verify_strata_oracle", "args": {"weights": [[1], [1, 2]], "strata": []}},
     r"argument 'weights' must be a list of equally long vectors"),
    ({"op": "normal_rep_strata", "args": {"rep": 5, "group": "torus"}},
     r"argument 'rep' must be a normal representation or a tangent-normal split, got 5"),
    ({"op": "split_summary", "args": {"split": 5}},
     r"argument 'split' must be a tangent-normal split, got 5"),
    ({"op": "b_shift", "args": {"table": 5}}, r"argument 'table' must be a Betti table, got 5"),
    ({"op": "duality_check", "args": {"table": 5}},
     r"argument 'table' must be a Betti table, got 5"),
    ({"op": "blowup_correction", "args": {"exceptional": 5, "dim": 2}},
     r"argument 'exceptional' must be a Betti table, got 5"),
    ({"op": "betti_product", "args": {"tables": []}},
     r"argument 'tables' must be a nonempty list, got \[\]"),
    ({"op": "betti_product", "args": {"tables": 5}}, r"argument 'tables' must be a list, got 5"),
    ({"op": "betti_product", "args": {"tables": [5]}},
     r"argument 'tables\[0\]' must be a Betti table, got 5"),
    ({"op": "group_order", "args": {"group": 5}},
     r"argument 'group' must be a matrix group, got 5"),
    ({"op": "molien", "args": {"group": 5, "degree": 2}},
     r"argument 'group' must be a matrix group, got 5"),
    ({"op": "abelian_quotient_betti", "args": {"group": 5, "rank": 1}},
     r"argument 'group' must be a matrix group, got 5"),
    ({"op": "mark_nonempty", "args": {"strata": [], "codims": 5}, "facts": [{"cite": "unit test"}]},
     r"argument 'codims' must be a list, got 5"),
    ({"op": "named_lattice", "args": {"name": [1]}}, r"argument 'name' must be a lattice name"),
    ({"op": "mark_nonempty", "args": {"strata": [], "codims": [[1]]},
      "facts": [{"cite": "unit test"}]},
     r"argument 'codims\[0\]' must be an integer, got \[1\]"),
    ({"op": "mark_nonempty", "args": {"strata": [], "codims": [2, {"a": 1}]},
      "facts": [{"cite": "unit test"}]},
     r"argument 'codims\[1\]' must be an integer, got \{'a': 1\}"),
    ({"op": "lincomb", "args": {"terms": [[1, -1, [[0, 2], [2, 1]]]], "order": 6}},
     r"argument 'terms\[0\]' must be a list \[coefficient, integer shift >= 0, series\], "
     r"got \[1, -1, "),
    # generators of different sizes
    ({"op": "close_group", "args": {"generators": [[[1, 0], [0, 1]], [[1]]]}},
     r"argument 'generators\[1\]' must be a 2 x 2 matrix like generators\[0\], got \[\[1\]\]"),
    ({"op": "close_group", "args": {"ring": "E", "generators": [[[1, 0], [0, 1]], [[1]]]}},
     r"argument 'generators\[1\]' must be a 2 x 2 matrix like generators\[0\], got \[\[1\]\]"),
    # a JSON boolean is not a rational, although a Python bool is an int
    ({"op": "close_group", "args": {"generators": [[[True]]]}},
     r"argument 'generators\[0\]' must be a rational: .*, got True"),
    ({"op": "lincomb", "args": {"terms": [[True, 0, [[0, 1]]]]}},
     r"argument 'terms\[0\]' must be a rational: .*, got True"),
    ({"op": "weyl_fiber_count", "args": {"strata": [], "beta": [True, -1]}},
     r"argument 'beta' must be a rational: .*, got True"),
    ({"op": "weyl_fiber_count", "args": {"strata": [], "beta": [[1, False]]}},
     r"argument 'beta' must be a rational: .*, got \[1, False\]"),
    # a value that is not JSON, in a dict document
    ({"op": "declare", "args": {"kind": "raw", "value": 1.5}, "facts": [{"cite": "unit test"}],
      "expect": 1.5}, r"value is not JSON: cannot serialize float"),
    ({"op": "declare", "args": {"kind": "raw", "value": 1.5}, "facts": [{"cite": "unit test"}]},
     r"value is not JSON: cannot serialize float"),
    # out-of-range contributions and classifying ranks are read as such
    ({"op": "semistable_series", "args": {"ambient_dim": 3, "bsl_exponents": [2],
                                          "strata": [{"codim": 0}]}},
     r"strata\[0\]: argument 'codim' must be an integer >= 1, got 0"),
    ({"op": "extra_term", "args": {"items": [{"codim": 2, "weyl_share": 0}]}},
     r"items\[0\]: argument 'weyl_share' must be an integer >= 1, got 0"),
    ({"op": "extra_term", "args": {"items": [{"codim": -1, "weyl_share": 2}]}},
     r"items\[0\]: argument 'codim' must be an integer >= 1, got -1"),
    ({"op": "classifying_series", "args": {"group": "SL", "n": -1}},
     r"argument 'n' must be an integer >= 0, got -1"),
    # out-of-range dimensions, factors and ranks are read as such
    ({"op": "projective_series", "args": {"dim": -1}},
     r"argument 'dim' must be an integer >= 0, got -1"),
    ({"op": "projective_table", "args": {"dim": -1}},
     r"argument 'dim' must be an integer >= 0, got -1"),
    ({"op": "duality_complete", "args": {"series": 1, "dim": -1}},
     r"argument 'dim' must be an integer >= 0, got -1"),
    ({"op": "semistable_series", "args": {"ambient_dim": -1, "bsl_exponents": [2]}},
     r"argument 'ambient_dim' must be an integer >= 0, got -1"),
    ({"op": "gf_expand", "args": {"factors": [[2, 1], [0, 1]]}},
     r"argument 'factors\[1\]' must be an integer pair \[period >= 1, multiplicity >= 1\], "
     r"got \[0, 1\]"),
    ({"op": "gf_expand", "args": {"factors": [[2, 0]]}},
     r"argument 'factors\[0\]' must be an integer pair \[period >= 1, multiplicity >= 1\], "
     r"got \[2, 0\]"),
    ({"op": "main_term", "args": {"center_series": 1, "normal_rank": 1}},
     r"argument 'normal_rank' must be an integer >= 2, got 1"),
    # no generators, or no boundary factors, is malformed input, not a failed check
    ({"op": "close_group", "args": {"generators": []}},
     r"argument 'generators' must be a nonempty list of matrices, got \[\]"),
    ({"op": "boundary_betti", "args": {"spec": {"factors": []}}},
     r"spec: argument 'factors' must be a nonempty list of factors, got \[\]"),
    # after the steps it reads: a quotient's rank is the dimension of its group
    ([OMEGA_GROUP, {"op": "abelian_quotient_betti",
                    "args": {"group": "$g", "rank": 2, "form": [[3, 0], [0, 3]]}}],
     r"argument 'rank' must be 1, the dimension of its group, got 2"),
    # a boundary factor's generators are read as close_group's, sized to the lattice's rank
    ({"op": "boundary_betti", "args": {"spec": {"factors": [
        {"lattice": "E1", "group": {"generators": []}}]}}},
     r"spec.factors\[0\].group: argument 'generators' must be a nonempty list of matrices"),
    ({"op": "boundary_betti", "args": {"spec": {"factors": [
        {"lattice": "E3", "group": {"generators": [[[1, 0], [0, 1]]]}}]}}},
     r"spec.factors\[0\].group: argument 'generators\[0\]' must be a 3 x 3 matrix, got"),
    ({"op": "boundary_betti", "args": {"spec": {"factors": [
        {"lattice": "E3", "group": {"generators": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1]]]}}]}}},
     r"spec.factors\[0\].group: argument 'generators\[1\]' must be a 3 x 3 matrix, "
     r"got \[\[1\]\]"),
    ({"op": "boundary_betti", "args": {"spec": {"factors": [{"lattice": "E1"}],
                                                "extra_projective_lines": 1}}},
     r"spec has no field 'extra_projective_lines'"),
    # a table factor stands in place of a lattice and its group
    ([P1_TABLE, {"op": "boundary_betti", "args": {"spec": {"factors": [
        {"table": "$t", "lattice": "E1"}]}}}],
     r"spec.factors\[0\] has no field 'lattice'"),
    ([P1_TABLE, {"op": "boundary_betti", "args": {"spec": {"factors": [
        {"table": "$t", "group": "weyl"}]}}}],
     r"spec.factors\[0\] has no field 'group'"),
    ([{"id": "t", "op": "projective_series", "args": {"dim": 1}},
      {"op": "boundary_betti", "args": {"spec": {"factors": [{"table": "$t"}]}}}],
     r"spec.factors\[0\]: argument 'table' must be a Betti table, got"),
    ({"op": "boundary_betti", "args": {"spec": {"factors": [
        {"table": {"complex_dim": 1, "even": [1, 1]}}]}}},
     r"spec.factors\[0\]: argument 'table' must be a Betti table, got"),
    # a cap or a budget below 1 is malformed input; null is the layer's default
    ({"op": "close_group", "args": {"generators": [[[1]]], "cap": -1}},
     r"argument 'cap' must be an integer >= 1, got -1"),
    ([{"id": "w", "op": "hypersurface_weights", "args": {"n": 3, "d": 3}},
      {"op": "instability_index_set", "args": {"weights": "$w", "budget": -1}}],
     r"argument 'budget' must be an integer >= 1, got -1"),
])
def test_bad_step_arguments_are_parse_errors(step, message):
    *before, step = step if isinstance(step, list) else [step]
    with pytest.raises(ScenarioParseError, match=message) as info:
        run_steps([*before, {"id": "s", **step}])
    assert "step 's'" in str(info.value)


@pytest.mark.parametrize("group", ["SL", "GL", "torus", "mu"])
def test_classifying_series_of_rank_zero_is_one(group):
    # the trivial group's classifying space is a point
    rep = run_steps([{"id": "c", "op": "classifying_series", "args": {"group": group}}], order=6)
    assert value_of(rep, "c") == {"kind": "series", "order": 6, "triples": [[0, 1, 1]]}


def test_lincomb_order_above_the_cap_is_a_resource_cap():
    from stratify.strata import ResourceCapError
    with pytest.raises(ResourceCapError, match="exceeds the cap 1000"):
        run_steps([{"id": "s", "op": "lincomb", "args": {"terms": [[1, 10**12, [[0, 1]]]]}}])


@pytest.mark.parametrize("doc, message", [
    ({"name": "x", "notes": "abc"}, "scenario 'notes' must be a list of strings"),
    ({"name": "x", "notes": ["a", 1]}, "scenario 'notes' must be a list of strings"),
    ({"name": ["x"]}, "scenario 'name' and 'description' must be strings"),
    ({"name": "x", "description": 5}, "scenario 'name' and 'description' must be strings"),
    # an output is one "$id" reference, checked before the first step runs
    ({"name": "x", "outputs": {"a": "s"}}, r"""^output 'a' must be a "\$id" reference, got 's'$"""),
    ({"name": "x", "outputs": {"a": 5}}, r"""^output 'a' must be a "\$id" reference, got 5$"""),
    ({"name": "x", "outputs": {"a": ["$s"]}},
     r"""^output 'a' must be a "\$id" reference, got \['\$s'\]$"""),
    ({"name": "x", "outputs": {1: "$s"}}, r"""^output 1 must be a "\$id" reference, got '\$s'$"""),
    ({"name": "x", "outputs": {"a": "$t"}}, r"^reference to unknown step 't'$"),
    # a label is a CSV cell and a LaTeX array row: it must need no escaping
    *(({"name": "x", "outputs": {label: "$s"}},
       f"^output {re.escape(repr(label))} must be a nonempty name of ASCII letters, "
       "digits and '_'$")
      for label in ["a,b", "line\nbreak", "x&y%z", "", "table one", "\u00e9", "a-b"]),
])
def test_scenario_name_description_and_notes_are_typed(doc, message):
    steps = [{"id": "s", "op": "projective_series", "args": {"dim": 1}}]
    with pytest.raises(ScenarioParseError, match=message):
        run_scenario({**doc, "steps": steps})


def test_series_literal_forms():
    rep = run_steps([
        {"id": "s", "op": "series_product", "args": {"factors": [
            [[0, 1], [2, 1, 2], [9, 5]],
            {"kind": "series", "order": 8, "triples": [[0, 1, 1], [4, -1, 3]]}]},
         "expect": {"kind": "series", "order": 8,
                    "triples": [[0, 1, 1], [2, 1, 2], [4, -1, 3], [6, -1, 6]]}}])
    assert value_of(rep, "s")["order"] == 8


def test_wreath_count_cap():
    from stratify.strata import ResourceCapError
    with pytest.raises(ResourceCapError, match="exceeds the cap 12"):
        run_steps([{"id": "w", "op": "wreath_symmetrize", "args": {"value": 1, "n": 13}}])
    rep = run_steps([{"id": "w", "op": "wreath_symmetrize", "args": {"value": 1, "n": 12}}])
    assert value_of(rep, "w")["triples"] == [[0, 1, 1]]


def test_boundary_spec_fields_pass_through():
    rep = run_steps([
        {"id": "lat", "op": "named_lattice", "args": {"name": "E1"}},
        P1_TABLE,
        {"id": "b", "op": "boundary_betti", "args": {"spec": {
            "factors": [{"lattice": "$lat", "group": {"generators": [[[[0, 1]]], [[-1]]]},
                         "count": 2}, {"table": "$t"}]}},
         "expect": {"kind": "betti_table", "complex_dim": 3,
                    "even": [1, 2, 2, 1], "odd": [0, 0, 0]}}])
    assert value_of(rep, "b")["complex_dim"] == 3


def test_table_factor_over_the_cap_runs_no_wreath(monkeypatch):
    # the product's dimension, 2 x 300, is held to the cap before any factor runs
    from stratify import invariants
    from stratify.strata import ResourceCapError

    def never(*args):
        raise AssertionError("a wreath ran")

    monkeypatch.setattr(invariants, "wreath_symmetrize", never)
    with pytest.raises(ResourceCapError, match="truncation order 1200 exceeds the cap 1000"):
        run_steps([{"id": "p", "op": "projective_table", "args": {"dim": 300}},
                   {"id": "b", "op": "boundary_betti",
                    "args": {"spec": {"factors": [{"table": "$p", "count": 2}]}}}])


def test_cubic3fold_computes_each_weyl_quotient_once(monkeypatch):
    # the boundary steps read the quotients quot_e3 and quot_e4 as tables:
    # three quotients (E3, E4 and the rank-1 factor) and two Weyl groups
    from stratify import invariants, weyl

    calls = collections.Counter()
    for module, name in ((invariants, "abelian_quotient_betti"),
                         (weyl, "generating_triflections")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)

        monkeypatch.setattr(module, name, counted)
    run_scenario("cubic3fold")
    assert calls == {"abelian_quotient_betti": 3, "generating_triflections": 2}


@pytest.mark.parametrize("step, rank", [
    ({"op": "boundary_betti", "args": {"spec": {"factors": [{"lattice": "3E3"}]}}}, 9),
    ({"op": "boundary_betti", "args": {"spec": {"factors": [
        {"lattice": "E1", "count": 2}, {"lattice": "E1+2E4"}]}}}, 9),
    ({"op": "abelian_quotient_betti", "args": {"group": [], "rank": 6}}, 6),
])
def test_quotient_rank_cap(step, rank):
    from stratify.strata import ResourceCapError
    with pytest.raises(ResourceCapError, match=f"rank {rank} exceeds the cap 5"):
        run_steps([{"id": "q", **step}])


@pytest.mark.parametrize("steps, message", [
    ([{"id": "g", "op": "close_group", "args": {"generators": [[[-1]]]}},
      {"id": "s", "op": "abelian_quotient_betti", "args": {"group": "$g", "rank": 1}}],
     r"argument 'group' must be a matrix group over the Eisenstein integers, "
     r"got one over the rationals"),
    ([OMEGA_GROUP,
      {"id": "s", "op": "abelian_quotient_betti", "args": {"group": "$g", "rank": 1,
                                                            "form": [3, 0]}}],
     r"argument 'form' must be a 1 x 1 matrix of integers or \[a, b\] pairs, got \[3, 0\]"),
    ([OMEGA_GROUP,
      {"id": "s", "op": "abelian_quotient_betti", "args": {"group": "$g", "rank": 1,
                                                            "form": [[3, 0], [0, 3]]}}],
     r"argument 'form' must be a 1 x 1 matrix"),
])
def test_abelian_quotient_group_and_form_are_checked(steps, message):
    with pytest.raises(ScenarioParseError, match=message) as info:
        run_steps(steps)
    assert "step 's'" in str(info.value)


def test_abelian_quotient_form_is_an_eisenstein_gram():
    rep = run_steps([
        OMEGA_GROUP,
        {"id": "q", "op": "abelian_quotient_betti",
         "args": {"group": "$g", "rank": 1, "form": [[[3, 0]]]},
         "expect": {"kind": "betti_table", "complex_dim": 1, "even": [1, 1], "odd": [0]}}])
    assert value_of(rep, "q")["even"] == [1, 1]


@pytest.mark.parametrize("steps, message", [
    ([{"id": "bad", "op": "projective_series", "args": {"dim": "2"}}],
     r"^step 'bad': argument 'dim' must be an integer >= 0, got '2'$"),
    ([{"id": "bad", "op": "b_shift", "args": {"table": "$no_such_step"}}],
     r"^reference to unknown step 'no_such_step'$"),
    ([{"id": "bad", "op": "b_shift", "args": {"table": "$later"}},
      {"id": "later", "op": "projective_table", "args": {"dim": 1}}],
     r"^reference to unknown step 'later'$"),
    ([{"id": "bad", "op": "betti_product", "args": {"tables": ["$tbl_git", "$no_such_step"]}}],
     r"^reference to unknown step 'no_such_step'$"),
])
def test_a_bad_last_step_fails_before_the_first_step_runs(steps, message):
    # the 107 steps of cubic3fold take a quarter of a second to run
    doc = load_scenario("cubic3fold")
    doc["steps"] += steps
    t0 = time.perf_counter()
    with pytest.raises(ScenarioParseError, match=message):
        run_scenario(doc)
    assert time.perf_counter() - t0 < 0.05


def test_an_output_is_checked_before_the_first_step_runs():
    # the step would fail its assertion (exit 2) if it ran
    doc = {"name": "x", "steps": [{"id": "s", "op": "assert_true", "args": {"value": False}}],
           "outputs": {"a": "s"}}
    with pytest.raises(ScenarioParseError, match="output 'a' must be"):
        run_scenario(doc)


@pytest.fixture
def read_counts(monkeypatch):
    """Calls of the argument readers and of `orbits.parse_poly`, by name."""
    from stratify import orbits
    from stratify.stepargs import StepArgs

    calls = collections.Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("polynomial", "boundary_spec", "generators"):
        count(StepArgs, name)
    count(orbits, "parse_poly")
    return calls


def test_each_literal_argument_of_cubicsurf_is_read_once(read_counts):
    run_scenario("cubicsurf")
    # close_group's generators and tbl_t3a2's boundary factor, each read once
    assert read_counts == {"polynomial": 1, "boundary_spec": 1, "generators": 2,
                           "parse_poly": 1}


def test_a_literal_polynomial_is_parsed_once(read_counts):
    run_steps([{"id": "f", "op": "parse_poly", "args": {"text": "x0*x1 + x2^3", "nvars": 3}}])
    assert read_counts == {"polynomial": 1, "parse_poly": 1}


def test_a_literal_that_uses_a_reference_is_read_when_its_step_runs(read_counts):
    rep = run_steps([
        {"id": "n", "op": "declare", "args": {"kind": "int", "value": 2},
         "facts": [{"cite": "unit test"}]},
        {"id": "f", "op": "parse_poly", "args": {"text": "x1^2", "nvars": "$n"}},
        {"id": "g", "op": "check_semiinvariant", "args": {"form": "$f", "matrix": [[1, 0], [0, 2]]},
         "expect": {"ok": True, "scalar": [4, 1]}}])
    assert read_counts == {"polynomial": 1, "parse_poly": 1}
    assert value_of(rep, "g")["ok"] is True


# scenarios whose last step, 'n', has a value holding a 1 or a true
TRIVIAL_GROUP = [
    {"id": "g", "op": "close_group", "args": {"generators": [[[1]]]}},
    {"id": "n", "op": "group_order", "args": {"group": "$g"}}]
DUALITY = [
    {"id": "t", "op": "projective_table", "args": {"dim": 1}},
    {"id": "n", "op": "duality_check", "args": {"table": "$t"}}]
GLUE = [
    {"id": "lat", "op": "named_lattice", "args": {"name": "E1"}},
    {"id": "z", "op": "z_form", "args": {"lattice": "$lat"}},
    {"id": "n", "op": "glue_overlattice", "args": {"lattice": "$z", "glue": []}}]
SERIES = [{"id": "n", "op": "projective_series", "args": {"dim": 1}}]


@pytest.mark.parametrize("steps, expect, got", [
    (TRIVIAL_GROUP, True, "1"),
    ([{"id": "n", "op": "assert_true", "args": {"value": True}}], 1, "True"),
    (DUALITY, {"kind": "duality", "ok": 1, "first_offense": None},
     "{'kind': 'duality', 'ok': True, 'first_offense': None}"),
    (GLUE, {"index": True, "even": True, "invariant_factors": [3]},
     "{'even': True, 'index': 1, 'invariant_factors': [3]}"),
    (SERIES, {"kind": "series", "order": 8, "triples": [[0, 1, 1], [2, 1, True]]},
     "{'kind': 'series', 'order': 8, 'triples': [[0, 1, 1], [2, 1, 1]]}"),
], ids=["true_for_1", "1_for_true", "nested_1_for_true", "nested_true_for_1", "true_in_a_list"])
def test_expect_tells_booleans_from_integers(steps, expect, got):
    # in Python True == 1, so a loose comparison would pass each of these
    *head, last = steps
    with pytest.raises(ScenarioCheckError) as info:
        run_steps([*head, {**last, "expect": expect}])
    assert str(info.value) == f"step 'n' mismatch:\n  expected {expect}\n  got      {got}"


class Unequal:
    def __eq__(self, other):
        raise RuntimeError("compared")


@pytest.mark.parametrize("expect", [
    Unequal(), {"index": Unequal(), "even": True, "invariant_factors": [3]},
    {"index": 1, "even": True, "invariant_factors": [Unequal()]},
    {"index": 1.0, "even": True, "invariant_factors": [3]}])
def test_an_expect_value_of_another_type_is_a_mismatch(expect):
    # a dict document may hold any Python value; none is compared
    steps = [*GLUE[:-1], {**GLUE[-1], "expect": expect}]
    with pytest.raises(ScenarioCheckError, match="^step 'n' mismatch:"):
        run_steps(steps)


def test_an_output_label_may_hold_underscores_and_digits():
    doc = {"name": "x", "steps": [{"id": "t", "op": "projective_table", "args": {"dim": 1}}],
           "outputs": {"_": "$t", "IH_2": "$t"}}
    rep = run_scenario(doc)
    assert sorted(rep.tables) == ["IH_2", "_"]
    assert rep.to_csv().splitlines()[1:3] == ["IH_2,0,1", "IH_2,1,0"]
