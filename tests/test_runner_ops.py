"""Coverage for scenario ops not exercised by the built-in pipelines."""

import pytest

from stratify.runner import ScenarioCheckError, ScenarioParseError, run_scenario


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


def test_unknown_lattice_is_check_error():
    with pytest.raises(ScenarioCheckError):
        run_steps([{"id": "lat", "op": "named_lattice", "args": {"name": "E99"}}])


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


def test_declare_kinds():
    rep = run_steps([
        {"id": "s", "op": "declare",
         "args": {"kind": "series", "value": [[0, 1], [2, 3]]},
         "facts": [{"statement": "test literal", "cite": "unit test"}]},
        {"id": "n", "op": "declare", "args": {"kind": "int", "value": 7},
         "facts": [{"statement": "test literal", "cite": "unit test"}]}])
    assert value_of(rep, "n") == 7
    assert value_of(rep, "s")["triples"] == [[0, 1, 1], [2, 3, 1]]


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
])
def test_bad_step_arguments_are_parse_errors(step, message):
    with pytest.raises(ScenarioParseError, match=message) as info:
        run_steps([{"id": "s", **step}])
    assert "step 's'" in str(info.value)


def test_boundary_spec_fields_pass_through():
    rep = run_steps([
        {"id": "lat", "op": "named_lattice", "args": {"name": "E1"}},
        {"id": "b", "op": "boundary_betti", "args": {"spec": {
            "factors": [{"lattice": "$lat", "group": {"generators": [[[[0, 1]]], [[-1]]]},
                         "count": 2}],
            "extra_projective_lines": 1}},
         "expect": {"kind": "betti_table", "complex_dim": 3,
                    "even": [1, 2, 2, 1], "odd": [0, 0, 0]}}])
    assert value_of(rep, "b")["complex_dim"] == 3
