"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is exact (integer equality); the timed criteria
carry their stated wall-clock budgets.
"""

import time
from collections import Counter
from fractions import Fraction

from stratify.eisenstein import E1, E2, E3, E4, weyl_group, z_form
from stratify.invariants import abelian_quotient_betti, close_group, molien
from stratify.orbits import normal_rep_of, parse_poly
from stratify.runner import run_scenario
from stratify.series import duality_check, gf_expand
from stratify.strata import (
    instability_index_set,
    maximal_support_report,
    normal_rep_strata,
    verify_strata_against_oracle,
    weyl_fiber_count,
)
from stratify.weights import hypersurface_weights


def report(n, label):
    print(f"ACCEPTANCE {n:>2}: PASS - {label}")


def series_coeffs(report_obj, step_id):
    steps = {s["id"]: s for s in report_obj.steps}
    triples = steps[step_id]["value"]["triples"]
    order = steps[step_id]["value"]["order"]
    out = [0] * (order + 1)
    for d, num, den in triples:
        assert den == 1
        out[d] = num
    return out


def test_criterion_01_theorem_tables(capsys):
    t0 = time.time()
    rep = run_scenario("cubic3fold")
    elapsed = time.time() - t0
    rows = {k: v.even() for k, v in rep.tables.items()}
    assert rows == {
        "kirwan_blowup": [1, 4, 6, 10, 13, 15, 13, 10, 6, 4, 1],
        "git_quotient_IH": [1, 1, 2, 3, 4, 5, 4, 3, 2, 1, 1],
        "one_point_blowup_IH": [1, 2, 3, 5, 6, 8, 6, 5, 3, 2, 1],
        "baily_borel_IH": [1, 2, 3, 5, 6, 7, 6, 5, 3, 2, 1],
        "toroidal": [1, 4, 6, 10, 13, 15, 13, 10, 6, 4, 1],
    }
    for table in rep.tables.values():
        assert all(b == 0 for b in table.odd())
    assert elapsed < 120, f"scenario took {elapsed:.1f}s, budget 120s"
    with capsys.disabled():
        report(1, f"all five Betti rows exact ({elapsed:.1f}s < 120s)")


def test_criterion_02_semistable_series(cubic3fold_report, capsys):
    assert series_coeffs(cubic3fold_report, "semistable") == [
        1, 0, 1, 0, 2, 0, 3, 0, 5, 0, 6]
    with capsys.disabled():
        report(2, "equivariant semistable series 1+t^2+2t^4+3t^6+5t^8+6t^10")


def test_criterion_03_main_and_extra_terms(cubic3fold_report, capsys):
    expected = {
        "main_chordal": [0, 0, 1, 0, 1, 0, 2, 0, 2, 0, 3],
        "main_3d4": [0, 0, 1, 0, 1, 0, 2, 0, 3, 0, 4],
        "main_2a5": [0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5],
        "extra_chordal": [0] * 11,
        "extra_3d4": [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2],
        "extra_2a5": [0] * 10 + [1],
    }
    for step_id, coeffs in expected.items():
        assert series_coeffs(cubic3fold_report, step_id) == coeffs, step_id
    with capsys.disabled():
        report(3, "three main terms and three extra terms exact mod t^11")


def test_criterion_04_intersection_corrections(cubic3fold_report, capsys):
    expected = {
        "B_chordal": [0, 0, 1, 0, 1, 0, 2, 0, 2, 0, 3],
        "B_3d4": [0, 0, 1, 0, 1, 0, 2, 0, 3, 0, 3],
        "B_2a5": [0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 4],
    }
    for step_id, coeffs in expected.items():
        assert series_coeffs(cubic3fold_report, step_id) == coeffs, step_id
    # the rank-1 case uses shift dimension 8 = dim P(N_x) - dim R
    steps = {s["id"]: s for s in cubic3fold_report.steps}
    assert steps["tbl_ip2a5"]["value"]["complex_dim"] == 8
    with capsys.disabled():
        report(4, "three intersection correction terms exact, shift dim 8 for the pencil case")


def test_criterion_05_stratification_geometry(capsys):
    t0 = time.time()
    ws = hypersurface_weights(4, 3)
    bset = instability_index_set(ws)
    nonzero = [s for s in bset if not s.is_zero()]
    assert min(s.codim_expected for s in nonzero) == 5
    sup = maximal_support_report(ws, bset)
    by_r = sorted((r.r, r.codim_expected) for r in sup)
    assert [r for r, _ in by_r] == [18, 19, 20, 21, 21, 22]
    floors = {18: 7, 19: 6, 20: 6, 22: 6}
    for r, codim in by_r:
        if r in floors:
            assert codim >= floors[r]
    r21 = sorted(c for r, c in by_r if r == 21)
    assert r21[0] == 5 and r21[1] >= 7

    f3 = parse_poly("x0*x1*x2 + x3^3 + x4^3", 5)
    split3 = normal_rep_of(f3, [[1, 0, -1, 0, 0], [0, 1, -1, 0, 0]])
    st3 = normal_rep_strata(split3.normal, "torus")
    census = Counter(s.codim_expected for s in st3 if not s.is_zero())
    assert census[4] == 3 and census[5] == 6
    idx3 = [s.beta for s in st3]
    b4 = next(s.beta for s in st3 if s.codim_expected == 4)
    b5 = next(s.beta for s in st3 if s.codim_expected == 5)
    assert weyl_fiber_count(b4, idx3) == 3
    assert weyl_fiber_count(b5, idx3) == 6

    f2 = parse_poly("x2^3 + x0*x3^2 + x1^2*x4 - x0*x2*x4 + x1*x2*x3", 5)
    split2 = normal_rep_of(f2, [[2, 1, 0, -1, -2]], ["x2^3"])
    st2 = normal_rep_strata(split2.normal, "torus")
    b2 = next(s.beta for s in st2 if s.codim_expected == 5)
    assert weyl_fiber_count(b2, [s.beta for s in st2]) == 2
    elapsed = time.time() - t0
    assert elapsed < 60, f"stratification geometry took {elapsed:.1f}s, budget 60s"
    with capsys.disabled():
        report(5, f"codims, maximal families, and fiber counts exact ({elapsed:.1f}s < 60s)")


def test_criterion_06_normal_representations(capsys):
    f_ch = parse_poly("x2^3 + x0*x3^2 + x1^2*x4 - x0*x2*x4 - 2*x1*x2*x3", 5)
    s_ch = normal_rep_of(f_ch, [[4, 2, 0, -2, -4]])
    assert sorted(p[0] for p in s_ch.normal.pairings) == [
        Fraction(w) for w in range(-12, 13, 2)]
    assert s_ch.relation_count == 3

    f_3d4 = parse_poly("x0*x1*x2 + x3^3 + x4^3", 5)
    s_3d4 = normal_rep_of(f_3d4, [[1, 0, -1, 0, 0], [0, 1, -1, 0, 0]])
    assert s_3d4.normal.dim == 12 and s_3d4.relation_count == 2
    third = Fraction(1, 3)
    cube_weight = (Fraction(2), Fraction(-1), Fraction(-1), Fraction(0), Fraction(0))
    weights = Counter(s_3d4.normal.weights)
    assert weights[cube_weight] == 1
    assert weights[tuple(2 * third * c for c in cube_weight)] == 2
    assert weights[tuple(third * c for c in cube_weight)] == 1

    f_2a5 = parse_poly("x2^3 + x0*x3^2 + x1^2*x4 - x0*x2*x4 + x1*x2*x3", 5)
    s_2a5 = normal_rep_of(f_2a5, [[2, 1, 0, -1, -2]], ["x2^3"])
    assert sorted(p[0] for p in s_2a5.normal.pairings) == [
        Fraction(w) for w in (-6, -5, -4, -3, -2, 2, 3, 4, 5, 6)]
    assert s_2a5.relation_count == 1
    with capsys.disabled():
        report(6, "normal-slice weight multisets and relation counts 3/2/1 exact")


def test_criterion_07_lattice_facts(capsys):
    t0 = time.time()
    assert weyl_group(E3).order == 648
    w4 = weyl_group(E4)
    closure_time = time.time() - t0
    assert w4.order == 155520
    assert closure_time < 300, f"rank-4 closure took {closure_time:.1f}s, budget 300s"

    from stratify.eisenstein import discriminant_form, enumerate_roots
    d = discriminant_form(z_form(E3))
    assert d.invariant_factors == (3,)
    assert d.q_values[0] % 2 == Fraction(-4, 3) % 2
    assert [len(enumerate_roots(z_form(L))) for L in (E1, E2, E3, E4)] == [6, 24, 72, 240]

    from stratify.eisenstein import ZLattice, find_norm_div_vector, glue_overlattice
    zl = z_form(E3)
    z = find_norm_div_vector(zl, -12, 3)
    big = [[0] * 18 for _ in range(18)]
    for c in range(3):
        for i in range(6):
            for j in range(6):
                big[6 * c + i][6 * c + j] = zl.gram[i][j]
    glued = glue_overlattice(
        ZLattice(18, tuple(tuple(r) for r in big)),
        [[Fraction(x, 3) for _ in range(3) for x in z]])
    assert glued.index == 3 and glued.lattice.is_even()
    assert glued.disc.invariant_factors == (3,)
    with capsys.disabled():
        report(7, f"orders 648/155520, discriminants, glue, roots ({closure_time:.1f}s < 300s)")


def test_criterion_08_abelian_quotient_patterns(capsys):
    q3 = abelian_quotient_betti(weyl_group(E3), 3)
    q4 = abelian_quotient_betti(weyl_group(E4), 4)
    assert q3.even() == [1, 1, 1, 1] and all(b == 0 for b in q3.odd())
    assert q4.even() == [1, 1, 1, 1, 1] and all(b == 0 for b in q4.odd())
    with capsys.disabled():
        report(8, "weighted-projective cohomology patterns from generator fixed spaces")


def test_criterion_09_boundary_divisors(cubic3fold_report, cubicsurf_report, capsys):
    steps = {s["id"]: s for s in cubic3fold_report.steps}
    assert steps["tbl_t2a5"]["value"]["even"] == [1, 2, 3, 4, 5, 5, 4, 3, 2, 1]
    assert steps["tbl_t3d4"]["value"]["even"] == [1, 1, 2, 3, 3, 3, 3, 2, 1, 1]
    ssteps = {s["id"]: s for s in cubicsurf_report.steps}
    assert ssteps["tbl_t3a2"]["value"]["even"] == [1, 1, 1, 1]
    assert cubic3fold_report.tables["toroidal"].even() == [
        1, 4, 6, 10, 13, 15, 13, 10, 6, 4, 1]
    assert cubicsurf_report.tables["toroidal"].even() == [1, 2, 2, 2, 1]
    with capsys.disabled():
        report(9, "boundary divisor tables and toroidal assemblies exact")


def test_criterion_10_binary_forms(binary12_report, capsys):
    assert binary12_report.tables["twelve_points_IH"].even() == [
        1, 1, 2, 2, 3, 3, 2, 2, 1, 1]
    with capsys.disabled():
        report(10, "twelve-points intersection table from the standalone pipeline")


def test_criterion_11_property_suites(cubic3fold_report, capsys):
    # duality and nonnegativity of every emitted table
    for rep_obj in (cubic3fold_report,):
        for table in rep_obj.tables.values():
            check = duality_check(table)
            assert check.ok and all(b >= 0 for b in table.betti)

    # Molien integrality with constant term 1
    g = close_group([[[0, 1], [1, 0]], [[-1, 1], [-1, 0]]])
    m = molien(g, 2, 12)
    assert m[0] == 1 and all(c.denominator == 1 and c >= 0 for c in m.coeffs)

    # every emitted beta is the closest point of its support hull (desk scale)
    ws = hypersurface_weights(2, 3)
    bset = instability_index_set(ws)
    assert verify_strata_against_oracle(ws.weights, bset) > 0

    # tangent + normal = ambient weight multiset
    f = parse_poly("x2^3 + x0*x3^2 + x1^2*x4 - x0*x2*x4 + x1*x2*x3", 5)
    split = normal_rep_of(f, [[2, 1, 0, -1, -2]], ["x2^3"])
    assert len(split.tangent_pairings) + split.normal.dim == 35

    # A_R - B_R nonpositive on the built-in scenario
    steps = {s["id"]: s for s in cubic3fold_report.steps}
    for sid in ("AB_chordal", "AB_3d4", "AB_2a5"):
        assert all(num <= 0 for _, num, _ in steps[sid]["value"]["triples"])

    # triflections have order 3 and preserve the form
    from stratify._backend import eis_identity_flat, eis_mul_flat
    from stratify.eisenstein import eisenstein_roots, triflection
    from stratify.invariants import flatten_eis_matrix
    ident = eis_identity_flat(3)
    for r in eisenstein_roots(E3)[:12]:
        t = flatten_eis_matrix(triflection(E3, r))
        assert eis_mul_flat(eis_mul_flat(t, t, 3), t, 3) == ident
    with capsys.disabled():
        report(11, "duality, integrality, oracle, multiset, nonpositivity, triflection properties")
