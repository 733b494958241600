"""The layers' value records (`_pure.Record`): construction, defaults,
checks, equality, immutability and repr."""

from fractions import Fraction

import pytest

from stratify._exact import EisInt
from stratify.assembly import StratumContribution
from stratify.discriminant import CuspVectorReport, DiscriminantGroup, GlueResult
from stratify.eisenstein import EisLattice
from stratify.invariants import FiniteMatrixGroup, close_group
from stratify.orbits import NormalRep, SemiInvariantReport, TangentNormalSplit
from stratify.series import BettiTable, DualityReport, TruncatedSeries
from stratify.strata import BetaStratum, SupportRecord
from stratify.weyl import ZLattice

F = Fraction
SERIES = TruncatedSeries((F(1), F(0), F(2)), 2)
NORMAL = NormalRep(((F(1), F(-1)),), ((F(2),),), 1)
ZLAT = ZLattice(2, ((2, 1), (1, 2)))
DISC = DiscriminantGroup((3,), (F(2, 3),), ((F(1, 3), F(2, 3)),))

# class, every field by keyword in order, the defaults of the fields left
# out, and one field value that the class refuses with ValueError (or None)
RECORDS = [
    (TruncatedSeries, {"coeffs": (F(1), F(1)), "order": 1}, {}, {"order": 2}),
    (BettiTable, {"complex_dim": 1, "betti": (1, 0, 1)}, {}, {"betti": (1, -1, 1)}),
    (DualityReport, {"ok": True}, {"first_offense": None, "message": ""}, None),
    (BetaStratum, {"beta": (F(1, 2), F(-1, 2)), "norm2": F(1, 2), "support": (0,),
                   "n_beta": 2, "dim_g_mod_p": 1, "codim_expected": 1},
     {"nonemptiness": "undeclared"}, {"codim_expected": -1}),
    (SupportRecord, {"r": 3, "codim_expected": 2, "beta": (F(1), F(-1))},
     {"support_closed": ()}, None),
    (NormalRep, {"weights": ((F(1), F(-1)),), "pairings": ((F(2),),), "dim": 1}, {},
     {"dim": 2}),
    (TangentNormalSplit, {"tangent_weights": (), "tangent_pairings": (), "normal": NORMAL,
                          "span_dim": 2, "relation_count": 1}, {}, None),
    (SemiInvariantReport, {"ok": True}, {"scalar": None, "message": ""}, None),
    (FiniteMatrixGroup, {"ring": "Q", "dim": 1, "gens": (((EisInt(-1, 0),),),), "order": 2},
     {"form": None, "chain": None}, None),
    (EisLattice, {"rank": 1, "gram": ((EisInt(-3, 0),),)}, {}, {"gram": ((EisInt(1, 0),),)}),
    (ZLattice, {"rank": 2, "gram": ((2, 1), (1, 2))}, {}, {"gram": ((2, 1), (0, 2))}),
    (DiscriminantGroup, {"invariant_factors": (3,), "q_values": (F(2, 3),)},
     {"generators": ()}, None),
    (GlueResult, {"lattice": ZLAT, "index": 1, "disc": DISC, "basis": ((1, 0), (0, 1))},
     {}, None),
    (CuspVectorReport, {"ok": True, "norm": 3, "div_norm": 3}, {"message": ""}, None),
    (StratumContribution, {"codim": 2, "series": SERIES},
     {"weyl_share": 1, "provenance": ""}, {"weyl_share": 0}),
]


@pytest.mark.parametrize("cls, fields, defaults, bad", RECORDS,
                         ids=[case[0].__name__ for case in RECORDS])
def test_record(cls, fields, defaults, bad):
    record = cls(*fields.values())
    # positional and keyword construction, with the defaults filled in
    assert record == cls(**fields)
    assert hash(record) == hash(cls(**fields))
    for name, value in {**fields, **defaults}.items():
        assert getattr(record, name) == value
    full = {**fields, **defaults}
    assert cls(*full.values()) == record
    with pytest.raises(TypeError):
        cls(*full.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=1)
    # equality is type-strict: no record equals one of another class
    for other, other_fields, _, _ in RECORDS:
        if other is not cls:
            assert record != other(**other_fields)
    assert record != tuple(full.values())
    # read-only fields; replace builds a new, checked record
    name, value = next(iter(fields.items()))
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert record.replace() == record and record.replace() is not record
    if bad is not None:
        with pytest.raises(ValueError):
            cls(**{**fields, **bad})
        with pytest.raises(ValueError):
            record.replace(**bad)


@pytest.mark.parametrize("record, text", [
    (BetaStratum((F(1, 2), F(0), F(-1, 2)), F(1, 2), (0, 3), 4, 1, 3),
     "BetaStratum(beta=(Fraction(1, 2), Fraction(0, 1), Fraction(-1, 2)), "
     "norm2=Fraction(1, 2), support=(0, 3), n_beta=4, dim_g_mod_p=1, codim_expected=3, "
     "nonemptiness='undeclared')"),
    (DISC, "DiscriminantGroup(invariant_factors=(3,), q_values=(Fraction(2, 3),))"),
    (SupportRecord(5, 3, (F(1), F(-1)), (0, 1, 4)),
     "SupportRecord(r=5, codim_expected=3, beta=(Fraction(1, 1), Fraction(-1, 1)))"),
    # the chain that certified the order is held, not printed
    (close_group([[[-1]]]), "FiniteMatrixGroup(ring='Q', dim=1, gens=(((Eis(-1,0),),),), "
     "order=2, form=None)"),
])
def test_repr(record, text):
    assert repr(record) == text
