"""The report records: construction from each field once, by position or
keyword, immutability, a repr that names the class and its fields in order,
pickle and deepcopy round trips, and the payloads the CLI prints.  Only the
records the CLI prints have a payload."""

import copy
import pickle
from fractions import Fraction

import pytest

from abtaut import boundary, charclass, satake, tautring

_PI, _T = boundary.boundary_ring().gens()
_POLY = _PI ** 2 - 2 * _T
_COMPARISON_FIELDS = {
    "stratum_index": 1,
    "closed_form": Fraction(-120),
    "divisor_route": Fraction(120),
    "equal": False,
    "factor": Fraction(-1),
}
_COMPARISON = satake.StratumComparison(**_COMPARISON_FIELDS)

# (record type, its fields in declaration order, as_payload() or None where the type has none)
_RECORDS = [
    (boundary.BoundaryClass, {"genus": 2, "poly": _POLY}, None),
    (boundary.PushforwardResult, {"delta_coefficient": Fraction(3, 4)}, None),
    (
        boundary.GrrReport,
        {
            "genus": 2,
            "q": Fraction(1, 120),
            "magnitude_ok": True,
            "sign_matches_theorem": True,
            "sign_matches_zeta": False,
        },
        {"g": 2, "q": "1/120", "magnitude_ok": True, "sign_matches_theorem": True, "sign_matches_zeta": False},
    ),
    (
        charclass.BorelSerreReport,
        {"genus": 2, "ok": False, "difference": _POLY},
        {"g": 2, "ok": False, "difference": "-2*T + Pi^2"},
    ),
    (
        satake.SatakeClassExpression,
        {"stratum_index": 2, "coefficient": Fraction(-1440), "label": (1, 2)},
        {"i": 2, "coefficient": "-1440", "label": [1, 2]},
    ),
    (satake.StratumComparison, _COMPARISON_FIELDS, None),
    (satake.ConsistencyReport, {"genus": 2, "comparisons": (_COMPARISON,)}, None),
    (
        satake.RecursionReport,
        {"genus": 2, "ok": True, "steps": ((1, True), (2, True))},
        {"g": 2, "ok": True, "steps": [{"i": 1, "ok": True}, {"i": 2, "ok": True}]},
    ),
    (
        tautring.RingReport,
        {"genus": 1, "ok": True, "dims": (1, 1), "checks": (("total_dimension_2^g", True),)},
        {"g": 1, "dims": [1, 1], "total_dimension_2^g": True},
    ),
]


@pytest.mark.parametrize("cls,fields,payload", _RECORDS, ids=[cls.__name__ for cls, _, _ in _RECORDS])
def test_report_record_contract(cls, fields, payload):
    record = cls(**fields)
    names, values = list(fields), list(fields.values())
    assert [getattr(record, name) for name in fields] == values
    assert cls(*values) == record
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == record
    for wrong in (
        lambda: cls(*values[:-1]),  # a field missing
        lambda: cls(**dict(zip(names[1:], values[1:]))),
        lambda: cls(*values, None),  # a field too many
        lambda: cls(**fields, bogus=None),
        lambda: cls(values[0], **fields),  # a field twice
    ):
        with pytest.raises(TypeError):
            wrong()
    # a GradedPolynomial does not pickle, so the pickled record holds ints
    numbered = cls(*range(len(fields)))
    for original, twin in ((numbered, pickle.loads(pickle.dumps(numbered))), (record, copy.deepcopy(record))):
        assert type(twin) is cls and twin == original
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert record == tuple(fields.values())
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    if payload is None:
        assert not hasattr(record, "as_payload")
    else:
        assert record.as_payload() == payload


def test_boundary_class_prints_its_polynomial():
    assert str(boundary.BoundaryClass(2, _POLY)) == "-2*T + Pi^2"
