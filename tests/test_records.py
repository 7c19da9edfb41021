"""The package's plain records are immutable named tuples with fixed field order.

The values are placeholders: a record checks no types, and strings keep
equality exact where a real field would hold an array.
"""

import pickle

import pytest

from sobolevkit.acceptance import CriterionResult
from sobolevkit.cli import RunConfig
from sobolevkit.convolution import ConvergenceRow, ConvergenceTable, KernelReport, OrbitEntry
from sobolevkit.dynamics import FlowCheck, InvertibilityReport, NewtonTrace, ShadowReport
from sobolevkit.expr import Token
from sobolevkit.mollifier import UnitReport
from sobolevkit.sobolev import MembershipEntry, MembershipReport
from sobolevkit.weakdiff import PairingResidual

# each record with its fields, in order, and a value for each
RECORDS = {
    CriterionResult: {"index": 12, "name": "parser", "passed": True, "detail": "fuzz crashes 0/100000"},
    RunConfig: {"grid": "<grid>", "eps_ladder": (0.2, 0.1), "tol": 1e-3},
    OrbitEntry: {"eps": 0.1, "f_eps": "<f_eps>", "region": "<region>"},
    ConvergenceRow: {"eps": 0.05, "error": 0.25, "ratio": None},
    ConvergenceTable: {"p": 2.0, "rows": ((0.1, 0.5, None),)},
    KernelReport: {"support_radius": 0.3, "mass": 1.0, "kernel": "<kernel>"},
    NewtonTrace: {
        "anchor": 0.5,
        "df_anchor": 2.0,
        "target": 1.0,
        "iterates": (0.0, 0.5),
        "residuals": (1.0, 0.0),
        "converged": True,
    },
    InvertibilityReport: {"min_abs_df_eps": 0.75, "invertible": True},
    FlowCheck: {
        "k": 0.5,
        "x0": 1.0,
        "s": 0.25,
        "t": 0.5,
        "lhs": 1.5,
        "rhs": 1.5,
        "residual": 0.0,
        "rk4_error": 1e-14,
    },
    ShadowReport: {"epses": (0.2, 0.1), "pairings": (0.3, 0.2), "extrapolated": 0.1, "direct": 0.1},
    Token: {"kind": "number", "lexeme": "2.5", "offset": 3},
    UnitReport: {"nonneg": True, "support_ok": True, "mass_error": 1e-6, "mass_tol": 1e-3},
    MembershipEntry: {"alpha": (1,), "pairing_residual": 1e-9, "lp_norm": 2.0, "verdict": True},
    MembershipReport: {"k": 1, "p": 2.0, "entries": (), "member": True, "norm": 2.5},
    PairingResidual: {"alpha": (1, 0), "tol": 1e-6, "test_ids": ("a", "b"), "residuals": (1e-8, 2e-8)},
}

_params = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


@_params
def test_keyword_construction_and_field_order(cls):
    fields = RECORDS[cls]
    record = cls(**fields)
    assert cls._fields == tuple(fields)
    assert record == cls(*fields.values())
    for name, value in fields.items():
        assert getattr(record, name) == value


@_params
def test_repr(cls):
    fields = RECORDS[cls]
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


@_params
def test_pickle_round_trip(cls):
    record = cls(**RECORDS[cls])
    twin = pickle.loads(pickle.dumps(record))
    assert type(twin) is cls
    assert twin == record


@_params
def test_fields_cannot_be_assigned(cls):
    record = cls(**RECORDS[cls])
    name = next(iter(RECORDS[cls]))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_properties_read_the_fields():
    assert ConvergenceTable(2.0, (ConvergenceRow(0.1, 0.5, None), ConvergenceRow(0.05, 0.25, 2.0))).errors == (0.5, 0.25)
    assert NewtonTrace(0.5, 2.0, 1.0, (0.0, 0.25, 0.5), (1.0, 0.5, 0.0), True).iterations == 2
    assert not UnitReport(True, True, 2e-3, 1e-3).passed
    assert PairingResidual((1,), 1e-6, ("a", "b"), (1e-8, 2e-6)).max_residual == 2e-6
