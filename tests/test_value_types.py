"""The frozen value types are named tuples: immutable, hashable by value,
built by keyword or by position, and validated however they are built."""

import copy
import pickle

import pytest

from qortho.cli import RunConfig
from qortho.climit import LimitSweep
from qortho.operators import SpectralPoints, Tridiagonal
from qortho.orthogonality import _Store
from qortho.qseries import DomainError, QParams, Truncation
from qortho.reporting import VerificationReport
from qortho.representation import CoefficientVector, GeneratorMatrices

P = QParams(q=0.5, a=0.5, b=-0.7)

# every field of each type, in declaration order
FIELDS = {
    QParams: dict(q=0.5, a=0.5, b=-0.7),
    Truncation: dict(rel_tol=1e-10, max_terms=500),
    Tridiagonal: dict(dim=2, diag=(1.0, 2.0), lower=(0.5,), upper=(0.5,)),
    CoefficientVector: dict(coeffs=(1.0, 0.5), lam=0.25, normalizable=True),
    SpectralPoints: dict(upper=(0.25, 0.125), lower=(-0.35, -0.175)),
    GeneratorMatrices: dict(dim=2, raising=(1.0,), lowering=(1.5,), qj0_diag=(0.5, 0.25), j0_diag=(1.0, 2.0)),
    VerificationReport: dict(
        identity_id="sears", params=P, indices=(0, 0), lhs=1.0, rhs=1.0, residual=0.0, terms_used=10,
        tail_estimate=1e-17, tolerance=1e-8, status="pass", note="",
    ),
    LimitSweep: dict(alpha=1.0, beta=0.5, q_sequence=(0.5, 0.75)),
    RunConfig: dict(
        command="verify", q=0.5, a=0.5, b=-0.7, identity="all", index_max=8, dim=200, tolerance=1e-8,
        precision="double", output_format="json", output_path=None, no_timestamp=True,
    ),
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    fields = FIELDS[cls]
    obj = cls(**fields)
    assert obj._fields == tuple(fields)
    # keyword and positional construction agree, and equal values hash equal
    same = cls(*fields.values())
    assert same == obj and hash(same) == hash(obj)
    assert {obj: 1}[same] == 1
    assert obj == tuple(fields.values())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert repr(obj) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    assert obj._replace() == obj and type(obj._replace()) is cls
    for clone in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert clone == obj and type(clone) is cls


def test_repr_reads_as_before():
    assert repr(QParams(q=0.5, a=0.5, b=-0.7)) == "QParams(q=0.5, a=0.5, b=-0.7)"
    assert repr(Truncation()) == "Truncation(rel_tol=1e-12, max_terms=10000)"


@pytest.mark.parametrize(
    "obj, change, message",
    [
        (QParams(q=0.5, a=0.5, b=-0.7), {"b": 0.7}, "b must be negative"),
        (Truncation(), {"max_terms": 0}, "max_terms must be a positive integer"),
        (Truncation(), {"rel_tol": float("inf")}, "rel_tol must be positive and finite"),
        (Truncation(), {"max_terms": 2.5}, "max_terms must be a positive integer"),
        (Tridiagonal.symmetric([1.0, 2.0], [0.5]), {"diag": (1.0,)}, "inconsistent tridiagonal band lengths"),
        (LimitSweep(alpha=1.0, beta=0.5), {"q_sequence": (0.75, 0.5)}, "q_sequence must be strictly increasing"),
    ],
    ids=["QParams", "Truncation", "Truncation-inf-rel-tol", "Truncation-fractional-max-terms", "Tridiagonal",
         "LimitSweep"],
)
def test_replace_validates_like_construction(obj, change, message):
    with pytest.raises(DomainError, match=message):
        obj._replace(**change)
    with pytest.raises(DomainError, match=message):
        type(obj)(**{**obj._asdict(), **change})


def test_limit_sweep_stores_a_tuple_and_checks_its_order():
    sweep = LimitSweep(alpha=1.0, beta=0.5, q_sequence=[0.5, 0.75])
    assert sweep.q_sequence == (0.5, 0.75) and isinstance(sweep.q_sequence, tuple)
    assert sweep == LimitSweep(1.0, 0.5, (0.5, 0.75))
    assert len(LimitSweep(alpha=1.0, beta=0.5).q_sequence) == 9
    with pytest.raises(DomainError, match="strictly increasing"):
        LimitSweep(alpha=1.0, beta=0.5, q_sequence=[0.75, 0.5])


def test_report_passed_is_read_from_status():
    # passed is no field: a record cannot say "pass" and passed=False
    fields = FIELDS[VerificationReport]
    assert [VerificationReport(**{**fields, "status": s}).passed for s in ("pass", "fail", "inconclusive")] == [
        True,
        False,
        False,
    ]
    assert VerificationReport(**fields)._replace(status="fail").passed is False
    with pytest.raises(TypeError):
        VerificationReport(**fields, passed=True)
    with pytest.raises(AttributeError):
        VerificationReport(**fields).passed = False


def test_store_keeps_one_label_sum_per_unordered_pair():
    # the store keys its label sums by the unordered pair {i, j}: (1, 0)
    # must find the sum that (0, 1) stored
    store = _Store(P, Truncation(), 1)
    first = store.label_sum(0, 1)
    assert store.label_sum(1, 0) is first
    assert len(store._sums) == 1
