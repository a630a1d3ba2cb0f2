"""The package's record types keep value semantics: equal fields give equal,
equally hashed records, a field cannot be reassigned, and the repr names
every field."""

import pytest

from locfactor.basefactor import PrimeFactorization
from locfactor.cli import FactorOutcome
from locfactor.descent import DescentResult, PrimalityCertificate
from locfactor.localization import Fraction, IrreducibilityCertificate, SMember
from locfactor.routes import CompareReport, RouteRun
from locfactor.selftest import SelfTestReport

RECORDS = [
    (PrimeFactorization, ("unit", "factors")),
    (FactorOutcome, ("ring", "route", "factorization", "certificates", "elapsed", "texts")),
    (PrimalityCertificate, ("subject", "oracle", "case", "generator_index", "unit")),
    (DescentResult, ("factorization", "certificates")),
    (Fraction, ("num", "den")),
    (IrreducibilityCertificate, ("submonoid", "subject", "non_unit")),
    (SMember, ("submonoid", "exponents")),
    (RouteRun, ("route", "factorization", "certificates", "elapsed")),
    (CompareReport, ("runs", "agreements")),
    (SelfTestReport, ("ok", "lines")),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_value_semantics(cls, fields):
    values = {f: (i, f) for i, f in enumerate(fields)}
    record = cls(**values)
    assert record == cls(**values) and hash(record) == hash(cls(**values))
    assert record != cls(**{**values, fields[-1]: "other"})
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, "other")
        assert getattr(record, f) == values[f]
    assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{f}={v!r}" for f, v in values.items()) + ")"

