"""The immutable records: `omega23.Record` and the 17 types built on it."""

import os
import pickle
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from omega23 import Record, certify, forms, generators, verify
from omega23.fields import make_field
from omega23.linalg import Matrix, unit_vector
from omega23.verify import DivisibleBy, DivisibleByPrimeAtLeast, ExactOrder

CTX3 = make_field(3, 1)


class _Point(Record):
    x: int
    y: int = 0
    label: str = "p"

    @cached_property
    def norm(self) -> int:
        return self.x * self.x + self.y * self.y


def _one_of_each():
    """A record of every type in the package, as the package builds it."""
    pair = generators.build_pair(9, CTX3, 2)
    swap = Matrix(CTX3, [[0, 1], [1, 0]])
    return [
        verify.CheckEntry("name", "pass", "1", "1", "ref"),
        verify.verify_structural(pair),
        ExactOrder(12), DivisibleBy(4), DivisibleByPrimeAtLeast(41),
        verify.DivisibleByOneOf((13, 73)),
        verify.load_claims()[0],
        certify.orbit([swap], unit_vector(CTX3, 2, 0)),
        certify.stabilizer_chain([], seed=1),
        certify.certify_generation(pair, seed=1, budget_seconds=0),
        generators.classify(15),
        generators.admissible(9, CTX3, -1),
        generators.search_a(9, CTX3),
        pair,
        generators.special_subspaces(generators.build_pair(12, CTX3)),
        pair.space,
        pair.x_in_omega,
    ]


def test_every_record_type_refuses_assignment_and_deletion():
    records = _one_of_each()
    assert {type(r) for r in records} == {
        cls for cls in Record.__subclasses__() if cls.__module__.startswith("omega23")}
    assert len(records) == 17
    for record in records:
        field = type(record)._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.unknown = 1  # no new attributes either


def test_records_of_different_types_are_never_equal():
    assert DivisibleBy(43) != DivisibleByPrimeAtLeast(43)
    assert DivisibleBy(43) == DivisibleBy(43) and DivisibleBy(43) != DivisibleBy(41)
    assert generators.CaseTag("A") != ("A", None, None)
    assert generators.CaseTag("A") == generators.CaseTag("A", None, None)
    assert len({ExactOrder(12), ExactOrder(12), DivisibleBy(12)}) == 2


def test_a_record_takes_its_fields_by_position_and_name_with_defaults():
    p = _Point(1, label="q")
    assert (p.x, p.y, p.label) == (1, 0, "q")
    assert p == _Point(x=1, y=0, label="q") and hash(p) == hash(_Point(1, 0, "q"))
    assert p._asdict() == {"x": 1, "y": 0, "label": "q"}
    assert list(p._asdict()) == ["x", "y", "label"]
    assert repr(p) == "_Point(x=1, y=0, label='q')"
    assert repr(generators.CaseTag("B5", 2, 0)) == "CaseTag(case='B5', m=2, r=0)"
    for args, kwargs in (((), {}), ((1, 2, "a", 4), {}), ((1,), {"x": 2}), ((1,), {"z": 2})):
        with pytest.raises(TypeError):
            _Point(*args, **kwargs)


def test_a_cached_property_caches_on_an_immutable_record():
    p = _Point(3, 4)
    assert p.norm == 25 and p.__dict__["norm"] == 25
    assert p == _Point(3, 4)  # a cached value is not a field
    assert p._asdict() == {"x": 3, "y": 4, "label": "p"}


def test_a_record_survives_pickling():
    p = _Point(3, 4)
    assert pickle.loads(pickle.dumps(p)) == p
    tag = generators.classify(18)
    assert pickle.loads(pickle.dumps(tag)) == tag


def test_a_check_row_and_a_certificate_serialize_field_by_field():
    entry = verify.CheckEntry("name", "pass", "1", "1", "ref")
    assert list(entry._asdict()) == ["name", "status", "expected", "actual", "paper_ref"]
    res = certify.certify_generation(generators.build_pair(9, CTX3, 2), seed=1, budget_seconds=0)
    assert list(res.to_json()) == list(type(res)._fields)


def test_a_pair_compares_by_its_matrices_alone():
    pair = generators.build_pair(9, CTX3, 2)
    again = generators.GenPair(pair.x, pair.y, np.array([1]), True)
    assert pair == again and again.forced and not pair.forced
    assert pair != generators.GenPair(pair.y, pair.x, pair.a)


def test_importing_the_package_loads_no_dataclasses():
    # Every record is an omega23.Record, which generates no code: the 17
    # @dataclass decorators were about a tenth of a command's set-up time.
    probe = ("import sys, omega23.cli\n"
             "from omega23 import generators, verify\n"
             "verify.load_claims()\n"
             "generators._figures()\n"
             "print('dataclasses' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
