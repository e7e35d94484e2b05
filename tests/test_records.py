"""The immutable records: `omega23.Record` and the 13 types built on it."""

import os
import pickle
import re
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from omega23 import Clauses, Record, certify, forms, generators, verify
from omega23.fields import make_field
from omega23.linalg import Matrix, unit_vector
from omega23.verify import Expectation

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
        verify.load_claims()[0].expectation,
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
    ]


def test_every_record_type_refuses_assignment_and_deletion():
    records = _one_of_each()
    assert {type(r) for r in records} == {
        cls for cls in Record.__subclasses__() if cls.__module__.startswith("omega23")}
    assert len(records) == 13
    # the README's list of record types names exactly these
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"The (\w+) record\s+types are `omega23.Record`s:(.*?)\.\s", readme, re.S)
    assert listed and int(listed[1]) == len(records)
    names = [name.rpartition(".")[2] for name in re.findall(r"`([\w.]+)`", listed[2])]
    assert sorted(names) == sorted(type(r).__name__ for r in records)
    for record in records:
        field = type(record)._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.unknown = 1  # no new attributes either


def test_records_of_different_types_are_never_equal():
    by, prime = Expectation("DivisibleBy", 43), Expectation("DivisibleByPrimeAtLeast", 43)
    assert by != prime
    assert by == Expectation("DivisibleBy", 43) and by != Expectation("DivisibleBy", 41)
    assert generators.CaseTag("A") != ("A", None, None)
    assert generators.CaseTag("A") == generators.CaseTag("A", None, None)
    exact = Expectation("ExactOrder", 12)
    assert len({exact, Expectation("ExactOrder", 12), Expectation("DivisibleBy", 12)}) == 2
    assert Clauses(()) != Clauses(("not-an-isometry",)) and Clauses(()) != ()


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
