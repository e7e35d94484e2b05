"""Every golden output under `tests/golden/`, recomputed and compared exactly.

The golden files hold what the benchmark references lack: the
monomial-family battery at every admissible a, the all-a closed-form
sweeps, the forced (12, 13, a = 4) tail-family report and `omega23
oracle` documents. `tests/golden/make_golden.py` defines the items and
writes them; here each one is recomputed and its canonical JSON, timing
keys removed, must equal the stored line byte for byte.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).resolve().parent / "golden" / "make_golden.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

ITEMS = golden.items()
STORED = {group: golden.read_group(group) for group in ITEMS}


@pytest.mark.parametrize("group, item", [
    pytest.param(g, item, id=item) for g, thunks in ITEMS.items() for item in thunks])
def test_golden_output(group, item):
    assert golden.canonical(ITEMS[group][item]()) == STORED[group][item]


def test_every_golden_item_is_stored():
    assert {g: sorted(STORED[g]) for g in ITEMS} == {g: sorted(t) for g, t in ITEMS.items()}
    assert {g: len(t) for g, t in ITEMS.items()} == {"caseA": 71, "sweep": 16, "forced": 1, "oracle": 11}
