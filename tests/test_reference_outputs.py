"""Every stored benchmark reference output, recomputed and compared.

`perfbench/refs/{verify,claims,certify}.jsonl` hold one JSON line per
item, {"id", "output"}: the structural and family-battery reports of all
120 grid points, the 134 order-claim rows, and 24 certificates at the
certify workload's desk points. The files are read here as data. Each
item is recomputed from its id and compared by the references' own rule:
timing keys are ignored, and so is any key the reference lacks, so an
additive report field passes; every other value must be equal and of the
same JSON type.
"""

import json
import re
from pathlib import Path

import pytest

from omega23.certify import certify_generation
from omega23.fields import field_from_prime_power
from omega23.generators import build_pair
from omega23.verify import (
    load_claims,
    verify_caseA_identities,
    verify_caseB_identities,
    verify_order_claims,
    verify_structural,
)

REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs"
TIMING_KEYS = frozenset({"timing_ms", "elapsed_ms"})
WORKLOADS = ("verify", "claims", "certify")


def _refs(workload: str) -> list:
    with open(REFS / f"{workload}.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _mismatch(ref, got, path="$"):
    """The first difference between a reference and an output, or None."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return f"{path}: expected an object"
        for key, value in ref.items():
            if key in TIMING_KEYS:
                continue
            if key not in got:
                return f"{path}.{key}: missing"
            found = _mismatch(value, got[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path}: expected a list of {len(ref)}"
        for i, (a, b) in enumerate(zip(ref, got)):
            found = _mismatch(a, b, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if ref == got and type(ref) is type(got) else f"{path}: {ref!r} != {got!r}"


def _verify(item: dict) -> dict:
    n, q = map(int, re.fullmatch(r"n(\d+)-q(\d+)", item["id"]).groups())
    pair = build_pair(n, field_from_prime_power(q))
    battery = verify_caseA_identities if pair.tag.case == "A" else verify_caseB_identities
    return {"reports": [verify_structural(pair).to_json(), battery(pair).to_json()]}


def _claims(item: dict) -> dict:
    [row] = [c for c in load_claims() if c.id == item["id"]]
    return verify_order_claims([row]).to_json()


def _certify(item: dict) -> dict:
    n, q, mode, seed = re.fullmatch(r"n(\d+)-q(\d+)-([fr])-s(\d+)", item["id"]).groups()
    pair = build_pair(int(n), field_from_prime_power(int(q)), item["output"]["a"])
    return certify_generation(pair, restrict_to_s9=mode == "r", seed=int(seed)).to_json()


RECOMPUTE = {"verify": _verify, "claims": _claims, "certify": _certify}


@pytest.mark.parametrize("workload, item", [
    pytest.param(w, item, id=f"{w}-{item['id']}") for w in WORKLOADS for item in _refs(w)])
def test_reference_output(workload, item):
    got = json.loads(json.dumps(RECOMPUTE[workload](item)))
    assert _mismatch(item["output"], got) is None


def test_every_reference_is_checked():
    assert {w: len(_refs(w)) for w in WORKLOADS} == {"verify": 120, "claims": 134, "certify": 24}
