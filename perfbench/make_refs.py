"""Write weights.json and refs/*.jsonl from the program as it stands.

    python3 perfbench/make_refs.py

Run once, at the commit the benchmark was defined on: the references are
that commit's outputs, which every later run is compared against, and the
weights are that commit's per-item costs, which only balance the samples.
It runs the whole verify grid and the whole claims table three times, each
time in a fresh process (keeping the median time per item), and the
certify workloads' passes 0-3 at the default seed twice.
"""

from __future__ import annotations

import json
import statistics

import run
import workloads as wl

REF_PASSES = 4


def _run_repeated(workload: str, items: list, times: int) -> tuple:
    """(median seconds per item id, outputs of the first run); every run
    must pass the oracle and give the first run's outputs."""
    runs = [run.run_child(run.child_spec(workload, items, False))["items"]
            for _ in range(times)]
    for item, recs in zip(items, zip(*runs)):
        first = recs[0]
        if "error" in first:
            raise SystemExit(f"{workload} {item['id']}: {first['error']}")
        bad = wl.oracle(workload, item, first["output"]) or next(
            filter(None, (wl.mismatch(first["output"], r.get("output")) for r in recs[1:])),
            None)
        if bad:
            raise SystemExit(f"{workload} {item['id']}: {bad}")
    weights = {recs[0]["id"]: round(statistics.median(r["seconds"] for r in recs), 4)
               for recs in zip(*runs)}
    return weights, {rec["id"]: rec["output"] for rec in runs[0]}


def _write_refs(workload: str, outputs: dict):
    (run.HERE / "refs").mkdir(exist_ok=True)
    with open(run.HERE / "refs" / f"{workload}.jsonl", "w", encoding="utf-8") as fh:
        for key in sorted(outputs):
            fh.write(json.dumps({"id": key, "output": _untimed(outputs[key])},
                                sort_keys=True) + "\n")


def _untimed(doc):
    """doc without its timing keys, which differ on every run."""
    if isinstance(doc, dict):
        return {k: _untimed(v) for k, v in doc.items() if k not in wl.TIMING_KEYS}
    if isinstance(doc, list):
        return [_untimed(v) for v in doc]
    return doc


def main():
    grid = [{"id": f"n{n:02d}-q{q:02d}", "n": n, "q": q}
            for q in wl.GRID_Q for n in wl.GRID_N]
    rows = [{"id": r["id"], "row": r} for r in wl.load_claim_rows(run.SRC)]
    rows.sort(key=lambda item: item["id"])
    weights = {}
    for workload, items in (("verify", grid), ("claims", rows)):
        weights[workload], outputs = _run_repeated(workload, items, 3)
        _write_refs(workload, outputs)
    with open(run.HERE / "weights.json", "w", encoding="utf-8") as fh:
        json.dump(weights, fh, indent=0, sort_keys=True)
        fh.write("\n")
    items = [it for items in wl.make_passes("certify", wl.DEFAULT_SEED, REF_PASSES, run.SRC)
             for it in items]
    _, outputs = _run_repeated("certify", items, 2)
    _write_refs("certify", outputs)


if __name__ == "__main__":
    main()
