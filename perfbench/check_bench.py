"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps it out of the package's own test run; it takes about a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# Small inputs of each workload, for the traced/untraced comparison.
SMALL = {
    "verify": [{"id": "n09-q03", "n": 9, "q": 3}, {"id": "n12-q09", "n": 12, "q": 9}],
    "claims": [{"id": r["id"], "row": r} for r in wl.load_claim_rows(run.SRC)
               if r["id"] in ("caseA-mono-ord41", "caseB6-monS-q27-a05")],
    "certify": [it for it in wl.make_passes("certify", wl.DEFAULT_SEED, 1, run.SRC)[0]
                if it["n"] in (9, 15)],
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_sample(workload):
    a = wl.make_passes(workload, 7, 3, run.SRC)
    assert a == wl.make_passes(workload, 7, 3, run.SRC)
    assert a != wl.make_passes(workload, 8, 3, run.SRC)
    assert a[0] != a[1]
    ids = [item["id"] for items in a for item in items]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("workload", ["verify", "claims"])
def test_samples_are_proportional_to_the_cost_ranking(workload):
    pool, weight = wl._sampled_items(workload, run.SRC)
    ranked = sorted(pool, key=lambda x: (weight(x), str(x)))
    costly = {item["id"] for item in ranked[3 * len(ranked) // 4:]}
    for seed in range(5):
        passes = wl.make_passes(workload, seed, 3, run.SRC)
        assert all(len(items) == wl.PASS_ITEMS[workload] for items in passes)
        drawn = sum(item["id"] in costly for items in passes for item in items)
        assert abs(drawn - len(passes) * wl.PASS_ITEMS[workload] / 4) <= 1.5


def test_every_workload_records_why():
    assert sorted(WORKLOADS) == sorted(wl.WHY)
    notes = (run.HERE / "NOTES.md").read_text()
    for w in BENCHMARK["workloads"]:
        assert w["why"] == wl.WHY[w["name"]] and f"`{w['name']}`" in notes


def test_metric_names_match_the_definition():
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {
        "setup_s", "run_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb"}
    trace = {"totals": {}, "counters": {}, "absent": []}
    names = set(run.layer_metrics(trace, 1.0, 1.0))
    assert names == {m["name"] for m in BENCHMARK["per_layer"]}
    trace["absent"] = ["kernels.orbit_bfs", "linalg.matmul"]
    left = set(run.layer_metrics(trace, 1.0, 1.0))
    assert names - left == {
        "kernels.orbit_bfs.calls", "kernels.orbit_bfs.self_s", "kernels.orbit_bfs.points_per_s",
        "linalg.matmul.f1.calls", "linalg.matmul.f1.self_s",
        "linalg.matmul.fext.calls", "linalg.matmul.fext.self_s"}


def test_oracles():
    assert wl.omega_order(9, "circ", 3) == 65784756654489600
    assert wl.omega_order(11, "circ", 3) == 76457792934119864313446400
    assert wl.expectation_holds({"type": "DivisibleByPrimeAtLeast", "r": 13}, 2 * 13)
    assert not wl.expectation_holds({"type": "DivisibleByPrimeAtLeast", "r": 13}, 2 * 11)
    assert wl.mismatch({"a": 1, "timing_ms": 3.0}, {"a": 1, "timing_ms": 4.0, "new": 0}) is None
    assert wl.mismatch({"a": [1, 2]}, {"a": [1, 3]}) == "$.a[1]: 2 != 3"


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        items = SMALL[workload]
        out[workload] = (items,
                         run.run_child(run.child_spec(workload, items, False)),
                         run.run_child(run.child_spec(workload, items, True)))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_outputs_agree(runs, workload):
    items, plain, traced = runs[workload]
    refs = run.load_refs(workload)
    assert run.check_items(workload, items, plain["items"], refs) == [None] * len(items)
    assert plain["setup_cal_s"] > 0 and all(r["cal_s"] > 0 for r in plain["items"])
    for a, b in zip(plain["items"], traced["items"]):
        assert wl.mismatch(a["output"], b["output"]) is None
        assert wl.mismatch(b["output"], a["output"]) is None


ZERO_CALLS = {
    "certify": ("linalg.element_order", "linalg.matmul.fext", "certify.verify_schreier"),
    "verify": ("kernels.orbit_bfs", "linalg.element_order", "certify.certify_generation"),
    "claims": ("kernels.orbit_bfs", "certify.certify_generation"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_zero_call_predictions(runs, workload):
    _, plain, traced = runs[workload]
    metrics = run.layer_metrics(traced["trace"], traced["run_s"], plain["run_s"])
    for name in ZERO_CALLS[workload]:
        assert metrics[f"{name}.calls"]["value"] == 0, name
    busy = {"verify": "forms.in_omega", "claims": "linalg.element_order",
            "certify": "certify.level_recompute"}[workload]
    assert metrics[f"{busy}.calls"]["value"] > 0


def test_tracer_rebinds_every_import():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import tracer\n"
        "tracer.TARGETS += (('gone.module', 'omega23.gone', 'f'),\n"
        "                   ('gone.method', 'omega23.linalg', 'Gone.f'))\n"
        "tr = tracer.Tracer()\n"
        "originals = tracer.install(tr)\n"
        "assert tr.absent == ['gone.module', 'gone.method'], tr.absent\n"
        "from omega23 import certify, forms, generators, verify\n"
        "assert forms.in_omega is generators.in_omega is verify.in_omega is certify.in_omega\n"
        "assert forms.in_omega.__perfbench_original__ is originals['forms.in_omega']\n"
        "assert tracer.unwrapped_references(originals) == []\n"
        "generators.stale = originals['forms.in_omega']\n"
        "assert tracer.unwrapped_references(originals) == ['omega23.generators.stale']\n")
    proc = subprocess.run([sys.executable, "-c", script, str(run.HERE), str(run.SRC)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
