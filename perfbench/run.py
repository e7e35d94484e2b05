"""omega23 benchmark: three workloads, checked outputs, a traced per-layer run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from the `src/` directory next
to this one. `--trace 0` runs the workload's passes, each in a fresh child
process, and prints the end-to-end metrics, times scaled to a reference
machine speed (see CAL_REF_S). `--trace 1` runs pass 0 once
untraced and once traced, checks that both give the same outputs, and
prints the per-layer metrics and the tracing overhead. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"};
the lines before it are the same figures for a reader, and a full record
(machine, inputs, per-item times, spans) goes to perfbench/out/.

The load is one closed-loop client: a child runs the items of its pass one
after another, and passes run one after another. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# All children of one invocation must end within this many seconds; a child
# still running then is stopped and its pass counts as failed.
CHILDREN_LIMIT_S = 150.0
# Set-up is also measured in set-up-only children until this many samples exist.
MIN_SETUP_SAMPLES = 5
# Seconds the child's calibration loop takes at the reference speed (about
# its time on the 2-core box the benchmark was defined on, in a fast phase).
# The speed of that box drifts by up to ~40% over seconds to minutes, with
# no other load of ours (NOTES.md). Every end-to-end time is therefore a
# wall time scaled by CAL_REF_S / the loop's time measured around it in
# the same child; the unscaled wall times are printed and recorded beside.
CAL_REF_S = 0.0023

# `<layer>.<fn>` names with calls and self time: every traced function but
# the product-replacement step, which is reported as a count.
LAYER_FUNCS = tuple(
    sub for name, _, _ in tracer.TARGETS if name != "certify.random_element"
    for sub in (("linalg.matmul.fext", "linalg.matmul.f1") if name == "linalg.matmul"
                else (name,)))
COUNTERS = ("linalg.element_order.route_powering", "linalg.element_order.route_minpoly",
            "kernels.orbit_bfs.points", "certify.transversal_built")


class ChildFailed(RuntimeError):
    pass


def run_child(spec: dict, deadline: float | None = None) -> dict:
    """Run child.py on spec; `deadline` is a time.monotonic() value."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMEGA23_SEED", "OMEGA23_BACKEND", "PYTHONPATH")}
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")], input=json.dumps(spec),
            capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child stopped after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child_spec(workload: str, items: list, trace: bool) -> dict:
    return {"src": str(SRC), "workload": workload, "items": items, "trace": trace}


def load_refs(workload: str) -> dict:
    path = HERE / "refs" / f"{workload}.jsonl"
    refs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            refs[rec["id"]] = rec["output"]
    return refs


def check_items(workload: str, items: list, results: list, refs: dict) -> list:
    """One entry per item: None if right, else why it is wrong."""
    verdicts = []
    for item, rec in zip(items, results):
        if rec["id"] != item["id"]:
            verdicts.append(f"result for {rec['id']} in place of {item['id']}")
        elif "error" in rec:
            verdicts.append(rec["error"].strip().splitlines()[-1])
        else:
            bad = wl.oracle(workload, item, rec["output"])
            if bad is None and item["id"] in refs:
                diff = wl.mismatch(refs[item["id"]], rec["output"])
                bad = f"differs from the reference output at {diff}" if diff else None
            verdicts.append(bad)
    verdicts += ["no result"] * (len(items) - len(results))
    return verdicts


def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile with at least ten items
    beyond it. Below 21 items that percentile would not exceed the median,
    so the maximum is reported instead, as percentile 100."""
    s = sorted(values)
    n = len(s)
    if n < 21:
        return s[-1], 100.0
    k = n - 11
    return s[k], 100.0 * (k + 1) / n


def machine_info(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "python": platform.python_version(), **versions, "commit": git_commit()}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def metric(value, unit):
    return {"value": value, "unit": unit}


def at_ref_speed(seconds: float, cal_s: float) -> float:
    return seconds * CAL_REF_S / cal_s


def summarize(setups: list, run_s: list, item_ms: list, rss: list) -> dict:
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "run_s": metric(statistics.median(run_s), "s"),
        "item_p50_ms": metric(statistics.median(item_ms), "ms"),
        "item_tail_ms": metric(tail(item_ms)[0], "ms"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
    }


def untraced(workload: str, seed: int, seconds: float, refs: dict, record: dict):
    passes = wl.make_passes(workload, seed, wl.passes(workload, seconds), SRC)
    start = time.monotonic()
    deadline = start + CHILDREN_LIMIT_S
    # each list holds (scaled to the reference speed, wall) pairs
    setups, run_s, item_s, rss, verdicts = [], [], [], [], []
    for k, items in enumerate(passes):
        if k and time.monotonic() > start + 2 * seconds:
            print(f"# stopping after {k} of {len(passes)} passes: over {2 * seconds:.0f} s")
            break
        try:
            res = run_child(child_spec(workload, items, False), deadline)
        except ChildFailed as exc:
            verdicts += [str(exc)] * len(items)
            record["passes"].append({"items": [i["id"] for i in items], "error": str(exc)})
            continue
        record["versions"] = {"numpy": res["numpy"], "sympy": res["sympy"]}
        setups.append((at_ref_speed(res["setup_s"], res["setup_cal_s"]), res["setup_s"]))
        times = [(at_ref_speed(r["seconds"], r["cal_s"]), r["seconds"]) for r in res["items"]]
        run_s.append(tuple(map(sum, zip(*times))))
        item_s += times
        rss.append(res["maxrss_kb"] / 1024.0)
        verdicts += check_items(workload, items, res["items"], refs)
        record["passes"].append({"setup_s": res["setup_s"], "setup_cal_s": res["setup_cal_s"],
                                 "run_s": res["run_s"], "maxrss_kb": res["maxrss_kb"],
                                 "items": res["items"]})
    try:
        while run_s and len(setups) < MIN_SETUP_SAMPLES and time.monotonic() < deadline:
            res = run_child({"src": str(SRC), "setup_only": True}, deadline)
            setups.append((at_ref_speed(res["setup_s"], res["setup_cal_s"]), res["setup_s"]))
    except ChildFailed as exc:
        print(f"# set-up probe failed: {exc}")
    record["setup_samples"] = setups
    if not run_s:
        return verdicts, {}
    scaled = [[pair[0] for pair in pairs] for pairs in (setups, run_s, item_s)]
    wall = [[pair[1] for pair in pairs] for pairs in (setups, run_s, item_s)]
    metrics = summarize(scaled[0], scaled[1], [t * 1000.0 for t in scaled[2]], rss)
    record["wall_metrics"] = summarize(wall[0], wall[1], [t * 1000.0 for t in wall[2]], rss)
    record["item_tail_percentile"] = pct = tail(scaled[2])[1]
    print(f"# {len(run_s)} passes, {len(item_s)} items; item_tail_ms is "
          f"p{pct:.1f} of {len(item_s)} items; setup_s is the median of "
          f"{len(setups)} fresh processes; times are at the reference speed")
    print("# wall times, unscaled: " + ", ".join(
        f"{name} {mv['value']:.6g} {mv['unit']}" for name, mv in record["wall_metrics"].items()
        if name != "peak_rss_mb"))
    return verdicts, metrics


def layer_metrics(trace: dict, traced_run_s: float, plain_run_s: float) -> dict:
    totals, counters = trace["totals"], trace["counters"]
    absent = set(trace["absent"])
    if "linalg.matmul" in absent:
        absent |= {"linalg.matmul.f1", "linalg.matmul.fext"}
    metrics = {}
    for name in LAYER_FUNCS:
        if name in absent:
            continue
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.self_s"] = metric(self_s, "s")

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    for key in COUNTERS:
        metrics[key] = metric(counters.get(key, 0), "count")
    if "certify.random_element" not in absent:
        metrics["certify.random_elements"] = metric(calls("certify.random_element"), "count")
    if "kernels.orbit_bfs" not in absent:
        bfs_s = totals.get("kernels.orbit_bfs", (0, 0.0))[1]
        points = counters.get("kernels.orbit_bfs.points", 0)
        metrics["kernels.orbit_bfs.points_per_s"] = metric(
            points / bfs_s if bfs_s else 0.0, "1/s")
    orders = calls("linalg.element_order")
    metrics["linalg.element_order.powering_useful_ratio"] = metric(
        counters.get("linalg.element_order.route_powering", 0) / orders if orders else 0.0,
        "ratio")
    pairs = calls("generators.build_pair")
    metrics["forms.in_omega.calls_per_pair"] = metric(
        calls("forms.in_omega") / pairs if pairs else 0.0, "ratio")
    built = counters.get("certify.transversal_built", 0)
    metrics["certify.transversal_useful_ratio"] = metric(
        counters.get("certify.final_orbit_points", 0) / built if built else 0.0, "ratio")
    metrics["trace.run_s"] = metric(traced_run_s, "s")
    metrics["trace.untraced_run_s"] = metric(plain_run_s, "s")
    metrics["trace.overhead_s"] = metric(traced_run_s - plain_run_s, "s")
    return metrics


def traced(workload: str, seed: int, seconds: float, refs: dict, record: dict):
    items = wl.make_passes(workload, seed, wl.passes(workload, seconds), SRC)[0]
    deadline = time.monotonic() + CHILDREN_LIMIT_S
    try:
        plain = run_child(child_spec(workload, items, False), deadline)
        with_trace = run_child(child_spec(workload, items, True), deadline)
    except ChildFailed as exc:
        return [str(exc)] * len(items), {}
    record["versions"] = {"numpy": plain["numpy"], "sympy": plain["sympy"]}
    verdicts = check_items(workload, items, plain["items"], refs)
    traced_verdicts = check_items(workload, items, with_trace["items"], refs)
    for i, (a, b) in enumerate(zip(plain["items"], with_trace["items"])):
        if traced_verdicts[i] is None and wl.mismatch(a.get("output"), b.get("output")):
            traced_verdicts[i] = "traced output differs from the untraced output"
    trace = with_trace["trace"]
    record["passes"] = [{"run_s": plain["run_s"], "items": plain["items"]},
                        {"run_s": with_trace["run_s"], "items": with_trace["items"],
                         "trace": {k: v for k, v in trace.items() if k != "spans"}}]
    record["spans_file"] = write_spans(workload, seed, trace["spans"])
    if trace["absent"]:
        print(f"# absent (no such function in the package): {', '.join(trace['absent'])}")
    print(f"# traced pass 0: {len(items)} items; tracing overhead "
          f"{with_trace['run_s'] - plain['run_s']:.3f} s on {plain['run_s']:.3f} s")
    return verdicts + traced_verdicts, layer_metrics(trace, with_trace["run_s"], plain["run_s"])


def write_spans(workload: str, seed: int, spans: list) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for item, name, parent, start, end in spans:
            fh.write(json.dumps({"item": item, "name": name, "parent": parent,
                                 "start_s": start, "end_s": end}) + "\n")
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WHY))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "omega23" / "__init__.py").is_file():
        print(f"perfbench: no omega23 sources under {SRC}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "why": wl.WHY[args.workload],
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "passes": []}
    refs = load_refs(args.workload)
    if args.trace:
        verdicts, metrics = traced(args.workload, args.seed, args.seconds, refs, record)
    else:
        verdicts, metrics = untraced(args.workload, args.seed, args.seconds, refs, record)
    if not metrics:
        print("perfbench: no pass completed: " + "; ".join(sorted(set(map(str, verdicts)))),
              file=sys.stderr)
        return 1

    failed = sum(v is not None for v in verdicts)
    record.update(machine=machine_info(record.pop("versions", {})), metrics=metrics,
                  attempted=len(verdicts), failed=failed,
                  failures=[v for v in verdicts if v is not None])
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    m = record["machine"]
    print(f"# workload {args.workload} (seed {args.seed}): {wl.WHY[args.workload]}")
    print(f"# machine: nproc {m['nproc']}, {m['cpu']}, Python {m['python']}, "
          f"numpy {m.get('numpy')}, sympy {m.get('sympy')}, commit {m['commit']}")
    for why in sorted(set(record["failures"]))[:10]:
        print(f"# WRONG: {why}")
    for name, mv in metrics.items():
        print(f"{name} {mv['value']} {mv['unit']}")
    print(f"fail_ratio {failed / len(verdicts)} ratio ({failed} of {len(verdicts)} items wrong)")
    print(f"# record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(verdicts),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
