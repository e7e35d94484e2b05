"""One run of a workload, in a fresh process.

Reads {"src", "workload", "items", "trace", "setup_only"} as JSON on stdin
and prints one JSON result line on stdout. Set-up time runs from the first
statement after the first calibration to the end of importing omega23
(with numpy and sympy) and loading the claims table and the figure data,
which is what a user's `omega23` command pays before any work. Run time
covers the items only, run one after another.

The machine's speed is sampled before set-up, after set-up and after every
item by timing a fixed pure-Python loop (`calibrate`); each timed span is
reported with the mean of the samples on either side of it, so the parent
can scale it to the reference speed.
"""

import time

CAL_LOOP = 20000


def calibrate() -> float:
    """Seconds one run of a fixed pure-Python loop takes, median of three."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        s = 0
        for i in range(CAL_LOOP):
            s += i * i % 7
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


CAL0 = calibrate()
T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import prime_power  # noqa: E402


def _setup(src: str):
    sys.path.insert(0, src)
    import omega23
    import omega23.cli  # noqa: F401  (imports every layer, as the command does)
    from omega23 import generators, verify
    if Path(omega23.__file__).resolve().parent != Path(src, "omega23").resolve():
        raise SystemExit(f"omega23 imported from {omega23.__file__}, not from {src}")
    verify.load_claims()
    generators._figures()


def _run_verify(item):
    from omega23 import fields, generators, verify
    pair = generators.build_pair(item["n"], fields.make_field(*prime_power(item["q"])))
    battery = (verify.verify_caseA_identities if pair.tag.case == "A"
               else verify.verify_caseB_identities)
    return {"reports": [verify.verify_structural(pair).to_json(),
                        battery(pair).to_json()]}


def _run_claims(item):
    from omega23 import verify
    return verify.verify_order_claims([verify.Claim.from_json(item["row"])]).to_json()


def _run_certify(item):
    from omega23 import certify, fields, generators
    pair = generators.build_pair(item["n"], fields.make_field(item["q"], 1), item["a"])
    return certify.certify_generation(pair, restrict_to_s9=item["restrict"],
                                      seed=item["seed"]).to_json()


RUNNERS = {"verify": _run_verify, "claims": _run_claims, "certify": _run_certify}


def main():
    spec = json.load(sys.stdin)
    _setup(spec["src"])
    setup_s = time.perf_counter() - T0
    cal = calibrate()
    import numpy
    import sympy
    out = {"setup_s": setup_s, "setup_cal_s": (CAL0 + cal) / 2,
           "numpy": numpy.__version__, "sympy": sympy.__version__}
    if not spec.get("setup_only"):
        tracer = None
        if spec["trace"]:
            from tracer import Tracer, install
            tracer = Tracer()
            install(tracer)
        run = RUNNERS[spec["workload"]]
        results = []
        for item in spec["items"]:
            t = time.perf_counter()
            try:
                if tracer is None:
                    output = run(item)
                else:
                    output = tracer.run_item(item["id"], lambda: run(item))
                rec = {"output": output}
            except Exception:  # an item's failure is a result, not a crash
                rec = {"error": traceback.format_exc(limit=-3)}
            rec["id"] = item["id"]
            rec["seconds"] = time.perf_counter() - t
            after = calibrate()
            rec["cal_s"] = (cal + after) / 2
            cal = after
            results.append(rec)
        out["run_s"] = sum(rec["seconds"] for rec in results)
        out["items"] = results
        if tracer is not None:
            out["trace"] = {
                "totals": tracer.totals(),
                "counters": tracer.counters,
                "absent": tracer.absent,
                "by_parent": [[name, parent, *rec]
                              for (name, parent), rec in sorted(
                                  tracer.agg.items(), key=lambda kv: -kv[1][2])],
                "spans": tracer.spans,
            }
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
