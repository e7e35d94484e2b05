"""Write the golden outputs that `tests/test_golden_outputs.py` compares.

Each item is one report or CLI document, stored as one line
{"id", "output"} of canonical JSON (sorted keys, no spaces, timing keys
removed) in `<group>.jsonl` beside this script. The groups are:

- caseA:  criterion 2's monomial-family battery at every admissible a,
          n in (9, 11, 13, 17), q in (3, 5, 7, 9, 11, 13);
- sweep:  `verify_caseB_closed_forms_all_a` at n in (12, 15) over GRID_Q;
- forced: the tail-family battery of the forced pair (12, 13, a = 4);
- oracle: `omega23 oracle` JSON, omega-order at n = 3, q in (3, 5), and
          witt-type at n in (2, 4, 6), q in (3, 5, 7);
- cli:    `omega23 generate` at (n, q) in (9, 3), (12, 9), (15, 27),
          `omega23 search-a` at (9, 9), (12, 25), (15, 27), and `omega23
          spinor` of x at (9, 5) and of the forced (9, 3, a = 1) x, whose
          spinor class is nontrivial, each in JSON and in text;
- certify: `omega23 certify` of the forced (9, 3, a = 1) pair at seed
          53251, in JSON and in text: computed order twice the target,
          inconclusive; and `omega23 certify --restrict-s9` at seed 53251,
          in JSON and in text, of the default pairs at (12, 3) (B6) and
          (15, 3) (B5), which generate, at (16, 5), which generates, and at
          (15, 7), inconclusive past the dense-table cap.

A JSON document is stored as itself, a text document as one JSON string.

Only the items named on the command line are rewritten; a group name
names all of its items:

    PYTHONPATH=src python tests/golden/make_golden.py caseA-n9-q3-a2 oracle
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from omega23.cli import main as cli_main
from omega23.fields import elem_to_json, field_from_prime_power
from omega23.generators import build_pair, search_a
from omega23.verify import verify_caseA_identities, verify_caseB_closed_forms_all_a, verify_caseB_identities

HERE = Path(__file__).resolve().parent
TIMING_KEYS = frozenset({"timing_ms", "elapsed_ms"})
GRID_Q = (3, 5, 7, 9, 11, 13, 25, 27)


def _a_text(a) -> str:
    return ",".join(map(str, a)) if isinstance(a, list) else str(a)


def _case_a(n: int, q: int, a):
    return lambda: verify_caseA_identities(build_pair(n, field_from_prime_power(q), a)).to_json()


def _sweep(n: int, q: int):
    return lambda: verify_caseB_closed_forms_all_a(n, field_from_prime_power(q)).to_json()


def _forced():
    return verify_caseB_identities(build_pair(12, field_from_prime_power(13), 4, force=True)).to_json()


def _cli(argv: list, stdin: str = None):
    """A thunk running `omega23 <argv>`: its JSON document, or its text
    output as a string under --format text. stdin, if given, is what the
    command reads from standard input."""
    def run():
        out, saved = io.StringIO(), sys.stdin
        if stdin is not None:
            sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out):
                cli_main(argv)
        finally:
            sys.stdin = saved
        return out.getvalue() if "text" in argv else json.loads(out.getvalue())
    return run


def _oracle(what: str, n: int, q: int):
    return _cli(["oracle", "--what", what, "--n", str(n), "--q", str(q)])


def _spinor_of_x(q: int, a, force: bool, fmt: str):
    def run():
        x = build_pair(9, field_from_prime_power(q), a, force=force).x
        return _cli(["spinor", "--q", str(q), "--matrix", "-", "--format", fmt],
                    json.dumps(x.to_json()))()
    return run


def items() -> dict:
    """{group: {item id: thunk computing its JSON output}}."""
    case_a = {}
    for n in (9, 11, 13, 17):
        for q in (3, 5, 7, 9, 11, 13):
            ctx = field_from_prime_power(q)
            for v in search_a(n, ctx, all=True).values:
                a = elem_to_json(ctx, v)
                case_a[f"caseA-n{n}-q{q}-a{_a_text(a)}"] = _case_a(n, q, a)
    oracle = {f"oracle-omega-order-n3-q{q}": _oracle("omega-order", 3, q) for q in (3, 5)}
    oracle.update({f"oracle-witt-type-n{n}-q{q}": _oracle("witt-type", n, q)
                   for n in (2, 4, 6) for q in (3, 5, 7)})
    cli = {}
    for fmt in ("json", "text"):
        for cmd, points in (("generate", ((9, 3), (12, 9), (15, 27))),
                            ("search-a", ((9, 9), (12, 25), (15, 27)))):
            cli.update({f"{cmd}-n{n}-q{q}-{fmt}": _cli([cmd, "--n", str(n), "--q", str(q),
                                                       "--format", fmt])
                        for n, q in points})
        cli[f"spinor-x-n9-q5-{fmt}"] = _spinor_of_x(5, None, False, fmt)
        cli[f"spinor-x-forced-n9-q3-a1-{fmt}"] = _spinor_of_x(3, 1, True, fmt)
    certify = {f"certify-forced-n9-q3-a1-seed53251-{fmt}": _cli(
        ["certify", "--n", "9", "--q", "3", "--a", "1", "--force", "--seed", "53251",
         "--format", fmt]) for fmt in ("json", "text")}
    for fmt in ("json", "text"):
        certify.update({f"certify-restricted-n{n}-q{q}-seed53251-{fmt}": _cli(
            ["certify", "--n", str(n), "--q", str(q), "--restrict-s9", "--seed", "53251",
             "--format", fmt]) for n, q in ((12, 3), (15, 3), (16, 5), (15, 7))})
    return {
        "caseA": case_a,
        "sweep": {f"sweep-n{n}-q{q}": _sweep(n, q) for n in (12, 15) for q in GRID_Q},
        "forced": {"forced-n12-q13-a4": _forced},
        "oracle": oracle,
        "cli": cli,
        "certify": certify,
    }


def _untimed(obj):
    if isinstance(obj, dict):
        return {k: _untimed(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [_untimed(v) for v in obj]
    return obj


def canonical(output) -> str:
    """The stored form of an output: sorted keys, no spaces, no timing keys."""
    return json.dumps(_untimed(output), sort_keys=True, separators=(",", ":"))


def read_group(group: str) -> dict:
    """{item id: canonical output} as stored for a group."""
    path = HERE / f"{group}.jsonl"
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return {row["id"]: canonical(row["output"]) for row in rows}


def main(argv: list) -> int:
    groups = items()
    named = set()
    for name in argv:
        if name in groups:
            named.update(groups[name])
        elif any(name in thunks for thunks in groups.values()):
            named.add(name)
        else:
            print(f"unknown item or group {name!r}", file=sys.stderr)
            return 2
    for group, thunks in groups.items():
        todo = named.intersection(thunks)
        if not todo:
            continue
        stored = read_group(group)
        stored.update({item: canonical(thunks[item]()) for item in sorted(todo)})
        lines = [f'{{"id":{json.dumps(item)},"output":{stored[item]}}}\n'
                 for item in thunks if item in stored]
        with open(HERE / f"{group}.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        print(f"{group}: rewrote {len(todo)} of {len(lines)} items")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
