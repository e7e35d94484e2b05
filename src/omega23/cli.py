"""Command-line front end.

Subcommands: generate, verify, certify, search-a, spinor, oracle. All
reports are UTF-8 JSON with sorted keys; identical configuration and seed
give byte-identical output except for the timing fields. Exit codes:
0 all requested checks pass, 1 check failure, 2 usage or build error,
3 inconclusive certification.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import resolved_seed
from .certify import CertifyError, certify_generation
from .fields import (elem_from_json, elem_to_json, field_from_prime_power,
                     field_to_json)
from ._kernels import _digit_chunks
from .forms import (FormsError, OrthoSpace, in_omega,
                    isotropic_count, omega_order, gram_matrix, witt_type)
from .generators import (GenError, build_pair, default_a,
                         pair_to_json, pair_to_text, search_a)
from .linalg import Matrix
from .verify import (load_claims, verify_caseA_identities,
                     verify_caseB_identities, verify_order_claims,
                     verify_structural)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

# Largest (n*f) x (n*f) int64 F_p block form (one generator matrix) that
# `generate`, `verify` and `certify` build: 2^22 entries, 32 MiB. The
# acceptance grid's largest point, n = 25 at q = 27, needs 75^2 = 5625.
MAX_MATRIX_ENTRIES = 1 << 22

# Every package error but CertifyError is a ValueError. OSError: an
# unreadable --matrix/--gram file or an unwritable --output.
_BUILD_ERRORS = (CertifyError, ValueError, OSError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _diag("usage", message)
        raise SystemExit(EXIT_USAGE)


def _diag(kind: str, detail: str):
    print(json.dumps({"error": kind, "detail": detail}, sort_keys=True),
          file=sys.stderr)


def _parse_a(text: str | None):
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) == 1:
        return int(parts[0])
    return [int(c) for c in parts]


def _emit(doc: dict, text: str | None, args) -> None:
    if args.format == "json":
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        payload = (text if text is not None else json.dumps(doc, indent=2)) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _build_pair(args):
    """(pair, report params) of a pair command: build_pair, refused
    before any allocation above MAX_MATRIX_ENTRIES."""
    ctx = field_from_prime_power(args.q)
    a = _parse_a(args.a)
    entries = (args.n * ctx.f) ** 2
    if entries > MAX_MATRIX_ENTRIES:
        raise GenError(f"(n*f)^2 = {entries} matrix entries exceed the CLI bound "
                       f"MAX_MATRIX_ENTRIES = {MAX_MATRIX_ENTRIES}")
    params = {"n": args.n, "q": ctx.q, "a": "default" if a is None else a,
              "force": bool(args.force)}
    return build_pair(args.n, ctx, a, force=args.force), params


# ---------------------------------------------------------------------------
# subcommands


def _cmd_generate(args) -> int:
    pair, params = _build_pair(args)
    doc = {
        "command": "generate",
        "params": params,
        "pair": pair_to_json(pair),
    }
    _emit(doc, pair_to_text(pair), args)
    return EXIT_OK


def _report_lines(report) -> list:
    out = [f"[{'ok' if report.ok else 'FAIL'}] params {report.params}"]
    for c in report.checks:
        out.append(f"  {c.status:4s} {c.name}: expected {c.expected}; got {c.actual}")
    return out


def _cmd_verify(args) -> int:
    pair, params = _build_pair(args)
    reports = []
    if args.suite in ("structural", "all"):
        reports.append(verify_structural(pair))
    if args.suite in ("case", "all"):
        if pair.tag.case == "A":
            reports.append(verify_caseA_identities(pair))
        else:
            reports.append(verify_caseB_identities(pair))
    if args.claims:
        reports.append(verify_order_claims(load_claims()))
    ok = all(r.ok for r in reports)
    doc = {
        "command": "verify",
        "params": {**params, "suite": args.suite, "claims": bool(args.claims)},
        "ok": ok,
        "reports": [r.to_json() for r in reports],
    }
    lines = []
    for r in reports:
        lines.extend(_report_lines(r))
    _emit(doc, "\n".join(lines), args)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_certify(args) -> int:
    if args.budget is not None and not args.budget >= 0:  # NaN too; refused before any work
        raise CertifyError(f"budget {args.budget} is not a number of seconds >= 0")
    pair, params = _build_pair(args)
    result = certify_generation(
        pair,
        restrict_to_s9=args.restrict_s9,
        seed=args.seed,
        budget_seconds=args.budget,
    )
    doc = {
        "command": "certify",
        "params": {**params, "restrict_s9": bool(args.restrict_s9),
                   "seed": resolved_seed(args.seed)},
        "certificate": result.to_json(),
    }
    text = (f"verdict {result.verdict}: order {result.computed_order} "
            f"vs target {result.target_order} "
            f"({result.base_size} base points, orbits {list(result.orbit_sizes)})")
    _emit(doc, text, args)
    if result.verdict == "Generates":
        return EXIT_OK
    if result.verdict == "ProperSubgroup":
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


def _cmd_search_a(args) -> int:
    ctx = field_from_prime_power(args.q)
    found = search_a(args.n, ctx, all=True)
    dflt = default_a(args.n, ctx)
    doc = {
        "command": "search-a",
        "params": {"n": args.n, "q": ctx.q},
        "field": field_to_json(ctx),
        "values": [elem_to_json(ctx, v) for v in found.values],
        "count": len(found.values),
        "default": elem_to_json(ctx, dflt),
        "inequality": {
            "label": found.inequality,
            "lhs": found.lhs,
            "rhs": found.rhs,
            "holds": found.guaranteed,
        },
    }
    text = (f"{len(found.values)} admissible parameter(s); default {doc['default']}; "
            f"{found.inequality}: {found.lhs} > {found.rhs} is {found.guaranteed}")
    _emit(doc, text, args)
    return EXIT_OK if found.values else EXIT_FAIL


def _load_matrix(ctx, path: str) -> Matrix:
    if path == "-":
        obj = json.load(sys.stdin)
    else:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    if isinstance(obj, dict):
        return Matrix.from_json(ctx, obj)
    return Matrix.from_rows(ctx, [[elem_from_json(ctx, e) for e in row] for row in obj])


def _cmd_spinor(args) -> int:
    ctx = field_from_prime_power(args.q)
    g = _load_matrix(ctx, args.matrix)
    if args.gram:
        j = _load_matrix(ctx, args.gram)
        if not j.det().any():
            raise FormsError("Gram matrix is singular: the form is degenerate "
                             "and has no spinor norm")
        space = OrthoSpace(j)
    else:
        space = gram_matrix(g.rows, ctx)
    if g.rows != space.n or g.cols != space.n:
        raise FormsError(
            f"matrix is {g.rows}x{g.cols}, Gram is {space.n}x{space.n}")
    member = in_omega(space, g)
    if "not-an-isometry" in member.reasons:
        raise FormsError("matrix does not preserve the form; "
                         "spinor norm is undefined")
    spinor_square = "spinor-norm-nontrivial" not in member.reasons
    doc = {
        "command": "spinor",
        "params": {"q": ctx.q, "n": space.n,
                   "gram": "user" if args.gram else "case"},
        "field": field_to_json(ctx),
        "determinant": elem_to_json(ctx, g.det()),
        "spinor_square": spinor_square,
        "in_kernel": member.ok,
        "reasons": list(member.reasons),
    }
    text = (f"spinor class {'trivial' if spinor_square else 'nontrivial'}; "
            f"det {doc['determinant']}; kernel member: {member.ok}")
    _emit(doc, text, args)
    return EXIT_OK


def _enumerate_so(ctx, n: int):
    """All determinant-one isometries of the identity form: the isometries
    by one batched test per chunk, then their determinants one by one."""
    if ctx.f != 1:
        raise FormsError("brute-force enumeration supports prime fields only")
    p = ctx.p
    total = p ** (n * n)
    if total > 10 ** 8:
        raise FormsError(f"q^(n^2) = {total} exceeds the enumeration cap")
    out = []
    for digits in _digit_chunks(p, n * n, 1 << 15):
        mats = digits.reshape(-1, n, n)
        gram = np.einsum("mki,mkj->mij", mats, mats) % p
        iso = np.all(gram == np.eye(n, dtype=np.int64), axis=(1, 2))
        for m in mats[iso]:
            g = Matrix(ctx, m[:, :, None])
            if np.array_equal(g.det(), ctx.one):
                out.append(g)
    return out


def _cmd_oracle(args) -> int:
    ctx = field_from_prime_power(args.q)
    n = args.n
    if args.what == "omega-order":
        if n % 2 == 0:
            raise FormsError("the order oracle enumerates odd dimensions")
        space = OrthoSpace(Matrix.identity(ctx, n))
        so = _enumerate_so(ctx, n)
        kernel = [g for g in so if in_omega(space, g).ok]
        formula = omega_order(n, "circ", ctx.q)
        match = len(kernel) == formula
        doc = {
            "command": "oracle",
            "params": {"what": args.what, "n": n, "q": ctx.q},
            "so_order": len(so),
            "omega_order_bruteforce": len(kernel),
            "index": len(so) // max(1, len(kernel)),
            "omega_order_formula": str(formula),
            "match": match,
        }
        text = (f"|SO| = {len(so)}, |kernel| = {len(kernel)} "
                f"(index {doc['index']}); formula {formula}; match {match}")
    else:
        if n % 2:
            raise FormsError("the type oracle classifies even dimensions")
        space = OrthoSpace(Matrix.identity(ctx, n))
        count = isotropic_count(space)
        q, m = ctx.q, n // 2
        plus_count = (q ** m - 1) * (q ** (m - 1) + 1)
        minus_count = (q ** m + 1) * (q ** (m - 1) - 1)
        if count == plus_count:
            classified = "plus"
        elif count == minus_count:
            classified = "minus"
        else:
            raise FormsError(f"isotropic count {count} matches neither type")
        formula = witt_type(n, ctx.q)
        match = classified == formula
        doc = {
            "command": "oracle",
            "params": {"what": args.what, "n": n, "q": ctx.q},
            "isotropic_nonzero": count,
            "classified": classified,
            "dispatch": formula,
            "match": match,
        }
        text = (f"{count} nonzero isotropic vectors -> type {classified}; "
                f"dispatch says {formula}; match {match}")
    _emit(doc, text, args)
    return EXIT_OK if doc["match"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> _Parser:
    top = _Parser(prog="omega23",
                  description="involution/order-3 generator toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, with_pair=True):
        if with_pair:
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--q", required=True,
                           help="odd prime power, e.g. 3 or 27")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--output", default=None)

    g = sub.add_parser("generate", description="build a generator pair")
    common(g)
    g.add_argument("--a", default=None,
                   help="field element: int, or comma-separated coefficients")
    g.add_argument("--force", action="store_true",
                   help="skip the admissibility screen")
    g.set_defaults(fn=_cmd_generate)

    v = sub.add_parser("verify", description="run identity batteries")
    common(v)
    v.add_argument("--a", default=None)
    v.add_argument("--force", action="store_true")
    v.add_argument("--suite", choices=("structural", "case", "all"),
                   default="all")
    v.add_argument("--claims", action="store_true",
                   help="also run the full order-claims table")
    v.set_defaults(fn=_cmd_verify)

    c = sub.add_parser("certify", description="certify the generated order")
    common(c)
    c.add_argument("--a", default=None)
    c.add_argument("--force", action="store_true")
    c.add_argument("--restrict-s9", action="store_true", dest="restrict_s9")
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--budget", type=float, default=None,
                   help="wall-clock budget in seconds")
    c.set_defaults(fn=_cmd_certify)

    s = sub.add_parser("search-a", description="list admissible parameters")
    common(s)
    s.set_defaults(fn=_cmd_search_a)

    sp = sub.add_parser("spinor", description="spinor norm of a matrix")
    sp.add_argument("--q", required=True)
    sp.add_argument("--matrix", required=True,
                    help="JSON file with the matrix; '-' reads stdin")
    sp.add_argument("--gram", default=None,
                    help="JSON file with a Gram matrix (default: case Gram)")
    common(sp, with_pair=False)
    sp.set_defaults(fn=_cmd_spinor)

    o = sub.add_parser("oracle", description="brute-force cross-checks")
    common(o)
    o.add_argument("--what", choices=("omega-order", "witt-type"),
                   required=True)
    o.set_defaults(fn=_cmd_oracle)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _BUILD_ERRORS as exc:
        _diag(type(exc).__name__, str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
