"""Identity batteries and the order-claim table.

Every check is exact field arithmetic; a "pass" means equality of
canonical forms. Reports are plain data so the CLI can serialize them
byte-for-byte reproducibly (timing excluded).
"""

from __future__ import annotations

import json
import time
from functools import lru_cache
from importlib import resources
from math import comb

import numpy as np

from . import Record
from .fields import (FieldCtx, elem_to_json, field_from_prime_power, is_json_int, is_square,
                     make_field)
from .forms import in_omega
from .generators import (
    GenPair,
    WrongCase,
    build_pair,
    s9_coords,
    theta_block,
    special_subspaces,
    _instantiate,
)
from .linalg import (
    Matrix,
    Poly,
    charpoly,
    commutator,
    eigenspace,
    element_order,
    evaluate_word,
    minpoly,
    restrict,
    rref,
    unit_vector,
)


class VerifyError(ValueError):
    pass


class WrongExtensionDegree(VerifyError):
    pass


# ---------------------------------------------------------------------------
# report plumbing


class CheckEntry(Record):
    name: str
    status: str  # "pass" | "fail" | "skip"
    expected: str
    actual: str
    paper_ref: str


class VerificationReport(Record):
    params: dict
    checks: tuple
    timing_ms: float

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "params": self.params,
            "checks": [c._asdict() for c in self.checks],
            "timing_ms": self.timing_ms,
        }


class _Recorder:
    """Collects check entries and runs the clock for one report."""

    def __init__(self, params: dict):
        self.params = params
        self.checks = []
        self._t0 = time.perf_counter()

    def add(self, name, ok, expected, actual, ref):
        status = "pass" if ok else "fail"
        self.checks.append(CheckEntry(name, status, str(expected), str(actual), ref))

    def skip(self, name, reason, ref, actual=""):
        self.checks.append(CheckEntry(name, "skip", reason, str(actual), ref))

    def report(self) -> VerificationReport:
        elapsed = (time.perf_counter() - self._t0) * 1000.0
        return VerificationReport(self.params, tuple(self.checks), elapsed)


def _pair_params(pair: GenPair) -> dict:
    return {
        "n": pair.n,
        "q": pair.ctx.q,
        "a": elem_to_json(pair.ctx, pair.a),
        "case": pair.tag.case,
        "eps": pair.space.eps,
        "forced": pair.forced,
    }


def _fmt(ctx: FieldCtx, value) -> str:
    return json.dumps(elem_to_json(ctx, np.asarray(value)))


# ---------------------------------------------------------------------------
# structural battery


def verify_structural(pair: GenPair) -> VerificationReport:
    ctx, n = pair.ctx, pair.n
    rec = _Recorder(_pair_params(pair))
    ident = Matrix.identity(ctx, n)
    for name, power, ref in (("x-squared-identity", pair.x_squared, "generators/involution"),
                             ("y-cubed-identity", pair.y_cubed, "generators/order-three")):
        is_one = power == ident
        rec.add(name, is_one, "I", "I" if is_one else "not I", ref)
    rec.add("y-nontrivial", pair.y != ident, "y != I",
            "y != I" if pair.y != ident else "y == I", "generators/order-three")
    for name, g in (("x", pair.x), ("y", pair.y)):
        verdict = in_omega(pair.space, g)
        iso = "not-an-isometry" not in verdict.reasons
        rec.add(f"{name}-preserves-form", iso, "gram matrix preserved",
                "preserved" if iso else "violated", "generators/isometry")
        det = g.det()
        rec.add(f"{name}-determinant-one", np.array_equal(det, ctx.one), "1", _fmt(ctx, det),
                "generators/determinant")
        if name == "x" and pair.tag.case == "A":
            # covered below: x sits in the spinor kernel iff -a is a square,
            # so an unconditional row would misreport forced parameters
            continue
        rec.add(f"{name}-spinor-trivial", verdict.ok, "trivial spinor class",
                "trivial" if verdict.ok else ",".join(verdict.reasons),
                "generators/spinor-kernel")
    if pair.tag.case == "A":
        minus_a_square = is_square(ctx, ctx.neg(pair.a))
        member = in_omega(pair.space, pair.x).ok
        rec.add("tail-block-membership-criterion", member == minus_a_square,
                f"membership iff -a is a square (here {minus_a_square})",
                f"membership: {member}", "generators/tail-membership")
    return rec.report()


# ---------------------------------------------------------------------------
# case-A identity battery

# the case-A battery's printed constants by n: the distinguishing word and
# the 1-based index k of its fixed line <e_k>, the seed unit images
# (generator, 1-based source, 1-based image), and sigma and kappa of the
# commutator traces
_A_BATTERY = {
    9: ("[x,y]", 1, (("y", 1, 2), ("y", 2, 3), ("x", 3, 4), ("y", 4, 5)), 1, 3),
    11: ("(xy^2)^3xy", 3, (("x", 1, 3), ("y", 3, 4), ("y", 4, 5), ("x", 4, 2)), 0, 2),
    13: ("(xy^2)^2xy", 2, (("x", 1, 2), ("y", 2, 3), ("y", 3, 4), ("x", 4, 5)), 0, 4),
    17: ("(xy^2)^6xy", 6, (("x", 1, 3), ("y", 3, 4), ("y", 4, 5), ("x", 4, 2)), 0, 4),
}


def _unit_index(ctx: FieldCtx, vec) -> int | None:
    """Index k when vec == e_k exactly (coefficient one), else None."""
    nz = np.nonzero(vec.any(axis=-1))[0]
    if len(nz) != 1:
        return None
    k = int(nz[0])
    return k if np.array_equal(vec[k], ctx.one) else None


def verify_caseA_identities(pair: GenPair) -> VerificationReport:
    if pair.tag.case != "A":
        raise WrongCase("the case-A battery needs a case-A pair")
    ctx, n = pair.ctx, pair.n
    word, fixline, seed_images, sigma, kappa = _A_BATTERY[n]
    rec = _Recorder(_pair_params(pair))
    a = pair.a
    ainv = ctx.inv(a)
    one = ctx.one
    xy = pair.x @ pair.y

    # (1) characteristic polynomial and trace of xy
    expect_cp = (
        Poly(ctx, [a, one])
        * Poly(ctx, [ainv, one])
        * Poly(ctx, [-1] + [0] * (n - 3) + [1])
    )
    actual_cp = charpoly(xy)
    rec.add("product-charpoly", actual_cp == expect_cp,
            "(T+a)(T+1/a)(T^(n-2)-1)", "match" if actual_cp == expect_cp else "mismatch",
            "caseA/charpoly")
    expect_tr = ctx.neg(ctx.add(a, ainv))
    rec.add("product-trace", np.array_equal(xy.trace(), expect_tr),
            _fmt(ctx, expect_tr), _fmt(ctx, xy.trace()), "caseA/trace")

    # (2) minimal polynomial of (xy)^(n-2), keyed on a geometric selector sum
    w = xy.pow(n - 2)
    selector = Poly(ctx, [1] * (2 * n - 4)).eval_elem(ctx.neg(a))
    a_pow = ctx.pow(a, n - 2)
    two_factor = Poly(ctx, [-1, 1]) * Poly(ctx, [a_pow, one])
    if not selector.any():
        expect_mp = two_factor
        branch = "degenerate"
    else:
        expect_mp = two_factor * Poly(ctx, [ctx.inv(a_pow), one])
        branch = "generic"
    actual_mp = minpoly(w)
    rec.add("power-minpoly-two-case", actual_mp == expect_mp,
            f"{branch} branch", "match" if actual_mp == expect_mp else "mismatch",
            "caseA/minpoly")

    # (3) bireflection: fixed space of codimension 2
    fix_dim = eigenspace(w, 1).shape[0]
    rec.add("power-bireflection", fix_dim == n - 2, str(n - 2), str(fix_dim),
            "caseA/bireflection")

    # (4) transitivity: BFS along exact basis-vector images under x, y, y^2,
    # each image e_j -> g e_j read as column j of g
    y2 = pair.y_squared
    cols = {"x": pair.x.data, "y": pair.y.data, "y2": y2.data}
    reached = {0}
    frontier = [0]
    while frontier:
        j = frontier.pop()
        for d in cols.values():
            k = _unit_index(ctx, d[:, j])
            if k is not None and k not in reached:
                reached.add(k)
                frontier.append(k)
    wanted = set(range(n - 3))
    rec.add("transitivity-reachable", wanted <= reached,
            f"e_1..e_{n - 3} reachable from e_1",
            f"reached {len(reached & wanted)} of {n - 3}", "caseA/transitivity")
    seeds_ok = all(
        _unit_index(ctx, cols[g][:, src - 1]) == dst - 1
        for (g, src, dst) in seed_images
    )
    rec.add("transitivity-seed-images", seeds_ok, "listed unit images",
            "match" if seeds_ok else "mismatch", "caseA/transitivity")

    # (5) the fixed line of the distinguishing element, plus tail actions of y
    g_word = evaluate_word(word, pair.x, pair.y)
    v1 = eigenspace(g_word, 1)
    target = fixline - 1
    line_ok = v1.shape[0] == 1 and _unit_index(ctx, v1[0]) == target
    rec.add("fixline-of-distinguishing-element", line_ok,
            f"<e_{target + 1}>", f"dim {v1.shape[0]}", "caseA/fixline")
    e = lambda i: unit_vector(ctx, n, i)
    tails_ok = (
        np.array_equal(cols["y"][:, n - 4],
                       ctx.sub(ctx.scale(ctx.coerce(-2), e(n - 3)), e(n - 4)))
        and _unit_index(ctx, cols["y2"][:, n - 6]) == n - 2
        and np.array_equal(cols["y2"][:, n - 3],
                           ctx.scale(ctx.neg(ctx.inv(ctx.coerce(2))), e(n - 1)))
    )
    rec.add("y-tail-vector-images", tails_ok, "three listed tail images",
            "match" if tails_ok else "mismatch", "caseA/tail-images")

    # (6) commutator traces with the dimension-keyed constants
    h = commutator(pair.x, pair.y)
    base = ctx.add(ctx.add(one, ctx.mul(a, a)), ctx.mul(ainv, ainv))
    expect_t1 = ctx.add(base, ctx.coerce(sigma))
    rec.add("commutator-trace", np.array_equal(h.trace(), expect_t1),
            _fmt(ctx, expect_t1), _fmt(ctx, h.trace()), "caseA/commutator-trace")
    expect_t2 = ctx.sub(ctx.sub(ctx.mul(base, base), ctx.mul(ctx.coerce(4), a)),
                        ctx.coerce(kappa))
    h2 = h @ h
    rec.add("commutator-square-trace", np.array_equal(h2.trace(), expect_t2),
            _fmt(ctx, expect_t2), _fmt(ctx, h2.trace()), "caseA/commutator-trace")
    return rec.report()


# ---------------------------------------------------------------------------
# case-B identity battery

# closed forms as integer polynomials in a (ascending powers)
_B5_DET1 = [0] * 10 + [-(2**35) * 3, 0, -(2**35) * 4]
_B5_DET2 = [0] * 10 + [(2**35) * 3, 0, -(2**35) * 28]
_B6_DET1 = [0] * 6 + [(2**35) * 32, 0, -(2**35) * 42, 0, (2**35) * 21, 0, -(2**35) * 4]
_B6_DET2 = [0] * 6 + [-(2**35) * 32, 0, -(2**35) * 150, 0, (2**35) * 139, 0, -(2**35) * 28]
_B5_TR_YT = [0, 0, 128, 0, -2176]
_B5_TR_Y2T = [0, 0, 128, 0, 1920]
_B5_TR_LONG = [0, 0, 256, 0, 3840, 16384, -49152]
_B6_TR_YT = [-224, 0, 6784, 0, -2176]
_B6_TR_Y2T = [-288, 0, -5504, 0, 1920]


def _t_minus_one_power(ctx: FieldCtx, k: int) -> Poly:
    """(T-1)^k from its binomial coefficients, reduced mod p."""
    return Poly(ctx, [(-1) ** (k - i) * comb(k, i) % ctx.p for i in range(k + 1)])


def _tail_line(ctx: FieldCtx) -> np.ndarray:
    """e_(n-8) - e_(n-7) in the coordinates of S9."""
    s_vec = np.zeros((9, ctx.f), dtype=np.int64)
    s_vec[0] = ctx.one
    s_vec[1] = ctx.neg(ctx.one)
    return s_vec


def verify_caseB_identities(pair: GenPair) -> VerificationReport:
    if pair.tag.case == "A":
        raise WrongCase("the case-B battery needs a case-B pair")
    ctx, n = pair.ctx, pair.n
    rec = _Recorder(_pair_params(pair))
    a = pair.a
    is_even_family = pair.tag.case == "B6"
    a2 = ctx.mul(a, a)
    exceptional = is_even_family and np.array_equal(a2, ctx.coerce(3))

    y9, t9, tau_full, g = pair.s9_restrictions

    # (1) the 24th commutator power: unipotent with a printed tail block
    cp = charpoly(tau_full)
    expect_cp = _t_minus_one_power(ctx, n)
    rec.add("tau-charpoly-unipotent", cp == expect_cp, "(T-1)^n",
            "match" if cp == expect_cp else "mismatch", "caseB/tau-charpoly")
    theta = theta_block(ctx, a, corrected=is_even_family)
    block_ok = np.array_equal(t9.data[1:, 1:], theta.data)
    ident_col = _unit_index(ctx, t9.data[:, 0]) == 0 and not t9.data[0, 1:].any()
    rec.add("tau-tail-entrywise", block_ok and ident_col,
            "diag(1, printed 8x8 block)",
            "match" if (block_ok and ident_col) else "mismatch", "caseB/tau-block")
    mp = minpoly(theta)
    cube = _t_minus_one_power(ctx, 3)
    rec.add("tau-block-minpoly", mp == cube, "(T-1)^3",
            "match" if mp == cube else "mismatch", "caseB/tau-minpoly")
    fix_dim = eigenspace(t9, 1).shape[0]
    expect_dim = 7 if exceptional else 5
    rec.add("tau-tail-fixdim", fix_dim == expect_dim, str(expect_dim), str(fix_dim),
            "caseB/tau-fixdim")
    ytilde = _instantiate(ctx, "ytilde", a)
    y_match = np.array_equal(y9.data, ytilde)
    rec.add("tail-restriction-matches-figure", y_match,
            "restriction equals the printed 9x9 matrix",
            "match" if y_match else "mismatch", "caseB/tail-figure")

    # (2) action on the invariant splitting (absent at n = 12)
    if n == 12:
        rec.skip("commutator-cycle-action", "no invariant splitting at n = 12",
                 "caseB/action")
    else:
        sub = special_subspaces(pair)
        # column i of g is e_j for each (i, j) of the listed action
        d = g.data
        ok = all(_unit_index(ctx, d[:, i]) == j for i, j in sub.action.items())
        rec.add("commutator-cycle-action", ok, "listed permutation action",
                "match" if ok else "mismatch", "caseB/action")
        ok24 = all(restrict(g, coords).pow(24).is_identity() for coords in sub.A_summands)
        rec.add("commutator-first-summand-order", ok24, "24th power is identity",
                "holds" if ok24 else "violated", "caseB/action-order")
        ok3 = all(restrict(g, coords).pow(3).is_identity() for coords in sub.B_summands)
        rec.add("commutator-second-summand-order", ok3, "cube is identity",
                "holds" if ok3 else "violated", "caseB/action-order")

    # (3) the distinguished eigenvector of [y, tau] on the tail
    s_vec = _tail_line(ctx)
    if exceptional:
        rec.skip("commutator-fixline", "undefined when a^2 = 3 in the even family",
                 "caseB/eigenvector")
    else:
        c = commutator(y9, t9)
        v1 = eigenspace(c, 1)
        ok = v1.shape[0] == 1 and np.array_equal(v1[0], s_vec)
        rec.add("commutator-fixline", ok, "line spanned by e_(n-8) - e_(n-7)",
                f"dim {v1.shape[0]}", "caseB/eigenvector")
    c_alt = commutator(y9.inverse(), t9.inverse())  # y t y^-1 t^-1
    v1_alt = eigenspace(c_alt, 1)
    alt_matches = v1_alt.shape[0] == 1 and np.array_equal(v1_alt[0], s_vec)
    rec.skip("commutator-fixline-alternate-orientation",
             "informational: opposite bracket orientation recorded for the record",
             "caseB/eigenvector", actual=f"dim {v1_alt.shape[0]}, same line: {alt_matches}")

    # (4), (5) and in characteristic 3 the cube charpoly: closed forms in a
    _closed_form_checks(rec, pair, y9, t9)
    if ctx.p != 3:
        rec.skip("cube-charpoly", "requires characteristic 3", "caseB/cube-charpoly")
    return rec.report()


def _closed_form_checks(rec: _Recorder, pair: GenPair, y9: Matrix, t9: Matrix,
                        suffix: str = "") -> None:
    """The case-B rows that are closed forms in a, each name followed by
    suffix: the determinants of the two spanning matrices, the restricted
    traces and, in characteristic 3 only, the cube charpoly."""
    ctx, a = pair.ctx, pair.a
    one = ctx.one
    is_even_family = pair.tag.case == "B6"
    s_vec = _tail_line(ctx)

    # (4) determinants of the two spanning matrices
    y2 = y9 @ y9
    ty2 = t9 @ y2
    t2y2 = t9 @ t9 @ y2
    elements_m1 = [Matrix.identity(ctx, 9), y9, y2, ty2, t2y2,
                   y9 @ ty2, y2 @ ty2, y9 @ t2y2, y2 @ t2y2]
    elements_m2 = [Matrix.identity(ctx, 9), y9, y2, ty2, t2y2,
                   y9 @ ty2, y9 @ t2y2, ty2 @ ty2, ty2 @ t2y2]
    det_forms = (_B6_DET1, _B6_DET2) if is_even_family else (_B5_DET1, _B5_DET2)
    for label, elements, form in (("first", elements_m1, det_forms[0]),
                                  ("second", elements_m2, det_forms[1])):
        cols = np.stack([e @ s_vec for e in elements], axis=1)
        det = Matrix(ctx, cols).det()
        expect = Poly(ctx, form).eval_elem(a)
        rec.add(f"spanning-det-{label}{suffix}", np.array_equal(det, expect),
                _fmt(ctx, expect), _fmt(ctx, det), "caseB/spanning-dets")

    # (5) restricted traces
    yt = y9 @ t9
    y2t = y2 @ t9
    if is_even_family:
        trace_checks = [
            ("trace-yt-squared", (yt @ yt).trace(), _B6_TR_YT),
            ("trace-y2t-squared", (y2t @ y2t).trace(), _B6_TR_Y2T),
            ("trace-yt", yt.trace(), [-16]),
        ]
    else:
        long_product = y2 @ t9 @ t9 @ yt @ yt
        trace_checks = [
            ("trace-yt-squared", (yt @ yt).trace(), _B5_TR_YT),
            ("trace-y2t-squared", (y2t @ y2t).trace(), _B5_TR_Y2T),
            ("trace-long-product", long_product.trace(), _B5_TR_LONG),
        ]
    for name, actual, form in trace_checks:
        expect = Poly(ctx, form).eval_elem(a)
        rec.add(name + suffix, np.array_equal(actual, expect), _fmt(ctx, expect),
                _fmt(ctx, actual), "caseB/restricted-traces")

    # cube charpoly identity, specific to characteristic 3
    if ctx.p == 3:
        cp3 = charpoly(yt @ yt @ yt)
        a6 = ctx.pow(a, 6)
        a12 = ctx.mul(a6, a6)
        if is_even_family:
            f_coeffs = [one, ctx.neg(one), ctx.neg(ctx.add(ctx.sub(a12, a6), one)),
                        ctx.neg(a12), ctx.sub(a6, one), ctx.neg(a12),
                        ctx.neg(ctx.add(ctx.sub(a12, a6), one)), ctx.neg(one), one]
        else:
            f_coeffs = [one, one, ctx.neg(ctx.sub(ctx.add(a12, a6), one)),
                        ctx.neg(ctx.sub(a12, one)), ctx.neg(ctx.sub(a6, one)),
                        ctx.neg(ctx.sub(a12, one)), ctx.neg(ctx.sub(ctx.add(a12, a6), one)),
                        one, one]
        f_poly = Poly(ctx, np.stack(f_coeffs))
        expect3 = Poly(ctx, [-1, 1]) * f_poly
        rec.add("cube-charpoly" + suffix, cp3 == expect3,
                "(T-1) times the printed degree-8 factor",
                "match" if cp3 == expect3 else "mismatch", "caseB/cube-charpoly")


def verify_caseB_closed_forms_all_a(n: int, ctx: FieldCtx) -> VerificationReport:
    """Determinant and trace closed forms for every nonzero parameter: the
    battery's closed-form rows alone, on a forced pair per parameter."""
    rec = _Recorder({"n": n, "q": ctx.q, "battery": "closed-forms-all-a"})
    for i in range(1, ctx.q):
        a = ctx.from_index(i)
        pair = build_pair(n, ctx, a, force=True)
        y9, t9 = pair.s9_restrictions[:2]
        _closed_form_checks(rec, pair, y9, t9, f"[a={elem_to_json(ctx, a)}]")
    return rec.report()


# ---------------------------------------------------------------------------
# order claims


def _has_prime_at_least(order: int, r: int) -> bool:
    # a prime factor >= r is left once every factor below r is removed
    for d in range(2, r):
        while order % d == 0:
            order //= d
    return order > 1


# the claims table's expectations on an element order, by JSON type: the
# key of the argument, the test of an order and the description
_EXPECTATIONS = {
    "ExactOrder": ("k", lambda order, k: order == k, "order = {}".format),
    "DivisibleBy": ("r", lambda order, r: order % r == 0, "order divisible by {}".format),
    "DivisibleByPrimeAtLeast": ("r", _has_prime_at_least,
                                "order divisible by a prime >= {}".format),
    "DivisibleByOneOf": ("options", lambda order, rs: any(order % r == 0 for r in rs),
                         lambda rs: f"order divisible by one of {sorted(rs)}"),
}


def _positive(value, field: str) -> int:
    if not is_json_int(value) or value < 1:
        raise VerifyError(f"{field} must be a positive integer, got {value!r}")
    return int(value)


class Expectation(Record):
    """An expectation on an order: a JSON type of `_EXPECTATIONS` and its
    argument, a positive integer or, where the key is "options", a tuple of them."""

    kind: str
    arg: object

    @classmethod
    def from_json(cls, blob: dict) -> "Expectation":
        kind = blob.get("type") if isinstance(blob, dict) else None
        if not isinstance(kind, str) or kind not in _EXPECTATIONS:
            raise VerifyError(f"unknown expectation type {kind!r}")
        key = _EXPECTATIONS[kind][0]
        arg = blob.get(key)
        if key != "options":
            return cls(kind, _positive(arg, key))
        if not isinstance(arg, list) or not arg:
            raise VerifyError(f"options must be a non-empty list, got {arg!r}")
        return cls(kind, tuple(_positive(r, "options") for r in arg))

    def check(self, order: int) -> bool:
        return _EXPECTATIONS[self.kind][1](order, self.arg)

    def describe(self) -> str:
        return _EXPECTATIONS[self.kind][2](self.arg)


class Claim(Record):
    id: str
    n: int
    q: int
    a: object  # int | tuple | None (None = default parameter)
    force: bool
    word: str
    expectation: Expectation
    paper_ref: str

    @classmethod
    def from_json(cls, blob: dict) -> "Claim":
        """A claims-table row. A field that is missing or of the wrong type
        raises VerifyError naming it: nothing is coerced."""
        if not isinstance(blob, dict):
            raise VerifyError(f"a claim row must be a JSON object, got {blob!r}")
        text = {key: blob.get(key) for key in ("id", "word", "paper_ref")}
        for key, value in text.items():
            if not isinstance(value, str):
                raise VerifyError(f"{key} must be a string, got {value!r}")
        a, force = blob.get("a"), blob.get("force", False)
        if isinstance(a, list) and all(map(is_json_int, a)):
            a = tuple(a)
        elif a is not None and not is_json_int(a):
            raise VerifyError(f"a must be absent, an integer or a list of integers, got {a!r}")
        if not isinstance(force, bool):
            raise VerifyError(f"force must be true or false, got {force!r}")
        return cls(n=_positive(blob.get("n"), "n"), q=_positive(blob.get("q"), "q"), a=a,
                   force=force, expectation=Expectation.from_json(blob.get("expectation")),
                   **text)


def load_claims() -> tuple:
    raw = resources.files("omega23").joinpath("data/claims.jsonl").read_text(encoding="utf-8")
    rows = []
    for line in raw.splitlines():
        line = line.strip()
        if line:
            rows.append(Claim.from_json(json.loads(line)))
    return tuple(rows)


@lru_cache(maxsize=512)
def _cached_pair(n: int, q: int, a, force: bool) -> GenPair:
    return build_pair(n, field_from_prime_power(q), a, force=force)


def evaluate_claim_word(pair: GenPair, word: str) -> Matrix:
    """Evaluate the claim word; a "|S9" suffix restricts to the tail block."""
    restricted = word.endswith("|S9")
    core = word[: -len("|S9")] if restricted else word
    value = evaluate_word(core, pair.x, pair.y)
    if restricted:
        value = restrict(value, s9_coords(pair.n))
    return value


def verify_order_claims(claims) -> VerificationReport:
    rec = _Recorder({"battery": "order-claims", "rows": len(claims)})
    for claim in sorted(claims, key=lambda c: c.id):
        try:
            pair = _cached_pair(claim.n, claim.q, claim.a, claim.force)
            value = evaluate_claim_word(pair, claim.word)
            order = element_order(value)
            rec.add(claim.id, claim.expectation.check(order), claim.expectation.describe(),
                    f"order = {order}", claim.paper_ref)
        except (ValueError, ArithmeticError) as exc:
            rec.add(claim.id, False, claim.expectation.describe(), f"error: {exc}",
                    claim.paper_ref)
    return rec.report()


# ---------------------------------------------------------------------------
# polynomial and hermitian representations


def sym_power_rep(ctx: FieldCtx, g: Matrix, d: int) -> Matrix:
    """Action on homogeneous degree-d forms in two variables.

    Basis is t1^d, t1^(d-1) t2, ..., t2^d; the variables transform by
    t_i -> sum_j g[j, i] t_j, so columns are images of basis monomials.
    """
    if d < 1:
        raise VerifyError("the degree must be at least 1")
    if g.rows != 2 or g.cols != 2:
        raise VerifyError("expected a 2x2 matrix")
    if g.ctx != ctx:
        raise VerifyError(f"the matrix is over GF({g.ctx.q}), not GF({ctx.q})")
    # the images of t1 and t2 with t1 set to 1, so the power of T is the degree in t2
    lin1, lin2 = Poly(ctx, g.data[:, 0]), Poly(ctx, g.data[:, 1])
    pow1, pow2 = [Poly(ctx, [1])], [Poly(ctx, [1])]
    for _ in range(d):
        pow1.append(pow1[-1] * lin1)
        pow2.append(pow2[-1] * lin2)
    out = np.zeros((d + 1, d + 1, ctx.f), dtype=np.int64)
    for j in range(d + 1):
        coeffs = (pow1[d - j] * pow2[j]).coeffs  # (image of t1)^(d-j) (image of t2)^j
        out[: coeffs.shape[0], j] = coeffs
    return Matrix(ctx, out)


@lru_cache(maxsize=32)
def _subfield_data(p: int, f2: int):
    """Embedding of the index-2 subfield: a root of its modulus plus a solver."""
    ctx2 = make_field(p, f2)
    base = make_field(p, f2 // 2)
    rho = None
    modulus = Poly(ctx2, base.modulus)
    for i in range(ctx2.q):
        cand = ctx2.from_index(i)
        if not modulus.eval_elem(cand).any():
            rho = cand
            break
    if rho is None:
        raise VerifyError("no root of the base modulus in the extension")
    powers = np.zeros((f2, base.f), dtype=np.int64)
    cur = ctx2.one.copy()
    for i in range(base.f):
        powers[:, i] = cur
        cur = ctx2.mul(cur, rho)
    # [powers | I] in reduced echelon form over F_p: the first base.f solver
    # rows recover coordinates, the others span the left null space of the
    # powers and so vanish exactly on subfield values
    aug = np.concatenate([powers, np.eye(f2, dtype=np.int64)], axis=1)
    solver = rref(make_field(p, 1), aug[:, :, None])[0][:, base.f:, 0]
    return base, rho, solver


def _pull_back(ctx2: FieldCtx, base: FieldCtx, solver: np.ndarray, value) -> np.ndarray:
    coeffs = (solver @ (np.asarray(value) % ctx2.p)) % ctx2.p
    if coeffs[base.f:].any():
        raise VerifyError("value does not lie in the index-2 subfield")
    return coeffs[: base.f]


def hermitian_rep(ctx_q2: FieldCtx, g: Matrix) -> Matrix:
    """Action on the 9-dimensional space of conjugate-symmetric 3x3 matrices.

    The space consists of A whose transpose equals the entrywise q-th power
    of A, an F_q-structure inside the quadratic extension. Fixed basis:
    E11, E22, E33, then for each index pair (1,2), (1,3), (2,3) the
    symmetric unit E_ij + E_ji followed by the twisted unit
    d*E_ij + d^q*E_ji, where d is the class of the field generator.
    The action is A -> (degree-2 image of g)^T A (same image)^sigma and the
    output matrix is written over the index-2 subfield.
    """
    if ctx_q2.f % 2 != 0:
        raise WrongExtensionDegree("the field must be a square-order extension")
    if g.rows != 2 or g.cols != 2:
        raise VerifyError("expected a 2x2 matrix")
    base, _rho, solver = _subfield_data(ctx_q2.p, ctx_q2.f)
    half = ctx_q2.f // 2
    psi = sym_power_rep(ctx_q2, g, 2)
    psi_sigma = Matrix(ctx_q2, ctx_q2.frobenius(psi.data, half))
    delta = ctx_q2.from_index(ctx_q2.p)  # the class of the generator
    delta_q = ctx_q2.frobenius(delta, half)

    basis = []
    for i in range(3):
        b = np.zeros((3, 3, ctx_q2.f), dtype=np.int64)
        b[i, i] = ctx_q2.one
        basis.append(b)
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        u = np.zeros((3, 3, ctx_q2.f), dtype=np.int64)
        u[i, j] = ctx_q2.one
        u[j, i] = ctx_q2.one
        basis.append(u)
        v = np.zeros((3, 3, ctx_q2.f), dtype=np.int64)
        v[i, j] = delta
        v[j, i] = delta_q
        basis.append(v)

    denom = ctx_q2.inv(ctx_q2.sub(delta, delta_q))
    out = np.zeros((9, 9, base.f), dtype=np.int64)
    for col, b in enumerate(basis):
        image = (psi.transpose() @ Matrix(ctx_q2, b) @ psi_sigma).data
        coords = [image[0, 0], image[1, 1], image[2, 2]]
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            cv = ctx_q2.mul(ctx_q2.sub(image[i, j], image[j, i]), denom)
            cu = ctx_q2.sub(image[i, j], ctx_q2.mul(cv, delta))
            coords.extend([cu, cv])
        for row, val in enumerate(coords):
            out[row, col] = _pull_back(ctx_q2, base, solver, val)
    return Matrix(base, out)
