"""Generator pairs: an involution x and an order-3 element y per (n, q, a).

`classify` is the construction's one dimension rule (case A, or the B5
and B6 tail layouts with n = 3m + 9 + r), and `gram_matrix` is the form
each case preserves; an unsupported n raises `Unsupported` from both.
The 9x9 seed matrices live in data/figures.json (symbolic [num, den,
a-power] entries, with a CRC-32 of their canonical JSON checked at
load); everything else is permutation plumbing around them.
Construction re-verifies every structural invariant it can and raises
TranscriptionError on any mismatch, so a corrupted data file cannot
produce a silently wrong pair.
"""

from __future__ import annotations

import json
import zlib
from functools import cached_property, lru_cache
from importlib import resources

import numpy as np

from . import Clauses, Record
from .fields import FieldCtx, elem_to_json, field_to_json, is_square, subfield_degree
from .forms import OrthoSpace, in_omega
from .linalg import Matrix, Poly, commutator, restrict


class GenError(ValueError):
    pass


class Unsupported(GenError):
    def __init__(self, n):
        super().__init__(
            f"dimension {n} is not supported: n must be odd and >= 9, "
            "or even and >= 12 (excluding 14)")
        self.n = n


class ZeroParameter(GenError):
    pass


class NoAdmissibleParameter(GenError):
    pass


class NotAdmissible(GenError):
    pass


class DivisionByZero(GenError):
    pass


class WrongCase(GenError):
    pass


class TranscriptionError(GenError):
    """A figure-derived invariant failed; the build must not continue."""


# ---------------------------------------------------------------------------
# case classification


class CaseTag(Record):
    case: str  # "A" | "B5" | "B6"
    m: int | None = None
    r: int | None = None


# case A by n: the 1-based cycles of x1 and of y1, and the exclusion
# polynomial in a as ascending integer coefficients (n = 13 has none)
_CASE_A = {
    9: ([], [], [-1, -1, 1]),
    # (a - 1)(a^3 + 2a^2 + a + 1)
    11: ([(1, 3), (2, 4)], [], [-1, 0, -1, 1, 1]),
    13: ([(1, 2), (4, 5)], [(2, 3, 4)], None),
    17: ([(1, 3), (2, 4), (5, 6), (8, 9)], [(3, 4, 5), (6, 7, 8)], [1, -1, 1, 0, 1]),
}


def classify(n: int) -> CaseTag:
    """The construction's one dimension rule: case A for n in (9, 11, 13,
    17); otherwise n = 3m + 9 + r with r in {0, 1, 2}, laid out as B6 for
    n in (12, 16, 20) and as B5 for n in (15, 18, 19) or n >= 21."""
    if n in _CASE_A:
        return CaseTag("A")
    if n in (12, 16, 20):
        case = "B6"
    elif n in (15, 18, 19) or n >= 21:
        case = "B5"
    else:
        raise Unsupported(n)
    m, r = divmod(n - 9, 3)
    return CaseTag(case, m, r)


def gram_matrix(n: int, ctx: FieldCtx) -> OrthoSpace:
    """The construction's Gram matrix in dimension n: case A's, I_(n-3) plus
    the 3x3 antidiagonal, or case B's, I_(n-8) plus the pairing of two
    4-dimensional blocks, which the B5 and B6 layouts share. Both are the
    permutation matrices of their transpositions, so J keeps its sign as
    its determinant."""
    if classify(n).case == "A":
        j = _perm_matrix(ctx, n, [(n - 2, n)])
        expected_det = ctx.coerce(-1)
    else:
        j = _perm_matrix(ctx, n, [(n - 7 + i, n - 3 + i) for i in range(4)])
        expected_det = ctx.coerce(1)
    assert np.array_equal(j.det(), expected_det)
    return OrthoSpace(j)


# ---------------------------------------------------------------------------
# figure data


@lru_cache(maxsize=1)
def _figures() -> dict:
    raw = resources.files("omega23").joinpath("data/figures.json").read_text(encoding="utf-8")
    blob = json.loads(raw)
    canon = json.dumps(blob["figures"], sort_keys=True, separators=(",", ":"))
    # The file also records the SHA-256 of these bytes, which the tests
    # check; loading checks the CRC-32, as zlib is already loaded by numpy
    # and hashlib would load OpenSSL.
    if zlib.crc32(canon.encode()) != blob["crc32"]:
        raise TranscriptionError("figure data file failed its checksum")
    return blob["figures"]


def _instantiate(ctx: FieldCtx, name: str, a_vec) -> np.ndarray:
    """Evaluate a symbolic figure matrix at the parameter a."""
    sym = _figures()[name]
    rows = len(sym)
    cols = len(sym[0])
    out = np.zeros((rows, cols, ctx.f), dtype=np.int64)
    powers = {0: ctx.one.copy()}
    for i in range(rows):
        for j in range(cols):
            num, den, apow = sym[i][j]
            if num == 0:
                continue
            if apow not in powers:
                if apow < 0 and not np.asarray(a_vec).any():
                    raise DivisionByZero("a = 0 is not invertible in the figure entries")
                powers[apow] = ctx.pow(a_vec, apow)
            val = ctx.mul(ctx.coerce(num), powers[apow])
            if den != 1:
                val = ctx.mul(val, ctx.inv(ctx.coerce(den)))
            out[i, j] = val
    return out


def _perm_matrix(ctx: FieldCtx, n: int, cycles) -> Matrix:
    """Permutation matrix sending e_a -> e_b along each cycle (a, b, ...).

    When the cycles define a bijection sigma, the matrix keeps its sign,
    (-1)**(n - #cycles of sigma), as its determinant."""
    sigma = list(range(n))
    for cyc in cycles:
        for k, src in enumerate(cyc):
            dst = cyc[(k + 1) % len(cyc)]
            sigma[src - 1] = dst - 1
    d = np.zeros((n, n, ctx.f), dtype=np.int64)
    for j, i in enumerate(sigma):
        d[i, j, 0] = 1
    out = Matrix(ctx, d)
    if sorted(sigma) == list(range(n)):
        out._keep_det(ctx.coerce(_sign(sigma)))
    return out


def _sign(sigma) -> int:
    """The sign (-1)**(n - #cycles) of a permutation sigma of range(n)."""
    seen, cycles = set(), 0
    for start in range(len(sigma)):
        if start in seen:
            continue
        cycles += 1
        while start not in seen:
            seen.add(start)
            start = sigma[start]
    return (-1) ** (len(sigma) - cycles)


def _embed_tail(ctx: FieldCtx, n: int, block: np.ndarray) -> Matrix:
    """diag(I_{n-k}, block) for a (k, k, f) block."""
    k = block.shape[0]
    d = np.zeros((n, n, ctx.f), dtype=np.int64)
    for i in range(n - k):
        d[i, i, 0] = 1
    d[n - k :, n - k :] = block
    return Matrix(ctx, d)


def _nu1_cycles(r: int, n_even: bool):
    if r == 0:
        return [(1, 2)] if n_even else []
    if r == 1:
        return [(1, 2), (3, 6)] if n_even else [(1, 2)]
    return [(1, 3), (2, 4), (7, 10)] if n_even else [(1, 3), (2, 4)]


# ---------------------------------------------------------------------------
# admissibility


def admissible(n: int, ctx: FieldCtx, a) -> Clauses:
    """Parameter test for the given dimension; reasons name failed clauses."""
    tag = classify(n)
    a_vec = ctx.coerce(a)
    if not a_vec.any():
        raise ZeroParameter("a must be nonzero")
    reasons = []
    if tag.case == "A":
        if subfield_degree(ctx, a_vec) != ctx.f:
            reasons.append("a-generates-proper-subfield")
        if not is_square(ctx, ctx.neg(a_vec)):
            reasons.append("minus-a-not-a-square")
        _, _, excl = _CASE_A[n]
        if excl is not None and not Poly(ctx, excl).eval_elem(a_vec).any():
            reasons.append("exclusion-polynomial-vanishes")
    elif tag.case == "B5":
        if subfield_degree(ctx, a_vec) != ctx.f:
            reasons.append("a-generates-proper-subfield")
    else:  # B6
        a2 = ctx.mul(a_vec, a_vec)
        if subfield_degree(ctx, a2) != ctx.f:
            reasons.append("a-squared-generates-proper-subfield")
        if np.array_equal(a2, ctx.coerce(2)) or np.array_equal(a2, ctx.coerce(3)):
            reasons.append("a-squared-in-excluded-set")
    return Clauses(tuple(reasons))


class SearchResult(Record):
    values: tuple[np.ndarray, ...]  # read-only (f,) vectors
    guaranteed: bool
    inequality: str
    lhs: int
    rhs: int

    # by identity: `values` holds arrays, whose == is elementwise
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _nongen_bound(p: int, f: int) -> int:
    # upper bound for the number of elements lying in a proper subfield
    return p * (p ** (f // 2) - 1) // (p - 1)


def search_a(n: int, ctx: FieldCtx, all: bool = False) -> SearchResult:
    """Admissible parameters in canonical element order (first only unless all)."""
    tag = classify(n)
    values = []
    for i in range(1, ctx.q):
        cand = ctx.from_index(i)
        if admissible(n, ctx, cand):
            cand.setflags(write=False)
            values.append(cand)
            if not all:
                break
    if not values:
        raise NoAdmissibleParameter(f"no admissible a for n={n}, q={ctx.q}")
    p, f, q = ctx.p, ctx.f, ctx.q
    bound = _nongen_bound(p, f)
    if tag.case == "A":
        if f == 1:
            ineq, lhs, rhs = "explicit-witness-minus-one", 1, 0
        else:
            # (q-1)/2 candidates with -a square, minus subfield losses, minus
            # at most 4 roots of the exclusion polynomial, must stay positive
            ineq, lhs, rhs = "case-A-margin", (q - 1) // 2 - bound, 4
    elif tag.case == "B5":
        ineq, lhs, rhs = "field-generator-count", q - 1, bound
    else:
        if f == 1:
            ineq, lhs, rhs = "explicit-witness-one", 1, 0
        else:
            ineq, lhs, rhs = "even-dim-margin", q - 2 * bound, 1
    return SearchResult(tuple(values), lhs > rhs, ineq, lhs, rhs)


def default_a(n: int, ctx: FieldCtx) -> np.ndarray:
    """Deterministic default parameter per case, as a fresh (f,) vector:
    over a prime field -1 in case A and 1 otherwise, else the first
    admissible value."""
    if ctx.f == 1:
        return ctx.coerce(-1 if classify(n).case == "A" else 1)
    return search_a(n, ctx).values[0].copy()


# ---------------------------------------------------------------------------
# pair construction


class GenPair(Record, compare=("x", "y")):
    """The generators x and y; n and the field are read off x, and the case
    and the form off the dimension rule. Pairs compare by x and y, which
    already tell a apart."""
    x: Matrix
    y: Matrix
    a: np.ndarray  # read-only (f,) vector
    # whether build_pair skipped the admissibility and spinor-kernel checks
    forced: bool = False

    @property
    def n(self) -> int:
        return self.x.rows

    @property
    def ctx(self) -> FieldCtx:
        return self.x.ctx

    @cached_property
    def tag(self) -> CaseTag:
        return classify(self.n)

    @cached_property
    def space(self) -> OrthoSpace:
        return gram_matrix(self.n, self.ctx)

    # x^2, y^2 = y^-1 and y^3, as products, each formed at most once
    @cached_property
    def x_squared(self) -> Matrix:
        return self.x @ self.x

    @cached_property
    def y_squared(self) -> Matrix:
        return self.y @ self.y

    @cached_property
    def y_cubed(self) -> Matrix:
        return self.y_squared @ self.y

    @cached_property
    def s9_space(self) -> OrthoSpace:
        """S9 with the pair's form restricted to it."""
        return OrthoSpace(restrict(self.space.J, s9_coords(self.n)))

    @cached_property
    def s9_restrictions(self) -> tuple:
        """(y|S9, tau|S9, tau, [x, y]) with tau = [x, y]^24, unchecked: the
        case-B battery checks them against the printed blocks, and certify
        acts on S9 by y|S9 and tau|S9."""
        coords = s9_coords(self.n)
        g = commutator(self.x, self.y)
        tau_full = g.pow(24)
        return restrict(self.y, coords), restrict(tau_full, coords), tau_full, g


def _require(cond: bool, what: str):
    if not cond:
        raise TranscriptionError(f"construction invariant failed: {what}")


def build_pair(n: int, ctx: FieldCtx, a=None, force: bool = False) -> GenPair:
    tag = classify(n)
    a_vec = ctx.coerce(default_a(n, ctx) if a is None else a)
    a_vec.setflags(write=False)
    if not a_vec.any():
        if tag.case == "A":
            raise DivisionByZero("a = 0 is not invertible in the figure entries")
        raise ZeroParameter("a must be nonzero")
    if not force:
        res = admissible(n, ctx, a_vec)
        if not res:
            raise NotAdmissible(
                f"a={elem_to_json(ctx, a_vec)} fails admissibility for n={n}: "
                f"{', '.join(res.reasons)}"
            )

    if tag.case == "A":
        x1_cycles, y1_cycles, _ = _CASE_A[n]
        x1 = _perm_matrix(ctx, n, x1_cycles)
        y1 = _perm_matrix(ctx, n, y1_cycles)
        x2 = _embed_tail(ctx, n, _instantiate(ctx, "xbar", a_vec))
        y2 = _embed_tail(ctx, n, _instantiate(ctx, "ybar", a_vec))
    else:
        m, r = tag.m, tag.r
        nu1 = _nu1_cycles(r, n % 2 == 0)
        nu2 = [(3 * j + r + 3, 3 * j + r + 4) for j in range(m)]
        n_transpositions = len(nu1) + len(nu2)
        _require(n_transpositions % 2 == 0, "transposition count N must be even")
        expected_n = {0: (1, 0), 1: (2, 1), 2: (3, 2)}[r][0 if n % 2 == 0 else 1] + m
        _require(n_transpositions == expected_n, "transposition count table")
        x1 = _perm_matrix(ctx, n, nu1 + nu2)
        y1 = _perm_matrix(ctx, n, [(3 * j + r + 1, 3 * j + r + 2, 3 * j + r + 3) for j in range(m)])
        xt = _instantiate(ctx, "xtilde", a_vec)
        _check_sl4_block(ctx, xt)
        x2 = _embed_tail(ctx, n, xt)
        y2 = _embed_tail(ctx, n, _instantiate(ctx, "ytilde", a_vec))

    x, y, ident = x1 @ x2, y1 @ y2, Matrix.identity(ctx, n)
    _require(x == x2 @ x1, "x1 and x2 must commute")
    _require(y == y2 @ y1, "y1 and y2 must commute")
    pair = GenPair(x, y, a_vec, bool(force))
    _require(pair.x_squared == ident, "x^2 = I")
    _require(pair.y_cubed == ident, "y^3 = I")
    _require(y != ident, "y != I")
    # the two checks prove x^-1 = x and y^-1 = y^2
    x._keep_inverse(x.blocks)
    y._keep_inverse(pair.y_squared.blocks)
    # x and y keep their verdicts for pair.space, which later readers pass
    x_member, y_member = in_omega(pair.space, x), in_omega(pair.space, y)
    _require("not-an-isometry" not in x_member.reasons, "x preserves the form")
    _require("not-an-isometry" not in y_member.reasons, "y preserves the form")
    _require("determinant-not-one" not in x_member.reasons, "det x = 1")
    _require("determinant-not-one" not in y_member.reasons, "det y = 1")
    _require(np.array_equal(y1.det(), ctx.one), "y1 is an even permutation")
    if tag.case == "A":
        _x3_decomposition_check(ctx, n, x, a_vec)
    if not force:
        _require(x_member.ok, "x has trivial spinor norm")
        _require(y_member.ok, "y has trivial spinor norm")
    return pair


def _check_sl4_block(ctx: FieldCtx, xt: np.ndarray):
    """x-tilde must be diag(1, h, h^{-T}) with h in SL_4."""
    h = Matrix(ctx, xt[1:5, 1:5])
    hmt = Matrix(ctx, xt[5:9, 5:9])
    _require(np.array_equal(xt[0, 0], ctx.one) and not xt[0, 1:].any() and not xt[1:, 0].any(),
             "x-tilde corner block")
    _require(not xt[1:5, 5:9].any() and not xt[5:9, 1:5].any(), "x-tilde off blocks vanish")
    _require(np.array_equal(h.det(), ctx.one), "h in SL_4")
    # hmt = h^-T exactly when hmt^T h = I, so h is not inverted
    _require((hmt.transpose() @ h).is_identity(), "lower block is h^{-T}")


def _x3_decomposition_check(ctx: FieldCtx, n: int, x: Matrix, a_vec):
    """x = (even permutation) * diag(I_{n-3}, x3) with x3 the printed block."""
    x3 = Matrix(ctx, _instantiate(ctx, "xbar", a_vec)[6:, 6:])
    # diag(I, x3)^-1 = diag(I, x3^-1), so only the 3x3 block is inverted
    d = (x @ _embed_tail(ctx, n, x3.inverse().data)).data
    _require(
        bool(((d[:, :, 0] == 0) | (d[:, :, 0] == 1)).all()) and not d[:, :, 1:].any()
        and (d[:, :, 0].sum(axis=0) == 1).all() and (d[:, :, 0].sum(axis=1) == 1).all(),
        "x factors as permutation times diag(I, x3)",
    )
    # column j holds its 1 in row sigma(j)
    _require(_sign(d[:, :, 0].argmax(axis=0).tolist()) == 1, "permutation part of x is even")


# ---------------------------------------------------------------------------
# tau and the distinguished subspaces


def theta_block(ctx: FieldCtx, a, corrected: bool) -> Matrix:
    """The printed 8x8 block of tau, with the even-dimension correction if asked."""
    base = _instantiate(ctx, "theta0", ctx.coerce(a))
    if corrected:
        base = (base + _instantiate(ctx, "theta_correction_even_dim", ctx.coerce(a))) % ctx.p
    return Matrix(ctx, base)


def s9_coords(n: int) -> tuple:
    """S9, the span of the last nine unit vectors, as its 0-based coordinates."""
    return tuple(range(n - 9, n))


class SpecialSubspaces(Record):
    """The tail S9 and the splitting into A- and B-summands and C, each a
    coordinate subspace held as its tuple of 0-based coordinates, with the
    action of [x, y] on the summands: coordinate i goes to action[i]."""
    S9: tuple
    A_summands: tuple  # tuple of coordinate tuples; empty at n=12
    B_summands: tuple
    C: tuple  # empty at n=12
    action: dict


# the paper's 1-based cycles of [x, y] on each A-summand, one list per
# summand; a 1-cycle marks a fixed coordinate
_A_SPECIAL = {
    15: [[(1,), (3, 4)]],
    16: [[(1, 5)], [(2, 4)]],
    19: [[(1, 5, 4, 2)], [(3, 8, 7)]],
    20: [[(1, 6, 8, 2)], [(3, 4, 9, 5)]],
    23: [[(1, 6, 5, 3, 4, 9, 8, 2)], [(7, 12, 11)]],
}
_A_GENERIC = {  # by n % 6
    0: [[(1, 4, 3, 2, 7, 6)]],
    1: [[(1, 5, 4, 2)], [(3, 8, 7), (6, 11, 10)]],
    2: [[(1, 6, 8, 2), (3, 4, 9, 5)], [(7, 12, 11, 10, 15, 14)]],
    3: [[(1,), (2, 7, 6), (3, 4)]],
    4: [[(1, 5), (2, 4)], [(3, 8, 7, 6, 11, 10)]],
    5: [[(1, 6, 5, 3, 4, 9, 8, 2)], [(7, 12, 11), (10, 15, 14)]],
}


def special_subspaces(pair: GenPair) -> SpecialSubspaces:
    if pair.tag.case == "A":
        raise WrongCase("the distinguished subspaces belong to the case-B pairs")
    n = pair.n
    tail = s9_coords(n)
    if n == 12:
        return SpecialSubspaces(tail, (), (), (), {})
    m, r = pair.tag.m, pair.tag.r
    action = {}

    def summand(cycles) -> tuple:
        for cyc in cycles:
            action.update((src - 1, cyc[(k + 1) % len(cyc)] - 1) for k, src in enumerate(cyc))
        return tuple(sorted(src - 1 for cyc in cycles for src in cyc))

    a_summands = tuple(map(summand, _A_SPECIAL.get(n, _A_GENERIC[n % 6])))
    # B-summand j is one 3-cycle of [x, y]
    b_summands = tuple(summand([(5 + 4 * r + 3 * j, 10 + 4 * r + 3 * j, 9 + 4 * r + 3 * j)])
                       for j in range(m - 3 - r))
    c = (n - 14, n - 11, n - 10, *tail)  # the paper's n-13, n-10, n-9 and S9
    coords = sorted(i for grp in (*a_summands, *b_summands, c) for i in grp)
    _require(coords == list(range(n)), "the summands and C partition the coordinates")
    return SpecialSubspaces(tail, a_summands, b_summands, c, action)


# ---------------------------------------------------------------------------
# JSON form


def pair_to_json(pair: GenPair) -> dict:
    out = field_to_json(pair.ctx)
    out.update(
        {
            "n": pair.n,
            "a": elem_to_json(pair.ctx, pair.a),
            "case": pair.tag.case,
            "x": pair.x.to_json(),
            "y": pair.y.to_json(),
            "J": pair.space.J.to_json(),
            "eps": pair.space.eps,
        }
    )
    return out


def pair_to_text(pair: GenPair) -> str:
    """Plain-text matrix dump for human diffing."""
    lines = [
        f"n = {pair.n}, q = {pair.ctx.q}, case = {pair.tag.case}, "
        f"a = {elem_to_json(pair.ctx, pair.a)}, eps = {pair.space.eps}",
    ]
    for name, mat in (("x", pair.x), ("y", pair.y), ("J", pair.space.J)):
        lines.append(f"{name} =")
        for i in range(mat.rows):
            row = []
            for j in range(mat.cols):
                v = elem_to_json(pair.ctx, mat.data[i, j])
                row.append(str(v))
            lines.append("  [" + ", ".join(row) + "]")
    return "\n".join(lines) + "\n"
