"""Polynomials, matrices, orders, and the word language."""

import gc
from functools import lru_cache

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys import galoistools
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_irreducible_p, gf_sqf_list
from sympy.polys.matrices import DomainMatrix

from omega23 import linalg, verify
from omega23.fields import FieldCtx, field_from_prime_power, make_field
from omega23.generators import build_pair
from omega23.linalg import (
    DependentBasis,
    LinalgError,
    Matrix,
    NotInvariant,
    NotSquare,
    OrderSearchExceeded,
    ParseError,
    Poly,
    Singular,
    ZeroPolynomial,
    _distinct_degree_split,
    _squarefree_split,
    charpoly,
    eigenspace,
    element_order,
    evaluate_word,
    factor_poly,
    kernel_basis,
    minpoly,
    restrict,
    rref,
    unit_vector,
)
from omega23.verify import Claim, Expectation, _cached_pair, evaluate_claim_word, load_claims
from test_fields import _int64_edge

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F9 = make_field(3, 2)


def _rand_matrix(ctx, n, rng):
    return Matrix(ctx, rng.integers(0, ctx.p, size=(n, n, ctx.f)))


def _rand_invertible(ctx, n, rng):
    while True:
        m = _rand_matrix(ctx, n, rng)
        if m.det().any():
            return m


def _ppow(f, e):
    out = Poly(f.ctx, [1])
    for _ in range(e):
        out = out * f
    return out


def _is_monic(f):
    return f.degree >= 0 and np.array_equal(f.coeffs[-1], f.ctx.one)


# ---------------------------------------------------------------------------
# polynomial arithmetic


@pytest.mark.parametrize("ctx", [F3, F5, F9], ids=lambda c: f"q{c.q}")
def test_poly_divmod_property(ctx):
    rng = np.random.default_rng(11)
    for _ in range(40):
        f = Poly(ctx, rng.integers(0, ctx.p, size=(rng.integers(1, 7), ctx.f)))
        g = Poly(ctx, rng.integers(0, ctx.p, size=(rng.integers(1, 5), ctx.f)))
        if g.is_zero():
            continue
        q, r = divmod(f, g)
        qg = (q * g).coeffs
        k = max(len(qg), len(r.coeffs))
        assert Poly(ctx, np.pad(qg, ((0, k - len(qg)), (0, 0)))
                    + np.pad(r.coeffs, ((0, k - len(r.coeffs)), (0, 0)))) == f
        assert r.is_zero() or r.degree < g.degree


def test_poly_refuses_coefficients_of_the_wrong_width():
    # (k,) prime-field ints and (k, f) field elements are the only shapes
    assert Poly(F9, [1, 2]) == Poly(F9, [[1, 0], [2, 0]])
    for bad in (np.ones((3, 1), np.int64), np.ones((3, 3), np.int64),
                np.ones((2, 2, 2), np.int64), np.int64(1)):
        with pytest.raises(LinalgError, match="bad polynomial coefficient shape"):
            Poly(F9, bad)
    with pytest.raises(LinalgError):
        Poly(F3, np.ones((3, 2), np.int64))


def test_poly_eval_consistency():
    f = Poly(F5, [1, 1, 1])  # t^2 + t + 1
    assert int(f.eval_elem(F5.coerce(2))[0]) == (4 + 2 + 1) % 5
    m = Matrix.from_rows(F5, [[1, 1], [0, 1]])
    fm = f.eval_matrix(m)
    manual = m @ m + m + Matrix.identity(F5, 2)
    assert fm == manual
    with pytest.raises(NotSquare):
        f.eval_matrix(Matrix.zeros(F5, 2, 3))


# ---------------------------------------------------------------------------
# matrix algebra


@pytest.mark.parametrize("ctx", [F3, F5, F9], ids=lambda c: f"q{c.q}")
def test_inverse_and_det_multiplicative(ctx):
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = _rand_invertible(ctx, 4, rng)
        g = _rand_invertible(ctx, 4, rng)
        assert (m @ m.inverse()).is_identity()
        lhs = Matrix(ctx, (m @ g).det()[None, None, :])
        rhs = Matrix(ctx, ctx.mul(m.det(), g.det())[None, None, :])
        assert lhs == rhs
        assert (m @ g).transpose() == g.transpose() @ m.transpose()


def test_pow_matches_repeated_product():
    rng = np.random.default_rng(3)
    m = _rand_invertible(F5, 3, rng)
    acc = Matrix.identity(F5, 3)
    for e in range(7):
        assert m.pow(e) == acc
        acc = acc @ m
    assert m.pow(-2) == (m.inverse() @ m.inverse())


def test_singular_inverse_raises():
    m = Matrix.from_rows(F3, [[1, 2], [2, 1]])  # det = 1 - 4 = 0 mod 3
    assert not m.det().any()
    with pytest.raises(Singular):
        m.inverse()


def test_identity_block_is_one_read_only_array_a_size():
    eye = linalg._eye(9)
    assert eye is linalg._eye(9)
    assert np.array_equal(eye, np.eye(9, dtype=np.int64))
    with pytest.raises(ValueError):
        eye[0, 0] = 0


# det() and inverse() keep their first result on the matrix

memo_case = settings(derandomize=True, max_examples=40, deadline=None)
memo_q_st = st.sampled_from([3, 5, 9, 25, 27])


@memo_case
@given(q=memo_q_st, n=st.integers(1, 6),
       kind=st.sampled_from(["random", "sparse", "anti-triangular", "low-rank"]),
       seed=st.integers(0, 2**32 - 1))
def test_kept_det_and_inverse_equal_a_fresh_elimination(q, n, kind, seed):
    """Two matrices of one shape, each asked twice, give what the Python
    reference and a rebuilt copy give; a write to a returned det reaches
    neither a later det() nor the inverse's source."""
    ctx = field_from_prime_power(q)
    rng = np.random.default_rng(seed)
    for a in (_shaped(ctx, rng, n, n, kind), _shaped(ctx, rng, n, n, "random")):
        m = Matrix(ctx, a)
        _, _, ref_det, ref_inv = _ref_elimination(ctx, a)
        for _ in range(2):
            rebuilt = Matrix(ctx, m.data.copy())
            assert tuple(m.det().tolist()) == tuple(rebuilt.det().tolist()) == ref_det
            if ref_inv is None:
                continue
            inv = m.inverse()
            assert inv == rebuilt.inverse()
            assert inv.data.tolist() == [[list(x) for x in row] for row in ref_inv]
            assert inv is m.inverse()
            assert not any(r is m for r in gc.get_referents(inv))
        d = m.det()
        try:
            d[0] = (d[0] + 1) % ctx.p
        except ValueError:  # handed out read-only
            pass
        assert tuple(m.det().tolist()) == ref_det


@memo_case
@given(q=memo_q_st, n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_a_failed_inverse_or_det_raises_on_every_call(q, n, seed):
    ctx = field_from_prime_power(q)
    rng = np.random.default_rng(seed)
    singular = Matrix(ctx, _shaped(ctx, rng, n, n, "low-rank"))  # rank < n
    wide = Matrix(ctx, _shaped(ctx, rng, n, n + 1, "random"))
    for _ in range(2):
        with pytest.raises(Singular):
            singular.inverse()
        assert not singular.det().any()
        with pytest.raises(NotSquare):
            wide.det()
        with pytest.raises(NotSquare):
            wide.inverse()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), q=st.sampled_from([3, 5, 7, 9, 25, 27]), n=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_block_inverse_is_the_block_form_of_the_inverse(data, q, n, seed):
    ctx = field_from_prime_power(q)
    m = _rand_invertible(ctx, n, np.random.default_rng(seed))
    got = linalg._block_inverse(m.blocks, ctx.p)
    want = m.inverse().blocks
    assert got.dtype == want.dtype and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    # a zero column makes the matrix singular, wherever it sits
    col = data.draw(st.integers(0, n - 1), label="zero column")
    entries = m.data.copy()
    entries[:, col] = 0
    with pytest.raises(Singular):
        linalg._block_inverse(Matrix(ctx, entries).blocks, ctx.p)


def test_rank_rref_kernel():
    # rows 2 and 3 are 2x and 3x row 1 mod 5: rank 1, kernel dimension 2
    m = Matrix.from_rows(F5, [[1, 2, 3], [2, 4, 1], [3, 6, 4]])
    assert len(rref(F5, m.data)[1]) == 1
    ker = kernel_basis(m)
    assert len(ker) == 2
    for v in ker:
        prod = np.einsum("ijf,jf->if", m.data, np.asarray(v)) % 5
        assert not prod.any()
    full = Matrix.from_rows(F5, [[1, 0], [1, 1]])
    assert len(rref(F5, full.data)[1]) == 2 and len(kernel_basis(full)) == 0


def test_json_round_trip():
    rng = np.random.default_rng(5)
    for ctx in (F5, F9):
        m = _rand_matrix(ctx, 3, rng)
        assert Matrix.from_json(ctx, m.to_json()) == m


# ---------------------------------------------------------------------------
# the product against the three-operand einsum reference

PRODUCT_QS = (3, 5, 7, 9, 25, 27, 49, 81, 125)


def _einsum_product(ctx, a, b):
    """Reference product of (r, k, f) and (k, c, f) coefficient arrays."""
    return np.einsum("iku,kjv,uvw->ijw", a, b, ctx.mul_table) % ctx.p


def _entries(ctx, rng, shape, fill):
    if fill == "max":  # every coefficient p - 1: the largest sums
        return np.full((*shape, ctx.f), ctx.p - 1, dtype=np.int64)
    return rng.integers(0, ctx.p, size=(*shape, ctx.f))


def _sympy(a):
    """A prime-field (r, c, 1) coefficient array as an integer sympy.Matrix."""
    return sympy.Matrix(a[:, :, 0].tolist())


product_case = settings(derandomize=True, max_examples=60, deadline=None)
q_st = st.sampled_from(PRODUCT_QS)
dim_st = st.integers(1, 7)
fill_st = st.sampled_from(["random", "random", "max"])  # max: one draw in three
seed_st = st.integers(0, 2**32 - 1)


@product_case
@given(q=q_st, r=dim_st, k=dim_st, c=dim_st, fill=fill_st, seed=seed_st)
@example(q=27, r=2, k=4, c=3, fill="random", seed=1)  # c = f: a right factor of f columns
@example(q=81, r=5, k=4, c=4, fill="max", seed=2)
def test_product_matches_einsum_reference(q, r, k, c, fill, seed):
    ctx = field_from_prime_power(q)
    rng = np.random.default_rng(seed)
    a, b = _entries(ctx, rng, (r, k), fill), _entries(ctx, rng, (k, c), fill)
    v = _entries(ctx, rng, (k,), fill)
    prod = Matrix(ctx, a) @ Matrix(ctx, b)
    assert prod.data.shape == (r, c, ctx.f)
    assert np.array_equal(prod.data, _einsum_product(ctx, a, b))
    mv = Matrix(ctx, a) @ v
    assert mv.shape == (r, ctx.f)
    assert np.array_equal(mv, _einsum_product(ctx, a, v[:, None])[:, 0])
    if ctx.f == 1:
        ref = (_sympy(a) * _sympy(b)).applyfunc(lambda e: e % ctx.p)
        assert prod.data[:, :, 0].tolist() == ref.tolist()
    # a matrix holds only its block form: the other operations and the
    # `data` view against the same operations on entries
    a2, sq = _entries(ctx, rng, (r, k), fill), _entries(ctx, rng, (r, r), fill)
    s = _entries(ctx, rng, (), "random")
    ma, ma2 = Matrix(ctx, a), Matrix(ctx, a2)
    assert ma.data.shape == (r, k, ctx.f) and not ma.data.flags.writeable
    assert np.array_equal(ma.data, a) and Matrix(ctx, ma.data) == ma
    assert np.array_equal(ma.transpose().data, np.swapaxes(a, 0, 1))
    assert np.array_equal((ma + ma2).data, (a + a2) % ctx.p)
    assert np.array_equal((ma - ma2).data, (a - a2) % ctx.p)
    assert np.array_equal((-ma).data, -a % ctx.p)
    assert np.array_equal(ma.scale(s).data,
                          np.einsum("u,ijv,uvw->ijw", s, a, ctx.mul_table) % ctx.p)
    assert np.array_equal(Matrix(ctx, sq).trace(),
                          sq[np.arange(r), np.arange(r)].sum(axis=0) % ctx.p)
    for m in (prod, ma.transpose(), ma + ma2, ma - ma2, -ma, ma.scale(s)):
        assert Matrix(ctx, m.data) == m


@product_case
@given(q=st.sampled_from([3, 5, 7, 9, 25, 27]), n=st.integers(1, 12), data=st.data(),
       seed=seed_st)
def test_restrict_to_coordinates_matches_einsum_reference(q, n, data, seed):
    """m's columns at a shuffled coordinate subset vanish outside it, so
    m E = E R for E the unit columns at those coordinates and R the
    restriction; one nonzero entry outside the block breaks invariance."""
    ctx = field_from_prime_power(q)
    coords = data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))]
    outside = [i for i in range(n) if i not in coords]
    rng = np.random.default_rng(seed)
    m = _entries(ctx, rng, (n, n), "random")
    m[np.ix_(outside, coords)] = 0
    res = restrict(Matrix(ctx, m), coords)
    units = np.zeros((n, len(coords), ctx.f), dtype=np.int64)
    units[coords, range(len(coords)), 0] = 1
    assert np.array_equal(_einsum_product(ctx, m, units), _einsum_product(ctx, units, res.data))
    if outside:
        m[data.draw(st.sampled_from(outside)), data.draw(st.sampled_from(coords))] = (
            ctx.from_index(data.draw(st.integers(1, q - 1))))
        with pytest.raises(NotInvariant):
            restrict(Matrix(ctx, m), coords)


@product_case
@given(q=st.sampled_from([3, 5, 7]), n=st.integers(1, 12), seed=seed_st)
def test_charpoly_matches_sympy_at_prime_q(q, n, seed):
    ctx = make_field(q, 1)
    a = np.random.default_rng(seed).integers(0, q, size=(n, n, 1))
    lam = sympy.Symbol("lam")
    ref = sympy.Poly(_sympy(a).charpoly(lam).as_expr(), lam)
    expected = [int(c) % q for c in reversed(ref.all_coeffs())]
    assert charpoly(Matrix(ctx, a)).coeffs[:, 0].tolist() == expected


# ---------------------------------------------------------------------------
# det, rank (through rref) and inverse against independent references

shape_kind_st = st.sampled_from(["random", "sparse", "anti-triangular", "low-rank", "max"])
cols_st = st.one_of(st.none(), dim_st)  # None: square, about half the draws


def _shaped(ctx, rng, r, c, kind):
    """An (r, c, f) array: random; random with half the entries zero, or zero
    above a nonzero anti-diagonal (so pivots need row swaps, and the
    square anti-triangular case is invertible); a product through fewer
    than min(r, c) dimensions (so singular when square); or every
    coefficient p - 1."""
    if kind in ("sparse", "anti-triangular"):
        a = _entries(ctx, rng, (r, c), "random")
        i, j = np.indices((r, c))
        if kind == "sparse":
            a[rng.random((r, c)) < 0.5] = 0
        else:
            a[i + j < r - 1] = 0
            a[(i + j == r - 1) & ~a.any(axis=2), 0] = 1
        return a
    if kind == "low-rank":
        k = int(rng.integers(0, min(r, c)))
        return _einsum_product(ctx, _entries(ctx, rng, (r, k), "random"),
                               _entries(ctx, rng, (k, c), "random"))
    return _entries(ctx, rng, (r, c), kind)


def _ref_elimination(ctx, a):
    """(pivots, reduced rows, det, inverse rows or None) of an (r, c, f) array
    by Gauss-Jordan on tuples of Python ints; products go through mul_table
    term by term (memoized) and an inverse is x**(q-2) by square-and-multiply,
    checked to be one."""
    p, f = ctx.p, ctx.f
    table = ctx.mul_table.tolist()

    @lru_cache(maxsize=None)
    def mul(x, y):
        out = [0] * f
        for u in range(f):
            for v in range(f):
                for w in range(f):
                    out[w] += x[u] * y[v] * table[u][v][w]
        return tuple(c % p for c in out)

    def sub(x, y):
        return tuple((s - t) % p for s, t in zip(x, y))

    def inverse(x):
        out, base, e = one, x, ctx.q - 2
        while e:
            if e & 1:
                out = mul(out, base)
            base, e = mul(base, base), e >> 1
        assert mul(out, x) == one
        return out

    zero, one = (0,) * f, (1,) + (0,) * (f - 1)
    r, c = a.shape[0], a.shape[1]
    square = r == c
    rows = [[tuple(a[i, j].tolist()) for j in range(c)]
            + ([one if k == i else zero for k in range(r)] if square else [])
            for i in range(r)]
    det, pivots, row = one, [], 0
    for col in range(c):
        piv = next((i for i in range(row, r) if rows[i][col] != zero), None)
        if piv is None:
            continue
        if piv != row:
            rows[row], rows[piv] = rows[piv], rows[row]
            det = sub(zero, det)
        lead = rows[row][col]
        det = mul(det, lead)
        inv = inverse(lead)
        rows[row] = [mul(inv, x) for x in rows[row]]
        for i in range(r):
            if i != row and rows[i][col] != zero:
                factor = rows[i][col]
                rows[i] = [sub(x, mul(factor, y)) for x, y in zip(rows[i], rows[row])]
        pivots.append(col)
        row += 1
    full = square and len(pivots) == r
    return (pivots, [row_[:c] for row_ in rows], det if full else zero,
            [row_[c:] for row_ in rows] if full else None)


@product_case
@given(q=st.sampled_from([3, 5, 7, 11, 13]), r=dim_st, c=cols_st, kind=shape_kind_st,
       seed=seed_st)
def test_det_rank_inverse_match_sympy_at_prime_q(q, r, c, kind, seed):
    ctx = make_field(q, 1)
    c = r if c is None else c
    rng = np.random.default_rng(seed)
    a = _shaped(ctx, rng, r, c, kind)
    gf = DomainMatrix.from_Matrix(_sympy(a)).convert_to(sympy.GF(q))
    ref_red, ref_pivots = gf.rref()
    red, pivots = rref(ctx, a)
    assert pivots == list(ref_pivots)
    assert red[:, :, 0].tolist() == [[int(x) % q for x in row] for row in ref_red.to_list()]
    assert len(rref(ctx, Matrix(ctx, a).data)[1]) == gf.rank() == len(pivots)
    if r != c:
        with pytest.raises(NotSquare):
            Matrix(ctx, a).det()
        with pytest.raises(NotSquare):
            Matrix(ctx, a).inverse()
        return
    m = Matrix(ctx, a)
    det = int(_sympy(a).det()) % q
    assert m.det().tolist() == [det]
    if det:
        assert m.inverse().data[:, :, 0].tolist() == _sympy(a).inv_mod(q).tolist()
    else:
        with pytest.raises(Singular):
            m.inverse()


@product_case
@given(q=st.sampled_from([9, 25, 27, 49, 81, 125]), r=st.integers(1, 5),
       c=st.one_of(st.none(), st.integers(1, 5)), kind=shape_kind_st, seed=seed_st)
def test_det_rank_inverse_match_python_reference_over_extensions(q, r, c, kind, seed):
    ctx = field_from_prime_power(q)
    c = r if c is None else c
    _check_elimination(ctx, _shaped(ctx, np.random.default_rng(seed), r, c, kind))


def _check_elimination(ctx, a):
    """rref (array and pivots), rank, det and inverse of a equal the
    Python reference's exactly."""
    ref_pivots, ref_red, det, inv = _ref_elimination(ctx, a)
    red, pivots = rref(ctx, a)
    assert pivots == ref_pivots
    assert red.dtype == np.int64 and red.tolist() == [[list(x) for x in row] for row in ref_red]
    assert len(rref(ctx, Matrix(ctx, a).data)[1]) == len(ref_pivots)
    if a.shape[0] != a.shape[1]:
        return
    m = Matrix(ctx, a)
    assert tuple(m.det().tolist()) == det
    if inv is None:
        with pytest.raises(Singular):
            m.inverse()
    else:
        assert m.inverse().data.tolist() == [[list(x) for x in row] for row in inv]


@pytest.mark.parametrize("shape", ["square", "augmented", "rank-deficient"])
@pytest.mark.parametrize("n", [12, 13, 25])
@pytest.mark.parametrize("q", [9, 25, 27])
def test_elimination_matches_python_reference_at_workload_sizes(q, n, shape):
    """The sizes the verify batteries eliminate: n x n, the n x 2n [A | I]
    that `inverse` reduces, and a singular matrix with zero columns, so
    some columns have no pivot and are skipped."""
    ctx = field_from_prime_power(q)
    rng = np.random.default_rng(100 * n + q)
    if shape == "rank-deficient":
        a = _einsum_product(ctx, _entries(ctx, rng, (n, n - 3), "random"),
                            _entries(ctx, rng, (n - 3, n), "random"))
        a[:, [0, n // 2, n - 1]] = 0
    else:
        a = _entries(ctx, rng, (n, n), "random")
        a[rng.random((n, n)) < 0.3] = 0  # zeros on the diagonal force row swaps
    if shape == "augmented":
        a = np.concatenate([a, Matrix.identity(ctx, n).data], axis=1)
    _check_elimination(ctx, a)


@pytest.mark.parametrize("f", [2, 3])
def test_elimination_exact_at_the_largest_prime(f):
    """At the largest p that make_field accepts for GF(p^f), every int64
    sum of the elimination (row blocks, row updates, the inverse by norm
    and conjugates) has the largest terms; results stay exact."""
    ctx = make_field(int(_int64_edge(f)[0]), f)
    rng = np.random.default_rng(f)
    for a in (_entries(ctx, rng, (5, 5), "max") - np.eye(5, dtype=np.int64)[:, :, None],
              _entries(ctx, rng, (5, 5), "random"),
              np.concatenate([_entries(ctx, rng, (4, 4), "random"),
                              Matrix.identity(ctx, 4).data], axis=1)):
        _check_elimination(ctx, a)
    m = Matrix(ctx, _entries(ctx, rng, (4, 4), "random"))
    assert (m @ m.inverse()).is_identity()


def test_product_refuses_another_field_of_the_same_degree():
    with pytest.raises(LinalgError):
        Matrix.identity(make_field(3, 2), 3) @ Matrix.identity(make_field(5, 2), 3)
    with pytest.raises(LinalgError):
        Matrix.identity(F3, 3) @ Matrix.identity(F5, 3)
    # an equal context built separately is the same field
    twin = FieldCtx(3, 2, F9.modulus)
    assert twin is not F9
    assert Matrix.identity(F9, 3) @ Matrix.identity(twin, 3) == Matrix.identity(F9, 3)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(q=st.sampled_from([3, 5, 7, 9, 25, 27]), data=st.data(), seed=seed_st)
def test_kernel_basis_is_the_reduced_echelon_basis_of_the_kernel(q, data, seed):
    """m = A B through k < c dimensions, so its rank is below c. With no rref
    in the oracle: the rows are in reduced echelon form, m annihilates each,
    there are c - rank of them (rank by sympy over F_p on the block form,
    which has f times the rank over F_q), and q**rows is the number of
    kernel vectors found by trying all q**c <= 729 of them."""
    ctx = field_from_prime_power(q)
    c = data.draw(st.integers(1, max(c for c in range(1, 7) if q**c <= 729)), label="c")
    r = data.draw(st.integers(1, 6), label="r")
    k = data.draw(st.integers(0, c - 1), label="inner dimension")
    rng = np.random.default_rng(seed)
    a = _einsum_product(ctx, _entries(ctx, rng, (r, k), "random"),
                        _entries(ctx, rng, (k, c), "random"))
    m = Matrix(ctx, a)
    basis = kernel_basis(m)
    assert basis.shape[1:] == (c, ctx.f)
    leads = [int(np.flatnonzero(row.any(axis=1))[0]) for row in basis]
    assert leads == sorted(set(leads))
    for i, lead in enumerate(leads):
        assert np.array_equal(basis[i, lead], ctx.one)
        assert not np.delete(basis[:, lead], i, axis=0).any()
    assert not _einsum_product(ctx, a, basis.transpose(1, 0, 2)).any()
    block_rank = DomainMatrix.from_Matrix(sympy.Matrix(m.blocks.tolist())).convert_to(
        sympy.GF(ctx.p)).rank()
    assert len(basis) * ctx.f == (c * ctx.f - block_rank)
    vecs = np.indices((ctx.p,) * (c * ctx.f)).reshape(c * ctx.f, -1).T.reshape(-1, c, ctx.f)
    images = np.einsum("iju,bjv,uvw->biw", a, vecs, ctx.mul_table) % ctx.p
    assert int((~images.any(axis=(1, 2))).sum()) == q ** len(basis)


def test_kernel_basis_and_minpoly_are_one_rref_each(count_calls):
    rng = np.random.default_rng(7)
    counts = count_calls(linalg, "rref")
    m = _rand_matrix(F9, 5, rng)
    kernel_basis(m)
    assert counts["rref"] == 1
    minpoly(m)
    assert counts["rref"] == 2


def test_the_inverse_of_an_inverse_is_kept(count_calls):
    """m.inverse() eliminates once and keeps m's blocks as the inverse's own
    inverse, on a new Matrix, so no reference cycle forms."""
    m = _rand_invertible(F9, 5, np.random.default_rng(8))
    counts = count_calls(linalg, "rref")
    back = m.inverse().inverse()
    assert counts["rref"] == 1
    assert back == m and back is not m and back.blocks is m.blocks
    assert back._inv is None


@pytest.mark.parametrize("q", [3, 25])
def test_coordinate_restrictions_eliminate_nothing(count_calls, q):
    """y|S9 and tau|S9 are slices of y and of tau, as is a "|S9" claim word."""
    pair = build_pair(15, field_from_prime_power(q))
    counts = count_calls(linalg, "rref")
    pair.s9_restrictions
    assert counts["rref"] == 0
    evaluate_claim_word(pair, "y|S9")
    assert counts["rref"] == 0


def test_product_refuses_a_vector_of_the_wrong_shape():
    m = Matrix.identity(F9, 3)
    with pytest.raises(LinalgError):
        m @ np.ones((3, 1), dtype=np.int64)  # would broadcast to (3, 2)
    with pytest.raises(LinalgError):
        m @ np.ones((2, 2), dtype=np.int64)
    assert np.array_equal(m @ np.ones((3, 2), dtype=np.int64), np.ones((3, 2)))


def test_sum_and_difference_refuse_another_field():
    a, b = Matrix.identity(F3, 2), Matrix.identity(F5, 2).scale(4)
    with pytest.raises(LinalgError):
        a + b  # was [[2, 0], [0, 2]] over F_3
    with pytest.raises(LinalgError):
        a - b
    with pytest.raises(LinalgError):
        Matrix.identity(F9, 2) + Matrix.identity(make_field(5, 2), 2)
    twin = FieldCtx(3, 2, F9.modulus)
    assert Matrix.identity(F9, 2) + Matrix.identity(twin, 2) == Matrix.identity(F9, 2).scale(2)


def test_sum_and_difference_refuse_another_shape():
    with pytest.raises(LinalgError):
        Matrix.identity(F3, 2) + Matrix.identity(F3, 3)  # was numpy's ValueError
    with pytest.raises(LinalgError):
        Matrix.identity(F3, 2) - Matrix.zeros(F3, 2, 3)
    with pytest.raises(LinalgError):
        Matrix.identity(F3, 2) + np.eye(2, dtype=np.int64)
    m = Matrix.from_rows(F5, [[1, 2, 3], [4, 0, 1]])
    assert m + m - m == m
    assert (m - m) == Matrix.zeros(F5, 2, 3)


def test_identity_and_equality_shortcuts():
    for ctx in (F3, F9):
        one = Matrix.identity(ctx, 4)
        assert one.is_identity() and one == Matrix.identity(ctx, 4)
        assert not one.data.flags.writeable
        assert not one.scale(2).is_identity()
        assert not (one + Matrix.identity(ctx, 4)).is_identity()
        assert not Matrix.zeros(ctx, 4, 4).is_identity()
        assert not Matrix(ctx, np.eye(4, 5, dtype=np.int64)).is_identity()
        assert one != Matrix.identity(ctx, 5)
        assert one != Matrix(ctx, np.eye(4, 5, dtype=np.int64))
    # the first coefficient alone does not make an identity over F_9
    x = np.zeros((2, 2, 2), dtype=np.int64)
    x[[0, 1], [0, 1], 0] = 1
    x[0, 1, 1] = 1
    assert not Matrix(F9, x).is_identity()
    assert F9 == F9 and F9 == FieldCtx(3, 2, F9.modulus) and F9 != F3


# ---------------------------------------------------------------------------
# characteristic and minimal polynomials


@pytest.mark.parametrize("ctx", [F3, F5, F9], ids=lambda c: f"q{c.q}")
def test_charpoly_degree_trace_det(ctx):
    rng = np.random.default_rng(13)
    n = 4
    for _ in range(10):
        m = _rand_matrix(ctx, n, rng)
        cp = charpoly(m)
        assert cp.degree == n and _is_monic(cp)
        # constant term (-1)^n det, next-to-leading coefficient -trace
        const = cp.coeffs[0]
        assert np.array_equal(const, ctx.mul(ctx.coerce((-1) ** n), m.det()))
        assert np.array_equal(cp.coeffs[n - 1], ctx.neg(m.trace()))
        # Cayley-Hamilton
        assert cp.eval_matrix(m) == Matrix.zeros(ctx, n, n)


def test_minpoly_divides_charpoly_and_annihilates():
    rng = np.random.default_rng(17)
    for _ in range(10):
        m = _rand_matrix(F3, 5, rng)
        mp = minpoly(m)
        assert _is_monic(mp)
        assert (charpoly(m) % mp).is_zero()
        assert mp.eval_matrix(m) == Matrix.zeros(F3, 5, 5)


def test_minpoly_of_scalar_and_projection():
    two = Matrix.from_rows(F5, [[2, 0], [0, 2]])
    assert minpoly(two) == Poly(F5, [-2, 1])
    proj = Matrix.from_rows(F5, [[1, 0], [0, 0]])
    assert minpoly(proj) == Poly(F5, [0, -1, 1])  # t(t-1)


def test_minpoly_frozen_oracle_power_seven():
    # forced parameter on purpose: the order-claim family pins this matrix.
    # Independent recomputation (integer matrices, polynomial algebra mod 5)
    # gives t^3 + 4t^2 + t + 4, recorded little-endian.
    pair = build_pair(9, F5, 2, force=True)
    m = evaluate_word("(xy)^7", pair.x, pair.y)
    mp = minpoly(m)
    assert [int(c[0]) for c in mp.coeffs] == [4, 1, 4, 1]


def test_eigenspace_dimensions():
    m = Matrix.from_rows(F5, [[2, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert len(eigenspace(m, 2)) == 2
    assert len(eigenspace(m, 3)) == 1
    assert len(eigenspace(m, 1)) == 0


# ---------------------------------------------------------------------------
# factorization and powers modulo a polynomial


def test_factor_poly_reconstructs_and_is_irreducible():
    f = Poly(F3, [1, 0, 1]) * _ppow(Poly(F3, [1, 1]), 2)  # t^2+1 irreducible over F_3
    fac = factor_poly(F3, f)
    prod = Poly(F3, [1])
    degrees = sorted((g.degree, mult) for g, mult in fac)
    for g, mult in fac:
        assert _is_monic(g)
        prod = prod * _ppow(g, mult)
    assert _is_monic(f) and prod == f
    assert degrees == [(1, 2), (2, 1)]


def test_factor_poly_and_pow_mod_refuse_extension_fields():
    t = Poly(F9, [0, 1])
    with pytest.raises(LinalgError):
        factor_poly(F9, t)
    with pytest.raises(LinalgError):
        t.pow_mod(2, Poly(F9, [1, 0, 1]))
    with pytest.raises(ZeroPolynomial):
        factor_poly(F3, Poly(F3, np.zeros((0, 1), dtype=np.int64)))


def test_pow_mod_matches_repeated_products():
    rng = np.random.default_rng(5)
    for _ in range(10):
        mod = Poly(F5, rng.integers(0, 5, size=(int(rng.integers(2, 6)), 1)))
        if mod.degree < 1:
            continue
        base = Poly(F5, rng.integers(0, 5, size=(5, 1)))
        acc = Poly(F5, [1]) % mod
        for e in range(30):
            assert base.pow_mod(e, mod) == acc, e
            acc = (acc * base) % mod


# ---------------------------------------------------------------------------
# element orders


def test_element_order_small_known():
    # companion matrix of t^2 + 1 over F_3 has order 4
    c = Matrix.from_rows(F3, [[0, 2], [1, 0]])
    assert element_order(c) == 4 and type(element_order(c)) is int
    y = build_pair(9, F3, 2).y
    assert element_order(y) == 3
    assert element_order(build_pair(9, F3, 2).x) == 2
    assert element_order(Matrix.identity(F9, 0)) == 1
    pair = build_pair(9, F5, 2, force=True)
    assert element_order(evaluate_word("[x,y]", pair.x, pair.y)) == 156


def _brute_order(m, cap):
    """Least k >= 1 with m**k = 1, by repeated products."""
    acc, k = m, 1
    while not acc.is_identity():
        acc = acc @ m
        k += 1
        assert k <= cap
    return k


def test_element_order_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(15):
        m = _rand_invertible(F5, 2, rng)
        assert element_order(m) == _brute_order(m, 600)


def _unipotent_heavy(ctx, n, rng):
    """P U P^-1, U upper triangular with at most two distinct diagonal entries:
    long Jordan blocks, so minimal polynomials with repeated factors."""
    eigen = [ctx.from_index(int(i)) for i in rng.integers(1, ctx.q, size=2)]
    u = rng.integers(0, ctx.p, size=(n, n, ctx.f))
    u[np.tril_indices(n)] = 0
    for i in range(n):
        u[i, i] = eigen[int(rng.integers(0, 2))]
    p_mat = _rand_invertible(ctx, n, rng)
    return p_mat @ Matrix(ctx, u) @ p_mat.inverse()


def _derogatory(ctx, n, rng):
    """P diag(A, A, 1) P^-1 (the 1 only for odd n): no cyclic vector, so the
    minimal polynomial needs several Krylov spaces."""
    k = n // 2
    u = np.zeros((n, n, ctx.f), dtype=np.int64)
    a = rng.integers(0, ctx.p, size=(k, k, ctx.f))
    u[:k, :k] = u[k : 2 * k, k : 2 * k] = a
    if n % 2:
        u[n - 1, n - 1] = ctx.one
    p_mat = _rand_invertible(ctx, n, rng)
    return p_mat @ Matrix(ctx, u) @ p_mat.inverse()


@settings(derandomize=True, max_examples=80, deadline=None)
@given(q=q_st, kind=st.sampled_from(["invertible", "unipotent-heavy"]),
       data=st.data(), seed=seed_st)
def test_element_order_matches_brute_force_powering(q, kind, data, seed):
    """No element of GL(n, q) has order above q**n - 1, so q**n caps the powering."""
    ctx = field_from_prime_power(q)
    rng = np.random.default_rng(seed)
    if kind == "invertible":
        n = data.draw(st.integers(1, max(k for k in range(1, 7) if q**k <= 16_000)))
        m = _rand_invertible(ctx, n, rng)
    else:
        n = data.draw(st.integers(1, 5))
        m = _unipotent_heavy(ctx, n, rng)
    assert element_order(m) == _brute_order(m, q**n)


def _structured(ctx, kind, n, rng):
    if kind == "random":
        return _rand_matrix(ctx, n, rng)
    return (_unipotent_heavy if kind == "unipotent-heavy" else _derogatory)(ctx, n, rng)


kind_st = st.sampled_from(["random", "unipotent-heavy", "derogatory"])


def _hessenberg_kinds(ctx, kind, n, rng):
    """Zero below the subdiagonal, with one subdiagonal entry zero; or
    random with entry (1, 0) zero and (n - 1, 0) one, so that reducing
    column 0 swaps rows and columns 1 and n - 1."""
    a = _entries(ctx, rng, (n, n), "random")
    if kind == "hessenberg-split":
        a[np.tril_indices(n, -2)] = 0
        if n > 1:
            i = int(rng.integers(1, n))
            a[i, i - 1] = 0
    elif n > 2:
        a[1, 0], a[n - 1, 0] = 0, ctx.one
    return Matrix(ctx, a)


def _sympy_norm(ctx, chi, lam):
    """prod_(i<f) Frob**i(chi) for chi over F_q, by sympy alone: the
    resultant in t of the monic modulus m(t) and chi(lam, t) is the product
    of chi(lam, a) over the roots a, a**p, ..., a**(p**(f-1)) of m."""
    t = sympy.Symbol("t")
    expr = sum(int(c) * t**j * lam**k
               for k, coef in enumerate(chi.coeffs) for j, c in enumerate(coef))
    modulus = sum(int(c) * t**j for j, c in enumerate(ctx.modulus))
    res = sympy.resultant(sympy.Poly(modulus, t, lam, modulus=ctx.p),
                          sympy.Poly(expr, t, lam, modulus=ctx.p))
    return [int(c) % ctx.p for c in sympy.Poly(res.as_expr(), lam).all_coeffs()]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(q=st.sampled_from([9, 25, 27]), n=st.sampled_from(range(1, 11)),
       kind=st.sampled_from(["random", "unipotent-heavy", "derogatory",
                             "hessenberg-split", "swap"]),
       seed=seed_st)
@example(q=27, n=10, kind="hessenberg-split", seed=3)
@example(q=9, n=7, kind="swap", seed=4)
def test_charpoly_over_extension_fields_matches_sympy(q, n, kind, seed):
    """sympy's charpoly of the F_p block form is the norm of the F_q charpoly:
    the block form of m is similar over the algebraic closure to the sum of
    the f Frobenius conjugates of m."""
    ctx = field_from_prime_power(q)
    rng = np.random.default_rng(seed)
    if kind in ("hessenberg-split", "swap"):
        m = _hessenberg_kinds(ctx, kind, n, rng)
    else:
        m = _structured(ctx, kind, n, rng)
    chi = charpoly(m)
    assert chi.degree == n and _is_monic(chi)
    lam = sympy.Symbol("lam")
    block_cp = sympy.Matrix(m.blocks.tolist()).charpoly(lam).all_coeffs()
    assert [int(c) % ctx.p for c in block_cp] == _sympy_norm(ctx, chi, lam)


@product_case
@given(q=st.sampled_from([3, 5, 7, 9, 25, 27, 49, 81, 125]), n=st.integers(1, 8),
       kind=kind_st, seed=seed_st)
def test_minpoly_is_the_least_monic_annihilator(q, n, kind, seed):
    """An oracle that shares nothing with minpoly's rref: mp is monic,
    mp(m) = 0 by Horner, mp divides charpoly(m), and I, m, ..., m**(deg mp - 1)
    are independent over F_q. Columns v, v + f, ... of B**k, B the block form,
    hold t**v * m**k, so independence over F_q is rank deg * f over F_p of
    the rows B**k[:, v::f] for k < deg and v < f, by sympy's DomainMatrix."""
    ctx = field_from_prime_power(q)
    m = _structured(ctx, kind, n, np.random.default_rng(seed))
    mp = minpoly(m)
    assert _is_monic(mp)
    assert mp.eval_matrix(m) == Matrix.zeros(ctx, n, n)
    assert (charpoly(m) % mp).is_zero()
    f, power, rows = ctx.f, np.eye(n * ctx.f, dtype=np.int64), []
    for _ in range(mp.degree):
        rows.extend(power[:, v::f].ravel().tolist() for v in range(f))
        power = power @ m.blocks % ctx.p
    gf = DomainMatrix.from_Matrix(sympy.Matrix(rows)).convert_to(sympy.GF(ctx.p))
    assert gf.rank() == mp.degree * f


@product_case
@given(q=st.sampled_from([3, 5, 7, 11]), n=st.integers(1, 8), kind=kind_st, seed=seed_st)
def test_factor_poly_matches_sympy_factor_list(q, n, kind, seed):
    """Factor minimal polynomials of the kind element_order meets."""
    ctx = make_field(q, 1)
    mp = minpoly(_structured(ctx, kind, n, np.random.default_rng(seed)))
    coeffs = [int(c) for c in mp.coeffs[::-1, 0]]
    _, theirs = sympy.Poly(coeffs, sympy.Symbol("t"), modulus=q).factor_list()
    expected = sorted(([int(c) % q for c in g.all_coeffs()], k) for g, k in theirs)
    ours = [([int(c) for c in g.coeffs[::-1, 0]], k) for g, k in factor_poly(ctx, mp)]
    assert sorted(ours) == expected


def test_order_certificates_on_the_large_claim_rows():
    """o = element_order(m) is the order: m**o = 1 and m**(o/r) != 1 for every prime r | o.
    These are the rows that powering up to 4096 could not settle."""
    large = 0
    for claim in load_claims():
        m = evaluate_claim_word(_cached_pair(claim.n, claim.q, claim.a, claim.force), claim.word)
        o = element_order(m)
        if o <= 4096:
            continue
        large += 1
        assert m.pow(o).is_identity(), claim.id
        for r in sympy.primefactors(o):
            assert not m.pow(o // r).is_identity(), (claim.id, r)
    assert large == 60


@settings(derandomize=True, max_examples=60, deadline=None)
@given(q=st.sampled_from([3, 5, 7, 9, 25, 27]), n=st.sampled_from(range(1, 10)), kind=kind_st,
       seed=seed_st)
def test_element_order_past_the_brute_force_cap(q, n, kind, seed):
    """k = element_order(m) is the order, by a check that knows nothing of how
    k was found: m**k = 1 and m**(k/r) != 1 for every prime r | k."""
    ctx = field_from_prime_power(q)
    m = _structured(ctx, kind, n, np.random.default_rng(seed))
    if not m.det().any():
        with pytest.raises(Singular):
            element_order(m)
        return
    k = element_order(m)
    assert m.pow(k).is_identity()
    for r in sympy.factorint(k):
        assert not m.pow(k // r).is_identity(), r


# ---------------------------------------------------------------------------
# the splits behind element_order, against galoistools


def _pl_product(p, factors):
    """Little-endian product over F_p of (polynomial, multiplicity) pairs."""
    out = [1]
    for g, mult in factors:
        for _ in range(mult):
            nxt = [0] * (len(out) + len(g) - 1)
            for i, a in enumerate(out):
                for j, b in enumerate(g):
                    nxt[i + j] = (nxt[i + j] + a * b) % p
            out = nxt
    return out


@st.composite
def _monic_products(draw):
    """(p, f): f a monic product of random monic factors with multiplicities
    up to 2p + 1, of degree at most 30; in one draw of three, f(t**p) of such
    a product, whose derivative is zero."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    frobenius = draw(st.integers(0, 2)) == 0
    budget = 30 // p if frobenius else 30
    factors = []
    for _ in range(draw(st.integers(0, 4))):
        deg = draw(st.integers(1, 4))
        mult = draw(st.integers(1, 2 * p + 1))
        if deg * mult > budget:
            continue
        budget -= deg * mult
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=deg, max_size=deg))
        factors.append((coeffs + [1], mult))
    f = _pl_product(p, factors)
    if frobenius:
        spread = [0] * (p * (len(f) - 1) + 1)
        spread[::p] = f
        f = spread
    return p, f


def _little(big):
    return [int(c) for c in big[::-1]]


split_case = settings(derandomize=True, max_examples=150, deadline=None)


@split_case
@given(case=_monic_products())
@example(case=(3, [1]))
@example(case=(5, [2, 1]))
@example(case=(3, [1, 0, 0, 1]))  # t**3 + 1 = (t + 1)**3
@example(case=(3, _pl_product(3, [([1, 0, 1], 3), ([1, 1], 4)])))
def test_squarefree_split_matches_gf_sqf_list(case):
    p, f = case
    theirs = sorted((_little(g), e) for g, e in gf_sqf_list(f[::-1], p, ZZ)[1])
    assert sorted(_squarefree_split(p, f)) == theirs


@split_case
@given(case=_monic_products())
@example(case=(3, [1]))
@example(case=(7, [3, 1]))
@example(case=(11, _pl_product(11, [([1, 0, 1], 1), ([3, 1, 0, 1], 1), ([2, 1], 1)])))
def test_distinct_degree_split_matches_gf_ddf_zassenhaus(case):
    """Split each squarefree part of f, as galoistools finds them."""
    p, f = case
    parts = [g for g, _ in gf_sqf_list(f[::-1], p, ZZ)[1]] or [[1]]
    for big in parts:
        theirs = [(_little(g), d) for g, d in gf_ddf_zassenhaus(big, p, ZZ)]
        assert _distinct_degree_split(p, _little(big)) == theirs


def _jordan_blocks(ctx, blocks):
    """Block diagonal matrix of Jordan blocks, given as (eigenvalue, size) pairs."""
    n = sum(k for _, k in blocks)
    m = np.zeros((n, n, 1), dtype=np.int64)
    start = 0
    for lam, k in blocks:
        idx = np.arange(start, start + k)
        m[idx, idx, 0] = lam
        m[idx[:-1], idx[1:], 0] = 1
        start += k
    return Matrix(ctx, m)


def _companion(ctx, le):
    """Companion matrix over F_p of the monic little-endian polynomial le."""
    return Matrix(ctx, linalg._companion(ctx.p, le)[:, :, None])


@pytest.mark.parametrize("blocks,order", [
    ([(1, 3)], 3), ([(1, 4)], 9), ([(1, 9)], 9), ([(1, 10)], 27), ([(2, 4)], 18),
    ([(1, 3), (2, 4)], 18),
])
def test_element_order_of_jordan_blocks_over_f3(blocks, order):
    """An eigenvalue of multiplicity k gives the least 3**a >= k. Sizes 3 and 9
    take the p-th-root branch of the squarefree split; in the last case the
    multiplicity 4 is found before the multiplicity 3 and still rules."""
    m = _jordan_blocks(F3, blocks)
    assert element_order(m) == order == _brute_order(m, 100)


def test_element_order_of_a_cubed_irreducible_quadratic_over_f3():
    """minpoly (t**2 + 1)**3 has zero derivative over F_3; t has order 4 mod t**2 + 1."""
    cube = _pl_product(3, [([1, 0, 1], 3)])
    m = _companion(F3, cube)
    assert [int(c) for c in minpoly(m).coeffs[:, 0]] == cube
    assert element_order(m) == 12 == _brute_order(m, 100)


# ---------------------------------------------------------------------------
# the factoring budget for p**d - 1


BUDGET_MESSAGE = "q^d-1 has 121 digits, over the budget of 120"
G30 = [2, 1] + [0] * 28 + [1]  # t**30 + t + 2, irreducible over F_10007


def test_order_budget_refuses_an_irreducible_of_degree_30():
    """10007**30 - 1 has 121 decimal digits, one over the budget."""
    assert gf_irreducible_p(G30[::-1], 10007, ZZ) and len(str(10007**30 - 1)) == 121
    with pytest.raises(OrderSearchExceeded) as info:
        element_order(_companion(make_field(10007, 1), G30))
    assert str(info.value) == BUDGET_MESSAGE


def test_order_claims_report_an_over_budget_row(monkeypatch):
    m = _companion(make_field(10007, 1), G30)
    monkeypatch.setattr(verify, "evaluate_claim_word", lambda pair, word: m)
    claim = Claim(id="over-budget", n=9, q=3, a=None, force=False, word="xy",
                  expectation=Expectation("ExactOrder", 2), paper_ref="none")
    (row,) = verify.verify_order_claims([claim]).checks
    assert (row.status, row.actual) == ("fail", f"error: {BUDGET_MESSAGE}")


def test_order_budget_names_the_least_degree():
    """Over p = 100000007, p**15 - 1 has 121 digits and p**16 - 1 has 129. With
    the degree-16 factor once and the degree-15 one twice, the degree-15
    factor, in the later multiplicity class, is the one named."""
    p = 100_000_007
    g15, g16 = [4, 1] + [0] * 13 + [1], [20, 1] + [0] * 14 + [1]
    assert all(gf_irreducible_p(g[::-1], p, ZZ) for g in (g15, g16))
    ctx = make_field(p, 1)
    a, b = _companion(ctx, g16).data, _companion(ctx, _pl_product(p, [(g15, 2)])).data
    m = np.zeros((46, 46, 1), dtype=np.int64)
    m[:16, :16], m[16:, 16:] = a, b
    with pytest.raises(OrderSearchExceeded) as info:
        element_order(Matrix(ctx, m))
    assert str(info.value) == BUDGET_MESSAGE


def test_order_of_t_keeps_the_digit_budget():
    with pytest.raises(OrderSearchExceeded) as info:
        linalg._order_of_t(10007, G30, 30)
    assert str(info.value) == BUDGET_MESSAGE


# ---------------------------------------------------------------------------
# the order helpers against independent references


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 19, 25, 27])
def test_cyclotomic_value_matches_sympy(q):
    for e in range(1, 81):
        assert linalg._cyclotomic_value(e, q) == sympy.cyclotomic_poly(e, q), e


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 19, 25, 27])
def test_factored_qd_minus_1_multiplies_back(q):
    for d in range(1, 25):
        parts = linalg._factor_qd_minus_1(q, d)
        assert all(sympy.isprime(r) and k >= 1 for r, k in parts)
        assert len({r for r, _ in parts}) == len(parts)
        assert np.prod([sympy.Integer(r) ** k for r, k in parts]) == q**d - 1


def _order_of_t_per_prime(p, g, d):
    """One full exponentiation per prime power r**k || p**d - 1, as element
    orders were computed before the power tree."""
    c = linalg._companion(p, g)
    one = np.eye(len(c), dtype=np.int64)
    n = p**d - 1
    order = 1
    for r, k in linalg._factor_qd_minus_1(p, d):
        y = linalg._mat_pow(c, n // r**k, p)
        while not np.array_equal(y, one):
            y = linalg._mat_pow(y, r, p)
            order *= r
    return order


@st.composite
def _degree_d_products(draw):
    """(p, g, d): g a product of one to three distinct monic irreducibles of
    degree d over F_p other than t, found by rejection from a drawn seed."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    d = draw(st.integers(1, 6))
    count = draw(st.integers(1, 3 if d > 1 else min(3, p - 1)))  # F_3 has two such t + c
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    found = []
    while len(found) < count:
        cand = [int(rng.integers(1, p)), *map(int, rng.integers(0, p, size=d - 1)), 1]
        if cand not in found and gf_irreducible_p(cand[::-1], p, ZZ):
            found.append(cand)
    return p, _pl_product(p, [(g, 1) for g in found]), d


@settings(derandomize=True, max_examples=120, deadline=None)
@given(case=_degree_d_products())
@example(case=(3, [2, 1], 1))  # t + 2: order 1
@example(case=(13, [1, 0, 0, 0, 0, 1, 1], 6))  # the modulus of GF(13**6)
def test_order_of_t_tree_matches_the_per_prime_loop(case):
    p, g, d = case
    assert linalg._order_of_t(p, g, d) == _order_of_t_per_prime(p, g, d)


def test_order_below_refuses_an_order_outside_its_parts():
    # 2 has order 4 mod 5, which does not divide 3**1: an error, not a spin
    with pytest.raises(LinalgError):
        linalg._order_below(np.array([[2]]), ((3, 1),), 5)


PINNED_CLAIM_ORDERS = {"caseA-mono-ord156": 156, "caseA-del-perm-e-a08": 1787743516,
                       "caseA-del-unip-n17-q07": 7, "caseB5-monS-q27-a04": 9842,
                       "caseB6-monS-q09-a05": 728}


def _pinned_claim_orders():
    orders = {}
    for claim in load_claims():
        if claim.id in PINNED_CLAIM_ORDERS:
            pair = _cached_pair(claim.n, claim.q, claim.a, claim.force)
            orders[claim.id] = element_order(evaluate_claim_word(pair, claim.word))
    return orders


def test_element_order_needs_no_galoistools(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("element_order called a polynomial factorizer")

    monkeypatch.setattr(linalg, "factor_poly", refuse)
    monkeypatch.setattr(Poly, "pow_mod", refuse)
    for name in ("gf_factor", "gf_factor_sqf", "gf_sqf_list", "gf_ddf_zassenhaus",
                 "gf_pow_mod"):
        monkeypatch.setattr(galoistools, name, refuse)
    assert _pinned_claim_orders() == PINNED_CLAIM_ORDERS


def test_element_order_needs_no_minpoly(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("element_order called minpoly")

    monkeypatch.setattr(linalg, "minpoly", refuse)
    assert _pinned_claim_orders() == PINNED_CLAIM_ORDERS


def test_element_order_rejects_singular_and_nonsquare():
    with pytest.raises(Singular):
        element_order(Matrix.from_rows(F3, [[1, 2], [2, 1]]))
    with pytest.raises(NotSquare):
        element_order(Matrix.zeros(F3, 2, 3))


def test_products_refuse_sums_that_can_leave_int64():
    """At p = 2**31 - 1 two products (p-1)**2 still fit in int64; three do not."""
    p = 2**31 - 1
    ctx = make_field(p, 1)
    top = np.full((2, 2), p - 1, dtype=np.int64)
    assert (Matrix(ctx, top) @ Matrix(ctx, top)).data[:, :, 0].tolist() == [[2, 2], [2, 2]]
    assert Matrix(ctx, top).pow(2).data[:, :, 0].tolist() == [[2, 2], [2, 2]]
    assert element_order(Matrix(ctx, top[:1, :1])) == 2
    with pytest.raises(LinalgError):
        Matrix.identity(ctx, 3) @ Matrix.identity(ctx, 3)
    with pytest.raises(LinalgError):
        Matrix.identity(ctx, 3).pow(2)
    with pytest.raises(LinalgError):
        element_order(Matrix.identity(ctx, 3))
    # (p - 1) J with J all ones: its square is 2J, so T**2 + 2T
    assert minpoly(Matrix(ctx, top)).coeffs[:, 0].tolist() == [0, 2, 1]
    with pytest.raises(LinalgError):
        minpoly(Matrix.identity(ctx, 3))


@pytest.mark.parametrize("q, s", [(3, 2), (3, 3), (3, 4), (3, 9), (3, 10), (9, 2), (9, 3), (9, 4)])
def test_unipotent_jordan_block_order(q, s):
    """J_s(1) has order 3**ceil(log3 s). Its block form has side N = s*f and
    element_order looks for p**k up to the least power of 3 at or above N,
    which is the order itself at every (q, s) here but (9, 2) and (9, 3)."""
    ctx = field_from_prime_power(q)
    jordan = Matrix.from_rows(ctx, [[int(j in (i, i + 1)) for j in range(s)] for i in range(s)])
    expected = 1
    while expected < s:
        expected *= 3
    assert element_order(jordan) == expected


def test_charpoly_int64_range_at_p_2_31_minus_1():
    """charpoly's sums have at most n - 1 products below p**2: at p = 2**31 - 1
    two fit in int64, so n = 3 is exact and n = 4 is refused."""
    p = 2**31 - 1
    ctx = make_field(p, 1)
    top = np.full((4, 4), p - 1, dtype=np.int64)
    assert charpoly(Matrix(ctx, top[:3, :3])).coeffs[:, 0].tolist() == [0, 0, 3, 1]
    with pytest.raises(LinalgError):
        charpoly(Matrix(ctx, top))
    # dense 3 x 3 matrices whose every sum of three products would wrap
    lam = sympy.Symbol("lam")
    rng = np.random.default_rng(31)
    for _ in range(5):
        a = rng.integers(p - 1000, p, size=(3, 3, 1))
        ref = sympy.Poly(_sympy(a).charpoly(lam).as_expr(), lam)
        expected = [int(c) % p for c in reversed(ref.all_coeffs())]
        assert charpoly(Matrix(ctx, a)).coeffs[:, 0].tolist() == expected


# ---------------------------------------------------------------------------
# invariant restriction


def test_restrict_action_and_invariance_check():
    m = Matrix.from_rows(F5, [[2, 1, 0], [0, 2, 0], [0, 0, 3]])
    assert restrict(m, [0, 1]) == Matrix.from_rows(F5, [[2, 1], [0, 2]])
    assert restrict(m, (1, 0)) == Matrix.from_rows(F5, [[2, 0], [1, 2]])  # in the given order
    with pytest.raises(NotInvariant):
        restrict(Matrix.from_rows(F5, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]), [0])
    # an invariant span, but e_0 is listed twice, so the listed vectors are dependent
    with pytest.raises(DependentBasis):
        restrict(m, [0, 1, 0])
    # numpy would read -1 as the last coordinate
    for bad in ([-1], [0, 3]):
        with pytest.raises(LinalgError, match="coordinates must lie in 0..2"):
            restrict(m, bad)
    with pytest.raises(NotSquare):
        restrict(Matrix.zeros(F5, 2, 3), [0])


def test_restrict_keeps_the_restricted_inverse_only_of_a_kept_inverse():
    m = Matrix.from_rows(F5, [[2, 1, 0], [0, 2, 0], [0, 0, 3]])
    assert restrict(m, [1, 0])._inv is None
    m.inverse()
    part = restrict(m, (1, 0))
    assert part._inv is not None
    assert part.inverse() == Matrix(F5, part.data).inverse() == Matrix.from_rows(F5, [[3, 0], [1, 3]])
    assert part.inverse().inverse().blocks is part.blocks


@pytest.mark.parametrize("coords", [[0.5, 1.5], [True, 2], [0.9]])
def test_restrict_refuses_coordinates_that_are_not_integers(coords):
    # an intp array would truncate them to coordinates 0 and 1, 1 and 2, and 0
    m = Matrix.identity(F5, 3)
    with pytest.raises(LinalgError, match="be integers"):
        restrict(m, coords)


# ---------------------------------------------------------------------------
# the word language


def test_word_evaluation_identities():
    pair = build_pair(9, F5, 2, force=True)
    x, y = pair.x, pair.y
    assert evaluate_word("xy", x, y) == x @ y
    assert evaluate_word("x^2", x, y) == x @ x
    assert evaluate_word("y^-1", x, y) == y.inverse()
    assert evaluate_word("Y", x, y) == y.inverse()
    # commutator is inverse-first
    manual = x.inverse() @ y.inverse() @ x @ y
    assert evaluate_word("[x,y]", x, y) == manual
    assert evaluate_word("(xy)^3", x, y) == (x @ y).pow(3)
    assert evaluate_word("[x,y^2]", x, y) == (
        x.inverse() @ y.inverse() @ y.inverse() @ x @ y @ y)


def test_word_letters_are_the_generators_themselves():
    """A lone letter to the first power is the generator object, and y^-1
    its kept inverse, so a commutator inverts nothing twice."""
    pair = build_pair(9, F5, 2, force=True)
    x, y = pair.x, pair.y
    assert evaluate_word("x", x, y) is x
    assert evaluate_word("Y", x, y) is y.inverse()
    assert evaluate_word("y^-1", x, y) is y.inverse()
    assert x.pow(1) is x and x.pow(-1) is x.inverse()


def test_word_evaluation_inverts_y_only_for_a_y_inverse():
    pair = build_pair(9, F5, 2, force=True)
    x, y = (Matrix(F5, g.data) for g in (pair.x, pair.y))  # nothing kept
    evaluate_word("(xy)^3(xy^2)^7", x, y)
    assert y._inv is None
    assert evaluate_word("xY", x, y) == x @ y.pow(2) and y._inv is not None


PARSE_ERRORS = [
    ("", 0, "empty word"),
    ("z", 0, "unexpected character 'z'"),
    ("(xy", 3, "unclosed '('"),
    ("[x y]", 4, "unexpected character ']'"),
    ("x^", 2, "expected an integer exponent after '^'"),
    ("xy)", 2, "unexpected character ')'"),
    ("[x,]", 3, "empty word"),
    ("x^-", 3, "expected an integer exponent after '^'"),
    ("[x,y", 4, "unclosed '['"),
    ("()", 1, "empty word"),
    (" x ^ ", 5, "expected an integer exponent after '^'"),
    ("x^2y^-", 6, "expected an integer exponent after '^'"),
    ("[x,y]]", 5, "unexpected character ']'"),
    ("xyz", 2, "unexpected character 'z'"),
    # exponents are ASCII digits: int() refuses "²" and reads "٣" as 3
    ("x^\u00b2", 2, "expected an integer exponent after '^'"),
    ("x^\u0663", 2, "expected an integer exponent after '^'"),
]


@pytest.mark.parametrize("word, position, message", PARSE_ERRORS,
                         ids=[word for word, _, _ in PARSE_ERRORS])
def test_parse_word_errors(word, position, message):
    pair = _cached_pair(9, 5, 2, True)
    with pytest.raises(ParseError) as info:
        evaluate_word(word, pair.x, pair.y)
    assert info.value.position == position
    assert str(info.value) == f"{message} (at position {position})"
