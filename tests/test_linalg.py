"""Polynomials, matrices, orders, and the word language."""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from omega23.fields import FieldCtx, field_from_prime_power, make_field
from omega23.generators import build_pair
from omega23.linalg import (
    LinalgError,
    Matrix,
    NotInvariant,
    NotSquare,
    OrderSearchExceeded,
    ParseError,
    Poly,
    Singular,
    charpoly,
    eigenspace,
    element_order,
    evaluate_word,
    factor_poly,
    kernel_basis,
    minpoly,
    parse_word,
    poly_from_elems,
    poly_one,
    poly_t,
    restrict,
    rref,
    subspace_equal,
    unit_vector,
    vector,
    word_str,
)

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
    out = poly_one(f.ctx)
    for _ in range(e):
        out = out * f
    return out


def _const(ctx, c):
    return poly_from_elems(ctx, [c])


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
        assert q * g + r == f
        assert r.is_zero() or r.degree < g.degree


def test_poly_gcd_divides_both():
    t = poly_t(F5)
    one = poly_one(F5)
    f = _ppow(t + one, 2) * (t + t)  # (t+1)^2 * 2t
    g = (t + one) * t
    d = f.gcd(g)
    assert (f % d).is_zero() and (g % d).is_zero()
    assert d.is_monic
    assert d == (t + one) * t  # = t^2 + t


def test_poly_lcm_and_derivative():
    t = poly_t(F3)
    one = poly_one(F3)
    f, g = t + one, t - one
    m = f.lcm(g)
    assert (m % f).is_zero() and (m % g).is_zero()
    assert m.degree == 2
    # d/dt (t^3 + t) = 3t^2 + 1 = 1 over F_3
    assert (_ppow(t, 3) + t).derivative() == one


def test_poly_eval_consistency():
    t = poly_t(F5)
    f = t * t + t + poly_one(F5)  # t^2 + t + 1
    assert int(f.eval_elem(F5.coerce(2))[0]) == (4 + 2 + 1) % 5
    m = Matrix.from_rows(F5, [[1, 1], [0, 1]])
    fm = f.eval_matrix(m)
    manual = m @ m + m + Matrix.identity(F5, 2)
    assert fm == manual


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


def test_rank_rref_kernel():
    # rows 2 and 3 are 2x and 3x row 1 mod 5: rank 1, kernel dimension 2
    m = Matrix.from_rows(F5, [[1, 2, 3], [2, 4, 1], [3, 6, 4]])
    assert m.rank() == 1
    ker = kernel_basis(F5, m)
    assert len(ker) == 2
    for v in ker:
        prod = np.einsum("ijf,jf->if", m.data, np.asarray(v)) % 5
        assert not prod.any()
    full = Matrix.from_rows(F5, [[1, 0], [1, 1]])
    assert full.rank() == 2 and len(kernel_basis(F5, full)) == 0


def test_subspace_equal_is_basis_independent():
    a = [vector(F5, [1, 0, 1]), vector(F5, [0, 1, 0])]
    b = [vector(F5, [1, 1, 1]), vector(F5, [2, 1, 2])]
    c = [vector(F5, [1, 0, 0]), vector(F5, [0, 1, 0])]
    assert subspace_equal(F5, a, b)
    assert not subspace_equal(F5, a, c)


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


@product_case
@given(q=q_st, n=st.integers(2, 7), data=st.data(), seed=seed_st)
def test_restrict_matches_einsum_reference(q, n, data, seed):
    """m = P U P^-1 with U block upper triangular: the first k columns of P
    span an invariant subspace on which m acts as U's top-left block."""
    ctx = field_from_prime_power(q)
    k = data.draw(st.integers(1, n - 1))
    rng = np.random.default_rng(seed)
    p_mat = _rand_invertible(ctx, n, rng)
    u = _entries(ctx, rng, (n, n), "random")
    u[k:, :k] = 0
    m = p_mat @ Matrix(ctx, u) @ p_mat.inverse()
    basis = [p_mat.data[:, j] for j in range(k)]
    res = restrict(m, basis)
    assert np.array_equal(res.data, u[:k, :k])
    cols = np.stack(basis, axis=1)
    assert np.array_equal(_einsum_product(ctx, m.data, cols),
                          _einsum_product(ctx, cols, res.data))


@product_case
@given(q=st.sampled_from([3, 5, 7]), n=st.integers(1, 7), seed=seed_st)
def test_charpoly_matches_sympy_at_prime_q(q, n, seed):
    ctx = make_field(q, 1)
    a = np.random.default_rng(seed).integers(0, q, size=(n, n, 1))
    lam = sympy.Symbol("lam")
    ref = sympy.Poly(_sympy(a).charpoly(lam).as_expr(), lam)
    expected = [int(c) % q for c in reversed(ref.all_coeffs())]
    assert charpoly(Matrix(ctx, a)).coeffs[:, 0].tolist() == expected


def test_product_refuses_another_field_of_the_same_degree():
    with pytest.raises(LinalgError):
        Matrix.identity(make_field(3, 2), 3) @ Matrix.identity(make_field(5, 2), 3)
    with pytest.raises(LinalgError):
        Matrix.identity(F3, 3) @ Matrix.identity(F5, 3)
    # an equal context built separately is the same field
    twin = FieldCtx(3, 2, F9.modulus)
    assert twin is not F9
    assert Matrix.identity(F9, 3) @ Matrix.identity(twin, 3) == Matrix.identity(F9, 3)


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
        assert cp.degree == n and cp.is_monic
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
        assert mp.is_monic
        assert (charpoly(m) % mp).is_zero()
        assert mp.eval_matrix(m) == Matrix.zeros(F3, 5, 5)


def test_minpoly_of_scalar_and_projection():
    two = Matrix.from_rows(F5, [[2, 0], [0, 2]])
    t = poly_t(F5)
    assert minpoly(two) == t - _const(F5, 2)
    proj = Matrix.from_rows(F5, [[1, 0], [0, 0]])
    assert minpoly(proj) == t * t - t  # t(t-1)


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


def test_factor_poly_reconstructs_and_is_irreducible():
    t = poly_t(F3)
    one = poly_one(F3)
    f = (t * t + one) * _ppow(t + one, 2)  # t^2+1 irreducible over F_3
    fac = factor_poly(F3, f, seed=1)
    prod = poly_one(F3)
    degrees = sorted((g.degree, mult) for g, mult in fac)
    for g, mult in fac:
        assert g.is_monic
        prod = prod * _ppow(g, mult)
    assert prod == f.monic()
    assert degrees == [(1, 2), (2, 1)]


# ---------------------------------------------------------------------------
# element orders


def test_element_order_small_known():
    # companion matrix of t^2 + 1 over F_3 has order 4
    c = Matrix.from_rows(F3, [[0, 2], [1, 0]])
    res = element_order(c)
    assert res.order == 4
    y = build_pair(9, F3, 2).y
    assert element_order(y).order == 3
    assert element_order(build_pair(9, F3, 2).x).order == 2


def test_element_order_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(15):
        m = _rand_invertible(F5, 2, rng)
        res = element_order(m)
        acc = m
        k = 1
        while not acc.is_identity():
            acc = acc @ m
            k += 1
            assert k <= 600
        assert res.order == k


def test_element_order_minpoly_route_agrees():
    # force the factorization route with cap=1 and compare to powering
    pair = build_pair(9, F5, 2, force=True)
    m = evaluate_word("[x,y]", pair.x, pair.y)
    fast = element_order(m)
    slow = element_order(m, cap=1)
    assert fast.method == "powering" and slow.method == "minpoly-route"
    assert fast.order == slow.order == 156


def test_element_order_rejects_singular_and_nonsquare():
    with pytest.raises(Singular):
        element_order(Matrix.from_rows(F3, [[1, 2], [2, 1]]), cap=4)
    with pytest.raises(NotSquare):
        element_order(Matrix.zeros(F3, 2, 3))


# ---------------------------------------------------------------------------
# invariant restriction


def test_restrict_action_and_invariance_check():
    m = Matrix.from_rows(F5, [[2, 1, 0], [0, 2, 0], [0, 0, 3]])
    basis = [unit_vector(F5, 3, 0), unit_vector(F5, 3, 1)]
    r = restrict(m, basis)
    assert r == Matrix.from_rows(F5, [[2, 1], [0, 2]])
    with pytest.raises(NotInvariant):
        restrict(Matrix.from_rows(F5, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
                 [unit_vector(F5, 3, 0)])


# ---------------------------------------------------------------------------
# the word language


def test_parse_word_round_trip():
    for text in ("xy", "(xy)^3(xy^2)^7", "[x,y]^24", "y[x,y]^48y[x,y]^24",
                 "((xy^2)^2xy)^8", "x^-1y^-1xy"):
        expr = parse_word(text)
        rendered = word_str(expr)
        assert word_str(parse_word(rendered)) == rendered


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


@pytest.mark.parametrize("bad", ["", "z", "(xy", "[x y]", "x^", "xy)", "[x,]"])
def test_parse_word_errors(bad):
    with pytest.raises(ParseError):
        parse_word(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_word("xyz")
    assert info.value.position == 2
