"""Bilinear forms, reflections, spinor norms, and group orders."""

import os
import subprocess
import sys
from itertools import product
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omega23.fields import field_from_prime_power, is_square, make_field
from omega23.forms import (
    DimensionMismatch,
    FormsError,
    IsotropicCenter,
    NotAnIsometry,
    OrthoSpace,
    bilinear_value,
    congruent_diagonalization,
    in_omega,
    is_isometry,
    isotropic_count,
    omega_order,
    quadratic_value,
    reflection,
    reflection_decomposition,
    spinor_norm,
    witt_type,
)
from omega23.generators import Unsupported, build_pair, classify, gram_matrix
from omega23.linalg import Matrix, evaluate_word, rref, vector
from test_acceptance import GRID_N, GRID_Q

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F7 = make_field(7, 1)
F9 = make_field(3, 2)


def _identity_space(ctx, n):
    return OrthoSpace(Matrix.identity(ctx, n))


def _rand_anisotropic(space, rng):
    while True:
        v = vector(space.ctx, [int(c) for c in
                               rng.integers(0, space.ctx.p, size=space.n)])
        if quadratic_value(space, v).any():
            return v


def _rand_isometry(space, rng, factors=4):
    g = Matrix.identity(space.ctx, space.n)
    for _ in range(factors):
        g = g @ reflection(space, _rand_anisotropic(space, rng))
    return g


# ---------------------------------------------------------------------------
# Gram matrices and form values


def test_gram_matrix_shapes_and_eps():
    a = gram_matrix(9, F3)
    assert a.n == 9 and a.eps == "circ"
    assert a.J == a.J.transpose()
    b6 = gram_matrix(12, F7)
    assert b6.n == 12 and b6.eps in ("plus", "minus")
    b5 = gram_matrix(15, F7)
    assert b5.n == 15 and b5.eps == "circ"
    # the type every report names is the closed form's, at each grid point
    for n, q in product(GRID_N, GRID_Q):
        ctx = field_from_prime_power(q)
        space = gram_matrix(n, ctx)
        assert (space.n, space.ctx, space.eps) == (n, ctx, witt_type(n, q)), (n, q)


def test_gram_matrix_rejects_wrong_dimensions():
    with pytest.raises(Unsupported):
        gram_matrix(14, F3)


def test_orthospace_requires_symmetry():
    with pytest.raises(FormsError):
        OrthoSpace(Matrix.from_rows(F3, [[0, 1], [2, 0]]))


def test_orthospace_requires_a_square_gram_matrix():
    with pytest.raises(DimensionMismatch):
        OrthoSpace(Matrix.zeros(F3, 2, 3))


def test_degenerate_even_form_has_no_type():
    """eps is read only on demand, so a degenerate space still builds."""
    space = OrthoSpace(Matrix.from_rows(F3, [[1, 0], [0, 0]]))
    with pytest.raises(FormsError, match="singular"):
        space.eps
    assert OrthoSpace(Matrix.zeros(F3, 3, 3)).eps == "circ"


def _reference_bilinear(ctx, v, w):
    """v . w for the identity form, one exact table product per coordinate."""
    return (sum(ctx.mul(a, b) for a, b in zip(v, w)) % ctx.p).tolist()


def test_orthospace_refuses_sums_that_can_leave_int64():
    """GF(p^2) tables fit int64 up to p near 1.3e6, but an n-vector's bilinear value
    sums n*2*2 table products below p**3: at n = 9 exact for p = 599999 and
    refused for p = 1000003, where the raw sum over an 11-vector already wraps."""
    inside = make_field(599999, 2)
    top = np.full((9, 2), inside.p - 1, dtype=np.int64)
    value = bilinear_value(_identity_space(inside, 9), top, top)
    assert value.tolist() == _reference_bilinear(inside, top, top)
    outside = make_field(1000003, 2)
    top = np.full((11, 2), outside.p - 1, dtype=np.int64)
    raw = np.einsum("iu,iv,uvw->w", top, top, outside.mul_table) % outside.p
    assert raw.tolist() != _reference_bilinear(outside, top, top)
    for n in (9, 11):
        with pytest.raises(FormsError, match="int64"):
            _identity_space(outside, n)


def test_bilinear_symmetric_and_quadratic_scaling():
    rng = np.random.default_rng(2)
    space = gram_matrix(9, F5)
    for _ in range(20):
        v = vector(F5, [int(c) for c in rng.integers(0, 5, size=9)])
        w = vector(F5, [int(c) for c in rng.integers(0, 5, size=9)])
        assert np.array_equal(bilinear_value(space, v, w),
                              bilinear_value(space, w, v))
        # Q(cv) = c^2 Q(v) with c = 2
        assert np.array_equal(
            quadratic_value(space, (2 * np.asarray(v)) % 5),
            F5.mul(F5.coerce(4), quadratic_value(space, v)))
    # polarization: B(v, w) = Q(v+w) - Q(v) - Q(w)
    v = vector(F5, [1, 0, 2, 0, 0, 1, 0, 0, 3])
    w = vector(F5, [0, 4, 0, 0, 1, 0, 2, 0, 0])
    qsum = quadratic_value(space, (np.asarray(v) + np.asarray(w)) % 5)
    expect = (qsum - quadratic_value(space, v)
              - quadratic_value(space, w)) % 5
    assert np.array_equal(bilinear_value(space, v, w), expect)


def test_dimension_mismatch_rejected():
    space = _identity_space(F3, 3)
    with pytest.raises(DimensionMismatch):
        bilinear_value(space, vector(F3, [1, 0]), vector(F3, [0, 1]))


# ---------------------------------------------------------------------------
# reflections


def test_reflection_properties():
    rng = np.random.default_rng(4)
    for ctx in (F3, F5, F9):
        space = _identity_space(ctx, 5)
        for _ in range(10):
            v = _rand_anisotropic(space, rng)
            r = reflection(space, v)
            assert is_isometry(space, r)
            assert (r @ r).is_identity()
            # r negates its center
            img = np.einsum("ijf,jf->if", r.data, np.asarray(v)) % ctx.p
            assert np.array_equal(img, (-np.asarray(v)) % ctx.p)
            # determinant -1
            assert np.array_equal(r.det(), ctx.coerce(-1))


def test_reflection_isotropic_center_rejected():
    space = _identity_space(F5, 2)  # 1^2 + 2^2 = 0 mod 5
    with pytest.raises(IsotropicCenter):
        reflection(space, vector(F5, [1, 2]))


def test_reflection_decomposition_reconstructs():
    rng = np.random.default_rng(6)
    for ctx in (F3, F7):
        space = gram_matrix(9, ctx)
        for _ in range(5):
            g = _rand_isometry(space, rng, factors=5)
            centers = reflection_decomposition(space, g)
            assert len(centers) <= 2 * space.n
            recon = Matrix.identity(ctx, space.n)
            for v in centers:
                recon = recon @ reflection(space, v)
            assert recon == g


def test_reflection_decomposition_rejects_non_isometry():
    space = _identity_space(F3, 3)
    shear = Matrix.from_rows(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(NotAnIsometry):
        reflection_decomposition(space, shear)


# ---------------------------------------------------------------------------
# spinor norm


def test_spinor_norm_of_reflection_is_center_value():
    rng = np.random.default_rng(8)
    space = _identity_space(F7, 4)
    for _ in range(20):
        v = _rand_anisotropic(space, rng)
        r = reflection(space, v)
        assert is_square(F7, spinor_norm(space, r)) == is_square(F7, quadratic_value(space, v))


@pytest.mark.parametrize("ctx", [F3, F5, F7, F9], ids=lambda c: f"q{c.q}")
def test_spinor_norm_multiplicative(ctx):
    rng = np.random.default_rng(ctx.q)
    space = gram_matrix(9, ctx)
    for _ in range(50):
        g = _rand_isometry(space, rng, factors=int(rng.integers(1, 6)))
        h = _rand_isometry(space, rng, factors=int(rng.integers(1, 6)))
        gh_sq, g_sq, h_sq = (is_square(ctx, spinor_norm(space, m)) for m in (g @ h, g, h))
        assert gh_sq == (g_sq == h_sq)


# Wall's form against the reflection decomposition

SPINOR_QS = (3, 5, 7, 9, 25, 27, 49, 81, 125)
spinor_case = settings(derandomize=True, max_examples=60, deadline=None)
seed_st = st.integers(0, 2**32 - 1)


def _oracle_spinor_norm(space, g):
    """Whether the product of the Q(v) over the centers of a decomposition is
    a square: an even count of nonsquare Q(v)."""
    square = True
    for v in reflection_decomposition(space, g):
        square ^= not is_square(space.ctx, quadratic_value(space, v))
    return square


def _check_spinor_norm(space, g):
    """Wall's discriminant has the oracle's square class, and det g = (-1)**rank(1 - g)."""
    ctx = space.ctx
    theta = is_square(ctx, spinor_norm(space, g))
    assert theta == _oracle_spinor_norm(space, g)
    rank = len(rref(ctx, (Matrix.identity(ctx, space.n) - g).data)[1])
    assert g.det().tolist() == ctx.coerce((-1) ** rank).tolist()
    return theta


def _rand_center(space, rng):
    """An anisotropic vector with coordinates anywhere in F_q, not just F_p."""
    while True:
        v = rng.integers(0, space.ctx.p, size=(space.n, space.ctx.f))
        if quadratic_value(space, v).any():
            return v


def _rand_space(ctx, n, rng):
    """A diagonal form with random nonzero entries, so both discriminants occur."""
    d = np.zeros((n, n, ctx.f), dtype=np.int64)
    for i in range(n):
        while not d[i, i].any():
            d[i, i] = rng.integers(0, ctx.p, size=ctx.f)
    return OrthoSpace(Matrix(ctx, d))


@spinor_case
@given(q=st.sampled_from(SPINOR_QS), shape=st.sampled_from(["diag", "A", "B"]),
       n=st.integers(2, 8), factors=st.integers(0, 4), seed=seed_st)
def test_spinor_norm_matches_reflection_oracle_on_reflection_products(
        q, shape, n, factors, seed):
    """Products of 0-4 random reflections with centers anywhere in F_q**n,
    so the norm is nontrivial on a good share of the draws."""
    ctx = field_from_prime_power(q)
    rng = np.random.default_rng(seed)
    space = {"diag": lambda: _rand_space(ctx, n, rng),
             "A": lambda: gram_matrix(9, ctx),
             "B": lambda: gram_matrix(12 if n % 2 else 15, ctx)}[shape]()
    g = Matrix.identity(ctx, space.n)
    for _ in range(factors):
        g = g @ reflection(space, _rand_center(space, rng))
    _check_spinor_norm(space, g)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(q=st.sampled_from(SPINOR_QS), n=st.sampled_from([9, 11, 12, 13, 15, 16]),
       word=st.sampled_from(["x", "y", "xy", "xY", "[x,y]", "xyxyY", "(xy)^3"]),
       seed=seed_st)
def test_spinor_norm_matches_reflection_oracle_on_pair_words(q, n, word, seed):
    """The construction's x and y lie in Omega; times a random reflection the
    norm follows the reflection's center."""
    ctx = field_from_prime_power(q)
    pair = build_pair(n, ctx)
    g = evaluate_word(word, pair.x, pair.y)
    assert _check_spinor_norm(pair.space, g)
    rng = np.random.default_rng(seed)
    v = _rand_center(pair.space, rng)
    theta = _check_spinor_norm(pair.space, g @ reflection(pair.space, v))
    assert theta == is_square(ctx, quadratic_value(pair.space, v))


def test_spinor_norm_rejects_non_isometry():
    space = _identity_space(F3, 3)
    shear = Matrix.from_rows(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(NotAnIsometry):
        spinor_norm(space, shear)


def test_spinor_norm_refuses_a_degenerate_wall_form():
    """Over a singular Gram matrix Wall's form can be degenerate; that is a
    FormsError, which `python -O` keeps, not an assert."""
    space = OrthoSpace(Matrix.from_rows(F3, [[0, 0, 0], [0, 0, 0], [0, 0, 1]]))
    swap = Matrix.from_rows(F3, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert is_isometry(space, swap)
    with pytest.raises(FormsError, match="degenerate"):
        spinor_norm(space, swap)


_DEGENERATE_SHEAR = """
from omega23.fields import make_field
from omega23.forms import FormsError, OrthoSpace, spinor_norm
from omega23.linalg import Matrix
F3 = make_field(3, 1)
space = OrthoSpace(Matrix.from_rows(F3, [[0, 0, 0], [0, 0, 0], [0, 0, 1]]))
try:
    spinor_norm(space, Matrix.from_rows(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
except FormsError:
    print("FormsError")
"""


def test_spinor_norm_refuses_a_determinant_no_nondegenerate_form_allows():
    """The shear is an isometry of diag(0, 0, 1) with det 1 and
    rank(1 - g) = 1: a FormsError, also under `python -O`."""
    space = OrthoSpace(Matrix.from_rows(F3, [[0, 0, 0], [0, 0, 0], [0, 0, 1]]))
    shear = Matrix.from_rows(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert is_isometry(space, shear)
    with pytest.raises(FormsError, match="degenerate"):
        spinor_norm(space, shear)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", _DEGENERATE_SHEAR], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "FormsError"


def test_in_omega_reasons():
    space = _identity_space(F5, 3)
    assert in_omega(space, Matrix.identity(F5, 3)).ok
    assert spinor_norm(space, Matrix.identity(F5, 3)).tolist() == [1]
    rng = np.random.default_rng(10)
    r = reflection(space, _rand_anisotropic(space, rng))
    res = in_omega(space, r)
    assert not res.ok and "determinant-not-one" in res.reasons
    shear = Matrix.from_rows(F5, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    res = in_omega(space, shear)
    assert not res.ok and any("isometry" in reason for reason in res.reasons)


# ---------------------------------------------------------------------------
# diagonalization


@pytest.mark.parametrize("case,n,ctx", [
    ("A", 9, F3), ("A", 11, F5), ("B", 12, F7), ("B", 15, F9),
])
def test_congruent_diagonalization(case, n, ctx):
    assert classify(n).case[0] == case
    space = gram_matrix(n, ctx)
    p_mat, diag = congruent_diagonalization(space)
    assert p_mat.det().any()
    s = p_mat.transpose() @ space.J @ p_mat
    expect = np.zeros_like(s.data)
    idx = np.arange(n)
    expect[idx, idx] = diag
    assert np.array_equal(s.data, expect)
    assert all(d.any() for d in diag)  # nondegenerate


# ---------------------------------------------------------------------------
# type dispatch vs isotropic counting


def test_isotropic_count_hand_values():
    # x^2 + y^2 = 0 has only the zero solution mod 3, eight nonzero mod 5
    assert isotropic_count(_identity_space(F3, 2)) == 0
    assert isotropic_count(_identity_space(F5, 2)) == 8


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("ctx", [F3, F5, F7], ids=lambda c: f"q{c.q}")
def test_witt_type_matches_isotropic_census(n, ctx):
    q, m = ctx.q, n // 2
    space = _identity_space(ctx, n)
    count = isotropic_count(space)
    plus_count = (q**m - 1) * (q**(m - 1) + 1)
    minus_count = (q**m + 1) * (q**(m - 1) - 1)
    classified = {plus_count: "plus", minus_count: "minus"}[count]
    assert classified == witt_type(n, q) == space.eps


def test_witt_type_parity_rule():
    # plus exactly when n(q-1)/4 is even
    for n in (2, 4, 6, 12, 16, 20):
        for q in (3, 5, 7, 9, 11, 13):
            expect = "plus" if (n * (q - 1) // 4) % 2 == 0 else "minus"
            assert witt_type(n, q) == expect


# ---------------------------------------------------------------------------
# group orders: brute force and exceptional isomorphisms


def _so3_brute(ctx):
    """All 3x3 determinant-one isometries of the identity form, by hand."""
    p = ctx.p
    elems = []
    cols = list(product(range(p), repeat=3))
    unit_cols = [c for c in cols
                 if (c[0]**2 + c[1]**2 + c[2]**2) % p == 1]
    for c0, c1 in product(unit_cols, repeat=2):
        if sum(a * b for a, b in zip(c0, c1)) % p:
            continue
        # third column is forced up to sign; try both and test directly
        for c2 in unit_cols:
            if (sum(a * b for a, b in zip(c0, c2)) % p
                    or sum(a * b for a, b in zip(c1, c2)) % p):
                continue
            det = (c0[0] * (c1[1] * c2[2] - c1[2] * c2[1])
                   - c1[0] * (c0[1] * c2[2] - c0[2] * c2[1])
                   + c2[0] * (c0[1] * c1[2] - c0[2] * c1[1])) % p
            if det == 1:
                elems.append(Matrix.from_rows(
                    ctx, [[c0[i], c1[i], c2[i]] for i in range(3)]))
    return elems


def test_omega3_brute_force_census():
    space = _identity_space(F3, 3)
    so = _so3_brute(F3)
    assert len(so) == 24
    kernel = [g for g in so if in_omega(space, g).ok]
    assert len(kernel) == 12
    assert omega_order(3, "circ", 3) == 12
    # closure under product stays in the kernel (subgroup sanity)
    for g in kernel[:4]:
        for h in kernel[:4]:
            assert in_omega(space, g @ h).ok


def test_omega3_f5_census():
    space = _identity_space(F5, 3)
    so = _so3_brute(F5)
    assert len(so) == 120
    kernel = [g for g in so if in_omega(space, g).ok]
    assert len(kernel) == 60 == omega_order(3, "circ", 5)


def _psl2(q):
    return q * (q * q - 1) // gcd(2, q - 1)


def test_order_formula_vs_exceptional_isomorphisms():
    # dimension 3: projective special linear groups
    for q in (5, 7, 9, 13):
        assert omega_order(3, "circ", q) == _psl2(q)
    for q in (3, 5, 7):
        # dimension 5: projective symplectic groups
        assert omega_order(5, "circ", q) == (
            q**4 * (q**2 - 1) * (q**4 - 1) // 2)
        # dimension 4, split: central product of two SL2's
        assert omega_order(4, "plus", q) == (q * (q * q - 1)) ** 2 // 2
        # dimension 4, non-split: PSL2 over the quadratic extension
        assert omega_order(4, "minus", q) == _psl2(q * q)
    for q in (3, 5):
        # dimension 6, split: SL4 modulo +-1
        sl4 = q**6 * (q**2 - 1) * (q**3 - 1) * (q**4 - 1)
        assert omega_order(6, "plus", q) == sl4 // 2
        # dimension 6, non-split: SU4 modulo +-1
        su4 = q**6 * (q**2 - 1) * (q**3 + 1) * (q**4 - 1)
        assert omega_order(6, "minus", q) == su4 // 2


def test_omega_order_headline_values():
    assert omega_order(9, "circ", 3) == 65784756654489600
    assert omega_order(9, "circ", 3) % omega_order(3, "circ", 3) == 0


def test_omega_order_validates_pairing():
    with pytest.raises(FormsError):
        omega_order(9, "plus", 3)
    with pytest.raises(FormsError):
        omega_order(12, "circ", 3)
    with pytest.raises(FormsError):
        omega_order(8, "square", 3)
