"""Orthogonal geometry over odd finite fields.

The geometry of any quadratic space: quadratic values, reflections,
the spinor norm as the discriminant of Wall's form on im(1 - g) (one
rref and one small determinant), kernel-of-spinor-norm membership, Witt
type, and the classical group orders. The spinor norm refuses a
degenerate form (a singular J, read from J's kept determinant) and
keeps det g = (-1)**rank(1 - g) on g, so membership eliminates no n x n
determinant; `in_omega` keeps its verdict on g for the space it was
proved in. A space is its
Gram matrix: `OrthoSpace.eps` reads the type off det J by the
discriminant rule, the one place the package computes a type.
`witt_type(n, q)` is the closed form for a det-1 form: the type oracle
compares the isotropic census with it and never reads `OrthoSpace.eps`,
and only tests/test_forms.py compares `eps` with both. The constructive
reflection decomposition (diagonalize first, then Cartan-Dieudonne over
the orthogonal basis) has no caller in the package: it is the tests'
independent oracle for the spinor norm.

Spinor-norm convention: theta(r_v) is the square class of Q(v). Some
texts use the opposite sign convention; reports name this one.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import Clauses, Record
from .fields import FieldCtx, _digit_chunks, is_square
from .linalg import Matrix, rref


class FormsError(ValueError):
    pass


class UnsupportedDimension(FormsError):
    pass


class DimensionMismatch(FormsError):
    pass


class IsotropicCenter(FormsError):
    pass


class NotAnIsometry(FormsError):
    pass


class TooLarge(FormsError):
    pass


class OrthoSpace(Record):
    """A quadratic space, given by its symmetric Gram matrix J alone."""

    J: Matrix

    def __init__(self, J: Matrix):
        super().__init__(J)
        if self.J.rows != self.J.cols:
            raise DimensionMismatch(
                f"Gram matrix is {self.J.rows}x{self.J.cols}, not square")
        # the sums over a vector here (bilinear values, the spinor norm's
        # quadratic values, the isotropic census) have n*f*f table products
        if self.n * self.ctx.f**2 > self.ctx.exact_terms(table=True):
            raise FormsError(
                f"sums over {self.n}-vectors in GF({self.ctx.q}) can leave the int64 range")
        if self.J != self.J.transpose():
            raise FormsError("Gram matrix must be symmetric")

    @property
    def n(self) -> int:
        return self.J.rows

    @property
    def ctx(self) -> FieldCtx:
        return self.J.ctx

    @cached_property
    def eps(self) -> str:
        """Witt type: circ in odd dimension; otherwise plus exactly when the
        discriminant (-1)^(n/2) det J is a square, else minus (Kleidman and
        Liebeck, LMS LN 129, section 2.5). A degenerate even form has none."""
        if self.n % 2:
            return "circ"
        det = self.J.det()
        if not det.any():
            raise FormsError("Gram matrix is singular: the form has no type")
        disc = self.ctx.mul(self.ctx.coerce((-1) ** (self.n // 2)), det)
        return "plus" if is_square(self.ctx, disc) else "minus"


def _check_vec(space: OrthoSpace, v) -> np.ndarray:
    v = np.asarray(v, dtype=np.int64)
    if v.shape != (space.n, space.ctx.f):
        raise DimensionMismatch(
            f"vector shape {v.shape} does not match n={space.n}, f={space.ctx.f}"
        )
    return v % space.ctx.p


def bilinear_value(space: OrthoSpace, v, w) -> np.ndarray:
    """v^T J w as a raw (f,) coefficient vector."""
    ctx = space.ctx
    v = _check_vec(space, v)
    w = _check_vec(space, w)
    jw = space.J @ w
    return np.einsum("iu,iv,uvw->w", v, jw, ctx.mul_table) % ctx.p


def quadratic_value(space: OrthoSpace, v):
    """Q(v) = (1/2) v^T J v as an (f,) coefficient vector."""
    ctx = space.ctx
    half = ctx.inv(ctx.coerce(2))
    return ctx.mul(half, bilinear_value(space, v, v))


def reflection(space: OrthoSpace, v) -> Matrix:
    """r_v : w -> w - Q(v)^{-1} (w^T J v) v; center must be non-isotropic."""
    ctx = space.ctx
    v = _check_vec(space, v)
    qv = quadratic_value(space, v)
    if not qv.any():
        raise IsotropicCenter("reflection center has Q(v) = 0")
    jv = space.J @ v  # (n, f)
    coeff = ctx.inv(qv)
    # outer product v * (J v)^T scaled by Q(v)^{-1}
    outer = np.einsum("iu,jv,uvw->ijw", v, jv, ctx.mul_table) % ctx.p
    outer = ctx.scale(coeff, outer)
    r = (Matrix.identity(ctx, space.n).data - outer) % ctx.p
    out = Matrix(ctx, r)
    assert (out @ out).is_identity()
    assert np.array_equal(out.det(), ctx.coerce(-1))
    assert out.transpose() @ space.J @ out == space.J
    return out


def is_isometry(space: OrthoSpace, g: Matrix) -> bool:
    return g.transpose() @ space.J @ g == space.J


# ---------------------------------------------------------------------------
# congruent diagonalization and the constructive reflection decomposition


def congruent_diagonalization(space: OrthoSpace):
    """P with P^T J P diagonal (possible since q is odd); returns (P, diag).

    diag comes back as an (n, f) array of the diagonal entries.
    """
    ctx = space.ctx
    n = space.n
    s = space.J.data.copy()
    p_mat = Matrix.identity(ctx, n).data.copy()

    def add_col(dst, src, factor):
        # column op C_dst += factor * C_src, applied symmetrically to s, once to p
        s[:, dst] = (s[:, dst] + ctx.scale(factor, s[:, src])) % ctx.p
        s[dst, :] = (s[dst, :] + ctx.scale(factor, s[src, :])) % ctx.p
        p_mat[:, dst] = (p_mat[:, dst] + ctx.scale(factor, p_mat[:, src])) % ctx.p

    def swap_cols(i, j):
        s[:, [i, j]] = s[:, [j, i]]
        s[[i, j], :] = s[[j, i], :]
        p_mat[:, [i, j]] = p_mat[:, [j, i]]

    for k in range(n):
        if not s[k, k].any():
            # find a nonzero diagonal further down, or create one
            found = next((i for i in range(k + 1, n) if s[i, i].any()), None)
            if found is not None:
                swap_cols(k, found)
            else:
                pair = next(
                    (
                        (i, j)
                        for i in range(k, n)
                        for j in range(i + 1, n)
                        if s[i, j].any()
                    ),
                    None,
                )
                if pair is None:
                    raise FormsError("Gram matrix is singular")
                i, j = pair
                add_col(i, j, ctx.one)  # now s[i,i] = 2 s[i,j] != 0
                if i != k:
                    swap_cols(k, i)
        inv = ctx.inv(s[k, k])
        for j in range(k + 1, n):
            if s[k, j].any():
                add_col(j, k, ctx.neg(ctx.mul(s[k, j], inv)))
    return Matrix(ctx, p_mat), s[np.arange(n), np.arange(n)].copy()


def reflection_decomposition(space: OrthoSpace, g: Matrix):
    """Centers v_1..v_m (m <= 2n) with g = r_{v_1} ... r_{v_m} exactly."""
    ctx = space.ctx
    n = space.n
    if not is_isometry(space, g):
        raise NotAnIsometry("matrix does not preserve the form")
    p_mat, diag = congruent_diagonalization(space)
    p_inv = p_mat.inverse()
    h = p_inv @ g @ p_mat  # isometry of the diagonal form

    def q_diag(v):
        half = ctx.inv(ctx.coerce(2))
        acc = np.einsum("iu,iv,uvw->w", v, ctx.mul(diag, v), ctx.mul_table) % ctx.p
        return ctx.mul(half, acc)

    def refl_diag(v):
        qv = q_diag(v)
        jv = ctx.mul(diag, v)
        outer = np.einsum("iu,jv,uvw->ijw", v, jv, ctx.mul_table) % ctx.p
        outer = ctx.scale(ctx.inv(qv), outer)
        return Matrix(ctx, (Matrix.identity(ctx, n).data - outer) % ctx.p)

    centers_diag = []
    for i in range(n):
        e = np.zeros((n, ctx.f), dtype=np.int64)
        e[i] = ctx.one
        ge = h @ e
        if np.array_equal(ge, e):
            continue
        v = (ge - e) % ctx.p
        if q_diag(v).any():
            centers_diag.append(v)
            h = refl_diag(v) @ h
        else:
            # Q(ge - e) = 0 forces Q(ge + e) = 4 Q(e) != 0
            u = ge
            w = (ge + e) % ctx.p
            centers_diag.append(u)
            centers_diag.append(w)
            h = refl_diag(w) @ refl_diag(u) @ h
    assert h.is_identity()
    assert len(centers_diag) <= 2 * n
    centers = [p_mat @ v for v in centers_diag]
    recon = Matrix.identity(ctx, n)
    for v in centers:
        recon = recon @ reflection(space, v)
    assert recon == g
    return centers


def spinor_norm(space: OrthoSpace, g: Matrix) -> np.ndarray:
    """Wall's discriminant of g: the determinant of Wall's form on im(1 - g).

    Wall's form is chi(u, v) = B(u, w) for v = (1 - g) w on V = im(1 - g);
    it is well defined and nondegenerate because V is the orthogonal
    complement of ker(1 - g), and the spinor norm theta(g) is the square
    class of its determinant (G. E. Wall, Publ. IHES 1, 1959; H.
    Zassenhaus, Arch. Math. 13, 1962), which `is_square` reads. With
    M = 1 - g and pivot columns `piv` of rref(M), the columns M e_i,
    i in piv, are a basis of V with preimages e_i, so chi on that basis is
    (M^T J)[piv, piv]. For a reflection r_v the class is that of Q(v), the
    convention above.

    Over a nondegenerate form g is a product of rank(1 - g) reflections,
    or of two more when im(1 - g) is totally isotropic (P. Scherk, Proc.
    AMS 1, 1950), so det g = (-1)**rank(1 - g): g keeps it, and `det()`
    reads it without elimination. OrthoSpace admits a singular Gram
    matrix, where that count fails, so one is refused here.

    Returns the determinant as an (f,) array, 1 when g = 1, and raises
    NotAnIsometry when g does not preserve the form and FormsError when
    the form is degenerate.
    """
    ctx = space.ctx
    if not space.J.det().any():
        raise FormsError("the form is degenerate: the Gram matrix is singular")
    if not is_isometry(space, g):
        raise NotAnIsometry("matrix does not preserve the form")
    m = Matrix.identity(ctx, space.n) - g
    piv = rref(ctx, m.data)[1]
    g._keep_det(ctx.coerce((-1) ** len(piv)))
    if not piv:
        return ctx.coerce(1)
    chi = (m.transpose() @ space.J).data[np.ix_(piv, piv)]
    return Matrix(ctx, chi).det()


def in_omega(space: OrthoSpace, g: Matrix) -> Clauses:
    """Isometry + det 1 + trivial spinor norm, with reason codes on failure.

    g keeps the verdict with this space object; a later call with the same
    object (by identity) reads it back."""
    if g._omega is not None and g._omega[0] is space:
        return g._omega[1]
    try:
        disc = spinor_norm(space, g)
    except NotAnIsometry:
        verdict = Clauses(("not-an-isometry",))
    else:
        reasons = []
        if not np.array_equal(g.det(), space.ctx.one):
            reasons.append("determinant-not-one")
        if not is_square(space.ctx, disc):
            reasons.append("spinor-norm-nontrivial")
        verdict = Clauses(tuple(reasons))
    object.__setattr__(g, "_omega", (space, verdict))
    return verdict


# ---------------------------------------------------------------------------
# Witt type and counting


def witt_type(n: int, q: int) -> str:
    """Type of the det-1 even-dimensional form: parity of n(q-1)/4."""
    if n % 2:
        return "circ"
    k = (n * (q - 1)) // 4
    return "plus" if k % 2 == 0 else "minus"


def isotropic_count(space: OrthoSpace) -> int:
    """Number of nonzero isotropic vectors, by brute-force enumeration of
    F_p^(n*f) through `fields._digit_chunks`."""
    ctx = space.ctx
    n = space.n
    total = ctx.q**n
    if total > 10**8:
        raise TooLarge(f"q^n = {total} exceeds the enumeration cap 10^8")
    count = 0
    j = space.J.data
    for digits in _digit_chunks(ctx.p, n * ctx.f, 1 << 14):
        vecs = digits.reshape(-1, n, ctx.f)
        jv = np.einsum("iju,bjv,uvw->biw", j, vecs, ctx.mul_table) % ctx.p
        qv = np.einsum("biu,biv,uvw->bw", vecs, jv, ctx.mul_table) % ctx.p
        count += int((~qv.any(axis=1)).sum())
    return count - 1


def omega_order(n: int, eps: str, q: int) -> int:
    """|Omega_n^eps(q)| by the classical order formulas, exact integers."""
    if n < 3:
        raise UnsupportedDimension(f"order formulas start at n = 3, got {n}")
    if n % 2:
        if eps != "circ":
            raise FormsError(f"odd dimension has type circ, got {eps!r}")
        k = (n - 1) // 2
        order = q ** (k * k)
        for i in range(1, k + 1):
            order *= q ** (2 * i) - 1
        return order // 2
    if eps not in ("plus", "minus"):
        raise FormsError(f"even dimension needs plus/minus, got {eps!r}")
    k = n // 2
    sign = 1 if eps == "plus" else -1
    order = q ** (k * (k - 1)) * (q**k - sign)
    for i in range(1, k):
        order *= q ** (2 * i) - 1
    return order // 2
