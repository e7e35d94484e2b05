"""Exact dense polynomial and matrix algebra over a FieldCtx.

Characteristic polynomials use the division-free Berkowitz scheme with
the det(T*I - M) sign convention; minimal polynomials are the lcm of
Krylov local annihilators; eigenspace bases come out in reduced echelon
form so subspace comparisons are plain equality. Factorization is
squarefree / distinct-degree / seeded equal-degree splitting.

Everything here is pure and matrices are immutable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
from sympy import divisors, factorint, mobius

from . import resolved_seed
from .fields import FieldCtx, elem_from_json, elem_to_json


class LinalgError(ValueError):
    pass


class NotSquare(LinalgError):
    pass


class ZeroPolynomial(LinalgError):
    pass


class Singular(LinalgError):
    pass


class OrderSearchExceeded(LinalgError):
    pass


class NotInvariant(LinalgError):
    pass


class DependentBasis(LinalgError):
    pass


class ParseError(LinalgError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# polynomials (little-endian coefficient matrix, shape (deg+1, f); zero = (0, f))


class Poly:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        object.__setattr__(self, "ctx", ctx)
        c = np.asarray(coeffs, dtype=np.int64)
        if c.ndim == 1:  # list of prime-field ints
            c = np.stack([ctx.coerce(int(v)) for v in c]) if c.size else c.reshape(0, ctx.f)
        c = c % ctx.p
        k = c.shape[0]
        while k > 0 and not c[k - 1].any():
            k -= 1
        c = np.ascontiguousarray(c[:k])
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- basic structure

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1  # zero polynomial has degree -1

    def is_zero(self) -> bool:
        return self.coeffs.shape[0] == 0

    def is_one(self) -> bool:
        return self.degree == 0 and np.array_equal(self.coeffs[0], self.ctx.one)

    def is_monic(self) -> bool:
        return self.degree >= 0 and np.array_equal(self.coeffs[-1], self.ctx.one)

    def lead(self) -> np.ndarray:
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1].copy()

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        inv = self.ctx.inv(self.coeffs[-1])
        return Poly(self.ctx, self.ctx.scale(inv, self.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ctx == other.ctx
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.ctx.q, self.coeffs.tobytes(), self.coeffs.shape))

    def key(self):
        """Deterministic sort key: degree, then canonical coefficient indices."""
        return (self.degree, tuple(self.ctx.index(c) for c in self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c.any():
                continue
            if self.ctx.f == 1:
                cs = str(int(c[0]))
            else:
                cs = "(" + ",".join(str(int(v)) for v in c) + ")"
            if i == 0:
                terms.append(cs)
            else:
                var = "T" if i == 1 else f"T^{i}"
                terms.append(var if cs == "1" else f"{cs}*{var}")
        return "Poly(" + " + ".join(terms) + ")"

    # -- arithmetic

    def _pad(self, k):
        out = np.zeros((k, self.ctx.f), dtype=np.int64)
        out[: self.coeffs.shape[0]] = self.coeffs
        return out

    def __add__(self, other):
        k = max(self.coeffs.shape[0], other.coeffs.shape[0], 1)
        return Poly(self.ctx, (self._pad(k) + other._pad(k)) % self.ctx.p)

    def __sub__(self, other):
        k = max(self.coeffs.shape[0], other.coeffs.shape[0], 1)
        return Poly(self.ctx, (self._pad(k) - other._pad(k)) % self.ctx.p)

    def __neg__(self):
        return Poly(self.ctx, (-self.coeffs) % self.ctx.p)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return Poly(self.ctx, np.zeros((0, self.ctx.f), dtype=np.int64))
        ctx = self.ctx
        out = np.zeros((self.degree + other.degree + 1, ctx.f), dtype=np.int64)
        for i in range(self.coeffs.shape[0]):
            out[i : i + other.coeffs.shape[0]] += ctx.scale(self.coeffs[i], other.coeffs)
        return Poly(ctx, out % ctx.p)

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        ctx = self.ctx
        r = [c.copy() for c in self.coeffs]
        q = [ctx.zero.copy() for _ in range(max(self.degree - other.degree + 1, 0))]
        inv_lead = ctx.inv(other.coeffs[-1])
        d = other.degree
        while len(r) - 1 >= d and len(r) > 0:
            if not r[-1].any():
                r.pop()
                continue
            coef = ctx.mul(r[-1], inv_lead)
            shift = len(r) - 1 - d
            q[shift] = coef
            for i in range(d + 1):
                r[shift + i] = ctx.sub(r[shift + i], ctx.mul(coef, other.coeffs[i]))
            r.pop()
        rem = np.stack(r) if r else np.zeros((0, ctx.f), dtype=np.int64)
        quo = np.stack(q) if q else np.zeros((0, ctx.f), dtype=np.int64)
        return Poly(ctx, quo), Poly(ctx, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def gcd(self, other) -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def lcm(self, other) -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(self.ctx, np.zeros((0, self.ctx.f), dtype=np.int64))
        return ((self * other) // self.gcd(other)).monic()

    def derivative(self) -> "Poly":
        if self.degree < 1:
            return Poly(self.ctx, np.zeros((0, self.ctx.f), dtype=np.int64))
        out = self.coeffs[1:] * np.arange(1, self.degree + 1, dtype=np.int64)[:, None]
        return Poly(self.ctx, out % self.ctx.p)

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        result = poly_one(self.ctx)
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def shift_compose_frobenius(self) -> "Poly":
        """p-th root of a polynomial in t**p: c_i -> c_i**(q/p) on stride p."""
        ctx = self.ctx
        take = self.coeffs[:: ctx.p]
        root = np.stack([ctx.pow(c, ctx.q // ctx.p) for c in take]) if take.shape[0] else take
        return Poly(ctx, root)

    def eval_elem(self, a) -> np.ndarray:
        """Horner evaluation at a field element; returns an (f,) vector."""
        ctx = self.ctx
        a = ctx.coerce(a)
        acc = ctx.zero.copy()
        for c in self.coeffs[::-1]:
            acc = ctx.add(ctx.mul(acc, a), c)
        return acc

    def eval_matrix(self, m: "Matrix") -> "Matrix":
        ctx = self.ctx
        acc = Matrix.zeros(ctx, m.rows, m.cols)
        for c in self.coeffs[::-1]:
            acc = acc @ m + Matrix.identity(ctx, m.rows).scale(c)
        return acc

    def to_json(self):
        return [elem_to_json(self.ctx, c) for c in self.coeffs]


def poly_zero(ctx: FieldCtx) -> Poly:
    return Poly(ctx, np.zeros((0, ctx.f), dtype=np.int64))


def poly_one(ctx: FieldCtx) -> Poly:
    return Poly(ctx, ctx.one[None, :])


def poly_t(ctx: FieldCtx) -> Poly:
    return Poly(ctx, np.stack([ctx.zero, ctx.one]))


def poly_from_elems(ctx: FieldCtx, elems) -> Poly:
    """Build from an iterable of coercible coefficients, little-endian."""
    rows = [ctx.coerce(e) for e in elems]
    return Poly(ctx, np.stack(rows) if rows else np.zeros((0, ctx.f), dtype=np.int64))


def poly_from_json(ctx: FieldCtx, data) -> Poly:
    return poly_from_elems(ctx, [elem_from_json(ctx, v) for v in data])


# ---------------------------------------------------------------------------
# matrices (immutable view over an (rows, cols, f) int64 array)


class Matrix:
    __slots__ = ("ctx", "data")

    def __init__(self, ctx: FieldCtx, data):
        object.__setattr__(self, "ctx", ctx)
        d = np.asarray(data, dtype=np.int64)
        if d.ndim == 2:  # prime-field style entries
            d = d[:, :, None] if ctx.f == 1 else _lift_entries(ctx, d)
        if d.ndim != 3 or d.shape[2] != ctx.f:
            raise LinalgError(f"bad matrix data shape {d.shape}")
        d = np.ascontiguousarray(d % ctx.p)
        d.setflags(write=False)
        object.__setattr__(self, "data", d)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @staticmethod
    def identity(ctx: FieldCtx, n: int) -> "Matrix":
        return Matrix._reduced(ctx, ctx.identity(n))

    @staticmethod
    def zeros(ctx: FieldCtx, r: int, c: int) -> "Matrix":
        return Matrix(ctx, np.zeros((r, c, ctx.f), dtype=np.int64))

    @staticmethod
    def from_rows(ctx: FieldCtx, rows) -> "Matrix":
        d = np.stack([np.stack([ctx.coerce(e) for e in row]) for row in rows])
        return Matrix(ctx, d)

    @staticmethod
    def _reduced(ctx: FieldCtx, data: np.ndarray) -> "Matrix":
        """Wrap (rows, cols, f) data whose entries are already below p."""
        m = object.__new__(Matrix)
        d = np.ascontiguousarray(data)
        d.setflags(write=False)
        object.__setattr__(m, "ctx", ctx)
        object.__setattr__(m, "data", d)
        return m

    # data is always a C-contiguous int64 array, so equal shapes and equal
    # bytes mean equal entries; comparing bytes skips numpy's per-call setup
    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ctx == other.ctx
            and self.data.shape == other.data.shape
            and self.data.tobytes() == other.data.tobytes()
        )

    __hash__ = None

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over GF({self.ctx.q}))"

    def entry(self, i: int, j: int) -> np.ndarray:
        return self.data[i, j].copy()

    def _same_shape(self, other, op: str) -> np.ndarray:
        """other's data, once other is a matrix over this field of this shape."""
        if not isinstance(other, Matrix):
            raise LinalgError(f"matrix {op} needs a matrix operand")
        if not (other.ctx is self.ctx or other.ctx == self.ctx):
            raise LinalgError("matrices over different fields")
        if other.data.shape != self.data.shape:
            raise LinalgError(f"shape mismatch in matrix {op}")
        return other.data

    def __add__(self, other):
        return Matrix(self.ctx, (self.data + self._same_shape(other, "sum")) % self.ctx.p)

    def __sub__(self, other):
        return Matrix(self.ctx, (self.data - self._same_shape(other, "difference")) % self.ctx.p)

    def __neg__(self):
        return Matrix(self.ctx, (-self.data) % self.ctx.p)

    def scale(self, k) -> "Matrix":
        return Matrix(self.ctx, self.ctx.scale(self.ctx.coerce(k), self.data))

    def __matmul__(self, other):
        ctx = self.ctx
        if isinstance(other, Matrix):
            if not (other.ctx is ctx or other.ctx == ctx):
                raise LinalgError("matrices over different fields")
            if self.cols != other.rows:
                raise LinalgError("shape mismatch in matrix product")
            return Matrix._reduced(ctx, _product(ctx, _block_form(ctx, self.data), other.data))
        v = np.asarray(other, dtype=np.int64) % ctx.p  # (cols, f) vector
        if v.shape != (self.cols, ctx.f):
            raise LinalgError(
                f"vector shape {v.shape} does not match ({self.cols}, {ctx.f})")
        return _product(ctx, _block_form(ctx, self.data), v)

    def transpose(self) -> "Matrix":
        return Matrix(self.ctx, np.swapaxes(self.data, 0, 1))

    def trace(self) -> np.ndarray:
        if self.rows != self.cols:
            raise NotSquare("trace needs a square matrix")
        return self.data[np.arange(self.rows), np.arange(self.rows)].sum(axis=0) % self.ctx.p

    def is_identity(self) -> bool:
        return (self.rows == self.cols
                and self.data.tobytes() == self.ctx.identity(self.rows).tobytes())

    def pow(self, e: int) -> "Matrix":
        if self.rows != self.cols:
            raise NotSquare("powers need a square matrix")
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        result = Matrix.identity(self.ctx, self.rows)
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise NotSquare("inverse needs a square matrix")
        n = self.rows
        aug = np.concatenate([self.data, Matrix.identity(self.ctx, n).data], axis=1)
        red, pivots = rref(self.ctx, aug)
        if pivots != list(range(n)):
            raise Singular("matrix is not invertible")
        return Matrix(self.ctx, red[:, n:])

    def det(self) -> np.ndarray:
        """Determinant by elimination; returns an (f,) element vector."""
        if self.rows != self.cols:
            raise NotSquare("determinant needs a square matrix")
        ctx = self.ctx
        a = self.data.copy()
        n = self.rows
        detv = ctx.one.copy()
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r, col].any()), None)
            if piv is None:
                return ctx.zero.copy()
            if piv != col:
                a[[col, piv]] = a[[piv, col]]
                detv = ctx.neg(detv)
            detv = ctx.mul(detv, a[col, col])
            inv = ctx.inv(a[col, col])
            below = np.arange(col + 1, n)
            if below.size:
                factors = np.einsum(
                    "ru,v,uvw->rw", a[below, col], inv, ctx.mul_table
                ) % ctx.p
                a[below] = (
                    a[below]
                    - np.einsum("ru,cv,uvw->rcw", factors, a[col], ctx.mul_table)
                ) % ctx.p
        return detv

    def rank(self) -> int:
        return len(rref(self.ctx, self.data)[1])

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [
                [elem_to_json(self.ctx, self.data[i, j]) for j in range(self.cols)]
                for i in range(self.rows)
            ],
        }

    @staticmethod
    def from_json(ctx: FieldCtx, obj: dict) -> "Matrix":
        rows, cols = int(obj["rows"]), int(obj["cols"])
        entries = obj["entries"]
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise LinalgError("entry grid does not match declared shape")
        d = np.stack(
            [np.stack([elem_from_json(ctx, v) for v in row]) for row in entries]
        )
        return Matrix(ctx, d)


def _block_form(ctx: FieldCtx, data: np.ndarray) -> np.ndarray:
    """F_p block form of a reduced (r, k, f) array: an (r*f, k*f) array below p.

    Entry (i*f + w, j*f + v) is the t**w coefficient of data[i, j] * t**v,
    so the block form applied to a column of (k*f,) coordinate vectors,
    flattened entry by entry, is the product by data over F_{p^f}. For
    f = 1 it is data itself, reshaped.
    """
    r, k, f = data.shape
    if f == 1:
        return data.reshape(r, k)
    blocks = np.einsum("iju,uvw->iwjv", data, ctx.mul_table) % ctx.p
    return blocks.reshape(r * f, k * f)


def _product(ctx: FieldCtx, blocks: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of a left factor in block form and a reduced right factor.

    The right factor is a (k, f) vector or a (k, c, f) matrix. One int64
    matmul of the (r*f, k*f) block form against it as (k*f,) or (k*f, c),
    reduced once, gives the reduced (r, f) or (r, c, f) product; for f = 1
    this is (A @ B) % p. Each output sum has k*f terms below p**2, so the
    result is exact while k * f * p**2 < 2**63.
    """
    f = ctx.f
    if b.ndim == 2:
        return (blocks @ b.reshape(-1) % ctx.p).reshape(-1, f)
    k, c, _ = b.shape
    prod = blocks @ b.transpose(0, 2, 1).reshape(k * f, c)
    # reduce straight into an (r, c, f) array that owns its memory, so a
    # stored product carries no view of a temporary
    out = np.empty((prod.shape[0] // f, c, f), dtype=np.int64)
    np.remainder(prod.reshape(-1, f, c), ctx.p, out=out.transpose(0, 2, 1))
    return out


def _lift_entries(ctx: FieldCtx, d):
    out = np.zeros((d.shape[0], d.shape[1], ctx.f), dtype=np.int64)
    out[:, :, 0] = d
    return out


def vector(ctx: FieldCtx, entries) -> np.ndarray:
    """Coerce a sequence of scalars to an (n, f) coefficient array."""
    return np.stack([ctx.coerce(e) for e in entries])


def unit_vector(ctx: FieldCtx, n: int, i: int) -> np.ndarray:
    v = np.zeros((n, ctx.f), dtype=np.int64)
    v[i, 0] = 1
    return v


# ---------------------------------------------------------------------------
# echelon forms


def rref(ctx: FieldCtx, data):
    """Reduced row echelon form of an (r, c, f) array; returns (array, pivots)."""
    a = np.asarray(data, dtype=np.int64).copy()
    nrows, ncols = a.shape[0], a.shape[1]
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        piv = next((r for r in range(row, nrows) if a[r, col].any()), None)
        if piv is None:
            continue
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        inv = ctx.inv(a[row, col])
        a[row] = np.einsum("cu,v,uvw->cw", a[row], inv, ctx.mul_table) % ctx.p
        others = np.array([r for r in range(nrows) if r != row and a[r, col].any()])
        if others.size:
            f = a[others, col]
            a[others] = (
                a[others] - np.einsum("ru,cv,uvw->rcw", f, a[row], ctx.mul_table)
            ) % ctx.p
        pivots.append(col)
        row += 1
    return a, pivots


def kernel_basis(ctx: FieldCtx, m: Matrix):
    """Basis of the right kernel, rows in reduced echelon form."""
    red, pivots = rref(ctx, m.data)
    n = m.cols
    free = [c for c in range(n) if c not in pivots]
    rows = []
    for fc in free:
        v = np.zeros((n, ctx.f), dtype=np.int64)
        v[fc] = ctx.one
        for r, pc in enumerate(pivots):
            v[pc] = ctx.neg(red[r, fc])
        rows.append(v)
    if not rows:
        return np.zeros((0, n, ctx.f), dtype=np.int64)
    stacked = np.stack(rows)
    # canonicalize: echelonize the basis rows themselves
    flat, _ = rref(ctx, stacked)
    return flat


def subspace_equal(ctx: FieldCtx, rows_a, rows_b) -> bool:
    a = np.asarray(rows_a)
    b = np.asarray(rows_b)
    if a.shape[0] != b.shape[0]:
        return False
    if a.shape[0] == 0:
        return True
    ra, pa = rref(ctx, a)
    rb, pb = rref(ctx, b)
    return pa == pb and np.array_equal(ra[: len(pa)], rb[: len(pb)])


# ---------------------------------------------------------------------------
# characteristic / minimal polynomials


def charpoly(m: Matrix) -> Poly:
    """det(T*I - M) by the Berkowitz division-free scheme."""
    if m.rows != m.cols:
        raise NotSquare("charpoly needs a square matrix")
    ctx = m.ctx
    n, f = m.rows, ctx.f
    a = m.data
    blocks = _block_form(ctx, a)
    # big-endian coefficient list, as (k, f) array; starts as the constant 1
    c = ctx.one[None, :].copy()
    for r in range(1, n + 1):
        # [sub; row] = a[:r, :r-1]: one product gives sub.w and row.w
        stacked = blocks[: r * f, : (r - 1) * f]
        # transfer column: [1, -d, -(row.col), -(row.M.col), ...]
        t = np.zeros((r + 1, f), dtype=np.int64)
        t[0] = ctx.one
        t[1] = ctx.neg(a[r - 1, r - 1])
        w = a[: r - 1, r - 1]
        for k in range(2, r + 1):
            sw = _product(ctx, stacked, w)
            t[k] = ctx.neg(sw[r - 1])
            w = sw[: r - 1]
        new = np.zeros((r + 1, f), dtype=np.int64)
        for j in range(t.shape[0]):
            if t[j].any():
                upper = min(c.shape[0], r + 1 - j)
                if upper > 0:
                    new[j : j + upper] += ctx.scale(t[j], c[:upper])
        c = new % ctx.p
    return Poly(ctx, c[::-1])  # to little-endian


def minpoly(m: Matrix) -> Poly:
    """LCM of the local minimal polynomials on the Krylov spaces of e_1..e_n."""
    if m.rows != m.cols:
        raise NotSquare("minpoly needs a square matrix")
    ctx = m.ctx
    n = m.rows
    result = poly_one(ctx)
    for i in range(n):
        local = _local_minpoly(ctx, m, unit_vector(ctx, n, i))
        result = result.lcm(local)
        if result.degree == n:
            break
    assert result.eval_matrix(m) == Matrix.zeros(ctx, n, n)
    return result


def _local_minpoly(ctx: FieldCtx, m: Matrix, v) -> Poly:
    """Monic annihilator of m on the Krylov space of v.

    Rows [w | coords] carry the expression of each reduced Krylov vector
    in terms of v, m v, m^2 v, ...; the first dependency yields the local
    minimal polynomial directly.
    """
    n = m.rows
    pivot_rows = []  # list of (pivot_col, row(n+k+1, f)) fully reduced
    w = v
    for k in range(n + 1):
        aug = np.zeros((n + n + 1, ctx.f), dtype=np.int64)
        aug[:n] = w
        aug[n + k] = ctx.one
        for pc, prow in pivot_rows:
            if aug[pc].any():
                factor = aug[pc].copy()
                aug = (aug - ctx.scale(factor, prow)) % ctx.p
        lead = next((c for c in range(n) if aug[c].any()), None)
        if lead is None:
            # dependency found: coefficients live in the bookkeeping tail
            coeffs = aug[n : n + k + 1]
            inv = ctx.inv(coeffs[k])
            return Poly(ctx, ctx.scale(inv, coeffs))
        inv = ctx.inv(aug[lead])
        aug = ctx.scale(inv, aug)
        # back-substitute into existing rows to keep them reduced
        pivot_rows = [
            (pc, (prow - ctx.scale(prow[lead], aug)) % ctx.p if prow[lead].any() else prow)
            for pc, prow in pivot_rows
        ]
        pivot_rows.append((lead, aug))
        w = m @ w
    raise LinalgError("unreachable: Krylov space exceeded dimension")


def eigenspace(m: Matrix, lam):
    """Basis of ker(M - lam*I), rows in reduced echelon form."""
    if m.rows != m.cols:
        raise NotSquare("eigenspace needs a square matrix")
    ctx = m.ctx
    shifted = m - Matrix.identity(ctx, m.rows).scale(ctx.coerce(lam))
    return kernel_basis(ctx, shifted)


# ---------------------------------------------------------------------------
# factorization


def factor_poly(ctx: FieldCtx, f: Poly, seed: int | None = None):
    """Full factorization: squarefree, distinct-degree, equal-degree split.

    Returns a list of (monic irreducible Poly, multiplicity), sorted by
    (degree, coefficient indices); deterministic for a fixed seed.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    rng = random.Random(resolved_seed(seed))
    out = {}
    for part, mult in _squarefree_parts(ctx, f.monic()):
        for d, prod in _distinct_degree(ctx, part):
            for g in _equal_degree(ctx, prod, d, rng):
                out[g] = out.get(g, 0) + mult
    return sorted(out.items(), key=lambda kv: kv[0].key())


def _squarefree_parts(ctx: FieldCtx, f: Poly):
    """Yield (squarefree factor, multiplicity) with product f."""
    if f.degree == 0:
        return
    d = f.derivative()
    if d.is_zero():  # f is a p-th power
        for part, mult in _squarefree_parts(ctx, f.shift_compose_frobenius()):
            yield part, mult * ctx.p
        return
    w = f.gcd(d)
    v = (f // w).monic()
    mult = 1
    while v.degree > 0:
        h = v.gcd(w)
        piece = (v // h).monic()
        if piece.degree > 0:
            yield piece, mult
        v = h
        w = (w // h).monic()
        mult += 1
    if w.degree > 0:  # leftover p-th power part
        for part, m2 in _squarefree_parts(ctx, w):
            yield part, m2 * ctx.p


def _distinct_degree(ctx: FieldCtx, f: Poly):
    """Split a squarefree monic f into (degree, product-of-that-degree) parts."""
    t = poly_t(ctx)
    h = t
    rest = f
    d = 0
    while rest.degree > 0:
        d += 1
        if 2 * d > rest.degree:
            yield rest.degree, rest
            return
        h = h.pow_mod(ctx.q, rest)
        g = rest.gcd(h - t)
        if g.degree > 0:
            yield d, g
            rest = (rest // g).monic()
            h = h % rest


def _equal_degree(ctx: FieldCtx, f: Poly, d: int, rng: random.Random):
    """Cantor-Zassenhaus split of a product of degree-d irreducibles (odd q)."""
    if f.degree == d:
        return [f.monic()]
    exponent = (ctx.q**d - 1) // 2
    while True:
        u = poly_from_elems(
            ctx, [ctx.from_index(rng.randrange(ctx.q)) for _ in range(f.degree)]
        )
        if u.degree < 1:
            continue
        w = u.pow_mod(exponent, f) - poly_one(ctx)
        g = f.gcd(w)
        if 0 < g.degree < f.degree:
            return _equal_degree(ctx, g, d, rng) + _equal_degree(
                ctx, (f // g).monic(), d, rng
            )


# ---------------------------------------------------------------------------
# element order


@dataclass(frozen=True)
class OrderResult:
    order: int
    method: str  # "powering" | "minpoly-route"


FACTOR_DIGITS_BUDGET = 120  # upper bound on decimal digits of q**d - 1 we factor


def _cyclotomic_value(e: int, q: int) -> int:
    """Integer value of the e-th cyclotomic polynomial at q."""
    num = den = 1
    for m in divisors(e):
        mu = int(mobius(e // m))
        if mu == 1:
            num *= q**m - 1
        elif mu == -1:
            den *= q**m - 1
    assert num % den == 0
    return num // den


def _factor_qd_minus_1(q: int, d: int, digits_budget: int) -> dict:
    n = q**d - 1
    if len(str(n)) > digits_budget:
        raise OrderSearchExceeded(
            f"q^d-1 has {len(str(n))} digits, over the budget of {digits_budget}"
        )
    out = {}
    for e in divisors(d):
        for prime, exp in factorint(_cyclotomic_value(e, q)).items():
            out[prime] = out.get(prime, 0) + exp
    return out


def _order_of_t_mod(ctx: FieldCtx, g: Poly, digits_budget: int) -> int:
    """Multiplicative order of t in F_q[t]/(g), g irreducible, g != t."""
    d = g.degree
    n = ctx.q**d - 1
    order = n
    one = poly_one(ctx)
    for prime in _factor_qd_minus_1(ctx.q, d, digits_budget):
        while order % prime == 0 and poly_t(ctx).pow_mod(order // prime, g) == one:
            order //= prime
    return order


def element_order(
    m: Matrix,
    cap: int = 10_000,
    seed: int | None = None,
    digits_budget: int = FACTOR_DIGITS_BUDGET,
) -> OrderResult:
    """Exact multiplicative order: powering up to cap, then the minpoly route."""
    if m.rows != m.cols:
        raise NotSquare("element_order needs a square matrix")
    ctx = m.ctx
    ident = Matrix.identity(ctx, m.rows)
    acc = m
    for k in range(1, cap + 1):
        if acc == ident:
            return OrderResult(k, "powering")
        acc = acc @ m
    # minpoly route; a singular matrix surfaces here as a factor t
    mp = minpoly(m)
    order = 1
    for g, mult in factor_poly(ctx, mp, seed):
        if g == poly_t(ctx):
            raise Singular("matrix is singular, no multiplicative order")
        part = _order_of_t_mod(ctx, g, digits_budget)
        ppow = 1
        while ppow < mult:
            ppow *= ctx.p
        lcm_in = part * ppow
        order = order * lcm_in // _gcd(order, lcm_in)
    return OrderResult(order, "minpoly-route")


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


# ---------------------------------------------------------------------------
# restriction to an invariant subspace


def restrict(m: Matrix, basis) -> Matrix:
    """Matrix of m's action on span(basis), in the given basis order."""
    ctx = m.ctx
    cols = [np.asarray(b, dtype=np.int64) % ctx.p for b in basis]
    k = len(cols)
    b = np.stack(cols, axis=1)  # (n, k, f)
    mb = _product(ctx, _block_form(ctx, m.data), b)
    aug = np.concatenate([b, mb], axis=1)  # (n, 2k, f)
    red, pivots = rref(ctx, aug)
    if len([p for p in pivots if p < k]) < k:
        raise DependentBasis("basis vectors are linearly dependent")
    if any(p >= k for p in pivots):
        raise NotInvariant("span is not invariant under the matrix")
    return Matrix(ctx, red[:k, k:])


# ---------------------------------------------------------------------------
# word expressions over two generators


class WordExpr:
    """Parsed word over letters x, y, Y(=y^-1) with powers and commutators."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, *a):
        raise AttributeError("WordExpr is immutable")

    def __repr__(self):
        return f"WordExpr({word_str(self)!r})"


def word_str(expr: WordExpr) -> str:
    parts = []
    for atom, e in expr.terms:
        if isinstance(atom, str):
            s = atom
        elif isinstance(atom, WordExpr):
            s = "(" + word_str(atom) + ")"
        else:
            s = "[" + word_str(atom[0]) + "," + word_str(atom[1]) + "]"
        parts.append(s if e == 1 else f"{s}^{e}")
    return "".join(parts)


def parse_word(text: str) -> WordExpr:
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_sequence(stop_chars):
        nonlocal pos
        terms = []
        while True:
            skip_ws()
            if pos >= len(text) or text[pos] in stop_chars:
                break
            terms.append(parse_term())
        if not terms:
            raise ParseError("empty word", pos)
        return WordExpr(terms)

    def parse_term():
        nonlocal pos
        atom = parse_atom()
        skip_ws()
        e = 1
        if pos < len(text) and text[pos] == "^":
            pos += 1
            skip_ws()
            sign = 1
            if pos < len(text) and text[pos] == "-":
                sign = -1
                pos += 1
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            if pos == start:
                raise ParseError("expected an integer exponent after '^'", pos)
            e = sign * int(text[start:pos])
        return (atom, e)

    def parse_atom():
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            raise ParseError("unexpected end of word", pos)
        ch = text[pos]
        if ch in "xyY":
            pos += 1
            return ch
        if ch == "(":
            pos += 1
            inner = parse_sequence(")")
            if pos >= len(text) or text[pos] != ")":
                raise ParseError("unclosed '('", pos)
            pos += 1
            return inner
        if ch == "[":
            pos += 1
            left = parse_sequence(",")
            if pos >= len(text) or text[pos] != ",":
                raise ParseError("expected ',' in commutator", pos)
            pos += 1
            right = parse_sequence("]")
            if pos >= len(text) or text[pos] != "]":
                raise ParseError("unclosed '['", pos)
            pos += 1
            return (left, right)
        raise ParseError(f"unexpected character {ch!r}", pos)

    expr = parse_sequence("")
    skip_ws()
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    return expr


def evaluate_word(word, x: Matrix, y: Matrix) -> Matrix:
    """Evaluate a word in the two generators; [u,v] = u^-1 v^-1 u v."""
    expr = parse_word(word) if isinstance(word, str) else word
    return _eval_expr(expr, x, y, y.inverse())


def _eval_expr(expr: WordExpr, x: Matrix, y: Matrix, y_inv: Matrix) -> Matrix:
    result = Matrix.identity(x.ctx, x.rows)
    for atom, e in expr.terms:
        if atom == "x":
            m = x
        elif atom == "y":
            m = y
        elif atom == "Y":
            m = y_inv
        elif isinstance(atom, WordExpr):
            m = _eval_expr(atom, x, y, y_inv)
        else:
            u = _eval_expr(atom[0], x, y, y_inv)
            v = _eval_expr(atom[1], x, y, y_inv)
            m = u.inverse() @ v.inverse() @ u @ v
        result = result @ m.pow(e)
    return result
