"""Exact dense polynomial and matrix algebra over a FieldCtx.

A Matrix holds one array, its reduced F_p block form (`_block_form`), and
its (rows, cols, f) coefficients `data` are a read-only view of it. A
product is one int64 matmul of the left block form against the right
factor's entry columns, a transpose moves blocks, and sums act on the
blocks; elimination, determinants, traces, scaling and JSON read `data`.
A characteristic polynomial, det(T*I - M), comes from a Hessenberg form
similar to M and its recurrence, in O(n**3) over every F_q; every other
linear-dependency question is one `rref`: a minimal polynomial is the
first dependency among the powers of the matrix, and kernel and
eigenspace bases come out in reduced echelon form, so subspace
comparisons are plain equality. Element orders are computed over F_p
from the block form: its characteristic polynomial is split into
squarefree parts and its radical by distinct degree
(`fields._distinct_degree_split`, which also tests the field moduli),
with no factoring into irreducibles; the order of t modulo each part
comes from powers of the part's companion matrix, and the unipotent
part's order from p-th powers of the block form. sympy is imported only
to factor p**d - 1 and in `factor_poly` and `Poly.pow_mod`, which wrap
its galoistools and which `element_order` does not call.

Everything here is pure and matrices are immutable; a matrix keeps its
determinant and inverse once computed or proved (see `Matrix`), and a
kept inverse keeps its source as its own inverse.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm, prod

import numpy as np

from .fields import (
    FieldCtx, _companion, _distinct_degree_split, _mat_pow, _poly_divmod, _poly_gcd, _poly_mul,
    elem_from_json, elem_to_json, is_json_int, make_field,
)


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
            c = c[:, None] * ctx.one
        if c.ndim != 2 or c.shape[1] != ctx.f:
            raise LinalgError(f"bad polynomial coefficient shape {c.shape}")
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

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ctx == other.ctx
            and np.array_equal(self.coeffs, other.coeffs)
        )

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

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        """self**e modulo mod over a prime field, by galoistools' gf_pow_mod."""
        ctx = self.ctx
        if ctx.f != 1:
            raise LinalgError(f"pow_mod works over a prime field, not GF({ctx.q})")
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_pow_mod

        return _from_big_endian(ctx, gf_pow_mod(_big_endian(self), e, _big_endian(mod), ctx.p, ZZ))

    def eval_elem(self, a) -> np.ndarray:
        """Horner evaluation at a field element; returns an (f,) vector."""
        ctx = self.ctx
        a = ctx.coerce(a)
        acc = ctx.zero.copy()
        for c in self.coeffs[::-1]:
            acc = ctx.add(ctx.mul(acc, a), c)
        return acc

    def eval_matrix(self, m: "Matrix") -> "Matrix":
        """Horner evaluation at a square matrix: acc -> m @ acc + c*I."""
        if m.rows != m.cols:
            raise NotSquare("a polynomial is evaluated at a square matrix")
        ctx, n = self.ctx, m.rows
        diag = np.arange(n)
        acc = np.zeros((n * ctx.f, n), dtype=np.int64)  # entry columns
        for c in self.coeffs[::-1]:
            acc = _product(ctx, m.blocks, acc)
            entries = _entries_of(acc, ctx.f)
            entries[diag, diag] = (entries[diag, diag] + c) % ctx.p
        return Matrix(ctx, _entries_of(acc, ctx.f))


def _big_endian(poly: Poly) -> list:
    """A prime-field polynomial as galoistools' big-endian list of ints."""
    return poly.coeffs[::-1, 0].tolist()


def _from_big_endian(ctx: FieldCtx, big: list) -> Poly:
    return Poly(ctx, np.array(big[::-1], dtype=np.int64).reshape(-1, 1))


# ---------------------------------------------------------------------------
# matrices (immutable; one array, the reduced F_p block form)


class Matrix:
    """A matrix over F_{p^f}, held as its F_p block form (`_block_form`);
    `data`, the (rows, cols, f) coefficients, is a read-only view of it.

    A matrix is immutable, so `det()` and `inverse()` each eliminate once
    and keep the result: the determinant as a read-only (f,) array, the
    inverse as a Matrix whose own kept inverse is a new Matrix on this
    one's blocks, so no reference cycle forms. A failure (NotSquare,
    Singular) is not kept and raises again on every call.

    A fact the package has proved is kept the same way, through
    `_keep_det` and `_keep_inverse`, and never eliminated: det g =
    (-1)**rank(1 - g) for an isometry g (`forms.spinor_norm`), the sign
    of a permutation (`generators._perm_matrix`), x**-1 = x and
    y**-1 = y**2 (`generators.build_pair`), and the restriction of a
    kept inverse (`restrict`). `_omega` holds the last `forms.in_omega`
    verdict with the space it was proved in.
    """

    __slots__ = ("ctx", "blocks", "_det", "_inv", "_omega")

    def __init__(self, ctx: FieldCtx, data):
        object.__setattr__(self, "ctx", ctx)
        d = np.asarray(data, dtype=np.int64)
        if d.ndim == 2:  # prime-field style entries
            d = d[:, :, None] * ctx.one
        if d.ndim != 3 or d.shape[2] != ctx.f:
            raise LinalgError(f"bad matrix data shape {d.shape}")
        b = np.ascontiguousarray(_block_form(ctx, d % ctx.p))
        b.setflags(write=False)
        object.__setattr__(self, "blocks", b)
        for slot in ("_det", "_inv", "_omega"):
            object.__setattr__(self, slot, None)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def _from_blocks(ctx: FieldCtx, blocks: np.ndarray) -> "Matrix":
        """Wrap a reduced C-contiguous block form, which is made read-only."""
        m = object.__new__(Matrix)
        blocks.setflags(write=False)
        object.__setattr__(m, "ctx", ctx)
        object.__setattr__(m, "blocks", blocks)
        for slot in ("_det", "_inv", "_omega"):
            object.__setattr__(m, slot, None)
        return m

    @property
    def data(self) -> np.ndarray:
        """The read-only (rows, cols, f) coefficient array."""
        return _entries_of(self.blocks[:, ::self.ctx.f], self.ctx.f)

    @property
    def rows(self) -> int:
        return self.blocks.shape[0] // self.ctx.f

    @property
    def cols(self) -> int:
        return self.blocks.shape[1] // self.ctx.f

    @staticmethod
    def identity(ctx: FieldCtx, n: int) -> "Matrix":
        return Matrix._from_blocks(ctx, _eye(n * ctx.f))

    @staticmethod
    def zeros(ctx: FieldCtx, r: int, c: int) -> "Matrix":
        return Matrix._from_blocks(ctx, np.zeros((r * ctx.f, c * ctx.f), dtype=np.int64))

    @staticmethod
    def from_rows(ctx: FieldCtx, rows) -> "Matrix":
        widths = {len(row) for row in rows}
        if len(widths) != 1 or 0 in widths:
            raise LinalgError("a matrix needs one or more rows of one positive length")
        d = np.stack([vector(ctx, row) for row in rows])
        return Matrix(ctx, d)

    # the block form is injective, so equal shapes and equal bytes mean
    # equal entries; comparing bytes skips numpy's per-call setup
    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ctx == other.ctx
            and self.blocks.shape == other.blocks.shape
            and self.blocks.tobytes() == other.blocks.tobytes()
        )

    __hash__ = None

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over GF({self.ctx.q}))"

    def _same_shape(self, other, op: str) -> np.ndarray:
        """other's block form, once other is a matrix over this field of this shape."""
        if not isinstance(other, Matrix):
            raise LinalgError(f"matrix {op} needs a matrix operand")
        if not (other.ctx is self.ctx or other.ctx == self.ctx):
            raise LinalgError("matrices over different fields")
        if other.blocks.shape != self.blocks.shape:
            raise LinalgError(f"shape mismatch in matrix {op}")
        return other.blocks

    # the block form is F_p-linear, so sums act on the blocks directly
    def __add__(self, other):
        b = self._same_shape(other, "sum")
        return Matrix._from_blocks(self.ctx, (self.blocks + b) % self.ctx.p)

    def __sub__(self, other):
        b = self._same_shape(other, "difference")
        return Matrix._from_blocks(self.ctx, (self.blocks - b) % self.ctx.p)

    def __neg__(self):
        return Matrix._from_blocks(self.ctx, -self.blocks % self.ctx.p)

    def scale(self, k) -> "Matrix":
        return Matrix(self.ctx, self.ctx.scale(k, self.data))

    def __matmul__(self, other):
        ctx = self.ctx
        f = ctx.f
        if isinstance(other, Matrix):
            if not (other.ctx is ctx or other.ctx == ctx):
                raise LinalgError("matrices over different fields")
            if self.cols != other.rows:
                raise LinalgError("shape mismatch in matrix product")
            cols = _product(ctx, self.blocks, other.blocks[:, ::f])
            return Matrix._from_blocks(ctx, _block_form(ctx, _entries_of(cols, f)))
        v = np.asarray(other, dtype=np.int64) % ctx.p  # (cols, f) vector
        if v.shape != (self.cols, f):
            raise LinalgError(
                f"vector shape {v.shape} does not match ({self.cols}, {f})")
        return _product(ctx, self.blocks, v.reshape(-1)).reshape(-1, f)

    def transpose(self) -> "Matrix":
        # block (i, j) moves to (j, i); each block is multiplication by the
        # same entry, so it is not itself transposed
        f = self.ctx.f
        b = self.blocks.reshape(self.rows, f, self.cols, f).transpose(2, 1, 0, 3)
        return Matrix._from_blocks(self.ctx, np.ascontiguousarray(b).reshape(self.cols * f, -1))

    def trace(self) -> np.ndarray:
        if self.rows != self.cols:
            raise NotSquare("trace needs a square matrix")
        return self.data[np.arange(self.rows), np.arange(self.rows)].sum(axis=0) % self.ctx.p

    def is_identity(self) -> bool:
        b = self.blocks
        return b.shape[0] == b.shape[1] and b.tobytes() == _eye(b.shape[0]).tobytes()

    def pow(self, e: int) -> "Matrix":
        """self**e by repeated squaring of the block form; pow(1) is self,
        pow(-1) its kept inverse and pow(0) the identity."""
        if self.rows != self.cols:
            raise NotSquare("powers need a square matrix")
        if e == 0:
            return Matrix.identity(self.ctx, self.rows)
        base = self if e > 0 else self.inverse()
        if abs(e) == 1:
            return base
        _require_exact(self.ctx, self.blocks.shape[0])
        return Matrix._from_blocks(self.ctx, _mat_pow(base.blocks, abs(e), self.ctx.p))

    def inverse(self) -> "Matrix":
        """The inverse, by one rref of [self | I] on the first call."""
        if self._inv is None:
            if self.rows != self.cols:
                raise NotSquare("inverse needs a square matrix")
            n = self.rows
            aug = np.concatenate([self.data, Matrix.identity(self.ctx, n).data], axis=1)
            red, pivots = rref(self.ctx, aug)
            if pivots != list(range(n)):
                raise Singular("matrix is not invertible")
            self._keep_inverse(np.ascontiguousarray(_block_form(self.ctx, red[:, n:])))
        return self._inv

    def _keep_inverse(self, blocks: np.ndarray) -> None:
        """Keep a proved inverse, given by its reduced block form, as a new
        Matrix whose own kept inverse is a new Matrix on self's blocks:
        neither is ever self."""
        inv = Matrix._from_blocks(self.ctx, blocks)
        object.__setattr__(inv, "_inv", Matrix._from_blocks(self.ctx, self.blocks))
        object.__setattr__(self, "_inv", inv)

    def det(self) -> np.ndarray:
        """Determinant as a read-only (f,) element vector, by elimination
        on the first call."""
        if self._det is None:
            self._keep_det(self._eliminate_det())
        return self._det

    def _keep_det(self, d: np.ndarray) -> None:
        """Keep a proved determinant, an (f,) element, as a read-only copy."""
        d = np.array(d, dtype=np.int64)
        d.setflags(write=False)
        object.__setattr__(self, "_det", d)

    def _eliminate_det(self) -> np.ndarray:
        if self.rows != self.cols:
            raise NotSquare("determinant needs a square matrix")
        ctx, n, f = self.ctx, self.rows, self.ctx.f
        a = self.data.copy()  # C order, so flat is a view
        flat = a.reshape(n, n * f)
        swaps = 0
        for col in range(n):
            nonzero = a[col:, col].any(axis=1).nonzero()[0]
            if not nonzero.size:
                return ctx.zero.copy()
            if nonzero[0]:
                a[[col, col + nonzero[0]]] = a[[col + nonzero[0], col]]
                swaps += 1
            below = col + nonzero[1:]
            if below.size:
                # only columns right of col are read again
                block = _scaled_row_block(ctx, a[col, col + 1:], ctx.inv(a[col, col]))
                _subtract_multiples(ctx, flat, below, (col + 1) * f, a[below, col], block)
        # the diagonal now holds the pivots
        detv = ctx.product(np.concatenate([ctx.one[None], a[np.arange(n), np.arange(n)]]))
        return ctx.neg(detv) if swaps % 2 else detv

    def to_json(self) -> dict:
        d = self.data
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [
                [elem_to_json(self.ctx, d[i, j]) for j in range(self.cols)]
                for i in range(self.rows)
            ],
        }

    @staticmethod
    def from_json(ctx: FieldCtx, obj) -> "Matrix":
        """A matrix file's JSON: the {"rows", "cols", "entries"} object of
        `to_json`, or the bare nested list of element JSON."""
        entries = obj
        if isinstance(obj, dict):
            if not {"rows", "cols", "entries"} <= obj.keys():
                raise LinalgError("a matrix object needs rows, cols and entries")
            if not (is_json_int(obj["rows"]) and is_json_int(obj["cols"])):
                raise LinalgError("a matrix object's rows and cols must be integers")
            entries = obj["entries"]
        if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
            raise LinalgError("matrix entries must be a list of lists")
        if isinstance(obj, dict) and (len(entries) != obj["rows"]
                                      or any(len(r) != obj["cols"] for r in entries)):
            raise LinalgError("entry grid does not match declared shape")
        return Matrix.from_rows(
            ctx, [[elem_from_json(ctx, v) for v in row] for row in entries])


@lru_cache(maxsize=None)
def _eye(size: int) -> np.ndarray:
    """The read-only identity of side size: the block form of I_n when size = n*f."""
    eye = np.eye(size, dtype=np.int64)
    eye.setflags(write=False)
    return eye


def _block_form(ctx: FieldCtx, data: np.ndarray) -> np.ndarray:
    """F_p block form of a reduced (r, k, f) array: an (r*f, k*f) array below p.

    Entry (i*f + w, j*f + v) is the t**w coefficient of data[i, j] * t**v,
    so the block form applied to a column of (k*f,) coordinate vectors,
    flattened entry by entry, is the product by data over F_{p^f}, and
    column j*f holds column j of data. An injective ring homomorphism;
    for f = 1 it is data itself, reshaped.
    """
    r, k, f = data.shape
    if f == 1:
        return data.reshape(r, k)
    blocks = np.einsum("iju,uvw->iwjv", data, ctx.mul_table) % ctx.p
    return blocks.reshape(r * f, k * f)


def _entries_of(cols: np.ndarray, f: int) -> np.ndarray:
    """The (r, c, f) view of (r*f, c) entry columns: column j, flattened."""
    return cols.reshape(cols.shape[0] // f, f, cols.shape[1]).transpose(0, 2, 1)


def _product(ctx: FieldCtx, blocks: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Exact product of a left factor in block form and a right factor's
    entry columns: a flattened (k, f) vector, or (k*f, c) with column j the
    flattened column j, as columns j*f of a block form hold it.

    One int64 matmul, reduced once, gives the product in the same layout;
    for f = 1 this is (A @ B) % p. Each output sum has k*f terms below
    p**2, so the result is exact while k * f * p**2 < 2**63; past that it
    raises. `minpoly` and `element_order` of an n x n matrix have the same
    bound with k*f = n*f, and `charpoly` with k*f = (n - 1)*f.
    """
    _require_exact(ctx, blocks.shape[1])
    return blocks @ cols % ctx.p


def _require_exact(ctx: FieldCtx, terms: int) -> None:
    """Refuse an int64 sum of `terms` products of residues mod p that could wrap."""
    if terms > ctx.exact_terms():
        raise LinalgError(f"a sum of {terms} products mod {ctx.p} can leave the int64 range")


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
    """Reduced row echelon form of an (r, c, f) array; returns (array, pivots).

    The pivot of a column is its first nonzero entry at or below the
    current row. Each column costs one scan for nonzero entries and one
    int64 matmul that clears them against the scaled pivot row.
    """
    a = np.asarray(data, dtype=np.int64).copy()  # C order, so flat is a view
    nrows, ncols, f = a.shape
    flat = a.reshape(nrows, ncols * f)
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        nonzero = a[:, col].any(axis=1)
        below = nonzero[row:].nonzero()[0]
        if not below.size:
            continue
        piv = row + below[0]
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        # entries left of col are zero in the pivot row; the rows to clear
        # are the other nonzero ones, and after the swap row piv is zero
        block = _scaled_row_block(ctx, a[row, col:], ctx.inv(a[row, col]))
        flat[row, col * f:] = block[0]
        nonzero[piv] = False
        others = nonzero.nonzero()[0]
        if others.size:
            _subtract_multiples(ctx, flat, others, col * f, a[others, col], block)
        pivots.append(col)
        row += 1
    return a, pivots


def _scaled_row_block(ctx: FieldCtx, row: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(f, c*f) F_p block of s * row, for a reduced (c, f) row and element s.

    Entry (u, j*f + w) is the t**w coefficient of t**u * s * row[j]: the
    transpose of the `_block_form` of s * row stood up as a column. So an
    (r, f) column of factors times the block is the (r, c*f) array of
    their products with s * row, entry by entry, flattened, and the first
    row of the block is s * row itself. Every sum here has f terms below
    p**2, well inside the `exact_terms` bound.
    """
    if ctx.f == 1:
        return row.reshape(1, -1) * s[0] % ctx.p
    s_block = s @ ctx.mul_table % ctx.p  # row u is t**u * s
    return s_block @ (row @ ctx.mul_table % ctx.p).reshape(ctx.f, -1) % ctx.p


def _subtract_multiples(ctx: FieldCtx, flat, rows, start, factors, block) -> None:
    """flat[rows, start:] -= factors * (the row whose block is `block`), mod p."""
    prod = factors * block if ctx.f == 1 else factors @ block
    flat[rows, start:] = (flat[rows, start:] - prod) % ctx.p


def _block_inverse(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse over F_p of a reduced square int64 array, C-contiguous.

    For a block form this is the block form of the inverse, as `_block_form`
    is an injective ring map. Gauss-Jordan on [a | I]: per column a pivot
    scan, one inverse by Python's pow, one row scale and one rank-1 update.
    Each entry takes one product below p**2 at a time, exact for p < 2**31.
    """
    n = a.shape[0]
    aug = np.concatenate([a, _eye(n)], axis=1)
    for col in range(n):
        factors = aug[:, col].tolist()
        piv = next((r for r in range(col, n) if factors[r]), None)
        if piv is None:
            raise Singular("matrix is not invertible")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
            factors[col], factors[piv] = factors[piv], factors[col]
        row = aug[col] * pow(factors[col], -1, p) % p
        factors[col] = 0
        aug -= np.multiply.outer(factors, row)
        aug %= p
        aug[col] = row
    return np.ascontiguousarray(aug[:, n:])


def kernel_basis(m: Matrix) -> np.ndarray:
    """Basis of the right kernel, rows in reduced echelon form.

    One rref of m with its columns reversed, where the kernel vector of a
    free column is 1 there, 0 at the other free columns and nonzero
    elsewhere only at pivot columns before it. Read in the original order,
    the latest free column first, these vectors are the reduced basis.
    """
    ctx, c = m.ctx, m.cols
    red, pivots = rref(ctx, m.data[:, ::-1])
    free = [j for j in range(c - 1, -1, -1) if j not in pivots]
    basis = np.zeros((len(free), c, ctx.f), dtype=np.int64)
    basis[np.arange(len(free)), free] = ctx.one
    basis[:, pivots] = -red[:len(pivots), free].transpose(1, 0, 2) % ctx.p
    return np.ascontiguousarray(basis[:, ::-1])


# ---------------------------------------------------------------------------
# characteristic / minimal polynomials


def charpoly(m: Matrix) -> Poly:
    """det(T*I - M), from a Hessenberg form similar to M (Cohen, *A Course
    in Computational Algebraic Number Theory*, 1993, Alg. 2.2.9).

    Column k is reduced by one similarity: the first nonzero entry at or
    below row k + 1 is swapped to row k + 1 (rows and columns), that row
    is scaled by its inverse and cleared from the rows below it, and the
    inverse operations on columns fold into one product: column k + 1
    becomes columns k + 1, k + 2, ... weighted by column k's old entries
    from row k + 1 down. So every subdiagonal entry ends up 0 or 1, and
    p_j, the charpoly of the leading j x j block, is
    T*p_(j-1) - sum of h[r, j-1]*p_r over r from the last zero of the
    subdiagonal up to j - 1. Every int64 sum has at most (n-1)*f products
    below p**2; past that bound the matrix is refused.
    """
    if m.rows != m.cols:
        raise NotSquare("charpoly needs a square matrix")
    ctx = m.ctx
    n, f = m.rows, ctx.f
    _require_exact(ctx, (n - 1) * f)
    a = m.data.copy()  # C order, so flat is a view
    flat = a.reshape(n, n * f)
    for k in range(n - 1):
        nonzero = a[k + 1:, k].any(axis=1).nonzero()[0]
        if not nonzero.size:
            continue
        if nonzero[0]:
            piv = k + 1 + nonzero[0]
            a[[k + 1, piv]] = a[[piv, k + 1]]
            a[:, [k + 1, piv]] = a[:, [piv, k + 1]]
        weights = a[k + 1:, k].copy()  # the pivot first
        block = _scaled_row_block(ctx, a[k + 1, k:], ctx.inv(weights[0]))
        flat[k + 1, k * f:] = block[0]
        if nonzero.size > 1:  # a zero weight leaves its row as it is
            _subtract_multiples(ctx, flat, slice(k + 2, None), k * f, weights[1:], block)
        # column k + 1 becomes the columns from k + 1 on weighted by
        # `weights`: the transpose of the row weights times their transpose
        flat[:, (k + 1) * f:(k + 2) * f] = _product(
            ctx, _block_form(ctx, weights[None]), flat[:, (k + 1) * f:].T).T
    # column j of polys holds p_j, coefficient i of T in row i
    polys = np.zeros((n + 1, n + 1, f), dtype=np.int64)
    polys[0, 0] = ctx.one
    unit = a[np.arange(1, n), np.arange(n - 1)].any(axis=1).tolist()  # the subdiagonal
    start = 0
    for j in range(1, n + 1):
        if j > 1 and not unit[j - 2]:
            start = j - 1
        col = a[start:j, j - 1]
        polys[1:, j] = polys[:-1, j - 1]
        # the diagonal term apart, so the sum has at most n - 1 products
        rest = _product(ctx, _block_form(ctx, col[None, :-1]),
                        polys[:, start:j - 1].reshape(n + 1, (j - 1 - start) * f).T).T
        polys[:, j] = (polys[:, j] - ctx.scale(col[-1], polys[:, j - 1]) - rest) % ctx.p
    return Poly(ctx, polys[:, n])


def minpoly(m: Matrix) -> Poly:
    """Monic minimal polynomial: the first dependency among I, m, m**2, ...

    One rref of the (n*n, n + 1) array whose column k holds the entries of
    m**k. Once m**k depends on the lower powers, so does every higher
    power, so the pivots are the columns 0, ..., k - 1, and column k of
    the reduced array holds the c_i with m**k = sum of c_i * m**i: the
    polynomial is T**k - sum of c_i * T**i. Each power is one `@`, which
    refuses a matrix whose n*f-term int64 sums could wrap.
    """
    if m.rows != m.cols:
        raise NotSquare("minpoly needs a square matrix")
    ctx, n = m.ctx, m.rows
    powers = [Matrix.identity(ctx, n), m]
    while len(powers) <= n:
        powers.append(powers[-1] @ m)
    red, pivots = rref(ctx, np.stack([w.data.reshape(n * n, ctx.f) for w in powers], axis=1))
    k = len(pivots)
    mp = Poly(ctx, np.concatenate([-red[:k, k], ctx.one[None]]))
    assert mp.eval_matrix(m) == Matrix.zeros(ctx, n, n)
    return mp


def eigenspace(m: Matrix, lam):
    """Basis of ker(M - lam*I), rows in reduced echelon form."""
    if m.rows != m.cols:
        raise NotSquare("eigenspace needs a square matrix")
    ctx = m.ctx
    shifted = m - Matrix.identity(ctx, m.rows).scale(ctx.coerce(lam))
    return kernel_basis(shifted)


# ---------------------------------------------------------------------------
# factorization


def factor_poly(ctx: FieldCtx, f: Poly) -> list:
    """Monic irreducible factors of f over a prime field, with multiplicities.

    galoistools' gf_factor; a list of (Poly, multiplicity) pairs.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if ctx.f != 1:
        raise LinalgError(f"factor_poly factors over a prime field, not GF({ctx.q})")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor

    return [(_from_big_endian(ctx, g), k) for g, k in gf_factor(_big_endian(f), ctx.p, ZZ)[1]]


# ---------------------------------------------------------------------------
# element order


FACTOR_DIGITS_BUDGET = 120  # upper bound on decimal digits of p**d - 1 we factor


@lru_cache(maxsize=None)
def _cyclotomic_value(e: int, q: int) -> int:
    """Integer value of the e-th cyclotomic polynomial at q: q**e - 1 is the
    product of Phi_d(q) over the divisors d of e, so dividing it exactly by
    Phi_d(q) for every proper divisor d leaves Phi_e(q)."""
    value = q**e - 1
    for d in range(1, e // 2 + 1):
        if e % d == 0:
            value, rest = divmod(value, _cyclotomic_value(d, q))
            assert rest == 0
    return value


@lru_cache(maxsize=None)
def _factor_qd_minus_1(q: int, d: int) -> tuple:
    """(prime, exponent) pairs of q**d - 1, refused past the digit budget;
    a refusal is not cached, so it is raised again on every call."""
    digits = len(str(q**d - 1))
    if digits > FACTOR_DIGITS_BUDGET:
        raise OrderSearchExceeded(
            f"q^d-1 has {digits} digits, over the budget of {FACTOR_DIGITS_BUDGET}"
        )
    from sympy import factorint

    out = {}
    for e in range(1, d + 1):
        if d % e == 0:
            for prime, exp in factorint(_cyclotomic_value(e, q)).items():
                out[prime] = out.get(prime, 0) + exp
    return tuple(out.items())


def element_order(m: Matrix) -> int:
    """Exact multiplicative order, computed over F_p from the block form.

    The block form is an injective ring homomorphism, so m and its block
    form B have the same order: m0 * p**k, where m0 is the order of B's
    semisimple part and p**k that of its unipotent part (Celler and
    Leedham-Green, "Calculating the order of an invertible matrix", 1997).
    The charpoly cp of B over F_p has the irreducible factors of B's
    minimal polynomial, so m0 is the order of t modulo the radical of cp.
    `_squarefree_split` gives the radical as the product of cp's
    squarefree parts, `_distinct_degree_split` splits it into g_d, the
    products of its degree-d irreducibles, and the order of t modulo g_d
    divides p**d - 1 (`_order_of_t`). No factor is split further. If cp
    is squarefree, B is semisimple and k = 0; otherwise `_order_below`
    finds p**k, the order of B**m0, which divides the least power of p at
    or above N = n*f, as no Jordan block is longer than N. Every product
    is an int64 matmul of side at most N, and N products below p**2 must
    fit in an int64 sum.
    """
    if m.rows != m.cols:
        raise NotSquare("element_order needs a square matrix")
    p, size = m.ctx.p, m.blocks.shape[0]
    fp = make_field(p, 1)
    _require_exact(fp, size)
    cp = charpoly(Matrix._from_blocks(fp, m.blocks))
    if not cp.coeffs[0].any():
        raise Singular("matrix is singular, no multiplicative order")
    radical, top = [1], 1
    for part, e in _squarefree_split(p, cp.coeffs[:, 0].tolist()):
        radical, top = _poly_mul(p, radical, part), max(top, e)
    order = 1
    # by increasing d, so the least d whose p**d - 1 is over the budget raises
    for g, d in _distinct_degree_split(p, radical):
        order = lcm(order, _order_of_t(p, g, d))
    if top == 1:
        return order
    k = 0
    while p**k < size:
        k += 1
    return order * _order_below(_mat_pow(m.blocks, order, p), ((p, k),), p)


# Polynomials over F_p from here on are little-endian lists of reduced ints
# with no trailing zeros, as `fields._poly_divmod` and `_poly_gcd` take them.


def _squarefree_split(p: int, f: list) -> list:
    """Squarefree parts (a_e, e) of a monic f over F_p: f = prod a_e**e.

    Musser's algorithm, as in von zur Gathen and Gerhard, ch. 14:
    g = gcd(f, f') keeps the factors whose multiplicity is divisible by p
    whole and the others once less, and peeling h = f/g against g sorts
    the others by multiplicity. What is left of g is a p-th power, whose
    p-th root is every p-th coefficient; its multiplicities count p times.
    A constant f has no parts.
    """
    parts, scale = [], 1
    while len(f) > 1:
        g = _poly_gcd(p, f, [i * c for i, c in enumerate(f)][1:])  # f itself when f' = 0
        h = _poly_divmod(p, f, g)[0]
        e = 1
        while len(h) > 1:
            common = _poly_gcd(p, g, h)
            part = _poly_divmod(p, h, common)[0]
            if len(part) > 1:
                parts.append((part, e * scale))
            g, h, e = _poly_divmod(p, g, common)[0], common, e + 1
        f, scale = g[::p], scale * p
    return parts


def _order_of_t(p: int, g: list, d: int) -> int:
    """Order of t modulo g, a monic squarefree product of degree-d irreducibles.

    It divides N = p**d - 1. For each r**k exactly dividing N, the r-part
    of the order is r**j for the least j with (C**(N / r**k))**(r**j) = 1,
    C the companion matrix of g. The powers C**(N / r**k) come from one
    power tree (von zur Gathen and Gerhard, ch. 10): the prime powers are
    split into halves, and each half gets its node's power raised to the
    product of the other half, so about log2 of their number
    exponentiations lead to each leaf.
    """
    return _order_below(_companion(p, g), _factor_qd_minus_1(p, d), p)


def _order_below(y: np.ndarray, parts: tuple, p: int) -> int:
    """The order of y, which divides the product of the r**k in parts; LinalgError if not."""
    if len(parts) == 1:
        (r, k), order = parts[0], 1
        while not np.array_equal(y, _eye(len(y))):
            if order == r**k:
                raise LinalgError(f"the order of the matrix does not divide {r}**{k}")
            y = _mat_pow(y, r, p)
            order *= r
        return order
    half = len(parts) // 2
    left, right = parts[:half], parts[half:]
    return (_order_below(_mat_pow(y, prod(r**k for r, k in right), p), left, p)
            * _order_below(_mat_pow(y, prod(r**k for r, k in left), p), right, p))


# ---------------------------------------------------------------------------
# restriction to an invariant coordinate subspace


def restrict(m: Matrix, coords) -> Matrix:
    """m's action on the span of the e_i, i in coords (0-based): m[coords, coords]
    in the given order, once m's columns at coords vanish outside those rows.

    When m keeps an inverse, the restriction keeps m**-1[coords, coords] as
    its own: an invertible m that maps the span into itself maps it onto
    itself, so m**-1 preserves the span too and restricts to the inverse."""
    n, f = m.rows, m.ctx.f
    if m.cols != n:
        raise NotSquare("restriction needs a square matrix")
    coords = list(coords)
    if not all(is_json_int(i) and 0 <= i < n for i in coords):
        raise LinalgError(f"coordinates must lie in 0..{n - 1} and be integers")
    if len(set(coords)) < len(coords):
        raise DependentBasis("a coordinate is listed twice")
    # the rows and columns of each coordinate's f x f block
    idx = (np.asarray(coords, dtype=np.intp)[:, None] * f + np.arange(f)).reshape(-1)
    cols = m.blocks[:, idx]
    if np.delete(cols, idx, axis=0).any():
        raise NotInvariant("span is not invariant under the matrix")
    out = Matrix._from_blocks(m.ctx, np.ascontiguousarray(cols[idx]))
    if m._inv is not None:
        out._keep_inverse(m._inv.blocks[np.ix_(idx, idx)])
    return out


# ---------------------------------------------------------------------------
# word expressions over two generators


def commutator(u: Matrix, v: Matrix) -> Matrix:
    """[u, v] = u^-1 v^-1 u v, the bracket that reproduces the printed 8x8 block."""
    return u.inverse() @ v.inverse() @ u @ v


def evaluate_word(word: str, x: Matrix, y: Matrix) -> Matrix:
    """Evaluate a word over letters x, y, Y (= y^-1) with integer powers,
    parentheses and commutators [u,v] = u^-1 v^-1 u v, multiplying as it
    parses. The product of the terms' powers is taken from the first one: a
    lone letter is the generator object itself, so its kept inverse is
    reused, and Y is y's inverse, taken only where it occurs. A malformed
    word raises ParseError at the offending position."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(word) and word[pos].isspace():
            pos += 1

    def sequence(stop="", unclosed=""):
        """The product of the terms up to `stop`, which it consumes."""
        nonlocal pos
        result = None
        while True:
            skip_ws()
            if pos == len(word) or word[pos] == stop:
                break
            m = term()
            result = m if result is None else result @ m
        if result is None:
            raise ParseError("empty word", pos)
        if stop:
            if pos == len(word):
                raise ParseError(unclosed, pos)
            pos += 1
        return result

    def term():
        nonlocal pos
        m = atom()
        skip_ws()
        if pos == len(word) or word[pos] != "^":
            return m
        pos += 1
        skip_ws()
        sign = 1
        if pos < len(word) and word[pos] == "-":
            sign = -1
            pos += 1
        start = pos
        while pos < len(word) and "0" <= word[pos] <= "9":  # isdigit() takes "²", which int() refuses
            pos += 1
        if pos == start:
            raise ParseError("expected an integer exponent after '^'", pos)
        return m.pow(sign * int(word[start:pos]))

    def atom():
        nonlocal pos
        ch = word[pos]  # sequence saw a character here
        pos += 1
        if ch == "x":
            return x
        if ch == "y":
            return y
        if ch == "Y":
            return y.inverse()
        if ch == "(":
            return sequence(")", "unclosed '('")
        if ch == "[":
            u = sequence(",", "expected ',' in commutator")
            return commutator(u, sequence("]", "unclosed '['"))
        raise ParseError(f"unexpected character {ch!r}", pos - 1)

    return sequence()
