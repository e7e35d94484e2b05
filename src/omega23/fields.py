"""Exact arithmetic in odd-characteristic finite fields GF(p**f).

Elements are little-endian coefficient vectors over the prime field,
reduced modulo a fixed monic irreducible polynomial in t. The modulus
is the lexicographically smallest monic irreducible of degree f, where
tuples (c0, c1, ..., c_{f-1}) are compared constant term first. That
makes every field reproducible from (p, f) alone. A candidate is
irreducible iff its distinct-degree split is the candidate alone; the
split and the Frobenius tables take t**p from one Berlekamp matrix
(`_frobenius_matrix`), and the reduction table is powers of t.

Bulk arithmetic runs on per-context numpy tables: products of whole
arrays of coefficient vectors through the multiplication table (one
einsum, or a matmul against a block built from it; over F_p a product is
a * b % p), and inverses through the Frobenius matrices, as the norm's
inverse times the other conjugates. A single element is one such vector:
a reduced (f,) int64 array.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class FieldError(ValueError):
    """Base class for field construction and arithmetic errors."""


class NonPrime(FieldError):
    def __init__(self, p):
        super().__init__(f"characteristic must be prime, got {p}")


class EvenCharacteristic(FieldError):
    def __init__(self):
        super().__init__("characteristic 2 is not supported")


class BadDegree(FieldError):
    def __init__(self, f):
        super().__init__(f"extension degree must be a positive integer, got {f}")


# ---------------------------------------------------------------------------
# primality and prime powers, exact without sympy below _MR_EXACT_BELOW

# Strong-probable-prime tests to the first 13 primes prove primality below
# this bound (Jaeschke, Math. Comp. 61, 1993, for up to 11 bases; Sorenson
# and Webster, Math. Comp. 86, 2017, for 12 and 13).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality: deterministic Miller-Rabin below _MR_EXACT_BELOW,
    sympy's isprime above it."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_EXACT_BELOW:
        from sympy import isprime

        return bool(isprime(n))
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, by Newton's method from above."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


# ---------------------------------------------------------------------------
# the canonical modulus


def _poly_trim(c: list) -> list:
    """Drop the zero leading coefficients of a little-endian list, in place."""
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(p: int, a: list, b: list) -> tuple:
    """Quotient and remainder of little-endian a by b over GF(p).

    b is reduced, with a nonzero leading coefficient; both results come
    reduced and trimmed, so 0 is [] and 1 is [1].
    """
    a = _poly_trim([c % p for c in a])
    quo = [0] * max(len(a) - len(b) + 1, 0)
    lead = pow(b[-1], -1, p)
    while len(a) >= len(b):
        k, shift = a[-1] * lead % p, len(a) - len(b)
        quo[shift] = k
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - k * c) % p
        _poly_trim(a)
    return quo, a


def _poly_gcd(p: int, a: list, b: list) -> list:
    """Monic gcd of two little-endian polynomials over GF(p), by Euclid; [] if both are 0."""
    a, b = _poly_trim([c % p for c in a]), _poly_trim([c % p for c in b])
    while b:
        a, b = b, _poly_divmod(p, a, b)[1]
    if a:
        lead = pow(a[-1], -1, p)
        a = [c * lead % p for c in a]
    return a


def _poly_mul(p: int, a: list, b: list) -> list:
    """Product of two little-endian polynomials over GF(p), reduced, not trimmed."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out]


def _companion(p: int, g: list) -> np.ndarray:
    """Companion matrix of a monic g: column j is t**(j + 1) mod g, so it multiplies by t."""
    k = len(g) - 1
    c = np.zeros((k, k), dtype=np.int64)
    c[1:, :-1] = np.eye(k - 1, dtype=np.int64)
    c[:, -1] = [-x % p for x in g[:-1]]
    return c


def _mat_pow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a**e mod p for e >= 1, by repeated squaring."""
    out = None
    while True:
        if e & 1:
            out = a if out is None else out.dot(a) % p
        e >>= 1
        if not e:
            return out
        a = a.dot(a) % p


def _power_rows(a: np.ndarray, k: int, p: int) -> np.ndarray:
    """(k, n) array whose row i is a**i applied to the unit column e_0, mod p."""
    rows = [np.eye(len(a), dtype=np.int64)[0]]
    for _ in range(k - 1):
        rows.append(a.dot(rows[-1]) % p)
    return np.stack(rows)


def _frobenius_matrix(p: int, m: list) -> np.ndarray:
    """Berlekamp matrix of a monic m over GF(p): column j is t**(p*j) mod m,
    so it maps h to h**p mod m, as a -> a**p is GF(p)-linear on GF(p)[t]/(m),
    a field or not. Column j is (C**p)**j applied to 1, C the companion matrix."""
    return _power_rows(_mat_pow(_companion(p, m), p, p), len(m) - 1, p).T


def _distinct_degree_split(p: int, f: list) -> list:
    """(g_d, d) for a monic f over F_p, by increasing d.

    For a squarefree f, g_d is the product of f's irreducible factors of
    degree d, found as gcd(t**(p**d) - t, f) with the lower degrees divided
    out (Zassenhaus; von zur Gathen and Gerhard, ch. 14). h**p mod f is
    `_frobenius_matrix(p, f)` times h, and reduced modulo what is left of f
    it is h**p modulo that. Once 2d exceeds the degree of what is left,
    that is one irreducible. So f of degree n is irreducible iff its split
    is [(f, n)], squarefree or not: a reducible f has an irreducible factor
    of least degree d <= n/2, and the first nontrivial gcd comes at that d.
    """
    out = []
    if len(f) > 2:
        frob = _frobenius_matrix(p, f)
        h, d = [0, 1], 1
        while 2 * d < len(f):
            col = np.array(h, dtype=np.int64)
            h = _poly_divmod(p, frob[:, : len(h)].dot(col).tolist(), f)[1]
            t_off = h + [0] * (2 - len(h))
            t_off[1] = (t_off[1] - 1) % p
            g = _poly_gcd(p, f, t_off)
            if len(g) > 1:
                out.append((g, d))
                f = _poly_divmod(p, f, g)[0]
                h = _poly_divmod(p, h, f)[1]
            d += 1
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _is_irreducible(p: int, modulus) -> bool:
    """Whether a monic polynomial over GF(p) is irreducible: its distinct-degree split is itself."""
    m = [int(c) for c in modulus]
    return _distinct_degree_split(p, m) == [(m, len(m) - 1)]


def _smallest_modulus(p, f):
    if f == 1:
        return [0, 1]
    # c0 = 0 would make a candidate divisible by t; every degree has an
    # irreducible. Tail number t is its base-p digits, most significant
    # first, so the tails run in lexicographic order and none is stored.
    candidates = ([c0, *(t // p ** k % p for k in range(f - 2, -1, -1)), 1]
                  for c0 in range(1, p) for t in range(p ** (f - 1)))
    return next(c for c in candidates if _is_irreducible(p, c))


# ---------------------------------------------------------------------------


def _exact_range(p: int, f: int) -> dict:
    """FieldCtx.exact_terms for both values of `table`; refuses GF(p**f)
    when the f*f table products that mul and scale sum overflow an int64."""
    terms = {table: (2**63 - 1) // (p - 1) ** (3 if table and f > 1 else 2)
             for table in (False, True)}
    if f**2 > terms[True]:
        raise FieldError(f"GF({p}^{f}) is outside the exact int64 range")
    return terms


# Inverses a context keeps for f > 1: every nonzero element of the fields
# the paper's pairs use (q <= 27), a bounded few of a large one.
_INVERSE_CACHE_LIMIT = 4096


class FieldCtx:
    """Field context: modulus plus precomputed reduction, multiplication
    and Frobenius tables.

    reduce_table maps t**e (0 <= e <= 2f-2) to its reduced coefficient
    vector; mul_table[u, v] is the reduced vector of t**(u+v), so a
    product of coefficient arrays is einsum('...u,...v,uvw->...w') % p,
    and (row @ mul_table) % p holds t**u * row for each u, the block that
    turns products with a fixed row into one matmul. frob[i] is the
    (f, f) matrix of a -> a**(p**i) acting on coefficient rows.
    """

    def __init__(self, p: int, f: int, modulus):
        self.p = int(p)
        self.f = int(f)
        self.q = self.p**self.f
        self._exact_terms = _exact_range(self.p, self.f)
        self.modulus = np.array(modulus, dtype=np.int64)
        assert self.modulus.shape == (self.f + 1,) and self.modulus[-1] == 1
        m = [int(c) for c in self.modulus]
        # the companion matrix multiplies by t, so row e is t**e
        r = self.reduce_table = _power_rows(_companion(self.p, m), 2 * self.f - 1, self.p)
        self.mul_table = r[np.add.outer(np.arange(self.f), np.arange(self.f))]
        self.zero, self.one = np.zeros(self.f, dtype=np.int64), r[0].copy()
        # frob[i] is the matrix of a -> a**(p**i) on coefficient rows: frob[1]
        # is the Berlekamp matrix transposed, and the rest are its matmul powers
        frob = [np.eye(self.f, dtype=np.int64)]
        if self.f > 1:
            step = _frobenius_matrix(self.p, m).T
            for _ in range(1, self.f):
                frob.append(frob[-1] @ step % self.p)
        self.frob = np.stack(frob)
        self._inverses = {}  # element bytes -> read-only inverse, f > 1

    def exact_terms(self, table: bool = False) -> int:
        """How many products of residues an int64 sum holds without wrapping.

        A product is two residues below p, times a mul_table entry if
        `table` (below p, and 1 when f = 1). This is the one int64 bound
        of the package: the tables, block products, characteristic and
        minimal polynomials ((n-1)*f and n*f terms for an n x n matrix),
        element orders (n*f) and the forms' sums over a vector all check it.
        """
        return self._exact_terms[table]

    def __eq__(self, other):
        return other is self or (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.f == other.f
            and np.array_equal(self.modulus, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.f, tuple(int(c) for c in self.modulus)))

    def __repr__(self):
        return f"FieldCtx(q={self.q}, modulus={poly_str(self.modulus)})"

    # -- coercion ----------------------------------------------------------

    def coerce(self, x) -> np.ndarray:
        """Normalize an int or a coefficient sequence to a reduced (f,) vector."""
        if isinstance(x, (int, np.integer)):
            v = self.zero.copy()
            v[0] = int(x) % self.p
            return v
        v = np.asarray(x, dtype=np.int64)
        if v.shape != (self.f,):
            raise FieldError(f"bad element shape {v.shape} for f={self.f}")
        return v % self.p

    # -- arithmetic on (..., f) arrays --------------------------------------

    def add(self, a, b):
        return (np.asarray(a) + np.asarray(b)) % self.p

    def sub(self, a, b):
        return (np.asarray(a) - np.asarray(b)) % self.p

    def neg(self, a):
        return (-np.asarray(a)) % self.p

    def mul(self, a, b):
        if self.f == 1:
            return np.asarray(a) * np.asarray(b) % self.p
        return (
            np.einsum("...u,...v,uvw->...w", np.asarray(a), np.asarray(b), self.mul_table)
            % self.p
        )

    def scale(self, k, a):
        """Product of a scalar element k with an (..., f) array: one matmul
        by k's (f, f) multiplication matrix, whose row u is t**u * k."""
        k = self.coerce(k)
        if self.f == 1:
            return np.asarray(a) * k % self.p
        return np.asarray(a) @ (k @ self.mul_table % self.p) % self.p

    def product(self, a):
        """Product of the k elements of a nonempty (k, f) array, taken
        pairwise: ceil(log2 k) calls to mul."""
        while len(a) > 1:
            half = len(a) // 2
            a = np.concatenate([self.mul(a[:half], a[half : 2 * half]), a[2 * half :]])
        return a[0]

    def pow(self, a, e: int):
        a = self.coerce(a)
        if e < 0:
            a, e = self.inv(a), -e
        result = self.one.copy()
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def inv(self, a):
        """a**-1 = N(a)**-1 * (a**p * a**(p**2) * ... * a**(p**(f-1))), no powering.

        The norm N(a) = a * a**p * ... * a**(p**(f-1)) lies in F_p, where
        Python's modular inverse inverts it; for f = 1 that is all there is.
        For f > 1 the context keeps up to _INVERSE_CACHE_LIMIT inverses and
        hands them out read-only.
        """
        a = self.coerce(a)
        if not a.any():
            raise ZeroDivisionError("inverse of zero field element")
        if self.f == 1:
            return np.array([pow(int(a[0]), -1, self.p)], dtype=np.int64)
        key = a.tobytes()
        out = self._inverses.get(key)
        if out is None:
            rest = self.product(a @ self.frob[1:] % self.p)
            norm = self.mul(a, rest)
            assert not norm[1:].any(), "the norm of an element lies in F_p"
            out = rest * pow(int(norm[0]), -1, self.p) % self.p
            out.setflags(write=False)
            if len(self._inverses) < _INVERSE_CACHE_LIMIT:
                self._inverses[key] = out
        return out

    def frobenius(self, a, k: int = 1):
        """a**(p**k) of an element, or of every element of an (..., f) array,
        as one matmul."""
        a = np.asarray(a) if np.ndim(a) > 1 else self.coerce(a)
        return a @ self.frob[k % self.f] % self.p

    # -- canonical order ----------------------------------------------------

    def from_index(self, i: int) -> np.ndarray:
        """The element of canonical index i = sum c_k * p**k."""
        v = self.zero.copy()
        for k in range(self.f):
            v[k] = i % self.p
            i //= self.p
        return v


def _digit_chunks(p: int, width: int, chunk: int):
    """The base-p digit rows of 0, 1, ..., p**width - 1, least significant
    digit first, as (rows, width) int64 arrays of at most `chunk` rows."""
    total = p**width
    for start in range(0, total, chunk):
        rest = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = np.empty((rest.size, width), dtype=np.int64)
        for k in range(width):
            digits[:, k] = rest % p
            rest //= p
        yield digits


def poly_str(coeffs) -> str:
    """Human-readable form of a little-endian coefficient vector in t."""
    terms = []
    for i, c in enumerate(coeffs):
        c = int(c)
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            var = "t" if i == 1 else f"t^{i}"
            terms.append(var if c == 1 else f"{c}*{var}")
    return " + ".join(reversed(terms)) if terms else "0"


def is_json_int(v) -> bool:
    """Whether v is an integer: an int or a numpy integer, and not a bool
    (JSON's true and false load as bools, which are ints to isinstance)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def make_field(p: int, f: int = 1) -> FieldCtx:
    """Construct GF(p**f) with the canonical smallest modulus.

    One (p, f) gives one context object, whatever integer types it comes in.
    """
    if not is_json_int(f) or f < 1:
        raise BadDegree(f)
    if not is_json_int(p):
        raise NonPrime(p)
    return _make_field(int(p), int(f))


@lru_cache(maxsize=None)
def _make_field(p: int, f: int) -> FieldCtx:
    if not is_prime(p):
        raise NonPrime(p)
    if p == 2:
        raise EvenCharacteristic()
    _exact_range(p, f)  # before the modulus search, whose products need it too
    return FieldCtx(p, f, _smallest_modulus(p, f))


def field_from_prime_power(q: int) -> FieldCtx:
    """Split q = p**f by exact f-th roots and build the field; rejects
    non-integers (`is_json_int`) and non-prime-powers."""
    if not is_json_int(q):
        raise FieldError(f"not an integer: {q!r}")
    q = int(q)
    if q < 3:
        raise FieldError(f"not an odd prime power: {q}")
    for f in range(1, q.bit_length()):
        p = _iroot(q, f)
        if p**f == q and is_prime(p):
            return make_field(p, f)
    raise FieldError(f"not a prime power: {q}")


# ---------------------------------------------------------------------------
# predicates


def is_square(ctx: FieldCtx, a) -> bool:
    """Euler criterion; zero counts as a square."""
    a = ctx.coerce(a)
    if not a.any():
        return True
    return np.array_equal(ctx.pow(a, (ctx.q - 1) // 2), ctx.one)


def subfield_degree(ctx: FieldCtx, a) -> int:
    """Least d with a**(p**d) == a, i.e. [F_p(a) : F_p]."""
    a = ctx.coerce(a)
    for d in range(1, ctx.f + 1):
        if ctx.f % d == 0 and np.array_equal(ctx.frobenius(a, d), a):
            return d
    raise FieldError("unreachable: element not fixed by full Frobenius orbit")


# ---------------------------------------------------------------------------
# JSON forms


def elem_to_json(ctx: FieldCtx, a):
    """Prime-field elements serialize as int, extension elements as a list."""
    a = ctx.coerce(a)
    if ctx.f == 1:
        return int(a[0])
    return [int(c) for c in a]


def elem_from_json(ctx: FieldCtx, v) -> np.ndarray:
    """An int, or a list of f integer coefficients; anything else (a float,
    a string, a bool) is refused rather than truncated."""
    listed = isinstance(v, (list, tuple))
    coeffs = v if listed else [v]
    if not all(map(is_json_int, coeffs)):
        raise FieldError(f"bad element JSON: {v!r}")
    if listed and len(v) != ctx.f:
        raise FieldError(f"element list has length {len(v)}, expected {ctx.f}")
    return ctx.coerce([int(c) % ctx.p for c in v] if listed else int(v))


def field_to_json(ctx: FieldCtx) -> dict:
    return {"p": ctx.p, "f": ctx.f, "modulus": [int(c) for c in ctx.modulus]}


def field_from_json(header: dict) -> FieldCtx:
    """The field of a `field_to_json` header. A missing key, a p or f that
    `make_field` refuses, and a modulus that is not the canonical one as a
    list of integers each raise FieldError."""
    if not isinstance(header, dict) or not {"p", "f", "modulus"} <= header.keys():
        raise FieldError("a field header needs p, f and modulus")
    ctx = make_field(header["p"], header["f"])
    modulus = header["modulus"]
    if (not isinstance(modulus, list) or not all(map(is_json_int, modulus))
            or [int(c) for c in modulus] != [int(c) for c in ctx.modulus]):
        raise FieldError("modulus in header does not match canonical modulus")
    return ctx
