"""Exact arithmetic in odd-characteristic finite fields GF(p**f).

Elements are little-endian coefficient vectors over the prime field,
reduced modulo a fixed monic irreducible polynomial in t. The modulus
is the lexicographically smallest monic irreducible of degree f, where
tuples (c0, c1, ..., c_{f-1}) are compared constant term first. That
makes every field reproducible from (p, f) alone.

Bulk arithmetic is exposed through per-context numpy tables so callers
can fold whole arrays of coefficient vectors with one einsum; the
scalar wrapper class is a convenience on top of the same tables.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
from sympy import factorint, isprime, primefactors


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
# dense polynomial helpers over the prime field (little-endian int lists)


def _trim(c):
    if not c:
        return [0]
    i = len(c) - 1
    while i > 0 and c[i] == 0:
        i -= 1
    return c[: i + 1]


def _polymod(a, m, p):
    a = [x % p for x in a]
    dm = len(m) - 1
    while len(a) - 1 >= dm and any(a):
        a = _trim(a)
        if len(a) - 1 < dm:
            break
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a = a[:-1]
    a = _trim(a)
    return a


def _polymulmod(a, b, m, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _polymod(prod, m, p)


def _polypowmod(a, e, m, p):
    result = [1]
    base = _polymod(list(a), m, p)
    while e:
        if e & 1:
            result = _polymulmod(result, base, m, p)
        base = _polymulmod(base, base, m, p)
        e >>= 1
    return result


def _polygcd(a, b, p):
    a, b = _trim([x % p for x in a]), _trim([x % p for x in b])
    while b != [0]:
        # reduce a mod b (b made monic first)
        inv = pow(b[-1], p - 2, p)
        b = [x * inv % p for x in b]
        r = _polymod(a, b, p)
        a, b = b, _trim(r)
    return a


def _is_irreducible(m, p):
    """Rabin test for a monic polynomial m over GF(p)."""
    f = len(m) - 1
    if f < 1:
        return False
    t = [0, 1]
    if _polypowmod(t, p**f, m, p) != _polymod(t, m, p):
        return False
    for r in primefactors(f):
        h = _polypowmod(t, p ** (f // r), m, p)
        diff = [0] * max(len(h), 2)
        for i, c in enumerate(h):
            diff[i] = c
        diff[1] = (diff[1] - 1) % p
        if len(_polygcd(m, diff, p)) > 1:
            return False
    return True


def _smallest_modulus(p, f):
    if f == 1:
        return [0, 1]
    for c0 in range(1, p):  # c0 = 0 would make the candidate divisible by t
        for tail in itertools.product(range(p), repeat=f - 1):
            cand = [c0, *tail, 1]
            if _is_irreducible(cand, p):
                return cand
    raise FieldError(f"no irreducible of degree {f} over GF({p})")  # unreachable


# ---------------------------------------------------------------------------


class FieldCtx:
    """Field context: modulus plus precomputed reduction/multiplication tables.

    reduce_table maps t**e (0 <= e <= 2f-2) to its reduced coefficient
    vector; mul_table[u, v] is the reduced vector of t**(u+v), so a
    product of coefficient arrays is einsum('...u,...v,uvw->...w') % p.
    """

    def __init__(self, p: int, f: int, modulus):
        self.p = int(p)
        self.f = int(f)
        self.q = self.p**self.f
        self.modulus = np.array(modulus, dtype=np.int64)
        assert self.modulus.shape == (self.f + 1,) and self.modulus[-1] == 1
        r = np.zeros((2 * self.f - 1, self.f), dtype=np.int64)
        for e in range(2 * self.f - 1):
            vec = _polymod([0] * e + [1], list(self.modulus), self.p)
            r[e, : len(vec)] = vec
        self.reduce_table = r
        self.mul_table = np.zeros((self.f, self.f, self.f), dtype=np.int64)
        for u in range(self.f):
            for v in range(self.f):
                self.mul_table[u, v] = r[u + v]
        self.zero = np.zeros(self.f, dtype=np.int64)
        self.one = np.zeros(self.f, dtype=np.int64)
        self.one[0] = 1
        self._identities = {}

    def identity(self, n: int) -> np.ndarray:
        """The read-only (n, n, f) identity array, built once per n."""
        got = self._identities.get(n)
        if got is None:
            got = np.zeros((n, n, self.f), dtype=np.int64)
            got[np.arange(n), np.arange(n), 0] = 1
            got.setflags(write=False)
            self._identities[n] = got
        return got

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
        """Normalize int / sequence / FieldElem to a reduced (f,) vector."""
        if isinstance(x, FieldElem):
            if x.ctx != self:
                raise FieldError("element from a different field")
            return np.array(x.vec, dtype=np.int64)
        if isinstance(x, (int, np.integer)):
            v = self.zero.copy()
            v[0] = int(x) % self.p
            return v
        v = np.asarray(x, dtype=np.int64)
        if v.shape != (self.f,):
            if v.ndim == 1 and v.shape[0] < self.f:
                w = self.zero.copy()
                w[: v.shape[0]] = v
                v = w
            else:
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
        return (
            np.einsum("...u,...v,uvw->...w", np.asarray(a), np.asarray(b), self.mul_table)
            % self.p
        )

    def scale(self, k, a):
        """Product of a scalar element k with an (..., f) array."""
        return np.einsum("u,...v,uvw->...w", self.coerce(k), np.asarray(a), self.mul_table) % self.p

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
        a = self.coerce(a)
        if not a.any():
            raise ZeroDivisionError("inverse of zero field element")
        return self.pow(a, self.q - 2)

    def frobenius(self, a, k: int = 1):
        return self.pow(a, self.p**k)

    # -- enumeration and canonical order ------------------------------------

    def index(self, a) -> int:
        """Canonical integer index: sum c_i * p**i."""
        a = self.coerce(a)
        return int(sum(int(c) * self.p**i for i, c in enumerate(a)))

    def from_index(self, i: int) -> np.ndarray:
        v = self.zero.copy()
        for k in range(self.f):
            v[k] = i % self.p
            i //= self.p
        return v

    def elements(self):
        """All field elements in canonical index order."""
        for i in range(self.q):
            yield FieldElem(self, self.from_index(i))

    def elem(self, x) -> "FieldElem":
        return FieldElem(self, x)


class FieldElem:
    """Immutable scalar wrapper over a FieldCtx coefficient vector."""

    __slots__ = ("ctx", "vec")

    def __init__(self, ctx: FieldCtx, value):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "vec", tuple(int(c) for c in ctx.coerce(value)))

    def __setattr__(self, *a):
        raise AttributeError("FieldElem is immutable")

    def _arr(self):
        return np.array(self.vec, dtype=np.int64)

    def __add__(self, other):
        return FieldElem(self.ctx, self.ctx.add(self._arr(), self.ctx.coerce(other)))

    def __sub__(self, other):
        return FieldElem(self.ctx, self.ctx.sub(self._arr(), self.ctx.coerce(other)))

    def __rsub__(self, other):
        return FieldElem(self.ctx, self.ctx.sub(self.ctx.coerce(other), self._arr()))

    def __mul__(self, other):
        return FieldElem(self.ctx, self.ctx.mul(self._arr(), self.ctx.coerce(other)))

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx.neg(self._arr()))

    def __truediv__(self, other):
        return self * FieldElem(self.ctx, self.ctx.inv(self.ctx.coerce(other)))

    def __rtruediv__(self, other):
        return FieldElem(self.ctx, self.ctx.coerce(other)) / self

    def __pow__(self, e: int):
        return FieldElem(self.ctx, self.ctx.pow(self._arr(), e))

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.ctx == other.ctx and self.vec == other.vec
        if isinstance(other, (int, np.integer)):
            return self.vec == tuple(int(c) for c in self.ctx.coerce(int(other)))
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.q, self.vec))

    def __bool__(self):
        return any(self.vec)

    def __repr__(self):
        return f"FieldElem({poly_str(self.vec)}, q={self.ctx.q})"


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


@lru_cache(maxsize=None)
def make_field(p: int, f: int = 1) -> FieldCtx:
    """Construct GF(p**f) with the canonical smallest modulus."""
    if not isinstance(f, (int, np.integer)) or isinstance(f, bool) or f < 1:
        raise BadDegree(f)
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool) or not isprime(int(p)):
        raise NonPrime(p)
    if p == 2:
        raise EvenCharacteristic()
    return FieldCtx(int(p), int(f), _smallest_modulus(int(p), int(f)))


def field_from_prime_power(q: int) -> FieldCtx:
    """Factor q = p**f and build the field; rejects non-prime-powers."""
    q = int(q)
    if q < 3:
        raise FieldError(f"not an odd prime power: {q}")
    fac = factorint(q)
    if len(fac) != 1:
        raise FieldError(f"not a prime power: {q}")
    [(p, f)] = fac.items()
    return make_field(int(p), int(f))


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


class SquareClass:
    """Coset of the squares in the multiplicative group; xor under product."""

    __slots__ = ("square",)

    def __init__(self, square: bool):
        object.__setattr__(self, "square", bool(square))

    def __setattr__(self, *a):
        raise AttributeError("SquareClass is immutable")

    def __mul__(self, other):
        return SquareClass(self.square == other.square)

    def __eq__(self, other):
        return isinstance(other, SquareClass) and self.square == other.square

    def __hash__(self):
        return hash(("SquareClass", self.square))

    def __repr__(self):
        return "SquareClass(square)" if self.square else "SquareClass(nonsquare)"


def square_class(ctx: FieldCtx, a) -> SquareClass:
    a = ctx.coerce(a)
    if not a.any():
        raise FieldError("zero has no square class")
    return SquareClass(is_square(ctx, a))


# ---------------------------------------------------------------------------
# JSON forms


def elem_to_json(ctx: FieldCtx, a):
    """Prime-field elements serialize as int, extension elements as a list."""
    a = ctx.coerce(a)
    if ctx.f == 1:
        return int(a[0])
    return [int(c) for c in a]


def elem_from_json(ctx: FieldCtx, v) -> np.ndarray:
    if isinstance(v, (int, np.integer)):
        return ctx.coerce(int(v))
    if isinstance(v, (list, tuple)):
        if ctx.f == 1 and len(v) == 1:
            return ctx.coerce(int(v[0]))
        if len(v) != ctx.f:
            raise FieldError(f"element list has length {len(v)}, expected {ctx.f}")
        return ctx.coerce(list(v))
    raise FieldError(f"bad element JSON: {v!r}")


def field_to_json(ctx: FieldCtx) -> dict:
    return {"p": ctx.p, "f": ctx.f, "modulus": [int(c) for c in ctx.modulus]}


def field_from_json(header: dict) -> FieldCtx:
    ctx = make_field(int(header["p"]), int(header["f"]))
    if [int(c) for c in header["modulus"]] != [int(c) for c in ctx.modulus]:
        raise FieldError("modulus in header does not match canonical modulus")
    return ctx
