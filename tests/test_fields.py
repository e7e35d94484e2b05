import itertools

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_pow_mod, gf_rem

from omega23 import fields
from omega23.fields import (
    _MR_EXACT_BELOW,
    BadDegree,
    EvenCharacteristic,
    FieldCtx,
    FieldError,
    NonPrime,
    _is_irreducible,
    elem_from_json,
    elem_to_json,
    field_from_json,
    field_from_prime_power,
    field_to_json,
    is_prime,
    is_square,
    make_field,
    subfield_degree,
)

ODD_PRIME_POWERS_81 = [
    3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49,
    53, 59, 61, 67, 71, 73, 79, 81,
]


def pf(q):
    for p in range(2, q + 1):
        if q % p == 0:
            f = 0
            while q % p == 0:
                q //= p
                f += 1
            return p, f
    raise AssertionError


# independent irreducibility oracle: trial division by every monic of
# degree 1..deg//2 (fine for the degrees that occur here, deg <= 4)
def divides(d, m, p):
    m = list(m)
    while len(m) >= len(d):
        lead = m[-1]
        shift = len(m) - len(d)
        for i, c in enumerate(d):
            m[shift + i] = (m[shift + i] - lead * c) % p
        m.pop()
    return all(c == 0 for c in m)


def irreducible_by_trial_division(m, p):
    deg = len(m) - 1
    for dd in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=dd):
            d = list(tail) + [1]
            if divides(d, m, p):
                return False
    return True


def test_constructor_rejects_bad_input():
    with pytest.raises(NonPrime):
        make_field(4, 1)
    with pytest.raises(NonPrime):
        make_field(1, 1)
    with pytest.raises(NonPrime):
        make_field(15, 2)
    with pytest.raises(EvenCharacteristic):
        make_field(2, 3)
    with pytest.raises(BadDegree):
        make_field(3, 0)
    with pytest.raises(BadDegree):
        make_field(3, -2)


def test_modulus_examples():
    assert [int(c) for c in make_field(3, 1).modulus] == [0, 1]
    assert [int(c) for c in make_field(3, 2).modulus] == [1, 0, 1]  # t^2 + 1


@pytest.mark.parametrize("q", ODD_PRIME_POWERS_81)
def test_modulus_is_lex_smallest_irreducible(q):
    p, f = pf(q)
    ctx = make_field(p, f)
    m = [int(c) for c in ctx.modulus]
    assert len(m) == f + 1 and m[-1] == 1
    assert irreducible_by_trial_division(m, p)
    if f > 1:
        # nothing lex-smaller (constant term first) is irreducible
        for tail in itertools.product(range(p), repeat=f):
            cand = list(tail) + [1]
            if cand == m:
                break
            assert not irreducible_by_trial_division(cand, p)


@pytest.mark.parametrize("q", [3, 9, 25, 27])
def test_field_axioms_by_enumeration(q):
    p, f = pf(q)
    ctx = make_field(p, f)
    elems = [ctx.from_index(i) for i in range(q)]
    if q > 9:  # full triple loop only for the tiny fields
        elems = elems[:6] + elems[-3:]
    for a in elems:
        for b in elems:
            assert np.array_equal(ctx.add(a, b), ctx.add(b, a))
            assert np.array_equal(ctx.mul(a, b), ctx.mul(b, a))
            for c in elems:
                lhs = ctx.mul(a, ctx.add(b, c))
                rhs = ctx.add(ctx.mul(a, b), ctx.mul(a, c))
                assert np.array_equal(lhs, rhs)
                assert np.array_equal(
                    ctx.mul(ctx.mul(a, b), c), ctx.mul(a, ctx.mul(b, c))
                )


@pytest.mark.parametrize("q", ODD_PRIME_POWERS_81)
def test_inverses_and_squares_full_enumeration(q):
    p, f = pf(q)
    ctx = make_field(p, f)
    elems = [ctx.from_index(i) for i in range(q)]
    squares = {ctx.mul(e, e).tobytes() for e in elems}
    n_square = 0
    for e in elems:
        if e.any():
            assert np.array_equal(ctx.mul(e, ctx.inv(e)), ctx.one)
        flag = is_square(ctx, e)
        assert flag == (e.tobytes() in squares)
        n_square += flag
    assert n_square == (q + 1) // 2  # zero counts as a square
    assert is_square(ctx, 0)


@pytest.mark.parametrize("q", [9, 25, 27, 49, 81])
def test_square_class_multiplicativity(q):
    """ab is a square exactly when a and b are both squares or both not."""
    p, f = pf(q)
    ctx = make_field(p, f)
    nonzero = [ctx.from_index(i) for i in range(1, q)]
    for a in nonzero[: min(12, len(nonzero))]:
        for b in nonzero[: min(12, len(nonzero))]:
            assert is_square(ctx, ctx.mul(a, b)) == (is_square(ctx, a) == is_square(ctx, b))


@pytest.mark.parametrize("q", [3, 9, 27, 81, 25, 49])
def test_subfield_degree_partition(q):
    p, f = pf(q)
    ctx = make_field(p, f)
    degs = [subfield_degree(ctx, ctx.from_index(i)) for i in range(q)]
    for d in range(1, f + 1):
        if f % d == 0:
            assert sum(1 for x in degs if x % d == 0 and d % x == 0 or x == d) >= 0
            # elements with degree dividing d form the subfield GF(p**d)
            assert sum(1 for x in degs if d % x == 0) == p**d
    assert all(f % x == 0 for x in degs)
    assert subfield_degree(ctx, 0) == 1
    assert subfield_degree(ctx, 1) == 1


@pytest.mark.parametrize("q", [9, 27, 49])
def test_frobenius_is_automorphism(q):
    p, f = pf(q)
    ctx = make_field(p, f)
    elems = [ctx.from_index(i) for i in range(q)]
    for a in elems:
        for b in elems[::3]:
            assert np.array_equal(
                ctx.frobenius(ctx.add(a, b)), ctx.add(ctx.frobenius(a), ctx.frobenius(b))
            )
            assert np.array_equal(
                ctx.frobenius(ctx.mul(a, b)), ctx.mul(ctx.frobenius(a), ctx.frobenius(b))
            )
        assert np.array_equal(ctx.frobenius(a, f), a)


def test_canonical_order_round_trip():
    ctx = make_field(3, 3)
    for i in range(27):
        assert sum(int(c) * 3**k for k, c in enumerate(ctx.from_index(i))) == i


def test_json_forms():
    ctx = make_field(7, 1)
    assert elem_to_json(ctx, 5) == 5
    assert isinstance(elem_to_json(ctx, 5), int)
    assert np.array_equal(elem_from_json(ctx, 5), ctx.coerce(5))

    ctx9 = make_field(3, 2)
    assert elem_to_json(ctx9, [1, 2]) == [1, 2]
    assert np.array_equal(elem_from_json(ctx9, [1, 2]), ctx9.coerce([1, 2]))
    with pytest.raises(FieldError):
        elem_from_json(ctx9, [1, 2, 0])
    assert np.array_equal(elem_from_json(ctx9, [np.int64(4), 2**70]), ctx9.coerce([1, 2**70 % 3]))

    hdr = field_to_json(ctx9)
    assert hdr == {"p": 3, "f": 2, "modulus": [1, 0, 1]}
    assert field_from_json(hdr) == ctx9
    with pytest.raises(FieldError):
        field_from_json({"p": 3, "f": 2, "modulus": [2, 0, 1]})


@pytest.mark.parametrize("v", [[1.5, 2], [2, 1.0], [2.7], 2.7, "1", ["1", 0], True, [True, 0],
                               np.float64(2.0)])
def test_elem_from_json_refuses_non_integers(v):
    """Floats, strings and bools are refused, not truncated or read as ints."""
    ctx9 = make_field(3, 2)
    with pytest.raises(FieldError, match="bad element JSON"):
        elem_from_json(ctx9, v)


def test_field_from_prime_power():
    assert field_from_prime_power(27).q == 27
    assert field_from_prime_power(13).f == 1
    with pytest.raises(FieldError):
        field_from_prime_power(15)
    with pytest.raises(EvenCharacteristic):
        field_from_prime_power(8)
    for q in (0, 1, -3):
        with pytest.raises(FieldError):
            field_from_prime_power(q)
    # a large prime must not be factored by trial division
    assert field_from_prime_power(10_000_019).f == 1
    assert field_from_prime_power(3 ** 16).modulus.tolist() == [
        1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1]


# The canonical moduli, little-endian, as computed before the modulus search
# moved to galoistools: every q the acceptance suite and the claims table use,
# plus a grid of larger degrees and characteristics up to 3**20.
PINNED_MODULI = {
    (3, 1): [0, 1], (5, 1): [0, 1], (7, 1): [0, 1], (11, 1): [0, 1],
    (13, 1): [0, 1], (19, 1): [0, 1],
    (3, 2): [1, 0, 1], (3, 3): [1, 0, 2, 1], (3, 4): [1, 0, 1, 1, 1],
    (3, 5): [1, 0, 0, 0, 2, 1], (3, 6): [1, 0, 0, 0, 1, 1, 1],
    (3, 7): [1, 0, 0, 0, 0, 1, 2, 1], (3, 8): [1, 0, 0, 0, 0, 1, 1, 0, 1],
    (3, 12): [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1],
    (3, 16): [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1],
    (3, 20): [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 1],
    (5, 2): [1, 1, 1], (5, 3): [1, 0, 1, 1], (5, 4): [1, 0, 1, 1, 1],
    (5, 6): [1, 0, 0, 0, 1, 1, 1], (5, 10): [1, 0, 0, 0, 0, 0, 0, 0, 2, 2, 1],
    (7, 2): [1, 0, 1], (7, 3): [1, 0, 1, 1], (7, 4): [1, 0, 0, 1, 1],
    (11, 2): [1, 0, 1], (11, 3): [1, 0, 4, 1], (11, 4): [1, 0, 0, 4, 1],
    (13, 2): [1, 3, 1], (13, 3): [1, 0, 4, 1], (13, 4): [1, 0, 0, 1, 1],
    (19, 2): [1, 0, 1], (97, 3): [1, 0, 1, 1], (101, 2): [1, 1, 1], (1009, 2): [1, 9, 1],
}


@pytest.mark.parametrize("p, f", sorted(PINNED_MODULI), ids=lambda v: str(v))
def test_modulus_is_pinned(p, f):
    assert make_field(p, f).modulus.tolist() == PINNED_MODULI[(p, f)]


def test_modulus_search_holds_no_residue_list():
    # t^2 + t + 1 is the first candidate at this p; the search reaches it
    # without listing the p residues of the tail
    import tracemalloc

    tracemalloc.start()
    try:
        modulus = fields._smallest_modulus(1321109, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert modulus == [1, 1, 1] and peak < 1 << 20


@pytest.mark.parametrize("p, degrees", [
    *[pytest.param(p, (1, 2, 3, 4), id=f"p{p}-f1,2,3,4") for p in (2, 3, 5, 7, 11, 13)],
    pytest.param(3, (5, 6), id="p3-f5,6"),
    pytest.param(5, (5,), id="p5-f5"),
])
def test_split_irreducibility_matches_galoistools(p, degrees):
    # every monic candidate of each degree f, constant term 0 included;
    # degree 6 is the first with two prime divisors, and every degree past 1
    # mixes in candidates that are not squarefree
    for f in degrees:
        for tail in itertools.product(range(p), repeat=f):
            cand = [*tail, 1]
            assert _is_irreducible(p, cand) == gf_irreducible_p(cand[::-1], p, ZZ), cand


def _int64_edge(f):
    """(largest, smallest) prime p whose GF(p^f) tables do / do not fit int64."""
    # f*f products below p**2 (f = 1) or p**3 (f > 1) must sum below 2**63
    e = 2 if f == 1 else 3
    root = sympy.integer_nthroot((2**63 - 1) // (f * f), e)[0]
    while f * f * root**e >= 2**63:
        root -= 1
    inside = sympy.prevprime(root + 2)  # the largest prime with p - 1 <= root
    return inside, sympy.nextprime(inside)


def _reference_mul(ctx, a, b):
    """Product of two coefficient vectors with Python integers."""
    prod = [0] * (2 * ctx.f - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += int(x) * int(y)
    mod = [int(c) for c in ctx.modulus]
    for k in range(len(prod) - 1, ctx.f - 1, -1):  # t**f = -(m_0 + ... + m_{f-1} t**(f-1))
        c, prod[k] = prod[k], 0
        for i in range(ctx.f):
            prod[k - ctx.f + i] -= c * mod[i]
    return [c % ctx.p for c in prod[: ctx.f]]


@pytest.mark.parametrize("f", [1, 2, 3])
def test_make_field_refuses_tables_that_leave_int64(f):
    inside, outside = _int64_edge(f)
    ctx = make_field(int(inside), f)
    top = np.full(f, inside - 1, dtype=np.int64)
    mixed = np.arange(f, dtype=np.int64) * 7 % inside + inside // 2
    for a, b in ((top, top), (top, mixed), (mixed, mixed)):
        assert ctx.mul(a, b).tolist() == _reference_mul(ctx, a, b)
    with pytest.raises(FieldError):
        make_field(int(outside), f)


def test_make_field_refuses_before_the_modulus_search(monkeypatch):
    # over GF(p^2) with p past 3*10**9 the search would first enumerate range(p)
    def refuse(p, f):
        raise AssertionError("the modulus search ran")

    monkeypatch.setattr(fields, "_smallest_modulus", refuse)
    with pytest.raises(FieldError, match="int64"):
        make_field(3100000027, 2)


def test_make_field_refuses_the_wrapping_prime_field():
    # here GF(p)'s table product (p-1)*(p-1) wrapped to 8589934321, not 1
    p = sympy.nextprime(2**33)
    with pytest.raises(FieldError, match="int64"):
        field_from_prime_power(p)
    with pytest.raises(FieldError, match="int64"):
        FieldCtx(p, 1, [0, 1])


@pytest.mark.parametrize("p", [3, 5, 13, 10007, "edge"])
def test_prime_field_inverse_matches_powering(p):
    """Over F_p the inverse is Python's pow(a, -1, p); it must equal a**(p-2)
    computed by the table powering that extension fields still use."""
    if p == "edge":
        p = int(_int64_edge(1)[0])
        elements = [1, 2, 3, p // 2, p // 2 + 1, p - 2, p - 1]
    else:
        elements = range(1, p)
    ctx = make_field(p, 1)
    for a in elements:
        got = ctx.inv(a)
        assert got.dtype == np.int64 and got.shape == (1,)
        assert got.tolist() == ctx.pow(a, p - 2).tolist()
        assert ctx.mul(got, ctx.coerce(a)).tolist() == [1]
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(p)


@pytest.mark.parametrize("q", [9, 25, 27, 49, 81, 121, 125, 3**8, 3**20, "edge-2", "edge-3"])
def test_extension_field_inverse_matches_powering(q):
    """Over GF(p^f), f > 1, the inverse is N(a)**-1 times the product of the
    other conjugates of a; it must equal a**(q-2) by table powering, and
    each conjugate a**(p**k) from the Frobenius matrices must equal powering
    too. Every nonzero element up to q = 125; random ones beyond, and at
    the largest prime whose tables fit int64."""
    rng = np.random.default_rng(7)
    if isinstance(q, str):
        f = int(q[-1])
        ctx = make_field(int(_int64_edge(f)[0]), f)
        p = ctx.p
        elements = [np.full(f, p - 1), np.arange(f) * 7 % p + p // 2, np.eye(1, f, f - 1)[0]]
        elements += list(rng.integers(0, p, size=(5, f)))
    else:
        ctx = field_from_prime_power(q)
        if q <= 125:
            elements = [ctx.from_index(i) for i in range(1, q)]
        else:
            elements = list(rng.integers(0, ctx.p, size=(10 if ctx.f < 20 else 4, ctx.f)))
    assert ctx.f > 1
    for a in elements:
        a = ctx.coerce(a)
        got = ctx.inv(a)
        assert got.dtype == np.int64 and got.shape == (ctx.f,)
        assert got.tolist() == ctx.pow(a, ctx.q - 2).tolist()
        assert ctx.mul(a, got).tolist() == ctx.one.tolist()
        for k in range(1, ctx.f):
            assert ctx.frobenius(a, k).tolist() == ctx.pow(a, ctx.p**k).tolist()
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(ctx.zero)


@pytest.mark.parametrize("q", [9, 27, 3**5])
def test_kept_inverses_invert_every_nonzero_element(q):
    """Twice over every nonzero element, so the second round reads what the
    first kept; a write to a returned inverse does not reach the next."""
    ctx = field_from_prime_power(q)
    for _ in range(2):
        for i in range(1, q):
            a = ctx.from_index(i)
            got = ctx.inv(a)
            assert ctx.mul(a, got).tolist() == ctx.one.tolist()
            try:
                got[0] = (got[0] + 1) % ctx.p
            except ValueError:  # handed out read-only
                pass


def test_kept_inverses_stop_at_the_cap():
    ctx = make_field(1009, 2)
    limit = fields._INVERSE_CACHE_LIMIT
    for i in range(1, limit + 101):
        ctx.inv(ctx.from_index(i))
    assert len(ctx._inverses) == limit
    a = ctx.from_index(limit + 100)  # not kept, still right
    assert ctx.mul(a, ctx.inv(a)).tolist() == ctx.one.tolist()


# ---------------------------------------------------------------------------
# primality, prime powers and tables without sympy, checked against sympy

# Strong pseudoprimes to the first k prime bases, k = 1..13 (the least for
# each k), Carmichael numbers, and the primes around sqrt(2**63).
HARD_INTEGERS = [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981, 561, 41041,
    *range(3037000493 - 4, 3037000493 + 5), int(sympy.nextprime(2**33)),
    _MR_EXACT_BELOW - 1, int(sympy.prevprime(_MR_EXACT_BELOW)),
    int(sympy.nextprime(_MR_EXACT_BELOW)), int(sympy.nextprime(10**30)) ** 2,
]


def test_is_prime_matches_sympy_below_200000():
    got = [n for n in range(200_000) if is_prime(n)]
    assert got == list(sympy.primerange(200_000))


@pytest.mark.parametrize("n", HARD_INTEGERS)
def test_is_prime_matches_sympy_on_pseudoprimes(n):
    assert is_prime(n) == sympy.isprime(n)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**80 - 1))
def test_is_prime_matches_sympy_below_2_80(n):
    assert is_prime(n) == sympy.isprime(n)


def _factorint_field(q):
    """The prime-power parser as it was, by sympy.factorint."""
    q = int(q)
    if q < 3:
        raise FieldError(f"not an odd prime power: {q}")
    fac = sympy.factorint(q)
    if len(fac) != 1:
        raise FieldError(f"not a prime power: {q}")
    [(p, f)] = fac.items()
    return make_field(int(p), int(f))


def _outcome(fn, q):
    try:
        return fn(q)
    except FieldError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("qs", [range(-3, 5000), [8, 15, 3**40, 1000003**2, 2**61 - 1]],
                         ids=["below-5000", "large"])
def test_field_from_prime_power_matches_factorint(qs):
    for q in qs:
        assert _outcome(field_from_prime_power, q) == _outcome(_factorint_field, q), q


@pytest.mark.parametrize("p, f", sorted(PINNED_MODULI), ids=lambda v: str(v))
def test_tables_match_galoistools(p, f):
    """reduce_table by gf_rem, mul_table from it, and frob[i] with row v
    the reduced t**(v * p**i), by gf_pow_mod."""
    ctx = make_field(p, f)
    big_endian = [int(c) for c in ctx.modulus[::-1]]

    def reduced(vec):
        out = [0] * f
        out[: len(vec)] = vec[::-1]
        return out

    reduce_table = [reduced(gf_rem([1] + [0] * e, big_endian, p, ZZ)) for e in range(2 * f - 1)]
    assert ctx.reduce_table.tolist() == reduce_table
    assert ctx.mul_table.tolist() == [[reduce_table[u + v] for v in range(f)] for u in range(f)]
    frob = [[reduced(gf_pow_mod([1, 0], v * p**i, big_endian, p, ZZ)) for v in range(f)]
            for i in range(f)]
    assert ctx.frob.tolist() == frob


def test_one_field_is_one_context():
    ctx = make_field(3)
    assert make_field(3, 1) is ctx
    assert make_field(np.int64(3)) is ctx
    assert make_field(3, np.int64(1)) is ctx
    assert make_field(np.int32(3), np.int8(1)) is ctx
    assert make_field(np.int64(10007), np.int64(2)) is make_field(10007, 2)
    with pytest.raises(BadDegree):
        make_field(3, True)
    with pytest.raises(NonPrime, match="got True"):
        make_field(True, 1)
    with pytest.raises(NonPrime, match="got 9"):
        make_field(np.int64(9))
