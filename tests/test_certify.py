import itertools
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from omega23.fields import field_from_prime_power, make_field
from omega23.forms import (OrthoSpace, in_omega, is_isometry, omega_order, quadratic_value,
                           reflection)
from omega23.generators import GenPair, WrongCase, build_pair, gram_matrix
from omega23.linalg import Matrix, _block_form, unit_vector, vector
from omega23 import BadSeed, _kernels, forms, linalg
from omega23._kernels import DENSE_CAP, POS_BITS, POS_MASK, orbit_bfs
from omega23 import certify as certify_mod
from omega23.certify import (
    BudgetExceeded,
    CertifyError,
    DimensionMismatch,
    Level,
    Orbit,
    _RandomElements,
    StateSpaceTooLarge,
    certify_generation,
    generation_verdict,
    orbit,
    stabilizer_chain,
)


CTX3 = make_field(3, 1)
CTX5 = make_field(5, 1)


def _flat(m):
    return _block_form(m.ctx, m.data)


def _view(ctx, b):
    """The matrix over F_q that a chain element b (an F_p block form)
    stands for, read off as b's images of the unit vectors e_j."""
    n = b.shape[0] // ctx.f
    cols = [(b @ unit_vector(ctx, n, j).reshape(-1) % ctx.p).reshape(n, ctx.f)
            for j in range(n)]
    return Matrix(ctx, np.stack(cols, axis=1))


def _level(k, gens):
    """A level on e_k of F_3^9 whose generators are the given matrices,
    held with their inverses."""
    lv = Level(CTX3, unit_vector(CTX3, 9, k))
    lv.gens += [_flat(g) for g in gens]
    lv.invs += [_flat(g.inverse()) for g in gens]
    return lv


def _discovery_codes(orbit_or_index):
    """The point codes in discovery order, rebuilt from an orbit's sorted
    index of (code << POS_BITS) | position, whose positions must be
    0 … size − 1, each once."""
    index = getattr(orbit_or_index, "index", orbit_or_index)
    positions = index & POS_MASK
    assert np.array_equal(np.sort(positions), np.arange(index.size)), "positions"
    codes = np.empty(index.size, np.int64)
    codes[positions] = index >> POS_BITS
    return codes


def _vector(ctx, n, code):
    """The (n, f) vector whose base-p code is `code`: its digits."""
    digits = int(code) // ctx.p ** np.arange(n * ctx.f, dtype=np.int64) % ctx.p
    return digits.reshape(n, ctx.f)


@pytest.fixture(scope="module")
def pair932():
    return build_pair(9, CTX3, 2)


@pytest.fixture(scope="module")
def chain932(pair932):
    return stabilizer_chain([pair932.x, pair932.y], target=None, seed=53251)


# --- orbits ------------------------------------------------------------------

def test_orbit_of_identity_generator():
    o = orbit([Matrix.identity(CTX3, 9)], unit_vector(CTX3, 9, 0))
    assert o.size == 1


def test_orbit_accepts_one_field_however_it_was_named():
    # make_field(3), make_field(3, 1) and make_field(np.int64(3)) are one
    # context, so generators built from either spelling share a field
    x = build_pair(9, make_field(3), 2).x
    for ctx in (make_field(3, 1), make_field(np.int64(3)), make_field(3, np.int64(1))):
        o = orbit([x, Matrix.identity(ctx, 9)], unit_vector(ctx, 9, 0))
        assert o.size == orbit([x], unit_vector(CTX3, 9, 0)).size


def test_orbit_reaches_first_six_units(pair932):
    o = orbit([pair932.x, pair932.y], unit_vector(CTX3, 9, 0))
    assert o.size <= 3 ** 9 - 1
    powers = 3 ** np.arange(9, dtype=np.int64)
    for k in range(6):
        pid = int(unit_vector(CTX3, 9, k).reshape(-1) @ powers)
        assert o.position(pid) >= 0


def test_orbit_q_invariance(pair932):
    o = orbit([pair932.x, pair932.y], unit_vector(CTX3, 9, 0))
    codes = _discovery_codes(o)
    base_q = quadratic_value(pair932.space, _vector(CTX3, 9, codes[0]))
    step = max(1, o.size // 200)
    for pos in range(0, o.size, step):
        assert np.array_equal(quadratic_value(pair932.space, _vector(CTX3, 9, codes[pos])), base_q)


def test_orbit_transversal_maps_root_to_point(pair932):
    gens = [pair932.x, pair932.y]
    lv = _level(0, gens)
    lv.recompute()
    o = lv.orbit
    codes = _discovery_codes(o)
    rng = random.Random(3)
    for pos in [0, 1, o.size - 1] + [rng.randrange(o.size) for _ in range(12)]:
        u = _view(CTX3, lv.u(pos))
        assert np.array_equal(u @ unit_vector(CTX3, 9, 0), _vector(CTX3, 9, codes[pos]))
        if pos:  # the Schreier vector: u(pos) = gens[genlab[pos]] u(parent[pos])
            up = _view(CTX3, lv.u(int(o.parent[pos])))
            assert u == gens[int(o.genlab[pos])] @ up


def test_orbit_discovery_is_deterministic(pair932):
    a = orbit([pair932.x, pair932.y], unit_vector(CTX3, 9, 0))
    b = orbit([pair932.x, pair932.y], unit_vector(CTX3, 9, 0))
    assert np.array_equal(_discovery_codes(a), _discovery_codes(b))
    assert np.array_equal(a.parent, b.parent)


def _orbit_bfs_py(gens, start, p, space):
    """Reference BFS, point-major order: the independent oracle for the
    production kernel `_kernels.orbit_bfs`, which closes each frontier
    one generator at a time. It marks each point as it is found, so it
    lists no point twice, singular generators included: its points are
    the exact closure."""
    n_coords = start.shape[0]
    n_gens = gens.shape[0]
    visited = np.full(space, -1, np.int32)
    ids = np.empty(space, np.int64)
    parent = np.empty(space, np.int32)
    genlab = np.empty(space, np.int16)

    sid = 0
    mult = 1
    for k in range(n_coords):
        sid += start[k] * mult
        mult *= p
    ids[0] = sid
    parent[0] = -1
    genlab[0] = -1
    visited[sid] = 0
    count = 1
    head = 0
    vec = np.empty(n_coords, np.int64)
    img = np.empty(n_coords, np.int64)
    while head < count:
        t = ids[head]
        for k in range(n_coords):
            vec[k] = t % p
            t //= p
        for gi in range(n_gens):
            for r in range(n_coords):
                acc = 0
                for c in range(n_coords):
                    acc += gens[gi, r, c] * vec[c]
                img[r] = acc % p
            nid = 0
            mult = 1
            for k in range(n_coords):
                nid += img[k] * mult
                mult *= p
            if visited[nid] < 0:
                visited[nid] = count
                ids[count] = nid
                parent[count] = head
                genlab[count] = gi
                count += 1
        head += 1
    return ids[:count], visited


def _point_major_orbit(gens, v):
    """The reference point-major BFS, run on the inputs orbit() builds."""
    ctx = gens[0].ctx
    flat = np.ascontiguousarray(
        np.stack([_block_form(ctx, g.data) for g in gens]), dtype=np.int64)
    start = np.ascontiguousarray(np.asarray(v, dtype=np.int64).reshape(-1) % ctx.p)
    space = ctx.p ** (gens[0].rows * ctx.f)
    return _orbit_bfs_py(flat, start, ctx.p, space)


def test_orbit_backends_agree(pair932):
    gens = [pair932.x, pair932.y]
    v = unit_vector(CTX3, 9, 0)
    ref_ids, ref_visited = _point_major_orbit(gens, v)
    np_ = orbit(gens, v)
    assert ref_ids.size == np_.size
    assert np.array_equal(np.sort(ref_ids), np.sort(_discovery_codes(np_)))
    _assert_equal_arrays(ref_visited >= 0, _dense_table(np_.index, ref_visited.size) >= 0,
                         "membership")


def _orbit_bfs_frontier_py(gens, start, p, space):
    """Plain-Python frontier-batched BFS: for each frontier, for each
    generator, append the image of each frontier position that was new
    before that generator's pass, in frontier order, never past `space`
    points. The exact discovery order `_kernels.orbit_bfs` must reproduce.
    Returns (ids, parent, genlab, index): index is the sorted
    (code << POS_BITS) | position of every listed point. A singular
    generator can send two frontier points to one new point, which is
    then listed twice."""
    n_coords = start.shape[0]
    rows = [[[int(e) for e in row] for row in g] for g in gens]
    visited = np.full(space, -1, np.int32)

    def code(vec):
        return sum(d * p ** k for k, d in enumerate(vec))

    def image(g, pt):
        vec = [(pt // p ** k) % p for k in range(n_coords)]
        return code([sum(a * b for a, b in zip(row, vec)) % p for row in g])

    ids = [code(int(d) for d in start)]
    parent, genlab = [-1], [-1]
    visited[ids[0]] = 0
    lo = 0
    while lo < len(ids):
        hi = len(ids)
        for gi, g in enumerate(rows):
            images = [(pos, image(g, ids[pos])) for pos in range(lo, hi)]
            new = [(pos, nid) for pos, nid in images if visited[nid] < 0]
            for pos, nid in new[:space - len(ids)]:
                visited[nid] = len(ids)
                ids.append(nid)
                parent.append(pos)
                genlab.append(gi)
        lo = hi
    index = sorted((c << POS_BITS) | pos for pos, c in enumerate(ids))
    return (np.array(ids, np.int64), np.array(parent, np.int32),
            np.array(genlab, np.int16), np.array(index, np.int64))


def _dense_table(index, space):
    """The visited table an orbit's sorted index stands for: each point
    code maps to its discovery position, every other code to -1."""
    assert np.all(index[1:] > index[:-1]), "index is not strictly sorted"
    table = np.full(space, -1, np.int32)
    table[index >> _kernels.POS_BITS] = index & _kernels.POS_MASK
    return table


def _assert_equal_arrays(got, want, name):
    """Exact equality with a short message: the first differing entry,
    never a dump of a table that may hold millions of entries."""
    assert got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}"
    diff = np.flatnonzero(got != want)
    assert diff.size == 0, (
        f"{name} differs at {diff.size} entries, first at {int(diff[0])}: "
        f"{got[diff[0]]} != {want[diff[0]]}")


def _assert_same_bfs(got, want):
    """got is the kernel's (parent, genlab, index), want the frontier
    reference's (ids, parent, genlab, index): the kernel's discovery
    order, rebuilt from its index, is compared too."""
    assert len(got) == 3 and len(want) == 4
    got = (_discovery_codes(got[2]), *got)
    for name, a, b in zip(("ids", "parent", "genlab", "index"), got, want):
        assert a.dtype == b.dtype, f"{name}: dtype {a.dtype} != {b.dtype}"
        _assert_equal_arrays(a, b, name)
    assert np.all(_kernels._scratch == 0), "scratch table left dirty"


_BFS_PRIMES = (3, 5, 7, 11, 13)
_BFS_SPACE = 7000


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from(_BFS_PRIMES), f=st.sampled_from([1, 2]),
       seed=st.integers(0, 2**32 - 1))
def test_orbit_bfs_matches_frontier_reference(data, p, f, seed):
    ctx = make_field(p, f)
    n_max = 1
    while p ** ((n_max + 1) * f) <= _BFS_SPACE:
        n_max += 1
    n = n_max - data.draw(st.integers(0, n_max - 1), label="n_max - n")
    n_gens = data.draw(st.integers(1, 4), label="generators")
    space = p ** (n * f)
    rng = np.random.default_rng(seed)
    gens = []
    while len(gens) < n_gens:
        entries = rng.integers(0, p, size=(n, n, f))
        if Matrix(ctx, entries).det().any():
            gens.append(_block_form(ctx, entries))
    gens = np.stack(gens)
    start = rng.integers(0, p, size=n * f)
    got = orbit_bfs(gens, start, p, space)
    _assert_same_bfs(got, _orbit_bfs_frontier_py(gens, start, p, space))
    ids = _discovery_codes(got[2])
    assert np.array_equal(np.sort(ids), np.sort(_orbit_bfs_py(gens, start, p, space)[0]))


_LARGEST_PRIME = 4194301  # the largest prime below DENSE_CAP = 2^22


# No explain phase: it reruns a failing example under a line tracer,
# and at this prime those reruns exhaust memory before any report.
@settings(derandomize=True, max_examples=12, deadline=None,
          phases=[p for p in Phase if p is not Phase.explain])
@given(orders=st.lists(st.sampled_from((1, 2, 3, 4, 11, 31, 41, 300, 1271, 4100)),
                       min_size=1, max_size=3).filter(lambda ds: math.lcm(*ds) < 15_000),
       base=st.integers(2, _LARGEST_PRIME - 1), start=st.integers(1, _LARGEST_PRIME - 1))
def test_orbit_bfs_prime_field_line(orders, base, start):
    """N = 1 at the largest prime the dense table admits: digits are
    wider than the unpacking tables, and every orbit here closes under
    scalars whose orders divide `orders`, with an lcm under 15,000."""
    p = _LARGEST_PRIME
    assert p < DENSE_CAP < 2 * p and (p - 1) % math.lcm(*orders) == 0
    gens = np.array([[[pow(base, (p - 1) // d, p)]] for d in orders], np.int64)
    start = np.array([start], np.int64)
    want = _orbit_bfs_frontier_py(gens, start, p, p)
    _assert_same_bfs(orbit_bfs(gens, start, p, p), want)


def test_orbit_bfs_unpack_tables_bounded():
    for p in _BFS_PRIMES + (2039, 2053):
        n_coords = 1
        while p ** (n_coords + 1) <= DENSE_CAP:
            n_coords += 1
            for shift, mask, table in _kernels._unpack_tables(p, n_coords):
                assert table.size == mask + 1 <= min(1 << 12, p ** n_coords)


def test_orbit_position_rejects_codes_outside_the_orbit(pair932):
    # The all-2 vector's orbit at (9,3, a=2): negative codes used to alias
    # the table's tail, and codes past 3^9 to raise IndexError.
    o = orbit([pair932.x, pair932.y], np.full((9, 1), 2))
    outside = [-1, -2, -(3 ** 9), 3 ** 9, 3 ** 9 + 1, DENSE_CAP, 2 ** 41, 2 ** 62]
    codes = _discovery_codes(o)
    missing = np.setdiff1d(np.arange(3 ** 9), codes)
    outside += [int(c) for c in missing[:: max(1, missing.size // 50)]]
    for code in outside + [2 ** 70]:
        assert o.position(code) == -1, code
    assert np.all(o.positions(np.array(outside, np.int64)) == -1)
    for pos in (0, 1, o.size // 2, o.size - 1):
        assert o.position(int(codes[pos])) == pos


def test_orbit_positions_match_position(pair932):
    o = orbit([pair932.x, pair932.y], unit_vector(CTX3, 9, 0))
    found = _discovery_codes(o)
    codes = np.concatenate([found, np.arange(-5, 3 ** 9 + 5, 7)])
    want = [o.position(int(c)) for c in codes]
    got = o.positions(codes)
    assert got.dtype == np.int64 and got.tolist() == want
    assert np.array_equal(o.positions(found), np.arange(o.size))


def _bfs_case():
    """Two random invertible 5 x 5 matrices over F_5 and a start vector."""
    rng = np.random.default_rng(7)
    ctx = make_field(5, 1)
    gens = []
    while len(gens) < 2:
        m = Matrix(ctx, rng.integers(0, 5, size=(5, 5, 1)))
        if m.det().any():
            gens.append(_block_form(ctx, m.data))
    return np.stack(gens), np.array([1, 0, 0, 0, 0]), 5, 5 ** 5


# Over F_3, (x, y) -> (0, y) and (x, y) -> (x + y, x + 2y) from (1, 0):
# the projection sends (1, 2) and (2, 2) both to (0, 2), so a search
# would list that point twice. `orbit` refuses the projection first.
_CLAMP_CASE = (np.array([[[0, 0], [0, 1]], [[1, 1], [1, 2]]], np.int64),
               np.array([1, 0]), 3, 3 ** 2)

# Over F_3, the companion matrix of the primitive x^2 + x + 2 (a Singer
# cycle) moves (1, 0) through all 8 nonzero points, one a frontier.
_SINGER_CASE = (np.array([[[0, 1], [1, 2]]], np.int64), np.array([1, 0]), 3, 3 ** 2)


def test_orbit_bfs_scratch_clean_after_closure_and_cap():
    # The space's size is the only cap, and invertible generators reach
    # at most its p^N - 1 nonzero points: both searches here do, from
    # frontiers past the table threshold and from one-point frontiers,
    # and leave the table all 0.
    for args in (_bfs_case(), _SINGER_CASE):
        got = orbit_bfs(*args)
        assert _kernels._scratch.size >= args[3] and got[2].size == args[3] - 1
        _assert_same_bfs(got, _orbit_bfs_frontier_py(*args))
    assert _discovery_codes(got[2]).tolist() == [1, 3, 7, 8, 2, 6, 5, 4]


@pytest.mark.parametrize("layout, named", [
    ("g g", {-1, 0}),
    ("1 g h", {-1, 1, 2}),
    ("g 1 h g", {-1, 0, 2}),
])
def test_orbit_bfs_repeated_and_identity_generators(layout, named):
    # A copy or the identity finds nothing new, so genlab never names it.
    gens, start, p, space = _bfs_case()
    by_name = {"g": gens[0], "h": gens[1], "1": np.eye(5, dtype=np.int64)}
    names = layout.split()
    stack = np.stack([by_name[n] for n in names])
    plain = np.stack([by_name[n] for n in dict.fromkeys(names) if n != "1"])
    got = orbit_bfs(stack, start, p, space)
    _assert_same_bfs(got, _orbit_bfs_frontier_py(stack, start, p, space))
    assert set(got[1].tolist()) <= named
    want = _discovery_codes(orbit_bfs(plain, start, p, space)[2])
    assert np.array_equal(np.sort(_discovery_codes(got[2])), np.sort(want))


def test_orbit_refuses_a_singular_generator_that_merges_points():
    # Over F_3, (x, y) -> (0, 2x) sends (0, 1) and (0, 2) both to 0, and
    # the clamp case merges two points too: a search would list each
    # merged point twice.
    swap = Matrix(CTX3, [[0, 1], [1, 0]])
    singular = Matrix(CTX3, [[0, 0], [2, 0]])
    clamped = [Matrix(CTX3, g.tolist()) for g in _CLAMP_CASE[0]]
    for gens in ([swap, singular], clamped):
        with pytest.raises(CertifyError, match="invertible"):
            orbit(gens, unit_vector(CTX3, 2, 0))
        assert np.all(_kernels._scratch == 0)


# Over F_3 from (1, 0): the projection (x, y) -> (x, 0) fixes it, a
# one-point "orbit", and next to the swap, (x, y) -> (y, 0) reaches
# three points. Neither lists a point twice, so only a check on the
# generators themselves refuses them.
_SINGULAR_GENS = {
    "projection": [[[1, 0], [0, 0]]],
    "swap-and-shift": [[[0, 1], [1, 0]], [[0, 1], [0, 0]]],
}


@pytest.mark.parametrize("case", sorted(_SINGULAR_GENS))
def test_orbit_refuses_every_singular_generator_before_any_search(case, count_calls):
    counts = count_calls(_kernels, "orbit_bfs")
    gens = [Matrix(CTX3, g) for g in _SINGULAR_GENS[case]]
    with pytest.raises(CertifyError, match="invertible"):
        orbit(gens, unit_vector(CTX3, 2, 0))
    assert counts["orbit_bfs"] == 0
    swap = Matrix(CTX3, [[0, 1], [1, 0]])
    assert orbit([swap], unit_vector(CTX3, 2, 0)).size == 2
    assert counts["orbit_bfs"] == 1  # the spy sees the searches that do run


@pytest.mark.parametrize("case", sorted(_SINGULAR_GENS))
def test_chain_refuses_a_singular_generator_before_any_search(case, count_calls):
    counts = count_calls(_kernels, "orbit_bfs")
    gens = [Matrix(CTX3, g) for g in _SINGULAR_GENS[case]]
    with pytest.raises(CertifyError, match="invertible"):
        stabilizer_chain(gens, seed=1)
    assert counts["orbit_bfs"] == 0


def _packed_images_dense(p, lo_digit, n_digits, gens):
    """The table build as it was: the zero-padded p^d x N block of slice
    vectors times the whole generator."""
    n_coords = gens.shape[1]
    codes = np.arange(p ** n_digits, dtype=np.int64)
    vecs = np.zeros((codes.size, n_coords))
    for k in range(n_digits):
        vecs[:, lo_digit + k] = codes % p
        codes //= p
    weights = np.left_shift(1, _kernels._digit_bits(p) * np.arange(n_coords, dtype=np.int64))
    return np.stack([((vecs @ g.T).astype(np.int64) % p) @ weights
                     for g in gens.astype(np.float64)])


@pytest.mark.parametrize("p, n_coords", [(3, 9), (3, 11), (3, 12), (3, 13), (5, 9)])
def test_packed_images_match_the_dense_product(p, n_coords):
    # (p, N) of every certify desk point; the all-(p - 1) generator gives
    # the largest sums the float product must hold exactly.
    rng = np.random.default_rng(p * n_coords)
    gens = np.concatenate([rng.integers(0, p, size=(3, n_coords, n_coords)),
                           np.full((1, n_coords, n_coords), p - 1)])
    m = n_coords // 2
    for lo_digit, n_digits in ((0, m), (m, n_coords - m)):
        got = _kernels._packed_images(p, lo_digit, n_digits, gens)
        want = _packed_images_dense(p, lo_digit, n_digits, gens)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


class _FailingNumpy:
    """numpy, except that the first call made while the kernel's scratch
    table holds more than the start point raises: a search fails with a
    dirty table, whichever numpy function it calls next."""

    def __getattr__(self, name):
        if np.count_nonzero(_kernels._scratch != 0) > 1:
            raise RuntimeError("injected")
        return getattr(np, name)


def test_orbit_bfs_scratch_clean_after_exception(monkeypatch):
    args = _bfs_case()
    want = _orbit_bfs_frontier_py(*args)
    assert want[0].size > 100
    monkeypatch.setattr(_kernels, "np", _FailingNumpy())
    with pytest.raises(RuntimeError, match="injected"):
        orbit_bfs(*args)
    monkeypatch.undo()
    assert np.all(_kernels._scratch == 0)
    _assert_same_bfs(orbit_bfs(*args), want)


def test_orbit_memory_follows_the_orbit():
    # A one-point orbit in a 3^13-point space: once the scratch table has
    # grown, a search allocates less than one byte per point of the space,
    # and the Orbit holds one Schreier-vector row and one index entry.
    import tracemalloc

    gens, v = [Matrix.identity(CTX3, 13)], unit_vector(CTX3, 13, 0)
    orbit(gens, v)
    tracemalloc.start()
    try:
        o = orbit(gens, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert o.size == 1 and peak < 3 ** 13
    held = [a.nbytes if a.base is None else a.base.nbytes
            for a in (o.parent, o.genlab, o.index)]
    assert held == [4, 2, 8]


def test_scratch_table_is_one_byte_an_entry(monkeypatch):
    # The seen table holds no positions: one uint8 a point of the space,
    # all 0 again once a search returns. It starts empty here, so this
    # search grows it to exactly its space.
    monkeypatch.setattr(_kernels, "_scratch", _kernels._EMPTY)
    orbit([Matrix.identity(CTX3, 13)], unit_vector(CTX3, 13, 0))
    table = _kernels._scratch
    assert table.dtype == np.uint8 and table.nbytes == 3 ** 13
    assert not table.any()


def test_orbit_holds_fourteen_bytes_a_point():
    # At (11,3) the orbit of e_0 has 59,292 points. It keeps an int32
    # parent, an int16 label and an int64 index entry a point, nothing
    # more, and the search's traced peak stays under 21 bytes a point
    # once the scratch table has grown: 20.2 at the index's join, which
    # holds the code layers, the index and the parents, with the labels
    # still runs (it was 35.2 while the orbit also kept its codes in
    # discovery order, 27.4 while the scratch table held an int32
    # position a point, and 22.3 while the labels were expanded first).
    import tracemalloc

    pair = build_pair(11, CTX3, 2)
    gens, v = [pair.x, pair.y], unit_vector(CTX3, 11, 0)
    orbit(gens, v)
    tracemalloc.start()
    try:
        o = orbit(gens, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert o.size == 59292
    arrays = [o.parent, o.genlab, o.index, o.powers]
    held = sum(a.nbytes if a.base is None else a.base.nbytes
               for a in arrays if isinstance(a, np.ndarray))
    assert held == 14 * o.size + o.powers.nbytes  # powers: one p^k a coordinate
    assert peak < 21 * o.size, peak / o.size


def test_grown_orbit_holds_exactly_its_rows(pair932):
    # An orbit of many frontiers keeps arrays that have exactly its size
    # and pin exactly their own bytes, not views of larger discovery
    # arrays. (The index is the search's code layers joined by one
    # concatenate and sorted in place, and the labels are their runs
    # expanded by one repeat, so both own their bytes.)
    o = orbit([pair932.x, pair932.y], unit_vector(CTX3, 9, 0))
    assert o.size > 1024
    for a in (o.parent, o.genlab, o.index):
        owner = a if a.base is None else a.base
        assert owner.base is None and owner.nbytes == a.nbytes
        assert a.shape == (o.size,)


@pytest.mark.parametrize("case", ["bfs", "unit-932"])
def test_orbit_bfs_frontier_paths_agree(case, pair932, monkeypatch):
    """Frontiers closed without tables (threshold above the space) and
    with them (threshold 0) give the same arrays, the frontier reference's,
    and leave the scratch table clean."""
    args = {
        "bfs": _bfs_case,
        "unit-932": lambda: (np.stack([_flat(pair932.x), _flat(pair932.y)]),
                             unit_vector(CTX3, 9, 0).reshape(-1), 3, 3 ** 9),
    }[case]()
    want = _orbit_bfs_frontier_py(*args)
    for threshold in (0, args[3] + 1):
        monkeypatch.setattr(_kernels, "_SMALL_FRONTIER", threshold)
        _assert_same_bfs(orbit_bfs(*args), want)


def test_small_orbit_builds_no_image_tables(pair932, monkeypatch):
    # A 3-cycle of coordinates moves e_0 through a 3-point orbit, one
    # point a frontier: the search never tabulates its generator. The
    # orbit of (x, y) meets larger frontiers and tabulates both
    # generators once, by one lo call and one hi call.
    calls = []
    packed = _kernels._packed_images

    def counted(p, lo_digit, n_digits, gens):
        calls.append((lo_digit, n_digits, len(gens)))
        return packed(p, lo_digit, n_digits, gens)

    monkeypatch.setattr(_kernels, "_packed_images", counted)
    cycle = np.eye(9, dtype=np.int64)[[2, 0, 1, 3, 4, 5, 6, 7, 8]]
    assert orbit([_view(CTX3, cycle)], unit_vector(CTX3, 9, 0)).size == 3
    assert calls == []
    assert orbit([pair932.x, pair932.y], unit_vector(CTX3, 9, 0)).size > _kernels._SMALL_FRONTIER
    assert sorted(calls) == [(0, 4, 2), (4, 5, 2)]


def test_levels_recomputed_in_turn_keep_their_positions(pair932):
    # Both levels' orbits are found in the one scratch table; each must
    # still answer from its own index after the other is recomputed.
    levels = [_level(k, [pair932.x, pair932.y][: k + 1]) for k in (0, 1)]
    for lv in levels + levels:
        lv.recompute()
    assert levels[0].orbit.size != levels[1].orbit.size
    probe = np.arange(3 ** 9)
    for lv in levels:
        o = lv.orbit
        codes = _discovery_codes(o)
        want = np.full(3 ** 9, -1)
        want[codes] = np.arange(o.size)
        assert np.array_equal(o.positions(probe), want)
        for pos in range(0, o.size, max(1, o.size // 40)):
            assert o.position(int(codes[pos])) == pos


def test_orbit_dimension_mismatch(pair932):
    with pytest.raises(DimensionMismatch):
        orbit([pair932.x], unit_vector(CTX3, 11, 0))
    with pytest.raises(DimensionMismatch):
        orbit([pair932.x, Matrix.identity(CTX3, 11)], unit_vector(CTX3, 9, 0))


def test_orbit_state_space_cap():
    pair = build_pair(25, CTX3, 1)
    with pytest.raises(StateSpaceTooLarge):
        orbit([pair.x], unit_vector(CTX3, 25, 0))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), q=st.sampled_from([5, 9, 27]), n=st.integers(1, 4))
def test_block_form_round_trip(data, q, n):
    # the chain's edge conversion: block form -> Matrix -> block form
    ctx = field_from_prime_power(q)
    size = n * n * ctx.f
    entries = data.draw(st.lists(st.integers(0, ctx.p - 1), min_size=size, max_size=size))
    b = _block_form(ctx, np.array(entries, np.int64).reshape(n, n, ctx.f))
    m = Matrix._from_blocks(ctx, b)
    assert m == _view(ctx, b)
    assert np.array_equal(_block_form(ctx, m.data), b)


# --- stabilizer chains -------------------------------------------------------

def test_chain_trivial_group():
    ch = stabilizer_chain([Matrix.identity(CTX3, 3)], seed=1)
    assert ch.order == 1 and ch.verified


def test_chain_no_generators():
    assert stabilizer_chain([], seed=1).order == 1


def test_chain_cyclic_subgroup(pair932):
    ch = stabilizer_chain([pair932.y], seed=1)
    assert ch.order == 3 and ch.verified


def _omega3_elements():
    from omega23.forms import OrthoSpace

    space = OrthoSpace(Matrix.identity(CTX3, 3))
    cols = list(itertools.product(range(3), repeat=3))
    out = []
    for c1 in cols:
        for c2 in cols:
            for c3 in cols:
                m = Matrix.from_rows(CTX3, [list(r) for r in zip(c1, c2, c3)])
                if not m.det().any():
                    continue
                if not is_isometry(space, m):
                    continue
                if not np.array_equal(m.det(), CTX3.one):
                    continue
                if in_omega(space, m).ok:
                    out.append(m)
    return out


def test_chain_enumerated_small_group():
    elems = _omega3_elements()
    assert len(elems) == omega_order(3, "circ", 3) == 12
    ch = stabilizer_chain(elems, seed=7)
    assert ch.order == 12


def _permutation(images):
    """The permutation matrix over F_3 that sends e_j to e_images[j]."""
    n = len(images)
    return Matrix(CTX3, [[int(images[j] == i) for j in range(n)] for i in range(n)])


@pytest.mark.xfail(strict=True, reason="verify_schreier tests the Schreier "
                   "generators of each level's own generators only")
@pytest.mark.parametrize("images, order", [
    (((1, 0, 2), (0, 2, 1)), 6),         # S3 = <(0 1), (1 2)>: stops at 4
    (((1, 2, 3, 0), (0, 2, 1, 3)), 24),  # S4 = <(0 1 2 3), (1 2)>: stops at 8
], ids=["S3", "S4"])
def test_schreier_check_alone_completes_the_chain(images, order):
    # No random phase: the generators are fed, then the deterministic
    # check runs until it absorbs nothing. The second generator fixes
    # level 0's base vector, so it opens level 1 and is never among
    # level 0's generators, whose Schreier generators alone are tested.
    gens = tuple(_permutation(g) for g in images)
    builder = certify_mod._ChainBuilder(gens, seed=1, budget_seconds=None)
    for g in gens:
        builder.feed(g.blocks, g.inverse().blocks)
    while not builder.verify_schreier():
        pass
    assert builder.order() == order


def test_chain_order_matches_formula(chain932):
    assert chain932.order == omega_order(9, "circ", 3)
    assert chain932.verified
    sizes = chain932.orbit_sizes
    prod = 1
    for s in sizes:
        prod *= s
    assert prod == chain932.order
    assert len(chain932.base) == len(chain932.levels)


def test_chain_reproducible(pair932, chain932):
    again = stabilizer_chain([pair932.x, pair932.y], target=None, seed=53251)
    assert again.order == chain932.order
    assert again.orbit_sizes == chain932.orbit_sizes
    assert len(again.base) == len(chain932.base)
    for u, v in zip(again.base, chain932.base):
        assert np.array_equal(u, v)


def test_chain_sifts_generator_products(pair932, chain932):
    rng = random.Random(11)
    gens = [pair932.x, pair932.y]
    for _ in range(100):
        g = gens[rng.randrange(2)]
        for _ in range(rng.randrange(1, 14)):
            g = g @ gens[rng.randrange(2)]
        assert chain932.sift(g) is None


def test_chain_sift_takes_and_returns_matrices(pair932, chain932):
    assert chain932.sift(pair932.x @ pair932.y) is None
    outsider = build_pair(9, CTX3, 1, force=True).x
    residue = chain932.sift(outsider)
    assert isinstance(residue, Matrix) and residue.ctx is CTX3
    flat_residue, stuck = certify_mod._sift_from(chain932.levels, _flat(outsider), 0)
    assert residue == _view(CTX3, flat_residue) and not residue.is_identity()
    assert 0 < stuck < len(chain932.levels)
    for b in chain932.base[:stuck]:  # the levels it passed fixed their base vectors
        assert np.array_equal(residue @ b, b)
    empty = stabilizer_chain([], seed=1)
    assert empty.sift(Matrix.identity(CTX3, 3)) is None
    assert empty.sift(pair932.x) == pair932.x


def test_chain_rejects_outsider(chain932):
    # the forced parameter's involution has nontrivial spinor norm, so it
    # lies outside the certified kernel subgroup and cannot sift away
    outsider = build_pair(9, CTX3, 1, force=True).x
    assert not in_omega(gram_matrix(9, CTX3), outsider).ok
    assert chain932.sift(outsider) is not None


def test_chain_budget_exhaustion(pair932):
    with pytest.raises(BudgetExceeded):
        stabilizer_chain([pair932.x, pair932.y], target=None, seed=1,
                         budget_seconds=1e-9)


def test_chain_zero_budget_is_exhausted_at_once(pair932):
    with pytest.raises(BudgetExceeded) as stop:
        stabilizer_chain([pair932.x, pair932.y], seed=1, budget_seconds=0)
    assert stop.value.orbit_sizes == ()
    res = certify_generation(pair932, seed=1, budget_seconds=0)
    assert res.verdict == "Inconclusive" and res.computed_order == 1


@pytest.mark.parametrize("budget", [math.nan, -1.0])
def test_chain_refuses_a_budget_that_is_not_a_duration(pair932, budget):
    with pytest.raises(CertifyError, match="seconds >= 0"):
        stabilizer_chain([pair932.x, pair932.y], seed=1, budget_seconds=budget)


@pytest.mark.parametrize("target", [0, -5, 2.5, True, "7"],
                         ids=["zero", "negative", "float", "bool", "string"])
def test_chain_refuses_a_target_that_is_not_a_positive_integer(pair932, target, count_calls):
    counts = count_calls(_kernels, "orbit_bfs")
    with pytest.raises(CertifyError, match=f"target {target!r} is not a positive integer"):
        stabilizer_chain([pair932.x, pair932.y], target=target, seed=1)
    assert counts["orbit_bfs"] == 0


@pytest.mark.parametrize("seed", [2.5, True, "7"], ids=["float", "bool", "string"])
def test_a_seed_that_is_not_an_integer_is_refused_before_any_search(pair932, seed, count_calls):
    # int(seed) used to turn these into 2, 1 and 7 without a word
    counts = count_calls(_kernels, "orbit_bfs")
    with pytest.raises(BadSeed, match=f"seed must be an integer, got {seed!r}"):
        certify_generation(pair932, seed=seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        stabilizer_chain([pair932.x, pair932.y], seed=seed)
    assert counts["orbit_bfs"] == 0


def test_a_numpy_integer_seed_is_accepted():
    chain = stabilizer_chain([Matrix.identity(CTX3, 3)], seed=np.int64(7))
    assert chain.seed == 7 and type(chain.seed) is int


def test_chain_transversals_sampled(chain932):
    rng = random.Random(23)
    for lv in chain932.levels:
        codes = _discovery_codes(lv.orbit)
        for pos in {0, lv.orbit.size - 1, rng.randrange(lv.orbit.size)}:
            u = _view(lv.ctx, lv.u(pos))
            assert np.array_equal(u @ lv.base_vec, _vector(lv.ctx, 9, codes[pos]))


SIZES_932 = (6480, 2214, 756, 234, 72, 30, 4, 3)


def test_chain_pinned_base_and_sizes(pair932, chain932):
    # outputs of the eager-transversal implementation, kept bit for bit
    res = certify_generation(pair932, seed=53251)
    assert res.orbit_sizes == SIZES_932 and res.base_size == 8
    assert chain932.orbit_sizes == SIZES_932 and chain932.verified
    expected = [unit_vector(CTX3, 9, k) for k in (2, 0, 1, 3, 4, 5, 6, 7)]
    assert len(chain932.base) == len(expected)
    for got, want in zip(chain932.base, expected):
        assert np.array_equal(got, want)


# A primitive element of F_9 = F_3[t]/(t^2 + 1) (1 + t) and of
# F_27 = F_3[t]/(t^3 + 2t + 1) (t), as coefficient lists.
_PRIMITIVE = {9: [1, 1], 27: [0, 1, 0]}


@pytest.mark.parametrize("targeted", [False, True], ids=["targetless", "targeted"])
@pytest.mark.parametrize("q, group, sizes, base", [
    (9, "GL", (80, 72), (1, 0)),
    (9, "SL", (80, 9), (0, 1)),
    (27, "GL", (728, 702), (1, 0)),
    (27, "SL", (728, 27), (0, 1)),
])
def test_chain_over_extension_fields(q, group, sizes, base, targeted):
    # Standard generators of GL_2(q) (diag(1, w) and [[-1, 1], [-1, 0]])
    # and SL_2(q) (diag(w, 1/w) and the same), w primitive. diag(1, w)
    # fixes e_0, so the GL chain opens at e_1: column f of its block
    # form. Sizes and bases are those of the Matrix-product chain.
    ctx = field_from_prime_power(q)
    w, one, zero = ctx.coerce(_PRIMITIVE[q]), ctx.one, ctx.zero
    assert [ctx.pow(w, e).tolist() == one.tolist() for e in range(1, q)].index(True) == q - 2
    diag = [[one, zero], [zero, w]] if group == "GL" else [[w, zero], [zero, ctx.inv(w)]]
    gens = [Matrix.from_rows(ctx, diag),
            Matrix.from_rows(ctx, [[ctx.neg(one), one], [ctx.neg(one), zero]])]
    order = (q * q - 1) * (q * q - q) if group == "GL" else q * (q * q - 1)
    ch = stabilizer_chain(gens, target=order if targeted else None, seed=5)
    assert ch.order == order and ch.verified is not targeted
    assert ch.orbit_sizes == sizes
    assert len(ch.base) == len(base)
    for got, k in zip(ch.base, base):
        assert np.array_equal(got, unit_vector(ctx, 2, k))
    assert ch.sift(gens[0] @ gens[1].inverse()) is None


@pytest.fixture(scope="module")
def chain95():
    """A targeted (9, 5) chain and each level's memo sizes right after the
    build, before any test walks its Schreier trees."""
    pair = build_pair(9, CTX5)
    chain = stabilizer_chain([pair.x, pair.y], seed=53251,
                             target=omega_order(9, pair.space.eps, 5))
    memos = [(len(lv._u), len(lv._u_inv)) for lv in chain.levels]
    return chain, memos


def test_lazy_transversals_invert_and_map_to_base(chain95):
    chain, _ = chain95
    assert chain.order == omega_order(9, "circ", 5)
    assert chain.orbit_sizes[0] == 391250
    rng = random.Random(29)
    for lv in chain.levels:
        size = lv.orbit.size
        codes = _discovery_codes(lv.orbit)
        for pos in {0, size - 1, size // 2} | {rng.randrange(size) for _ in range(6)}:
            u, u_inv = _view(CTX5, lv.u(pos)), _view(CTX5, lv.u_inv(pos))
            point = _vector(CTX5, 9, codes[pos])
            assert (u_inv @ u).is_identity()
            assert np.array_equal(u @ lv.base_vec, point)
            assert np.array_equal(u_inv @ point, lv.base_vec)


def test_targeted_build_memoizes_few_transversals(chain95):
    chain, memos = chain95
    for lv, (n_u, n_u_inv) in zip(chain.levels, memos):
        # an eager table holds one matrix per orbit point
        assert n_u + n_u_inv <= 2 + lv.orbit.size // 4, (lv.orbit.size, n_u, n_u_inv)
    assert sum(n_u + n_u_inv for n_u, n_u_inv in memos) < chain.orbit_sizes[0] // 100


def test_memo_cap_keeps_the_chain(pair932, chain932, monkeypatch):
    budget = 100 * 9 * 9 * 8  # 100 of the (9, 9) int64 block forms
    monkeypatch.setattr(certify_mod, "_TRANSVERSAL_CACHE_BYTES", budget)
    capped = stabilizer_chain([pair932.x, pair932.y], target=None, seed=53251)
    assert capped.verified
    assert capped.order == chain932.order
    assert capped.orbit_sizes == chain932.orbit_sizes
    for u, v in zip(capped.base, chain932.base):
        assert np.array_equal(u, v)
    for lv in capped.levels:
        for memo in (lv._u, lv._u_inv):
            assert sum(m.nbytes for m in memo.values()) <= budget
    assert capped.levels[0].orbit.size > 100
    assert len(capped.levels[0]._u) == 100  # the budget, not the orbit, stops it
    # Under the real budget every memo of the chain holds every orbit
    # point, which the Schreier check walks: the largest is 6,480 block
    # forms of 648 bytes, 4.2 MB.
    for lv in chain932.levels:
        assert len(lv._u) == len(lv._u_inv) == lv.orbit.size


def test_random_elements_keep_inverses_and_stream(pair932):
    gens = (pair932.x, pair932.y)
    stream = _RandomElements(CTX3, [_flat(g) for g in gens],
                             [_flat(g.inverse()) for g in gens], 17)
    drawn = [_view(CTX3, next(stream)) for _ in range(20)]
    for slot, inv in zip(stream.slots, stream.slot_invs):
        assert (_view(CTX3, slot) @ _view(CTX3, inv)).is_identity()
    # the stream a product replacement with explicit inversion gives
    rng = random.Random(17)
    slots = [gens[k % 2] for k in range(10)]
    acc = Matrix.identity(CTX3, 9)
    expected = []
    for step in range(64 + 20):
        i = rng.randrange(10)
        j = rng.randrange(9)
        j += j >= i
        other = slots[j].inverse() if rng.random() < 0.5 else slots[j]
        slots[i] = slots[i] @ other if rng.random() < 0.5 else other @ slots[i]
        acc = acc @ slots[i]
        if step >= 64:
            expected.append(acc)
    assert drawn == expected


def test_chain_generators_are_born_with_their_inverses(pair932, count_calls):
    # The (9,3, a = 2) certificate at seed 1 absorbs x and y as themselves,
    # with the inverses their matrices keep: only the other residues are
    # inverted by elimination, and the random stream inverts nothing.
    counts = count_calls(linalg, "_block_inverse")
    chain = stabilizer_chain([pair932.x, pair932.y], target=omega_order(9, "circ", 3), seed=1)
    assert counts["_block_inverse"] == sum(len(lv.gens) for lv in chain.levels) - 2
    one = np.eye(9, dtype=np.int64)
    for lv in chain.levels:
        assert len(lv.invs) == len(lv.gens)
        for g, g_inv in zip(lv.gens, lv.invs):
            assert np.array_equal(g.dot(g_inv) % 3, one)


# --- inverses read off the trace form ----------------------------------------

@settings(max_examples=80, deadline=None)
@given(data=st.data(), q=st.sampled_from((3, 5, 9, 25, 27)), n=st.integers(1, 4))
def test_trace_form_inverse_is_the_eliminated_inverse(data, q, n):
    """A chain given a space inverts g by K^-1 B(g)^T K, K the Gram matrix
    of the trace form; for g a random product of reflections of a random
    nondegenerate form this is the eliminated inverse of g's block form."""
    ctx = field_from_prime_power(q)
    p, f = ctx.p, ctx.f
    element = st.lists(st.integers(0, p - 1), min_size=f, max_size=f)
    half = np.array(data.draw(st.lists(element, min_size=n * n, max_size=n * n)))
    half = half.reshape(n, n, f)
    gram = Matrix(ctx, half + half.transpose(1, 0, 2))
    assume(gram.det().any())
    space = OrthoSpace(gram)
    g = Matrix.identity(ctx, n)
    for _ in range(data.draw(st.integers(0, 6))):
        v = np.array(data.draw(st.lists(element, min_size=n, max_size=n)))
        if quadratic_value(space, v).any():
            g = g @ reflection(space, v)
    b, k = g.blocks, certify_mod._trace_form(space)
    assert np.array_equal(b.T @ k @ b % p, k)
    builder = certify_mod._ChainBuilder((g,), 1, None, space)
    assert np.array_equal(builder._inverse(b), linalg._block_inverse(b, p))


def _assert_same_chain(got, want):
    """Same base, orbit sizes, and byte-equal generators and inverses on
    every level."""
    assert got.orbit_sizes == want.orbit_sizes
    assert len(got.base) == len(want.base)
    for u, v in zip(got.base, want.base):
        assert np.array_equal(u, v)
    for lv, lw in zip(got.levels, want.levels):
        assert [g.tobytes() for g in lv.gens] == [g.tobytes() for g in lw.gens]
        assert [g.tobytes() for g in lv.invs] == [g.tobytes() for g in lw.invs]


# The desk points of the `certify` benchmark: (n, q, a, restrict_to_s9).
_DESK_POINTS = ((9, 3, 2, False), (11, 3, None, False), (12, 3, None, False),
                (13, 3, None, False), (9, 5, None, False), (15, 3, None, True))


@pytest.mark.parametrize("n, q, a, restrict", _DESK_POINTS)
def test_chain_with_a_space_is_the_eliminating_chain(n, q, a, restrict):
    pair = build_pair(n, make_field(q), a)
    gens, space = ((pair.s9_restrictions[:2], pair.s9_space) if restrict
                   else ((pair.x, pair.y), pair.space))
    target = omega_order(space.n, space.eps, q)
    for seed in (1, 2, 3):
        _assert_same_chain(stabilizer_chain(gens, target, seed, space=space),
                           stabilizer_chain(gens, target, seed))


def test_chain_refuses_a_space_a_generator_does_not_preserve(pair932, count_calls):
    counts = count_calls(_kernels, "orbit_bfs")
    # fresh matrices, so the pair's kept verdicts stay with its own space
    x, y = (Matrix(CTX3, g.data) for g in (pair932.x, pair932.y))
    plain = OrthoSpace(Matrix.identity(CTX3, 9))
    assert is_isometry(plain, x) and not is_isometry(plain, y)
    with pytest.raises(CertifyError, match="does not preserve"):
        stabilizer_chain([x, y], seed=1, space=plain)
    with pytest.raises(DimensionMismatch):
        stabilizer_chain([x, y], seed=1, space=OrthoSpace(Matrix.identity(CTX3, 7)))
    assert counts["orbit_bfs"] == 0
    stabilizer_chain([x, y], target=omega_order(9, "circ", 3), seed=1, space=pair932.space)
    assert counts["orbit_bfs"] > 0  # the spy sees the searches that do run


@pytest.mark.parametrize("n, a, restrict", [(9, 2, False), (15, 1, True)],
                         ids=["full", "restricted"])
def test_certify_eliminates_only_the_trace_form(n, a, restrict, count_calls, monkeypatch):
    """Both certificate modes give the chain their space: K^-1 is the one
    Gauss-Jordan elimination, and no inverse is asked of a Matrix."""
    pair = build_pair(n, CTX3, a)
    if restrict:
        pair.s9_restrictions  # the restrictions' own commutator reads kept inverses
    counts = count_calls(linalg, "_block_inverse")
    inverted = []
    inverse = Matrix.inverse
    monkeypatch.setattr(Matrix, "inverse", lambda m: inverted.append(m) or inverse(m))
    assert certify_generation(pair, restrict_to_s9=restrict, seed=1).verdict == "Generates"
    assert counts["_block_inverse"] == 1
    assert inverted == []


# --- certification -----------------------------------------------------------

def test_certify_headline(pair932):
    res = certify_generation(pair932, seed=53251)
    assert res.verdict == "Generates"
    assert res.computed_order == res.target_order == omega_order(9, "circ", 3)
    blob = res.to_json()
    assert set(blob) == {"n", "q", "a", "eps", "computed_order", "target_order",
                         "verdict", "seed", "base_size", "orbit_sizes", "elapsed_ms"}
    assert blob["computed_order"] == "65784756654489600"
    assert blob["a"] == 2 and blob["eps"] == "circ"


def test_certify_restricted():
    res = certify_generation(build_pair(15, CTX3, 1), restrict_to_s9=True, seed=53251)
    assert res.verdict == "Generates"
    assert res.target_order == omega_order(9, "circ", 3)
    assert res.computed_order == res.target_order


def test_certify_reads_the_memberships_and_inverses_the_pair_proved(count_calls, monkeypatch):
    """Full mode tests x and y with in_omega on the pair's own space, which
    reads back the verdicts build_pair proved, and so does the chain, which
    is given that space; restricted mode proves the memberships of y|S9 and
    tau|S9 once and inverts by the trace form of the S9 space, so no
    `[tau|S9 | I]` is reduced. The pair keeps its S9 space and
    restrictions, so a second restricted certificate reads every membership
    and determinant back."""
    pair = build_pair(15, CTX3, 1)
    counts = count_calls(forms, "in_omega", "spinor_norm")
    rrefs = count_calls(linalg, "rref")
    dets = []
    eliminate_det = Matrix._eliminate_det
    monkeypatch.setattr(Matrix, "_eliminate_det", lambda m: dets.append(m) or eliminate_det(m))
    assert certify_generation(pair, seed=53251).verdict == "Inconclusive"
    assert counts == {"in_omega": 4, "spinor_norm": 0}
    assert rrefs["rref"] == 0
    first = certify_generation(pair, restrict_to_s9=True, seed=53251)
    assert first.verdict == "Generates"
    assert counts == {"in_omega": 8, "spinor_norm": 2}
    assert rrefs["rref"] == 2  # 1 - y|S9 and 1 - tau|S9
    eliminated = len(dets)
    again = certify_generation(pair, restrict_to_s9=True, seed=53251)
    assert ({k: v for k, v in again.to_json().items() if k != "elapsed_ms"}
            == {k: v for k, v in first.to_json().items() if k != "elapsed_ms"})
    assert counts == {"in_omega": 12, "spinor_norm": 2}
    assert rrefs["rref"] == 2
    assert len(dets) == eliminated


def test_certify_restricted_needs_tail_family(pair932):
    with pytest.raises(WrongCase):
        certify_generation(pair932, restrict_to_s9=True)


def test_certify_forced_pair_documents_outcome():
    # non-admissible parameter: x lies outside Omega, so the chain runs
    # without a target and ends at `verify_schreier`, which is not a complete
    # check; its order, twice the target (that of SO), is a lower bound only
    res = certify_generation(build_pair(9, CTX3, 1, force=True), seed=53251)
    assert res.computed_order == 2 * res.target_order
    assert res.verdict == "Inconclusive"


def test_certify_budget_inconclusive(pair932):
    res = certify_generation(pair932, seed=53251, budget_seconds=1e-9)
    assert res.verdict == "Inconclusive"
    assert res.target_order == omega_order(9, "circ", 3)
    assert res.computed_order >= 1


def test_certify_contained_proper_subgroup_is_inconclusive(pair932):
    # <y> lies in Omega and has order 3, but only `verify_schreier` ends its
    # chain there: no upper bound below |Omega| is proved
    res = certify_generation(GenPair(pair932.y, pair932.y, pair932.a, True), seed=1)
    assert res.verdict == "Inconclusive"
    assert res.computed_order == 3 and res.orbit_sizes == (3,)
    assert res.target_order == omega_order(9, "circ", 3)


def test_certify_pair_outside_omega_never_generates(monkeypatch):
    # a chain that reaches |Omega| proves nothing about a pair not in Omega
    pair = build_pair(9, CTX3, 1, force=True)
    assert not in_omega(pair.space, pair.x).ok
    targets = []

    def reaches_omega(gens, target, seed, budget_seconds, space=None):
        targets.append(target)
        return SimpleNamespace(orbit_sizes=SIZES_932)

    monkeypatch.setattr(certify_mod, "stabilizer_chain", reaches_omega)
    res = certify_generation(pair, seed=1)
    assert targets == [None]
    assert res.computed_order == res.target_order == math.prod(SIZES_932)
    assert res.verdict == "Inconclusive"


def test_certify_contained_order_off_the_target_is_an_error(pair932, monkeypatch):
    # 11 does not divide |Omega_9(3)|, so a contained chain of that order is
    # inconsistent, whatever the verdict would be
    monkeypatch.setattr(certify_mod, "stabilizer_chain",
                        lambda *args, **kwargs: SimpleNamespace(orbit_sizes=(11,)))
    with pytest.raises(CertifyError, match="does not divide the target"):
        certify_generation(pair932, seed=1)


def test_orbit_refuses_a_vector_that_is_not_integer(pair932):
    # np.asarray(v, dtype=np.int64) would search the orbit of e_0 for 1.7 e_0
    v = unit_vector(CTX3, 9, 0).astype(float)
    v[0, 0] = 1.7
    with pytest.raises(CertifyError, match="must be integers"):
        orbit([pair932.x, pair932.y], v)


# --- controls from the literature ---------------------------------------------

def _two_three_pairs(n, involution_sizes, count, seed):
    """`count` pairs (x, y) in Omega of F_3^n under J = I_n: x is conjugate
    to -1 on k coordinates, k cycling through involution_sizes, and y to
    the permutation (0 1 2)(3 4 5), each by a product of 16 random
    reflections (Omega is normal in O, so both stay in it)."""
    space = OrthoSpace(Matrix.identity(CTX3, n))
    rng = random.Random(seed)

    def conjugate(m):
        g, k = Matrix.identity(CTX3, n), 0
        while k < 16:  # anisotropic centers only
            v = vector(CTX3, [rng.randrange(3) for _ in range(n)])
            if quadratic_value(space, v).any():
                g, k = g @ reflection(space, v), k + 1
        return g @ m @ g.inverse()

    sigma = [1, 2, 0, 4, 5, 3, *range(6, n)]
    three = Matrix.from_rows(CTX3, [[int(i == sigma[j]) for j in range(n)] for i in range(n)])
    for t in range(count):
        k = involution_sizes[t % len(involution_sizes)]
        two = Matrix.from_rows(CTX3, [[(j == i) * (-1 if i < k else 1) for j in range(n)]
                                      for i in range(n)])
        yield space, conjugate(two), conjugate(three)


def test_no_two_three_pair_generates_omega_8_plus_3():
    """Negative control. PΩ₈⁺(3) is not (2,3)-generated (M. Vsemirnov, "More
    classical groups which are not (2,3)-generated", Arch. Math. 96, 2011).
    A pair (x, y) with x² = y³ = 1 that generated Ω₈⁺(3) would map onto a pair
    of orders dividing 2 and 3 that generates PΩ₈⁺(3), and neither image can
    be trivial, since PΩ₈⁺(3) is not cyclic: so no such pair generates
    Ω₈⁺(3), and the verdict rule must say Generates for none. Every pair
    is in Ω, so each chain runs against the target |Ω₈⁺(3)|."""
    for t, (space, x, y) in enumerate(_two_three_pairs(8, (2, 4, 6), 96, seed=8)):
        assert space.eps == "plus" and in_omega(space, x).ok and in_omega(space, y).ok
        verdict, sizes, target = generation_verdict((x, y), space, seed=t)
        assert target == 9_904_359_628_800
        assert verdict == "Inconclusive" and target % math.prod(sizes) == 0, t


def test_the_two_three_sampler_reaches_generation_in_omega_7_3():
    """The control above is not vacuous: the same sampler in Ω₇(3), which
    its (2,3)-pairs can generate, gives a pair that the rule certifies."""
    verdicts = (generation_verdict((x, y), space, seed=t)[0]
                for t, (space, x, y) in enumerate(_two_three_pairs(7, (4,), 40, seed=7)))
    assert "Generates" in verdicts


@pytest.mark.parametrize("n, involution_sizes, seed", [(7, (4,), 7), (8, (2, 4, 6), 8)],
                         ids=["omega7", "omega8plus"])
def test_two_three_chains_with_a_space_are_the_eliminating_chains(n, involution_sizes, seed):
    for t, (space, x, y) in enumerate(_two_three_pairs(n, involution_sizes, 10, seed)):
        target = omega_order(n, space.eps, 3)
        _assert_same_chain(stabilizer_chain((x, y), target, t, space=space),
                           stabilizer_chain((x, y), target, t))
