import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omega23.fields import make_field
from omega23.forms import gram_matrix, in_omega, is_isometry, omega_order, quadratic_value
from omega23.generators import WrongCase, build_pair
from omega23.linalg import Matrix, _block_form, unit_vector
from omega23 import _kernels
from omega23._kernels import DENSE_CAP, ORBIT_CAP, orbit_bfs
from omega23 import certify as certify_mod
from omega23.certify import (
    BudgetExceeded,
    CertifyError,
    DimensionMismatch,
    Orbit,
    OrbitCapExceeded,
    _RandomElements,
    StateSpaceTooLarge,
    certify_generation,
    orbit,
    stabilizer_chain,
)


CTX3 = make_field(3, 1)
CTX5 = make_field(5, 1)


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


def test_orbit_reaches_first_six_units(pair932):
    o = orbit([pair932.x, pair932.y], unit_vector(CTX3, 9, 0))
    assert o.size <= 3 ** 9 - 1
    powers = 3 ** np.arange(9, dtype=np.int64)
    for k in range(6):
        pid = int(unit_vector(CTX3, 9, k).reshape(-1) @ powers)
        assert o.position(pid) >= 0


def test_orbit_q_invariance(pair932):
    o = orbit([pair932.x, pair932.y], unit_vector(CTX3, 9, 0))
    base_q = quadratic_value(pair932.space, o.vector(0))
    step = max(1, o.size // 200)
    for pos in range(0, o.size, step):
        assert quadratic_value(pair932.space, o.vector(pos)) == base_q


def test_orbit_transversal_maps_root_to_point(pair932):
    o = orbit([pair932.x, pair932.y], unit_vector(CTX3, 9, 0))
    rng = random.Random(3)
    for pos in [0, 1, o.size - 1] + [rng.randrange(o.size) for _ in range(12)]:
        u = o.transversal(pos)
        assert np.array_equal(u @ unit_vector(CTX3, 9, 0), o.vector(pos))


def test_orbit_discovery_is_deterministic(pair932):
    a = orbit([pair932.x, pair932.y], unit_vector(CTX3, 9, 0))
    b = orbit([pair932.x, pair932.y], unit_vector(CTX3, 9, 0))
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.parent, b.parent)


def _orbit_bfs_py(gens, start, p, space, cap):
    """Reference BFS, point-major order: the independent oracle for the
    frontier-batched production kernel `_kernels.orbit_bfs`."""
    n_coords = start.shape[0]
    n_gens = gens.shape[0]
    visited = np.full(space, -1, np.int32)
    max_pts = cap if cap < space else space
    ids = np.empty(max_pts, np.int64)
    parent = np.empty(max_pts, np.int32)
    genlab = np.empty(max_pts, np.int16)

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
                if count >= max_pts:
                    return 1, count, ids[:count], parent[:count], genlab[:count], visited
                visited[nid] = count
                ids[count] = nid
                parent[count] = head
                genlab[count] = gi
                count += 1
        head += 1
    return 0, count, ids[:count], parent[:count], genlab[:count], visited


def _point_major_orbit(gens, v):
    """The reference point-major BFS, run on the inputs orbit() builds."""
    ctx = gens[0].ctx
    flat = np.ascontiguousarray(
        np.stack([_block_form(ctx, g.data) for g in gens]), dtype=np.int64)
    start = np.ascontiguousarray(np.asarray(v, dtype=np.int64).reshape(-1) % ctx.p)
    space = ctx.p ** (gens[0].rows * ctx.f)
    status, count, ids, parent, genlab, visited = _orbit_bfs_py(
        flat, start, ctx.p, space, ORBIT_CAP)
    assert status == 0 and count == ids.size
    return ids, visited


def test_orbit_backends_agree(pair932):
    gens = [pair932.x, pair932.y]
    v = unit_vector(CTX3, 9, 0)
    ref_ids, ref_visited = _point_major_orbit(gens, v)
    np_ = orbit(gens, v)
    assert ref_ids.size == np_.size
    assert np.array_equal(np.sort(ref_ids), np.sort(np_.ids))
    assert np.array_equal(ref_visited >= 0, np_.visited >= 0)


def _orbit_bfs_frontier_py(gens, start, p, space, cap):
    """Plain-Python frontier-batched BFS: for each frontier, for each
    generator, for each frontier position, append the image if it is new.
    The exact discovery order `_kernels.orbit_bfs` must reproduce."""
    n_coords = start.shape[0]
    rows = [[[int(e) for e in row] for row in g] for g in gens]
    visited = np.full(space, -1, np.int32)
    max_pts = min(cap, space)

    def code(vec):
        return sum(d * p ** k for k, d in enumerate(vec))

    def image(g, pt):
        vec = [(pt // p ** k) % p for k in range(n_coords)]
        return code([sum(a * b for a, b in zip(row, vec)) % p for row in g])

    ids, parent, genlab = [code(int(d) for d in start)], [-1], [-1]
    visited[ids[0]] = 0

    def result(status):
        return (status, np.array(ids, np.int64), np.array(parent, np.int32),
                np.array(genlab, np.int16), visited)

    lo = 0
    while lo < len(ids):
        hi = len(ids)
        for gi, g in enumerate(rows):
            for pos in range(lo, hi):
                nid = image(g, ids[pos])
                if visited[nid] >= 0:
                    continue
                if len(ids) >= max_pts:
                    return result(1)
                visited[nid] = len(ids)
                ids.append(nid)
                parent.append(pos)
                genlab.append(gi)
        lo = hi
    return result(0)


def _assert_same_bfs(got, want):
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


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
    cap = data.draw(st.one_of(st.just(ORBIT_CAP), st.integers(1, space)), label="cap")
    rng = np.random.default_rng(seed)
    gens = []
    while len(gens) < n_gens:
        m = Matrix(ctx, rng.integers(0, p, size=(n, n, f)))
        if m.det().any():
            gens.append(_block_form(ctx, m.data))
    gens = np.stack(gens)
    start = rng.integers(0, p, size=n * f)
    want = _orbit_bfs_frontier_py(gens, start, p, space, cap)
    _assert_same_bfs(orbit_bfs(gens, start, p, space, cap), want)


_LARGEST_PRIME = 4194301  # the largest prime below DENSE_CAP = 2^22


@settings(derandomize=True, max_examples=12, deadline=None)
@given(exps=st.lists(st.sampled_from([(_LARGEST_PRIME - 1) // d for d in
                                      (1, 2, 3, 4, 11, 31, 41, 300, 1271, 4100)]),
                     min_size=1, max_size=3),
       base=st.integers(2, _LARGEST_PRIME - 1), start=st.integers(1, _LARGEST_PRIME - 1),
       cap=st.integers(1, 3000))
def test_orbit_bfs_prime_field_line(exps, base, start, cap):
    """N = 1 at the largest prime the dense table admits: digits are
    wider than the unpacking tables, and every orbit here hits the cap or
    closes under scalars of small order."""
    p = _LARGEST_PRIME
    assert p < DENSE_CAP < 2 * p
    gens = np.array([[[pow(base, e, p)]] for e in exps], np.int64)
    start = np.array([start], np.int64)
    want = _orbit_bfs_frontier_py(gens, start, p, p, cap)
    _assert_same_bfs(orbit_bfs(gens, start, p, p, cap), want)


def test_orbit_bfs_unpack_tables_bounded():
    for p in _BFS_PRIMES + (2039, 2053):
        n_coords = 1
        while p ** (n_coords + 1) <= DENSE_CAP:
            n_coords += 1
            for shift, mask, table in _kernels._unpack_tables(p, n_coords):
                assert table.size == mask + 1 <= min(1 << 12, p ** n_coords)


def test_orbit_cap(pair932):
    with pytest.raises(OrbitCapExceeded):
        orbit([pair932.x, pair932.y], unit_vector(CTX3, 9, 0), cap=100)


def test_orbit_dimension_mismatch(pair932):
    with pytest.raises(DimensionMismatch):
        orbit([pair932.x], unit_vector(CTX3, 11, 0))
    with pytest.raises(DimensionMismatch):
        orbit([pair932.x, Matrix.identity(CTX3, 11)], unit_vector(CTX3, 9, 0))


def test_orbit_state_space_cap():
    pair = build_pair(25, CTX3, 1)
    with pytest.raises(StateSpaceTooLarge):
        orbit([pair.x], unit_vector(CTX3, 25, 0))


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

    space = OrthoSpace(n=3, ctx=CTX3, J=Matrix.identity(CTX3, 3), eps="circ")
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


def test_chain_rejects_outsider(chain932):
    # the forced parameter's involution has nontrivial spinor norm, so it
    # lies outside the certified kernel subgroup and cannot sift away
    outsider = build_pair(9, CTX3, 1, force=True).x
    assert not in_omega(gram_matrix("A", 9, CTX3), outsider).ok
    assert chain932.sift(outsider) is not None


def test_chain_budget_exhaustion(pair932):
    with pytest.raises(BudgetExceeded):
        stabilizer_chain([pair932.x, pair932.y], target=None, seed=1,
                         budget_seconds=1e-9)


def test_chain_transversals_sampled(chain932):
    rng = random.Random(23)
    for lv in chain932.levels:
        for pos in {0, lv.orbit.size - 1, rng.randrange(lv.orbit.size)}:
            u = lv.u(pos)
            assert np.array_equal(u @ lv.base_vec, lv.orbit.vector(pos))


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
        for pos in {0, size - 1, size // 2} | {rng.randrange(size) for _ in range(6)}:
            u, u_inv = lv.u(pos), lv.u_inv(pos)
            assert (u_inv @ u).is_identity()
            assert np.array_equal(u @ lv.base_vec, lv.orbit.vector(pos))
            assert np.array_equal(u_inv @ lv.orbit.vector(pos), lv.base_vec)


def test_targeted_build_memoizes_few_transversals(chain95):
    chain, memos = chain95
    for lv, (n_u, n_u_inv) in zip(chain.levels, memos):
        # an eager table holds one matrix per orbit point
        assert n_u + n_u_inv <= 2 + lv.orbit.size // 4, (lv.orbit.size, n_u, n_u_inv)
    assert sum(n_u + n_u_inv for n_u, n_u_inv in memos) < chain.orbit_sizes[0] // 100


def test_memo_cap_keeps_the_chain(pair932, chain932, monkeypatch):
    monkeypatch.setattr(certify_mod, "_TRANSVERSAL_CACHE_LIMIT", 100)
    capped = stabilizer_chain([pair932.x, pair932.y], target=None, seed=53251)
    assert capped.verified
    assert capped.order == chain932.order
    assert capped.orbit_sizes == chain932.orbit_sizes
    for u, v in zip(capped.base, chain932.base):
        assert np.array_equal(u, v)
    for lv in capped.levels:
        assert len(lv._u) <= 100 and len(lv._u_inv) <= 100
    assert capped.levels[0].orbit.size > 100


def test_random_elements_keep_inverses_and_stream(pair932):
    gens = (pair932.x, pair932.y)
    stream = _RandomElements(gens, 17)
    drawn = [next(stream) for _ in range(20)]
    for slot, inv in zip(stream.slots, stream.slot_invs):
        assert (slot @ inv).is_identity()
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


def test_certify_restricted_needs_tail_family(pair932):
    with pytest.raises(WrongCase):
        certify_generation(pair932, restrict_to_s9=True)


def test_certify_forced_pair_documents_outcome():
    # non-admissible parameter: no containment, chain fully verified; the
    # outcome lands on the full special orthogonal group, twice the target
    res = certify_generation(build_pair(9, CTX3, 1, force=True), seed=53251)
    assert res.computed_order == 2 * res.target_order
    assert res.verdict == "Inconclusive"


def test_certify_budget_inconclusive(pair932):
    res = certify_generation(pair932, seed=53251, budget_seconds=1e-9)
    assert res.verdict == "Inconclusive"
    assert res.target_order == omega_order(9, "circ", 3)
    assert res.computed_order >= 1
