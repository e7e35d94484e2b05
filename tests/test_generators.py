import hashlib
import itertools
import json
import os
import subprocess
import sys
import types
import zlib
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omega23 import generators
from omega23.fields import make_field, field_from_prime_power, subfield_degree, is_square
from omega23.forms import in_omega, is_isometry, quadratic_value
from omega23.generators import (
    CaseTag,
    DivisionByZero,
    GenPair,
    NoAdmissibleParameter,
    NotAdmissible,
    TranscriptionError,
    Unsupported,
    WrongCase,
    ZeroParameter,
    admissible,
    build_pair,
    classify,
    commutator,
    default_a,
    pair_to_json,
    pair_to_text,
    s9_coords,
    search_a,
    special_subspaces,
    theta_block,
    _figures,
    _nongen_bound,
    _perm_matrix,
)
from omega23.linalg import Matrix, restrict, rref, unit_vector
from omega23.verify import _A_BATTERY, _cached_pair, verify_structural

GRID_N = [9, 11, 12, 13] + [n for n in range(15, 26) if n != 14]
GRID_Q = [3, 5, 7, 9, 11, 13, 25, 27]


# --- classification ---------------------------------------------------------

def test_classify_cases():
    assert classify(9) == CaseTag("A")
    assert classify(11) == CaseTag("A")
    assert classify(13) == CaseTag("A")
    assert classify(17) == CaseTag("A")
    for n, m, r in [(15, 2, 0), (18, 3, 0), (19, 3, 1), (21, 4, 0), (24, 5, 0), (25, 5, 1)]:
        tag = classify(n)
        assert tag.case == "B5" and (tag.m, tag.r) == (m, r)
        assert 3 * m + 9 + r == n
    for n, m, r in [(12, 1, 0), (16, 2, 1), (20, 3, 2)]:
        tag = classify(n)
        assert tag.case == "B6" and (tag.m, tag.r) == (m, r)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 8, 10, 14])
def test_classify_unsupported(n):
    with pytest.raises(Unsupported) as exc:
        classify(n)
    assert f"dimension {n} is not supported" in str(exc.value)


def test_case_a_is_the_keys_of_its_two_tables():
    """The construction's and the battery's case-A tables list the same
    dimensions, and classify puts exactly those in case A."""
    assert generators._CASE_A.keys() == _A_BATTERY.keys()
    case_a = set()
    for n in range(-3, 41):
        try:
            if classify(n).case == "A":
                case_a.add(n)
        except Unsupported:
            pass
    assert case_a == generators._CASE_A.keys()


def _gram_layout(n, head, tail):
    j = np.zeros((n, n), dtype=np.int64)
    j[:head, :head] = np.eye(head, dtype=np.int64)
    j[head:, head:] = tail
    return j


def test_gram_matrix_follows_classify():
    ctx = make_field(3, 1)
    anti3 = np.fliplr(np.eye(3, dtype=np.int64))
    swap4 = np.block([[np.zeros((4, 4), np.int64), np.eye(4, dtype=np.int64)],
                      [np.eye(4, dtype=np.int64), np.zeros((4, 4), np.int64)]])
    for n in range(-3, 41):
        try:
            case = classify(n).case
        except Unsupported as exc:
            with pytest.raises(Unsupported) as gram_exc:
                generators.gram_matrix(n, ctx)
            assert str(gram_exc.value) == str(exc)
            continue
        gram = generators.gram_matrix(n, ctx).J
        assert gram.det().tolist() == Matrix(ctx, gram.data).det().tolist(), n
        j = gram.data[:, :, 0]
        layout_a = _gram_layout(n, n - 3, anti3)
        assert np.array_equal(j, layout_a) == (case == "A"), n
        if case != "A":
            assert np.array_equal(j, _gram_layout(n, n - 8, swap4)), n


# --- figure data ------------------------------------------------------------

def test_figure_checksum_loads():
    figs = _figures()
    assert set(figs) >= {"xbar", "ybar", "xtilde", "ytilde", "theta0",
                         "theta_correction_even_dim"}
    assert len(figs["theta0"]) == 8


def test_figure_file_matches_both_checksums():
    # Loading checks the CRC-32; the SHA-256 the file also records is
    # checked here, over the same canonical bytes.
    blob = json.loads(resources.files("omega23").joinpath("data/figures.json")
                      .read_text(encoding="utf-8"))
    canon = json.dumps(blob["figures"], sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(canon).hexdigest() == blob["sha256"]
    assert zlib.crc32(canon) == blob["crc32"]


def test_edited_figure_entry_is_refused(monkeypatch):
    def edited(raw):
        blob = json.loads(raw)
        blob["figures"]["theta0"][0][0][0] += 1
        return blob

    monkeypatch.setattr(generators, "json", types.SimpleNamespace(loads=edited, dumps=json.dumps))
    _figures.cache_clear()
    try:
        with pytest.raises(TranscriptionError, match="checksum"):
            _figures()
    finally:
        _figures.cache_clear()


def test_figure_checksum_loads_no_openssl():
    # The check runs on zlib, which numpy has already loaded; hashlib
    # would load OpenSSL's _hashlib, about 3.5 MB resident.
    probe = ("import sys, omega23.cli\n"
             "from omega23 import generators\n"
             "generators._figures()\n"
             "print('_hashlib' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


# --- admissibility ----------------------------------------------------------

def test_minus_one_admissible_case_a_prime_fields():
    for n in (9, 11, 13, 17):
        for p in (3, 5, 7, 11, 13):
            ctx = make_field(p, 1)
            assert admissible(n, ctx, -1).ok


def test_case_a_reasons():
    ctx3 = make_field(3, 1)
    res = admissible(9, ctx3, 1)  # -1 = 2 is not a square mod 3
    assert not res.ok and "minus-a-not-a-square" in res.reasons
    ctx11 = make_field(11, 1)
    res = admissible(9, ctx11, 8)  # 8^2 - 8 - 1 = 0 mod 11
    assert not res.ok and res.reasons == ("exclusion-polynomial-vanishes",)
    ctx9 = make_field(3, 2)
    res = admissible(9, ctx9, 2)  # 2 lies in the prime field
    assert not res.ok and "a-generates-proper-subfield" in res.reasons


def test_case_b6_excluded_squares():
    ctx13 = make_field(13, 1)
    res = admissible(12, ctx13, 4)  # 16 = 3
    assert not res.ok and res.reasons == ("a-squared-in-excluded-set",)
    ctx7 = make_field(7, 1)
    assert not admissible(12, ctx7, 3).ok  # 9 = 2
    assert not admissible(16, ctx7, 4).ok  # 16 = 2
    assert admissible(12, ctx7, 1).ok


def test_case_b6_subfield_clause():
    ctx9 = make_field(3, 2)
    # a of multiplicative order 8 generates, a^2 has order 4 so stays out of F_3
    good = [ctx9.from_index(i) for i in range(1, 9)
            if admissible(12, ctx9, ctx9.from_index(i)).ok]
    assert len(good) == 4
    for a in good:
        assert subfield_degree(ctx9, ctx9.mul(a, a)) == 2


def test_zero_parameter_rejected():
    ctx = make_field(5, 1)
    with pytest.raises(ZeroParameter):
        admissible(9, ctx, 0)
    with pytest.raises(ZeroParameter):
        build_pair(15, ctx, 0)
    with pytest.raises(DivisionByZero):
        build_pair(9, ctx, 0)


# --- parameter search -------------------------------------------------------

def test_search_a_nonempty_whole_grid():
    for n in GRID_N:
        for q in GRID_Q:
            ctx = field_from_prime_power(q)
            res = search_a(n, ctx)
            assert res.values, (n, q)
            assert admissible(n, ctx, res.values[0]).ok


def test_search_a_f9_case_a_returns_generator_root():
    ctx = make_field(3, 2)
    res = search_a(9, ctx)
    a = res.values[0]
    assert a.tolist() == [0, 1]  # the class of t, a square root of -1
    assert np.array_equal(ctx.mul(a, a), ctx.coerce(-1))
    # counting inequality is too weak at q=9 even though a witness exists
    assert not res.guaranteed
    assert res.inequality == "case-A-margin"


def test_search_a_guarantees():
    for q in (25, 27):
        ctx = field_from_prime_power(q)
        for n in (9, 11, 13, 17):
            assert search_a(n, ctx).guaranteed
    for q in GRID_Q:
        ctx = field_from_prime_power(q)
        for n in (15, 18, 12, 16, 20, 21):
            res = search_a(n, ctx)
            assert res.guaranteed, (n, q)


def test_nongen_bound_is_sound():
    # the bound must dominate the true number of proper-subfield elements
    for q in (9, 25, 27):
        ctx = field_from_prime_power(q)
        actual = sum(
            1 for i in range(q)
            if subfield_degree(ctx, ctx.from_index(i)) < ctx.f
        )
        assert actual <= _nongen_bound(ctx.p, ctx.f)


def test_search_a_all_counts():
    assert len(search_a(15, make_field(3, 2), all=True).values) == 6
    assert len(search_a(12, make_field(3, 2), all=True).values) == 4
    assert len(search_a(12, make_field(3, 3), all=True).values) == 24
    assert len(search_a(15, make_field(3, 3), all=True).values) == 24


def test_search_results_compare_and_hash_at_f_above_one():
    """Results hold read-only (f,) arrays; == and hash() work by identity."""
    ctx = make_field(3, 2)
    r1, r2 = search_a(9, ctx, all=True), search_a(9, ctx, all=True)
    assert r1 == r1 and r1 != r2 and hash(r1) != hash(r2)
    assert [v.tolist() for v in r1.values] == [v.tolist() for v in r2.values]
    assert not any(v.flags.writeable for v in r1.values)
    a = default_a(9, make_field(3, 3))
    assert a.flags.writeable and np.array_equal(a, search_a(9, make_field(3, 3)).values[0])


# --- defaults ---------------------------------------------------------------

def test_default_a_values():
    assert default_a(9, make_field(5, 1)).tolist() == [4]
    assert default_a(9, make_field(3, 2)).tolist() == [0, 1]
    assert default_a(15, make_field(7, 1)).tolist() == [1]
    assert default_a(12, make_field(11, 1)).tolist() == [1]
    ctx9 = make_field(3, 2)
    b5_default = default_a(15, ctx9)
    assert subfield_degree(ctx9, b5_default) == 2
    for n in GRID_N:
        for q in (3, 9, 13):
            ctx = field_from_prime_power(q)
            assert admissible(n, ctx, default_a(n, ctx)).ok


# --- pair construction ------------------------------------------------------

def test_pair_parameter_is_a_read_only_vector():
    ctx = make_field(3, 2)
    given = np.array([0, 1], dtype=np.int64)
    pair = build_pair(9, ctx, given)
    assert pair.a.tolist() == [0, 1] and not pair.a.flags.writeable
    given[0] = 2  # the pair keeps its own copy
    assert pair.a.tolist() == [0, 1]
    assert build_pair(9, ctx) == pair != build_pair(9, ctx, [0, 2])


@pytest.mark.parametrize("n,q", [(9, 3), (9, 9), (11, 5), (13, 7), (17, 3),
                                 (15, 3), (18, 5), (19, 3), (12, 3), (16, 5),
                                 (20, 3), (25, 3)])
def test_build_pair_structure(n, q):
    ctx = field_from_prime_power(q)
    pair = build_pair(n, ctx)
    ident = Matrix.identity(ctx, n)
    assert pair.x @ pair.x == ident
    assert pair.y @ pair.y @ pair.y == ident
    assert pair.y != ident
    assert is_isometry(pair.space, pair.x)
    assert is_isometry(pair.space, pair.y)
    assert np.array_equal(pair.x.det(), ctx.one)
    assert np.array_equal(pair.y.det(), ctx.one)
    assert in_omega(pair.space, pair.x).ok
    assert in_omega(pair.space, pair.y).ok


# case A, B5 and B6 over prime and extension fields, and one forced pair
@pytest.mark.parametrize("n,q,a,force", [
    (9, 3, None, False), (11, 25, None, False), (13, 7, None, False),
    (15, 27, None, False), (18, 5, None, False), (12, 9, None, False),
    (16, 3, None, False), (9, 3, 1, True),
])
def test_build_pair_keeps_the_generators_inverses(n, q, a, force):
    ctx = field_from_prime_power(q)
    pair = build_pair(n, ctx, a, force=force)
    assert pair.x._inv is not None and pair.y._inv is not None
    for g in (pair.x, pair.y):
        kept = g.inverse()
        assert kept == Matrix(ctx, g.data).inverse()
        assert kept is not g
        assert kept.inverse() == g
        assert kept.inverse() is not g
        assert kept.inverse().blocks is g.blocks
        assert kept._det is None
    assert pair.x.inverse().blocks is pair.x.blocks


def test_a_pair_from_its_constructor_keeps_no_inverse():
    """verify_structural forms x^2 and y^3 itself: it trusts no kept inverse."""
    ctx = make_field(5, 1)
    built = build_pair(9, ctx)
    x, y = Matrix(ctx, built.x.data), Matrix(ctx, built.y.data)
    pair = GenPair(x, y, built.a)
    assert pair.x._inv is None and pair.y._inv is None
    assert verify_structural(pair).ok
    swapped = {c.name: c.status for c in verify_structural(GenPair(y, x, built.a)).checks}
    assert swapped["x-squared-identity"] == swapped["y-cubed-identity"] == "fail"


@pytest.mark.parametrize("n,q", [(9, 3), (12, 3), (15, 9)])
def test_a_pair_reads_its_dimension_field_case_and_form_off_x(n, q):
    ctx = field_from_prime_power(q)
    built = build_pair(n, ctx)
    pair = GenPair(Matrix(ctx, built.x.data), Matrix(ctx, built.y.data), built.a)
    assert (pair.n, pair.ctx, pair.tag) == (built.n, built.ctx, built.tag) == (n, ctx, classify(n))
    assert pair.space.J == built.space.J
    assert pair.space.eps == built.space.eps
    assert pair == built


def test_a_pair_in_an_unsupported_dimension_has_no_case_or_form():
    ctx = make_field(3, 1)
    ident = Matrix.identity(ctx, 10)
    pair = GenPair(ident, ident, ctx.one)
    assert (pair.n, pair.ctx) == (10, ctx)
    with pytest.raises(Unsupported):
        pair.tag
    with pytest.raises(Unsupported):
        pair.space


def test_build_pair_rejects_inadmissible_without_force():
    ctx = make_field(3, 1)
    with pytest.raises(NotAdmissible, match=r"^a=1 fails admissibility for n=9: "
                                            r"minus-a-not-a-square$"):
        build_pair(9, ctx, 1)
    with pytest.raises(NotAdmissible, match=r"^a=\[1, 1\] fails admissibility"):
        build_pair(9, make_field(3, 2), [1, 1])
    pair = build_pair(9, ctx, 1, force=True)
    # x then carries a nontrivial spinor norm: that is exactly the criterion
    verdict = in_omega(pair.space, pair.x)
    assert not verdict.ok and "spinor-norm-nontrivial" in verdict.reasons


def test_x3_spinor_criterion_tracks_minus_a():
    for q in (3, 5, 7, 11):
        ctx = make_field(q, 1)
        for a in range(1, q):
            pair = build_pair(9, ctx, a, force=True)
            member = in_omega(pair.space, pair.x).ok
            assert member == is_square(ctx, ctx.coerce(-a))


def test_build_pair_unsupported_dimension():
    ctx = make_field(3, 1)
    with pytest.raises(Unsupported):
        build_pair(14, ctx)


def test_scott_bound_holds_with_equality_on_the_grid():
    """Scott (Ann. of Math. 105, 1977): if g1 g2 g3 = 1 and <g1, g2, g3> acts
    irreducibly and nontrivially on V, then sum dim [V, g_i] >= 2 dim V. For
    (x, y, (xy)^-1), dim [V, g] = rank(g - 1), and at every grid point the
    pair meets the bound with equality: each of x, y and xy has the largest
    fixed space that irreducibility allows, so a construction fault that
    enlarges one (a 3-cycle of y dropped, say) fails here."""
    for n, q in itertools.product(GRID_N, GRID_Q):
        pair = _cached_pair(n, q, None, False)
        one = Matrix.identity(pair.ctx, n)
        ranks = [len(rref(pair.ctx, (g - one).data)[1]) for g in (pair.x, pair.y, pair.x @ pair.y)]
        assert sum(ranks) == 2 * n, (n, q, ranks)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 9), q=st.sampled_from([3, 9]))
def test_a_permutation_matrix_keeps_the_sign_elimination_gives(data, n, q):
    """Disjoint cycles cut from a random ordering, then up to two random
    cycles that may overlap them: a bijection keeps its sign, and any other
    list keeps nothing and has determinant 0."""
    ctx = field_from_prime_power(q)
    order = data.draw(st.permutations(range(1, n + 1)))
    cuts = sorted(data.draw(st.sets(st.integers(1, max(n - 1, 1)))) - {n})
    cycles = [tuple(order[i:j]) for i, j in zip([0, *cuts], [*cuts, n])]
    cycles += data.draw(st.lists(st.lists(st.integers(1, n), min_size=1, max_size=4),
                                 max_size=2))
    m = _perm_matrix(ctx, n, cycles)
    fresh = Matrix(ctx, m.data).det()
    if (m.data[:, :, 0].sum(axis=1) == 1).all():
        assert m._det is not None and m.det().tolist() == fresh.tolist()
    else:
        assert m._det is None and not fresh.any()


@pytest.mark.parametrize("q", [3, 27])
def test_the_sl4_check_refuses_a_lower_block_that_is_not_h_inverse_transpose(q):
    ctx = field_from_prime_power(q)
    xt = generators._instantiate(ctx, "xtilde", ctx.coerce(default_a(15, ctx)))
    generators._check_sl4_block(ctx, xt)
    for i, j in ((5, 5), (5, 8)):
        bad = xt.copy()
        bad[i, j] = (bad[i, j] + ctx.one) % ctx.p
        with pytest.raises(TranscriptionError, match=r"h\^\{-T\}"):
            generators._check_sl4_block(ctx, bad)


def test_the_kept_inverse_of_y_on_s9_is_its_inverse_on_the_grid():
    """restrict keeps y^-1[S9, S9], read off y's kept inverse y^2."""
    for n, q in itertools.product(GRID_N, GRID_Q):
        if classify(n).case == "A":
            continue
        pair = _cached_pair(n, q, None, False)
        y9 = restrict(pair.y, s9_coords(n))
        assert y9._inv is not None
        assert y9.inverse() == Matrix(pair.ctx, y9.data).inverse(), (n, q)


@pytest.mark.parametrize("n,q", [(9, 5), (11, 3), (13, 13), (17, 3), (25, 27)])
def test_pair_and_structural_battery_eliminate_no_generator(monkeypatch, n, q):
    """det x and det y come from rank(1 - g), det y1 and det J from their
    cycles, and in case A the sign of x's permutation part from its
    columns: no n x n determinant is eliminated."""
    eliminated = []
    orig = Matrix._eliminate_det

    def spy(m):
        eliminated.append(m)
        return orig(m)

    monkeypatch.setattr(Matrix, "_eliminate_det", spy)
    pair = build_pair(n, field_from_prime_power(q))
    assert verify_structural(pair).ok
    assert eliminated and max(m.rows for m in eliminated) < n


# --- tau and subspaces ------------------------------------------------------

def test_special_subspaces_wrong_case():
    pair = build_pair(9, make_field(3, 1))
    with pytest.raises(WrongCase):
        special_subspaces(pair)


@pytest.mark.parametrize("n,q", [(15, 3), (12, 5), (16, 3), (18, 3), (20, 3)])
def test_tau_block_structure(n, q):
    # tau = [x, y]^24 is diag(I_(n-8), theta) on the whole space, theta the
    # printed block; the case-B battery compares only the restriction to S9
    ctx = field_from_prime_power(q)
    pair = build_pair(n, ctx)
    theta = theta_block(ctx, pair.a, corrected=pair.tag.case == "B6")
    expect = Matrix.identity(ctx, n).data.copy()
    expect[n - 8:, n - 8:] = theta.data
    assert pair.s9_restrictions[2] == Matrix(ctx, expect)


def test_commutator_orientations_differ():
    pair = build_pair(15, make_field(13, 1), 1)
    x, y = pair.x, pair.y
    lhs = commutator(x, y)
    # the opposite orientation x y x^-1 y^-1 is the bracket of the inverses
    rhs = commutator(x.inverse(), y.inverse())
    assert rhs == x @ y @ x.inverse() @ y.inverse()
    assert lhs != rhs
    # swapping the arguments inverts the bracket
    assert commutator(y, x) == lhs.inverse()


def test_subspace_split_dimensions():
    for n in [15, 16, 18, 19, 20, 21, 22, 23, 24, 25]:
        ctx = make_field(3, 1)
        pair = build_pair(n, ctx)
        sub = special_subspaces(pair)
        coords = [i for grp in sub.A_summands + sub.B_summands + (sub.C,) for i in grp]
        assert sorted(coords) == list(range(n))
        assert len(sub.C) == 12
        assert sub.S9 == tuple(range(n - 9, n))


CASE_B_N = [n for n in range(15, 41) if classify(n).case != "A"]

# the A-summands' 0-based coordinates: the dimensions with their own layout,
# then one n of each class mod 6 (18, 25, 26, 21, 22, 29)
A_SUMMANDS_PINNED = {
    15: ((0, 2, 3),),
    16: ((0, 4), (1, 3)),
    19: ((0, 1, 3, 4), (2, 6, 7)),
    20: ((0, 1, 5, 7), (2, 3, 4, 8)),
    23: ((0, 1, 2, 3, 4, 5, 7, 8), (6, 10, 11)),
    18: ((0, 1, 2, 3, 5, 6),),
    25: ((0, 1, 3, 4), (2, 5, 6, 7, 9, 10)),
    26: ((0, 1, 2, 3, 4, 5, 7, 8), (6, 9, 10, 11, 13, 14)),
    21: ((0, 1, 2, 3, 5, 6),),
    22: ((0, 1, 3, 4), (2, 5, 6, 7, 9, 10)),
    29: ((0, 1, 2, 3, 4, 5, 7, 8), (6, 9, 10, 11, 13, 14)),
}


@pytest.mark.parametrize("n", sorted(A_SUMMANDS_PINNED))
def test_a_summands_are_pinned(n):
    pair = build_pair(n, make_field(3, 1))
    assert special_subspaces(pair).A_summands == A_SUMMANDS_PINNED[n]


@pytest.mark.parametrize("n", CASE_B_N)
def test_commutator_action_permutes_each_summand(n):
    sub = special_subspaces(build_pair(n, make_field(3, 1)))
    summands = sub.A_summands + sub.B_summands
    assert sorted(sub.action) == sorted(i for grp in summands for i in grp)
    for grp in summands:
        assert sorted(sub.action[i] for i in grp) == list(grp)
    for grp in sub.B_summands:  # a permutation of 3 points with no fixed point is a 3-cycle
        assert len(grp) == 3 and all(sub.action[i] != i for i in grp)
    assert sorted(i for grp in summands + (sub.C,) for i in grp) == list(range(n))


def test_special_subspaces_refuse_a_coordinate_listed_twice(monkeypatch):
    # n = 18 takes its A-summand from the generic table, at r = 0
    pair = build_pair(18, make_field(3, 1))
    special_subspaces(pair)
    monkeypatch.setattr(generators, "_A_GENERIC", {0: [[(1, 4, 3, 2, 7, 6), (7,)]]})
    with pytest.raises(TranscriptionError, match="partition"):
        special_subspaces(pair)


def test_subspaces_invariant_under_commutator():
    for n, q in [(15, 5), (16, 3), (19, 3), (20, 3), (21, 3), (24, 3)]:
        ctx = make_field(q, 1)
        pair = build_pair(n, ctx)
        g = commutator(pair.x, pair.y)
        sub = special_subspaces(pair)
        for basis in sub.A_summands + sub.B_summands + (sub.C,):
            restrict(g, list(basis))  # raises NotInvariant on failure


def test_subspaces_n12_degenerate():
    pair = build_pair(12, make_field(3, 1))
    sub = special_subspaces(pair)
    assert sub.A_summands == () and sub.B_summands == () and sub.C == ()
    assert len(sub.S9) == 9


def test_theta_block_correction_applies_only_even_family():
    ctx = make_field(5, 1)
    base = theta_block(ctx, 1, corrected=False)
    corr = theta_block(ctx, 1, corrected=True)
    assert base != corr
    diff_positions = {(i, j) for i in range(8) for j in range(8)
                      if not np.array_equal(base.data[i, j], corr.data[i, j])}
    assert diff_positions == {(0, 5), (0, 7), (1, 4), (1, 7), (3, 4), (3, 5)}


# --- serialization ----------------------------------------------------------

def test_pair_to_json_shape():
    pair = build_pair(11, make_field(5, 1))
    blob = pair_to_json(pair)
    assert blob["n"] == 11 and blob["case"] == "A" and blob["p"] == 5
    assert blob["a"] == 4  # -1 canonicalized
    assert len(blob["x"]["entries"]) == 11
    json.dumps(blob)  # must be JSON-serializable as-is


def test_pair_to_text_header():
    pair = build_pair(12, make_field(3, 1))
    text = pair_to_text(pair)
    assert text.startswith("n = 12, q = 3, case = B6")
    assert "x =" in text and "J =" in text
