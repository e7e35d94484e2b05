"""Acceptance criteria, one test per criterion, one printed line each.

Every check is exact: zero tolerance, equality of canonical forms. Each
test records a single "ACCEPTANCE k: ..." verdict line; the conftest
terminal-summary hook prints the board after the run, outside output
capture, so the verdicts are visible in any log. Criterion 5 is
documented as a FAIL: its weight-8 fixed-space claim contradicts
characteristic-p Jordan theory, and the companion xfail test records the
claim as written. Every other criterion passes.
"""

import random
import time
from itertools import product

import numpy as np
import pytest

from omega23.certify import certify_generation
from omega23.cli import _enumerate_so
from omega23.fields import elem_to_json, field_from_prime_power, make_field
from omega23.forms import (OrthoSpace, in_omega, isotropic_count,
                           omega_order, witt_type)
from omega23.generators import build_pair, search_a
from omega23.linalg import Matrix, eigenspace
from omega23.verify import (hermitian_rep, load_claims, sym_power_rep,
                            verify_caseA_identities, verify_caseB_identities,
                            verify_caseB_closed_forms_all_a,
                            verify_order_claims, verify_structural)

GRID_N = (9, 11, 12, 13, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25)
GRID_Q = (3, 5, 7, 9, 11, 13, 25, 27)


CTX = {q: field_from_prime_power(q) for q in GRID_Q}


# ---------------------------------------------------------------------------


def test_criterion_1_structural_grid(acceptance_line):
    t0 = time.perf_counter()
    failures = []
    for n, q in product(GRID_N, GRID_Q):
        report = verify_structural(build_pair(n, CTX[q]))
        if not report.ok:
            failures.append((n, q))
    elapsed = time.perf_counter() - t0
    status = "PASS" if not failures else "FAIL"
    acceptance_line(1, status,
          f"structural battery green at {len(GRID_N) * len(GRID_Q)} grid points "
          f"(involution, order three, form preservation, determinant, spinor "
          f"classes) in {elapsed:.1f}s" if not failures else
          f"structural failures at {failures}")
    assert not failures
    assert elapsed < 60


def test_criterion_2_case_a_identities(acceptance_line):
    t0 = time.perf_counter()
    failures = []
    points = 0
    for n in (9, 11, 13, 17):
        for q in (3, 5, 7, 9, 11, 13):
            ctx = CTX[q]
            for v in search_a(n, ctx, all=True).values:
                report = verify_caseA_identities(
                    build_pair(n, ctx, elem_to_json(ctx, v)))
                points += 1
                if not report.ok:
                    failures.append((n, q, elem_to_json(ctx, v)))
    elapsed = time.perf_counter() - t0
    status = "PASS" if not failures else "FAIL"
    acceptance_line(2, status,
          f"monomial-family identities (charpoly, trace, two-case minimal "
          f"polynomial, bireflection dimension, reachability, fixed lines, "
          f"trace pair) exact at {points} (n,q,a) points in {elapsed:.1f}s"
          if not failures else f"case-A failures at {failures}")
    assert not failures
    assert elapsed < 120


def test_criterion_3_case_b_identities(acceptance_line):
    t0 = time.perf_counter()
    failures = []
    battery_points = 0
    for n in (12, 15, 16, 18, 20, 21):
        for q in GRID_Q:
            report = verify_caseB_identities(build_pair(n, CTX[q]))
            battery_points += 1
            if not report.ok:
                failures.append((n, q))
    # exceptional fixed dimension 7 at the a^2 = 3 point
    report = verify_caseB_identities(build_pair(12, CTX[13], 4, force=True))
    battery_points += 1
    if not report.ok:
        failures.append((12, 13, 4))
    sweep_points = 0
    for n in (12, 15):
        for q in GRID_Q:
            report = verify_caseB_closed_forms_all_a(n, CTX[q])
            sweep_points += sum(1 for c in report.checks)
            if not report.ok:
                failures.append(("all-a", n, q))
    elapsed = time.perf_counter() - t0
    status = "PASS" if not failures else "FAIL"
    acceptance_line(3, status,
          f"tail-family identities (commutator charpoly, entrywise curvature "
          f"block with even-family correction, cube-root cycles, fixed "
          f"dimensions incl. the forced a^2=3 point, determinant closed forms "
          f"over every nonzero a, restricted traces) green: {battery_points} "
          f"battery points + {sweep_points} closed-form rows in {elapsed:.1f}s"
          if not failures else f"case-B failures at {failures}")
    assert not failures
    assert elapsed < 180


def test_criterion_4_order_claims_table(acceptance_line):
    t0 = time.perf_counter()
    claims = load_claims()
    report = verify_order_claims(claims)
    elapsed = time.perf_counter() - t0
    bad = [c.name for c in report.checks if c.status == "fail"]
    status = "PASS" if not bad else "FAIL"
    acceptance_line(4, status,
          f"all {len(claims)} transcribed order claims hold (orders 156 and "
          f"41, prime-divisor bounds, per-parameter branches, even-family "
          f"rows) in {elapsed:.1f}s" if not bad else f"failing rows: {bad}")
    assert len(claims) == 134
    assert not bad
    assert elapsed < 120


def test_criterion_5_representation_checks(acceptance_line):
    t0 = time.perf_counter()
    # (a) weight-2 representation equals the printed 3x3 formula entrywise
    formula_points = 0
    for q in (3, 5, 7, 9):
        ctx = CTX[q]
        rng = random.Random(q)
        for _ in range(100):
            g = _rand_invertible(ctx, rng)
            assert sym_power_rep(ctx, g, 2) == _printed_sym_square(ctx, g)
            formula_points += 1
    # (b) fixed space of the transvection image: measured reality
    d8 = {}
    herm = {}
    for q in (5, 7, 9):
        ctx = CTX[q]
        u = Matrix.from_rows(ctx, [[1, 1], [0, 1]])
        d8[q] = len(eigenspace(sym_power_rep(ctx, u, 8), ctx.coerce(1)))
        ctx2 = make_field(ctx.p, 2 * ctx.f)
        u2 = Matrix.from_rows(ctx2, [[1, 1], [0, 1]])
        h = hermitian_rep(ctx2, u2)
        herm[q] = len(eigenspace(h, h.ctx.coerce(1)))
    assert herm == {5: 3, 7: 3, 9: 3}
    # the claim "dimension 1" is impossible below p = 11: an order-p
    # unipotent on 9 dimensions has at least ceil(9/p) Jordan blocks
    assert d8 == {5: 2, 7: 2, 9: 3}
    for q in (5, 7, 9):
        assert d8[q] >= -(-9 // CTX[q].p)
    for q in (11, 13):  # the claim does hold once p exceeds the weight
        ctx = CTX[q]
        u = Matrix.from_rows(ctx, [[1, 1], [0, 1]])
        assert len(eigenspace(sym_power_rep(ctx, u, 8), ctx.coerce(1))) == 1
    # (c) form preservation for determinant +-1 inputs
    for q in (3, 5, 7, 9):
        ctx = CTX[q]
        rng = random.Random(17 * q)
        form = _split_form(ctx)
        for _ in range(15):
            g = _rand_det_pm1(ctx, rng)
            psi = sym_power_rep(ctx, g, 2)
            assert psi.transpose() @ form @ psi == form
    elapsed = time.perf_counter() - t0
    acceptance_line(5, "FAIL",
          f"weight-8 fixed space has dimension {d8} at q in (5,7,9), not 1: "
          f"an order-p unipotent on 9 dimensions has ceil(9/p) >= 2 Jordan "
          f"blocks for p <= 7 (and 3 for p = 3); dimension 1 does hold at "
          f"q in (11,13); every other check passes exactly (printed formula "
          f"on {formula_points} samples, hermitian fixed dimension 3, form "
          f"preservation) in {elapsed:.1f}s")
    assert elapsed < 30


@pytest.mark.xfail(
    strict=True,
    reason="the weight-8 dimension-1 claim requires p > 8; at q in (5,7,9) "
           "the fixed space has ceil(9/p) >= 2 dimensions")
def test_criterion_5_weight8_dimension_claim_as_written():
    for q in (5, 7, 9):
        ctx = CTX[q]
        u = Matrix.from_rows(ctx, [[1, 1], [0, 1]])
        assert len(eigenspace(sym_power_rep(ctx, u, 8), ctx.coerce(1))) == 1


def test_criterion_6_oracles(acceptance_line):
    t0 = time.perf_counter()
    # brute-force group orders and the index-two containment
    for q, so_expect in ((3, 24), (5, 120)):
        ctx = CTX[q]
        space = OrthoSpace(Matrix.identity(ctx, 3))
        so = _enumerate_so(ctx, 3)
        kernel = [g for g in so if in_omega(space, g).ok]
        assert len(so) == so_expect
        assert len(kernel) == omega_order(3, "circ", q)
        assert len(so) == 2 * len(kernel)
    assert omega_order(3, "circ", 3) == 12
    assert omega_order(3, "circ", 5) == 60
    # type dispatch against the isotropic-vector census
    census = 0
    for n in (2, 4, 6):
        for q in (3, 5, 7):
            ctx = CTX[q]
            space = OrthoSpace(Matrix.identity(ctx, n))
            count = isotropic_count(space)
            m = n // 2
            classified = {
                (q**m - 1) * (q**(m - 1) + 1): "plus",
                (q**m + 1) * (q**(m - 1) - 1): "minus",
            }[count]
            assert classified == witt_type(n, q)
            census += 1
    elapsed = time.perf_counter() - t0
    acceptance_line(6, "PASS",
          f"brute-force enumeration confirms orders 12 and 60 with index two "
          f"below the special orthogonal group, and the type dispatch matches "
          f"the isotropic census at {census} (n,q) points in {elapsed:.1f}s")
    assert elapsed < 120


def test_criterion_7_headline_certification(acceptance_line):
    t0 = time.perf_counter()
    headline = certify_generation(build_pair(9, CTX[3], 2), seed=53251)
    assert headline.verdict == "Generates"
    assert headline.computed_order == omega_order(9, "circ", 3)
    # stretch runs: reported, not gating
    full11 = certify_generation(build_pair(11, CTX[3]), seed=53251)
    restricted15 = certify_generation(build_pair(15, CTX[3]),
                                      restrict_to_s9=True, seed=53251)
    elapsed = time.perf_counter() - t0
    acceptance_line(7, "PASS",
          f"(9, q=3, a=2) certifies Generates with order "
          f"{headline.computed_order} in {elapsed:.1f}s total; stretch "
          f"(non-gating): full 11-dim {full11.verdict} "
          f"(order {full11.computed_order}), restricted 15-dim "
          f"{restricted15.verdict} (order {restricted15.computed_order})")
    assert elapsed < 600


def test_criterion_8_type_dispatch_table(acceptance_line):
    table = {(12, 3): "plus", (12, 5): "plus", (18, 3): "minus",
             (18, 5): "plus", (16, 7): "plus", (22, 7): "minus",
             (22, 13): "plus"}
    got = {key: witt_type(*key) for key in table}
    status = "PASS" if got == table else "FAIL"
    acceptance_line(8, status, f"type dispatch matches the published table at all "
                     f"{len(table)} rows" if got == table else
                     f"dispatch mismatches: {got}")
    assert got == table


def test_criterion_9_parameter_existence(acceptance_line):
    t0 = time.perf_counter()
    for n, q in product(GRID_N, GRID_Q):
        found = search_a(n, CTX[q])
        assert found.values, f"no admissible parameter at ({n}, {q})"
    # the extension-field counting inequalities, where the proofs invoke them
    for n, q in product(GRID_N, (25, 27)):
        assert search_a(n, CTX[q]).guaranteed, (n, q)
    case_a_q9_witnessed = 0
    for n in GRID_N:
        found = search_a(n, CTX[9], all=True)
        if n in (9, 11, 13, 17):
            # the margin inequality fails at q = 9 (1 > 4 is false) exactly
            # as the dimension-9 witness clause anticipates
            assert not found.guaranteed
            assert found.values
            case_a_q9_witnessed += 1
        else:
            assert found.guaranteed
    # at (9, F_9) the returned parameters are precisely the roots of t^2 + 1
    ctx9 = CTX[9]
    roots = search_a(9, ctx9, all=True).values
    assert len(roots) == 2
    minus_one = ctx9.neg(ctx9.coerce(1))
    for v in roots:
        assert np.array_equal(ctx9.mul(v, v), minus_one)
    elapsed = time.perf_counter() - t0
    acceptance_line(9, "PASS",
          f"admissible parameters exist on the whole grid; counting "
          f"inequalities hold at q in (25, 27) for every n; at q = 9 the "
          f"margin inequality fails on {case_a_q9_witnessed} odd low "
          f"dimensions and the explicit square-root-of-minus-one witness "
          f"takes over, exactly two roots at (9, 9); {elapsed:.1f}s")
    assert elapsed < 60


# ---------------------------------------------------------------------------
# helpers for criterion 5


def _rand_invertible(ctx, rng):
    while True:
        g = Matrix.from_rows(ctx, [
            [ctx.from_index(rng.randrange(ctx.q)) for _ in range(2)]
            for _ in range(2)])
        if g.det().any():
            return g


def _rand_det_pm1(ctx, rng):
    g = _rand_invertible(ctx, rng)
    sign = ctx.coerce(1) if rng.random() < 0.5 else ctx.neg(ctx.coerce(1))
    c = ctx.mul(ctx.inv(g.det()), sign)
    d = g.data.copy()
    d[0, 0] = ctx.mul(d[0, 0], c)
    d[0, 1] = ctx.mul(d[0, 1], c)
    return Matrix(ctx, d)


def _printed_sym_square(ctx, g):
    b1, b2 = ctx.coerce(tuple(g.data[0, 0])), ctx.coerce(tuple(g.data[0, 1]))
    b3, b4 = ctx.coerce(tuple(g.data[1, 0])), ctx.coerce(tuple(g.data[1, 1]))
    two = ctx.coerce(2)
    return Matrix.from_rows(ctx, [
        [ctx.mul(b1, b1), ctx.mul(b1, b2), ctx.mul(b2, b2)],
        [ctx.mul(two, ctx.mul(b1, b3)),
         (ctx.mul(b1, b4) + ctx.mul(b2, b3)) % ctx.p,
         ctx.mul(two, ctx.mul(b2, b4))],
        [ctx.mul(b3, b3), ctx.mul(b3, b4), ctx.mul(b4, b4)],
    ])


def _split_form(ctx):
    d = Matrix.from_rows(ctx, [[0, 0, 1], [0, 0, 0], [1, 0, 0]]).data.copy()
    d[1, 1] = ctx.neg(ctx.inv(ctx.coerce(2)))
    return Matrix(ctx, d)
