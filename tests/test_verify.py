import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from omega23 import forms, generators
from omega23.fields import field_from_prime_power, make_field
from omega23.generators import WrongCase, build_pair
from omega23.linalg import Matrix, eigenspace, unit_vector
from omega23.verify import (
    Claim,
    Expectation,
    VerifyError,
    WrongExtensionDegree,
    _cached_pair,
    evaluate_claim_word,
    hermitian_rep,
    load_claims,
    sym_power_rep,
    verify_caseA_identities,
    verify_caseB_closed_forms_all_a,
    verify_caseB_identities,
    verify_order_claims,
    verify_structural,
)


def _pair(n, q, a=None, force=False):
    return build_pair(n, field_from_prime_power(q), a, force=force)


def _names(report):
    return [c.name for c in report.checks]


def _failing(report):
    return [(c.name, c.expected, c.actual) for c in report.checks if c.status == "fail"]


# --- structural battery ------------------------------------------------------

@pytest.mark.parametrize("n,q", [(9, 3), (11, 9), (12, 5), (15, 27), (17, 13), (22, 7)])
def test_structural_battery_green(n, q):
    report = verify_structural(_pair(n, q))
    assert report.ok, _failing(report)
    names = _names(report)
    assert "x-squared-identity" in names
    assert "y-cubed-identity" in names
    assert "x-preserves-form" in names and "y-preserves-form" in names


@pytest.mark.parametrize("n,q", [(9, 3), (12, 5)])
def test_pair_and_structural_battery_test_each_generator_once(count_calls, n, q):
    """build_pair and verify_structural share one membership per generator:
    one isometry test and one spinor norm each, not one per consumer; a
    later in_omega reads back the verdict x and y keep for pair.space."""
    counts = count_calls(forms, "is_isometry", "spinor_norm")
    report = verify_structural(_pair(n, q))
    assert report.ok, _failing(report)
    assert counts == {"is_isometry": 2, "spinor_norm": 2}


def test_structural_battery_forced_nonsquare_parameter():
    # -a a non-square: x lands outside the kernel of the spinor norm, and the
    # membership check must still come out consistent rather than failing.
    report = verify_structural(_pair(9, 3, 1, force=True))
    assert report.ok, _failing(report)
    assert report.params["forced"] is True
    by_name = {c.name: c for c in report.checks}
    assert "x-spinor-trivial" not in by_name  # conditional in the odd family
    assert by_name["y-spinor-trivial"].status == "pass"
    assert by_name["tail-block-membership-criterion"].actual == "membership: False"


# --- case A battery ----------------------------------------------------------

@pytest.mark.parametrize("n,q,a", [(9, 5, 1), (11, 3, 2), (13, 13, 4), (17, 3, 2)])
def test_caseA_battery_green(n, q, a):
    report = verify_caseA_identities(_pair(n, q, a))
    assert report.ok, _failing(report)
    names = _names(report)
    for expected in (
        "product-charpoly",
        "power-minpoly-two-case",
        "transitivity-reachable",
        "fixline-of-distinguishing-element",
        "commutator-trace",
        "commutator-square-trace",
    ):
        assert expected in names


def test_caseA_battery_extension_field():
    report = verify_caseA_identities(_pair(9, 9))
    assert report.ok, _failing(report)


def test_caseA_battery_rejects_caseB_pair():
    with pytest.raises(WrongCase):
        verify_caseA_identities(_pair(15, 3))


# --- case B battery ----------------------------------------------------------

@pytest.mark.parametrize(
    "n,q", [(12, 5), (15, 3), (16, 3), (18, 7), (19, 3), (20, 5), (22, 5), (25, 3)]
)
def test_caseB_battery_green(n, q):
    report = verify_caseB_identities(_pair(n, q))
    assert report.ok, _failing(report)
    names = _names(report)
    for expected in (
        "tau-charpoly-unipotent",
        "tau-tail-entrywise",
        "tau-block-minpoly",
        "tau-tail-fixdim",
        "spanning-det-first",
        "spanning-det-second",
    ):
        assert expected in names


def test_caseB_battery_extension_field():
    ctx = make_field(3, 2)
    report = verify_caseB_identities(build_pair(12, ctx, [1, 1]))
    assert report.ok, _failing(report)


def test_caseB_battery_rejects_caseA_pair():
    with pytest.raises(WrongCase):
        verify_caseB_identities(_pair(9, 3))


def test_caseB_forced_exceptional_point():
    # a^2 = 3 in the even-dimensional family: the tail fixed space jumps to 7
    # and the commutator fixed-line check is skipped.
    report = verify_caseB_identities(_pair(12, 13, 4, force=True))
    assert report.ok, _failing(report)
    by_name = {c.name: c for c in report.checks}
    assert "7" in by_name["tau-tail-fixdim"].actual
    assert by_name["commutator-fixline"].status == "skip"


def test_caseB_cycle_check_skipped_at_n12():
    report = verify_caseB_identities(_pair(12, 5))
    by_name = {c.name: c for c in report.checks}
    assert by_name["commutator-cycle-action"].status == "skip"


def test_caseB_alternate_orientation_is_informational():
    report = verify_caseB_identities(_pair(15, 3))
    by_name = {c.name: c for c in report.checks}
    entry = by_name["commutator-fixline-alternate-orientation"]
    assert entry.status == "skip"
    assert "dim" in entry.actual


# --- closed-form sweeps ------------------------------------------------------

@pytest.mark.parametrize("n,p,f", [(15, 3, 2), (12, 3, 2), (15, 7, 1), (12, 7, 1)])
def test_closed_forms_all_parameters(n, p, f):
    ctx = make_field(p, f)
    report = verify_caseB_closed_forms_all_a(n, ctx)
    assert report.ok, _failing(report)
    # one det entry per nonzero parameter
    firsts = [c for c in report.checks if c.name.startswith("spanning-det-first")]
    assert len(firsts) == ctx.q - 1


# --- report serialization ----------------------------------------------------

def test_report_json_shape():
    report = verify_structural(_pair(9, 3))
    blob = report.to_json()
    assert set(blob) == {"params", "checks", "timing_ms"}
    assert isinstance(blob["timing_ms"], float)
    for entry in blob["checks"]:
        assert set(entry) == {"name", "status", "expected", "actual", "paper_ref"}
        assert entry["status"] in ("pass", "fail", "skip")
    text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    assert json.loads(text) == blob


# --- order-claim table -------------------------------------------------------

def test_load_claims_table():
    claims = load_claims()
    assert len(claims) == 134
    ids = [c.id for c in claims]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)
    # spec-pinned rows are present
    assert "caseA-mono-ord156" in ids
    assert "caseA-mono-ord41" in ids
    assert "caseA-del-ord41" in ids


LOCALE_PROBE = """
import json
import omega23
from omega23.generators import _figures
from omega23.verify import load_claims
[claim] = load_claims()
print(json.dumps([claim.paper_ref, len(_figures()), omega23.__file__]))
"""


def test_data_files_are_read_as_utf8_under_an_ascii_locale(tmp_path):
    """Claims and figure files are UTF-8 whatever the locale's encoding:
    under LC_ALL=C without UTF-8 mode the default text encoding is ASCII.
    The probe imports a copy of the package whose claims table is one
    row with a non-ASCII paper reference."""
    package = Path(__file__).resolve().parents[1] / "src" / "omega23"
    copy = tmp_path / "omega23"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    claims = copy / "data" / "claims.jsonl"
    row = json.loads(claims.read_text(encoding="utf-8").splitlines()[0])
    row["paper_ref"] = "\u00a73"
    claims.write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
    env = {**os.environ, "LC_ALL": "C", "PYTHONPATH": str(tmp_path)}
    env.pop("PYTHONUTF8", None)
    env.pop("PYTHONIOENCODING", None)
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-c", LOCALE_PROBE],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    ref, figures, imported = json.loads(proc.stdout)
    assert ref == "\u00a73" and figures > 0
    assert Path(imported).parent == copy


def test_expectation_json():
    for blob, exp in (
        ({"type": "ExactOrder", "k": 156}, Expectation("ExactOrder", 156)),
        ({"type": "DivisibleBy", "r": 41}, Expectation("DivisibleBy", 41)),
        ({"type": "DivisibleByPrimeAtLeast", "r": 43}, Expectation("DivisibleByPrimeAtLeast", 43)),
        ({"type": "DivisibleByOneOf", "options": [13, 73]},
         Expectation("DivisibleByOneOf", (13, 73))),
    ):
        assert Expectation.from_json(blob) == exp
    with pytest.raises(VerifyError):
        Expectation.from_json({"type": "Nonsense"})


def test_expectation_semantics():
    exact, by = Expectation("ExactOrder", 12), Expectation("DivisibleBy", 4)
    prime = Expectation("DivisibleByPrimeAtLeast", 41)
    one_of = Expectation("DivisibleByOneOf", (73, 13))
    assert exact.check(12) and not exact.check(24)
    assert by.check(12) and not by.check(6)
    assert prime.check(82) and not prime.check(74)
    assert one_of.check(146) and not one_of.check(77)
    assert [e.describe() for e in (exact, by, prime, one_of)] == [
        "order = 12", "order divisible by 4", "order divisible by a prime >= 41",
        "order divisible by one of [13, 73]"]


def test_prime_at_least_matches_factorint():
    from sympy import factorint

    rs = sorted({c.expectation.arg for c in load_claims()
                 if c.expectation.kind == "DivisibleByPrimeAtLeast"})
    assert rs == [2, 13, 15, 17, 19, 21, 41, 43]
    for r in rs:
        check = Expectation("DivisibleByPrimeAtLeast", r).check
        for order in range(1, 3001):
            assert check(order) == any(p >= r for p in factorint(order)), (r, order)


CLAIM_ROW = {"id": "row", "n": 9, "q": 3, "a": [1], "force": True, "word": "xy",
             "expectation": {"type": "ExactOrder", "k": 2}, "paper_ref": "ref"}
_MISSING = object()


def test_a_well_formed_row_loads_as_written():
    claim = Claim.from_json(CLAIM_ROW)
    assert claim == Claim("row", 9, 3, (1,), True, "xy", Expectation("ExactOrder", 2), "ref")
    bare = {key: value for key, value in CLAIM_ROW.items() if key not in ("a", "force")}
    loaded = Claim.from_json(bare)
    assert (loaded.a, loaded.force) == (None, False)
    assert Claim.from_json({**CLAIM_ROW, "a": -2}).a == -2


@pytest.mark.parametrize("field, value, kind", [
    ("n", 9.7, None), ("n", "9", None), ("n", True, None), ("n", 0, None), ("n", _MISSING, None),
    ("q", "3", None), ("q", 3.0, None), ("q", -3, None),
    ("force", "false", None), ("force", 1, None), ("force", None, None),
    ("a", [1, "2"], None), ("a", 2.5, None), ("a", "2", None), ("a", True, None),
    ("a", [True], None),
    ("id", 5, None), ("word", 5, None), ("paper_ref", _MISSING, None), ("paper_ref", None, None),
    ("k", 2.9, "ExactOrder"), ("k", _MISSING, "ExactOrder"),
    ("r", 0, "DivisibleBy"), ("r", "13", "DivisibleByPrimeAtLeast"),
    ("options", [13, "73"], "DivisibleByOneOf"), ("options", [13, 0], "DivisibleByOneOf"),
    ("options", [], "DivisibleByOneOf"), ("options", 13, "DivisibleByOneOf"),
])
def test_a_malformed_claim_row_is_refused_naming_its_field(field, value, kind):
    """Each row differs from a good one in one field of the row or, with a
    kind, of its expectation. A loader that coerces with int() or bool(), or
    keeps a value as written, loads most of them: a word of 5 then crashes
    `verify_order_claims` with an AttributeError, a divisor 0 fails its row
    at run time, and an empty options list can never pass."""
    row = dict(CLAIM_ROW) if kind is None else {**CLAIM_ROW, "expectation": {"type": kind}}
    where = row if kind is None else row["expectation"]
    where[field] = value
    if value is _MISSING:
        del where[field]
    with pytest.raises(VerifyError, match=f"^{field} must be"):
        Claim.from_json(row)


@pytest.mark.parametrize("row", [[1], "x", None, 5], ids=["list", "str", "null", "int"])
def test_a_claim_row_that_is_not_an_object_is_refused(row):
    # a row is read with .get, which only a JSON object has
    with pytest.raises(VerifyError, match="^a claim row must be a JSON object"):
        Claim.from_json(row)


def test_a_row_of_coerced_values_is_refused():
    row = {**CLAIM_ROW, "n": 9.7, "q": "3", "force": "false",
           "expectation": {"type": "ExactOrder", "k": 2.9}}
    with pytest.raises(VerifyError, match="^(n|q|force|k) must be"):
        Claim.from_json(row)


def test_a_row_without_a_known_expectation_is_refused():
    for expectation in (_MISSING, None, [], {"k": 2}, {"type": ["ExactOrder"], "k": 2}):
        row = dict(CLAIM_ROW)
        if expectation is _MISSING:
            del row["expectation"]
        else:
            row["expectation"] = expectation
        with pytest.raises(VerifyError, match="^unknown expectation type"):
            Claim.from_json(row)


def test_verify_order_claims_subset():
    subset = [c for c in load_claims() if c.id.startswith("caseA-mono")]
    assert len(subset) == 4
    report = verify_order_claims(subset)
    assert report.ok, _failing(report)
    assert [c.name for c in report.checks] == sorted(c.id for c in subset)
    by_name = {c.name: c for c in report.checks}
    assert by_name["caseA-mono-ord156"].actual == "order = 156"


def test_order_claims_build_each_distinct_pair_once(count_calls):
    """The pair cache keys on (n, q, a, force), with a list parameter read as
    a tuple: the 134 rows build the 130 distinct pairs once each."""
    claims = load_claims()
    assert len(claims) == 134
    _cached_pair.cache_clear()
    counts = count_calls(generators, "build_pair")
    report = verify_order_claims(claims)
    assert report.ok, _failing(report)
    assert counts == {"build_pair": 130}


def test_verify_order_claims_error_row():
    bad = Claim(
        id="zz-bad", n=9, q=6, a=None, force=False, word="xy",
        expectation=Expectation("ExactOrder", 2), paper_ref="none",
    )
    report = verify_order_claims([bad])
    assert not report.ok
    assert report.checks[0].status == "fail"
    assert report.checks[0].actual.startswith("error:")


def test_evaluate_claim_word_restriction():
    pair = _pair(15, 3)
    full = evaluate_claim_word(pair, "y")
    small = evaluate_claim_word(pair, "y|S9")
    assert full.rows == 15 and small.rows == 9
    s9 = [unit_vector(pair.ctx, 15, 15 - 9 + i) for i in range(9)]
    for j in range(9):
        img = full @ s9[j]
        coords = small.data[:, j]
        rebuilt = np.zeros_like(img)
        for i in range(9):
            rebuilt = (rebuilt + pair.ctx.mul(coords[i], s9[i])) % pair.ctx.p
        assert np.array_equal(img, rebuilt)


# --- small representations ---------------------------------------------------

def _rand_invertible(ctx, rng, n=2):
    while True:
        g = Matrix.from_rows(
            ctx, [[ctx.from_index(rng.randrange(ctx.q)) for _ in range(n)] for _ in range(n)]
        )
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


QS = [(3, 1), (5, 1), (7, 1), (3, 2)]


@pytest.mark.parametrize("p,f", QS)
def test_sym_square_matches_printed_formula(p, f):
    ctx = make_field(p, f)
    rng = random.Random(100 * p + f)
    for _ in range(25):
        g = _rand_invertible(ctx, rng)
        b1, b2 = ctx.coerce(tuple(g.data[0, 0])), ctx.coerce(tuple(g.data[0, 1]))
        b3, b4 = ctx.coerce(tuple(g.data[1, 0])), ctx.coerce(tuple(g.data[1, 1]))
        two = ctx.coerce(2)
        expected = Matrix.from_rows(ctx, [
            [ctx.mul(b1, b1), ctx.mul(b1, b2), ctx.mul(b2, b2)],
            [ctx.mul(two, ctx.mul(b1, b3)),
             (ctx.mul(b1, b4) + ctx.mul(b2, b3)) % p,
             ctx.mul(two, ctx.mul(b2, b4))],
            [ctx.mul(b3, b3), ctx.mul(b3, b4), ctx.mul(b4, b4)],
        ])
        assert sym_power_rep(ctx, g, 2) == expected


@pytest.mark.parametrize("p,f", QS)
@pytest.mark.parametrize("d", [2, 8])
def test_sym_power_multiplicative(p, f, d):
    ctx = make_field(p, f)
    rng = random.Random(7 * p + d)
    for _ in range(10):
        g1, g2 = _rand_invertible(ctx, rng), _rand_invertible(ctx, rng)
        assert sym_power_rep(ctx, g1 @ g2, d) == sym_power_rep(ctx, g1, d) @ sym_power_rep(ctx, g2, d)


def test_sym_square_of_transvection():
    ctx = make_field(5, 1)
    u = Matrix.from_rows(ctx, [[1, 1], [0, 1]])
    assert sym_power_rep(ctx, u, 2) == Matrix.from_rows(ctx, [[1, 1, 1], [0, 1, 2], [0, 0, 1]])


# Fixed-space dimensions of the image of the transvection at weight 8. These
# are what the arithmetic actually gives: an order-p unipotent on a 9-dim
# space fixes at least ceil(9/p) dimensions, so dimension 1 needs p >= 11.
D8_FIX_DIMS = {3: 3, 5: 2, 7: 2, 9: 3, 11: 1, 13: 1}


@pytest.mark.parametrize("q", sorted(D8_FIX_DIMS))
def test_sym_eighth_fixed_space(q):
    ctx = field_from_prime_power(q)
    u = Matrix.from_rows(ctx, [[1, 1], [0, 1]])
    basis = eigenspace(sym_power_rep(ctx, u, 8), ctx.coerce(1))
    assert len(basis) == D8_FIX_DIMS[q]
    assert len(basis) >= -(-9 // ctx.p)
    # the vector t1^8 (first basis monomial) is always fixed
    e0 = np.zeros((9, ctx.f), dtype=np.int64)
    e0[0, 0] = 1
    assert np.array_equal(sym_power_rep(ctx, u, 8) @ e0, e0)


@pytest.mark.parametrize("p,f", QS)
def test_hermitian_fixed_space_dimension(p, f):
    ctx2 = make_field(p, 2 * f)
    u = Matrix.from_rows(ctx2, [[1, 1], [0, 1]])
    h = hermitian_rep(ctx2, u)
    assert h.ctx.q ** 2 == ctx2.q  # entries land in the fixed subfield
    basis = eigenspace(h, h.ctx.coerce(1))
    assert len(basis) == 3


def test_sym_power_and_hermitian_rep_refuse_a_matrix_over_another_field():
    g = Matrix.from_rows(make_field(5, 2), [[1, 1], [0, 1]])
    with pytest.raises(VerifyError, match=r"over GF\(25\), not GF\(9\)"):
        sym_power_rep(make_field(3, 2), g, 2)
    with pytest.raises(VerifyError, match=r"over GF\(25\), not GF\(9\)"):
        hermitian_rep(make_field(3, 2), g)


def test_hermitian_rep_needs_even_degree():
    with pytest.raises(WrongExtensionDegree):
        hermitian_rep(make_field(5, 1), Matrix.identity(make_field(5, 1), 2))


def test_hermitian_rep_reverses_products():
    # the action transposes, so composition flips
    ctx2 = make_field(3, 2)
    rng = random.Random(11)
    for _ in range(10):
        g1, g2 = _rand_invertible(ctx2, rng), _rand_invertible(ctx2, rng)
        assert hermitian_rep(ctx2, g1 @ g2) == hermitian_rep(ctx2, g2) @ hermitian_rep(ctx2, g1)


@pytest.mark.parametrize("p,f", QS)
def test_sym_square_preserves_split_form(p, f):
    ctx = make_field(p, f)
    rng = random.Random(13 * p + f)
    neg_half = ctx.neg(ctx.inv(ctx.coerce(2)))
    fd = Matrix.from_rows(ctx, [[0, 0, 1], [0, 0, 0], [1, 0, 0]]).data.copy()
    fd[1, 1] = neg_half
    form = Matrix(ctx, fd)
    for _ in range(25):
        g = _rand_det_pm1(ctx, rng)
        psi = sym_power_rep(ctx, g, 2)
        assert psi.transpose() @ form @ psi == form
