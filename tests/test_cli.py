"""Command-line interface: exit codes, schemas, determinism."""

import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from omega23.cli import main as cli_main
from omega23.fields import make_field
from omega23.generators import build_pair, search_a
from omega23.verify import load_claims


def run_cli(capsys, *argv):
    try:
        code = cli_main(list(argv))
    except SystemExit as exc:
        code = exc.code
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def schema_for(command: str) -> dict:
    text = resources.files("omega23").joinpath(f"schema/{command}.json").read_text()
    return json.loads(text)


def check(command: str, out: str) -> dict:
    doc = json.loads(out)
    jsonschema.validate(doc, schema_for(command))
    return doc


# ---------------------------------------------------------------------------
# generate


def test_generate_headline(capsys):
    code, out, err = run_cli(capsys, "generate", "--n", "9", "--q", "3", "--a", "2")
    assert code == 0 and err == ""
    doc = check("generate", out)
    pair = doc["pair"]
    assert pair["case"] == "A" and pair["a"] == 2 and pair["eps"] == "circ"
    ref = build_pair(9, make_field(3, 1), 2)
    assert pair["x"] == ref.x.to_json()
    assert pair["y"] == ref.y.to_json()
    assert pair["J"] == ref.space.J.to_json()


def test_generate_text_format(capsys):
    code, out, _ = run_cli(capsys, "generate", "--n", "12", "--q", "5",
                           "--format", "text")
    assert code == 0
    assert "n = 12, q = 5" in out and "case = B6" in out


def test_generate_output_file(capsys, tmp_path):
    target = tmp_path / "pair.json"
    code, out, _ = run_cli(capsys, "generate", "--n", "9", "--q", "3",
                           "--output", str(target))
    assert code == 0 and out == ""
    check("generate", target.read_text())


def test_generate_extension_field_a_syntax(capsys):
    code, out, _ = run_cli(capsys, "generate", "--n", "9", "--q", "9",
                           "--a", "0,1")
    assert code == 0
    doc = check("generate", out)
    assert doc["pair"]["a"] == [0, 1]
    assert doc["pair"]["p"] == 3 and doc["pair"]["f"] == 2


def test_generate_prime_power_q(capsys):
    code, out, _ = run_cli(capsys, "generate", "--n", "15", "--q", "27")
    assert code == 0
    doc = check("generate", out)
    assert doc["pair"]["p"] == 3 and doc["pair"]["f"] == 3
    assert len(doc["pair"]["modulus"]) == 4


# ---------------------------------------------------------------------------
# verify


def test_verify_spec_example_all_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "15", "--q", "7",
                           "--suite", "all")
    assert code == 0
    doc = check("verify", out)
    assert doc["ok"] is True
    assert len(doc["reports"]) == 2
    for report in doc["reports"]:
        assert all(c["status"] in ("pass", "skip") for c in report["checks"])


@pytest.mark.parametrize("suite,count", [("structural", 1), ("case", 1), ("all", 2)])
def test_verify_suite_selection(capsys, suite, count):
    code, out, _ = run_cli(capsys, "verify", "--n", "9", "--q", "5",
                           "--suite", suite)
    assert code == 0
    assert len(check("verify", out)["reports"]) == count


def test_verify_failure_exits_one(capsys):
    # the excluded parameter builds under --force but the battery then fails
    code, out, _ = run_cli(capsys, "verify", "--n", "9", "--q", "11",
                           "--a", "8", "--force")
    assert code == 1
    doc = check("verify", out)
    assert doc["ok"] is False
    assert any(c["status"] == "fail"
               for r in doc["reports"] for c in r["checks"])


def test_verify_claims_flag(capsys, monkeypatch):
    subset = load_claims()[:4]
    monkeypatch.setattr("omega23.cli.load_claims", lambda: subset)
    code, out, _ = run_cli(capsys, "verify", "--n", "9", "--q", "3",
                           "--suite", "structural", "--claims")
    assert code == 0
    doc = check("verify", out)
    assert doc["params"]["claims"] is True
    claim_report = doc["reports"][-1]
    assert claim_report["params"]["battery"] == "order-claims"
    assert len(claim_report["checks"]) == 4


# ---------------------------------------------------------------------------
# certify


def test_certify_spec_example(capsys):
    code, out, _ = run_cli(capsys, "certify", "--n", "9", "--q", "3",
                           "--seed", "53251")
    assert code == 0
    doc = check("certify", out)
    cert = doc["certificate"]
    assert cert["verdict"] == "Generates"
    assert cert["computed_order"] == cert["target_order"] == "65784756654489600"
    assert cert["seed"] == 53251


def test_certify_budget_exhaustion_exits_three(capsys):
    code, out, _ = run_cli(capsys, "certify", "--n", "9", "--q", "3",
                           "--budget", "1e-9")
    assert code == 3
    assert check("certify", out)["certificate"]["verdict"] == "Inconclusive"


def test_certify_zero_budget_exits_three(capsys):
    # a zero budget is exhausted at once, not read as "no budget"
    code, out, _ = run_cli(capsys, "certify", "--n", "9", "--q", "3", "--budget", "0")
    assert code == 3
    cert = check("certify", out)["certificate"]
    assert cert["verdict"] == "Inconclusive" and cert["computed_order"] == "1"


@pytest.mark.parametrize("budget", ["nan", "-1"])
def test_certify_refuses_a_budget_that_is_not_seconds(capsys, budget):
    code, out, err = run_cli(capsys, "certify", "--n", "9", "--q", "3",
                             "--budget", budget)
    assert code == 2 and out == ""
    detail = f"budget {float(budget)} is not a number of seconds >= 0"
    assert err == json.dumps({"detail": detail, "error": "CertifyError"}) + "\n"


def test_every_package_error_is_a_value_error():
    # cli.main reports a package error, and exits 2, by catching ValueError
    import inspect

    import omega23
    from omega23 import certify, fields, forms, generators, linalg, verify

    errors = {cls for module in (omega23, certify, fields, forms, generators, linalg, verify)
              for _, cls in inspect.getmembers(module, inspect.isclass)
              if issubclass(cls, Exception) and cls.__module__.startswith("omega23")}
    assert issubclass(certify.CertifyError, ValueError) and certify.BudgetExceeded in errors
    assert all(issubclass(cls, ValueError) for cls in errors), errors


def test_certify_forced_pair_inconclusive(capsys):
    # the non-admissible point lands outside the kernel: the closure doubles
    code, out, _ = run_cli(capsys, "certify", "--n", "9", "--q", "3",
                           "--a", "1", "--force")
    assert code == 3
    cert = check("certify", out)["certificate"]
    assert cert["verdict"] == "Inconclusive"
    assert int(cert["computed_order"]) == 2 * int(cert["target_order"])


def test_certify_forced_pair_below_the_target_is_inconclusive(capsys):
    # x lies outside Omega_11(3), and the targetless chain stops at
    # 2|Omega_10^-(3)|, which divides the target; no proved upper bound says
    # the group is that small, so the certificate claims no proper subgroup
    code, out, _ = run_cli(capsys, "certify", "--n", "11", "--q", "3",
                           "--a", "1", "--force", "--seed", "1")
    assert code == 3
    cert = check("certify", out)["certificate"]
    assert cert["verdict"] == "Inconclusive"
    assert cert["computed_order"] == "2600339861038664908800"


def test_certify_restricted(capsys):
    code, out, _ = run_cli(capsys, "certify", "--n", "15", "--q", "3",
                           "--restrict-s9")
    assert code == 0
    cert = check("certify", out)["certificate"]
    assert cert["verdict"] == "Generates" and cert["n"] == 9


def test_certify_env_seed(capsys, monkeypatch):
    """The seed is set by --seed alone: the environment does not reach it."""
    monkeypatch.setenv("OMEGA23_SEED", "777")
    code, out, _ = run_cli(capsys, "certify", "--n", "9", "--q", "3")
    assert code == 0
    doc = check("certify", out)
    assert doc["certificate"]["seed"] == 53251 and doc["params"]["seed"] == 53251


@pytest.mark.parametrize("command", ["generate", "verify", "certify"])
def test_oversized_dimension_refused_before_building(capsys, monkeypatch, command):
    def unreachable(*args, **kwargs):
        raise AssertionError("build_pair reached past the matrix-size bound")

    monkeypatch.setattr("omega23.cli.build_pair", unreachable)
    # n = 1000 at q = 81 = 3^4 has n*n*f = 4,000,000 <= 2^22 coefficients,
    # but its block form has (n*f)^2 = 16,000,000 entries
    for n, q in (("100000", "3"), ("1000", "81")):
        code, out, err = run_cli(capsys, command, "--n", n, "--q", q)
        assert code == 2 and out == ""
        diag = json.loads(err)
        assert diag["error"] == "GenError"
        assert "MAX_MATRIX_ENTRIES" in diag["detail"]


def test_matrix_bound_admits_acceptance_grid():
    from omega23.cli import MAX_MATRIX_ENTRIES

    # the largest grid point of tests/test_acceptance.py: n = 25, q = 27 = 3^3,
    # whose (n*f) x (n*f) block form has 75^2 entries
    assert (25 * 3) ** 2 <= MAX_MATRIX_ENTRIES
    assert 100000 * 100000 > MAX_MATRIX_ENTRIES


# ---------------------------------------------------------------------------
# search-a


def test_search_a_matches_library(capsys):
    code, out, _ = run_cli(capsys, "search-a", "--n", "9", "--q", "11")
    assert code == 0
    doc = check("search-a", out)
    found = search_a(9, make_field(11, 1), all=True)
    assert doc["values"] == [int(v[0]) for v in found.values]
    assert doc["count"] == len(found.values)
    assert 8 not in doc["values"]
    ineq = doc["inequality"]
    assert ineq["label"] == found.inequality
    assert ineq["holds"] == found.guaranteed


def test_search_a_extension_field(capsys):
    code, out, _ = run_cli(capsys, "search-a", "--n", "9", "--q", "9")
    assert code == 0
    doc = check("search-a", out)
    assert doc["count"] == 2
    assert all(isinstance(v, list) and len(v) == 2 for v in doc["values"])
    assert doc["inequality"]["holds"] is False  # witnesses carry this field


# ---------------------------------------------------------------------------
# spinor


def test_spinor_case_gram(capsys, tmp_path):
    pair = build_pair(9, make_field(3, 1), 2)
    mat = tmp_path / "y.json"
    mat.write_text(json.dumps(pair.y.to_json()))
    code, out, _ = run_cli(capsys, "spinor", "--q", "3", "--matrix", str(mat))
    assert code == 0
    doc = check("spinor", out)
    assert doc["spinor_square"] is True and doc["in_kernel"] is True
    assert doc["params"]["gram"] == "case"


@pytest.mark.parametrize("n", [12, 15])
def test_spinor_case_gram_in_both_b_layouts(capsys, tmp_path, n):
    """The B6 (n = 12) and B5 (n = 15) layouts share the case-B Gram matrix."""
    pair = build_pair(n, make_field(5, 1))
    mat = tmp_path / "x.json"
    mat.write_text(json.dumps(pair.x.to_json()))
    code, out, err = run_cli(capsys, "spinor", "--q", "5", "--matrix", str(mat))
    assert code == 0, err
    doc = check("spinor", out)
    assert doc["params"] == {"q": 5, "n": n, "gram": "case"}
    assert doc["spinor_square"] is True and doc["in_kernel"] is True


def test_spinor_user_gram_nested_list(capsys, tmp_path):
    mat = tmp_path / "g.json"
    gram = tmp_path / "j.json"
    mat.write_text(json.dumps([[0, 1], [1, 0]]))
    gram.write_text(json.dumps([[1, 0], [0, 1]]))
    code, out, _ = run_cli(capsys, "spinor", "--q", "5",
                           "--matrix", str(mat), "--gram", str(gram))
    assert code == 0
    doc = check("spinor", out)
    assert doc["in_kernel"] is False
    assert "determinant-not-one" in doc["reasons"]


@pytest.mark.parametrize("obj", [
    [[0, 1], [1, 0]],
    {"rows": 2, "cols": 2, "entries": [[0, 1], [1, 0]]},
], ids=["nested-list", "rows-cols-entries"])
def test_spinor_reads_int_entries_over_an_extension_field(capsys, tmp_path, obj):
    """A bare int entry is the prime-field element, over F_9 as over F_p."""
    mat = tmp_path / "g.json"
    gram = tmp_path / "j.json"
    mat.write_text(json.dumps(obj))
    gram.write_text(json.dumps([[1, 0], [0, 1]]))
    code, out, err = run_cli(capsys, "spinor", "--q", "9",
                             "--matrix", str(mat), "--gram", str(gram))
    assert code == 0, err
    doc = check("spinor", out)
    assert doc["params"]["q"] == 9 and doc["in_kernel"] is False


def test_spinor_stdin(capsys, monkeypatch, tmp_path):
    gram = tmp_path / "j.json"
    gram.write_text(json.dumps([[1, 0], [0, 1]]))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps([[0, 1], [4, 0]])))
    code, out, _ = run_cli(capsys, "spinor", "--q", "5",
                           "--matrix", "-", "--gram", str(gram))
    assert code == 0
    check("spinor", out)


def test_spinor_tests_the_isometry_once_and_builds_no_reflection(
        capsys, count_calls, tmp_path):
    """x r_1 r_2 r_3 at (9, 5): one isometry test, no reflection rebuilt, and
    the report's bytes are the ones it had with `reflection_count` (7)."""
    from omega23 import forms
    from omega23.linalg import vector

    ctx = make_field(5, 1)
    pair = build_pair(9, ctx)
    g = pair.x
    for c in ([1, 0, 0, 0, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0, 0, 0, 0],
              [0, 0, 1, 0, 0, 1, 0, 0, 0]):
        g = g @ forms.reflection(pair.space, vector(ctx, c))
    mat = tmp_path / "g.json"
    mat.write_text(json.dumps(g.to_json()))
    counts = count_calls(forms, "is_isometry", "reflection")
    code, out, _ = run_cli(capsys, "spinor", "--q", "5", "--matrix", str(mat))
    assert code == 0
    assert counts == {"is_isometry": 1, "reflection": 0}
    doc = check("spinor", out)
    assert "reflection_count" not in doc
    assert out == (
        '{"command":"spinor","determinant":4,"field":{"f":1,"modulus":[0,1],"p":5},'
        '"in_kernel":false,"params":{"gram":"case","n":9,"q":5},'
        '"reasons":["determinant-not-one","spinor-norm-nontrivial"],'
        '"spinor_square":false}\n')
    code, out, _ = run_cli(capsys, "spinor", "--q", "5", "--matrix", str(mat),
                           "--format", "text")
    assert out == "spinor class nontrivial; det 4; kernel member: False\n"


@pytest.mark.parametrize("matrix, gram", [
    ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
    ([[1, 0], [0, 1]], [[0, 0], [0, 0]]),
], ids=["degenerate-wall-form", "zero-gram"])
def test_spinor_singular_gram_exits_two(capsys, tmp_path, matrix, gram):
    """A singular Gram matrix has no spinor norm: refused with exit 2 and
    one JSON line, whether or not the matrix preserves it."""
    mat, jfile = tmp_path / "g.json", tmp_path / "j.json"
    mat.write_text(json.dumps(matrix))
    jfile.write_text(json.dumps(gram))
    code, out, err = run_cli(capsys, "spinor", "--q", "3",
                             "--matrix", str(mat), "--gram", str(jfile))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "FormsError"
    assert "singular" in json.loads(err)["detail"]


def test_spinor_non_isometry_exits_two(capsys, tmp_path):
    mat = tmp_path / "g.json"
    gram = tmp_path / "j.json"
    mat.write_text(json.dumps([[1, 1], [0, 1]]))
    gram.write_text(json.dumps([[1, 0], [0, 1]]))
    code, out, err = run_cli(capsys, "spinor", "--q", "5",
                             "--matrix", str(mat), "--gram", str(gram))
    assert code == 2 and out == ""
    assert "spinor norm is undefined" in json.loads(err)["detail"]


# ---------------------------------------------------------------------------
# oracle


def test_oracle_omega_order(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--what", "omega-order",
                           "--n", "3", "--q", "3")
    assert code == 0
    doc = check("oracle", out)
    assert doc["so_order"] == 24
    assert doc["omega_order_bruteforce"] == 12
    assert doc["index"] == 2
    assert doc["omega_order_formula"] == "12"
    assert doc["match"] is True


def test_oracle_witt_type(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--what", "witt-type",
                           "--n", "4", "--q", "3")
    assert code == 0
    doc = check("oracle", out)
    assert doc["classified"] == doc["dispatch"] == "plus"
    assert doc["isotropic_nonzero"] == (3 ** 2 - 1) * (3 + 1)


def test_oracle_wrong_parity_exits_two(capsys):
    code, _, err = run_cli(capsys, "oracle", "--what", "omega-order",
                           "--n", "4", "--q", "3")
    assert code == 2 and "odd" in json.loads(err)["detail"]
    code, _, err = run_cli(capsys, "oracle", "--what", "witt-type",
                           "--n", "3", "--q", "3")
    assert code == 2 and "even" in json.loads(err)["detail"]


@pytest.mark.parametrize("what, n, detail", [
    ("omega-order", "2", "the order oracle enumerates odd dimensions"),
    ("witt-type", "1", "the type oracle classifies even dimensions"),
    ("witt-type", "-1", "the type oracle classifies even dimensions"),
])
def test_oracle_parity_is_checked_before_the_bound(capsys, what, n, detail):
    code, _, err = run_cli(capsys, "oracle", "--what", what, "--n", n, "--q", "3")
    assert code == 2
    assert json.loads(err) == {"detail": detail, "error": "FormsError"}


@pytest.mark.parametrize("argv, kind", [
    (("oracle", "--what", "witt-type", "--n", "0", "--q", "3"), "FormsError"),
    (("oracle", "--what", "witt-type", "--n", "-2", "--q", "3"), "FormsError"),
    (("oracle", "--what", "omega-order", "--n", "-1", "--q", "3"), "FormsError"),
    (("oracle", "--what", "omega-order", "--n", "1", "--q", "3"), "FormsError"),
    (("spinor", "--q", "3", "--matrix", "{empty_list}"), "LinalgError"),
    (("spinor", "--q", "3", "--matrix", "{empty_object}"), "LinalgError"),
    (("spinor", "--q", "3", "--matrix", "{ragged_list}"), "LinalgError"),
    (("generate", "--n", "15", "--q", "27", "--a", "1,2"), "FieldError"),
    (("spinor", "--q", "3", "--matrix", "{no_entries}"), "LinalgError"),
    (("spinor", "--q", "3", "--matrix", "{top_int}"), "LinalgError"),
    (("spinor", "--q", "3", "--matrix", "{bare_row}"), "LinalgError"),
    (("spinor", "--q", "3", "--matrix", "{int_entries}"), "LinalgError"),
    (("spinor", "--q", "3", "--matrix", "{flat_entries}"), "LinalgError"),
    (("spinor", "--q", "3", "--matrix", "{top_string}"), "LinalgError"),
    *((("spinor", "--q", "3", "--matrix", f"{{{name}}}", "--gram", f"{{{name}}}"), "LinalgError")
      for name in ("rows_null", "rows_list", "rows_float", "rows_bool", "rows_string",
                   "cols_float")),
    # --q is an argparse int, so a q that is not one is a usage error
    (("certify", "--n", "9", "--q", "x"), "usage"),
    (("spinor", "--q", "27.5", "--matrix", "{top_int}"), "usage"),
    # so is --a, an int or comma-separated ints
    (("generate", "--n", "15", "--q", "3", "--a", "1.5"), "usage"),
    (("verify", "--n", "15", "--q", "27", "--a", "1,"), "usage"),
    (("certify", "--n", "15", "--q", "3", "--a", "true"), "usage"),
], ids=["witt-type-n0", "witt-type-n-2", "omega-order-n-1", "omega-order-n1",
        "empty-list-matrix", "empty-object-matrix", "ragged-list-matrix", "short-a",
        "object-without-entries", "top-level-int", "row-not-a-list", "int-entries",
        "entry-row-not-a-list", "top-level-string", "rows-null", "rows-list", "rows-float",
        "rows-bool", "rows-string", "cols-float", "q-not-a-number", "q-fractional",
        "a-fractional", "a-trailing-comma", "a-not-a-number"])
def test_malformed_input_is_refused_by_name(capsys, tmp_path, argv, kind):
    files = {"empty_list": [], "empty_object": {"rows": 0, "cols": 0, "entries": []},
             "ragged_list": [[1, 2], [3]], "no_entries": {"rows": 1, "cols": 1},
             "top_int": 5, "bare_row": [[1], 2],
             "int_entries": {"rows": 1, "cols": 1, "entries": 5},
             "flat_entries": {"rows": 1, "cols": 1, "entries": [5]}, "top_string": "abc",
             # rows and cols must be JSON integers, not read as 1 or left to int()
             **{f"rows_{kind}": {"rows": v, "cols": 1, "entries": [[1]]} for kind, v in
                (("null", None), ("list", [1]), ("float", 1.5), ("bool", True),
                 ("string", "1"))},
             "cols_float": {"rows": 1, "cols": 1.5, "entries": [[1]]}}
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    paths = {name: tmp_path / f"{name}.json" for name in files}
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == kind


def test_spinor_unsupported_dimension_without_gram(capsys, tmp_path):
    mat = tmp_path / "g.json"
    mat.write_text(json.dumps([[int(i == j) for j in range(10)] for i in range(10)]))
    code, out, err = run_cli(capsys, "spinor", "--q", "3", "--matrix", str(mat))
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "Unsupported",
        "detail": "dimension 10 is not supported: n must be odd and >= 9, "
                  "or even and >= 12 (excluding 14)"}


# ---------------------------------------------------------------------------
# usage errors (exit 2, machine-readable stderr)


@pytest.mark.parametrize("argv", [
    ("generate", "--n", "9", "--q", "12"),       # composite q
    ("generate", "--n", "9", "--q", "4"),        # even q
    ("generate", "--n", "14", "--q", "3"),       # unsupported dimension
    ("generate", "--n", "9"),                    # missing --q
    ("generate", "--n", "9", "--q", "3", "--a", "x"),  # unparseable a
    ("verify", "--n", "9", "--q", "11", "--a", "8"),   # inadmissible a
    ("bogus",),                                  # unknown subcommand
    pytest.param(("certify", "--n", "9", "--q", "3", "--backend", "numpy"),
                 id="removed-backend-option"),
    pytest.param(("verify", "--n", "9", "--q", "8589934609"),  # nextprime(2**33)
                 id="field-outside-int64-range"),
    pytest.param(("certify", "--n", "9", "--q", "3", "--budget", "nan"), id="nan-budget"),
    pytest.param(("certify", "--n", "9", "--q", "3", "--budget", "-1"), id="negative-budget"),
    pytest.param(("spinor", "--q", "5", "--gram", "{m}", "--matrix", "{m}"),
                 id="fractional-matrix-entry"),
])
def test_usage_errors_exit_two(capsys, tmp_path, argv):
    m = tmp_path / "m.json"  # a 1x1 matrix whose one entry is 1.9, not an integer
    m.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[[1.9]]]}))
    code, out, err = run_cli(capsys, *(arg.format(m=m) for arg in argv))
    assert code == 2
    assert out == ""
    diag = json.loads(err)
    assert set(diag) == {"error", "detail"} and diag["detail"]


def test_extension_field_outside_int64_is_refused_before_its_modulus_search(capsys):
    # q = 3100000027**2: the search for GF(q)'s modulus would enumerate range(p)
    code, out, err = run_cli(capsys, "generate", "--n", "9", "--q", "9610000167400000729")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "FieldError"


@pytest.mark.parametrize("q,entry", [(5, True), (9, [1.5, 2])], ids=["bool", "fractional"])
def test_nested_list_matrix_entries_are_read_as_element_json(capsys, tmp_path, q, entry):
    # a matrix file may also be a plain nested list; its entries are read
    # as element JSON too, so a bool or a float is refused, not coerced
    mat, gram = tmp_path / "g.json", tmp_path / "j.json"
    mat.write_text(json.dumps([[entry]]))
    gram.write_text(json.dumps([[1]]))
    code, out, err = run_cli(capsys, "spinor", "--q", str(q),
                             "--matrix", str(mat), "--gram", str(gram))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "FieldError"


@pytest.mark.parametrize("case", ["missing-matrix", "missing-gram", "unwritable-output"])
def test_file_errors_exit_two(capsys, tmp_path, case):
    # A file that cannot be read or written is a usage error, not a failed
    # check: exit 2 and one JSON line on stderr, no traceback.
    mat = tmp_path / "g.json"
    mat.write_text(json.dumps([[0, 1], [1, 0]]))
    missing = str(tmp_path / "missing" / "x.json")
    argv = {
        "missing-matrix": ("spinor", "--q", "5", "--matrix", missing),
        "missing-gram": ("spinor", "--q", "5", "--matrix", str(mat), "--gram", missing),
        "unwritable-output": ("generate", "--n", "9", "--q", "3", "--output", missing),
    }[case]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    diag = json.loads(err)
    assert diag["error"] == "FileNotFoundError" and "x.json" in diag["detail"]


def test_backend_env_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("OMEGA23_BACKEND", "numbaa")
    code, out, err = run_cli(capsys, "certify", "--n", "9", "--q", "3")
    assert code == 0 and err == ""
    assert check("certify", out)["certificate"]["verdict"] == "Generates"


# ---------------------------------------------------------------------------
# determinism


STRIP_KEYS = ("timing_ms", "elapsed_ms")


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k not in STRIP_KEYS}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


@pytest.mark.parametrize("argv", [
    ("generate", "--n", "9", "--q", "3", "--a", "2"),
    ("search-a", "--n", "12", "--q", "7"),
    ("oracle", "--what", "witt-type", "--n", "4", "--q", "5"),
    ("verify", "--n", "9", "--q", "5", "--suite", "structural"),
    ("certify", "--n", "9", "--q", "3", "--seed", "53251"),
])
def test_byte_determinism(capsys, argv):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        doc = _strip_timing(json.loads(out))
        runs.append(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    assert runs[0] == runs[1]


def test_json_is_compact_and_sorted(capsys):
    _, out, _ = run_cli(capsys, "generate", "--n", "9", "--q", "3")
    assert ": " not in out and ", " not in out
    doc = json.loads(out)
    assert list(doc) == sorted(doc)


# ---------------------------------------------------------------------------
# start-up: prime-field commands, and verify over GF(9), never import sympy

SYMPY_PROBE = """
import atexit, runpy, sys
atexit.register(lambda: print("sympy loaded:", "sympy" in sys.modules))
if len(sys.argv) > 1:
    runpy.run_module("omega23", run_name="__main__", alter_sys=True)
else:
    import omega23.cli
"""


CHAIN_PROBE = """
import contextlib, io, json, sys
from omega23.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded = [m for m in ("omega23.certify", "omega23._kernels") if m in sys.modules]
    print(json.dumps([argv[0], code, loaded]))
"""


def test_only_certify_loads_the_stabilizer_chain(tmp_path):
    """Every other command runs without the chain or the orbit kernel."""
    mat = tmp_path / "y.json"
    mat.write_text(json.dumps(build_pair(9, make_field(3, 1), 2).y.to_json()))
    commands = [
        ["verify", "--n", "9", "--q", "3"],
        ["generate", "--n", "9", "--q", "3"],
        ["search-a", "--n", "9", "--q", "3"],
        ["spinor", "--q", "3", "--matrix", str(mat)],
        ["oracle", "--what", "omega-order", "--n", "3", "--q", "3"],
        ["oracle", "--what", "witt-type", "--n", "2", "--q", "3"],
        ["certify", "--n", "9", "--q", "3", "--seed", "1"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CHAIN_PROBE, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert runs[:-1] == [[argv[0], 0, []] for argv in commands[:-1]]
    assert runs[-1] == ["certify", 0, ["omega23.certify", "omega23._kernels"]]


def test_importing_main_module_runs_nothing():
    # package walkers import every submodule, omega23.__main__ included
    import importlib

    importlib.import_module("omega23.__main__")


@pytest.mark.parametrize("argv", [
    [],
    ["certify", "--n", "9", "--q", "3"],
    ["verify", "--n", "9", "--q", "3", "--suite", "all"],
    ["verify", "--n", "9", "--q", "9", "--suite", "all"],
], ids=["import", "certify", "verify", "verify-q9"])
def test_prime_field_commands_do_not_import_sympy(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SYMPY_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "sympy loaded: False"
    if argv:
        assert check(argv[0], "\n".join(lines[:-1]))["command"] == argv[0]
