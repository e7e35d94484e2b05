"""Command-line interface: exit codes, schemas, determinism."""

import io
import json
from importlib import resources

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


def test_certify_forced_pair_inconclusive(capsys):
    # the non-admissible point lands outside the kernel: the closure doubles
    code, out, _ = run_cli(capsys, "certify", "--n", "9", "--q", "3",
                           "--a", "1", "--force")
    assert code == 3
    cert = check("certify", out)["certificate"]
    assert cert["verdict"] == "Inconclusive"
    assert int(cert["computed_order"]) == 2 * int(cert["target_order"])


def test_certify_restricted(capsys):
    code, out, _ = run_cli(capsys, "certify", "--n", "15", "--q", "3",
                           "--restrict-s9")
    assert code == 0
    cert = check("certify", out)["certificate"]
    assert cert["verdict"] == "Generates" and cert["n"] == 9


def test_certify_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("OMEGA23_SEED", "777")
    code, out, _ = run_cli(capsys, "certify", "--n", "9", "--q", "3")
    assert code == 0
    doc = check("certify", out)
    assert doc["certificate"]["seed"] == 777 and doc["params"]["seed"] == 777


@pytest.mark.parametrize("command", ["generate", "verify", "certify"])
def test_oversized_dimension_refused_before_building(capsys, monkeypatch, command):
    def unreachable(*args, **kwargs):
        raise AssertionError("build_pair reached past the matrix-size bound")

    monkeypatch.setattr("omega23.cli.build_pair", unreachable)
    code, out, err = run_cli(capsys, command, "--n", "100000", "--q", "3")
    assert code == 2 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "GenError"
    assert "MAX_MATRIX_ENTRIES" in diag["detail"]


def test_matrix_bound_admits_acceptance_grid():
    from omega23.cli import MAX_MATRIX_ENTRIES

    # the largest grid point of tests/test_acceptance.py: n = 25, q = 27 = 3^3
    assert 25 * 25 * 3 <= MAX_MATRIX_ENTRIES
    assert 100000 * 100000 > MAX_MATRIX_ENTRIES


# ---------------------------------------------------------------------------
# search-a


def test_search_a_matches_library(capsys):
    code, out, _ = run_cli(capsys, "search-a", "--n", "9", "--q", "11")
    assert code == 0
    doc = check("search-a", out)
    found = search_a(9, make_field(11, 1), all=True)
    assert doc["values"] == [int(v._arr()[0]) for v in found.values]
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


def test_spinor_stdin(capsys, monkeypatch, tmp_path):
    gram = tmp_path / "j.json"
    gram.write_text(json.dumps([[1, 0], [0, 1]]))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps([[0, 1], [4, 0]])))
    code, out, _ = run_cli(capsys, "spinor", "--q", "5",
                           "--matrix", "-", "--gram", str(gram))
    assert code == 0
    check("spinor", out)


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
])
def test_usage_errors_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    diag = json.loads(err)
    assert set(diag) == {"error", "detail"} and diag["detail"]


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
