import contextlib
import dataclasses
import io
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclomac import (
    ClosedForm,
    EisensteinTerm,
    cli,
    enumerate_characters,
    pfdform,
)
from cyclomac.cli import (
    MAX_DEGREE_BOUND,
    MAX_EXPONENT,
    MAX_K,
    MAX_N,
    MAX_ORDER,
    MAX_T,
    PolynomialSyntaxError,
    main,
    parse_polynomial,
)
from cyclomac.comb import euler_phi
from cyclomac.polynomial import Polynomial, format_polynomial


def test_parse_monomial():
    assert parse_polynomial("x^2") == Polynomial.monomial(2)


def test_parse_sum_of_monomials():
    assert parse_polynomial("x + x^3") == Polynomial([0, 1, 0, 1])


def test_parse_rational_coefficients_and_reordering():
    p = parse_polynomial("1/2*x^2 - x + 1/2*x^3")
    assert p == Polynomial([0, -1, Fraction(1, 2), Fraction(1, 2)])


def test_parse_combines_like_terms():
    assert parse_polynomial("x + x - 2x") == Polynomial()
    assert parse_polynomial("3x^2 + x^2") == Polynomial([0, 0, 4])


def test_parse_leading_sign_and_constants():
    assert parse_polynomial("-x + 1") == Polynomial([1, -1])
    assert parse_polynomial("2/3") == Polynomial([Fraction(2, 3)])


def test_parse_whitespace_insensitive():
    assert parse_polynomial("  1/2 * x ^ 2  ") == parse_polynomial("1/2*x^2")


def test_round_trip_is_identity_on_canonical_form():
    for src in ["x^2", "x + x^3", "1/2*x^2 - x + 1/2*x^3", "-x + 2/3*x^5", "0"]:
        p = parse_polynomial(src)
        printed = format_polynomial(p)
        assert parse_polynomial(printed) == p
        assert format_polynomial(parse_polynomial(printed)) == printed


def test_parse_error_carries_offset():
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_polynomial("x^2 + $")
    assert info.value.offset == 6


def test_parse_rejects_zero_denominator():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("1/0*x")


def test_parse_rejects_trailing_garbage():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x 2")


def test_parse_caps_the_exponent():
    assert parse_polynomial(f"x^{MAX_EXPONENT}").degree() == MAX_EXPONENT
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_polynomial(f"x + 2*x^{MAX_EXPONENT + 1}")
    assert info.value.offset == 8
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x^" + "9" * 5000)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_text_output(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--N", "1", "--k", "2", "--t", "1", "--Q", "x",
        "--order", "5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "q^1: 1" in lines and "q^2: 3" in lines and "q^5: 6" in lines


def test_expand_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--N", "1", "--k", "2", "--Q", "x",
        "--order", "5", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"command", "params", "series"}
    assert report["command"] == "expand"
    assert report["series"]["coefficients"] == ["0", "1", "3", "4", "7", "6"]
    assert report["params"] == {
        "N": 1, "k": 2, "Q": "x", "order": 5, "t": 1, "strict": True,
    }


def test_expand_csv_output(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--N", "1", "--k", "2", "--Q", "x",
        "--order", "3", "--format", "csv",
    )
    assert code == 0
    rows = [r for r in out.strip().splitlines()]
    assert rows[0] == "exponent,coefficient"
    assert rows[1:] == ["0,0", "1,1", "2,3", "3,4"]


def test_expand_weak_variant(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--N", "1", "--k", "2", "--t", "2", "--Q", "x",
        "--order", "6", "--weak", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["params"]["strict"] is False


def test_closed_form_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "closed-form", "--N", "4", "--k", "2", "--Q", "x^2",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"command", "params", "closed_form", "g_form"}
    assert report["g_form"]["constant"] == "-1/8"
    for term in report["closed_form"]["terms"]:
        assert set(term) == {"weight", "character", "dilation", "coefficient"}


def test_verify_exit_zero_on_match(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--N", "4", "--k", "2", "--Q", "x^2",
        "--order", "30", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert all(cert["match"] for cert in report["certificates"])
    assert {c["lhs"] for c in report["certificates"]} == {
        "closed-form-F", "closed-form-G",
    }


def test_verify_with_nested_index_certificates(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--N", "3", "--k", "1", "--Q", "x", "--t", "2",
        "--order", "20", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    labels = {c["lhs"] for c in report["certificates"]}
    assert "isobaric-strict(t=2)" in labels
    assert "isobaric-weak(t=2)" in labels
    assert "isobaric-closed-form(t=2)" in labels


def test_verify_symmetry_violation_exits_two(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--N", "3", "--k", "2", "--Q", "x", "--order", "10",
    )
    assert code == 2
    assert "SymmetryViolation" in err


def test_invalid_input_json_error_is_structured(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--N", "3", "--k", "2", "--Q", "x",
        "--order", "10", "--format", "json",
    )
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "SymmetryViolationError"
    assert "functional equation" in payload["error"]["clause"]


def test_syntax_error_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "expand", "--N", "1", "--k", "2", "--Q", "x$", "--order", "5",
    )
    assert code == 2
    assert "PolynomialSyntaxError" in err


def test_examples_command_reports_reference_constants(capsys):
    code, out, _ = run_cli(
        capsys, "examples", "--order", "25", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    constants = [case["g_constant"] for case in report["cases"]]
    assert constants == ["-1/32", "-1/18", "-1/8", "-1/2"]
    assert all(case["ok"] for case in report["cases"])
    assert report["status"] == "ok"


def test_sweep_command_small_bounds(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--max-N", "4", "--max-k", "2", "--order", "20",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["passed"] == report["summary"]["total"] > 0
    for item in report["items"]:
        assert item["certificate"]["match"]
        assert item["coefficients_rational"]
        assert item["conjugate_relation"]


def test_env_var_sets_default_order(capsys, monkeypatch):
    monkeypatch.setenv("CYCLOMAC_ORDER", "7")
    code, out, _ = run_cli(
        capsys, "expand", "--N", "1", "--k", "2", "--Q", "x",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["params"]["order"] == 7


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "expand", "--N", "1", "--k", "2", "--Q", "x",
        "--order", "4", "--format", "json", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["series"]["coefficients"][2] == "3"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_exits_two_with_clause(tmp_path, capsys, fmt, where):
    target = tmp_path if where == "directory" else tmp_path / "absent" / "out"
    code, out, err = run_cli(
        capsys, "closed-form", "--N", "3", "--k", "1", "--Q", "x",
        "--format", fmt, "--output", str(target),
    )
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert cli.OutputPathError.clause in err
    if fmt == "json":
        assert json.loads(err)["error"]["clause"] == cli.OutputPathError.clause


def test_csv_rejected_for_cyclotomic_payload(capsys):
    code, _, err = run_cli(
        capsys, "closed-form", "--N", "4", "--k", "2", "--Q", "x^2",
        "--format", "csv",
    )
    assert code == 2
    assert "CSV" in err


@pytest.mark.parametrize("n, k, t, q, clause", [
    ("2", "1", "1", "1+x", "constant term: Q(0) = 0"),
    ("2", "1", "0", "x", "positive parameters"),
    ("0", "1", "1", "x", "positive parameters"),
    ("2", "0", "1", "x", "positive parameters"),
    ("2", "1", "-7", "x", "positive parameters"),
    ("2", "1", str(MAX_T + 1), "x", "parameter bound"),
    ("3", "1", "100000", "x", "parameter bound"),
    (str(MAX_N + 1), "1", "1", "x", "parameter bound"),
])
def test_invalid_expand_input_exits_two_with_clause(capsys, n, k, t, q, clause):
    code, out, err = run_cli(
        capsys, "expand", "--N", n, "--k", k, "--t", t, "--Q", q,
        "--order", "5", "--format", "json",
    )
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert clause in json.loads(err)["error"]["clause"]


@pytest.mark.parametrize("command", [
    ["verify", "--N", "4", "--k", "2", "--Q", "x^2"],
    ["sweep"],
    ["examples"],
])
def test_csv_rejected_before_any_computation(capsys, monkeypatch, command):
    def fail(*args, **kwargs):
        raise AssertionError("computed before rejecting the format")

    monkeypatch.setattr(cli, "brute_force", fail)
    monkeypatch.setattr(cli, "closed_form", fail)
    code, out, err = run_cli(capsys, *command, "--format", "csv")
    assert code == 2
    assert out == ""
    assert "CSV" in err


def _fail(*args, **kwargs):
    raise AssertionError("computed before rejecting the input")


def test_large_exponent_exits_two_before_any_computation(capsys, monkeypatch):
    monkeypatch.setattr(cli, "closed_form", _fail)
    code, out, err = run_cli(
        capsys, "closed-form", "--N", "5", "--k", "1", "--Q", "x^300000",
        "--format", "json",
    )
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "PolynomialSyntaxError"
    assert "offset 2" in error["message"]


@pytest.mark.parametrize("order_argv, env", [
    (["--order", str(MAX_ORDER + 1)], None),
    (["--order", "0"], None),
    ([], str(MAX_ORDER + 1)),
    ([], "0"),
    ([], "sixty"),
])
def test_order_outside_bounds_exits_two(capsys, monkeypatch, order_argv, env):
    if env is None:
        monkeypatch.delenv(cli.DEFAULT_ORDER_ENV, raising=False)
    else:
        monkeypatch.setenv(cli.DEFAULT_ORDER_ENV, env)
    monkeypatch.setattr(cli, "brute_force", _fail)
    code, out, err = run_cli(
        capsys, "expand", "--N", "1", "--k", "2", "--Q", "x", *order_argv,
        "--format", "json",
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["clause"].startswith("order bound")


def test_corrupt_closed_form_makes_verify_report_the_mismatch(capsys, monkeypatch):
    real = cli.closed_form

    def corrupt(inp):
        cf = real(inp)
        first, *rest = cf.terms
        doubled = dataclasses.replace(first, coefficient=first.coefficient * 2)
        return dataclasses.replace(cf, terms=(doubled, *rest))

    monkeypatch.setattr(cli, "closed_form", corrupt)
    code, out, _ = run_cli(
        capsys, "verify", "--N", "4", "--k", "2", "--Q", "x^2",
        "--order", "20", "--format", "json",
    )
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "mismatch"
    # F = f(2, 1; q^2) - 4 f(2, 1; q^4); doubling the first term shows at q^2.
    for cert in report["certificates"]:
        assert not cert["match"]
        assert cert["first_mismatch"] == {"exponent": 2, "lhs": "2", "rhs": "1"}


def test_sweep_expands_each_input_once(capsys):
    pfdform._pole_taylor.cache_clear()
    code, out, _ = run_cli(
        capsys, "sweep", "--max-N", "6", "--max-k", "2", "--order", "10",
        "--format", "json",
    )
    assert code == 0
    items = json.loads(out)["items"]
    assert {i["N"] for i in items} >= {1, 2, 3}
    info = pfdform._pole_taylor.cache_info()
    # closed_form and conjugate_relation_violations share one expansion, at
    # the rational poles N = 1, 2 as at every other level.
    assert info.misses == len(items) > 0
    assert info.hits == len(items)


def test_sweep_reports_a_closed_form_that_is_not_rational(capsys, monkeypatch):
    # A lone weight-1 term on a character mod 5 with chi(2) = zeta_4.
    term = EisensteinTerm(weight=1, character=enumerate_characters(5)[1],
                          dilation=1, coefficient=Fraction(1))
    monkeypatch.setattr(
        cli, "closed_form",
        lambda inp: ClosedForm(inp, "F", (term,), Fraction(0)),
    )
    code, out, _ = run_cli(
        capsys, "sweep", "--max-N", "4", "--max-k", "1", "--order", "10",
        "--format", "json",
    )
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "mismatch"
    assert report["items"]
    for item in report["items"]:
        assert item["coefficients_rational"] is False
        assert item["ok"] is False
        assert item["certificate"]["match"] is False


@pytest.mark.parametrize("argv, clause", [
    (["verify", "--N", "3", "--k", "1", "--Q", "x", "--t", "0"],
     "positive parameters"),
    (["verify", "--N", "3", "--k", "1", "--Q", "x", "--t", "-7"],
     "positive parameters"),
    (["verify", "--N", "3", "--k", "1", "--Q", "x", "--t", str(MAX_T + 1)],
     "parameter bound"),
    (["closed-form", "--N", "-2", "--k", "1", "--Q", "x"], "positive parameters"),
    (["closed-form", "--N", "20000", "--k", "1", "--Q", "x"], "parameter bound"),
    (["sweep", "--max-N", "0"], "positive parameters"),
    (["sweep", "--max-N", str(MAX_N + 1)], "parameter bound"),
    (["closed-form", "--N", "3", "--k", str(MAX_K), "--Q", "x"],
     "functional equation"),
    (["verify", "--N", "3", "--k", "0", "--Q", "x"], "positive parameters"),
    (["closed-form", "--N", "3", "--k", str(MAX_K + 1), "--Q", "x"],
     "parameter bound"),
    (["closed-form", "--N", "3", "--k", "3000000", "--Q", "x"],
     "parameter bound"),
    (["sweep", "--max-k", "0"], "positive parameters"),
    (["sweep", "--max-k", str(MAX_K + 1)], "parameter bound"),
    (["sweep", "--degree-bound", "0"], "positive parameters"),
    (["sweep", "--degree-bound", str(MAX_DEGREE_BOUND + 1)], "parameter bound"),
])
def test_bad_parameters_exit_two_before_any_computation(capsys, monkeypatch,
                                                        argv, clause):
    monkeypatch.setattr(cli, "brute_force", _fail)
    monkeypatch.setattr(cli, "closed_form", _fail)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert clause in json.loads(err)["error"]["clause"]
    # Rejecting a huge k must not build a coefficient list of length phi(N) k.
    assert peak < 5_000_000


@pytest.mark.parametrize("n", ["2", "3", "5"])
def test_zero_numerator_has_an_empty_closed_form(capsys, n):
    code, out, _ = run_cli(
        capsys, "closed-form", "--N", n, "--k", "1", "--Q", "0", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["closed_form"]["terms"] == report["g_form"]["terms"] == []
    code, out, _ = run_cli(
        capsys, "verify", "--N", n, "--k", "1", "--Q", "0", "--t", "2",
        "--order", "12", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["status"] == "ok"


# Out-of-range values per flag; each fuzzed argv breaks at most one flag.
_BAD_VALUES = {
    "--N": [0, -7, MAX_N + 1],
    "--k": [0, -2, MAX_K + 1],
    "--t": [0, -7, MAX_T + 1],
    "--order": [0, -1, MAX_ORDER + 1],
}


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(["expand", "closed-form", "verify"]))
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    q = draw(st.sampled_from(["middle", "0"]) | st.sampled_from([
        "x", "x^2", "x + x^3", "1/2*x^2 - x", "1 + x",
        "x$", "", "x^", "1/0*x", "2*", f"x^{MAX_EXPONENT + 1}",
    ]))
    if q == "middle":  # x^(phi(N) k / 2) is admissible when phi(N) k is even
        q = f"x^{euler_phi(n) * k // 2}"
    values = {"--N": n, "--k": k, "--t": draw(st.integers(1, 3)),
              "--order": draw(st.integers(1, 20))}
    bad = draw(st.none() | st.sampled_from(list(_BAD_VALUES)))
    if bad is not None:
        values[bad] = draw(st.sampled_from(_BAD_VALUES[bad]))
    if command == "closed-form":
        del values["--t"]
    argv = [command, "--Q", q, "--format",
            draw(st.sampled_from(["json", "text", "csv"]))]
    for flag, value in values.items():
        argv += [flag, str(value)]
    if command == "expand" and draw(st.booleans()):
        argv.append("--weak")
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_cli_argv())
def test_any_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
