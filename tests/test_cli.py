import contextlib
import hashlib
import io
import json
import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclomac import (
    ClosedForm,
    CycNum,
    EisensteinTerm,
    cli,
    enumerate_characters,
    macmahon,
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
from helpers import parse_polynomial_by_descent


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


@pytest.mark.parametrize("src, offset", [
    ("2*", 2),
    ("2 * 3", 4),
    ("x^ 2 + 2 *   ", 13),
])
def test_expected_x_after_star_reports_the_rejected_token(src, offset):
    # The offset is the token that is not x (or the end of input), not the
    # byte after '*'.
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_polynomial(src)
    assert info.value.offset == offset
    assert str(info.value) == f"expected x after '*' (at offset {offset})"


@pytest.mark.parametrize("src", ["x^\u0663", "x^\u00b2", "x^\u30002"])
def test_parse_accepts_only_ascii_digits_and_spaces(capsys, src):
    # Arabic-Indic three, superscript two and an ideographic space: each is
    # rejected at its own offset, which is also its byte offset before it.
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_polynomial(src)
    assert info.value.offset == 2
    code, out, err = run_cli(capsys, "closed-form", "--N", "5", "--k", "1",
                             "--Q", src, "--format", "json")
    assert code == 2
    assert out == ""
    message = json.loads(err)["error"]["message"]
    assert message == f"unexpected character {src[2]!r} (at offset 2)"


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


# The parser's input alphabet: every token character, each ASCII whitespace
# character, four characters it rejects ('$', a non-ASCII digit, a separator
# that str.isspace accepts, and NUL), the exponents either side of the cap,
# and a literal longer than the interpreter's digit limit.
PARSER_PIECES = (list("0123456789+-*/^x") + list(" \t\n\r\x0b\x0c")
                 + ["$", "\u0663", "\x1c", "\x00", "10000", "10001",
                    "9" * 4400])
TERMS = st.tuples(
    st.sampled_from(["", "+", "-", " + ", " - "]),
    st.sampled_from(["", "0", "3", "2/3", "10/4", "7*", "1/2 * ", "1/0"]),
    st.sampled_from(["", "x", "x^2", "x^0", "x ^ 10", "x^10001", "x^"]),
).map("".join)


def _parsed(parse, src):
    try:
        return "ok", parse(src)
    except PolynomialSyntaxError as exc:
        return "error", str(exc), exc.offset


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(st.lists(st.sampled_from(PARSER_PIECES), max_size=12),
                 st.lists(TERMS, min_size=1, max_size=5)).map("".join))
@example("3x^2 + x^2")
@example("-")
@example("+ - x")
@example("x^ + $")
@example("x^" + "9" * 5000)
@example(f"x + 2*x^{MAX_EXPONENT + 1}")
def test_parse_matches_the_recursive_descent_oracle(src):
    # The same polynomial, or the same message at the same offset.
    assert _parsed(parse_polynomial, src) == _parsed(
        parse_polynomial_by_descent, src)


@pytest.mark.parametrize("src, parsed", [
    ("-", ("error", "expected a term (at offset 1)", 1)),
    ("+ - x", ("error", "expected a term (at offset 2)", 2)),
    ("x^" + "9" * 5000, ("error", "integer literal too long (at offset 2)", 2)),
])
def test_parse_reports_signs_without_a_term_and_long_literals(src, parsed):
    assert _parsed(parse_polynomial, src) == parsed


def test_syntax_error_is_a_validation_error():
    assert issubclass(PolynomialSyntaxError, pfdform.ValidationError)
    assert issubclass(PolynomialSyntaxError, ValueError)
    assert PolynomialSyntaxError.clause == "syntax"


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


def test_main_builds_the_parser_once_and_parses_each_argv_afresh(capsys):
    # The second run of each pair drops --t and --weak: its options come from
    # its own argv, not from the first run's namespace.  Full option names
    # take the fast parse and build no parser; the abbreviation --ord needs
    # argparse, whose parser is built once and then reused.
    cli.build_parser.cache_clear()
    for order_flag, builds in (("--order", (0, 0)), ("--ord", (1, 1))):
        code, out, _ = run_cli(
            capsys, "expand", "--N", "1", "--k", "2", "--Q", "x", "--t", "2",
            "--weak", order_flag, "5", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["params"]["strict"] is False
        code, out, _ = run_cli(
            capsys, "expand", "--N", "1", "--k", "2", "--Q", "x",
            order_flag, "5", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["params"] == {
            "N": 1, "k": 2, "Q": "x", "order": 5, "t": 1, "strict": True,
        }
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == builds


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    # The installed `cyclomac` script calls main() with no argv.
    monkeypatch.setattr("sys.argv", [
        "cyclomac", "expand", "--N", "1", "--k", "2", "--Q", "x",
        "--order", "5", "--format", "json",
    ])
    assert main() == 0
    out = capsys.readouterr().out
    assert json.loads(out)["series"]["coefficients"] == [
        "0", "1", "3", "4", "7", "6"]
    monkeypatch.setattr("sys.argv", ["cyclomac", "expand", "--N", "x"])
    with pytest.raises(SystemExit) as info:
        main()
    assert info.value.code == 2
    assert "argument --N: invalid int value: 'x'" in capsys.readouterr().err


_ALL_OPTIONS = {flag: option for command in cli._COMMANDS.values()
                for flag, option in command.options.items()}
# Words argparse reads in its own way in place of an option: help,
# abbreviations, `--opt=value`, `--`, `-` and words that are no option.
_ODD_WORDS = ["-h", "--help", "--ord", "--max", "--we", "--N=3", "--Q=-x",
              "--format=json", "--", "-", "", "x", "expand"]


def _value_words(kind) -> tuple[list[str], list[str]]:
    """Words the fast parse takes as a value of an option's kind, among them
    ones int() reads loosely, and words it leaves to argparse, among them
    ones that start with '-'."""
    if kind is int:
        return (["1", "2", "3", "12", "60", "0", " 4", "1_0", "+5"],
                ["x", "", "1.5", "-2"])
    if kind is str:
        return (["x", "x^2", "x + x^3", "out.json", ""],
                ["-x", "-x + x^3", "-h x", "--N"])
    return list(kind), ["yaml", "JSON", "", "-x"]


@st.composite
def _table_argv(draw):
    """A command (or an unknown word) with most of its required options and
    a few more of its own or of other commands, repeats allowed.  A value
    is now and then bad or missing, and an odd word may go anywhere."""
    command = draw(st.sampled_from([*cli._COMMANDS, "bogus"]))
    own = cli._COMMANDS[command].options if command in cli._COMMANDS else {}
    flags = [flag for flag, option in own.items()
             if option[2] and draw(st.integers(0, 9))]
    flags += draw(st.lists(st.sampled_from(sorted(own or _ALL_OPTIONS))
                           | st.sampled_from(sorted(_ALL_OPTIONS)), max_size=6))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        kind = _ALL_OPTIONS[flag][0]
        if kind is not None:
            good, bad = _value_words(kind)
            slot = draw(st.integers(0, 19))  # 0: no value, 1 or 2: a bad one
            if slot:
                argv.append(draw(st.sampled_from(bad if slot <= 2 else good)))
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(_ODD_WORDS)))
    return argv


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_table_argv())
def test_fast_parse_returns_what_argparse_returns_or_none(argv):
    fast = cli._fast_parse(argv)
    if fast is not None:
        assert vars(fast) == vars(cli.build_parser().parse_args(argv))


def test_expand_at_the_largest_prime_level_and_k_costs_only_the_order(capsys):
    # Phi_N^k has degree phi(N) k = 997,200 here; only its first order + 1
    # coefficients may be computed.  Below q^N, 1/Phi_N(y) = (1 - y) / (1 - y^N)
    # is 1 - y, so q^m has coefficient sum over n | m of
    # (-1)^(m/n - 1) binomial(k, m/n - 1).
    n_level, k, order = 9973, MAX_K, 5
    assert n_level <= MAX_N and euler_phi(n_level) == n_level - 1
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "expand", "--N", str(n_level), "--k", str(k), "--Q", "x",
        "--order", str(order), "--format", "json",
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    expected = [0] + [
        sum((-1) ** (m // n - 1) * math.comb(k, m // n - 1)
            for n in range(1, m + 1) if m % n == 0)
        for m in range(1, order + 1)
    ]
    assert json.loads(out)["series"]["coefficients"] == [str(c) for c in expected]
    assert elapsed < 5.0


def test_expand_at_high_order_with_three_indices_stays_fast(capsys):
    # The nested brute force at order 1000 and t = 3; its text report is
    # pinned by sha256.
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "expand", "--N", "4", "--k", "2", "--Q", "x^2", "--t", "3",
        "--order", "1000",
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d90fd56faae8c244394ec5db1793154d36247936ae5b626448051b159280c7e4")
    assert elapsed < 5.0


def test_closed_form_at_prime_level_43_stays_fast(capsys):
    # Character values at level 42 meet pole data at level 43, so the
    # coefficients live at level 1806; the report is pinned by sha256.
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "closed-form", "--N", "43", "--k", "1", "--Q", "x^21",
        "--format", "json",
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e553a6d7b63fc0e0f49a73fb607ff8e64563683d1b86ec95a35f873fdc6203a6")
    assert elapsed < 5.0


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


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_verify_with_nested_index_certificates(capsys, monkeypatch):
    calls = {"closed_form": 0, "evaluate": 0, "brute_force": 0}
    monkeypatch.setattr(cli, "closed_form", _counting(
        calls, "closed_form", pfdform.closed_form))
    monkeypatch.setattr(cli, "brute_force", _counting(
        calls, "brute_force", cli.brute_force))
    monkeypatch.setattr(ClosedForm, "evaluate", _counting(
        calls, "evaluate", ClosedForm.evaluate))
    code, out, _ = run_cli(
        capsys, "verify", "--N", "3", "--k", "1", "--Q", "x", "--t", "3",
        "--order", "20", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    labels = {c["lhs"] for c in report["certificates"]}
    assert "isobaric-strict(t=3)" in labels
    assert "isobaric-weak(t=3)" in labels
    assert "isobaric-closed-form(t=3)" in labels
    # One closed form per weight k s, s = 1..t; the F certificate's evaluated
    # U_1 is reused by the isobaric closed form, so only the G-form and
    # U_2, ..., U_t are evaluated besides it.  Brute force builds the strict
    # and the weak nested series, then the t single sums.
    assert calls == {"closed_form": 3, "evaluate": 4, "brute_force": 5}


@pytest.mark.parametrize("t", [3, 20])
def test_verify_expands_each_weight_once(capsys, t):
    # weight_series caches one Phi_N^-k.  The nested brute forces at weight
    # k run before the single sums, so U_1 finds it: one miss per weight
    # s k, s = 1..t, and none for the nested series.
    macmahon._inverse_power.cache_clear()
    code, _, _ = run_cli(
        capsys, "verify", "--N", "3", "--k", "1", "--Q", "x", "--t", str(t),
        "--order", "60", "--format", "json",
    )
    assert code == 0
    assert macmahon._inverse_power.cache_info().misses == t


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


def test_text_error_names_the_clause(capsys):
    code, out, err = run_cli(capsys, "expand", "--N", "0", "--k", "1", "--Q", "x")
    assert code == 2
    assert out == ""
    assert err == ("error [NonPositiveParameterError] positive parameters: "
                   "t, N, k >= 1: N must be a positive integer\n")


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


# A cheap argv of each command without --order.
_DEFAULT_ORDER_RUNS = {
    "expand": ["--N", "1", "--k", "2", "--Q", "x"],
    "closed-form": ["--N", "1", "--k", "2", "--Q", "x"],
    "verify": ["--N", "1", "--k", "2", "--Q", "x"],
    "examples": [],
    "sweep": ["--max-N", "1", "--max-k", "1"],
}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_help_states_the_order_a_run_without_order_reports(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    stated = help_text.split("(default $CYCLOMAC_ORDER or ")[1].split(")")[0]
    code, out, _ = run_cli(capsys, command, *_DEFAULT_ORDER_RUNS[command],
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["params"]["order"] == int(stated)


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
    assert err.count(cli.OutputPathError.clause) == 1
    if fmt == "json":
        assert json.loads(err)["error"]["clause"] == cli.OutputPathError.clause


def test_empty_output_path_exits_two_with_clause(capsys, monkeypatch):
    monkeypatch.setattr(cli, "brute_force", _fail)
    code, out, err = run_cli(
        capsys, "expand", "--N", "1", "--k", "1", "--Q", "x", "--order", "2",
        "--output", "",
    )
    assert code == 2
    assert out == ""
    assert err.count(cli.OutputPathError.clause) == 1


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_is_rejected_before_the_command_runs(
        tmp_path, capsys, monkeypatch, where):
    def closed_form(inp):
        raise AssertionError("the command ran before --output was checked")

    monkeypatch.setattr(cli, "closed_form", closed_form)
    target = tmp_path if where == "directory" else tmp_path / "absent" / "out"
    code, out, err = run_cli(
        capsys, "closed-form", "--N", "31", "--k", "1", "--Q", "x^15",
        "--output", str(target),
    )
    assert code == 2
    assert out == ""
    assert cli.OutputPathError.clause in err
    assert list(tmp_path.iterdir()) == []


def test_output_write_failure_exits_two_with_clause(tmp_path, capsys,
                                                    monkeypatch):
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    code, out, err = run_cli(
        capsys, "expand", "--N", "1", "--k", "2", "--Q", "x", "--order", "4",
        "--output", str(tmp_path / "out.txt"),
    )
    assert code == 2
    assert out == ""
    assert err.count(cli.OutputPathError.clause) == 1
    assert "Permission denied" in err


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
    if env is not None:
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
        doubled = first._replace(coefficient=first.coefficient * 2)
        return cf._replace(terms=(doubled, *rest))

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


def test_sweep_expands_each_input_once(capsys, monkeypatch):
    calls = {"c_coefficients": 0}
    monkeypatch.setattr(pfdform, "c_coefficients", _counting(
        calls, "c_coefficients", pfdform.c_coefficients))
    pfdform.pfd_coefficients.cache_clear()
    code, out, _ = run_cli(
        capsys, "sweep", "--max-N", "6", "--max-k", "2", "--order", "10",
        "--format", "json",
    )
    assert code == 0
    items = json.loads(out)["items"]
    assert {i["N"] for i in items} >= {1, 2, 3}
    info = pfdform.pfd_coefficients.cache_info()
    # closed_form and conjugate_relation_violations share one expansion and
    # one check of the two weight-coefficient routes, at the rational poles
    # N = 1, 2 as at every other level.
    assert info.misses == info.hits == len(items) > 0
    assert calls["c_coefficients"] == len(items)


def test_sweep_validates_each_input_once(capsys, monkeypatch):
    calls = {"validate": 0}
    counted = _counting(calls, "validate", pfdform.validate)
    monkeypatch.setattr(cli, "validate", counted)
    monkeypatch.setattr(pfdform, "validate", counted)
    pfdform.pfd_coefficients.cache_clear()
    code, out, _ = run_cli(
        capsys, "sweep", "--max-N", "6", "--max-k", "2", "--order", "10",
        "--format", "json",
    )
    assert code == 0
    items = json.loads(out)["items"]
    assert len(items) > 0
    assert calls["validate"] == len(items)


def test_sweep_reports_a_closed_form_that_is_not_rational(capsys, monkeypatch):
    # A lone weight-1 term on a character mod 5 with chi(2) = zeta_4.
    term = EisensteinTerm(weight=1, character=enumerate_characters(5)[1],
                          dilation=1, coefficient=CycNum.from_rational(1, 1))
    monkeypatch.setattr(
        cli, "closed_form",
        lambda inp: ClosedForm(inp, "F", (term,), CycNum.zero()),
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
    (["verify", "--N", "3", "--k", "1", "--Q", "x^9000 + x", "--t", "20"],
     "degree bound"),
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
