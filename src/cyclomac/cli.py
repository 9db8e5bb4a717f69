"""Command-line front end: a small parser for numerator polynomials, series
expansion, closed-form printing, identity verification, the four reference
reproductions, and the invariant sweep.

Exit codes: 0 when every requested certificate matches, 1 on a mismatch,
2 on invalid input, including an --output path that cannot be written.
"""

from __future__ import annotations

import json
import os
import sys
from functools import cache
from itertools import accumulate, repeat
from math import lcm
from operator import mul
from types import SimpleNamespace
from typing import NamedTuple

from .comb import euler_phi
from .field import NotRationalError
from .macmahon import (
    Certificate,
    MacMahonSpec,
    brute_force,
    certify,
    evaluate_isobaric,
)
from .pfdform import (
    AdmissibleInput,
    NonPositiveParameterError,
    ValidationError,
    admissible_polynomials,
    closed_form,
    conjugate_relation_violations,
    to_g_form,
    validate,
)
from .polynomial import Polynomial, format_polynomial

DEFAULT_ORDER_ENV = "CYCLOMAC_ORDER"

# Input caps, checked before anything of that size is allocated: the largest
# exponent the polynomial parser accepts, the largest truncation order, the
# largest N (also for sweep's --max-N), the largest k (also for --max-k), the
# largest nesting depth t and the largest sweep --degree-bound.  A verify
# at depth t builds t single sums by brute force and by closed form, the
# closed-form ones at weights up to k t, and its isobaric assemblies make
# t(t-1)/2 series products each.  At k = 100 one closed form at N = 3
# takes about 0.1 s, and the sweep corpus grows
# polynomially in its degree bound (285 inputs at 12, 332 at 14), so the
# sweep at every cap takes about 0.3 s at order 60.
MAX_EXPONENT = 10_000
MAX_ORDER = 10_000
MAX_N = 10_000
MAX_K = 100
MAX_T = 20
MAX_DEGREE_BOUND = 14

# The four reference cases: denominator (1 + a q^n + q^(2n))^2 for
# a in {2, 1, 0, -1}, i.e. squared cyclotomic denominators at N = 2, 3, 4, 6,
# with numerator x^2, together with their known exact constants num/den.
REFERENCE_CASES = [
    {"a": 2, "N": 2, "k": 4, "constant": (-1, 32)},
    {"a": 1, "N": 3, "k": 2, "constant": (-1, 18)},
    {"a": 0, "N": 4, "k": 2, "constant": (-1, 8)},
    {"a": -1, "N": 6, "k": 2, "constant": (-1, 2)},
]


class CsvFormatError(ValidationError):
    clause = "format: CSV applies to expand only"


class OrderBoundError(ValidationError):
    clause = f"order bound: 1 <= order <= {MAX_ORDER}"


class ParameterBoundError(ValidationError):
    clause = (f"parameter bound: N, max-N <= {MAX_N}, k, max-k <= {MAX_K}, "
              f"t <= {MAX_T}, degree-bound <= {MAX_DEGREE_BOUND}")


class OutputPathError(ValidationError):
    clause = "output: --output must name a writable file"


class PolynomialSyntaxError(ValidationError):
    """Parse failure, carrying the byte offset of the offending token."""

    clause = "syntax"

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# The polynomial parser's ASCII whitespace and digits, as in `string`.
_WHITESPACE = " \t\n\r\x0b\x0c"
_DIGITS = "0123456789"


def _tokenize(src: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch in _WHITESPACE:
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(src) and src[j] in _DIGITS:
                j += 1
            try:
                value = int(src[i:j])
            except ValueError:  # longer than the interpreter's digit limit
                raise PolynomialSyntaxError("integer literal too long", i) from None
            tokens.append(("int", value, i))
            i = j
        elif ch in "+-*/^x":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise PolynomialSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(src)))
    return tokens


def parse_polynomial(src: str) -> Polynomial:
    """Parse a sum like "1/2*x^2 - x + 3x^3"; like terms combine.  A term is
    c, c x^e, c*x^e or x^e (c an integer or a fraction, x alone is x^1), and
    a sign comes before every term but the first, where it is optional."""
    tokens = _tokenize(src)
    terms: list[tuple[int, int, int]] = []  # (exponent, signed a, b) for a/b
    i = 0
    while i == 0 or tokens[i][0] != "end":
        kind, value, offset = tokens[i]
        sign = -1 if kind == "-" else 1
        if kind in ("+", "-"):
            i += 1
            kind, value, offset = tokens[i]
        elif i > 0:
            raise PolynomialSyntaxError("unexpected trailing input", offset)
        if kind == "int":
            num, den = value, 1
            i += 1
            if tokens[i][0] == "/":
                kind, den, offset = tokens[i + 1]
                if kind != "int":
                    raise PolynomialSyntaxError("expected a denominator", offset)
                if den == 0:
                    raise PolynomialSyntaxError("denominator must be nonzero", offset)
                i += 2
            if tokens[i][0] == "*":
                i += 1
                if tokens[i][0] != "x":
                    raise PolynomialSyntaxError("expected x after '*'", tokens[i][2])
        elif kind == "x":
            num, den = 1, 1
        else:
            raise PolynomialSyntaxError("expected a term", offset)
        exponent = 0
        if tokens[i][0] == "x":
            exponent = 1
            i += 1
            if tokens[i][0] == "^":
                kind, exponent, offset = tokens[i + 1]
                if kind != "int":
                    raise PolynomialSyntaxError("expected an exponent", offset)
                if exponent > MAX_EXPONENT:
                    raise PolynomialSyntaxError(
                        f"exponent {exponent} exceeds the cap {MAX_EXPONENT}", offset)
                i += 2
        terms.append((exponent, sign * num, den))
    den = lcm(*(b for _, _, b in terms))  # Polynomial reduces to lowest terms
    nums = [0] * (max(e for e, _, _ in terms) + 1)
    for e, a, b in terms:
        nums[e] += a * (den // b)
    return Polynomial(nums, den)


# -- reports -------------------------------------------------------------


def _resolve_order(args) -> int:
    """--order, else $CYCLOMAC_ORDER, else the command's default; checked
    against 1..MAX_ORDER before any command runs."""
    order = args.order
    raw = os.environ.get(DEFAULT_ORDER_ENV)
    if order is None and raw is not None:
        try:
            order = int(raw)
        except ValueError:
            raise OrderBoundError(
                f"{DEFAULT_ORDER_ENV} must be an integer: {raw!r}"
            ) from None
    if order is None:
        order = args.default_order
    if not 1 <= order <= MAX_ORDER:
        raise OrderBoundError(f"order {order} is outside 1..{MAX_ORDER}")
    return order


def _check_parameters(args) -> None:
    """--N, --max-N, --k, --max-k, --t and --degree-bound, where the command
    has them, must lie in 1..cap; checked before any command runs."""
    for name, cap in (("N", MAX_N), ("max_N", MAX_N), ("k", MAX_K),
                      ("max_k", MAX_K), ("t", MAX_T),
                      ("degree_bound", MAX_DEGREE_BOUND)):
        value = getattr(args, name, None)
        if value is None:
            continue
        if value < 1:
            raise NonPositiveParameterError(f"{name} must be a positive integer")
        if value > cap:
            raise ParameterBoundError(f"{name} = {value} exceeds the cap {cap}")


def _check_output(path) -> None:
    """--output must name a file in an existing directory; checked before
    any command runs.  `_emit` reports what only the write can reveal."""
    if path == "":
        raise OutputPathError("the path is empty")
    if path is not None and (os.path.isdir(path) or
                             not os.path.isdir(os.path.dirname(path) or ".")):
        raise OutputPathError(f"{path!r} is a directory or in a missing directory")


def _series_csv(series_json: dict) -> str:
    """One `exponent,coefficient` row per exponent, CRLF-terminated as the
    csv module writes them; no coefficient string holds a comma or a quote,
    so no field needs quoting."""
    return "exponent,coefficient\r\n" + "".join(
        f"{e},{c}\r\n" for e, c in enumerate(series_json["coefficients"]))


def _emit(report: dict, args) -> None:
    fmt = args.format
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif fmt == "csv":
        text = _series_csv(report["series"])
    else:
        text = _text_report(report)
    if args.output is not None:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputPathError(str(exc)) from None
    else:
        sys.stdout.write(text)


def _text_report(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    params = report.get("params", {})
    if params:
        lines.append("params: " + ", ".join(f"{k}={v}" for k, v in params.items()))
    series = report.get("series")
    if series is not None:
        for e, c in enumerate(series["coefficients"]):
            lines.append(f"q^{e}: {c}")
    for key in ("closed_form", "g_form"):
        cf = report.get(key)
        if cf is None:
            continue
        lines.append(f"{key} ({cf['form']}-form), constant {cf['constant']}:")
        for t in cf["terms"]:
            ch = t["character"]
            lines.append(
                f"  weight {t['weight']}, dilation {t['dilation']}, "
                f"character mod {ch['modulus']} exps {ch['exponents']}: "
                f"{t['coefficient']}"
            )
    for cert in report.get("certificates", []):
        status = "match" if cert["match"] else "MISMATCH"
        extra = ""
        if cert["first_mismatch"]:
            fm = cert["first_mismatch"]
            extra = f" at q^{fm['exponent']}: {fm['lhs']} vs {fm['rhs']}"
        lines.append(f"certificate [{cert['descriptor']}]: {status}{extra}")
    for item in report.get("cases", []):
        lines.append(
            f"case a={item['a']} (N={item['N']}, k={item['k']}): "
            f"constant {item['g_constant']} "
            f"(expected {item['expected_constant']}), "
            f"{'ok' if item['ok'] else 'FAILED'}"
        )
    if "summary" in report:
        s = report["summary"]
        lines.append(f"summary: {s['passed']}/{s['total']} checks passed")
    if "status" in report:
        lines.append(f"status: {report['status']}")
    return "\n".join(lines) + "\n"


def _status(oks) -> str:
    return "ok" if all(oks) else "mismatch"


# -- commands ------------------------------------------------------------
#
# Each command returns its report body; `main` names the command, adds the
# params of the commands that take --Q, prints the report and sets the exit
# code from its status.


def _cmd_expand(args) -> dict:
    spec = MacMahonSpec(args.t, args.N, args.k, args.q_poly, strict=not args.weak)
    return {"series": brute_force(spec, args.order).to_json()}


def _cmd_closed_form(args) -> dict:
    inp = validate(AdmissibleInput(args.N, args.k, args.q_poly))
    cf = closed_form(inp)
    return {"closed_form": cf.to_json(), "g_form": to_g_form(cf).to_json()}


def _single_sums(n: int, k: int, q_poly: Polynomial, t: int, order: int,
                 desc: str):
    """The single sums U_s = sum_m Q(q^m)^s / Phi_N(q^m)^(s k), s = 1..t, by
    brute force and by their evaluated closed forms, with U_1's closed form
    and its F-form certificate against brute force."""
    powers = list(enumerate(accumulate(repeat(q_poly, t), mul), 1))
    brute = [brute_force(MacMahonSpec(1, n, s * k, q), order) for s, q in powers]
    forms = [closed_form(AdmissibleInput(n, s * k, q)) for s, q in powers]
    closed = [cf.evaluate(order) for cf in forms]
    cert = certify(closed[0], brute[0], "closed-form-F", "brute-force(t=1)",
                   descriptor=desc)
    return forms[0], brute, closed, cert


def _cmd_verify(args) -> dict:
    q_poly = args.q_poly
    validate(AdmissibleInput(args.N, args.k, q_poly))
    order = args.order
    desc = f"N={args.N} k={args.k} Q={format_polynomial(q_poly)} order={order}"
    # The nested brute forces run first: the one cached Phi_N^-k of
    # `weight_series` then serves U_1 as well.
    nested = {strict: brute_force(MacMahonSpec(args.t, args.N, args.k, q_poly,
                                               strict), order)
              for strict in (True, False) if args.t > 1}
    cf, singles, closed, cert = _single_sums(args.N, args.k, q_poly, args.t,
                                             order, desc)
    certs = [
        cert,
        certify(to_g_form(cf).evaluate(order), singles[0],
                "closed-form-G", "brute-force(t=1)", descriptor=desc),
    ]
    if args.t > 1:
        for strict in (True, False):
            tag = "strict" if strict else "weak"
            certs.append(
                certify(
                    evaluate_isobaric(singles, strict),
                    nested[strict],
                    f"isobaric-{tag}(t={args.t})",
                    f"brute-force-{tag}(t={args.t})",
                    descriptor=desc,
                )
            )
        certs.append(
            certify(
                evaluate_isobaric(closed, True),
                nested[True],
                f"isobaric-closed-form(t={args.t})",
                f"brute-force-strict(t={args.t})",
                descriptor=desc,
            )
        )
    return {
        "certificates": [c.to_json() for c in certs],
        "status": _status(c.match for c in certs),
    }


def _cmd_examples(args) -> dict:
    q_poly = Polynomial.monomial(2)
    cases = []
    for case in REFERENCE_CASES:
        desc = f"a={case['a']} N={case['N']} k={case['k']}"
        cf, _, _, cert = _single_sums(case["N"], case["k"], q_poly, 1,
                                      args.order, desc)
        gf = to_g_form(cf)
        num, den = case["constant"]
        cases.append(
            {
                "a": case["a"],
                "N": case["N"],
                "k": case["k"],
                "Q": format_polynomial(q_poly),
                "g_constant": str(gf.constant),
                "expected_constant": f"{num}/{den}",
                "certificate": cert.to_json(),
                "ok": cert.match and gf.constant * den == num,
            }
        )
    return {
        "params": {"order": args.order},
        "cases": cases,
        "status": _status(c["ok"] for c in cases),
    }


def _cmd_sweep(args) -> dict:
    items = []
    for n in range(1, args.max_N + 1):
        # Only k <= degree-bound / phi(N) keeps phi(N) k within the bound.
        for k in range(1, min(args.max_k, args.degree_bound // euler_phi(n)) + 1):
            for q_poly in admissible_polynomials(n, k):
                desc = f"N={n} k={k} Q={format_polynomial(q_poly)}"
                rational_ok = True
                try:
                    *_, cert = _single_sums(n, k, q_poly, 1, args.order, desc)
                except NotRationalError:
                    rational_ok = False
                    cert = Certificate(
                        descriptor=desc,
                        order=args.order,
                        lhs_label="closed-form-F",
                        rhs_label="brute-force(t=1)",
                        match=False,
                        first_mismatch=None,
                    )
                conj_ok = not conjugate_relation_violations(
                    AdmissibleInput(n, k, q_poly))
                items.append(
                    {
                        "N": n,
                        "k": k,
                        "Q": format_polynomial(q_poly),
                        "certificate": cert.to_json(),
                        "coefficients_rational": rational_ok,
                        "conjugate_relation": conj_ok,
                        "ok": cert.match and rational_ok and conj_ok,
                    }
                )
    passed = sum(item["ok"] for item in items)
    return {
        "params": {
            "max_N": args.max_N,
            "max_k": args.max_k,
            "degree_bound": args.degree_bound,
            "order": args.order,
        },
        "items": items,
        "summary": {"total": len(items), "passed": passed},
        "status": _status(item["ok"] for item in items),
    }


def _params(args) -> dict:
    out = {"N": args.N, "k": args.k, "Q": format_polynomial(args.q_poly),
           "order": args.order}
    if hasattr(args, "t"):
        out["t"] = args.t
    if hasattr(args, "weak"):
        out["strict"] = not args.weak
    return out


class _Command(NamedTuple):
    """One subcommand: its function, its --help line, the order it runs at
    without --order and $CYCLOMAC_ORDER, and its options in --help order,
    each `flag: (kind, default, required, help)`.  A kind of int or str
    converts the option's word, a tuple lists the words it accepts, and None
    marks a flag that stores True.  The --order help is a template for the
    default order."""
    fn: object
    help: str
    default_order: int
    options: dict


_NK_OPTIONS = {
    "--N": (int, None, True, None),
    "--k": (int, None, True, None),
    "--Q": (str, None, True,
            'numerator polynomial, e.g. "x^2" or "1/2*x - x^3"'),
}
_COMMON_OPTIONS = {
    "--order": (int, None, False, f"truncation order, at most {MAX_ORDER} "
                                  f"(default ${DEFAULT_ORDER_ENV} or {{}})"),
    "--format": (("json", "csv", "text"), "text", False, None),
    "--output": (str, None, False, None),
}
_T_OPTION = {"--t": (int, 1, False, None)}

_COMMANDS = {
    "expand": _Command(
        _cmd_expand, "print series coefficients", 60,
        {**_NK_OPTIONS, **_COMMON_OPTIONS, **_T_OPTION,
         "--weak": (None, False, False,
                    "use weak inequalities between indices")}),
    "closed-form": _Command(
        _cmd_closed_form, "print the Eisenstein term list", 60,
        {**_NK_OPTIONS, **_COMMON_OPTIONS}),
    "verify": _Command(
        _cmd_verify, "certify closed form against brute force", 60,
        {**_NK_OPTIONS, **_COMMON_OPTIONS, **_T_OPTION}),
    "examples": _Command(
        _cmd_examples, "reproduce the four reference cases", 100,
        _COMMON_OPTIONS),
    "sweep": _Command(
        _cmd_sweep, "run the invariant corpus", 60,
        {**_COMMON_OPTIONS,
         "--max-N": (int, 8, False, None),
         "--max-k": (int, 4, False, None),
         "--degree-bound": (int, 12, False, None)}),
}


def _dest(flag: str) -> str:
    """The namespace attribute of an option, named as argparse names it."""
    return flag[2:].replace("-", "_")


def _fast_parse(argv):
    """The namespace argparse would return for `argv`, when argv names a
    command and then only that command's full option names, each value in
    the next word; None for anything else (help, abbreviations,
    `--opt=value`, a value that starts with '-', an option the command does
    not have, a bad int or choice, a missing required option), which
    argparse then parses or reports."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    values = {"command": argv[0], "default_order": command.default_order}
    values.update((_dest(flag), option[1])
                  for flag, option in command.options.items())
    missing = {flag for flag, option in command.options.items() if option[2]}
    words = iter(argv[1:])
    for flag in words:
        option = command.options.get(flag)
        if option is None:
            return None
        kind = option[0]
        if kind is None:
            value = True
        else:
            # argparse reads a word that starts with '-' as an option, or
            # as a negative number; an absent word reads the same way here.
            value = next(words, "-")
            if value.startswith("-"):
                return None
            if isinstance(kind, tuple):
                if value not in kind:
                    return None
            else:
                try:
                    value = kind(value)
                except ValueError:
                    return None
        values[_dest(flag)] = value
        missing.discard(flag)
    return None if missing else SimpleNamespace(**values)


@cache
def build_parser():
    """The CLI's argparse parser, built from the command table once per
    process, and only for an argv the fast parse leaves to it: help,
    abbreviated options and usage errors.  `parse_args` returns a fresh
    namespace on every call."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cyclomac",
        description="Exact MacMahon-type q-series with cyclotomic denominators: "
                    "expansion, Eisenstein closed forms, and identity certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, (kind, default, required, help_) in command.options.items():
            if flag == "--order":
                help_ = help_.format(command.default_order)
            if kind is None:
                kwargs = {"action": "store_true"}
            elif isinstance(kind, tuple):
                kwargs = {"choices": kind}
            else:
                kwargs = {"type": kind}
            p.add_argument(flag, default=default, required=required,
                           help=help_, **kwargs)
        p.set_defaults(default_order=command.default_order)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        args.order = _resolve_order(args)
        _check_parameters(args)
        _check_output(args.output)
        if args.format == "csv" and args.command != "expand":
            raise CsvFormatError(
                f"CSV output carries a rational series; {args.command} "
                "reports need JSON or text"
            )
        report = {"command": args.command}
        if hasattr(args, "Q"):
            args.q_poly = parse_polynomial(args.Q)
            report["params"] = _params(args)
        report.update(_COMMANDS[args.command].fn(args))
        _emit(report, args)
    except ValidationError as exc:
        error = {
            "type": type(exc).__name__,
            "clause": exc.clause,
            "message": str(exc),
        }
        if args.format == "json":
            sys.stderr.write(json.dumps({"error": error}, indent=2) + "\n")
        else:
            sys.stderr.write(
                f"error [{error['type']}] {error['clause']}: {exc}\n"
            )
        return 2
    return 0 if report.get("status", "ok") == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
