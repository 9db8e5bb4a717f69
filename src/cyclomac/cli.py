"""Command-line front end: a small parser for numerator polynomials, series
expansion, closed-form printing, identity verification, the four reference
reproductions, and the invariant sweep.

Exit codes: 0 when every requested certificate matches, 1 on a mismatch,
2 on invalid input, including an --output path that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .comb import euler_phi
from .field import NotRationalError, value_str
from .macmahon import (
    Certificate,
    MacMahonSpec,
    brute_force,
    certify,
    evaluate_isobaric,
    evaluate_isobaric_closed,
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
# largest nesting depth t and the largest sweep --degree-bound.  At t = 20
# the isobaric route already sums p(20) = 627 monomials; at k = 100 one
# closed form at N = 3 takes seconds, and the sweep corpus grows
# exponentially in its degree bound.
MAX_EXPONENT = 10_000
MAX_ORDER = 10_000
MAX_N = 10_000
MAX_K = 100
MAX_T = 20
MAX_DEGREE_BOUND = 14

# The four reference cases: denominator (1 + a q^n + q^(2n))^2 for
# a in {2, 1, 0, -1}, i.e. squared cyclotomic denominators at N = 2, 3, 4, 6,
# with numerator x^2, together with their known exact constants.
REFERENCE_CASES = [
    {"a": 2, "N": 2, "k": 4, "constant": Fraction(-1, 32)},
    {"a": 1, "N": 3, "k": 2, "constant": Fraction(-1, 18)},
    {"a": 0, "N": 4, "k": 2, "constant": Fraction(-1, 8)},
    {"a": -1, "N": 6, "k": 2, "constant": Fraction(-1, 2)},
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


class PolynomialSyntaxError(ValueError):
    """Parse failure, carrying the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def _tokenize(src: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
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
    """Parse 'coeff*x^e' sums like "1/2*x^2 - x + x^3"; like terms combine."""
    tokens = _tokenize(src)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def parse_coeff() -> Fraction:
        kind, val, off = advance()
        assert kind == "int"
        if peek()[0] == "/":
            advance()
            k2, v2, o2 = peek()
            if k2 != "int":
                raise PolynomialSyntaxError("expected a denominator", o2)
            advance()
            if v2 == 0:
                raise PolynomialSyntaxError("denominator must be nonzero", o2)
            return Fraction(val, v2)
        return Fraction(val)

    def parse_exponent() -> int:
        advance()  # 'x'
        if peek()[0] == "^":
            advance()
            kind, val, off = peek()
            if kind != "int":
                raise PolynomialSyntaxError("expected an exponent", off)
            if val > MAX_EXPONENT:
                raise PolynomialSyntaxError(
                    f"exponent {val} exceeds the cap {MAX_EXPONENT}", off
                )
            advance()
            return val
        return 1

    def parse_term() -> tuple[Fraction, int]:
        kind, _, off = peek()
        if kind == "int":
            c = parse_coeff()
            if peek()[0] == "*":
                star_off = peek()[2]
                advance()
                if peek()[0] != "x":
                    raise PolynomialSyntaxError("expected x after '*'", star_off + 1)
            if peek()[0] == "x":
                return c, parse_exponent()
            return c, 0
        if kind == "x":
            return Fraction(1), parse_exponent()
        raise PolynomialSyntaxError("expected a term", off)

    coeffs: dict[int, Fraction] = {}
    sign = Fraction(1)
    if peek()[0] in ("+", "-"):
        sign = Fraction(-1 if advance()[0] == "-" else 1)
    c, d = parse_term()
    coeffs[d] = coeffs.get(d, Fraction(0)) + sign * c
    while peek()[0] in ("+", "-"):
        sign = Fraction(-1 if advance()[0] == "-" else 1)
        c, d = parse_term()
        coeffs[d] = coeffs.get(d, Fraction(0)) + sign * c
    if peek()[0] != "end":
        raise PolynomialSyntaxError("unexpected trailing input", peek()[2])
    top = max(coeffs) if coeffs else 0
    return Polynomial([coeffs.get(i, Fraction(0)) for i in range(top + 1)])


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
        order = getattr(args, "default_order", None) or 60
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


def _series_csv(series_json: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["exponent", "coefficient"])
    for e, c in enumerate(series_json["coefficients"]):
        writer.writerow([e, c])
    return buf.getvalue()


def _emit(report: dict, args) -> None:
    fmt = args.format
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif fmt == "csv":
        text = _series_csv(report["series"])
    else:
        text = _text_report(report)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputPathError(f"{OutputPathError.clause}: {exc}") from None
    else:
        sys.stdout.write(text)


def _text_report(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    params = report.get("params", {})
    if params:
        lines.append("params: " + ", ".join(f"{k}={v}" for k, v in params.items()))
    series = report.get("series")
    if series is not None and "level" not in series:
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


def _certs_ok(certs: list[Certificate]) -> bool:
    return all(c.match for c in certs)


# -- commands ------------------------------------------------------------


def _cmd_expand(args) -> int:
    q_poly = parse_polynomial(args.Q)
    spec = MacMahonSpec(args.t, args.N, args.k, q_poly, strict=not args.weak)
    series = brute_force(spec, args.order)
    report = {
        "command": "expand",
        "params": _params(args, q_poly),
        "series": series.to_json(),
    }
    _emit(report, args)
    return 0


def _cmd_closed_form(args) -> int:
    q_poly = parse_polynomial(args.Q)
    inp = validate(AdmissibleInput(args.N, args.k, q_poly))
    cf = closed_form(inp)
    gf = to_g_form(cf)
    report = {
        "command": "closed-form",
        "params": _params(args, q_poly),
        "closed_form": cf.to_json(),
        "g_form": gf.to_json(),
    }
    _emit(report, args)
    return 0


def _cmd_verify(args) -> int:
    q_poly = parse_polynomial(args.Q)
    inp = validate(AdmissibleInput(args.N, args.k, q_poly))
    order = args.order
    desc = f"N={args.N} k={args.k} Q={format_polynomial(q_poly)} order={order}"
    brute1 = brute_force(MacMahonSpec(1, args.N, args.k, q_poly), order)
    cf = closed_form(inp)
    gf = to_g_form(cf)
    certs = [
        certify(cf.evaluate(order), brute1,
                "closed-form-F", "brute-force(t=1)", descriptor=desc),
        certify(gf.evaluate(order), brute1,
                "closed-form-G", "brute-force(t=1)", descriptor=desc),
    ]
    if args.t > 1:
        nested = {}
        for strict in (True, False):
            tag = "strict" if strict else "weak"
            nested[strict] = brute_force(
                MacMahonSpec(args.t, args.N, args.k, q_poly, strict), order
            )
            certs.append(
                certify(
                    evaluate_isobaric(args.N, args.k, q_poly, args.t, strict, order),
                    nested[strict],
                    f"isobaric-{tag}(t={args.t})",
                    f"brute-force-{tag}(t={args.t})",
                    descriptor=desc,
                )
            )
        certs.append(
            certify(
                evaluate_isobaric_closed(inp, args.t, True, order),
                nested[True],
                f"isobaric-closed-form(t={args.t})",
                f"brute-force-strict(t={args.t})",
                descriptor=desc,
            )
        )
    ok = _certs_ok(certs)
    report = {
        "command": "verify",
        "params": _params(args, q_poly),
        "certificates": [c.to_json() for c in certs],
        "status": "ok" if ok else "mismatch",
    }
    _emit(report, args)
    return 0 if ok else 1


def _cmd_examples(args) -> int:
    q_poly = Polynomial.monomial(2)
    cases = []
    all_ok = True
    for case in REFERENCE_CASES:
        inp = validate(AdmissibleInput(case["N"], case["k"], q_poly))
        brute1 = brute_force(MacMahonSpec(1, case["N"], case["k"], q_poly),
                             args.order)
        cf = closed_form(inp)
        gf = to_g_form(cf)
        cert = certify(
            cf.evaluate(args.order),
            brute1,
            "closed-form-F",
            "brute-force(t=1)",
            descriptor=f"a={case['a']} N={case['N']} k={case['k']}",
        )
        const_ok = gf.constant == case["constant"]
        ok = cert.match and const_ok
        all_ok = all_ok and ok
        cases.append(
            {
                "a": case["a"],
                "N": case["N"],
                "k": case["k"],
                "Q": format_polynomial(q_poly),
                "g_constant": value_str(gf.constant),
                "expected_constant": str(case["constant"]),
                "certificate": cert.to_json(),
                "ok": ok,
            }
        )
    report = {
        "command": "examples",
        "params": {"order": args.order},
        "cases": cases,
        "status": "ok" if all_ok else "mismatch",
    }
    _emit(report, args)
    return 0 if all_ok else 1


def _cmd_sweep(args) -> int:
    items = []
    passed = 0
    total = 0
    for n in range(1, args.max_N + 1):
        for k in range(1, args.max_k + 1):
            if euler_phi(n) * k > args.degree_bound:
                continue
            for q_poly in admissible_polynomials(n, k):
                total += 1
                inp = AdmissibleInput(n, k, q_poly)
                desc = f"N={n} k={k} Q={format_polynomial(q_poly)}"
                brute1 = brute_force(MacMahonSpec(1, n, k, q_poly), args.order)
                cf = closed_form(inp)
                try:
                    evaluated = cf.evaluate(args.order)
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
                else:
                    rational_ok = True
                    cert = certify(
                        evaluated,
                        brute1,
                        "closed-form-F",
                        "brute-force(t=1)",
                        descriptor=desc,
                    )
                conj_ok = not conjugate_relation_violations(inp)
                ok = cert.match and rational_ok and conj_ok
                passed += ok
                items.append(
                    {
                        "N": n,
                        "k": k,
                        "Q": format_polynomial(q_poly),
                        "certificate": cert.to_json(),
                        "coefficients_rational": rational_ok,
                        "conjugate_relation": conj_ok,
                        "ok": ok,
                    }
                )
    report = {
        "command": "sweep",
        "params": {
            "max_N": args.max_N,
            "max_k": args.max_k,
            "degree_bound": args.degree_bound,
            "order": args.order,
        },
        "items": items,
        "summary": {"total": total, "passed": passed},
        "status": "ok" if passed == total else "mismatch",
    }
    _emit(report, args)
    return 0 if passed == total else 1


def _params(args, q_poly) -> dict:
    out = {"N": args.N, "k": args.k, "Q": format_polynomial(q_poly),
           "order": args.order}
    if hasattr(args, "t"):
        out["t"] = args.t
    if hasattr(args, "weak"):
        out["strict"] = not args.weak
    return out


def _add_common(sub, with_nk: bool = True) -> None:
    if with_nk:
        sub.add_argument("--N", type=int, required=True)
        sub.add_argument("--k", type=int, required=True)
        sub.add_argument("--Q", type=str, required=True,
                         help='numerator polynomial, e.g. "x^2" or "1/2*x - x^3"')
    sub.add_argument("--order", type=int, default=None,
                     help=f"truncation order, at most {MAX_ORDER} "
                          f"(default ${DEFAULT_ORDER_ENV} or 60)")
    sub.add_argument("--format", choices=["json", "csv", "text"], default="text")
    sub.add_argument("--output", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclomac",
        description="Exact MacMahon-type q-series with cyclotomic denominators: "
                    "expansion, Eisenstein closed forms, and identity certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print series coefficients")
    _add_common(p)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--weak", action="store_true",
                   help="use weak inequalities between indices")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("closed-form", help="print the Eisenstein term list")
    _add_common(p)
    p.set_defaults(fn=_cmd_closed_form)

    p = sub.add_parser("verify", help="certify closed form against brute force")
    _add_common(p)
    p.add_argument("--t", type=int, default=1)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("examples", help="reproduce the four reference cases")
    _add_common(p, with_nk=False)
    p.set_defaults(fn=_cmd_examples, default_order=100)

    p = sub.add_parser("sweep", help="run the invariant corpus")
    _add_common(p, with_nk=False)
    p.add_argument("--max-N", type=int, default=8)
    p.add_argument("--max-k", type=int, default=4)
    p.add_argument("--degree-bound", type=int, default=12)
    p.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.order = _resolve_order(args)
        _check_parameters(args)
        if args.format == "csv" and args.command != "expand":
            raise CsvFormatError(
                f"CSV output carries a rational series; {args.command} "
                "reports need JSON or text"
            )
        return args.fn(args)
    except (ValidationError, PolynomialSyntaxError) as exc:
        message = {
            "error": {
                "type": type(exc).__name__,
                "clause": getattr(exc, "clause", "syntax"),
                "message": str(exc),
            }
        }
        if args.format == "json":
            sys.stderr.write(json.dumps(message, indent=2) + "\n")
        else:
            sys.stderr.write(
                f"error [{message['error']['type']}]: {exc}\n"
            )
        return 2


if __name__ == "__main__":
    sys.exit(main())
