"""Every function defined in `src/` runs in the CLI, or is pinned below.

A fixed, cheap set of CLI runs covers every command, the text, JSON and
CSV writers, one help text, one usage error and one invalid input.  A
function that none of them enters must be on the exception list with its
reason; one that leaves the list, or joins it, must change the list.
"""

import time

from cyclomac.cli import main
from helpers import entered_functions, package_functions

# (argv, exit code)
RUNS = [
    (["examples"], 0),
    (["sweep", "--max-N", "6", "--max-k", "2", "--degree-bound", "4",
      "--order", "20", "--format", "json"], 0),
    (["verify", "--N", "6", "--k", "2", "--Q", "x^2", "--t", "3",
      "--order", "40"], 0),
    (["expand", "--N", "5", "--k", "1", "--Q", "x + x^3", "--t", "3",
      "--order", "30"], 0),
    (["expand", "--N", "5", "--k", "1", "--Q", "x + x^3", "--t", "3",
      "--weak", "--order", "30", "--format", "json"], 0),
    (["expand", "--N", "12", "--k", "3", "--Q", "1/2*x^2 - x", "--order",
      "30", "--format", "csv"], 0),
    (["closed-form", "--N", "9", "--k", "1", "--Q", "x + x^5"], 0),
    (["closed-form", "--N", "16", "--k", "1", "--Q", "x^4"], 0),
    (["verify", "--help"], 0),
    (["expand", "--N", "x", "--k", "1", "--Q", "x"], 2),
    (["closed-form", "--N", "5", "--k", "1", "--Q", "x"], 2),
]

SPANS = "wrapped by perfbench/spans.py, so it moves only with the benchmark"
ERROR = "error or mismatch path"
REPR = "__repr__, for debugging"

EXCEPTIONS = {
    "chars.DirichletCharacter.__eq__":
        "goes with __hash__; dict keys match by identity first, so only a "
        "hash collision reaches it",
    "chars.DirichletCharacter.__repr__": REPR,
    "cli.PolynomialSyntaxError.__init__": ERROR,
    "field.CycNum.__repr__": REPR,
    "field.CycNum.coeffs": "the Fraction view, for tests and the "
                           "benchmark's coefficient_bits",
    "field.CycNum.inverse": SPANS,
    "field.NotRationalError.__init__": ERROR,
    "polynomial.Polynomial.__call__": SPANS,
    "polynomial.Polynomial.__repr__": REPR,
    "polynomial.cyclotomic_polynomial": SPANS + ", which reads its cache_info",
    "series.QSeries.__eq__": "value equality; README's example uses it",
    "series.QSeries.__repr__": REPR,
    "series.QSeries.coeffs": "the Fraction view that __repr__ prints and "
                             "perfbench/spans.py's brute_bits reads",
    "series.QSeries.coefficient": ERROR + ": certify reads the mismatch",
    "series.QSeries.inverse": SPANS,
    "series.f_series": SPANS,
}


def test_every_src_function_runs_in_the_cli_or_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    codes = []

    def run_all():
        for argv, _ in RUNS:
            try:
                codes.append(main(argv))
            except SystemExit as exc:
                codes.append(exc.code)

    start = time.perf_counter()
    entered = entered_functions(run_all)
    assert time.perf_counter() - start < 3
    capsys.readouterr()
    assert codes == [code for _, code in RUNS]
    assert set(package_functions().values()) - entered == set(EXCEPTIONS)

