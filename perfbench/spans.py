"""Span and count recorders wrapped around cyclomac's public callables.

Only a traced child op imports this module.  `install` wraps each target and
rebinds every name under which the target is reachable inside the package:
the defining module, the names other modules bound with `from .x import y`,
and class aliases such as `__rmul__ = __mul__`.  A call through any of those
names is then recorded under the target's one metric name.
"""

from __future__ import annotations

import importlib
import time
from fractions import Fraction

MODULES = (
    "cyclomac",
    "cyclomac.cli",
    "cyclomac.macmahon",
    "cyclomac.series",
    "cyclomac.pfdform",
    "cyclomac.chars",
    "cyclomac.comb",
    "cyclomac.polynomial",
    "cyclomac.field",
)


class Recorder:
    """Call counts, self time and observed sizes per metric name.

    A span's self time is its duration minus the time covered by the spans
    it encloses, so time spent in a wrapped callee is charged to the callee
    only.  Spans live on one stack; the benchmark's children are single
    threaded.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.maxima: dict[str, int] = {}
        self.totals: dict[str, int] = {}
        self._covered: list[list[float]] = []

    def timed(self, name: str, fn, observe=None):
        """Wrap fn in a span; observe(result) runs after the span closes."""
        calls, self_s, covered, clock = self.calls, self.self_s, self._covered, self.clock
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        def span(*args, **kwargs):
            inner = [0.0]
            covered.append(inner)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered.pop()
                if covered:
                    covered[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - inner[0]
            if observe is not None:
                observe(result)
            return result

        return span

    def counted(self, name: str, fn):
        """Wrap fn with a bare call counter (no clock reads)."""
        calls = self.calls
        calls.setdefault(name, 0)

        def count(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return count

    def exclude(self, seconds: float) -> None:
        """Leave `seconds` spent inside the open spans out of their self time."""
        if self._covered:
            self._covered[-1][0] += seconds

    def keep_max(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def add(self, name: str, value: int) -> None:
        self.totals[name] = self.totals.get(name, 0) + value


def coefficient_bits(value) -> int:
    """Largest numerator or denominator bit length in a Fraction or CycNum."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, int):
        return value.bit_length()
    return max((coefficient_bits(c) for c in value.coeffs), default=0)


def _rebind(modules, original, wrapper) -> int:
    """Point every module global and class attribute that is `original` at
    `wrapper`; returns how many names were rebound."""
    rebound = 0
    for mod in modules:
        for owner in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
                    rebound += 1
    return rebound


def install(rec: Recorder) -> dict:
    """Wrap the traced callables; returns the cache-reporting originals
    (name -> lru_cache wrapper) so their cache_info() can be read later."""
    mods = {name: importlib.import_module(name) for name in MODULES}
    field = mods["cyclomac.field"]
    caches = {
        "chars.enumerate_characters": mods["cyclomac.chars"].enumerate_characters,
        "polynomial.cyclotomic_polynomial":
            mods["cyclomac.polynomial"].cyclotomic_polynomial,
    }

    def level_of(result):
        if isinstance(result, field.CycNum):
            rec.keep_max("field.max_level", result.level)

    def brute_bits(series):
        rec.keep_max("macmahon.brute_force.max_coeff_bits",
                     max(map(coefficient_bits, series.coeffs), default=0))

    def term_count(cf):
        rec.add("pfdform.closed_form.terms", len(cf.terms))

    # (metric name, module, attribute path, kind, observer)
    targets = [
        ("cli.parse_polynomial", "cli", "parse_polynomial", "timed", None),
        ("cli.main", "cli", "main", "timed", None),
        ("macmahon.brute_force", "macmahon", "brute_force", "timed", brute_bits),
        ("macmahon.weight_series", "macmahon", "weight_series", "timed", None),
        ("macmahon.evaluate_isobaric", "macmahon", "evaluate_isobaric", "timed", None),
        ("macmahon.certify", "macmahon", "certify", "timed", None),
        ("series.QSeries.mul", "series", "QSeries.__mul__", "timed", None),
        ("series.QSeries.inverse", "series", "QSeries.inverse", "timed", None),
        ("series.f_series", "series", "f_series", "timed", None),
        ("series.g_constant", "series", "g_constant", "timed", None),
        ("pfdform.closed_form", "pfdform", "closed_form", "timed", term_count),
        ("pfdform.pfd_coefficients", "pfdform", "pfd_coefficients", "timed", None),
        ("pfdform.c_coefficients", "pfdform", "c_coefficients", "timed", None),
        ("pfdform.to_g_form", "pfdform", "to_g_form", "timed", None),
        ("pfdform.ClosedForm.evaluate", "pfdform", "ClosedForm.evaluate", "timed", None),
        ("pfdform.conjugate_relation_violations", "pfdform",
         "conjugate_relation_violations", "timed", None),
        ("chars.gauss_sum", "chars", "gauss_sum", "timed", level_of),
        ("chars.enumerate_characters", "chars", "enumerate_characters", "counted", None),
        ("chars.primitive_character", "chars", "primitive_character", "timed", None),
        ("comb.gen_bernoulli", "comb", "gen_bernoulli", "timed", None),
        ("polynomial.Polynomial.call", "polynomial", "Polynomial.__call__", "timed", None),
        ("field.CycNum.mul", "field", "CycNum.__mul__", "timed", level_of),
        ("field.CycNum.inverse", "field", "CycNum.inverse", "timed", level_of),
        ("field.coerce_pair", "field", "coerce_pair", "counted", None),
    ]
    for name, module, path, kind, observe in targets:
        owner = mods["cyclomac." + module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        if kind == "timed":
            wrapper = rec.timed(name, original, observe)
        else:
            wrapper = rec.counted(name, original)
        if _rebind(mods.values(), original, wrapper) == 0:
            raise RuntimeError(f"{name}: nothing rebound")
    return caches
