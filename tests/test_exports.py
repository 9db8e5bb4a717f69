import subprocess
import sys
from pathlib import Path

import pytest

import cyclomac


def test_every_exported_name_resolves():
    missing = [name for name in cyclomac.__all__
               if not hasattr(cyclomac, name)]
    assert missing == []
    assert len(set(cyclomac.__all__)) == len(cyclomac.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from cyclomac import *", namespace)
    assert set(cyclomac.__all__) <= set(namespace)


# Records whose fields all hash; the others hold CycNums or read-only maps.
HASHABLE = {"MacMahonSpec", "Certificate", "AdmissibleInput"}


def test_records_are_read_only_and_compare_and_hash_by_their_fields():
    x2 = cyclomac.Polynomial.monomial(2)
    inp = cyclomac.AdmissibleInput(3, 2, x2)
    cf = cyclomac.closed_form(inp)
    records = [
        cyclomac.MacMahonSpec(2, 3, 2, x2, strict=False),
        cyclomac.certify(cyclomac.QSeries([0, 1], 1), cyclomac.QSeries([0, 2], 1),
                         "lhs", "rhs", descriptor="d"),
        inp,
        cyclomac.pfd_coefficients(inp),
        cf,
        cf.terms[0],
    ]
    assert len({type(r) for r in records}) == 6
    for r in records:
        name = type(r).__name__
        assert repr(r).startswith(f"{name}({r._fields[0]}=")
        copy = type(r)(**r._asdict())
        assert copy is not r and copy == r
        if name in HASHABLE:
            assert hash(copy) == hash(r)
        else:
            with pytest.raises(TypeError):
                hash(r)
        for attribute in (*r._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(r, attribute, None)


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter (no user site) holds after `code`,
    with this checkout's src/ first on sys.path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (f"import sys; sys.path.insert(0, {src!r}); {code}; "
              "print(*sys.modules)")
    out = subprocess.run([sys.executable, "-s", "-c", script],
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_importing_the_cli_loads_no_start_up_heavy_modules():
    added = _modules_after("import cyclomac.cli") - _modules_after("pass")
    assert "cyclomac.cli" in added
    assert added & {"dataclasses", "inspect", "csv", "string", "argparse",
                    "gettext", "locale"} == set()


def test_importing_the_cli_loads_no_fractions():
    # Every rational enters as integer numerators over a denominator; only
    # the Fraction views import `fractions`, when one is read.
    held = _modules_after("import cyclomac.cli")
    assert "cyclomac.cli" in held
    assert held & {"fractions", "decimal", "numbers"} == set()
