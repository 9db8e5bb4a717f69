"""The library sketch in README.md runs as written, against this checkout."""

import re
from fractions import Fraction
from pathlib import Path

from helpers import as_fraction

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    # The values its comments state.
    assert as_fraction(namespace["p"].c[2]) == Fraction(-1, 4)
    assert as_fraction(namespace["gf"].constant) == Fraction(-1, 8)
