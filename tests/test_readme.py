"""The README's library example runs and prints what the README shows."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_what_it_shows():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    menu, *families = out.getvalue().splitlines()
    shown = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert menu == "ObservedMenu(peakon=2, periodic_peakon=2, solitary=0, periodic_smooth=2)"
    assert menu in shown
    # the family entries as printed, to rounding of the roots behind them
    shown_families = [ast.literal_eval(line) for line in shown if line.startswith("{")]
    assert len(families) == len(shown_families) == 2
    for got, want in zip(map(ast.literal_eval, families), shown_families):
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key] == (pytest.approx(value, rel=1e-12, abs=1e-15)
                                if isinstance(value, float) else value), key
