"""The ledger ``frozen.json`` is the one place a pinned pipeline output is written."""

from __future__ import annotations

import ast
import math
import re
from pathlib import Path

import ledger
from ledger import FROZEN

#: A number written inside a message.
NUMBER = re.compile(r"(?<![\w.])\d+(?:\.\d+)?(?![\w.])")


def _searched(value) -> bool:
    """Ledger numbers that no unrelated literal matches by chance: at least 100
    in magnitude, or written with six or more digits.  Smaller ones (a pass
    count of 4, a zero total, the start scheme's mu1 of 0.13) are as common in
    expectations that have nothing to do with the ledger."""
    return abs(value) >= 100 or len(repr(value).lstrip("-0.")) >= 6


def _spelled_values(node):
    """The numbers a constant inside an assert spells: the constant itself, or
    each number in a string that is more than a bare number (a CSV cell such
    as ``"140"`` is a grid distance read back, not a quoted result)."""
    value = node.value
    if isinstance(value, bool):
        return []
    if isinstance(value, (int, float)):
        return [value]
    if isinstance(value, str) and not NUMBER.fullmatch(value):
        return [float(number) for number in NUMBER.findall(value)]
    return []


def _same(literal, value) -> bool:
    """Whether ``literal`` spells ledger number ``value``: exactly, or within a
    relative 1e-6 for a fraction, so that a copy left stale inside its test's
    tolerance is found too."""
    if value == int(value):
        return literal == value
    return math.isclose(literal, value, rel_tol=1e-6)


def test_no_test_file_spells_a_ledger_value():
    digests = {value: name for name, value in FROZEN.items() if isinstance(value, str)}
    numbers = [(name, value) for name, value in FROZEN.items()
               if not isinstance(value, str) and _searched(value)]
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found += [(path.name, node.lineno, name)
                          for digest, name in digests.items() if digest in node.value]
            if isinstance(node, ast.Assert):
                found += [(path.name, constant.lineno, name)
                          for constant in ast.walk(node) if isinstance(constant, ast.Constant)
                          for literal in _spelled_values(constant)
                          for name, value in numbers if _same(literal, value)]
    assert found == []


def test_readme_quotes_the_ledger():
    readme = ledger.README.read_text()
    for name, patterns in ledger.README_QUOTES.items():
        for pattern in patterns:
            quoted = re.findall(pattern, readme)
            assert quoted, pattern
            assert [int(value) for value in quoted] == [FROZEN[name]] * len(quoted), pattern
