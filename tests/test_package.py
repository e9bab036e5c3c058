"""The package namespace: each public name is declared once, in its module, and
the README's library examples run."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import decoyqkd
from ledger import FROZEN

#: The library modules whose public names the package re-exports, in import order.
MODULES = ("core", "stats", "decoy", "keyrate", "recon", "extract", "sim", "opt")
ROOT = Path(__file__).resolve().parents[1]


def test_each_public_name_is_declared_once_in_its_module():
    expected = ["__version__"]
    for name in MODULES:
        expected += getattr(decoyqkd, name).__all__
    assert decoyqkd.__all__ == expected
    assert len(set(expected)) == len(expected), "a name is declared public twice"
    for name in MODULES:
        module = getattr(decoyqkd, name)
        for attr in module.__all__:
            assert getattr(decoyqkd, attr) is getattr(module, attr), f"{name}.{attr}"
    namespace: dict = {}
    exec("from decoyqkd import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(expected)


def test_readme_python_blocks_run(capsys):
    # The README's library examples run in order, in one namespace, and print
    # what their comments and the surrounding text promise.
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out == (
        f"{FROZEN['readme.total_tight']} {FROZEN['readme.total_worst']}\n"
        f"{FROZEN['calibrate.total_tight']}\n{FROZEN['readme.final_key_bits']}\n"
    )


def test_each_public_name_is_used_outside_the_tests():
    # A public name earns its place by a use in the package, the benchmark or
    # the README: a name read in code (not its definition or its __all__
    # entry), or a word of the README.
    used = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{name}.{attr}" for name in MODULES
              for attr in getattr(decoyqkd, name).__all__ if attr not in used]
    assert unused == []
