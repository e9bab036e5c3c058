"""The package namespace: each public name is declared once, in its module."""

from __future__ import annotations

import decoyqkd

#: The library modules whose public names the package re-exports, in import order.
MODULES = ("core", "stats", "decoy", "keyrate", "recon", "extract", "sim", "opt")


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
