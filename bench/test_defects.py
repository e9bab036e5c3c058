"""The benchmark's output checks catch planted defects.

Defects are planted through the tracer's wrappers only; the package is
untouched.  Run from the repository root::

    python3 -m pytest bench/test_defects.py
"""

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def short_run(name, transforms=None):
    with Tracer(transforms=transforms or {}) as tracer:
        return workloads.run(name, seed=3, seconds=0, root=ROOT, tracer=tracer, max_rounds=1)


def flip_middle_bit(bits):
    out = bits.copy()
    if out.size:
        out[out.size // 2] ^= 1
    return out


def double_y1(solution):
    return dataclasses.replace(solution, y1_lower=2 * solution.y1_lower)


def test_clean_short_runs_report_no_failure():
    for name in ("certify-mc", "distill-cli"):
        result = short_run(name)
        assert result.outcomes
        assert [o.error for o in result.outcomes if o.error] == []


def test_flipped_hash_bit_fails_distill():
    result = short_run("distill-cli", {"extract.privacy_amplify": flip_middle_bit})
    errors = [o.error for o in result.outcomes if o.error]
    assert len(errors) / len(result.outcomes) > 0
    assert all("Toeplitz" in e for e in errors)


def test_doubled_y1_fails_certify():
    result = short_run("certify-mc", {"decoy.solve_y1_lower": double_y1})
    errors = [o.error for o in result.outcomes if o.error]
    assert len(errors) / len(result.outcomes) > 0
    assert any("y1 lower bound" in e for e in errors)
