"""The ledger of pinned pipeline outputs, and the calls that produce them.

``frozen.json`` beside this file maps the name of each pinned output (a
certified total, a key length, a digest, a fitted parameter) to its
value, written there once.  Each entry has one producer below: the
public CLI or library call behind it.  The tests read their expected
values from :data:`FROZEN`, and a test that checks a value through its
producer's own call takes the producer's result from the session
fixtures in ``conftest.py`` instead of running the call again.
``python tests/refreeze.py`` reruns every producer and rewrites the
ledger and the README quotes listed in :data:`README_QUOTES`.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

from decoyqkd import calibrate_to_reference
from decoyqkd.cli import main
from decoyqkd.core import ConfidenceConfig
from decoyqkd.keyrate import compose_session
from decoyqkd.opt import evaluate_scheme, optimize_scheme, range_curve
from decoyqkd.sim import (
    REFERENCE_SIFT_RATIO,
    reference_model,
    reference_scheme,
    simulate_session,
)

PATH = Path(__file__).with_name("frozen.json")
README = Path(__file__).resolve().parents[1] / "README.md"
FROZEN = json.loads(PATH.read_text())

#: 5.6 h at the reference clock and duty cycle.
PULSES = 23836243437
#: The README's session: ``simulate`` with these flags, then ``analyze`` and
#: ``distill --seed 5`` on its tally and key files.
SIM_ARGS = ["simulate", "--distance-km", "25", "--pulses", "20000000", "--seed", "11"]
#: The evaluation settings of the library design producers.
DESIGN = dict(f_ec=1.07, f_ds=1.05, sift_ratio=REFERENCE_SIFT_RATIO, zero_fraction=0.494)
#: The fixed-scheme grid of :func:`fixed_curve`.
CURVE_GRID = [140.0, 143.0, 146.0, 149.0]
#: The design benchmark's commands and flags, whose stdout digests are pinned.
DESIGN_FLAGS = ["--f-ec", "1.07", "--f-ds", "1.05", "--confidence", "1e-7",
                "--photon-cutoff", "10"]
DESIGN_COMMANDS = {
    "optimize": ["optimize", "--distance-km", "150", "--duration-h", "560"],
    "curve": ["curve", "--distances", "100:170:2", "--duration-h", "5.6"],
    "calibrate": ["calibrate", "--duration-h", "5.6"],
}
#: The sampled sessions of :func:`certified_sessions`, (distance km, seed,
#: config): the certify benchmark's four distances and settings at two seeds,
#: and one session at a coarser cutoff with the vacuum error rate left free.
_BENCH_CONFIG = ConfidenceConfig(epsilon=1e-7, photon_cutoff=10)
CERTIFY_SESSIONS = [
    *((km, seed, _BENCH_CONFIG) for km in (25.0, 75.0, 125.0, 150.0) for seed in (1, 2)),
    (25.0, 3, ConfidenceConfig(epsilon=1e-7, photon_cutoff=6, pin_vacuum_errors=False)),
]
#: README's quotes of ledger values: each pattern's one group is the quoted value.
README_QUOTES = {
    "readme.total_tight": [r"the\s+same (\d+) bits as `decoyqkd analyze`"],
    "readme.final_key_bits": [r"# (\d+) final key bits", r"the\s+same (\d+)-bit key"],
}


def run_cli(argv, stdin_bytes=None):
    """Invoke ``main`` with captured stdout/stderr; return (rc, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_bytes is not None:
        class _Stdin:
            buffer = io.BytesIO(stdin_bytes)
        sys.stdin = _Stdin()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    finally:
        sys.stdin = old_stdin
    return rc, out.getvalue(), err.getvalue()


def readme_session(root: Path) -> SimpleNamespace:
    """The README session run by the CLI in ``root``: ``tally.json``, the key
    files ``run.*``, and the (rc, out, err) of ``analyze`` and of
    ``distill --seed 5``, whose key is written to ``final.bin``."""
    rc, out, err = run_cli(SIM_ARGS + ["--keys-out", str(root / "run")])
    if rc != 0:
        raise RuntimeError(f"simulate exited {rc}: {err}")
    tally, keys, key = root / "tally.json", root / "run", root / "final.bin"
    tally.write_text(out)
    return SimpleNamespace(
        root=root,
        analyze=run_cli(["analyze", "--tally", str(tally)]),
        distill=run_cli(["distill", "--tally", str(tally), "--keys", str(keys),
                         "--seed", "5", "--key-out", str(key)]),
        key_sha256=hashlib.sha256(key.read_bytes()).hexdigest(),
    )


def certified_sessions() -> str:
    """SHA-256 of the ``compose_session`` reports of :data:`CERTIFY_SESSIONS`,
    each simulated for :data:`PULSES` pulses and dumped as sorted-key JSON, one
    line per session, with f_EC 1.07, f_DS 1.05 and a typical-set epsilon of
    1e-3."""
    digest = hashlib.sha256()
    scheme = reference_scheme()
    for km, seed, config in CERTIFY_SESSIONS:
        tally, _keys = simulate_session(reference_model(km), scheme, PULSES, seed)
        analysis = compose_session(tally, scheme, config, f_ec=1.07, f_ds=1.05, pa_epsilon=1e-3)
        digest.update(json.dumps(analysis.to_json(), sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def calibration():
    """The fitted demonstration-link operating point."""
    return calibrate_to_reference()


def reference_point():
    """The reference scheme on the reference link, 5.6 h."""
    return evaluate_scheme(reference_model(), reference_scheme(), PULSES, **DESIGN)


def optimum(stages: int):
    """The optimized scheme on the reference link, 5.6 h, after ``stages`` stages."""
    return optimize_scheme(reference_model(), PULSES, stages=stages, **DESIGN)


def optimum_at_120km():
    """The one-stage, three-point optimum at 120 km, 5.6 h, with library defaults."""
    return optimize_scheme(reference_model(120.0), PULSES, stages=1, points_per_stage=3)


def optimize_cli_at_120km():
    """``optimize --trace`` at 120 km and 1e9 pulses, one stage: (rc, out, err)."""
    return run_cli(["optimize", "--pulses", "1000000000", "--distance-km", "120",
                    "--stages", "1", "--trace"])


def fixed_curve():
    """The reference scheme along :data:`CURVE_GRID`."""
    return range_curve(reference_model(), PULSES, CURVE_GRID, **DESIGN)


def curve_cli():
    """``curve`` on 140, 146 and 152 km, 5.6 h: (rc, out, err)."""
    return run_cli(["curve", "--distances", "140,146,152", "--pulses", str(PULSES)])


def design_run(name: str):
    """Design command ``name`` of :data:`DESIGN_COMMANDS` with :data:`DESIGN_FLAGS`:
    (rc, out, err)."""
    return run_cli([*DESIGN_COMMANDS[name], *DESIGN_FLAGS])
