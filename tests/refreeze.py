"""Recompute every entry of the ledger ``tests/frozen.json`` and rewrite it.

Usage: ``python tests/refreeze.py`` (no options).  Each entry is recomputed
by its producer in ``tests/ledger.py``, against the package in ``src/`` of
this checkout; the ledger and README's quotes of its values are rewritten,
and one row per entry is printed as a Markdown table,
``name | before | after | direction``.  Direction is ``down``, ``up`` or
``same`` for a number and ``changed`` or ``same`` for a digest (``new`` or
``removed`` for an entry only one side has).  A change that moves a pinned
output pastes the table into CHANGES.md as it is.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import ledger  # noqa: E402  (after the path)


def _readme_entries(session) -> dict:
    analysis = json.loads(session.analyze[1])["analysis"]
    distill = json.loads(session.distill[1])
    entries = {
        "readme.total_tight": analysis["total_tight"],
        "readme.total_worst": analysis["total_worst"],
        "readme.final_key_bits": distill["final_key_bits"],
        "readme.key_sha256": session.key_sha256,
        "readme.X.f_ec_measured": distill["bases"]["X"]["f_ec_measured"],
        "readme.X.f_ds_measured": distill["bases"]["X"]["deskew"]["f_ds_measured"],
    }
    for basis, entry in distill["bases"].items():
        for field in ("parity_bits_leaked", "corrections", "passes"):
            entries[f"readme.{basis}.{field}"] = entry[field]
    return entries


def _calibration_entries(cal) -> dict:
    bounds = cal.analysis.bounds
    return {
        "calibrate.pulses": cal.pulses,
        "calibrate.duty_cycle": cal.duty_cycle,
        "calibrate.background_rate_hz": cal.model.background_rate_hz,
        "calibrate.intrinsic_error_rate": cal.model.intrinsic_error_rate,
        "calibrate.total_tight": cal.analysis.total_tight,
        "calibrate.total_worst": cal.analysis.total_worst,
        "calibrate.y1_lower": bounds.y1_lower,
        "calibrate.b1_tight": bounds.b1_tight_by_basis["X"],
        "calibrate.b1_worst": bounds.b1_worst_by_basis["X"],
        "calibrate.f_pa_tight": cal.analysis.budgets_tight["X"].f_pa,
        "calibrate.f_pa_worst": cal.analysis.budgets_worst["X"].f_pa,
    }


def _curve_entries(curve, cli_err) -> dict:
    entries = {}
    for point in curve.points:
        name = f"curve.{point.distance_km:g}km"
        entries[f"{name}.total_tight"] = point.analysis.total_tight
        entries[f"{name}.total_worst"] = point.analysis.total_worst
    entries["curve.range_tight_km"] = curve.range_tight_km
    entries["curve.range_worst_km"] = curve.range_worst_km
    tight, worst = re.search(r"range (\S+) km \(tight\) / (\S+) km \(worst-case\)",
                             cli_err).groups()
    entries["curve_cli.range_tight_km"] = float(tight)
    entries["curve_cli.range_worst_km"] = float(worst)
    return entries


def produce(root: Path) -> dict:
    """Every ledger entry, recomputed by its producer."""
    best, quick = ledger.optimum(stages=3), ledger.optimum(stages=1)
    at_120km = ledger.optimum_at_120km()
    report = json.loads(ledger.optimize_cli_at_120km()[1])
    point = ledger.reference_point()
    entries = {
        **_readme_entries(ledger.readme_session(root)),
        **_calibration_entries(ledger.calibration()),
        "certify.sha256": ledger.certified_sessions(),
        "evaluate.total_tight": point.total_tight,
        "evaluate.total_worst": point.total_worst,
        "optimize.total_tight": best.analysis.total_tight,
        "optimize.total_worst": best.analysis.total_worst,
        "optimize.evaluations": len(best.trace),
        "optimize.mu0": best.scheme.mus[0],
        "optimize.mu1": best.scheme.mus[1],
        "optimize.mu2": best.scheme.mus[2],
        "optimize.p2": best.scheme.send_probs[2],
        "optimize.stages_1.total_tight": quick.analysis.total_tight,
        "optimize.stages_1.evaluations": len(quick.trace),
        "optimize.120km.total_tight": at_120km.analysis.total_tight,
        "optimize.120km.total_worst": at_120km.analysis.total_worst,
        "optimize_cli.1e9.total_tight": report["n_secret_tight"],
        "optimize_cli.1e9.evaluations": report["evaluations"],
        **_curve_entries(ledger.fixed_curve(), ledger.curve_cli()[2]),
    }
    for name in ledger.DESIGN_COMMANDS:
        out = ledger.design_run(name)[1]
        entries[f"design.{name}.sha256"] = hashlib.sha256(out.encode()).hexdigest()
    return entries


def direction(before, after) -> str:
    if before is None:
        return "new"
    if after is None:
        return "removed"
    if before == after:
        return "same"
    if isinstance(after, str):
        return "changed"
    return "down" if after < before else "up"


def rewrite_readme(values: dict) -> None:
    """Set each README quote of a ledger value to ``values``."""
    text = ledger.README.read_text()
    for name, patterns in ledger.README_QUOTES.items():
        value = str(values[name])
        for pattern in patterns:
            text = re.sub(pattern, lambda m: (m.string[m.start():m.start(1)] + value
                                              + m.string[m.end(1):m.end()]), text)
    ledger.README.write_text(text)


def main() -> None:
    before = json.loads(ledger.PATH.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        after = produce(Path(tmp))
    ledger.PATH.write_text(json.dumps(after, indent=2, sort_keys=True) + "\n")
    rewrite_readme(after)
    print("| name | before | after | direction |")
    print("|---|---|---|---|")
    for name in sorted(before.keys() | after.keys()):
        old, new = before.get(name), after.get(name)
        print(f"| {name} | {old} | {new} | {direction(old, new)} |")


if __name__ == "__main__":
    main()
