"""End-to-end tests for the ``decoyqkd`` command-line interface.

Each command is driven in-process through ``main(argv)`` with captured
streams, which keeps the suite fast and lets us assert exact exit codes,
stderr diagnostics, and byte-identical machine output.  A single short
Monte-Carlo session (25 km, 2e7 pulses) is shared by the pipeline tests.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import decoyqkd
import ledger
from conftest import MALFORMED_DOCUMENTS
from decoyqkd import cli, recon
from decoyqkd.cli import main
from decoyqkd.core import (
    BASES,
    DEFAULT_DESKEW_DEPTH,
    DEFAULT_PA_EPSILON,
    DEFAULT_ZERO_BIAS,
    ConfidenceConfig,
    DecoyScheme,
    ValidationError,
    dumps,
)
from decoyqkd.extract import peres_extract
from decoyqkd.keyrate import compose_session
from decoyqkd.recon import distill_session
from decoyqkd.sim import expected_tally, reference_model, reference_scheme, simulate_session
from ledger import DESIGN_COMMANDS, DESIGN_FLAGS, FROZEN, PULSES, SIM_ARGS, run_cli

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

COMMANDS = ("simulate", "analyze", "distill", "optimize", "curve", "calibrate")
#: (command, settings name, flag) of every float flag.
FLOAT_FLAGS = [
    (name, key, cli._FLAGS[key].flag)
    for name, command in cli._COMMANDS.items()
    for key in command.flags
    if cli._FLAGS[key].type is float
]
CURVE_HEADER = (
    "distance_km,n_secret_tight,n_secret_worst,y1_lower,b1_tight,b1_worst,"
    "mu0,mu1,mu2,p0,p1,p2"
)
#: (command, other flags, bad settings, the error when the settings are
#: given as flags).  ``{tally}``, ``{keys}`` and ``{tmp}`` stand for paths.
BAD_SETTINGS = [
    ("analyze", ["--tally", "{tally}"], {"confidence": 0.9},
     "--confidence: epsilon must lie in (0, 0.5), got 0.9"),
    ("analyze", ["--tally", "{tally}"], {"pa_epsilon": 0.7},
     "--pa-epsilon: pa_epsilon must lie in (0, 0.5), got 0.7"),
    ("analyze", ["--tally", "{tally}"], {"photon_cutoff": 0},
     "--photon-cutoff: photon_cutoff must be >= 1, got 0"),
    ("analyze", ["--tally", "{tally}"], {"f_ec": 0.5},
     "--f-ec: f_ec must lie in [1, inf], got 0.5"),
    ("curve", ["--distances", "100:110:5"], {"pulses": 3},
     "--pulses 3 gives 3 pulses, too few to send one at every level"),
    ("simulate", ["--seed", "1"], {"pulses": 10**20},
     f"--pulses must be below 2**63, got {10**20}"),
    ("optimize", [], {"pulses": 1000000, "duration_h": 1.0},
     "give --pulses or --duration-h, not both"),
    ("simulate", ["--seed", "1"], {"duration_h": -1.0}, "--duration-h must be > 0"),
    ("simulate", ["--seed", "1", "--duration-h", "1"], {"duty_cycle": 7.0},
     "--duty-cycle must lie in (0, 1]"),
    ("curve", [], {"distances": "150,140"},
     "--distances: distance grid must be strictly increasing"),
    ("curve", [], {"distances": "abc"},
     "--distances: expected MIN:MAX:STEP or a comma list, got 'abc'"),
    ("curve", ["--distances", "100:102:2", "--optimize"], {"stages": 0},
     "--stages: stages must be >= 1, got 0"),
    ("optimize", [], {"distance_km": -5.0},
     "--distance-km: fiber_length_km must lie in [0, inf), got -5.0"),
    ("analyze", [], {"tally": "nope.json"}, "--tally: file not found: nope.json"),
    ("analyze", ["--tally", "{tally}"], {"scheme": "nope.json"},
     "--scheme: file not found: nope.json"),
    ("analyze", ["--tally", "{tally}"], {"scheme": "{tmp}/scheme.json"},
     "--scheme: {tmp}/scheme.json decoy_scheme: send probabilities sum to 1.1, "
     "expected 1 within 1e-12"),
    ("distill", ["--tally", "{tally}", "--seed", "5"], {"keys": "{tmp}/missing"},
     "--keys: file not found: {tmp}/missing.alice.X.bits"),
    ("distill", ["--tally", "{tally}", "--keys", "{keys}", "--seed", "5"], {"depth": 0},
     "--depth: depth must be >= 1, got 0"),
    ("simulate", ["--pulses", "1000"], {"seed": -1}, "--seed: seed must be >= 0, got -1"),
    ("calibrate", [], {"sifted": 0}, "--sifted: sifted must be >= 1, got 0"),
]


def stderr_report(err, command):
    """The one ``COMMAND: report {...}`` line of a command's stderr, parsed."""
    prefix = f"{command}: report "
    [line] = [line for line in err.splitlines() if line.startswith(prefix)]
    report = json.loads(line[len(prefix):])
    assert line == prefix + json.dumps(report, sort_keys=True, separators=(",", ":"))
    return report


def help_text(command):
    """``decoyqkd COMMAND --help`` with its whitespace collapsed."""
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit):
        main([command, "--help"])
    return " ".join(out.getvalue().split())


def package_env():
    """The environment of a child interpreter that imports this decoyqkd."""
    package_root = str(Path(decoyqkd.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, inherited])))


def subparser(command):
    """The argparse parser of one subcommand."""
    parser = cli._build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[command]


def declared_scripts(pyproject_text):
    """The ``[project.scripts]`` table of a pyproject.toml as ``{name: target}``.

    A line-based parse, because ``tomllib`` arrived in Python 3.11 and the
    package supports 3.10.
    """
    scripts, in_table = {}, False
    for line in pyproject_text.splitlines():
        line = line.strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table:
            entry = re.fullmatch(r'"?([\w.-]+)"?\s*=\s*"([^"]*)"\s*(#.*)?', line)
            if entry:
                scripts[entry.group(1)] = entry.group(2)
    return scripts


@pytest.fixture
def workspace(readme_session):
    """The README session on disk: tally.json plus four key files ``run.*``."""
    return readme_session.root


class TestSimulate:
    def test_tally_shape(self, workspace):
        tally = json.loads((workspace / "tally.json").read_text())
        assert tally["kind"] == "session_tally"
        assert tally["reconstructed"] is False
        assert len(tally["levels"]) == 3
        for level in tally["levels"]:
            assert sorted(level) == ["detected", "errors", "sent", "sifted"]
        assert sum(level["sent"] for level in tally["levels"]) == 20000000

    def test_key_files(self, workspace):
        tally = json.loads((workspace / "tally.json").read_text())
        signal = tally["levels"][2]
        for basis in ("X", "Z"):
            alice = (workspace / f"run.alice.{basis}.bits").read_text()
            bob = (workspace / f"run.bob.{basis}.bits").read_text()
            assert alice.endswith("\n") and bob.endswith("\n")
            assert set(alice.strip()) <= {"0", "1"}
            assert len(alice.strip()) == len(bob.strip()) == signal["sifted"][basis]

    def test_seed_required(self):
        rc, out, err = run_cli(["simulate", "--distance-km", "25", "--pulses", "1000"])
        assert rc == 1
        assert "decoyqkd simulate: error: --seed is required" in err

    def test_deterministic(self, workspace):
        rc, out, _ = run_cli(SIM_ARGS)
        assert rc == 0
        assert out == (workspace / "tally.json").read_text()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--duration-h", "1e306"],
             "--duration-h 1e+306 gives inf pulses; the count must be below 2**63"),
            (["--pulses", str(10**20)], f"--pulses must be below 2**63, got {10**20}"),
            (["--pulses", str(2**63)], f"--pulses must be below 2**63, got {2**63}"),
        ],
    )
    def test_pulse_count_beyond_int64_names_flag(self, argv, message):
        rc, out, err = run_cli(["simulate", "--seed", "1", *argv])
        assert (rc, out) == (1, "")
        assert f"decoyqkd simulate: error: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, given, pulses",
        [
            (["simulate", "--seed", "1", "--duration-h", "1e-12"], "--duration-h 1e-12", 0),
            (["optimize", "--duration-h", "1e-12"], "--duration-h 1e-12", 0),
            (["curve", "--distances", "100:110:5", "--pulses", "3"], "--pulses 3", 3),
        ],
    )
    def test_too_few_pulses_names_flag(self, argv, given, pulses):
        rc, out, err = run_cli(argv)
        assert (rc, out) == (1, "")
        assert (
            f"decoyqkd {argv[0]}: error: {given} gives {pulses} pulses, "
            "too few to send one at every level"
        ) in err


    HUGE = ["simulate", "--distance-km", "25", "--seed", "1"]

    def test_huge_session_without_keys_is_small(self):
        # 1e13 pulses: about 3e9 sifted signal bits that are never drawn
        tracemalloc.start()
        try:
            rc, out, err = run_cli(self.HUGE + ["--pulses", "10000000000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert sum(json.loads(out)["levels"][2]["sifted"].values()) > cli._MAX_KEY_BITS
        assert peak < 2**22

    @pytest.mark.parametrize("argv, flag", [
        (["--pulses", "10000000000000"], "--pulses"),
        (["--duration-h", "3000"], "--duration-h"),
    ])
    def test_huge_session_with_keys_names_the_count(self, tmp_path, argv, flag):
        tracemalloc.start()
        try:
            rc, out, err = run_cli(self.HUGE + argv + ["--keys-out", str(tmp_path / "run")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rc, out) == (1, "")
        assert re.search(rf"decoyqkd simulate: error: {flag}: \d+ pulses give \d+ sifted signal "
                         r"bits; --keys-out writes at most 2\*\*27 = 134217728", err)
        assert os.listdir(tmp_path) == []
        assert peak < 2**22


class TestAnalyze:
    def test_positive_key(self, readme_session):
        rc, out, err = readme_session.analyze
        assert rc == 0
        report = json.loads(out)
        assert report["kind"] == "analysis_report"
        assert report["analysis"]["total_tight"] == FROZEN["readme.total_tight"]
        assert report["analysis"]["total_worst"] == FROZEN["readme.total_worst"]
        assert report["analysis"]["feasible"] is True
        assert err.startswith(f"analyze: key total {FROZEN['readme.total_tight']}")

    def test_input_digests(self, workspace):
        tally_path = workspace / "tally.json"
        rc, out, _ = run_cli(["analyze", "--tally", str(tally_path)])
        report = json.loads(out)
        digest = hashlib.sha256(tally_path.read_bytes()).hexdigest()
        assert report["inputs"]["tally"]["sha256"] == digest
        assert report["inputs"]["scheme"] == {"builtin": "reference"}
        assert report["parameters"]["f_ec"] == 1.07
        assert report["parameters"]["f_ds"] == 1.05

    def test_tally_from_stdin(self, workspace):
        payload = (workspace / "tally.json").read_bytes()
        rc, out, _ = run_cli(["analyze", "--tally", "-"], stdin_bytes=payload)
        assert rc == 0
        assert json.loads(out)["analysis"]["total_tight"] == FROZEN["readme.total_tight"]

    @pytest.mark.parametrize("km", [25, 150])
    @pytest.mark.parametrize("e_int", [0.0, 0.1, 0.3, 0.5])
    def test_expected_tallies_in_bounded_memory(self, tmp_path, km, e_int):
        # Pulses rise, so an unbounded typical-set window fails the memory
        # bound long before it asks for gigabytes (1e13 pulses at e_int 0.3).
        model = dataclasses.replace(reference_model(km), intrinsic_error_rate=e_int)
        path = tmp_path / "tally.json"
        for exponent in range(6, 22):
            tally = expected_tally(model, reference_scheme(), 10**exponent,
                                   sift_ratio=0.5, zero_fraction=0.5)
            path.write_text(dumps(tally))
            tracemalloc.start()
            try:
                rc, _, err = run_cli(["analyze", "--tally", str(path)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc in (0, 2), (exponent, err)
            assert peak < 2**23, exponent

    def test_zero_key_exits_two(self, tmp_path):
        rc, out, _ = run_cli(
            ["simulate", "--distance-km", "160", "--pulses", "1000000", "--seed", "4"]
        )
        assert rc == 0
        starved = tmp_path / "starved.json"
        starved.write_text(out)
        rc, out, err = run_cli(["analyze", "--tally", str(starved)])
        assert rc == 2
        report = json.loads(out)  # the report is still emitted
        assert report["analysis"]["total_tight"] == 0
        assert "analyze: zero-key outcome" in err

    def test_unbounded_f_ec_is_a_zero_key(self, workspace):
        rc, out, err = run_cli(["analyze", "--tally", str(workspace / "tally.json"),
                                "--f-ec", "1e308"])
        assert rc == 2
        assert json.loads(out)["analysis"]["total_tight"] == 0
        assert "analyze: zero-key outcome" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, edit, message",
        [
            ("--tally",
             lambda d: d["levels"][0]["errors"].update(X=d["levels"][0]["sifted"]["X"] + 1),
             "session_tally: levels[0]: count chain violated in basis X"),
            ("--tally", lambda d: d["levels"][1].update(sent=1),
             "session_tally: levels[1]: total detections exceed pulses sent"),
            ("--tally", lambda d: d["zeros"].update(X=10**12),
             "session_tally: zeros in basis X must lie in"),
            ("--scheme", lambda d: d["levels"][0].update(send_prob=0.2),
             "decoy_scheme: send probabilities sum to"),
            ("--scheme", lambda d: d["levels"][1].update(mu=0.9),
             "decoy_scheme: mean photon numbers must be strictly increasing"),
            ("--model", lambda d: d.update(fiber_length_km=-1),
             "channel_model: fiber_length_km must lie in [0, inf), got -1.0"),
        ],
        ids=["errors above sifted", "detections above sent", "too many zeros",
             "probabilities", "unordered mus", "negative length"],
    )
    def test_cross_field_error_names_flag_file_and_level(
        self, workspace, tmp_path, flag, edit, message
    ):
        tally = workspace / "tally.json"
        docs = {"--tally": json.loads(tally.read_text()),
                "--scheme": reference_scheme().to_json(),
                "--model": reference_model().to_json()}
        doc = docs[flag]
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        if flag == "--model":
            argv = ["simulate", "--pulses", "1000", "--seed", "1", flag, str(bad)]
        else:
            argv = ["analyze", "--tally", str(tally), flag, str(bad)]
        rc, out, err = run_cli(argv)
        assert (rc, out) == (1, "")
        assert err.startswith(f"decoyqkd {argv[0]}: error: {flag}: {bad} {message}"), err

    @pytest.mark.parametrize(
        "flag, value",
        [("--pa-epsilon", "-1"), ("--pa-epsilon", "0.7"), ("--pa-epsilon", "5.0"),
         ("--confidence", "0.7")],
    )
    def test_epsilon_out_of_range_names_flag(self, workspace, tmp_path, flag, value):
        # A zero-key tally never reaches the typical-set factor, so the
        # flag must be checked before the analysis decides the key is empty.
        rc, out, _ = run_cli(
            ["simulate", "--distance-km", "200", "--pulses", "20000000", "--seed", "11"]
        )
        assert rc == 0
        starved = tmp_path / "starved.json"
        starved.write_text(out)
        name = {"--pa-epsilon": "pa_epsilon", "--confidence": "epsilon"}[flag]
        for tally in (workspace / "tally.json", starved):
            rc, out, err = run_cli(["analyze", "--tally", str(tally), flag, value])
            assert (rc, out) == (1, ""), tally
            assert f"analyze: error: {flag}: {name} must lie in (0, 0.5), got {float(value)}" in err
        rc, out, err = run_cli(
            ["distill", "--tally", str(workspace / "tally.json"),
             "--keys", str(workspace / "run"), "--seed", "5", flag, value]
        )
        assert (rc, out) == (1, "")
        assert f"distill: error: {flag}: {name} must lie in (0, 0.5), got {float(value)}" in err

    @pytest.mark.parametrize("flag, value", [("--f-ec", "0.5"), ("--f-ds", "0.2")])
    def test_subunity_efficiency_factor_names_flag(self, workspace, tmp_path, flag, value):
        # 250 km over 2e6 pulses detects nothing, so no budget is computed.
        rc, out, _ = run_cli(
            ["simulate", "--distance-km", "250", "--pulses", "2000000", "--seed", "3"]
        )
        assert rc == 0
        empty = tmp_path / "empty.json"
        empty.write_text(out)
        name = flag[2:].replace("-", "_")
        for tally in (workspace / "tally.json", empty):
            rc, out, err = run_cli(["analyze", "--tally", str(tally), flag, value])
            assert (rc, out) == (1, ""), tally
            assert f"analyze: error: {flag}: {name} must lie in [1, inf], got {float(value)}" in err

    def test_missing_tally_file(self):
        rc, out, err = run_cli(["analyze", "--tally", "nope.json"])
        assert rc == 1
        assert "decoyqkd analyze: error: --tally: file not found: nope.json" in err

    def test_invalid_tally_json(self, tmp_path):
        bad = tmp_path / "garbage.json"
        bad.write_text("{not json")
        rc, out, err = run_cli(["analyze", "--tally", str(bad)])
        assert rc == 1
        assert "is not valid JSON" in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
    def test_malformed_document_exits_one(self, workspace, tmp_path, case):
        kind, edit, field = MALFORMED_DOCUMENTS[case]
        if kind == "session_tally":
            doc = json.loads((workspace / "tally.json").read_text())
            argv = ["analyze", "--tally"]
        else:
            doc = reference_model().to_json()
            argv = ["simulate", "--pulses", "1000", "--seed", "1", "--model"]
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc, out, err = run_cli(argv + [str(bad)])
        assert (rc, out) == (1, "")
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "distill"])
    def test_level_without_pulses_names_tally_flag(self, workspace, tmp_path, command):
        doc = json.loads((workspace / "tally.json").read_text())
        empty = {b: 0 for b in BASES}
        doc["levels"][0] = {"sent": 0, "detected": empty, "sifted": empty, "errors": empty}
        for b in BASES:
            sifted = sum(level["sifted"][b] for level in doc["levels"])
            doc["zeros"][b] = min(doc["zeros"][b], sifted)
        idle = tmp_path / "idle.json"
        idle.write_text(json.dumps(doc))
        argv = [command, "--tally", str(idle)]
        if command == "distill":
            argv += ["--keys", str(workspace / "run"), "--seed", "5"]
        rc, out, err = run_cli(argv)
        assert (rc, out) == (1, "")
        assert (
            f"decoyqkd {command}: error: --tally: {idle} "
            "level 0 has no sent pulses; cannot bound its yield"
        ) in err

    @pytest.mark.parametrize("command", ["analyze", "distill"])
    def test_reconstructed_tally_noted(self, workspace, tmp_path, command):
        argv = [command]
        if command == "distill":
            argv += ["--keys", str(workspace / "run"), "--seed", "5"]
        doc = json.loads((workspace / "tally.json").read_text())
        del doc["zeros"]
        unbiased = tmp_path / "unbiased.json"
        unbiased.write_text(json.dumps(doc))
        _, _, err = run_cli(argv + ["--tally", str(workspace / "tally.json")])
        assert "reconstructed" not in err
        rc, _, err = run_cli(argv + ["--tally", str(unbiased)])
        assert rc == 0
        assert f"note: tally {unbiased} was reconstructed" in err


    @pytest.mark.parametrize("command", ["analyze", "distill"])
    @pytest.mark.parametrize(
        "mus, probs",
        [((0.1, 0.5), (0.3, 0.7)), ((0.002, 0.1, 0.3, 0.6), (0.1, 0.1, 0.1, 0.7))],
        ids=["2 levels", "4 levels"],
    )
    def test_scheme_level_count_mismatch(self, workspace, tmp_path, command, mus, probs):
        scheme = tmp_path / "scheme.json"
        scheme.write_text(dumps(DecoyScheme(mus=mus, send_probs=probs)))
        argv = [command, "--tally", str(workspace / "tally.json"), "--scheme", str(scheme)]
        if command == "distill":
            argv += ["--keys", str(workspace / "run"), "--seed", "5"]
        rc, out, err = run_cli(argv)
        assert (rc, out) == (1, "")
        assert f"tally has 3 levels but scheme has {len(mus)}" in err
        assert f"error: --tally: {workspace / 'tally.json'} tally has 3 levels" in err


class TestDistill:
    def test_full_pipeline(self, readme_session):
        rc, out, err = readme_session.distill
        assert rc == 0
        report = json.loads(out)
        assert report["kind"] == "distill_report"
        bits = FROZEN["readme.final_key_bits"]
        assert report["final_key_bits"] == bits
        assert len(report["final_key_hex"]) == 2 * ((bits + 7) // 8)
        assert report["parameters"] == {
            "confidence": 1e-07, "depth": 12, "pa_epsilon": DEFAULT_PA_EPSILON,
            "photon_cutoff": 10, "seed": 5, "vacuum_pinning": True, "variant": "worst",
        }
        x = report["bases"]["X"]
        assert x["f_ec_measured"] == pytest.approx(FROZEN["readme.X.f_ec_measured"], abs=1e-6)
        assert x["deskew"]["f_ds_measured"] == pytest.approx(FROZEN["readme.X.f_ds_measured"],
                                                             abs=1e-6)
        assert x["residual_error_detected"] is False
        assert f"distill: final key {bits} bits" in err

    def test_frozen_key(self, readme_session):
        # The README session's key and each basis's reconciliation counts,
        # as the block-by-block CASCADE loop gave them.
        rc, out, _ = readme_session.distill
        assert rc == 0
        assert readme_session.key_sha256 == FROZEN["readme.key_sha256"]
        fields = ("parity_bits_leaked", "corrections", "passes")
        bases = json.loads(out)["bases"]
        assert {b: tuple(e[f] for f in fields) for b, e in bases.items()} == {
            b: tuple(FROZEN[f"readme.{b}.{f}"] for f in fields) for b in BASES}

    def test_reports_measured_factors_at_least_one(self, workspace):
        rc, out, _ = run_cli(
            ["distill", "--tally", str(workspace / "tally.json"),
             "--keys", str(workspace / "run"), "--seed", "5"]
        )
        report = json.loads(out)
        for basis in ("X", "Z"):
            entry = report["bases"][basis]
            assert entry["f_ec_measured"] >= 1.0
            assert entry["deskew"]["f_ds_measured"] >= 1.0
            assert entry["n_input"] == len(
                (workspace / f"run.alice.{basis}.bits").read_text().strip()
            )

    def test_key_file_digests(self, workspace):
        rc, out, _ = run_cli(
            ["distill", "--tally", str(workspace / "tally.json"),
             "--keys", str(workspace / "run"), "--seed", "5"]
        )
        digests = json.loads(out)["inputs"]["key_files_sha256"]
        assert sorted(digests) == [
            "run.alice.X.bits", "run.alice.Z.bits",
            "run.bob.X.bits", "run.bob.Z.bits",
        ]
        for name, digest in digests.items():
            assert digest == hashlib.sha256((workspace / name).read_bytes()).hexdigest()

    def test_byte_identical_reruns(self, workspace, tmp_path):
        argv = ["distill", "--tally", str(workspace / "tally.json"),
                "--keys", str(workspace / "run"), "--seed", "5"]
        first = tmp_path / "k1.bin"
        second = tmp_path / "k2.bin"
        rc1, out1, _ = run_cli(argv + ["--key-out", str(first)])
        rc2, out2, _ = run_cli(argv + ["--key-out", str(second)])
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert first.read_bytes() == second.read_bytes()
        assert len(first.read_bytes()) == (FROZEN["readme.final_key_bits"] + 7) // 8

    def test_length_mismatch_against_tally(self, workspace, tmp_path):
        for side in ("alice", "bob"):
            for basis in ("X", "Z"):
                name = f"run.{side}.{basis}.bits"
                bits = (workspace / name).read_text().strip()
                if basis == "X":
                    bits = bits[:-7]
                (tmp_path / name).write_text(bits + "\n")
        rc, out, err = run_cli(
            ["distill", "--tally", str(workspace / "tally.json"),
             "--keys", str(tmp_path / "run"), "--seed", "1"]
        )
        assert rc == 1
        assert "basis X holds" in err
        assert "sifted signal bits" in err

    def test_alice_bob_mismatch(self, workspace, tmp_path):
        for side in ("alice", "bob"):
            for basis in ("X", "Z"):
                name = f"run.{side}.{basis}.bits"
                bits = (workspace / name).read_text().strip()
                if side == "alice" and basis == "X":
                    bits = bits[:-3]
                (tmp_path / name).write_text(bits + "\n")
        rc, out, err = run_cli(
            ["distill", "--tally", str(workspace / "tally.json"),
             "--keys", str(tmp_path / "run"), "--seed", "1"]
        )
        assert rc == 1
        assert "--keys: alice/bob length mismatch in basis X" in err

    def test_non_binary_key_file(self, workspace, tmp_path):
        for side in ("alice", "bob"):
            for basis in ("X", "Z"):
                name = f"run.{side}.{basis}.bits"
                (tmp_path / name).write_text((workspace / name).read_text())
        bad = tmp_path / "run.alice.X.bits"
        bad.write_text(bad.read_text().strip()[:-1] + "2\n")
        rc, out, err = run_cli(
            ["distill", "--tally", str(workspace / "tally.json"),
             "--keys", str(tmp_path / "run"), "--seed", "1"]
        )
        assert rc == 1
        assert "holds non-binary characters" in err

    def test_non_ascii_key_file(self, workspace, tmp_path):
        for side in ("alice", "bob"):
            for basis in ("X", "Z"):
                name = f"run.{side}.{basis}.bits"
                (tmp_path / name).write_text((workspace / name).read_text())
        bad = tmp_path / "run.alice.X.bits"
        bad.write_bytes(b"01\xff10\n")
        rc, out, err = run_cli(
            ["distill", "--tally", str(workspace / "tally.json"),
             "--keys", str(tmp_path / "run"), "--seed", "1"]
        )
        assert rc == 1
        assert f"--keys: {bad} holds non-binary characters" in err

    def test_missing_key_file(self, workspace, tmp_path):
        rc, out, err = run_cli(
            ["distill", "--tally", str(workspace / "tally.json"),
             "--keys", str(tmp_path / "run"), "--seed", "1"]
        )
        assert rc == 1
        assert "--keys: file not found:" in err

    def test_observed_qber_above_limit_names_tally_and_basis(self, workspace, tmp_path):
        doc = json.loads((workspace / "tally.json").read_text())
        doc["levels"][2]["errors"]["X"] = 900  # of 3055 sifted signal bits
        tally = tmp_path / "noisy.json"
        tally.write_text(json.dumps(doc))
        rc, out, err = run_cli(
            ["distill", "--tally", str(tally), "--keys", str(workspace / "run"),
             "--seed", "5"]
        )
        assert rc == 1
        assert (
            f"--tally: {tally} records a signal QBER of 0.2946 in basis X, "
            "above the 0.25 that reconciliation accepts"
        ) in err

    def test_basis_below_reconciliation_minimum(self, workspace, tmp_path):
        doc = json.loads((workspace / "tally.json").read_text())
        signal = doc["levels"][2]
        signal["sifted"]["X"] = signal["errors"]["X"] = 0
        doc["zeros"]["X"] = 100
        tally = tmp_path / "empty_x.json"
        tally.write_text(json.dumps(doc))
        for side in ("alice", "bob"):
            for basis in ("X", "Z"):
                name = f"run.{side}.{basis}.bits"
                bits = "" if basis == "X" else (workspace / name).read_text()
                (tmp_path / name).write_text(bits)
        rc, out, err = run_cli(
            ["distill", "--tally", str(tally), "--keys", str(tmp_path / "run"),
             "--seed", "5"]
        )
        assert rc == 1
        assert "--keys: basis X holds 0 bits; reconciliation needs at least 64" in err

    def test_key_errors_unlike_tally_exit_one(self, tmp_path):
        # A 100 km, 5.6 h session whose tally records 791/789 errors in X/Z
        # while Bob's key files carry 12% more flips: the budget, which
        # prices the disclosed parities from the tally, would undercharge.
        rc, out, _ = run_cli(
            ["simulate", "--distance-km", "100", "--duration-h", "5.6",
             "--seed", "1000003", "--keys-out", str(tmp_path / "run")]
        )
        assert rc == 0
        (tmp_path / "tally.json").write_text(out)
        flips = np.random.default_rng(12)
        for basis in BASES:
            alice, bob = (
                np.array(list((tmp_path / f"run.{side}.{basis}.bits").read_text().strip()),
                         dtype=int)
                for side in ("alice", "bob")
            )
            agree = np.flatnonzero(alice == bob)
            errors = bob.size - agree.size
            bob[flips.choice(agree, round(0.12 * errors), replace=False)] ^= 1
            (tmp_path / f"run.bob.{basis}.bits").write_text("".join(map(str, bob)) + "\n")
        rc, out, err = run_cli(
            ["distill", "--tally", str(tmp_path / "tally.json"),
             "--keys", str(tmp_path / "run"), "--seed", "7"]
        )
        assert (rc, out) == (1, "")
        assert (
            "distill: error: --keys: basis X: reconciliation corrected 886 errors "
            "but the tally records 791"
        ) in err

    def test_residual_mismatch_emits_no_key(self, workspace, tmp_path, monkeypatch):
        reconcile = recon.cascade_reconcile

        def residual_left(*args, **kwargs):
            return dataclasses.replace(reconcile(*args, **kwargs), residual_error_detected=True)

        monkeypatch.setattr(recon, "cascade_reconcile", residual_left)
        key_out = tmp_path / "final.bin"
        rc, out, err = run_cli(
            ["distill", "--tally", str(workspace / "tally.json"),
             "--keys", str(workspace / "run"), "--seed", "5", "--key-out", str(key_out)]
        )
        assert rc == 2
        report = json.loads(out)
        assert (report["final_key_bits"], report["final_key_hex"]) == (0, "")
        assert not key_out.exists()
        assert "residual mismatch survived reconciliation" in err
        assert "final key" not in err

    def test_variant_choices(self, workspace):
        rc, out, err = run_cli(
            ["distill", "--tally", str(workspace / "tally.json"),
             "--keys", str(workspace / "run"), "--seed", "1", "--variant", "bogus"]
        )
        assert rc == 1
        assert "invalid choice: 'bogus'" in err


def _accepted_before(raw: bytes) -> bool:
    """Whether a key file of these bytes was read as bits by the text-based reader."""
    text = raw.decode("ascii", errors="replace").strip()
    return not (text and set(text) - {"0", "1"})


class TestKeyFiles:
    def test_round_trip(self, tmp_path):
        bits = np.random.default_rng(1).integers(0, 2, 10_000, dtype=np.uint8)
        path = tmp_path / "k.bits"
        path.write_bytes(cli._encode_bits(bits))
        assert path.read_bytes() == "".join(map(str, bits)).encode() + b"\n"
        read, digest = cli._read_bits(path, "--keys")
        assert read.dtype == np.uint8
        assert np.array_equal(read, bits)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("raw, accepted", [
        (b"0110\r\n", True), (b"0110 \t\n", True), (b"\x0b\x1c0110\x1f\x0c", True), (b"", True),
        (b"0120\n", False), (b"01x0\n", False), (b"01\xff10\n", False), (b"01 10\n", False),
    ])
    def test_padding_accepted_and_other_bytes_rejected(self, tmp_path, raw, accepted):
        path = tmp_path / "k.bits"
        path.write_bytes(raw)
        if accepted:
            bits, _ = cli._read_bits(path, "--keys")
            assert bits.tolist() == [int(c) for c in raw.decode().strip()]
        else:
            with pytest.raises(ValidationError) as info:
                cli._read_bits(path, "--keys")
            assert str(info.value) == f"--keys: {path} holds non-binary characters"

    def test_accepts_what_the_text_reader_accepted(self, tmp_path):
        path = tmp_path / "k.bits"
        for byte in (bytes([c]) for c in range(256)):
            for raw in (byte + b"01" + byte, b"0" + byte + b"1", byte):
                path.write_bytes(raw)
                try:
                    cli._read_bits(path, "--keys")
                    accepted = True
                except ValidationError:
                    accepted = False
                assert accepted == _accepted_before(raw), raw


class TestConfigFile:
    def test_config_supplies_defaults(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"f_ec": 1.2}')
        rc, out, _ = run_cli(
            ["analyze", "--tally", str(workspace / "tally.json"), "--config", str(cfg)]
        )
        assert rc == 0
        assert json.loads(out)["parameters"]["f_ec"] == 1.2

    def test_explicit_flag_beats_config(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"f_ec": 1.2}')
        rc, out, _ = run_cli(
            ["analyze", "--tally", str(workspace / "tally.json"),
             "--config", str(cfg), "--f-ec", "1.3"]
        )
        assert rc == 0
        assert json.loads(out)["parameters"]["f_ec"] == 1.3

    def test_unknown_fields_rejected(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"f_ec": 1.2, "frobnicate": 3}')
        rc, out, err = run_cli(
            ["analyze", "--tally", str(workspace / "tally.json"), "--config", str(cfg)]
        )
        assert rc == 1
        assert "--config: unknown fields ['frobnicate']" in err

    def test_config_dir_fallback(self, workspace, tmp_path, monkeypatch):
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        (cfg_dir / "indirect.json").write_text('{"f_ec": 1.25}')
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("DECOYQKD_CONFIG_DIR", str(cfg_dir))
        rc, out, _ = run_cli(
            ["analyze", "--tally", str(workspace / "tally.json"),
             "--config", "indirect.json"]
        )
        assert rc == 0
        assert json.loads(out)["parameters"]["f_ec"] == 1.25

    def test_key_files_found_under_config_dir(self, workspace, tmp_path, monkeypatch):
        # The tally and the four key files sit in the config dir, named relative.
        absolute = run_cli(["distill", "--tally", str(workspace / "tally.json"),
                            "--keys", str(workspace / "run"), "--seed", "5"])
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.CONFIG_DIR_ENV, str(workspace))
        relative = run_cli(["distill", "--tally", "tally.json", "--keys", "run", "--seed", "5"])
        assert relative == absolute
        assert relative[0] == 0


    @pytest.mark.parametrize("command, field, value", [
        ("analyze", "vacuum_pinning", "false"),
        ("analyze", "vacuum_pinning", 0),
        ("analyze", "photon_cutoff", 10.7),
        ("analyze", "photon_cutoff", True),
        ("optimize", "stages", 2.9),
        ("simulate", "seed", 3.7),
        ("optimize", "trace", "no"),
        ("analyze", "confidence", "1e-7"),
        ("analyze", "f_ec", None),
        ("analyze", "f_ec", [1.07]),
        ("analyze", "f_ec", "abc"),
        ("analyze", "f_ec", True),
        ("analyze", "tally", 5),
        ("calibrate", "detections", [341, 5729]),
        ("calibrate", "detections", 341),
        ("calibrate", "targets", [6127, 3990.5]),
        ("distill", "variant", "bogus"),
        ("curve", "distances", 100),
    ])
    def test_mistyped_value_rejected(self, tmp_path, command, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        rc, out, err = run_cli([command, "--config", str(cfg)])
        assert rc == 1
        assert out == ""
        assert f"decoyqkd {command}: error: --config: {field}: expected" in err

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    def test_non_finite_value_rejected(self, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        for command, key, _ in FLOAT_FLAGS:
            cfg.write_text(json.dumps({key: value}))
            rc, out, err = run_cli([command, "--config", str(cfg)])
            assert rc == 1, (command, key)
            assert out == ""
            assert f"decoyqkd {command}: error: --config: {key}: expected a finite number" in err

    def test_config_values_read_like_flags(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"vacuum_pinning": false, "f_ec": 1, "photon_cutoff": 8, "scheme": null}')
        rc, out, _ = run_cli(
            ["analyze", "--tally", str(workspace / "tally.json"), "--config", str(cfg)]
        )
        assert rc == 0
        assert '"f_ec": 1.0,' in out
        params = json.loads(out)["parameters"]
        assert params["vacuum_pinning"] is False
        assert params["photon_cutoff"] == 8
        assert json.loads(out)["inputs"]["scheme"] == {"builtin": "reference"}

    @staticmethod
    def check_named_by_source(workspace, tmp_path, command, argv, bad, message):
        """``bad`` given as flags exits 1 with ``message``; given in a config
        file, with each flag in it read as ``--config: <field>``."""
        def fill(text):
            return text.format(tally=workspace / "tally.json", keys=workspace / "run",
                               tmp=tmp_path)

        scheme = json.loads(dumps(reference_scheme()))
        scheme["levels"][2]["send_prob"] = 0.8
        (tmp_path / "scheme.json").write_text(json.dumps(scheme))
        argv = [command, *map(fill, argv)]
        bad = {key: fill(v) if isinstance(v, str) else v for key, v in bad.items()}
        flags = {key: cli._FLAGS[key].flag for key in bad}
        rc, out, err = run_cli(argv + [f"{flags[key]}={value}" for key, value in bad.items()])
        assert (rc, out, err) == (1, "", f"decoyqkd {command}: error: {fill(message)}\n")

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        rc, out, err = run_cli(argv + ["--config", str(cfg)])
        expected = fill(message)
        for key, flag in flags.items():
            expected = expected.replace(flag, f"--config: {key}")
        assert (rc, out, err) == (1, "", f"decoyqkd {command}: error: {expected}\n")
        assert not any(flag in err for flag in flags.values()), err

    @pytest.mark.parametrize("command, argv, bad, message", BAD_SETTINGS,
                             ids=["+".join(case[2]) for case in BAD_SETTINGS])
    def test_bad_value_is_named_by_its_source(
        self, workspace, tmp_path, command, argv, bad, message
    ):
        self.check_named_by_source(workspace, tmp_path, command, argv, bad, message)

    @pytest.mark.parametrize("command, argv, bad, message", [
        ("simulate", ["--seed", "1", "--pulses", "100000"], {"duty_cycle": 7.0},
         "--duty-cycle must lie in (0, 1]"),
        ("curve", ["--distances", "100:102:2"], {"stages": -1},
         "--stages: stages must be >= 1, got -1"),
    ], ids=["duty_cycle-with-pulses", "stages-without-optimize"])
    def test_setting_is_checked_where_it_has_no_effect(
        self, workspace, tmp_path, command, argv, bad, message
    ):
        self.check_named_by_source(workspace, tmp_path, command, argv, bad, message)


class TestLibraryMatchesCli:
    def test_readme_snippet_matches_analyze(self, readme_session):
        tally, _ = simulate_session(
            reference_model(25.0), reference_scheme(), 20_000_000, seed=11
        )
        analysis = compose_session(tally, reference_scheme(), ConfidenceConfig())
        rc, out, _ = readme_session.analyze
        assert rc == 0
        report = json.loads(out)["analysis"]
        frozen = (FROZEN["readme.total_tight"], FROZEN["readme.total_worst"])
        assert (analysis.total_tight, analysis.total_worst) == frozen
        assert (report["total_tight"], report["total_worst"]) == frozen

    def test_readme_snippet_matches_distill(self, readme_session):
        tally, keys = simulate_session(
            reference_model(25.0), reference_scheme(), 20_000_000, seed=11
        )
        result = distill_session(tally, reference_scheme(), keys.alice, keys.bob, seed=5)
        rc, out, _ = readme_session.distill
        assert rc == 0
        report = json.loads(out)
        for key in ("kind", "inputs", "parameters"):
            del report[key]
        assert json.loads(json.dumps(result.to_json())) == report
        assert result.final_key.size == FROZEN["readme.final_key_bits"]

    def test_optimize_scheme_matches_optimize(self):
        result = ledger.optimum_at_120km()
        rc, out, _ = run_cli(
            ["optimize", "--distance-km", "120", "--pulses", str(PULSES),
             "--stages", "1", "--points-per-stage", "3"]
        )
        assert rc == 0
        report = json.loads(out)
        frozen = (FROZEN["optimize.120km.total_tight"], FROZEN["optimize.120km.total_worst"])
        assert (result.analysis.total_tight, result.analysis.total_worst) == frozen
        assert (report["n_secret_tight"], report["n_secret_worst"]) == frozen
        assert report["scheme"] == result.scheme.to_json()


class TestOptimize:
    def test_trace_report(self):
        rc, out, err = ledger.optimize_cli_at_120km()
        assert rc == 0
        report = json.loads(out)
        assert report["kind"] == "optimize_report"
        assert report["feasible"] is True
        evaluations = FROZEN["optimize_cli.1e9.evaluations"]
        assert report["evaluations"] == evaluations
        assert len(report["trace"]) == evaluations
        assert report["n_secret_tight"] == FROZEN["optimize_cli.1e9.total_tight"]
        assert f"optimize: {evaluations} evaluations" in err

    def test_trace_omitted_by_default(self):
        rc, out, _ = run_cli(
            ["optimize", "--pulses", "1000000000", "--distance-km", "120",
             "--stages", "1"]
        )
        assert rc == 0
        assert json.loads(out)["trace"] is None

    @pytest.mark.parametrize(
        "argv, note",
        [
            (["optimize", "--pulses", "25", "--stages", "1"],
             "optimize: every candidate yields a zero key at this operating point"),
            (["curve", "--distances", "100", "--pulses", "25", "--optimize", "--stages", "1"],
             "curve: zero key everywhere on the grid"),
        ],
    )
    def test_candidates_without_pulses_at_a_level_are_skipped(self, argv, note):
        # Searched send probabilities go down to 0.02, below what 25
        # pulses give every level; such candidates score like degenerate ones.
        rc, out, err = run_cli(argv)
        assert rc == 2
        assert out
        assert note in err
        assert "error" not in err

    def test_pulses_and_duration_conflict(self):
        rc, out, err = run_cli(["optimize", "--pulses", "5", "--duration-h", "1"])
        assert rc == 1
        assert "give --pulses or --duration-h, not both" in err

    def test_no_valid_scheme_names_extinction_flag(self):
        rc, out, err = run_cli(
            ["optimize", "--distance-km", "25", "--pulses", "100000000",
             "--extinction-db", "0.05", "--stages", "1"]
        )
        assert rc == 1
        assert out == ""
        assert err.startswith("decoyqkd optimize: error: --extinction-db: ")
        assert "no valid scheme" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["optimize", "--stages", "1"],
        ["curve", "--distances", "100", "--optimize", "--stages", "1"],
    ])
    def test_start_scheme_not_three_levels_names_scheme_file(self, tmp_path, argv):
        scheme = tmp_path / "s2.json"
        scheme.write_text(dumps(DecoyScheme(mus=(0.1, 0.5), send_probs=(0.3, 0.7))))
        rc, out, err = run_cli(argv + ["--scheme", str(scheme)])
        assert (rc, out) == (1, "")
        assert err.startswith(f"decoyqkd {argv[0]}: error: --scheme: {scheme} "), err
        assert "3-level schemes only, got 2 levels" in err

    def test_scheme_found_under_config_dir_is_named_by_its_resolved_path(
        self, tmp_path, monkeypatch
    ):
        scheme = DecoyScheme(mus=(0.1, 0.5), send_probs=(0.3, 0.7))
        (tmp_path / "s2.json").write_text(dumps(scheme))
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        monkeypatch.setenv(cli.CONFIG_DIR_ENV, str(tmp_path))
        rc, out, err = run_cli(["optimize", "--stages", "1", "--scheme", "s2.json"])
        assert (rc, out) == (1, "")
        assert err.startswith(f"decoyqkd optimize: error: --scheme: {tmp_path / 's2.json'} "), err


class TestCurve:
    def test_csv_output(self):
        rc, out, err = ledger.curve_cli()
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == CURVE_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "140"
        assert int(first[1]) == FROZEN["curve.140km.total_tight"]
        assert int(first[2]) == FROZEN["curve.140km.total_worst"]
        last = lines[3].split(",")
        assert int(last[1]) == 0
        assert (f"range {FROZEN['curve_cli.range_tight_km']} km (tight) / "
                f"{FROZEN['curve_cli.range_worst_km']} km (worst-case)") in err

    def test_settings_recorded_on_stderr(self):
        rc, out, err = run_cli(
            ["curve", "--distances", "140,146", "--duration-h", "5.6", "--confidence", "1e-5",
             "--no-vacuum-pinning"]
        )
        assert rc == 0
        assert out.splitlines()[0] == CURVE_HEADER
        report = stderr_report(err, "curve")
        assert report["kind"] == "curve_report"
        assert report["inputs"] == {"model": {"builtin": "reference"},
                                    "scheme": {"builtin": "reference"}, "config": None}
        parameters = report["parameters"]
        assert set(parameters) == {key for key in cli._COMMANDS["curve"].flags
                                   if cli._FLAGS[key].metavar not in ("FILE", "PREFIX")}
        assert parameters["confidence"] == 1e-5
        assert parameters["vacuum_pinning"] is False
        assert parameters["pulses"] == 23836243437  # the count --duration-h resolves to

    def test_distance_is_not_a_curve_setting(self, tmp_path):
        # range_curve sets every point's fiber length, so the flag would change nothing
        argv = ["curve", "--distances", "140,150"]
        rc, out, err = run_cli(argv + ["--distance-km", "20"])
        assert (rc, out) == (1, "")
        assert err == "error: decoyqkd curve: unrecognized arguments: --distance-km 20\n"
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"distance_km": 20}')
        rc, out, err = run_cli(argv + ["--config", str(cfg)])
        assert (rc, out) == (1, "")
        assert err.startswith("decoyqkd curve: error: --config: unknown fields ['distance_km']")

    @pytest.mark.parametrize("spec", ["100,nan", "inf", "100:inf:2", "nan:170:2", "100:170:inf"])
    def test_non_finite_distances_rejected(self, spec):
        rc, out, err = run_cli(["curve", f"--distances={spec}"])
        assert rc == 1
        assert out == ""
        assert f"--distances: expected MIN:MAX:STEP or a comma list, got {spec!r}" in err

    @pytest.mark.parametrize("spec, count", [("0:1e308:1e-308", "inf"),
                                             ("100:1e300:1", "1e+300"),
                                             ("0:10000:1", "10001")])
    def test_too_many_distances_name_flag(self, spec, count):
        # In a child under a 1.5 GB address-space limit: a grid built before it
        # is counted would exhaust memory rather than fail this test.
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, resource.RLIM_INFINITY))

        proc = subprocess.run([sys.executable, "-m", "decoyqkd", "curve", f"--distances={spec}"],
                              capture_output=True, text=True, timeout=120, env=package_env(),
                              preexec_fn=limit)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (f"decoyqkd curve: error: --distances: {spec!r} gives {count} "
                               f"points; a grid holds at most {cli._MAX_DISTANCES}\n")

    @pytest.mark.parametrize("spec", ["150,140", "100,100"])
    def test_unordered_distances_name_flag(self, spec):
        rc, out, err = run_cli(["curve", f"--distances={spec}"])
        assert (rc, out) == (1, "")
        assert err.startswith(
            "decoyqkd curve: error: --distances: distance grid must be strictly increasing"
        ), err

    def test_optimize_with_no_valid_scheme_names_extinction_flag(self):
        rc, out, err = run_cli(
            ["curve", "--distances", "25,30", "--pulses", "100000000",
             "--extinction-db", "0.05", "--stages", "1", "--optimize"]
        )
        assert rc == 1
        assert out == ""
        assert err.startswith("decoyqkd curve: error: --extinction-db: ")
        assert "Traceback" not in err

    def test_zero_everywhere_exits_two(self):
        rc, out, err = run_cli(
            ["curve", "--distances", "168,170", "--pulses", "1000000"]
        )
        assert rc == 2
        assert "curve: zero key everywhere on the grid" in err


class TestCalibrate:
    def test_report_and_artifacts(self, tmp_path):
        model_path = tmp_path / "model.json"
        tally_path = tmp_path / "tally.json"
        rc, out, _ = run_cli(
            ["calibrate", "--out-model", str(model_path), "--out-tally", str(tally_path)]
        )
        assert rc == 0
        report = json.loads(out)
        assert report["kind"] == "calibration_report"
        assert report["diagnostics"]["converged"] is True
        assert report["pulses"] == FROZEN["calibrate.pulses"]
        model = json.loads(model_path.read_text())
        assert model["kind"] == "channel_model"
        assert model["background_rate_hz"] == pytest.approx(FROZEN["calibrate.background_rate_hz"],
                                                            rel=1e-3)
        tally = json.loads(tally_path.read_text())
        assert tally["kind"] == "session_tally"
        assert sum(level["detected"]["X"] + level["detected"]["Z"]
                   for level in tally["levels"]) > 80000

    @pytest.mark.parametrize("detections, what", [
        ([10**305, 1, 1], "background rate"), ([1, 1, 10**305], "pulse count"),
    ], ids=["level 0", "signal level"])
    def test_totals_near_the_float_range_name_detections(self, detections, what):
        # Stage 1 overflows: its start on level 0, its pulse count on the signal level.
        rc, out, err = run_cli(["calibrate", "--detections", *map(str, detections),
                                "--sifted", "1", "--targets", "1", "1"])
        assert (rc, out) == (1, "")
        assert err.startswith("decoyqkd calibrate: error: --detections: ")
        assert err.endswith(f" fit no finite {what}\n")

    def test_input_error_the_command_has_no_setting_for_is_named_bare(self, monkeypatch):
        # ChannelModel names its fields through a variable, out of the AST audit's sight.
        def unfittable(**_):
            dataclasses.replace(reference_model(), background_rate_hz=math.inf)

        monkeypatch.setattr(cli, "calibrate_to_reference", unfittable)
        rc, out, err = run_cli(["calibrate"])
        assert (rc, out) == (1, "")
        assert err == ("decoyqkd calibrate: error: background_rate_hz: background_rate_hz "
                       "must lie in [0, inf), got inf\n")

    def test_totals_that_fit_too_few_pulses_name_detections(self):
        rc, out, err = run_cli(["calibrate", "--detections", "1", "2", "3", "--sifted", "3",
                                "--targets", "1", "1"])
        assert (rc, out) == (1, "")
        assert err == ("decoyqkd calibrate: error: --detections: [1, 2, 3] fit 0 pulses, "
                       "too few for every level\n")

    @pytest.mark.parametrize("detections", [["34100", "5729", "80776"], ["1000000000000"] * 3],
                             ids=["level 0 above the decoy", "equal totals"])
    def test_totals_that_fit_noise_in_every_slot_name_detections(self, detections):
        # Their least-squares fit runs off to a noise probability of 1 or more per pulse.
        rc, out, err = run_cli(["calibrate", "--detections", *detections])
        assert (rc, out) == (1, "")
        assert err.startswith("decoyqkd calibrate: error: --detections: ")
        assert "Traceback" not in err


class TestFrozenDesignOutputs:
    # SHA-256 of each design command's stdout with the design benchmark's flags.
    # A change that moves a certified bound on purpose re-freezes these.
    @pytest.mark.parametrize("name", list(DESIGN_COMMANDS))
    def test_stdout_digest(self, name):
        rc, out, _ = ledger.design_run(name)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == FROZEN[f"design.{name}.sha256"]

    def test_design_commands_load_no_scipy_optimize(self):
        # A fresh interpreter, since other test modules import scipy.optimize into this one.
        code = (
            "import contextlib, io, sys\n"
            "from decoyqkd.cli import main\n"
            "for argv in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        rc = main(argv.split() + " + repr(DESIGN_FLAGS) + ")\n"
            "    print(argv.split()[0], rc, 'scipy.optimize' in sys.modules)\n"
        )
        commands = [" ".join(argv) for argv in DESIGN_COMMANDS.values()]
        proc = subprocess.run([sys.executable, "-c", code, *commands], capture_output=True,
                              text=True, timeout=120, env=package_env())
        assert proc.stdout.splitlines() == ["optimize 0 False", "curve 0 False",
                                            "calibrate 0 False"], proc.stderr



def _level(sent, detected, sifted, errors):
    """A tally level's JSON, each count split as evenly as it goes over X and Z."""
    return {name: {"X": n // 2, "Z": n - n // 2}
            for name, n in (("detected", detected), ("sifted", sifted), ("errors", errors))
            } | {"sent": sent}


def _tally_doc(levels, zeros):
    return {"format_version": "1", "kind": "session_tally", "levels": levels,
            "zeros": {"X": zeros // 2, "Z": zeros - zeros // 2}}


class TestNoKeyExits:
    """Valid inputs that earn no key exit 2 with a note on stderr and write no file."""

    @staticmethod
    def _files(root):
        return sorted(p.name for p in root.iterdir())

    def test_analyze_infeasible_bounds(self, tmp_path):
        # The vacuum-like level clicks on 90% of its pulses, the signal level on
        # 0.001%: no yield vector gives both.
        levels = [_level(10**6, 900_000, 450_000, 20_000), _level(10**6, 5_000, 2_500, 100),
                  _level(10**6, 10, 6, 0)]
        (tmp_path / "tally.json").write_text(json.dumps(_tally_doc(levels, 452_000)))
        rc, out, err = run_cli(["analyze", "--tally", str(tmp_path / "tally.json")])
        assert rc == 2
        assert json.loads(out)["analysis"]["feasible"] is False
        assert "analyze: decoy bounds infeasible for this tally" in err
        assert self._files(tmp_path) == ["tally.json"]

    def test_distill_keys_that_deskew_to_no_bits(self, tmp_path):
        # Two agreeing all-zero keys: Peres extraction finds no unequal pair.
        levels = [_level(10**6, 1_000, 500, 10), _level(10**6, 2_000, 1_000, 20),
                  _level(10**6, 256, 128, 0)]
        (tmp_path / "tally.json").write_text(json.dumps(_tally_doc(levels, 1_628)))
        for side in ("alice", "bob"):
            for basis in BASES:
                (tmp_path / f"run.{side}.{basis}.bits").write_text("0" * 64 + "\n")
        before = self._files(tmp_path)
        rc, out, err = run_cli(["distill", "--tally", str(tmp_path / "tally.json"),
                                "--keys", str(tmp_path / "run"), "--seed", "5",
                                "--key-out", str(tmp_path / "key.bin")])
        assert rc == 2
        report = json.loads(out)
        assert (report["analysis"], report["final_key_bits"]) == (None, 0)
        assert "distill: deskew produced no output bits" in err
        assert self._files(tmp_path) == before

    def test_distill_zero_key_budget(self, tmp_path):
        # 1e6 pulses leave a few hundred sifted bits, too few to certify a key.
        prefix = tmp_path / "run"
        rc, out, _ = run_cli(["simulate", "--distance-km", "25", "--pulses", "1000000",
                              "--seed", "3", "--keys-out", str(prefix)])
        assert rc == 0
        (tmp_path / "tally.json").write_text(out)
        before = self._files(tmp_path)
        rc, out, err = run_cli(["distill", "--tally", str(tmp_path / "tally.json"),
                                "--keys", str(prefix), "--seed", "1",
                                "--key-out", str(tmp_path / "key.bin")])
        assert rc == 2
        report = json.loads(out)
        assert report["analysis"]["total_worst"] == report["final_key_bits"] == 0
        assert "distill: zero-key outcome" in err
        assert self._files(tmp_path) == before

    def test_calibrate_that_does_not_converge(self, tmp_path):
        # Half an hour cannot hold the pulses the detection totals need: duty > 1.
        rc, out, err = run_cli(["calibrate", "--duration-h", "0.5",
                                "--out-model", str(tmp_path / "model.json"),
                                "--out-tally", str(tmp_path / "tally.json")])
        assert rc == 2
        report = json.loads(out)
        assert report["diagnostics"]["converged"] is False
        assert report["duty_cycle"] > 1.0
        assert "calibrate: fit did not converge; inspect the diagnostics block" in err
        assert "wrote" not in err
        assert self._files(tmp_path) == []


class TestOutputFiles:
    ARGV = {
        "--key-out": ["distill", "--tally", "{tally}", "--keys", "{keys}", "--seed", "5"],
        "--out-model": ["calibrate"],
        "--out-tally": ["calibrate"],
        "--keys-out": ["simulate", "--pulses", "200000", "--seed", "1"],
    }

    @pytest.mark.parametrize("flag", ARGV)
    def test_unwritable_path_names_flag_before_any_output(self, workspace, tmp_path, flag):
        path = tmp_path / "missing" / "out"
        argv = [arg.format(tally=workspace / "tally.json", keys=workspace / "run")
                for arg in self.ARGV[flag]]
        rc, out, err = run_cli(argv + [flag, str(path)])
        assert (rc, out) == (1, "")
        written = f"{path}.alice.X.bits" if flag == "--keys-out" else path
        assert err.endswith(f"decoyqkd {argv[0]}: error: {flag}: cannot write {written}: "
                            "No such file or directory\n"), err
        assert "Traceback" not in err

    def test_failed_write_leaves_earlier_outputs_unwritten(self, tmp_path):
        model = tmp_path / "m.json"
        tally = tmp_path / "missing" / "t.json"
        rc, out, err = run_cli(["calibrate", "--out-model", str(model), "--out-tally", str(tally)])
        assert (rc, out) == (1, "")
        assert err.endswith(f"error: --out-tally: cannot write {tally}: "
                            "No such file or directory\n"), err
        assert os.listdir(tmp_path) == []
        model.write_bytes(b"kept")
        assert run_cli(["calibrate", "--out-model", str(model), "--out-tally", str(tally)])[0] == 1
        assert model.read_bytes() == b"kept"
        assert os.listdir(tmp_path) == ["m.json"]

    def test_last_key_file_unwritable_leaves_no_key_file(self, tmp_path):
        prefix = tmp_path / "P"
        (tmp_path / "P.bob.Z.bits").mkdir()
        rc, out, err = run_cli(self.ARGV["--keys-out"] + ["--keys-out", str(prefix)])
        assert (rc, out) == (1, "")
        assert err.endswith(f"error: --keys-out: cannot write {prefix}.bob.Z.bits: "
                            "not a regular file\n"), err
        assert os.listdir(tmp_path) == ["P.bob.Z.bits"]

    def test_output_naming_an_input_is_refused(self, workspace, tmp_path):
        tally = tmp_path / "tally.json"
        shutil.copy(workspace / "tally.json", tally)
        rc, out, err = run_cli(["distill", "--tally", str(tally), "--keys", str(workspace / "run"),
                                "--seed", "5", "--key-out", str(tally)])
        assert (rc, out) == (1, "")
        assert err.endswith(f"error: --key-out: cannot write {tally}: --tally names it too\n"), err
        assert tally.read_bytes() == (workspace / "tally.json").read_bytes()

    def test_output_naming_another_output_is_refused(self, tmp_path):
        path = tmp_path / "x.json"
        rc, out, err = run_cli(["calibrate", "--out-model", str(path), "--out-tally", str(path)])
        assert (rc, out) == (1, "")
        assert err.endswith(f"error: --out-tally: cannot write {path}: --out-model names it too\n")
        assert os.listdir(tmp_path) == []

    def test_rewritten_output_keeps_its_permissions(self, workspace, tmp_path):
        key = tmp_path / "final.bin"
        key.write_bytes(b"")
        key.chmod(0o600)
        rc, _, err = run_cli(["distill", "--tally", str(workspace / "tally.json"),
                              "--keys", str(workspace / "run"), "--seed", "5",
                              "--key-out", str(key)])
        assert rc == 0
        assert err.endswith(f"distill: wrote {key} (--key-out)\n"), err
        assert key.stat().st_size > 0
        assert key.stat().st_mode & 0o777 == 0o600


class TestUsage:
    def test_unknown_flag(self, workspace):
        rc, out, err = run_cli(["analyze", "--tally", str(workspace / "tally.json"), "--wat"])
        assert (rc, out) == (1, "")
        assert err == "error: decoyqkd analyze: unrecognized arguments: --wat\n"
        rc, out, err = run_cli(["simulate", "--seed", "1", "stray", "--wat"])
        assert (rc, out) == (1, "")
        assert err == "error: decoyqkd simulate: unrecognized arguments: stray --wat\n"

    def test_repeated_calls_see_only_their_own_flags(self, workspace, monkeypatch):
        # One parser serves every call in a process: neither a usage error
        # part-way through a parse nor an earlier command's flags may leak.
        assert cli._build_parser() is cli._build_parser()
        merged = []
        settings_of = cli._settings

        def recorded(args):
            settings = settings_of(args)
            merged.append(settings)
            return settings

        monkeypatch.setattr(cli, "_settings", recorded)
        tally, keys = str(workspace / "tally.json"), str(workspace / "run")
        calls = [
            (["distill", "--tally", tally, "--depth", "3", "--variant", "tight", "--wat"], 1, None),
            (["analyze", "--tally", tally, "--f-ec", "1.2"], 0, {"tally": tally, "f_ec": 1.2}),
            (["distill", "--tally", tally, "--keys", keys, "--seed", "6", "--depth", "8",
              "--variant", "tight"], 0,
             {"tally": tally, "keys": keys, "seed": 6, "depth": 8, "variant": "tight"}),
            (["distill", "--tally", tally, "--keys", keys, "--seed", "5"], 0,
             {"tally": tally, "keys": keys, "seed": 5}),
        ]
        for argv, code, given in calls:
            rc, out, _ = run_cli(argv)
            assert rc == code, argv
            if given is None:
                assert (out, merged) == ("", [])
                continue
            expected = {key: cli._FLAGS[key].default for key in cli._COMMANDS[argv[0]].flags}
            expected.update(given)
            assert merged.pop() == expected
            assert json.loads(out)["parameters"] == {
                key: value for key, value in expected.items()
                if cli._FLAGS[key].metavar not in ("FILE", "PREFIX")
            }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help(self, command, tmp_path):
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        options = [a for a in subparser(command)._actions if a.dest != "help"]
        assert len(options) > 1
        for action in options:
            for flag in action.option_strings:
                assert flag in out.getvalue()

        # The fields --config accepts are the dests the parser declares.
        probe = tmp_path / "probe.json"
        probe.write_text('{"no_such_field": 0}')
        rc, _, err = run_cli([command, "--config", str(probe)])
        assert rc == 1
        accepted = ast.literal_eval(re.search(r"expected among (\[.*\])", err).group(1))
        assert accepted == sorted(a.dest for a in options if a.dest != "config")

    @pytest.mark.parametrize("argv, flag", [
        (["analyze"], "--tally"),
        (["analyze", "--tally", "{tally}"], "--scheme"),
        (["simulate", "--pulses", "1000", "--seed", "1"], "--model"),
        (["analyze", "--tally", "{tally}"], "--config"),
    ])
    def test_non_utf8_document(self, workspace, tmp_path, argv, flag):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff{}")
        argv = [arg.format(tally=workspace / "tally.json") for arg in argv]
        rc, out, err = run_cli(argv + [flag, str(bad)])
        assert (rc, out) == (1, "")
        assert f"error: {flag}: {bad} is not valid JSON (" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, flag", [
        (["optimize", "--stages", "0"], "--stages"),
        (["optimize", "--points-per-stage", "2"], "--points-per-stage"),
        (["curve", "--optimize", "--stages", "0"], "--stages"),
        (["optimize", "--sift-ratio", "2"], "--sift-ratio"),
        (["curve", "--zero-fraction", "1.5"], "--zero-fraction"),
        (["calibrate", "--zero-fraction", "1.5"], "--zero-fraction"),
        (["simulate", "--pulses", "1000", "--seed", "1", "--zero-bias", "2"], "--zero-bias"),
        (["optimize", "--photon-cutoff", "0"], "--photon-cutoff"),
        (["calibrate", "--sifted", "100000000"], "--sifted"),
        (["calibrate", "--f-ds", "0.9"], "--f-ds"),
        (["calibrate", "--sifted", "0"], "--sifted"),
        (["calibrate", "--detections", "0", "5729", "80776"], "--detections"),
        (["calibrate", "--targets", "0", "10"], "--targets"),
        (["calibrate", "--duration-h", "0"], "--duration-h"),
        (["calibrate", "--duration-h", "-1"], "--duration-h"),
        (["simulate", "--pulses", "1000", "--seed", "1", "--distance-km", "-5"], "--distance-km"),
        (["optimize", "--distance-km", "-5"], "--distance-km"),
        (["simulate", "--duration-h", "1", "--seed", "1", "--distance-km", "-5"],
         "--distance-km"),
        (["curve", "--detector-efficiency", "2"], "--detector-efficiency"),
        (["curve", "--distances=-10,5"], "--distances"),
        (["distill", "--tally", "{tally}", "--keys", "{keys}", "--seed", "5", "--depth", "0"],
         "--depth"),
        (["distill", "--tally", "{tally}", "--keys", "{keys}", "--seed", "-1"], "--seed"),
        (["simulate", "--pulses", "1000", "--seed", "-1"], "--seed"),
    ])
    def test_out_of_range_setting_names_flag(self, workspace, argv, flag):
        argv = [arg.format(tally=workspace / "tally.json", keys=workspace / "run") for arg in argv]
        rc, out, err = run_cli(argv)
        assert (rc, out) == (1, "")
        assert err.startswith(f"decoyqkd {argv[0]}: error: {flag}: "), err

    def test_detection_count_names_flag(self):
        # argparse holds --detections to three values before the library's
        # one-total-per-level check runs, so the usage error names the flag
        rc, out, err = run_cli(["calibrate", "--detections", "5729", "80776"])
        assert (rc, out) == (1, "")
        assert err.startswith("error: decoyqkd calibrate: argument --detections: "), err
        assert "expected 3 arguments" in err

    def test_report_parameters_are_the_non_path_settings(self, workspace):
        tally, keys = str(workspace / "tally.json"), str(workspace / "run")
        optimize = ["optimize", "--duration-h", "5.6", "--stages", "1",
                    "--points-per-stage", "3", "--distance-km"]
        runs = {
            "analyze": ["analyze", "--tally", tally],
            "distill": ["distill", "--tally", tally, "--keys", keys, "--seed", "5"],
            "optimize": optimize + ["100"],
            "calibrate": ["calibrate", "--confidence", "1e-5"],
        }
        parameters = {}
        for command, argv in runs.items():
            rc, out, _ = run_cli(argv)
            assert rc == 0, command
            parameters[command] = json.loads(out)["parameters"]
            settings = {key for key in cli._COMMANDS[command].flags
                        if cli._FLAGS[key].metavar not in ("FILE", "PREFIX")}
            assert set(parameters[command]) == settings, command
        near = parameters["optimize"]
        far = json.loads(run_cli(optimize + ["120"])[1])["parameters"]
        assert [key for key in near if near[key] != far[key]] == ["distance_km"]
        assert near["pulses"] == 23836243437  # the count --duration-h resolves to
        assert parameters["calibrate"]["confidence"] == 1e-5

    @pytest.mark.parametrize("argv", [
        ["simulate", "--distance-km", "25", "--pulses", "1000000", "--seed", "1"],
        ["curve", "--distances", "140,146", "--pulses", "23836243437"],
    ], ids=["simulate", "curve"])
    def test_stderr_report_records_model_and_config(self, tmp_path, argv):
        model, cfg = tmp_path / "model.json", tmp_path / "cfg.json"
        model.write_text(dumps(reference_model()))
        cfg.write_text('{"duty_cycle": 0.5}')
        rc, out, err = run_cli(argv + ["--model", str(model), "--config", str(cfg)])
        assert rc == 0
        report = stderr_report(err, argv[0])
        assert report["kind"] == f"{argv[0]}_report"
        assert report["inputs"] == {
            "model": {"path": str(model), "sha256": hashlib.sha256(model.read_bytes()).hexdigest()},
            "config": {"path": str(cfg), "sha256": hashlib.sha256(cfg.read_bytes()).hexdigest()},
            "scheme": {"builtin": "reference"},
        }
        assert report["parameters"]["duty_cycle"] == 0.5
        assert report["parameters"]["pulses"] == int(argv[argv.index("--pulses") + 1])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_flag_rejected(self, value):
        for command, _, flag in FLOAT_FLAGS:
            rc, out, err = run_cli([command, f"{flag}={value}"])
            assert rc == 1, (command, flag)
            assert out == ""
            assert f"argument {flag}: expected a finite number, got {value!r}" in err

    def test_help_shows_library_defaults(self):
        text = help_text("analyze")
        assert "reconciliation inefficiency (default 1.07)" in text
        assert "deskewing inefficiency (default 1.05)" in text
        assert "typical-set coverage confidence (default 0.001)" in text
        assert "photon-number truncation of the yield system (default 10)" in text
        assert inspect.signature(peres_extract).parameters["depth"].default == DEFAULT_DESKEW_DEPTH
        assert "deskewing iteration depth (default 12)" in help_text("distill")
        zero_bias = inspect.signature(simulate_session).parameters["zero_bias"].default
        assert zero_bias == DEFAULT_ZERO_BIAS
        assert "P(bit = 0) of the prepared key bits (default 0.5)" in help_text("simulate")

    def test_help_entry_point(self):
        target = declared_scripts(PYPROJECT.read_text())["decoyqkd"]
        assert target == "decoyqkd.cli:main"
        env = None
        if shutil.which("decoyqkd"):
            argv = ["decoyqkd", "--help"]
        else:
            # Not installed: call the declared target in a fresh interpreter,
            # as the generated console-script wrapper does, importing the same
            # decoyqkd package as this suite.
            module, attr = target.split(":")
            code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
            argv = [sys.executable, "-c", code, "--help"]
            env = package_env()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout

    def test_python_m_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "decoyqkd", "--help"],
            capture_output=True, text=True, timeout=60, env=package_env(),
        )
        assert proc.returncode == 0
        # Each command heads a line of its own, indented under COMMAND.
        assert tuple(re.findall(r"^    (\w+)", proc.stdout, flags=re.M)) == COMMANDS

    # Library names outside _FLAGS, each with what keeps its InputError from main.
    NAMES_MAIN_NEVER_SEES = {
        ("core.py", "epsilon"): "_Settings.name maps it to --confidence",
        ("core.py", "mus"): "_read re-raises a scheme document's error as scheme",
        ("core.py", "sent"): "_read re-raises a tally document's error as tally",
        ("core.py", "send_probs"): "_read re-raises a scheme document's error as scheme",
        ("keyrate.py", "b1"): "compose_session passes a b1 bound of the decoy analysis",
        ("keyrate.py", "b1_upper"): "compose_session prices with _key_length, not secret_length",
        ("keyrate.py", "bit_error_rate"): "compose_session prices with _key_length",
        ("keyrate.py", "epsilon"): "compose_session checks pa_epsilon before the factor",
        ("keyrate.py", "mu"): "compose_session prices with _key_length",
        ("keyrate.py", "y1_eff"): "compose_session prices with _key_length",
        ("keyrate.py", "n1"): "compose_session calls the factor only when n1 >= 1",
        ("keyrate.py", "n_sifted"): "compose_session passes the tally's validated sifted count",
        ("recon.py", "rng_seed"): "distill_session derives it from the checked seed",
        ("sim.py", "n"): "no command asks for the yield of a photon number",
        ("recon.py", "estimated_qber"): "distill_session blames a QBER above 0.25 on tally "
                                        "and floors the estimate at 0.5 / n",
    }

    def test_input_error_names_are_flags(self):
        # main reports an InputError under settings.name(its input name), so
        # a name outside _FLAGS would end in a KeyError traceback.  The name
        # is InputError's first argument and check_integer's and check_real's
        # second; a name no flag holds must be one main never sees.
        position = {"InputError": 0, "check_integer": 1, "check_real": 1}
        names = {function: set() for function in position}
        for path in Path(decoyqkd.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in position
                        and len(node.args) > position[node.func.id]
                        and isinstance(node.args[position[node.func.id]], ast.Constant)):
                    names[node.func.id].add(
                        (path.name, node.args[position[node.func.id]].value))
        assert {("recon.py", "keys"), ("core.py", "tally")} <= names["InputError"]
        assert ("sim.py", "seed") in names["check_integer"]
        assert ("keyrate.py", "f_ec") in names["check_real"]
        every = names["InputError"] | names["check_integer"] | names["check_real"]
        outside = {(module, name) for module, name in every if name not in cli._FLAGS}
        assert sorted(outside) == sorted(self.NAMES_MAIN_NEVER_SEES)

    def test_no_function_body_spells_a_flag(self):
        # Messages take a setting's name from _Settings.name, which knows
        # whether the value came from a flag or from the config file.
        tree = ast.parse(Path(cli.__file__).read_text())
        docstrings = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node) is not None
        }
        spelled = sorted(
            (function.name, node.lineno, node.value)
            for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "--" in node.value and id(node) not in docstrings
        )
        assert spelled == []

    def test_cli_imports_no_private_package_names(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        private = [
            (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").startswith("decoyqkd"))
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert private == []
