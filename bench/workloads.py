"""The three benchmark workloads and the checks on their outputs.

Each workload is a list of operations per round.  :func:`run` repeats
rounds, one operation after another in this process, until the run has
lasted ``seconds`` and has done the workload's minimum number of rounds.
Output checks, and the re-runs that test determinism, happen after the
timed region.

* ``certify-mc`` — one operation simulates a 5.6 h session with the
  library and certifies it with ``compose_session``.  Distances cycle
  through 25, 75, 125 and 150 km; every session has its own seed, so no
  input repeats across calls.
* ``distill-cli`` — three stored sessions (near, mid, far), each put
  through ``decoyqkd analyze`` and ``decoyqkd distill`` in-process.
* ``design-cli`` — ``decoyqkd optimize``, ``curve`` and ``calibrate``,
  in-process.  These commands run on expected tallies and take no seed.

Every knob is passed explicitly (f_EC 1.07, f_DS 1.05, confidence 1e-7,
cutoff 10, typical-set epsilon 1e-3), so a change of a library or CLI
default cannot change a workload.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from decoyqkd import cli, core, extract, keyrate, sim
from spans import Tracer

F_EC, F_DS = "1.07", "1.05"
BUDGET_FLAGS = ["--confidence", "1e-7", "--photon-cutoff", "10", "--pa-epsilon", "1e-3"]
MC_PULSES = 23_836_243_437  # what ``--duration-h 5.6`` resolves to
MC_DISTANCES = (25.0, 75.0, 125.0, 150.0)
DISTILL_SESSIONS = (("near", 100, 5.6), ("mid", 135, 28), ("far", 150, 56))
DESKEW_DEPTH = 12
RERUN_LIMIT = 8  # ops re-run after the timed region when a round never repeats them
TOEPLITZ_ROWS = 16  # output rows per basis recomputed by an explicit dot product


def subseed(seed: int, index: int) -> int:
    """Seed of the ``index``-th input of a run with workload seed ``seed``."""
    return (seed * 1_000_003 + index) % 2**32


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``decoyqkd.cli.main(argv)`` here, returning (status, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    return status, out.getvalue()


@dataclass
class Op:
    label: str
    key: tuple  # ops with equal keys must print byte-identical stdout
    fn: object  # () -> (stdout, exit statuses, data for the output check)


@dataclass
class Outcome:
    op_id: int  # -1 for a re-run made after the timed region
    op: Op
    start: float = 0.0  # time.perf_counter() readings around the op
    end: float = 0.0
    stdout: str = ""
    statuses: tuple = ()
    data: object = None
    key_bits: int = 0
    error: str | None = None  # why the op failed; None while it passes


def _status_error(statuses: tuple, no_key: bool) -> str | None:
    """Status 1 is a failure; status 2 is a result only for a keyless session."""
    for status in statuses:
        if status == 2 and no_key:
            continue
        if status != 0:
            return f"exit status {status}"
    return None


class Workload:
    name: str
    min_rounds: int
    key_ops: int  # key_bits sums the key bits of the first key_ops ops

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Prepare inputs before timing starts."""


class CertifyMC(Workload):
    name = "certify-mc"
    round_size = 20
    min_rounds = 6  # 120 latencies, so >= 10 lie beyond p90
    key_ops = 120   # the sessions every run completes

    def ops(self, round_index: int) -> list[Op]:
        out = []
        for k in range(self.round_size):
            i = round_index * self.round_size + k
            d = MC_DISTANCES[i % len(MC_DISTANCES)]
            s = subseed(self.seed, i)
            out.append(Op(f"certify {d:g} km", ("certify", i), self._op(d, s)))
        return out

    @staticmethod
    def _op(distance: float, seed: int):
        def fn():
            scheme = sim.reference_scheme()
            tally, _keys = sim.simulate_session(
                sim.reference_model(distance), scheme, MC_PULSES, seed
            )
            analysis = keyrate.compose_session(
                tally, scheme, core.ConfidenceConfig(epsilon=1e-7, photon_cutoff=10),
                f_ec=float(F_EC), f_ds=float(F_DS), pa_epsilon=1e-3,
            )
            return json.dumps(analysis.to_json(), sort_keys=True), (), (distance, analysis)
        return fn

    def check(self, o: Outcome) -> str | None:
        """y1- and both b1+ bounds against the channel's true values."""
        distance, analysis = o.data
        o.key_bits = analysis.total_tight
        if not analysis.feasible:
            return None
        truth = sim.expected_statistics(sim.reference_model(distance), sim.reference_scheme())
        if analysis.bounds.y1_lower > truth.photon_yield(1):
            return "y1 lower bound exceeds the true single-photon yield"
        e1 = truth.photon_error_rate(1)
        for b in core.BASES:
            tight = analysis.bounds.b1_tight_by_basis[b]
            worst = analysis.bounds.b1_worst_by_basis[b]
            if not e1 <= tight <= worst:
                return f"basis {b}: expected e1 {e1} <= b1_tight {tight} <= b1_worst {worst}"
        return None


class DistillCLI(Workload):
    name = "distill-cli"
    min_rounds = 3
    key_ops = len(DISTILL_SESSIONS)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._deskewed: dict[tuple, np.ndarray] = {}

    def setup(self) -> None:
        """Simulate the three sessions and store tallies and raw keys (untimed)."""
        for i, (name, distance, hours) in enumerate(DISTILL_SESSIONS):
            prefix = self.workdir / name
            status, tally = run_cli([
                "simulate", "--distance-km", str(distance), "--duration-h", str(hours),
                "--seed", str(subseed(self.seed, i)), "--keys-out", str(prefix),
            ])
            if status != 0:
                raise RuntimeError(f"distill-cli set-up: simulate {name} exited {status}")
            Path(f"{prefix}.tally.json").write_text(tally)

    def ops(self, round_index: int) -> list[Op]:
        return [
            Op(name, ("distill", name), self._op(self.workdir / name, subseed(self.seed, i)))
            for i, (name, _d, _h) in enumerate(DISTILL_SESSIONS)
        ]

    @staticmethod
    def _op(prefix: Path, seed: int):
        tally = f"{prefix}.tally.json"

        def fn():
            st_a, out_a = run_cli(
                ["analyze", "--tally", tally, "--f-ec", F_EC, "--f-ds", F_DS, *BUDGET_FLAGS]
            )
            st_d, out_d = run_cli([
                "distill", "--tally", tally, "--keys", str(prefix), "--seed", str(seed),
                "--depth", str(DESKEW_DEPTH), "--variant", "worst", *BUDGET_FLAGS,
            ])
            return out_a + out_d, (st_a, st_d), (prefix, out_a, out_d)
        return fn

    def check(self, o: Outcome) -> str | None:
        prefix, out_a, out_d = o.data
        analysis = json.loads(out_a)["analysis"]
        report = json.loads(out_d)
        o.key_bits = report["final_key_bits"]
        no_key = not analysis["feasible"] or analysis["total_tight"] == 0
        error = _status_error(o.statuses[:1], no_key)
        error = error or _status_error(o.statuses[1:], report["final_key_bits"] == 0)
        if error:
            return error
        bases = report["bases"]
        for b in ("X", "Z"):
            if bases[b]["residual_error_detected"]:
                return f"basis {b}: residual mismatch survived reconciliation"
        expected = sum(
            min(bases[b]["n_secret"], bases[b]["deskew"]["output_length"]) for b in ("X", "Z")
        )
        if report["final_key_bits"] != expected:
            return f"final length {report['final_key_bits']} != sum of min(n_secret, deskewed) {expected}"
        final = np.unpackbits(np.frombuffer(bytes.fromhex(report["final_key_hex"]), np.uint8))
        offset = 0
        for b in ("X", "Z"):
            m = bases[b]["final_length"]
            error = _check_toeplitz(self._alice_deskewed(prefix, b), bases[b]["hash_seed"],
                                    final[offset:offset + m])
            if error:
                return f"basis {b}: {error}"
            offset += m
        return None

    def _alice_deskewed(self, prefix: Path, basis: str) -> np.ndarray:
        """What distill hashes when reconciliation left no residual."""
        if (prefix, basis) not in self._deskewed:
            text = Path(f"{prefix}.alice.{basis}.bits").read_text().strip()
            raw = np.frombuffer(text.encode(), np.uint8) - ord("0")
            bits = extract.peres_extract(raw, depth=DESKEW_DEPTH).output_bits
            self._deskewed[prefix, basis] = bits.astype(np.int64)
        return self._deskewed[prefix, basis]


def _check_toeplitz(key: np.ndarray, hash_seed: int, out: np.ndarray) -> str | None:
    """Recompute hashed bits from the documented rule T[i, j] = s[i + (n-1) - j].

    Sampled rows are recomputed by an explicit GF(2) dot product; the
    parity of all rows, which any single flipped output bit changes, is
    recomputed from windowed XORs of the seed bits.
    """
    n, m = key.size, out.size
    if m == 0:
        return None
    s = np.random.default_rng(hash_seed).integers(0, 2, n + m - 1, dtype=np.uint8)
    rows = np.random.default_rng(hash_seed).choice(m, min(m, TOEPLITZ_ROWS), replace=False)
    for i in sorted({0, m - 1, *rows.tolist()}):
        if int(np.dot(s[i:i + n][::-1].astype(np.int64), key)) & 1 != out[i]:
            return f"Toeplitz row {i} differs from the explicit dot product"
    prefix_xor = np.concatenate([[0], np.bitwise_xor.accumulate(s)])
    j = np.arange(n)
    column_parity = prefix_xor[n - 1 - j + m] ^ prefix_xor[n - 1 - j]
    if int(np.dot(column_parity.astype(np.int64), key)) & 1 != int(out.sum()) & 1:
        return "parity of the hashed key differs from the Toeplitz rule"
    return None


class DesignCLI(Workload):
    name = "design-cli"
    min_rounds = 3
    key_ops = 3

    COMMANDS = (
        ("optimize", ["optimize", "--distance-km", "150", "--duration-h", "560"]),
        ("curve", ["curve", "--distances", "100:170:2", "--duration-h", "5.6"]),
        ("calibrate", ["calibrate", "--duration-h", "5.6"]),
    )

    def ops(self, round_index: int) -> list[Op]:
        return [Op(label, ("design", label), self._op(label, argv)) for label, argv in self.COMMANDS]

    @staticmethod
    def _op(label: str, argv: list[str]):
        argv = [*argv, "--f-ec", F_EC, "--f-ds", F_DS,
                "--confidence", "1e-7", "--photon-cutoff", "10"]

        def fn():
            status, stdout = run_cli(argv)
            return stdout, (status,), None
        return fn

    def check(self, o: Outcome) -> str | None:
        error = _status_error(o.statuses, no_key=False)
        if error:
            return error
        if o.op.label == "curve":
            rows = list(csv.DictReader(io.StringIO(o.stdout)))
            o.key_bits = sum(int(r["n_secret_tight"]) for r in rows)

            def reach(column):
                return max((float(r["distance_km"]) for r in rows if int(r[column]) > 0),
                           default=None)
            tight, worst = reach("n_secret_tight"), reach("n_secret_worst")
            if tight is None or worst is None or tight < worst:
                return f"tight range {tight} km is below the worst-case range {worst} km"
            return None
        report = json.loads(o.stdout)
        if o.op.label == "optimize":
            o.key_bits = report["n_secret_tight"]
            if not report["feasible"]:
                return "optimize found no feasible scheme"
        else:
            o.key_bits = report["analysis"]["total_tight"]
            if not report["diagnostics"]["converged"]:
                return "calibrate did not converge"
        return None


WORKLOADS = {w.name: w for w in (CertifyMC, DistillCLI, DesignCLI)}


@dataclass
class Round:
    traced: bool
    start: float
    end: float
    spans: list = field(default_factory=list)


@dataclass
class Result:
    outcomes: list[Outcome]
    rounds: list[Round]
    key_bits: int = 0

    @property
    def failed(self) -> int:
        return sum(o.error is not None for o in self.outcomes)


def _execute(outcome: Outcome) -> None:
    outcome.start = time.perf_counter()
    try:
        outcome.stdout, outcome.statuses, outcome.data = outcome.op.fn()
    except Exception as exc:  # an operation that raises is a failed operation
        outcome.error = f"raised {type(exc).__name__}: {exc}"
    outcome.end = time.perf_counter()


def run(name: str, seed: int, seconds: float, *, root: Path, trace: bool = False,
        tracer: Tracer | None = None, max_rounds: int | None = None) -> Result:
    """Run workload ``name``; with ``trace`` every other round records spans.

    ``tracer`` (installed by the caller) replaces the one ``trace`` would
    install; ``max_rounds`` caps the run for short test runs.
    """
    own_tracer = tracer is None and trace
    if own_tracer:
        tracer = Tracer().install()
    try:
        with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=root) as workdir:
            workload = WORKLOADS[name](seed, Path(workdir))
            workload.setup()
            result = _timed(workload, seconds, trace, tracer, max_rounds)
            _check(workload, result)
        return result
    finally:
        if own_tracer:
            tracer.uninstall()


def _timed(workload, seconds, trace, tracer, max_rounds) -> Result:
    outcomes: list[Outcome] = []
    rounds: list[Round] = []
    start = time.perf_counter()

    def more(r: int) -> bool:
        if max_rounds is not None:
            return r < max_rounds
        return r < workload.min_rounds or time.perf_counter() - start < seconds

    r = 0
    while more(r):
        traced = trace and r % 2 == 0
        batch = [Outcome(len(outcomes) + k, op) for k, op in enumerate(workload.ops(r))]
        if tracer is not None:
            tracer.spans = []
            tracer.recording = traced
        t0 = time.perf_counter()
        for outcome in batch:
            if tracer is not None:
                tracer.op_id = outcome.op_id
            _execute(outcome)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.recording = False
        rounds.append(Round(traced, t0, t1, tracer.spans if traced else []))
        outcomes.extend(batch)
        r += 1
    return Result(outcomes, rounds)


def _check(workload, result: Result) -> None:
    """Output checks, then byte-identical stdout for ops with equal keys.

    An op whose key no other op of the run shares is re-run once (up to
    RERUN_LIMIT of them) to compare against.
    """
    for o in result.outcomes:
        if o.error is None:
            try:
                o.error = workload.check(o)
            except Exception as exc:  # a malformed output is a failed check
                o.error = f"check raised {type(exc).__name__}: {exc}"
    groups: dict[tuple, list[Outcome]] = {}
    for o in result.outcomes:
        groups.setdefault(o.op.key, []).append(o)
    singles = [g[0] for g in groups.values() if len(g) == 1 and g[0].error is None]
    for o in singles[:RERUN_LIMIT]:
        again = Outcome(-1, o.op)
        _execute(again)
        groups[o.op.key].append(again)
    for group in groups.values():
        reference = group[0]
        for o in group[1:]:
            if o.stdout != reference.stdout and o.op_id >= 0:
                o.error = o.error or f"stdout differs from op {reference.op_id}"
            elif o.stdout != reference.stdout:
                reference.error = reference.error or "stdout differs when re-run with the same seed"
    result.key_bits = sum(o.key_bits for o in result.outcomes[: workload.key_ops])
