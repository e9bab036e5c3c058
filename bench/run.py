"""Benchmark of the decoyqkd pipeline: one workload per invocation.

Usage, from the repository root::

    python3 bench/run.py --workload certify-mc --seed 1 --seconds 25 --trace 0

Workloads are ``certify-mc``, ``distill-cli`` and ``design-cli`` (see
``workloads.py``).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` every other round records spans around the
calls into each module and the run reports the per-layer metrics and the
tracing overhead.  Times in the end-to-end metrics are scaled to a
reference machine speed by :mod:`speed`; the unscaled times are in the
machine record.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print the machine record, any failed operation and every
metric with its unit.

The package is imported from ``src/`` of the checkout, as with
``PYTHONPATH=src``; the run exits with status 2 and prints no result when
``src/decoyqkd`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_UNITS, layer_metrics
from speed import REFERENCE_TICK_S, SpeedProbe

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# setup_s is the median of SETUP_LAUNCHES launches before the workload and as
# many after it, so that the launches sample two moments of the run; one
# warm-up launch comes first.
SETUP_LAUNCHES = 3
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ok_frac": "ratio", "peak_rss_mb": "MB", "key_bits": "bits",
}
SETUP_CODE = "import time, decoyqkd.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"


def measure_setup(launches: int) -> list[float]:
    """Seconds from launching an interpreter until ``import decoyqkd.cli`` returns.

    CLOCK_MONOTONIC is system-wide, so the child's reading after the
    import is comparable with the parent's reading before the launch.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(launches):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout) - t0)
    return times


def machine_record() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "decoyqkd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(result, probe: SpeedProbe, setup) -> tuple[dict, dict]:
    """The end-to-end metrics (scaled times) and the unscaled times for the record."""
    rounds = [probe.scaled(r.start, r.end) for r in result.rounds]
    ops = [probe.scaled(o.start, o.end) for o in result.outcomes]
    attempted = len(result.outcomes)
    metrics = {
        # A tick inside an import is often stalled, so the launches are
        # scaled by the mean tick of the whole run instead.
        "setup_s": statistics.median(setup) * REFERENCE_TICK_S / probe.mean_tick_s(),
        "wall_s": statistics.median(s for _, s in rounds),
        "op_p50_ms": 1e3 * statistics.median(s for _, s in ops),
        "op_p90_ms": 1e3 * p90([s for _, s in ops]),
        "ok_frac": (attempted - result.failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "key_bits": result.key_bits,
    }
    unscaled = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r for r, _ in rounds),
        "op_p50_ms": 1e3 * statistics.median(r for r, _ in ops),
        "op_p90_ms": 1e3 * p90([r for r, _ in ops]),
        "setup_launches_s": [round(t, 4) for t in setup],
        "round_s": [round(r, 4) for r, _ in rounds],
    }
    return metrics, unscaled


def per_layer(result, probe: SpeedProbe) -> dict[str, float]:
    traced = [r for r in result.rounds if r.traced]
    plain = [r for r in result.rounds if not r.traced]
    rows = [layer_metrics(r.spans) for r in traced]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}

    def wall(rounds):
        return statistics.median(probe.scaled(r.start, r.end)[1] for r in rounds)

    metrics["trace.overhead"] = wall(traced) / wall(plain) - 1.0
    metrics["machine.tick_us"] = 1e6 * probe.mean_tick_s()
    return metrics


def solve_counts(result) -> dict:
    """LP solves per operation kind and per ``compose_session`` call, as counted."""
    labels = {o.op_id: o.op.label for o in result.outcomes}
    per_op: dict[str, set[int]] = {}
    per_compose: dict[int, int] = {}
    for r in result.rounds:
        counts = dict.fromkeys({s.op_id for s in r.spans}, 0)
        beneath: dict[int, int] = {}
        for i, s in enumerate(r.spans):
            if s.name == "keyrate.compose_session":
                beneath.setdefault(i, 0)
            elif s.name == "simplex.solve_lp":
                counts[s.op_id] += 1
                p = s.parent
                while p is not None and r.spans[p].name != "keyrate.compose_session":
                    p = r.spans[p].parent
                if p is not None:
                    beneath[p] += 1
        for op_id, n in counts.items():
            per_op.setdefault(labels[op_id], set()).add(n)
        for n in beneath.values():
            per_compose[n] = per_compose.get(n, 0) + 1
    return {
        "solve_lp_per_op": {k: sorted(v) for k, v in per_op.items()},
        "compose_sessions_by_solve_lp_count": dict(sorted(per_compose.items())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify-mc", "distill-cli", "design-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "decoyqkd" / "cli.py").is_file():
        print(f"bench: {SRC / 'decoyqkd'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    setup = [] if args.trace else measure_setup(SETUP_LAUNCHES + 1)[1:]
    sys.path.insert(0, str(SRC))
    import workloads

    record = machine_record()
    with SpeedProbe() as probe:
        result = workloads.run(args.workload, args.seed, args.seconds, root=ROOT,
                               trace=bool(args.trace))
    if not args.trace:
        setup += measure_setup(SETUP_LAUNCHES)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=len(result.rounds), ops=len(result.outcomes),
                  mean_tick_us=round(1e6 * probe.mean_tick_s(), 3),
                  failed_frac=result.failed / len(result.outcomes))
    if args.trace:
        metrics = per_layer(result, probe)
        units = LAYER_UNITS
        record.update(solve_counts(result))
    else:
        metrics, unscaled = end_to_end(result, probe, setup)
        units = UNITS
        record.update(latency_samples=len(result.outcomes), unscaled=unscaled)
    print("machine " + json.dumps(record, sort_keys=True))
    for o in result.outcomes:
        if o.error is not None:
            print(f"FAILED op {o.op_id} ({o.op.label}): {o.error}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": len(result.outcomes),
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
