"""Release acceptance suite.

Each test exercises one shipping criterion end-to-end through the public
API and prints a one-line PASS/FAIL summary (shown with ``pytest -s``,
or in the captured-output section on failure).  Tolerances here are the
release bands; the module test files pin the exact frozen values.

Criterion 7's rate leg at depth 3 is mathematically unattainable — a
depth-3 iterated extractor keeps at most ~0.58 output bits per input bit
on a near-balanced source, so its overhead can never meet the 1.12
budget — and is kept as a strict expected failure with a companion test
showing the budget is met at full depth.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import (
    grid_b1_maximum,
    grid_b1_resolution,
    grid_y1_minimum,
    grid_y1_resolution,
    random_constraint_systems,
)
from decoyqkd import calibrate_to_reference
from decoyqkd.core import ConfidenceConfig
from decoyqkd.decoy import b1_tight, single_photon_bounds, solve_y1_lower
from decoyqkd.extract import measure_f_ds, peres_extract, privacy_amplify
from decoyqkd.keyrate import secret_length
from decoyqkd.opt import range_curve
from decoyqkd.recon import cascade_reconcile, measure_f_ec
from decoyqkd.sim import (
    REFERENCE_DETECTIONS,
    REFERENCE_SIFTED_TOTAL,
    expected_statistics,
    reference_model,
    reference_scheme,
    simulate_session,
)
from decoyqkd.stats import binary_entropy, binomial_interval

KEY_TOTAL_TIGHT_TARGET = 6127
KEY_TOTAL_WORST_TARGET = 3990
#: Criterion 4's time bound for its 500 sessions, in seconds.
SOUNDNESS_SECONDS = 300.0


def _line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def _monobit_sigma(bits):
    """Deviation of the ones count from n/2, in standard deviations."""
    n = len(bits)
    return abs(int(np.sum(bits)) - 0.5 * n) / (0.5 * np.sqrt(n))


def test_criterion_1_calibrated_reproduction():
    t0 = time.monotonic()
    cal = calibrate_to_reference()
    elapsed = time.monotonic() - t0

    detections_ok = all(
        abs(level.detected_total() / target - 1.0) < 0.01
        for level, target in zip(cal.tally.levels, REFERENCE_DETECTIONS)
    )
    sifted = sum(sum(level.sifted.values()) for level in cal.tally.levels)
    sifted_ok = abs(sifted / REFERENCE_SIFTED_TOTAL - 1.0) < 0.01
    tight, worst = cal.analysis.total_tight, cal.analysis.total_worst
    tight_ok = 0.75 * KEY_TOTAL_TIGHT_TARGET <= tight <= 1.25 * KEY_TOTAL_TIGHT_TARGET
    worst_ok = 0.75 * KEY_TOTAL_WORST_TARGET <= worst <= 1.25 * KEY_TOTAL_WORST_TARGET

    ok = (detections_ok and sifted_ok and tight_ok and worst_ok
          and tight > worst and elapsed < 60.0)
    _line(1, ok, f"totals {tight}/{worst} vs targets "
                 f"{KEY_TOTAL_TIGHT_TARGET}/{KEY_TOTAL_WORST_TARGET} ±25%, "
                 f"{elapsed:.1f} s")
    assert detections_ok and sifted_ok
    assert tight_ok and worst_ok
    assert tight > worst
    assert elapsed < 60.0


def test_criterion_2_range_endpoints(calibration):
    cal = calibration
    kwargs = dict(f_ec=1.07, f_ds=1.05,
                  sift_ratio=cal.sift_ratio, zero_fraction=cal.zero_fraction)
    t0 = time.monotonic()
    fixed = range_curve(
        cal.model, cal.pulses, [138.0 + 0.5 * i for i in range(25)], **kwargs
    )
    # The optimized endpoint targets the large-sample regime, so run a
    # 100x longer aggregation window to keep finite-statistics penalties
    # from truncating the range.
    optimized = range_curve(
        cal.model, 100 * cal.pulses,
        [158.0, 161.0, 162.0, 163.0, 164.0, 166.0],
        optimize=True, stages=2, **kwargs,
    )
    elapsed = time.monotonic() - t0

    tight_ok = 144.3 - 4.0 <= fixed.range_tight_km <= 144.3 + 4.0
    worst_ok = 141.6 - 4.0 <= fixed.range_worst_km <= 141.6 + 4.0
    opt_ok = 166.1 - 5.0 <= optimized.range_tight_km <= 166.1 + 5.0
    ok = (tight_ok and worst_ok and fixed.range_tight_km >= fixed.range_worst_km
          and opt_ok and elapsed < 600.0)
    _line(2, ok, f"fixed {fixed.range_tight_km}/{fixed.range_worst_km} km "
                 f"(bands 144.3±4 / 141.6±4), optimized "
                 f"{optimized.range_tight_km} km (band 166.1±5), {elapsed:.1f} s")
    assert tight_ok and worst_ok
    assert fixed.range_tight_km >= fixed.range_worst_km
    assert opt_ok
    assert elapsed < 600.0


def test_criterion_3_efficiency_factors(calibration):
    f_ec_values = []
    for t in range(12):
        g = np.random.default_rng(3100 + t)
        alice = g.integers(0, 2, 18853)
        bob = alice.copy()
        bob[g.choice(18853, 330, replace=False)] ^= 1
        result = cascade_reconcile(alice, bob, 0.0175, rng_seed=6200 + t)
        assert np.array_equal(result.corrected_key, alice)
        f_ec_values.append(measure_f_ec(result))
    f_ec_ok = all(1.02 <= v <= 1.15 for v in f_ec_values)

    f_pa_values = [
        budget.f_pa
        for budgets in (calibration.analysis.budgets_tight,
                        calibration.analysis.budgets_worst)
        for budget in budgets.values()
    ]
    f_pa_ok = all(1.04 <= v <= 1.15 for v in f_pa_values)

    g = np.random.default_rng(31415)
    bits = (g.random(40538) < 0.506).astype(np.uint8)
    f_ds = measure_f_ds(peres_extract(bits, depth=12), 0.494)
    f_ds_ok = 1.00 <= f_ds <= 1.12

    ok = f_ec_ok and f_pa_ok and f_ds_ok
    _line(3, ok, f"f_EC [{min(f_ec_values):.4f},{max(f_ec_values):.4f}], "
                 f"f_PA [{min(f_pa_values):.4f},{max(f_pa_values):.4f}], "
                 f"f_DS {f_ds:.4f}")
    assert f_ec_ok
    assert f_pa_ok
    assert f_ds_ok


def test_criterion_4_statistical_soundness():
    model = reference_model(25.0)
    scheme = reference_scheme()
    stats = expected_statistics(model, scheme)
    y1_true = stats.photon_yield(1)
    b1_true = stats.photon_error_rate(1)
    config = ConfidenceConfig()

    t0 = time.monotonic()
    sound = 0
    for seed in range(500):
        tally, _ = simulate_session(model, scheme, 1_000_000, 4200 + seed)
        bounds = single_photon_bounds(tally, scheme, config)
        if bounds.feasible and bounds.y1_lower <= y1_true and all(
            bounds.b1_tight_by_basis[basis] >= b1_true for basis in ("X", "Z")
        ):
            sound += 1
    elapsed = time.monotonic() - t0

    ok = sound >= 495 and elapsed < SOUNDNESS_SECONDS
    _line(4, ok, f"{sound}/500 sessions sound (need ≥495), {elapsed:.1f} s")
    assert sound >= 495
    assert elapsed < SOUNDNESS_SECONDS


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(5200)
    y1_checked = b1_checked = 0
    for cutoff in [2, 2, 3, 4] * 6:
        ysys, esys = random_constraint_systems(rng, cutoff)
        sol = solve_y1_lower(ysys)
        assert sol.feasible

        m = {2: 24, 3: 14, 4: 10}[cutoff]
        narrow = grid_y1_minimum(ysys, m, -1)
        wide = grid_y1_minimum(ysys, m, +1)
        step = grid_y1_resolution(ysys, m)
        if narrow is not None:
            assert sol.y1_lower <= narrow + 1e-9
        assert wide is not None
        assert wide <= sol.y1_lower + step
        y1_checked += 1

        if cutoff == 2 and sol.y1_lower > 0.0:
            value = b1_tight(ysys, esys, sol.y1_lower)
            nb = grid_b1_maximum(ysys, esys, sol.y1_lower, m, 64, -1)
            wb = grid_b1_maximum(ysys, esys, sol.y1_lower, m, 64, +1)
            rho = grid_b1_resolution(ysys, esys, sol.y1_lower, m, 64, value)
            if nb is not None:
                assert value >= nb - 1e-9
            assert wb is not None
            assert value <= wb + rho
            b1_checked += 1

    ok = y1_checked >= 20 and b1_checked >= 8
    _line(5, ok, f"y1 sandwiched on {y1_checked} systems, "
                 f"b1 on {b1_checked} (cutoffs ≤ 4)")
    assert y1_checked >= 20
    assert b1_checked >= 8


def test_criterion_6_cascade_correctness():
    reconciled = 0
    f_ec_values = []
    for s in range(200):
        g = np.random.default_rng(77000 + s)
        alice = g.integers(0, 2, 10000)
        bob = alice ^ (g.random(10000) < 0.03)
        result = cascade_reconcile(alice, bob, 0.03, rng_seed=88000 + s)
        if np.array_equal(result.corrected_key, alice):
            reconciled += 1
        if result.corrections > 0:
            assert measure_f_ec(result) >= 1.0
        f_ec_values.append(measure_f_ec(result))

    mean_f_ec = float(np.mean(f_ec_values))
    ok = reconciled >= 198 and 1.05 <= mean_f_ec <= 1.25
    _line(6, ok, f"{reconciled}/200 reconciled (need ≥198), "
                 f"mean f_EC {mean_f_ec:.4f}")
    assert reconciled >= 198
    assert 1.05 <= mean_f_ec <= 1.25


def _biased_source_bits():
    g = np.random.default_rng(42)
    return (g.random(100000) >= 0.494).astype(np.uint8)


def test_criterion_7_monobit_at_depth_3():
    result = peres_extract(_biased_source_bits(), depth=3)
    sigma = _monobit_sigma(result.output_bits)
    ok = sigma < 4.0
    _line(7, ok, f"depth-3 monobit deviation {sigma:.3f}σ (need <4σ)")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="a depth-3 iterated extractor keeps at most ~0.58 output bits per "
           "input bit on a near-balanced source, so its overhead "
           "H2(z)·n_in/n_out ≈ 1.73 can never meet the ≤1.12 budget; the "
           "depth-12 companion test shows the budget is met at full depth",
)
def test_criterion_7_rate_band_at_depth_3():
    result = peres_extract(_biased_source_bits(), depth=3)
    assert measure_f_ds(result, 0.494) <= 1.12


def test_criterion_7_rate_band_at_depth_12():
    result = peres_extract(_biased_source_bits(), depth=12)
    f_ds = measure_f_ds(result, 0.494)
    sigma = _monobit_sigma(result.output_bits)
    ok = f_ds <= 1.12 and sigma < 4.0
    _line(7, ok, f"depth-12 f_DS {f_ds:.4f} (need ≤1.12), monobit {sigma:.3f}σ")
    assert f_ds <= 1.12
    assert sigma < 4.0


def test_criterion_8_module_invariants(calibration):
    # entropy symmetry
    g = np.random.default_rng(2026)
    for p in g.uniform(0.0, 1.0, 50):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), rel=1e-12)

    # interval ordering and monotonicity in the success count
    prev_lower = -1.0
    for k in (0, 3, 9, 27, 81):
        lower, upper = binomial_interval(k, 100, 1e-5)
        assert lower <= k / 100 <= upper
        assert lower >= prev_lower
        prev_lower = lower

    # dominance: the tight error bound never exceeds the worst-case one
    analysis = calibration.analysis
    for basis in ("X", "Z"):
        assert analysis.bounds.b1_tight_by_basis[basis] <= (
            analysis.bounds.b1_worst_by_basis[basis]
        )

    # key-length monotonicities around a reference point
    base = dict(n_sifted=18852, y1_eff=0.85, mu=0.599604, b1_upper=0.0376,
                bit_error_rate=0.0175, zero_fraction=0.494,
                f_ec=1.1314, f_pa=1.0909, f_ds=1.0407)
    n0 = secret_length(**base)
    assert secret_length(**{**base, "bit_error_rate": 0.03}) <= n0
    assert secret_length(**{**base, "b1_upper": 0.05}) <= n0
    assert secret_length(**{**base, "f_ec": 1.2}) <= n0
    assert secret_length(**{**base, "f_pa": 1.2}) <= n0
    assert secret_length(**{**base, "f_ds": 1.2}) <= n0
    assert secret_length(**{**base, "y1_eff": 0.9}) >= n0
    assert secret_length(**{**base, "zero_fraction": 0.5}) >= n0

    # GF(2) linearity of the privacy-amplification hash
    a = g.integers(0, 2, 512).astype(np.uint8)
    b = g.integers(0, 2, 512).astype(np.uint8)
    ha = privacy_amplify(a, 128, seed=314)
    hb = privacy_amplify(b, 128, seed=314)
    hab = privacy_amplify(a ^ b, 128, seed=314)
    assert np.array_equal(hab, ha ^ hb)

    _line(8, True, "entropy symmetry, interval ordering, bound dominance, "
                   "key-length monotonicity, hash linearity")
