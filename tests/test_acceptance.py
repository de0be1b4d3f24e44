"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line with the measured values.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
The synthetic suite shared by the coverage-floor and dispersion criteria is
computed once per session (5 seeds x {adaptive, fixed-rate} methods).
"""

import filecmp
import math
import time

import numpy as np
import pytest

from contina import metrics
from contina.adaptation import AdaptHyperParams, alpha_drift_bounds, alpha_step
from contina.harness import ExperimentConfig, run_replay, write_report
from contina.metrics import (
    BoundParams,
    RunLedger,
    average_coverage,
    coverage_gap_constant,
    mean_length,
    min_regional_coverage,
    regional_coverages,
    worst_region_bound,
)
from contina.predictors import PredictorSpec
from contina.streams import StreamSpec
from contina.windows import CalibrationWindow

ALPHA = 0.1
PAPER_HP = AdaptHyperParams(target_alpha=ALPHA, gamma1=0.005, beta=0.99, epsilon=1e-8)
SUITE_SEEDS = (100, 101, 102, 103, 104)


def suite_config(seed, method):
    """Heterogeneous-change stream: 20 regions, 20,000 deployment steps,
    per-region change scales spanning 4x, calibration window 1,000."""
    return ExperimentConfig(
        method=method,
        alpha=ALPHA,
        gamma=0.005,
        gamma1=0.005,
        beta=0.99,
        epsilon=1e-8,
        seed=seed,
        train_frac=2000 / 23000,
        calib_frac=1000 / 23000,
        synthetic=StreamSpec(
            n_regions=20, horizon=23000, seed=seed, regime="heterogeneous",
            shift_at=3000, scale_range=(1.0, 4.0),
        ),
    )


def report(name, ok, detail):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def suite_runs():
    runs = {}
    for seed in SUITE_SEEDS:
        for method in ("contina", "aci_fixed"):
            runs[(seed, method)] = run_replay(suite_config(seed, method))
    return runs


class TestCriterion1Convergence:
    def test_average_coverage_gap_bounded(self):
        """|cov - 0.90| within c/T (and empirically within 0.01) in <= 60 s."""
        config = suite_config(seed=7, method="contina")
        t0 = time.perf_counter()
        result = run_replay(config)
        elapsed = time.perf_counter() - t0
        cov = average_coverage(result.ledger)
        T = result.ledger.horizon
        c = coverage_gap_constant(PAPER_HP).value
        gap = abs(cov - (1.0 - ALPHA))
        ok = gap <= c / T and gap <= 0.01 and elapsed <= 60.0 and T == 20000
        assert report(
            "1 convergence",
            ok,
            f"cov={cov:.4f} gap={gap:.4f} bound={c / T:.4f} "
            f"T={T} runtime={elapsed:.1f}s",
        )


class TestCriterion2CoverageFloor:
    def test_floor_on_five_seeds(self, suite_runs):
        """Adaptive method keeps cov > 89% and minRC > 88% on every seed."""
        worst_cov, worst_rc = 1.0, 1.0
        for seed in SUITE_SEEDS:
            ledger = suite_runs[(seed, "contina")].ledger
            worst_cov = min(worst_cov, average_coverage(ledger))
            worst_rc = min(worst_rc, min_regional_coverage(ledger).value)
        ok = worst_cov > 0.89 and worst_rc > 0.88
        assert report(
            "2 coverage floor",
            ok,
            f"min-over-seeds cov={worst_cov:.4f} (> 0.89) "
            f"minRC={worst_rc:.4f} (> 0.88)",
        )


class TestCriterion3ExchangeableGuarantee:
    def test_static_quantile_conformal_floor(self):
        """Static method on an i.i.d. stream: coverage >= 0.89 over 1e5 cells."""
        config = ExperimentConfig(
            method="qcp",
            alpha=ALPHA,
            seed=42,
            train_frac=500 / 11500,
            calib_frac=1000 / 11500,
            predictor=PredictorSpec(kind="seasonal_window", by_hour=False),
            synthetic=StreamSpec(n_regions=5, horizon=11500, seed=42,
                                 regime="stationary"),
        )
        result = run_replay(config)
        cov = average_coverage(result.ledger)
        n_cells = len(result.ledger.t)
        ok = (
            0.89 <= cov <= 0.91
            and n_cells >= 100_000
            and result.window_capacity == 1000
        )
        assert report(
            "3 exchangeable floor",
            ok,
            f"cov={cov:.4f} (in [0.89, 0.91]) over {n_cells} indicators, "
            f"calibration={result.window_capacity}",
        )


class TestCriterion4DriftEnvelope:
    def test_envelope_and_moment_never_violated(self):
        """1e5 random coupled trajectories: alpha inside the drift envelope,
        second moment strictly below 1, zero violations."""
        rng = np.random.default_rng(2024)
        n_batches, per_batch, steps = 20, 5000, 60
        violations = 0
        total = 0
        for _ in range(n_batches):
            hp = AdaptHyperParams(
                target_alpha=float(rng.uniform(0.02, 0.45)),
                gamma1=float(rng.uniform(1e-4, 0.05)),
                beta=float(rng.uniform(0.8, 0.999)),
                epsilon=1e-8,
            )
            lower, upper, _ = alpha_drift_bounds(hp)
            alpha, moment = np.full(per_batch, hp.target_alpha), np.zeros(per_batch)
            for _ in range(steps):
                errs = rng.choice([0.0, 0.5, 1.0], size=per_batch)
                errs = np.where(alpha < 0.0, 0.0, errs)
                errs = np.where(alpha > 1.0, 1.0, errs)
                alpha, moment, _ = alpha_step("contina", alpha, moment, errs, 0.0, hp)
                violations += int((alpha < lower).sum())
                violations += int((alpha > upper).sum())
                violations += int((moment >= 1.0).sum())
            total += per_batch
        ok = violations == 0 and total == 100_000
        assert report(
            "4 drift envelope",
            ok,
            f"{total} trajectories x {steps} steps, violations={violations}",
        )


class TestCriterion5OracleEquivalence:
    def test_quantiles_and_metrics_match_oracles(self):
        """1,000 random windows vs a sort oracle and 100 random ledgers vs
        full-scan metric oracles, all exact."""
        rng = np.random.default_rng(77)
        window_mismatches = 0
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            scores = (rng.normal(size=n) * rng.uniform(0.1, 30)).tolist()
            level = float(rng.uniform(0, 1))
            w = CalibrationWindow(n, scores)
            m = min(max(math.ceil(level * n - 1e-9), 1), n)
            if w.quantile(level) != sorted(scores)[m - 1]:
                window_mismatches += 1

        metric_mismatches = 0
        for _ in range(100):
            n = int(rng.integers(1, 6))
            T = int(rng.integers(1, 40))
            regions = [f"r{i}" for i in range(n)]
            records = []
            for t in range(T):
                for r in regions:
                    for flow in ("in", "out"):
                        covered = bool(rng.integers(2))
                        length = float(rng.integers(0, 4096)) / 8.0
                        records.append((t, r, flow, covered, length, False))
            ledger = RunLedger.from_records(records, region_ids=regions)
            total = 2 * n * T
            cov = sum(1 for r in records if r[3]) / total
            per_region = {
                rid: sum(1 for r in records if r[1] == rid and r[3]) / (2 * T)
                for rid in regions
            }
            minrc = min(per_region.values())
            length = math.fsum(r[4] for r in records) / total
            if average_coverage(ledger) != cov:
                metric_mismatches += 1
            if min_regional_coverage(ledger).value != minrc:
                metric_mismatches += 1
            if mean_length(ledger) != length:
                metric_mismatches += 1
        ok = window_mismatches == 0 and metric_mismatches == 0
        assert report(
            "5 oracle equivalence",
            ok,
            f"window mismatches={window_mismatches}/1000, "
            f"metric mismatches={metric_mismatches}/300",
        )


class TestCriterion6RegionalDispersion:
    def test_adaptive_rate_concentrates_regional_coverage(self, suite_runs):
        """Std of per-region coverage shrinks >= 10% (median over 5 seeds)
        when the fixed rate is replaced by the adaptive one."""
        reductions = []
        for seed in SUITE_SEEDS:
            stds = {}
            for method in ("contina", "aci_fixed"):
                covs = np.array(
                    list(regional_coverages(suite_runs[(seed, method)].ledger).values())
                )
                stds[method] = float(covs.std())
            reductions.append(1.0 - stds["contina"] / stds["aci_fixed"])
        median = float(np.median(reductions))
        ok = median >= 0.10
        assert report(
            "6 regional dispersion",
            ok,
            "relative std reduction per seed: "
            + ", ".join(f"{r:.0%}" for r in reductions)
            + f"; median={median:.0%} (>= 10%)",
        )


@pytest.mark.slow
class TestCriterion7WorstRegionBound:
    @pytest.mark.parametrize("k_lag", [6, 24])
    def test_min_regional_coverage_respects_bound(self, k_lag):
        """k-dependent streams: observed minRC >= theoretical worst-region
        bound with c1 from the gap constant and c2 = 0.25, on every seed."""
        c1 = coverage_gap_constant(PAPER_HP).value
        results = []
        ok = True
        for seed in (11, 12):
            config = ExperimentConfig(
                method="contina",
                alpha=ALPHA,
                seed=seed,
                train_frac=4000 / 56000,
                calib_frac=2000 / 56000,
                synthetic=StreamSpec(
                    n_regions=50, horizon=56000, seed=seed,
                    regime="k_dependent", k_lag=k_lag,
                ),
            )
            result = run_replay(config)
            T = result.ledger.horizon
            bound = worst_region_bound(
                BoundParams(c1=c1, c2=0.25, n_regions=50, horizon=T, k_lag=k_lag),
                ALPHA,
            ).value
            observed = min_regional_coverage(result.ledger).value
            results.append(f"seed {seed}: minRC={observed:.4f} bound={bound:.4f}")
            ok = ok and observed >= bound and T == 50000
        assert report(f"7 worst-region bound (K={k_lag})", ok, "; ".join(results))


class TestCriterion8Determinism:
    def test_reports_bit_identical_across_runs(self, tmp_path):
        """Identical config+seed gives byte-identical report files and ledger mirror."""
        config = ExperimentConfig(
            method="contina",
            seed=13,
            train_frac=0.4,
            calib_frac=0.2,
            synthetic=StreamSpec(n_regions=6, horizon=3000, seed=13,
                                 regime="abrupt_shift", shift_at=2000),
        )
        paths = {
            label: write_report(run_replay(config), tmp_path / label)
            for label in ("run_a", "run_b")
        }
        ok = all(
            filecmp.cmp(paths["run_a"][name], paths["run_b"][name], shallow=False)
            for name in ("ledger", "summary", "daily", "states", "manifest", "mirror")
        )
        assert report("8 determinism", ok,
                      "a rerun produces byte-identical reports and ledger.bin")
