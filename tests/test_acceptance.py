"""End-to-end acceptance gate.

Every criterion is exercised at its stated tolerance and prints one PASS line
with the measured numbers.  Monte-Carlo studies run with fixed seeds and full
replication counts, so outcomes are deterministic for a given build.
Expected total runtime: a few minutes.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import pi0cv.pi0_estimator as pi0_mod
from pi0cv.histogram_core import (
    PartitionSpec,
    bin_counts,
    enumerate_partitions,
    grid_prefix,
    load_sample,
)
from pi0cv.lpo_risk import (
    lpo_risk,
    moment_sums,
    moment_sums_from,
    mse_coefficients,
    select_p,
    selection_mse,
)
from pi0cv.mtp import bh_procedure, plugin_mtp
from pi0cv.pi0_estimator import EstimatorConfig, estimate_pi0
from pi0cv.sim_harness import ScenarioSpec, parse_scenario_file, run_scenario

from reference import (
    bias_hat,
    bias_variance_oracle,
    compositions,
    consistency_probe,
    lpo_risk_oracle,
    sample_with_counts,
)

pytestmark = pytest.mark.acceptance

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"

# reference study values, all in x100 display units
REF_TRUNC_LPO = (0.39, 2.5, 6.41e-2)      # bias, std, mse
REF_TRUNC_SS = (-0.15, 3.2, 9.94e-2)
REF_BETA10_LPO_MSE = {0.5: 14.5e-2, 0.9: 13.7e-2}
REF_BETA10_LOO_MSE = {0.5: 13.9e-2, 0.9: 12.5e-2}
REF_BETA10_ENVELOPE = {0.5: 20.9e-2, 0.9: 43.1e-2}   # tightest tail-ratio variant
REF_FDR = {"lpo": 14.74, "bh": 6.94}
REF_FNR = {"lpo": 22.83, "bh": 61.00, "oracle": 21.93}


def test_ac1_truncated_beta_study():
    spec, alpha = parse_scenario_file(SCENARIO_DIR / "trunc_beta_study.conf")
    start = time.perf_counter()
    table = run_scenario(spec, methods=("lpo", "storey"), alpha=alpha)
    elapsed = time.perf_counter() - start
    lpo = table.methods["lpo"]
    ss = table.methods["storey"]
    assert table.valid
    assert abs(lpo.bias_x100) <= 1.2
    assert 1.7 <= lpo.std_x100 <= 3.4
    assert lpo.mse_x100 <= 1.6 * REF_TRUNC_LPO[2]
    assert lpo.mse_x100 < ss.mse_x100
    assert elapsed <= 600.0
    print(f"\nAC-1 PASS: lpo bias={lpo.bias_x100:+.3f} std={lpo.std_x100:.2f} "
          f"mse={lpo.mse_x100:.4f} (cap {1.6 * REF_TRUNC_LPO[2]:.4f}); "
          f"ss mse={ss.mse_x100:.4f}; {elapsed:.0f}s")


@pytest.mark.parametrize("pi0,seed", [(0.5, 11), (0.9, 12)])
def test_ac2_beta_tail_mse_ordering(pi0, seed):
    spec = ScenarioSpec(kind="beta_tail", pi0=pi0, m=1000, reps=500, seed=seed, s=10.0)
    table = run_scenario(spec, methods=("lpo", "loo"))
    assert table.valid
    for method, ref in (("lpo", REF_BETA10_LPO_MSE[pi0]), ("loo", REF_BETA10_LOO_MSE[pi0])):
        mse = table.methods[method].mse_x100
        assert 0.5 * ref <= mse <= 2.0 * ref, (method, mse, ref)
        assert mse < 2.0 * REF_BETA10_ENVELOPE[pi0]
    print(f"\nAC-2 PASS (pi0={pi0}): mse lpo={table.methods['lpo'].mse_x100:.4f} "
          f"(ref {REF_BETA10_LPO_MSE[pi0]:.3f}), loo={table.methods['loo'].mse_x100:.4f} "
          f"(ref {REF_BETA10_LOO_MSE[pi0]:.3f})")


def test_ac3_ushape_robustness():
    spec = ScenarioSpec(kind="ushape", pi0=0.5, m=1000, reps=200, seed=13,
                        a=-1.5, b=1.5, sd=0.5)
    table = run_scenario(spec, methods=("lpo", "storey"))
    assert table.valid
    mse_lpo = table.methods["lpo"].mse_x100
    mse_ss = table.methods["storey"].mse_x100
    assert mse_lpo <= 2.0
    assert mse_ss >= 4.0 * mse_lpo
    print(f"\nAC-3 PASS: mse lpo={mse_lpo:.4f} (cap 2.0), ss={mse_ss:.2f} "
          f"(>= {4 * mse_lpo:.2f})")


def test_ac4_fdr_control():
    spec = ScenarioSpec(kind="beta_tail", pi0=0.5, m=1000, reps=500, seed=14, s=10.0)
    table = run_scenario(spec, methods=("lpo",), alpha=0.15)
    assert table.valid
    fdr_lpo = table.procedures["lpo"].fdr_x100
    fdr_bh = table.procedures["bh"].fdr_x100
    assert 12.0 <= fdr_lpo <= 17.0
    assert 5.0 <= fdr_bh <= 10.0
    print(f"\nAC-4 PASS: FDR lpo={fdr_lpo:.2f} (ref {REF_FDR['lpo']}), "
          f"bh={fdr_bh:.2f} (ref {REF_FDR['bh']})")


def test_ac5_power_gain():
    spec = ScenarioSpec(kind="beta_tail", pi0=0.7, m=1000, reps=500, seed=15, s=25.0)
    table = run_scenario(spec, methods=("lpo",), alpha=0.15)
    assert table.valid
    fnr_lpo = table.procedures["lpo"].fnr_x100
    fnr_bh = table.procedures["bh"].fnr_x100
    fnr_oracle = table.procedures["oracle"].fnr_x100
    assert fnr_lpo <= 35.0
    assert fnr_bh >= 45.0
    assert fnr_lpo >= fnr_oracle - 3.0
    print(f"\nAC-5 PASS: FNR lpo={fnr_lpo:.2f} (ref {REF_FNR['lpo']}), "
          f"bh={fnr_bh:.2f} (ref {REF_FNR['bh']}), oracle={fnr_oracle:.2f}")


def _d3_partitions():
    return [spec for spec in enumerate_partitions(1, 4) if spec.dimension <= 3]


ALPHA_SETS = {
    1: [(1.0,)],
    2: [(0.5, 0.5), (0.75, 0.25)],
    3: [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.3, 0.2)],
}


def test_ac6_exact_oracle_suite():
    start = time.perf_counter()
    risk_checks = 0
    for m in range(2, 9):
        for spec in _d3_partitions():
            d = spec.dimension
            for counts in compositions(m, d):
                sample = sample_with_counts(counts, spec)
                cnt = bin_counts(grid_prefix(sample, spec.n), spec)
                assert tuple(cnt.counts) == counts
                for p in range(1, m):
                    closed = lpo_risk(cnt, spec, p)
                    brute = lpo_risk_oracle(sample, spec, p)
                    assert abs(closed - brute) <= 1e-10, (m, spec, counts, p)
                    risk_checks += 1
    bias_checks = 0
    for m in range(2, 9):
        for spec in _d3_partitions():
            for alpha in ALPHA_SETS[spec.dimension]:
                ms = moment_sums_from(alpha, spec.widths())
                for p in range(1, m):
                    enum_bias, _ = bias_variance_oracle(alpha, spec, m, p)
                    assert abs(bias_hat(ms, m, p) - enum_bias) <= 1e-12
                    bias_checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    print(f"\nAC-6 PASS: {risk_checks} risk identities and {bias_checks} bias "
          f"identities exact ({elapsed:.1f}s)")


def test_ac7_selection_invariants():
    rng = np.random.default_rng(777)
    cfg = EstimatorConfig(n_max=30)
    n_dominates = 0
    for trial in range(200):
        m = int(rng.integers(50, 150))
        shape = float(rng.uniform(0.4, 2.0))
        raw = rng.random(m) ** shape
        sample = load_sample(raw)

        est = estimate_pi0(sample, cfg)
        rng.shuffle(raw)
        est2 = estimate_pi0(load_sample(raw), cfg)
        assert est == est2

        n = int(rng.integers(1, 13))
        k = int(rng.integers(0, n))
        l = int(rng.integers(k + 1, n + 1))
        spec = PartitionSpec(n, k, l)
        cnt = bin_counts(grid_prefix(sample, n), spec)
        mc = mse_coefficients(moment_sums(cnt, spec), m)
        sel = select_p(mc)
        grid_min = float(np.min(selection_mse(mc, np.arange(1, m))))
        assert float(selection_mse(mc, sel.p_hat)) <= grid_min + 1e-12

        assert est.pi0 <= 1.0
        k_plug = plugin_mtp(sample, 0.15, est).k_hat
        k_bh = bh_procedure(sample, 0.15).k_hat
        assert k_plug >= k_bh
        n_dominates += int(k_plug >= k_bh)
    print(f"\nAC-7 PASS: 200 samples; permutation-invariant, grid-argmin holdout, "
          f"plug-in dominated baseline in {n_dominates}/200")


def test_ac8_consistency_trend():
    model = ScenarioSpec(kind="beta_tail", pi0=0.9, m=2, reps=1, seed=0, s=50.0)
    sizes = (100, 1000, 10000)
    errors = {m: [] for m in sizes}
    for seed in range(20):
        errs = consistency_probe(0.9, model, sizes, seed)
        for m, e in zip(sizes, errs):
            errors[m].append(e)
    medians = [float(np.median(errors[m])) for m in sizes]
    assert medians[0] > medians[1] > medians[2]
    print(f"\nAC-8 PASS: median |pi0_hat - pi0| = "
          f"{medians[0]:.4f} > {medians[1]:.4f} > {medians[2]:.4f}")


def test_ac9_search_performance():
    pi0_mod._tables.cache_clear()
    rng = np.random.default_rng(9)
    sample = load_sample(rng.random(1000))
    start = time.perf_counter()
    est = estimate_pi0(sample)
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    tab = pi0_mod._tables(1, 100)
    assert tab.N.size == 171_700
    assert est.n_hat is not None
    print(f"\nAC-9 PASS: full 171700-partition search in {elapsed:.2f}s (cap 5s)")
