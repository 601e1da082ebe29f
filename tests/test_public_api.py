"""The package's public surface, listed by hand so that adding or dropping a
name is a visible change, and every module's ``__all__`` kept resolvable."""

import importlib
import pkgutil
import types

import pi0cv

PUBLIC = {
    "BinCounts", "ErrorMetrics", "EstimatorConfig", "GridPrefix", "MomentSums",
    "MseCoefficients", "MtpResult", "PValueSample", "PartitionSpec", "PhiCoefficients",
    "Pi0Estimate", "ScenarioSpec", "SummaryTable", "bh_procedure", "bin_counts",
    "enumerate_partitions", "error_metrics", "estimate_pi0", "grid_prefix", "load_sample",
    "moment_sums", "mse_coefficients", "phi_coefficients", "plugin_mtp", "read_pvalue_file",
    "replicate_rng", "run_scenario", "sample_beta_tail", "sample_trunc_beta", "sample_ushape",
    "select_p", "ss_estimator", "storey_estimator",
}


def test_public_names_and_every_export_resolves():
    top = {name for name, value in vars(pi0cv).items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert top == PUBLIC
    for info in pkgutil.iter_modules(pi0cv.__path__):
        module = importlib.import_module(f"pi0cv.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
