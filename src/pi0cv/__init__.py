"""pi0cv: cross-validated histogram estimation of the proportion of true
null hypotheses, with a plug-in step-up procedure for FDR control."""

from .histogram_core import (
    BinCounts,
    GridPrefix,
    PartitionSpec,
    PValueSample,
    bin_counts,
    enumerate_partitions,
    grid_prefix,
    load_sample,
    read_pvalue_file,
)
from .lpo_risk import (
    MomentSums,
    MseCoefficients,
    PhiCoefficients,
    moment_sums,
    mse_coefficients,
    phi_coefficients,
    select_p,
)
from .mtp import (
    ErrorMetrics,
    MtpResult,
    bh_procedure,
    error_metrics,
    plugin_mtp,
)
from .pi0_estimator import (
    EstimatorConfig,
    Pi0Estimate,
    estimate_pi0,
    ss_estimator,
    storey_estimator,
)
from .sim_harness import (
    ScenarioSpec,
    SummaryTable,
    replicate_rng,
    run_scenario,
    sample_beta_tail,
    sample_trunc_beta,
    sample_ushape,
)

__version__ = "0.1.0"
