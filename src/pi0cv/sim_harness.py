"""Monte-Carlo harness: p-value generators, replicated runs, summary tables.

Replicate r of a run seeded with s draws from an independent RNG stream
derived as PCG64(SeedSequence(entropy=s, spawn_key=(r,))) - a pure function
of (s, r), so reruns of the same build match bit for bit and replicates may
be evaluated in any order.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError
from .histogram_core import PValueSample
from .jsonio import dumps17
from .mtp import bh_procedure, check_alpha, check_delta, error_metrics, plugin_mtp
from .pi0_estimator import EstimatorConfig, estimate_pi0

__all__ = [
    "ScenarioSpec",
    "ReplicateResult",
    "MethodSummary",
    "ProcedureSummary",
    "SummaryTable",
    "replicate_rng",
    "normal_cdf",
    "sample_beta_tail",
    "sample_trunc_beta",
    "sample_ushape",
    "draw_sample",
    "run_scenario",
    "parse_scenario_file",
    "write_summary_csv",
    "summary_json_dict",
]

# the optional ScenarioSpec fields each kind reads; it refuses any other
KIND_FIELDS = {"beta_tail": ("s",), "trunc_beta": ("s", "lambda_star"),
               "ushape": ("a", "b", "sd")}
KINDS = tuple(KIND_FIELDS)
USHAPE_NULL_SD = math.sqrt(2.5e-2)
DEFAULT_METHODS = ("lpo", "loo", "storey")


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    pi0: float
    m: int
    reps: int
    seed: int
    s: float | None = None            # beta shape (beta_tail, trunc_beta)
    lambda_star: float | None = None  # support end (trunc_beta)
    a: float | None = None            # lower mixture mean (ushape)
    b: float | None = None            # upper mixture mean (ushape)
    sd: float | None = None           # mixture component sd (ushape)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown scenario kind {self.kind!r}; valid kinds: {', '.join(KINDS)}")
        for name in ("pi0", "s", "lambda_star", "a", "b", "sd"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value}")
        if not 0.0 < self.pi0 <= 1.0:
            raise InputError(f"pi0 must lie in (0, 1], got {self.pi0}")
        if self.m < 2:
            raise InputError("m must be >= 2")
        if self.reps < 1:
            raise InputError("reps must be >= 1")
        for name in ("s", "lambda_star", "a", "b", "sd"):
            if getattr(self, name) is not None and name not in KIND_FIELDS[self.kind]:
                raise InputError(f"kind {self.kind} does not use {name}")
        if self.kind in ("beta_tail", "trunc_beta"):
            if self.s is None or self.s <= 0:
                raise InputError(f"kind {self.kind} needs a beta shape s > 0")
        if self.kind == "trunc_beta":
            if self.lambda_star is None or not 0.0 < self.lambda_star <= 1.0:
                raise InputError("kind trunc_beta needs lambda_star in (0, 1]")
        if self.kind == "ushape":
            if self.a is None or self.b is None or self.sd is None:
                raise InputError("kind ushape needs a, b and sd")
            if not (self.a < 0.0 < self.b):
                raise InputError("ushape needs a < 0 < b")
            if self.sd <= 0:
                raise InputError("ushape needs sd > 0")


@dataclass
class ReplicateResult:
    rep: int
    seed_used: int
    pi0_hat: dict = field(default_factory=dict)
    fdp: dict = field(default_factory=dict)
    fnr: dict = field(default_factory=dict)
    failed: bool = False
    error: str | None = None


@dataclass(frozen=True)
class MethodSummary:
    bias_x100: float
    std_x100: float
    mse_x100: float


@dataclass(frozen=True)
class ProcedureSummary:
    fdr_x100: float
    fnr_x100: float


@dataclass(frozen=True)
class SummaryTable:
    scenario: ScenarioSpec
    alpha: float
    methods: dict
    procedures: dict
    replicates: list
    valid: bool


def replicate_rng(seed: int, rep: int) -> np.random.Generator:
    """Independent stream for replicate ``rep`` of a run seeded with ``seed``."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(rep,))))


_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_cdf(x) -> np.ndarray:
    """Standard normal CDF via erfc; absolute error well below 1e-10."""
    x = np.asarray(x, dtype=float)
    return 0.5 * np.asarray(_erfc(-x / math.sqrt(2.0)), dtype=float)


def _assemble(values: np.ndarray, nulls: np.ndarray) -> tuple[PValueSample, np.ndarray]:
    """The sorted sample and its null labels, as a stable argsort gives them.

    The null and alternative values are sorted apart and merged, each
    alternative placed after the nulls it does not undercut.  That equals
    the stable argsort bit for bit unless a run of tied values holds both
    labels, or both -0.0 and 0.0, since the two orders differ only inside
    such a run; then the stable argsort itself decides.
    """
    m = int(values.size)
    null_values = values[nulls]
    null_values.sort()
    alt_values = values[~nulls]
    alt_values.sort()
    pos = np.searchsorted(null_values, alt_values, side="right")
    pos += np.arange(alt_values.size)
    labels = np.ones(m, dtype=bool)
    labels[pos] = False
    merged = np.empty(m)
    merged[pos] = alt_values
    del pos, alt_values
    merged[labels] = null_values
    del null_values
    # 'not >' rather than '==': NaNs, which sort last, then count as ties too
    tied = ~(merged[1:] > merged[:-1])
    if tied.any():
        bits = merged.view(np.uint64)
        tied &= (labels[1:] != labels[:-1]) | (bits[1:] != bits[:-1])
        if tied.any():
            order = np.argsort(values, kind="stable")
            merged, labels = values[order], nulls[order]
    return PValueSample(values=merged, m=m), labels


def sample_beta_tail(pi0: float, s: float, m: int, rng) -> tuple[PValueSample, np.ndarray]:
    """Mixture pi0 * U[0,1] + (1 - pi0) * Beta(1, s); the alternative density
    s (1 - t)^(s-1) is drawn by inverse CDF as 1 - U^(1/s)."""
    return sample_trunc_beta(pi0, s, 1.0, m, rng)


def sample_trunc_beta(pi0: float, s: float, lambda_star: float, m: int,
                      rng) -> tuple[PValueSample, np.ndarray]:
    """Alternative density s/l* (1 - t/l*)^(s-1) supported on [0, lambda_star]."""
    nulls = rng.random(m) < pi0
    u = rng.random(m)
    values = np.where(nulls, u, lambda_star * (1.0 - u ** (1.0 / s)))
    return _assemble(values, nulls)


def sample_ushape(pi0: float, a: float, b: float, sd: float, m: int,
                  rng) -> tuple[PValueSample, np.ndarray]:
    """One-sided p-values from a three-component Gaussian statistic mixture.

    X ~ pi0 N(0, 0.025) + (1-pi0)/2 N(a, sd^2) + (1-pi0)/2 N(b, sd^2) and
    p = 1 - Phi(X / sigma0) with sigma0 = sqrt(0.025).  Null p-values are
    exactly uniform by the probability integral transform; alternatives pile
    up near 0 (mean b > 0) and near 1 (mean a < 0).
    """
    comp = rng.random(m)
    nulls = comp < pi0
    lower = (~nulls) & (comp < pi0 + (1.0 - pi0) / 2.0)
    upper = (~nulls) & ~lower
    x = np.empty(m)
    x[nulls] = rng.normal(0.0, USHAPE_NULL_SD, int(nulls.sum()))
    x[lower] = rng.normal(a, sd, int(lower.sum()))
    x[upper] = rng.normal(b, sd, int(upper.sum()))
    values = 1.0 - normal_cdf(x / USHAPE_NULL_SD)
    return _assemble(values, nulls)


def draw_sample(spec: ScenarioSpec, rng) -> tuple[PValueSample, np.ndarray]:
    if spec.kind == "beta_tail":
        return sample_beta_tail(spec.pi0, spec.s, spec.m, rng)
    if spec.kind == "trunc_beta":
        return sample_trunc_beta(spec.pi0, spec.s, spec.lambda_star, spec.m, rng)
    return sample_ushape(spec.pi0, spec.a, spec.b, spec.sd, spec.m, rng)


def run_scenario(spec: ScenarioSpec, methods=DEFAULT_METHODS, alpha: float = 0.15,
                 delta: float = 0.0) -> SummaryTable:
    """Replicated estimation and testing study.

    Each replicate draws a sample, runs every pi0 method, then the plug-in
    procedure per method plus the theta=1 baseline ('bh') and the oracle run
    with the true pi0 ('oracle').  A replicate whose estimation fails is kept,
    marked failed, and invalidates the table.  A bad ``alpha`` or ``delta``
    raises InvalidAlpha or InvalidDelta before any replicate runs.
    """
    check_alpha(alpha)
    check_delta(delta)
    methods = list(methods)
    replicates: list[ReplicateResult] = []
    for rep in range(spec.reps):
        rng = replicate_rng(spec.seed, rep)
        sample, nulls = draw_sample(spec, rng)
        rr = ReplicateResult(rep=rep, seed_used=spec.seed)
        try:
            for method in methods:
                est = estimate_pi0(sample, EstimatorConfig(method=method))
                rr.pi0_hat[method] = est.pi0
                res = plugin_mtp(sample, alpha, est, delta)
                em = error_metrics(res, nulls)
                rr.fdp[method] = em.fdp
                rr.fnr[method] = em.fnr
            em = error_metrics(bh_procedure(sample, alpha), nulls)
            rr.fdp["bh"], rr.fnr["bh"] = em.fdp, em.fnr
            em = error_metrics(plugin_mtp(sample, alpha, spec.pi0, 0.0), nulls)
            rr.fdp["oracle"], rr.fnr["oracle"] = em.fdp, em.fnr
        except Exception as exc:  # noqa: BLE001 - replicate failures are data
            rr.failed = True
            rr.error = f"{type(exc).__name__}: {exc}"
        replicates.append(rr)

    good = [r for r in replicates if not r.failed]
    method_rows = {}
    for method in methods:
        ests = [r.pi0_hat[method] for r in good]
        n = len(ests)
        mean = math.fsum(ests) / n if n else math.nan
        bias = mean - spec.pi0
        var = math.fsum((e - mean) ** 2 for e in ests) / n if n else math.nan
        mse = math.fsum((e - spec.pi0) ** 2 for e in ests) / n if n else math.nan
        method_rows[method] = MethodSummary(
            bias_x100=bias * 100.0, std_x100=math.sqrt(var) * 100.0, mse_x100=mse * 100.0)
    proc_rows = {}
    for proc in [*methods, "bh", "oracle"]:
        fdps = [r.fdp[proc] for r in good]
        fnrs = [r.fnr[proc] for r in good]
        n = len(fdps)
        proc_rows[proc] = ProcedureSummary(
            fdr_x100=math.fsum(fdps) / n * 100.0 if n else math.nan,
            fnr_x100=math.fsum(fnrs) / n * 100.0 if n else math.nan)
    return SummaryTable(scenario=spec, alpha=alpha, methods=method_rows,
                        procedures=proc_rows, replicates=replicates,
                        valid=not any(r.failed for r in replicates))


_SCENARIO_KEYS = (*(f.name for f in dataclasses.fields(ScenarioSpec)), "alpha")


def parse_scenario_file(path: str | Path) -> tuple[ScenarioSpec, float]:
    """Flat key = value scenario format; '#' comments; returns (spec, alpha).

    An unknown or repeated key, or a value that does not parse as its key's
    type, raises InputError citing the line."""
    fields: dict[str, tuple[str, int]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise InputError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = text.partition("=")
            key = key.strip()
            if key not in _SCENARIO_KEYS:
                raise InputError(f"{path}:{lineno}: unknown key {key!r}; "
                                 f"valid keys: {', '.join(_SCENARIO_KEYS)}")
            if key in fields:
                raise InputError(f"{path}:{lineno}: duplicate key {key!r} "
                                 f"(first on line {fields[key][1]})")
            fields[key] = (value.strip(), lineno)
    if "kind" not in fields:
        raise InputError(f"{path}: missing 'kind'; valid kinds: {', '.join(KINDS)}")

    def _get(key, parse, default=None):
        if key not in fields:
            return default
        value, lineno = fields[key]
        try:
            return parse(value)
        except ValueError:
            kind = "an integer" if parse is int else "a number"
            raise InputError(f"{path}:{lineno}: {key} must be {kind}, got {value!r}") from None

    spec = ScenarioSpec(
        kind=fields["kind"][0],
        pi0=_get("pi0", float, 1.0),
        m=_get("m", int, 1000),
        reps=_get("reps", int, 1),
        seed=_get("seed", int, 0),
        s=_get("s", float),
        lambda_star=_get("lambda_star", float),
        a=_get("a", float),
        b=_get("b", float),
        sd=_get("sd", float),
    )
    return spec, _get("alpha", float, 0.15)


def _g(x: float) -> str:
    return format(x, ".17g")


def write_summary_csv(table: SummaryTable, methods_path: str | Path,
                      procedures_path: str | Path) -> None:
    with open(methods_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "bias_x100", "std_x100", "mse_x100"])
        for name, row in table.methods.items():
            w.writerow([name, _g(row.bias_x100), _g(row.std_x100), _g(row.mse_x100)])
    with open(procedures_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["procedure", "fdr_x100", "fnr_x100"])
        for name, row in table.procedures.items():
            w.writerow([name, _g(row.fdr_x100), _g(row.fnr_x100)])


def summary_json_dict(table: SummaryTable) -> dict:
    """Full replicate dump for auditing."""
    return {
        "scenario": asdict(table.scenario),
        "alpha": table.alpha,
        "valid": table.valid,
        "methods": {k: asdict(v) for k, v in table.methods.items()},
        "procedures": {k: asdict(v) for k, v in table.procedures.items()},
        "replicates": [asdict(r) for r in table.replicates],
    }


def write_replicates_json(table: SummaryTable, path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps17(summary_json_dict(table)) + "\n")
