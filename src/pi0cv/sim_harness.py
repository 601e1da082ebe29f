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
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError, InvalidMethod
from .histogram_core import PValueSample, _check_utf8, _open_text
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
# what a scenario file and simulate's flags take when they omit a field
SCENARIO_DEFAULTS = {"pi0": 0.9, "m": 1000, "reps": 1, "seed": 0, "alpha": 0.15}


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
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
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
    """A study's tables and replicates, its fields in the order of its JSON dump."""
    scenario: ScenarioSpec
    alpha: float
    valid: bool
    methods: dict
    procedures: dict
    replicates: list


def replicate_rng(seed: int, rep: int) -> np.random.Generator:
    """Independent stream for replicate ``rep`` of a run seeded with ``seed``."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(rep,))))


# erfc as fdlibm's s_erf.c computes it (Sun Microsystems, 1993), with the
# coefficients of its rational approximations on each range of |t|
_ERX = 8.45062911510467529297e-01
_ERFC_SMALL = (
    (1.28379167095512558561e-01, -3.25042107247001499370e-01, -2.84817495755985104766e-02,
     -5.77027029648944159157e-03, -2.37630166566501626084e-05),
    (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02, 5.08130628187576562776e-03,
     1.32494738004321644526e-04, -3.96022827877536812320e-06))
_ERFC_MID = (
    (-2.36211856075265944077e-03, 4.14856118683748331666e-01, -3.72207876035701323847e-01,
     3.18346619901161753674e-01, -1.10894694282396677476e-01, 3.54783043256182359371e-02,
     -2.16637559486879084300e-03),
    (1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01, 7.18286544141962662868e-02,
     1.26171219808761642112e-01, 1.36370839120290507362e-02, 1.19844998467991074170e-02))
_ERFC_NEAR = (
    (-9.86494403484714822705e-03, -6.93858572707181764372e-01, -1.05586262253232909814e+01,
     -6.23753324503260060396e+01, -1.62396669462573470355e+02, -1.84605092906711035994e+02,
     -8.12874355063065934246e+01, -9.81432934416914548592e+00),
    (1.0, 1.96512716674392571292e+01, 1.37657754143519042600e+02, 4.34565877475229228821e+02,
     6.45387271733267880336e+02, 4.29008140027567833386e+02, 1.08635005541779435134e+02,
     6.57024977031928170135e+00, -6.04244152148580987438e-02))
_ERFC_FAR = (
    (-9.86494292470009928597e-03, -7.99283237680523006574e-01, -1.77579549177547519889e+01,
     -1.60636384855821916062e+02, -6.37566443368389627722e+02, -1.02509513161107724954e+03,
     -4.83519191608651397019e+02),
    (1.0, 3.03380607434824582924e+01, 3.25792512996573918826e+02, 1.53672958608443695994e+03,
     3.19985821950859553908e+03, 2.55305040643316442583e+03, 4.74528541206955367215e+02,
     -2.24409524465858183362e+01))
# fdlibm splits the tail at the high word of 1/0.35, i.e. 2.8571414947509766
_ERFC_SPLIT = float(np.uint64(0x4006DB6D00000000).view(np.float64))
# normal_cdf's declared bound against math.erfc, in ULP of erfc; at most 4
# was measured on 2e7 tail arguments with numpy 2.4's AVX-512 exp
_ERFC_ULPS = 8
_CDF_BLOCK = 1 << 16


def _ratio(z: np.ndarray, coeffs) -> np.ndarray:
    """P(z) / Q(z), each summed in glibc's erfc order, left to right:
    (c0 + z c1) + z^2 (c2 + z c3) + z^4 (c4 + z c5) + ..., where
    z^4 = z^2 z^2, z^6 = z^4 z^2 and z^8 = z^4 z^4."""
    top = (max(map(len, coeffs)) - 1) // 2      # the highest power of z^2 used
    z2 = z * z
    powers = [z2, z2 * z2]
    if top > 2:
        powers.append(powers[1] * z2)
    if top > 3:
        powers.append(powers[1] * powers[1])
    sums = []
    for c in coeffs:
        acc = z * c[1]
        acc += c[0]
        for j in range(2, len(c), 2):
            if j + 1 < len(c):
                term = z * c[j + 1]
                term += c[j]
                term *= powers[j // 2 - 1]
            else:
                term = powers[j // 2 - 1] * c[j]
            acc += term
        sums.append(acc)
    num, den = sums
    num /= den
    return num


def _erfc(t: np.ndarray) -> np.ndarray:
    """erfc of a 1-D block, by fdlibm's algorithm in numpy.

    Each branch gathers its own arguments by comparisons, so only |t| in
    [1.25, 28) calls exp.  t <= -6 and |t| >= 28 keep the limits 2 and 0;
    a NaN takes the first branch and stays NaN.
    """
    a = np.abs(t)
    out = (t < 0.0) * 2.0
    i = (~(a >= 0.84375)).nonzero()[0]
    u = t[i]
    uy = u * _ratio(u * u, _ERFC_SMALL)
    out[i] = np.where(u < 0.25, 1.0 - (u + uy), 0.5 - (uy + (u - 0.5)))
    i = ((a >= 0.84375) & (a < 1.25)).nonzero()[0]
    pq = _ratio(a[i] - 1.0, _ERFC_MID)
    out[i] = np.where(t[i] >= 0.0, (1.0 - _ERX) - pq, 1.0 + (_ERX + pq))
    i = ((a >= 1.25) & (a < 28.0) & ((t > 0.0) | (a < 6.0))).nonzero()[0]
    v = a[i]
    s = 1.0 / (v * v)
    near = v < _ERFC_SPLIT
    far = ~near
    rs = np.empty(v.size)
    rs[near] = _ratio(s[near], _ERFC_NEAR)
    rs[far] = _ratio(s[far], _ERFC_FAR)
    # v with the low 32 bits of its mantissa cleared, so z * z is exact
    z = (v.view(np.uint64) & np.uint64(0xFFFFFFFF00000000)).view(np.float64)
    q = np.exp(-z * z - 0.5625) * np.exp((z - v) * (z + v) + rs)
    q /= v
    out[i] = np.where(t[i] > 0.0, q, 2.0 - q)
    return out


def normal_cdf(x) -> np.ndarray:
    """Standard normal CDF, 0.5 erfc(-x / sqrt(2)), in numpy alone.

    erfc is fdlibm's algorithm in glibc's evaluation order, computed in
    blocks of 2^16 values.  It is not ``math.erfc`` bit for bit: for erfc
    arguments |t| in [1.25, 28) it calls numpy's ``exp``, which can differ
    from glibc's in the last bit, so erfc there can move by a few units in
    the last place (ULP).  The declared bound is ``_ERFC_ULPS`` ULP of
    ``math.erfc``.  As erfc < 2, the CDF then lies within ``_ERFC_ULPS`` *
    2^-53 of ``0.5 * math.erfc(-x / sqrt(2))``, and a p-value 1 - CDF within
    2^-53 more.  Below |t| = 1.25 no ``exp`` is called and the operations
    are glibc's in its order; there the values equal ``math.erfc``'s on
    x86-64 with glibc 2.36.  x = 0, +-inf and NaN give exactly 0.5, 1, 0
    and NaN.  A 0-d input returns a numpy scalar.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    cdf = np.empty(flat.size)
    for lo in range(0, flat.size, _CDF_BLOCK):
        np.multiply(_erfc(flat[lo:lo + _CDF_BLOCK] / -math.sqrt(2.0)), 0.5,
                    out=cdf[lo:lo + _CDF_BLOCK])
    cdf = cdf.reshape(x.shape)
    return cdf if cdf.ndim else cdf[()]


def _draw(null_values: np.ndarray, alt_values: np.ndarray) -> tuple[PValueSample, np.ndarray]:
    """The sorted sample of the null and alternative p-values, and the null values."""
    values = np.concatenate((null_values, alt_values))
    values.sort()
    return PValueSample(values=values, m=int(values.size)), null_values


def sample_beta_tail(pi0: float, s: float, m: int, rng) -> tuple[PValueSample, np.ndarray]:
    """Mixture pi0 * U[0,1] + (1 - pi0) * Beta(1, s); the alternative density
    s (1 - t)^(s-1) is drawn by inverse CDF as 1 - U^(1/s)."""
    return sample_trunc_beta(pi0, s, 1.0, m, rng)


def sample_trunc_beta(pi0: float, s: float, lambda_star: float, m: int,
                      rng) -> tuple[PValueSample, np.ndarray]:
    """Alternative density s/l* (1 - t/l*)^(s-1) supported on [0, lambda_star]."""
    nulls = rng.random(m) < pi0
    u = rng.random(m)
    # compress: boolean indexing's values, in about a quarter of the time
    return _draw(np.compress(nulls, u),
                 lambda_star * (1.0 - np.compress(~nulls, u) ** (1.0 / s)))


def sample_ushape(pi0: float, a: float, b: float, sd: float, m: int,
                  rng) -> tuple[PValueSample, np.ndarray]:
    """One-sided p-values from a three-component Gaussian statistic mixture.

    X ~ pi0 N(0, 0.025) + (1-pi0)/2 N(a, sd^2) + (1-pi0)/2 N(b, sd^2) and
    p = 1 - Phi(X / sigma0) with sigma0 = sqrt(0.025).  Null p-values are
    exactly uniform by the probability integral transform; alternatives pile
    up near 0 (mean b > 0) and near 1 (mean a < 0).
    """
    comp = rng.random(m)
    n_null = int(np.count_nonzero(comp < pi0))
    n_lower = int(np.count_nonzero(comp < pi0 + (1.0 - pi0) / 2.0)) - n_null
    x = np.concatenate((rng.normal(0.0, USHAPE_NULL_SD, n_null), rng.normal(a, sd, n_lower),
                        rng.normal(b, sd, m - n_null - n_lower)))
    x /= USHAPE_NULL_SD
    values = normal_cdf(x)
    np.subtract(1.0, values, out=values)
    return _draw(values[:n_null], values[n_null:])


def draw_sample(spec: ScenarioSpec, rng) -> tuple[PValueSample, np.ndarray]:
    """One replicate's sorted sample, and the p-values of its true nulls."""
    if spec.kind == "beta_tail":
        return sample_beta_tail(spec.pi0, spec.s, spec.m, rng)
    if spec.kind == "trunc_beta":
        return sample_trunc_beta(spec.pi0, spec.s, spec.lambda_star, spec.m, rng)
    return sample_ushape(spec.pi0, spec.a, spec.b, spec.sd, spec.m, rng)


def _mean(values: list) -> float:
    return math.fsum(values) / len(values) if values else math.nan


def run_scenario(spec: ScenarioSpec, methods=DEFAULT_METHODS,
                 alpha: float = SCENARIO_DEFAULTS["alpha"], delta: float = 0.0) -> SummaryTable:
    """Replicated estimation and testing study.

    Each replicate draws a sample, runs every pi0 method, then the plug-in
    procedure per method plus the theta=1 baseline ('bh') and the oracle run
    with the true pi0 ('oracle').  A replicate whose estimation fails is kept,
    marked failed, and invalidates the table.  A bad ``alpha``, ``delta`` or
    method name, or an empty method list, raises InvalidAlpha, InvalidDelta or
    InvalidMethod before any replicate runs.
    """
    check_alpha(alpha)
    check_delta(delta)
    configs = {method: EstimatorConfig(method=method) for method in methods}
    if not configs:
        raise InvalidMethod("no pi0 method given")
    replicates: list[ReplicateResult] = []
    for rep in range(spec.reps):
        rng = replicate_rng(spec.seed, rep)
        sample, null_values = draw_sample(spec, rng)
        rr = ReplicateResult(rep=rep, seed_used=spec.seed)
        try:
            for method, config in configs.items():
                est = estimate_pi0(sample, config)
                rr.pi0_hat[method] = est.pi0
                res = plugin_mtp(sample, alpha, est, delta)
                em = error_metrics(res, null_values)
                rr.fdp[method] = em.fdp
                rr.fnr[method] = em.fnr
            em = error_metrics(bh_procedure(sample, alpha), null_values)
            rr.fdp["bh"], rr.fnr["bh"] = em.fdp, em.fnr
            em = error_metrics(plugin_mtp(sample, alpha, spec.pi0, 0.0), null_values)
            rr.fdp["oracle"], rr.fnr["oracle"] = em.fdp, em.fnr
        except Exception as exc:  # noqa: BLE001 - replicate failures are data
            rr.failed = True
            rr.error = f"{type(exc).__name__}: {exc}"
        replicates.append(rr)

    good = [r for r in replicates if not r.failed]
    method_rows = {}
    for method in configs:
        ests = [r.pi0_hat[method] for r in good]
        mean = _mean(ests)
        method_rows[method] = MethodSummary(
            bias_x100=(mean - spec.pi0) * 100.0,
            std_x100=math.sqrt(_mean([(e - mean) ** 2 for e in ests])) * 100.0,
            mse_x100=_mean([(e - spec.pi0) ** 2 for e in ests]) * 100.0)
    proc_rows = {proc: ProcedureSummary(fdr_x100=_mean([r.fdp[proc] for r in good]) * 100.0,
                                        fnr_x100=_mean([r.fnr[proc] for r in good]) * 100.0)
                 for proc in [*configs, "bh", "oracle"]}
    return SummaryTable(scenario=spec, alpha=alpha, valid=not any(r.failed for r in replicates),
                        methods=method_rows, procedures=proc_rows, replicates=replicates)


# how a scenario file and simulate's flags parse each field after kind
SCENARIO_TYPES = {**{f.name: int if f.type == "int" else float
                     for f in dataclasses.fields(ScenarioSpec)[1:]}, "alpha": float}
_SCENARIO_KEYS = ("kind", *SCENARIO_TYPES)


def parse_scenario_file(path: str | Path) -> tuple[ScenarioSpec, float]:
    """Flat key = value scenario format in UTF-8; '#' comments; returns (spec, alpha).

    A leading byte-order mark is dropped.  An unknown or repeated key, a value
    that does not parse as its key's type, or a byte that is not UTF-8, raises
    InputError citing the line; of several, the first line's."""
    fields: dict[str, tuple[str, int]] = {}
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            _check_utf8(path, lineno, line)
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

    def _get(key, parse):
        if key not in fields:
            return SCENARIO_DEFAULTS.get(key)
        value, lineno = fields[key]
        try:
            return parse(value)
        except ValueError:
            kind = "an integer" if parse is int else "a number"
            raise InputError(f"{path}:{lineno}: {key} must be {kind}, got {value!r}") from None

    values = {key: _get(key, parse) for key, parse in SCENARIO_TYPES.items()}
    alpha = values.pop("alpha")
    return ScenarioSpec(kind=fields["kind"][0], **values), alpha


def summary_rows(table: SummaryTable) -> tuple[list, list]:
    """The method and procedure tables as rows of strings, each under its header:
    the row's name, then the fields of its summary class."""
    tables = []
    for key, cls, rows in (("method", MethodSummary, table.methods),
                           ("procedure", ProcedureSummary, table.procedures)):
        header = [key, *(f.name for f in dataclasses.fields(cls))]
        tables.append([header, *([name, *(format(v, ".17g") for v in astuple(row))]
                                 for name, row in rows.items())])
    return tuple(tables)


def write_summary_csv(table: SummaryTable, methods_path: str | Path,
                      procedures_path: str | Path) -> None:
    for rows, path in zip(summary_rows(table), (methods_path, procedures_path)):
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)


def summary_json_dict(table: SummaryTable) -> dict:
    """Full replicate dump for auditing: the table's fields in order."""
    return asdict(table)


def write_replicates_json(table: SummaryTable, path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps17(summary_json_dict(table)) + "\n")
