"""The benchmark's three workloads, why each exists, and what each should show.

All three are closed loops with one client and no extra threads: the next op
starts only after the previous one completes.  Op ``i`` of a run with seed
``s`` is a pure function of ``(s, i)``, so the same seed gives the same
inputs and outputs, and the program receives only the generated inputs.

study
    One op is one pass over the AC-1 to AC-5 designs at m = 1000, ``STUDY_REPS``
    replicates each, through ``run_scenario`` with a fresh scenario seed per op:
    trunc_beta with lpo and storey; beta_tail at s = 10 with lpo and loo;
    ushape with lpo and storey; beta_tail at s = 25 with lpo.
    Why: ``estimate_pi0`` takes about 97% of the time here.  The partition
    search, the selection and lpo/loo sharing all show their effect in this
    workload, and it stands in for the cost of the acceptance studies.

large_m
    One op is one beta_tail replicate plus one ushape replicate at m = 1e6,
    through ``run_scenario`` with lpo and storey.
    Why: the partition scan does not depend on m, so the O(m) layers dominate:
    generators take about 60-75% of the time, the step-up procedure and error
    metrics about 7%, the estimator about 20-30%.  A change that speeds study
    by sharing lpo/loo work must show no change here; one that adds per-sample
    O(m) work or memory shows here.

cli
    One op is one pass over three requests, each its own ``python -m pi0cv.cli``
    process: ``estimate`` on an m = 1e3 file, ``mtp`` on an m = 1e6 file, and
    ``risk-debug --all --limit CLI_RISK_LINES`` on an m = 1e3 file.  Input files
    come from a pool of ``CLI_POOL`` files per request, written before timing.
    Why: the only workload whose user-visible cost sits outside the estimator:
    interpreter and import start-up, text parsing, JSON output (O(rejections)
    indices for mtp, one record for estimate) and the scalar lpo_risk path.
    study and large_m bypass all of these.

Predicted effects (rough shares from single runs on a 2-CPU machine):

=============================================  ==========================  ====================  ==============================
layer metric                                   should move                 on                    share now
=============================================  ==========================  ====================  ==============================
pi0_estimator.estimate_pi0.{lpo,loo}.self_s    throughput, op_p50_s,       study (~97%);         ~0.10 s lpo, ~0.08 s loo
                                               op_tail_s                   large_m (20-30%)      per call
pi0_estimator.first_call_extra_s,              setup_s; cli op_p50_s       all; cli              0.03-0.05 s; 0.22-0.33 s
cli.startup_s                                                                                    per request
sim_harness.draw_sample.*.self_s               throughput, op_p50_s        large_m (60-75%);     0.16 s beta_tail, 0.31 s
                                                                           study (<1%, none)     ushape at 1e6
mtp.*.self_s                                   op_p50_s                    large_m (~7%); cli    ~25-30 ms per 1e6 replicate
histogram_core.read_pvalue_file.self_s         op_p50_s, throughput        cli only              ~0.95 s per 1e6 file
lpo_risk.partition_diagnostics.self_s,         op_p50_s                    cli only              0.13 ms per partition
lpo_risk.grid_prefix_per_partition
jsonio.dumps17.self_s                          op_p50_s                    cli only              ~0.1 s per ~130k mtp indices
array temporaries at m = 1e6                   peak_rss_mb                 large_m, cli          ~117 MB in-process
=============================================  ==========================  ====================  ==============================
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

import pi0cv.cli
from pi0cv import sim_harness
from pi0cv.histogram_core import enumerate_partitions, load_sample, read_pvalue_file
from pi0cv.jsonio import dumps17
from pi0cv.lpo_risk import partition_diagnostics
from pi0cv.mtp import plugin_mtp, rejected_mask
from pi0cv.pi0_estimator import estimate_json_dict, estimate_pi0
from pi0cv.sim_harness import ScenarioSpec

ALPHA = 0.15
STUDY_REPS = 2
STUDY_DESIGNS = [
    (ScenarioSpec(kind="trunc_beta", pi0=0.9, m=1000, reps=STUDY_REPS, seed=0,
                  s=4.0, lambda_star=0.2), ("lpo", "storey")),
    (ScenarioSpec(kind="beta_tail", pi0=0.5, m=1000, reps=STUDY_REPS, seed=0, s=10.0),
     ("lpo", "loo")),
    (ScenarioSpec(kind="ushape", pi0=0.5, m=1000, reps=STUDY_REPS, seed=0,
                  a=-1.5, b=1.5, sd=0.5), ("lpo", "storey")),
    (ScenarioSpec(kind="beta_tail", pi0=0.7, m=1000, reps=STUDY_REPS, seed=0, s=25.0),
     ("lpo",)),
]
LARGE_M = 1_000_000
LARGE_M_DESIGNS = [
    (ScenarioSpec(kind="beta_tail", pi0=0.5, m=LARGE_M, reps=1, seed=0, s=10.0),
     ("lpo", "storey")),
    (ScenarioSpec(kind="ushape", pi0=0.5, m=LARGE_M, reps=1, seed=0,
                  a=-1.5, b=1.5, sd=0.5), ("lpo", "storey")),
]
CLI_POOL = 2
CLI_RISK_LINES = 1000
CLI_SMALL_M = 1000


class CheckFailed(Exception):
    """An op completed but its output is wrong."""


def op_seed(seed: int, op: int) -> int:
    return int(np.random.SeedSequence([seed, op]).generate_state(1)[0])


class ScenarioWorkload:
    """Replicated studies through ``sim_harness.run_scenario``."""

    unit = "replicates"

    def __init__(self, designs, seed: int):
        self.designs = designs
        self.seed = seed
        self.units_per_op = sum(spec.reps for spec, _ in designs)

    def prepare(self, work: Path) -> None:
        pass

    def run(self, op: int):
        # looked up on the module at call time so a traced run sees its wrapper
        seed = op_seed(self.seed, op)
        return [sim_harness.run_scenario(replace(spec, seed=seed), methods=methods, alpha=ALPHA)
                for spec, methods in self.designs]

    def check(self, op: int, tables) -> list[str]:
        for table in tables:
            spec = table.scenario
            where = f"{spec.kind} op {op}"
            if not table.valid:
                raise CheckFailed(f"{where}: table has failed replicates")
            if len(table.replicates) != spec.reps:
                raise CheckFailed(f"{where}: {len(table.replicates)} replicates, want {spec.reps}")
            for rr in table.replicates:
                if set(rr.pi0_hat) != set(table.methods) or set(rr.fdp) != set(table.procedures):
                    raise CheckFailed(f"{where}: replicate {rr.rep} lacks a method or procedure")
                for method, pi0 in rr.pi0_hat.items():
                    if not (np.isfinite(pi0) and 1.0 / spec.m <= pi0 <= 1.0):
                        raise CheckFailed(f"{where}: {method} pi0 {pi0!r} outside [1/m, 1]")
                for proc in rr.fdp:
                    for label, value in (("FDP", rr.fdp[proc]), ("FNR", rr.fnr[proc])):
                        if not 0.0 <= value <= 1.0:
                            raise CheckFailed(f"{where}: {proc} {label} {value!r} outside [0, 1]")
        return [dumps17(sim_harness.summary_json_dict(table)) for table in tables]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mixture(rng, m: int, pi0: float, s: float) -> np.ndarray:
    """Unsorted p-values: pi0 U[0,1] + (1 - pi0) Beta(1, s), the benchmark's own draw."""
    nulls = rng.random(m) < pi0
    u = rng.random(m)
    return np.where(nulls, u, 1.0 - u ** (1.0 / s))


def _write_pvalues(path: Path, values: np.ndarray) -> None:
    path.write_text("\n".join(map(repr, values.tolist())) + "\n")


class CliWorkload:
    """One ``pi0cv`` process per request, or ``pi0cv.cli.main`` in-process when traced."""

    unit = "requests"
    units_per_op = 3

    def __init__(self, seed: int, env: dict):
        self.seed = seed
        self.env = env
        self.in_process = False
        self.work: Path | None = None
        self.pool: list[dict] = []
        self.child_rss_kb = 0
        self.request_seconds: dict[str, list[float]] = defaultdict(list)

    def prepare(self, work: Path) -> None:
        """Write the input pool and compute every expected output in-process."""
        self.work = work
        rng = np.random.default_rng([self.seed, 7])
        for j in range(CLI_POOL):
            est_path = work / f"estimate_{j}.txt"
            mtp_path = work / f"mtp_{j}.txt"
            risk_path = work / f"risk_{j}.txt"
            _write_pvalues(est_path, _mixture(rng, CLI_SMALL_M, 0.8, 10.0))
            _write_pvalues(mtp_path, _mixture(rng, LARGE_M, 0.6, 10.0))
            _write_pvalues(risk_path, _mixture(rng, CLI_SMALL_M, 0.5, 25.0))

            est = estimate_pi0(load_sample(read_pvalue_file(est_path)))
            raw = read_pvalue_file(mtp_path)
            sample = load_sample(raw)
            result = plugin_mtp(sample, ALPHA, estimate_pi0(sample))
            spot = int(rng.integers(CLI_RISK_LINES))
            spec = next(itertools.islice(enumerate_partitions(1, 100), spot, None))
            risk_line = dumps17(partition_diagnostics(load_sample(read_pvalue_file(risk_path)), spec))
            self.pool.append({
                "estimate": (["estimate", "--input", str(est_path)],
                             dumps17(estimate_json_dict(est)) + "\n"),
                "mtp": (["mtp", "--input", str(mtp_path), "--alpha", repr(ALPHA)],
                        np.nonzero(rejected_mask(raw, result))[0].tolist()),
                "risk": (["risk-debug", "--input", str(risk_path), "--all",
                          "--limit", str(CLI_RISK_LINES)],
                         (spot, risk_line)),
            })

    def _request(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = pi0cv.cli.main(argv)
            return code, buf.getvalue()
        with tempfile.TemporaryFile(dir=self.work) as err, subprocess.Popen(
                [sys.executable, "-m", "pi0cv.cli", *argv], stdout=subprocess.PIPE,
                stderr=err, env=self.env) as proc:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
            if proc.returncode != 0:
                err.seek(0)
                sys.stderr.write(err.read().decode(errors="replace"))
        return proc.returncode, out.decode()

    def run(self, op: int):
        entry = self.pool[op % CLI_POOL]
        replies = []
        for key in ("estimate", "mtp", "risk"):
            start = time.perf_counter()
            replies.append((key, *self._request(entry[key][0])))
            self.request_seconds[key].append(time.perf_counter() - start)
        return replies

    def check(self, op: int, replies) -> list[str]:
        entry = self.pool[op % CLI_POOL]
        for key, code, out in replies:
            if code != 0:
                raise CheckFailed(f"{key} op {op}: exit code {code}")
        (_, _, est_out), (_, _, mtp_out), (_, _, risk_out) = replies
        if est_out != entry["estimate"][1]:
            raise CheckFailed(f"estimate op {op}: stdout differs from the in-process estimate")
        if json.loads(mtp_out)["rejected_indices"] != entry["mtp"][1]:
            raise CheckFailed(f"mtp op {op}: rejected indices differ from rejected_mask")
        spot, line = entry["risk"][1]
        lines = risk_out.split("\n")
        if lines[-1] != "" or len(lines) - 1 != CLI_RISK_LINES:
            raise CheckFailed(f"risk-debug op {op}: {len(lines) - 1} lines, want {CLI_RISK_LINES}")
        if lines[spot] != line:
            raise CheckFailed(f"risk-debug op {op}: line {spot} differs from partition_diagnostics")
        return [est_out, mtp_out, risk_out]

    def peak_rss_mb(self) -> float:
        return self.child_rss_kb / 1024.0


def make(name: str, seed: int, env: dict):
    if name == "study":
        return ScenarioWorkload(STUDY_DESIGNS, seed)
    if name == "large_m":
        return ScenarioWorkload(LARGE_M_DESIGNS, seed)
    return CliWorkload(seed, env)
