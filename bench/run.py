"""Layered benchmark for pi0cv: runs one workload and prints its metrics.

    python3 bench/run.py --workload study --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Workloads are defined in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:

    setup_s      median wall time of PROBE_RUNS fresh interpreters that import pi0cv
                 and make the first estimate_pi0 call (which builds the search tables),
                 about half started before the timed ops and the rest after
    throughput   replicates/s (study, large_m) or requests/s (cli), over op time
    op_p50_s     median op time
    op_tail_s    the highest percentile with at least ten ops beyond it; the
                 percentile and op count are printed beside it
    peak_rss_mb  peak RSS of the workload process; for cli, of its pi0cv children

``--trace 1`` runs every op twice, untraced and traced, alternating which goes
first, and reports per-layer metrics from the traced copies (see
``spans.py``), per op unless the unit says otherwise, plus ``other_s`` (op time
no top-level span covers) and ``trace_overhead_ratio`` (traced over untraced op
time).  ``pi0_estimator.first_call_extra_s`` is the median, over the set-up
interpreters, of the first estimate_pi0 call's time minus the second's, and
``cli.startup_s`` the median time of PROBE_RUNS bare ``import pi0cv.cli``.  In a traced cli run both copies drive ``pi0cv.cli.main`` in-process.
Spans are written to ``.bench_work/spans-<workload>-seed<seed>.jsonl``.

An op fails when it raises or its output check fails; in a traced run also
when its traced and untraced outputs differ.  ``fail_ratio`` is printed with
the metrics.  The digest is a sha256 of the outputs of the first
``DIGEST_OPS`` ops, which every run makes, so one seed always gives one digest.

For cli the record also holds ``request_p50_s``, the median time of each
request kind.  It is not gated: it shows which request a change moved, and
whether all three moved together, as they do when the machine's speed drifts.

stdout ends with a ``record:`` line (provenance, digest, all figures) and a
last line ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("study", "large_m", "cli")
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
PROBE_RUNS = 9
DIGEST_OPS = 3
# after "ready" it prints how much longer the first call took than a second one
SETUP_CODE = """\
import time
import numpy as np
from pi0cv import estimate_pi0, load_sample
sample = load_sample(np.random.default_rng({seed}).random(1000))
start = time.perf_counter()
estimate_pi0(sample)
first = time.perf_counter() - start
print("ready", flush=True)
start = time.perf_counter()
estimate_pi0(sample)
print(first - (time.perf_counter() - start), flush=True)
"""
STARTUP_CODE = 'import pi0cv.cli\nprint("ready", flush=True)\n'


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)


def child_probes(code: str, runs: int) -> list[tuple[float, str]]:
    """For each of ``runs`` fresh interpreters running ``code``: the wall time
    until it prints its first ``ready``, and its last line."""
    probes = []
    for _ in range(runs):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=child_env()) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - start
            probes.append((seconds, (line + proc.stdout.read()).decode().splitlines()[-1]))
        if proc.returncode != 0 or line != b"ready\n":
            raise RuntimeError(f"probe interpreter failed (exit {proc.returncode}): {code!r}")
    return probes


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def provenance(seed: int, numpy_version: str) -> dict:
    def git(*args):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, env=env,
                                  capture_output=True, text=True)
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


@dataclass
class Op:
    seconds: float
    outputs: list[str] | None
    error: str | None


def timed_op(workload, op: int, tracer, spans, check_failed) -> Op:
    if tracer is not None:
        tracer.install(op)
    else:
        spans.assert_unwrapped()
    result = error = outputs = None
    start = time.perf_counter()
    try:
        result = workload.run(op)
    except Exception as exc:  # noqa: BLE001 - a failing op is a measured outcome
        error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    if error is None:
        try:
            outputs = workload.check(op, result)
        except check_failed as exc:
            error = str(exc)
    if error is not None:
        sys.stderr.write(f"bench: op {op} failed: {error}\n")
    return Op(seconds, outputs, error)


def digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops[:DIGEST_OPS]:
        for text in op.outputs or ["<failed>"]:
            h.update(text.encode())
            h.update(b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "pi0cv" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no pi0cv sources under {SRC}\n")
        return 2

    # on SIGTERM, unwind so that children are waited for and the work directory goes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # capped before numpy loads, here and in every child
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import pi0cv
    if Path(pi0cv.__file__).resolve().parent != (SRC / "pi0cv").resolve():
        sys.stderr.write(f"bench: pi0cv imported from {pi0cv.__file__}, not {SRC}\n")
        return 2
    import spans
    import workloads

    setup_code = SETUP_CODE.format(seed=args.seed)
    setup = child_probes(setup_code, PROBE_RUNS // 2 + 1)
    # the search tables are built before timing starts, as in every probe
    pi0cv.estimate_pi0(pi0cv.load_sample(np.random.default_rng(args.seed).random(1000)))

    workload = workloads.make(args.workload, args.seed, child_env())
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    tracer = spans.Tracer() if args.trace else None
    pairs: list[tuple[Op, Op]] = []
    ops: list[Op] = []
    try:
        workload.prepare(work)
        if tracer is not None:
            workload.in_process = True
        start = time.perf_counter()
        n = 0
        while n < DIGEST_OPS or time.perf_counter() - start < args.seconds:
            if tracer is None:
                ops.append(timed_op(workload, n, None, spans, workloads.CheckFailed))
            else:
                order = (None, tracer) if n % 2 == 0 else (tracer, None)
                done = {t is None: timed_op(workload, n, t, spans, workloads.CheckFailed)
                        for t in order}
                plain, traced = done[True], done[False]
                if plain.error is None and traced.error is None and plain.outputs != traced.outputs:
                    traced.error = "traced and untraced outputs differ"
                    sys.stderr.write(f"bench: op {n} failed: {traced.error}\n")
                pairs.append((plain, traced))
                ops.append(Op(plain.seconds, plain.outputs, plain.error or traced.error))
            n += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spans.assert_unwrapped()
    # the machine's speed comes and goes in spells of seconds, so the set-up
    # probes are split around the timed ops rather than taken in one spell
    setup += child_probes(setup_code, PROBE_RUNS // 2)
    setup_s = statistics.median(seconds for seconds, _ in setup)

    failed = sum(op.error is not None for op in ops)
    times = [op.seconds for op in ops]
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": provenance(args.seed, np.__version__), "digest": digest(ops),
              "ops": len(ops), "failed": failed, "fail_ratio": failed / len(ops)}
    if tracer is None:
        tail_s, tail_pct = tail(times)
        record.update(op_tail_percentile=tail_pct, unit=f"{workload.unit}/s", op_seconds=times)
        if hasattr(workload, "request_seconds"):
            record["request_p50_s"] = {kind: statistics.median(seconds)
                                       for kind, seconds in workload.request_seconds.items()}
        metrics = {
            "setup_s": setup_s,
            "throughput": workload.units_per_op * len(ops) / sum(times),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_s,
            "peak_rss_mb": workload.peak_rss_mb(),
        }
    else:
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = layer_metrics(tracer, pairs, spans)
        metrics["pi0_estimator.first_call_extra_s"] = statistics.median(
            float(last) for _, last in setup)
        metrics["cli.startup_s"] = statistics.median(
            seconds for seconds, _ in child_probes(STARTUP_CODE, PROBE_RUNS))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json")
    record["metrics"] = metrics
    print(f"bench {args.workload} seed={args.seed} trace={args.trace}: {len(ops)} ops, "
          f"{failed} failed, digest {record['digest'][:16]}")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:.6g} {units[name]}")
    print(f"  {'fail_ratio':<48} {record['fail_ratio']:.6g} ratio")
    if tracer is None:
        print(f"  (throughput in {record['unit']}; op_tail_s is p{record['op_tail_percentile']:.1f}"
              f" of {len(ops)} ops)")
    print("record: " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


def layer_metrics(tracer, pairs, spans) -> dict:
    n = len(pairs)
    totals, covered = tracer.layer_totals()
    metrics = {}
    for name in spans.SPAN_NAMES:
        calls, self_s, errors = totals[name]
        metrics.update({f"{name}.calls": calls / n, f"{name}.self_s": self_s / n,
                        f"{name}.errors": errors / n})
    for name in spans.COUNT_NAMES:
        metrics[name] = tracer.counts[name] / n
    diagnostics = totals["lpo_risk.partition_diagnostics"][0]
    metrics["lpo_risk.grid_prefix_per_partition"] = (
        totals["histogram_core.grid_prefix"][0] / diagnostics if diagnostics else 0.0)
    metrics["other_s"] = sum(traced.seconds - covered[op]
                             for op, (_, traced) in enumerate(pairs)) / n
    metrics["trace_overhead_ratio"] = (sum(traced.seconds for _, traced in pairs)
                                       / sum(plain.seconds for plain, _ in pairs))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
