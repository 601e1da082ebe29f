"""Run bench/run.py once per seed and summarise each metric's spread.

    python3 bench/prove.py --workloads study,large_m,cli --seeds 1-10 --out runs.json
    python3 bench/prove.py --seeds 1-10 --against bench/baseline.json
    python3 bench/prove.py --trace --seeds 1-3 --out traced.json

For every workload and metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median (the spread), next to the metric's bound from ``BENCHMARK.json``.
Every run lasts ``run_seconds`` from ``BENCHMARK.json``.  Untraced runs mark
a spread above a third of its bound (``wide``, the steadiness target) or above
the bound (``FAIL``).  ``--against`` compares medians with an earlier
``--out`` file of the same run length, flags any that worsened by more than
the bound, and requires equal digests for equal seeds.  The exit code is 1
when a run failed or was incorrect, or a check above failed.

For cli it also prints the median time of each request kind, so that drift
of the machine (all three move together) can be told apart from a change of
the program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    record = json.loads(lines[-2].removeprefix("record: "))
    return {"seed": seed, "wall_s": wall, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "digest": record["digest"], "ops": record["ops"],
            "op_tail_percentile": record.get("op_tail_percentile"),
            "provenance": record["provenance"],
            "request_p50_s": record.get("request_p50_s"),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default="study,large_m,cli")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--against", default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else None
    if earlier and earlier["seconds"] != seconds:
        parser.error(f"{args.against} ran {earlier['seconds']} s per run, not {seconds} s")

    ok = True
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            run = run_once(workload, seed, seconds, args.trace)
            print(f"{workload} seed {seed}: {run['ops']} ops in {run['wall_s']:.1f} s, "
                  f"correct={run['correct']} failed={run['failed']} digest {run['digest'][:16]}",
                  flush=True)
            ok &= run["correct"] and run["failed"] == 0
            runs.append(run)
        summary = summarise(runs)
        if runs[0]["request_p50_s"]:
            print("  request_p50_s medians " + ", ".join(
                f"{kind} {statistics.median(r['request_p50_s'][kind] for r in runs):.4g}"
                for kind in runs[0]["request_p50_s"]))
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        before = earlier["workloads"].get(workload) if earlier else None
        for name, s in summary.items():
            flag = ""
            spec = bounds.get(name)
            if spec and not args.trace and s["spread"] is not None:
                flag = ("FAIL" if s["spread"] > spec["bound"]
                        else "wide" if s["spread"] > spec["bound"] / 3 else "")
                ok &= flag != "FAIL"
            if spec and before:
                old = before["summary"][name]["median"]
                worse = (s["median"] - old) / old
                if spec["better"] == "higher":
                    worse = -worse
                flag += f" vs {old:.6g} ({worse:+.1%} worse)"
                if worse > spec["bound"]:
                    flag += " REGRESSED"
                    ok = False
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.2%}"
            bound = f"/ {spec['bound']:.0%}" if spec else ""
            print(f"  {name:<46} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {spread} {bound} {flag}")
        if before:
            old_digests = {r["seed"]: r["digest"] for r in before["runs"]}
            for run in runs:
                if run["seed"] in old_digests and old_digests[run["seed"]] != run["digest"]:
                    print(f"  digest differs for seed {run['seed']}")
                    ok = False
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
