"""Span tracing of pi0cv's public functions, installed from outside the program.

Each target is the module attribute a caller looks up at call time, for
example ``pi0cv.sim_harness.estimate_pi0`` (``run_scenario`` calls it through
its own module globals) or ``pi0cv.lpo_risk.grid_prefix`` (called from
``partition_diagnostics``).  ``Tracer.install`` swaps each attribute for a
wrapper that records a span ``[name, start, end, parent, op, failed]`` in
memory, and ``Tracer.restore`` puts the originals back.  Nothing under
``src/`` changes.  A target may also count something in its result at the
same boundary; a target without a span name only counts.

Span names are ``<layer>.<function>``, with ``estimate_pi0`` split by method
and ``draw_sample`` by scenario kind.  A span's self time is its duration
minus the durations of its direct children; calls nest on one thread, so
children never overlap.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

from pi0cv.pi0_estimator import EstimatorConfig

ROOT = Path(__file__).resolve().parent.parent
_PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
# every span name a target can produce, reported (as zeros when unused) on every workload
SPAN_NAMES = [name.removesuffix(".self_s") for name in _PER_LAYER if name.endswith(".self_s")]


def _estimator_name(args, kwargs):
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg", EstimatorConfig())
    return f"pi0_estimator.estimate_pi0.{cfg.method}"


def _draw_name(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return f"sim_harness.draw_sample.{spec.kind}"


def _rejections(result) -> int:
    return int(result.rejected.size)


# (module, attribute, span name or namer or None for no span, count name, count of a result)
TARGETS = [
    ("pi0cv.cli", "main", "cli.main", None, None),
    ("pi0cv.cli", "read_pvalue_file", "histogram_core.read_pvalue_file",
     "histogram_core.read_pvalue_file.values", len),
    ("pi0cv.cli", "load_sample", "histogram_core.load_sample", None, None),
    ("pi0cv.lpo_risk", "grid_prefix", "histogram_core.grid_prefix", None, None),
    ("pi0cv.cli", "partition_diagnostics", "lpo_risk.partition_diagnostics", None, None),
    ("pi0cv.lpo_risk", "moment_sums", "lpo_risk.moment_sums", None, None),
    ("pi0cv.lpo_risk", "mse_coefficients", "lpo_risk.mse_coefficients", None, None),
    ("pi0cv.lpo_risk", "phi_coefficients", "lpo_risk.phi_coefficients", None, None),
    ("pi0cv.lpo_risk", "select_p", "lpo_risk.select_p", None, None),
    ("pi0cv.cli", "estimate_pi0", _estimator_name, None, None),
    ("pi0cv.sim_harness", "estimate_pi0", _estimator_name, None, None),
    # estimate_pi0 looks _scan up in its module globals; its first result has
    # one entry per partition the scan scored
    ("pi0cv.pi0_estimator", "_scan", None, "pi0_estimator.partitions_scored",
     lambda result: len(result[0])),
    ("pi0cv.cli", "plugin_mtp", "mtp.plugin_mtp", "mtp.rejections", _rejections),
    ("pi0cv.sim_harness", "plugin_mtp", "mtp.plugin_mtp", "mtp.rejections", _rejections),
    ("pi0cv.sim_harness", "bh_procedure", "mtp.bh_procedure", "mtp.rejections", _rejections),
    ("pi0cv.sim_harness", "error_metrics", "mtp.error_metrics", None, None),
    ("pi0cv.cli", "rejected_mask", "mtp.rejected_mask", None, None),
    ("pi0cv.sim_harness", "draw_sample", _draw_name, None, None),
    ("pi0cv.sim_harness", "run_scenario", "sim_harness.run_scenario", None, None),
    ("pi0cv.cli", "dumps17", "jsonio.dumps17", "jsonio.bytes_out",
     lambda result: len(result.encode())),
]

COUNT_NAMES = sorted({count_name for _, _, _, count_name, _ in TARGETS if count_name})


def assert_unwrapped() -> None:
    """Raise unless every target attribute is the program's own function."""
    for module_name, attr, *_ in TARGETS:
        fn = getattr(importlib.import_module(module_name), attr)
        if getattr(fn, "bench_traced", False):
            raise RuntimeError(f"{module_name}.{attr} is still wrapped in an untraced run")


class Tracer:
    """Collects spans and boundary counts for the ops run while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self, op: int) -> None:
        assert_unwrapped()
        self.op = op
        for module_name, attr, name, count_name, count in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count_name, count))

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()
        assert_unwrapped()

    def _wrap(self, fn, name, count_name, count):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[count_name] += count(result)
            return result

        def traced(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args, kwargs), 0.0, 0.0,
                    self._stack[-1] if self._stack else -1, self.op, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts[count_name] += count(result)
            return result

        wrapper = traced if name is not None else counted
        wrapper.__wrapped__ = fn
        wrapper.bench_traced = True
        return wrapper

    def layer_totals(self) -> tuple[dict, dict]:
        """Per span name ``[calls, self_s, errors]``, and per op the time its
        top-level spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, failed in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: [0, 0.0, 0] for name in SPAN_NAMES}
        covered: dict[int, float] = defaultdict(float)
        for i, (name, start, end, parent, op, failed) in enumerate(self.spans):
            row = totals.setdefault(name, [0, 0.0, 0])
            row[0] += 1
            row[1] += end - start - child[i]
            row[2] += int(failed)
            if parent < 0:
                covered[op] += end - start
        return totals, covered

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, failed in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "error": failed}) + "\n")
