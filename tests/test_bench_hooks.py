"""The benchmark's tracer wraps pi0cv functions by module and attribute name
(``bench/spans.py``, ``TARGETS``); a refactor that renames or drops one of
them must fail here, not only in the benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, attr, *_ in spans.TARGETS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"
