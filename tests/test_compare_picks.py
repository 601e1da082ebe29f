"""Smoke tests of ``tools/compare_picks.py``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_picks.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_picks", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_against_itself_moves_nothing():
    # mixtures, rounded, tied, constant, one-cell and lattice samples at m = 1000
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT),
                           "--samples", "*_m1000"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["228 configs, 0 moved picks",
                                        "largest relative risk change 0"]


def test_compare_reports_moved_picks_and_the_largest_risk_change():
    old = {"a": ([10, 0.1, 0.5, 1], -1.0), "b": ([5, 0.2, 0.4, 3], -2.0),
           "c": ("DegenerateSelection", None)}
    new = {"a": ([10, 0.1, 0.5, 1], -1.0 - 2.0 ** -52), "b": ([5, 0.2, 0.6, 3], -2.0),
           "c": ("DegenerateSelection", None)}
    moved, largest, where = _tool().compare(old, new)
    assert moved == ["moved: b: [5, 0.2, 0.4, 3] -> [5, 0.2, 0.6, 3]"]
    assert (largest, where) == (2.0 ** -52, "a")


def test_samples_cover_the_documented_set():
    names = list(_tool().samples())
    assert len(names) == 195
    assert {f"lattice{b}_m{m}" for b in (19, 49, 99) for m in (1000, 10_000, 100_000)} \
        <= set(names)
