"""Golden corpus of CLI outputs, and the script that records it.

Each case runs one ``pi0cv`` command in-process on an input file generated
here from a fixed seed, and keeps its exit code and stdout.  ``test_golden``
replays every case and compares stdout byte for byte, so a refactor that is
meant to keep behaviour shows any output it changes.

Record the corpus again (only when an output change is intended and
explained) with::

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN_DIR / "manifest.json"


def _mixture(seed: int, m: int, pi0: float = 0.8, s: float = 10.0) -> np.ndarray:
    """pi0 U[0,1] + (1 - pi0) Beta(1, s), in draw order."""
    rng = np.random.default_rng(seed)
    nulls = rng.random(m) < pi0
    u = rng.random(m)
    return np.where(nulls, u, 1.0 - u ** (1.0 / s))


def input_values() -> dict[str, np.ndarray]:
    m1000 = _mixture(3, 1000, s=50.0)
    return {
        "m2": _mixture(1, 2),
        "m3": _mixture(2, 3),
        "m1000": m1000,
        # discrete values, many of them on grid edges k/N
        "m1000_round2": np.round(m1000, 2),
        "m100000": _mixture(4, 100_000),
        # every point inside [0.3, 0.6]: many partitions hold all the mass in
        # one cell, where the risk does not depend on the holdout size
        "m20_narrow": 0.3 + 0.3 * np.random.default_rng(5).random(20),
        # tie-heavy inputs: few distinct values, so many partitions share the
        # same cell counts and tie exactly in risk
        "m1000_round1": np.round(m1000, 1),
        "m50_half": np.full(50, 0.5),
        "m20_zeros_ones": np.repeat([0.0, 1.0], 10),
    }


def cases() -> dict[str, list[str]]:
    """Case name -> argv, with ``{name}`` standing for that input's path."""
    out = {}
    for name in ("m2", "m3", "m1000", "m1000_round2", "m100000"):
        for method in ("lpo", "loo", "ss", "storey"):
            out[f"estimate_{method}_{name}"] = ["estimate", "--input", f"{{{name}}}",
                                                "--method", method]
    for name in ("m1000_round1", "m50_half", "m20_zeros_ones"):
        for method in ("lpo", "loo"):
            out[f"estimate_{method}_{name}"] = ["estimate", "--input", f"{{{name}}}",
                                                "--method", method]
    out["mtp_m1000"] = ["mtp", "--input", "{m1000}", "--alpha", "0.15"]
    out["simulate_beta_tail"] = ["simulate", "--kind", "beta_tail", "--pi0", "0.5",
                                 "--s", "10", "--m", "1000", "--reps", "2", "--seed", "14"]
    for name in ("m20_narrow", "m1000"):
        out[f"risk_debug_all_{name}"] = ["risk-debug", "--input", f"{{{name}}}",
                                         "--all", "--nmax", "10"]
    return out


def write_inputs(directory: Path) -> dict[str, Path]:
    """Write every input file; returns name -> path."""
    paths = {}
    for name, values in input_values().items():
        path = directory / f"{name}.txt"
        path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        paths[name] = path
    return paths


def run_case(argv: list[str], paths: dict[str, Path]) -> tuple[int, str]:
    from pi0cv.cli import main

    argv = [a.format(**{k: str(v) for k, v in paths.items()}) for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def input_digests(paths: dict[str, Path]) -> dict[str, str]:
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}


def record(directory: Path) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    paths = write_inputs(directory)
    manifest = {"inputs": input_digests(paths), "cases": {}}
    for name, argv in cases().items():
        code, out = run_case(argv, paths)
        (GOLDEN_DIR / f"{name}.out").write_text(out)
        manifest["cases"][name] = {"argv": argv, "exit": code}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
