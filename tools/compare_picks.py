"""Compare the picks of ``estimate_pi0`` on two source trees.

Each tree is run in a process of its own, with ``PYTHONPATH`` set to its
``src`` directory, on the same configs: every sample below × lpo and loo ×
se_band 0, 0.25 and 1 × grids (1, 100) and (3, 40), loo run right after lpo
on each sample, as a simulation replicate runs them.  The samples:

* four Beta(1, s) mixture designs at 17 sizes from m = 2 to 1e6; the first
  design rounded to 1, 2 and 3 decimals; uniform, k/60-edge and tied
  samples at each size (170);
* constants 0, 0.5, 1 and 0.123 at m = 2, 10 and 1000; ten 0s and ten 1s;
  {0.25, 0.25, 0.75}; one-cell samples at N = 49 and 98 (16);
* permutation-test lattices ceil(u (B + 1)) / (B + 1) of the first design,
  B = 19, 49 and 99, at m = 1e3, 1e4 and 1e5 (9).

That is 2,340 configs.  The script prints each config whose pick, the
(n_hat, lambda_hat, mu_hat, p_hat) of the estimate or its error, moved, and
the largest relative change of the risk among the configs that did not
move.  It exits 1 when a pick moved.  Run it as::

    python tools/compare_picks.py OLD_TREE NEW_TREE [--samples PATTERN]

``--samples`` keeps the samples whose name matches a shell pattern, such as
``'*_m10'`` or ``'lattice*'``.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SIZES = (2, 3, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000,
         50_000, 100_000, 1_000_000)
DESIGNS = ((0.8, 20.0), (0.5, 10.0), (0.95, 50.0), (0.2, 5.0))     # (pi0, s)
SE_BANDS = (0.0, 0.25, 1.0)
GRIDS = ((1, 100), (3, 40))


def _mixture(rng, m, pi0, s):
    """pi0 U[0, 1] + (1 - pi0) Beta(1, s)."""
    return np.where(rng.random(m) < pi0, rng.random(m), rng.beta(1.0, s, m))


def samples():
    """Sample name -> a function that draws its values, in a fixed order."""
    out = {}
    for m in SIZES:
        for d, (pi0, s) in enumerate(DESIGNS):
            out[f"mix{d}_m{m}"] = lambda m=m, d=d, pi0=pi0, s=s: _mixture(
                np.random.default_rng([d, m]), m, pi0, s)
        for decimals in (1, 2, 3):
            out[f"round{decimals}_m{m}"] = lambda m=m, decimals=decimals: np.round(
                out[f"mix0_m{m}"](), decimals)
        out[f"uniform_m{m}"] = lambda m=m: np.random.default_rng([10, m]).random(m)
        out[f"edges60_m{m}"] = lambda m=m: np.random.default_rng([11, m]).integers(
            0, 61, m) / 60
        # each value drawn twice or more
        out[f"tied_m{m}"] = lambda m=m: np.resize(
            np.random.default_rng([12, m]).random(max(1, m // 3)), m)
    for value in (0.0, 0.5, 1.0, 0.123):
        for m in (2, 10, 1000):
            out[f"const{value}_m{m}"] = lambda m=m, value=value: np.full(m, value)
    out["zeros_ones_m20"] = lambda: np.repeat([0.0, 1.0], 10)
    out["quarters_m3"] = lambda: np.array([0.25, 0.25, 0.75])
    for n in (49, 98):
        # every value inside the cell [17/n, 18/n) of grid n
        out[f"onecell{n}_m1000"] = lambda n=n: (
            17.1 + 0.8 * np.random.default_rng([13, n]).random(1000)) / n
    for b in (19, 49, 99):
        for m in (1_000, 10_000, 100_000):
            out[f"lattice{b}_m{m}"] = lambda m=m, b=b: np.ceil(
                _mixture(np.random.default_rng([14, m]), m, *DESIGNS[0]) * (b + 1)) / (b + 1)
    return out


def emit(pattern: str) -> None:
    """Print one JSON line per config, scored by the ``pi0cv`` on the path."""
    import pi0cv
    from pi0cv import EstimatorConfig, estimate_pi0, load_sample

    print(json.dumps({"tree": str(Path(pi0cv.__file__).resolve().parents[2])}), flush=True)
    for name, draw in samples().items():
        if not fnmatch.fnmatchcase(name, pattern):
            continue
        sample = load_sample(draw())
        for n_min, n_max in GRIDS:
            for se_band in SE_BANDS:
                for method in ("lpo", "loo"):
                    key = f"{name} {method} se_band={se_band} grids={n_min}-{n_max}"
                    cfg = EstimatorConfig(n_min=n_min, n_max=n_max, method=method,
                                          se_band=se_band)
                    try:
                        est = estimate_pi0(sample, cfg)
                    except Exception as exc:    # a refusal is a pick too
                        print(json.dumps({"key": key, "pick": type(exc).__name__,
                                          "risk": None}))
                        continue
                    pick = [est.n_hat, est.lambda_hat, est.mu_hat, est.p_hat]
                    print(json.dumps({"key": key, "pick": pick, "risk": est.risk}))


def run_tree(tree: Path, pattern: str) -> dict:
    """Config key -> (pick, risk), from this script run on ``tree``'s source."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--emit",
                           "--samples", pattern],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{tree}: the run failed\n{proc.stderr}")
    head, *lines = map(json.loads, proc.stdout.splitlines())
    if Path(head["tree"]) != tree:
        raise SystemExit(f"{tree}: imported pi0cv from {head['tree']}")
    return {rec["key"]: (rec["pick"], rec["risk"]) for rec in lines}


def compare(old: dict, new: dict) -> tuple[list[str], float, str | None]:
    """The lines of the moved picks, the largest relative risk change among
    the rest and its config."""
    if old.keys() != new.keys():
        raise SystemExit("the trees scored different configs")
    moved, largest, where = [], 0.0, None
    for key, (pick, risk) in old.items():
        new_pick, new_risk = new[key]
        if pick != new_pick:
            moved.append(f"moved: {key}: {pick} -> {new_pick}")
        elif risk is not None and risk != new_risk:
            change = abs(new_risk - risk) / abs(risk) if risk else math.inf
            if change > largest:
                largest, where = change, key
    return moved, largest, where


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="*", type=Path, help="OLD_TREE NEW_TREE")
    ap.add_argument("--samples", default="*", help="shell pattern of sample names")
    ap.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit:
        emit(args.samples)
        return 0
    if len(args.trees) != 2:
        ap.error("give OLD_TREE and NEW_TREE")
    old, new = (run_tree(tree.resolve(), args.samples) for tree in args.trees)
    if not old:
        ap.error(f"no sample matches {args.samples!r}")
    moved, largest, where = compare(old, new)
    for line in moved:
        print(line)
    print(f"{len(old)} configs, {len(moved)} moved picks")
    print(f"largest relative risk change {largest:.3g}" + (f" ({where})" if where else ""))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
