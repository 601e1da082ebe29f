"""JSON serialisation with fixed 17-significant-digit reals.

Scriptable consumers diff CLI output across runs and implementations, so the
float rendering must be deterministic and lossless; '%.17g' round-trips every
IEEE double.
"""

from __future__ import annotations

import functools
import json

import numpy as np

__all__ = ["dumps17"]


# every record repeats the same few str keys; only str keys are cached, as
# equal keys of other types can render differently (0.0 and -0.0)
@functools.lru_cache(maxsize=1024)
def _str_key(k: str) -> str:
    return json.dumps(k)


def _render(obj) -> str:
    # exact types first: nearly every value of a record is one of these
    kind = type(obj)
    if kind is float or kind is np.float64:
        x = float(obj)
        return format(x, ".17g") if x - x == 0 else "null"
    if kind is int:
        return str(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join([
            f"{_str_key(k) if type(k) is str else json.dumps(str(k))}: {_render(v)}"
            for k, v in obj.items()]) + "}"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x != x or x in (float("inf"), float("-inf")):
            return "null"
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ", ".join(_render(v) for v in seq) + "]"
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def dumps17(obj) -> str:
    return _render(obj)
