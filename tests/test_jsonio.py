import json
import math
import warnings

import numpy as np
import pytest

from pi0cv.jsonio import dumps17


class TestDumps17:
    def test_roundtrips_nested_structures(self):
        payload = {
            "a": 0.1 + 0.2,
            "b": [1, 2.5, None, True, False],
            "c": {"nested": 1 / 3, "text": "x\"y"},
            "d": (4, 5),
        }
        loaded = json.loads(dumps17(payload))
        assert loaded["a"] == 0.1 + 0.2
        assert loaded["b"] == [1, 2.5, None, True, False]
        assert loaded["c"]["nested"] == 1 / 3
        assert loaded["c"]["text"] == 'x"y'
        assert loaded["d"] == [4, 5]

    def test_seventeen_digits_restore_doubles_exactly(self):
        rng = np.random.default_rng(0)
        for x in rng.random(200):
            assert json.loads(dumps17(float(x))) == x

    def test_numpy_scalars_and_arrays(self):
        out = json.loads(dumps17({"i": np.int64(3), "f": np.float64(0.25),
                                  "arr": np.array([1.5, 2.5]), "flag": np.bool_(True)}))
        assert out == {"i": 3, "f": 0.25, "arr": [1.5, 2.5], "flag": True}

    def test_non_finite_becomes_null(self):
        assert dumps17(float("nan")) == "null"
        assert dumps17(float("inf")) == "null"

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps17(object())

    def test_integers_stay_integers(self):
        assert dumps17({"k": 171700}) == '{"k": 171700}'

    def test_known_rendering(self):
        assert dumps17(3 / (5 * 0.7)) == format(3 / (5 * 0.7), ".17g")
        assert not math.isnan(json.loads(dumps17(1e-300)))

    @pytest.mark.parametrize("dtype", [np.int64, np.intp, np.int32, np.uint8])
    def test_integer_arrays(self, dtype):
        assert dumps17(np.array([0, 7, 200], dtype=dtype)) == "[0, 7, 200]"
        assert dumps17({"i": np.arange(3, dtype=dtype) + 1}) == '{"i": [1, 2, 3]}'

    def test_large_integers_stay_exact(self):
        assert dumps17(np.array([2**62 + 1])) == f"[{2**62 + 1}]"

    def test_empty_integer_array(self):
        assert dumps17(np.array([], dtype=np.intp)) == "[]"

    def test_float_and_bool_arrays_render_element_wise(self):
        assert dumps17(np.array([0.1, np.nan, -np.inf, 2.0])) == "[0.10000000000000001, null, null, 2]"
        assert dumps17(np.array([True, False])) == "[true, false]"

    def test_numpy_non_finite_scalars_are_null_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dumps17([np.float64("inf"), np.float64("nan"), np.float64(-0.0)]) == "[null, null, -0]"

    def test_keys_render_by_type(self):
        # equal keys can render differently, so a key cache must tell them apart
        assert dumps17({1: 0}) == '{"1": 0}'
        assert dumps17({True: 0}) == '{"True": 0}'
        assert dumps17({1: 0}) == '{"1": 0}'
        assert dumps17({0.0: 0}) == '{"0.0": 0}'
        assert dumps17({-0.0: 0}) == '{"-0.0": 0}'
        assert dumps17({1.0: 0, "a\"b": 1}) == '{"1.0": 0, "a\\"b": 1}'
