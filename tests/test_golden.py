"""Replays the golden corpus (see golden_corpus.py) byte for byte."""

import json

import pytest

import golden_corpus

MANIFEST = json.loads(golden_corpus.MANIFEST.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    paths = golden_corpus.write_inputs(tmp_path_factory.mktemp("golden"))
    assert golden_corpus.input_digests(paths) == MANIFEST["inputs"]
    return paths


def test_cases_match_manifest():
    assert golden_corpus.cases() == {name: case["argv"]
                                     for name, case in MANIFEST["cases"].items()}


@pytest.mark.parametrize("name", sorted(MANIFEST["cases"]))
def test_output_unchanged(name, inputs):
    case = MANIFEST["cases"][name]
    code, out = golden_corpus.run_case(case["argv"], inputs)
    assert code == case["exit"]
    assert out == (golden_corpus.GOLDEN_DIR / f"{name}.out").read_text()
