import csv
import gzip
import math
from pathlib import Path

import numpy as np
import pytest

from pi0cv import histogram_core
from pi0cv.errors import (
    EmptyInput,
    InputError,
    InvalidRange,
    InvalidSample,
    MismatchedResolution,
    NonFinite,
    OutOfRange,
    TooFewValues,
)
from pi0cv.histogram_core import (
    PartitionSpec,
    PValueSample,
    bin_counts,
    enumerate_partitions,
    grid_prefix,
    load_sample,
    partition_count,
    read_pvalue_file,
)

from reference import cell_edges, histogram_heights, line_by_line_outcome


class TestLoadSample:
    def test_sorts_input(self):
        s = load_sample([0.9, 0.1, 0.5])
        assert s.m == 3
        assert np.array_equal(s.values, [0.1, 0.5, 0.9])

    def test_single_value_too_few(self):
        with pytest.raises(TooFewValues):
            load_sample([0.5])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            load_sample([])

    def test_out_of_range_reports_position_and_value(self):
        with pytest.raises(OutOfRange) as exc:
            load_sample([0.1, 1.2])
        assert exc.value.index == 1
        assert exc.value.value == 1.2

    def test_non_finite(self):
        with pytest.raises(NonFinite) as exc:
            load_sample([0.1, float("nan"), 0.3])
        assert exc.value.index == 1

    def test_values_immutable(self):
        s = load_sample([0.2, 0.4])
        with pytest.raises(ValueError):
            s.values[0] = 0.0


class TestPValueSampleContract:
    @pytest.mark.parametrize("values, m", [
        ([math.nan, 0.2, 0.4], 3), ([0.2, math.nan, 0.4], 3), ([0.2, 0.4, math.nan], 3),
        ([-math.inf, 0.2, 0.4], 3), ([0.2, math.inf, 0.4], 3), ([0.2, 0.4, math.inf], 3),
        ([-0.1, 0.4], 2), ([0.2, 1.5], 2),
        ([0.4, 0.2], 2), ([0.2, 0.6, 0.4], 3),
        ([0.2, 0.4], 3), ([0.2, 0.4, 0.6], 2), ([0.5], 1), ([], 0), ([[0.2, 0.4]], 2),
    ], ids=["nan_first", "nan_middle", "nan_last", "minus_inf", "inf_middle", "inf_last",
            "below_0", "above_1", "descending", "unsorted", "m_too_large", "m_too_small",
            "one_value", "empty", "two_dimensional"])
    def test_direct_construction_is_checked(self, values, m):
        with pytest.raises(InvalidSample):
            PValueSample(values=np.array(values, dtype=float), m=m)

    def test_is_an_input_error(self):
        assert issubclass(InvalidSample, InputError)

    def test_ties_zeros_and_ones_are_valid(self):
        s = PValueSample(values=np.array([-0.0, 0.0, 0.5, 0.5, 1.0]), m=5)
        assert s.m == 5

    def test_load_sample_cites_the_position_first(self):
        with pytest.raises(NonFinite) as exc:
            load_sample([0.4, 0.2, math.nan])
        assert exc.value.index == 2


class TestPartitionSpec:
    def test_derived_quantities(self):
        spec = PartitionSpec(10, 2, 7)
        assert spec.dimension == 2 + 1 + 3
        assert spec.lam == 0.2
        assert spec.mu == 0.7
        widths = spec.widths()
        assert widths[2] == 0.5
        assert abs(widths.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("n,k,l", [(0, 0, 1), (4, 3, 3), (4, -1, 2), (4, 2, 5)])
    def test_rejects_bad_triples(self, n, k, l):
        with pytest.raises(InvalidRange):
            PartitionSpec(n, k, l)


class TestEnumeratePartitions:
    def test_single_resolution_one(self):
        assert list(enumerate_partitions(1, 1)) == [PartitionSpec(1, 0, 1)]

    def test_resolution_two(self):
        specs = list(enumerate_partitions(2, 2))
        assert specs == [PartitionSpec(2, 0, 1), PartitionSpec(2, 0, 2), PartitionSpec(2, 1, 2)]
        assert len(specs) == 2 * 3 // 2

    def test_full_default_family_size(self):
        # closed form: sum of N(N+1)/2 for N = 1..100
        assert partition_count(1, 100) == 171_700
        stream = sum(1 for _ in enumerate_partitions(1, 100))
        assert stream == 171_700

    def test_partition_count_equals_the_enumeration(self):
        for a in range(1, 13):
            for b in range(a, 13):
                assert partition_count(a, b) == sum(1 for _ in enumerate_partitions(a, b))

    def test_partition_count_rejects_invalid_ranges(self):
        for a, b in ((0, 5), (5, 3), (-1, -1)):
            with pytest.raises(InvalidRange):
                partition_count(a, b)

    def test_per_resolution_count(self):
        for n in (1, 2, 5, 9):
            assert sum(1 for _ in enumerate_partitions(n, n)) == n * (n + 1) // 2

    def test_invalid_ranges(self):
        with pytest.raises(InvalidRange):
            list(enumerate_partitions(0, 5))
        with pytest.raises(InvalidRange, match=r"^need 1 <= n_min <= n_max, got \(5, 3\)$"):
            list(enumerate_partitions(5, 3))
        with pytest.raises(InvalidRange, match=r"^need 1 <= n_min <= n_max, got \(5, 3\)$"):
            partition_count(5, 3)


class TestGridPrefix:
    def test_half_open_convention(self):
        s = load_sample([0.1, 0.5, 0.9])
        # 0.5 falls in the upper cell: strictly-below counts at the midpoint edge
        assert np.array_equal(grid_prefix(s, 2).cum, [0, 1, 3])

    def test_right_closed_last_cell(self):
        s = load_sample([1.0, 1.0])
        assert np.array_equal(grid_prefix(s, 4).cum, [0, 0, 0, 0, 2])

    def test_single_cell(self):
        s = load_sample([0.3, 0.6, 0.6, 0.99])
        assert np.array_equal(grid_prefix(s, 1).cum, [0, 4])


class TestBinCounts:
    def test_whole_interval(self):
        s = load_sample([0.1, 0.5, 0.9])
        counts = bin_counts(grid_prefix(s, 2), PartitionSpec(2, 0, 2))
        assert np.array_equal(counts.counts, [3])

    def test_lower_central_cell(self):
        s = load_sample([0.1, 0.5, 0.9])
        counts = bin_counts(grid_prefix(s, 2), PartitionSpec(2, 0, 1))
        assert np.array_equal(counts.counts, [1, 2])

    def test_three_cells(self):
        s = load_sample([0.1, 0.3, 0.6, 0.9])
        counts = bin_counts(grid_prefix(s, 4), PartitionSpec(4, 1, 3))
        assert np.array_equal(counts.counts, [1, 2, 1])

    def test_resolution_mismatch(self):
        s = load_sample([0.1, 0.9])
        with pytest.raises(MismatchedResolution):
            bin_counts(grid_prefix(s, 3), PartitionSpec(4, 1, 3))


class TestHistogramHeights:
    def test_uniform_single_cell(self):
        s = load_sample([0.1, 0.5, 0.9])
        spec = PartitionSpec(2, 0, 2)
        h = histogram_heights(bin_counts(grid_prefix(s, 2), spec), spec)
        assert np.array_equal(h, [1.0])

    def test_two_cells(self):
        s = load_sample([0.1, 0.5, 0.9])
        spec = PartitionSpec(2, 0, 1)
        h = histogram_heights(bin_counts(grid_prefix(s, 2), spec), spec)
        assert np.allclose(h, [2 / 3, 4 / 3], rtol=0, atol=1e-15)

    def test_empty_cell_allowed(self):
        s = load_sample([0.6, 0.7, 0.8, 0.9])
        spec = PartitionSpec(2, 0, 1)
        h = histogram_heights(bin_counts(grid_prefix(s, 2), spec), spec)
        assert np.array_equal(h, [0.0, 2.0])


def _random_case(rng):
    m = int(rng.integers(2, 60))
    values = rng.random(m)
    if rng.random() < 0.1:
        values[rng.integers(0, m)] = 1.0  # exercise the right-closed edge
    sample = load_sample(values)
    n = int(rng.integers(1, 13))
    k = int(rng.integers(0, n))
    l = int(rng.integers(k + 1, n + 1))
    return sample, PartitionSpec(n, k, l)


def test_prefix_counts_match_direct_scan():
    # exact integer agreement between the prefix route and an O(m) scan
    rng = np.random.default_rng(0)
    for _ in range(1000):
        sample, spec = _random_case(rng)
        counts = bin_counts(grid_prefix(sample, spec.n), spec)
        edges = cell_edges(spec)
        direct = np.zeros(spec.dimension, dtype=int)
        for v in sample.values:
            j = int(np.searchsorted(edges, v, side="right")) - 1
            j = min(j, spec.dimension - 1)  # v == 1 joins the last cell
            direct[j] += 1
        assert np.array_equal(counts.counts, direct)
        assert counts.counts.sum() == sample.m


def test_histogram_integrates_to_one():
    rng = np.random.default_rng(1)
    for _ in range(300):
        sample, spec = _random_case(rng)
        h = histogram_heights(bin_counts(grid_prefix(sample, spec.n), spec), spec)
        assert abs(float(h @ spec.widths()) - 1.0) < 1e-12


class TestReadPvalueFile:
    def test_plain_text_with_comments(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("# header\n0.5\n\n0.1\n# tail comment\n0.9\n")
        assert np.array_equal(read_pvalue_file(f), [0.5, 0.1, 0.9])

    def test_error_cites_line_number(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0.5\n0.2\n1.5\n")
        with pytest.raises(InputError, match=r":3"):
            read_pvalue_file(f)

    def test_csv_column(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("gene,pval\ng1,0.4\ng2,0.6\n")
        assert np.array_equal(read_pvalue_file(f, column="pval"), [0.4, 0.6])

    def test_csv_missing_column(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(InputError, match="no column"):
            read_pvalue_file(f, column="pval")

    @pytest.mark.parametrize("text, message", [
        ("abc", "not a number: 'abc'"),
        ("nan", "non-finite value"),
        ("inf", "non-finite value"),
        ("-inf", "non-finite value"),
        ("1.5", "p-value out of [0, 1]: 1.5"),
        ("-0.1", "p-value out of [0, 1]: -0.1"),
    ])
    def test_csv_value_errors_cite_file_line(self, tmp_path, text, message):
        # line 1 is the header, so the bad value on the third line is line 3
        f = tmp_path / "p.csv"
        f.write_text(f"gene,pval\ng1,0.4\ng2,{text}\ng3,0.6\n")
        with pytest.raises(InputError) as info:
            read_pvalue_file(f, column="pval")
        assert str(info.value) == f"{f}:3: {message}"

    def test_csv_errors_cite_physical_line(self, tmp_path):
        # the quoted gene name spans lines 2 and 3, so the bad value is on line 4
        f = tmp_path / "p.csv"
        f.write_text('gene,pval\n"a\nb",0.5\ng2,1.5\n')
        with pytest.raises(InputError) as info:
            read_pvalue_file(f, column="pval")
        assert str(info.value) == f"{f}:4: p-value out of [0, 1]: 1.5"

    def test_csv_errors_count_blank_rows(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("gene,pval\ng1,0.4\n\ng2,x\n")
        with pytest.raises(InputError) as info:
            read_pvalue_file(f, column="pval")
        assert str(info.value) == f"{f}:4: not a number: 'x'"

    def test_csv_repeated_column_name_reads_the_last(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("pval,gene,pval\n0.9,g1,0.4\n0.8,g2,0.6\n")
        assert np.array_equal(read_pvalue_file(f, column="pval"), [0.4, 0.6])

    def test_csv_short_row_is_skipped(self, tmp_path):
        # g2's row ends before the column, so it reads as blank
        f = tmp_path / "p.csv"
        f.write_text("gene,pval\ng1,0.4\ng2\ng3,0.6\ng4,x\n")
        with pytest.raises(InputError) as info:
            read_pvalue_file(f, column="pval")
        assert str(info.value) == f"{f}:5: not a number: 'x'"
        f.write_text("gene,pval\ng1,0.4\ng2\ng3,0.6\n")
        assert np.array_equal(read_pvalue_file(f, column="pval"), [0.4, 0.6])

    def test_csv_quoted_value_spanning_two_lines(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text('gene,pval\ng1,"0.4\n"\ng2,"1.5\n"\n')
        with pytest.raises(InputError) as info:
            read_pvalue_file(f, column="pval")
        assert str(info.value) == f"{f}:5: p-value out of [0, 1]: 1.5"
        f.write_text('gene,pval\ng1,"0.4\n"\ng2,0.6\n')
        assert np.array_equal(read_pvalue_file(f, column="pval"), [0.4, 0.6])

    def test_plain_text_not_utf8_cites_line(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_bytes(b"0.1\r0.2\r\n\xe9\n0.3\n")
        with pytest.raises(InputError) as info:
            read_pvalue_file(f)
        assert str(info.value) == f"{f}:3: not valid UTF-8"

    def test_csv_not_utf8_cites_line(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_bytes(b"gene,pval\ng1,0.4\ng\xe9,0.5\n")
        with pytest.raises(InputError) as info:
            read_pvalue_file(f, column="pval")
        assert str(info.value) == f"{f}:3: not valid UTF-8"


def _outcome(path):
    """The reader's values as float.hex, or its error's type and message."""
    try:
        return [v.hex() for v in read_pvalue_file(path).tolist()]
    except InputError as exc:
        return type(exc).__name__, str(exc)


def _loop_outcome(path):
    """``_outcome`` with every plain-text line sent through the wording loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(histogram_core, "_read_plain", lambda path, fh: histogram_core._parse_rows(
            path, enumerate(fh, start=1), comments=True))
        return _outcome(path)


def _loop_rows(monkeypatch):
    """The list that collects every (line number, text) row the wording loop is given."""
    seen = []
    parse = histogram_core._parse_rows

    def spy(path, rows, comments):
        rows = list(rows)
        seen.extend(rows)
        return parse(path, rows, comments)

    monkeypatch.setattr(histogram_core, "_parse_rows", spy)
    return seen


# inputs on which the block parse and the line-by-line loop could part ways
PLAIN_TEXT_CORPUS = {
    "crlf": b"0.1\r\n0.2\r\n",
    "lone_cr": b"0.1\r0.2\r",
    "no_final_newline": b"0.1\n0.2",
    "space_padding": b" 0.5 \n0.2\n",
    "nbsp_padding": "\xa00.5\xa0\n0.2\n".encode(),
    "whitespace_only_line": b"0.1\n  \t \n0.2\n",
    "blank_last_line": b"0.1\n0.2\n\n",
    "comments": b"# header\n0.1\n0.2\n# tail\n",
    "header_only": "# header\n\n \xa0\n  # second\n0.1\n0.2\n".encode(),
    "trailing_comment": b"0.1 # c\n",
    "underscore": b"1_000\n",
    "underscore_in_range": b"0.000_5\n0.2\n",
    "hex": b"0x1p-3\n",
    "plus_point": b"+.5\n0.2\n",
    "trailing_point": b"1.\n0.\n",
    "minus_zero": b"-0\n0.5\n",
    "subnormal": b"4.9e-324\n0.5\n",
    "overflow": b"1e400\n",
    "nan": b"0.5\nnan\n",
    "minus_nan": b"-nan\n",
    "infinity": b"Infinity\n",
    "fullwidth_digit": "\uff10.5\n0.2\n".encode(),
    "bom": b"\xef\xbb\xbf0.5\n0.2\n",
    "later_bom": b"0.5\n\xef\xbb\xbf0.2\n",
    "nul": b"0.5\x00\n0.2\n",
    "quoted": b'"0.5"\n',
    "two_values_space": b"0.1 0.2\n",
    "two_values_tab": b"0.1\t0.2\n",
    "two_values_comma_two_lines": b"0.1,0.2\n0.3,0.4\n",
    "two_values_comma_one_line": b"0.1,0.2\n",
    "trailing_comma": b"0.1,\n",
    "negative": b"0.5\n-0.1\n",
    "above_one": b"1.5\n",
    "empty": b"",
    "only_blank_lines": b"\n\n\n",
    "plain": b"0\n1\n0.25\n1e-300\n0.1234567890123456789\n",
}


def _dictreader_outcome(path, column):
    """CSV mode as ``csv.DictReader`` reads it, values as float.hex or the
    error's type and message: the reference for the reader's own loop.  It
    decodes as the reader does, past a leading byte-order mark."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or column not in reader.fieldnames:
            return "InputError", f"{path}: no column named {column!r}"
        out = []
        for row in reader:
            text = (row[column] or "").strip()
            if not text:
                continue
            try:
                val = float(text)
            except ValueError:
                return "InputError", f"{path}:{reader.line_num}: not a number: {text!r}"
            if not math.isfinite(val):
                return "InputError", f"{path}:{reader.line_num}: non-finite value"
            if not 0.0 <= val <= 1.0:
                return "InputError", f"{path}:{reader.line_num}: p-value out of [0, 1]: {val!r}"
            out.append(val.hex())
        return out


# inputs on which csv.reader and csv.DictReader could part ways
CSV_CORPUS = {
    "plain": b"gene,pval\ng1,0.4\ng2,0.6\n",
    "first_column": b"pval,gene\n0.4,g1\n0.6,g2\n",
    "repeated_name": b"pval,gene,pval\n0.9,g1,0.4\n0.8,g2,0.6\n",
    "repeated_name_short_row": b"pval,gene,pval\n0.9,g1,0.4\n0.8\n0.7,g3\n0.1,g4,x\n",
    "short_row": b"gene,pval\ng1\ng2,0.6\n",
    "long_row": b"gene,pval\ng1,0.4,extra,more\ng2,0.6\n",
    "blank_rows": b"gene,pval\n\ng1,0.4\n\n\ng2,x\n",
    "whitespace_row": b"pval\n  \n0.4\n",
    "empty_field": b"gene,pval\ng1,\ng2,0.6\n",
    "quoted_value_two_lines": b'gene,pval\ng1,"0.4\n"\ng2,"1.5\n"\n',
    "quoted_name_two_lines": b'gene,pval\n"a\nb",0.5\ng2,1.5\n',
    "quoted_header": b'"gene","pval"\ng1,0.4\n',
    "crlf": b"gene,pval\r\ng1,0.4\r\ng2,nan\r\n",
    "header_only": b"gene,pval\n",
    "empty": b"",
    "blank_first_line": b"\ngene,pval\ng1,0.4\n",
    "bom": b"\xef\xbb\xbfpval\n0.4\n",
    "later_bom": b"pval\n0.4\n\xef\xbb\xbf0.5\n",
    "no_such_column": b"a,b\n1,2\n",
}


class TestCsvReader:
    @pytest.mark.parametrize("name", sorted(CSV_CORPUS))
    def test_same_values_and_errors_as_dictreader(self, tmp_path, name):
        f = tmp_path / "p.csv"
        f.write_bytes(CSV_CORPUS[name])
        try:
            got = [v.hex() for v in read_pvalue_file(f, column="pval").tolist()]
        except InputError as exc:
            got = type(exc).__name__, str(exc)
        assert got == _dictreader_outcome(f, "pval")


class TestBulkParse:
    @pytest.mark.parametrize("name", sorted(PLAIN_TEXT_CORPUS))
    def test_same_values_and_errors_as_the_loop(self, tmp_path, name):
        f = tmp_path / "p.txt"
        f.write_bytes(PLAIN_TEXT_CORPUS[name])
        assert _outcome(f) == _loop_outcome(f)

    def test_one_line_of_two_values_is_refused(self, tmp_path):
        # a one-dimensional bulk result would read this line as two values
        f = tmp_path / "p.txt"
        f.write_text("0.1,0.2\n")
        assert _outcome(f) == ("InputError", f"{f}:1: not a number: '0.1,0.2'")

    def test_plain_values_take_the_bulk_path(self, tmp_path, monkeypatch):
        # a block of in-range values never reaches the loop, any other block does
        seen = _loop_rows(monkeypatch)
        f = tmp_path / "p.txt"
        for name in ("plain", "empty"):
            f.write_bytes(PLAIN_TEXT_CORPUS[name])
            read_pvalue_file(f)
            assert seen == [], name
        for name in ("header_only", "comments", "two_values_comma_one_line", "negative"):
            f.write_bytes(PLAIN_TEXT_CORPUS[name])
            seen.clear()
            _outcome(f)
            assert seen[0][0] == 1, name
        # a block ends once it holds more than three characters: one line each here
        monkeypatch.setattr(histogram_core, "_BLOCK_CHARS", 3)
        f.write_bytes(b"0.1\n0.2\n# c\n0.3\n0.4\n")
        seen.clear()
        assert read_pvalue_file(f).tolist() == [0.1, 0.2, 0.3, 0.4]
        assert seen == [(3, "# c\n")]

    @pytest.mark.parametrize("block", [1, 4])
    @pytest.mark.parametrize("name", sorted(PLAIN_TEXT_CORPUS))
    def test_same_values_and_errors_across_block_edges(self, tmp_path, monkeypatch, name, block):
        monkeypatch.setattr(histogram_core, "_BLOCK_CHARS", block)
        self.test_same_values_and_errors_as_the_loop(tmp_path, name)

    @pytest.mark.parametrize("block", range(1, 17))
    def test_faults_and_skipped_lines_at_block_edges(self, tmp_path, monkeypatch, block):
        # every block size from one line to several puts each line at an edge
        monkeypatch.setattr(histogram_core, "_BLOCK_CHARS", block)
        f = tmp_path / "p.txt"
        for at in range(1, 7):
            lines = ["0.1\n"] * 6
            lines[at - 1] = "abc\n"
            f.write_text("".join(lines))
            assert _outcome(f) == ("InputError", f"{f}:{at}: not a number: 'abc'")
            for skipped in ("#xy\n", "\n", "  \n"):
                lines[at - 1] = skipped
                f.write_text("".join(lines) + "1.5\n")
                assert _outcome(f) == ("InputError", f"{f}:7: p-value out of [0, 1]: 1.5")
                f.write_text("".join(lines))
                assert read_pvalue_file(f).tolist() == [0.1] * 5
        f.write_bytes(b"0.1\r\n0.2\r\n\r\n0.3\r\nx\r\n")
        assert _outcome(f) == ("InputError", f"{f}:5: not a number: 'x'")
        f.write_bytes(b"0.1\r0.2\r\n\r0.3\rx\r")
        assert _outcome(f) == ("InputError", f"{f}:5: not a number: 'x'")

    def test_crlf_across_read_buffers(self, tmp_path):
        # a CR LF pair split between the file's 8 KiB reads and at the block
        # size is one line break, not two
        f = tmp_path / "p.txt"
        for edge in (8192, histogram_core._BLOCK_CHARS):
            head = b"0.5\r\n" * (edge // 5)
            pad = b"0" * (edge - len(head) - 1)
            f.write_bytes(head + pad + b"\r\n" + b"0.5\r\nx\r\n")
            line = edge // 5 + 3
            assert _outcome(f) == ("InputError", f"{f}:{line}: not a number: 'x'")

    def test_one_block_reaches_the_loop(self, tmp_path, monkeypatch):
        # a late fault or a mid-file comment costs one block's loop, not a second parse
        seen = _loop_rows(monkeypatch)
        f = tmp_path / "p.txt"
        line = b"0.123456\n"
        per_block = histogram_core._BLOCK_CHARS // len(line) + 1
        f.write_bytes(line * 99999 + b"abc\n")
        assert _outcome(f) == ("InputError", f"{f}:100000: not a number: 'abc'")
        assert 0 < len(seen) <= per_block and seen[-1] == (100000, "abc\n")
        seen.clear()
        f.write_bytes(line * 50000 + b"# mid-file\n" + line * 50000)
        assert read_pvalue_file(f).tolist() == [0.123456] * 100000
        assert 0 < len(seen) <= per_block and (50001, "# mid-file\n") in seen

    @pytest.mark.parametrize("block", [1, 4, 1 << 10, 1 << 16, 1 << 20])
    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"])
    def test_earlier_fault_is_cited_ahead_of_a_later_bad_byte(self, tmp_path, monkeypatch,
                                                                block, eol):
        # decoding runs ahead of parsing, by a block or by the file's 8 KiB reads
        monkeypatch.setattr(histogram_core, "_BLOCK_CHARS", block)
        f = tmp_path / "p.txt"
        lines = [b"0.5", b"abc"] + [b"0.25"] * 3000 + [b"\xe9"]
        f.write_bytes(eol.join(lines) + eol)
        assert _outcome(f) == _loop_outcome(f) == ("InputError", f"{f}:2: not a number: 'abc'")
        lines[1] = b"# c"
        f.write_bytes(eol.join(lines) + eol)
        assert _outcome(f) == _loop_outcome(f) == ("InputError", f"{f}:3003: not valid UTF-8")
        # the bad byte's own line is not parsed: its fault is the byte
        f.write_bytes(eol.join([b"0.5", b"abc\xe9", b"xyz"]) + eol)
        assert _outcome(f) == ("InputError", f"{f}:2: not valid UTF-8")
        f.write_bytes(eol.join([b"0.5", b"1.5", b"\xe9"]))
        assert _outcome(f) == ("InputError", f"{f}:2: p-value out of [0, 1]: 1.5")

    def test_csv_earlier_fault_is_cited_ahead_of_a_later_bad_byte(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_bytes(b"gene,pval\ng1,0.4\ng2,abc\n" + b"g,0.25\n" * 30 + b"g\xe9,0.5\n")
        with pytest.raises(InputError) as info:
            read_pvalue_file(f, column="pval")
        assert str(info.value) == f"{f}:3: not a number: 'abc'"
        f.write_bytes(b"gene,p\ng1,0.4\ng\xe9,0.5\n")
        with pytest.raises(InputError) as info:
            read_pvalue_file(f, column="pval")
        assert str(info.value) == f"{f}: no column named 'pval'"
        f.write_bytes(b"gene,pv\xe9l\ng1,abc\n")
        with pytest.raises(InputError) as info:
            read_pvalue_file(f, column="pval")
        assert str(info.value) == f"{f}:1: not valid UTF-8"

    def test_byte_order_mark_starts_the_file_only(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_bytes(b"\xef\xbb\xbf0.5\n0.2\n")
        assert read_pvalue_file(f).tolist() == [0.5, 0.2]
        f.write_bytes(b"0.5\n\xef\xbb\xbf0.2\n")
        assert _outcome(f) == ("InputError", f"{f}:2: not a number: '\\ufeff0.2'")
        f.write_bytes(b"\xef\xbb\xbfpval,gene\n0.4,g1\n")
        assert read_pvalue_file(f, column="pval").tolist() == [0.4]

    @pytest.mark.parametrize("column", [None, "pval"])
    def test_late_bad_byte_is_read_once(self, tmp_path, monkeypatch, column):
        # the lines ahead of the bad byte are parsed once, and the file is
        # neither read again nor reparsed to find an earlier fault
        def read_again(self):
            raise AssertionError(f"{self} read a second time")

        monkeypatch.setattr(Path, "read_bytes", read_again)
        plain_reads = []
        read_plain = histogram_core._read_plain
        monkeypatch.setattr(histogram_core, "_read_plain",
                            lambda path, fh: plain_reads.append(path) or read_plain(path, fh))
        seen = []
        parse = histogram_core._parse_rows
        monkeypatch.setattr(histogram_core, "_parse_rows", lambda path, rows, comments: parse(
            path, (seen.append(row) or row for row in rows), comments))
        f = tmp_path / "p.txt"
        head = b"pval\n" if column else b""
        f.write_bytes(head + b"0.25\n" * 99999 + b"0.5\xe9\n")
        bad = 100000 + len(head.splitlines())
        with pytest.raises(InputError) as info:
            read_pvalue_file(f, column=column)
        assert str(info.value) == f"{f}:{bad}: not valid UTF-8"
        if column:
            assert [lineno for lineno, _ in seen] == list(range(2, bad))
        else:
            assert plain_reads == [f]
            assert seen[-1] == (bad, "0.5\udce9\n")
            assert len(seen) <= histogram_core._BLOCK_CHARS // 5 + 1

    @pytest.mark.parametrize("block", [1, 4, 1 << 16])
    @pytest.mark.parametrize("column", [None, "pval"])
    def test_first_fault_by_line_matches_the_line_by_line_reference(
            self, tmp_path, monkeypatch, column, block):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        monkeypatch.setattr(histogram_core, "_BLOCK_CHARS", block)
        token = st.sampled_from(["0.25", "1", "0", " 0.5 ", "abc", "1.5", "nan",
                                 "#", "# c", " ", ""])
        bad_byte = st.tuples(st.integers(0, 99), st.integers(0, 99),
                             st.sampled_from([b"\x80", b"\xc3", b"\xe9", b"\xff"]))
        case = st.tuples(st.lists(token, max_size=8), st.sampled_from([b"\n", b"\r\n", b"\r"]),
                         st.booleans(), st.none() | bad_byte)
        f = tmp_path / "p.txt"

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(case)
        def check(case):
            tokens, eol, final, bad = case
            if column:
                # a blank token makes a blank record, any other a two-field one
                lines = ["gene,pval"] + [f"g{i},{t}" if t else "" for i, t in enumerate(tokens)]
            else:
                lines = tokens
            lines = [line.encode() for line in lines]
            if bad and lines:
                at, pos, byte = bad
                line = lines[at % len(lines)]
                pos %= len(line) + 1
                lines[at % len(lines)] = line[:pos] + byte + line[pos:]
            data = eol.join(lines) + (eol if final else b"")
            f.write_bytes(data)
            try:
                got = [v.hex() for v in read_pvalue_file(f, column=column).tolist()]
            except InputError as exc:
                got = type(exc).__name__, str(exc)
            assert got == line_by_line_outcome(f, data, column)

        check()

    def test_missing_file_is_not_read_from_a_compressed_neighbour(self, tmp_path):
        f = tmp_path / "p.txt"
        with gzip.open(tmp_path / "p.txt.gz", "wb") as gz:
            gz.write(b"0.1\n0.2\n")
        with pytest.raises(FileNotFoundError):
            read_pvalue_file(f)

    def test_compressed_file_is_read_as_text(self, tmp_path):
        f = tmp_path / "p.txt.gz"
        with gzip.open(f, "wb") as gz:
            gz.write(b"0.1\n0.2\n")
        assert _outcome(f) == _loop_outcome(f) == ("InputError", f"{f}:1: not valid UTF-8")

    @pytest.mark.parametrize("block", [1, 4])
    def test_generated_text_matches_the_loop_across_block_edges(self, tmp_path, monkeypatch,
                                                                block):
        monkeypatch.setattr(histogram_core, "_BLOCK_CHARS", block)
        self.test_generated_text_matches_the_loop(tmp_path)

    def test_generated_text_matches_the_loop(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        number = st.one_of(
            st.floats(0.0, 1.0).map(repr),
            st.floats(0.0, 1.0).map(lambda x: format(x, ".3e")),
            st.floats(allow_nan=True).map(repr),
        )
        pad = st.sampled_from(["", " ", "\t", "\xa0"])
        token = st.one_of(number, pad, st.sampled_from([",", "#", "-0", "1.", ".5", "+"]))
        # mostly one padded number a line, so that many files take the bulk path
        line = st.one_of(st.tuples(pad, number, pad).map("".join),
                         st.tuples(number, st.sampled_from([",", " ", "\t"]), number).map("".join),
                         st.lists(token, max_size=3).map("".join))
        text = st.tuples(st.lists(line, max_size=5), st.sampled_from(["\n", "\r\n", "\r"]),
                         st.booleans())
        f = tmp_path / "p.txt"

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(text)
        def check(case):
            lines, newline, final = case
            f.write_bytes((newline.join(lines) + (newline if final else "")).encode())
            assert _outcome(f) == _loop_outcome(f)

        check()
