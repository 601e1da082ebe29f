import numpy as np
import pytest

from pi0cv.errors import (
    EmptyInput,
    InputError,
    InvalidRange,
    MismatchedResolution,
    NonFinite,
    OutOfRange,
    TooFewValues,
)
from pi0cv.histogram_core import (
    PartitionSpec,
    bin_counts,
    enumerate_partitions,
    grid_prefix,
    histogram_heights,
    load_sample,
    partition_count,
    read_pvalue_file,
)


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

    def test_per_resolution_count(self):
        for n in (1, 2, 5, 9):
            assert sum(1 for _ in enumerate_partitions(n, n)) == n * (n + 1) // 2

    def test_invalid_ranges(self):
        with pytest.raises(InvalidRange):
            list(enumerate_partitions(0, 5))
        with pytest.raises(InvalidRange):
            list(enumerate_partitions(5, 3))


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
        edges = spec.edges()
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
