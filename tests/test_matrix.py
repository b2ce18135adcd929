import re
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from mintest import (
    BooleanMatrix,
    DuplicateColumnWarning,
    MatrixFormatError,
    is_test,
    load_matrix,
    pair_count,
    parse_matrix,
    sort_rows_by_binary_value,
)


def distinct_rows(n, min_size=2, max_size=8):
    return st.lists(
        st.integers(0, (1 << n) - 1), min_size=min_size, max_size=max_size, unique=True
    )


def matrix_from_ints(values, n):
    return BooleanMatrix(
        col_count=n,
        rows=tuple(values),
        row_labels=tuple(range(1, len(values) + 1)),
    )


@st.composite
def planted_matrix_lines(draw):
    """Row strings of 1-8 distinct rows over 1-8 columns, where some
    columns are copies or complements of an earlier one."""
    width = draw(st.integers(1, 8))
    values = draw(
        st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=8, unique=True)
    )
    columns = [[v >> (width - 1 - c) & 1 for v in values] for c in range(width)]
    for j in range(1, width):
        plant = draw(st.sampled_from((None, 0, 1)))
        if plant is not None:
            source = columns[draw(st.integers(0, j - 1))]
            columns[j] = [x ^ plant for x in source]
    lines = ["".join(str(col[r]) for col in columns) for r in range(len(values))]
    return list(dict.fromkeys(lines))


def reference_parse(text):
    """Row values of matrix text, or the MatrixFormatError message of its
    first bad line: the line-by-line reading of the format."""
    rows, seen_at, width, first_line = [], {}, None, 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        for ch in line:
            if ch not in "01":
                return f"line {lineno}: invalid character {ch!r}; rows must be '0'/'1' only"
        if width is None:
            width, first_line = len(line), lineno
        elif len(line) != width:
            return f"line {lineno}: row has {len(line)} columns, but line {first_line} has {width}"
        if line in seen_at:
            return f"duplicate rows at lines {seen_at[line]} and {lineno}: {line}"
        seen_at[line] = lineno
        rows.append(sum(int(ch) << (width - 1 - i) for i, ch in enumerate(line)))
    return tuple(rows) if rows else "no matrix rows found"


@st.composite
def matrix_texts(draw):
    """Matrix text of valid rows, comments, blank and indented lines, with
    '\n' or '\r\n' endings, and sometimes a ragged row, a repeated row or a
    character that int(line, 2) accepts but the format forbids."""
    width = draw(st.integers(1, 6))
    row = st.lists(st.sampled_from("01"), min_size=width, max_size=width).map("".join)
    valid = draw(st.lists(row, max_size=10))
    lines = []
    for line in valid:
        kind = draw(st.sampled_from(("plain", "plain", "indented", "comment", "blank")))
        if kind == "indented":
            line = " \t"[: draw(st.integers(1, 2))] + line + "  "
        elif kind == "comment":
            lines.append(draw(st.sampled_from(("#", "# 0101", "  #x"))))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(("", "   "))))
        lines.append(line)
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(("ragged", "repeat", "_", "+", " ", "\u0661")))
        at = draw(st.integers(0, len(lines)))
        if fault == "ragged":
            bad = draw(st.lists(st.sampled_from("01"), min_size=1, max_size=8).map("".join))
        elif fault == "repeat":
            bad = draw(st.sampled_from(valid)) if valid else "0" * width
        elif fault in ("+", "\u0661"):  # in place of a digit, same width
            bad = fault + draw(row)[1:]
        else:  # int() takes '_' and ' ' only between digits
            base = draw(row)
            bad = base[:1] + fault + base[2:] if width >= 3 else "1" + fault + "0"
        lines.insert(at, bad)
    return draw(st.sampled_from(("\n", "\r\n"))).join(lines)


class TestParsing:
    @settings(max_examples=400, deadline=None)
    @given(matrix_texts())
    def test_parse_matches_the_line_by_line_reference(self, text):
        want = reference_parse(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateColumnWarning)
            if isinstance(want, str):
                with pytest.raises(MatrixFormatError) as info:
                    parse_matrix(text)
                assert str(info.value) == want
            else:
                m = parse_matrix(text)
                assert m.rows == want
                assert m.row_labels == tuple(range(1, len(want) + 1))

    def test_smallest_valid(self):
        m = parse_matrix("01\n10\n")
        assert (m.row_count, m.col_count) == (2, 2)
        assert m.row_labels == (1, 2)
        assert m.row_string(1) == "01"

    def test_comments_and_blanks_ignored(self):
        m = parse_matrix("# header\n\n01\n# mid\n10\n\n\n")
        assert m.row_count == 2

    def test_duplicate_rows_error_names_lines(self):
        with pytest.raises(MatrixFormatError, match=r"lines 2 and 4"):
            parse_matrix("# c\n01\n10\n01\n")

    def test_ragged_lines_rejected(self):
        with pytest.raises(MatrixFormatError, match="columns"):
            parse_matrix("01\n100\n")

    def test_non_binary_rejected(self):
        with pytest.raises(MatrixFormatError, match="invalid character"):
            parse_matrix("01\n1x\n")

    def test_empty_input_rejected(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("# only comments\n")

    def test_duplicate_columns_warn_not_error(self):
        with pytest.warns(DuplicateColumnWarning):
            m = parse_matrix("00\n11\n")
        assert m.row_count == 2

    def test_duplicate_column_warning_texts(self):
        # columns 1, 3 and 5 are identical, column 4 is their complement
        with pytest.warns(DuplicateColumnWarning) as record:
            parse_matrix("00010\n10101\n01010\n # comment\n11101\n")
        assert [str(w.message) for w in record] == [
            "columns 1 and 3 are identical",
            "columns 1 and 5 are identical",
        ]
        assert all(w.filename == __file__ for w in record)

    @settings(max_examples=300, deadline=None)
    @given(planted_matrix_lines())
    def test_duplicate_column_warnings_match_the_definition(self, lines):
        """One warning per column equal, as a tuple of row characters, to
        an earlier one, naming the first such column."""
        want, first = [], {}
        for c, column in enumerate(zip(*lines), start=1):
            if column in first:
                want.append(f"columns {first[column]} and {c} are identical")
            else:
                first[column] = c
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            parse_matrix("\n".join(lines))
        assert [str(w.message) for w in record] == want
        assert all(w.category is DuplicateColumnWarning for w in record)

    @pytest.mark.parametrize("rows", [(0b11, 0b100), (-1, 0b01), (0b1000, -2)])
    def test_row_out_of_range_rejected(self, rows):
        with pytest.raises(ValueError, match="^row value out of range for col_count$"):
            BooleanMatrix(col_count=2, rows=rows, row_labels=(1, 2))

    @pytest.mark.parametrize(
        "col_count,rows,row_labels,message",
        [
            (0, (), (), "matrix needs at least one column"),
            (2, (1, 2), (1,), "rows and row_labels differ in length"),
            (2, (1, 2), (1, 3), "row_labels must be a permutation of 1..m"),
            (2, (1, 1), (1, 2), "rows must be pairwise distinct"),
        ],
    )
    def test_constructor_checks(self, col_count, rows, row_labels, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BooleanMatrix(col_count=col_count, rows=rows, row_labels=row_labels)

    def test_rows_at_the_range_ends_and_no_rows_accepted(self):
        assert BooleanMatrix(col_count=2, rows=(0b11, 0), row_labels=(1, 2)).rows
        assert BooleanMatrix(col_count=2, rows=(), row_labels=()).row_count == 0

    def test_fixture_loads(self, q25):
        assert (q25.row_count, q25.col_count) == (25, 10)
        assert q25.row_labels == tuple(range(1, 26))

    def test_load_matrix_reads_a_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# three rows\n011\n101\n110\n", encoding="utf-8")
        assert load_matrix(path) == parse_matrix("011\n101\n110\n")

    @pytest.mark.parametrize("column", [0, 3])
    def test_cell_out_of_range(self, tiny3x2, column):
        with pytest.raises(ValueError, match=f"^column {column} out of range 1..2$"):
            tiny3x2.cell(1, column)


def popcounts(matrix):
    return {lab: matrix.bits(lab).bit_count() for lab in matrix.row_labels}


class TestPopcounts:
    def test_fixture_code_column(self, q25):
        pops = popcounts(q25)
        assert pops[11] == 1
        assert pops[3] == 7
        assert pops[2] == 2
        assert pops[24] == 7

    def test_all_zero_row(self):
        m = parse_matrix("0000\n1111\n")
        pops = popcounts(m)
        assert pops[1] == 0
        assert pops[2] == 4


class TestSorting:
    def test_fixture_order(self, q25):
        s = sort_rows_by_binary_value(q25)
        assert s.row_labels[:3] == (19, 12, 22)
        assert s.row_labels[-1] == 3

    def test_sorted_ascending(self, q25):
        s = sort_rows_by_binary_value(q25)
        assert list(s.rows) == sorted(s.rows)

    def test_idempotent(self, q25):
        once = sort_rows_by_binary_value(q25)
        twice = sort_rows_by_binary_value(once)
        assert once == twice

    @settings(max_examples=40, deadline=None)
    @given(distinct_rows(6))
    def test_sorting_preserves_tests(self, values):
        m = matrix_from_ints(values, 6)
        s = sort_rows_by_binary_value(m)
        for cols in [(1,), (2, 4), (1, 3, 6), tuple(range(1, 7))]:
            assert is_test(m, cols) == is_test(s, cols)


@st.composite
def small_matrices(draw):
    """Matrices of 1-8 distinct rows over 1-8 columns, one-row and
    one-column ones included."""
    width = draw(st.integers(1, 8))
    rows = draw(distinct_rows(width, min_size=1, max_size=min(8, 1 << width)))
    return matrix_from_ints(rows, width)


class TestUncheckedConstruction:
    """parse_matrix and sort_rows_by_binary_value skip the constructor's
    checks; their results must be what the checked constructor builds."""

    @settings(max_examples=200, deadline=None)
    @given(small_matrices())
    def test_results_pass_the_checked_constructor(self, matrix):
        text = "\n".join(format(r, f"0{matrix.col_count}b") for r in matrix.rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateColumnWarning)
            parsed = parse_matrix(text)
        assert parsed == matrix
        for built in (parsed, sort_rows_by_binary_value(parsed)):
            assert BooleanMatrix(built.col_count, built.rows, built.row_labels) == built
            assert type(built.rows) is type(built.row_labels) is tuple
        ordered = sort_rows_by_binary_value(parsed)
        assert list(ordered.rows) == sorted(matrix.rows)
        assert [ordered.bits(lab) for lab in ordered.row_labels] == list(ordered.rows)
        assert [matrix.bits(lab) for lab in ordered.row_labels] == list(ordered.rows)

    def test_sort_of_an_empty_matrix(self):
        empty = BooleanMatrix(col_count=3, rows=(), row_labels=())
        assert sort_rows_by_binary_value(empty) == empty


class TestDistinguishingColumns:
    """The columns where two rows differ: the set bits of their XOR."""

    def test_fixture_pairs(self, q25):
        assert q25.bits(12) ^ q25.bits(22) == 1 << (10 - 10)
        assert q25.bits(2) ^ q25.bits(25) == 1 << (10 - 5)

    def test_full_difference(self):
        m = parse_matrix("00\n11\n")
        assert m.bits(1) ^ m.bits(2) == 0b11

    def test_bits_of_unknown_label(self, q25):
        for label in (0, 26, -1):
            with pytest.raises(KeyError, match="unknown row label"):
                q25.bits(label)

    def test_bits_follow_labels_after_sorting(self, q25):
        s = sort_rows_by_binary_value(q25)
        assert [s.bits(lab) for lab in range(1, 26)] == [
            q25.bits(lab) for lab in range(1, 26)
        ]

    @settings(max_examples=60, deadline=None)
    @given(distinct_rows(7, min_size=2, max_size=6))
    def test_never_empty(self, values):
        m = matrix_from_ints(values, 7)
        labels = m.row_labels
        for a in labels:
            for b in labels:
                if a < b:
                    assert m.bits(a) ^ m.bits(b)

    def test_popcount_gap_one_not_sufficient(self):
        # popcounts 1 and 2, but Hamming distance 3
        m = parse_matrix("100\n011\n")
        pops = popcounts(m)
        assert abs(pops[1] - pops[2]) == 1
        assert (m.bits(1) ^ m.bits(2)).bit_count() == 3


class TestIsTest:
    def test_fixture_known_test(self, q25):
        assert is_test(q25, (1, 2, 4, 5, 6, 8, 10))

    def test_fixture_known_non_test(self, q25):
        assert not is_test(q25, (1, 2, 3, 5, 8, 10))

    def test_small_cases(self, tiny3x2):
        assert not is_test(tiny3x2, (1,))
        assert is_test(tiny3x2, (1, 2))

    def test_empty_set_multi_row(self, tiny3x2):
        assert not is_test(tiny3x2, ())

    def test_out_of_range_column(self, tiny3x2):
        with pytest.raises(ValueError):
            is_test(tiny3x2, (3,))

    @settings(max_examples=60, deadline=None)
    @given(distinct_rows(6, max_size=7), st.data())
    def test_monotone_in_columns(self, values, data):
        m = matrix_from_ints(values, 6)
        sub = data.draw(st.sets(st.integers(1, 6), min_size=1, max_size=5))
        extra = data.draw(st.sets(st.integers(1, 6), min_size=0, max_size=3))
        if is_test(m, sub):
            assert is_test(m, sub | extra)

    @settings(max_examples=40, deadline=None)
    @given(distinct_rows(6, max_size=7), st.sets(st.integers(1, 6), min_size=1))
    def test_equivalent_to_pair_coverage(self, values, cols):
        m = matrix_from_ints(values, 6)
        mask = m.column_mask(cols)
        covers = all(
            mask & (m.bits(a) ^ m.bits(b))
            for i, a in enumerate(m.row_labels)
            for b in m.row_labels[i + 1 :]
        )
        assert is_test(m, cols) == covers


class TestPairCount:
    def test_pair_count_helper(self):
        assert pair_count(25) == 300
        assert pair_count(2) == 1
        assert pair_count(50) == 1225
