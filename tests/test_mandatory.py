import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Q25_CLASSES, random_matrix

from mintest import (
    BooleanMatrix,
    ClassSet,
    ClassView,
    candidate_pair_count,
    class_views,
    enumerate_local_minimal_tests,
    find_mandatory,
    is_test,
    load_class_set,
    oracle_minimal_tests,
    parse_class_set,
    parse_matrix,
    partition_by_mandatory,
)
from mintest.cli import main
from mintest.matrix import MatrixFormatError
from reference import candidate_pairs, is_local_test


class TestCandidatePairs:
    def test_fixture_count(self, q25):
        count = candidate_pair_count(q25)
        assert count == len(candidate_pairs(q25)) == 94
        assert count / q25.total_pairs == pytest.approx(0.3133, abs=1e-3)

    def test_gap_two_excluded(self):
        m = parse_matrix("00\n11\n")
        assert candidate_pairs(m) == []
        assert candidate_pair_count(m) == 0

    def test_chain(self):
        m = parse_matrix("00\n01\n11\n")
        assert candidate_pairs(m) == [(1, 2), (2, 3)]
        assert candidate_pair_count(m) == 2

    def test_matches_popcount_definition(self):
        for seed in range(20):
            m = random_matrix(seed, rows=9, cols=7)
            assert candidate_pair_count(m) == len(candidate_pairs(m))


class TestFindMandatory:
    def test_fixture_columns_and_witnesses(self, q25):
        res = find_mandatory(q25)
        assert res.columns == (5, 8, 10)
        assert (2, 25) in res.witnesses[5]
        assert (6, 21) in res.witnesses[5]
        assert (5, 25) in res.witnesses[8]
        assert (19, 22) in res.witnesses[8]
        assert (12, 22) in res.witnesses[10]

    def test_two_rows(self):
        m = parse_matrix("00\n01\n")
        assert find_mandatory(m).columns == (2,)

    def test_distance_two_matrix_has_none(self):
        m = parse_matrix("00\n11\n")
        assert find_mandatory(m).columns == ()

    def test_witness_pairs_have_hamming_distance_one(self, q25):
        res = find_mandatory(q25)
        for col, pairs in res.witnesses.items():
            for a, b in pairs:
                assert q25.bits(a) ^ q25.bits(b) == 1 << (q25.col_count - col)

    def test_completeness_both_directions(self):
        for seed in range(40):
            m = random_matrix(seed, rows=8, cols=6)
            res = find_mandatory(m)
            brute = set()
            for i, a in enumerate(m.row_labels):
                for b in m.row_labels[i + 1 :]:
                    diff = m.bits(a) ^ m.bits(b)
                    if diff.bit_count() == 1:
                        brute.add(m.col_count - diff.bit_length() + 1)
            assert set(res.columns) == brute

    def test_soundness_against_oracle(self):
        for seed in range(25):
            m = random_matrix(seed, rows=7, cols=6)
            mand = set(find_mandatory(m).columns)
            for test in oracle_minimal_tests(m).minimal_tests:
                assert mand <= set(test)


class TestPartition:
    def test_fixture_classes(self, q25):
        part = partition_by_mandatory(q25, (5, 8, 10))
        assert {c.key: c.members for c in part.classes} == Q25_CLASSES
        assert part.dropped_singletons == (22,)
        assert [c.name for c in part.classes] == ["Q1", "Q2", "Q3", "Q5", "Q6", "Q7"]

    def test_empty_mandatory_single_class(self, q25):
        part = partition_by_mandatory(q25, ())
        assert part.class_count == 1
        assert part.classes[0].members == tuple(range(1, 26))

    def test_members_share_key(self, q25):
        part = partition_by_mandatory(q25, (5, 8, 10))
        for cls in part.classes:
            for lab in cls.members:
                key = tuple(q25.cell(lab, c) for c in (5, 8, 10))
                assert key == cls.key

    def test_pair_reduction_invariant(self, q25):
        part = partition_by_mandatory(q25, (5, 8, 10))
        assert part.within_pair_total == 40
        assert part.within_pair_total <= q25.total_pairs

    def test_class_decomposition_carries_the_test_property(self):
        # for T containing the mandatory columns, T is a test of the matrix
        # iff T minus mandatory separates the rows inside every class
        from itertools import combinations

        for seed in range(20):
            m = random_matrix(seed, rows=9, cols=7)
            mand = find_mandatory(m).columns
            part = partition_by_mandatory(m, mand)
            if not part.classes:
                continue
            cs = class_views(m, part)
            for k in (1, 2, 3):
                for local in combinations(cs.columns, k):
                    full = tuple(sorted(mand + local))
                    assert is_test(m, full) == is_local_test(cs, local)


@st.composite
def partition_inputs(draw):
    """A matrix of 1-12 distinct rows over 1-8 columns with shuffled row
    labels, and a column list in any order with repeats."""
    width = draw(st.integers(1, 8))
    rows = draw(
        st.lists(
            st.integers(0, (1 << width) - 1),
            min_size=1,
            max_size=min(12, 1 << width),
            unique=True,
        )
    )
    labels = draw(st.permutations(range(1, len(rows) + 1)))
    matrix = BooleanMatrix(col_count=width, rows=tuple(rows), row_labels=tuple(labels))
    return matrix, draw(st.lists(st.integers(1, width), max_size=2 * width))


class TestPartitionDefinition:
    @settings(max_examples=300, deadline=None)
    @given(partition_inputs())
    def test_groups_rows_by_key_tuple(self, drawn):
        matrix, columns = drawn
        mand = tuple(sorted(set(columns)))
        groups = {}
        for lab in sorted(matrix.row_labels):
            key = tuple(matrix.cell(lab, c) for c in mand)
            groups.setdefault(key, []).append(lab)
        part = partition_by_mandatory(matrix, columns)
        assert part.mandatory == mand
        ordered = list(enumerate(sorted(groups), start=1))
        assert [(c.key, c.ordinal, c.members) for c in part.classes] == [
            (key, ordinal, tuple(groups[key]))
            for ordinal, key in ordered
            if len(groups[key]) > 1
        ]
        singles = [key for _, key in ordered if len(groups[key]) == 1]
        assert part.singleton_keys == tuple(singles)
        assert part.dropped_singletons == tuple(groups[key][0] for key in singles)


    @settings(max_examples=100, deadline=None)
    @given(partition_inputs(), st.randoms(use_true_random=False))
    def test_row_order_does_not_matter(self, drawn, rng):
        """Permuting the rows, labels travelling with them, changes no
        class: members stay in ascending label order."""
        matrix, columns = drawn
        order = list(range(matrix.row_count))
        rng.shuffle(order)
        permuted = BooleanMatrix(
            col_count=matrix.col_count,
            rows=tuple(matrix.rows[i] for i in order),
            row_labels=tuple(matrix.row_labels[i] for i in order),
        )
        part = partition_by_mandatory(permuted, columns)
        assert part == partition_by_mandatory(matrix, columns)
        for cls in part.classes:
            assert list(cls.members) == sorted(cls.members)


class TestClassViews:
    def test_views_match_cells(self, q25):
        part = partition_by_mandatory(q25, (5, 8, 10))
        cs = class_views(q25, part)
        assert cs.columns == (1, 2, 3, 4, 6, 7, 9)
        for view in cs.classes:
            for lab, row in zip(view.row_labels, view.rows):
                bits = tuple(q25.cell(lab, c) for c in cs.columns)
                packed = int("".join(map(str, bits)), 2)
                assert packed == row

    def test_ratio_fields(self, q25):
        part = partition_by_mandatory(q25, (5, 8, 10))
        cs = class_views(q25, part)
        assert cs.total_rows == 25
        assert cs.within_pair_total == 40

    @staticmethod
    def reference_rows(matrix, labels, columns):
        """Each row's cells on the columns, packed one bit at a time."""
        packed = []
        for lab in labels:
            v = 0
            for c in columns:
                v = v << 1 | matrix.cell(lab, c)
            packed.append(v)
        return tuple(packed)

    @settings(max_examples=300, deadline=None)
    @given(partition_inputs(), st.data())
    def test_packing_matches_the_per_bit_reference(self, drawn, data):
        matrix, mandatory = drawn
        part = partition_by_mandatory(matrix, mandatory)
        n = matrix.col_count
        default = tuple(c for c in range(1, n + 1) if c not in part.mandatory)
        choices = [(None, default)]
        if n >= 3:  # explicit columns with a gap, in any order
            chosen = data.draw(
                st.sets(st.integers(1, n), min_size=2).filter(
                    lambda cs: max(cs) - min(cs) >= len(cs)
                )
            )
            choices.append((data.draw(st.permutations(sorted(chosen))), tuple(sorted(chosen))))
        for columns, want in choices:
            cs = class_views(matrix, part, columns)
            assert cs.columns == want
            assert [(v.name, v.key, v.row_labels) for v in cs.classes] == [
                (c.name, c.key, c.members) for c in part.classes
            ]
            for view in cs.classes:
                assert view.rows == self.reference_rows(matrix, view.row_labels, want)


    @pytest.mark.parametrize("width", [64, 65])
    def test_packing_at_and_above_64_columns(self, width):
        """Rows of 64 bits are packed as fields of one int, wider rows one
        by one; both must match a per-row reference."""
        matrix = random_matrix(width, rows=40, cols=width)
        rows = list(matrix.rows)
        for i, column in ((0, 1), (3, 30), (7, width)):  # three mandatory columns
            rows.append(rows[i] ^ 1 << (width - column))
        matrix = BooleanMatrix(width, tuple(rows), tuple(range(1, len(rows) + 1)))
        part = partition_by_mandatory(matrix, find_mandatory(matrix).columns)
        assert {1, 30, width} <= set(part.mandatory)
        cs = class_views(matrix, part)
        assert sum(view.size for view in cs.classes) > 2
        for view in cs.classes:
            want = []
            for lab in view.row_labels:
                row = format(matrix.bits(lab), f"0{width}b")
                want.append(int("".join(row[c - 1] for c in cs.columns), 2))
            assert view.rows == tuple(want)


class TestClassSetParsing:
    def test_fixture(self, m8):
        assert m8.columns == (1, 5, 8, 9)
        assert m8.mandatory == (2, 3, 4, 6, 7, 10)
        assert m8.total_rows == 50
        assert len(m8.classes) == 8
        first = m8.classes[0]
        assert first.name == "M1"
        assert first.key == (1, 0, 1, 1, 0, 1)
        assert first.row_labels == (33, 55)
        assert m8.within_pair_total == 8
        assert m8.parent_pair_total == 1225

    def test_round_trip_minimal(self):
        cs = parse_class_set(
            "columns: 2 5\nclass 10\n1: 01\n2: 10\nclass 11\n3: 00\n4: 01\n"
        )
        assert cs.columns == (2, 5)
        assert [c.name for c in cs.classes] == ["M1", "M2"]
        assert cs.classes[1].rows == (0b00, 0b01)

    def test_class_key_follows_any_whitespace(self):
        cs = parse_class_set("columns: 1 2\nclass\t101\n1: 01\n2: 10\n")
        assert cs.classes[0].key == (1, 0, 1)

    @pytest.mark.parametrize("header", ["class101", "classy 101"])
    def test_rejects_a_header_word_other_than_class(self, header, tmp_path, capsys):
        text = f"columns: 1 2\n{header}\n1: 01\n2: 10\n"
        message = f"line 2: unrecognized line {header!r}"
        with pytest.raises(MatrixFormatError) as info:
            parse_class_set(text)
        assert str(info.value) == message
        path = tmp_path / "classes.txt"
        path.write_text(text)
        assert main(["analyze", "--input", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "columns: 1 4\nmandatory: 2 3\nclass 1\n1: 01\n2: 10\n"
                "class 101\n3: 01\n4: 10\n",
                "line 3: class key '1' must have length 2, one bit per 'mandatory:' label",
            ),
            (
                "columns: 1 4\nclass 01\n1: 01\n2: 10\nclass 101\n3: 01\n4: 10\n"
                "mandatory: 2 3\n",
                "line 5: class key '101' must have length 2, one bit per 'mandatory:' label",
            ),
            (
                "columns: 1 4\nmandatory:\nclass 1\n1: 01\n2: 10\n",
                "line 3: class key '1' must have length 0, one bit per 'mandatory:' label",
            ),
        ],
    )
    def test_rejects_a_key_not_one_bit_per_mandatory_label(
        self, text, message, tmp_path, capsys
    ):
        """Headers may follow the classes, so the check waits for them."""
        with pytest.raises(MatrixFormatError) as info:
            parse_class_set(text)
        assert str(info.value) == message
        path = tmp_path / "classes.txt"
        path.write_text(text)
        assert main(["analyze", "--input", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_key_of_any_width_without_mandatory_header(self):
        cs = parse_class_set("columns: 1 4\nclass 1\n1: 01\n2: 10\nclass 101\n3: 01\n4: 10\n")
        assert [view.key for view in cs.classes] == [(1,), (1, 0, 1)]

    def test_rejects_rows_outside_class(self):
        with pytest.raises(MatrixFormatError):
            parse_class_set("columns: 1 2\n1: 01\n")

    def test_rejects_bad_width(self):
        with pytest.raises(MatrixFormatError):
            parse_class_set("columns: 1 2\nclass 0\n1: 011\n")

    def test_rejects_duplicate_labels(self):
        with pytest.raises(MatrixFormatError):
            parse_class_set("columns: 1\nclass 0\n1: 0\n1: 1\n")

    def test_rejects_identical_rows_in_class(self):
        with pytest.raises(MatrixFormatError, match="duplicate rows"):
            parse_class_set("columns: 1 2\nclass 0\n1: 01\n2: 01\n")

    @pytest.mark.parametrize(
        "header,message",
        [
            ("columns: 1 1 2", "line 1: 'columns:' repeats label(s) 1"),
            ("columns: 0 1 2", "line 1: 'columns:' labels must be positive, got 0"),
            ("columns: 1 -2 3", "line 1: 'columns:' labels must be positive, got -2"),
            ("columns: 1 x 3", "line 1: 'columns:' labels must be integers"),
            ("columns: 1 2 3\nmandatory: 4 4", "line 2: 'mandatory:' repeats label(s) 4"),
            ("columns: 1 2 3\nmandatory: 0 4", "line 2: 'mandatory:' labels must be positive, got 0"),
            ("columns: 1 2 3\nmandatory: 2 4", "line 2: 'mandatory:' label(s) 2 are also in 'columns:'"),
            ("mandatory: 3 1\ncolumns: 1 2 3", "line 1: 'mandatory:' label(s) 1 3 are also in 'columns:'"),
        ],
    )
    def test_rejects_bad_headers(self, header, message):
        with pytest.raises(MatrixFormatError) as info:
            parse_class_set(header + "\nclass 0\n1: 010\n2: 100\n")
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            ("parent-rows: many\nclass 0\n1: 01\n2: 10",
             "line 2: 'parent-rows:' must be an integer, got 'many'"),
            ("parent-rows: 0\nclass 0\n1: 01\n2: 10",
             "line 2: 'parent-rows:' must be positive, got 0"),
            ("class 0\n1: 01\n2: 10\nparent-rows: 1",
             "line 5: 'parent-rows:' 1 is below the 2 class rows"),
            ("parent-rows: 4\nclass 0\n1: 01\n2: 10\nclass 1\n3: 00\n4: 11\n5: 01",
             "line 2: 'parent-rows:' 4 is below the 5 class rows"),
            ("class 0\nx: 01\n2: 10", "line 3: row label must be an integer, got 'x'"),
            ("class 0\n1: 01\n-2: 10", "line 4: row label must be positive, got -2"),
        ],
    )
    def test_rejects_bad_counts_and_labels(self, text, message):
        with pytest.raises(MatrixFormatError) as info:
            parse_class_set("columns: 1 2\n" + text + "\n")
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            ("columns: 1 2\nclass 0\nclass 1\n1: 01\n", "class with no rows"),
            ("columns: 1 2\nclass 0\n1: 01\nclass 1\n", "class with no rows"),
            ("columns: 1 2\nclass 1x\n1: 01\n", "line 2: bad class key '1x'"),
            ("class 0\n1: 01\ncolumns: 1 2\n", "row before 'columns:' header"),
            ("columns: 1 2\nparent-rows: 5\n", "class-set file needs a 'columns:' header and classes"),
            ("parent-rows: 5\nmandatory: 3\n", "class-set file needs a 'columns:' header and classes"),
        ],
    )
    def test_rejects_missing_parts(self, text, message):
        with pytest.raises(MatrixFormatError) as info:
            parse_class_set(text)
        assert str(info.value) == message

    def test_load_class_set_reads_a_file(self, tmp_path):
        text = "columns: 1 2\nmandatory: 3\nclass 0\n1: 01\n2: 10\n"
        path = tmp_path / "cs.txt"
        path.write_text(text, encoding="utf-8")
        assert load_class_set(path) == parse_class_set(text)

    def test_parent_rows_may_equal_class_rows(self):
        cs = parse_class_set("columns: 1 2\nparent-rows: 2\nclass 0\n1: 01\n2: 10\n")
        assert cs.total_rows == 2

    def test_mask(self, m8):
        assert m8.mask((1,)) == 0b1000
        assert m8.mask((9,)) == 0b0001
        assert m8.mask((1, 9)) == 0b1001
        with pytest.raises(ValueError):
            m8.mask((2,))


@st.composite
def class_set_files(draw):
    """A small class set and its text in the parse_class_set format:
    distinct column labels, optional mandatory labels apart from them
    (in any order), an optional parent row count of at least the class
    rows, rows distinct within each class and row labels distinct."""
    labels = st.integers(1, 40)
    columns = tuple(draw(st.lists(labels, min_size=1, max_size=6, unique=True)))
    mandatory = draw(
        st.none()
        | st.lists(labels.filter(lambda c: c not in columns), max_size=4, unique=True)
    )
    width = len(columns)
    sizes = draw(st.lists(st.integers(1, min(5, 1 << width)), min_size=1, max_size=4))
    row_labels = iter(
        draw(st.lists(st.integers(1, 500), min_size=sum(sizes), max_size=sum(sizes), unique=True))
    )
    total_rows = draw(st.none() | st.integers(sum(sizes), sum(sizes) + 10))
    lines = ["columns: " + " ".join(map(str, columns))]
    if mandatory is not None:
        lines.append("mandatory: " + " ".join(map(str, mandatory)))
    if total_rows is not None:
        lines.append(f"parent-rows: {total_rows}")
    key_width = len(mandatory or ())
    # parsed keys follow the sorted mandatory labels, bit by bit
    order = sorted(range(key_width), key=(mandatory or ()).__getitem__)
    classes = []
    for i, size in enumerate(sizes):
        key = tuple(draw(st.lists(st.integers(0, 1), min_size=key_width, max_size=key_width)))
        rows = tuple(
            draw(st.lists(st.integers(0, (1 << width) - 1), min_size=size, max_size=size, unique=True))
        )
        labs = tuple(next(row_labels) for _ in rows)
        sorted_key = tuple(key[j] for j in order)
        classes.append(ClassView(name=f"M{i + 1}", key=sorted_key, row_labels=labs, rows=rows))
        lines.append(("class " + "".join(map(str, key))).rstrip())
        lines.extend(f"{lab}: {row:0{width}b}" for lab, row in zip(labs, rows))
    class_set = ClassSet(
        columns=columns,
        classes=tuple(classes),
        mandatory=tuple(sorted(mandatory or ())),
        total_rows=total_rows,
    )
    return class_set, "\n".join(lines) + "\n"


class TestClassSetFileRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(class_set_files())
    def test_parse_and_enumerate(self, drawn):
        class_set, text = drawn
        parsed = parse_class_set(text)
        assert parsed.columns == class_set.columns
        assert parsed.classes == class_set.classes
        assert parsed.mandatory == class_set.mandatory
        assert parsed.total_rows == class_set.total_rows
        report = enumerate_local_minimal_tests(class_set)
        with tempfile.TemporaryDirectory() as tmp:
            source, output = Path(tmp, "classes.txt"), Path(tmp, "report.json")
            source.write_text(text, encoding="utf-8")
            argv = ["enumerate", "--input", str(source), "--json", "--output", str(output)]
            assert main(argv) == 0
            doc = json.loads(output.read_text(encoding="utf-8"))
        assert doc["local_length"] == report.local_length
        assert doc["local_tests"] == [list(t) for t in report.local_tests]
