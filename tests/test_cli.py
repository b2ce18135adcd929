import ast
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import wide_matrix_lines

import mintest
import mintest.cli
from mintest.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# Every multiplicity seed of q25x10's classes over the free columns, in
# report order: colex subset order, then class order.
Q25_SEEDS = {
    2: [
        ((1, 2), "Q6", (10, 14, 25)),
        ((1, 3), "Q3", (3, 9, 13)),
        ((1, 3), "Q6", (10, 23, 25)),
        ((2, 3), "Q2", (2, 19, 21)),
        ((2, 3), "Q6", (6, 10, 25)),
        ((2, 3), "Q7", (4, 5, 17)),
        ((2, 4), "Q6", (6, 10, 25)),
        ((3, 4), "Q6", (6, 10, 25)),
        ((1, 6), "Q2", (2, 19, 20)),
        ((1, 6), "Q6", (14, 23, 25)),
        ((2, 6), "Q2", (2, 7, 19)),
        ((4, 6), "Q2", (7, 19, 20)),
        ((1, 7), "Q7", (4, 5, 24)),
        ((3, 7), "Q6", (6, 23, 25)),
        ((4, 7), "Q2", (7, 19, 20)),
        ((6, 7), "Q2", (7, 19, 20)),
        ((6, 7), "Q3", (3, 12, 16)),
        ((1, 9), "Q6", (14, 23, 25)),
        ((2, 9), "Q2", (2, 7, 21)),
        ((2, 9), "Q6", (6, 14, 25)),
        ((3, 9), "Q6", (6, 23, 25)),
        ((6, 9), "Q6", (14, 23, 25)),
        ((7, 9), "Q6", (6, 23, 25)),
    ],
    3: [
        ((2, 3, 4), "Q6", (6, 10, 25)),
        ((4, 6, 7), "Q2", (7, 19, 20)),
        ((1, 6, 9), "Q6", (14, 23, 25)),
        ((3, 7, 9), "Q6", (6, 23, 25)),
    ],
}


class TestAnalyze:
    def test_fixture_text_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "--input", "q25x10")
        assert code == 0
        assert "mandatory columns: 5 8 10" in out
        assert "candidate pairs (popcount diff 1): 94" in out
        assert "Q2 [001] rows: 2 7 19 20 21" in out
        assert "singletons dropped: 22" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "--input", "q25x10", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["mandatory"] == [5, 8, 10]
        assert doc["candidate_pairs"] == 94
        assert doc["undistinguished_pairs"] == [150, 164, 164, 146, 146, 156, 144, 150, 144, 150]
        assert doc["estimate"]["t0"] == 7

    @pytest.mark.parametrize(
        "head",
        [
            "mandatory: 2 3\ncolumns: 1 4\nparent-rows: 5\nclass 01\n",
            "parent-rows: 5\nmandatory: 2 3\ncolumns: 1 4\nclass 01\n",
            "# a comment\n\nclass 01\ncolumns: 1 4\nmandatory: 2 3\nparent-rows: 5\n",
        ],
    )
    def test_class_set_headers_in_any_order(self, capsys, tmp_path, head):
        """A class-set file is told from a matrix by any header or a class
        line first, as parse_class_set takes them in any order."""
        canonical = tmp_path / "canonical.txt"
        canonical.write_text(
            "columns: 1 4\nmandatory: 2 3\nparent-rows: 5\n"
            "class 01\n1: 01\n2: 10\nclass 11\n3: 00\n4: 11\n"
        )
        path = tmp_path / "classes.txt"
        path.write_text(head + "1: 01\n2: 10\nclass 11\n3: 00\n4: 11\n")
        for argv in ([], ["--json"]):
            code, out, err = run(capsys, "analyze", "--input", str(path), *argv)
            assert (code, err) == (0, "")
            assert out == run(capsys, "analyze", "--input", str(canonical), *argv)[1]

    def test_seeds_table(self, capsys):
        code, out, _ = run(capsys, "analyze", "--input", "q25x10", "--seeds")
        assert code == 0
        assert "(4,6) -> Q2: (7,19,20)" in out
        assert "(1,2) -> Q6: (10,14,25)" in out

    def test_class_set_input(self, capsys):
        code, out, _ = run(capsys, "analyze", "--input", "m8_local")
        assert code == 0
        assert "M1 [101101] rows: 33 55" in out
        assert "pairs left inside classes: 8" in out

    def test_class_set_seeds(self, capsys, tmp_path):
        path = tmp_path / "classes.txt"
        path.write_text(
            "columns: 1 2 3 4\n"
            "class 0\n1: 0000\n2: 0001\n3: 0010\n4: 0111\n"
            "class 1\n5: 1000\n6: 1100\n"
        )
        code, out, _ = run(capsys, "analyze", "--input", str(path), "--seeds", "--json")
        assert code == 0
        assert json.loads(out)["seeds"] == [
            {"columns": [1, 2], "class": "M1", "rows": [1, 2, 3]}
        ]
        code, out, _ = run(capsys, "analyze", "--input", str(path), "--seeds")
        assert code == 0
        assert out.endswith("multiplicity seeds (k=2, p>=3):\n  (1,2) -> M1: (1,2,3)\n")

    def test_class_set_seed_columns_ascend(self, capsys, tmp_path):
        """A seed lists its column labels in ascending order, whatever
        the order of the 'columns:' header."""
        path = tmp_path / "classes.txt"
        path.write_text("columns: 9 1 5 2\nclass\n1: 0000\n2: 0001\n3: 0010\n4: 1111\n")
        code, out, _ = run(
            capsys, "analyze", "--input", str(path), "--seeds", "--seed-size", "2"
        )
        assert code == 0
        assert out.endswith("multiplicity seeds (k=2, p>=3):\n  (1,9) -> M1: (1,2,3)\n")

    def test_class_keys_follow_the_sorted_mandatory_labels(self, capsys, tmp_path):
        """The mandatory labels print sorted, and each class key's bits are
        reordered with them: class 10 under 'mandatory: 7 3' has column 7
        set, so it reads 01 over the columns 3 7."""
        path = tmp_path / "classes.txt"
        path.write_text(
            "columns: 1 5\nmandatory: 7 3\n"
            "class 10\n1: 10\n2: 01\nclass 01\n3: 11\n4: 00\n"
        )
        code, out, _ = run(capsys, "analyze", "--input", str(path))
        assert code == 0
        assert "mandatory columns of the parent matrix: 3 7\n" in out
        assert "  M1 [01] rows: 1 2\n  M2 [10] rows: 3 4\n" in out

    def test_class_set_with_no_pairs_left(self, capsys, tmp_path):
        """Classes of one row each leave no pairs, so there is no
        reduction ratio to print."""
        path = tmp_path / "classes.txt"
        path.write_text("columns: 1 2\nparent-rows: 5\nclass\n1: 01\nclass\n2: 10\n")
        code, out, err = run(capsys, "analyze", "--input", str(path))
        assert (code, err) == (0, "")
        assert out.endswith("pairs left inside classes: 0\nparent matrix pairs: 10\n")

    def test_paired_columns_line(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("010\n100\n011\n")  # column 2 complements column 1
        code, out, _ = run(capsys, "analyze", "--input", str(path))
        assert code == 0
        assert "\npaired (equal/complementary) columns: (1,2)\n" in out

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, "analyze", "--input", "/nope/missing.txt")
        assert code == 1
        assert "error:" in err

    def test_one_row_matrix_exit_1(self, capsys, one_row_file):
        code, out, err = run(capsys, "analyze", "--input", one_row_file)
        assert (code, out) == (1, "")
        assert err == "error: the matrix needs at least two rows\n"

    def test_negative_seed_size_exit_1(self, capsys):
        code, out, err = run(
            capsys, "analyze", "--input", "q25x10", "--seeds", "--seed-size", "-1"
        )
        assert (code, out) == (1, "")
        assert err == "error: --seed-size must be >= 0, got -1\n"

    @pytest.mark.parametrize("size", [2, 3])
    def test_full_seed_list(self, capsys, size):
        code, out, _ = run(
            capsys, "analyze", "--input", "q25x10", "--seeds", "--json",
            "--seed-size", str(size),
        )
        assert code == 0
        seeds = [
            (tuple(s["columns"]), s["class"], tuple(s["rows"]))
            for s in json.loads(out)["seeds"]
        ]
        assert seeds == Q25_SEEDS[size]



class TestEnumerate:
    def test_fixture(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--input", "q25x10")
        assert code == 0
        assert "minimal test length: 7" in out
        assert "minimal tests: 9" in out
        assert "1,2,4,5,6,8,10 (dead-end)" in out

    def test_no_heuristic_counts_free_columns(self, capsys, tmp_path):
        """24 columns, 2 of them mandatory: the 22 free ones fit the
        heuristic-free ceiling."""
        path = tmp_path / "wide.txt"
        path.write_text("\n".join(wide_matrix_lines()) + "\n")
        code, out, err = run(
            capsys, "enumerate", "--input", str(path), "--no-heuristic"
        )
        assert (code, err) == (0, "")
        assert "minimal test length: 5" in out
        assert "minimal tests: 91" in out

    def test_report_csv(self, capsys, tmp_path):
        path = tmp_path / "tests.csv"
        code, _, _ = run(
            capsys, "enumerate", "--input", "q25x10", "--report", str(path)
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 9
        assert lines[0] == "1,2,4,5,6,8,10"

    @pytest.mark.parametrize(
        "text,field",
        [
            (None, "integral_tests"),
            ("columns: 1 2 3\nclass\n1: 001\n2: 010\n3: 100\n", "local_tests"),
        ],
        ids=["with-mandatory", "without-mandatory"],
    )
    def test_report_csv_of_a_class_set(self, capsys, tmp_path, text, field):
        """A class set's report lists its integral tests, or its local
        tests when the file names no mandatory columns."""
        source = "m8_local"
        if text is not None:
            source = str(tmp_path / "classes.txt")
            Path(source).write_text(text)
        path = tmp_path / "tests.csv"
        code, out, _ = run(capsys, "enumerate", "--input", source, "--json", "--report", str(path))
        assert code == 0
        expected = "".join(",".join(map(str, t)) + "\n" for t in json.loads(out)[field])
        assert expected and path.read_text() == expected

    def test_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--input", "q25x10", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["minimal_length"] == 7
        assert len(doc["minimal_tests"]) == 9

    def test_toggles(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate",
            "--input",
            "q25x10",
            "--no-heuristic",
            "--no-theorem2",
            "--no-bijective-prune",
        )
        assert code == 0
        assert "minimal tests: 9" in out

    def test_first_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--input", "q25x10", "--first")
        assert code == 0
        assert "minimal tests: 1" in out

    def test_all_flag_accepted_but_not_listed(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--input", "q25x10", "--all")
        assert code == 0
        assert "minimal tests: 9" in out
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert "--first" in help_text
        assert "--all" not in help_text

    def test_one_row_matrix_empty_test(self, capsys, one_row_file):
        """One row: the empty test of length 0, as the oracle answers."""
        code, out, err = run(capsys, "enumerate", "--input", one_row_file)
        assert (code, err) == (0, "")
        assert out.startswith("minimal test length: 0\n")
        assert "minimal tests: 1\n  (empty) (dead-end)\n" in out
        code, out, _ = run(capsys, "enumerate", "--input", one_row_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["minimal_length"], doc["minimal_tests"]) == (0, [[]])
        assert doc["heuristic"] is None

    def test_class_set_of_single_rows(self, capsys, tmp_path):
        """Nothing to separate: the empty local test, with the heuristic
        and without it."""
        path = tmp_path / "single.txt"
        path.write_text("columns: 1 2\nclass 1\n1: 01\n")
        code, out, _ = run(capsys, "enumerate", "--input", str(path))
        assert code == 0
        assert "local minimal test length: 0" in out
        code, out, _ = run(
            capsys, "enumerate", "--input", str(path), "--no-heuristic"
        )
        assert code == 0
        assert "local minimal test length: 0" in out

    def test_class_set_columns_out_of_order(self, capsys, tmp_path):
        """Local tests list their labels in ascending order, as the
        integral tests do, when the 'columns:' header does not ascend."""
        path = tmp_path / "classes.txt"
        path.write_text("columns: 9 1 5\nclass\n1: 100\n2: 010\n3: 001\n4: 111\n")
        code, out, _ = run(capsys, "enumerate", "--input", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["local_tests"] == doc["integral_tests"] == [[1, 5], [1, 9], [5, 9]]
        code, out, _ = run(capsys, "enumerate", "--input", str(path))
        assert "local minimal tests: (1,5); (1,9); (5,9)\n" in out

    def test_class_set_input(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--input", "m8_local")
        assert code == 0
        assert "integral length: 6 + 2 = 8" in out
        assert "integral test: 1,2,3,4,5,6,7,10" in out

    @pytest.mark.parametrize(
        "header,message",
        [
            ("columns: 1 1 2", "line 1: 'columns:' repeats label(s) 1"),
            ("columns:", "line 1: 'columns:' lists no labels"),
            (
                "columns: 1 2 4\nmandatory: 2 3",
                "line 2: 'mandatory:' label(s) 2 are also in 'columns:'",
            ),
            (
                "columns: 1 2 4\nparent-rows: many",
                "line 2: 'parent-rows:' must be an integer, got 'many'",
            ),
        ],
    )
    def test_class_set_bad_header_exit_1(self, capsys, tmp_path, header, message):
        path = tmp_path / "classes.txt"
        path.write_text(header + "\nclass 0\n1: 010\n2: 100\n")
        code, out, err = run(capsys, "enumerate", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "columns: 1 2\nclass\n1: 01\n2: 10\ncolumns: 3 4 5\n",
                "line 5: a second 'columns:' header (the first is on line 1)",
            ),
            (
                "columns: 1 2 3\nclass\n1: 001\n2: 010\n3: 100\ncolumns: 7\n",
                "line 6: a second 'columns:' header (the first is on line 1)",
            ),
        ],
    )
    def test_class_set_repeated_columns_header_exit_1(
        self, capsys, tmp_path, text, message
    ):
        """A second 'columns:' header after the rows would relabel them,
        or leave rows wider than the view."""
        path = tmp_path / "classes.txt"
        path.write_text(text)
        code, out, err = run(capsys, "enumerate", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_class_set_no_heuristic_without_pairs(self, capsys, tmp_path):
        """Two one-row classes over 23 columns: nothing to search, so the
        heuristic-free ceiling does not apply."""
        path = tmp_path / "singles.txt"
        path.write_text(
            "columns: " + " ".join(str(c) for c in range(1, 24)) + "\n"
            "class 0\n1: " + "0" * 23 + "\nclass 1\n2: " + "1" * 23 + "\n"
        )
        code, out, err = run(capsys, "enumerate", "--input", str(path), "--no-heuristic")
        assert (code, err) == (0, "")
        assert "local minimal test length: 0" in out

    def test_class_set_no_heuristic_ceiling_exit_3(self, capsys, tmp_path):
        # 3 rows over 24 columns: above the default ceiling of 22
        path = tmp_path / "wide.txt"
        path.write_text(
            "columns: " + " ".join(str(c) for c in range(1, 25)) + "\n"
            "class 0\n1: " + "0" * 24 + "\n2: " + "1" * 24 + "\n"
            "3: " + "01" * 12 + "\n"
        )
        code, _, err = run(capsys, "enumerate", "--input", str(path), "--no-heuristic")
        assert code == 3
        assert "24 columns exceed the ceiling of 22" in err
        code, out, _ = run(capsys, "enumerate", "--input", str(path))
        assert code == 0


class TestVerify:
    def test_minimal(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--input", "q25x10", "--test", "1,2,4,5,6,8,10"
        )
        assert code == 0
        assert "test: yes" in out
        assert "dead-end: yes" in out
        assert "minimal: yes" in out

    def test_non_test(self, capsys):
        code, out, _ = run(capsys, "verify", "--input", "q25x10", "--test", "5,8,10")
        assert code == 0
        assert "test: no" in out

    def test_bad_columns_exit_1(self, capsys):
        code, _, err = run(capsys, "verify", "--input", "q25x10", "--test", "1,x")
        assert code == 1

    def test_column_out_of_range_exit_1(self, capsys):
        code, out, err = run(capsys, "verify", "--input", "q25x10", "--test", "1,99")
        assert (code, out) == (1, "")
        assert err == "error: column 99 out of range 1..10\n"

    def test_one_row_above_the_oracle_ceiling(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("01" * 11 + "0\n")  # one row of 23 columns
        argv = ("verify", "--input", str(path), "--test", "1")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (
            "columns: 1\ntest: yes\ndead-end: no\nminimal: no (minimal length 0)\n"
        )
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out)["min_length"] == 0

    def test_wide_matrix_is_decided(self, capsys, tmp_path):
        """24 columns, past the oracle's ceiling."""
        path = tmp_path / "wide.txt"
        path.write_text("\n".join(wide_matrix_lines()) + "\n")
        code, out, _ = run(capsys, "enumerate", "--input", str(path), "--json")
        listed = json.loads(out)["minimal_tests"][0]
        code, out, err = run(
            capsys, "verify", "--input", str(path), "--test", ",".join(map(str, listed))
        )
        assert (code, err) == (0, "")
        assert out == (
            f"columns: {','.join(map(str, listed))}\ntest: yes\ndead-end: yes\n"
            "minimal: yes (minimal length 5)\n"
        )
        every = ",".join(map(str, range(1, 25)))
        code, out, _ = run(capsys, "verify", "--input", str(path), "--test", every, "--json")
        assert code == 0
        assert json.loads(out) == {
            "columns": list(range(1, 25)),
            "test": True,
            "deadend": False,
            "minimal": "no",
            "min_length": 5,
        }

    def test_empty_column_set_is_named(self, capsys):
        code, out, _ = run(capsys, "verify", "--input", "q25x10", "--test", "")
        assert code == 0
        assert out.startswith("columns: (empty)\ntest: no\n")
        code, out, _ = run(capsys, "verify", "--input", "q25x10", "--test", "", "--json")
        assert json.loads(out)["columns"] == []


class TestOracle:
    def test_fixture(self, capsys):
        code, out, _ = run(capsys, "oracle", "--input", "q25x10")
        assert code == 0
        assert "minimal test length: 7" in out
        assert "minimal tests: 9" in out

    def test_report_matches_enumerate(self, capsys, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        run(capsys, "enumerate", "--input", "q25x10", "--report", str(p1))
        run(capsys, "oracle", "--input", "q25x10", "--report", str(p2))
        assert p1.read_text() == p2.read_text()

    def test_ceiling_exit_3(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--input", "q25x10", "--ceiling", "9"
        )
        assert code == 3

    def test_one_row_matrix_empty_test(self, capsys, one_row_file):
        code, out, _ = run(capsys, "oracle", "--input", one_row_file, "--deadend")
        assert code == 0
        assert out == (
            "minimal test length: 0\nminimal tests: 1\n  (empty)\n"
            "dead-end tests: 1\n  (empty)\n"
        )
        code, out, _ = run(capsys, "oracle", "--input", one_row_file, "--json")
        assert code == 0
        assert json.loads(out)["minimal_tests"] == [[]]

    def test_deadend_listing(self, capsys, tiny3x2_file):
        code, out, _ = run(capsys, "oracle", "--input", tiny3x2_file, "--deadend")
        assert code == 0
        assert "dead-end tests: 1" in out


class TestGenAndBench:
    def test_gen_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        code, _, _ = run(
            capsys,
            "gen",
            "--rows",
            "10",
            "--cols",
            "8",
            "--seed",
            "3",
            "--output",
            str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "analyze", "--input", str(path))
        assert code == 0
        assert "matrix: 10 rows x 8 columns" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--rows", "4", "--cols", "3", "--output"),
            ("enumerate", "--input", "q25x10", "--report"),
        ],
    )
    def test_unwritable_output_exit_1(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write output {str(path)!r}: ")
        assert err.count("\n") == 1

    def test_gen_pigeonhole_exit_1(self, capsys):
        code, _, err = run(capsys, "gen", "--rows", "3", "--cols", "1")
        assert code == 1

    def test_bench_pigeonhole_exit_1(self, capsys):
        """A shape with more rows than distinct rows exist is refused up
        front, as gen refuses it, with no CSV."""
        code, out, err = run(
            capsys, "bench", "--rows", "3", "--cols", "1", "--count", "3", "--deterministic"
        )
        assert (code, out) == (1, "")
        assert err == "error: 3 distinct rows impossible with 1 columns (limit 2)\n"

    def test_gen_one_row_exit_1(self, capsys):
        code, out, err = run(capsys, "gen", "--rows", "1", "--cols", "3")
        assert (code, out) == (1, "")
        assert err == "error: need at least two rows\n"

    def test_bench_one_row_exit_1(self, capsys):
        code, out, err = run(capsys, "bench", "--count", "2", "--rows", "1")
        assert (code, out) == (1, "")
        assert err == "error: need at least two rows\n"

    def test_bench_deterministic_identical(self, capsys, tmp_path):
        args = [
            "bench",
            "--count",
            "4",
            "--rows",
            "8",
            "--cols",
            "6",
            "--seed",
            "11",
            "--deterministic",
        ]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(p1)]) == 0
        assert main(args + ["--output", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_bench_fixture_replay(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--fixture", "q25x10", "--deterministic"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("seed,m,n,density")
        fields = lines[1].split(",")
        header = lines[0].split(",")
        row = dict(zip(header, fields))
        assert row["m"] == "25"
        assert row["heuristic_t0"] == "7"
        assert row["exact_t0"] == "7"
        assert row["n_minimal_tests"] == "9"

    def test_bench_unknown_fixture_exit_1(self, capsys):
        code, _, err = run(capsys, "bench", "--fixture", "no_such_fixture")
        assert code == 1
        assert "unknown fixture 'no_such_fixture'" in err

    def test_bench_class_set_fixture_exit_1(self, capsys):
        code, out, err = run(capsys, "bench", "--fixture", "m8_local")
        assert code == 1
        assert out == ""
        assert (
            "error: bench replays matrix fixtures only (q25x10); "
            "m8_local is a class-set fixture"
        ) in err

    def test_internal_key_error_is_not_an_input_error(self, monkeypatch):
        import mintest.cli as cli

        def broken(args):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "_cmd_gen", broken)
        with pytest.raises(KeyError):
            main(["gen", "--rows", "4", "--cols", "3"])

    def test_internal_value_error_is_not_an_input_error(self, monkeypatch):
        import mintest.cli as cli

        def broken(args):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "_cmd_gen", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["gen", "--rows", "4", "--cols", "3"])

    def test_bench_json_summary(self, capsys):
        code, out, err = run(
            capsys,
            "bench",
            "--count",
            "3",
            "--rows",
            "7",
            "--cols",
            "5",
            "--seed",
            "2",
            "--deterministic",
            "--json",
        )
        assert code == 0
        summary = json.loads(err)
        assert summary["mismatches"] == 0


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "--test", "1"], "verify needs a full matrix input"),
        (["oracle"], "the oracle needs a full matrix input"),
    ],
)
def test_matrix_verbs_refuse_a_class_set(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--input", "m8_local")
    assert (code, out, err) == (1, "", f"error: {message}\n")


class TestUsageErrors:
    """A malformed command line is an input error (exit 1); argparse's
    own 2 would read as a verification mismatch."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["bench", "--count", "abc"], "argument --count: invalid int value: 'abc'"),
            (["analyze"], "the following arguments are required: --input"),
            (["analyze", "--input", "q25x10", "--bogus"], "unrecognized arguments: --bogus"),
            (
                ["verify", "--input", "q25x10", "--test", "1", "--ceiling", "5"],
                "unrecognized arguments: --ceiling 5",
            ),
        ],
        ids=["bad-int", "missing-input", "unknown-flag", "verify-ceiling"],
    )
    def test_usage_error_exit_1(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 1
        assert out.out == ""
        assert out.err.startswith("usage: mintest")
        assert out.err.endswith(f"error: {message}\n")


class TestNegativeFlags:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["bench", "--count", "-1"], "--count must be >= 0, got -1"),
            (["bench", "--workers", "0"], "--workers must be >= 1, got 0"),
            (["bench", "--workers", "-2"], "--workers must be >= 1, got -2"),
            (["bench", "--oracle-ceiling", "-1"], "--oracle-ceiling must be >= 0, got -1"),
            (["oracle", "--input", "q25x10", "--ceiling", "-1"], "--ceiling must be >= 0, got -1"),
            (
                ["oracle", "--input", "q25x10", "--deadend", "--ceiling-deadend", "-1"],
                "--ceiling-deadend must be >= 0, got -1",
            ),
        ],
        ids=[
            "bench-count",
            "bench-workers-0",
            "bench-workers-negative",
            "bench-oracle-ceiling",
            "oracle-ceiling",
            "oracle-ceiling-deadend",
        ],
    )
    def test_exit_1(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_zero_count_and_ceiling_allowed(self, capsys):
        code, out, _ = run(capsys, "bench", "--count", "0", "--deterministic")
        assert code == 0
        assert out.startswith("seed,m,n,density")
        assert len(out.splitlines()) == 1


def readme_block(marker):
    """The first text block of the README after the marker."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split(marker, 1)[1].split("```text\n", 1)[1].split("```", 1)[0]


def readme_usage_entries():
    """The CLI usage block of the README, one string per subcommand with
    its continuation lines joined."""
    entries: dict[str, str] = {}
    for line in readme_block("## CLI\n").splitlines():
        if line.startswith("mintest "):
            command = line.split()[1]
            entries[command] = line
        else:
            entries[command] += line
    return entries


LONG_OPTION = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def test_readme_usage_block_lists_every_option(capsys):
    parser = build_parser()
    commands = re.search(r"\{([a-z,]+)\}", parser.format_usage()).group(1).split(",")
    entries = readme_usage_entries()
    assert sorted(entries) == sorted(commands)
    for command in commands:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--help"])
        assert exc.value.code == 0
        shown = set(LONG_OPTION.findall(capsys.readouterr().out)) - {"--help"}
        listed = set(LONG_OPTION.findall(entries[command]))
        assert sorted(shown - listed) == [], command


def test_readme_class_set_example_parses(m8):
    """The README's class-set example is the first two classes of the
    m8_local fixture."""
    cs = mintest.parse_class_set(readme_block("**Class-set file**"))
    assert (cs.columns, cs.mandatory, cs.total_rows) == (
        m8.columns,
        m8.mandatory,
        m8.total_rows,
    )
    assert cs.classes == m8.classes[:2]


def test_python_dash_m_runs_the_cli():
    """`python -m mintest` from a source tree: the package directory's
    parent on the path is all it needs."""
    source = str(Path(mintest.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=source)
    proc = subprocess.run(
        [sys.executable, "-m", "mintest", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: mintest ")


@pytest.fixture
def one_row_file(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("0101\n")
    return str(path)


@pytest.fixture
def tiny3x2_file(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("00\n01\n10\n")
    return str(path)


def run_module(*argv, **kwargs):
    """`python -m mintest` from the source tree, in a child process."""
    source = str(Path(mintest.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=source)
    return subprocess.Popen(
        [sys.executable, "-m", "mintest", *argv], env=env, **kwargs
    )


def test_a_closed_pipe_ends_the_listing_quietly():
    """A reader that stops after one line, as `| head -1` does, ends the
    listing without a traceback and with the verb's own exit code.  The
    matrix is larger than a pipe buffer, so the writer sees the close."""
    proc = run_module(
        "gen", "--rows", "20000", "--cols", "20", "--seed", "1",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"# generated: rows=20000")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


def test_a_library_warning_is_one_stderr_line(tmp_path):
    """In a child process, since the pytest configuration ignores this
    warning; in process, main restores the caller's warning display."""
    path = tmp_path / "m.txt"
    path.write_text("001\n111\n000\n")
    proc = run_module(
        "analyze", "--input", str(path),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, "warning: columns 1 and 2 are identical\n")
    shown = warnings.showwarning
    assert main(["analyze", "--input", str(path), "--output", str(tmp_path / "a")]) == 0
    assert warnings.showwarning is shown


def writes_outside_emit(tree):
    """The calls that could write a result, other than those in _emit: a
    print not sent to sys.stderr, a .write() and an open() for writing."""
    (emit,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_emit"
    ]
    inside = set(map(id, ast.walk(emit)))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        func = ast.unparse(node.func)
        keywords = {k.arg: ast.unparse(k.value) for k in node.keywords}
        if func == "print" and keywords.get("file") != "sys.stderr":
            found.append(ast.unparse(node))
        elif func.endswith(".write"):
            found.append(ast.unparse(node))
        elif func == "open":
            mode = node.args[1] if len(node.args) > 1 else None
            mode = ast.unparse(mode) if mode else keywords.get("mode", "'r'")
            if set(mode.strip("'\"")) - {"r", "b", "t"}:
                found.append(ast.unparse(node))
    return found


def test_only_emit_writes_results():
    """Every result leaves the CLI through _emit, the one writer that
    handles a closed pipe; stderr is for errors and warnings."""
    tree = ast.parse(Path(mintest.cli.__file__).read_text(encoding="utf-8"))
    assert writes_outside_emit(tree) == []
    # the walk sees a writer where there is one
    planted = ast.parse(
        "def _emit(path, text):\n    print(text)\n"
        "def f(path, text):\n    print(text)\n    sys.stdout.write(text)\n"
        "    open(path, 'w')\n    open(path, mode='a')\n    open(path)\n"
        "    print(text, file=sys.stderr)\n"
    )
    assert writes_outside_emit(planted) == [
        "print(text)", "sys.stdout.write(text)", "open(path, 'w')", "open(path, mode='a')"
    ]
