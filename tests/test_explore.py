import json

import pytest

from facnum.errors import DomainError
from facnum.explore import (
    check_conjecture6,
    check_theorem5,
    open_problem_table,
    partitions,
    theorem5_catalog,
)
from facnum.groups import dihedral8


class TestPartitions:
    def test_counts(self):
        assert [len(partitions(n)) for n in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]

    def test_n4_exact(self):
        got = {p.nondecreasing for p in partitions(4)}
        assert got == {(4,), (1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1)}

    def test_both_forms(self):
        for p in partitions(5):
            assert p.nonincreasing == tuple(reversed(p.nondecreasing))
            assert list(p.nondecreasing) == sorted(p.nondecreasing)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            partitions(0)


class TestTheorem5:
    def test_p2_n3_values(self):
        report = check_theorem5(2, 3)
        values = {r["label"]: int(r["f2"]) for r in report.rows}
        assert values == {"Z2^3": 129, "Z2xZ4": 29, "Z8": 7, "D8": 41, "Q8": 17}
        assert report.passed and report.max_value == 129
        assert report.cyclic_minimum == 7

    def test_p3_n3_values(self):
        report = check_theorem5(3, 3)
        values = {r["label"]: int(r["f2"]) for r in report.rows}
        # 445 = 3*81 + 4*27 + 8*9 + 5*3 + 7
        assert values == {"Z3^3": 445, "Z3xZ9": 49, "Z27": 7, "M(27)": 49, "E(27)": 121}
        assert report.passed

    def test_p5_n2(self):
        report = check_theorem5(5, 2)
        values = {r["label"]: int(r["f2"]) for r in report.rows}
        assert values == {"Z5^2": 45, "Z25": 5}
        assert report.passed

    def test_rejects_other_n(self):
        with pytest.raises(DomainError):
            check_theorem5(2, 4)
        with pytest.raises(DomainError):
            theorem5_catalog(2, 1)


class TestConjecture6:
    def test_p2_n3_complete(self):
        report = check_conjecture6(2, 3)
        assert report.passed and report.coverage_complete
        assert report.bound == 129
        assert len(report.rows) == 5

    def test_p3_n2(self):
        report = check_conjecture6(3, 2)
        assert report.passed and report.bound == 23
        assert len(report.rows) == 2  # only two groups of order 9

    def test_p2_n4_abelian_only(self):
        report = check_conjecture6(2, 4)
        assert report.passed
        assert not report.coverage_complete
        assert "not enumerated" in report.coverage_note
        values = sorted(int(r["f2"]) for r in report.rows)
        assert values == [9, 43, 83, 279, 1983]
        assert report.bound == 1983

    def test_extra_table(self, tmp_path):
        path = tmp_path / "d8.tbl"
        path.write_text(dihedral8().to_table_text())
        report = check_conjecture6(2, 3, [str(path)])
        assert report.passed
        assert any(r["source"] == str(path) for r in report.rows)

    def test_wrong_order_table_names_file(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text(dihedral8().to_table_text())
        with pytest.raises(DomainError, match="bad.tbl"):
            check_conjecture6(2, 4, [str(path)])


class TestOpenProblem:
    def test_p2_n2(self):
        report = open_problem_table(2, 2)
        values = [int(r["f2"]) for r in report.rows]
        assert values == [15, 5]  # (1,1) then (2)
        assert report.verdicts["nondecreasing_lex"]["monotone"]
        assert report.verdicts["nonincreasing_lex"]["monotone"]

    def test_p2_n4_convention_sensitivity(self):
        report = open_problem_table(2, 4)
        by_part = {tuple(r["nondecreasing"]): int(r["f2"]) for r in report.rows}
        assert by_part == {
            (1, 1, 1, 1): 1983,
            (1, 1, 2): 279,
            (1, 3): 43,
            (2, 2): 83,
            (4,): 9,
        }
        assert not report.verdicts["nondecreasing_lex"]["monotone"]
        assert report.verdicts["nondecreasing_lex"]["violated_at"] == [[1, 3], [2, 2]]
        assert report.verdicts["nonincreasing_lex"]["monotone"]
        assert report.passed

    def test_p3_n3(self):
        report = open_problem_table(3, 3)
        values = [int(r["f2"]) for r in report.rows]
        assert values == [445, 49, 7]
        assert all(v["monotone"] for v in report.verdicts.values())

    def test_closed_form_crosschecks_present(self):
        report = open_problem_table(2, 4)
        for r in report.rows:
            if len(r["nondecreasing"]) <= 2 or set(r["nondecreasing"]) == {1}:
                assert r["closed_form"] == r["f2"]


class TestReports:
    def test_json_deterministic_and_parseable(self):
        a = check_theorem5(2, 3).to_json()
        b = check_theorem5(2, 3).to_json()
        assert a == b
        doc = json.loads(a)
        assert doc["verdict"] == "verified"
        assert doc["max_value"] == "129"

    def test_render_is_aligned_text(self):
        text = open_problem_table(2, 2).render()
        assert "partition" in text and "monotone" in text

    def test_monotonicity_json_round_trip(self):
        doc = json.loads(open_problem_table(2, 4).to_json())
        assert doc["report"] == "partition_monotonicity"
        assert all(isinstance(r["f2"], str) for r in doc["rows"])
