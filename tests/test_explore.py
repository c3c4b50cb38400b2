import json

import numpy as np
import pytest

from facnum import GroupSpec, explore
from facnum.cli import main
from facnum.errors import DomainError
from facnum.explore import (
    check_conjecture6,
    check_theorem5,
    open_problem_table,
    partitions,
    theorem5_catalog,
)
from facnum.groups import dihedral8


def swept_specs(monkeypatch, sweep, *args) -> list[GroupSpec]:
    """The specs that a sweep hands to _sweep."""
    seen: list[GroupSpec] = []
    real = explore._sweep

    def recording(specs, *rest):
        seen.extend(specs)
        return real(specs, *rest)

    monkeypatch.setattr(explore, "_sweep", recording)
    sweep(*args)
    return seen


class TestCatalogSpecs:
    """A catalog is a list of specs, and each row re-runs from its spec's text."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [2, 3])
    def test_theorem5_rows_reparse(self, p, n):
        self.check_reparse(theorem5_catalog(p, n))

    @pytest.mark.parametrize("sweep", [open_problem_table, check_conjecture6])
    def test_abelian_rows_reparse(self, monkeypatch, sweep):
        specs = swept_specs(monkeypatch, sweep, 2, 4)
        assert [s.text for s in specs] == [f"abelian:p=2,type={','.join(map(str, pf.nondecreasing))}"
                                           for pf in partitions(4)]
        self.check_reparse(specs)

    @staticmethod
    def check_reparse(specs):
        for spec in specs:
            again = GroupSpec.parse(spec.text)
            assert again == spec and again.closed() == spec.closed()
            G, H = spec.build(), again.build()
            assert G.label == H.label and np.array_equal(G.table, H.table)

    def test_theorem5_rows_rerun_with_f2(self, capsys):
        specs = theorem5_catalog(2, 3)
        rows = check_theorem5(2, 3).rows
        assert [s.closed() is not None for s in specs] == [True, True, True, False, False]
        for spec, row in zip(specs, rows, strict=True):
            assert main(["f2", spec.text, "--verify"]) == 0
            out = capsys.readouterr().out
            assert f"group {row['label']} (order 8)\nF2 = {row['f2']}\n" in out
            assert ("verify closed_form: pass" in out) == (spec.closed() is not None)
            assert "FAIL" not in out


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


class TestEachValueOnce:
    """A sweep evaluates each row's closed form once, and conjecture6 takes
    its bound from its first row instead of evaluating the form again."""

    def test_openproblem_evaluates_each_closed_form_once(self, monkeypatch):
        from facnum import groups

        calls = []
        real = groups.abelian_closed_form
        monkeypatch.setattr(groups, "abelian_closed_form", lambda t: calls.append(t) or real(t))
        report = open_problem_table(2, 4)
        assert len(report.rows) == 5 and len(calls) == 5

    def test_conjecture6_builds_the_elementary_polynomial_once(self, monkeypatch):
        from facnum import formulas

        calls = []
        real = formulas.f2_elementary_poly
        monkeypatch.setattr(formulas, "f2_elementary_poly", lambda n: calls.append(n) or real(n))
        check_conjecture6(2, 4)
        assert calls == [4]

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_conjecture6_bound_is_the_elementary_f2(self, p, n, tmp_path):
        from facnum.formulas import f2_elementary
        from facnum.groups import cyclic_group

        assert check_conjecture6(p, n).bound == f2_elementary(n, p)
        table = tmp_path / "cyclic.tbl"
        table.write_text(cyclic_group(p, n).to_table_text())
        report = check_conjecture6(p, n, [str(table)])
        assert report.bound == f2_elementary(n, p)
        assert report.rows[-1]["source"] == str(table)
