import json
import os
import random
import subprocess
import sys
import textwrap
import time
from itertools import islice, product
from pathlib import Path

import pytest

from facnum import cli, explore, formulas, lattice
from facnum.cli import GroupSpec, main
from facnum.errors import DomainError, FacnumError, ParseError, ResourceLimitError
from facnum.groups import (FAMILIES, build_named, dihedral8, elementary_abelian_group,
                           modular_p3, permute_elements)
from facnum.intpoly import IntPolynomial

from helpers import permutation_group


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_optimized(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run a Python script under python -O with the package on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-O", "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def cli_process(*argv: str, unbuffered: bool = False) -> subprocess.Popen:
    """`facnum <argv>` in a child process with the package on the path, its
    stdout and stderr piped, and stdout buffered unless `unbuffered`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "facnum.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


class TestGroupSpec:
    @pytest.mark.parametrize("text", [
        "abelian:p=2,type=1,2",
        "named:D8",
        "named:E:p=3",
        "named:Cyclic:p=2:n=3",
        "table:/tmp/x.tbl",
    ])
    def test_canonical_round_trip(self, text):
        spec = GroupSpec.parse(text)
        assert spec.canonical() == text
        assert GroupSpec.parse(spec.canonical()).canonical() == text

    def test_build(self):
        assert GroupSpec.parse("abelian:p=2,type=1,2").build().order == 8
        assert GroupSpec.parse("named:Q8").build().label == "Q8"

    @pytest.mark.parametrize("kind", ["abelian:p=2,type=1,2", "named:Cyclic:p=2:n=3", "table:"])
    def test_build_takes_the_order_cap(self, tmp_path, kind):
        path = tmp_path / "d8.tbl"
        path.write_text(dihedral8().to_table_text())
        spec = GroupSpec.parse(kind + (str(path) if kind == "table:" else ""))
        assert spec.build().order == 8
        with pytest.raises(ResourceLimitError, match="exceeds the safety cap 4"):
            spec.build(max_order=4)
        with pytest.raises(ResourceLimitError, match="exceeds the safety cap 4"):
            spec.build(4)

    def test_canonical_text_drops_spaces(self):
        assert GroupSpec.parse("abelian:p=2, type=1, 2").canonical() == "abelian:p=2,type=1,2"

    @pytest.mark.parametrize("text", ["abelian:p=2, type=1, 2", "named:Cyclic:n=3:p=2",
                                      "table:/tmp/x.tbl"])
    def test_equal_by_text(self, text):
        a, b = GroupSpec.parse(text), GroupSpec.parse(text)
        assert a == b and hash(a) == hash(b)
        assert a == GroupSpec.parse(a.canonical())

    @pytest.mark.parametrize("bad", [
        "abelian:type=1,2",
        "abelian:p=2",
        "named:",
        "table:",
        "wat:1",
        "abelian:p=x,type=1",
        # a repeated field is refused, not overwritten
        "abelian:p=2,p=3,type=1",
        "abelian:p=2,type=1,type=2",
        "named:M:p=3:p=5",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            GroupSpec.parse(bad)

    @pytest.mark.parametrize("bad", ["named:Sporadic", "named:D8:p=3", "named:M"])
    def test_named_family_checked_at_parse(self, bad):
        with pytest.raises(DomainError):
            GroupSpec.parse(bad)

    def test_constructors_give_the_parsed_spec(self, tmp_path):
        assert GroupSpec.abelian(formulas.PartitionType(2, (1, 2))) == GroupSpec.parse(
            "abelian:p=2,type=1,2")
        assert GroupSpec.named("M", 3) == GroupSpec.parse("named:M:p=3")
        assert GroupSpec.table(str(tmp_path)) == GroupSpec.parse(f"table:{tmp_path}")


class TestFormulaCommand:
    def test_elementary_value(self, capsys):
        code, out, _ = run(capsys, "formula", "elementary", "--n", "3", "--p", "2")
        assert code == 0 and "129" in out

    def test_elementary_poly(self, capsys):
        code, out, _ = run(capsys, "formula", "elementary", "--n", "2", "--poly")
        assert code == 0 and "p^2 + 3p + 5" in out

    def test_ep3_rejects_p2_with_diagnostic(self, capsys):
        code, out, err = run(capsys, "formula", "Ep3", "--p", "2")
        assert code == 2 and "odd" in err

    def test_json_format_keeps_strings(self, capsys):
        code, out, _ = run(capsys, "formula", "elementary", "--n", "4", "--p", "3",
                           "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["value"] == "24033"

    def test_missing_param(self, capsys):
        code, _, err = run(capsys, "formula", "rank2", "--p", "2")
        assert code == 2 and "a1" in err

    def test_cyclic(self, capsys):
        code, out, _ = run(capsys, "formula", "cyclic", "--n", "3")
        assert code == 0 and "7" in out

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_value_over_the_int_digit_limit(self, capsys, fmt):
        # 4 300 decimal digits is the interpreter's default limit on int -> str
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "formula", "rank2", "--p", "3", "--a1", "5000",
                             "--a2", "5000", "--format", fmt)
        assert sys.get_int_max_str_digits() == limit  # restored
        sys.set_int_max_str_digits(0)
        try:
            value = str(formulas.f2_rank2(3, 5000, 5000))
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, err) == (0, "") and len(value) > 4300
        if fmt == "json":
            assert json.loads(out)["value"] == value
        else:
            assert out == {"table": f"F2 = {value}\n", "csv": "family,params,value,poly\n"
                           f"rank2,a1=5000;a2=5000;p=3,{value},\n"}[fmt]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "formula", "Mp3", "--p", "5", "--format", "csv")
        assert code == 0 and "107" in out

    @pytest.mark.parametrize("family,partial,message,rest,value", [
        ("elementary", ["--p", "2"], "the following arguments are required: --n",
         ["--n", "3"], 129),
        ("rank2", ["--p", "3", "--a1", "1"], "the following arguments are required: --a2",
         ["--a2", "2"], 49),
        ("corollary4", ["--n", "3"], "corollary4 requires --p (or --poly)", ["--p", "2"], 43),
        # cyclic takes neither --p nor --poly
        ("cyclic", [], "the following arguments are required: --n", ["--n", "4"], 9),
        ("Mp3", [], "Mp3 requires --p (or --poly)", ["--p", "5"], 107),
        ("Ep3", [], "Ep3 requires --p (or --poly)", ["--p", "3"], 121),
    ])
    def test_each_family(self, capsys, family, partial, message, rest, value):
        # a missing declared parameter is an argparse error, a missing --p
        # the command's own; either way the last stderr line says which
        code, out, err = run(capsys, "formula", family, *partial)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] in (f"facnum: {message}",
                                        f"facnum formula {family}: error: {message}")
        assert run(capsys, "formula", family, *partial, *rest) == (0, f"F2 = {value}\n", "")

    @pytest.mark.parametrize("argv,params,value,poly", [
        (["rank2", "--p", "3", "--a2", "2", "--a1", "1", "--poly"],
         [("a1", 1), ("a2", 2), ("p", 3)], "49", "3p^2 + 5p + 7"),
        (["cyclic", "--n", "4"], [("n", 4)], "9", None),
    ])
    def test_json_params_in_table_order(self, capsys, argv, params, value, poly):
        code, out, _ = run(capsys, "formula", *argv, "--format", "json")
        doc = json.loads(out)
        assert code == 0 and list(doc["params"].items()) == params
        assert (doc["value"], doc["poly"]) == (value, poly)

    def test_inexact_division_exits_1_under_optimize(self):
        # an off-by-one bracket coefficient leaves a remainder mod (p-1)^4;
        # the exactness check must survive python -O
        script = textwrap.dedent("""
            import sys
            from facnum import cli, formulas
            exact = formulas._rank2_f2_bracket_coeffs
            def broken(a1, a2):
                coeffs = exact(a1, a2)
                coeffs[0] += 1
                return coeffs
            formulas._rank2_f2_bracket_coeffs = broken
            sys.exit(cli.main(["formula", "rank2", "--p", "3", "--a1", "1", "--a2", "2"]))
        """)
        proc = run_optimized(script)
        assert proc.returncode == 1, proc.stderr
        assert "verification failed" in proc.stderr

    def test_census_mismatch_exits_1_under_optimize(self):
        # an E(p^3) pair census off by one must fail the value check, and
        # the check must survive python -O
        script = textwrap.dedent("""
            import sys
            from facnum import cli, formulas
            census = formulas.f2_heisenberg_census_poly
            formulas.f2_heisenberg_census_poly = lambda: census() + 1
            sys.exit(cli.main(["formula", "Ep3", "--p", "3"]))
        """)
        proc = run_optimized(script)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert "E(p^3) pair census mismatch at p=3" in proc.stderr


class TestF2Command:
    def test_q8(self, capsys):
        code, out, _ = run(capsys, "f2", "named:Q8")
        assert code == 0
        assert "F2 = 17" in out and "|L| = 6" in out

    def test_verify_z2xz4(self, capsys):
        code, out, _ = run(capsys, "f2", "abelian:p=2,type=1,2", "--verify")
        assert code == 0
        assert "F2 = 29" in out
        assert "verify eq1: pass" in out
        assert "verify eq2_quotient: pass" in out
        assert "verify hall: pass" in out

    def test_list_heisenberg(self, capsys):
        code, out, _ = run(capsys, "f2", "named:E:p=3", "--list", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["pairs"]) == 121
        assert doc["f2"] == "121" and doc["lattice_size"] == "19"

    def test_list_cap(self, capsys, monkeypatch):
        # E(27) has 121 factorization pairs
        monkeypatch.setattr(cli, "MAX_LIST_PAIRS", 121)
        code, out, _ = run(capsys, "f2", "named:E:p=3", "--list")
        assert code == 0 and "121 factorization pairs" in out
        monkeypatch.setattr(cli, "MAX_LIST_PAIRS", 120)
        assert run(capsys, "f2", "named:E:p=3", "--list") == (
            3, "", "facnum: resource limit: --list would print 121 factorization pairs, "
                   "more than the limit 120\n")

    @pytest.mark.parametrize("spec", ["named:E:p=3", "abelian:p=2,type=1,1,1,1"])
    def test_list_json_is_json_dumps(self, capsys, spec):
        # the pairs are rendered apart from the rest of the document and
        # spliced in: the bytes are json.dumps(doc, indent=2)'s
        code, out, _ = run(capsys, "f2", spec, "--list", "--verify", "--format", "json")
        assert code == 0 and len(json.loads(out)["pairs"]) > 100
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_list_json_splice_ignores_strings(self, capsys, tmp_path):
        # a table path that reads like the pairs key dumps escaped, so the
        # splice still lands on the top-level key
        path = tmp_path / 'd8\n  "pairs": [].tbl'
        path.write_text(dihedral8().to_table_text())
        code, out, _ = run(capsys, "f2", f"table:{path}", "--list", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and len(doc["pairs"]) == 41 and doc["spec"] == f"table:{path}"
        assert out == json.dumps(doc, indent=2) + "\n"

    def test_list_disagreeing_with_f2_exits_1(self, capsys, monkeypatch):
        # F2 and the listing may come from different kernels, so --list
        # checks one against the other
        exact = cli.list_factorizations
        monkeypatch.setattr(cli, "list_factorizations", lambda lat: exact(lat)[1:])
        assert run(capsys, "f2", "named:E:p=3", "--list") == (
            1, "", "facnum: verification failed: --list found 120 factorization pairs, "
                   "but F2 = 121\n")

    def test_incidence_route_off_by_one_exits_1_under_optimize(self):
        # with a small _PAIR_CELLS, Z2^5's larger tasks go by incidence; one
        # extra pair per task must fail --verify, also under python -O
        script = textwrap.dedent("""
            import sys
            from facnum import cli, lattice
            lattice._PAIR_CELLS = 64
            if sys.argv[1] == "off":
                exact = lattice._incidence_pairs
                lattice._incidence_pairs = lambda words, task: exact(words, task) + 1
            sys.exit(cli.main(["f2", "abelian:p=2,type=1,1,1,1,1", "--verify"]))
        """)
        exact, off = (run_optimized(script, arg) for arg in ("exact", "off"))
        assert exact.returncode == 0, exact.stderr
        assert "F2 = 55989" in exact.stdout and "verify eq1: pass" in exact.stdout
        assert off.returncode == 1, off.stderr
        assert "F2 = 55989" not in off.stdout and "verify eq1: FAIL" in off.stdout

    @pytest.mark.parametrize("spec", ["named:E:p=3", "abelian:p=2,type=1,2"])
    def test_list_csv_prints_no_pairs(self, capsys, spec):
        csv = run(capsys, "f2", spec, "--format", "csv")
        assert csv[0] == 0
        assert run(capsys, "f2", spec, "--list", "--format", "csv") == csv

    def test_table_spec(self, capsys, tmp_path):
        path = tmp_path / "d8.tbl"
        path.write_text(dihedral8().to_table_text())
        code, out, _ = run(capsys, "f2", f"table:{path}")
        assert code == 0 and "F2 = 41" in out

    @pytest.mark.parametrize("kind,reason", [
        ("missing", "cannot read the table file '{path}': No such file or directory"),
        ("directory", "cannot read the table file '{path}': Is a directory"),
        ("utf16", "the table file '{path}' is not UTF-8 text: 'utf-8' codec can't decode "
                  "byte 0xff in position 0: invalid start byte"),
    ])
    def test_unreadable_table_exits_2(self, tmp_path, kind, reason):
        # in a fresh process, so that an uncaught exception would show its
        # traceback on stderr and exit 1
        path = tmp_path / "missing.tbl"
        if kind == "directory":
            path = tmp_path
        elif kind == "utf16":
            path = tmp_path / "d8.tbl"
            path.write_bytes(b"\xff\xfe" + dihedral8().to_table_text().encode("utf-16-le"))
        proc = run_optimized(f"import sys; from facnum import cli; "
                             f"sys.exit(cli.main(['f2', 'table:{path}']))")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"facnum: {reason.format(path=path)}\n"
        assert "Traceback" not in proc.stderr

    def test_out_of_range_in_last_row_exits_2_under_optimize(self, tmp_path):
        # the byte pass reads the first blocks and declines at the last row;
        # the per-row reader then names that row with checks python -O keeps
        rows = [[(i + j) % 1024 for j in range(1024)] for i in range(1024)]
        rows[1023][517] = 1024
        path = tmp_path / "z1024.tbl"
        path.write_text("1024\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
        proc = run_optimized(f"import sys; from facnum import cli; "
                             f"sys.exit(cli.main(['f2', 'table:{path}']))")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "facnum: row 1023, column 517: entry 1024 out of range [0, 1024)\n"
        assert proc.stdout == ""

    def test_verify_hall_failure_is_reported(self, capsys, monkeypatch):
        # Hall's formula off by one on the members of order p fails only the
        # per-member check; the hall line, the JSON and the exit code must
        # all say so
        exact = lattice.hall_mobius
        monkeypatch.setattr(lattice, "hall_mobius", lambda n, p, e: exact(n, p, e) + (n == 1))
        code, out, _ = run(capsys, "f2", "abelian:p=2,type=1,2", "--verify")
        assert code == 1
        assert "verify eq1: pass" in out and "verify hall: FAIL" in out
        code, out, _ = run(capsys, "f2", "abelian:p=2,type=1,2", "--verify", "--format", "json")
        checks = json.loads(out)["verify"]["checks"]
        assert code == 1
        assert checks == {"eq1": "pass", "eq2_subgroup": "pass", "eq2_quotient": "pass",
                          "hall": "FAIL", "closed_form": "pass"}

    @pytest.mark.parametrize("spec", ["named:Cyclic:p=2:n=0", "named:Elem:p=2:n=0",
                                      "named:E:p=5", "abelian:p=5,type=1,1",
                                      "named:M:p=3", "abelian:p=3,type=2"])
    def test_verify_closed_form_passes(self, capsys, spec):
        code, out, _ = run(capsys, "f2", spec, "--verify")
        assert code == 0 and out.splitlines()[-1] == "verify closed_form: pass"

    @pytest.mark.parametrize("spec", ["named:D8", "named:Q8", "abelian:p=2,type=1,1,2"])
    def test_verify_without_closed_form_prints_no_check(self, capsys, spec):
        # a family with no closed form gets the lattice checks only
        code, out, _ = run(capsys, "f2", spec, "--verify")
        assert code == 0 and "closed_form" not in out
        assert out.splitlines()[-1] == "verify hall: pass"

    @pytest.mark.parametrize("group", [dihedral8, lambda: modular_p3(3)], ids=["D8", "M27"])
    def test_verify_table_checks_are_the_lattice_checks(self, capsys, tmp_path, group):
        # a table has no family, even when its group has a closed form, so
        # its JSON checks keep exactly these keys
        path = tmp_path / "g.tbl"
        path.write_text(group().to_table_text())
        code, out, _ = run(capsys, "f2", f"table:{path}", "--verify", "--format", "json")
        assert code == 0
        assert list(json.loads(out)["verify"]["checks"]) == ["eq1", "eq2_subgroup",
                                                             "eq2_quotient", "hall"]

    def test_verify_closed_form_mismatch_exits_1_under_optimize(self):
        # M(p^3)'s closed form off by one must fail the closed_form check,
        # and the check must survive python -O
        script = textwrap.dedent("""
            import sys
            from facnum import cli, formulas
            exact = formulas.f2_modular_p3_poly
            formulas.f2_modular_p3_poly = lambda: exact() + 1
            sys.exit(cli.main(["f2", "named:M:p=3", "--verify"]))
        """)
        proc = run_optimized(script)
        assert proc.returncode == 1, proc.stderr
        lines = proc.stdout.splitlines()
        assert "verify closed_form: FAIL" in lines and "verify eq1: pass" in lines

    def test_verify_hall_failure_exits_1_under_optimize(self):
        script = textwrap.dedent("""
            import sys
            from facnum import cli, lattice
            exact = lattice.hall_mobius
            lattice.hall_mobius = lambda n, p, e: exact(n, p, e) + (n == 1)
            sys.exit(cli.main(["f2", "abelian:p=2,type=1,2", "--verify"]))
        """)
        proc = run_optimized(script)
        assert proc.returncode == 1, proc.stderr
        assert "verify hall: FAIL" in proc.stdout

    def test_verify_non_prime_power_skips_hall(self, capsys, tmp_path):
        text = "6\n" + "\n".join(
            " ".join(str((i + j) % 6) for j in range(6)) for i in range(6)
        ) + "\n"
        path = tmp_path / "z6.tbl"
        path.write_text(text)
        code, out, _ = run(capsys, "f2", f"table:{path}", "--verify")
        assert code == 0 and "hall: skipped" in out

    def test_verify_json_skipped_matches_checks(self, capsys, tmp_path):
        # one record of each verdict: the report's skipped reasons are the
        # checks that say "skipped", the Hall check of a non-p-group too
        path = tmp_path / "s3.tbl"
        path.write_text(permutation_group([(1, 0, 2), (1, 2, 0)]).to_table_text())
        code, out, _ = run(capsys, "f2", f"table:{path}", "--verify", "--format", "json")
        verify = json.loads(out)["verify"]
        assert code == 0
        reason = ("group is not abelian: the lattice forms require sd(H) = 1 "
                  "and quotient duality")
        assert verify["checks"] == {"eq1": "pass", "eq2_subgroup": f"skipped: {reason}",
                                    "eq2_quotient": f"skipped: {reason}",
                                    "hall": "skipped: order is not a prime power"}
        assert verify["report"]["skipped"] == {"eq2_subgroup": reason, "eq2_quotient": reason,
                                               "hall": "order is not a prime power"}

    def test_verify_counts_f2_once(self, capsys, monkeypatch):
        calls = []
        counted = lattice.f2_bruteforce

        def counting(lat, **kwargs):
            calls.append(len(lat))
            return counted(lat, **kwargs)

        monkeypatch.setattr(lattice, "f2_bruteforce", counting)
        monkeypatch.setattr(cli, "f2_bruteforce", counting)
        code, out, _ = run(capsys, "f2", "named:D8", "--verify")
        assert code == 0 and "F2 = 41" in out
        assert calls == [10]

    def test_verify_computes_mobius_once(self, capsys, monkeypatch):
        # verify_inversion and verify_hall both read mu(H, G) of one lattice
        calls = []
        computed = lattice.mobius_to_top

        def counting(lat):
            calls.append(len(lat))
            return computed(lat)

        monkeypatch.setattr(lattice, "mobius_to_top", counting)
        code, out, _ = run(capsys, "f2", "named:D8", "--verify")
        assert code == 0 and "verify hall: pass" in out
        assert calls == [10]

    def test_invalid_spec_exit_2(self, capsys):
        code, _, err = run(capsys, "f2", "abelian:p=4,type=1")
        assert code == 2 and "prime" in err

    def test_resource_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "f2", "named:D8", "--max-subgroups", "3")
        assert code == 3 and "cap" in err

    def test_order_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "f2", "named:Elem:p=2:n=13")
        assert code == 3

    @pytest.mark.parametrize("name", ["D8", "Q8"])
    def test_max_order_caps_named_order8(self, capsys, name):
        code, _, err = run(capsys, "f2", f"named:{name}", "--max-order", "4")
        assert code == 3 and "exceeds the safety cap 4" in err

    def test_max_order_reaches_quotient_route(self, capsys, monkeypatch):
        # the quotients built by --verify are no larger than the group, which
        # --max-order admitted over the smaller FACNUM_MAX_ORDER; the largest
        # one built, of order 16, is above the env cap
        monkeypatch.setenv("FACNUM_MAX_ORDER", "8")
        code, out, err = run(capsys, "f2", "named:Elem:p=2:n=5", "--verify", "--max-order", "32")
        assert code == 0, err
        assert "verify eq2_quotient: pass" in out

    def test_lattice_without_full_group_exits_1_under_optimize(self):
        # the endpoint checks of SubgroupLattice must survive python -O
        script = textwrap.dedent("""
            import sys
            from facnum import cli, explore, lattice
            init = lattice.SubgroupLattice.__init__
            def without_full(self, group, found):
                k = found.index((1 << group.order) - 1)
                init(self, group, found[:k] + found[k + 1:])
            lattice.SubgroupLattice.__init__ = without_full
            sys.exit(cli.main(["f2", "named:D8"]))
        """)
        proc = run_optimized(script)
        assert proc.returncode == 1, proc.stderr
        assert "largest lattice member has order 4, not the group order 8" in proc.stderr


class TestSdCommand:
    def test_unreadable_table_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "sd", f"table:{tmp_path}")
        assert (code, out) == (2, "")
        assert err == f"facnum: cannot read the table file '{tmp_path}': Is a directory\n"

    def test_d8(self, capsys):
        code, out, _ = run(capsys, "sd", "named:D8")
        assert code == 0
        assert "92/100" in out and "23/25" in out

    def test_abelian_is_one(self, capsys):
        code, out, _ = run(capsys, "sd", "abelian:p=3,type=1,1", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["sd"] == "1/1"

    def test_q8(self, capsys):
        code, out, _ = run(capsys, "sd", "named:Q8", "--format", "json")
        assert json.loads(out)["sd"] == "1/1"

    def test_route_mismatch_exits_1_under_optimize(self):
        # A down-list that loses a subgroup corrupts the member-F2 route only;
        # the check must not be an assert, which python -O strips.
        script = textwrap.dedent("""
            import sys
            from facnum import cli, explore, lattice
            built = lattice.SubgroupLattice.down_lists.fget
            def corrupted(lat):
                down = list(built(lat))
                top = lat.index_of_full
                down[top] = down[top][:-1]
                return down
            lattice.SubgroupLattice.down_lists = property(corrupted)
            sys.exit(cli.main(["sd", "named:D8"]))
        """)
        proc = run_optimized(script)
        assert proc.returncode == 1, proc.stderr
        assert "sd routes disagree" in proc.stderr

    @pytest.mark.parametrize("argv,stream,message", [
        (("sd", "named:D8"), "stderr", "sd routes disagree"),
        (("f2", "named:D8", "--verify"), "stdout", "verify eq1: FAIL"),
    ])
    def test_member_kernel_off_by_one_exits_1_under_optimize(self, argv, stream, message):
        # One extra pair at the full group's own F2, which the member kernel
        # counts on D8 (10 members).  eq1 moves with F2(G) alone: the Moebius
        # values mu(H, G) over the H above a proper K sum to 0.
        script = textwrap.dedent("""
            import sys
            from facnum import cli, lattice
            exact = lattice._member_f2s
            def off(lat):
                counts = exact(lat)
                counts[lat.index_of_full] += 1
                return counts
            lattice._member_f2s = off
            sys.exit(cli.main(sys.argv[1:]))
        """)
        proc = run_optimized(script, *argv)
        assert proc.returncode == 1, proc.stderr
        assert message in getattr(proc, stream)

    def test_up_list_mismatch_exits_1_under_optimize(self):
        # An up-list that loses a member corrupts the joins of the
        # permuting-pairs route only
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from facnum import cli, explore, lattice
            built = lattice.SubgroupLattice.up_lists.fget
            def corrupted(lat):
                up = list(built(lat))
                up[1] = np.delete(up[1], 1)  # an order-4 member above it
                return up
            lattice.SubgroupLattice.up_lists = property(corrupted)
            sys.exit(cli.main(["sd", "named:D8"]))
        """)
        proc = run_optimized(script)
        assert proc.returncode == 1, proc.stderr
        assert "sd routes disagree" in proc.stderr

    def test_up_list_without_full_group_exits_1_under_optimize(self):
        # Two members with no common upper member have no join; that must
        # fail the run, not read index -1 (the full group's order)
        script = textwrap.dedent("""
            import sys
            from facnum import cli, explore, lattice
            built = lattice.SubgroupLattice.up_lists.fget
            def corrupted(lat):
                up = list(built(lat))
                up[1] = up[1][:-1]  # the full group, last by order
                return up
            lattice.SubgroupLattice.up_lists = property(corrupted)
            sys.exit(cli.main(["sd", "named:D8"]))
        """)
        proc = run_optimized(script)
        assert proc.returncode == 1, proc.stderr
        assert "no common upper member" in proc.stderr

    def test_relabelled_z2_6_in_bounded_time(self, capsys, tmp_path):
        # 2 825 subgroups, so about 4 million pairs, each with its join
        G = elementary_abelian_group(2, 6)
        rng = random.Random(6)
        path = tmp_path / "z2_6.tbl"
        path.write_text(permute_elements(G, [0] + rng.sample(range(1, 64), 63)).to_table_text())
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "sd", f"table:{path}")
        assert code == 0 and " = 1/1 ~ " in out
        assert time.perf_counter() - t0 < 10

    def test_pair_limit_exits_3_in_bounded_time(self, capsys):
        # Z2^7 has 29 212 subgroups, 4.3*10^8 unordered pairs
        t0 = time.perf_counter()
        code, _, err = run(capsys, "sd", "named:Elem:p=2:n=7")
        assert code == 3
        assert ("sd over 29212 subgroups would compare 426655866 unordered pairs, "
                "more than the limit 10000000") in err
        assert time.perf_counter() - t0 < 10

    def test_broken_self_check_exits_1_under_optimize(self):
        # Q8 with a wrong inverse fails y^-1 x y = x^-1; python -O must
        # keep that check
        script = textwrap.dedent("""
            import sys
            from facnum import cli, groups
            groups.FiniteGroup.inv = lambda self, a: 0
            sys.exit(cli.main(["f2", "named:Q8"]))
        """)
        proc = run_optimized(script)
        assert proc.returncode == 1, proc.stderr
        assert "Q8 self-check failed: y^-1 x y = x^-1" in proc.stderr


class TestExploreCommand:
    def test_theorem5_verified(self, capsys):
        code, out, _ = run(capsys, "explore", "theorem5", "--p", "2", "--n", "3")
        assert code == 0 and "verified" in out

    @pytest.mark.parametrize("p,env_cap", [(2, 4), (3, 16)])
    def test_theorem5_max_order_reaches_builtins(self, capsys, monkeypatch, p, env_cap):
        # --max-order overrides FACNUM_MAX_ORDER for every catalog group
        monkeypatch.setenv("FACNUM_MAX_ORDER", str(env_cap))
        code, out, err = run(capsys, "explore", "theorem5", "--p", str(p), "--n", "3",
                             "--max-order", str(p**3))
        assert code == 0 and "verified" in out, err

    @pytest.mark.parametrize("n", [1, 2])
    def test_conjecture6_max_order_caps_builtins(self, capsys, n):
        code, _, err = run(capsys, "explore", "conjecture6", "--p", "5", "--n", str(n),
                           "--max-order", "4")
        assert code == 3 and "exceeds the safety cap 4" in err

    @pytest.mark.parametrize("sweep", ["openproblem", "conjecture6"])
    def test_order_cap_refuses_before_the_partitions(self, sweep):
        # partitions(90) has about 5.7e7 members; the cap is checked first
        proc = cli_process("explore", sweep, "--p", "2", "--n", "90")
        try:
            out, err = proc.communicate(timeout=10)
        finally:
            proc.kill()
        assert (proc.returncode, out) == (3, "")
        assert err == (f"facnum: resource limit: group order {2**90} exceeds the safety cap "
                       "4096 (pass max_order or set FACNUM_MAX_ORDER to override)\n")

    def test_conjecture6_unreadable_table_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing.tbl"
        code, out, err = run(capsys, "explore", "conjecture6", "--p", "2", "--n", "3",
                             "--tables", str(path))
        assert (code, out) == (2, "")
        assert err == f"facnum: cannot read the table file '{path}': No such file or directory\n"

    @pytest.mark.parametrize("what", ["theorem5", "conjecture6", "openproblem"])
    def test_closed_form_mismatch_exits_1_under_optimize(self, what):
        # a brute force that disagrees with the closed forms must fail the
        # run even under python -O, which strips asserts
        script = textwrap.dedent(f"""
            import sys
            from facnum import cli, explore
            counted = explore.f2_bruteforce
            explore.f2_bruteforce = lambda lat, **kw: counted(lat, **kw) + 1
            sys.exit(cli.main(["explore", "{what}", "--p", "2", "--n", "2"]))
        """)
        proc = run_optimized(script)
        assert proc.returncode == 1, proc.stderr
        assert "verification failed" in proc.stderr and "closed form" in proc.stderr

    def test_theorem5_wrong_modular_closed_form_fails(self, capsys, monkeypatch):
        # every catalog row with a closed form is checked, not only the
        # elementary one
        # 8 + 5p + 3p^2 is 50 at p = 3
        monkeypatch.setattr(formulas, "f2_modular_p3_poly", lambda: IntPolynomial((8, 5, 3)))
        code, _, err = run(capsys, "explore", "theorem5", "--p", "3", "--n", "3")
        assert code == 1
        assert "closed form 50 disagrees with brute force 49 for M(27)" in err

    def test_theorem5_max_subgroups_caps_enumeration(self, capsys):
        code, _, err = run(capsys, "explore", "theorem5", "--p", "2", "--n", "3",
                           "--max-subgroups", "3")
        assert code == 3 and "subgroup count exceeded the cap 3" in err

    def test_openproblem_both_verdicts(self, capsys):
        code, out, _ = run(capsys, "explore", "openproblem", "--p", "2", "--n", "4",
                           "--format", "json")
        doc = json.loads(out)
        assert code == 0  # monotone under at least one convention
        assert doc["verdicts"]["nonincreasing_lex"]["monotone"] is True
        assert doc["verdicts"]["nondecreasing_lex"]["monotone"] is False

    def test_conjecture6_with_tables(self, capsys, tmp_path):
        path = tmp_path / "d8.tbl"
        path.write_text(dihedral8().to_table_text())
        code, out, _ = run(capsys, "explore", "conjecture6", "--p", "2", "--n", "3",
                           "--tables", str(path))
        assert code == 0 and "verified" in out

    def test_conjecture6_coverage_note(self, capsys):
        code, out, _ = run(capsys, "explore", "conjecture6", "--p", "2", "--n", "4",
                           "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["coverage_complete"] is False

    def test_wrong_order_table_exit_2(self, capsys, tmp_path):
        path = tmp_path / "d8.tbl"
        path.write_text(dihedral8().to_table_text())
        code, _, err = run(capsys, "explore", "conjecture6", "--p", "2", "--n", "4",
                           "--tables", str(path))
        assert code == 2 and "d8.tbl" in err

    def test_wrong_order_table_refused_before_the_sweep(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "d8.tbl"
        path.write_text(dihedral8().to_table_text())
        swept = []
        monkeypatch.setattr(explore, "enumerate_subgroups",
                            lambda G, **kw: swept.append(G.label))
        assert run(capsys, "explore", "conjecture6", "--p", "2", "--n", "3",
                   "--tables", str(path), str(path), str(tmp_path / "z5.tbl")) == (
            2, "", f"facnum: cannot read the table file '{tmp_path / 'z5.tbl'}': "
                   "No such file or directory\n")
        assert swept == []
        code, _, err = run(capsys, "explore", "conjecture6", "--p", "2", "--n", "4",
                           "--tables", str(path))
        assert code == 2 and err == f"facnum: {path}: table has order 8, expected p^n = 16\n"
        assert swept == []


class TestOutputContracts:
    def test_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "f2", "named:D8", "--format", "json")
        _, out2, _ = run(capsys, "f2", "named:D8", "--format", "json")
        assert out1 == out2

    def test_exit_codes_disjoint(self, capsys):
        ok, _, _ = run(capsys, "formula", "cyclic", "--n", "1")
        bad_input, _, _ = run(capsys, "formula", "Ep3", "--p", "2")
        resource, _, _ = run(capsys, "f2", "named:D8", "--max-subgroups", "2")
        assert (ok, bad_input, resource) == (0, 2, 3)

    def test_formula_takes_no_caps_or_threads(self, capsys):
        code, _, err = run(capsys, "formula", "cyclic", "--n", "3", "--threads", "2")
        assert code == 2 and "unrecognized arguments: --threads 2" in err

    @pytest.mark.parametrize("argv,refused", [
        (["formula", "cyclic", "--n", "3", "--p", "5"], "--p 5"),
        (["formula", "cyclic", "--n", "3", "--poly"], "--poly"),
        (["formula", "elementary", "--n", "3", "--p", "2", "--a1", "5"], "--a1 5"),
        (["formula", "Mp3", "--p", "3", "--n", "4"], "--n 4"),
        (["explore", "theorem5", "--p", "2", "--n", "2", "--tables", "x.tbl"], "--tables x.tbl"),
        (["explore", "openproblem", "--p", "2", "--n", "2", "--tables", "x.tbl"],
         "--tables x.tbl"),
    ])
    def test_undeclared_flag_exits_2(self, capsys, argv, refused):
        # each front end takes only what its family or sweep declares
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f": error: unrecognized arguments: {refused}\n")

    @pytest.mark.parametrize("argv,usage", [
        (["formula", "cyclic", "--n", "3", "--p", "5"], "usage: facnum formula cyclic [-h] --n N"),
        (["explore", "theorem5", "--p", "2", "--n", "2", "--tables", "x"],
         "usage: facnum explore theorem5 [-h] --p P --n N"),
        (["f2", "named:D8", "extra"], "usage: facnum f2 [-h]"),
    ])
    def test_undeclared_flag_shows_the_leaf_usage(self, capsys, argv, usage):
        # the parser of the family or sweep reports it, with its own flags
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(usage) and "usage: facnum [-h]" not in err
        prog = usage[len("usage: "):usage.index(" [-h]")]
        assert f"\n{prog}: error: unrecognized arguments: " in err

    def test_parser_built_once(self, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        # a sweep rebound after the parser was built still reaches the command
        calls = []
        sweep = cli.check_theorem5

        def counted(*args, **kwargs):
            calls.append(args)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(cli, "check_theorem5", counted)
        code, _, _ = run(capsys, "explore", "theorem5", "--p", "2", "--n", "2")
        assert code == 0 and calls == [(2, 2)]

    @pytest.mark.parametrize("spec,message", [
        ("named:D8:p=3", "D8 takes no parameter p"),
        ("named:M:p=3:n=9", "M takes no parameter n"),
    ])
    def test_undeclared_named_parameter_exits_2(self, capsys, spec, message):
        assert run(capsys, "f2", spec) == (2, "", f"facnum: {message}\n")

    @pytest.mark.parametrize("flag", ["--max-order", "--max-subgroups", "--threads"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command", [["f2", "named:D8"], ["sd", "named:D8"],
                                         ["explore", "theorem5", "--p", "2", "--n", "2"]])
    def test_nonpositive_cap_or_threads_exits_2(self, capsys, command, flag, value):
        code, out, err = run(capsys, *command, f"{flag}={value}")
        assert (code, out) == (2, "")
        assert err.endswith(f": error: argument {flag}: must be a positive integer, got {value}\n")

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv,first_line", [
        # --list prints about 1.5 MB, far more than a pipe buffer holds
        (["f2", "named:Elem:p=2:n=5", "--list"], "group Z2^5 (order 32)\n"),
        # closed before the child has started: a short output fails at its flush
        (["f2", "named:D8"], None),
    ])
    def test_closed_stdout_exits_141_quietly(self, argv, first_line, unbuffered):
        proc = cli_process(*argv, unbuffered=unbuffered)
        if first_line is not None:
            assert proc.stdout.readline() == first_line
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == ""
        proc.stderr.close()

    def test_argparse_error_exit_2(self, capsys):
        code, _, _ = run(capsys, "formula", "nosuchfamily")
        assert code == 2

    def test_help_exit_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and "facnum" in out


def _valid_parameters(declared, fns, primes=(2, 3), rest=range(3)):
    """(params, [fn(*params) for fn in fns]) for each parameter tuple, p first
    and smallest first, that every one of fns accepts."""
    for params in product(primes, *[rest] * (len(declared) - 1)) if declared else [()]:
        try:
            values = [fn(*params) for fn in fns]
        except FacnumError:
            continue
        yield params, values


class TestFamilyTable:
    """Every family is one row of groups.FAMILIES, and each row that has a
    closed form meets brute force here, so a new row cannot go unchecked."""

    def test_formula_choices_are_the_rows(self):
        formula = next(a for a in cli.build_parser()._actions if a.dest == "command")
        families = next(a for a in formula.choices["formula"]._actions if a.dest == "family")
        assert list(families.choices) == [row[1] for row in FAMILIES if row[1]]

    def test_named_keys_are_the_rows(self):
        keys = [row[0] for row in FAMILIES if row[0]]
        for key, _, declared, build, *_ in FAMILIES:
            if key:
                params, (group,) = next(_valid_parameters(declared, [build]))
                fields = "".join(f":{name}={v}" for name, v in zip(declared, params))
                assert GroupSpec.parse(f"named:{key}{fields}").build().label == group.label
        # a formula name is not a named: key, nor is the None of a row without one
        for name in ("Sporadic", None, *(row[1] for row in FAMILIES if row[1])):
            with pytest.raises(DomainError, match=rf"\(expected {', '.join(keys)}\)$"):
                build_named(name)

    @pytest.mark.parametrize("row", [row for row in FAMILIES if row[3] and row[4]],
                             ids=lambda row: row[0] or row[1])
    def test_closed_form_meets_brute_force(self, capsys, row):
        # at the two smallest valid parameter tuples
        _, family, declared, build, f2, poly_fn = row
        checked = list(islice(_valid_parameters(declared, [build, f2]), 2))
        assert checked, "no valid parameters"
        for params, (group, value) in checked:
            assert lattice.f2_bruteforce(lattice.enumerate_subgroups(group)) == value
            if family is None:
                continue
            flags = [f"--{name}={v}" for name, v in zip(declared[1:], params[1:])]
            if poly_fn is not None:
                flags.append(f"--p={params[0]}")
            assert run(capsys, "formula", family, *flags) == (0, f"F2 = {value}\n", "")

    @pytest.mark.parametrize("row", [row for row in FAMILIES if row[5]],
                             ids=lambda row: row[0] or row[1])
    def test_polynomial_is_the_value(self, row):
        _, _, declared, _, f2, poly_fn = row
        found = list(_valid_parameters(declared, [f2], primes=(2, 3, 5), rest=range(4)))
        assert {params[0] for params, _ in found} >= {3, 5}
        for params, (value,) in found:
            assert poly_fn(*params[1:])(params[0]) == value
