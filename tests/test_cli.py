import json
import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from facnum import cli, explore, lattice
from facnum.cli import GroupSpec, main
from facnum.errors import ParseError
from facnum.groups import dihedral8, elementary_abelian_group, permute_elements


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run a Python script under python -O with the package on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


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

    @pytest.mark.parametrize("bad", [
        "abelian:type=1,2",
        "abelian:p=2",
        "named:",
        "table:",
        "wat:1",
        "abelian:p=x,type=1",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            GroupSpec.parse(bad)


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

    def test_table_spec(self, capsys, tmp_path):
        path = tmp_path / "d8.tbl"
        path.write_text(dihedral8().to_table_text())
        code, out, _ = run(capsys, "f2", f"table:{path}")
        assert code == 0 and "F2 = 41" in out

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
                          "hall": "FAIL"}

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
            def without_full(self, group, found, edges):
                k = found.index((1 << group.order) - 1)
                src, dst = edges
                keep = (src != k) & (dst != k)
                src, dst = src[keep], dst[keep]
                init(self, group, found[:k] + found[k + 1:], (src - (src > k), dst - (dst > k)))
            lattice.SubgroupLattice.__init__ = without_full
            sys.exit(cli.main(["f2", "named:D8"]))
        """)
        proc = run_optimized(script)
        assert proc.returncode == 1, proc.stderr
        assert "largest lattice member has order 4, not the group order 8" in proc.stderr


class TestSdCommand:
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
        assert time.perf_counter() - t0 < 30

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
        monkeypatch.setattr(explore, "f2_modular_p3", lambda p: 50)
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

    def test_argparse_error_exit_2(self, capsys):
        code, _, _ = run(capsys, "formula", "nosuchfamily")
        assert code == 2

    def test_help_exit_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and "facnum" in out
