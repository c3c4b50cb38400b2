"""Tests of the benchmark itself (not of facnum): counters, seeding, checks.

    python3 -m pytest -q perfbench/tests
"""

import pytest

import facnum.cli as cli
from facnum import formulas
from facnum.groups import elementary_abelian_group
from facnum.lattice import enumerate_subgroups, f2_bruteforce
from run import layer_metrics, run_pass
from tracer import Tracer, containment_candidates, pair_candidates
import workloads as wl


def traced_totals(argv):
    with Tracer() as tr:
        assert cli.main(argv) == 0
    return tr.totals()


def test_d8_subgroup_count():
    assert traced_totals(["f2", "named:D8", "--threads", "1"])["enumerate.subgroups"] == 10


def test_z2_cubed_counters_match_brute_force():
    totals = traced_totals(["f2", "named:Elem:p=2:n=3", "--threads", "1"])
    assert totals["pairs.calls"] == 1
    assert totals["pairs.candidate_pairs"] == 178
    assert totals["pairs.factorizations"] == formulas.f2_elementary(3, 2)
    assert totals["containment.calls"] == 0  # f2 without --verify needs no containment

    totals = traced_totals(["f2", "named:Elem:p=2:n=3", "--verify", "--threads", "1"])
    assert totals["containment.calls"] == 1
    assert totals["containment.comparable_pairs"] == 66
    assert totals["containment.candidate_pairs"] == 94

    lat = enumerate_subgroups(elementary_abelian_group(2, 3))
    m = len(lat)
    orders = lat.orders.tolist()
    assert sum(lat.leq(i, j) for i in range(m) for j in range(m)) == 66
    assert sum(i == j or (orders[j] % orders[i] == 0 and orders[j] > orders[i])
               for i in range(m) for j in range(m)) == 94
    assert containment_candidates(lat.orders) == 94
    assert pair_candidates(lat.orders, 8)[0] == sum(
        (o * p) % 8 == 0 and min(o, p) % (o * p // 8) == 0 for o in orders for p in orders)


def test_counters_never_force_containment():
    lat = enumerate_subgroups(elementary_abelian_group(2, 4))
    with Tracer():
        f2_bruteforce(lat)
    assert lat._up is None


def test_tracer_restores_every_name():
    before = (cli.main, cli.enumerate_subgroups, cli.load_cayley_table)
    with Tracer():
        assert cli.main is not before[0]
    assert (cli.main, cli.enumerate_subgroups, cli.load_cayley_table) == before


def test_same_seed_same_bytes(tmp_path):
    names = ["e27", "m27", "z2x5"]
    a = wl.write_tables(names, 7, tmp_path / "a")
    b = wl.write_tables(names, 7, tmp_path / "b")
    c = wl.write_tables(names, 8, tmp_path / "c")
    for name in names:
        assert a[name].read_bytes() == b[name].read_bytes()
        assert a[name].read_bytes() != c[name].read_bytes()


@pytest.mark.parametrize("seed", [1, 2])
def test_other_seed_relabels_but_keeps_answers(tmp_path, seed):
    jobs = [job for job in wl.workload_jobs("catalog", tmp_path)
            if job.argv[0] != "explore"]
    paths = wl.write_tables({t for job in jobs for t in job.tables}, seed, tmp_path)
    plain = wl.table_text(wl.TABLES["e27"]())
    assert paths["e27"].read_text() != plain
    result = run_pass(cli, jobs, seed, digests=None)
    assert result.failed == 0, result.jobs


def test_wrong_expectation_counts_as_failed(tmp_path):
    wl.write_tables(["d8"], 0, tmp_path)
    good = wl._sd("d8", tmp_path, 92, 10)
    bad = wl.Job("sd-d8-wrong", good.argv, {"exit": 0, "sd": (93, 100)}, good.tables)
    result = run_pass(cli, [good, bad], 0, digests=None)
    assert [bool(j["problems"]) for j in result.jobs] == [False, True]
    assert result.failed / len(result.jobs) > 0


def test_changed_stdout_counts_as_failed(tmp_path):
    wl.write_tables(["q8"], 0, tmp_path)
    job = wl._sd("q8", tmp_path, 36, 6)
    digests = {job.name: {"sha256": "0" * 64, "seed_independent": True}}
    assert run_pass(cli, [job], 3, digests).failed == 1


def test_missing_digest_counts_as_failed(tmp_path):
    wl.write_tables(["q8"], 0, tmp_path)
    job = wl._sd("q8", tmp_path, 36, 6)
    result = run_pass(cli, [job], 0, digests={})
    assert result.failed == 1
    assert "no stdout digest" in result.jobs[0]["problems"][0]


def test_layer_self_times_add_up_to_wall(tmp_path):
    # catalog without theorem5 at p = 5, plus a millisecond theorem5 that
    # still enters the explore and formulas layers
    small_theorem5 = wl._theorem5(2, 2, {"Z2^2": formulas.f2_elementary(2, 2),
                                         "Z4": formulas.f2_cyclic(2)})
    jobs = [job for job in wl.workload_jobs("catalog", tmp_path)
            if job.argv[0] != "explore"] + [small_theorem5]
    wl.write_tables({t for job in jobs for t in job.tables}, 0, tmp_path)
    with Tracer() as tr:
        traced = run_pass(cli, jobs, 0, digests=None)
    m = layer_metrics(tr, traced, traced.wall_s)
    layers = sum(v for k, v in m.items() if k.endswith(".self_s") and k != "other.self_s")
    assert layers + m["other.self_s"] == pytest.approx(m["trace.wall_s"])
    assert all(m[f"{layer}.self_s"] > 0 for layer in
               ("groups", "enumerate", "containment", "pairs", "mobius", "verify",
                "explore", "formulas", "cli"))
    assert m["pairs.duplicate_calls"] >= 2  # --list and --verify recount F2(E27)


def test_expected_answers_are_the_closed_forms():
    f = formulas
    assert wl.F2_Z2_7 == f.f2_elementary(7, 2)
    assert wl.F2_Z27xZ27 == f.f2_rank2(3, 3, 3)
    assert wl.F2_Z1024 == f.f2_cyclic(10)
    assert wl.F2_E27 == f.f2_heisenberg_p3(3)
    assert wl.L_Z2_7 == f.total_subgroups_elementary(7, 2)
    assert wl.L_Z2_5 == f.total_subgroups_elementary(5, 2)
    assert wl.L_Z27xZ27 == f.subgroup_count_rank2(3, 3, 3)
    assert wl.L_E27 == f.lattice_size_heisenberg_p3(3)
    assert wl.THEOREM5_P5 == {
        "Z5^3": f.f2_elementary(3, 5), "Z5xZ25": f.f2_rank2(5, 1, 2), "Z125": f.f2_cyclic(3),
        "M(125)": f.f2_modular_p3(5), "E(125)": f.f2_heisenberg_p3(5)}

