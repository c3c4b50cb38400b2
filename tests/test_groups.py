import io
import random
import re
import time

import numpy as np
import pytest

from facnum import groups
from facnum.errors import (
    DomainError,
    ParseError,
    ResourceLimitError,
    ValidationError,
    VerificationError,
)
from facnum.formulas import PartitionType
from facnum.groups import (
    FiniteGroup,
    build_abelian,
    build_named,
    cyclic_group,
    dihedral8,
    elementary_abelian_group,
    heisenberg_p3,
    is_elementary_abelian,
    load_cayley_table,
    modular_p3,
    parse_cayley_table,
    permute_elements,
    prime_power,
    quaternion8,
    quotient,
)

from helpers import (
    abelian_table_by_coordinates,
    associative_bruteforce,
    cyclic_group_of_order,
    dihedral_group,
    direct_product,
    heisenberg_p3_table,
    modular_p3_table,
    order8_table,
    permutation_group,
    reduced_latin_squares,
)
from facnum.lattice import enumerate_subgroups
from test_lattice import ORACLE_GROUPS, relabeled


class TestBuildAbelian:
    def test_order_two(self):
        G = build_abelian(PartitionType(2, (1,)))
        assert G.table.tolist() == [[0, 1], [1, 0]]

    def test_trivial(self):
        G = build_abelian(PartitionType(5, ()))
        assert G.order == 1 and G.label == "Z1"

    def test_commutative_everywhere(self):
        for p, alphas in [(2, (1, 2)), (2, (2, 2)), (3, (1, 1)), (2, (1, 1, 2)), (5, (2,))]:
            G = build_abelian(PartitionType(p, alphas))
            assert G.is_commutative
            assert G.order == p ** sum(alphas)

    def test_identity_is_zero(self):
        G = build_abelian(PartitionType(3, (1, 2)))
        assert G.mult(0, 17) == 17 and G.mult(17, 0) == 17

    def test_order_cap(self):
        with pytest.raises(ResourceLimitError):
            build_abelian(PartitionType(2, (1,) * 13))  # order 8192 > 4096

    def test_env_var_overrides_cap(self, monkeypatch):
        monkeypatch.setenv("FACNUM_MAX_ORDER", "16")
        with pytest.raises(ResourceLimitError):
            build_abelian(PartitionType(2, (5,)))
        assert build_abelian(PartitionType(2, (4,))).order == 16

    @pytest.mark.parametrize("p,alphas", [
        (2, (1, 2, 3)), (3, (1, 2)), (5, (1, 2)), (2, (1, 1, 3)), (3, (1, 1, 2)),
    ])
    def test_table_against_mixed_radix_reference(self, p, alphas):
        G = build_abelian(PartitionType(p, alphas))
        assert G.table.tolist() == abelian_table_by_coordinates([p ** a for a in alphas])

    def test_element_orders_mixed_radix(self):
        G = build_abelian(PartitionType(2, (1, 2)))
        # coordinates (x1 mod 2, x2 mod 4), first coordinate fastest
        assert G.element_order(1) == 2   # (1, 0)
        assert G.element_order(2) == 4   # (0, 1)


class TestNamedFamilies:
    def test_d8(self):
        G = dihedral8()
        assert G.order == 8 and not G.is_commutative
        orders = sorted(G.element_orders().tolist())
        assert orders == [1, 2, 2, 2, 2, 2, 4, 4]

    def test_q8(self):
        G = quaternion8()
        assert G.order == 8 and not G.is_commutative
        orders = sorted(G.element_orders().tolist())
        assert orders == [1, 2, 4, 4, 4, 4, 4, 4]

    def test_modular_27(self):
        G = modular_p3(3)
        assert G.order == 27 and not G.is_commutative
        # a cyclic subgroup of index p exists: an element of order p^2
        assert max(G.element_orders().tolist()) == 9

    def test_modular_rejects_2(self):
        with pytest.raises(DomainError):
            modular_p3(2)

    def test_heisenberg_27(self):
        G = heisenberg_p3(3)
        assert G.order == 27 and not G.is_commutative
        assert np.all(G.element_orders()[1:] == 3)  # exponent p
        center = [g for g in range(27)
                  if all(G.mult(g, h) == G.mult(h, g) for h in range(27))]
        assert len(center) == 3

    def test_heisenberg_rejects_2(self):
        with pytest.raises(DomainError):
            heisenberg_p3(2)

    def test_build_named_dispatch(self):
        assert build_named("Cyclic", 2, 3).order == 8
        assert build_named("Elem", 3, 2).order == 9
        assert build_named("D8").label == "D8"
        assert build_named("M", 3).order == 27
        with pytest.raises(DomainError):
            build_named("E")  # missing p
        with pytest.raises(DomainError, match=r"\(expected Cyclic, Elem, D8, Q8, M, E\)$"):
            build_named("Sporadic")

    @pytest.mark.parametrize("name,args,order,message", [
        ("Cyclic", (2, 3), 8, "Cyclic requires both p and n"),
        ("Elem", (3, 2), 9, "Elem requires both p and n"),
        ("D8", (), 8, None),
        ("Q8", (), 8, None),
        ("M", (3,), 27, "M requires p"),
        ("E", (3,), 27, "E requires p"),
    ])
    def test_build_named_each_family(self, name, args, order, message):
        assert build_named(name, *args).order == order
        for given in range(len(args)):  # each prefix of the parameters
            with pytest.raises(DomainError, match=f"^{message}$"):
                build_named(name, *args[:given])

    @pytest.mark.parametrize("name,p,n,refused", [
        ("D8", 3, None, "p"),
        ("Q8", None, 2, "n"),
        ("M", 3, 9, "n"),
        ("E", 3, 1, "n"),
    ])
    def test_build_named_refuses_undeclared(self, name, p, n, refused):
        # a parameter the family does not declare is refused, not dropped
        with pytest.raises(DomainError, match=f"^{name} takes no parameter {refused}$"):
            build_named(name, p, n)


    @pytest.mark.parametrize("builder,attr,broken,relation", [
        (dihedral8, "element_order", lambda self, a: 0, "r^4 = s^2 = 1"),
        (quaternion8, "inv", lambda self, a: 0, "y^-1 x y = x^-1"),
        (lambda: modular_p3(3), "inv", lambda self, a: 0, "y^-1 x y = x^(p+1)"),
        (lambda: heisenberg_p3(3), "element_orders",
         lambda self: np.zeros(self.order, dtype=np.int64), "exponent p"),
    ], ids=["D8", "Q8", "M27", "E27"])
    def test_broken_relation_raises(self, monkeypatch, builder, attr, broken, relation):
        monkeypatch.setattr(FiniteGroup, attr, broken)
        with pytest.raises(VerificationError, match=re.escape(f"self-check failed: {relation}")):
            builder()


class TestPresentedTables:
    # the named families come from generator data; these pin their element
    # numbering to the coordinate rules they were first written with
    def test_d8_and_q8(self):
        assert np.array_equal(dihedral8().table, order8_table(0))
        assert np.array_equal(quaternion8().table, order8_table(2))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_modular_and_heisenberg(self, p):
        assert np.array_equal(modular_p3(p).table, modular_p3_table(p))
        assert np.array_equal(heisenberg_p3(p).table, heisenberg_p3_table(p))

    @pytest.mark.parametrize("gens", [
        [(4, 0, []), (2, 1, [3])],  # s^2 = r, but s r s^-1 = r^3 moves r
        [(4, 0, []), (2, 0, [2])],  # r -> r^2 is not an automorphism
    ], ids=["power-not-fixed", "not-bijective"])
    def test_inconsistent_presentation_rejected(self, gens):
        with pytest.raises(ValidationError):
            FiniteGroup(groups._presented_table(gens, None))


# every group the lattice tests build, plus larger ones whose element
# orders run long (Z_1024 relabelled) or mix primes
ELEMENT_ORDER_GROUPS = ORACLE_GROUPS + [
    ("E27", lambda: heisenberg_p3(3)),
    ("M27", lambda: modular_p3(3)),
    ("E125", lambda: heisenberg_p3(5)),
    ("M125", lambda: modular_p3(5)),
    ("Z27xZ27", lambda: build_abelian(PartitionType(3, (3, 3)))),
    ("Z2^5", lambda: elementary_abelian_group(2, 5)),
    ("D60", lambda: dihedral_group(30)),
    ("Z360", lambda: cyclic_group_of_order(360)),
    ("A5", lambda: permutation_group([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], "A5")),
    ("Z1024~1", relabeled(lambda: cyclic_group(2, 10), 1)),
]


@pytest.mark.parametrize("builder", [b for _, b in ELEMENT_ORDER_GROUPS],
                         ids=[label for label, _ in ELEMENT_ORDER_GROUPS])
def test_element_orders_match_element_order(builder):
    G = builder()
    orders = G.element_orders()
    assert orders.dtype == np.int64
    assert orders.tolist() == [G.element_order(a) for a in range(G.order)]



def _power(G, x: int, k: int) -> int:
    """x^k by square and multiply, one G.mult at a time."""
    result = 0
    while k:
        if k & 1:
            result = G.mult(result, x)
        x, k = G.mult(x, x), k >> 1
    return result


# the lattice tests' groups, plus groups whose exponent test walks far
PTH_POWER_GROUPS = ORACLE_GROUPS + [
    ("Z1024", lambda: cyclic_group(2, 10)),
    ("Z2^7", lambda: elementary_abelian_group(2, 7)),
    ("E27", lambda: heisenberg_p3(3)),
    ("M27", lambda: modular_p3(3)),
    ("Z2xZ4", lambda: build_abelian(PartitionType(2, (1, 2)))),
]


@pytest.mark.parametrize("builder", [b for _, b in PTH_POWER_GROUPS],
                         ids=[label for label, _ in PTH_POWER_GROUPS])
def test_pth_powers_and_exponent_test_match_element_orders(builder):
    G = builder()
    orders = G.element_orders()
    for p in (2, 3, 5, 7, 13):
        powers = groups._pth_powers(G, p)
        assert powers.tolist() == [_power(G, x, p) for x in range(G.order)]
        # x^p = 1 exactly when the order of x divides p
        assert (powers == 0).tolist() == (p % orders == 0).tolist()
    pk = prime_power(G.order)
    if G.order == 1:
        expected = (True, None, 0)
    elif G.is_commutative and pk is not None and np.all(orders[1:] == pk[0]):
        expected = (True, *pk)
    else:
        expected = (False, None, None)
    assert is_elementary_abelian(G) == expected

# a latin square with identity 0 and two-sided inverses, not associative
NONASSOC_LOOP_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


class TestValidation:
    def test_broken_associativity_names_triple(self):
        with pytest.raises(ValidationError, match=r"associativity fails at triple"):
            FiniteGroup(NONASSOC_LOOP_5)

    def test_broken_identity(self):
        with pytest.raises(ValidationError, match="identity"):
            FiniteGroup([[1, 0], [0, 1]])

    def test_broken_row_permutation(self):
        with pytest.raises(ValidationError):
            FiniteGroup([[0, 1, 2], [1, 1, 0], [2, 0, 1]])

    def test_validate_rerunnable(self):
        G = dihedral8()
        G.validate()


def _failing_triple(message: str) -> tuple[int, int, int]:
    match = re.match(r"associativity fails at triple \((\d+), (\d+), (\d+)\): ", message)
    assert match, message
    return tuple(int(v) for v in match.groups())


def _check_light_against_oracle(table) -> bool:
    """FiniteGroup accepts the table iff the n^3 oracle does; a rejection
    names a triple that really fails (or an element that really has no
    two-sided inverse, the check that runs first).  Returns acceptance."""
    t = np.asarray(table)
    try:
        FiniteGroup(t)
    except ValidationError as exc:
        assert not associative_bruteforce(t)
        message = str(exc)
        inverse = re.fullmatch(r"element (\d+) has no two-sided inverse", message)
        if inverse:
            a = int(inverse.group(1))
            assert not any(t[a, b] == 0 and t[b, a] == 0 for b in range(len(t)))
        else:
            x, a, y = _failing_triple(message)
            assert t[t[x, a], y] != t[x, t[a, y]]
        return False
    assert associative_bruteforce(t)
    return True


class TestLightAssociativity:
    def test_every_reduced_latin_square_up_to_order_6(self):
        # reduced Latin squares of orders 1..6: 1, 1, 1, 4, 56, 9408; group
        # tables among them: 1, 1, 1, 4, 6 (Z5), 60 (Z6) + 20 (S3)
        counts, accepted = [], []
        for n in range(1, 7):
            squares = list(reduced_latin_squares(n))
            counts.append(len(squares))
            accepted.append(sum(_check_light_against_oracle(sq) for sq in squares))
        assert counts == [1, 1, 1, 4, 56, 9408]
        assert accepted == [1, 1, 1, 4, 6, 80]

    def test_corrupted_group_tables(self):
        # switching an intercalate (a 2x2 subsquare) away from the identity's
        # row and column keeps a Latin square with identity 0
        rng = random.Random(7)
        builders = [dihedral8, quaternion8, lambda: elementary_abelian_group(2, 4),
                    lambda: build_abelian(PartitionType(2, (1, 2))),
                    lambda: direct_product(cyclic_group(2, 1), dihedral8()),
                    lambda: permutation_group([(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)]),
                    lambda: heisenberg_p3(3)]
        switched = 0
        for builder in builders:
            t = builder().table
            n = len(t)
            for _ in range(40):
                a, b = rng.sample(range(1, n), 2)
                c = rng.randrange(1, n)
                d = int(np.flatnonzero(t[a] == t[b, c])[0])
                if d == 0 or t[b, d] != t[a, c]:
                    continue
                bad = t.copy()
                bad[[a, a, b, b], [c, d, c, d]] = t[[a, a, b, b], [d, c, d, c]]
                switched += 1
                assert not _check_light_against_oracle(bad)
        assert switched > 50

    def test_corrupted_table_in_a_late_row_block(self):
        # at order 1024 Light's test gathers 256 rows at a time; an
        # intercalate switched in the last rows must still be found
        t = elementary_abelian_group(2, 10).table
        a, b, c = 1000, 1001, 1002
        d = int(t[t[a, b], c])  # in Z2^n: a+d = b+c and b+d = a+c
        bad = t.copy()
        bad[[a, a, b, b], [c, d, c, d]] = t[[a, a, b, b], [d, c, d, c]]
        with pytest.raises(ValidationError) as info:  # too large for the n^3 oracle
            FiniteGroup(bad)
        x, a, y = _failing_triple(str(info.value))
        assert bad[bad[x, a], y] != bad[x, bad[a, y]]

    def test_witness_of_nonassociative_loop(self):
        t = np.array(NONASSOC_LOOP_5)
        with pytest.raises(ValidationError) as info:
            FiniteGroup(t)
        x, a, y = _failing_triple(str(info.value))
        assert t[t[x, a], y] != t[x, t[a, y]]

    @pytest.mark.parametrize("builder", [
        lambda: heisenberg_p3(13),
        lambda: modular_p3(13),
        lambda: cyclic_group(2, 12),
        lambda: elementary_abelian_group(2, 12),  # log2(n) generators to check
    ], ids=["E(2197)", "M(2197)", "Z4096", "Z2^12"])
    def test_orders_near_the_cap_in_bounded_time(self, builder):
        start = time.perf_counter()
        G = builder()
        assert G.order >= 2197
        assert time.perf_counter() - start < 15


CYCLIC6_TEXT = "6\n" + "\n".join(
    " ".join(str((i + j) % 6) for j in range(6)) for i in range(6)
) + "\n"


class TestCayleyTableIO:
    def test_parse_z2(self):
        G = parse_cayley_table("2\n0 1\n1 0\n")
        assert G.order == 2

    def test_comments_before_header(self):
        G = parse_cayley_table("# cyclic of order 2\n\n2\n0 1\n1 0\n")
        assert G.order == 2

    def test_identity_renumbered(self):
        # identity sits at index 1: relabel must bring it to 0
        text = "2\n1 0\n0 1\n"
        G = parse_cayley_table(text)
        assert G.table.tolist() == [[0, 1], [1, 0]]

    def test_non_prime_power_order_loads(self):
        G = parse_cayley_table(CYCLIC6_TEXT, label="Z6")
        assert G.order == 6 and G.is_commutative

    def test_malformed_inputs(self):
        with pytest.raises(ParseError):
            parse_cayley_table("")
        with pytest.raises(ParseError):
            parse_cayley_table("x\n")
        with pytest.raises(ParseError):
            parse_cayley_table("2\n0 1\n")
        with pytest.raises(ParseError):
            parse_cayley_table("2\n0 1 1\n1 0\n")
        with pytest.raises(ParseError):
            parse_cayley_table("2\n0 7\n1 0\n")

    @pytest.mark.parametrize("entry,outcome", [
        ("+1", None),  # int() reads a sign, a leading zero and an underscore
        ("01", None),
        ("0_1", None),
        ("1_000", "row 0, column 1: entry 1000 out of range [0, 2)"),
        ("99999999999999999999",
         "row 0, column 1: entry 99999999999999999999 out of range [0, 2)"),
        ("-1", "row 0, column 1: entry -1 out of range [0, 2)"),
        ("2", "row 0, column 1: entry 2 out of range [0, 2)"),
        ("1.0", "row 0: non-integer entry"),
        ("1e0", "row 0: non-integer entry"),
        ("0x1", "row 0: non-integer entry"),
    ])
    def test_entry_syntax(self, entry, outcome):
        text = f"2\n0 {entry}\n1 0\n"
        if outcome is None:
            assert parse_cayley_table(text).table.tolist() == [[0, 1], [1, 0]]
        else:
            with pytest.raises(ParseError, match=f"^{re.escape(outcome)}$"):
                parse_cayley_table(text)

    def test_first_bad_row_decides_the_error(self):
        # row 0 is out of range and row 1 is short: rows are read in order
        with pytest.raises(ParseError, match=r"^row 0, column 1: entry 5 out of range \[0, 2\)$"):
            parse_cayley_table("2\n0 5\n1\n")
        with pytest.raises(ParseError, match=r"^row 1: expected 2 entries, found 1$"):
            parse_cayley_table("2\n0 1\n1\n")

    def test_non_associative_table_cites_witness(self):
        text = "5\n" + "\n".join(
            " ".join(str(v) for v in row) for row in NONASSOC_LOOP_5
        ) + "\n"
        with pytest.raises(ValidationError, match=r"associativity fails at triple \(\d+, \d+, \d+\)"):
            parse_cayley_table(text)

    def test_round_trip_byte_for_byte(self):
        G = dihedral8()
        text = G.to_table_text()
        G2 = load_cayley_table(io.StringIO(text))
        assert G2.to_table_text() == text
        assert G2.table.tolist() == G.table.tolist()

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "q8.tbl"
        path.write_text(quaternion8().to_table_text())
        G = load_cayley_table(path)
        assert G.order == 8 and G.label == "q8"

    def test_undecodable_stream_is_a_parse_error(self):
        text = quaternion8().to_table_text()
        with pytest.raises(ParseError, match="^the table stream is not UTF-8 text: 'utf-8' codec "
                                             "can't decode byte 0xff in position 0"):
            load_cayley_table(io.BytesIO(b"\xff\xfe" + text.encode("utf-16-le")))
        assert load_cayley_table(io.BytesIO(text.encode())).order == 8


def _table_text(rows, sep: str = " ", eol: str = "\n") -> str:
    return eol.join(sep.join(map(str, row)) for row in rows)


def _with_entry(rows, i: int, j: int, entry: str):
    rows = [list(map(str, row)) for row in rows]
    rows[i][j] = entry
    return rows


def _parser_corpus(seed: int = 13) -> list[str]:
    """Valid and malformed Cayley-table texts: the layouts and entries
    below, then seeded random edits of the small ones."""
    rng = random.Random(seed)
    z6 = CYCLIC6_TEXT.splitlines()[1:]
    d8 = dihedral8().table.tolist()
    # Z5 with its identity at index 3: i * j = i + j - 3 mod 5
    shifted = [[(i + j - 3) % 5 for j in range(5)] for i in range(5)]
    small = [
        "# cyclic of order 6\n\n  # indented comment\n6\n" + "\n".join(z6) + "\n",
        "5\n" + _table_text(shifted) + "\n",
        # trailing blank lines, or no final line break
        "8\n" + _table_text(d8) + "\n\n   \n\n",
        "8\n" + _table_text(d8),
        # CRLF, tabs, runs of spaces
        "8\r\n" + _table_text(d8, eol="\r\n") + "\r\n",
        "8\n" + _table_text(d8, sep="\t") + "\n",
        "8\n" + _table_text(d8, sep="   ") + "  \n",
        # zero-padded to 22 digits, and to the byte pass's limit of 18
        "8\n" + _table_text(_with_entry(d8, 7, 1, "0" * 21 + "5")) + "\n",
        "8\n" + _table_text(_with_entry(d8, 0, 0, "0" * 18)) + "\n",
        # a blank line inside the body, the wrong row count, short and long rows
        "8\n" + _table_text(d8[:4]) + "\n\n" + _table_text(d8[4:]) + "\n",
        "8\n" + _table_text(d8[:7]) + "\n",
        "8\n" + _table_text(d8 + d8[:1]) + "\n",
        "8\n" + _table_text([d8[0][:7]] + d8[1:]) + "\n",
        "8\n" + _table_text(d8[:7] + [d8[7] + [0]]) + "\n",
    ]
    entries = [
        "8\n" + _table_text(_with_entry(d8, 2, 3, entry)) + "\n"
        for entry in ("01", "+1", "0_1", "-1", "1.0", "0x1", "8", "\u0661", "1\u00a0")
    ]
    # Z300 takes about 350 KB, more than one row block; the bad entries sit
    # in the last row
    big = [[(i + j) % 300 for j in range(300)] for i in range(300)]
    large = ["300\n" + _table_text(_with_entry(big, 299, 17, entry)) + "\n"
             for entry in ("16", "300", "9" * 19)]
    edits = ["", " ", "\n", "\r", "\t", "0", "9", "01", "-", "x", "\u00e9", "\x0c",
             "0" * 19 + "1"]
    edited = []
    for _ in range(300):
        text = rng.choice(small)
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(text) + 1)
            text = text[:k] + rng.choice(edits) + text[k + rng.randint(0, 1):]
        edited.append(text)
    return small + entries + large + edited


def _parse_outcome(text: str):
    try:
        return parse_cayley_table(text).table.tobytes()
    except (ParseError, ValidationError, ResourceLimitError) as exc:
        return type(exc), str(exc)


class TestByteReader:
    """The byte pass of parse_cayley_table against the per-row reader."""

    @pytest.mark.parametrize("block", [1, 10, 100, groups._LIGHT_BLOCK_ELEMS])
    def test_same_table_or_error_as_per_row_reader(self, monkeypatch, block):
        monkeypatch.setattr(groups, "_LIGHT_BLOCK_ELEMS", block)
        corpus = _parser_corpus()
        taken = {}
        read_row_blocks = groups._read_row_blocks

        def spy(text, start, n):
            table = read_row_blocks(text, start, n)
            taken[text] = table is not None
            return table

        monkeypatch.setattr(groups, "_read_row_blocks", spy)
        fast = [_parse_outcome(text) for text in corpus]
        monkeypatch.setattr(groups, "_read_row_blocks", lambda text, start, n: None)
        for text, outcome in zip(corpus, fast):
            assert outcome == _parse_outcome(text), repr(text[:200])
        # both readers had work: tables the byte pass read, and tables the
        # per-row reader read after the byte pass declined
        accepted = [taken.get(text, False) for text in corpus]
        assert any(accepted)
        assert any(isinstance(o, bytes) for o, a in zip(fast, accepted) if not a)

    @pytest.mark.parametrize("builder", [
        dihedral8,
        lambda: elementary_abelian_group(2, 5),
        lambda: build_abelian(PartitionType(3, (3, 3))),
    ], ids=["D8", "Z2^5", "Z27xZ27"])
    def test_exported_tables_take_the_byte_pass(self, monkeypatch, builder):
        G = builder()

        def refuse(body, n):
            raise AssertionError("the per-row reader ran")

        monkeypatch.setattr(groups, "_read_rows", refuse)
        assert np.array_equal(parse_cayley_table(G.to_table_text()).table, G.table)


class TestQuotient:
    def test_z4_by_subgroup(self):
        G = cyclic_group(2, 2)
        Q = quotient(G, [0, 2])
        assert Q.order == 2

    def test_type_1_2_by_klein(self):
        G = build_abelian(PartitionType(2, (1, 2)))
        # the unique Klein subgroup: (x1, x2) with 2*x2 = 0 -> {0,1,4,5}
        klein = [i for i in range(8) if G.mult(i, i) == 0]
        assert len(klein) == 4
        Q = quotient(G, klein)
        assert Q.order == 2

    def test_type_1_2_by_first_factor_gives_cyclic4(self):
        G = build_abelian(PartitionType(2, (1, 2)))
        Q = quotient(G, [0, 1])  # <(1, 0)>
        assert Q.order == 4
        assert max(Q.element_orders().tolist()) == 4  # cyclic

    def test_order_multiplicativity(self):
        G = heisenberg_p3(3)
        center = [g for g in range(27)
                  if all(G.mult(g, h) == G.mult(h, g) for h in range(27))]
        Q = quotient(G, center)
        assert Q.order * len(center) == G.order

    def test_non_normal_rejected(self):
        G = dihedral8()
        # a reflection generates a non-normal order-2 subgroup
        reflection = 4
        assert G.mult(reflection, reflection) == 0
        with pytest.raises(DomainError, match="not normal"):
            quotient(G, [0, reflection])

    def test_non_subgroup_rejected(self):
        G = cyclic_group(2, 2)
        with pytest.raises(DomainError):
            quotient(G, [0, 1])  # {0, 1} not closed in Z4

    @pytest.mark.parametrize("block", [None, 1])
    @pytest.mark.parametrize("label,builder", [
        ("D8", dihedral8), ("Q8", quaternion8), ("E27", lambda: heisenberg_p3(3)),
        ("M27", lambda: modular_p3(3)), ("D66", lambda: dihedral_group(33)),
        ("S4", lambda: permutation_group([(1, 2, 3, 0), (1, 0, 2, 3)], "S4")),
        ("D8~1", relabeled(dihedral8, 1)),
    ])
    def test_normality_against_conjugation_oracle(self, label, builder, block, monkeypatch):
        # every subgroup: the quotient exists iff no g moves N, and the
        # error names the least g that does; block=1 gives one g per block
        if block is not None:
            monkeypatch.setattr(groups, "_LIGHT_BLOCK_ELEMS", block)
        G = builder()
        for s in enumerate_subgroups(G).subgroups:
            N = set(s.indices())
            movers = [g for g in range(G.order)
                      if {G.mult(G.mult(g, x), G.inv(g)) for x in N} != N]
            if movers:
                with pytest.raises(DomainError, match=f"by element {movers[0]} moves it$"):
                    quotient(G, s)
            else:
                assert quotient(G, s).order * len(N) == G.order

    def test_abelian_quotient_at_the_order_cap(self):
        G = cyclic_group(2, 12)
        start = time.perf_counter()
        Q = quotient(G, range(0, 4096, 2))
        assert Q.order == 2 and time.perf_counter() - start < 1.0


class TestElementaryDetection:
    def test_positive(self):
        assert is_elementary_abelian(elementary_abelian_group(2, 3)) == (True, 2, 3)
        assert is_elementary_abelian(elementary_abelian_group(3, 2)) == (True, 3, 2)

    def test_negative(self):
        assert is_elementary_abelian(cyclic_group(2, 2))[0] is False
        assert is_elementary_abelian(heisenberg_p3(3))[0] is False

    def test_trivial(self):
        assert is_elementary_abelian(build_abelian(PartitionType(2, ()))) == (True, None, 0)


class TestPermuteElements:
    def test_relabeled_group_validates(self):
        G = dihedral8()
        perm = [0, 3, 1, 2, 7, 5, 6, 4]
        H = permute_elements(G, perm)
        assert H.order == 8
        assert sorted(H.element_orders().tolist()) == sorted(G.element_orders().tolist())

    def test_identity_must_stay_fixed(self):
        with pytest.raises(DomainError):
            permute_elements(cyclic_group(2, 1), [1, 0])

    def test_must_be_permutation(self):
        with pytest.raises(DomainError):
            permute_elements(cyclic_group(2, 2), [0, 1, 1, 3])


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(27) == (3, 3)
    assert prime_power(7) == (7, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_cyclic_and_elementary_labels(p, n):
    assert cyclic_group(p, n).label == (f"Z{p ** n}" if n else "Z1")
    expected = ["Z1", f"Z{p}"][n] if n < 2 else f"Z{p}^{n}"
    assert elementary_abelian_group(p, n).label == expected
