import json
import random
from itertools import zip_longest

import pytest

from chainisom import (
    DomainError,
    Family,
    LimitExceeded,
    MismatchedChain,
    NoZero,
    NotAssociative,
    NotClosed,
    PartialInjection,
    SemigroupTable,
    build_rees_quotient,
    build_table,
    compose,
    enumerate_fast,
    from_json,
    greens_classes_criterion,
    greens_classes_oracle,
    idempotents,
    is_categorical,
    is_inverse,
    is_zero_e_unitary,
    replay_witness,
    to_json,
)
from chainisom import checks, cli, family_order, greens_structure
from chainisom.greens_structure import RELATIONS, _partition_from_keys
from helpers import (
    associative_exhaustive,
    criterion_blocks,
    criterion_partition_reference,
    elements,
    partial_identity,
    rees_quotient_reference,
    rees_table,
    table,
    walk_code,
)

BOTH = (Family.DP, Family.ODP)


def rees_tables(max_n):
    return [rees_table(n, p) for n in range(1, max_n + 1) for p in range(1, n + 1)]


# The Green's preorders read from a table alone, with S^1 = S plus an
# external identity: a <=R b when a = bs, a <=L b when a = sb, and
# a <=J b when a = sbt, for some s, t in S^1.

def right_sets(tab):
    return [frozenset(row) | {a} for a, row in enumerate(tab.mult)]


def left_sets(tab):
    return [frozenset(row[a] for row in tab.mult) | {a} for a in range(len(tab))]


def two_sided_ideals(tab):
    right = right_sets(tab)
    return [frozenset().union(*(right[x] for x in left)) for left in left_sets(tab)]


def below(sets, tab, a, b):
    return tab.elements.index(a) in sets(tab)[tab.elements.index(b)]


class TestPreorders:
    # the R order is domain containment and the L order image containment
    def test_subset_restriction(self):
        tab = table(3, Family.DP)
        a = PartialInjection(3, [(2, 2)])
        b = partial_identity(3, [1, 2])
        assert below(right_sets, tab, a, b) and below(left_sets, tab, a, b)
        assert not below(right_sets, tab, b, a)

    def test_empty_below_everything(self):
        tab = table(4, Family.DP)
        zero = PartialInjection(4)
        for b in tab.elements:
            assert below(right_sets, tab, zero, b) and below(left_sets, tab, zero, b)

    def test_domain_vs_image(self):
        tab = table(3, Family.DP)
        a = PartialInjection(3, [(1, 2)])
        b = PartialInjection(3, [(2, 1), (3, 2)])
        assert not below(right_sets, tab, a, b)  # Dom {1} is not inside {2, 3}
        assert below(left_sets, tab, a, b)

    def test_orders_are_containments(self):
        for n in range(5):
            for fam in BOTH:
                tab = table(n, fam)
                right, left = right_sets(tab), left_sets(tab)
                for i, a in enumerate(tab.elements):
                    for j, b in enumerate(tab.elements):
                        assert (i in right[j]) == (set(a.domain) <= set(b.domain))
                        assert (i in left[j]) == (set(a.image) <= set(b.image))


class TestDOrder:
    # the D (= J) order: Dom a embeds into Dom b by a translation, or for
    # dp also by a reflection
    def test_embedding_found(self):
        a = partial_identity(5, [1, 3])
        b = partial_identity(5, [2, 4, 5])
        # {2, 4} is a translate of {1, 3}
        for fam in BOTH:
            assert below(two_sided_ideals, table(5, fam), a, b)

    def test_empty_embeds_anywhere(self):
        tab = table(4, Family.DP)
        for b in tab.elements:
            assert below(two_sided_ideals, tab, PartialInjection(4), b)

    def test_reflection_needed(self):
        a = partial_identity(4, [1, 2, 4])  # gaps (1, 2)
        b = partial_identity(4, [1, 3, 4])  # gaps (2, 1)
        assert below(two_sided_ideals, table(4, Family.DP), a, b)
        assert not below(two_sided_ideals, table(4, Family.ODP), a, b)

    def test_d_related_examples(self):
        a = partial_identity(4, [1, 2])
        b = PartialInjection(4, [(3, 2), (4, 3)])
        c = PartialInjection(4, [(1, 1)])
        for fam in BOTH:
            tab = table(4, fam)
            block = next(
                block for block in greens_classes_oracle(tab)["D"]
                if tab.elements.index(a) in block
            )
            assert tab.elements.index(b) in block
            assert tab.elements.index(c) not in block  # heights differ

    def test_d_related_iff_mutual_d_le(self):
        for n in range(6):
            for fam in BOTH:
                tab = table(n, fam)
                ideals = two_sided_ideals(tab)
                d_class = {}
                _, classes = criterion_blocks(n, fam, "D")
                for cid, block in enumerate(classes):
                    d_class.update(dict.fromkeys(block, cid))
                for a in range(len(tab)):
                    for b in range(len(tab)):
                        assert (d_class[a] == d_class[b]) == (
                            a in ideals[b] and b in ideals[a]
                        )


# Class counts of the criterion route, n = 0..12.  R and L: one class per
# domain subset and one per image set.  odp: 2^(n-1) + 1 D-classes (a gap
# signature, or the empty map) and one H-class per element.
DP_D_COUNTS = [1, 2, 3, 5, 8, 14, 24, 44, 80, 152, 288, 560, 1088]
DP_H_COUNTS = [1, 2, 6, 16, 40, 96, 224, 508, 1124, 2432, 5168, 10820, 22396]


class TestCriterionPartitions:
    def test_r_classes_of_odp2(self):
        count, classes = greens_classes_criterion(2, Family.ODP, "R")
        assert count == 4
        assert sorted(len(block) for block in classes) == [1, 1, 2, 2]

    def test_d_class_counts_on_the_4_chain(self):
        # Domain gap profiles among subsets of {1..4}: (), () at height 1,
        # (1), (2), (3), (1,1), (1,2), (2,1), (1,1,1).  Order-preserving
        # maps separate (1,2) from (2,1); allowing reflections merges them.
        for fam, want in ((Family.ODP, 9), (Family.DP, 8)):
            count, classes = greens_classes_criterion(4, fam, "D")
            assert count == len(list(classes)) == want

    def test_h_classes_odp_singletons(self):
        for n in range(7):
            _, classes = greens_classes_criterion(n, Family.ODP, "H")
            assert all(len(block) == 1 for block in classes)

    def test_h_classes_dp_at_most_two(self):
        for n in range(7):
            _, classes = greens_classes_criterion(n, Family.DP, "H")
            assert {len(block) for block in classes} <= {1, 2}

    def test_equals_list_keys_reference_up_to_10(self):
        # the blocks in the order listed, not re-sorted, and the count
        for n in range(11):
            for fam in BOTH:
                els = elements(n, fam)
                for rel in RELATIONS:
                    count, blocks = criterion_blocks(n, fam, rel)
                    want = criterion_partition_reference(els, fam, rel)
                    assert blocks == want, (n, fam, rel)
                    assert count == len(want), (n, fam, rel)

    def test_class_counts_up_to_12(self):
        def count(n, fam, rel):
            return greens_classes_criterion(n, fam, rel)[0]

        for n in range(13):
            for fam in BOTH:
                assert count(n, fam, "R") == count(n, fam, "L") == 2**n
            assert count(n, Family.DP, "D") == DP_D_COUNTS[n]
            assert count(n, Family.DP, "H") == DP_H_COUNTS[n]
            assert count(n, Family.ODP, "D") == (2 ** (n - 1) + 1 if n else 1)
            assert count(n, Family.ODP, "H") == family_order(Family.ODP, n)

    def test_unknown_relation(self):
        with pytest.raises(DomainError, match="unknown Green's relation 'J'"):
            greens_classes_criterion(2, Family.DP, "J")

    def test_non_family_rejected(self):
        # a bare string would otherwise get odp's D criterion: 9 D-classes
        # for the dp elements of the 4-chain, where dp has 8
        with pytest.raises(DomainError, match="family must be a Family"):
            greens_classes_criterion(4, "dp", "D")

    @pytest.mark.parametrize("n", [-1, 2.0, True, "2"])
    def test_chain_size_must_be_a_non_negative_int(self, n):
        for rel in RELATIONS:
            with pytest.raises(DomainError, match="chain size"):
                greens_classes_criterion(n, Family.DP, rel)

    def test_cap_is_checked_by_the_call(self):
        # raised by the call itself, before any class is asked for, with
        # enumerate_fast's error and message
        for rel in RELATIONS:
            with pytest.raises(LimitExceeded, match="enumeration at n=21 exceeds the cap 20"):
                greens_classes_criterion(21, Family.ODP, rel)
            with pytest.raises(LimitExceeded, match="exceeds the cap 3"):
                greens_classes_criterion(5, Family.DP, rel, cap=3)
            with pytest.raises(DomainError, match="cap must be an int"):
                greens_classes_criterion(5, Family.DP, rel, cap=20.0)
            assert greens_classes_criterion(5, Family.DP, rel, cap=5)[0] > 0


def calls_partition_from_keys(n):
    return _partition_from_keys(range(n))


class TestRouteIndependence:
    # the two Green's routes share no code: the criterion route reads the
    # enumeration walk and never a table, the oracle reads a table alone
    def test_criterion_reaches_no_table_code(self):
        _, reached = walk_code(greens_classes_criterion)
        assert {"_walk", "_images", "_check_request"} <= reached
        for name in ("_partition_from_keys", "compose", "build_table", "SemigroupTable"):
            assert name not in reached, name

    def test_oracle_reaches_no_walk_code(self):
        _, reached = walk_code(greens_classes_oracle)
        assert "_partition_from_keys" in reached
        for name in ("_walk", "gap_signature", "_d_key"):
            assert name not in reached, name

    def test_walker_flags_a_call_to_the_partition_helper(self):
        def route(n):
            return calls_partition_from_keys(n)

        _, reached = walk_code(route)
        assert "_partition_from_keys" in reached


def assert_well_formed(partition, k):
    # covers 0..k-1 exactly once, blocks sorted and listed by smallest member
    assert sorted(i for block in partition for i in block) == list(range(k))
    assert all(block and list(block) == sorted(block) for block in partition)
    firsts = [block[0] for block in partition]
    assert firsts == sorted(firsts)


class TestPartitionShape:
    def test_both_routes_cover_every_index_once(self):
        for n in range(6):
            for fam in BOTH:
                tab = table(n, fam)
                oracle = greens_classes_oracle(tab)
                assert tuple(oracle) == RELATIONS
                for rel in RELATIONS:
                    assert_well_formed(oracle[rel], len(tab))
                    count, crit = criterion_blocks(n, fam, rel)
                    assert_well_formed(crit, len(tab))
                    assert count == len(crit)

    def test_oracle_covers_rees_quotients(self):
        for tab in rees_tables(5):
            oracle = greens_classes_oracle(tab)
            assert tuple(oracle) == RELATIONS
            for rel in RELATIONS:
                assert_well_formed(oracle[rel], len(tab))


def seeded_greens_failures(monkeypatch, capsys, fault, recount=lambda rel, count: count):
    """Run ``verify --check greens`` on the 3-chain with the criterion
    route's classes passed through ``fault(relation, classes)`` and its
    count through ``recount(relation, count)``.  Returns the failing
    instances, each with its witness replayed against the faulty route: a
    split pair as (family, relation, joined_by, (i, a), (j, b)), any other
    witness as (family, relation, witness).

    A split pair is checked as such: the k-th class of either route is the
    class of the least index no earlier class holds, and at the first k
    where the blocks differ, i is that index, j is in the k-th block of the
    route that joins them, and no block of the other route holds both."""
    real = checks.greens_classes_criterion

    def faulty(n, fam, rel):
        count, classes = real(n, fam, rel)
        return recount(rel, count), iter(fault(rel, list(classes)))

    monkeypatch.setattr(checks, "greens_classes_criterion", faulty)
    assert cli.main(["verify", "--check", "greens", "--n-range", "3..3",
                     "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    failing = []
    for inst in report["instances"]:
        if inst["pass"]:
            continue
        fam, rel = Family(inst["params"]["family"]), inst["params"]["relation"]
        tab = table(3, fam)
        witness = inst["witness"]
        orc = greens_classes_oracle(tab)[rel]
        if "not_in_table" in witness:
            # a member of a faulty class that no table element is
            outside = witness["not_in_table"]
            pairs = tuple(tuple(pair) for pair in outside["map"])
            assert outside["n"] == 3
            assert pairs not in {a.pairs for a in tab.elements}
            assert any(tuple(zip(dom, img)) == pairs
                       for block in faulty(3, fam, rel)[1] for dom, img in block)
            failing.append((fam.value, rel, witness))
            continue
        count, crit = criterion_blocks(3, fam, rel, route=faulty)
        if "class" in witness:
            # the first place where the two listings differ, as listed
            k = witness["class"]
            assert crit[:k] == orc[:k]
            sides = list(zip_longest(crit, orc))[k]
            assert sides[0] != sides[1]
            written = [None if block is None else
                       [{"index": x, **to_json(tab.elements[x])} for x in block]
                       for block in sides]
            assert written == [witness["criterion"], witness["oracle"]]
            failing.append((fam.value, rel, witness))
            continue
        if "count" in witness:
            assert crit == orc
            assert witness == {"count": count, "classes": len(orc)}
            assert count != len(orc)
            failing.append((fam.value, rel, witness))
            continue
        (i, a), (j, b) = ((e["index"], from_json(e)) for e in witness["elements"])
        assert i < j and (tab.elements[i], tab.elements[j]) == (a, b)
        k = next(k for k, (x, y) in enumerate(zip(crit, orc)) if x != y)
        joined, split = (crit, orc) if witness["joined_by"] == "criterion" else (orc, crit)
        assert i == orc[k][0] and j in joined[k]
        assert not any(i in block and j in block for block in split)
        failing.append((fam.value, rel, witness["joined_by"], (i, a), (j, b)))
    return failing


class TestOracleAgreement:
    def test_criterion_equals_oracle(self):
        for n in range(5):
            for fam in BOTH:
                orc = greens_classes_oracle(table(n, fam))
                for rel in RELATIONS:
                    assert criterion_blocks(n, fam, rel) == (len(orc[rel]), orc[rel])

    def test_greens_check_witnesses_a_merged_block(self, monkeypatch, capsys):
        # a criterion route that merges the second and third R-blocks must
        # fail the check on both families, with a pair that it joins and
        # the oracle splits
        def merge(rel, blocks):
            return blocks[:1] + [blocks[1] + blocks[2]] + blocks[3:] if rel == "R" else blocks

        failing = seeded_greens_failures(monkeypatch, capsys, merge)
        assert [(fam, rel) for fam, rel, *_ in failing] == [("dp", "R"), ("odp", "R")]
        for fam, _, joined_by, (i, a), (j, b) in failing:
            assert joined_by == "criterion"
            # the merged blocks' first members
            _, crit_r = criterion_blocks(3, Family(fam), "R")
            assert (i, j) == (crit_r[1][0], crit_r[2][0])
            assert a.domain != b.domain

    def test_greens_check_witnesses_an_unmerged_h_pair(self, monkeypatch, capsys):
        # an H route that lists every map alone misses the dp pairs of a
        # translation and a reflection onto one set, from a domain that is
        # its own mirror; the oracle joins them
        def split(rel, blocks):
            return [[m] for block in blocks for m in block] if rel == "H" else blocks

        failing = seeded_greens_failures(monkeypatch, capsys, split)
        assert [(fam, rel) for fam, rel, *_ in failing] == [("dp", "H")]
        _, _, joined_by, (_, a), (_, b) = failing[0]
        assert joined_by == "oracle"
        assert (a.domain, a.image) == (b.domain, b.image) == ((1, 2), (1, 2))
        assert b == PartialInjection(3, [(1, 2), (2, 1)])

    def test_greens_check_witnesses_classes_out_of_order(self, monkeypatch, capsys):
        # the right D-classes with the second and third swapped: the second
        # listed class must be that of the least index outside the first
        def swap(rel, blocks):
            return blocks[:1] + blocks[2:0:-1] + blocks[3:] if rel == "D" else blocks

        failing = seeded_greens_failures(monkeypatch, capsys, swap)
        assert [(fam, rel) for fam, rel, *_ in failing] == [("dp", "D"), ("odp", "D")]
        for fam, _, joined_by, (i, a), (j, b) in failing:
            _, crit_d = criterion_blocks(3, Family(fam), "D")
            assert joined_by == "criterion"
            assert (i, j) == (crit_d[1][0], crit_d[2][0])
            assert (a.height, b.height) == (1, 2)

    def test_greens_check_witnesses_a_member_outside_the_table(self, monkeypatch, capsys):
        # a map off the 3-chain has no table index
        def extend(rel, blocks):
            if rel == "R":
                blocks[1] = blocks[1] + [((1,), (9,))]
            return blocks

        failing = seeded_greens_failures(monkeypatch, capsys, extend)
        outside = {"not_in_table": {"n": 3, "map": [[1, 9]]}}
        assert failing == [("dp", "R", outside), ("odp", "R", outside)]

    def test_greens_check_witnesses_a_wrong_count(self, monkeypatch, capsys):
        failing = seeded_greens_failures(
            monkeypatch, capsys, lambda rel, blocks: blocks,
            recount=lambda rel, count: count + (rel == "D"),
        )
        sizes = {fam: len(greens_classes_oracle(table(3, fam))["D"]) for fam in BOTH}
        assert failing == [
            (fam.value, "D", {"count": sizes[fam] + 1, "classes": sizes[fam]})
            for fam in BOTH
        ]

    def test_greens_check_witnesses_a_dropped_class(self, monkeypatch, capsys):
        def drop(rel, blocks):
            return blocks[:-1] if rel == "R" else blocks

        failing = seeded_greens_failures(monkeypatch, capsys, drop)
        assert [(fam, rel) for fam, rel, _ in failing] == [("dp", "R"), ("odp", "R")]
        for fam, _, witness in failing:
            orc_r = greens_classes_oracle(table(3, Family(fam)))["R"]
            assert witness["class"] == len(orc_r) - 1
            assert witness["criterion"] is None
            assert [e["index"] for e in witness["oracle"]] == list(orc_r[-1])

    def test_greens_check_witnesses_a_member_listed_twice(self, monkeypatch, capsys):
        # the first L-class is the empty map's, at index 0
        def repeat(rel, blocks):
            return [blocks[0][:1] + blocks[0]] + blocks[1:] if rel == "L" else blocks

        failing = seeded_greens_failures(monkeypatch, capsys, repeat)
        empty = {"index": 0, "n": 3, "map": []}
        listed = {"class": 0, "criterion": [empty, empty], "oracle": [empty]}
        assert failing == [("dp", "L", listed), ("odp", "L", listed)]

    def test_greens_check_witnesses_members_out_of_order(self, monkeypatch, capsys):
        # odp's H-classes are single maps, so only dp's reversed pairs show
        def reverse(rel, blocks):
            return [block[::-1] for block in blocks] if rel == "H" else blocks

        failing = seeded_greens_failures(monkeypatch, capsys, reverse)
        assert [(fam, rel) for fam, rel, _ in failing] == [("dp", "H")]
        witness = failing[0][2]
        orc_h = greens_classes_oracle(table(3, Family.DP))["H"]
        k = next(k for k, block in enumerate(orc_h) if len(block) > 1)
        assert witness["class"] == k
        assert witness["criterion"] == witness["oracle"][::-1]

    def test_greens_check_witnesses_a_class_split_off_its_second_member(
        self, monkeypatch, capsys
    ):
        # the first D-class of three or more, listed as its second member
        # alone and then the rest: the rest holds the least member m and
        # the third, so the pair is m and the second member
        def split_off(rel, blocks):
            if rel != "D":
                return blocks
            k = next(k for k, block in enumerate(blocks) if len(block) >= 3)
            first, second, *rest = blocks[k]
            return blocks[:k] + [[second], [first, *rest]] + blocks[k + 1:]

        failing = seeded_greens_failures(monkeypatch, capsys, split_off)
        assert [(fam, rel, joined_by, i, j)
                for fam, rel, joined_by, (i, _), (j, _) in failing] == [
            ("dp", "D", "oracle", 1, 2), ("odp", "D", "oracle", 1, 2)
        ]

    def test_split_pair_of_a_class_listed_without_its_least_member(self):
        els = table(3, Family.DP).elements
        oracle = ((0,), (1, 2), (3,))
        witness = checks._first_split_pair(els, ((0,), (2,), (1,), (3,)), oracle)
        assert [e["index"] for e in witness["elements"]] == [1, 2]
        assert witness["joined_by"] == "oracle"
        # the same members in another order split no pair
        assert checks._first_split_pair(els, ((0,), (2, 1), (3,)), oracle) is None

    def test_oracle_h_sizes_dp5(self):
        classes = greens_classes_oracle(table(5, Family.DP))["H"]
        assert {len(block) for block in classes} <= {1, 2}

    def test_compositions_commute(self):
        # R after L relates the same pairs as L after R in every semigroup;
        # the oracle's D grouping relies on it
        tabs = [table(n, fam) for n in range(6) for fam in BOTH] + rees_tables(6)
        for tab in tabs:
            right, left = right_sets(tab), left_sets(tab)
            present = set(zip(right, left))
            for a in range(len(tab)):
                for b in range(len(tab)):
                    assert ((right[a], left[b]) in present) == (
                        (right[b], left[a]) in present
                    )

    def test_d_equals_j(self):
        # J via principal two-sided ideals, computed here independently
        for n in range(6):
            for fam in BOTH:
                tab = table(n, fam)
                k = len(tab)
                ideals = two_sided_ideals(tab)
                j_keys = {}
                j_ids = [j_keys.setdefault(ideal, len(j_keys)) for ideal in ideals]
                d_classes = greens_classes_oracle(tab)["D"]
                d_ids = [None] * k
                for cid, block in enumerate(d_classes):
                    for i in block:
                        d_ids[i] = cid
                pairing = {}
                for di, ji in zip(d_ids, j_ids):
                    assert pairing.setdefault(di, ji) == ji

    def test_principal_left_sets_match_per_column_reference(self):
        # a non-commutative 2-element table (left zeros) tells a column
        # from a row: row 0 is (0, 0) but column 0 is (0, 1)
        left_zero = SemigroupTable(("x", "y"), ((0, 0), (1, 1)))
        for tab in (rees_table(4, 2), left_zero):
            mult, k = tab.mult, len(tab)
            assert greens_structure._principal_left_sets(tab) == [
                frozenset(mult[s][a] for s in range(k)) | {a} for a in range(k)
            ]
        assert greens_structure._principal_left_sets(left_zero) == [
            frozenset({0, 1}), frozenset({0, 1})
        ]

    def test_non_associative_rejected(self):
        # (x x) y = y but x (x y) = x, so this magma is not associative
        bad = SemigroupTable(("x", "y"), ((1, 1), (0, 0)))
        assert not bad.is_associative()
        with pytest.raises(NotAssociative):
            greens_classes_oracle(bad)

    def test_one_pass_per_table(self, monkeypatch, capsys):
        # verify greens checks each table's associativity once and builds
        # its principal right and left sets once, for all four relations
        seen = {"assoc": [], "right": [], "left": []}

        def counting(key, fn):
            def wrapper(tab):
                seen[key].append(tab)
                return fn(tab)
            return wrapper

        monkeypatch.setattr(
            SemigroupTable, "is_associative",
            counting("assoc", SemigroupTable.is_associative),
        )
        monkeypatch.setattr(
            greens_structure, "_principal_right_sets",
            counting("right", greens_structure._principal_right_sets),
        )
        monkeypatch.setattr(
            greens_structure, "_principal_left_sets",
            counting("left", greens_structure._principal_left_sets),
        )
        assert cli.main(["verify", "--check", "greens", "--n-range", "5..5"]) == 0
        tables = seen["assoc"]
        assert len(tables) == 2 and tables[0] is not tables[1]
        assert seen["right"] == tables and seen["left"] == tables
        # instances still listed in RELATIONS order within each family
        assert capsys.readouterr().out.splitlines()[:8] == [
            f"ok n=5 family={fam} relation={rel}"
            for fam in ("dp", "odp") for rel in RELATIONS
        ]


class TestLightAssociativity:
    def test_generators_reach_every_index(self):
        for tab in [table(n, fam) for n in range(7) for fam in BOTH] + rees_tables(6):
            gens = tab.generators()
            reached = set(gens)
            frontier = list(gens)
            while frontier:
                x = frontier.pop()
                for g in gens:
                    for y in (tab.mult[x][g], tab.mult[g][x]):
                        if y not in reached:
                            reached.add(y)
                            frontier.append(y)
            assert reached == set(range(len(tab)))

    def test_generators_much_smaller_than_table(self):
        assert len(table(6, Family.DP).generators()) < 10
        assert len(table(6, Family.ODP).generators()) < 10
        assert table(0, Family.DP).generators() == (0,)
        assert SemigroupTable((), ()).generators() == ()

    def test_single_cell_mutations_agree_with_exhaustive_scan(self):
        rng = random.Random(20110101)
        verdicts = set()
        for tab in [table(n, fam) for n in range(5) for fam in BOTH] + rees_tables(5):
            assert tab.is_associative() and associative_exhaustive(tab)
            k = len(tab)
            if k < 2:
                continue
            for _ in range(20):
                mult = [list(row) for row in tab.mult]
                i, j = rng.randrange(k), rng.randrange(k)
                mult[i][j] = rng.choice([v for v in range(k) if v != mult[i][j]])
                bad = SemigroupTable(tab.elements, mult)
                want = associative_exhaustive(bad)
                assert bad.is_associative() == want, (k, i, j, mult[i][j])
                verdicts.add(want)
        # the mutations exercise both verdicts, so neither side is vacuous
        assert verdicts == {True, False}


class TestBuildTable:
    def test_family_tables(self):
        assert len(table(2, Family.ODP)) == 6
        assert len(table(3, Family.DP)) == 22

    def test_single_identity(self):
        tab = build_table([partial_identity(3, [1, 2, 3])])
        assert len(tab) == 1
        assert tab.mult == ((0,),)
        assert tab.zero_index is None

    def test_not_closed(self):
        lone = PartialInjection(2, [(1, 2)])
        with pytest.raises(NotClosed) as err:
            build_table([lone])
        assert err.value.pair == (lone, lone)

    def test_not_closed_reports_first_pair(self):
        # rows 0 and 1 close; row s fails at u and again at w, and row w
        # fails too: the first failure in row-major order is (s, u)
        zero, one = PartialInjection(3), partial_identity(3, [1, 2, 3])
        s = PartialInjection(3, [(1, 2)])
        u = PartialInjection(3, [(2, 3)])
        w = PartialInjection(3, [(2, 1)])
        with pytest.raises(NotClosed) as err:
            build_table([zero, one, s, u, w])
        assert err.value.pair == (s, u)
        assert "(1 / 3)" in str(err.value)

    def test_duplicates_rejected(self):
        a = partial_identity(2, [1])
        with pytest.raises(DomainError):
            build_table([a, a])

    def test_mixed_chain_rejected(self):
        with pytest.raises(MismatchedChain):
            build_table([PartialInjection(2), PartialInjection(3)])

    def test_size_cap(self):
        with pytest.raises(LimitExceeded):
            build_table(list(enumerate_fast(9, Family.DP)))

    def test_size_cap_refuses_before_enumerating_the_family(self, monkeypatch):
        # dp on the 16-chain has 392,891 elements; only cap + 1 are read
        read = []

        def counting_enumerate(*args, **kwargs):
            for a in enumerate_fast(*args, **kwargs):
                read.append(a)
                yield a

        monkeypatch.setattr(checks, "enumerate_fast", counting_enumerate)
        monkeypatch.setattr(cli, "enumerate_fast", counting_enumerate)
        for attempt in (
            lambda: build_table(counting_enumerate(16, Family.DP)),
            lambda: checks.run_check("greens", 16, 16),
            lambda: checks.run_check("eunitary", 16, 16),
        ):
            read.clear()
            with pytest.raises(LimitExceeded):
                attempt()
            assert len(read) == greens_structure.TABLE_ELEMENT_CAP + 1
        read.clear()
        assert cli.main(["structure", "--n", "16", "--family", "dp"]) == 2
        assert len(read) == greens_structure.TABLE_ELEMENT_CAP + 1

    def test_zero_marked(self):
        assert table(3, Family.DP).zero_index == 0
        assert table(3, Family.DP).elements[0] == PartialInjection(3)

    def test_one_compose_per_product(self, monkeypatch):
        # the benchmark's trace predicts build_table.products as k^2 per
        # table, counting calls to the module-global compose
        calls = []

        def counting_compose(a, b):
            calls.append((a, b))
            return compose(a, b)

        monkeypatch.setattr(greens_structure, "compose", counting_compose)
        tab = build_table(enumerate_fast(4, Family.DP))
        assert len(tab) == 59
        assert len(calls) == len(tab) ** 2

    def test_one_compose_per_rees_product(self, monkeypatch):
        calls = []

        def counting_compose(a, b):
            calls.append((a, b))
            return compose(a, b)

        monkeypatch.setattr(greens_structure, "compose", counting_compose)
        layer = list(enumerate_fast(5, Family.ODP, height=2))
        quotient = build_rees_quotient(5, 2)
        assert len(quotient) == len(layer) + 1 == 31
        # only the products that keep height p are composed: one per pair
        # with im(a) = dom(b), not one per pair of the layer (900)
        surviving = [(a, b) for a in layer for b in layer if a.image == b.domain]
        assert len(surviving) == 100
        assert calls == surviving

    def test_associative(self):
        for n in range(6):
            for fam in BOTH:
                assert table(n, fam).is_associative()

    def test_malformed_table_rejected(self):
        with pytest.raises(DomainError):
            SemigroupTable(("x",), ((0, 0),))
        with pytest.raises(DomainError):
            SemigroupTable(("x", "y"), ((0, 0), (0, 1)), zero_index=1)

    @pytest.mark.parametrize(
        "mult",
        [((0, 0), (0, -1)), ((0, 0), (0, 2)),
         ((0, 0), (0, 1.0)), ((0, 0), (0, "1")), ((0, 0), (0, True))],
        ids=["negative", "past_end", "float", "str", "bool"],
    )
    def test_entries_must_index_an_element(self, mult):
        # -1 would read the last row and 2 no row, 1.0 cannot index a row
        # and True would pass for 1; index 0 is absorbing, so only the
        # entry check can reject these
        with pytest.raises(DomainError, match="entries"):
            SemigroupTable(("z", "x"), mult, zero_index=0)

    @pytest.mark.parametrize("zero_index", [3, -1, 1.0, 0.0, True, False, "0"])
    def test_zero_index_must_be_an_int_in_range(self, zero_index):
        # index 0 is absorbing in this table, so only the type or the range
        # can reject these; True and 0.0 would otherwise pass as 1 and 0
        mult = ((0, 0), (0, 1))
        with pytest.raises(DomainError, match="zero_index"):
            SemigroupTable(("z", "x"), mult, zero_index=zero_index)
        assert SemigroupTable(("z", "x"), mult, zero_index=0).zero_index == 0


class TestInverseAndIdempotents:
    def test_idempotent_counts_are_powers_of_two(self):
        for n in range(7):
            assert len(idempotents(table(n, Family.ODP))) == 2**n
        for n in range(6):
            assert len(idempotents(table(n, Family.DP))) == 2**n

    def test_idempotents_are_partial_identities(self):
        tab = table(4, Family.DP)
        for i in idempotents(tab):
            el = tab.elements[i]
            assert all(x == y for x, y in el.pairs)

    def test_is_inverse(self):
        assert is_inverse(table(4, Family.DP))
        assert is_inverse(table(4, Family.ODP))
        assert is_inverse(build_rees_quotient(4, 2))

    def test_not_inverse_counterexample(self):
        # left-zero semigroup: both elements idempotent but they do not commute
        left_zero = SemigroupTable(("x", "y"), ((0, 0), (1, 1)))
        assert left_zero.is_associative()
        assert not is_inverse(left_zero)

    @staticmethod
    def non_commuting_quotient():
        # Q(4, 2) with ef sent to e for two distinct idempotents, whose
        # products ef and fe are both the zero, so that ef != fe
        tab = build_rees_quotient(4, 2)
        e = tab.elements.index(partial_identity(4, [1, 2]))
        f = tab.elements.index(partial_identity(4, [2, 3]))
        assert tab.mult[e][f] == tab.mult[f][e] == tab.zero_index
        return tab, with_cell(tab, e, f, e)

    def test_mutated_idempotent_product_is_not_inverse(self):
        tab, bad = self.non_commuting_quotient()
        assert is_inverse(tab)
        assert not is_inverse(bad)

    def test_rees_check_fails_on_the_mutated_quotient(self, monkeypatch, capsys):
        # the mutation also breaks associativity, which the check tests
        # first, so that is the property its witness names
        _, bad = self.non_commuting_quotient()
        real = checks.build_rees_quotient

        def mutated(n, p):
            return bad if (n, p) == (4, 2) else real(n, p)

        monkeypatch.setattr(checks, "build_rees_quotient", mutated)
        code = cli.main(["verify", "--check", "rees", "--n-range", "4..4"])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert [line for line in out if line.startswith("FAIL ")] == [
            'FAIL n=4 p=2 witness={"property":"associative"}'
        ]
        assert out[-1] == "FAIL"


def written(tab, kind, indices):
    """The witness the predicates write on ``tab`` for ``indices``."""
    return {
        "kind": kind,
        "elements": [{"index": i, **to_json(tab.elements[i])} for i in indices],
    }


def with_cell(tab, i, j, value):
    """``tab`` with the single product mult[i][j] replaced by ``value``."""
    mult = [list(row) for row in tab.mult]
    mult[i][j] = value
    return SemigroupTable(tab.elements, mult, tab.zero_index)


class TestZeroEUnitary:
    def test_odp_holds(self):
        for n in range(3, 7):
            holds, witness = is_zero_e_unitary(table(n, Family.ODP))
            assert holds and witness is None

    def test_dp_fails_with_replayable_witness(self):
        for n in range(3, 7):
            tab = table(n, Family.DP)
            holds, witness = is_zero_e_unitary(tab)
            assert not holds
            assert witness["kind"] == "not_0_E_unitary"
            assert replay_witness(tab, witness)

    def test_first_witness_is_deterministic(self):
        tab = table(3, Family.DP)
        _, witness = is_zero_e_unitary(tab)
        assert witness == written(tab, "not_0_E_unitary", [5, 13])
        e, s = (tab.elements[m["index"]] for m in witness["elements"])
        # earliest violating pair in enumeration order: the point identity
        # at 2 against the reflection through 2 defined on {1, 2}
        assert e == partial_identity(3, [2])
        assert s == PartialInjection(3, [(1, 3), (2, 2)])

    def test_documented_pair_is_a_violation(self):
        tab = table(3, Family.DP)
        e = partial_identity(3, [1, 2])
        s = PartialInjection(3, [(2, 2), (3, 1)])
        witness = written(
            tab, "not_0_E_unitary", (tab.elements.index(e), tab.elements.index(s))
        )
        assert replay_witness(tab, witness)
        # element-level replay: e*s is a nonzero partial identity, s is not
        assert compose(e, s) == partial_identity(3, [2])
        assert not compose(s, s) == s

    def test_trivial_semigroup_vacuous(self):
        tab = build_table([PartialInjection(0)])
        holds, witness = is_zero_e_unitary(tab)
        assert holds and witness is None

    def test_mutated_cell_fails_with_replayable_witness(self):
        # odp is 0-E-unitary; make the point identity at 1 times the shift
        # 1 -> 2 land on that identity instead of on the shift, so an
        # idempotent e has a nonzero idempotent product es with s not one
        tab = table(4, Family.ODP)
        e = tab.elements.index(partial_identity(4, [1]))
        s = tab.elements.index(PartialInjection(4, [(1, 2)]))
        assert tab.mult[e][s] == s
        bad = with_cell(tab, e, s, e)
        holds, witness = is_zero_e_unitary(bad)
        assert not holds
        assert witness == written(bad, "not_0_E_unitary", (e, s))
        assert replay_witness(bad, witness)
        assert not replay_witness(tab, witness)

    def test_no_zero_rejected(self):
        tab = build_table([partial_identity(3, [1, 2, 3])])
        with pytest.raises(NoZero):
            is_zero_e_unitary(tab)
        with pytest.raises(NoZero):
            is_categorical(tab)


ZERO = {"n": 2, "map": []}  # the member at index 0 of the dp n = 2 table


def named(kind, *indices):
    """A witness on the dp n = 2 table naming ``indices``, each member
    written as the zero."""
    return {"kind": kind, "elements": [{"index": i, **ZERO} for i in indices]}


class TestCategorical:
    def test_odp_fails_with_replayable_witness(self):
        for n in range(3, 7):
            tab = table(n, Family.ODP)
            holds, witness = is_categorical(tab)
            assert not holds
            assert witness["kind"] == "not_categorical"
            assert replay_witness(tab, witness)

    def test_documented_triple_is_a_violation(self):
        tab = table(3, Family.ODP)
        ids = [partial_identity(3, pts) for pts in ([1, 2], [2, 3], [1, 3])]
        witness = written(
            tab, "not_categorical", [tab.elements.index(e) for e in ids]
        )
        assert replay_witness(tab, witness)
        a, b, c = ids
        assert compose(a, b) == partial_identity(3, [2])
        assert compose(b, c) == partial_identity(3, [3])
        assert compose(compose(a, b), c).is_empty

    def test_smallest_odp_hold_but_two_already_fails(self):
        for n in (0, 1):
            holds, witness = is_categorical(table(n, Family.ODP))
            assert holds and witness is None
        # a one-point restriction, the full identity, and the drop map
        # already violate the implication on the 2-chain
        holds, witness = is_categorical(table(2, Family.ODP))
        assert not holds and replay_witness(table(2, Family.ODP), witness)

    def test_trivial_semigroup_vacuous(self):
        tab = build_table([PartialInjection(0)])
        assert is_categorical(tab) == (True, None)

    def test_mutated_quotient_cell_fails_with_replayable_witness(self):
        # Q(4, 2) is categorical; send the identity on {1, 2} times the
        # shift {1 -> 2, 2 -> 3} to the zero, so with a = c = that shift and
        # b its inverse, ab and bc are nonzero but (ab)c is the zero
        tab = build_rees_quotient(4, 2)
        x = tab.elements.index(partial_identity(4, [1, 2]))
        c = tab.elements.index(PartialInjection(4, [(1, 2), (2, 3)]))
        assert tab.mult[x][c] == c
        bad = with_cell(tab, x, c, tab.zero_index)
        holds, witness = is_categorical(bad)
        assert not holds and witness["kind"] == "not_categorical"
        assert replay_witness(bad, witness)
        assert not replay_witness(tab, witness)
        # only the mutated product can make (ab)c the zero
        a, b, c_found = (m["index"] for m in witness["elements"])
        assert (bad.mult[a][b], c_found) == (x, c)

    def test_replay_unknown_kind(self):
        tab = build_table([PartialInjection(0)])
        witness = written(tab, "not_categorical", [0, 0, 0])
        with pytest.raises(DomainError):
            replay_witness(tab, {**witness, "kind": "nonsense"})

    @pytest.mark.parametrize(
        "witness",
        [
            named("not_categorical", 99, 0, 0),  # index past the table
            named("not_0_E_unitary", 1),  # one index short
            named("not_0_E_unitary", 1.0, 2),  # a float index
            named("not_categorical", -1, 0, 0),  # would read the last row
            ("not_categorical", (0, 0, 0)),  # a plain tuple
            {"kind": "not_categorical", "elements": (0, 0, 0)},
            "junk",
            {"kind": ["x"], "elements": []},  # an unhashable kind
            named("not_0_E_unitary", 1, 2),  # maps that are not the table's
        ],
        ids=["past-the-end", "short", "float", "negative", "tuple", "dict", "str",
             "unhashable-kind", "foreign-maps"],
    )
    def test_malformed_witness_is_refused(self, witness):
        tab = table(2, Family.DP)
        # the same form with the zero's own index is a witness, if no violation
        assert replay_witness(tab, named("not_categorical", 0, 0, 0)) is False
        with pytest.raises(DomainError):
            replay_witness(tab, witness)


class TestReesQuotient:
    def test_sizes(self):
        assert len(build_rees_quotient(3, 2)) == 6
        assert len(build_rees_quotient(4, 2)) == 15

    def test_top_layer_is_a_semilattice(self):
        q = build_rees_quotient(4, 4)
        assert len(q) == 2
        assert q.mult == ((0, 0), (0, 1))
        assert q.elements[0] == PartialInjection(4)
        assert q.elements[1] == partial_identity(4, [1, 2, 3, 4])

    def test_product_rule_matches_composition(self):
        q = build_rees_quotient(4, 2)
        layer = q.elements[1:]
        for i, a in enumerate(layer, start=1):
            for j, b in enumerate(layer, start=1):
                c = compose(a, b)
                got = q.mult[i][j]
                if c.height == 2:
                    assert q.elements[got] == c
                else:
                    assert got == 0

    def test_structure_predicates(self):
        for n in range(1, 5):
            for p in range(1, n + 1):
                tab = build_rees_quotient(n, p)
                assert tab.is_associative()
                assert is_inverse(tab)
                assert is_zero_e_unitary(tab) == (True, None)
                assert is_categorical(tab) == (True, None)

    def test_equals_all_pairs_reference(self):
        for n in range(1, 8):
            for p in range(1, n + 1):
                got, want = build_rees_quotient(n, p), rees_quotient_reference(n, p)
                assert got.elements == want.elements
                assert got.mult == want.mult
                assert got.zero_index == want.zero_index == 0

    @pytest.mark.parametrize(
        "substitute, prop",
        [
            # a left-zero band with a zero: associative, but its two
            # idempotents do not commute
            (lambda: SemigroupTable("zxy", ((0, 0, 0), (0, 1, 1), (0, 2, 2)), 0),
             "inverse"),
            (lambda: table(3, Family.DP), "0-E-unitary"),
            (lambda: table(2, Family.ODP), "categorical"),
        ],
        ids=["inverse", "0-E-unitary", "categorical"],
    )
    def test_rees_check_names_the_failing_property(self, monkeypatch, substitute, prop):
        # each substitute has every property the check tests before prop
        tab = substitute()
        real = checks.build_rees_quotient
        monkeypatch.setattr(
            checks, "build_rees_quotient",
            lambda n, p: tab if (n, p) == (4, 2) else real(n, p),
        )
        failing = [inst for inst in checks.run_check("rees", 4, 4) if not inst["pass"]]
        assert [inst["params"] for inst in failing] == [{"n": 4, "p": 2}]
        witness = failing[0]["witness"]
        assert witness["property"] == prop
        if prop == "inverse":
            assert witness == {"property": "inverse"}
        else:
            assert replay_witness(tab, witness["witness"])

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            build_rees_quotient(4, 0)
        with pytest.raises(DomainError):
            build_rees_quotient(4, 5)

    def test_size_cap_refuses_before_enumerating_the_layer(self, monkeypatch):
        # odp's height-10 layer on the 20-chain has 520,676 elements; with
        # the adjoined zero, cap layer elements already exceed the cap
        read = []

        def counting_enumerate(*args, **kwargs):
            for a in enumerate_fast(*args, **kwargs):
                read.append(a)
                yield a

        monkeypatch.setattr(greens_structure, "enumerate_fast", counting_enumerate)
        with pytest.raises(LimitExceeded):
            build_rees_quotient(20, 10)
        assert len(read) == greens_structure.TABLE_ELEMENT_CAP


class TestExports:
    def test_witness_json(self):
        tab = table(3, Family.DP)
        _, witness = is_zero_e_unitary(tab)
        assert witness["kind"] == "not_0_E_unitary"
        assert len(witness["elements"]) == 2
        assert witness["elements"][0]["map"] == [[2, 2]]
        # a JSON round trip leaves a witness that still replays
        assert replay_witness(tab, json.loads(json.dumps(witness)))
