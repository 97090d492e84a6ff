import pytest

from chainisom import (
    CountTable,
    DomainError,
    Family,
    LimitExceeded,
    PartialInjection,
    count_by,
    empirical_count_table,
    enumerate_fast,
    enumerate_oracle,
    inverse,
    is_member,
)
from chainisom import isometry_families
from chainisom.isometry_families import STATISTICS
from helpers import count_by_reference, elements

BOTH = (Family.DP, Family.ODP)


class TestMembership:
    def test_endpoint_swap_is_dp_only(self):
        a = PartialInjection(5, [(1, 5), (5, 1)])
        assert is_member(a, Family.DP)
        assert not is_member(a, Family.ODP)

    def test_empty_in_both(self):
        assert is_member(PartialInjection(4), Family.DP)
        assert is_member(PartialInjection(4), Family.ODP)

    def test_distance_violation_in_neither(self):
        a = PartialInjection(3, [(1, 1), (2, 3)])
        assert not is_member(a, Family.DP)
        assert not is_member(a, Family.ODP)

    def test_non_family_rejected(self):
        # a bare string would otherwise be read as one of the two families
        swap = PartialInjection(3, [(1, 3), (3, 1)])
        with pytest.raises(DomainError):
            is_member(swap, "odp")


class TestFastEnumeration:
    def test_dp_on_two_points(self):
        got = list(enumerate_fast(2, Family.DP))
        want = [
            PartialInjection(2),
            PartialInjection(2, [(1, 1)]),
            PartialInjection(2, [(1, 2)]),
            PartialInjection(2, [(2, 1)]),
            PartialInjection(2, [(2, 2)]),
            PartialInjection(2, [(1, 1), (2, 2)]),
            PartialInjection(2, [(1, 2), (2, 1)]),
        ]
        assert got == want

    def test_odp_on_two_points(self):
        assert len(list(enumerate_fast(2, Family.ODP))) == 6

    def test_height_filter(self):
        assert len(list(enumerate_fast(3, Family.ODP, height=2))) == 5
        assert list(enumerate_fast(3, Family.ODP, height=0)) == [PartialInjection(3)]
        with pytest.raises(DomainError):
            enumerate_fast(3, Family.ODP, height=9)
        with pytest.raises(DomainError):
            enumerate_fast(3, Family.DP, height=-1)

    def test_chain_of_size_zero(self):
        assert list(enumerate_fast(0, Family.ODP)) == [PartialInjection(0)]

    def test_argument_types(self):
        # exact ints only, the rule PartialInjection applies to the chain
        # size; the elements are built unvalidated, so nothing else would
        with pytest.raises(DomainError):
            enumerate_fast(2.5, Family.DP)
        with pytest.raises(DomainError):
            enumerate_fast(3, Family.DP, height=True)
        with pytest.raises(DomainError):
            enumerate_fast(True, Family.DP, height=1)
        with pytest.raises(DomainError):
            enumerate_fast(3, Family.ODP, height=2.0)

    def test_non_family_rejected(self):
        with pytest.raises(DomainError):
            enumerate_fast(3, "dp")

    def test_elements_are_canonical(self):
        # each unvalidated element equals, and hashes like, its validated
        # rebuild, and carries an int chain size (True == 1 would compare
        # equal, so the type is asserted on its own)
        for n in range(11):
            for fam in BOTH:
                for h in range(n + 1):
                    for a in enumerate_fast(n, fam, height=h):
                        assert type(a.n) is int
                        b = PartialInjection(a.n, a.pairs)
                        assert a == b and hash(a) == hash(b)

    def test_canonical_order(self):
        for fam in BOTH:
            els = list(enumerate_fast(6, fam))
            # height, then domain, then images in domain order
            keys = [(a.height, a.domain, tuple(y for _, y in a.pairs)) for a in els]
            assert keys == sorted(keys)

    def test_no_duplicates_up_to_12(self):
        for fam in BOTH:
            els = list(enumerate_fast(12, fam))
            assert len(els) == len(set(els))

    def test_members_only_and_odp_inside_dp(self):
        for n in range(11):
            dp = set(enumerate_fast(n, Family.DP))
            for a in dp:
                assert is_member(a, Family.DP)
            odp = set(enumerate_fast(n, Family.ODP))
            for a in odp:
                assert is_member(a, Family.ODP)
            assert odp <= dp

    def test_closure_under_inverse(self):
        for n in range(8):
            for fam in BOTH:
                members = set(elements(n, fam))
                for a in members:
                    assert inverse(a) in members

    def test_closure_under_composition(self):
        from chainisom import compose

        for n in range(7):
            for fam in BOTH:
                els = elements(n, fam)
                for a in els:
                    for b in els:
                        assert is_member(compose(a, b), fam)

    def test_max_point_in_domain_and_image_is_fixed(self):
        # order-preserving only; the dp endpoint swap is the counterexample
        for n in range(1, 8):
            for a in elements(n, Family.ODP):
                if n in a.domain and n in a.image:
                    assert dict(a.pairs)[n] == n
        swap = PartialInjection(3, [(1, 3), (3, 1)])
        assert is_member(swap, Family.DP) and dict(swap.pairs)[3] != 3

    def test_cap_enforced(self):
        with pytest.raises(LimitExceeded):
            enumerate_fast(21, Family.DP)
        with pytest.raises(LimitExceeded):
            enumerate_fast(5, Family.DP, cap=3)
        with pytest.raises(DomainError):
            enumerate_fast(-1, Family.DP)
        # override allows going past the default guard
        assert next(iter(enumerate_fast(4, Family.DP, cap=4))) == PartialInjection(4)


class TestOracleEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_oracle(3, Family.DP)) == 22
        assert list(enumerate_oracle(0, Family.DP)) == [PartialInjection(0)]
        assert sum(1 for _ in enumerate_oracle(5, Family.ODP)) == 84

    def test_agrees_with_fast_path_up_to_7(self):
        for n in range(8):
            for fam in BOTH:
                assert list(enumerate_fast(n, fam)) == list(enumerate_oracle(n, fam))

    def test_hard_cap(self):
        with pytest.raises(LimitExceeded):
            enumerate_oracle(9, Family.DP)
        with pytest.raises(DomainError):
            enumerate_oracle(-1, Family.DP)

    def test_non_family_rejected(self):
        with pytest.raises(DomainError):
            enumerate_oracle(3, "odp")

    def test_non_int_chain_size_rejected(self):
        # as for enumerate_fast; a float would escape as a bare TypeError
        for n in (2.5, 3.0, True, "3"):
            with pytest.raises(DomainError):
                enumerate_oracle(n, Family.DP)


class TestCounting:
    def test_height_row(self):
        assert count_by("height", 4, Family.ODP) == [1, 16, 14, 6, 1]

    def test_fix_row(self):
        assert count_by("fix", 7, Family.DP) == [460, 106, 21, 35, 35, 21, 7, 1]

    def test_order(self):
        assert sum(1 for _ in enumerate_fast(6, Family.DP)) == 319

    def test_histograms_sum_to_order(self):
        for n in range(13):
            for fam in BOTH:
                total = sum(1 for _ in enumerate_fast(n, fam))
                assert sum(count_by("height", n, fam)) == total
                assert sum(count_by("fix", n, fam)) == total


def _fix_without_reflection_fixes(counts, n, dom, reflect):
    # the fix tally with its reflection branch dropped: every reflection is
    # counted as fixing nothing
    shifts = n - dom[-1] + dom[0]
    counts[len(dom)] += 1
    counts[0] += (2 * shifts if reflect else shifts) - 1


class TestCountWalk:
    """count_by tallies the maps on each domain subset without building
    them; the element-by-element counts of helpers are its oracle."""

    def test_matches_reference_up_to_12(self):
        for n in range(13):
            for fam in BOTH:
                for stat in STATISTICS:
                    assert count_by(stat, n, fam) == count_by_reference(stat, n, fam), (
                        stat, n, fam)

    def test_dp_fix_matches_reference_at_14(self):
        assert count_by("fix", 14, Family.DP) == count_by_reference("fix", 14, Family.DP)

    def test_dropped_reflection_branch_is_caught(self, monkeypatch):
        # dp has reflections with a fixed point from n = 3 on (x -> 4 - x on
        # {1, 2, 3} fixes 2), so a walk that never counts them must disagree
        # with the reference there
        monkeypatch.setitem(STATISTICS, "fix", _fix_without_reflection_fixes)
        wrong = [n for n in range(13)
                 if count_by("fix", n, Family.DP) != count_by_reference("fix", n, Family.DP)]
        assert wrong == list(range(3, 13))
        assert count_by("fix", 12, Family.ODP) == count_by_reference("fix", 12, Family.ODP)

    def test_builds_no_element(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("count_by built an element")

        monkeypatch.setattr(isometry_families, "_trusted", refuse)
        monkeypatch.setattr(isometry_families, "PartialInjection", refuse)
        assert sum(count_by("height", 8, Family.DP)) == 1435

    def test_argument_errors(self):
        # as for enumerate_fast, whose checks count_by shares
        for args in (
            ("fix", 3, "dp"),
            ("fix", -1, Family.DP),
            ("fix", 3.0, Family.DP),
            ("fix", True, Family.DP),
            ("weight", 3, Family.DP),
            (["fix"], 3, Family.DP),
        ):
            with pytest.raises(DomainError):
                count_by(*args)
        with pytest.raises(LimitExceeded):
            count_by("fix", 21, Family.DP)
        with pytest.raises(LimitExceeded):
            count_by("fix", 5, Family.DP, cap=4)
        assert count_by("fix", 5, Family.DP, cap=5) == count_by("fix", 5, Family.DP)

    def test_cap_must_be_an_int(self):
        # unchecked, None and "9" would escape as a bare TypeError, True
        # would act as 1 and 2.5 would be accepted
        for cap in (None, "9", True, 2.5, 9.0):
            for call in (
                lambda: enumerate_fast(3, Family.DP, cap=cap),
                lambda: count_by("fix", 3, Family.DP, cap=cap),
                lambda: empirical_count_table("height", Family.ODP, 3, cap=cap),
            ):
                with pytest.raises(DomainError, match="cap"):
                    call()


class TestCountTable:
    def test_empirical_table_matches_row_counters(self):
        tbl = empirical_count_table("height", Family.ODP, 5)
        assert tbl.rows[4] == (1, 16, 14, 6, 1)
        assert tbl.row_sums == (1, 2, 6, 16, 38, 84)
        fix = empirical_count_table("fix", Family.DP, 4)
        assert fix.rows[4] == (38, 10, 6, 4, 1)

    def test_validation(self):
        with pytest.raises(DomainError):
            CountTable("height", Family.DP, ((1,), (1, 1)), (1, 3))
        with pytest.raises(DomainError):
            CountTable("height", Family.DP, ((1,),), (1, 2))
        with pytest.raises(DomainError):
            CountTable("weight", Family.DP, ((1,),), (1,))
        with pytest.raises(DomainError):
            CountTable("height", Family.DP, (), ())
        with pytest.raises(DomainError):
            empirical_count_table("weight", Family.DP, 3)
        with pytest.raises(DomainError):
            count_by("weight", 3, Family.DP)
        with pytest.raises(DomainError):
            CountTable(["height"], Family.DP, ((1,),), (1,))
