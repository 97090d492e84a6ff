import pytest

from chainisom import (
    DomainError,
    Family,
    build_rees_quotient,
    count_by,
    empirical_count_table,
    enumerate_fast,
    f_fix,
    f_fix_dp,
    f_fix_odp,
    f_height,
    f_height_dp,
    f_height_odp,
    family_order,
    formula_count_table,
    order_dp,
    order_odp,
    phi_bijection,
    phi_bijection_report,
)
from chainisom import ChainIsomError, LimitExceeded, PartialInjection, closed_forms
from chainisom.checks import run_check
from chainisom.closed_forms import CLOSED_FORM_CAP, CLOSED_FORMS
from chainisom.isometry_families import STATISTICS
from helpers import phi_reference

BOTH = (Family.DP, Family.ODP)

# Reference count triangles for chains of size 0..7, frozen as goldens.
ODP_BY_HEIGHT = [
    [1],
    [1, 1],
    [1, 4, 1],
    [1, 9, 5, 1],
    [1, 16, 14, 6, 1],
    [1, 25, 30, 20, 7, 1],
    [1, 36, 55, 50, 27, 8, 1],
    [1, 49, 91, 105, 77, 35, 9, 1],
]
ODP_BY_FIX = [
    [1],
    [1, 1],
    [3, 2, 1],
    [9, 3, 3, 1],
    [23, 4, 6, 4, 1],
    [53, 5, 10, 10, 5, 1],
    [115, 6, 15, 20, 15, 6, 1],
    [241, 7, 21, 35, 35, 21, 7, 1],
]
DP_BY_HEIGHT = [
    [1],
    [1, 1],
    [1, 4, 2],
    [1, 9, 10, 2],
    [1, 16, 28, 12, 2],
    [1, 25, 60, 40, 14, 2],
    [1, 36, 110, 100, 54, 16, 2],
    [1, 49, 182, 210, 154, 70, 18, 2],
]
DP_BY_FIX = [
    [1],
    [1, 1],
    [4, 2, 1],
    [12, 6, 3, 1],
    [38, 10, 6, 4, 1],
    [90, 26, 10, 10, 5, 1],
    [220, 42, 15, 20, 15, 6, 1],
    [460, 106, 21, 35, 35, 21, 7, 1],
]
ODP_ORDERS = [1, 2, 6, 16, 38, 84, 178, 368]
DP_ORDERS = [1, 2, 7, 22, 59, 142, 319, 686]

GOLDEN = {
    ("height", Family.ODP): ODP_BY_HEIGHT,
    ("fix", Family.ODP): ODP_BY_FIX,
    ("height", Family.DP): DP_BY_HEIGHT,
    ("fix", Family.DP): DP_BY_FIX,
}

# (n, k) arguments whose type is not exactly int, each otherwise in range
NON_INT_ARGS = [(2.5, 1), (4.0, 1), (4, 1.0), (True, 1), (4, True), (4, False)]


class TestHeightFormulas:
    def test_odp_values(self):
        assert f_height_odp(7, 3) == 105
        assert f_height_odp(5, 2) == 30 == (5 * 4 * 9) // 6
        for n in range(1, 20):
            assert f_height_odp(n, n) == 1
            if n >= 1:
                assert f_height_odp(n, 1) == n * n

    def test_dp_values(self):
        assert f_height_dp(7, 3) == 210
        assert f_height_dp(4, 2) == 28 == (4 * 3 * 7) // 3
        assert f_height_dp(3, 3) == 2
        for n in range(2, 20):
            assert f_height_dp(n, n) == 2

    def test_domain_errors(self):
        for fn in (f_height_odp, f_height_dp, f_fix_odp, f_fix_dp):
            with pytest.raises(DomainError):
                fn(3, 4)
            with pytest.raises(DomainError):
                fn(3, -1)
            with pytest.raises(DomainError):
                fn(-1, 0)

    def test_non_family_rejected(self):
        # the string "dp" would otherwise get odp's count, 30 where dp has 60
        assert f_height(Family.DP, 5, 2) == 60
        with pytest.raises(DomainError):
            f_height("dp", 5, 2)

    def test_f_height_dp_non_int_rejected(self):
        # 2.5 gave the float 6.25 (through f_height too), True gave 1
        for n, p in NON_INT_ARGS:
            with pytest.raises(DomainError):
                f_height_dp(n, p)
            with pytest.raises(DomainError):
                f_height(Family.DP, n, p)

    def test_f_height_odp_non_int_rejected(self):
        # 2.5 raised a bare TypeError from comb
        for n, p in NON_INT_ARGS:
            with pytest.raises(DomainError):
                f_height_odp(n, p)
            with pytest.raises(DomainError):
                f_height(Family.ODP, n, p)

    def test_dp_doubles_odp_above_height_one(self):
        for n in range(61):
            for p in range(2, n + 1):
                assert f_height_dp(n, p) == 2 * f_height_odp(n, p)


class TestFixFormulas:
    def test_odp_values(self):
        assert f_fix_odp(7, 0) == 241
        assert f_fix_odp(5, 3) == 10
        for n in range(20):
            if n >= 1:
                assert f_fix_odp(n, n) == 1

    def test_dp_values(self):
        assert f_fix_dp(7, 1) == 106
        assert f_fix_dp(4, 0) == 38
        assert f_fix_dp(6, 1) == 42

    def test_non_family_rejected(self):
        # the string "dp" would otherwise get odp's count, 23 where dp has 38
        assert f_fix(Family.DP, 4, 0) == 38
        with pytest.raises(DomainError):
            f_fix("dp", 4, 0)

    def test_f_fix_dp_non_int_rejected(self):
        # 2.5 raised ArithmeticError, as if a formula were broken
        for n, m in NON_INT_ARGS:
            with pytest.raises(DomainError):
                f_fix_dp(n, m)
            with pytest.raises(DomainError):
                f_fix(Family.DP, n, m)

    def test_f_fix_odp_non_int_rejected(self):
        # a float m raised a bare TypeError from comb
        for n, m in NON_INT_ARGS:
            with pytest.raises(DomainError):
                f_fix_odp(n, m)
            with pytest.raises(DomainError):
                f_fix(Family.ODP, n, m)

    def test_divisibility_up_to_60(self):
        # every branch with a denominator must divide exactly
        for n in range(61):
            for p in range(1, n + 1):
                assert (2 * n - p + 1) * _comb(n, p) % (p + 1) == 0
            f_fix_dp(n, 0)
            if n >= 1:
                f_fix_dp(n, 1)


def _comb(n, k):
    from math import comb

    return comb(n, k)


class TestOrders:
    def test_reference_orders(self):
        assert order_odp(7) == 368
        assert order_dp(7) == 686
        assert order_dp(0) == 1
        assert order_odp(0) == 1

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            order_odp(-1)
        with pytest.raises(DomainError):
            order_dp(-2)

    def test_order_dp_non_int_rejected(self):
        # a float n would give the float 12.69 at 2.5
        for n in (2.5, 3.0, True, "3"):
            with pytest.raises(DomainError):
                order_dp(n)

    def test_order_odp_non_int_rejected(self):
        for n in (2.5, 3.0, True, "3"):
            with pytest.raises(DomainError):
                order_odp(n)

    def test_non_int_arguments_rejected(self):
        # unchecked, each would raise a bare TypeError from a comparison,
        # range() or a list size
        for fn, args in (
            (phi_bijection_report, ("5", 3)),
            (build_rees_quotient, ("4", 2)),
            (empirical_count_table, ("height", Family.DP, 2.0)),
            (formula_count_table, ("height", Family.DP, 2.0)),
            (count_by, ("height", 2.0, Family.DP)),
        ):
            with pytest.raises(DomainError):
                fn(*args)

    def test_family_order_non_family_rejected(self):
        # the string "dp" would otherwise get odp's order, 84 where dp has 142
        assert family_order(Family.DP, 5) == 142
        with pytest.raises(DomainError):
            family_order("dp", 5)

    def test_row_sums_match_orders_up_to_60(self):
        for n in range(61):
            assert sum(f_height_odp(n, p) for p in range(n + 1)) == order_odp(n)
            assert sum(f_height_dp(n, p) for p in range(n + 1)) == order_dp(n)
            assert sum(f_fix_odp(n, m) for m in range(n + 1)) == order_odp(n)
            assert sum(f_fix_dp(n, m) for m in range(n + 1)) == order_dp(n)


class TestGoldenTables:
    def test_formula_tables_reproduce_reference_rows(self):
        for (stat, fam), rows in GOLDEN.items():
            tbl = formula_count_table(stat, fam, 7)
            assert [list(r) for r in tbl] == rows
            expected_sums = ODP_ORDERS if fam is Family.ODP else DP_ORDERS
            assert [sum(r) for r in tbl] == expected_sums

    def test_formulas_match_enumeration_up_to_10(self):
        # count_by builds no element, so its rows are cheap to 16; the
        # orders are checked against the elements themselves up to 10
        for n in range(17):
            for fam in BOTH:
                assert count_by("height", n, fam) == [
                    f_height(fam, n, p) for p in range(n + 1)
                ]
                assert count_by("fix", n, fam) == [
                    f_fix(fam, n, m) for m in range(n + 1)
                ]
                if n <= 10:
                    assert sum(1 for _ in enumerate_fast(n, fam)) == family_order(fam, n)

    def test_closed_forms_cover_the_statistics(self):
        # the formulas check and formula tables walk CLOSED_FORMS in the
        # order the CLI lists the statistics
        assert list(CLOSED_FORMS) == list(STATISTICS)


def _passes(check, lo, hi):
    """Whether every instance of ``check`` over lo..hi passes, and how many
    there are."""
    instances = run_check(check, lo, hi)
    return all(inst["pass"] for inst in instances), len(instances)


class TestSumIdentity:
    def test_smallest_case(self):
        # single term: F_odp(2;2) = 1 == 12 - 4 - 4 - 3
        assert f_height_odp(2, 2) == 1 == 3 * 2**2 - 4 - 4 - 3
        assert run_check("sum-identity", 2, 2) == [{"params": {"n": 2}, "pass": True}]

    def test_mid_case_value(self):
        # both sides equal 318 at n = 7
        from math import comb

        lhs = sum((2 * 7 - p + 1) * comb(7, p) // (p + 1) for p in range(2, 8))
        assert lhs == 318 == 3 * 128 - 49 - 14 - 3
        assert sum(f_height_odp(7, p) for p in range(2, 8)) == 318
        assert run_check("sum-identity", 7, 7) == [{"params": {"n": 7}, "pass": True}]

    def test_range_2_to_30(self):
        assert _passes("sum-identity", 2, 30) == (True, 29)

    def test_below_range_rejected(self):
        with pytest.raises(ChainIsomError, match="needs n >= 2"):
            run_check("sum-identity", 0, 1)

    def test_capped_at_60(self):
        assert CLOSED_FORM_CAP == 60
        assert _passes("sum-identity", 60, 60) == (True, 1)
        with pytest.raises(LimitExceeded, match="capped at n=60, got 61"):
            run_check("sum-identity", 61, 61)


class TestRecurrence:
    def test_reference_instances(self):
        assert f_height_odp(7, 3) == 105 == 50 + 55
        assert f_height_odp(6, 2) == 55 and f_height_odp(6, 3) == 50
        assert f_height_dp(7, 3) == 210 == 100 + 110
        assert f_height_dp(6, 2) == 110 and f_height_dp(6, 3) == 100
        assert _passes("recurrence", 7, 7) == (True, 2)

    def test_boundary_takes_the_term_past_the_row_as_zero(self):
        # n = p = 5: F(5;5) == F(4;4) + 0, where F(4;5) lies past row 4;
        # the closed form itself refuses p > n, so a check that asked for
        # F(4;5) would raise instead of passing
        assert f_height_odp(5, 5) == f_height_odp(4, 4) == 1
        with pytest.raises(DomainError):
            f_height_odp(4, 5)
        assert _passes("recurrence", 5, 5) == (True, 2)

    def test_full_range(self):
        assert _passes("recurrence", 3, 30) == (True, 2 * 28)

    def test_out_of_range(self):
        with pytest.raises(ChainIsomError, match="needs n >= 3"):
            run_check("recurrence", 0, 2)

    def test_capped_at_60(self):
        assert _passes("recurrence", 60, 60) == (True, 2)
        with pytest.raises(LimitExceeded, match="capped at n=60, got 61"):
            run_check("recurrence", 61, 61)


class TestPhiBijection:
    def test_partial_identity_case(self):
        a = PartialInjection(3, [(1, 1), (2, 2)])
        assert phi_bijection(a, 4) == PartialInjection(4, [(1, 1), (2, 2), (4, 4)])

    def test_downward_translation_case(self):
        a = PartialInjection(3, [(2, 1), (3, 2)])
        assert phi_bijection(a, 4) == PartialInjection(4, [(2, 1), (3, 2), (4, 3)])

    def test_upward_translation_case(self):
        a = PartialInjection(3, [(1, 2), (2, 3)])
        assert phi_bijection(a, 4) == PartialInjection(4, [(1, 2), (2, 3), (3, 4)])

    def test_matches_the_three_case_reference_up_to_12(self):
        for n in range(2, 13):
            for a in enumerate_fast(n - 1, Family.ODP):
                if not a.is_empty:
                    assert phi_bijection(a, n) == phi_reference(a, n), (a, n)

    def test_checks_membership_once_per_input(self, monkeypatch):
        calls = []
        real = closed_forms.is_member

        def counting(a, family):
            calls.append(a)
            return real(a, family)

        monkeypatch.setattr(closed_forms, "is_member", counting)
        inputs = [a for a in enumerate_fast(5, Family.ODP) if not a.is_empty]
        # the upward translations, s < w, are among the inputs
        assert any(s < w for s, w in (a.pairs[-1] for a in inputs))
        for a in inputs:
            calls.clear()
            phi_bijection(a, 6)
            assert calls == [a]

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            phi_bijection(PartialInjection(3), 4)  # empty
        with pytest.raises(DomainError):
            phi_bijection(PartialInjection(3, [(1, 1)]), 5)  # wrong chain
        with pytest.raises(DomainError):
            # order-reversing input
            phi_bijection(PartialInjection(3, [(1, 2), (2, 1)]), 4)

    def test_bijection_in_claimed_range(self):
        for n in range(3, 9):
            for p in range(3, n + 1):
                report = phi_bijection_report(n, p)
                assert report == {
                    "injective": True,
                    "image_exact": True,
                    "decomposition": True,
                }, (n, p)

    def test_behaviour_at_p_equals_2(self):
        # below the claimed range; recorded observation: still a bijection
        for n in range(2, 9):
            assert all(phi_bijection_report(n, 2).values()), n

    def test_report_range_validation(self):
        with pytest.raises(DomainError):
            phi_bijection_report(4, 1)
