import itertools

import pytest
from hypothesis import given, strategies as st

from chainisom import (
    MismatchedChain,
    NotFunctional,
    NotInjective,
    OutOfRange,
    PartialInjection,
    compose,
    from_json,
    from_text,
    gap_signature,
    inverse,
    is_idempotent,
    is_isometry,
    is_order_preserving,
    is_order_reversing,
    is_partial_identity,
    make_partial_injection,
    partial_identity,
    statistics,
    to_json,
    to_text,
)
from helpers import elements
from chainisom import Family


def _draw_map(draw, n):
    k = draw(st.integers(0, n))
    points = st.integers(1, max(n, 1))
    dom = sorted(draw(st.lists(points, min_size=k, max_size=k, unique=True)))
    img = draw(st.lists(points, min_size=k, max_size=k, unique=True))
    return make_partial_injection(n, zip(dom, img))


@st.composite
def partial_injections(draw, max_n=10):
    return _draw_map(draw, draw(st.integers(min_value=0, max_value=max_n)))


@st.composite
def map_triples(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return _draw_map(draw, n), _draw_map(draw, n), _draw_map(draw, n)


class TestConstruction:
    def test_identity_restriction(self):
        a = make_partial_injection(3, [(1, 1), (2, 2)])
        assert a.pairs == ((1, 1), (2, 2))
        assert is_partial_identity(a)

    def test_valid_non_idempotent(self):
        a = make_partial_injection(3, [(2, 2), (3, 1)])
        assert a.pairs == ((2, 2), (3, 1))
        assert not is_idempotent(a)

    def test_repeated_image_rejected(self):
        with pytest.raises(NotInjective):
            make_partial_injection(3, [(1, 2), (2, 2)])

    def test_repeated_domain_rejected(self):
        with pytest.raises(NotFunctional):
            make_partial_injection(3, [(1, 2), (1, 3)])

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRange):
            make_partial_injection(3, [(0, 1)])
        with pytest.raises(OutOfRange):
            make_partial_injection(3, [(1, 4)])
        with pytest.raises(OutOfRange):
            PartialInjection(-1)
        # points must be ints: no silent truncation or coercion
        with pytest.raises(OutOfRange):
            PartialInjection(3, [(1.7, 2.9)])
        with pytest.raises(OutOfRange):
            PartialInjection(3, [("2", True)])
        with pytest.raises(OutOfRange):
            PartialInjection(3, [(1, 2), ("a", 1)])

    def test_bool_chain_size_rejected(self):
        # bool is an int subclass; True would otherwise pass for n = 1
        with pytest.raises(OutOfRange):
            PartialInjection(True, ())
        with pytest.raises(OutOfRange):
            PartialInjection(False)

    def test_normalisation_sorts_by_domain(self):
        assert PartialInjection(4, [(3, 1), (1, 3)]).pairs == ((1, 3), (3, 1))

    def test_empty_map_valid_for_any_n(self):
        assert PartialInjection(0).pairs == ()
        assert PartialInjection(5).is_empty

    def test_equality_includes_chain_size(self):
        assert PartialInjection(3, [(1, 1)]) != PartialInjection(4, [(1, 1)])
        assert PartialInjection(3, [(1, 1)]) == make_partial_injection(3, [(1, 1)])


class TestCompose:
    def test_documented_product(self):
        a = make_partial_injection(3, [(1, 1), (2, 2)])
        b = make_partial_injection(3, [(2, 2), (3, 1)])
        assert compose(a, b) == make_partial_injection(3, [(2, 2)])

    def test_zero_absorbs(self):
        a = make_partial_injection(3, [(1, 2), (2, 3)])
        zero = PartialInjection(3)
        assert compose(a, zero) == zero
        assert compose(zero, a) == zero

    def test_triple_product_collapses(self):
        a = partial_identity(3, [1, 2])
        b = partial_identity(3, [2, 3])
        c = partial_identity(3, [1, 3])
        assert compose(compose(a, b), c) == PartialInjection(3)
        # but both two-step products are nonzero
        assert not compose(a, b).is_empty
        assert not compose(b, c).is_empty

    def test_left_to_right_action(self):
        # x(ab) = (xa)b: 1 -> 2 under a, then 2 -> 3 under b
        a = make_partial_injection(3, [(1, 2)])
        b = make_partial_injection(3, [(2, 3)])
        assert compose(a, b) == make_partial_injection(3, [(1, 3)])
        assert compose(b, a).is_empty

    def test_mismatched_chain(self):
        with pytest.raises(MismatchedChain):
            compose(PartialInjection(3), PartialInjection(4))

    def test_operator_sugar(self):
        a = partial_identity(3, [1, 2])
        assert a * a == a


class TestInverse:
    def test_transposition(self):
        assert inverse(make_partial_injection(3, [(1, 2), (2, 3)])) == \
            make_partial_injection(3, [(2, 1), (3, 2)])

    def test_empty(self):
        assert inverse(PartialInjection(4)) == PartialInjection(4)

    def test_involution_over_dp4(self):
        for a in elements(4, Family.DP):
            assert inverse(inverse(a)) == a

    def test_inverse_laws_over_dp5(self):
        for a in elements(5, Family.DP):
            b = inverse(a)
            assert compose(compose(a, b), a) == a
            assert compose(compose(b, a), b) == b


class TestStatistics:
    def test_direct_reading(self):
        s = statistics(make_partial_injection(5, [(2, 4), (3, 3), (4, 2)]))
        assert s.height == 3
        assert s.fix_set == frozenset({3})
        assert s.right_shoulder == 4
        assert s.right_waist == 4
        assert s.left_shoulder == 2
        assert s.left_waist == 2

    def test_identity_fixes_everything(self):
        for n in (1, 4, 7):
            s = statistics(partial_identity(n, range(1, n + 1)))
            assert s.fix_count == n
            assert s.fix_set == frozenset(range(1, n + 1))

    def test_single_fixed_point(self):
        s = statistics(make_partial_injection(3, [(1, 3), (2, 2)]))
        assert s.fix_set == frozenset({2})
        assert s.fix_count == 1

    def test_empty_map_has_absent_extremes(self):
        s = statistics(PartialInjection(6))
        assert s.height == 0
        assert s.right_waist is None and s.left_waist is None
        assert s.right_shoulder is None and s.left_shoulder is None
        assert s.fix_count == 0

    def test_fix_count_bounded_by_height(self):
        for a in elements(5, Family.DP):
            s = statistics(a)
            assert s.fix_count <= s.height == a.height


class TestPredicates:
    def test_endpoint_swap(self):
        n = 6
        a = make_partial_injection(n, [(1, n), (n, 1)])
        assert is_isometry(a)
        assert not is_order_preserving(a)
        assert is_order_reversing(a)

    def test_distance_violation(self):
        a = make_partial_injection(3, [(1, 1), (2, 3)])
        assert not is_isometry(a)

    def test_reflection_pattern(self):
        a = make_partial_injection(4, [(2, 3), (3, 2), (4, 1)])
        assert is_isometry(a)
        assert is_order_reversing(a)

    def test_vacuous_for_small_maps(self):
        for a in (PartialInjection(4), make_partial_injection(4, [(2, 3)])):
            assert is_isometry(a)
            assert is_order_preserving(a)
            assert is_order_reversing(a)

    def test_idempotents(self):
        assert is_idempotent(make_partial_injection(3, [(2, 2)]))
        assert is_partial_identity(make_partial_injection(3, [(2, 2)]))
        b = make_partial_injection(3, [(2, 2), (3, 1)])
        assert not is_idempotent(b)
        assert not is_partial_identity(b)
        assert is_idempotent(PartialInjection(3))
        assert is_partial_identity(PartialInjection(3))

    def test_idempotent_iff_partial_identity_on_all_of_i3(self):
        # every partial injection on the 3-chain, not just the isometries
        points = (1, 2, 3)
        for k in range(4):
            for dom in itertools.combinations(points, k):
                for img in itertools.permutations(points, k):
                    a = make_partial_injection(3, zip(dom, img))
                    assert is_idempotent(a) == is_partial_identity(a)


class TestGapSignature:
    def test_examples(self):
        assert gap_signature([1, 3, 4]).diffs == (2, 1)
        assert gap_signature([2, 4, 5]) == gap_signature([1, 3, 4])
        assert gap_signature([]).diffs == ()
        assert gap_signature([7]).diffs == ()

    def test_reversed(self):
        assert gap_signature([1, 2, 4]).reversed() == gap_signature([1, 3, 4])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            gap_signature([3, 1])
        with pytest.raises(ValueError):
            gap_signature([1, 1, 2])


class TestSerialization:
    def test_json_form(self):
        a = make_partial_injection(3, [(2, 2), (3, 1)])
        assert to_json(a) == {"n": 3, "map": [[2, 2], [3, 1]]}
        assert from_json({"n": 3, "map": [[2, 2], [3, 1]]}) == a

    def test_text_form(self):
        a = make_partial_injection(3, [(2, 2), (3, 1)])
        assert to_text(a) == "(2 3 / 2 1)"
        assert from_text("(2 3 / 2 1)", 3) == a
        assert to_text(PartialInjection(2)) == "( / )"
        assert from_text("( / )", 2) == PartialInjection(2)

    def test_text_rejects_garbage(self):
        with pytest.raises(ValueError):
            from_text("2 3 / 2 1", 3)
        with pytest.raises(ValueError):
            from_text("(2 3 / 2)", 3)


class TestRandomised:
    @given(partial_injections())
    def test_serialisation_round_trips(self, a):
        assert from_json(to_json(a)) == a
        assert from_text(to_text(a), a.n) == a

    @given(partial_injections())
    def test_inverse_laws(self, a):
        b = inverse(a)
        assert compose(compose(a, b), a) == a
        assert compose(compose(b, a), b) == b
        assert inverse(b) == a

    @given(map_triples())
    def test_compose_associative(self, triple):
        a, b, c = triple
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(map_triples())
    def test_compose_result_is_canonical(self, triple):
        # compose builds its result without validation; it must equal the
        # validated value with the same pairs, hash alike, agree with a
        # plain dict composition, and still refuse factors on two chains
        a, b, _ = triple
        c = compose(a, b)
        rebuilt = PartialInjection(c.n, c.pairs)
        assert c == rebuilt
        assert hash(c) == hash(rebuilt)
        first, then = a.mapping, b.mapping
        plain = {x: then[y] for x, y in first.items() if y in then}
        assert c.pairs == tuple(sorted(plain.items()))
        with pytest.raises(MismatchedChain):
            compose(a, PartialInjection(b.n + 1, b.pairs))

    @given(partial_injections())
    def test_idempotent_iff_partial_identity(self, a):
        assert is_idempotent(a) == is_partial_identity(a)

    @given(partial_injections())
    def test_statistics_consistency(self, a):
        s = statistics(a)
        assert s.height == len(a.pairs)
        assert s.fix_count == len(s.fix_set) <= s.height
        assert (s.right_waist is None) == a.is_empty
