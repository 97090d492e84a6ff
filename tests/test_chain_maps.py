import itertools

import pytest
from hypothesis import given, strategies as st

from chainisom import (
    ChainIsomError,
    MismatchedChain,
    NotFunctional,
    NotInjective,
    OutOfRange,
    PartialInjection,
    compose,
    from_json,
    gap_signature,
    inverse,
    is_isometry,
    is_order_preserving,
    is_order_reversing,
    partial_identity,
    to_json,
    to_text,
)
from helpers import elements, validate_reference
from chainisom import Family, enumerate_fast


def is_partial_identity(a):
    return all(x == y for x, y in a.pairs)


def fixed_points(a):
    return {x for x, y in a.pairs if x == y}


def _draw_map(draw, n):
    k = draw(st.integers(0, n))
    points = st.integers(1, max(n, 1))
    dom = sorted(draw(st.lists(points, min_size=k, max_size=k, unique=True)))
    img = draw(st.lists(points, min_size=k, max_size=k, unique=True))
    return PartialInjection(n, zip(dom, img))


@st.composite
def partial_injections(draw, max_n=10):
    return _draw_map(draw, draw(st.integers(min_value=0, max_value=max_n)))


@st.composite
def map_triples(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return _draw_map(draw, n), _draw_map(draw, n), _draw_map(draw, n)


@st.composite
def right_factor_cases(draw, max_n=6):
    """Left factors and a right factor on one chain whose compose memo is
    still unset: b is validated, freshly enumerated, or a fresh product."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    source = draw(st.sampled_from(["validated", "enumerate_fast", "compose"]))
    if source == "validated":
        b = _draw_map(draw, n)
    elif source == "enumerate_fast":
        family = draw(st.sampled_from(list(Family)))
        b = draw(st.sampled_from(list(enumerate_fast(n, family))))
    else:
        b = compose(_draw_map(draw, n), _draw_map(draw, n))
    lefts = [_draw_map(draw, n) for _ in range(draw(st.integers(1, 4)))]
    return lefts + [b], b


# Points a constructor must sort into valid, out-of-range, repeated and
# wrongly typed: small ints repeat often on chains of size 0..5.
_raw_points = st.one_of(
    st.integers(1, 4),
    st.integers(-1, 6),
    st.booleans(),
    st.sampled_from([2.0, 1.5, "2", None]),
)
_raw_pairs = st.lists(
    st.one_of(
        st.tuples(_raw_points, _raw_points),
        st.lists(_raw_points, min_size=2, max_size=2),
    ),
    max_size=6,
)
_raw_chain_sizes = st.one_of(st.integers(-1, 5), st.sampled_from([True, 3.0]))


def plain_product(a, b):
    then = dict(b.pairs)
    return tuple((x, then[y]) for x, y in a.pairs if y in then)


class TestConstruction:
    def test_identity_restriction(self):
        a = PartialInjection(3, [(1, 1), (2, 2)])
        assert a.pairs == ((1, 1), (2, 2))
        assert is_partial_identity(a)

    def test_valid_non_idempotent(self):
        a = PartialInjection(3, [(2, 2), (3, 1)])
        assert a.pairs == ((2, 2), (3, 1))
        assert compose(a, a) != a

    def test_repeated_image_rejected(self):
        with pytest.raises(NotInjective):
            PartialInjection(3, [(1, 2), (2, 2)])

    def test_repeated_domain_rejected(self):
        with pytest.raises(NotFunctional):
            PartialInjection(3, [(1, 2), (1, 3)])

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRange):
            PartialInjection(3, [(0, 1)])
        with pytest.raises(OutOfRange):
            PartialInjection(3, [(1, 4)])
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

    @given(_raw_chain_sizes, _raw_pairs)
    def test_rejection_matches_reference(self, n, pairs):
        # the same pairs, or the same exception class and message, as the
        # one-pass-per-check validator kept in helpers
        try:
            expected = validate_reference(n, pairs)
        except ChainIsomError as exc:
            with pytest.raises(ChainIsomError) as got:
                PartialInjection(n, pairs)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
        else:
            assert PartialInjection(n, pairs).pairs == expected

    def test_first_out_of_range_pair_in_sorted_order_reported(self):
        with pytest.raises(OutOfRange, match=r"^pair \(0, 2\) lies outside the chain 1\.\.3$"):
            PartialInjection(3, [(5, 1), (0, 2)])

    def test_smallest_repeated_domain_point_named(self):
        with pytest.raises(NotFunctional, match="^domain point 2 is mapped twice$"):
            PartialInjection(4, [(3, 1), (2, 2), (3, 4), (2, 3)])

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(1,)], "entry (1,) is not an (x, y) pair"),
            ([(1, 2, 3)], "entry (1, 2, 3) is not an (x, y) pair"),
            ("ab", "entry 'a' is not an (x, y) pair"),
            ([1], "entry 1 is not an (x, y) pair"),
            ([(1, 2), (2, 3, 1)], "entry (2, 3, 1) is not an (x, y) pair"),
            (None, "pairs must be an iterable of (x, y) entries, got None"),
        ],
    )
    def test_malformed_shape_rejected(self, pairs, message):
        with pytest.raises(OutOfRange) as got:
            PartialInjection(3, pairs)
        assert str(got.value) == message

    def test_malformed_entry_of_a_one_shot_iterator_rejected(self):
        with pytest.raises(OutOfRange, match=r"is not an \(x, y\) pair$"):
            PartialInjection(3, iter([(1, 2), (3,)]))

    def test_malformed_json_map_rejected(self):
        with pytest.raises(OutOfRange) as got:
            from_json({"n": 3, "map": [[1, 2, 3]]})
        assert str(got.value) == "entry [1, 2, 3] is not an (x, y) pair"
        # unchecked, a missing key or a non-object would raise KeyError or
        # TypeError
        for obj, message in (
            ({"n": 3}, "serialized map {'n': 3} has no 'map' key"),
            ([1], "serialized map must be an object, got [1]"),
            (None, "serialized map must be an object, got None"),
        ):
            with pytest.raises(OutOfRange) as got:
                from_json(obj)
            assert str(got.value) == message

    def test_normalisation_sorts_by_domain(self):
        assert PartialInjection(4, [(3, 1), (1, 3)]).pairs == ((1, 3), (3, 1))

    def test_empty_map_valid_for_any_n(self):
        assert PartialInjection(0).pairs == ()
        assert PartialInjection(5).is_empty

    def test_equality_includes_chain_size(self):
        assert PartialInjection(3, [(1, 1)]) != PartialInjection(4, [(1, 1)])
        assert PartialInjection(3, [(1, 1)]) == PartialInjection(3, [(1, 1)])


class TestCompose:
    def test_documented_product(self):
        a = PartialInjection(3, [(1, 1), (2, 2)])
        b = PartialInjection(3, [(2, 2), (3, 1)])
        assert compose(a, b) == PartialInjection(3, [(2, 2)])

    def test_zero_absorbs(self):
        a = PartialInjection(3, [(1, 2), (2, 3)])
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
        a = PartialInjection(3, [(1, 2)])
        b = PartialInjection(3, [(2, 3)])
        assert compose(a, b) == PartialInjection(3, [(1, 3)])
        assert compose(b, a).is_empty

    def test_mismatched_chain(self):
        with pytest.raises(MismatchedChain):
            compose(PartialInjection(3), PartialInjection(4))

    @given(right_factor_cases())
    def test_memo_matches_plain_lookup(self, case):
        # compose keeps dict(b.pairs) on b after its first use as a right
        # factor; every use, first and later, must agree with a fresh dict
        lefts, b = case
        assert b._lookup is None
        for a in lefts + lefts:
            assert compose(a, b) == PartialInjection(b.n, plain_product(a, b))
            assert b._lookup == dict(b.pairs)

    @given(right_factor_cases())
    def test_memo_is_invisible(self, case):
        lefts, b = case
        fresh = PartialInjection(b.n, b.pairs)
        json_before = to_json(b)
        compose(lefts[0], b)
        assert b._lookup is not None and fresh._lookup is None
        assert b == fresh and fresh == b
        assert hash(b) == hash(fresh)
        assert repr(b) == repr(fresh)
        assert to_json(b) == json_before == to_json(fresh)
        assert [name for name in vars(b) if name != "_lookup"] == ["n", "pairs"]
        with pytest.raises(MismatchedChain):
            compose(PartialInjection(b.n + 1, lefts[0].pairs), b)
        with pytest.raises(MismatchedChain):
            compose(b, PartialInjection(b.n + 1))


def assert_is_validated_transpose(a):
    # inverse builds its value unvalidated; it must be the value the
    # validating constructor builds from the transposed pairs
    b = inverse(a)
    reference = PartialInjection(a.n, [(y, x) for x, y in a.pairs])
    assert type(b) is PartialInjection
    assert (b.n, b.pairs) == (reference.n, reference.pairs)
    assert b == reference and reference == b
    assert hash(b) == hash(reference)
    assert vars(b) == {"n": reference.n, "pairs": reference.pairs}
    with pytest.raises(AttributeError):
        b.pairs = ()


class TestInverse:
    def test_is_the_validated_transpose_over_both_families_up_to_6(self):
        for n in range(7):
            for fam in Family:
                for a in enumerate_fast(n, fam):
                    assert_is_validated_transpose(a)

    def test_transposition(self):
        assert inverse(PartialInjection(3, [(1, 2), (2, 3)])) == \
            PartialInjection(3, [(2, 1), (3, 2)])

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
    # shoulders are the extremes of the domain, waists those of the image
    def test_direct_reading(self):
        a = PartialInjection(5, [(2, 4), (3, 3), (4, 2)])
        assert a.height == 3
        assert fixed_points(a) == {3}
        assert a.domain[-1] == 4 and a.image[-1] == 4
        assert a.domain[0] == 2 and a.image[0] == 2

    def test_identity_fixes_everything(self):
        for n in (1, 4, 7):
            a = partial_identity(n, range(1, n + 1))
            assert fixed_points(a) == set(range(1, n + 1))

    def test_single_fixed_point(self):
        assert fixed_points(PartialInjection(3, [(1, 3), (2, 2)])) == {2}

    def test_empty_map_has_absent_extremes(self):
        a = PartialInjection(6)
        assert a.height == 0
        assert a.domain == () and a.image == ()
        assert not fixed_points(a)

    def test_fix_count_bounded_by_height(self):
        for a in elements(5, Family.DP):
            assert len(fixed_points(a)) <= a.height == len(a.pairs)


class TestPredicates:
    def test_endpoint_swap(self):
        n = 6
        a = PartialInjection(n, [(1, n), (n, 1)])
        assert is_isometry(a)
        assert not is_order_preserving(a)
        assert is_order_reversing(a)

    def test_distance_violation(self):
        a = PartialInjection(3, [(1, 1), (2, 3)])
        assert not is_isometry(a)

    def test_reflection_pattern(self):
        a = PartialInjection(4, [(2, 3), (3, 2), (4, 1)])
        assert is_isometry(a)
        assert is_order_reversing(a)

    def test_vacuous_for_small_maps(self):
        for a in (PartialInjection(4), PartialInjection(4, [(2, 3)])):
            assert is_isometry(a)
            assert is_order_preserving(a)
            assert is_order_reversing(a)

    def test_idempotents(self):
        a = PartialInjection(3, [(2, 2)])
        assert compose(a, a) == a and is_partial_identity(a)
        b = PartialInjection(3, [(2, 2), (3, 1)])
        assert compose(b, b) != b and not is_partial_identity(b)
        zero = PartialInjection(3)
        assert compose(zero, zero) == zero and is_partial_identity(zero)

    def test_idempotent_iff_partial_identity_on_all_of_i3(self):
        # every partial injection on the 3-chain, not just the isometries
        points = (1, 2, 3)
        for k in range(4):
            for dom in itertools.combinations(points, k):
                for img in itertools.permutations(points, k):
                    a = PartialInjection(3, zip(dom, img))
                    assert (compose(a, a) == a) == is_partial_identity(a)


class TestGapSignature:
    def test_examples(self):
        assert gap_signature([1, 3, 4]) == (2, 1)
        assert gap_signature([2, 4, 5]) == gap_signature([1, 3, 4])
        assert gap_signature([]) == ()
        assert gap_signature([7]) == ()

    def test_reversed(self):
        # reflecting {1, 2, 4} to {1, 3, 4} reverses its signature
        assert gap_signature([1, 2, 4])[::-1] == gap_signature([1, 3, 4])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            gap_signature([3, 1])
        with pytest.raises(ValueError):
            gap_signature([1, 1, 2])


class TestSerialization:
    def test_json_form(self):
        a = PartialInjection(3, [(2, 2), (3, 1)])
        assert to_json(a) == {"n": 3, "map": [[2, 2], [3, 1]]}
        assert from_json({"n": 3, "map": [[2, 2], [3, 1]]}) == a

    def test_text_form(self):
        a = PartialInjection(3, [(2, 2), (3, 1)])
        assert to_text(a) == "(2 3 / 2 1)"
        assert str(a) == "(2 3 / 2 1)"
        assert to_text(PartialInjection(2)) == "( / )"

    def test_text_form_of_long_chains(self):
        # the text is made from the map's own points, so a map on a long
        # chain renders as one on a short chain does
        for n in (63, 64, 65, 10**9):
            a = PartialInjection(n, [(1, n), (n, 7)])
            assert to_text(a) == f"(1 {n} / {n} 7)"
        assert to_text(PartialInjection(10**9)) == "( / )"


class TestRandomised:
    @given(partial_injections())
    def test_serialisation_round_trips(self, a):
        assert from_json(to_json(a)) == a

    @given(partial_injections())
    def test_inverse_is_the_validated_transpose(self, a):
        assert_is_validated_transpose(a)

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
        first, then = dict(a.pairs), dict(b.pairs)
        plain = {x: then[y] for x, y in first.items() if y in then}
        assert c.pairs == tuple(sorted(plain.items()))
        with pytest.raises(MismatchedChain):
            compose(a, PartialInjection(b.n + 1, b.pairs))

    @given(map_triples())
    def test_compose_result_keeps_the_value_contract(self, triple):
        # compose builds its result inline, not through the constructor; it
        # must still read, hash and refuse mutation like a constructed value
        a, b, _ = triple
        c = compose(a, b)
        rebuilt = PartialInjection(c.n, c.pairs)
        assert repr(c) == repr(rebuilt)
        assert hash(c) == hash(rebuilt)
        with pytest.raises(AttributeError):
            c.n = c.n + 1
        with pytest.raises(AttributeError):
            c.pairs = ()
        with pytest.raises(AttributeError):
            del c.pairs
        assert vars(c) == {"n": a.n, "pairs": c.pairs}
        # the right-factor memo appears only once c is a right factor
        assert c._lookup is None
        compose(c, a)
        assert c._lookup is None
        compose(a, c)
        assert c._lookup == dict(c.pairs)

    @given(partial_injections())
    def test_idempotent_iff_partial_identity(self, a):
        assert (compose(a, a) == a) == is_partial_identity(a)

    @given(partial_injections())
    def test_statistics_consistency(self, a):
        assert a.height == len(a.pairs) == len(a.domain) == len(a.image)
        assert len(fixed_points(a)) <= a.height
        if a.is_empty:
            return
        # phi_bijection reads the right shoulder and waist off the last
        # pair, which holds both only for an order-preserving map
        s, w = a.pairs[-1]
        assert s == a.domain[-1]
        if is_order_preserving(a):
            assert w == a.image[-1]
