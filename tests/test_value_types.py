"""The value contract of the three record types: an exact repr, read-only
attributes, equality only within the class, equal values hashing alike, and
copies and pickle round trips that give an equal value."""

import copy
import pickle

import pytest

from chainisom import CountTable, Family, PartialInjection, Witness, compose, inverse

# (value, an equal value built separately, its repr, one of its fields, a
# plain tuple holding the same items)
CASES = [
    (
        PartialInjection(3, [(1, 2)]),
        PartialInjection(3, ((1, 2),)),
        "PartialInjection(n=3, pairs=((1, 2),))",
        "pairs",
        (3, ((1, 2),)),
    ),
    (
        Witness("not_categorical", (1, 2, 3)),
        Witness(kind="not_categorical", elements=(1, 2, 3)),
        "Witness(kind='not_categorical', elements=(1, 2, 3))",
        "elements",
        ("not_categorical", (1, 2, 3)),
    ),
    (
        CountTable("height", Family.ODP, ((1,), (1, 1)), (1, 2)),
        CountTable(statistic="height", family=Family.ODP, rows=((1,), (1, 1)), row_sums=(1, 2)),
        "CountTable(statistic='height', family=<Family.ODP: 'odp'>, "
        "rows=((1,), (1, 1)), row_sums=(1, 2))",
        "rows",
        ("height", Family.ODP, ((1,), (1, 1)), (1, 2)),
    ),
]
IDS = [case[0].__class__.__name__ for case in CASES]


@pytest.mark.parametrize("value, twin, text, field, items", CASES, ids=IDS)
class TestValueContract:
    def test_repr(self, value, twin, text, field, items):
        assert repr(value) == repr(twin) == text

    def test_equal_values_hash_alike(self, value, twin, text, field, items):
        assert value is not twin
        assert value == twin and not value != twin
        assert hash(value) == hash(twin)
        assert len({value, twin}) == 1

    def test_equality_with_another_type_is_false(self, value, twin, text, field, items):
        for other in (items, list(items), text, None, 0):
            assert not value == other and value != other
            assert not other == value and other != value

    def test_assignment_and_deletion_raise(self, value, twin, text, field, items):
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            setattr(value, "extra", 1)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before and value == twin

    def test_copies_and_pickle_round_trips_are_equal(self, value, twin, text, field, items):
        values = [value]
        if isinstance(value, PartialInjection):
            # a product whose right-factor memo is set, and an inverse: both
            # are built without the constructor
            product = compose(value, inverse(value))
            compose(value, product)
            assert product.pairs and product._lookup == dict(product.pairs)
            values += [product, inverse(value)]
        for v in values:
            for same in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
                assert type(same) is type(v)
                assert same == v and hash(same) == hash(v)
                assert repr(same) == repr(v)


def test_records_differing_in_one_field_are_unequal():
    assert Witness("not_categorical", (1, 2, 3)) != Witness("not_0_E_unitary", (1, 2, 3))
    rows = ((1,), (1, 1))
    assert CountTable("height", Family.ODP, rows, (1, 2)) != CountTable("fix", Family.ODP, rows, (1, 2))
