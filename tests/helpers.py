"""Shared cached fixtures (enumerated families and their tables) and oracles."""

from functools import lru_cache

from chainisom import (
    Family,
    NotFunctional,
    NotInjective,
    OutOfRange,
    PartialInjection,
    SemigroupTable,
    build_rees_quotient,
    build_table,
    compose,
    enumerate_fast,
    is_member,
)


@lru_cache(maxsize=None)
def elements(n: int, family: Family):
    return tuple(enumerate_fast(n, family))


# How each count-table statistic is read off one element.
READERS = {
    "height": lambda a: a.height,
    "fix": lambda a: sum(1 for x, y in a.pairs if x == y),
}


def count_by_reference(statistic, n, family):
    """Counts by ``statistic`` taken element by element from
    ``enumerate_fast``: the oracle for ``count_by``'s domain walk."""
    read = READERS[statistic]
    counts = [0] * (n + 1)
    for a in enumerate_fast(n, family):
        counts[read(a)] += 1
    return counts


@lru_cache(maxsize=None)
def table(n: int, family: Family):
    return build_table(list(elements(n, family)))


@lru_cache(maxsize=None)
def rees_table(n: int, p: int):
    return build_rees_quotient(n, p)


def rees_quotient_reference(n: int, p: int):
    """Q(n, p) with every product of the height-p layer composed: the oracle
    for ``build_rees_quotient``, which composes only the products that keep
    height p.  A product of lower height misses the index and collapses to
    the zero at index 0, the empty map."""
    layer = list(enumerate_fast(n, Family.ODP, height=p))
    find = {el.pairs: i + 1 for i, el in enumerate(layer)}.get
    mult = [[0] * (len(layer) + 1)]
    for a in layer:
        mult.append([0] + [find(compose(a, b).pairs, 0) for b in layer])
    return SemigroupTable([PartialInjection(n)] + layer, mult, zero_index=0)


def first_product_outside_all_pairs(elements, family):
    """The first (a, b) in row-major order whose product is not a member of
    ``family``, or ``None``: the oracle for the ``closure`` check, which
    composes only the products with a generating set.  A product that is a
    member but not among ``elements`` passes here and fails there."""
    verdicts = {}
    for a in elements:
        for b in elements:
            product = compose(a, b)
            ok = verdicts.get(product.pairs)
            if ok is None:
                ok = verdicts[product.pairs] = is_member(product, family)
            if not ok:
                return a, b
    return None


def associative_exhaustive(tab) -> bool:
    """Associativity by scanning all k^3 triples: the oracle for Light's test.

    Row a of the product (ab) must equal row b mapped through row a, which
    is (ab)c = a(bc) for every c.
    """
    mult = tab.mult
    for row_a in mult:
        for b, row_b in enumerate(mult):
            if mult[row_a[b]] != tuple(map(row_a.__getitem__, row_b)):
                return False
    return True


def validate_reference(n, pairs):
    """PartialInjection's validation as first written, one pass per check:
    the oracle for the constructor's rejection contract.

    Returns the canonical pair tuple, or raises the class and message the
    constructor must raise.  It is defined only for entries that unpack to
    two values; the constructor rejects other shapes with ``OutOfRange``.
    """
    if type(n) is not int or n < 0:
        raise OutOfRange(f"chain size must be a non-negative integer, got {n!r}")
    pairs = [(x, y) for x, y in pairs]
    for x, y in pairs:
        if type(x) is not int or type(y) is not int:
            raise OutOfRange(f"pair ({x!r}, {y!r}) is not a pair of integers")
    pairs = tuple(sorted(pairs))
    for x, y in pairs:
        if not (1 <= x <= n and 1 <= y <= n):
            raise OutOfRange(f"pair ({x}, {y}) lies outside the chain 1..{n}")
    for (x1, _), (x2, _) in zip(pairs, pairs[1:]):
        if x1 == x2:
            raise NotFunctional(f"domain point {x1} is mapped twice")
    if len({y for _, y in pairs}) != len(pairs):
        raise NotInjective("an image point is hit twice")
    return pairs
