"""Shared cached fixtures (enumerated families and their tables) and oracles."""

from functools import lru_cache

from chainisom import Family, build_rees_quotient, build_table, enumerate_fast


@lru_cache(maxsize=None)
def elements(n: int, family: Family):
    return tuple(enumerate_fast(n, family))


@lru_cache(maxsize=None)
def table(n: int, family: Family):
    return build_table(list(elements(n, family)))


@lru_cache(maxsize=None)
def rees_table(n: int, p: int):
    return build_rees_quotient(n, p).table


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
