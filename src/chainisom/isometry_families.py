"""Membership, enumeration, and empirical counting for the two families.

``Family.DP`` selects the distance-preserving partial maps of the chain and
``Family.ODP`` the order-preserving ones among them.  Two independent
element sources are provided:

* :func:`enumerate_fast` builds elements structurally.  Every nonempty
  member of the DP family is the restriction of a translation x -> x + t
  (the order-preserving case) or of a reflection x -> c - x (the
  order-reversing case), so it suffices to walk domain subsets and the
  shifts/centres that keep the image inside the chain.  Height <= 1
  elements are emitted from the translation pass only, since there the two
  representations produce the same maps.  Each element is canonical by
  construction, so it is built without re-running the
  :class:`PartialInjection` validation; besides ``chain_maps.compose``
  this is the only unvalidated construction site.
* :func:`enumerate_oracle` generates every partial injection of the chain
  through the validating constructor and filters by membership.  It is
  deliberately naive; the ``oracle-equivalence`` check and the test suite
  assert that both sources agree element for element.

Both return generators and emit elements in canonical order (height, then
domain, then images in domain order), so counting at the default cap never
materialises the full family.  Enumeration is pure and partitionable:
distinct generators share no state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations, permutations
from typing import Iterator

from .chain_maps import PartialInjection, _trusted, is_isometry, is_order_preserving
from .errors import DomainError, LimitExceeded

DEFAULT_ENUMERATION_CAP = 20
ORACLE_CAP = 8


class Family(Enum):
    """Which membership rule applies: all partial isometries, or the
    order-preserving ones only."""

    DP = "dp"
    ODP = "odp"


def is_member(a: PartialInjection, family: Family) -> bool:
    if family is Family.DP:
        return is_isometry(a)
    if family is Family.ODP:
        return is_isometry(a) and is_order_preserving(a)
    raise DomainError(f"family must be a Family, got {family!r}")


def enumerate_fast(
    n: int,
    family: Family,
    height: int | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Iterator[PartialInjection]:
    """Stream the family on the chain of size ``n``, each element once.

    ``family`` must be a :class:`Family` (the string "dp" is not one),
    ``n`` and ``height`` must be of type ``int`` exactly, and ``height``
    restricts the stream to one image size, which must lie in 0..n
    (:class:`DomainError` otherwise).  ``cap`` guards against runaway
    enumerations (the family grows like 3 * 2^n); pass a larger value
    explicitly to go beyond the default.
    """
    if not isinstance(family, Family):
        raise DomainError(f"family must be a Family, got {family!r}")
    # exact type, as for PartialInjection's chain size: the elements are
    # built unvalidated, so a bool or float n would reach them unchecked
    if type(n) is not int or (height is not None and type(height) is not int):
        raise DomainError(
            f"chain size and height must be integers, got n={n!r}, height={height!r}"
        )
    if n < 0:
        raise DomainError(f"chain size must be non-negative, got {n}")
    if n > cap:
        raise LimitExceeded(f"enumeration at n={n} exceeds the cap {cap}")
    if height is not None and not 0 <= height <= n:
        raise DomainError(f"need 0 <= height <= n, got height={height}, n={n}")
    return _generate(n, family, height)


def _generate(n, family, height):
    heights = range(n + 1) if height is None else [height]
    for h in heights:
        if h == 0:
            yield _trusted(n, ())
            continue
        for dom in combinations(range(1, n + 1), h):
            lo, hi = dom[0], dom[-1]
            images = [
                tuple(x + t for x in dom) for t in range(1 - lo, n - hi + 1)
            ]
            if family is Family.DP and h >= 2:
                images.extend(
                    tuple(c - x for x in dom) for c in range(hi + 1, n + lo + 1)
                )
            images.sort()
            for img in images:
                yield _trusted(n, tuple(zip(dom, img)))


def enumerate_oracle(n: int, family: Family) -> Iterator[PartialInjection]:
    """Stream the family by filtering every partial injection of the chain.

    Exists purely as a cross-check for :func:`enumerate_fast`; the chain of
    size 8 already has about 1.4 million partial injections, so larger
    chains are refused.
    """
    if not isinstance(family, Family):
        raise DomainError(f"family must be a Family, got {family!r}")
    if type(n) is not int or n < 0:
        raise DomainError(f"chain size must be a non-negative int, got {n!r}")
    if n > ORACLE_CAP:
        raise LimitExceeded(f"oracle enumeration is capped at n={ORACLE_CAP}, got {n}")
    return _generate_oracle(n, family)


def _generate_oracle(n, family):
    points = range(1, n + 1)
    for k in range(n + 1):
        for dom in combinations(points, k):
            for img in permutations(points, k):
                a = PartialInjection(n, tuple(zip(dom, img)))
                if is_member(a, family):
                    yield a


def count_by_height(
    n: int, family: Family, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[int]:
    """Exact element counts indexed by image size, 0..n."""
    counts = [0] * (n + 1)
    for a in enumerate_fast(n, family, cap=cap):
        counts[a.height] += 1
    return counts


def count_by_fix(
    n: int, family: Family, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[int]:
    """Exact element counts indexed by number of fixed points, 0..n."""
    counts = [0] * (n + 1)
    for a in enumerate_fast(n, family, cap=cap):
        counts[sum(1 for x, y in a.pairs if x == y)] += 1
    return counts


@dataclass(frozen=True)
class CountTable:
    """Triangle of counts F(n; k) for n = 0..max_n plus row sums.

    ``statistic`` is "height" or "fix"; ``rows[n][k]`` counts the elements
    with that statistic equal to k.
    """

    statistic: str
    family: Family
    rows: tuple[tuple[int, ...], ...]
    row_sums: tuple[int, ...]

    def __post_init__(self):
        if self.statistic not in ("height", "fix"):
            raise DomainError(f"unknown statistic {self.statistic!r}")
        if not self.rows:
            raise DomainError("a count table needs at least the row n = 0")
        if len(self.rows) != len(self.row_sums):
            raise DomainError("rows and row_sums must align")
        for n, row in enumerate(self.rows):
            if len(row) != n + 1 or any(v < 0 for v in row):
                raise DomainError(f"row {n} is malformed")
            if sum(row) != self.row_sums[n]:
                raise DomainError(f"row {n} does not sum to its declared order")


def empirical_count_table(
    statistic: str,
    family: Family,
    max_n: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> CountTable:
    """Count table obtained by enumeration (no closed forms involved)."""
    counter = {"height": count_by_height, "fix": count_by_fix}.get(statistic)
    if counter is None:
        raise DomainError(f"unknown statistic {statistic!r}")
    rows = tuple(tuple(counter(n, family, cap=cap)) for n in range(max_n + 1))
    return CountTable(statistic, family, rows, tuple(sum(r) for r in rows))
