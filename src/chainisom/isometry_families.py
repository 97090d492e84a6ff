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
  representations produce the same maps.  The rule giving the images of
  one domain is written once, in ``_images``, and the walk over the
  domains once, in ``_walk``.  :func:`enumerate_images` hands the walk out
  as it is, one ``(domain, images)`` pair per domain subset, and builds no
  element value: the CLI renders ``enumerate`` output straight from it,
  and ``greens_structure`` reads the Green's classes off the walk and the
  rule.  :func:`enumerate_fast` builds one value per image.  Each element
  is canonical by construction, so it is built through
  ``chain_maps._trusted``, without the :class:`PartialInjection` validation.
* :func:`enumerate_oracle` generates every partial injection of the chain
  through the validating constructor and filters by membership.  It is
  deliberately naive; the ``oracle-equivalence`` check and the test suite
  assert that both sources agree element for element.

Both return generators and emit elements in canonical order (height, then
domain, then images in domain order).  Enumeration is pure and
partitionable: distinct generators share no state.

:func:`count_by` counts the family by a statistic without building any
element.  It walks the same domain subsets as :func:`enumerate_fast` and
tallies the maps on each by arithmetic.  A domain with extremes lo <= hi
carries n - (hi - lo) translations, and for DP with at least two points
as many reflections.  The translation by 0 fixes every domain point and
the other translations fix none.  The reflection x -> c - x fixes x
exactly when c = 2x, and c runs over hi+1..n+lo, so the reflections that
fix a point (one each) are those for the domain points x with
hi < 2x <= n + lo.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from enum import Enum
from itertools import combinations, permutations

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
    _check_family(family)  # family is not a Family here, so this raises


def _check_family(family) -> None:
    if not isinstance(family, Family):
        raise DomainError(f"family must be a Family, got {family!r}")


def _check_chain_size(n: int) -> None:
    # exact type: a float n would reach range() or a closed form, and True
    # would pass for the chain of size 1
    if type(n) is not int or n < 0:
        raise DomainError(f"chain size must be a non-negative int, got {n!r}")


def _check_request(n, family, height, cap):
    """The argument checks of :func:`enumerate_fast` and :func:`count_by`,
    made before either walks the family."""
    _check_family(family)
    # exact type, as for PartialInjection's chain size: the elements are
    # built unvalidated, so a bool or float n would reach them unchecked,
    # and a bool or float cap would pass for a number it is not
    if type(n) is not int or (height is not None and type(height) is not int):
        raise DomainError(
            f"chain size and height must be integers, got n={n!r}, height={height!r}"
        )
    if type(cap) is not int:
        raise DomainError(f"cap must be an int, got {cap!r}")
    _check_chain_size(n)
    if n > cap:
        raise LimitExceeded(f"enumeration at n={n} exceeds the cap {cap}")
    if height is not None and not 0 <= height <= n:
        raise DomainError(f"need 0 <= height <= n, got height={height}, n={n}")


def enumerate_fast(
    n: int,
    family: Family,
    height: int | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Iterator[PartialInjection]:
    """Stream the family on the chain of size ``n``, each element once.

    ``family`` must be a :class:`Family` (the string "dp" is not one),
    ``n``, ``height`` and ``cap`` must be of type ``int`` exactly, and
    ``height`` restricts the stream to one image size, which must lie in
    0..n (:class:`DomainError` otherwise).  ``cap`` guards against runaway
    enumerations (the family grows like 3 * 2^n); pass a larger value
    explicitly to go beyond the default.
    """
    _check_request(n, family, height, cap)
    return _generate(n, family, height)


def enumerate_images(
    n: int,
    family: Family,
    height: int | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Iterator[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """Stream the family as ``(domain, images)``, one pair per domain subset.

    ``domain`` is an increasing tuple of points and ``images`` lists, in
    canonical order, the image tuples of the family's maps on it, each in
    domain order: the map ``zip(domain, img)`` for each ``img``.  The
    domains come in canonical order too, so the maps come in the order of
    :func:`enumerate_fast`, which reads this same walk.  No element value
    is built.  The arguments are checked as by :func:`enumerate_fast`,
    before the first pair is made.

    >>> list(enumerate_images(2, Family.DP, height=2))
    [((1, 2), [(1, 2), (2, 1)])]
    """
    _check_request(n, family, height, cap)
    return _walk(n, family, height)


def _walk(n, family, height):
    heights = range(n + 1) if height is None else [height]
    for h in heights:
        if h == 0:
            yield (), [()]  # the empty map
            continue
        for dom in combinations(range(1, n + 1), h):
            yield dom, _images(n, family, dom)


def _images(n, family, dom):
    """The image tuples of the family's maps on the nonempty domain ``dom``,
    each in domain order, listed in canonical order: the translations
    x -> x + t that keep the image in 1..n and, for dp from two points up,
    the reflections x -> c - x that do."""
    lo, hi = dom[0], dom[-1]
    # tuple() of a list comprehension: a generator per image costs more
    images = [tuple([x + t for x in dom]) for t in range(1 - lo, n - hi + 1)]
    if family is Family.DP and len(dom) >= 2:
        images += [tuple([c - x for x in dom]) for c in range(hi + 1, n + lo + 1)]
        images.sort()
    return images


def _generate(n, family, height):
    for dom, images in _walk(n, family, height):
        for img in images:
            yield _trusted(n, tuple(zip(dom, img)))


def enumerate_oracle(n: int, family: Family) -> Iterator[PartialInjection]:
    """Stream the family by filtering every partial injection of the chain.

    Exists purely as a cross-check for :func:`enumerate_fast`; the chain of
    size 8 already has about 1.4 million partial injections, so larger
    chains are refused.
    """
    _check_family(family)
    _check_chain_size(n)
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


def _tally_height(counts, n, dom, reflect):
    shifts = n - dom[-1] + dom[0]
    counts[len(dom)] += 2 * shifts if reflect else shifts


def _tally_fix(counts, n, dom, reflect):
    lo, hi = dom[0], dom[-1]
    shifts = n - hi + lo
    # the translation by 0 fixes all of dom, the other shifts nothing
    counts[len(dom)] += 1
    counts[0] += shifts - 1
    if reflect:
        # one reflection fixes x for each x in dom with hi < 2x <= n + lo
        fixing = bisect_right(dom, (n + lo) // 2) - bisect_right(dom, hi // 2)
        counts[1] += fixing
        counts[0] += shifts - fixing


# The statistics a count table can be taken by, each with its tally: given
# one domain subset of the chain, ``tally(counts, n, dom, reflect)`` adds
# the maps on that domain to ``counts``, indexed by the statistic's value
# 0..n.  ``reflect`` says whether the reflections count as well as the
# translations.
STATISTICS = {"height": _tally_height, "fix": _tally_fix}


def _statistic(name):
    tally = STATISTICS.get(name) if isinstance(name, str) else None
    if tally is None:
        raise DomainError(f"unknown statistic {name!r}")
    return tally


def count_by(
    statistic: str, n: int, family: Family, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[int]:
    """Exact element counts indexed by the value of ``statistic``, 0..n.

    No element is built; the arguments are checked as by
    :func:`enumerate_fast`, and ``cap`` bounds ``n`` in the same way.

    >>> count_by("height", 4, Family.ODP)
    [1, 16, 14, 6, 1]
    """
    tally = _statistic(statistic)
    _check_request(n, family, None, cap)
    counts = [0] * (n + 1)
    counts[0] = 1  # the empty map: height 0, no fixed point
    for h in range(1, n + 1):
        reflect = family is Family.DP and h >= 2
        for dom in combinations(range(1, n + 1), h):
            tally(counts, n, dom, reflect)
    return counts


def empirical_count_table(
    statistic: str,
    family: Family,
    max_n: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[tuple[int, ...], ...]:
    """Triangle of counts F(n; k), n = 0..max_n, obtained by counting the
    maps with :func:`count_by` (no closed forms involved): ``rows[n][k]``
    counts the elements whose ``statistic`` equals k.  The arguments are
    checked, and ``cap`` bounds ``max_n``, before any row is counted."""
    _statistic(statistic)
    _check_request(max_n, family, None, cap)
    return tuple(tuple(count_by(statistic, n, family, cap)) for n in range(max_n + 1))
