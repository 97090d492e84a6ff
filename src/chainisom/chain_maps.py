"""Partial injective maps on the finite chain {1, ..., n}.

The central value type is :class:`PartialInjection`, an injective map from
a subset of {1, ..., n} into {1, ..., n}, stored as (x, y) pairs sorted by
domain point.  Composition acts left to right, x(ab) = (xa)b, so
``compose(a, b)`` means "apply a, then b"; all products quoted elsewhere in
this package follow that convention.

Values are immutable, hashable, and compare structurally (the chain size is
part of the identity: the same pair list on chains of different sizes gives
unequal values).  The empty map is legal for every n, including n = 0, and
acts as a multiplicative zero.  Every function here depends only on its
arguments.  One has a side effect: ``compose`` stores its right factor's
lookup dict on that factor the first time the factor is used, so the k
uses of a right factor in a k*k table build the dict once.  The memo is not
one of the value's two fields, ``n`` and ``pairs``, so it changes no
equality, hash, repr or serialized form.  It is never mutated once stored,
and two threads racing to store it store equal dicts, so values are still
safe to share across threads.

Every value is validated when it is built, with three exceptions that
skip the validation because their values are canonical by construction:
``compose`` (the composite of two valid maps on one chain), which builds
its result inline, ``isometry_families.enumerate_fast`` (a translation or
reflection restricted to an increasing domain) and :func:`inverse` (the
transpose of a valid map, sorted), which build through ``_trusted``.
Everything else, :func:`from_json` included, builds through the validating
constructor.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import MismatchedChain, NotFunctional, NotInjective, OutOfRange


class PartialInjection:
    """An injective map from a subset of {1..n} into {1..n}.

    Construction normalises the pair list (sorted by domain point) and
    rejects anything that is not a partial injection, so every value that
    exists is canonical.  Values are immutable: assigning or deleting an
    attribute raises :class:`AttributeError`.

    >>> PartialInjection(3, [(3, 1), (2, 2)]).pairs
    ((2, 2), (3, 1))
    """

    # compose's memo of dict(pairs) for this value as a right factor; stored
    # on the instance by compose, not a field: it takes no part in ==, hash,
    # repr or to_json
    _lookup = None

    def __init__(self, n: int, pairs: Iterable = ()):
        if type(n) is not int or n < 0:
            raise OutOfRange(f"chain size must be a non-negative integer, got {n!r}")
        try:
            items = [(x, y) for x, y in pairs]
        except (TypeError, ValueError):
            raise OutOfRange(_malformed(pairs)) from None
        for x, y in items:
            # exact type: no float truncation, string parsing or bool as 0/1
            if type(x) is not int or type(y) is not int:
                raise OutOfRange(f"pair ({x!r}, {y!r}) is not a pair of integers")
        items.sort()
        for x, y in items:
            if not (1 <= x <= n and 1 <= y <= n):
                raise OutOfRange(f"pair ({x}, {y}) lies outside the chain 1..{n}")
        lookup = dict(items)
        if len(lookup) != len(items):
            x = next(x1 for (x1, _), (x2, _) in zip(items, items[1:]) if x1 == x2)
            raise NotFunctional(f"domain point {x} is mapped twice")
        if len(set(lookup.values())) != len(items):
            raise NotInjective("an image point is hit twice")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.n, self.pairs))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(n={self.n!r}, pairs={self.pairs!r})"

    @property
    def height(self) -> int:
        return len(self.pairs)

    @property
    def is_empty(self) -> bool:
        return not self.pairs

    @property
    def domain(self) -> tuple[int, ...]:
        """Domain points in increasing order."""
        return tuple(x for x, _ in self.pairs)

    @property
    def image(self) -> tuple[int, ...]:
        """Image points in increasing order (as a set, not in domain order)."""
        return tuple(sorted(y for _, y in self.pairs))

    def __str__(self) -> str:
        return to_text(self)


def _malformed(pairs) -> str:
    """Name what in ``pairs`` is not an (x, y) pair: the failure path of the
    constructor's unpacking, so it may walk ``pairs`` again."""
    try:
        entries = iter(pairs)
    except TypeError:
        return f"pairs must be an iterable of (x, y) entries, got {pairs!r}"
    for entry in entries:
        try:
            x, y = entry
        except (TypeError, ValueError):
            return f"entry {entry!r} is not an (x, y) pair"
    # a one-shot iterator, already consumed up to and past the bad entry
    return f"pairs {pairs!r} hold an entry that is not an (x, y) pair"


def partial_identity(n: int, points: Iterable[int]) -> PartialInjection:
    """The restriction of the identity map to ``points``."""
    return PartialInjection(n, tuple((x, x) for x in points))


def _trusted(n: int, pairs: tuple[tuple[int, int], ...]) -> PartialInjection:
    # Builds the value as PartialInjection.__init__ would, without its
    # validation.  Sound only where n is an int >= 0 and pairs is already
    # a canonical partial injection of the n-chain.  Its callers are
    # enumerate_fast and inverse.  In enumerate_fast the domain comes from
    # combinations(range(1, n + 1), h), so it is strictly increasing; a
    # translation x + t with t in 1 - lo..n - hi and a reflection c - x
    # with c in hi + 1..n + lo keep every image in 1..n, and both maps are
    # injective.  inverse sorts the transpose of a validated map, whose
    # images are distinct points of 1..n.  compose builds its result the
    # same way, inline.  The fields go through object.__setattr__, not
    # value.__dict__: on CPython 3.11, reading __dict__ moves the value's
    # fields into a dict object, and every later read of a field is slower.
    value = object.__new__(PartialInjection)
    object.__setattr__(value, "n", n)
    object.__setattr__(value, "pairs", pairs)
    return value


def compose(a: PartialInjection, b: PartialInjection) -> PartialInjection:
    """Left-to-right composite: x(ab) = (xa)b, defined where both steps are.

    The result is built without re-validation: both factors were validated
    when they were built, so the composite is already a sorted, injective
    pair list on the same chain.  The first call with ``b`` as the right
    factor stores ``dict(b.pairs)`` on ``b``; later calls read it back.

    >>> a = PartialInjection(3, [(1, 1), (2, 2)])
    >>> b = PartialInjection(3, [(2, 2), (3, 1)])
    >>> compose(a, b).pairs
    ((2, 2),)
    """
    if a.n != b.n:
        raise MismatchedChain(f"cannot compose maps on chains of size {a.n} and {b.n}")
    lookup = b._lookup
    if lookup is None:
        lookup = dict(b.pairs)
        object.__setattr__(b, "_lookup", lookup)
    # Built as _trusted builds a value, but inline and with plain dict
    # stores: that call and its two object.__setattr__ calls were about
    # half the cost of a product.  a.pairs is sorted by distinct domain
    # points and filtering keeps that order, and the images lookup[y] are
    # distinct points of 1..n because the y are distinct and b is injective.
    value = object.__new__(PartialInjection)
    fields = value.__dict__
    fields["n"] = a.n
    fields["pairs"] = tuple([(x, lookup[y]) for x, y in a.pairs if y in lookup])
    return value


def inverse(a: PartialInjection) -> PartialInjection:
    """Transpose of ``a``; satisfies a * inverse(a) * a == a.

    Built without re-validation: ``a`` was validated when it was built, so
    its images are distinct points of 1..n, and the sorted transpose is a
    canonical partial injection of the same chain.

    >>> inverse(PartialInjection(3, [(1, 2), (2, 3)])).pairs
    ((2, 1), (3, 2))
    """
    return _trusted(a.n, tuple(sorted([(y, x) for x, y in a.pairs])))


def is_isometry(a: PartialInjection) -> bool:
    """True when the map preserves absolute differences between domain points.

    Empty and singleton maps qualify vacuously.
    """
    pairs = a.pairs
    for i in range(len(pairs)):
        xi, yi = pairs[i]
        for j in range(i + 1, len(pairs)):
            xj, yj = pairs[j]
            if xj - xi != abs(yj - yi):
                return False
    return True


def is_order_preserving(a: PartialInjection) -> bool:
    """True when x <= y implies xa <= ya on the domain (vacuous for height <= 1)."""
    return all(y1 < y2 for (_, y1), (_, y2) in zip(a.pairs, a.pairs[1:]))


def is_order_reversing(a: PartialInjection) -> bool:
    """True when x <= y implies xa >= ya on the domain (vacuous for height <= 1)."""
    return all(y1 > y2 for (_, y1), (_, y2) in zip(a.pairs, a.pairs[1:]))


def gap_signature(points: Iterable[int]) -> tuple[int, ...]:
    """Successive differences of a sorted, duplicate-free point sequence.

    Two subsets of the chain have the same signature exactly when one is a
    translate of the other; reversing the signature corresponds to
    reflecting the set.

    >>> gap_signature([1, 3, 4])
    (2, 1)
    >>> gap_signature([2, 4, 5]) == gap_signature([1, 3, 4])
    True
    """
    pts = tuple(points)
    if any(p2 <= p1 for p1, p2 in zip(pts, pts[1:])):
        raise ValueError("points must be strictly increasing")
    return tuple(p2 - p1 for p1, p2 in zip(pts, pts[1:]))


# Serialized forms.  JSON: {"n": 3, "map": [[2, 2], [3, 1]]} with pairs
# sorted by domain point.  Text: matrix notation "(2 3 / 2 1)", with the
# empty map written "( / )".

def to_json(a: PartialInjection) -> dict:
    return {"n": a.n, "map": [[x, y] for x, y in a.pairs]}


def from_json(obj: dict) -> PartialInjection:
    """Parse the JSON form; :class:`OutOfRange` names what is malformed."""
    if not isinstance(obj, dict):
        raise OutOfRange(f"serialized map must be an object, got {obj!r}")
    for key in ("n", "map"):
        if key not in obj:
            raise OutOfRange(f"serialized map {obj!r} has no {key!r} key")
    return PartialInjection(obj["n"], obj["map"])


def to_text(a: PartialInjection) -> str:
    xs = " ".join([str(x) for x, _ in a.pairs])
    ys = " ".join([str(y) for _, y in a.pairs])
    return f"({xs} / {ys})"
