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
arguments.  One has a side effect: ``compose`` stores ``dict(b.pairs)`` in
its right factor b's ``_lookup`` slot, unset until b is first a right
factor, so the k uses of b in a k*k table build the dict once.  The memo is
not one of the value's two fields, ``n`` and ``pairs``, so it changes no
equality, hash, repr or serialized form.  It is never mutated once stored,
and two threads racing to store it store equal dicts, so values are still
safe to share across threads.

Every value is validated when it is built, except by ``_trusted``, which
:func:`compose`, :func:`inverse` and ``isometry_families.enumerate_fast``
use for values that are canonical by construction.  Everything else,
:func:`from_json` included, builds through the validating constructor.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import MismatchedChain, NotFunctional, NotInjective, OutOfRange


class PartialInjection:
    """An injective map from a subset of {1..n} into {1..n}.

    Construction normalises the pair list (sorted by domain point) and
    rejects anything that is not a partial injection, so every value that
    exists is canonical.  Values are immutable: assigning or deleting an
    attribute raises :class:`AttributeError`, so copies and pickles are
    rebuilt through the constructor.

    >>> PartialInjection(3, [(3, 1), (2, 2)]).pairs
    ((2, 2), (3, 1))
    """

    # _lookup holds compose's memo (see the module docstring)
    __slots__ = ("n", "pairs", "_lookup")

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
        _set_n(self, n)
        _set_pairs(self, tuple(items))

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

    def __reduce__(self):
        return (PartialInjection, (self.n, self.pairs))

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


# slot setters: they skip the raising __setattr__ faster than object.__setattr__
_set_n = PartialInjection.n.__set__
_set_pairs = PartialInjection.pairs.__set__
_set_lookup = PartialInjection._lookup.__set__


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


def _trusted(n: int, pairs: tuple[tuple[int, int], ...]) -> PartialInjection:
    # Builds the value as PartialInjection.__init__ would, without its
    # validation.  Sound only where n is an int >= 0 and pairs is already
    # a canonical partial injection of the n-chain.  Its callers are
    # compose, inverse and enumerate_fast.  In compose, a.pairs is sorted
    # by distinct domain points and filtering keeps that order, and the
    # images lookup[y] are distinct points of 1..n because the y are
    # distinct and b is injective.  inverse sorts the transpose of a
    # validated map, whose images are distinct points of 1..n.  In
    # enumerate_fast the domain comes from combinations(range(1, n + 1), h),
    # so it is strictly increasing; a translation x + t with t in
    # 1 - lo..n - hi and a reflection c - x with c in hi + 1..n + lo keep
    # every image in 1..n, and both maps are injective.
    value = object.__new__(PartialInjection)
    _set_n(value, n)
    _set_pairs(value, pairs)
    return value


def compose(a: PartialInjection, b: PartialInjection) -> PartialInjection:
    """Left-to-right composite: x(ab) = (xa)b, defined where both steps are.

    The result is built without re-validation, as both factors were
    validated.  The first call with ``b`` as the right factor stores
    ``dict(b.pairs)`` on ``b``; later calls read it back.

    >>> a = PartialInjection(3, [(1, 1), (2, 2)])
    >>> b = PartialInjection(3, [(2, 2), (3, 1)])
    >>> compose(a, b).pairs
    ((2, 2),)
    """
    if a.n != b.n:
        raise MismatchedChain(f"cannot compose maps on chains of size {a.n} and {b.n}")
    try:
        lookup = b._lookup
    except AttributeError:
        lookup = dict(b.pairs)
        _set_lookup(b, lookup)
    return _trusted(a.n, tuple([(x, lookup[y]) for x, y in a.pairs if y in lookup]))


def inverse(a: PartialInjection) -> PartialInjection:
    """Transpose of ``a``; satisfies a * inverse(a) * a == a.

    Built without re-validation, as ``a`` was validated.

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
