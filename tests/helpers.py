"""Shared cached fixtures (enumerated families and their tables), oracles,
and the code walker behind the tests that check what reaches what."""

import inspect
import types
from collections.abc import Iterable
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
    greens_classes_criterion,
    inverse,
    is_member,
)
from chainisom.checks import Check


def partial_identity(n: int, points: Iterable[int]) -> PartialInjection:
    """The restriction of the identity map to ``points``; the idempotents
    are exactly these maps."""
    return PartialInjection(n, tuple((x, x) for x in points))


def is_order_reversing(a: PartialInjection) -> bool:
    """True when x <= y implies xa >= ya on the domain (vacuous for height <= 1)."""
    return all(y1 > y2 for (_, y1), (_, y2) in zip(a.pairs, a.pairs[1:]))


def gap_signature(points: Iterable[int]) -> tuple[int, ...]:
    """Successive differences of a sorted, duplicate-free point sequence.

    Two subsets of the chain have the same signature exactly when one is a
    translate of the other; reversing the signature corresponds to
    reflecting the set.  This is the D-class key of
    :func:`criterion_partition_reference`.
    """
    pts = tuple(points)
    if any(p2 <= p1 for p1, p2 in zip(pts, pts[1:])):
        raise ValueError("points must be strictly increasing")
    return tuple(p2 - p1 for p1, p2 in zip(pts, pts[1:]))


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


def phi_reference(a: PartialInjection, n: int) -> PartialInjection:
    """The paper's three-case phi on a nonempty order-preserving member of
    the (n-1)-chain, with s and w its largest domain and image points: it
    adjoins (n, n) when s = w and (n, n - s + w) when s > w, and when s < w
    it inverts, applies the s > w case and inverts back.  The reference for
    ``closed_forms.phi_bijection``, which adjoins the new pair in one step."""
    s, w = a.pairs[-1]
    if s == w:
        return PartialInjection(n, a.pairs + ((n, n),))
    if s > w:
        return PartialInjection(n, a.pairs + ((n, n - s + w),))
    return inverse(phi_reference(inverse(a), n))


def criterion_partition_reference(elements, family, relation):
    """Green's classes by the structural criteria, read off the element
    values: equal domains for R, equal images for L, both for H, and for D
    equal heights and gap signatures (up to reversal for dp).  Every key is
    listed before grouping.  This is the reference for
    ``greens_classes_criterion``, which reads the classes off the
    enumeration walk and builds no value; compare through
    :func:`criterion_blocks`."""

    def d_key(a):
        sig = gap_signature(a.domain)
        if family is Family.DP:
            sig = min(sig, sig[::-1])
        return a.height, sig

    read = {
        "R": lambda a: a.domain,
        "L": lambda a: a.image,
        "H": lambda a: (a.domain, a.image),
        "D": d_key,
    }[relation]
    keys = [read(a) for a in elements]
    blocks = {}
    for i, key in enumerate(keys):
        blocks.setdefault(key, []).append(i)
    # blocks are disjoint, so sorting them sorts them by smallest member
    return tuple(sorted(tuple(block) for block in blocks.values()))


def criterion_blocks(n, family, relation, route=greens_classes_criterion):
    """``route``'s class count, and its classes as blocks of indices into
    ``elements(n, family)``, kept in the order the route lists them."""
    index = {a.pairs: i for i, a in enumerate(elements(n, family))}
    count, classes = route(n, family, relation)
    blocks = tuple(
        tuple(index[tuple(zip(dom, img))] for dom, img in block) for block in classes
    )
    return count, blocks


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


# The package's definitions that no caller inside it reaches and that users
# are told to use all the same: README has them write a new check as a
# ``Check`` record.
PUBLIC = (Check,)


def walk_code(*roots):
    """The functions and classes that ``roots`` reach, and the names their
    code refers to, globals and attributes alike.

    A function's code reaches each global it names: a function or class
    bound to the name, one held in a tuple or dict so bound, and one held
    in a tuple that such a dict holds (``cli.COMMANDS`` and
    ``checks.CHECKS``).  A reached function is followed in turn, and so is
    the code of a function defined inside it; a reached class is followed
    into its methods and properties.  Only the definitions of the package
    and of the roots' own modules are followed."""
    modules = {"chainisom", *(root.__module__ for root in roots)}
    found, names, todo = set(), set(), list(roots)
    while todo:
        obj = todo.pop()
        if obj in found or obj.__module__.partition(".")[0] not in modules:
            continue
        found.add(obj)
        if inspect.isclass(obj):
            for attr in vars(obj).values():
                if isinstance(attr, property):
                    todo += [f for f in (attr.fget, attr.fset, attr.fdel) if f]
                elif inspect.isfunction(attr):
                    todo.append(attr)
            continue
        codes = [obj.__code__]
        while codes:
            code = codes.pop()
            names.update(code.co_names)
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            for name in code.co_names:
                target = obj.__globals__.get(name)
                for value in target.values() if isinstance(target, dict) else [target]:
                    for v in value if isinstance(value, tuple) else [value]:
                        if inspect.isfunction(v) or inspect.isclass(v):
                            todo.append(v)
    return found, names
