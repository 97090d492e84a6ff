"""Green's preorders and equivalences, structural predicates, and quotients.

Two independent routes to the Green's relations are kept side by side:

* the criterion route reads the classes off the enumeration walk of
  ``isometry_families`` (equal domains for R, equal image sets for L, both
  for H, matching gap signatures for D) and builds no element value.
  :func:`greens_classes_criterion` returns the class count, worked out by
  arithmetic, and a generator over the classes, one at a time, each a list
  of ``(domain, image)`` pairs;
* the oracle route works on a finished multiplication table using nothing
  but principal ideals, with an implicit external identity adjoined so the
  same code is correct on sub-tables and quotients that lack one.  One call
  returns all four partitions, as tuples of blocks of element indices, so
  a table's associativity is checked once and its principal right and left
  sets are built once.

Both list the classes by their first members in enumeration order, and
the members of a class in that order too.  The ``greens`` check maps each
criterion member to its index in the table's elements and requires the
blocks, in the order given, and the count to equal the oracle's; so does
the test suite.  The two routes share no code.

Every table built here holds :class:`PartialInjection` values only, and
its zero is the empty map; in a Rees quotient that stands for the ideal
of lower heights.

Tables are immutable after construction and every predicate here only
reads them, so concurrent use is safe.  Witness searches scan elements in
index order, so a reported violation is always the lexicographically first
one and reruns are reproducible.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator
from itertools import chain, combinations, islice
from operator import itemgetter

from .chain_maps import PartialInjection, compose, to_json
from .errors import (
    DomainError,
    LimitExceeded,
    MismatchedChain,
    NoZero,
    NotAssociative,
    NotClosed,
)
from .isometry_families import (
    DEFAULT_ENUMERATION_CAP,
    Family,
    _check_request,
    _images,
    _walk,
    enumerate_fast,
)

# Tables are dense k*k index matrices; beyond ~2000 elements they stop
# being "desk scale" (the 9-chain already has 2950 isometries).
TABLE_ELEMENT_CAP = 2000

RELATIONS = ("R", "L", "H", "D")


# ---------------------------------------------------------------------------
# Partitions

def _partition_from_keys(keys) -> tuple[tuple[int, ...], ...]:
    """Group indices by equal key, in insertion order.  Indices arrive
    increasing, so blocks are sorted and listed by their smallest members,
    and two partitions are equal exactly when the tuples are."""
    blocks = defaultdict(list)
    for i, key in enumerate(keys):
        blocks[key].append(i)
    return tuple(tuple(block) for block in blocks.values())


def greens_classes_criterion(
    n: int, family: Family, relation: str, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[int, Iterator[list[tuple[tuple[int, ...], tuple[int, ...]]]]]:
    """The R-, L-, H- or D-classes of the family on the n-chain, read off
    the enumeration walk: no element value is built.

    Returns ``(count, classes)``.  ``count`` is the number of classes,
    worked out by arithmetic during the call.  ``classes`` is a generator
    over the classes, listed by their first members in the order of
    :func:`enumerate_fast`; each class is a list of ``(domain, image)``
    pairs, the map ``zip(domain, image)``, in that order too, and only one
    class is held at a time.  The arguments are checked as by
    :func:`enumerate_fast`, and ``relation`` must be one of R, L, H, D in
    either case, before anything is walked.

    >>> count, classes = greens_classes_criterion(2, Family.DP, "H")
    >>> count, list(classes)[-1]
    (6, [((1, 2), (1, 2)), ((1, 2), (2, 1))])
    """
    _check_request(n, family, None, cap)
    rel = str(relation).upper()
    if rel not in RELATIONS:
        raise DomainError(f"unknown Green's relation {relation!r}")
    if rel in ("R", "L"):
        # one class per domain subset (every subset carries the translation
        # by 0), and one per image set, that is per subset again
        count = 1 << n
    elif rel == "H":
        count = 1 + sum(
            _h_class_count(n, family, dom)
            for h in range(1, n + 1)
            for dom in combinations(range(1, n + 1), h)
        )
    else:
        count = 1 + sum(1 for _ in _openers(n, family))
    return count, _CLASSES[rel](n, family)


# The criteria, read off the walk.  R: the maps on one domain.  H: the maps
# on one domain with one image set; only on a dp domain that is its own
# mirror does that join two maps, the reflection x -> c - x and the
# translation by c - lo - hi.  L: the maps onto one image set B, the
# inverses of the maps on B.  D: the maps on every domain with one gap
# signature, or for dp with it or its reverse.  An L- or D-class first
# occurs at the least domain that is left-aligned (holds the point 1) and
# maps onto its image sets, or carries its signature: see _openers.

def _mirror(dom):
    # dom reflected onto its own span lo..hi
    total = dom[0] + dom[-1]
    return tuple([total - x for x in reversed(dom)])


def _merges(family, dom):
    return family is Family.DP and len(dom) >= 2 and _mirror(dom) == dom


def _h_class_count(n, family, dom):
    # n - (hi - lo) translations, and for dp from two points up as many
    # reflections, each joining a translation when dom is its own mirror
    shifts = n - dom[-1] + dom[0]
    if family is Family.DP and len(dom) >= 2 and not _merges(family, dom):
        return 2 * shifts
    return shifts


def _openers(n, family):
    """The left-aligned domains, in walk order, at which the L- and
    D-classes of the nonempty maps open.  A domain mapping onto a set B, or
    sharing a signature, is a translate of one left-aligned domain E, or
    for dp also of its mirror, and those two come first in the walk; so for
    dp the classes open at the lesser of E and its mirror."""
    for h in range(1, n + 1):
        for rest in combinations(range(2, n + 1), h - 1):
            dom = (1, *rest)
            if family is Family.ODP or dom <= _mirror(dom):
                yield dom


def _r_classes(n, family):
    for dom, images in _walk(n, family, None):
        yield [(dom, img) for img in images]


def _h_classes(n, family):
    for dom, images in _walk(n, family, None):
        if _merges(family, dom):
            # the translation onto a set and the reflection onto it share
            # their least image point
            joined = {}
            for img in images:
                joined.setdefault(min(img), []).append((dom, img))
            yield from joined.values()
        else:
            for img in images:
                yield [(dom, img)]


def _l_classes(n, family):
    yield [((), ())]
    for dom in _openers(n, family):
        # the image sets of the maps on dom, in order of first occurrence
        sets = dict.fromkeys(
            img if img[0] <= img[-1] else img[::-1] for img in _images(n, family, dom)
        )
        for image in sets:
            # the inverse of the map zip(image, b) is zip(b, image), listed
            # by increasing domain point; the maps have one height, so the
            # sorted pairs are in walk order
            yield sorted(
                (b, image) if b[0] <= b[-1] else (b[::-1], image[::-1])
                for b in _images(n, family, image)
            )


def _d_classes(n, family):
    yield [((), ())]
    for dom in _openers(n, family):
        mirror = _mirror(dom)
        starts = (dom,) if family is Family.ODP or mirror == dom else (dom, mirror)
        block = []
        # the translates of dom (and of its mirror) by t, in walk order
        for t in range(n - dom[-1] + 1):
            for start in starts:
                shifted = tuple([x + t for x in start])
                block += [(shifted, img) for img in _images(n, family, shifted)]
        yield block


_CLASSES = {"R": _r_classes, "L": _l_classes, "H": _h_classes, "D": _d_classes}


# ---------------------------------------------------------------------------
# Multiplication tables

class SemigroupTable:
    """An indexed element list with a dense multiplication table.

    ``zero_index`` marks the absorbing element when there is one: an int
    index, checked to be in range and absorbing.
    """

    def __init__(self, elements, mult, zero_index=None):
        self.elements = tuple(elements)
        self.mult = tuple(tuple(row) for row in mult)
        self.zero_index = zero_index
        k = len(self.elements)
        if len(self.mult) != k or any(len(row) != k for row in self.mult):
            raise DomainError("multiplication table must be square over the elements")
        # every entry must index an element: the predicates use entries as
        # row indices, where -1 would silently read the last row, and 1.0
        # cannot index a row while True would pass for 1
        if k and not (set(map(type, chain.from_iterable(self.mult))) == {int}
                      and min(map(min, self.mult)) >= 0
                      and max(map(max, self.mult)) < k):
            raise DomainError(f"multiplication table entries must be ints in 0..{k - 1}")
        if zero_index is not None:
            # exact type: 1.0 cannot index a row, and True would pass for 1
            if type(zero_index) is not int or not 0 <= zero_index < k:
                raise DomainError(
                    f"zero_index must be an int in 0..{k - 1}, got {zero_index!r}"
                )
            z = zero_index
            if any(
                self.mult[z][i] != z or self.mult[i][z] != z for i in range(k)
            ):
                raise DomainError("marked zero is not absorbing")

    def __len__(self) -> int:
        return len(self.elements)

    def is_associative(self) -> bool:
        """Light's associativity test, in |A|*k^2 steps.

        Checks (x g) y = x (g y) for every g in the generating set A of
        :meth:`generators` and all x, y.  The elements a satisfying
        (x a) y = x (a y) for all x, y are closed under products, so once
        they include a generating set they are the whole table: the test
        is exact on any magma, corrupted tables included (Clifford and
        Preston, *The Algebraic Theory of Semigroups* I, section 1.2).
        """
        mult = self.mult
        if len(mult) == 1:
            # entries lie in 0..k-1, so this is the one table on one element,
            # which is associative; itemgetter of one index below would
            # return a bare entry, not a row
            return True
        for g in self.generators():
            # mult[row_x[g]] lists (x g) y and times_g(row_x) lists x (g y),
            # for y = 0..k-1
            times_g = itemgetter(*mult[g])
            for row_x in mult:
                if mult[row_x[g]] != times_g(row_x):
                    return False
        return True

    def generators(self) -> tuple[int, ...]:
        """A generating set of indices, found greedily from the table alone
        (see :func:`_greedy_generators`)."""
        mult = self.mult
        return tuple(_greedy_generators(len(mult), lambda x, g: mult[x][g]))


def _greedy_generators(k: int, product) -> list[int]:
    """A generating set of 0..k-1 under ``product(x, g)``, an index.

    Indices are scanned from the last down; each one not yet reached
    becomes a generator, and the reached set is grown by multiplying
    reached elements by generators until it stops growing.  Right
    multiplication alone suffices, since every product of generators is a
    generator followed by further generators one at a time.  Every index
    is reached, and ``product`` is called exactly once for each pair of an
    index and a generator, k * |A| calls in all.
    """
    reached = [False] * k
    reached_list: list[int] = []
    gens: list[int] = []
    for g in range(k - 1, -1, -1):
        if reached[g]:
            continue
        gens.append(g)
        # products ending in g of everything reached so far, then g itself
        frontier = [g] + [product(r, g) for r in reached_list]
        while frontier:
            x = frontier.pop()
            if reached[x]:
                continue
            reached[x] = True
            reached_list.append(x)
            for h in gens:
                xh = product(x, h)
                if not reached[xh]:
                    frontier.append(xh)
    return gens


def build_table(elements) -> SemigroupTable:
    """Multiply out a composition-closed element set.

    Raises :class:`NotClosed` (carrying the offending factor pair) when a
    product escapes the set, and :class:`LimitExceeded` beyond desk scale.
    ``elements`` may be a generator: at most ``TABLE_ELEMENT_CAP + 1`` of
    them are read before a set over the cap is refused.
    """
    elements = list(islice(elements, TABLE_ELEMENT_CAP + 1))
    if len(elements) > TABLE_ELEMENT_CAP:
        raise LimitExceeded(
            f"table over {TABLE_ELEMENT_CAP + 1} or more elements exceeds "
            f"the cap {TABLE_ELEMENT_CAP}"
        )
    if elements and any(el.n != elements[0].n for el in elements):
        raise MismatchedChain("all elements must live on the same chain")
    # One chain throughout, so the pair tuple alone identifies an element.
    index = {el.pairs: i for i, el in enumerate(elements)}
    if len(index) != len(elements):
        raise DomainError("duplicate elements")
    find = index.get
    mult = []
    for a in elements:
        row = [find(compose(a, b).pairs) for b in elements]
        if None in row:
            b = elements[row.index(None)]
            raise NotClosed(
                f"product {a} * {b} = {compose(a, b)} is outside the element set",
                pair=(a, b),
            )
        mult.append(row)
    return SemigroupTable(elements, mult, find(()))


def _principal_right_sets(table: SemigroupTable):
    # aS^1 = {a} | aS; including a itself stands in for the external identity.
    return [frozenset(row) | {a} for a, row in enumerate(table.mult)]


def _principal_left_sets(table: SemigroupTable):
    # S^1a = {a} | Sa, read off column a
    return [frozenset(col) | {a} for a, col in enumerate(zip(*table.mult))]


def greens_classes_oracle(
    table: SemigroupTable,
) -> dict[str, tuple[tuple[int, ...], ...]]:
    """Partition by each of R, L, H, D, keyed by relation, from principal
    ideals of the multiplication table alone."""
    if not table.is_associative():
        raise NotAssociative("oracle requires an associative table")
    right = _principal_right_sets(table)
    left = _principal_left_sets(table)
    # D = R o L in every semigroup (the guard above checked that this table
    # is one), so the L-classes an element's R-class meets are exactly the
    # L-classes of its D-class: that set is a key for D.
    met = defaultdict(set)  # R-class -> the L-classes it meets
    for r, l in zip(right, left):
        met[r].add(l)
    d_key = {r: frozenset(ls) for r, ls in met.items()}
    return {
        "R": _partition_from_keys(right),
        "L": _partition_from_keys(left),
        "H": _partition_from_keys(zip(right, left)),
        "D": _partition_from_keys(d_key[r] for r in right),
    }


# ---------------------------------------------------------------------------
# Structural predicates

def idempotents(table: SemigroupTable) -> frozenset[int]:
    return frozenset(i for i in range(len(table)) if table.mult[i][i] == i)


def is_inverse(table: SemigroupTable) -> bool:
    """Every element regular, and idempotents commute."""
    mult = table.mult
    k = len(table)
    for a in range(k):
        row_a = mult[a]
        if not any(mult[row_a[x]][a] == a for x in range(k)):
            return False
    idem = sorted(idempotents(table))
    return all(
        mult[e][f] == mult[f][e] for e, f in combinations(idem, 2)
    )


def _require_zero(table: SemigroupTable) -> int:
    if table.zero_index is None:
        raise NoZero("this check needs a marked zero element")
    return table.zero_index


def _indexed_member(elements, i) -> dict:
    """Element i as every witness writes a table member: its index and its
    :func:`to_json` form."""
    return {"index": i, **to_json(elements[i])}


def _witness(table: SemigroupTable, kind: str, indices) -> dict:
    return {
        "kind": kind,
        "elements": [_indexed_member(table.elements, i) for i in indices],
    }


def is_zero_e_unitary(table: SemigroupTable):
    """Nonzero idempotent times s landing on a nonzero idempotent forces s
    idempotent.  Returns (True, None) or (False, the first witness (e, s)),
    written ``{"kind": "not_0_E_unitary", "elements": [...]}`` with each
    member as ``{"index", "n", "map"}``."""
    z = _require_zero(table)
    mult = table.mult
    idem = idempotents(table)
    for e in sorted(idem):
        if e == z:
            continue
        row = mult[e]
        for s in range(len(table)):
            es = row[s]
            if es != z and es in idem and s not in idem:
                return False, _witness(table, "not_0_E_unitary", (e, s))
    return True, None


def is_categorical(table: SemigroupTable):
    """abc = 0 implies ab = 0 or bc = 0.  Returns (True, None) or
    (False, the first witness (a, b, c)), written as by
    :func:`is_zero_e_unitary` with the kind ``not_categorical``."""
    z = _require_zero(table)
    mult = table.mult
    k = len(table)
    for a in range(k):
        row_a = mult[a]
        for b in range(k):
            ab = row_a[b]
            if ab == z:
                continue
            row_ab = mult[ab]
            row_b = mult[b]
            for c in range(k):
                if row_ab[c] == z and row_b[c] != z:
                    return False, _witness(table, "not_categorical", (a, b, c))
    return True, None


_WITNESS_ARITY = {"not_0_E_unitary": 2, "not_categorical": 3}


def _witness_indices(table: SemigroupTable, witness) -> list[int]:
    """The indices ``witness`` names, once it is exactly what the predicates
    write for them on ``table``; :class:`DomainError` otherwise, so that a
    witness written for another table is refused."""
    k = len(table)
    fields = witness if isinstance(witness, dict) else {}
    kind, members = fields.get("kind"), fields.get("elements")
    # each test guards the next: the kind's type before the lookup, and the
    # count and the index types before the witness is written again
    if (type(kind) is not str or kind not in _WITNESS_ARITY
            or type(members) is not list or len(members) != _WITNESS_ARITY[kind]
            or not all(isinstance(m, dict) and type(m.get("index")) is int
                       and 0 <= m["index"] < k for m in members)
            or witness != _witness(table, kind, [m["index"] for m in members])):
        raise DomainError(f"not a witness for a table on 0..{k - 1}: {witness!r}")
    return [m["index"] for m in members]


def replay_witness(table: SemigroupTable, witness: dict) -> bool:
    """Re-run the products of a witness, as the predicates return it and
    ``verify`` and ``structure`` print it; True when the violation
    reproduces.

    >>> tab = build_table(enumerate_fast(3, Family.DP))
    >>> holds, witness = is_zero_e_unitary(tab)
    >>> holds, [member["map"] for member in witness["elements"]]
    (False, [[[2, 2]], [[1, 3], [2, 2]]])
    >>> replay_witness(tab, witness)
    True
    """
    z = _require_zero(table)
    els = _witness_indices(table, witness)
    mult = table.mult
    if witness["kind"] == "not_0_E_unitary":
        e, s = els
        idem = idempotents(table)
        es = mult[e][s]
        return e in idem and e != z and es in idem and es != z and s not in idem
    a, b, c = els
    ab = mult[a][b]
    return ab != z and mult[b][c] != z and mult[ab][c] == z


# ---------------------------------------------------------------------------
# Ideals and Rees quotients

def build_rees_quotient(n: int, p: int) -> SemigroupTable:
    """Q(n, p), the height-p layer of the order-preserving family over
    the ideal of lower heights.

    The zero, at index 0, is the empty map, standing for that ideal.  A
    product of two height-p members stands when it keeps height p and is
    the zero otherwise.  Only the products that keep height p, those with
    im(a) = dom(b), are computed.
    """
    if type(n) is not int or type(p) is not int or not 1 <= p <= n:
        raise DomainError(f"need int 1 <= p <= n, got p={p!r}, n={n!r}")
    layer = list(islice(enumerate_fast(n, Family.ODP, height=p), TABLE_ELEMENT_CAP))
    if len(layer) + 1 > TABLE_ELEMENT_CAP:
        raise LimitExceeded(
            f"quotient over {TABLE_ELEMENT_CAP + 1} or more elements exceeds "
            f"the cap {TABLE_ELEMENT_CAP}"
        )
    # a is injective, so dom(ab) = {x in dom(a) : xa in dom(b)} has
    # |im(a) & dom(b)| points.  Both sets have p points, so ab keeps height
    # p exactly when im(a) = dom(b); every other cell is the zero.  The
    # family is closed under products, so each height-p product is in the
    # layer and the index lookup cannot miss.
    index = {el.pairs: i for i, el in enumerate(layer, start=1)}
    by_domain = defaultdict(list)
    for j, b in enumerate(layer, start=1):
        by_domain[b.domain].append((j, b))
    mult = [[0] * (len(layer) + 1)]
    for a in layer:
        row = [0] * (len(layer) + 1)
        for j, b in by_domain[a.image]:
            row[j] = index[compose(a, b).pairs]
        mult.append(row)
    return SemigroupTable([PartialInjection(n)] + layer, mult, zero_index=0)
