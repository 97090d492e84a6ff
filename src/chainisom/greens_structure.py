"""Green's preorders and equivalences, structural predicates, and quotients.

Two independent routes to the Green's relations are kept side by side:

* the criterion route works directly on elements (equal domains for R,
  equal images for L, both for H, matching gap signatures for D);
* the oracle route works on a finished multiplication table using nothing
  but principal ideals, with an implicit external identity adjoined so the
  same code is correct on sub-tables and quotients that lack one.  One call
  returns all four partitions, so a table's associativity is checked once
  and its principal right and left sets are built once.

Both routes return a partition as a tuple of blocks of element indices.
The ``greens`` check and the test suite check that they are identical.

Tables are immutable after construction and every predicate here only
reads them, so concurrent use is safe.  Witness searches scan elements in
index order, so a reported violation is always the lexicographically first
one and reruns are reproducible.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations, islice

from .chain_maps import compose, gap_signature, to_json
from .errors import (
    DomainError,
    LimitExceeded,
    MismatchedChain,
    NoZero,
    NotAssociative,
    NotClosed,
)
from .isometry_families import Family, enumerate_fast

# Tables are dense k*k index matrices; beyond ~2000 elements they stop
# being "desk scale" (the 9-chain already has 2950 isometries).
TABLE_ELEMENT_CAP = 2000

RELATIONS = ("R", "L", "H", "D")


class _SentinelElement:
    """Opaque table label for the zero adjoined to a Rees quotient."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __repr__(self):
        return f"<{self.label}>"


ADJOINED_ZERO = _SentinelElement("0")


def element_json(el) -> dict:
    if isinstance(el, _SentinelElement):
        return {"label": el.label}
    return to_json(el)


# ---------------------------------------------------------------------------
# Partitions

def _partition_from_keys(keys) -> tuple[tuple[int, ...], ...]:
    """Group indices by equal key.  Blocks are sorted and listed by their
    smallest member, so two partitions are equal exactly when the tuples are."""
    blocks = defaultdict(list)
    for i, key in enumerate(keys):
        blocks[key].append(i)
    return tuple(
        tuple(block) for block in sorted(blocks.values(), key=lambda b: b[0])
    )


def greens_classes_criterion(
    elements, family: Family, relation: str
) -> tuple[tuple[int, ...], ...]:
    """Partition by one of R, L, H, D from the direct structural criteria
    (no table needed)."""
    if not isinstance(family, Family):
        raise DomainError(f"family must be a Family, got {family!r}")
    rel = str(relation).upper()
    if rel not in RELATIONS:
        raise DomainError(f"unknown Green's relation {relation!r}")
    elements = list(elements)
    if any(el.n != elements[0].n for el in elements):
        raise MismatchedChain("all elements must live on the same chain")
    if rel == "R":
        keys = [el.domain for el in elements]
    elif rel == "L":
        keys = [el.image for el in elements]
    elif rel == "H":
        keys = [(el.domain, el.image) for el in elements]
    else:
        keys = []
        for el in elements:
            sig = gap_signature(el.domain)
            if family is Family.DP:
                sig = min(sig, sig[::-1])
            keys.append((el.height, sig))
    return _partition_from_keys(keys)


# ---------------------------------------------------------------------------
# Multiplication tables

class SemigroupTable:
    """An indexed element list with a dense multiplication table.

    ``zero_index`` marks the absorbing element when there is one (the empty
    map, or an adjoined quotient zero).
    """

    def __init__(self, elements, mult, zero_index=None):
        self.elements = tuple(elements)
        self.mult = tuple(tuple(row) for row in mult)
        self.zero_index = zero_index
        k = len(self.elements)
        if len(self.mult) != k or any(len(row) != k for row in self.mult):
            raise DomainError("multiplication table must be square over the elements")
        if zero_index is not None:
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
        for g in self.generators():
            row_g = mult[g]
            for row_x in mult:
                if mult[row_x[g]] != tuple(map(row_x.__getitem__, row_g)):
                    return False
        return True

    def generators(self) -> tuple[int, ...]:
        """A generating set of indices, found greedily from the table alone.

        Indices are scanned from the last down; each one not yet reached
        becomes a generator, and the reached set is grown by multiplying
        reached elements by generators until it stops growing.  Right
        multiplication alone suffices, since every product of generators
        is a generator followed by further generators one at a time.
        """
        mult = self.mult
        reached = [False] * len(mult)
        reached_list: list[int] = []
        gens: list[int] = []
        for g in range(len(mult) - 1, -1, -1):
            if reached[g]:
                continue
            gens.append(g)
            # products ending in g of everything reached so far, then g itself
            frontier = [g] + [mult[r][g] for r in reached_list]
            while frontier:
                x = frontier.pop()
                if reached[x]:
                    continue
                reached[x] = True
                reached_list.append(x)
                row = mult[x]
                frontier.extend(row[h] for h in gens if not reached[row[h]])
        return tuple(gens)


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
    k = len(table)
    return [
        frozenset(table.mult[s][a] for s in range(k)) | {a} for a in range(k)
    ]


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


@dataclass(frozen=True)
class Witness:
    """A minimal element tuple certifying a structural failure.

    ``elements`` holds table indices; :func:`replay_witness` re-runs the
    defining products and confirms the violation.
    """

    kind: str
    elements: tuple[int, ...]


def _require_zero(table: SemigroupTable) -> int:
    if table.zero_index is None:
        raise NoZero("this check needs a marked zero element")
    return table.zero_index


def is_zero_e_unitary(table: SemigroupTable):
    """Nonzero idempotent times s landing on a nonzero idempotent forces s
    idempotent.  Returns (True, None) or (False, first witness (e, s))."""
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
                return False, Witness("not_0_E_unitary", (e, s))
    return True, None


def is_categorical(table: SemigroupTable):
    """abc = 0 implies ab = 0 or bc = 0.  Returns (True, None) or
    (False, first witness (a, b, c))."""
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
                    return False, Witness("not_categorical", (a, b, c))
    return True, None


def replay_witness(table: SemigroupTable, witness: Witness) -> bool:
    """Re-run the witness products; True when the violation reproduces."""
    z = _require_zero(table)
    mult = table.mult
    if witness.kind == "not_0_E_unitary":
        e, s = witness.elements
        idem = idempotents(table)
        es = mult[e][s]
        return e in idem and e != z and es in idem and es != z and s not in idem
    if witness.kind == "not_categorical":
        a, b, c = witness.elements
        ab = mult[a][b]
        return ab != z and mult[b][c] != z and mult[ab][c] == z
    raise DomainError(f"unknown witness kind {witness.kind!r}")


# ---------------------------------------------------------------------------
# Ideals and Rees quotients

def build_rees_quotient(n: int, p: int) -> SemigroupTable:
    """The height-p layer of the order-preserving family with a zero glued on.

    Nonzero elements are the height-p members; a product stands when it
    keeps height p and collapses to the adjoined zero otherwise (all lower
    heights form an ideal, so this is well defined).  The zero has index 0.
    """
    if type(n) is not int or type(p) is not int or not 1 <= p <= n:
        raise DomainError(f"need int 1 <= p <= n, got p={p!r}, n={n!r}")
    layer = list(islice(enumerate_fast(n, Family.ODP, height=p), TABLE_ELEMENT_CAP))
    if len(layer) + 1 > TABLE_ELEMENT_CAP:
        raise LimitExceeded(
            f"quotient over {TABLE_ELEMENT_CAP + 1} or more elements exceeds "
            f"the cap {TABLE_ELEMENT_CAP}"
        )
    # The family is closed under products, so every height-p product is in
    # the layer; a lower one misses the index and collapses to the zero.
    find = {el.pairs: i + 1 for i, el in enumerate(layer)}.get
    mult = [[0] * (len(layer) + 1)]
    for a in layer:
        mult.append([0] + [find(compose(a, b).pairs, 0) for b in layer])
    return SemigroupTable([ADJOINED_ZERO] + layer, mult, zero_index=0)


# ---------------------------------------------------------------------------
# Exports

def witness_to_json(table: SemigroupTable, witness: Witness) -> dict:
    return {
        "kind": witness.kind,
        "elements": [
            {"index": i, **element_json(table.elements[i])}
            for i in witness.elements
        ],
    }
