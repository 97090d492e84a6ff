"""Named verification checks, one per claim about the two families.

Each check is a generator ``check(lo, hi)`` over the chain sizes lo..hi
that yields one ``(params, ok, witness)`` triple per instance.  ``witness``
is ``None`` or a JSON-ready certificate; some checks attach one to passing
instances too, where the expected outcome is itself a violation (dp is not
0-E-unitary, odp is not categorical).  Adding a check means writing one
generator and listing it in :data:`CHECKS`, and in :data:`SMALLEST_N` when
its first instance lies above n = 0; :func:`run_check` starts the range
there.

Layer functions are looked up by module-global name when a check runs, so
a tool that wraps them by patching module attributes sees every call; the
one exception is the closed forms, which are read from the
``CLOSED_FORMS`` map.
"""

from __future__ import annotations

from itertools import zip_longest

from .chain_maps import compose, inverse, is_order_preserving, is_order_reversing, to_json
from .closed_forms import (
    CLOSED_FORMS,
    _recurrence_terms,
    _sum_identity_sides,
    phi_bijection_report,
    recurrence_check,
    verify_sum_identity,
)
from .errors import ChainIsomError, DomainError
from .greens_structure import (
    RELATIONS,
    _greedy_generators,
    build_rees_quotient,
    build_table,
    greens_classes_criterion,
    greens_classes_oracle,
    is_categorical,
    is_inverse,
    is_zero_e_unitary,
    replay_witness,
    witness_to_json,
)
from .isometry_families import (
    Family,
    count_by,
    enumerate_fast,
    enumerate_oracle,
    is_member,
)

FAMILIES = (Family.DP, Family.ODP)


def _first_failures(families, lo, hi, ok):
    """Scan each family element by element for the first one failing ``ok``."""
    for n in range(lo, hi + 1):
        for fam in families:
            bad = next((a for a in enumerate_fast(n, fam) if not ok(a)), None)
            witness = None if bad is None else {"element": to_json(bad)}
            yield {"n": n, "family": fam.value}, bad is None, witness


class _ProductOutside(Exception):
    """Raised out of the generator search by the first failing product."""


def _first_product_outside(elements, fam):
    """The first (x, g) in the search of :func:`_greedy_generators` whose
    product is not in ``elements`` or not a member of ``fam``, or ``None``
    when every product is in both.

    The search composes each x in S = ``elements`` with each g in its
    generating set A once, and that covers all of S * S.  Every element of
    S is reached as a generator or as a product x * g, so each is a word
    in A.  If S * A lies in S, then s * t lies in S for every t = g1 ... gm,
    by induction on m: s * t = (s * g1 ... g(m-1)) * gm, the bracket is in
    S, and so s * t is in S * A.  The same step shows S * S = S * A, so the
    distinct products given to ``is_member`` are exactly those of all k^2
    pairs.  A product that is a member but is not in S fails here, where an
    all-pairs membership scan would pass it.
    """
    find = {a.pairs: i for i, a in enumerate(elements)}.get
    # is_member reads only a value's pairs (n and fam are fixed here), so
    # one verdict per distinct product serves every pair that gives it
    member = [None] * len(elements)

    def product(x, g):
        c = compose(elements[x], elements[g])
        i = find(c.pairs)
        if i is not None and member[i] is None:
            member[i] = is_member(c, fam)
        if i is None or not member[i]:
            raise _ProductOutside(elements[x], elements[g])
        return i

    try:
        _greedy_generators(len(elements), product)
    except _ProductOutside as bad:
        return bad.args
    return None


def closure(lo, hi):
    for n in range(lo, hi + 1):
        for fam in FAMILIES:
            bad = _first_product_outside(list(enumerate_fast(n, fam)), fam)
            witness = (
                None if bad is None else {"a": to_json(bad[0]), "b": to_json(bad[1])}
            )
            yield {"n": n, "family": fam.value}, bad is None, witness


def fix_trichotomy(lo, hi):
    def ok(a):
        return sum(1 for x, y in a.pairs if x == y) in (0, 1, a.height)

    return _first_failures((Family.DP,), lo, hi, ok)


def dichotomy(lo, hi):
    def ok(a):
        return is_order_preserving(a) or is_order_reversing(a)

    return _first_failures((Family.DP,), lo, hi, ok)


def _first_difference(fast, oracle):
    """The first index where two element lists differ, with each side's
    element (``None`` where that list has ended); ``None`` when equal."""
    for i, (a, b) in enumerate(zip_longest(fast, oracle)):
        if a != b:
            return {
                "index": i,
                "fast": None if a is None else to_json(a),
                "oracle": None if b is None else to_json(b),
            }
    return None


def oracle_equivalence(lo, hi):
    for n in range(lo, hi + 1):
        for fam in FAMILIES:
            witness = _first_difference(
                list(enumerate_fast(n, fam)), list(enumerate_oracle(n, fam))
            )
            yield {"n": n, "family": fam.value}, witness is None, witness


def formulas(lo, hi):
    for n in range(lo, hi + 1):
        for fam in FAMILIES:
            for stat, closed in CLOSED_FORMS.items():
                empirical = count_by(stat, n, fam)
                formula = [closed(fam, n, k) for k in range(n + 1)]
                ok = empirical == formula
                witness = None if ok else {"empirical": empirical, "formula": formula}
                yield {"n": n, "family": fam.value, "statistic": stat}, ok, witness


def recurrence(lo, hi):
    for n in range(lo, hi + 1):
        for fam in FAMILIES:
            bad = next(
                (p for p in range(3, n + 1) if not recurrence_check(n, p, fam)), None
            )
            witness = None
            if bad is not None:
                whole, left, right = _recurrence_terms(n, bad, fam)
                witness = {
                    "n": n, "p": bad,
                    "F(n;p)": whole, "F(n-1;p-1)": left, "F(n-1;p)": right,
                }
            yield {"n": n, "family": fam.value}, bad is None, witness


def sum_identity(lo, hi):
    for n in range(lo, hi + 1):
        ok = verify_sum_identity(n)
        witness = None
        if not ok:
            lhs, rhs = _sum_identity_sides(n)
            witness = {"n": n, "lhs": lhs, "rhs": rhs}
        yield {"n": n}, ok, witness


def phi_bijection(lo, hi):
    for n in range(lo, hi + 1):
        for p in range(3, n + 1):
            report = phi_bijection_report(n, p)
            ok = all(report.values())
            yield {"n": n, "p": p}, ok, None if ok else report


def _first_split_pair(elements, criterion, oracle):
    """The first index pair i < j that one of two partitions of the
    elements puts in one block and the other splits, with both elements and
    the route that joins them; ``None`` when no pair is split."""
    block_c, block_o = (
        {i: block for block in map(frozenset, partition) for i in block}
        for partition in (criterion, oracle)
    )
    for i in range(len(elements)):
        with_c = block_c[i]
        later = [j for j in with_c ^ block_o[i] if j > i]
        if later:
            j = min(later)
            return {
                "elements": [{"index": x, **to_json(elements[x])} for x in (i, j)],
                "joined_by": "criterion" if j in with_c else "oracle",
            }
    return None


def greens(lo, hi):
    for n in range(lo, hi + 1):
        for fam in FAMILIES:
            # build_table refuses an over-cap family before enumerating it all
            table = build_table(enumerate_fast(n, fam))
            oracle = greens_classes_oracle(table)
            for rel in RELATIONS:
                criterion = greens_classes_criterion(table.elements, fam, rel)
                same = criterion == oracle[rel]
                witness = (
                    None if same
                    else _first_split_pair(table.elements, criterion, oracle[rel])
                )
                yield {"n": n, "family": fam.value, "relation": rel}, same, witness


def eunitary(lo, hi):
    for n in range(lo, hi + 1):
        for fam in FAMILIES:
            table = build_table(enumerate_fast(n, fam))
            holds, witness = is_zero_e_unitary(table)
            if fam is Family.ODP or n <= 2:
                # violations need a reflection about an interior point
                ok = holds
            else:
                ok = not holds and replay_witness(table, witness)
            yield {"n": n, "family": fam.value}, ok, witness_to_json(table, witness)


def categorical(lo, hi):
    for n in range(lo, hi + 1):
        table = build_table(enumerate_fast(n, Family.ODP))
        holds, witness = is_categorical(table)
        # categorical only while no three-factor product can vanish: n <= 1
        ok = holds if n <= 1 else (not holds and replay_witness(table, witness))
        yield {"n": n, "semigroup": "odp"}, ok, witness_to_json(table, witness)
        for p in range(1, n + 1):
            table = build_rees_quotient(n, p)
            holds, witness = is_categorical(table)
            params = {"n": n, "semigroup": "rees", "p": p}
            yield params, holds, witness_to_json(table, witness)


def _rees_failure(table):
    """The first of the four properties of a Rees quotient that ``table``
    lacks, with the predicate's witness where it gives one; ``None`` when
    it has all four."""
    if not table.is_associative():
        return {"property": "associative"}
    if not is_inverse(table):
        return {"property": "inverse"}
    for name, predicate in (
        ("0-E-unitary", is_zero_e_unitary),
        ("categorical", is_categorical),
    ):
        holds, witness = predicate(table)
        if not holds:
            return {"property": name, "witness": witness_to_json(table, witness)}
    return None


def rees(lo, hi):
    for n in range(lo, hi + 1):
        for p in range(1, n + 1):
            witness = _rees_failure(build_rees_quotient(n, p))
            yield {"n": n, "p": p}, witness is None, witness


def inverse_laws(lo, hi):
    def ok(a):
        b = inverse(a)
        return compose(compose(a, b), a) == a and compose(compose(b, a), b) == b

    return _first_failures(FAMILIES, lo, hi, ok)


CHECKS = {
    "closure": closure,
    "fix-trichotomy": fix_trichotomy,
    "dichotomy": dichotomy,
    "oracle-equivalence": oracle_equivalence,
    "formulas": formulas,
    "recurrence": recurrence,
    "sum-identity": sum_identity,
    "phi-bijection": phi_bijection,
    "greens": greens,
    "eunitary": eunitary,
    "categorical": categorical,
    "rees": rees,
    "inverse-laws": inverse_laws,
}


# Smallest chain size with an instance, for the checks that start above 0:
# the recurrences and phi need p >= 3, the sum identity n >= 2, and a Rees
# quotient a height 1 <= p <= n.
SMALLEST_N = {"recurrence": 3, "sum-identity": 2, "phi-bijection": 3, "rees": 1}


def run_check(name: str, lo: int, hi: int) -> list[dict]:
    """Run one named check over lo..hi; one ``{"params", "pass"}`` dict per
    instance, plus ``"witness"`` when the check supplied one.

    Sizes below the check's smallest are skipped; a range with no instance
    left raises :class:`ChainIsomError`, since a check that ran on nothing
    verified nothing.  An unknown name, or a bound that is not an ``int``,
    raises :class:`DomainError`.
    """
    if name not in CHECKS:
        raise DomainError(f"unknown check {name!r}")
    if type(lo) is not int or type(hi) is not int:
        raise DomainError(f"check bounds must be ints, got {lo!r}..{hi!r}")
    smallest = SMALLEST_N.get(name, 0)
    start = max(lo, smallest)
    if start > hi:
        raise ChainIsomError(
            f"check {name!r} has no instance in {lo}..{hi}; it needs n >= {smallest}"
        )
    instances = []
    for params, ok, witness in CHECKS[name](start, hi):
        inst = {"params": params, "pass": ok}
        if witness is not None:
            inst["witness"] = witness
        instances.append(inst)
    return instances
