"""Named verification checks, one per claim about the two families.

Each entry of :data:`CHECKS` is a :class:`Check` record: ``run(n)`` is a
generator over the instances at chain size n that yields one ``(params,
ok, witness)`` triple per instance, and ``smallest_n`` is the least n with
an instance.  ``witness`` is ``None`` or a JSON-ready certificate; some
checks attach one to passing instances too, where the expected outcome is
itself a violation (dp is not 0-E-unitary, odp is not categorical).
Adding a check means writing one ``run(n)`` and listing its record in
:data:`CHECKS`; :func:`run_check` walks the chain sizes, starting at
``smallest_n``.

Layer functions are looked up by module-global name when a check runs, so
a tool that wraps them by patching module attributes sees every call; the
one exception is the closed forms, which are read from the
``CLOSED_FORMS`` map.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import zip_longest
from operator import eq, gt, lt

from .chain_maps import compose, inverse, to_json
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
    enumerate_images,
    enumerate_oracle,
    is_member,
)

FAMILIES = (Family.DP, Family.ODP)


def _first_failing_dp_map(n, ok):
    """Scan dp on the n-chain for the first map failing ``ok(domain,
    image)``, reading ``(domain, image)`` off the enumeration walk: no value
    is built, and the witness holds that map as :func:`to_json` writes it."""
    bad = next(
        (
            (dom, img)
            for dom, images in enumerate_images(n, Family.DP)
            for img in images
            if not ok(dom, img)
        ),
        None,
    )
    witness = None if bad is None else {
        "element": {"n": n, "map": [[x, y] for x, y in zip(*bad)]}
    }
    yield {"n": n, "family": Family.DP.value}, bad is None, witness


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


def closure(n):
    for fam in FAMILIES:
        bad = _first_product_outside(list(enumerate_fast(n, fam)), fam)
        witness = None if bad is None else {"a": to_json(bad[0]), "b": to_json(bad[1])}
        yield {"n": n, "family": fam.value}, bad is None, witness


# The walk lists each map's image in domain order, and the domain is
# increasing, so these test the map's fixed points and monotonicity.

def fix_trichotomy(n):
    def ok(dom, img):
        return sum(map(eq, dom, img)) in (0, 1, len(dom))

    return _first_failing_dp_map(n, ok)


def dichotomy(n):
    def ok(dom, img):
        rest = img[1:]
        return all(map(lt, img, rest)) or all(map(gt, img, rest))

    return _first_failing_dp_map(n, ok)


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


def oracle_equivalence(n):
    for fam in FAMILIES:
        witness = _first_difference(
            list(enumerate_fast(n, fam)), list(enumerate_oracle(n, fam))
        )
        yield {"n": n, "family": fam.value}, witness is None, witness


def formulas(n):
    for fam in FAMILIES:
        for stat, closed in CLOSED_FORMS.items():
            empirical = count_by(stat, n, fam)
            formula = [closed(fam, n, k) for k in range(n + 1)]
            ok = empirical == formula
            witness = None if ok else {"empirical": empirical, "formula": formula}
            yield {"n": n, "family": fam.value, "statistic": stat}, ok, witness


def recurrence(n):
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


def sum_identity(n):
    ok = verify_sum_identity(n)
    witness = None
    if not ok:
        lhs, rhs = _sum_identity_sides(n)
        witness = {"n": n, "lhs": lhs, "rhs": rhs}
    yield {"n": n}, ok, witness


def phi_bijection(n):
    for p in range(3, n + 1):
        report = phi_bijection_report(n, p)
        ok = all(report.values())
        yield {"n": n, "p": p}, ok, None if ok else report


def _first_split_pair(elements, criterion, oracle):
    """The first index pair that the criterion's classes and the oracle's,
    compared in the order listed, put in one class and split, with both
    elements and the route that joins them; ``None`` when none is found.

    Classes are listed by their smallest members, so the k-th class of
    either route is the class of the smallest index m that no earlier class
    holds, and the oracle's k-th block holds m.  At the first k where the
    blocks differ, the pair is m and the least index j that the
    criterion's k-th block holds and the oracle's does not; failing one,
    the least j other than m that the oracle's holds and the criterion's
    does not; failing that too, where the criterion's block is the
    oracle's without m, the least j it holds.  A class with a wrong member,
    a missing member or a place out of order each give a pair.
    """
    for block_c, block_o in zip(criterion, oracle):
        if block_c != block_o:
            break
    else:
        return None
    m = block_o[0]
    with_c, with_o = set(block_c), set(block_o)
    others = (with_c - with_o) or (with_o - with_c - {m})
    if not others and m not in with_c:
        others = with_c
    if not others:
        return None
    j = min(others)
    return {
        "elements": [{"index": x, **to_json(elements[x])} for x in sorted((m, j))],
        "joined_by": "oracle" if j in with_o else "criterion",
    }


def greens(n):
    for fam in FAMILIES:
        # build_table refuses an over-cap family before enumerating it all
        table = build_table(enumerate_fast(n, fam))
        oracle = greens_classes_oracle(table)
        index = {el.pairs: i for i, el in enumerate(table.elements)}
        for rel in RELATIONS:
            count, classes = greens_classes_criterion(n, fam, rel)
            # each member's table index, the blocks kept in the order given
            criterion = tuple(
                tuple(index[tuple(zip(dom, img))] for dom, img in block)
                for block in classes
            )
            same = count == len(oracle[rel]) and criterion == oracle[rel]
            witness = (
                None if same
                else _first_split_pair(table.elements, criterion, oracle[rel])
            )
            yield {"n": n, "family": fam.value, "relation": rel}, same, witness


def eunitary(n):
    for fam in FAMILIES:
        table = build_table(enumerate_fast(n, fam))
        holds, witness = is_zero_e_unitary(table)
        if fam is Family.ODP or n <= 2:
            # violations need a reflection about an interior point
            ok = holds
        else:
            ok = not holds and replay_witness(table, witness)
        yield {"n": n, "family": fam.value}, ok, witness_to_json(table, witness)


def categorical(n):
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


def rees(n):
    for p in range(1, n + 1):
        witness = _rees_failure(build_rees_quotient(n, p))
        yield {"n": n, "p": p}, witness is None, witness


def inverse_laws(n):
    def ok(a):
        b = inverse(a)
        return compose(compose(a, b), a) == a and compose(compose(b, a), b) == b

    for fam in FAMILIES:
        bad = next((a for a in enumerate_fast(n, fam) if not ok(a)), None)
        witness = None if bad is None else {"element": to_json(bad)}
        yield {"n": n, "family": fam.value}, bad is None, witness


# smallest_n: the recurrences and phi need p >= 3, the sum identity n >= 2,
# and a Rees quotient a height 1 <= p <= n
Check = namedtuple("Check", "run smallest_n")

CHECKS = {
    "closure": Check(closure, 0),
    "fix-trichotomy": Check(fix_trichotomy, 0),
    "dichotomy": Check(dichotomy, 0),
    "oracle-equivalence": Check(oracle_equivalence, 0),
    "formulas": Check(formulas, 0),
    "recurrence": Check(recurrence, 3),
    "sum-identity": Check(sum_identity, 2),
    "phi-bijection": Check(phi_bijection, 3),
    "greens": Check(greens, 0),
    "eunitary": Check(eunitary, 0),
    "categorical": Check(categorical, 0),
    "rees": Check(rees, 1),
    "inverse-laws": Check(inverse_laws, 0),
}


def run_check(name: str, lo: int, hi: int) -> list[dict]:
    """Run one named check over lo..hi; one ``{"params", "pass"}`` dict per
    instance, plus ``"witness"`` when the check supplied one.

    Sizes below the check's ``smallest_n`` are skipped; a range with no
    instance left raises :class:`ChainIsomError`, since a check that ran on
    nothing verified nothing.  An unknown name, or a bound that is not an
    ``int``, raises :class:`DomainError`.

    >>> CHECKS["sum-identity"].smallest_n
    2
    >>> run_check("sum-identity", 0, 3)
    [{'params': {'n': 2}, 'pass': True}, {'params': {'n': 3}, 'pass': True}]
    >>> run_check("sum-identity", 0, 1)
    Traceback (most recent call last):
    ...
    chainisom.errors.ChainIsomError: check 'sum-identity' has no instance in 0..1; it needs n >= 2
    """
    # the type first: an unhashable name would fail the lookup itself
    if not isinstance(name, str) or name not in CHECKS:
        raise DomainError(f"unknown check {name!r}")
    if type(lo) is not int or type(hi) is not int:
        raise DomainError(f"check bounds must be ints, got {lo!r}..{hi!r}")
    run, smallest = CHECKS[name]
    start = max(lo, smallest)
    if start > hi:
        raise ChainIsomError(
            f"check {name!r} has no instance in {lo}..{hi}; it needs n >= {smallest}"
        )
    instances = []
    for n in range(start, hi + 1):
        for params, ok, witness in run(n):
            inst = {"params": params, "pass": ok}
            if witness is not None:
                inst["witness"] = witness
            instances.append(inst)
    return instances
