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

from .chain_maps import compose, inverse, pairs_to_json, to_json
from .closed_forms import CLOSED_FORM_CAP, CLOSED_FORMS, phi_bijection_report
from .errors import ChainIsomError, DomainError, LimitExceeded
from .greens_structure import (
    RELATIONS,
    _greedy_generators,
    _indexed_member,
    build_rees_quotient,
    build_table,
    greens_classes_criterion,
    greens_classes_oracle,
    is_categorical,
    is_inverse,
    is_zero_e_unitary,
    replay_witness,
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
    is built."""
    bad = next(
        (
            (dom, img)
            for dom, images in enumerate_images(n, Family.DP)
            for img in images
            if not ok(dom, img)
        ),
        None,
    )
    witness = None if bad is None else {"element": pairs_to_json(n, zip(*bad))}
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


def _first_difference(keys, xs, ys, write):
    """The first index where two lists differ, and each side's item as
    ``write`` gives it (``None`` past its end), under ``keys``; or ``None``."""
    for i, (a, b) in enumerate(zip_longest(xs, ys)):
        if a != b:
            at, left, right = keys
            return {
                at: i,
                left: None if a is None else write(a),
                right: None if b is None else write(b),
            }
    return None


def oracle_equivalence(n):
    for fam in FAMILIES:
        witness = _first_difference(
            ("index", "fast", "oracle"),
            list(enumerate_fast(n, fam)), list(enumerate_oracle(n, fam)), to_json,
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


def _refuse_above_cap(check, n):
    # each instance is exact big-integer work that grows with n
    if n > CLOSED_FORM_CAP:
        raise LimitExceeded(f"check {check!r} is capped at n={CLOSED_FORM_CAP}, got {n}")


def recurrence(n):
    """F(n;p) = F(n-1;p-1) + F(n-1;p) on the height closed forms of both
    families, for 3 <= p <= n.

    F(n-1;p) lies past the end of row n-1 when p = n, and is taken as 0
    there, which makes the boundary instances total.
    """
    _refuse_above_cap("recurrence", n)
    f = CLOSED_FORMS["height"]
    for fam in FAMILIES:
        witness = None
        for p in range(3, n + 1):
            whole, left = f(fam, n, p), f(fam, n - 1, p - 1)
            right = f(fam, n - 1, p) if p < n else 0
            if whole != left + right:
                witness = {
                    "n": n, "p": p,
                    "F(n;p)": whole, "F(n-1;p-1)": left, "F(n-1;p)": right,
                }
                break
        yield {"n": n, "family": fam.value}, witness is None, witness


def sum_identity(n):
    """sum(p = 2..n) F_odp(n;p) = 3 * 2^n - n^2 - 2n - 3 on the odp height
    closed form: the order 3 * 2^n - 2(n+1) less F_odp(n;0) = 1 and
    F_odp(n;1) = n^2."""
    _refuse_above_cap("sum-identity", n)
    f = CLOSED_FORMS["height"]
    lhs = sum(f(Family.ODP, n, p) for p in range(2, n + 1))
    rhs = 3 * 2**n - n * n - 2 * n - 3
    witness = None if lhs == rhs else {"n": n, "lhs": lhs, "rhs": rhs}
    yield {"n": n}, witness is None, witness


def phi_bijection(n):
    for p in range(3, n + 1):
        report = phi_bijection_report(n, p)
        ok = all(report.values())
        yield {"n": n, "p": p}, ok, None if ok else report


def _first_split_pair(elements, criterion, oracle):
    """The first index pair that the criterion's classes and the oracle's,
    compared in the order listed, put in one class and split, with both
    elements and the route that joins them; ``None`` when none is found.

    The k-th class of either route is the class of the least index m that
    no earlier class holds.  At the first k where the blocks differ, j is
    the least member of the criterion's k-th block not in the oracle's, or
    failing that, of the oracle's not in the criterion's blocks holding m
    (not m, when none does).
    """
    for block_c, block_o in zip(criterion, oracle):
        if block_c != block_o:
            break
    else:
        return None
    m, with_o = block_o[0], set(block_o)
    with_m = {x for block in criterion if m in block for x in block} or {m}
    others = (set(block_c) - with_o) or (with_o - with_m)
    if not others:
        return None
    j = min(others)
    return {
        "elements": [_indexed_member(elements, x) for x in sorted((m, j))],
        "joined_by": "oracle" if j in with_o else "criterion",
    }


def _greens_disagreement(elements, index, count, classes, oracle):
    """The first of: a criterion member outside the table, the split pair,
    the first class the routes list differently, a wrong count; or ``None``."""
    try:
        # each member's table index, the blocks kept in the order given
        criterion = tuple(
            tuple(index[tuple(zip(dom, img))] for dom, img in block)
            for block in classes
        )
    except KeyError as missing:
        # every element has the one n
        return {"not_in_table": pairs_to_json(elements[0].n, missing.args[0])}

    def write(block):
        return [_indexed_member(elements, x) for x in block]

    return (
        _first_split_pair(elements, criterion, oracle)
        or _first_difference(("class", "criterion", "oracle"), criterion, oracle, write)
        or (None if count == len(oracle) else {"count": count, "classes": len(oracle)})
    )


def greens(n):
    for fam in FAMILIES:
        # build_table refuses an over-cap family before enumerating it all
        table = build_table(enumerate_fast(n, fam))
        oracle = greens_classes_oracle(table)
        index = {el.pairs: i for i, el in enumerate(table.elements)}
        for rel in RELATIONS:
            count, classes = greens_classes_criterion(n, fam, rel)
            witness = _greens_disagreement(
                table.elements, index, count, classes, oracle[rel]
            )
            yield {"n": n, "family": fam.value, "relation": rel}, witness is None, witness


def eunitary(n):
    for fam in FAMILIES:
        table = build_table(enumerate_fast(n, fam))
        holds, witness = is_zero_e_unitary(table)
        if fam is Family.ODP or n <= 2:
            # violations need a reflection about an interior point
            ok = holds
        else:
            ok = not holds and replay_witness(table, witness)
        yield {"n": n, "family": fam.value}, ok, witness


def categorical(n):
    table = build_table(enumerate_fast(n, Family.ODP))
    holds, witness = is_categorical(table)
    # categorical only while no three-factor product can vanish: n <= 1
    ok = holds if n <= 1 else (not holds and replay_witness(table, witness))
    yield {"n": n, "semigroup": "odp"}, ok, witness
    for p in range(1, n + 1):
        table = build_rees_quotient(n, p)
        holds, witness = is_categorical(table)
        params = {"n": n, "semigroup": "rees", "p": p}
        yield params, holds, witness


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
            return {"property": name, "witness": witness}
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
