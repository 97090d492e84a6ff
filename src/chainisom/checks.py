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
one exception is the per-statistic functions, which are read from the
``STATISTICS`` and ``CLOSED_FORMS`` maps.
"""

from __future__ import annotations

from itertools import zip_longest

from .chain_maps import compose, inverse, is_order_preserving, is_order_reversing, to_json
from .closed_forms import (
    CLOSED_FORMS,
    phi_bijection_report,
    recurrence_check,
    verify_sum_identity,
)
from .errors import ChainIsomError
from .greens_structure import (
    RELATIONS,
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
    STATISTICS,
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


def _table_witness(table, witness):
    return None if witness is None else witness_to_json(table, witness)


def _first_product_outside(elements, fam):
    """The first (a, b) in row-major order whose product is not a member of
    ``fam``, or ``None`` when every product is."""
    # is_member reads only a value's pairs (n and fam are fixed here), so one
    # verdict per distinct product serves every pair that gives it: a closed
    # family's k^2 products take only k values.  The first pair whose verdict
    # is false is still the first failing pair, as with a test per pair.
    verdicts = {}
    for a in elements:
        for b in elements:
            product = compose(a, b)
            ok = verdicts.get(product.pairs)
            if ok is None:
                ok = verdicts[product.pairs] = is_member(product, fam)
            if not ok:
                return a, b
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
        return STATISTICS["fix"](a) in (0, 1, a.height)

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
            ok = all(recurrence_check(n, p, fam) for p in range(3, n + 1))
            yield {"n": n, "family": fam.value}, ok, None


def sum_identity(lo, hi):
    for n in range(lo, hi + 1):
        yield {"n": n}, verify_sum_identity(n), None


def phi_bijection(lo, hi):
    for n in range(lo, hi + 1):
        for p in range(3, n + 1):
            report = phi_bijection_report(n, p)
            ok = all(report.values())
            yield {"n": n, "p": p}, ok, None if ok else report


def greens(lo, hi):
    for n in range(lo, hi + 1):
        for fam in FAMILIES:
            # build_table refuses an over-cap family before enumerating it all
            table = build_table(enumerate_fast(n, fam))
            oracle = greens_classes_oracle(table)
            for rel in RELATIONS:
                same = greens_classes_criterion(table.elements, fam, rel) == oracle[rel]
                yield {"n": n, "family": fam.value, "relation": rel}, same, None


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
            yield {"n": n, "family": fam.value}, ok, _table_witness(table, witness)


def categorical(lo, hi):
    for n in range(lo, hi + 1):
        table = build_table(enumerate_fast(n, Family.ODP))
        holds, witness = is_categorical(table)
        # categorical only while no three-factor product can vanish: n <= 1
        ok = holds if n <= 1 else (not holds and replay_witness(table, witness))
        yield {"n": n, "semigroup": "odp"}, ok, _table_witness(table, witness)
        for p in range(1, n + 1):
            table = build_rees_quotient(n, p)
            holds, witness = is_categorical(table)
            params = {"n": n, "semigroup": "rees", "p": p}
            yield params, holds, _table_witness(table, witness)


def rees(lo, hi):
    for n in range(lo, hi + 1):
        for p in range(1, n + 1):
            table = build_rees_quotient(n, p)
            ok = (
                table.is_associative()
                and is_inverse(table)
                and is_zero_e_unitary(table)[0]
                and is_categorical(table)[0]
            )
            yield {"n": n, "p": p}, ok, None


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
    verified nothing.
    """
    smallest = SMALLEST_N.get(name, 0)
    if hi < smallest:
        raise ChainIsomError(
            f"check {name!r} has no instance in {lo}..{hi}; it needs n >= {smallest}"
        )
    instances = []
    for params, ok, witness in CHECKS[name](max(lo, smallest), hi):
        inst = {"params": params, "pass": ok}
        if witness is not None:
            inst["witness"] = witness
        instances.append(inst)
    return instances
