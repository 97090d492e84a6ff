"""Exact counting formulas for both families, by height and by fixed points.

Every function works in exact integer arithmetic.  Python integers are
unbounded, so the closed forms here take any n.  The CLI's formula tables
and the ``recurrence`` and ``sum-identity`` checks stop at
:data:`CLOSED_FORM_CAP`, since their exact big-integer work grows with n.
Divisions are checked to be exact and raise ``ArithmeticError``
otherwise, which would indicate a broken formula rather than bad input.

F(n; k) denotes the number of family elements on the chain of size n whose
statistic (height or fix count) equals k.  Each statistic is one function
of (family, n, k), as is the order: f_height, f_fix and family_order.
"""

from __future__ import annotations

from math import comb

from .chain_maps import PartialInjection
from .errors import DomainError
from .isometry_families import (
    Family,
    _check_chain_size,
    _check_family,
    count_by,
    enumerate_fast,
    is_member,
)

# The largest n of the CLI's formula tables and of the recurrence and
# sum-identity checks.
CLOSED_FORM_CAP = 60


def _exact_div(numerator: int, denominator: int) -> int:
    q, r = divmod(numerator, denominator)
    if r:
        raise ArithmeticError(f"{numerator} is not divisible by {denominator}")
    return q


def _check_range(n: int, k: int, what: str) -> None:
    # exact type, as in _check_chain_size: a float would give a float count
    # or a false ArithmeticError, and True would pass for 1
    if type(n) is not int or type(k) is not int:
        raise DomainError(f"{what} needs int n and k, got n={n!r}, k={k!r}")
    if n < 0 or k < 0 or k > n:
        raise DomainError(f"{what} needs 0 <= k <= n, got n={n}, k={k}")


def f_height_odp(n: int, p: int) -> int:
    """Order-preserving count by height: (2n-p+1)/(p+1) * C(n,p) for p >= 1.

    The general expression also covers p = 1 (it reduces to n^2) but not
    p = 0, where the single empty map is counted directly.
    """
    _check_range(n, p, "height count")
    if p == 0:
        return 1
    return _exact_div((2 * n - p + 1) * comb(n, p), p + 1)


def f_height(family: Family, n: int, p: int) -> int:
    """Count by height: :func:`f_height_odp`, doubled for dp at p >= 2.

    At height >= 2 every dp member is a translation or a reflection, never
    both, and a domain carries as many of one kind as of the other.
    """
    _check_family(family)
    count = f_height_odp(n, p)
    return 2 * count if family is Family.DP and p >= 2 else count


def f_fix(family: Family, n: int, m: int) -> int:
    """Count by fix; dp's m <= 1 branches split on the parity of n.

    A member with m >= 2 fixed points is a partial identity, and so is an
    odp member with one, so those counts are the choice of the fixed set,
    C(n,m).  The odp members with none number 2^(n+1) - (2n+1).  A dp
    member with one fixed point i is a reflection about i, so its count
    follows from how many centres 2i fit inside the chain:

        m = 1, n even:  2 * (2^n - 1) / 3
        m = 1, n odd:   2 * (2^(n-1) - 1) / 3 + 2^(n-1)
        m = 0, n even:  (13 * 2^n - (3n^2 + 9n + 10)) / 3
        m = 0, n odd:   (25 * 2^(n-1) - (3n^2 + 9n + 10)) / 3
    """
    _check_family(family)
    _check_range(n, m, "fix count")
    if m >= 2 or (m == 1 and family is Family.ODP):
        return comb(n, m)
    if family is Family.ODP:
        return 2 ** (n + 1) - (2 * n + 1)
    if m == 1:
        if n % 2 == 0:
            return _exact_div(2 * (2**n - 1), 3)
        return _exact_div(2 * (2 ** (n - 1) - 1), 3) + 2 ** (n - 1)
    if n % 2 == 0:
        return _exact_div(13 * 2**n - (3 * n * n + 9 * n + 10), 3)
    return _exact_div(25 * 2 ** (n - 1) - (3 * n * n + 9 * n + 10), 3)


# The closed form of each count-table statistic, F(family, n, k), under
# the statistic's name in isometry_families.STATISTICS.
CLOSED_FORMS = {"height": f_height, "fix": f_fix}


def family_order(family: Family, n: int) -> int:
    """The family's order: 3 * 2^(n+1) - (n+2)^2 - 1 for dp, and
    3 * 2^n - 2(n+1) for odp."""
    _check_family(family)
    _check_chain_size(n)
    if family is Family.DP:
        return 3 * 2 ** (n + 1) - (n + 2) ** 2 - 1
    return 3 * 2**n - 2 * (n + 1)


def phi_bijection(a: PartialInjection, n: int) -> PartialInjection:
    """Extend an order-preserving member of the (n-1)-chain by one pair
    touching n, raising its height by one.

    A nonempty order-preserving isometry is a restricted translation
    x -> x + t.  With s = max domain point and w = max image point
    (so t = w - s), the extension adjoins:

    * (n, n-s+w)  when s >= w, continuing the translation; for a partial
      identity, s == w, this is (n, n);
    * (n-w+s, n)  when s < w.  As w <= n-1, n-w+s > s, so the new pair
      sorts last and the map stays a translation.

    Restricted to inputs of height p-1 this is a bijection onto the height-p
    members of the n-chain whose domain or image contains n.
    """
    # exact type, before the arithmetic, as in phi_bijection_report
    if type(n) is not int:
        raise DomainError(f"need int n, got n={n!r}")
    if a.n != n - 1:
        raise DomainError(f"input must live on the chain of size {n - 1}, got {a.n}")
    if a.is_empty:
        raise DomainError("input must be nonempty (its extremes drive the case split)")
    if not is_member(a, Family.ODP):
        raise DomainError("input must be an order-preserving partial isometry")
    # a is order-preserving (checked above), so its last pair is (s, w)
    s, w = a.pairs[-1]
    if s >= w:
        return PartialInjection(n, a.pairs + ((n, n - s + w),))
    return PartialInjection(n, a.pairs + ((n - w + s, n),))


def phi_bijection_report(n: int, p: int) -> dict[str, bool]:
    """Check :func:`phi_bijection` restricted to height p-1 inputs.

    Verifies that the extension map is injective, that its image is exactly
    the set of height-p elements of the n-chain touching n, and that the
    resulting split of the height-p layer reproduces the two-term
    recurrence.  Needs p >= 2 so the inputs are nonempty.
    """
    if type(n) is not int or type(p) is not int or not 2 <= p <= n:
        raise DomainError(f"need int 2 <= p <= n, got p={p!r}, n={n!r}")
    source = list(enumerate_fast(n - 1, Family.ODP, height=p - 1))
    images = [phi_bijection(a, n) for a in source]
    image_set = set(images)
    touching, untouched = [], []
    for a in enumerate_fast(n, Family.ODP, height=p):
        # a is order-preserving and nonempty (p >= 2), so its last pair holds
        # both its largest domain point and its largest image point
        (touching if n in a.pairs[-1] else untouched).append(a)
    inherited = 0 if p > n - 1 else count_by("height", n - 1, Family.ODP)[p]
    return {
        "injective": len(image_set) == len(images),
        "image_exact": image_set == set(touching),
        "decomposition": len(touching) == f_height_odp(n - 1, p - 1)
        and len(untouched) == inherited
        and len(touching) + len(untouched) == f_height_odp(n, p),
    }


def formula_count_table(
    statistic: str, family: Family, max_n: int
) -> tuple[tuple[int, ...], ...]:
    """Triangle of counts F(n; k), n = 0..max_n, from the closed forms only:
    ``rows[n][k]`` counts the elements whose ``statistic`` equals k.

    Every row must sum to the family order, so building the table checks
    the row-sum identities as a side effect; a row that misses its order
    raises :class:`DomainError`.
    """
    closed = CLOSED_FORMS.get(statistic) if isinstance(statistic, str) else None
    if closed is None:
        raise DomainError(f"unknown statistic {statistic!r}")
    _check_chain_size(max_n)
    rows = tuple(
        tuple(closed(family, n, k) for k in range(n + 1)) for n in range(max_n + 1)
    )
    for n, row in enumerate(rows):
        if sum(row) != family_order(family, n):
            raise DomainError(f"row {n} does not sum to its declared order")
    return rows
