"""Exact counting formulas for both families, by height and by fixed points.

Every function works in exact integer arithmetic (Python integers are
unbounded, so there is no practical n cap at the library level; the
command-line table generator enforces one for output sanity).  Divisions
are checked to be exact and raise ``ArithmeticError`` otherwise, which
would indicate a broken formula rather than bad input.

F(n; k) denotes the number of family elements on the chain of size n whose
statistic (height or fix count) equals k.
"""

from __future__ import annotations

from math import comb

from .chain_maps import PartialInjection, inverse
from .errors import DomainError
from .isometry_families import (
    CountTable,
    Family,
    _check_chain_size,
    _check_family,
    count_by,
    enumerate_fast,
    is_member,
)


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


def f_height_dp(n: int, p: int) -> int:
    """All-isometries count by height: twice the order-preserving count for
    p >= 2; n^2 at p = 1; 1 at p = 0.

    The doubling reflects that every height >= 2 element is either a
    translation or a reflection restriction, never both.
    """
    _check_range(n, p, "height count")
    if p == 0:
        return 1
    if p == 1:
        return n * n
    return _exact_div(2 * (2 * n - p + 1) * comb(n, p), p + 1)


def f_fix_odp(n: int, m: int) -> int:
    """Order-preserving count by fix: C(n,m) for m >= 1, else 2^(n+1)-(2n+1).

    Any order-preserving member with a fixed point is a partial identity,
    so for m >= 1 the count is just the choice of the fixed set.
    """
    _check_range(n, m, "fix count")
    if m >= 1:
        return comb(n, m)
    return 2 ** (n + 1) - (2 * n + 1)


def f_fix_dp(n: int, m: int) -> int:
    """All-isometries count by fix; the m <= 1 branches split on parity of n.

    m >= 2 forces a partial identity, giving C(n,m).  For m = 1 the element
    is a reflection about its one fixed point i, so the count follows from
    how many centres 2i fit inside the chain:

        m = 1, n even:  2 * (2^n - 1) / 3
        m = 1, n odd:   2 * (2^(n-1) - 1) / 3 + 2^(n-1)
        m = 0, n even:  (13 * 2^n - (3n^2 + 9n + 10)) / 3
        m = 0, n odd:   (25 * 2^(n-1) - (3n^2 + 9n + 10)) / 3
    """
    _check_range(n, m, "fix count")
    if m >= 2:
        return comb(n, m)
    if m == 1:
        if n % 2 == 0:
            return _exact_div(2 * (2**n - 1), 3)
        return _exact_div(2 * (2 ** (n - 1) - 1), 3) + 2 ** (n - 1)
    if n % 2 == 0:
        return _exact_div(13 * 2**n - (3 * n * n + 9 * n + 10), 3)
    return _exact_div(25 * 2 ** (n - 1) - (3 * n * n + 9 * n + 10), 3)


def order_odp(n: int) -> int:
    """3 * 2^n - 2(n+1)."""
    _check_chain_size(n)
    return 3 * 2**n - 2 * (n + 1)


def order_dp(n: int) -> int:
    """3 * 2^(n+1) - (n+2)^2 - 1."""
    _check_chain_size(n)
    return 3 * 2 ** (n + 1) - (n + 2) ** 2 - 1


def _by_family(family: Family, dp, odp):
    if family is Family.DP:
        return dp
    if family is Family.ODP:
        return odp
    _check_family(family)  # family is not a Family here, so this raises


def f_height(family: Family, n: int, p: int) -> int:
    return _by_family(family, f_height_dp, f_height_odp)(n, p)


def f_fix(family: Family, n: int, m: int) -> int:
    return _by_family(family, f_fix_dp, f_fix_odp)(n, m)


# The closed form of each count-table statistic, F(family, n, k), under
# the statistic's name in isometry_families.STATISTICS.
CLOSED_FORMS = {"height": f_height, "fix": f_fix}


def family_order(family: Family, n: int) -> int:
    return _by_family(family, order_dp, order_odp)(n)


def verify_sum_identity(n: int) -> bool:
    """Check sum(p=2..n) (2n-p+1)/(p+1)*C(n,p) == 3*2^n - n^2 - 2n - 3 exactly."""
    if type(n) is not int or n < 2:
        raise DomainError(f"identity needs an int n >= 2, got {n!r}")
    lhs, rhs = _sum_identity_sides(n)
    return lhs == rhs


def _sum_identity_sides(n: int) -> tuple[int, int]:
    lhs = sum(_exact_div((2 * n - p + 1) * comb(n, p), p + 1) for p in range(2, n + 1))
    return lhs, 3 * 2**n - n * n - 2 * n - 3


def _f_height_or_zero(family: Family, n: int, p: int) -> int:
    # read from CLOSED_FORMS, as the formulas check reads it, so that both
    # checks see a replaced entry
    return 0 if p > n else CLOSED_FORMS["height"](family, n, p)


def recurrence_check(n: int, p: int, family: Family) -> bool:
    """Check F(n;p) == F(n-1;p-1) + F(n-1;p) on the closed forms, n >= p >= 3.

    F(n-1; p) is taken as 0 when p exceeds n-1, which makes the boundary
    instances total.
    """
    if type(n) is not int or type(p) is not int or not n >= p >= 3:
        raise DomainError(f"recurrence needs int n >= p >= 3, got n={n!r}, p={p!r}")
    whole, left, right = _recurrence_terms(n, p, family)
    return whole == left + right


def _recurrence_terms(n: int, p: int, family: Family) -> tuple[int, int, int]:
    """F(n;p), F(n-1;p-1) and F(n-1;p), the last 0 when p exceeds n-1."""
    return (
        _f_height_or_zero(family, n, p),
        _f_height_or_zero(family, n - 1, p - 1),
        _f_height_or_zero(family, n - 1, p),
    )


def phi_bijection(a: PartialInjection, n: int) -> PartialInjection:
    """Extend an order-preserving member of the (n-1)-chain by one pair
    touching n, raising its height by one.

    A nonempty order-preserving isometry is a restricted translation
    x -> x + t.  With s = max domain point and w = max image point
    (so t = w - s), the extension adjoins:

    * (n, n)      when s == w, keeping a partial identity a partial identity;
    * (n, n-s+w)  when s > w, continuing the downward translation;
    * (n-w+s, n)  when s < w, obtained by inverting, applying the previous
      case, and inverting back.

    Restricted to inputs of height p-1 this is a bijection onto the height-p
    members of the n-chain whose domain or image contains n.
    """
    if a.n != n - 1:
        raise DomainError(f"input must live on the chain of size {n - 1}, got {a.n}")
    if a.is_empty:
        raise DomainError("input must be nonempty (its extremes drive the case split)")
    if not is_member(a, Family.ODP):
        raise DomainError("input must be an order-preserving partial isometry")
    # a is order-preserving (checked above), so its last pair is (s, w)
    s, w = a.pairs[-1]
    if s == w:
        return PartialInjection(n, a.pairs + ((n, n),))
    if s > w:
        return PartialInjection(n, a.pairs + ((n, n - s + w),))
    return inverse(phi_bijection(inverse(a), n))


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


def formula_count_table(statistic: str, family: Family, max_n: int) -> CountTable:
    """Count table computed from the closed forms only.

    The constructor re-checks that every row sums to the family order, so
    building this table exercises the row-sum identities as a side effect.
    """
    closed = CLOSED_FORMS.get(statistic) if isinstance(statistic, str) else None
    if closed is None:
        raise DomainError(f"unknown statistic {statistic!r}")
    _check_chain_size(max_n)
    rows = tuple(
        tuple(closed(family, n, k) for k in range(n + 1)) for n in range(max_n + 1)
    )
    sums = tuple(family_order(family, n) for n in range(max_n + 1))
    return CountTable(statistic, family, rows, sums)
