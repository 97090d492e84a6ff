"""Acceptance suite: one test per criterion, exact integer comparisons.

Each test prints a single pass/fail line (visible with ``pytest -s``) and
enforces its runtime budget.  Run standalone via::

    pytest tests/test_acceptance.py -v -s
"""

import time
from contextlib import contextmanager

from chainisom import (
    Family,
    compose,
    enumerate_fast,
    enumerate_oracle,
    family_order,
    greens_classes_criterion,
    is_inverse,
    is_order_preserving,
    is_order_reversing,
)
from chainisom.checks import run_check
from chainisom.cli import main

from helpers import elements, table
from test_closed_forms import (
    DP_BY_FIX,
    DP_BY_HEIGHT,
    DP_ORDERS,
    ODP_BY_FIX,
    ODP_BY_HEIGHT,
    ODP_ORDERS,
)

BOTH = (Family.DP, Family.ODP)


@contextmanager
def criterion(number, name, budget_s):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    if elapsed >= budget_s:
        print(f"criterion {number} ({name}): FAIL (runtime {elapsed:.2f}s >= {budget_s}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget_s}s budget")
    print(f"criterion {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_tables(capsys):
    goldens = {
        ("odp", "height"): (ODP_BY_HEIGHT, ODP_ORDERS),
        ("odp", "fix"): (ODP_BY_FIX, ODP_ORDERS),
        ("dp", "height"): (DP_BY_HEIGHT, DP_ORDERS),
        ("dp", "fix"): (DP_BY_FIX, DP_ORDERS),
    }
    with criterion(1, "reference count tables", 1.0):
        for (family, by), (rows, sums) in goldens.items():
            code = main(["table", "--family", family, "--by", by,
                         "--max-n", "7", "--format", "csv"])
            out = capsys.readouterr().out
            assert code == 0
            for n, line in enumerate(out.splitlines()[1:]):
                cells = [int(v) for v in line.split(",") if v != ""]
                assert cells == [n] + rows[n] + [sums[n]], (family, by, n)


def test_criterion_2_orders():
    with criterion(2, "enumerated orders match closed forms", 30.0):
        for n in range(11):
            for fam in BOTH:
                fast_count = sum(1 for _ in enumerate_fast(n, fam))
                assert fast_count == family_order(fam, n), (n, fam, "fast")
        for n in range(8):
            for fam in BOTH:
                oracle_count = sum(1 for _ in enumerate_oracle(n, fam))
                assert oracle_count == family_order(fam, n), (n, fam, "oracle")


def all_pass(check, lo, hi, expected_instances):
    """Run a registered check; fail unless it produced exactly the expected
    number of instances and every one passed."""
    instances = run_check(check, lo, hi)
    assert len(instances) == expected_instances, (check, len(instances))
    failed = [inst for inst in instances if not inst["pass"]]
    assert not failed, (check, failed[:1])
    return instances


def test_criterion_3_formula_suite():
    with criterion(3, "formulas vs counts, recurrence, sum identity", 10.0):
        # n = 0..9, both families, height and fix
        all_pass("formulas", 0, 9, 10 * 2 * 2)
        # n = 3..30, both families, every p = 3..n
        all_pass("recurrence", 3, 30, 28 * 2)
        all_pass("sum-identity", 2, 30, 29)


def test_criterion_4_phi_bijection():
    with criterion(4, "height-raising bijection", 10.0):
        # every p = 3..n for n = 3..8
        all_pass("phi-bijection", 3, 8, sum(n - 2 for n in range(3, 9)))


def test_criterion_5_greens():
    with criterion(5, "Green's relations, criterion vs oracle", 60.0):
        # n = 0..5, both families, R L H D
        all_pass("greens", 0, 5, 6 * 2 * 4)
        for n in range(7):
            _, odp_h = greens_classes_criterion(n, Family.ODP, "H")
            assert all(len(block) == 1 for block in odp_h), n
            _, dp_h = greens_classes_criterion(n, Family.DP, "H")
            assert {len(block) for block in dp_h} <= {1, 2}, n


def test_criterion_6_structure():
    with criterion(6, "inverse, 0-E-unitary, categorical, quotients", 60.0):
        for n in range(6):
            for fam in BOTH:
                assert is_inverse(table(n, fam)), (n, fam)
        # odp is 0-E-unitary; dp is not, with a witness that replays
        for inst in all_pass("eunitary", 3, 6, 4 * 2):
            assert ("witness" in inst) == (inst["params"]["family"] == "dp"), inst
        # odp is not categorical (replayed witness); every Q(n, p) is
        instances = all_pass("categorical", 3, 6, sum(n + 1 for n in range(3, 7)))
        for inst in instances:
            odp = inst["params"]["semigroup"] == "odp"
            assert ("witness" in inst) == odp, inst
        # every Q(n, p) is associative, inverse, 0-E-unitary and categorical
        all_pass("rees", 3, 6, sum(range(3, 7)))


def test_criterion_7_cycle_structure():
    with criterion(7, "cycle-structure properties", 30.0):
        for n in range(8):
            for a in elements(n, Family.DP):
                fixed = {x for x, y in a.pairs if x == y}
                assert len(fixed) in (0, 1, a.height), a
                if len(fixed) > 1:
                    assert compose(a, a) == a, a
                if 1 in fixed or n in fixed:
                    assert all(x == y for x, y in a.pairs), a
                if len(fixed) == 1:
                    (i,) = fixed
                    assert all(x + y == 2 * i for x, y in a.pairs), a
                assert is_order_preserving(a) or is_order_reversing(a), a
            for a in elements(n, Family.ODP):
                if any(x == y for x, y in a.pairs):
                    assert compose(a, a) == a, a
