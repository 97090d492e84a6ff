"""Seeded request lists for the benchmark workloads.

A workload is a fixed list of slots.  A slot holds argv variants of nearly
equal cost, and the seed picks one variant per slot and shuffles the list.
So two seeds send different argv lists that carry nearly the same work.
Variants are judged equal in cost from the closed-form family orders: dp
on n points and odp on n + 1 points differ by a few per cent in size
(3 * 2^(n+1) minus lower-order terms for both).

Every request carries its output check and its predicted work units, both
computed from the closed forms before anything is timed.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from math import comb, perm

from chainisom.closed_forms import f_height, f_height_odp, family_order
from chainisom.isometry_families import Family


@dataclass(frozen=True)
class Request:
    """One CLI invocation with its output check and predicted work.

    ``check`` is ``("lines", count)`` for a stdout line count fixed by a
    closed form, ``("pass",)`` for a text ``verify`` report that must end
    in ``PASS``, or ``("golden", key)`` for stdout whose sha256 must equal
    the recorded digest of the invocation ``key``.
    """

    argv: tuple[str, ...]
    command: str
    family: str
    n: int
    check: tuple
    k: int = 0
    table_k2: int = 0
    assoc_k3: int = 0
    oracle_candidates: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _order(fam: str, n: int) -> int:
    return family_order(Family(fam), n)


def _size_class(n: int) -> list[tuple[str, int]]:
    return [("dp", n), ("odp", n + 1)]


def _golden(argv) -> tuple:
    return ("golden", " ".join(argv))


# ---------------------------------------------------------------------------
# Request builders

def _enumerate(fam: str, n: int, fmt: str, height: int | None = None) -> Request:
    argv = ["enumerate", "--n", str(n), "--family", fam, "--format", fmt]
    if height is None:
        lines = _order(fam, n)
        command = f"enumerate {fmt}"
    else:
        argv += ["--height", str(height)]
        lines = f_height(Family(fam), n, height)
        command = f"enumerate {fmt} --height"
    return Request(tuple(argv), command, fam, n, ("lines", lines), k=lines)


def _table(fam: str, max_n: int, by: str, fmt: str, empirical: bool) -> Request:
    closed = ["table", "--family", fam, "--by", by, "--max-n", str(max_n), "--format", fmt]
    if not empirical:
        return Request(tuple(closed), "table", fam, max_n, _golden(closed))
    k = sum(_order(fam, m) for m in range(max_n + 1))
    return Request(
        tuple(closed + ["--empirical"]), "table --empirical", fam, max_n,
        _golden(closed), k=k,
    )


def _greens(fam: str, n: int, relation: str) -> Request:
    argv = ["greens", "--n", str(n), "--family", fam, "--classes", relation]
    return Request(tuple(argv), "greens", fam, n, _golden(argv), k=_order(fam, n))


def _structure(fam: str, n: int, rees_p: int | None, fmt: str) -> Request:
    argv = ["structure", "--n", str(n), "--family", fam, "--format", fmt]
    k = _order(fam, n)
    if rees_p is not None:
        argv += ["--rees-p", str(rees_p)]
    return Request(tuple(argv), "structure", fam, n, _golden(argv), k=k, table_k2=k * k)


def _layers(n: int) -> list[int]:
    """Element counts of the Rees quotients Q(n, p), p = 1..n (zero included)."""
    return [f_height_odp(n, p) + 1 for p in range(1, n + 1)]


def _partial_injections(n: int) -> int:
    return sum(comb(n, j) * perm(n, j) for j in range(n + 1))


def _verify(check: str, n: int, fmt: str = "text") -> Request:
    """Single-n ``verify`` with the work the check does at that n.

    The table counts mirror what each check builds: ``greens`` and
    ``eunitary`` tabulate both families, ``categorical`` the odp family,
    ``rees`` the quotients; ``greens`` and ``rees`` run the associativity
    check on every table they build.
    """
    argv = ["verify", "--check", check, "--n-range", f"{n}..{n}", "--format", fmt]
    both = [_order("dp", n), _order("odp", n)]
    family, k, k2, k3, cand = "both", sum(both), 0, 0, 0
    if check == "greens":
        k2, k3 = sum(x * x for x in both), sum(x**3 for x in both)
    elif check == "eunitary":
        k2 = sum(x * x for x in both)
    elif check == "categorical":
        family, k = "odp", both[1]
        k2 = k * k
    elif check == "rees":
        family, k = "odp", sum(_layers(n))
        k3 = sum(x**3 for x in _layers(n))
    elif check == "oracle-equivalence":
        cand = 2 * _partial_injections(n)
    elif check in ("fix-trichotomy", "dichotomy"):
        family, k = "dp", both[0]
    elif check == "phi-bijection":
        family = "odp"
        k = sum(
            f_height_odp(n - 1, p - 1) + f_height_odp(n, p)
            + (f_height_odp(n - 1, p) if p < n else 0)
            for p in range(3, n + 1)
        )
    elif check in ("recurrence", "sum-identity"):
        k = 0
    check_spec = ("pass",) if fmt == "text" else _golden(argv)
    return Request(
        tuple(argv), f"verify:{check}", family, n, check_spec,
        k=k, table_k2=k2, assoc_k3=k3, oracle_candidates=cand,
    )


# ---------------------------------------------------------------------------
# Slots

def _height_variants(target: int, fmt: str) -> list[Request]:
    """``enumerate --height`` variants whose line count is within 8% of target."""
    out = []
    for fam in ("dp", "odp"):
        for n in range(9, 15):
            for h in range(1, n + 1):
                if abs(f_height(Family(fam), n, h) - target) <= 0.08 * target:
                    out.append(_enumerate(fam, n, fmt, h))
    if len(out) < 2:
        raise ValueError(f"height target {target} has fewer than two variants")
    return out


def _rees_choices(n: int) -> tuple[int, int]:
    """The two heights p >= 1 whose quotients Q(n, p) are closest in size."""
    sizes = {p: f_height_odp(n, p) for p in range(1, n + 1)}
    pairs = [(p, q) for p in sizes for q in sizes if p < q]
    return min(pairs, key=lambda pq: abs(sizes[pq[0]] - sizes[pq[1]]) / sizes[pq[0]])


def _stream_slots() -> list[list[Request]]:
    """Element-wise work on chains of n = 9..14; no table is ever built.

    Closed-form requests are just over half the list, so the median request
    is a closed-form one (CLI and closed-form cost); the full enumerations
    and element-wise checks make up the tail.
    """
    fmts = ("text", "csv", "json")
    slots = []
    for max_n in range(9, 15):
        variants = [
            _table(fam, max_n, by, fmt, False)
            for fam in ("dp", "odp") for by in ("height", "fix") for fmt in fmts
        ]
        slots += [variants] * (7 if max_n in (9, 14) else 6)
    single = range(9, 15)
    slots += [[_verify("recurrence", n) for n in single]] * 11
    slots += [[_verify("sum-identity", n) for n in single]] * 11
    for target in (1300, 1700, 2500, 3500, 5000, 10000):
        slots.append(_height_variants(target, "text"))
    for target in (1000, 2500, 4000, 8000):
        slots.append(_height_variants(target, "jsonl"))
    for m in (9, 10, 11):
        for by in ("height", "fix"):
            slots.append([
                _table(fam, mm, by, fmt, True)
                for fam, mm in _size_class(m) for fmt in fmts
            ])
    for n, pair in ((9, "rl"), (9, "hd"), (10, "rl"), (10, "hd"), (11, "rl")):
        slots.append([_greens(fam, m, rel) for fam, m in _size_class(n) for rel in pair])
    # The request holding the most memory is fixed, so peak_rss_mb does not
    # move with the seed.
    slots.append([_greens("odp", 12, "h")])
    for n in (10, 11, 12):
        slots.append([_verify(check, n) for check in ("fix-trichotomy", "dichotomy")])
    for n in (9, 10, 11, 12, 13):
        slots.append([_enumerate(fam, m, "text") for fam, m in _size_class(n)])
    for n in (9, 10, 11, 12):
        slots.append([_enumerate(fam, m, "jsonl") for fam, m in _size_class(n)])
    for check, ns in (("inverse-laws", (9, 10)), ("formulas", (10, 11)),
                      ("phi-bijection", (10, 11))):
        slots += [[_verify(check, n)] for n in ns]
    return slots


def _tables_slots() -> list[list[Request]]:
    """Multiplication tables of both families on chains of n = 4..7.

    One ``verify --check greens`` at n = 6 carries about 40% of the pass.
    The counts put the median request among the n = 4..5 greens and
    categorical checks, a block of near-equal cost, so that the seed's
    choices do not move it.
    """
    verify_counts = {
        "greens": {6: 1, 5: 2, 4: 8},
        "eunitary": {6: 1, 5: 2, 4: 3},
        "categorical": {6: 2, 5: 2, 4: 3},
        "rees": {7: 1, 6: 2, 5: 2, 4: 2},
    }
    slots = []
    for check, counts in verify_counts.items():
        for n, count in counts.items():
            slots += [[_verify(check, n, fmt) for fmt in ("text", "json")]] * count
    structure_counts = {
        ("dp", 6, True): 1, ("odp", 7, False): 1,
        ("dp", 5, True): 2, ("odp", 6, True): 2,
        ("dp", 4, False): 3, ("odp", 5, True): 2,
        ("odp", 4, False): 3, ("dp", 4, True): 2,
    }
    for (fam, n, with_rees), count in structure_counts.items():
        rees = _rees_choices(n) if with_rees else (None,)
        variants = [_structure(fam, n, p, fmt) for p in rees for fmt in ("text", "json")]
        slots += [variants] * count
    return slots


def _oracle_slots() -> list[list[Request]]:
    """Brute-force oracle enumeration and the all-pairs closure check.

    The median request falls inside the 16 closure checks at n = 4 and the
    p75 inside the block of closure at n = 5 and the oracle at n = 6.
    """
    counts = {
        "oracle-equivalence": {7: 1, 6: 4, 5: 6, 4: 6},
        "closure": {6: 3, 5: 6, 4: 16},
    }
    slots = []
    for check, by_n in counts.items():
        for n, count in by_n.items():
            slots += [[_verify(check, n, fmt) for fmt in ("text", "json")]] * count
    return slots


WORKLOADS = {
    "stream": _stream_slots,
    "tables": _tables_slots,
    "oracle": _oracle_slots,
}


def generate(workload: str, seed: int) -> list[Request]:
    """The request list for ``workload`` under ``seed``; same seed, same list."""
    rng = random.Random(seed)
    requests = [rng.choice(variants) for variants in WORKLOADS[workload]()]
    rng.shuffle(requests)
    return requests


def golden_keys(workload: str) -> set[str]:
    """Every invocation whose digest a request of ``workload`` may be checked against."""
    return {
        req.check[1]
        for variants in WORKLOADS[workload]()
        for req in variants
        if req.check[0] == "golden"
    }


def mix(requests: list[Request]) -> dict[str, Counter]:
    """Request counts per command, keyed by (family, n)."""
    out: dict[str, Counter] = {}
    for req in requests:
        out.setdefault(req.command, Counter())[req.family, req.n] += 1
    return out
