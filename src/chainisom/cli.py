"""Command-line entry point: enumeration, count tables, verification suites.

Everything printed to standard output is a pure function of the flags, so
identical invocations produce byte-identical output; wall-clock timings go
to standard error.  Exit codes: 0 success / all checks verified, 1 a
checked property failed (first witness printed), 2 usage or cap error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from .chain_maps import compose, inverse, is_order_preserving, is_order_reversing, to_json
from .closed_forms import (
    f_fix,
    f_height,
    formula_count_table,
    phi_bijection_report,
    recurrence_check,
    verify_sum_identity,
)
from .errors import ChainIsomError
from .greens_structure import (
    build_family_table,
    build_rees_quotient,
    build_table,
    element_text,
    greens_classes_criterion,
    greens_classes_oracle,
    idempotents,
    is_categorical,
    is_inverse,
    is_zero_e_unitary,
    replay_witness,
    witness_to_json,
    RELATIONS,
)
from .isometry_families import (
    DEFAULT_ENUMERATION_CAP,
    Family,
    count_by_fix,
    count_by_height,
    empirical_count_table,
    enumerate_fast,
    enumerate_oracle,
    is_member,
)

FORMULA_TABLE_CAP = 60
FAMILIES = (Family.DP, Family.ODP)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


@dataclass
class VerificationReport:
    """Outcome of one verification run: per-instance results plus timing."""

    check: str
    n_range: tuple[int, int]
    instances: list[dict]
    passed: bool
    wall_time_s: float

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "instances": self.instances,
            "pass": self.passed,
        }


# ---------------------------------------------------------------------------
# Verification checks.  Each returns a list of instance dicts
# {"params": {...}, "pass": bool} plus an optional "witness" entry, which is
# also populated on expected failures (they are part of the story).

def _element_witness(**named) -> dict:
    return {key: to_json(a) for key, a in named.items()}


def _check_closure(lo, hi):
    out = []
    for n in range(lo, hi + 1):
        for fam in FAMILIES:
            elements = list(enumerate_fast(n, fam))
            bad = None
            for a in elements:
                for b in elements:
                    if not is_member(compose(a, b), fam):
                        bad = (a, b)
                        break
                if bad:
                    break
            inst = {"params": {"n": n, "family": fam.value}, "pass": bad is None}
            if bad:
                inst["witness"] = _element_witness(a=bad[0], b=bad[1])
            out.append(inst)
    return out


def _check_fix_trichotomy(lo, hi):
    out = []
    for n in range(lo, hi + 1):
        bad = None
        for a in enumerate_fast(n, Family.DP):
            fixes = sum(1 for x, y in a.pairs if x == y)
            if fixes not in (0, 1, a.height):
                bad = a
                break
        inst = {"params": {"n": n, "family": "dp"}, "pass": bad is None}
        if bad:
            inst["witness"] = _element_witness(element=bad)
        out.append(inst)
    return out


def _check_dichotomy(lo, hi):
    out = []
    for n in range(lo, hi + 1):
        bad = None
        for a in enumerate_fast(n, Family.DP):
            if not (is_order_preserving(a) or is_order_reversing(a)):
                bad = a
                break
        inst = {"params": {"n": n, "family": "dp"}, "pass": bad is None}
        if bad:
            inst["witness"] = _element_witness(element=bad)
        out.append(inst)
    return out


def _check_oracle_equivalence(lo, hi):
    out = []
    for n in range(lo, hi + 1):
        for fam in FAMILIES:
            same = list(enumerate_fast(n, fam)) == list(enumerate_oracle(n, fam))
            out.append({"params": {"n": n, "family": fam.value}, "pass": same})
    return out


def _check_formulas(lo, hi):
    out = []
    for n in range(lo, hi + 1):
        for fam in FAMILIES:
            for stat, counter, closed in (
                ("height", count_by_height, f_height),
                ("fix", count_by_fix, f_fix),
            ):
                empirical = counter(n, fam)
                formula = [closed(fam, n, k) for k in range(n + 1)]
                inst = {
                    "params": {"n": n, "family": fam.value, "statistic": stat},
                    "pass": empirical == formula,
                }
                if not inst["pass"]:
                    inst["witness"] = {"empirical": empirical, "formula": formula}
                out.append(inst)
    return out


def _check_recurrence(lo, hi):
    out = []
    for n in range(max(lo, 3), hi + 1):
        for fam in FAMILIES:
            ok = all(recurrence_check(n, p, fam) for p in range(3, n + 1))
            out.append({"params": {"n": n, "family": fam.value}, "pass": ok})
    return out


def _check_sum_identity(lo, hi):
    return [
        {"params": {"n": n}, "pass": verify_sum_identity(n)}
        for n in range(max(lo, 2), hi + 1)
    ]


def _check_phi_bijection(lo, hi):
    out = []
    for n in range(max(lo, 3), hi + 1):
        for p in range(3, n + 1):
            report = phi_bijection_report(n, p)
            inst = {"params": {"n": n, "p": p}, "pass": all(report.values())}
            if not inst["pass"]:
                inst["witness"] = report
            out.append(inst)
    return out


def _check_greens(lo, hi):
    out = []
    for n in range(lo, hi + 1):
        for fam in FAMILIES:
            elements = list(enumerate_fast(n, fam))
            table = build_table(elements)
            for rel in RELATIONS:
                same = (
                    greens_classes_criterion(elements, fam, rel).partition
                    == greens_classes_oracle(table, rel).partition
                )
                out.append(
                    {
                        "params": {"n": n, "family": fam.value, "relation": rel},
                        "pass": same,
                    }
                )
    return out


def _check_eunitary(lo, hi):
    out = []
    for n in range(lo, hi + 1):
        for fam in FAMILIES:
            table = build_family_table(n, fam)
            holds, witness = is_zero_e_unitary(table)
            if fam is Family.ODP or n <= 2:
                # violations need a reflection about an interior point
                ok = holds
            else:
                ok = not holds and replay_witness(table, witness)
            inst = {"params": {"n": n, "family": fam.value}, "pass": ok}
            if witness is not None:
                inst["witness"] = witness_to_json(table, witness)
            out.append(inst)
    return out


def _check_categorical(lo, hi):
    out = []
    for n in range(lo, hi + 1):
        table = build_family_table(n, Family.ODP)
        holds, witness = is_categorical(table)
        # categorical only while no three-factor product can vanish: n <= 1
        ok = holds if n <= 1 else (not holds and replay_witness(table, witness))
        inst = {"params": {"n": n, "semigroup": "odp"}, "pass": ok}
        if witness is not None:
            inst["witness"] = witness_to_json(table, witness)
        out.append(inst)
        for p in range(1, n + 1):
            quotient = build_rees_quotient(n, p)
            holds, witness = is_categorical(quotient.table)
            inst = {"params": {"n": n, "semigroup": "rees", "p": p}, "pass": holds}
            if witness is not None:
                inst["witness"] = witness_to_json(quotient.table, witness)
            out.append(inst)
    return out


def _check_rees(lo, hi):
    out = []
    for n in range(max(lo, 1), hi + 1):
        for p in range(1, n + 1):
            table = build_rees_quotient(n, p).table
            ok = (
                table.is_associative()
                and is_inverse(table)
                and is_zero_e_unitary(table)[0]
                and is_categorical(table)[0]
            )
            out.append({"params": {"n": n, "p": p}, "pass": ok})
    return out


def _check_inverse_laws(lo, hi):
    out = []
    for n in range(lo, hi + 1):
        for fam in FAMILIES:
            bad = None
            for a in enumerate_fast(n, fam):
                b = inverse(a)
                if compose(compose(a, b), a) != a or compose(compose(b, a), b) != b:
                    bad = a
                    break
            inst = {"params": {"n": n, "family": fam.value}, "pass": bad is None}
            if bad:
                inst["witness"] = _element_witness(element=bad)
            out.append(inst)
    return out


CHECKS = {
    "closure": _check_closure,
    "fix-trichotomy": _check_fix_trichotomy,
    "dichotomy": _check_dichotomy,
    "oracle-equivalence": _check_oracle_equivalence,
    "formulas": _check_formulas,
    "recurrence": _check_recurrence,
    "sum-identity": _check_sum_identity,
    "phi-bijection": _check_phi_bijection,
    "greens": _check_greens,
    "eunitary": _check_eunitary,
    "categorical": _check_categorical,
    "rees": _check_rees,
    "inverse-laws": _check_inverse_laws,
}


# ---------------------------------------------------------------------------
# Rendering

def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _render_report_text(report: VerificationReport) -> str:
    lines = []
    for inst in report.instances:
        status = "ok" if inst["pass"] else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in inst["params"].items())
        line = f"{status} {params}"
        if "witness" in inst:
            line += f" witness={_compact(inst['witness'])}"
        lines.append(line)
    total = len(report.instances)
    good = sum(1 for inst in report.instances if inst["pass"])
    lines.append(f"{report.check}: {good}/{total} instances passed")
    lines.append("PASS" if report.passed else "FAIL")
    return "\n".join(lines) + "\n"


def _render_count_table(tbl, fmt: str) -> str:
    max_n = len(tbl.rows) - 1
    if fmt == "csv":
        header = "n," + ",".join(f"k{k}" for k in range(max_n + 1)) + ",sum"
        lines = [header]
        for n, row in enumerate(tbl.rows):
            cells = [str(v) for v in row] + [""] * (max_n - n)
            lines.append(f"{n}," + ",".join(cells) + f",{tbl.row_sums[n]}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "family": tbl.family.value,
            "statistic": tbl.statistic,
            "max_n": max_n,
            "rows": [
                {"n": n, "counts": list(row), "sum": tbl.row_sums[n]}
                for n, row in enumerate(tbl.rows)
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    grid = [["n\\k"] + [str(k) for k in range(max_n + 1)] + ["sum"]]
    for n, row in enumerate(tbl.rows):
        grid.append(
            [str(n)]
            + [str(v) for v in row]
            + [""] * (max_n - n)
            + [str(tbl.row_sums[n])]
        )
    widths = [max(len(r[c]) for r in grid) for c in range(len(grid[0]))]
    return (
        "\n".join(
            "  ".join(cell.rjust(w) for cell, w in zip(r, widths)).rstrip()
            for r in grid
        )
        + "\n"
    )


def _structure_summary(table, name: str) -> dict:
    holds_u, wit_u = is_zero_e_unitary(table)
    holds_c, wit_c = is_categorical(table)
    return {
        "semigroup": name,
        "order": len(table),
        "idempotents": len(idempotents(table)),
        "inverse": is_inverse(table),
        "zero_e_unitary": {
            "holds": holds_u,
            "witness": None if wit_u is None else witness_to_json(table, wit_u),
        },
        "categorical": {
            "holds": holds_c,
            "witness": None if wit_c is None else witness_to_json(table, wit_c),
        },
    }


def _witness_element_text(entry: dict) -> str:
    if "label" in entry:
        return entry["label"]
    xs = " ".join(str(x) for x, _ in entry["map"])
    ys = " ".join(str(y) for _, y in entry["map"])
    return f"({xs} / {ys})"


def _render_structure_text(summary: dict) -> str:
    lines = [
        summary["semigroup"],
        f"order: {summary['order']}",
        f"idempotents: {summary['idempotents']}",
        f"inverse: {str(summary['inverse']).lower()}",
    ]
    for key, label in (("zero_e_unitary", "0-E-unitary"), ("categorical", "categorical")):
        entry = summary[key]
        line = f"{label}: {str(entry['holds']).lower()}"
        if entry["witness"] is not None:
            parts = ", ".join(
                _witness_element_text(e) for e in entry["witness"]["elements"]
            )
            line += f"  witness: {parts}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands

def cmd_enumerate(args) -> int:
    fam = Family(args.family)
    for a in enumerate_fast(args.n, fam, height=args.height, cap=args.cap):
        if args.format == "jsonl":
            print(_compact(to_json(a)))
        else:
            print(a)
    return EXIT_OK


def cmd_table(args) -> int:
    fam = Family(args.family)
    if args.empirical:
        if args.max_n > args.cap:
            raise ChainIsomError(
                f"--empirical tables are capped at n={args.cap}, got {args.max_n}"
            )
        tbl = empirical_count_table(args.by, fam, args.max_n, cap=args.cap)
    else:
        if args.max_n > FORMULA_TABLE_CAP:
            raise ChainIsomError(
                f"formula tables are capped at n={FORMULA_TABLE_CAP}, got {args.max_n}"
            )
        tbl = formula_count_table(args.by, fam, args.max_n)
    sys.stdout.write(_render_count_table(tbl, args.format))
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split("..") if ".." in text else [text, text]
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except (ValueError, IndexError):
        raise ChainIsomError(f"bad range {text!r}, expected A..B") from None
    if lo < 0 or hi < lo:
        raise ChainIsomError(f"bad range {text!r}, need 0 <= A <= B")
    return lo, hi


def cmd_verify(args) -> int:
    lo, hi = _parse_range(args.n_range)
    started = time.perf_counter()
    instances = CHECKS[args.check](lo, hi)
    report = VerificationReport(
        check=args.check,
        n_range=(lo, hi),
        instances=instances,
        passed=all(inst["pass"] for inst in instances),
        wall_time_s=time.perf_counter() - started,
    )
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        sys.stdout.write(_render_report_text(report))
    print(f"# wall time: {report.wall_time_s:.3f}s", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def cmd_greens(args) -> int:
    fam = Family(args.family)
    elements = list(enumerate_fast(args.n, fam, cap=args.cap))
    classes = greens_classes_criterion(elements, fam, args.classes)
    if args.format == "json":
        payload = {
            "n": args.n,
            "family": fam.value,
            "relation": classes.relation,
            "classes": [
                [to_json(elements[i]) for i in block] for block in classes.partition
            ],
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(
        f"{classes.relation}-classes of {fam.value} on the {args.n}-chain: "
        f"{len(classes.partition)}"
    )
    for k, block in enumerate(classes.partition):
        members = " ".join(str(elements[i]) for i in block)
        print(f"[{k}] size {len(block)}: {members}")
    return EXIT_OK


def cmd_structure(args) -> int:
    fam = Family(args.family)
    table = build_family_table(args.n, fam, cap=args.cap)
    summaries = [_structure_summary(table, f"{fam.value} n={args.n}")]
    if args.rees_p is not None:
        quotient = build_rees_quotient(args.n, args.rees_p, cap=args.cap)
        summaries.append(
            _structure_summary(quotient.table, f"Q({args.n},{args.rees_p})")
        )
    if args.format == "json":
        print(json.dumps({"structures": summaries}, indent=2))
    else:
        sys.stdout.write("\n".join(_render_structure_text(s) for s in summaries))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainisom",
        description="Partial isometries of a finite chain: enumeration, "
        "counting tables, Green's structure, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, cap_default=DEFAULT_ENUMERATION_CAP):
        p.add_argument("--cap", type=int, default=cap_default,
                       help="enumeration size cap override")

    p = sub.add_parser("enumerate", help="stream all family elements")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=["dp", "odp"], required=True)
    p.add_argument("--height", type=int, default=None,
                   help="restrict to one image size")
    p.add_argument("--format", choices=["text", "jsonl"], default="text")
    add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("table", help="triangle of counts by height or fix")
    p.add_argument("--family", choices=["dp", "odp"], required=True)
    p.add_argument("--by", choices=["height", "fix"], required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--empirical", action="store_true",
                   help="count by enumeration instead of closed forms")
    add_common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("--check", choices=sorted(CHECKS), required=True)
    p.add_argument("--n-range", required=True, metavar="A..B")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("greens", help="list Green's classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=["dp", "odp"], required=True)
    p.add_argument("--classes", choices=["r", "l", "h", "d"], required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    add_common(p)
    p.set_defaults(func=cmd_greens)

    p = sub.add_parser("structure", help="structural property summary")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=["dp", "odp"], required=True)
    p.add_argument("--rees-p", type=int, default=None,
                   help="also summarise the height-p Rees quotient")
    p.add_argument("--format", choices=["text", "json"], default="text")
    add_common(p)
    p.set_defaults(func=cmd_structure)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ChainIsomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
