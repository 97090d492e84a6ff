"""Command-line entry point: enumeration, count tables, verification suites.

Everything printed to standard output is a pure function of the flags, so
identical invocations produce byte-identical output; wall-clock timings go
to standard error.  Exit codes: 0 success / all checks verified, 1 a
checked property failed (first witness printed), 2 usage or cap error.
"""

from __future__ import annotations

import argparse
import sys
import time

from .chain_maps import from_json, to_json, to_text
from .checks import CHECKS, run_check
from .closed_forms import formula_count_table
from .errors import ChainIsomError
from .greens_structure import (
    RELATIONS,
    build_rees_quotient,
    build_table,
    greens_classes_criterion,
    idempotents,
    is_categorical,
    is_inverse,
    is_zero_e_unitary,
    witness_to_json,
)
from .isometry_families import (
    DEFAULT_ENUMERATION_CAP,
    STATISTICS,
    Family,
    empirical_count_table,
    enumerate_fast,
)

FORMULA_TABLE_CAP = 60

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# Rendering

def _dumps(obj, **options) -> str:
    # imported on first use, not at the top: text output never needs json,
    # so a one-shot text run does not pay for loading it
    import json

    return json.dumps(obj, **options)


def _compact(obj) -> str:
    return _dumps(obj, separators=(",", ":"), sort_keys=True)


def _render_report_text(check: str, instances: list[dict], passed: bool) -> str:
    lines = []
    for inst in instances:
        status = "ok" if inst["pass"] else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in inst["params"].items())
        line = f"{status} {params}"
        if "witness" in inst:
            line += f" witness={_compact(inst['witness'])}"
        lines.append(line)
    good = sum(1 for inst in instances if inst["pass"])
    lines.append(f"{check}: {good}/{len(instances)} instances passed")
    lines.append("PASS" if passed else "FAIL")
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
        return _dumps(payload, indent=2) + "\n"
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
            "witness": witness_to_json(table, wit_u),
        },
        "categorical": {
            "holds": holds_c,
            "witness": witness_to_json(table, wit_c),
        },
    }


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
            elements = entry["witness"]["elements"]
            line += "  witness: " + ", ".join(to_text(from_json(e)) for e in elements)
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands

def _jsonl(a) -> str:
    # the bytes of _compact(to_json(a)), without json.dumps
    pairs = ",".join(f"[{x},{y}]" for x, y in a.pairs)
    return f'{{"map":[{pairs}],"n":{a.n}}}'


def cmd_enumerate(args) -> int:
    fam = Family(args.family)
    jsonl = args.format == "jsonl"
    write = sys.stdout.write
    for a in enumerate_fast(args.n, fam, height=args.height, cap=args.cap):
        write((_jsonl(a) if jsonl else to_text(a)) + "\n")
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
        lo, hi = map(int, parts)  # exactly two parts, both integers
    except ValueError:
        raise ChainIsomError(f"bad range {text!r}, expected A..B") from None
    if lo < 0 or hi < lo:
        raise ChainIsomError(f"bad range {text!r}, need 0 <= A <= B")
    return lo, hi


def cmd_verify(args) -> int:
    lo, hi = _parse_range(args.n_range)
    started = time.perf_counter()
    instances = run_check(args.check, lo, hi)
    passed = all(inst["pass"] for inst in instances)
    if args.format == "json":
        payload = {"check": args.check, "instances": instances, "pass": passed}
        print(_dumps(payload, indent=2))
    else:
        sys.stdout.write(_render_report_text(args.check, instances, passed))
    print(f"# wall time: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return EXIT_OK if passed else EXIT_VIOLATION


def cmd_greens(args) -> int:
    fam = Family(args.family)
    relation = args.classes.upper()
    elements = list(enumerate_fast(args.n, fam, cap=args.cap))
    partition = greens_classes_criterion(elements, fam, relation)
    if args.format == "json":
        payload = {
            "n": args.n,
            "family": fam.value,
            "relation": relation,
            "classes": [[to_json(elements[i]) for i in block] for block in partition],
        }
        print(_dumps(payload, indent=2))
        return EXIT_OK
    print(
        f"{relation}-classes of {fam.value} on the {args.n}-chain: {len(partition)}"
    )
    for k, block in enumerate(partition):
        members = " ".join(str(elements[i]) for i in block)
        print(f"[{k}] size {len(block)}: {members}")
    return EXIT_OK


def cmd_structure(args) -> int:
    fam = Family(args.family)
    table = build_table(enumerate_fast(args.n, fam))
    summaries = [_structure_summary(table, f"{fam.value} n={args.n}")]
    if args.rees_p is not None:
        quotient = build_rees_quotient(args.n, args.rees_p)
        summaries.append(_structure_summary(quotient, f"Q({args.n},{args.rees_p})"))
    if args.format == "json":
        print(_dumps({"structures": summaries}, indent=2))
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
    families = [fam.value for fam in Family]
    relations = [rel.lower() for rel in RELATIONS]

    def add_common(p):
        p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                       help="enumeration size cap override")

    p = sub.add_parser("enumerate", help="stream all family elements")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--height", type=int, default=None,
                   help="restrict to one image size")
    p.add_argument("--format", choices=["text", "jsonl"], default="text")
    add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("table", help="triangle of counts by height or fix")
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--by", choices=list(STATISTICS), required=True)
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
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--classes", choices=relations, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    add_common(p)
    p.set_defaults(func=cmd_greens)

    p = sub.add_parser("structure", help="structural property summary")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--rees-p", type=int, default=None,
                   help="also summarise the height-p Rees quotient")
    p.add_argument("--format", choices=["text", "json"], default="text")
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
