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
from operator import getitem

from .chain_maps import from_json, pairs_to_json, to_text
from .checks import CHECKS, run_check
from .closed_forms import CLOSED_FORM_CAP, formula_count_table
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
)
from .isometry_families import (
    DEFAULT_ENUMERATION_CAP,
    STATISTICS,
    Family,
    empirical_count_table,
    enumerate_fast,
    enumerate_images,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# Rendering

class _Cells(dict):
    """A dict that makes a missing entry on first use, as ``make(key)``,
    and keeps it, so a table over the points of a long chain holds only the
    entries a request meets."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


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


def _render_count_table(family, statistic: str, rows, fmt: str) -> str:
    max_n = len(rows) - 1
    if fmt == "json":
        payload = {
            "family": family.value,
            "statistic": statistic,
            "max_n": max_n,
            "rows": [
                {"n": n, "counts": list(row), "sum": sum(row)}
                for n, row in enumerate(rows)
            ],
        }
        return _dumps(payload, indent=2) + "\n"
    body = [
        [str(n), *map(str, row), *[""] * (max_n - n), str(sum(row))]
        for n, row in enumerate(rows)
    ]
    if fmt == "csv":
        header = ["n", *(f"k{k}" for k in range(max_n + 1)), "sum"]
        return "".join(",".join(r) + "\n" for r in [header, *body])
    grid = [["n\\k", *map(str, range(max_n + 1)), "sum"], *body]
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
            "witness": wit_u,
        },
        "categorical": {
            "holds": holds_c,
            "witness": wit_c,
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

def cmd_enumerate(args) -> int:
    n = args.n
    # the request is checked here, before the first line is written
    walk = enumerate_images(n, Family(args.family), height=args.height, cap=args.cap)
    write = sys.stdout.write
    # one write per domain, of the lines of the maps on it: the bytes of
    # _compact(to_json(a)) in jsonl and of to_text(a) in text, for each map a
    if args.format == "jsonl":
        cell = _Cells(lambda x: _Cells(lambda y: f"[{x},{y}]"))
        head, tail = '{"map":[', f'],"n":{n}}}\n'
        between = tail + head
        for dom, images in walk:
            rows = [cell[x] for x in dom]
            maps = [",".join(map(getitem, rows, img)) for img in images]
            write(head + between.join(maps) + tail)
    else:
        text_of = _Cells(str).__getitem__
        for dom, images in walk:
            head = "(" + " ".join(map(text_of, dom)) + " / "
            maps = [" ".join(map(text_of, img)) for img in images]
            write(head + (")\n" + head).join(maps) + ")\n")
    return EXIT_OK


def cmd_table(args) -> int:
    fam = Family(args.family)
    if args.empirical:
        rows = empirical_count_table(args.by, fam, args.max_n, cap=args.cap)
    else:
        if args.max_n > CLOSED_FORM_CAP:
            raise ChainIsomError(
                f"formula tables are capped at n={CLOSED_FORM_CAP}, got {args.max_n}"
            )
        rows = formula_count_table(args.by, fam, args.max_n)
    sys.stdout.write(_render_count_table(fam, args.by, rows, args.format))
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
    n, fam, relation = args.n, Family(args.family), args.classes.upper()
    # the request is checked here, before the first line is written
    count, classes = greens_classes_criterion(n, fam, relation, cap=args.cap)
    write = sys.stdout.write
    if args.format == "json":
        # the bytes of json.dumps(payload, indent=2) for the payload
        # {"n", "family", "relation", "classes"}, written one class at a
        # time so that no more than one class is held as JSON
        head = _dumps({"n": n, "family": fam.value, "relation": relation}, indent=2)
        write(head[:-2] + ',\n  "classes": [')  # head[:-2] drops its "\n}"
        between = "\n"
        for block in classes:
            maps = [pairs_to_json(n, zip(dom, img)) for dom, img in block]
            write(between + "    " + _dumps(maps, indent=2).replace("\n", "\n    "))
            between = ",\n"
        # every family holds the empty map, so there is at least one class
        write("\n  ]\n}\n")
        return EXIT_OK
    # each map as to_text writes it
    text_of = _Cells(str).__getitem__
    write(f"{relation}-classes of {fam.value} on the {n}-chain: {count}\n")
    for k, block in enumerate(classes):
        maps, last = [], None
        for dom, img in block:
            # the members on one domain share its tuple, so a run of them
            # shares one head
            if dom is not last:
                last = dom
                head = "(" + " ".join(map(text_of, dom)) + " / "
            maps.append(head + " ".join(map(text_of, img)) + ")")
        write(f"[{k}] size {len(block)}: {' '.join(maps)}\n")
    return EXIT_OK


def cmd_structure(args) -> int:
    fam = Family(args.family)
    elements = enumerate_fast(args.n, fam)  # refuse a bad n, then a bad p, before the table
    quotient = None if args.rees_p is None else build_rees_quotient(args.n, args.rees_p)
    summaries = [_structure_summary(build_table(elements), f"{fam.value} n={args.n}")]
    if quotient is not None:
        summaries.append(_structure_summary(quotient, f"Q({args.n},{args.rees_p})"))
    if args.format == "json":
        print(_dumps({"structures": summaries}, indent=2))
    else:
        sys.stdout.write("\n".join(_render_structure_text(s) for s in summaries))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser

_FAMILIES = [fam.value for fam in Family]


def _add_cap(p):
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="enumeration size cap override")


def _enumerate_arguments(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("--height", type=int, default=None,
                   help="restrict to one image size")
    p.add_argument("--format", choices=["text", "jsonl"], default="text")
    _add_cap(p)


def _table_arguments(p):
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("--by", choices=list(STATISTICS), required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--empirical", action="store_true",
                   help="count by enumeration instead of closed forms")
    _add_cap(p)


def _verify_arguments(p):
    p.add_argument("--check", choices=sorted(CHECKS), required=True)
    p.add_argument("--n-range", required=True, metavar="A..B")
    p.add_argument("--format", choices=["text", "json"], default="text")


def _greens_arguments(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("--classes", choices=[rel.lower() for rel in RELATIONS], required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    _add_cap(p)


def _structure_arguments(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("--rees-p", type=int, default=None,
                   help="also summarise the height-p Rees quotient")
    p.add_argument("--format", choices=["text", "json"], default="text")


# Each subcommand: its help line, the function that adds its arguments to
# its subparser, and its handler, in the order the usage lists them.
COMMANDS = {
    "enumerate": ("stream all family elements", _enumerate_arguments, cmd_enumerate),
    "table": ("triangle of counts by height or fix", _table_arguments, cmd_table),
    "verify": ("run one verification suite", _verify_arguments, cmd_verify),
    "greens": ("list Green's classes", _greens_arguments, cmd_greens),
    "structure": ("structural property summary", _structure_arguments, cmd_structure),
}


def _build_parser(only=None) -> argparse.ArgumentParser:
    """The CLI's parser, with every subcommand, or with the one named
    ``only``.  A subcommand's own help and errors read the same either way;
    only the top-level usage line lists just ``only``.  Every argparse
    argument builds a help formatter, so a request parsed with its own
    subparser alone skips most of the parser's cost."""
    parser = argparse.ArgumentParser(
        prog="chainisom",
        description="Partial isometries of a finite chain: enumeration, "
        "counting tables, Green's structure, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in COMMANDS.items():
        if only is None or name == only:
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # --help, a missing command and an unknown one need every subcommand
    only = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args, extra = _build_parser(only).parse_known_args(argv)
        if extra:
            # the error's usage line lists every command: let the whole
            # parser write it
            _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ChainIsomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
