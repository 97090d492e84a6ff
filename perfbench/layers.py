"""Per-layer metrics from the tracer's aggregates, and the checks on them.

Each metric is given per traced pass of the request list.  Counts repeat
exactly from pass to pass; times are means over the traced passes.
"""

from __future__ import annotations

import statistics

from tracer import ASSOCIATIVE, CONSTRUCT, ROOT, Stat, group_of

COMPOSE = "chain_maps.compose"
ENUM_FAST = "isometry_families.enumerate_fast"
ENUM_ORACLE = "isometry_families.enumerate_oracle"
BUILD_TABLE = "greens_structure.build_table"

# The layer each metric should move, and on which workload, is in
# README.md; EXPECTED lists the metrics that must be non-zero there.
EXPECTED = {
    "stream": (
        "chain_maps.construct.calls", "chain_maps.construct.time_s",
        "isometry_families.enumerate_fast.elements",
        "isometry_families.enumerate_fast.self_s",
        "greens_structure.greens_criterion.self_s",
        "closed_forms.self_s", "closed_forms.phi_bijection_report.self_s",
        "cli.self_s", "cli.stdout_bytes",
    ),
    "tables": (
        "chain_maps.compose.calls", "chain_maps.compose.time_s",
        "greens_structure.build_table.products", "greens_structure.build_table.self_s",
        "greens_structure.is_associative.triples", "greens_structure.is_associative.self_s",
        "greens_structure.greens_oracle.self_s", "greens_structure.greens_criterion.self_s",
        "greens_structure.predicates.self_s", "greens_structure.build_rees_quotient.self_s",
    ),
    "oracle": (
        "chain_maps.construct.calls", "chain_maps.construct.time_s",
        "chain_maps.compose.calls", "chain_maps.compose.time_s",
        "isometry_families.enumerate_oracle.candidates",
        "isometry_families.enumerate_oracle.members",
        "isometry_families.enumerate_oracle.yield_ratio",
        "isometry_families.enumerate_oracle.self_s",
        "isometry_families.is_member.calls",
    ),
}
NO_TABLES = ("greens_structure.build_table.products", "greens_structure.is_associative.triples")
EXPECTED_ZERO = {"stream": NO_TABLES, "oracle": NO_TABLES, "tables": ()}


def _per_pass(total, passes: int):
    if isinstance(total, int) and total % passes == 0:
        return total // passes
    return total / passes


def layer_metrics(stats: dict[str, Stat], run, passes: int) -> dict[str, dict]:
    empty = Stat()

    def stat(name):
        return stats.get(name, empty)

    def group_self(group):
        return sum(st.self for name, st in stats.items() if group_of(name) == group)

    def layer_self(layer):
        return sum(st.self for name, st in stats.items() if name.split(".")[0] == layer)

    oracle = stat(ENUM_ORACLE)
    candidates = oracle.children.get(CONSTRUCT, 0)
    untraced = statistics.median(run.passes[False])
    traced = statistics.median(run.passes[True])
    totals = {
        "chain_maps.construct.calls": (stat(CONSTRUCT).calls, "count"),
        "chain_maps.construct.time_s": (stat(CONSTRUCT).time, "s"),
        "chain_maps.compose.calls": (stat(COMPOSE).calls, "count"),
        "chain_maps.compose.time_s": (stat(COMPOSE).time, "s"),
        "chain_maps.self_s": (layer_self("chain_maps"), "s"),
        "isometry_families.enumerate_fast.elements": (stat(ENUM_FAST).items, "count"),
        "isometry_families.enumerate_fast.self_s": (stat(ENUM_FAST).self, "s"),
        "isometry_families.enumerate_oracle.candidates": (candidates, "count"),
        "isometry_families.enumerate_oracle.members": (oracle.items, "count"),
        "isometry_families.enumerate_oracle.self_s": (oracle.self, "s"),
        "isometry_families.is_member.calls": (stat("isometry_families.is_member").calls, "count"),
        "greens_structure.build_table.products": (
            stat(BUILD_TABLE).children.get(COMPOSE, 0), "count"),
        "greens_structure.build_table.self_s": (stat(BUILD_TABLE).self, "s"),
        "greens_structure.is_associative.triples": (stat(ASSOCIATIVE).triples, "count-computed"),
        "greens_structure.is_associative.self_s": (stat(ASSOCIATIVE).self, "s"),
        "closed_forms.self_s": (layer_self("closed_forms"), "s"),
        "closed_forms.phi_bijection_report.self_s": (
            group_self("closed_forms.phi_bijection_report"), "s"),
        "cli.self_s": (stat(ROOT).self, "s"),
        "cli.stdout_bytes": (run.stdout_bytes[True], "bytes"),
    }
    for group in ("greens_oracle", "greens_criterion", "predicates", "build_rees_quotient"):
        totals[f"greens_structure.{group}.self_s"] = (
            group_self(f"greens_structure.{group}"), "s")
    out = {name: {"value": _per_pass(v, passes), "unit": u} for name, (v, u) in totals.items()}
    out["isometry_families.enumerate_oracle.yield_ratio"] = {
        "value": oracle.items / candidates if candidates else 0.0, "unit": "ratio"}
    out["trace.overhead_ratio"] = {"value": traced / untraced - 1, "unit": "ratio"}
    return dict(sorted(out.items()))


def check_trace(workload: str, metrics: dict[str, dict], requests) -> list[tuple[bool, str]]:
    """Checks on the trace, as (passed, message): every span expected on the
    workload fired, no table work appears where none should, and the
    measured counts equal the closed-form predictions for the request list."""
    checks = []
    for name in EXPECTED[workload]:
        value = metrics[name]["value"]
        checks.append((bool(value), f"{name} = {value:g}, expected non-zero on {workload}"))
    for name in EXPECTED_ZERO[workload]:
        value = metrics[name]["value"]
        checks.append((not value, f"{name} = {value:g}, expected 0 on {workload}"))
    predicted = {
        "greens_structure.build_table.products": sum(r.table_k2 for r in requests),
        "greens_structure.is_associative.triples": sum(r.assoc_k3 for r in requests),
        "isometry_families.enumerate_oracle.candidates":
            sum(r.oracle_candidates for r in requests),
    }
    for name, expected in predicted.items():
        value = metrics[name]["value"]
        checks.append((value == expected,
                       f"{name} = {value} per pass, closed forms predict {expected}"))
    return checks
