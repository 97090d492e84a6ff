"""Outside-in tracer for the chainisom layers.

The tracer wraps every public function of the layer modules from outside
the package and leaves the package source untouched.  Modules import one
another's functions by name (``cli`` holds ``build_family_table``,
``greens_structure`` holds ``compose``), so a wrapper is installed in every
``chainisom`` module that holds the original, and on the class for
``PartialInjection.__init__`` (element construction) and
``SemigroupTable.is_associative``.

Coarse calls are recorded as spans.  Per-element calls (everything in
``chain_maps``, ``is_member``, the scalar closed forms) are kept only as
aggregates -- count, time, self time -- so memory stays bounded.  A call's
self time is its duration minus the time of the wrapped calls it made.
Generators (``enumerate_fast``, ``enumerate_oracle``) are timed at every
``next``, since their work runs while the caller iterates.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import weakref
from time import perf_counter

PACKAGE = "chainisom"
LAYERS = ("chain_maps", "isometry_families", "closed_forms", "greens_structure")
CONSTRUCT = "chain_maps.PartialInjection.__init__"
ASSOCIATIVE = "greens_structure.SemigroupTable.is_associative"
ROOT = "cli.main"
GENERATORS = {"isometry_families.enumerate_fast", "isometry_families.enumerate_oracle"}
SPANNED = GENERATORS | {
    ROOT,
    "isometry_families.count_by_height",
    "isometry_families.count_by_fix",
    "isometry_families.order",
    "isometry_families.empirical_count_table",
    "closed_forms.phi_bijection_report",
    "closed_forms.formula_count_table",
    "greens_structure.build_table",
    "greens_structure.build_family_table",
    "greens_structure.build_rees_quotient",
    "greens_structure.greens_classes_criterion",
    "greens_structure.greens_classes_oracle",
    "greens_structure.d_compositions_commute",
    "greens_structure.idempotents",
    "greens_structure.is_inverse",
    "greens_structure.is_zero_e_unitary",
    "greens_structure.is_categorical",
    "greens_structure.replay_witness",
    ASSOCIATIVE,
}

# Attribution groups: the per-layer self-time metrics and the per-command
# breakdown sum the self time of these functions.  A wrapped function in
# no group counts towards its layer's "other" share.
GROUPS = {
    "chain_maps.construct": {CONSTRUCT},
    "chain_maps.compose": {"chain_maps.compose"},
    "isometry_families.enumerate_fast": {"isometry_families.enumerate_fast"},
    "isometry_families.enumerate_oracle": {"isometry_families.enumerate_oracle"},
    "isometry_families.is_member": {"isometry_families.is_member"},
    "closed_forms.phi_bijection_report": {"closed_forms.phi_bijection_report"},
    "greens_structure.build_table": {"greens_structure.build_table"},
    "greens_structure.is_associative": {ASSOCIATIVE},
    "greens_structure.greens_oracle": {
        "greens_structure.greens_classes_oracle",
        "greens_structure.d_compositions_commute",
    },
    "greens_structure.greens_criterion": {"greens_structure.greens_classes_criterion"},
    "greens_structure.predicates": {
        "greens_structure.idempotents",
        "greens_structure.is_inverse",
        "greens_structure.is_zero_e_unitary",
        "greens_structure.is_categorical",
        "greens_structure.replay_witness",
    },
    "greens_structure.build_rees_quotient": {"greens_structure.build_rees_quotient"},
    "cli": {ROOT},
}
GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}


def group_of(name: str) -> str:
    return GROUP_OF.get(name) or name.split(".")[0] + ".other"


class Stat:
    """Aggregate for one wrapped function."""

    __slots__ = ("calls", "time", "self", "items", "children", "triples")

    def __init__(self):
        self.calls = 0
        self.time = 0.0
        self.self = 0.0
        self.items = 0  # values yielded, for generators
        self.children: dict[str, int] = {}  # direct per-element calls made
        self.triples = 0  # k^3 of each table checked, for is_associative


class Tracer:
    """Installs wrappers on the chainisom layers and aggregates what they see.

    A frame on the stack is ``[child_time, direct_calls, span_id]``;
    ``direct_calls`` counts the per-element calls made directly by a span
    (``None`` inside a per-element call, where nothing is counted).
    """

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = [[0.0, None, None]]
        self._next_span = 0
        self._request = 0
        self._open_iters: set = set()
        self._checked_tables = weakref.WeakSet()
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    originals[fn] = self._wrap(f"{layer}.{attr}", fn)
        for name, mod in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in originals:
                        self._patch(mod, attr, originals[value])
        chain_maps = sys.modules[f"{PACKAGE}.chain_maps"]
        greens = sys.modules[f"{PACKAGE}.greens_structure"]
        init = chain_maps.PartialInjection.__init__
        self._patch(chain_maps.PartialInjection, "__init__", self._wrap(CONSTRUCT, init))
        method = greens.SemigroupTable.is_associative
        self._patch(greens.SemigroupTable, "is_associative", self._wrap(ASSOCIATIVE, method))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        self.stats.setdefault(name, Stat())
        if name in GENERATORS:
            return self._generator(name, fn)
        if name in SPANNED:
            return self._span(name, fn)
        return self._hot(name, fn)

    # -- wrappers ---------------------------------------------------------

    def _hot(self, name, fn):
        stack, stat = self._stack, self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, None, None]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent = stack[-1]
                parent[0] += elapsed
                counts = parent[1]
                if counts is not None:
                    counts[name] = counts.get(name, 0) + 1
                stat.calls += 1
                stat.time += elapsed
                stat.self += elapsed - frame[0]

        return wrapper

    def _span(self, name, fn):
        stack, stat = self._stack, self.stats[name]
        is_assoc = name == ASSOCIATIVE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_assoc and args[0] not in self._checked_tables:
                self._checked_tables.add(args[0])
                stat.triples += len(args[0]) ** 3
            parent = stack[-1]
            frame = [0.0, {}, self._new_span()]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent[0] += end - start
                self._record(name, frame, parent[2], start, end, end - start, 0)

        return wrapper

    def _generator(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, {}, self._new_span()]
            stack.append(frame)
            start = perf_counter()
            try:
                inner = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent[0] += elapsed
            traced = _TracedIterator(self, name, inner, frame, parent[2], start, elapsed)
            self._open_iters.add(traced)
            return traced

        return wrapper

    def _new_span(self) -> int:
        self._next_span += 1
        return self._next_span

    def _record(self, name, frame, parent_id, start, end, busy, items) -> None:
        stat = self.stats[name]
        stat.calls += 1
        stat.time += busy
        stat.self += busy - frame[0]
        stat.items += items
        for child, count in frame[1].items():
            stat.children[child] = stat.children.get(child, 0) + count
        self.spans.append(
            (self._request, frame[2], parent_id, name, start, end, busy, busy - frame[0])
        )

    # -- requests ---------------------------------------------------------

    def root(self, main):
        """``main`` wrapped as the root span of one request."""
        span = self._wrap(ROOT, main)

        def request(argv):
            self._request += 1
            try:
                return span(argv)
            finally:
                for it in list(self._open_iters):
                    it.close_span()

        return request

    def self_times(self) -> dict[str, float]:
        return {name: stat.self for name, stat in self.stats.items()}

    def write_spans(self, path) -> None:
        keys = ("request", "span", "parent", "name", "start", "end", "busy_s", "self_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class _TracedIterator:
    """Times each ``next`` of a layer generator as work of that generator."""

    def __init__(self, tracer, name, inner, frame, parent_id, start, busy):
        self.tracer = tracer
        self.name = name
        self.inner = inner
        self.frame = frame  # accumulates child time and direct calls over all steps
        self.parent_id = parent_id
        self.start = start
        self.busy = busy
        self.items = 0
        self.closed = False

    def __iter__(self):
        return self

    def __next__(self):
        stack = self.tracer._stack
        parent = stack[-1]
        step = [0.0, self.frame[1], self.frame[2]]
        stack.append(step)
        done = False
        start = perf_counter()
        try:
            item = next(self.inner)
        except StopIteration:
            done = True
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            parent[0] += elapsed
            self.busy += elapsed
            self.frame[0] += step[0]
        if done:
            self.close_span()
            raise StopIteration
        self.items += 1
        return item

    def close_span(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.tracer._open_iters.discard(self)
        self.tracer._record(
            self.name, self.frame, self.parent_id, self.start, perf_counter(),
            self.busy, self.items,
        )
