"""Spans around the public functions of each trapnets module.

The wrappers are installed from outside the package: every module namespace
that binds one of the listed functions gets the wrapper in its place, and
each ``NetworkProfile`` cached property gets its function wrapped.  Spans
(name, start, end, parent) stay in memory until ``dump``.  Nothing under
``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# The functions timed in each layer, by module.  `core` has no hot public
# entry point; its cost shows in its callers' self time.
LAYERS = {
    "dynamics": (
        "strongly_connected_components", "graph_property", "build_graph",
        "transient_and_period", "network_power",
    ),
    "trapspaces": (
        "principal_pair", "enumerate_trapspaces", "minimal_trapspaces",
        "trapping_closure", "trapping_graph", "min_trapping_extension",
    ),
    "cubesets": ("realize", "lambda_closure", "mu_reduction", "classify_collection"),
    "classes": (
        "classify_network", "check_alternate_definitions", "verify_diagram",
        "trapspace_equivalent", "min_trapspace_equivalent", "is_commutative",
    ),
    "verify": (
        "sample_population", "run_verification",
        "alternate_definition_violations", "closure_law_violations",
        "monotonicity_violations", "equivalence_vector_violations",
        "collection_roundtrip_violations", "dynamics_claim_violations",
        "commutative_claim_violations", "hierarchy_violations",
    ),
    "netio": ("parse_truth_table", "network_to_text"),
    "generators": (
        "random_network", "random_commutative", "random_negation_on_subcubes",
        "random_constant_on_arrangements", "long_transient_trapping",
    ),
    "cli": ("main",),
}

SCC = "dynamics.strongly_connected_components"

# NetworkProfile's cached properties, reported as classes.profile.<name>.
PROFILE_PROPERTIES = (
    "graph_a", "graph_ga", "pt_pairs", "closure", "graph_tg", "pt_collection",
    "trapspace_collection", "minimal", "min_extension", "pt_flags",
    "fixed_bitset", "singles", "globally_flags", "trapping", "commutative",
    "bijective", "locally_bijective", "involutive", "locally_involutive",
    "idempotent", "locally_idempotent", "marseille", "lille",
    "globally_idempotent", "dynamically_local", "dpt", "fixable",
    "trapspace_fp", "interval_fp", "interval_ufp", "min_trapping",
)


def function_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def profile_names() -> list[str]:
    return [f"classes.profile.{p}" for p in PROFILE_PROPERTIES]


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.graphs: set[tuple[int, int]] = set()
        self._undo: list = []

    def wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        graphs = self.graphs if name == SCC else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if graphs is not None:
                g = args[0] if args else kwargs["g"]
                graphs.add((g.n, hash(g.out)))
            index = len(spans)
            spans.append([name_id, 0, 0, -1])
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = [name_id, start, clock(), parent]
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every listed function wherever a trapnets module binds it."""
        for mod in LAYERS:
            importlib.import_module(f"trapnets.{mod}")
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "trapnets" or key.startswith("trapnets."))
        ]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"trapnets.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self.wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._undo.append((module, attr, original))
        profile = sys.modules["trapnets.classes"].NetworkProfile
        for prop in PROFILE_PROPERTIES:
            descriptor = vars(profile)[prop]
            original = descriptor.func
            descriptor.func = self.wrap(f"classes.profile.{prop}", original)
            self._undo.append((descriptor, "func", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def record(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "distinct_graphs": len(self.graphs),
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.record(), fh, separators=(",", ":"))


class LayerTotals:
    """Calls and self time per span name, summed over many span records."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.distinct_graphs = 0

    def add(self, record: dict) -> None:
        names, spans = record["names"], record["spans"]
        # A span's parent field is the index of the enclosing span.
        child_ns = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name_id, start, end, _), inner in zip(spans, child_ns):
            name = names[name_id]
            self.calls[name] += 1
            self.self_ns[name] += (end - start) - inner
        self.distinct_graphs += record["distinct_graphs"]

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name in function_names():
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self.self_ns.get(name, 0) / 1e9, "s")
        scc_calls = self.calls.get(SCC, 0)
        out[f"{SCC}.calls_per_graph"] = (
            scc_calls / self.distinct_graphs if self.distinct_graphs else 0.0, "ratio",
        )
        for name in profile_names():
            out[f"{name}.self_s"] = (self.self_ns.get(name, 0) / 1e9, "s")
        return out
