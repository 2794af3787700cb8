"""Trapspace analysis for Boolean networks.

Networks are maps on the set of n-bit configurations; a trapspace is a
subcube the network maps into itself.  The library computes principal,
minimal and full trapspace collections, the asynchronous, general
asynchronous and trapping graphs, the trapping closure and min-trapping
extension, an algebra on collections of subcubes, class predicates
(trapping, commutative, Marseille, Lille, globally idempotent, and their
graph-flavoured relatives), structured generators, and exhaustive or
sampled verification of the relationships between all of these.

Importing the package loads no layer: each public name is imported from
its home module on first use (PEP 562), so ``trapnets.cli --help`` starts
without numpy and each command loads only the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_HOMES = {
    "caps": ("CAPS", "check_cap"),
    "core": (
        "BooleanNetwork", "Configuration", "Mask", "Subcube", "interval", "lattice_combine",
        "opposite", "order_leq", "span", "update",
    ),
    "cubesets": (
        "CollectionFlags", "SubcubeCollection", "classify_collection", "collection_at",
        "lambda_closure", "mu_reduction", "parse_collection", "realize",
    ),
    "dynamics": (
        "HypercubeGraph", "build_graph", "graph_property", "network_power",
        "strongly_connected_components", "transient_and_period",
    ),
    "trapspaces": (
        "enumerate_trapspaces", "min_trapping_extension", "minimal_trapspaces",
        "principal_trapspace", "trapping_closure", "trapping_graph",
    ),
    "classes": (
        "ClassReport", "DIAGRAMS", "DiagramSpec", "NetworkProfile",
        "check_alternate_definitions", "classify_network", "is_commutative", "load_fixture",
        "min_trapspace_equivalent", "trapspace_equivalent", "verify_diagram",
    ),
    "generators": (
        "Arrangement", "FreeDimBehavior", "ValidationFailed", "arrangement_network",
        "constant_on_arrangements", "exhaustive_networks", "long_transient_trapping",
        "negation_on_subcubes", "random_commutative", "random_network", "union_disjoint",
    ),
    "netio": ("NetParseError", "export_dot", "network_to_text", "parse_truth_table"),
    "verify": ("Violation", "run_verification", "sample_population"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
# The layers that ``import trapnets`` made attributes when it imported them all.
_SUBMODULES = ("classes", "core", "cubesets", "dynamics", "generators", "netio", "trapspaces",
               "verify")

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    # Unknown names fail, so ``from trapnets import cli`` imports the submodule.
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
