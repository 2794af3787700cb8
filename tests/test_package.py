"""The package namespace: every public name resolves, lazily, to the object
its home module defines."""

import importlib

import pytest

import trapnets

# The public names, as the package listed them when it imported every layer.
PUBLIC = [
    "Arrangement", "BooleanNetwork", "CAPS", "ClassReport", "CollectionFlags", "Configuration",
    "DIAGRAMS", "DiagramSpec", "FreeDimBehavior", "HypercubeGraph", "Mask", "NetParseError",
    "NetworkProfile", "Subcube", "SubcubeCollection", "ValidationFailed", "Violation",
    "arrangement_network", "build_graph", "check_alternate_definitions", "check_cap", "classes",
    "classify_collection", "classify_network", "collection_at", "constant_on_arrangements",
    "core", "cubesets", "dynamics", "enumerate_trapspaces", "exhaustive_networks", "export_dot",
    "generators", "graph_property", "interval", "is_commutative", "lambda_closure",
    "lattice_combine", "load_fixture", "long_transient_trapping", "min_trapping_extension",
    "min_trapspace_equivalent", "minimal_trapspaces", "mu_reduction", "negation_on_subcubes",
    "netio", "network_power", "network_to_text", "opposite", "order_leq", "parse_collection",
    "parse_truth_table", "principal_trapspace", "random_commutative", "random_network",
    "realize", "run_verification", "sample_population", "span",
    "strongly_connected_components", "transient_and_period", "trapping_closure",
    "trapping_graph", "trapspace_equivalent", "trapspaces", "union_disjoint", "update",
    "verify", "verify_diagram",
]


def test_public_names_are_unchanged():
    assert trapnets.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(trapnets))


def test_each_public_name_is_its_home_modules_object():
    for name in PUBLIC:
        got = getattr(trapnets, name)
        if name in trapnets._SUBMODULES:
            assert got is importlib.import_module(f"trapnets.{name}"), name
        else:
            home = importlib.import_module(f"trapnets.{trapnets._HOME[name]}")
            assert got is getattr(home, name), name
    assert trapnets.CAPS is trapnets.core.CAPS and trapnets.check_cap is trapnets.core.check_cap
    namespace = {}
    exec("from trapnets import *", namespace)
    assert all(namespace[name] is getattr(trapnets, name) for name in PUBLIC)


def test_unknown_names_are_not_attributes():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        trapnets.no_such_name
    from trapnets import cli  # a submodule the namespace does not list

    assert cli is importlib.import_module("trapnets.cli")
