"""Trapspace analysis for Boolean networks.

Networks are maps on the set of n-bit configurations; a trapspace is a
subcube the network maps into itself.  The library computes principal,
minimal and full trapspace collections, the asynchronous, general
asynchronous and trapping graphs, the trapping closure and min-trapping
extension, an algebra on collections of subcubes, class predicates
(trapping, commutative, Marseille, Lille, globally idempotent, and their
graph-flavoured relatives), structured generators, and exhaustive or
sampled verification of the relationships between all of these.
"""

from .core import (
    CAPS,
    BooleanNetwork,
    Configuration,
    Mask,
    Subcube,
    check_cap,
    interval,
    lattice_combine,
    opposite,
    order_leq,
    span,
    update,
)
from .cubesets import (
    CollectionFlags,
    SubcubeCollection,
    classify_collection,
    collection_at,
    lambda_closure,
    mu_reduction,
    parse_collection,
    realize,
)
from .dynamics import (
    HypercubeGraph,
    build_graph,
    graph_property,
    network_power,
    strongly_connected_components,
    transient_and_period,
)
from .trapspaces import (
    enumerate_trapspaces,
    min_trapping_extension,
    minimal_trapspaces,
    principal_trapspace,
    trapping_closure,
    trapping_graph,
)
from .classes import (
    ClassReport,
    DIAGRAMS,
    DiagramSpec,
    NetworkProfile,
    check_alternate_definitions,
    classify_network,
    is_commutative,
    load_fixture,
    min_trapspace_equivalent,
    trapspace_equivalent,
    verify_diagram,
)
from .generators import (
    Arrangement,
    FreeDimBehavior,
    ValidationFailed,
    arrangement_network,
    constant_on_arrangements,
    exhaustive_networks,
    long_transient_trapping,
    negation_on_subcubes,
    random_commutative,
    random_network,
    union_disjoint,
)
from .netio import NetParseError, export_dot, network_to_text, parse_truth_table
from .verify import Violation, run_verification, sample_population

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
