"""The graph predicates and SCCs read off the graphs' row forms, against the
arc-by-arc oracles: every predicate and component of the asynchronous,
general asynchronous and trapping graphs, exhaustively at n <= 2, on
samples at n = 3..8 and on every generator kind at n = 9..12, in blocks of
1, 7 and 256 networks."""

from collections import Counter

import numpy as np
import pytest

from trapnets import BooleanNetwork, NetworkProfile, dynamics
from trapnets.classes import DIAGRAMS, ProfileBlock, load_fixture
from trapnets.cli import _analysis_report
from trapnets.dynamics import (
    GRAPH_PROPERTIES,
    HypercubeGraph,
    build_graph,
    general_rows,
    graph_property,
    strongly_connected_components,
    subcube_components,
)
from trapnets.generators import (
    exhaustive_networks,
    long_transient_trapping,
    random_commutative,
    random_constant_on_arrangements,
    random_negation_on_subcubes,
    random_network,
)
from trapnets.verify import run_verification, sample_population

from helpers import arcwise_graph_property, sampled_networks, tarjan_scc
from test_dynamics import networkx_properties, to_networkx

KINDS = ("a", "ga", "tg")
BLOCK_SIZES = (1, 7, 256)


# One network of every ``gen`` kind, seed 1.
GEN_KINDS = {
    "random": lambda n: random_network(n, 1),
    "commutative": lambda n: random_commutative(n, 1),
    "negation": lambda n: random_negation_on_subcubes(n, 1),
    "constant": lambda n: random_constant_on_arrangements(n, 1),
    "long-transient": long_transient_trapping,
}


def gen_kinds(n):
    return [make(n) for make in GEN_KINDS.values()]


def component_arrays(components, terminal, n):
    """(label, terminal) arrays of an SCC partition: the least vertex of the
    component of each x, and whether that component is terminal."""
    label = np.zeros(1 << n, dtype=np.int64)
    term = np.zeros(1 << n, dtype=bool)
    for comp, t in zip(components, terminal):
        label[list(comp)] = min(comp)
        term[list(comp)] = t
    return label, term


def oracle_facts(f, oracle_predicate, oracle_components, networkx_arcs):
    """Per graph kind, the six predicates and the (label, terminal) arrays of
    the oracles, and whether f is fixable: every terminal component of its
    asynchronous graph is a fixed point."""
    p = NetworkProfile(f)
    facts = {}
    for kind in KINDS:
        g = getattr(p, f"graph_{kind}")
        holds = {prop: oracle_predicate(g, prop) for prop in GRAPH_PROPERTIES}
        # The networkx transitivity check costs arcs x out-degree.
        if sum(bin(row).count("1") for row in g.out) <= networkx_arcs:
            assert holds == networkx_properties(to_networkx(g)), (kind, f.image)
        components, terminal = oracle_components(g)
        facts[kind] = holds, component_arrays(components, terminal, f.n)
        if kind == "a":
            facts["fixable"] = all(len(c) == 1 and f.image[c[0]] == c[0]
                                   for c, t in zip(components, terminal) if t)
    return facts


def row_components(block, kind):
    """The block's row SCCs of one graph kind, and which rows they hold for:
    the asynchronous graphs' always, a subcube-row graph's where it is
    transitive."""
    if kind == "a":
        return block["async_components"], np.ones(len(block.images), dtype=bool)
    free, base = block["principal"] if kind == "tg" else general_rows(block.images, block.n)
    return subcube_components(free, base, block.n), block[f"transitive_{kind}"]


def assert_rows_match(networks, oracle_predicate, oracle_components, networkx_arcs=0):
    """The block columns and row SCCs of networks of one dimension, in
    blocks of each size, against the oracles."""
    expected = [oracle_facts(f, oracle_predicate, oracle_components, networkx_arcs)
                for f in networks]
    for size in BLOCK_SIZES:
        for start in range(0, len(networks), size):
            block = ProfileBlock.of(networks[start:start + size])
            facts = expected[start:start + size]
            for kind in KINDS:
                (label, terminal), transitive = row_components(block, kind)
                for i, (f, want) in enumerate(zip(networks[start:], facts)):
                    holds, (want_label, want_terminal) = want[kind]
                    got = {prop: bool(block[f"{prop.replace('-', '_')}_{kind}"][i])
                           for prop in GRAPH_PROPERTIES}
                    assert got == holds, (kind, f.image)
                    if kind == "tg":
                        assert transitive[i]  # pt(y) lies in pt(x) for every y in pt(x)
                    if transitive[i]:
                        assert np.array_equal(label[i], want_label), (kind, f.image)
                        assert np.array_equal(terminal[i], want_terminal), (kind, f.image)
            assert block["fixable"].tolist() == [want["fixable"] for want in facts]


def test_rows_match_the_arc_oracles_exhaustively_at_n_up_to_2():
    for n in (1, 2):
        assert_rows_match(exhaustive_networks(n), arcwise_graph_property, tarjan_scc, 4096)


@pytest.mark.parametrize("n", range(3, 9))
def test_rows_match_the_arc_oracles_on_samples(n):
    networks = list(sampled_networks([n]))
    networks += [BooleanNetwork.identity(n), BooleanNetwork.negation(n)]
    assert_rows_match(networks, arcwise_graph_property, tarjan_scc, 4096)


def test_rows_match_the_arc_oracles_on_every_gen_kind_at_n_9():
    assert_rows_match(gen_kinds(9), arcwise_graph_property, tarjan_scc)


@pytest.mark.parametrize("n", range(10, 13))
def test_rows_match_the_bitset_graphs_on_every_gen_kind(n):
    # Above n = 9 the arc oracles walk up to 4^n arcs; the path-based search
    # on the bitsets is checked against them in test_dynamics.
    assert_rows_match(gen_kinds(n), graph_property, strongly_connected_components)


def counting_graphs(monkeypatch):
    """The bitset graphs built, and the graphs whose SCCs are searched."""
    built, searched = [], []
    post_init = HypercubeGraph.__post_init__
    monkeypatch.setattr(HypercubeGraph, "__post_init__", lambda g: (built.append(g), post_init(g)))
    search = dynamics.strongly_connected_components
    monkeypatch.setattr(dynamics, "strongly_connected_components",
                        lambda g: (searched.append(g), search(g))[1])
    return built, searched


# Every class column and graph predicate of a trapping network is read off
# its rows: no bitset graph is built, not even its general graph.
@pytest.mark.parametrize("kind", ["commutative", "negation", "constant", "long-transient"])
def test_full_analyze_of_a_trapping_network_builds_only_its_general_graph(monkeypatch, kind):
    built, searched = counting_graphs(monkeypatch)
    report = _analysis_report(GEN_KINDS[kind](11), "net", minimal_only=False)
    assert report["classes"]["trapping"]
    assert built == searched == []


def test_verification_builds_a_graph_only_for_a_general_graph_that_is_not_transitive(monkeypatch):
    built, _ = counting_graphs(monkeypatch)
    trapping = [make(4, seed) for seed in range(5) for make in (
        random_commutative, random_negation_on_subcubes, random_constant_on_arrangements)]
    for suite in ("theorems", "closure"):
        assert run_verification(trapping, suite) == []
    assert built == []
    # One general graph per network that is not trapping, and at most one per
    # counterexample fixture, which the diagrams suite profiles too.
    nets = sample_population(4, 30, 100)
    assert run_verification(nets) == []
    fixtures = [load_fixture(d.id, ce.label) for d in DIAGRAMS.values() for ce in d.counterexamples]
    graphs = Counter(g.out for g in built)
    monkeypatch.undo()
    general = Counter(build_graph(f, "general").out for f in nets if not NetworkProfile(f).trapping)
    assert sum(general.values()) > 20
    assert graphs - general <= Counter(build_graph(f, "general").out for f in fixtures)
    assert not general - graphs
