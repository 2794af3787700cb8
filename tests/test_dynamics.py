import networkx as nx
import numpy as np
import pytest

from trapnets import (
    BooleanNetwork,
    build_graph,
    graph_property,
    network_power,
    random_network,
    strongly_connected_components,
    transient_and_period,
)
from trapnets.dynamics import GRAPH_PROPERTIES, HypercubeGraph
from trapnets.generators import (
    exhaustive_networks,
    long_transient_trapping,
    random_commutative,
    random_constant_on_arrangements,
    random_negation_on_subcubes,
)
from trapnets.trapspaces import trapping_graph

from helpers import (
    NotReflexive,
    NotSubcube,
    arcwise_graph_property,
    cfg,
    f_ex3,
    net_from_arcs,
    network_from_graph,
    power_iteration_transient_and_period,
    sampled_networks,
    stepwise_transient_and_period,
    tarjan_scc,
)


def to_networkx(g):
    G = nx.DiGraph()
    G.add_nodes_from(range(1 << g.n))
    G.add_edges_from(g.arcs())
    return G


# --- graph construction


def test_general_graph_interval_is_out_neighbourhood():
    g = build_graph(f_ex3(), "general")
    face = {cfg(s).bits for s in ("000", "010", "100", "110")}
    out = g.out[cfg("000").bits]
    assert {y for y in range(8) if out >> y & 1} == face


def test_asynchronous_identity_is_loops_only():
    g = build_graph(BooleanNetwork.identity(3), "asynchronous")
    assert all(g.out[x] == 1 << x for x in range(8))


def test_general_negation_is_complete():
    g = build_graph(BooleanNetwork.negation(3), "general")
    assert all(row == 0xFF for row in g.out)


def test_asynchronous_subset_of_general():
    for seed in range(10):
        f = random_network(4, seed)
        a = build_graph(f, "asynchronous")
        ga = build_graph(f, "general")
        assert all(r | s == s for r, s in zip(a.out, ga.out))
        assert graph_property(a, "reflexive") and graph_property(ga, "reflexive")


def test_asynchronous_subset_of_general_exhaustive_n2():
    for f in exhaustive_networks(2):
        a, ga = build_graph(f, "asynchronous"), build_graph(f, "general")
        assert all(r | s == s for r, s in zip(a.out, ga.out))


# --- graph -> network


def test_network_from_graph_roundtrip():
    for n in range(1, 6):
        for seed in range(4):
            f = random_network(n, seed)
            assert network_from_graph(build_graph(f, "general")) == f


def test_network_from_graph_rejects_non_subcube():
    out = [1 << x for x in range(4)]
    out[0] |= 1 << 3  # {00, 11} is not a subcube
    with pytest.raises(NotSubcube) as info:
        network_from_graph(HypercubeGraph(2, tuple(out)))
    assert info.value.vertex == 0


def test_network_from_graph_rejects_missing_loop():
    out = [1 << x for x in range(4)]
    out[0] = 1 << 2  # 00 -> 01 only
    with pytest.raises(NotReflexive):
        network_from_graph(HypercubeGraph(2, tuple(out)))


# --- predicates


def test_negation_general_graph_is_symmetric():
    assert graph_property(build_graph(BooleanNetwork.negation(3), "general"), "symmetric")


def test_worked_example_general_graph_not_transitive():
    # 001 -> 000 -> 010 without 001 -> 010
    g = build_graph(f_ex3(), "general")
    assert g.out[cfg("001").bits] >> cfg("000").bits & 1
    assert g.out[cfg("000").bits] >> cfg("010").bits & 1
    assert not g.out[cfg("001").bits] >> cfg("010").bits & 1
    assert not graph_property(g, "transitive")


def test_four_cycle_asynchronous_graph_is_oriented():
    four_cycle = net_from_arcs(2, ["00>10", "10>11", "11>01", "01>00"])
    assert graph_property(build_graph(four_cycle, "asynchronous"), "oriented")


def test_unknown_property_rejected():
    g = build_graph(BooleanNetwork.identity(2), "asynchronous")
    with pytest.raises(ValueError):
        graph_property(g, "acyclic")


def test_properties_match_networkx_oracle():
    for seed in range(8):
        f = random_network(3, seed)
        for kind in ("asynchronous", "general"):
            g = build_graph(f, kind)
            G = to_networkx(g)
            arcs = set(G.edges())
            assert graph_property(g, "symmetric") == all((v, u) in arcs for u, v in arcs)
            assert graph_property(g, "transitive") == all(
                (u, w) in arcs for u, v in arcs for w in G.successors(v)
            )
            assert graph_property(g, "oriented") == all(
                (v, u) not in arcs for u, v in arcs if u != v
            )
            assert graph_property(g, "triangular") == all(
                len(c) == 1 for c in nx.strongly_connected_components(G)
            )


# --- strongly connected components


def test_scc_identity_all_singleton_terminal():
    comps, terminal = strongly_connected_components(
        build_graph(BooleanNetwork.identity(3), "asynchronous")
    )
    assert len(comps) == 8
    assert all(terminal)


def test_scc_negation_single_bit():
    comps, terminal = strongly_connected_components(
        build_graph(BooleanNetwork.negation(1), "asynchronous")
    )
    assert comps == ((0, 1),)
    assert terminal == (True,)


def test_scc_worked_example_terminal_components():
    g = build_graph(f_ex3(), "asynchronous")
    comps, terminal = strongly_connected_components(g)
    got = {comps[i] for i in range(len(comps)) if terminal[i]}
    assert got == {(cfg("100").bits,), (cfg("101").bits,), (cfg("110").bits,)}


def test_scc_matches_networkx():
    for seed in range(8):
        f = random_network(3, seed + 40)
        g = build_graph(f, "asynchronous")
        comps, terminal = strongly_connected_components(g)
        G = to_networkx(g)
        expected = {frozenset(c) for c in nx.strongly_connected_components(G)}
        assert {frozenset(c) for c in comps} == expected
        cond = nx.condensation(G)
        term_nx = {
            frozenset(cond.nodes[i]["members"])
            for i in cond.nodes
            if cond.out_degree(i) == 0
        }
        got = {frozenset(comps[i]) for i in range(len(comps)) if terminal[i]}
        assert got == term_nx
        # topological order: no arc goes from a later to an earlier component
        position = {v: i for i, c in enumerate(comps) for v in c}
        assert all(position[u] <= position[v] for u, v in g.arcs())


def test_scc_members_mutually_reachable():
    for seed in range(4):
        g = build_graph(random_network(3, seed), "general")
        comps, _ = strongly_connected_components(g)
        for u, v in g.arcs(include_loops=False):
            if graph_property(g, "symmetric"):
                same = any(u in c and v in c for c in comps)
                assert same


def three_graphs(f):
    return (build_graph(f, "asynchronous"), build_graph(f, "general"), trapping_graph(f))


def networkx_properties(G) -> dict[str, bool]:
    """The six predicates from their definitions, on a networkx digraph."""
    arcs = set(G.edges())
    cond = nx.condensation(G)
    sizes = {i: len(cond.nodes[i]["members"]) for i in cond.nodes}
    return {
        "reflexive": all((v, v) in arcs for v in G.nodes),
        "symmetric": all((v, u) in arcs for u, v in arcs),
        "transitive": all((u, w) in arcs for u, v in arcs for w in G.successors(v)),
        "oriented": all((v, u) not in arcs for u, v in arcs if u != v),
        "triangular": all(size == 1 for size in sizes.values()),
        "sink-terminal": all(
            sizes[i] == 1 for i in cond.nodes if cond.out_degree(i) == 0
        ),
    }


def assert_graph_matches_oracles(g):
    comps, terminal = strongly_connected_components(g)
    assert g.components == (comps, terminal)
    oracle_comps, oracle_terminal = tarjan_scc(g)
    # Same components with the same terminal flags; the topological order
    # need not be Tarjan's, but it must be one.
    assert dict(zip(comps, terminal)) == dict(zip(oracle_comps, oracle_terminal))
    assert len(comps) == len(oracle_comps)
    assert all(list(c) == sorted(c) for c in comps)
    position = {v: i for i, c in enumerate(comps) for v in c}
    assert all(position[u] <= position[v] for u, v in g.arcs())
    G = to_networkx(g)
    assert {frozenset(c) for c in comps} == {
        frozenset(c) for c in nx.strongly_connected_components(G)
    }
    got = {p: graph_property(g, p) for p in GRAPH_PROPERTIES}
    assert got == {p: arcwise_graph_property(g, p) for p in GRAPH_PROPERTIES}
    # The networkx transitivity check costs arcs x out-degree.
    if G.number_of_edges() <= 4096:
        assert got == networkx_properties(G)


def test_graphs_match_oracles_exhaustive_n2():
    for f in exhaustive_networks(2):
        for g in three_graphs(f):
            assert_graph_matches_oracles(g)


def test_graphs_match_oracles_sampled():
    for f in sampled_networks():
        for g in three_graphs(f):
            assert_graph_matches_oracles(g)


@pytest.mark.parametrize("n", range(1, 9))
def test_graphs_match_oracles_identity_negation_long_transient(n):
    # Many singleton components, one full component, and a long chain.
    nets = [BooleanNetwork.identity(n), BooleanNetwork.negation(n)]
    if n >= 3:
        nets.append(long_transient_trapping(n))
    for f in nets:
        for g in three_graphs(f):
            assert_graph_matches_oracles(g)


def gray_walk(n, cycle):
    """The network stepping along the Gray code: g_i -> g_(i+1), with the
    last code fixed (a chain) or stepping back to the first (a cycle)."""
    codes = [i ^ i >> 1 for i in range(1 << n)]
    image = [0] * (1 << n)
    for a, b in zip(codes, codes[1:] + [codes[0] if cycle else codes[-1]]):
        image[a] = b
    return BooleanNetwork(n, tuple(image))


def random_graphs(n, rng):
    """Generic digraphs on B^n: random rows at several densities, with and
    without loops, their symmetrised forms, and the empty and complete
    graphs."""
    size = 1 << n
    full = (1 << size) - 1
    graphs = [HypercubeGraph(n, (0,) * size), HypercubeGraph(n, (full,) * size)]
    for density in (0.02, 0.1, 0.3, 0.7):
        for _ in range(6):
            bits = rng.random((size, size)) < density
            rows = [sum(1 << y for y in np.flatnonzero(row).tolist()) for row in bits]
            back = [sum(1 << x for x in np.flatnonzero(bits[:, y]).tolist()) for y in range(size)]
            graphs.append(HypercubeGraph(n, tuple(rows)))
            graphs.append(HypercubeGraph(n, tuple(r | 1 << x for x, r in enumerate(rows))))
            graphs.append(HypercubeGraph(n, tuple(r | b for r, b in zip(rows, back))))
    return graphs


@pytest.mark.parametrize("n", range(1, 11))
def test_scc_search_on_gray_chains_and_cycles(n):
    # The chain's search is as deep as the cube, with one component per
    # vertex; the cycle is one component.
    for cycle, count in ((False, 1 << n), (True, 1)):
        g = build_graph(gray_walk(n, cycle), "general")
        assert_graph_matches_oracles(g)
        assert len(g.components[0]) == count


@pytest.mark.parametrize("n", range(1, 10))
def test_scc_search_on_a_dense_graph_that_is_not_transitive(n):
    # Negation with f(0) = 1: every row is the whole cube but 0's, {0, 1}.
    # At n = 1 that is negation, whose graph is complete.
    image = list(BooleanNetwork.negation(n).image)
    image[0] = 1
    g = build_graph(BooleanNetwork(n, tuple(image)), "general")
    assert_graph_matches_oracles(g)
    assert graph_property(g, "transitive") == (n == 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_scc_search_on_random_generic_graphs(n):
    for g in random_graphs(n, np.random.default_rng(n)):
        assert_graph_matches_oracles(g)


def test_scc_matches_tarjan_random_n9():
    for g in three_graphs(random_network(9, 2)):
        comps, terminal = g.components
        assert dict(zip(comps, terminal)) == dict(zip(*tarjan_scc(g)))
        for p in GRAPH_PROPERTIES:
            assert graph_property(g, p) == arcwise_graph_property(g, p)


def test_cached_rows_leave_equality_and_hash_unchanged():
    f = long_transient_trapping(5)  # trapping, so its two graphs coincide
    ga, tg = build_graph(f, "general"), trapping_graph(f)
    before = (hash(ga), hash(tg))
    assert ga == tg
    for g in (ga, tg):
        assert g.components
    assert ga == tg
    assert (hash(ga), hash(tg)) == before == (hash(build_graph(f, "general")),) * 2


# --- powers, transients, periods


def test_power_basics():
    f = f_ex3()
    assert network_power(f, 0) == BooleanNetwork.identity(3)
    assert network_power(f, 1) == f
    assert network_power(f, 3).image == tuple(
        f.image[f.image[f.image[x]]] for x in range(8)
    )


def test_transient_period_identity():
    assert transient_and_period(BooleanNetwork.identity(3)) == (0, 1)


def test_transient_period_negation():
    assert transient_and_period(BooleanNetwork.negation(3)) == (0, 2)


def test_transient_period_long_transient_construction():
    assert transient_and_period(long_transient_trapping(4)) == (4, 2)


def test_dynamically_local_iff_short_transient_and_period():
    for seed in range(30):
        f = random_network(3, seed)
        t, p = transient_and_period(f)
        assert (network_power(f, 3) == f) == (t <= 1 and p <= 2)


def test_transient_period_matches_power_iteration():
    randoms = [random_network(n, seed) for n in range(1, 7) for seed in range(10)]
    for f in exhaustive_networks(2) + randoms + list(sampled_networks()):
        assert transient_and_period(f) == power_iteration_transient_and_period(f)


def test_transient_period_of_prime_cycle_permutation():
    # Cycles of lengths 2, 3, 5, ..., 17 on 58 of the 64 points, the rest
    # fixed: power iteration would need 510,510 whole tables.
    image = list(range(64))
    start = 0
    for length in (2, 3, 5, 7, 11, 13, 17):
        for i in range(length):
            image[start + i] = start + (i + 1) % length
        start += length
    assert transient_and_period(BooleanNetwork(6, tuple(image))) == (0, 510510)


def test_transient_period_random_n16():
    f = random_network(16, 1)
    assert transient_and_period(f) == stepwise_transient_and_period(f)
    assert transient_and_period(f)[1] == 1624260


def test_transient_period_matches_both_oracles_exhaustively_and_sampled():
    networks = exhaustive_networks(1) + exhaustive_networks(2) + list(sampled_networks())
    for f in networks:
        expected = power_iteration_transient_and_period(f)
        assert transient_and_period(f) == expected == stepwise_transient_and_period(f)


def test_transient_period_of_random_permutations_and_maps():
    # Random permutations have several long cycles, so a large lcm.
    rng = np.random.default_rng(7)
    for n in (5, 8, 11, 14):
        for image in (rng.permutation(1 << n), rng.integers(0, 1 << n, 1 << n)):
            f = BooleanNetwork(n, tuple(image.tolist()))
            assert transient_and_period(f) == stepwise_transient_and_period(f)


@pytest.mark.parametrize("n", [16, 20])
def test_transient_period_of_every_kind_at_large_n(n):
    # Random at n = 16 only: the stepwise oracle takes one whole-table step
    # per unit of a random network's transient.
    kinds = [random_commutative, random_negation_on_subcubes, random_constant_on_arrangements]
    networks = [kind(n, 3) for kind in kinds] + [long_transient_trapping(n)]
    if n == 16:
        networks.append(random_network(n, 3))
    for f in networks:
        assert transient_and_period(f) == stepwise_transient_and_period(f)


def test_graph_rows_must_be_integers():
    for out in ((1.0, 3.0), (1, "3"), (1, None)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            HypercubeGraph(1, out)
    with pytest.raises(ValueError, match=r"^out-neighbourhood bitset out of range$"):
        HypercubeGraph(1, (1, 4))
    assert HypercubeGraph(1, (np.int64(1), 3)).out == (1, 3)
