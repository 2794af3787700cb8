"""The class layer of sampled `verify` as stacked passes: every column of a
``ProfileBlock`` against its labelled oracle, the former per-network body,
exhaustively at n <= 2 and on samples at n = 3..6, for blocks of one network
and of many."""

import gc
import weakref

import numpy as np
import pytest
from trapnets import BooleanNetwork, NetworkProfile, check_alternate_definitions
from trapnets import classes, verify
from trapnets.classes import (
    _ARC_PREDICATES,
    VECTORS,
    ProfileBlock,
    _submasks,
    globally_rows,
    interval_arrays,
)
from trapnets.core import iter_submasks
from trapnets.generators import (
    exhaustive_networks,
    random_commutative,
    random_constant_on_arrangements,
    random_negation_on_subcubes,
    random_network,
)
from trapnets.verify import distance_bound_rows, sample_population

from helpers import (
    arcwise_graph_property,
    f_ex3,
    globally_sweep,
    loop_alternate_definitions,
    loop_class_flags,
    loop_distance_bound_violation,
    loop_is_constant_on_arrangements,
    loop_is_negation_on_subcubes,
)


def populations():
    """Networks of one dimension each: all of n = 1 and n = 2, and sampled
    populations (random and structured) at n = 3..6, with the identity and
    the negation."""
    yield exhaustive_networks(1)
    yield exhaustive_networks(2)
    for n in range(3, 7):
        extra = [BooleanNetwork.identity(n), BooleanNetwork.negation(n)]
        yield sample_population(n, 10 if n < 6 else 4, 40 + n) + extra


def test_block_columns_match_the_per_network_oracles():
    seen = set()
    for networks in populations():
        n = networks[0].n
        whole = ProfileBlock.of(networks)
        problems = distance_bound_rows(whole.images, n, whole["intervals"])
        for i, f in enumerate(networks):
            p = NetworkProfile(f)
            alone = p.block
            for name, expected in loop_class_flags(p).items():
                assert bool(whole[name][i]) == bool(alone[name][0]) == expected, (name, f.image)
                seen.add((name, expected))
            for theorem, names in VECTORS.items():
                expected = loop_alternate_definitions(p, theorem)
                assert tuple(whole.vector(theorem)[i].tolist()) == expected, (theorem, f.image)
                assert check_alternate_definitions(f, theorem) == expected
                seen.update(zip(names, expected))
            assert p.prop("negation_on_subcubes") == loop_is_negation_on_subcubes(f)
            assert p.prop("constant_on_arrangements") == loop_is_constant_on_arrangements(f)
            expected = loop_distance_bound_violation(f)
            alone_problem = distance_bound_rows(alone.images, n, alone["intervals"])[0]
            assert problems[i] == alone_problem == expected, f.image
            seen.add(("distance", expected is None))
    # Every flag and condition both holds and fails somewhere.
    names = {name for name, _ in seen}
    assert names >= {name for names in VECTORS.values() for name in names}
    assert {name for name in names if {(name, True), (name, False)} <= seen} == names


def test_globally_rows_match_the_rewriting_sweep():
    # The oracle rewrites the switched coordinate as (tab & ~bit) | (src & bit);
    # the stacked sweep toggles it in place with moves & bit.
    seen = set()
    for n in range(1, 10):
        nets = [make(n, seed) for seed in range(3) for make in (
            random_network, random_commutative, random_negation_on_subcubes,
            random_constant_on_arrangements,
        )]
        got = globally_rows(np.stack([f.np_image for f in nets]), n)
        columns = [got[f"globally_{w}"].tolist() for w in ("bijective", "involutive", "idempotent")]
        for f, flags in zip(nets, zip(*columns)):
            assert flags == globally_sweep(f), (n, f.image)
            seen.update(enumerate(flags))
    assert seen == {(j, holds) for j in range(3) for holds in (True, False)}


def test_graph_predicates_are_computed_once_per_distinct_graph(monkeypatch):
    calls = []
    original = classes.graph_property

    def counting(g, prop):
        calls.append((id(g), prop))
        return original(g, prop)

    monkeypatch.setattr(classes, "graph_property", counting)
    # The general and trapping graphs of a trapping network are transitive,
    # so their predicates are read off their rows.
    block = ProfileBlock.of([BooleanNetwork.negation(3)])
    assert block["symmetric_ga"][0] and block["symmetric_tg"][0] and not block["triangular_ga"][0]
    assert calls == []
    # A general graph that is not transitive reads its SCC predicates off one
    # bitset graph, once each.
    block = ProfileBlock.of([f_ex3()])
    got = [block[f"{prop.replace('-', '_')}_ga"][0] for prop in _ARC_PREDICATES]
    graph_ga = NetworkProfile(f_ex3()).graph_ga
    assert got == [arcwise_graph_property(graph_ga, prop) for prop in _ARC_PREDICATES]
    assert sorted(prop for _, prop in calls) == sorted(_ARC_PREDICATES)
    assert len({g for g, _ in calls}) == 1


def test_submasks_come_in_iter_submasks_order():
    rng = np.random.default_rng(3)
    for n in (1, 3, 6, 9):
        masks = rng.integers(0, 1 << n, (2, 5))
        i, s = _submasks(masks, n)
        expected = [(k, t) for k, m in enumerate(masks.ravel().tolist()) for t in iter_submasks(m)]
        assert list(zip(i.tolist(), s.tolist())) == expected


def test_interval_arrays_of_a_negation_block_stay_inside_the_block_bound():
    # The negation has the most interval entries: 2^n per configuration.
    n = 6
    size = min(classes._block_size(n), classes._MAX_BLOCK)
    block = [BooleanNetwork.negation(n)] * size
    at, s = interval_arrays(np.stack([f.np_image for f in block]), n)
    assert len(at) == len(s) == size * 4**n <= classes._block_size(n) * 4**n == 2**20
    assert ProfileBlock.of(block[:2])["negation_on_subcubes"].all()


# A reference cycle between a block and its profiles, or its related block,
# would keep every fact of a verify block alive until the next full
# collection; these tests run with the collector off.


@pytest.fixture
def no_collection():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_a_block_is_freed_with_its_profiles_without_a_collection(no_collection):
    nets = sample_population(3, 6, 1)
    block = ProfileBlock.of(nets)
    assert block["symmetric_tg"].shape == block["trapspace_fp"].shape == (len(nets),)
    related, at = block.related(realisations=True)
    assert related["J"].shape == (len(related.images), 27)
    assert related.network(at["closure"][0]) == NetworkProfile(nets[0]).closure
    views = [NetworkProfile(f, block, i) for i, f in enumerate(nets)]
    assert views[0].prop("symmetric_ga") == bool(block["symmetric_ga"][0])
    alone = NetworkProfile(BooleanNetwork.negation(3))
    assert alone.prop("symmetric_ga") and alone.min_extension
    refs = [weakref.ref(block), weakref.ref(related), weakref.ref(alone.block)]
    del block, related, alone
    # The views hold the block, which holds its related block.
    assert [ref() is None for ref in refs] == [False, False, True]
    del views
    assert [ref() for ref in refs] == [None] * 3


def test_a_block_keeps_the_profiles_its_caller_dropped(no_collection):
    # The collection columns and the GA bitset fallback read the block's
    # rows alone; f_ex3's general graph is not transitive.
    f = f_ex3()
    block = ProfileBlock.of([f])
    p = NetworkProfile(f)
    assert block["convex"][0] == p.prop("convex") == p.pt_flags.convex
    assert not block["transitive_ga"][0]
    assert block["oriented_ga"][0] == arcwise_graph_property(NetworkProfile(f).graph_ga, "oriented")
    assert block.network(0) == f
    ref = weakref.ref(block)
    del block
    assert ref() is None


def test_a_verify_block_is_freed_when_its_check_returns_without_a_collection(
    monkeypatch, no_collection
):
    refs = []

    class Recording(ProfileBlock):
        def __init__(self, images):
            super().__init__(images)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(verify, "ProfileBlock", Recording)
    sections = [(verify.alternate_definition_violations, verify.collection_roundtrip_violations,
                 verify.closure_law_violations)]
    found = verify._check_block(sample_population(3, 6, 1), sections)
    assert len(found) == 1 and len(refs) == 2  # the block and its related block
    assert [ref() for ref in refs] == [None, None]
