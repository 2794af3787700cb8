"""The stacked forms in `verify`: the collection checks of a block of
networks, the closure's monotonicity on image rows, and the block size."""

import re
from collections import Counter

import numpy as np

from trapnets import NetworkProfile, realize, trapping_closure
from trapnets.classes import DIAGRAMS, VECTORS, verify_diagram
from trapnets.core import lattice_combine
from trapnets.generators import exhaustive_networks
from trapnets import classes, cubesets, verify
from trapnets.cli import main
from trapnets.verify import (
    collection_roundtrip_violations,
    monotone_closure_violations,
    monotonicity_violations,
    run_verification,
    sample_population,
)

from helpers import (
    PerturbedBlock,
    PerturbedBoth,
    PerturbedClasses,
    PerturbedCollections,
    per_network_class_violations,
    per_network_roundtrip_violations,
)


def test_block_roundtrips_match_the_per_network_oracle():
    fired = set()
    for n, samples, seed in ((2, 12, 1), (3, 20, 2), (4, 20, 3), (5, 8, 4)):
        nets = sample_population(n, samples, seed)
        block = PerturbedCollections.of(nets)
        profiles = [NetworkProfile(f, block, i) for i, f in enumerate(nets)]
        got = collection_roundtrip_violations(block)
        assert got == [per_network_roundtrip_violations(p) for p in profiles]
        assert block["convex"].tolist() == [p.pt_flags.convex for p in profiles]
        assert [tuple(row) for row in block["realisations"]["P"].tolist()] == [
            realize(p.pt_collection).image for p in profiles
        ]
        # The rows whose network, closure and min extension are all clean.
        rows = (block.images, block["closures"], block["min_extensions"])
        clean = ~np.any([a.sum(axis=1) % 4 for a in rows], axis=0)
        assert clean.any() and not any(found for found, c in zip(got, clean) if c)
        fired.update(v.detail for vs in got for v in vs)
    assert len(fired) >= 13, sorted(fired)


def runs_by_block_size(monkeypatch, nets, suite):
    """``run_verification`` of nets at the default block size and at 1, 2
    and 3 networks per block, each of which cuts nets into a different
    number of blocks."""
    blocks, check = [], verify._check_block
    monkeypatch.setattr(verify, "_check_block", lambda *args: (blocks.append(1), check(*args))[1])
    runs, counts = [], []
    for size in (None, 1, 2, 3):
        with monkeypatch.context() as patch:
            if size is not None:
                patch.setattr(classes, "_block_size", lambda n: size)
            blocks.clear()
            runs.append(run_verification(nets, suite))
        counts.append(len(blocks))
    assert len(set(counts)) == len(counts), counts
    return runs


# The second population has two dimensions; the closure suite pairs only
# neighbours of one.
BLOCK_SIZE_RUNS = ((sample_population(3, 12, 5), "all"),
                   (sample_population(3, 8, 5) + sample_population(4, 6, 6), "all"))


def test_violations_do_not_depend_on_the_block_size(monkeypatch):
    monkeypatch.setattr(verify, "ProfileBlock", PerturbedBlock)
    for nets, suite in BLOCK_SIZE_RUNS:
        runs = runs_by_block_size(monkeypatch, nets, suite)
        assert {"collections", "commutative"} <= {v.check for v in runs[0]}
        assert all(run == runs[0] for run in runs[1:])


def test_block_size_bounds_the_pair_tables():
    assert [classes._block_size(n) for n in (2, 4, 6, 8, 10, 11, 13)] == [
        65536, 4096, 256, 16, 1, 1, 1
    ]


def per_pair(pairs, closures):
    return [
        v
        for f, g in pairs
        for v in monotonicity_violations(f, g, closures[f], closures[g])
    ]


def join_pairs(nets):
    """The pairs the sampled check implies: each network with its join with
    the next one, when both have one dimension."""
    return [(f, lattice_combine(f, g, "join")) for f, g in zip(nets, nets[1:]) if f.n == g.n]


def every_pair(nets):
    """The pairs the exhaustive check implies: every ordered pair of one dimension."""
    return [(f, g) for f in nets for g in nets if f.n == g.n]


def dealing(monkeypatch, closures):
    """Patch ``verify.principal_rows`` so that the trapping closure of each
    network f is ``closures[f]``: the closure moves x by its principal free
    mask."""
    by_image = {f.image: g for f, g in closures.items()}

    def principal_rows(images, n):
        xs = np.arange(1 << n)
        free = np.array([by_image[row].image for row in map(tuple, images.tolist())]) ^ xs
        return free, xs & ~free

    monkeypatch.setattr(verify, "principal_rows", principal_rows)


def dealt_closures(nets, seed, joins=()):
    """The closure of each network is a network of nets dealt at random, and
    each join's is the join itself unless the join is one of nets."""
    order = np.random.default_rng(seed).permutation(len(nets))
    return {**{g: g for _, g in joins}, **{f: nets[i] for f, i in zip(nets, order)}}


def test_monotone_pairs_broadcast_matches_the_per_pair_definition(monkeypatch):
    for n in (1, 2):
        nets = exhaustive_networks(n)
        pairs = every_pair(nets)
        if n == 1:
            closures = {f: trapping_closure(f) for f in nets}
            assert monotone_closure_violations(nets, every_pair=True) == per_pair(pairs, closures)
        # Closures dealt at random: not monotone on many pairs.
        dealt = dealt_closures(nets, 3)
        with monkeypatch.context() as patch:
            dealing(patch, dealt)
            expected = per_pair(pairs, dealt)
            assert monotone_closure_violations(nets, every_pair=True) == expected
        assert expected
    nets = sample_population(4, 40, 8)
    pairs = join_pairs(nets)
    closures = {f: trapping_closure(f) for pair in pairs for f in pair}
    assert monotone_closure_violations(nets) == per_pair(pairs, closures) == []
    dealt = dealt_closures(nets, 3, pairs)
    with monkeypatch.context() as patch:
        dealing(patch, dealt)
        expected = per_pair(pairs, dealt)
        assert monotone_closure_violations(nets) == expected
        assert monotone_closure_violations(nets, every_pair=True) == per_pair(every_pair(nets), dealt)
    assert expected
    assert monotone_closure_violations([]) == monotone_closure_violations([], every_pair=True) == []
    # Networks of two dimensions, interleaved: every pair of one dimension
    # comes back in the order of f, and no neighbours share a dimension.
    small, large = exhaustive_networks(1), exhaustive_networks(2)[:4]
    nets = [f for pair in zip(small, large) for f in pair]
    dealt = {**dict(zip(small, small[::-1])), **{g: g for g in large}}
    with monkeypatch.context() as patch:
        dealing(patch, dealt)
        expected = per_pair(every_pair(nets), dealt)
        assert monotone_closure_violations(nets, every_pair=True) == expected
        assert monotone_closure_violations(nets) == []
    assert expected


def recording_closure_stacks(monkeypatch) -> list:
    """Patch ``verify.principal_rows`` to record the image rows of each call."""
    calls, principal = [], verify.principal_rows
    monkeypatch.setattr(verify, "principal_rows",
                        lambda images, n: (calls.append(images.tolist()), principal(images, n))[1])
    return calls


def join_rows(pairs):
    return [list(g.image) for _, g in pairs]


def test_monotonicity_pairs_neighbours_of_one_dimension(monkeypatch):
    calls, joins = recording_closure_stacks(monkeypatch), []
    parts = [sample_population(3, 8, 5), sample_population(4, 6, 6)]
    for nets in (*parts, parts[0] + parts[1]):
        calls.clear()
        assert run_verification(nets, "closure") == []
        # Each block is one stack, then its joins are another.
        assert calls[::2] == [[list(f.image) for f in b] for b in classes.population_blocks(nets)]
        joins.append([row for stack in calls[1::2] for row in stack])
    assert joins[2] == joins[0] + joins[1] == join_rows(join_pairs(parts[0]) + join_pairs(parts[1]))
    assert [len(found) for found in joins] == [len(nets) - 1 for nets in parts] + [
        sum(len(nets) - 1 for nets in parts)
    ]


def test_monotonicity_joins_are_built_a_block_at_a_time(monkeypatch):
    nets = sample_population(3, 400, 2)  # three blocks
    pairs = join_pairs(nets)
    dealt = dealt_closures(nets, 4, pairs)
    dealing(monkeypatch, dealt)
    expected = per_pair(pairs, dealt)
    calls = recording_closure_stacks(monkeypatch)
    # The closure laws read the block's own closures, so the dealt ones
    # break only monotonicity, in pair order.
    assert run_verification(nets, "closure") == expected and len(expected) > 10
    blocks = [len(block) for block in classes.population_blocks(nets)]
    # A block's joins reach the next block's first row; the last block's cannot.
    assert [len(stack) for stack in calls] == [
        *(size for b in blocks[:-1] for size in (b, b)), blocks[-1], blocks[-1] - 1
    ] and len(blocks) == 3
    assert [row for stack in calls[1::2] for row in stack] == join_rows(pairs)


def test_monotonicity_of_blocks_with_no_join(monkeypatch):
    # One network: its block has no join, and no closure pass is made of one.
    calls = recording_closure_stacks(monkeypatch)
    f = sample_population(3, 1, 4)[0]
    assert run_verification([f], "closure") == [] and [len(stack) for stack in calls] == [1]
    # A last block of one network, after a full block.
    nets = exhaustive_networks(2)
    nets = [*nets, nets[7]]
    pairs = join_pairs(nets)
    dealt = dealt_closures(nets[:-1], 5)
    with monkeypatch.context() as patch:
        dealing(patch, dealt)
        calls = recording_closure_stacks(patch)
        expected = per_pair(pairs, dealt)
        assert monotone_closure_violations(nets) == expected and expected
        assert [len(stack) for stack in calls] == [classes._MAX_BLOCK, classes._MAX_BLOCK, 1]
        assert join_rows(pairs[-1:]) == calls[1][-1:]
    # A block of one network before a block of another dimension: no join across them.
    nets = [f, *sample_population(4, 1, 7)]
    with monkeypatch.context() as patch:
        calls = recording_closure_stacks(patch)
        assert monotone_closure_violations(nets) == []
        assert [len(stack) for stack in calls] == [1, 5, 4]


def test_blocks_hold_at_most_max_block_networks():
    networks = exhaustive_networks(2) + exhaustive_networks(2)[:44] + exhaustive_networks(1)
    sizes = [len(block) for block in classes.population_blocks(networks)]
    assert sizes == [classes._MAX_BLOCK, 300 - classes._MAX_BLOCK, 4]


def class_layer(violations):
    return [v for v in violations if v.check in ("alternate-definitions", "hierarchy")
            or v.detail.startswith("implication: ")]


def test_class_violations_do_not_depend_on_the_block_size(monkeypatch):
    monkeypatch.setattr(verify, "ProfileBlock", PerturbedClasses)
    for nets, suite in BLOCK_SIZE_RUNS:
        runs = runs_by_block_size(monkeypatch, nets, suite)
        assert all(run == runs[0] for run in runs[1:])
        # The per-network oracle path, on the same flipped columns.
        expected, diagrams = [], {}
        for f in nets:
            row = PerturbedClasses.of([f])
            alternates, hierarchy, implications = per_network_class_violations(
                f, lambda name: bool(row[name][0])
            )
            expected += alternates + hierarchy
            for diagram, found in implications.items():
                diagrams.setdefault(diagram, []).extend(found)
        if suite == "all":
            expected += [v for found in diagrams.values() for v in found]
        got = class_layer(runs[0])
        assert got == expected
        checks = {v.check for v in got}
        assert {"alternate-definitions", "hierarchy"} <= checks
        assert {"graph without its loops", "trapping graph not transitive"} <= {
            v.detail for v in got
        }
        assert suite != "all" or "diagram-symmetric" in checks
        for v in got:
            if v.check == "alternate-definitions":
                assert re.fullmatch(r"\w+ vector is mixed: \((True|False)(, (True|False))+\)", v.detail)
        assert {v.detail.split()[0] for v in got if v.check == "alternate-definitions"} == set(VECTORS)


def test_a_wrong_row_transitivity_mixes_every_trapping_vector(monkeypatch):
    # The trapping flag is the general graph's row transitivity, and every
    # other trapping7 condition is its own test; a hierarchy fact reads the
    # trapping graph's.  ``classes`` binds the kernel by name.
    predicates = classes.subcube_row_predicates

    def negated(free, base, n):
        holds = predicates(free, base, n)
        return {**holds, "transitive": ~holds["transitive"]}

    monkeypatch.setattr(classes, "subcube_row_predicates", negated)
    nets = sample_population(3, 60, 5)
    found = Counter(v.detail.split(":")[0] for v in run_verification(nets, "theorems"))
    assert found["trapping7 vector is mixed"] == found["trapping graph not transitive"] == len(nets)


def test_verify_diagram_is_the_diagram_section_of_run_verification(monkeypatch):
    # The same flipped columns in both modules, on a population of two
    # dimensions, so that implications fire.
    monkeypatch.setattr(verify, "ProfileBlock", PerturbedClasses)
    monkeypatch.setattr(classes, "ProfileBlock", PerturbedClasses)
    nets = sample_population(3, 8, 5) + sample_population(4, 6, 6)
    section = run_verification(nets, "diagrams")
    for diagram in DIAGRAMS.values():
        found = verify_diagram(diagram, nets)
        assert found == [v for v in section if v.check == f"diagram-{diagram.id}"]
        assert {v.network.n for v in found if v.detail.startswith("implication: ")} == {3, 4}


def test_all_suite_is_the_other_suites_concatenated(monkeypatch):
    monkeypatch.setattr(verify, "ProfileBlock", PerturbedBoth)
    nets = sample_population(3, 12, 5)
    sections = [run_verification(nets, suite) for suite in ("theorems", "closure", "diagrams")]
    assert all(sections)
    assert run_verification(nets, "all") == [v for section in sections for v in section]


# The per-network checks of ``run_verification``'s section table.
CHECKS = (
    "alternate_definition_violations", "collection_roundtrip_violations",
    "dynamics_claim_violations", "commutative_claim_violations", "hierarchy_violations",
    "equivalence_vector_violations", "closure_law_violations", "implication_violations",
)


def test_every_check_fires_on_the_perturbed_population(monkeypatch):
    # A check dropped from the section table leaves its name unrecorded.
    monkeypatch.setattr(verify, "ProfileBlock", PerturbedBoth)
    fired = Counter()
    for name in CHECKS:

        def recording(*args, name=name, check=getattr(verify, name)):
            found = check(*args)
            fired.update((name, v.check) for vs in found for v in vs)
            return found

        monkeypatch.setattr(verify, name, recording)
    violations = run_verification(sample_population(3, 12, 5))
    assert {name for name, _ in fired} == set(CHECKS), fired
    diagrams = {check for name, check in fired if name == "implication_violations"}
    assert diagrams == {f"diagram-{d}" for d in DIAGRAMS}
    assert sum(fired.values()) == len(violations)


def test_the_closure_suite_builds_no_realisation(monkeypatch):
    calls = []
    for module in (classes, cubesets):
        patched = module.pointwise_free
        monkeypatch.setattr(module, "pointwise_free",
                            lambda masks, n, patched=patched: (calls.append(n), patched(masks, n))[1])
    argv = ["verify", "--n", "3", "--samples", "60", "--seed", "5", "--suite"]
    assert main(argv + ["closure"]) == 0
    assert calls == []
    assert main(argv + ["theorems"]) == 0  # the realisations are built there
    assert calls
