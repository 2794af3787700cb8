"""The checks of `verify` that read a block's related block, as column
expressions over the two blocks, against their labelled per-network oracles
(the former bodies), on clean and perturbed populations; and the public
per-pair functions that read row 0 of the same stacked definitions."""

from collections import Counter

import pytest

from trapnets import (
    BooleanNetwork,
    NetworkProfile,
    min_trapspace_equivalent,
    network_power,
    trapspace_equivalent,
)
from trapnets.classes import ProfileBlock
from trapnets.generators import exhaustive_networks
from trapnets.verify import (
    closure_law_violations,
    collection_roundtrip_violations,
    dynamics_claim_violations,
    equivalence_vector_violations,
    sample_population,
)

from helpers import (
    PerturbedBlock,
    PerturbedBoth,
    PerturbedCollections,
    pairwise_min_trapspace_equivalent,
    pairwise_trapspace_equivalent,
    per_network_closure_violations,
    per_network_dynamics_violations,
    per_network_equivalence_violations,
    per_network_roundtrip_violations,
    squaring_network_power,
)


def populations():
    """Every network of n = 1 and n = 2, and sampled populations at n = 3..6."""
    yield exhaustive_networks(1)
    yield exhaustive_networks(2)
    for n, samples in zip(range(3, 7), (12, 10, 8, 4)):
        yield sample_population(n, samples, 60 + n)


# Each check with its oracle, in an order that asks the related block for
# the realisations after it was built without them.
CHECKS = (
    (closure_law_violations, per_network_closure_violations),
    (equivalence_vector_violations, per_network_equivalence_violations),
    (collection_roundtrip_violations, per_network_roundtrip_violations),
    (dynamics_claim_violations, per_network_dynamics_violations),
)


@pytest.mark.parametrize("kind, fires", [
    (ProfileBlock, set()),
    (PerturbedBoth, {"closure", "min-extension", "trapspace-equivalence", "collections",
                     "transient"}),
    (PerturbedCollections, {"closure", "min-extension", "trapspace-equivalence",
                            "min-trapspace-equivalence", "collections"}),
], ids=["clean", "principal-and-columns", "every-collection"])
def test_stacked_checks_match_the_per_network_oracles(kind, fires):
    fired = Counter()
    for nets in populations():
        block = kind.of(nets)
        profiles = [NetworkProfile(f, block, i) for i, f in enumerate(nets)]
        for check, oracle in CHECKS:
            got = check(block)
            assert got == [oracle(p) for p in profiles], check.__name__
            fired.update(v.check for found in got for v in found)
    assert set(fired) == fires, fired


def pairs(nets):
    """Each network with its closure, its min extension, itself and the next
    network: equivalent and non-equivalent pairs."""
    for f, g in zip(nets, nets[1:] + nets[:1]):
        p = NetworkProfile(f)
        yield from ((f, p.closure), (f, p.min_extension), (f, f), (f, g))


def test_equivalence_functions_match_the_former_per_pair_bodies():
    seen = set()
    for nets in populations():
        for f, g in pairs(nets):
            pf, pg = NetworkProfile(f), NetworkProfile(g)
            vectors = (trapspace_equivalent(f, g), min_trapspace_equivalent(f, g))
            assert vectors == (pairwise_trapspace_equivalent(pf, pg),
                               pairwise_min_trapspace_equivalent(pf, pg)), (f.image, g.image)
            seen.update((i, v) for i, vector in enumerate(vectors) for v in vector)
        # Rows of a perturbed block: the vectors are mixed on some pairs.
        block = PerturbedBlock.of(nets)
        views = [NetworkProfile(f, block, i) for i, f in enumerate(nets)]
        for (f, pf), (g, pg) in zip(zip(nets, views), zip(nets[1:], views[1:])):
            for p, q in ((pf, pg), (pf, pf)):
                vector = trapspace_equivalent(p.f, q.f, p, q)
                assert vector == pairwise_trapspace_equivalent(p, q)
                assert min_trapspace_equivalent(p.f, q.f, p, q) == \
                    pairwise_min_trapspace_equivalent(p, q)
                seen.add(("mixed", len(set(vector)) > 1))
    assert seen == {(i, v) for i in (0, 1) for v in (True, False)} | {
        ("mixed", True), ("mixed", False)
    }


def test_network_power_matches_the_former_squaring_body():
    for nets in populations():
        for f in nets[:20]:
            for k in range(f.n + 3):
                assert network_power(f, k) == squaring_network_power(f, k)
    with pytest.raises(ValueError):
        network_power(BooleanNetwork.identity(2), -1)
