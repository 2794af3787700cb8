"""The stacked trapspace kernels against their per-network calls: every fact
a verify block seeds into its profiles, row by row, for blocks of one
network, full blocks and populations that change dimension."""

import numpy as np
import pytest

from trapnets import verify
from trapnets import trapspaces
from trapnets.core import lattice_combine
from trapnets.generators import (
    exhaustive_networks,
    random_constant_on_arrangements,
    random_network,
)
from trapnets.trapspaces import (
    fixed_point_table,
    min_trapping_extension,
    minimal_cover,
    principal_pairs,
    principal_rows,
    trapspace_mask,
)
from trapnets.verify import _profiles, sample_population

from helpers import member_loop_min_extension, single_table_principal_pairs, table_population


def assert_seeded_facts_match_per_network_calls(networks):
    profiles = _profiles(networks)
    assert [p.f for p in profiles] == networks
    for p in profiles:
        f, seeded = p.f, vars(p)
        free, base = seeded["pt_pairs"]
        expected_free, expected_base = principal_pairs(f)
        assert np.array_equal(free, expected_free) and np.array_equal(base, expected_base)
        assert not free.flags.writeable and not base.flags.writeable
        mask = trapspace_mask(f)
        assert np.array_equal(seeded["trapspace_collection"].mask, mask)
        min_free, min_base, covered, distinct = seeded["cover"]
        expected = minimal_cover(f)
        assert np.array_equal(min_free, expected[0]) and np.array_equal(min_base, expected[1])
        assert np.array_equal(covered, expected[2]) and not covered.flags.writeable
        assert distinct == expected[3]
        assert seeded["trapspace_fp"] == bool(fixed_point_table(f)[mask].all())
        assert seeded["min_extension"] == min_trapping_extension(f) == member_loop_min_extension(f)


def blocks(monkeypatch, networks, size):
    monkeypatch.setattr(verify, "_block_size", lambda n: size)
    return list(verify._blocks(networks))


@pytest.mark.parametrize("n", range(1, 9))
def test_sampled_blocks_seed_the_per_network_facts(monkeypatch, n):
    networks = sample_population(n, 12 if n < 8 else 4, n)
    for size in (1, verify._MAX_BLOCK):
        for block in blocks(monkeypatch, networks, size):
            assert_seeded_facts_match_per_network_calls(block)


def test_exhaustive_blocks_seed_the_per_network_facts(monkeypatch):
    networks = exhaustive_networks(1) + exhaustive_networks(2)
    sizes = [len(block) for block in verify._blocks(networks)]
    assert sizes == [4, verify._MAX_BLOCK]
    for block in verify._blocks(networks):
        assert_seeded_facts_match_per_network_calls(block)
    for block in blocks(monkeypatch, networks[:20], 1):
        assert_seeded_facts_match_per_network_calls(block)


def test_population_that_changes_dimension_seeds_each_block(monkeypatch):
    networks = sample_population(3, 10, 2) + sample_population(5, 6, 3) + sample_population(3, 4, 4)
    dims = [block[0].n for block in verify._blocks(networks)]
    assert dims == [3, 5, 3]
    for size in (1, 7, verify._MAX_BLOCK):
        for block in blocks(monkeypatch, networks, size):
            assert len({f.n for f in block}) == 1
            assert_seeded_facts_match_per_network_calls(block)


@pytest.mark.parametrize("digits", [1, 2])
def test_stacked_high_rows_match_the_single_table(monkeypatch, digits):
    # Few ternary digits, so the free high coordinates of one network widen
    # the gathers of every other one in the stack.
    monkeypatch.setattr(trapspaces, "_TABLE_DIGITS", digits)
    networks = [f for f in table_population() if f.n == 5]
    free, base = principal_rows(np.array([f.image for f in networks]), 5)
    for f, row_free, row_base in zip(networks, free, base):
        expected_free, expected_base = single_table_principal_pairs(f)
        assert np.array_equal(row_free, expected_free)
        assert np.array_equal(row_base, expected_base)


def test_stacked_rows_above_the_table_digits_match_single_calls():
    networks = [random_network(13, 7), random_constant_on_arrangements(13, 7)]
    free, base = principal_rows(np.array([f.image for f in networks]), 13)
    for f, row_free, row_base in zip(networks, free, base):
        expected_free, expected_base = principal_pairs(f)
        assert np.array_equal(row_free, expected_free)
        assert np.array_equal(row_base, expected_base)


def test_monotone_pairs_closures_do_not_depend_on_the_block_size(monkeypatch):
    nets = sample_population(4, 30, 9)
    pairs = [(f, lattice_combine(f, g, "join")) for f, g in zip(nets, nets[1:])]
    # Closures dealt at random to the first networks: some pairs violate.
    rng = np.random.default_rng(9)
    dealt = {f: nets[i] for f, i in zip(nets[::2], rng.permutation(len(nets))[::2])}
    runs = []
    for size in (1, 3, verify._MAX_BLOCK):
        monkeypatch.setattr(verify, "_block_size", lambda n: size)
        runs.append(verify.monotone_pairs_violations(pairs, dealt))
    assert runs[0] and all(run == runs[0] for run in runs[1:])
