"""The stacked trapspace kernels against their per-network calls: every fact
a profile reads off its block, row by row, for blocks of one network, full
blocks and populations that change dimension, with each kernel called once
per block."""

from collections import Counter

import numpy as np
import pytest

from trapnets import classes, verify
from trapnets import trapspaces
from trapnets.classes import NetworkProfile, ProfileBlock
from trapnets.cli import _analysis_report
from trapnets.generators import (
    exhaustive_networks,
    random_constant_on_arrangements,
    random_network,
)
from trapnets.trapspaces import (
    enumerate_trapspaces,
    min_trapping_extension,
    minimal_cover,
    minimal_trapspaces,
    principal_pairs,
    principal_rows,
)
from trapnets.verify import sample_population

from helpers import (
    bitset_trapspace_fp,
    interval_fixed_counts,
    member_loop_min_extension,
    single_table_principal_pairs,
    table_population,
)

KERNELS = ("principal_rows", "trapspace_rows", "cover_rows", "min_extension_rows")


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls of each stacked trapspace kernel from ``classes`` and from the
    wrappers in ``trapspaces``, by name."""
    calls = Counter()
    for module in (classes, trapspaces):
        for name in KERNELS:
            def counting(*args, kernel=getattr(module, name), name=name):
                calls[name] += 1
                return kernel(*args)

            monkeypatch.setattr(module, name, counting)
    return calls


def profile_facts(p):
    """Every trapspace fact and flag a profile reads off its block."""
    free, base = p.pt_pairs
    min_free, min_base, covered = p.minimal_pairs
    for array in (free, base, covered):
        assert not array.flags.writeable
    return {
        "pt_pairs": (free.tolist(), base.tolist()),
        "trapspaces": p.trapspace_collection.mask.tolist(),
        "minimal": (min_free.tolist(), min_base.tolist(), covered.tolist()),
        "minimal_collection": p.minimal[0],
        "pt_distinct": p.pt_distinct,
        "min_extension": p.min_extension,
        "trapspace_fp": p.trapspace_fp,
        "dpt": p.dpt,
        "min_trapping": p.min_trapping,
    }


def wrapper_facts(f):
    """The same facts from the per-network wrappers."""
    free, base = principal_pairs(f)
    min_free, min_base, covered, distinct = minimal_cover(f)
    extension = min_trapping_extension(f)
    assert extension == member_loop_min_extension(f)
    return {
        "pt_pairs": (free.tolist(), base.tolist()),
        "trapspaces": enumerate_trapspaces(f).mask.tolist(),
        "minimal": (min_free.tolist(), min_base.tolist(), covered.tolist()),
        "minimal_collection": minimal_trapspaces(f)[0],
        "pt_distinct": distinct,
        "min_extension": extension,
        "trapspace_fp": bitset_trapspace_fp(f),
        "dpt": distinct == 1 << f.n,
        "min_trapping": f == extension,
    }


def assert_block_facts_match_per_network_calls(calls, networks):
    calls.clear()
    block = ProfileBlock.of(networks)
    read = [profile_facts(NetworkProfile(f, block, i)) for i, f in enumerate(networks)]
    assert calls == Counter(KERNELS)
    for f, facts in zip(networks, read):
        assert facts == profile_facts(NetworkProfile(f)) == wrapper_facts(f)


def blocks(monkeypatch, networks, size):
    monkeypatch.setattr(classes, "_block_size", lambda n: size)
    return list(classes.population_blocks(networks))


@pytest.mark.parametrize("n", range(1, 9))
def test_sampled_blocks_seed_the_per_network_facts(monkeypatch, kernel_calls, n):
    networks = sample_population(n, 12 if n < 8 else 4, n)
    counts = []
    for size in (1, classes._MAX_BLOCK):
        cut = blocks(monkeypatch, networks, size)
        counts.append(len(cut))
        for block in cut:
            assert_block_facts_match_per_network_calls(kernel_calls, block)
    assert counts == [len(networks), 1]


def test_exhaustive_blocks_seed_the_per_network_facts(monkeypatch, kernel_calls):
    networks = exhaustive_networks(1) + exhaustive_networks(2)
    sizes = [len(block) for block in classes.population_blocks(networks)]
    assert sizes == [4, classes._MAX_BLOCK]
    for block in classes.population_blocks(networks):
        assert_block_facts_match_per_network_calls(kernel_calls, block)
    cut = blocks(monkeypatch, networks[:20], 1)
    assert len(cut) == 20
    for block in cut:
        assert_block_facts_match_per_network_calls(kernel_calls, block)


def test_population_that_changes_dimension_seeds_each_block(monkeypatch, kernel_calls):
    networks = sample_population(3, 10, 2) + sample_population(5, 6, 3) + sample_population(3, 4, 4)
    dims = [block[0].n for block in classes.population_blocks(networks)]
    assert dims == [3, 5, 3]
    counts = []
    for size in (1, 7, classes._MAX_BLOCK):
        cut = blocks(monkeypatch, networks, size)
        counts.append(len(cut))
        for block in cut:
            assert len({f.n for f in block}) == 1
            assert_block_facts_match_per_network_calls(kernel_calls, block)
    assert counts[0] == len(networks) and counts[0] > counts[1] > counts[2] == 3


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
    # The first networks take the closure of a network dealt at random:
    # some pairs violate.
    rng = np.random.default_rng(9)
    dealt = {f.image: nets[i].image for f, i in zip(nets[::2], rng.permutation(len(nets))[::2])}
    # One stacked principal pass per block, and one for its joins if it has any.
    passes, principal = [], verify.principal_rows

    def dealing(images, n):
        passes.append(1)
        rows = [dealt.get(row, row) for row in map(tuple, images.tolist())]
        return principal(np.array(rows), n)

    monkeypatch.setattr(verify, "principal_rows", dealing)
    for every_pair, expected_passes in ((False, (2 * 40 - 1, 2 * 14 - 1, 2)), (True, (40, 14, 1))):
        runs, counts = [], []
        for size in (1, 3, classes._MAX_BLOCK):
            monkeypatch.setattr(classes, "_block_size", lambda n: size)
            passes.clear()
            runs.append(verify.monotone_closure_violations(nets, every_pair))
            counts.append(len(passes))
        assert runs[0] and all(run == runs[0] for run in runs[1:])
        assert len(nets) == 40 and tuple(counts) == expected_passes


def test_minimal_only_report_reads_no_trapspace_or_fixed_point_table(kernel_calls):
    # The minimal report needs neither 3^n table; trapspace_rows refuses above n = 13.
    report = _analysis_report(random_network(16, 1), "random16", minimal_only=True)
    assert report["trapspaces"]["minimal"] >= 1
    assert kernel_calls == Counter(principal_rows=1, cover_rows=1)


def test_full_report_fills_each_trapspace_stack_once(kernel_calls):
    _analysis_report(random_constant_on_arrangements(8, 1), "constant8", minimal_only=False)
    assert kernel_calls["principal_rows"] == kernel_calls["cover_rows"] == 1


def test_block_fills_one_fixed_point_table_for_its_three_flags(monkeypatch):
    # The class layer fills no other subcube table.
    tables, fill = [], classes._subcube_or

    def counting(leaves, n, op):
        tables.append(len(leaves))
        return fill(leaves, n, op)

    monkeypatch.setattr(classes, "_subcube_or", counting)
    networks = sample_population(4, 20, 3)
    block = ProfileBlock.of(networks)
    seen = set()
    for i, f in enumerate(networks):
        p = NetworkProfile(f, block, i)
        counts = list(interval_fixed_counts(p))
        flags = (p.trapspace_fp, p.interval_fp, p.interval_ufp)
        assert flags == (bitset_trapspace_fp(f), min(counts) >= 1, set(counts) == {1})
        seen.add(flags)
    assert tables == [len(networks)] and len(seen) > 1
    tables.clear()
    _analysis_report(random_constant_on_arrangements(8, 1), "constant8", minimal_only=False)
    assert tables == [1]
    _analysis_report(random_network(12, 1), "random12", minimal_only=True)
    assert tables == [1]
