"""The stacked moved table behind ``principal_pairs`` and the minimal pairs
behind the minimal-only report, against the single-table forms."""

import tracemalloc

import numpy as np
import pytest

from trapnets import BooleanNetwork, NetworkProfile
from trapnets import core, trapspaces
from trapnets.generators import (
    long_transient_trapping,
    random_commutative,
    random_constant_on_arrangements,
    random_negation_on_subcubes,
    random_network,
)
from trapnets.trapspaces import (
    _subcube_or,
    minimal_cover,
    principal_pair,
    principal_pairs,
    principal_rows,
)

from helpers import digitwise_subcube_or, single_table_principal_pairs, table_population


def every_kind(n: int, seed: int = 1):
    yield random_network(n, seed)
    yield random_commutative(n, seed)
    yield random_negation_on_subcubes(n, seed)
    yield random_constant_on_arrangements(n, seed)
    yield long_transient_trapping(n)


def test_stacked_or_kernel_matches_single_calls_and_digitwise_oracle():
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 7, 8, 10):
        for k in (1, 3, 16):
            moves = rng.integers(0, 1 << 16, (k, 1 << n)).astype(np.uint16)
            for leaves in (moves, moves % 3 == 0):
                table = _subcube_or(leaves, n)
                assert table.shape == (k, 3**n) and table.dtype == leaves.dtype
                for row, leaf in zip(table, leaves):
                    assert np.array_equal(row, _subcube_or(leaf, n))
                    assert np.array_equal(row, digitwise_subcube_or(leaf, n))


def assert_matches_single_table(f, rng, samples: int = 16):
    free, base = principal_pairs(f)
    single_free, single_base = single_table_principal_pairs(f)
    assert np.array_equal(free, single_free) and np.array_equal(base, single_base)
    for x in rng.integers(0, 1 << f.n, samples).tolist():
        assert principal_pair(f, x) == (free[x], base[x])


def edge_networks(n: int):
    """The identity, the negation, a network whose one fixed point is 0, and
    one whose low half reaches the whole cube in one step while its high
    half is fixed."""
    xs, full = np.arange(1 << n), (1 << n) - 1
    yield BooleanNetwork.identity(n)
    yield BooleanNetwork.negation(n)
    yield BooleanNetwork(n, np.where(xs == full, 0, xs + 1) * (xs != 0))
    yield BooleanNetwork(n, np.where(xs >> (n - 1), xs, xs ^ full))


@pytest.mark.parametrize("digits", [1, 2, -1])
def test_high_table_rows_match_single_table(monkeypatch, digits):
    # Fewer ternary digits than coordinates, so the gathers over the rows
    # of the free high coordinates run at small n; -1 stands for n - 1.
    rng = np.random.default_rng(digits + 10)
    by_n = {}
    for f in [*table_population(), *(g for n in range(2, 7) for g in edge_networks(n))]:
        by_n.setdefault(f.n, []).append(f)
    for n, networks in by_n.items():
        m = n - 1 if digits < 0 else digits
        monkeypatch.setattr(trapspaces, "_TABLE_DIGITS", max(m, 1))
        # The whole stack at once: its configurations leave the loop at
        # different steps, in groups of every free high mask.
        free, base = principal_rows(np.stack([f.np_image for f in networks]), n)
        assert free.shape == base.shape == (len(networks), 1 << n)
        for f, row_free, row_base in zip(networks, free, base):
            single_free, single_base = principal_pairs(f)
            assert np.array_equal(row_free, single_free) and np.array_equal(row_base, single_base)
            assert_matches_single_table(f, rng)


@pytest.mark.parametrize("n", [13, 14, 15, 16])
def test_stacked_principal_pairs_match_single_table_at_large_n(n):
    rng = np.random.default_rng(n)
    for f in every_kind(n):
        assert_matches_single_table(f, rng)


def test_principal_rows_keep_the_coordinates_above_16(monkeypatch):
    # With the table cap raised to 17, a move needs 17 bits.
    monkeypatch.setitem(core._CAPPED_WORK, "table", (17, core._CAPPED_WORK["table"][1]))
    f = random_network(17, 1)
    free, base = principal_pairs(f)
    for x in np.random.default_rng(17).integers(0, 1 << 17, 16).tolist():
        assert (free[x], base[x]) == principal_pair(f, x)


def test_minimal_pairs_are_the_minimal_collection():
    networks = [*table_population(), *every_kind(9), random_constant_on_arrangements(12, 2)]
    for f in networks:
        p = NetworkProfile(f)
        free, base, covered = p.minimal_pairs
        minimal, minimal_covered = p.minimal
        expected_free, expected_base = minimal.pairs()
        assert np.array_equal(free, expected_free) and np.array_equal(base, expected_base)
        assert np.array_equal(covered, minimal_covered)
        assert not covered.flags.writeable


def test_minimal_cover_at_n16_stays_small():
    # The stacked table of 9 ternary digits takes 5 MB at n = 16; the cover
    # peaked at 7.8-8.3 MiB with it, and at 20.3 MiB with 12 digits.
    f = random_network(16, 1)
    tracemalloc.start()
    try:
        minimal_cover(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20, peak
