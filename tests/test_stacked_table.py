"""The stacked moved table behind ``principal_pairs`` and the minimal pairs
behind the minimal-only report, against the single-table forms."""

import numpy as np
import pytest

from trapnets import NetworkProfile
from trapnets import trapspaces
from trapnets.generators import (
    long_transient_trapping,
    random_commutative,
    random_constant_on_arrangements,
    random_negation_on_subcubes,
    random_network,
)
from trapnets.trapspaces import _subcube_or, principal_pair, principal_pairs

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


@pytest.mark.parametrize("digits", [1, 2, -1])
def test_high_table_rows_match_single_table(monkeypatch, digits):
    # Fewer ternary digits than coordinates, so the gathers over the rows
    # of the free high coordinates run at small n; -1 stands for n - 1.
    rng = np.random.default_rng(digits + 10)
    for f in table_population():
        m = f.n - 1 if digits < 0 else digits
        monkeypatch.setattr(trapspaces, "_TABLE_DIGITS", max(m, 1))
        assert_matches_single_table(f, rng)


@pytest.mark.parametrize("n", [13, 14, 15, 16])
def test_stacked_principal_pairs_match_single_table_at_large_n(n):
    rng = np.random.default_rng(n)
    for f in every_kind(n):
        assert_matches_single_table(f, rng)


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
