import numpy as np
import pytest

from trapnets import (
    BooleanNetwork,
    Configuration,
    NetworkProfile,
    Subcube,
    build_graph,
    enumerate_trapspaces,
    min_trapping_extension,
    minimal_trapspaces,
    order_leq,
    principal_trapspace,
    random_network,
    trapping_closure,
    trapping_graph,
)
from trapnets.classes import ProfileBlock
from trapnets.core import Mask, update
from trapnets.trapspaces import (
    _free_of_index,
    _moved_rows,
    _subcube_or,
    _ternary_of_masks,
    principal_pair,
    principal_pairs,
    trapspace_rows,
)

from helpers import (
    all_subcubes,
    brute_force_principal,
    brute_force_principals,
    brute_force_trapspaces,
    cfg,
    cube,
    digitwise_subcube_or,
    f_ex3,
    full_cube,
    is_subcube_of,
    is_trapspace,
    net_from_arcs,
    oracle_population,
    pairwise_minimal_trapspaces,
    sampled_networks,
    table_population,
)

# The worked example's full trapspace collection, frozen from the 27-subcube
# brute-force oracle (the union of the fixed points 100 and 101 is the
# ninth trapspace the narrative around this example tends to miss).
F_EX3_TRAPSPACES = ["***", "**0", "100", "101", "110", "11*", "1*0", "10*", "1**"]


# --- principal trapspaces


def test_principal_of_worked_example_corners():
    f = f_ex3()
    assert principal_trapspace(f, cfg("000")) == cube("**0")
    assert principal_trapspace(f, cfg("100")) == cube("100")
    assert principal_trapspace(f, cfg("001")) == full_cube(3)
    assert principal_trapspace(f, cfg("111")) == cube("11*")


def test_principal_of_identity_is_singleton():
    f = BooleanNetwork.identity(4)
    x = cfg("0110")
    assert principal_trapspace(f, x) == Subcube(x.n, 0, x.bits)


def test_principal_matches_enumeration_oracle():
    for n in range(1, 5):
        for seed in range(5):
            f = random_network(n, seed)
            for x in range(1 << n):
                expected = brute_force_principal(f, x)
                assert principal_trapspace(f, Configuration(n, x)) == expected


def test_principal_contains_interval():
    for seed in range(6):
        f = random_network(4, seed)
        for x in range(16):
            t = principal_trapspace(f, Configuration(4, x))
            assert (x ^ f.image[x]) & ~t.free == 0


# --- trapspace predicate and enumeration


def test_is_trapspace_examples():
    f = f_ex3()
    assert is_trapspace(f, cube("1**"))
    assert is_trapspace(f, full_cube(3))
    assert not is_trapspace(f, cube("*00"))


def test_three_trapspace_definitions_agree():
    # image containment, per-coordinate updates, per-subset updates
    for seed in range(5):
        f = random_network(3, seed)
        for c in all_subcubes(3):
            direct = is_trapspace(f, c)
            per_coord = all(
                all(update(f, Mask.from_coords(3, [i])).image[m] & ~c.free == c.base
                    for m in c.member_bits())
                for i in range(1, 4)
            )
            per_subset = all(
                all(update(f, Mask(3, s)).image[m] & ~c.free == c.base
                    for m in c.member_bits())
                for s in range(8)
            )
            assert direct == per_coord == per_subset


def test_enumeration_matches_oracle_and_frozen_collection():
    f = f_ex3()
    oracle = brute_force_trapspaces(f)
    got = enumerate_trapspaces(f)
    assert set(got.members) == oracle
    assert {str(c) for c in got.members} == set(F_EX3_TRAPSPACES)
    # the two named non-principal trapspaces are present
    assert cube("1*0") in got.members and cube("1**") in got.members


def test_enumeration_random_against_oracle():
    for n in range(1, 5):
        for seed in range(4):
            f = random_network(n, seed + 9)
            assert set(enumerate_trapspaces(f).members) == brute_force_trapspaces(f)


def test_identity_has_all_subcubes_negation_only_full():
    assert len(enumerate_trapspaces(BooleanNetwork.identity(3))) == 27
    neg = enumerate_trapspaces(BooleanNetwork.negation(3))
    assert set(neg.members) == {full_cube(3)}


def test_enumeration_dimension_cap():
    for whole_collection_query in (
        enumerate_trapspaces, lambda f: trapspace_rows(f.np_image[None], f.n)
    ):
        with pytest.raises(ValueError):
            whole_collection_query(BooleanNetwork.identity(14))


# --- minimal trapspaces


def brute_force_minimal(f):
    cubes = brute_force_trapspaces(f)
    return {c for c in cubes if not any(o != c and is_subcube_of(o, c) for o in cubes)}


def test_minimal_of_worked_example():
    f = f_ex3()
    minimal, configs = minimal_trapspaces(f)
    assert set(minimal.members) == {cube("100"), cube("101"), cube("110")}
    assert {str(Configuration(3, x)) for x in np.flatnonzero(configs)} == {"100", "101", "110"}


def test_minimal_identity_and_negation():
    minimal, configs = minimal_trapspaces(BooleanNetwork.identity(3))
    assert len(minimal) == 8 and np.count_nonzero(configs) == 8
    minimal, configs = minimal_trapspaces(BooleanNetwork.negation(3))
    assert set(minimal.members) == {full_cube(3)}
    assert np.count_nonzero(configs) == 8
    minimal, configs = minimal_trapspaces(net_from_arcs(3, ["000>001"]))
    assert np.count_nonzero(configs) == 7 and not configs[0]


def test_minimal_matches_oracle():
    for n in range(1, 5):
        for seed in range(6):
            f = random_network(n, seed + 70)
            minimal, configs = minimal_trapspaces(f)
            expected = brute_force_minimal(f)
            assert set(minimal.members) == expected
            covered = {m.bits for c in expected for m in c.members()}
            assert set(np.flatnonzero(configs).tolist()) == covered


# --- trapping closure and graph


def test_closure_of_worked_example():
    f = f_ex3()
    ft = trapping_closure(f)
    assert ft(cfg("001")) == cfg("110")
    assert ft(cfg("010")) == cfg("100")


def test_closure_fixes_trapping_networks():
    f = f_ex3()
    ft = trapping_closure(f)
    assert trapping_closure(ft) == ft
    neg = BooleanNetwork.negation(3)
    assert trapping_closure(neg) == neg


def test_closure_laws_sampled():
    for seed in range(8):
        f = random_network(3, seed)
        g = random_network(3, seed + 17)
        ft, gt = trapping_closure(f), trapping_closure(g)
        assert order_leq(f, ft)
        assert trapping_closure(ft) == ft
        from trapnets import lattice_combine

        h = lattice_combine(f, g, "join")
        assert order_leq(ft, trapping_closure(h))
        assert enumerate_trapspaces(f) == enumerate_trapspaces(ft)


def test_trapping_graph_out_neighbourhood():
    g = trapping_graph(f_ex3())
    assert g.out[cfg("001").bits] == 0xFF  # principal trapspace is the full cube


def test_trapping_graph_of_identity_is_loops():
    assert trapping_graph(BooleanNetwork.identity(3)) == build_graph(
        BooleanNetwork.identity(3), "asynchronous"
    )


def test_trapping_graph_equals_closure_graphs():
    for seed in range(6):
        f = random_network(3, seed + 5)
        ft = trapping_closure(f)
        tg = trapping_graph(f)
        assert tg == build_graph(ft, "general")
        assert tg == trapping_graph(ft)


# --- min-trapping extension


def test_extension_of_worked_example():
    f = f_ex3()
    fm = min_trapping_extension(f)
    assert fm(cfg("000")) == cfg("111")  # not a min configuration: full negation
    assert fm(cfg("100")) == cfg("100")  # singleton minimal trapspace


def test_extension_of_negation_is_negation():
    neg = BooleanNetwork.negation(3)
    assert min_trapping_extension(neg) == neg


def test_extension_laws_sampled():
    for seed in range(8):
        f = random_network(3, seed + 23)
        fm = min_trapping_extension(f)
        assert order_leq(f, fm)
        assert min_trapping_extension(fm) == fm
        assert minimal_trapspaces(fm)[0] == minimal_trapspaces(f)[0]
        assert order_leq(trapping_closure(f), fm)


def test_extension_is_not_monotone():
    low = net_from_arcs(2, ["00>10"])
    high = net_from_arcs(2, ["00<>10"])
    assert order_leq(low, high)
    assert not order_leq(min_trapping_extension(low), min_trapping_extension(high))


def test_worked_example_trapspace_facts():
    f = f_ex3()
    minimal, min_configs = minimal_trapspaces(f)
    assert len(enumerate_trapspaces(f)) == 9
    assert len(minimal) == 3
    assert principal_trapspace(f, cfg("000")) == cube("**0")
    covered = np.flatnonzero(min_configs)
    assert {str(Configuration(3, x)) for x in covered} == {"100", "101", "110"}


# --- the subcube table, against the independent oracles


def test_table_entry_is_or_of_member_moves():
    for f in [f_ex3(), *sampled_networks(range(3, 5))]:
        tern = _ternary_of_masks(f.n)
        table = _moved_rows(f.np_image[None], f.n, f.n)[0, 0]
        assert table.dtype == np.uint16
        for c in all_subcubes(f.n):
            moved = 0
            for m in c.member_bits():
                moved |= m ^ f.image[m]
            assert table[tern[c.base] + 2 * tern[c.free]] == moved


@pytest.mark.parametrize("n", [*range(1, 13), 14])
def test_two_stage_or_kernel_matches_digitwise_oracle(n):
    # n = 7 is the first stage alone; from n = 8 on the second stage runs.
    rng = np.random.default_rng(n)
    moves = rng.integers(0, 1 << n, 1 << n).astype(np.uint16)
    sparse = rng.random(1 << n) < 2.0 ** -n * 3  # a few True leaves
    for leaves in (moves, sparse, np.zeros(1 << n, dtype=bool)):
        table = _subcube_or(leaves, n)
        assert table.dtype == leaves.dtype
        assert np.array_equal(table, digitwise_subcube_or(leaves, n))


def test_fixed_point_table_entry_is_member_scan():
    # One uint8 table of fixed-point counts saturated at 2: every count from
    # 0 to 2 appears, identity's subcubes holding up to 2^n fixed points.
    seen = set()
    for f in oracle_population():
        tern = _ternary_of_masks(f.n)
        table = ProfileBlock.of([f])["fixed_points"][0]
        assert table.dtype == np.uint8
        for c in all_subcubes(f.n):
            scan = sum(f.image[m] == m for m in c.member_bits())
            assert table[tern[c.base] + 2 * tern[c.free]] == min(scan, 2)
            seen.add(min(scan, 2))
    assert seen == {0, 1, 2}


def test_lattice_constants_reject_writes():
    for n in (1, 4):
        for constant in (_ternary_of_masks(n), _free_of_index(n)):
            with pytest.raises(ValueError):
                constant[0] = 1
    # principal_pairs advances a copy of the cached ternary index.
    before = _ternary_of_masks(4).copy()
    principal_pairs(BooleanNetwork.negation(4))
    assert np.array_equal(_ternary_of_masks(4), before)


def test_table_principal_pairs_match_frontier_and_brute_force():
    for f in table_population():
        brute = brute_force_principals(f)
        free_array, base_array = principal_pairs(f)
        for x, (free, base) in enumerate(zip(free_array.tolist(), base_array.tolist())):
            assert (free, base) == principal_pair(f, x)
            assert Subcube(f.n, free, base) == brute[x]


def test_principal_arrays_and_cover_are_read_only():
    f = f_ex3()
    free, base = principal_pairs(f)
    _, covered = minimal_trapspaces(f)
    assert free.dtype == base.dtype == np.int64 and free.shape == base.shape == (8,)
    assert covered.dtype == bool and covered.shape == (8,)
    for array in (free, base, covered, NetworkProfile(f).minimal[1]):
        with pytest.raises(ValueError):
            array[0] = 1


def test_table_minimal_matches_pairwise_oracle():
    for f in table_population():
        minimal, configs = minimal_trapspaces(f)
        expected = pairwise_minimal_trapspaces(f)
        assert set(minimal.members) == expected
        covered = {b for c in expected for b in c.member_bits()}
        assert set(np.flatnonzero(configs).tolist()) == covered


def test_table_enumeration_matches_brute_force():
    for f in oracle_population():
        collection = enumerate_trapspaces(f)
        brute = brute_force_trapspaces(f)
        assert set(collection.members) == brute
        tern = _ternary_of_masks(f.n)
        for c in all_subcubes(f.n):
            assert collection.mask[tern[c.base] + 2 * tern[c.free]] == (c in brute)


def test_table_dimension_cap():
    f = BooleanNetwork.identity(17)
    for whole_network_query in (principal_pairs, minimal_trapspaces, trapping_closure):
        with pytest.raises(ValueError):
            whole_network_query(f)
    assert principal_trapspace(f, Configuration(17, 5)) == Subcube(17, 0, 5)
