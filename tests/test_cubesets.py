import itertools

import pytest

from trapnets import (
    BooleanNetwork,
    Configuration,
    NetworkProfile,
    Subcube,
    SubcubeCollection,
    classify_collection,
    collection_at,
    enumerate_trapspaces,
    lambda_closure,
    minimal_trapspaces,
    mu_reduction,
    parse_collection,
    random_network,
    realize,
    trapping_closure,
)

import numpy as np

from trapnets.cubesets import (
    convex_rows,
    format_pairs,
    lambda_rows,
    min_ideal_rows,
    pointwise_cubes,
    pointwise_free,
    pre_ideal_rows,
    pre_principal_rows,
)

from helpers import (
    cfg,
    cube,
    f_ex3,
    full_cube,
    member_scan_pointwise_free,
    nested_pairs_convex,
    oracle_population,
    pairwise_min_ideal,
    pairwise_pre_ideal,
    pairwise_pre_principal,
    sweep_lambda_closure,
)


def collection(n, *strings):
    return SubcubeCollection.of(n, (cube(s) for s in strings))


def pt_of(f):
    return NetworkProfile(f).pt_collection


# --- pointwise intersection


def test_collection_at_worked_example():
    q = pt_of(f_ex3())
    assert collection_at(q, cfg("000")) == cube("**0")


def test_collection_at_empty_is_full_cube():
    empty = SubcubeCollection.of(3, ())
    assert collection_at(empty, cfg("010")) == full_cube(3)


def test_collection_at_singleton_member():
    t = enumerate_trapspaces(f_ex3())
    assert collection_at(t, cfg("100")) == cube("100")


# --- realization


def test_realize_full_cube_collection_is_negation():
    assert realize(collection(3, "***")) == BooleanNetwork.negation(3)


def test_realize_principal_collection_gives_closure():
    f = f_ex3()
    assert realize(pt_of(f)) == trapping_closure(f)


def test_realize_trapspace_collection_gives_closure():
    f = f_ex3()
    assert realize(enumerate_trapspaces(f)) == trapping_closure(f)


# --- union closure and pointwise reduction


def brute_force_lambda(coll):
    # oracle: direct sweep over all subsets of the member list
    members = list(coll.members)
    out = set()
    for k in range(1, len(members) + 1):
        for subset in itertools.combinations(members, k):
            covered = 0
            for c in subset:
                covered |= c.point_bitset()
            for cand in _subcubes(coll.n):
                if cand.point_bitset() == covered:
                    out.add(cand)
    return out


def _subcubes(n):
    for pattern in itertools.product("01*", repeat=n):
        yield Subcube.from_string("".join(pattern))


def test_lambda_of_principal_is_trapspaces():
    f = f_ex3()
    q = pt_of(f)
    lam = lambda_closure(q)
    assert lam == enumerate_trapspaces(f)
    assert set(lam.members) == brute_force_lambda(q)
    assert len(lam) == 9


def test_lambda_of_two_singletons():
    got = lambda_closure(collection(2, "00", "01"))
    assert set(got.members) == {cube("00"), cube("01"), cube("0*")}
    assert brute_force_lambda(collection(2, "00", "01")) == set(got.members)


def test_lambda_of_full_cube():
    assert lambda_closure(collection(3, "***")) == collection(3, "***")


def test_mu_of_trapspaces_is_principal():
    f = f_ex3()
    assert mu_reduction(enumerate_trapspaces(f)) == pt_of(f)


def test_mu_of_full_cube_and_empty():
    assert mu_reduction(collection(2, "**")) == collection(2, "**")
    assert mu_reduction(SubcubeCollection.of(2, ())) == collection(2, "**")


# --- recognisers


def test_worked_example_principal_flags():
    flags = classify_collection(pt_of(f_ex3()))
    assert flags.pre_principal
    # 0*0 sits between 100... no: *00 sits between 100 and **0 and is absent
    assert not flags.convex


def test_worked_example_trapspace_flags():
    flags = classify_collection(enumerate_trapspaces(f_ex3()))
    assert flags.pre_ideal


def test_full_cube_collection_has_all_flags():
    flags = classify_collection(collection(2, "**"))
    assert flags.pre_principal and flags.pre_ideal and flags.min_ideal and flags.convex


def test_minimal_collection_is_min_ideal():
    minimal, _ = minimal_trapspaces(f_ex3())
    assert classify_collection(minimal).min_ideal
    assert not classify_collection(collection(2, "0*", "00")).min_ideal


def test_convexity_needs_intermediate_cubes():
    assert classify_collection(collection(3, "000", "0*0")).convex
    assert classify_collection(collection(3, "000", "0*0", "00*", "0**")).convex
    assert not classify_collection(collection(3, "000", "0**")).convex
    assert not classify_collection(collection(3, "000", "0*0", "0**")).convex


def test_pre_principal_iff_mu_fixed_point():
    # definitional cross-check of the three-condition recogniser
    seen = 0
    for seed in range(40):
        f = random_network(3, seed)
        q = pt_of(f)
        assert classify_collection(q).pre_principal == (mu_reduction(q) == q)
        seen += 1
    # random non-structured collections too
    import random as _random

    rng = _random.Random(5)
    cubes3 = list(_subcubes(3))
    for _ in range(60):
        sample = rng.sample(cubes3, rng.randint(1, 6))
        coll = SubcubeCollection.of(3, sample)
        assert classify_collection(coll).pre_principal == (mu_reduction(coll) == coll)


def test_pre_ideal_iff_trapspace_collection():
    # ideal collections are exactly the trapspace collections of networks
    for seed in range(20):
        f = random_network(3, seed + 11)
        assert classify_collection(enumerate_trapspaces(f)).pre_ideal
    not_ideal = collection(2, "00", "**")  # missing the union-closure of nothing else
    got = classify_collection(not_ideal)
    assert got.pre_ideal == (lambda_closure(not_ideal) == not_ideal)


# --- star notation


def test_parse_and_format_collection():
    text = "**0\n100\n# comment\n\n1*0\n"
    coll = parse_collection(text)
    assert coll == collection(3, "**0", "100", "1*0")
    assert format_pairs(coll.n, *coll.pairs()) == "100\n1*0\n**0\n"
    assert parse_collection(format_pairs(coll.n, *coll.pairs())) == coll


def test_parse_collection_rejects_mixed_width():
    with pytest.raises(ValueError):
        parse_collection("**\n***")


def test_parse_collection_bad_character():
    with pytest.raises(ValueError, match="line 1"):
        parse_collection("*x*")


# --- lattice passes against the member-loop oracles


def _random_collections():
    """The empty collection, B^n alone and seeded random collections of
    several densities, for n = 1..5."""
    import random as _random

    rng = _random.Random(2026)
    for n in range(1, 6):
        cubes = list(_subcubes(n))
        yield SubcubeCollection.of(n, ())
        yield SubcubeCollection.of(n, [full_cube(n)])
        for density in (0.05, 0.2, 0.5, 0.9):
            for _ in range(6):
                yield SubcubeCollection.of(n, [c for c in cubes if rng.random() < density])


def _network_collections():
    # The member-loop oracles are quadratic in the member count, and identity
    # has 2,187 trapspaces at n = 7 and 6,561 at n = 8, so stop at n = 6.
    for f in oracle_population(max_n=6):
        p = NetworkProfile(f)
        yield from (p.pt_collection, p.trapspace_collection, p.minimal[0])


def test_lattice_passes_match_member_loop_oracles():
    seen = set()
    for coll in itertools.chain(_random_collections(), _network_collections()):
        n = coll.n
        members = coll.members
        assert coll.sorted_members() == sorted(members, key=lambda c: (c.free, c.base))
        assert len(coll) == len(members)
        assert lambda_closure(coll).members == sweep_lambda_closure(coll)
        frees = member_scan_pointwise_free(coll)
        assert realize(coll).image == tuple(x ^ fr for x, fr in enumerate(frees))
        pointwise = [Subcube(n, fr, x & ~fr) for x, fr in enumerate(frees)]
        assert mu_reduction(coll).members == set(pointwise)
        for x, meet in enumerate(pointwise):
            assert collection_at(coll, Configuration(n, x)) == meet
        recognised = classify_collection(coll)
        flags = (
            ("pre_principal", recognised.pre_principal, pairwise_pre_principal(coll)),
            ("pre_ideal", recognised.pre_ideal, pairwise_pre_ideal(coll)),
            ("min_ideal", recognised.min_ideal, pairwise_min_ideal(coll)),
            ("convex", recognised.convex, nested_pairs_convex(coll)),
        )
        for name, got, oracle in flags:
            assert got == oracle, (name, format_pairs(coll.n, *coll.pairs()))
            seen.add((name, got))
    assert len(seen) == 8  # every recogniser answered both ways


def _random_stacks():
    """Per n = 1..6: a stack of the empty collection, {B^n} and random masks
    of several densities, then a stack of one."""
    rng = np.random.default_rng(12)
    for n in range(1, 7):
        empty, whole = np.zeros(3**n, dtype=bool), np.zeros(3**n, dtype=bool)
        whole[-1] = True
        rows = [empty, whole] + [rng.random(3**n) < d for d in (0.03, 0.1, 0.3, 0.6, 0.95)]
        yield n, np.array(rows)
        yield n, np.array(rows[4:5])


def test_stacked_kernels_match_row_by_row_and_member_loop_oracles():
    seen = set()
    for n, stack in _random_stacks():
        before = stack.copy()
        free = pointwise_free(stack, n)
        rows = {
            "lambda": lambda_rows(stack, n),
            "mu": pointwise_cubes(free, n),
            "pre_principal": pre_principal_rows(stack, n),
            "pre_ideal": pre_ideal_rows(stack, n),
            "min_ideal": min_ideal_rows(stack, n),
            "convex": convex_rows(stack, n),
        }
        assert np.array_equal(stack, before)  # the passes leave their input alone
        for r, mask in enumerate(stack):
            coll = SubcubeCollection(n, mask.copy())
            assert np.array_equal(rows["lambda"][r], lambda_closure(coll).mask)
            assert np.array_equal(rows["mu"][r], mu_reduction(coll).mask)
            assert realize(coll).image == tuple(x ^ int(fr) for x, fr in enumerate(free[r]))
            flags = {name: bool(rows[name][r]) for name in
                     ("pre_principal", "pre_ideal", "min_ideal", "convex")}
            assert flags == vars(classify_collection(coll))
            seen.update(flags.items())
            if len(coll) > 60:  # the member loops are quadratic or worse in the members
                continue
            assert set(lambda_closure(coll).members) == sweep_lambda_closure(coll)
            assert list(free[r]) == member_scan_pointwise_free(coll)
            assert flags == {
                "pre_principal": pairwise_pre_principal(coll),
                "pre_ideal": pairwise_pre_ideal(coll),
                "min_ideal": pairwise_min_ideal(coll),
                "convex": nested_pairs_convex(coll),
            }
    assert len(seen) == 8  # every recogniser answered both ways


def test_collection_is_a_read_only_mask():
    coll = collection(2, "0*", "11")
    assert coll.mask.dtype == bool and coll.mask.shape == (9,)
    with pytest.raises(ValueError):
        coll.mask[0] = True
    assert cube("0*") in coll and cube("01") not in coll and cube("0**") not in coll
    assert coll.members == {cube("0*"), cube("11")}
    with pytest.raises(ValueError):
        SubcubeCollection.of(3, [cube("0*")])
    with pytest.raises(ValueError, match="capped at n=16"):
        SubcubeCollection.of(17, ())


def test_star_encoder_matches_subcube_str():
    rng = np.random.default_rng(9)
    for n in range(1, 9):
        for density in (0.0, 0.05, 0.5):
            collection = SubcubeCollection(n, rng.random(3**n) < density)
            expected = "".join(f"{c}\n" for c in collection.sorted_members())
            assert format_pairs(collection.n, *collection.pairs()) == expected
