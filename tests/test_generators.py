import hashlib
import itertools

import numpy as np
import pytest

from trapnets import (
    Arrangement,
    BooleanNetwork,
    FreeDimBehavior,
    Subcube,
    ValidationFailed,
    arrangement_network,
    build_graph,
    classify_network,
    constant_on_arrangements,
    graph_property,
    is_commutative,
    negation_on_subcubes,
    random_commutative,
    random_network,
    transient_and_period,
    union_disjoint,
)
from trapnets.generators import (
    long_transient_trapping,
    random_constant_on_arrangements,
    random_negation_on_subcubes,
)

from helpers import (
    all_subcubes,
    cfg,
    cube,
    full_cube,
    net_from_rows,
    pairwise_is_commutative,
    pointwise_arrangement_network,
    validate_arrangement_network,
)


# --- random networks


def test_random_network_deterministic():
    assert random_network(2, 123) == random_network(2, 123)
    assert random_network(2, 123) != random_network(2, 124)


def test_random_network_covers_all_one_bit_networks():
    seen = {random_network(1, s).image for s in range(80)}
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_random_network_shape():
    f = random_network(3, 9)
    assert f.n == 3 and len(f.image) == 8


# --- arrangements


def crossed_faces() -> Arrangement:
    # two faces of the 3-cube crossing in an edge
    return Arrangement((cube("**0"), cube("1**")))


def test_arrangement_core_and_content():
    arr = crossed_faces()
    assert arr.core() == cube("1*0")
    assert arr.content_bitset().bit_count() == 6
    assert arr.free_dimensions() == 0b010  # only the second coordinate


def test_arrangement_requires_common_point():
    with pytest.raises(ValueError):
        Arrangement((cube("0*"), cube("1*")))


def test_single_subcube_negate_is_local_negation():
    arr = Arrangement((cube("**0"),))
    net = arrangement_network(
        arr, {1: FreeDimBehavior.NEGATE, 2: FreeDimBehavior.NEGATE}
    )
    assert net == negation_on_subcubes([cube("**0")])


def test_crossed_faces_has_three_arrangement_networks():
    # const0 / negate / const1 on the single free dimension
    arr = crossed_faces()
    const0 = arrangement_network(arr, {2: FreeDimBehavior.CONST0})
    neg = arrangement_network(arr, {2: FreeDimBehavior.NEGATE})
    const1 = arrangement_network(arr, {2: FreeDimBehavior.CONST1})
    assert const0 == net_from_rows({
        "000": "100", "010": "100", "100": "100", "110": "100",
        "101": "100", "111": "100", "001": "001", "011": "011",
    })
    assert neg == net_from_rows({
        "000": "110", "010": "100", "100": "110", "110": "100",
        "101": "110", "111": "100", "001": "001", "011": "011",
    })
    assert const1 == net_from_rows({
        "000": "110", "010": "110", "100": "110", "110": "110",
        "101": "110", "111": "110", "001": "001", "011": "011",
    })
    assert all(is_commutative(f) for f in (const0, neg, const1))


def test_full_cube_negate_is_negation():
    arr = Arrangement((full_cube(1),))
    assert arrangement_network(arr, {1: FreeDimBehavior.NEGATE}) == BooleanNetwork.negation(1)


def test_behavior_coverage_is_checked():
    arr = crossed_faces()
    with pytest.raises(ValueError, match="free dimensions"):
        arrangement_network(arr, {})
    with pytest.raises(ValueError, match="free dimensions"):
        arrangement_network(arr, {1: FreeDimBehavior.NEGATE, 2: FreeDimBehavior.NEGATE})


def test_negating_a_core_fixed_dimension_fails_validation():
    # content of {edge, point} is closed under flipping the first coordinate
    # but the core pins it, so only the matching constant is valid
    arr = Arrangement((cube("*00"), cube("000")))
    assert arr.free_dimensions() == 0b001
    assert arr.core() == cube("000")
    with pytest.raises(ValidationFailed):
        arrangement_network(arr, {1: FreeDimBehavior.NEGATE})
    ok = arrangement_network(arr, {1: FreeDimBehavior.CONST0})
    assert ok(cfg("100")) == cfg("000")


def test_behaviours_are_refused_exactly_where_the_former_check_fails():
    # Every arrangement of one to three distinct subcubes at n <= 3, with
    # every behaviour: arrangement_network refuses the behaviours up front
    # exactly where the network they give fails the former post-construction
    # check, and what it builds passes that check and commutes.
    options = (FreeDimBehavior.CONST0, FreeDimBehavior.CONST1, FreeDimBehavior.NEGATE)
    built = refused = 0
    for n in range(1, 4):
        for size in range(1, 4):
            for family in itertools.combinations(all_subcubes(n), size):
                try:
                    arr = Arrangement(family)
                except ValueError:  # no common point
                    continue
                dims = [i + 1 for i in range(n) if arr.free_dimensions() >> i & 1]
                for combo in itertools.product(options, repeat=len(dims)):
                    behaviors = dict(zip(dims, combo))
                    expected = pointwise_arrangement_network(arr, behaviors)
                    try:
                        validate_arrangement_network(expected, arr)
                    except ValidationFailed:
                        with pytest.raises(ValidationFailed):
                            arrangement_network(arr, behaviors)
                        refused += 1
                        continue
                    net = arrangement_network(arr, behaviors)
                    assert net == expected
                    validate_arrangement_network(net, arr)
                    assert pairwise_is_commutative(net)
                    built += 1
    assert (built, refused) == (999, 5240)


# --- negation on subcubes


def test_negation_on_full_cube():
    assert negation_on_subcubes([full_cube(3)]) == BooleanNetwork.negation(3)


def test_negation_on_no_cubes_is_identity():
    assert negation_on_subcubes([], n=3) == BooleanNetwork.identity(3)


def test_negation_on_face_and_edge_is_symmetric():
    # the two-part example: a 4-cycle on a face plus a flipped edge
    net = negation_on_subcubes([cube("**0"), cube("*11")])
    assert graph_property(build_graph(net, "asynchronous"), "symmetric")
    report = classify_network(net)
    assert report.marseille


def test_negation_rejects_overlap():
    with pytest.raises(ValueError, match="^subcubes overlap$"):
        negation_on_subcubes([cube("**0"), cube("1*0")])


# --- constant on arrangements


def test_constant_on_full_cube():
    net = constant_on_arrangements([(Arrangement((full_cube(2),)), cfg("10"))])
    assert all(v == cfg("10").bits for v in net.image)


def test_constant_on_nothing_is_identity():
    assert constant_on_arrangements([], n=2) == BooleanNetwork.identity(2)


def test_constant_pair_example_is_lille():
    # all arcs into 010 on one side and into 101 on the other
    left = Arrangement((cube("0*0"), cube("*10"), cube("01*")))
    right = Arrangement((cube("1*1"), cube("*01"), cube("10*")))
    net = constant_on_arrangements([(left, cfg("010")), (right, cfg("101"))])
    report = classify_network(net)
    assert report.lille and report.idempotent
    assert graph_property(build_graph(net, "asynchronous"), "oriented")


def test_constant_target_must_lie_in_core():
    arr = Arrangement((cube("**0"),))
    with pytest.raises(ValueError, match="core"):
        constant_on_arrangements([(arr, cfg("001"))])


def test_constant_rejects_content_overlap():
    a = Arrangement((cube("**0"),))
    b = Arrangement((cube("1**"),))
    with pytest.raises(ValueError, match="^arrangement contents overlap$"):
        constant_on_arrangements([(a, cfg("000")), (b, cfg("100"))])


# --- unions


def test_union_of_negation_parts_is_marseille():
    parts = [
        negation_on_subcubes([cube("0*0")], n=3),
        negation_on_subcubes([cube("1*1")], n=3),
    ]
    net = union_disjoint(parts)
    assert classify_network(net).marseille


def test_union_of_single_part_is_that_part():
    part = negation_on_subcubes([cube("**0")])
    assert union_disjoint([part]) == part


def test_union_asynchronous_graph_is_arc_union():
    parts = [
        negation_on_subcubes([cube("0*0")], n=3),
        constant_on_arrangements([(Arrangement((cube("1*1"),)), cfg("101"))]),
    ]
    net = union_disjoint(parts)
    assert is_commutative(net)
    rows = zip(build_graph(parts[0], "asynchronous").out, build_graph(parts[1], "asynchronous").out)
    assert build_graph(net, "asynchronous").out == tuple(r | s for r, s in rows)


def test_union_rejects_overlapping_supports():
    a = negation_on_subcubes([cube("**0")])
    with pytest.raises(ValueError, match="^supports overlap at configuration 0$"):
        union_disjoint([a, a])


def test_union_names_the_first_shared_configuration_of_a_later_part():
    # The first two parts move {000, 010} and {011, 111}.  The third moves
    # 101 (= 5), which no earlier part moves, then 111 (= 7), which the second does.
    parts = [
        negation_on_subcubes([cube("0*0")], n=3),
        negation_on_subcubes([cube("*11")], n=3),
        negation_on_subcubes([cube("1*1")], n=3),
    ]
    with pytest.raises(ValueError, match="^supports overlap at configuration 7$"):
        union_disjoint(parts)


# --- long transient construction


def test_long_transient_chain_values():
    f = long_transient_trapping(4)
    chain = ["0101", "1010", "1101", "1110", "1111"]
    for a, b in zip(chain, chain[1:]):
        assert f(cfg(a)) == cfg(b)
    assert f(cfg("1111")) == cfg("1111")
    assert f(cfg("0000")) == cfg("0001")
    assert f(cfg("0001")) == cfg("0000")


def test_long_transient_measurements():
    for n in range(3, 7):
        f = long_transient_trapping(n)
        assert transient_and_period(f) == (n, 2)


def test_long_transient_is_trapping():
    for n in range(3, 9):
        assert classify_network(long_transient_trapping(n)).trapping


def test_long_transient_requires_three_coordinates():
    with pytest.raises(ValueError):
        long_transient_trapping(2)


# --- random structured generators


def test_random_commutative_always_commutative():
    for seed in range(30):
        f = random_commutative(3, seed, parts=2)
        assert is_commutative(f)
    for seed in range(10):
        assert is_commutative(random_commutative(4, seed, parts=3))


@pytest.mark.parametrize("generate", [random_commutative, random_negation_on_subcubes,
                                      random_constant_on_arrangements])
def test_random_generators_refuse_fewer_than_one_part(generate):
    for parts in (0, -2):
        with pytest.raises(ValueError, match=r"^parts must be at least 1$"):
            generate(3, 0, parts=parts)
    assert generate(3, 0, parts=1).n == 3


def test_random_commutative_deterministic():
    assert random_commutative(3, 5, parts=2) == random_commutative(3, 5, parts=2)


# sha256 of the image tables of generate(n, seed) for seeds 0..9, as uint32
# little-endian, first 16 hex digits: pins the generated networks across
# rewrites of the arrangement checks and of the placement loop.
RANDOM_GENERATOR_DIGESTS = {
    random_commutative: {
        1: "5ac34ad9961feabe", 2: "8cb70e852792d3df", 3: "84aff1c3c6874594",
        4: "8bf3f2c85cc7b309", 5: "bdc6b8f47aa7b840", 6: "e5e8f0d2bd1d968e",
        7: "f1736d6184a572ac", 8: "663c4520a988b82f", 9: "4b12f2a934fce629",
        10: "bcc6357d9656d81f", 11: "759d3a0453fe3313", 12: "dd7a9848737ef5f6",
    },
    random_negation_on_subcubes: {
        1: "b5d52ae1ab4ba287", 2: "536e3ccfdeff8eab", 3: "c44602c65239a1db",
        4: "1237ea73b2c2cb60", 5: "c55d557fed7b4eda", 6: "1bb68c82dff4b15a",
        7: "f35ea528ed8dad45", 8: "91faf66da9452421", 9: "5d2b8b0206dbfc61",
        10: "e4c6d474172b1273", 11: "43e547f568bfbe16", 12: "24f5e049bc31f75c",
    },
    random_constant_on_arrangements: {
        1: "19709bd89b21181d", 2: "226a0e2b277d94d7", 3: "8a58410bf1ebdf28",
        4: "caf5f2b51d11dfcd", 5: "1bd555601b603d90", 6: "04fa563f1056818d",
        7: "8be80b3aaf0e64d9", 8: "3564c8b5649136cb", 9: "96f1da0473dcffb8",
        10: "d8ccdc0106bc2909", 11: "fb11dbf75e036df0", 12: "7ccf6ae9b328aaf3",
    },
}


def _digest_id(generate, n):
    # The random_commutative cases keep their bare ids [n].
    return str(n) if generate is random_commutative else f"{generate.__name__}-{n}"


@pytest.mark.parametrize("generate, n", [
    pytest.param(generate, n, id=_digest_id(generate, n))
    for generate in RANDOM_GENERATOR_DIGESTS for n in range(1, 13)
])
def test_random_commutative_networks_unchanged(generate, n):
    h = hashlib.sha256()
    for seed in range(10):
        h.update(np.array(generate(n, seed).image, dtype="<u4").tobytes())
    assert h.hexdigest()[:16] == RANDOM_GENERATOR_DIGESTS[generate][n]


# sha256 of the image tables of generate(n, seed, parts) for seeds 0..2, as
# uint32 little-endian, first 16 hex digits: pins the larger networks that
# `gen --parts` and the benchmark's inputs build.
LARGE_GENERATOR_DIGESTS = {
    random_commutative: {
        (13, 1): "1590c486f1b2b31c", (13, 8): "48f598dc58d77469", (13, 16): "5238c61d59465b3a",
        (14, 1): "ce4b2c5bf935d689", (14, 8): "a1e2903450d2e28d", (14, 16): "cb6b9fb2d1d4bee2",
        (16, 1): "70b1c33b5b5ac568", (16, 8): "a9244517ef1140e3", (16, 16): "b35f4b55f608bf41",
    },
    random_negation_on_subcubes: {
        (13, 1): "d70363994d8ffb7f", (13, 8): "589a32a849166b65", (13, 16): "2d5f19466c540c29",
        (14, 1): "f5cc911d3a6e9f1a", (14, 8): "1c39b7fb739d1a01", (14, 16): "95069acfb571980b",
        (16, 1): "b462f06148e1b682", (16, 8): "fd7ed89690a2d224", (16, 16): "44cad6447201985d",
    },
    random_constant_on_arrangements: {
        (13, 1): "4c2f20cfcde8e947", (13, 8): "2fc4d465a2e4f1b3", (13, 16): "bfae90b652e16541",
        (14, 1): "41c11589286f2dc5", (14, 8): "4f73e00655d7aa98", (14, 16): "8ff19ff7d6873426",
        (16, 1): "c8b377293f86d5a5", (16, 8): "6cd24a8447b16f48", (16, 16): "37de78cba2288727",
    },
}


@pytest.mark.parametrize("generate, n, parts", [
    pytest.param(generate, n, parts, id=f"{generate.__name__}-{n}-{parts}")
    for generate, digests in LARGE_GENERATOR_DIGESTS.items() for n, parts in digests
])
def test_large_generator_networks_unchanged(generate, n, parts):
    h = hashlib.sha256()
    for seed in range(3):
        h.update(generate(n, seed, parts).np_image.astype("<u4").tobytes())
    assert h.hexdigest()[:16] == LARGE_GENERATOR_DIGESTS[generate][n, parts]


def test_random_negation_and_constant_generators():
    for seed in range(12):
        neg = random_negation_on_subcubes(3, seed)
        report = classify_network(neg)
        assert report.marseille
        assert graph_property(build_graph(neg, "asynchronous"), "symmetric")
        con = random_constant_on_arrangements(3, seed)
        report = classify_network(con)
        assert report.lille
        assert graph_property(build_graph(con, "asynchronous"), "oriented")


def test_random_commutative_outputs_lie_in_commutative_census():
    census = set()
    for code in range(256):
        table = (code & 3, code >> 2 & 3, code >> 4 & 3, code >> 6 & 3)
        f = BooleanNetwork(2, table)
        if is_commutative(f):
            census.add(table)
    for seed in range(60):
        assert random_commutative(2, seed, parts=2).image in census


# --- exhaustive converse at n = 2


def enumerate_arrangement_parts(n=2):
    """Every arrangement network over every arrangement of B^2 subcubes."""
    cubes = [Subcube.from_string("".join(p)) for p in itertools.product("01*", repeat=n)]
    parts = {}
    for r in range(1, len(cubes) + 1):
        for family in itertools.combinations(cubes, r):
            first = family[0]
            meet = first
            for c in family[1:]:
                meet = meet.intersection(c) if meet is not None else None
                if meet is None:
                    break
            if meet is None:
                continue
            arr = Arrangement(tuple(family))
            free = arr.free_dimensions()
            dims = [i + 1 for i in range(n) if free >> i & 1]
            options = [
                (FreeDimBehavior.CONST0, FreeDimBehavior.CONST1, FreeDimBehavior.NEGATE)
            ] * len(dims)
            for combo in itertools.product(*options):
                try:
                    net = arrangement_network(arr, dict(zip(dims, combo)))
                except ValidationFailed:
                    continue
                parts.setdefault(net.image, arr.content_bitset())
    return parts


def test_every_commutative_two_bit_network_is_a_union_of_arrangement_networks():
    parts = enumerate_arrangement_parts()
    identity = BooleanNetwork.identity(2).image

    reachable = {identity}
    frontier = [(identity, 0)]
    part_list = [(img, content) for img, content in parts.items()]
    seen = {(identity, 0)}
    while frontier:
        image, used = frontier.pop()
        for img, content in part_list:
            if content & used:
                continue
            merged = tuple(img[x] if content >> x & 1 else image[x] for x in range(4))
            key = (merged, used | content)
            if key not in seen:
                seen.add(key)
                reachable.add(merged)
                frontier.append(key)

    census = set()
    for code in range(256):
        table = (code & 3, code >> 2 & 3, code >> 4 & 3, code >> 6 & 3)
        if is_commutative(BooleanNetwork(2, table)):
            census.add(table)
    assert reachable == census
