import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapnets import (
    BooleanNetwork,
    Configuration,
    Mask,
    Subcube,
    build_graph,
    lattice_combine,
    opposite,
    order_leq,
    span,
    update,
)
from trapnets.core import _string_to_bits, bitset_array, bitset_members

from helpers import all_subcubes, cfg, compose_word, cube, f_ex3, full_cube, singleton


def random_net(n, seed):
    from trapnets import random_network

    return random_network(n, seed)


# --- encoding and basic types


def test_string_encoding_is_x1_first():
    c = cfg("110")
    assert c.coordinate(1) == 1 and c.coordinate(2) == 1 and c.coordinate(3) == 0
    assert c.bits == 0b011
    assert str(c) == "110"
    assert _string_to_bits("") == 0
    # int() would accept all of these; the parser must not.
    for bad, char in (("1_0", "_"), ("+01", "+"), (" 01", " "), ("012", "2")):
        with pytest.raises(ValueError, match=re.escape(f"bad character {char!r}")):
            _string_to_bits(bad)
        with pytest.raises(ValueError):
            Configuration.from_string(bad)


def test_configuration_range_checked():
    with pytest.raises(ValueError):
        Configuration(2, 4)
    with pytest.raises(ValueError):
        Configuration(0, 0)
    with pytest.raises(ValueError):
        Configuration(21, 0)


def test_subcube_canonical_form():
    with pytest.raises(ValueError):
        Subcube(3, free=0b001, base=0b001)
    assert cube("**0").dimension() == 2
    assert cube("**0").size() == 4
    assert str(cube("1*0")) == "1*0"


def test_mask_coords_roundtrip():
    m = Mask.from_coords(5, [1, 3, 5])
    assert m.coords() == (1, 3, 5)
    assert m.size() == 3
    assert str(m) == "{1,3,5}"


# --- the coordinates where two configurations differ: the free mask of their span


def test_delta_spans_all_coordinates():
    assert Mask(3, span([cfg("001"), cfg("110")]).free).coords() == (1, 2, 3)


def test_delta_identity_is_empty():
    x = cfg("0110")
    assert Mask(4, span([x, x]).free).coords() == ()
    assert span([x, x]).dimension() == 0


def test_delta_single_flip():
    assert Mask(2, span([cfg("00"), cfg("10")]).free).coords() == (1,)
    assert span([cfg("00"), cfg("10")]).dimension() == 1


def test_delta_dimension_mismatch():
    with pytest.raises(ValueError):
        span([cfg("00"), cfg("000")])


# --- span


def minimal_containing_subcube(points):
    # oracle: smallest enumerated subcube containing every point
    n = points[0].n
    best = None
    for c in all_subcubes(n):
        if all(c.contains(p) for p in points) and (best is None or c.size() < best.size()):
            best = c
    return best


def test_span_of_two_configurations():
    assert span([cfg("000"), cfg("110")]) == cube("**0")


def test_span_singleton():
    assert span([cfg("101")]) == singleton(cfg("101"))


def test_span_three_points_derived():
    points = [cfg("00"), cfg("01"), cfg("10")]
    assert minimal_containing_subcube(points) == full_cube(2)
    assert span(points) == full_cube(2)


def test_span_empty_is_error():
    with pytest.raises(ValueError):
        span([])


@given(st.integers(1, 5), st.data())
@settings(max_examples=60)
def test_span_matches_oracle(n, data):
    k = data.draw(st.integers(1, 4))
    points = [Configuration(n, data.draw(st.integers(0, (1 << n) - 1))) for _ in range(k)]
    assert span(points) == minimal_containing_subcube(points)


# --- opposite


def test_opposite_flips_free_coordinates():
    assert opposite(cube("**0"), cfg("010")) == cfg("100")


def test_opposite_in_singleton():
    assert opposite(singleton(cfg("0101")), cfg("0101")) == cfg("0101")


def test_opposite_in_full_cube_is_negation():
    x = cfg("0110")
    assert opposite(full_cube(4), x) == x.negate()


def test_opposite_requires_membership():
    with pytest.raises(ValueError):
        opposite(cube("**0"), cfg("001"))


def test_opposite_is_involutive_and_spans():
    for c in all_subcubes(3):
        for x in c.members():
            y = opposite(c, x)
            assert opposite(c, y) == x
            assert span([x, y]) == c


def test_interval_is_span_of_point_and_image():
    from trapnets import interval

    f = f_ex3()
    assert interval(f, cfg("000")) == cube("**0")
    assert interval(f, cfg("100")) == cube("100")
    assert interval(f, cfg("001")) == span([cfg("001"), cfg("100")])


# --- update and word composition


def test_update_single_coordinate_example():
    f = f_ex3()
    g = update(f, Mask.from_coords(3, [1]))
    assert g(cfg("000")) == cfg("100")


def test_update_empty_set_is_identity():
    f = f_ex3()
    assert update(f, Mask.empty(3)) == BooleanNetwork.identity(3)
    assert update(f, Mask.full(3)) == f


def test_update_negation_coordinate():
    neg = BooleanNetwork.negation(2)
    g = update(neg, Mask.from_coords(2, [2]))
    assert g(cfg("00")) == cfg("01")


def test_compose_word_steps_left_to_right():
    f = f_ex3()
    w = [Mask.from_coords(3, [1]), Mask.from_coords(3, [2])]
    assert compose_word(f, w)(cfg("000")) == cfg("100")


def test_compose_empty_word_is_identity():
    f = f_ex3()
    assert compose_word(f, []) == BooleanNetwork.identity(3)


def test_compose_double_negation():
    neg = BooleanNetwork.negation(1)
    w = [Mask.from_coords(1, [1]), Mask.from_coords(1, [1])]
    assert compose_word(neg, w) == BooleanNetwork.identity(1)


def test_compose_matches_direct_definition():
    # word application agrees with updating twice by the raw definition
    for seed in range(8):
        f = random_net(4, seed)
        for s_bits, t_bits in [(0b0011, 0b0110), (0b1010, 0b1010), (0b1111, 0b0001)]:
            s, t = Mask(4, s_bits), Mask(4, t_bits)
            direct = update(f, t).image
            expected = tuple(direct[v] for v in update(f, s).image)
            w = compose_word(f, [s, t])
            assert w.image == expected


# --- order and lattice


def test_identity_is_bottom_negation_is_top():
    for seed in range(6):
        f = random_net(3, seed)
        assert order_leq(BooleanNetwork.identity(3), f)
        assert order_leq(f, BooleanNetwork.negation(3))


def test_closure_dominates_network():
    from trapnets import trapping_closure

    f = f_ex3()
    assert order_leq(f, trapping_closure(f))


def test_order_equivalent_to_graph_inclusion():
    for seed in range(10):
        f, g = random_net(3, seed), random_net(3, seed + 100)
        leq = order_leq(f, g)
        a_incl, ga_incl = (
            all(r | s == s for r, s in zip(build_graph(f, kind).out, build_graph(g, kind).out))
            for kind in ("asynchronous", "general")
        )
        assert leq == a_incl == ga_incl


def test_lattice_units():
    f = f_ex3()
    assert lattice_combine(BooleanNetwork.identity(3), BooleanNetwork.negation(3), "join") \
        == BooleanNetwork.negation(3)
    assert lattice_combine(f, BooleanNetwork.identity(3), "meet") == BooleanNetwork.identity(3)
    assert lattice_combine(f, f, "join") == f
    assert lattice_combine(f, BooleanNetwork.identity(3), "join") == f
    assert lattice_combine(f, BooleanNetwork.negation(3), "meet") == f


def test_lattice_laws_sampled():
    for seed in range(6):
        f, g = random_net(3, seed), random_net(3, seed + 50)
        join = lattice_combine(f, g, "join")
        meet = lattice_combine(f, g, "meet")
        assert join == lattice_combine(g, f, "join")
        assert meet == lattice_combine(g, f, "meet")
        # join/meet are the least upper / greatest lower bounds
        assert order_leq(f, join) and order_leq(g, join)
        assert order_leq(meet, f) and order_leq(meet, g)
        assert lattice_combine(f, meet, "join") == f
        assert lattice_combine(f, join, "meet") == f


def test_join_unions_asynchronous_arcs():
    for seed in range(6):
        f, g = random_net(3, seed), random_net(3, seed + 31)
        join = lattice_combine(f, g, "join")
        rows = zip(build_graph(f, "asynchronous").out, build_graph(g, "asynchronous").out)
        assert build_graph(join, "asynchronous").out == tuple(r | s for r, s in rows)


def test_update_monotone_in_subset_and_network():
    for seed in range(6):
        f = random_net(3, seed)
        g = lattice_combine(f, random_net(3, seed + 7), "join")
        for s_bits in range(8):
            for t_bits in range(8):
                s = Mask(3, s_bits)
                su = Mask(3, s_bits | t_bits)
                assert order_leq(update(f, s), update(f, su))
            assert order_leq(update(f, Mask(3, s_bits)), update(g, Mask(3, s_bits)))


def test_subcube_span_roundtrip_exhaustive():
    for n in range(1, 5):
        for c in all_subcubes(n):
            assert span(list(c.members())) == c


def test_network_validation():
    with pytest.raises(ValueError):
        BooleanNetwork(2, (0, 1, 2))
    with pytest.raises(ValueError):
        BooleanNetwork(2, (0, 1, 2, 4))


def test_network_validation_messages():
    with pytest.raises(ValueError, match=r"^image table must have 4 entries, got 3$"):
        BooleanNetwork(2, (0, 1, 2))
    with pytest.raises(ValueError, match=r"^image table must have 4 entries, got 5$"):
        BooleanNetwork(2, np.zeros(5, dtype=np.int64))
    # The first entry out of range is named, whatever the container.
    for table in ((0, 4, -1, 3), [0, 4, -1, 3], np.array([0, 4, -1, 3])):
        with pytest.raises(ValueError, match=r"^image entry 4 out of range for n=2$"):
            BooleanNetwork(2, table)
    with pytest.raises(ValueError, match=r"^image entry -1 out of range for n=2$"):
        BooleanNetwork(2, (0, 1, -1, 3))
    with pytest.raises(ValueError, match=rf"^image entry {2**70} out of range for n=2$"):
        BooleanNetwork(2, (0, 1, 2**70, 3))
    # Ints of mixed signs beyond int64 are read as floats by numpy, and are still ints.
    with pytest.raises(ValueError, match=r"^image entry -1 out of range for n=2$"):
        BooleanNetwork(2, (0, -1, 2**63, 3))
    with pytest.raises(ValueError, match=rf"^image entry {2**63} out of range for n=2$"):
        BooleanNetwork(2, np.array([0, 2**63, 1, 3], dtype=np.uint64))


def test_network_refuses_entries_that_are_not_integers():
    # numpy would truncate 0.9 to 0 and parse "3"; neither is an image entry.
    for table in ([0.9, 1, 2, 3], (0, 1.0, 2, 3), np.array([0.0, 1, 2, 3]),
                  ["1", "0", "3", "2"], [0, None, 2, 3]):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            BooleanNetwork(2, table)
    assert BooleanNetwork(2, [True, 0, np.int32(3), np.uint8(2)]).image == (1, 0, 3, 2)
    assert BooleanNetwork(2, np.array([3, 2, 1, 0], dtype=np.uint16)).image == (3, 2, 1, 0)


@pytest.mark.parametrize("cls", [Configuration, Mask])
def test_bits_must_be_integers(cls):
    for bits in (1.5, 1.0, "1", None):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            cls(2, bits)
    with pytest.raises(ValueError, match=r"^(configuration|mask) bits 4 out of range for n=2$"):
        cls(2, 4)
    assert cls(2, np.int64(3)) == cls(2, 3) and str(cls(2, True)) == str(cls(2, 1))


def test_subcube_masks_must_be_integers():
    for free, base in ((1.0, 0), (0, 2.0), ("1", 0), (None, 0)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            Subcube(2, free, base)
    with pytest.raises(ValueError, match=r"^free mask 4 out of range for n=2$"):
        Subcube(2, 4, 0)
    with pytest.raises(ValueError, match=r"^base -1 out of range for n=2$"):
        Subcube(2, 0, -1)
    assert Subcube(2, np.int64(1), 2) == Subcube(2, 1, 2)


def test_network_at_n20_holds_its_copy_and_no_other_table():
    image = np.arange(1 << 20)[::-1].copy()
    tracemalloc.start()
    try:
        f = BooleanNetwork(20, image)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(f.np_image, image)
    # The network's own 8 MiB int64 copy; the range check reads its minimum
    # and maximum, with no 2^n array of its own.
    assert peak < 9 << 20


def test_networks_from_a_tuple_a_list_and_an_array_are_one_network():
    image = random_net(5, 8).image
    array = np.array(image)
    nets = [BooleanNetwork(5, image), BooleanNetwork(5, list(image)), BooleanNetwork(5, array)]
    for f in nets:
        assert f == nets[0] and hash(f) == hash(nets[0])
        assert type(f.image) is tuple and f.image == image
        assert f.np_image.dtype == np.int64 and not f.np_image.flags.writeable
    assert nets[0].image is image  # a tuple passed in is kept
    # The network owns its table: writing the caller's array changes nothing.
    assert not np.shares_memory(nets[2].np_image, array)
    array[0] ^= 1
    assert nets[2] == nets[0] and nets[2].np_image[0] == image[0]
    # Networks of different dimension or table differ.
    assert BooleanNetwork(1, (0, 1)) != BooleanNetwork(2, (0, 1, 2, 3))
    assert BooleanNetwork(1, (0, 1)) != BooleanNetwork(1, (1, 1))
    assert len({*nets, BooleanNetwork.identity(5)}) == 2
    with pytest.raises(AttributeError):
        nets[0].n = 4


def test_network_pickles_as_its_fields():
    import pickle

    f = random_net(4, 3)
    f.np_image  # a cached array is not part of the pickle
    g = pickle.loads(pickle.dumps(f))
    assert g == f and "np_image" not in vars(g)
    assert not g.np_image.flags.writeable
    for h in (BooleanNetwork(3, list(range(8))), BooleanNetwork(3, np.arange(8)[::-1])):
        copy = pickle.loads(pickle.dumps(h))
        assert copy == h and hash(copy) == hash(h) and copy.image == h.image


# --- bitset members


def test_bitset_members_match_the_unpacked_bits_on_both_sides_of_32_bits():
    rng = np.random.default_rng(4)
    for width in (0, 1, 16, 31, 32, 33, 64, 200):
        for density in (0.05, 0.5, 1.0):
            bits = rng.random(width) < density
            bs = sum(1 << i for i in np.flatnonzero(bits).tolist())
            assert bitset_members(bs) == np.flatnonzero(bitset_array(bs, width)).tolist()
