"""Structured and random network constructions used as test populations.

An arrangement is a family of subcubes with a non-empty common
intersection; an arrangement network is the identity outside the family's
content, funnels the content into the common intersection, and treats each
coordinate uniformly.  Unions of such networks over disjoint contents are
exactly the commutative networks, which the random unions sample; the
long-transient network is trapping with the extremal transient length.
Each constructor checks its caller's input and then writes the network by
its construction's formula, which meets the construction's conditions.

A network is built as its int64 image array, written into the identity
``np.arange(2^n)``.  A content stays a 2^n-bit integer: placement tests it
for overlap at every draw, where an integer AND beats a bool array at the
small n of sampled verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Sequence

import numpy as np

from .core import BooleanNetwork, Configuration, Subcube, check_cap
from .core import bitset_array, bitset_members


class ValidationFailed(ValueError):
    """The requested behaviours do not yield a valid arrangement network."""


class FreeDimBehavior(Enum):
    CONST0 = "const0"
    CONST1 = "const1"
    NEGATE = "negate"


@dataclass(frozen=True)
class Arrangement:
    """A non-empty family of subcubes whose common intersection is non-empty."""

    members: tuple[Subcube, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("an arrangement needs at least one subcube")
        n = self.members[0].n
        for cube in self.members:
            if cube.n != n:
                raise ValueError("subcubes of mixed dimensions")
        if self.core() is None:
            raise ValueError("arrangement members have empty common intersection")

    @property
    def n(self) -> int:
        return self.members[0].n

    def core(self) -> Subcube | None:
        """The common intersection of the members (None when empty)."""
        cube = self.members[0]
        for other in self.members[1:]:
            cube = cube.intersection(other)
            if cube is None:
                return None
        return cube

    def content_bitset(self) -> int:
        bs = 0
        for cube in self.members:
            bs |= cube.point_bitset()
        return bs

    def free_dimensions(self) -> int:
        """Mask of coordinates whose flip leaves the content invariant."""
        return _free_dimensions(self.n, self.content_bitset())


def _free_dimensions(n: int, content: int) -> int:
    out = 0
    for i in range(n):
        bit = 1 << i
        low_mask = _even_positions(n, i)
        flipped = (content & low_mask) << bit | (content & ~low_mask) >> bit
        if flipped == content:
            out |= bit
    return out


def _even_positions(n: int, i: int) -> int:
    # Bitset over B^n selecting the configurations with coordinate i+1 equal 0:
    # a run of 2^i ones in every 2^(i+1) bits, doubled up to 2^n bits.
    out = (1 << (1 << i)) - 1
    width = 1 << (i + 1)
    while width < 1 << n:
        out |= out << width
        width <<= 1
    return out


def _arrangement_images(members, core: Subcube, free_dims: int, ones: int, flips: int):
    """An arrangement network's images of its content's members: a coordinate
    the arrangement does not leave free goes to the core's value, and a free
    one to 1 in ``ones``, its negation in ``flips`` and 0 otherwise."""
    return core.base & ~free_dims | ones | ~members & flips


def arrangement_network(
    arrangement: Arrangement, behaviors: dict[int, FreeDimBehavior]
) -> BooleanNetwork:
    """Build the arrangement network with the given per-free-dimension behaviour.

    ``behaviors`` maps each free dimension (1-based) of the arrangement to
    const0, const1 or negate.  A free dimension that the core fixes takes
    only the constant equal to the core's bit: any other choice there raises
    ValidationFailed before anything is built.  The image formula meets the
    three arrangement-network conditions, and the structure theorem makes
    the network commutative.
    """
    n = arrangement.n
    core = arrangement.core()
    free_dims = arrangement.free_dimensions()
    given = ones = flips = 0
    for i, mode in behaviors.items():
        if not 1 <= i <= n:
            raise ValueError(f"coordinate {i} out of range")
        given |= 1 << (i - 1)
        if mode is FreeDimBehavior.CONST1:
            ones |= 1 << (i - 1)
        elif mode is FreeDimBehavior.NEGATE:
            flips |= 1 << (i - 1)
    if given != free_dims:
        raise ValueError("behaviors must cover exactly the free dimensions")
    if (flips | ones ^ core.base) & free_dims & ~core.free:
        raise ValidationFailed("image of a content member falls outside the core")

    inside = bitset_array(arrangement.content_bitset(), 1 << n)
    image = np.arange(1 << n)
    image[inside] = _arrangement_images(image[inside], core, free_dims, ones, flips)
    return BooleanNetwork(n, image)


def negation_on_subcubes(cubes: Sequence[Subcube], n: int | None = None) -> BooleanNetwork:
    """Flip the free coordinates of each (pairwise disjoint) subcube.

    Every member of a cube moves to its opposite in that cube; everything
    else is fixed.  An empty sequence yields the identity (pass ``n``).
    """
    if not cubes:
        if n is None:
            raise ValueError("dimension required for an empty cube list")
        return BooleanNetwork.identity(n)
    n = cubes[0].n
    check_cap("network", n)
    image = np.arange(1 << n)
    used = 0
    for cube in cubes:
        if cube.n != n:
            raise ValueError("subcubes of mixed dimensions")
        pb = cube.point_bitset()
        if pb & used:
            raise ValueError("subcubes overlap")
        used |= pb
        image[bitset_array(pb, 1 << n)] ^= cube.free
    return BooleanNetwork(n, image)


def constant_on_arrangements(
    parts: Sequence[tuple[Arrangement, Configuration]], n: int | None = None
) -> BooleanNetwork:
    """Send each arrangement's whole content to one target inside its core.

    Contents must be pairwise disjoint and each target must lie in its
    arrangement's common intersection; everything else is fixed.  An empty
    sequence yields the identity (pass ``n``).
    """
    if not parts:
        if n is None:
            raise ValueError("dimension required for an empty arrangement list")
        return BooleanNetwork.identity(n)
    n = parts[0][0].n
    image = np.arange(1 << n)
    used = 0
    for arrangement, target in parts:
        if arrangement.n != n or target.n != n:
            raise ValueError("parts of mixed dimensions")
        core = arrangement.core()
        if not core.contains(target):
            raise ValueError(f"target {target} is outside the arrangement core")
        content = arrangement.content_bitset()
        if content & used:
            raise ValueError("arrangement contents overlap")
        used |= content
        image[bitset_array(content, 1 << n)] = target.bits
    return BooleanNetwork(n, image)


def union_disjoint(parts: Sequence[BooleanNetwork]) -> BooleanNetwork:
    """Combine networks whose supports (moved configurations) are disjoint."""
    if not parts:
        raise ValueError("need at least one network")
    n = parts[0].n
    xs = np.arange(1 << n)
    image, used = xs.copy(), np.zeros(1 << n, dtype=bool)
    for part in parts:
        if part.n != n:
            raise ValueError("parts of mixed dimensions")
        moved = part.np_image != xs
        shared = np.flatnonzero(moved & used)
        if shared.size:
            raise ValueError(f"supports overlap at configuration {shared[0]}")
        used |= moved
        image[moved] = part.np_image[moved]
    return BooleanNetwork(n, image)


def long_transient_trapping(n: int) -> BooleanNetwork:
    """A trapping network with transient length n and eventual period 2.

    A chain of n+1 configurations climbs to the all-ones point while two
    low corner configurations swap forever; everything else is fixed.
    Requires n >= 3 so the chain avoids the swapped corners.
    """
    if n < 3:
        raise ValueError("construction requires n >= 3")
    check_cap("network", n)

    def chain_point(i: int) -> int:
        bits = 0
        for j in range(1, n + 1):
            if j < i or (i + j) % 2:
                bits |= 1 << (j - 1)
        return bits

    image = np.arange(1 << n)
    points = [chain_point(i) for i in range(1, n + 2)]
    image[points[:-1]] = points[1:]
    image[[0, 1 << (n - 1)]] = 1 << (n - 1), 0  # the swapped corners
    return BooleanNetwork(n, image)


def exhaustive_networks(n: int) -> list[BooleanNetwork]:
    """Every network of dimension n, in the order of their codes: digit x
    of the base-2^n code is the image of x (the ``exhaustive`` cap)."""
    check_cap("exhaustive", n)
    size = 1 << n
    images = np.arange(size**size)[:, None] // size ** np.arange(size) % size
    return [BooleanNetwork(n, image) for image in images]


def random_network(n: int, seed: int) -> BooleanNetwork:
    """Uniformly random network of dimension n, deterministic per seed."""
    check_cap("network", n)
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 1 << n, size=1 << n, dtype=np.int64)
    return BooleanNetwork(n, table)


def _random_subcube_through(rng, n: int, anchor: int) -> Subcube:
    free = 0
    for i in range(n):
        if rng.random() < 0.4:
            free |= 1 << i
    return Subcube(n, free, anchor & ~free)


def _random_arrangement_through(rng, n: int, anchor: int) -> tuple[Arrangement, int]:
    """One or two random subcubes through ``anchor``, with their content."""
    cubes = tuple(_random_subcube_through(rng, n, anchor) for _ in range(int(rng.integers(1, 3))))
    arrangement = Arrangement(cubes)
    return arrangement, arrangement.content_bitset()


def _place_disjoint(rng, n: int, parts: int, draw, images) -> BooleanNetwork:
    """The network of up to ``parts`` pieces on pairwise disjoint contents.

    Each part gets up to 100 attempts.  An attempt draws an anchor
    configuration, and ``draw(anchor)`` gives a shape and its content
    bitset.  A shape whose content meets an earlier part's is redrawn;
    otherwise the content's members take ``images(shape, content, members)``.
    A part that is not placed within its attempts is skipped, and the rest
    of the cube is fixed.  The placement meets the public constructors'
    checks, so they are not run.  Refuses ``parts`` below 1 first.
    """
    if parts < 1:
        raise ValueError("parts must be at least 1")
    image = np.arange(1 << n)
    used = 0
    for _ in range(parts):
        for _attempt in range(100):
            shape, content = draw(int(rng.integers(0, 1 << n)))
            if content & used:
                continue
            inside = bitset_array(content, 1 << n)
            image[inside] = images(shape, content, image[inside])
            used |= content
            break
    return BooleanNetwork(n, image)


def random_negation_on_subcubes(n: int, seed: int, parts: int = 2) -> BooleanNetwork:
    """Negation on randomly placed pairwise-disjoint subcubes."""
    check_cap("network", n)
    rng = np.random.default_rng(seed)

    def draw(anchor):
        cube = _random_subcube_through(rng, n, anchor)
        return cube, cube.point_bitset()

    return _place_disjoint(rng, n, parts, draw, lambda cube, _, members: members ^ cube.free)


def random_constant_on_arrangements(n: int, seed: int, parts: int = 2) -> BooleanNetwork:
    """Constant maps on randomly placed disjoint arrangement contents."""
    check_cap("network", n)
    rng = np.random.default_rng(seed)

    def target(arrangement, _content, _members):
        core = arrangement.core()
        pick = core.base
        for i in bitset_members(core.free):
            if rng.random() < 0.5:
                pick |= 1 << i
        return pick

    draw = partial(_random_arrangement_through, rng, n)
    return _place_disjoint(rng, n, parts, draw, target)


def random_commutative(n: int, seed: int, parts: int = 2) -> BooleanNetwork:
    """Union of randomly sampled arrangement networks (always commutative).

    Arrangements are placed greedily on disjoint contents with up to 100
    retries per part; parts that cannot be placed are skipped, so the
    result may use fewer than ``parts`` pieces (down to the identity).  A
    free dimension that the core leaves free draws its behaviour (const0,
    const1 or negate), and one that the core fixes gets the core's constant,
    the only valid choice.
    """
    check_cap("network", n)
    rng = np.random.default_rng(seed)

    def network(arrangement, content, members):
        core, free_dims = arrangement.core(), _free_dimensions(n, content)
        ones = flips = 0
        for i in bitset_members(free_dims):
            choice = int(rng.integers(0, 3)) if core.free >> i & 1 else core.base >> i & 1
            ones |= (choice == 1) << i
            flips |= (choice == 2) << i
        return _arrangement_images(members, core, free_dims, ones, flips)

    return _place_disjoint(rng, n, parts, partial(_random_arrangement_through, rng, n), network)
