"""Bit-level primitives for Boolean networks on the hypercube B^n.

Everything is encoded on machine integers: bit i-1 of a word holds
coordinate x_i, so the binary string "110" (x_1=1, x_2=1, x_3=0) is the
integer 0b011 = 3.  Values are immutable and hashable; all operations are
pure functions.

Every exact computation has a dimension cap.  ``CAPS`` is the one read-only
table of them and ``check_cap(kind, n)`` the one check, made before any
work; the CLI reads its refusal values from the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator

import numpy as np

# kind of work: (cap on n, the work as a refusal names it); the README's
# "Caps" table says which computations and commands read each entry.
_CAPPED_WORK = {
    "network": (20, "a network"),
    "table": (16, "the 3^n subcube table"),
    "enumeration": (13, "trapspace enumeration"),
    "closure": (13, "the 4^n union-closure pair table"),
    "global_sweep": (16, "the global subset sweep"),
    "pair_sweep": (8, "the subset-pair sweep"),
    "exhaustive": (2, "the exhaustive sweep"),
}
CAPS = MappingProxyType({kind: cap for kind, (cap, _) in _CAPPED_WORK.items()})


def check_cap(kind: str, n: int) -> None:
    """Raise ValueError unless 1 <= n <= CAPS[kind]; call it before any work."""
    cap, work = _CAPPED_WORK[kind]
    if not 1 <= n <= cap:
        raise ValueError(f"{work} is capped at n={cap} and needs n >= 1, got n={n}")


def _check_same_dimension(a, b) -> None:
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} != {b.n}")


def _bits_to_string(bits: int, n: int) -> str:
    return "".join("1" if bits >> i & 1 else "0" for i in range(n))


def _string_to_bits(s: str) -> int:
    # strip() leaves the first bad character in front; the check also keeps
    # int() from accepting signs, spaces and underscores.
    bad = s.strip("01")
    if bad:
        raise ValueError(f"bad character {bad[0]!r} in {s!r}")
    return int(s[::-1], 2) if s else 0


def iter_submasks(mask: int) -> Iterator[int]:
    """Yield every subset of ``mask`` (as a bit pattern), in increasing order."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


@dataclass(frozen=True)
class Configuration:
    """A point of B^n; bit i-1 of ``bits`` holds coordinate x_i."""

    n: int
    bits: int

    def __post_init__(self):
        check_cap("network", self.n)
        if not 0 <= self.bits < 1 << self.n:
            raise ValueError(f"configuration bits {self.bits} out of range for n={self.n}")

    @classmethod
    def from_string(cls, s: str) -> "Configuration":
        """Parse a binary string written x_1 x_2 ... x_n left to right."""
        return cls(len(s), _string_to_bits(s))

    def __str__(self) -> str:
        return _bits_to_string(self.bits, self.n)

    def coordinate(self, i: int) -> int:
        """Value of x_i (coordinates are 1-based)."""
        return self.bits >> (i - 1) & 1

    def negate(self) -> "Configuration":
        return Configuration(self.n, self.bits ^ ((1 << self.n) - 1))

    def flip(self, i: int) -> "Configuration":
        return Configuration(self.n, self.bits ^ (1 << (i - 1)))


@dataclass(frozen=True)
class Mask:
    """A subset of the coordinate set {1, ..., n}; bit i-1 marks coordinate i."""

    n: int
    bits: int

    def __post_init__(self):
        check_cap("network", self.n)
        if not 0 <= self.bits < 1 << self.n:
            raise ValueError(f"mask bits {self.bits} out of range for n={self.n}")

    @classmethod
    def from_coords(cls, n: int, coords: Iterable[int]) -> "Mask":
        bits = 0
        for i in coords:
            if not 1 <= i <= n:
                raise ValueError(f"coordinate {i} out of range for n={n}")
            bits |= 1 << (i - 1)
        return cls(n, bits)

    @classmethod
    def full(cls, n: int) -> "Mask":
        return cls(n, (1 << n) - 1)

    @classmethod
    def empty(cls, n: int) -> "Mask":
        return cls(n, 0)

    @classmethod
    def single(cls, n: int, i: int) -> "Mask":
        return cls.from_coords(n, (i,))

    def coords(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.bits >> i & 1)

    def size(self) -> int:
        return self.bits.bit_count()

    def union(self, other: "Mask") -> "Mask":
        _check_same_dimension(self, other)
        return Mask(self.n, self.bits | other.bits)

    def intersection(self, other: "Mask") -> "Mask":
        _check_same_dimension(self, other)
        return Mask(self.n, self.bits & other.bits)

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.coords()) + "}"


@dataclass(frozen=True)
class Subcube:
    """The set of configurations agreeing with ``base`` outside ``free``.

    Canonical form: the base has all free-coordinate bits cleared, so equal
    point sets compare and hash equal.
    """

    n: int
    free: int
    base: int

    def __post_init__(self):
        check_cap("network", self.n)
        full = (1 << self.n) - 1
        if not 0 <= self.free <= full:
            raise ValueError(f"free mask {self.free} out of range for n={self.n}")
        if not 0 <= self.base <= full:
            raise ValueError(f"base {self.base} out of range for n={self.n}")
        if self.base & self.free:
            raise ValueError("subcube base must have its free bits cleared")

    @classmethod
    def singleton(cls, x: Configuration) -> "Subcube":
        return cls(x.n, 0, x.bits)

    @classmethod
    def full_cube(cls, n: int) -> "Subcube":
        return cls(n, (1 << n) - 1, 0)

    @classmethod
    def from_string(cls, s: str) -> "Subcube":
        """Parse star notation: position i is x_i, one of '0', '1', '*'."""
        n = len(s)
        free = base = 0
        for i, c in enumerate(s):
            if c == "*":
                free |= 1 << i
            elif c == "1":
                base |= 1 << i
            elif c != "0":
                raise ValueError(f"invalid subcube string {s!r}")
        return cls(n, free, base)

    def __str__(self) -> str:
        return "".join(
            "*" if self.free >> i & 1 else ("1" if self.base >> i & 1 else "0")
            for i in range(self.n)
        )

    def dimension(self) -> int:
        return self.free.bit_count()

    def size(self) -> int:
        return 1 << self.dimension()

    def contains_bits(self, bits: int) -> bool:
        return bits & ~self.free == self.base

    def contains(self, x: Configuration) -> bool:
        _check_same_dimension(self, x)
        return self.contains_bits(x.bits)

    def is_subset(self, other: "Subcube") -> bool:
        _check_same_dimension(self, other)
        if self.free & ~other.free:
            return False
        return (self.base ^ other.base) & ~other.free == 0

    def intersects(self, other: "Subcube") -> bool:
        _check_same_dimension(self, other)
        return (self.base ^ other.base) & ~self.free & ~other.free == 0

    def intersection(self, other: "Subcube") -> "Subcube | None":
        """The intersection subcube, or None when the two cubes are disjoint."""
        if not self.intersects(other):
            return None
        free = self.free & other.free
        return Subcube(self.n, free, (self.base | other.base) & ~free)

    def member_bits(self) -> Iterator[int]:
        for s in iter_submasks(self.free):
            yield self.base | s

    def members(self) -> Iterator[Configuration]:
        for bits in self.member_bits():
            yield Configuration(self.n, bits)

    def member_array(self) -> np.ndarray:
        """All members as an int64 array, in increasing order."""
        return np.fromiter(self.member_bits(), dtype=np.int64, count=self.size())

    def point_bitset(self) -> int:
        """The member set as a 2^n-bit integer (bit y set iff y in the cube)."""
        return cube_bitset(self.free, self.base)


def cube_bitset(free: int, base: int) -> int:
    """The subcube (free, base) as a 2^n-bit integer; ``base`` has its free
    bits cleared.  Doubling over the free coordinates builds it."""
    bs = 1 << base
    while free:
        bit = free & -free
        bs |= bs << bit
        free ^= bit
    return bs


def bitset_array(bs: int, size: int) -> np.ndarray:
    """The bitset ``bs`` (below bit ``size``) as a bool array; entry y is bit y."""
    raw = np.frombuffer(bs.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little").view(bool)


def bitset_members(bs: int) -> list[int]:
    """The set bits of ``bs`` in increasing order."""
    return np.flatnonzero(bitset_array(bs, bs.bit_length())).tolist()


def delta_mask(x: Configuration, y: Configuration) -> Mask:
    """The set of coordinates where ``x`` and ``y`` differ."""
    _check_same_dimension(x, y)
    return Mask(x.n, x.bits ^ y.bits)


def hamming(x: Configuration, y: Configuration) -> int:
    _check_same_dimension(x, y)
    return (x.bits ^ y.bits).bit_count()


def span(points: Iterable[Configuration]) -> Subcube:
    """Smallest subcube containing every given point.

    Raises ValueError on an empty input.
    """
    it = iter(points)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("span of an empty point set is undefined") from None
    n, base = first.n, first.bits
    free = 0
    for p in it:
        if p.n != n:
            raise ValueError(f"dimension mismatch: {p.n} != {n}")
        free |= p.bits ^ base
    return Subcube(n, free, base & ~free)


def opposite(cube: Subcube, x: Configuration) -> Configuration:
    """The unique y in ``cube`` with span({x, y}) == cube (x must belong)."""
    _check_same_dimension(cube, x)
    if not cube.contains(x):
        raise ValueError(f"{x} is not a member of {cube}")
    return Configuration(x.n, x.bits ^ cube.free)


def interval(f: "BooleanNetwork", x: Configuration) -> Subcube:
    """The subcube spanned by ``x`` and its image f(x)."""
    _check_same_dimension(f, x)
    free = x.bits ^ f.image[x.bits]
    return Subcube(f.n, free, x.bits & ~free)


@dataclass(frozen=True)
class BooleanNetwork:
    """A map f: B^n -> B^n given by its full image table.

    ``image[x]`` is the bit pattern of f(x); the table has exactly 2^n
    entries.
    """

    n: int
    image: tuple[int, ...]

    def __post_init__(self):
        check_cap("network", self.n)
        size = 1 << self.n
        if len(self.image) != size:
            raise ValueError(f"image table must have {size} entries, got {len(self.image)}")
        for v in self.image:
            if not 0 <= v < size:
                raise ValueError(f"image entry {v} out of range for n={self.n}")

    @classmethod
    def identity(cls, n: int) -> "BooleanNetwork":
        return cls(n, tuple(range(1 << n)))

    @classmethod
    def negation(cls, n: int) -> "BooleanNetwork":
        full = (1 << n) - 1
        return cls(n, tuple(x ^ full for x in range(1 << n)))

    @cached_property
    def np_image(self) -> np.ndarray:
        arr = np.array(self.image, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    def __call__(self, x: Configuration) -> Configuration:
        _check_same_dimension(self, x)
        return Configuration(self.n, self.image[x.bits])

    def __reduce__(self):
        # Pickle the fields only: np_image is rebuilt, read-only, on first use.
        return BooleanNetwork, (self.n, self.image)


@dataclass(frozen=True)
class UpdateWord:
    """An ordered sequence of coordinate subsets, applied left to right."""

    n: int
    steps: tuple[Mask, ...]

    def __post_init__(self):
        check_cap("network", self.n)
        for s in self.steps:
            if s.n != self.n:
                raise ValueError(f"dimension mismatch in update word: {s.n} != {self.n}")

    @classmethod
    def from_coord_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "UpdateWord":
        return cls(n, tuple(Mask.from_coords(n, s) for s in sets))


def update(f: BooleanNetwork, subset: Mask) -> BooleanNetwork:
    """The network updating only the coordinates in ``subset``.

    The image keeps every other coordinate of the input unchanged; the full
    set gives back ``f`` and the empty set gives the identity.
    """
    _check_same_dimension(f, subset)
    s = subset.bits
    keep = ~s
    return BooleanNetwork(f.n, tuple((v & s) | (x & keep) for x, v in enumerate(f.image)))


def update_table(image: np.ndarray, subset_bits, xs: np.ndarray) -> np.ndarray:
    """Vectorised image table of the subset update (raw arrays, no wrappers).

    ``subset_bits`` is one subset or an array of them, which broadcasts to
    one table per subset.
    """
    return (image & subset_bits) | (xs & ~subset_bits)


def is_commutative(f: BooleanNetwork) -> bool:
    """All local updates commute: single-coordinate updates commute pairwise.

    Updates i and j, in either order, fix a configuration that neither moves.
    At an x that update i moves, the two orders agree for every j iff f(x)
    and f(x ^ e_i) agree off coordinate i; j's side is the same test for j.
    So each coordinate is checked once, on the configurations its own update
    moves: no work where f leaves the coordinate alone.
    """
    img = f.np_image
    moved = img ^ np.arange(1 << f.n, dtype=np.int64)
    for i in range(f.n):
        bit = 1 << i
        x = np.flatnonzero(moved & bit)
        if ((img[x ^ bit] ^ img[x]) & ~bit).any():
            return False
    return True


def compose_word(f: BooleanNetwork, word: UpdateWord) -> BooleanNetwork:
    """Apply the word's subset updates in order; the empty word is the identity."""
    _check_same_dimension(f, word)
    xs = np.arange(1 << f.n, dtype=np.int64)
    acc = xs
    img = f.np_image
    for step in word.steps:
        acc = update_table(img, step.bits, xs)[acc]
    return BooleanNetwork(f.n, tuple(int(v) for v in acc))


def order_leq(f: BooleanNetwork, g: BooleanNetwork) -> bool:
    """Transition-wise order: every coordinate moved by f is moved by g."""
    _check_same_dimension(f, g)
    xs = np.arange(1 << f.n, dtype=np.int64)
    return bool(np.all(((xs ^ f.np_image) & ~(xs ^ g.np_image)) == 0))


def lattice_combine(f: BooleanNetwork, g: BooleanNetwork, mode: str) -> BooleanNetwork:
    """Join or meet of two networks under the transition order.

    The combined network moves, at each configuration, the union (join) or
    intersection (meet) of the coordinate sets moved by the two inputs.
    """
    _check_same_dimension(f, g)
    xs = np.arange(1 << f.n, dtype=np.int64)
    df = xs ^ f.np_image
    dg = xs ^ g.np_image
    if mode == "join":
        d = df | dg
    elif mode == "meet":
        d = df & dg
    else:
        raise ValueError(f"mode must be 'join' or 'meet', got {mode!r}")
    return BooleanNetwork(f.n, tuple(int(v) for v in xs ^ d))
