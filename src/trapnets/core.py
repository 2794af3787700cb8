"""Bit-level primitives for Boolean networks on the hypercube B^n.

Everything is encoded on machine integers: bit i-1 of a word holds
coordinate x_i, so the binary string "110" (x_1=1, x_2=1, x_3=0) is the
integer 0b011 = 3.  Values are immutable and hashable; all operations are
pure functions.

Every exact computation has a dimension cap.  ``CAPS`` is the one read-only
table of them and ``check_cap(kind, n)`` the one check, made before any
work; both live in ``caps``, and the CLI reads its refusal values from the
same table.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .caps import _CAPPED_WORK, CAPS, check_cap  # re-exported here for the layers


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


@functools.cache
def bit_counts(n: int) -> np.ndarray:
    """Entry m: the number of coordinates in mask m < 2^n (np.bitwise_count needs numpy 2)."""
    counts = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):  # the masks with top coordinate i add one to those below
        counts[1 << i : 2 << i] = counts[: 1 << i] + 1
    counts.setflags(write=False)  # shared by every caller at this n
    return counts


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
        if not 0 <= operator.index(self.bits) < 1 << self.n:
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


@dataclass(frozen=True)
class Mask:
    """A subset of the coordinate set {1, ..., n}; bit i-1 marks coordinate i."""

    n: int
    bits: int

    def __post_init__(self):
        check_cap("network", self.n)
        if not 0 <= operator.index(self.bits) < 1 << self.n:
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

    def coords(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.bits >> i & 1)

    def size(self) -> int:
        return self.bits.bit_count()

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
        if not 0 <= operator.index(self.free) <= full:
            raise ValueError(f"free mask {self.free} out of range for n={self.n}")
        if not 0 <= operator.index(self.base) <= full:
            raise ValueError(f"base {self.base} out of range for n={self.n}")
        if self.base & self.free:
            raise ValueError("subcube base must have its free bits cleared")

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
    """The set bits of ``bs`` in increasing order.  Up to 32 bits, the graphs
    of n <= 5, stepping over the lowest set bit beats the numpy round trip."""
    if bs.bit_length() > 32:
        return np.flatnonzero(bitset_array(bs, bs.bit_length())).tolist()
    out = []
    while bs:
        out.append((bs & -bs).bit_length() - 1)
        bs &= bs - 1
    return out


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
    free = x.bits ^ int(f.np_image[x.bits])
    return Subcube(f.n, free, x.bits & ~free)


class BooleanNetwork:
    """A map f: B^n -> B^n given by its full image table.

    ``np_image[x]`` is the bit pattern of f(x): a read-only int64 array of
    exactly 2^n entries, the network's own copy of the table it was given.
    ``image`` is the same table as a tuple of ints, built on first read; a
    tuple passed in is kept as that tuple.  Networks are equal, and hash
    equal, when their n and table bytes are.
    """

    def __init__(self, n: int, image):
        check_cap("network", n)
        size = 1 << n
        if len(image) != size:
            raise ValueError(f"image table must have {size} entries, got {len(image)}")
        values = np.asarray(image)
        if values.dtype.kind not in "biu":  # also the ints beyond int64; TypeError for the rest
            values = [operator.index(v) for v in image]
        try:
            table = np.array(values, dtype=np.int64)
        except OverflowError:  # an entry beyond int64 is out of range too
            table = None
        if table is None or table.min() < 0 or table.max() >= size:
            v = next(v for v in image if not 0 <= v < size)
            raise ValueError(f"image entry {v} out of range for n={n}")
        table.setflags(write=False)
        self.__dict__.update(n=n, _table=table)
        if type(image) is tuple:
            self.__dict__["image"] = image

    @property
    def np_image(self) -> np.ndarray:
        return self._table

    @cached_property
    def image(self) -> tuple[int, ...]:
        return tuple(self._table.tolist())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, BooleanNetwork):
            return NotImplemented
        return self.n == other.n and self._table.tobytes() == other._table.tobytes()

    def __hash__(self) -> int:
        return hash((self.n, self._table.tobytes()))

    def __repr__(self) -> str:
        return f"BooleanNetwork(n={self.n}, image={self.image!r})"

    @classmethod
    def identity(cls, n: int) -> "BooleanNetwork":
        return cls(n, np.arange(1 << n))

    @classmethod
    def negation(cls, n: int) -> "BooleanNetwork":
        return cls(n, np.arange(1 << n) ^ ((1 << n) - 1))

    def __call__(self, x: Configuration) -> Configuration:
        _check_same_dimension(self, x)
        return Configuration(self.n, int(self._table[x.bits]))

    def __reduce__(self):
        # Pickle n and the array: the tuple is rebuilt on first read.
        return BooleanNetwork, (self.n, self._table)


def update(f: BooleanNetwork, subset: Mask) -> BooleanNetwork:
    """The network updating only the coordinates in ``subset``.

    The image keeps every other coordinate of the input unchanged; the full
    set gives back ``f`` and the empty set gives the identity.
    """
    _check_same_dimension(f, subset)
    return BooleanNetwork(f.n, update_table(f.np_image, subset.bits, np.arange(1 << f.n)))


def update_table(image: np.ndarray, subset_bits, xs: np.ndarray) -> np.ndarray:
    """Vectorised image table of the subset update (raw arrays, no wrappers).

    ``subset_bits`` is one subset or an array of them, which broadcasts to
    one table per subset.
    """
    return (image & subset_bits) | (xs & ~subset_bits)


def commutative_rows(images: np.ndarray, n: int) -> np.ndarray:
    """Whether all local updates commute, for each row of a (k, 2^n) stack
    of image rows: single-coordinate updates commute pairwise.

    Updates i and j, in either order, fix a configuration that neither moves.
    At an x that update i moves, the two orders agree for every j iff f(x)
    and f(x ^ e_i) agree off coordinate i; j's side is the same test for j.
    So each coordinate is checked once, on the configurations its own update
    moves.
    """
    flat = images.reshape(-1)  # x of row r at r * 2^n + x
    moved = (images ^ np.arange(1 << n)).reshape(-1)
    holds = np.ones(len(images), dtype=bool)
    for i in range(n):
        bit = 1 << i
        at = np.flatnonzero(moved & bit)
        holds[at[(flat[at ^ bit] ^ flat[at]) & ~bit != 0] >> n] = False
        if not holds.any():
            break
    return holds


def is_commutative(f: BooleanNetwork) -> bool:
    """Row 0 of ``commutative_rows`` on f alone."""
    return bool(commutative_rows(f.np_image[None], f.n)[0])


def order_leq_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Transition-wise order of image rows a and b, entry by entry over the
    rows: every coordinate that a moves at some x, b moves there too."""
    xs = np.arange(a.shape[-1])
    return ~np.any((xs ^ a) & ~(xs ^ b), axis=-1)


def order_leq(f: BooleanNetwork, g: BooleanNetwork) -> bool:
    """Transition-wise order: every coordinate moved by f is moved by g."""
    _check_same_dimension(f, g)
    return bool(order_leq_rows(f.np_image, g.np_image))


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
    return BooleanNetwork(f.n, xs ^ d)
