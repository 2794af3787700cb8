"""Algebra on collections of subcubes.

A collection assigns to each configuration x the intersection of its
members containing x (the whole cube when none does), which realises a
Boolean network.  The union-closure and pointwise-intersection operators
turn collections of principal trapspaces into collections of trapspaces
and back; recognisers classify which collections arise that way.

A collection is a boolean mask over the 3^n subcubes of B^n.  The operators
are passes over the subcube lattice, one digit of the ternary index at a
time, in the style of Yates and of Bjorklund, Husfeldt, Kaski & Koivisto
(STOC 2007); ``Subcube`` objects are decoded only for output.

Every pass works on a stack of collections of one dimension: a (k, 3^n)
array with one mask per row, and (k, 4^n) for the tables of subcube and
point pairs.  So a caller with many collections, such as ``verify`` with a
block of networks, runs each pass once for all of them.  The ``*_rows``
functions, ``pointwise_free`` and ``pointwise_cubes`` take and return such
stacks; the single-collection functions run the same passes on a stack of
one and read row 0.

One kernel, ``_subcube_or``, fills a table over the subcubes from one
value per configuration: entry T is the OR (or another ufunc's reduction)
of the values of the members of T.  It works on a stack of tables at once,
leaves of shape (batch, 2^n) to a (batch, 3^n) table, and fills digit j
(coordinate j + 1) of the ternary index with one OR pass: free from fixed
0 and fixed 1.  It runs in two stages.  Stage 1 takes the low
k = min(n, 7) digits on a compact (3^k, rows 2^(n-k)) array of the leaves
alone, with the row and high bits innermost; a pass over the whole table
would there work on runs of only 3^j entries.  It runs on chunks of rows
of 2^13 leaves, so that its array, about 17 entries per leaf at k = 7,
stays small beside the table, and scatters each chunk into the table.
Stage 2 passes over the high digits, each pass only over the entries with
no free digit above its own, so that every entry is written exactly once.
At n = 16 the splits k = 5, 6 and 7 took within 10 % of each other; k = 7
leaves every table up to n = 7, where sampled ``verify`` spends its time,
to stage 1 alone, which is the plain digit pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import BooleanNetwork, Configuration, Subcube, _check_same_dimension, check_cap


# The digits stage 1 of ``_subcube_or`` takes, and the leaves of one of its
# chunks; see the module notes.
_LOW_DIGITS = 7
_STAGE1_LEAVES = 1 << 13

# A subcube's ternary index has digit i equal to 0 or 1 when coordinate i is
# fixed to that value, and 2 when it is free: (free, base) has index
# tern[base] + 2 * tern[free], with tern[m] the sum of 3^i over the bits of m.


@functools.cache
def _ternary_of_masks(n: int) -> np.ndarray:
    xs = np.arange(1 << n, dtype=np.int64)
    tern = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        tern += (xs >> i & 1) * 3**i
    tern.setflags(write=False)  # shared by every caller at this n
    return tern


@functools.cache
def _free_of_index(n: int) -> np.ndarray:
    """Entry T: the free mask of the subcube with ternary index T."""
    free = np.zeros(3**n, dtype=np.uint16)
    for j in range(n):
        v = free.reshape(3 ** (n - 1 - j), 3, 3**j)
        np.bitwise_or(v[:, 0, :], 1 << j, out=v[:, 2, :])
    free.setflags(write=False)
    return free


def _subcube_or(leaves: np.ndarray, n: int, op: np.ufunc = np.bitwise_or) -> np.ndarray:
    """Entry (..., T): the OR (or ``op``) of ``leaves[..., x]`` over the members
    x of subcube T.  Leaves of shape (..., 2^n) give a table of shape
    (..., 3^n): every row over the leading axes is one table, one kernel."""
    check_cap("table", n)
    k = min(n, _LOW_DIGITS)
    rows = leaves.reshape(-1, 1 << n)
    batch = len(rows)
    table = np.empty((batch, 3**n), dtype=leaves.dtype)
    # Read as (batch, 3^(n-k), 3^k), slice t of a row holds the subcubes whose
    # high digits are t; stage 1 fills the slices with no free high digit.
    high = table.reshape(batch, 3 ** (n - k), 3**k)
    step = max(1, _STAGE1_LEAVES >> n)
    for start in range(0, batch, step):
        chunk = rows[start : start + step]
        # Stage 1: digits 0..k-1 over the leaves only, as a (3^k, chunk * 2^(n-k))
        # array with the row and high bits innermost, so that no run is shorter
        # than chunk * 2^(n-k).
        low = np.zeros((3**k, len(chunk) << (n - k)), dtype=leaves.dtype)
        low[_ternary_of_masks(k)] = chunk.reshape(-1, 1 << k).T
        for j in range(k):
            v = low.reshape(3 ** (k - 1 - j), 3, -1)
            op(v[:, 0, :], v[:, 1, :], out=v[:, 2, :])
        high[start : start + step, _ternary_of_masks(n - k)] = low.T.reshape(len(chunk), -1, 3**k)
    # Stage 2, in place, as a copy of the 3^n buffer would triple the peak.
    # The view of pass j keeps every digit above j fixed, so each entry is
    # written once, by the pass of its highest free digit.
    for j in range(k, n):
        above = n - 1 - j
        v = table.reshape((batch,) + (3,) * above + (3, 3**j))[(slice(None),) + (slice(2),) * above]
        op(v[..., 0, :], v[..., 1, :], out=v[..., 2, :])
    return table.reshape(leaves.shape[:-1] + (3**n,))


@dataclass(frozen=True, eq=False)
class SubcubeCollection:
    """A set of subcubes of B^n: ``mask[T]`` says whether the subcube with
    ternary index T is a member (the ``table`` cap).  The mask is made read-only."""

    n: int
    mask: np.ndarray

    def __post_init__(self):
        check_cap("table", self.n)
        if self.mask.dtype != bool or self.mask.shape != (3**self.n,):
            raise ValueError(f"a collection at n={self.n} is a bool mask of 3^{self.n} entries")
        self.mask.setflags(write=False)

    @classmethod
    def from_pairs(cls, n: int, free: np.ndarray, base: np.ndarray) -> "SubcubeCollection":
        """The subcubes (free[i], base[i]); each base has its free bits cleared."""
        check_cap("table", n)
        return cls(n, cube_masks(0, free, base, 1, n)[0])

    @classmethod
    def of(cls, n: int, cubes: Iterable[Subcube]) -> "SubcubeCollection":
        cubes = list(cubes)
        if any(c.n != n for c in cubes):
            raise ValueError(f"subcubes of mixed widths in a collection at n={n}")
        free, base = np.array([(c.free, c.base) for c in cubes], dtype=np.int64).reshape(-1, 2).T
        return cls.from_pairs(n, free, base)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubcubeCollection):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.mask, other.mask)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __contains__(self, cube: Subcube) -> bool:
        tern = _ternary_of_masks(self.n)
        return cube.n == self.n and bool(self.mask[tern[cube.base] + 2 * tern[cube.free]])

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(free, base) arrays of the members, sorted by free mask, then base."""
        # The base-3 digits of each member's index, least significant first.
        digits = np.unravel_index(np.flatnonzero(self.mask), (3,) * self.n)[::-1]
        free = sum((d == 2).astype(np.int64) << j for j, d in enumerate(digits))
        base = sum((d == 1).astype(np.int64) << j for j, d in enumerate(digits))
        order = np.lexsort((base, free))
        return free[order], base[order]

    def sorted_members(self) -> list[Subcube]:
        free, base = (a.tolist() for a in self.pairs())
        # Cubes share one int object per mask, as up to 3^n of them may be built.
        masks = list(range(1 << self.n))
        return [Subcube(self.n, masks[fr], masks[ba]) for fr, ba in zip(free, base)]

    @property
    def members(self) -> frozenset[Subcube]:
        return frozenset(self.sorted_members())


def parse_collection(text: str, n: int | None = None) -> SubcubeCollection:
    """Parse one subcube per line in star notation ('**0' fixes x_3 = 0)."""
    cubes = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            cube = Subcube.from_string(line)
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        if n is not None and cube.n != n:
            raise ValueError(f"line {line_no}: expected width {n}, got {cube.n}")
        cubes.append(cube)
    if n is None:
        if not cubes:
            raise ValueError("empty collection with no explicit dimension")
        n = cubes[0].n
    return SubcubeCollection.of(n, cubes)


def format_pairs(
    n: int, free: np.ndarray, base: np.ndarray, prefix: str = "", suffix: str = "\n"
) -> str:
    """One line per subcube (free[i], base[i]) of B^n: ``prefix``, the star
    notation ``str(Subcube)`` gives, then ``suffix``, all ASCII.  The lines
    are encoded as one byte array."""
    ends = np.frombuffer((prefix + suffix).encode("ascii"), dtype=np.uint8)
    lines = np.empty((len(free), len(ends) + n), dtype=np.uint8)
    lines[:, : len(prefix)] = ends[: len(prefix)]
    lines[:, len(prefix) + n :] = ends[len(prefix) :]
    for i in range(n):
        lines[:, len(prefix) + i] = np.where(free >> i & 1, ord("*"), ord("0") + (base >> i & 1))
    return lines.tobytes().decode("ascii")


def _superset(tables: np.ndarray, ufunc: np.ufunc, n: int) -> np.ndarray:
    """Entry (r, T) of a (k, 3^n) stack becomes ``ufunc`` over the entries
    (r, S) of every subcube S containing T: each digit pass folds the entry
    that frees a coordinate into the two that fix it.  Works in place."""
    for j in range(n):
        v = tables.reshape(len(tables), 3 ** (n - 1 - j), 3, 3**j)
        ufunc(v[..., 0, :], v[..., 2, :], out=v[..., 0, :])
        ufunc(v[..., 1, :], v[..., 2, :], out=v[..., 1, :])
    return tables


def _meet_table(masks: np.ndarray, n: int) -> np.ndarray:
    """Entry (r, T): the AND of the free masks of the members of row r
    containing T, all coordinates when none does.  At a point x it is the
    free mask of the pointwise intersection, whose base is x outside that mask."""
    tables = np.where(masks, _free_of_index(n), np.uint16((1 << n) - 1))
    return _superset(tables, np.bitwise_and, n)


def _intersections(masks: np.ndarray, n: int) -> np.ndarray:
    """Entry (r, T): whether the members of row r containing T meet in T,
    that is whether T is B^n or an intersection of members."""
    return _meet_table(masks, n) == _free_of_index(n)


def pointwise_free(masks: np.ndarray, n: int) -> np.ndarray:
    """Entry (r, x): the free mask of the pointwise intersection of row r at
    x.  The realisation of row r maps x to x ^ entry (r, x)."""
    return _meet_table(masks, n)[:, _ternary_of_masks(n)]


def cube_masks(rows, free: np.ndarray, base: np.ndarray, k: int, n: int) -> np.ndarray:
    """The (k, 3^n) masks holding the subcube (free[i], base[i]) in row
    rows[i], entry by entry (the arrays broadcast); each base has its free
    bits cleared."""
    tern = _ternary_of_masks(n)
    masks = np.zeros((k, 3**n), dtype=bool)
    masks[rows, tern[base] + 2 * tern[free]] = True
    return masks


def pointwise_cubes(free: np.ndarray, n: int) -> np.ndarray:
    """Row r: the mask of the subcubes (free[r, x], x outside it) over all x,
    the pointwise reduction of a stack whose ``pointwise_free`` is ``free``."""
    k = len(free)
    return cube_masks(np.arange(k)[:, None], free, np.arange(1 << n) & ~free, k, n)


def collection_at(collection: SubcubeCollection, x: Configuration) -> Subcube:
    """Intersection of all members containing x; B^n when no member does."""
    _check_same_dimension(collection, x)
    n = collection.n
    tern = _ternary_of_masks(n)
    # The subcube with free mask t through x, for every t.
    ts = np.arange(1 << n, dtype=np.int64)
    through = collection.mask[tern[x.bits & ~ts] + 2 * tern[ts]]
    free = int(np.bitwise_and.reduce(ts[through], initial=(1 << n) - 1))
    return Subcube(n, free, x.bits & ~free)


def realize(collection: SubcubeCollection) -> BooleanNetwork:
    """The network whose interval at each x is the pointwise intersection."""
    n = collection.n
    free = pointwise_free(collection.mask[None], n)[0]
    return BooleanNetwork(n, np.arange(1 << n) ^ free)


def _union_pairs(masks: np.ndarray, n: int) -> np.ndarray:
    """Entry (r, (T, x)) over the 4^n pairs of a subcube and a point in it:
    whether some member of row r inside T contains x (the ``closure`` cap).
    Pair digit 0 or 1: T fixes the coordinate to that value; 2 or 3: T frees
    it and x_j is 0 or 1."""
    check_cap("closure", n)
    k = len(masks)
    # Whether T is a member, then or in the half of T through x fixing j.
    digits = np.ix_(*[[0, 1, 2, 2]] * n)
    pairs = masks.reshape(k, *(3,) * n)[(slice(None), *digits)].reshape(k, 4**n)
    for j in range(n):
        v = pairs.reshape(k, 4 ** (n - 1 - j), 4, 4**j)
        v[..., 2:, :] |= v[..., :2, :]
    return pairs


def _all_points(pairs: np.ndarray, n: int) -> np.ndarray:
    """Entry (r, T): the AND of pair entry (r, (T, x)) over the points x of T."""
    k = len(pairs)
    for j in range(n):
        v = pairs.reshape(k, 4 ** (n - 1 - j), 4, 4**j)
        v[..., 2, :] &= v[..., 3, :]
    return pairs.reshape(k, *(4,) * n)[(slice(None), *(slice(0, 3),) * n)].reshape(k, 3**n)


def lambda_rows(masks: np.ndarray, n: int) -> np.ndarray:
    """The union closure of each row: T belongs iff every x in T lies in a
    member inside T (the ``closure`` cap)."""
    return _all_points(_union_pairs(masks, n), n)


def lambda_closure(collection: SubcubeCollection) -> SubcubeCollection:
    """All subcubes expressible as unions of members (the ``closure`` cap)."""
    return SubcubeCollection(collection.n, lambda_rows(collection.mask[None], collection.n)[0])


def mu_reduction(collection: SubcubeCollection) -> SubcubeCollection:
    """The set of pointwise intersections over all configurations."""
    n = collection.n
    return SubcubeCollection(n, pointwise_cubes(pointwise_free(collection.mask[None], n), n)[0])


@dataclass(frozen=True)
class CollectionFlags:
    pre_principal: bool
    pre_ideal: bool
    min_ideal: bool
    convex: bool


def pre_principal_rows(masks: np.ndarray, n: int) -> np.ndarray:
    """Per row, three conditions: members cover B^n; each pairwise
    intersection is a union of members; no member is a union of other members
    (the ``closure`` cap)."""
    union = _union_pairs(masks, n)
    # Entry (T, x): whether some member strictly inside T contains x, that
    # is inside T with one more coordinate fixed to its value in x.
    strict = np.zeros_like(union)
    for j in range(n):
        v = strict.reshape(len(masks), 4 ** (n - 1 - j), 4, 4**j)
        v[..., 2:, :] |= union.reshape(v.shape)[..., :2, :]
    closed = _all_points(union, n)
    # Pairwise intersections are unions of members iff all intersections are.
    covered = closed[:, -1] & ~np.any(_intersections(masks, n) & ~closed, axis=1)
    return covered & ~np.any(_all_points(strict, n) & masks, axis=1)


def pre_ideal_rows(masks: np.ndarray, n: int) -> np.ndarray:
    """Per row: B^n present, closed under non-empty intersections,
    union-closed (the ``closure`` cap)."""
    meets_closed = ~np.any(_intersections(masks, n) & ~masks, axis=1)
    return masks[:, -1] & meets_closed & np.all(lambda_rows(masks, n) == masks, axis=1)


def min_ideal_rows(masks: np.ndarray, n: int) -> np.ndarray:
    """Per row, all members pairwise disjoint: no subcube lies in two of them."""
    return np.all(_superset(masks.astype(np.int32), np.add, n) <= 1, axis=1)


def convex_rows(masks: np.ndarray, n: int) -> np.ndarray:
    """Per row, every subcube between two nested members is itself a member:
    freeing one coordinate at a time, no member grows into a non-member
    inside one."""
    above = _superset(masks.copy(), np.logical_or, n)
    convex = np.ones(len(masks), dtype=bool)
    for j in range(n):
        m, a = (t.reshape(len(masks), 3 ** (n - 1 - j), 3, 3**j) for t in (masks, above))
        convex &= ~np.any(a[..., 2, :] & ~m[..., 2, :] & (m[..., 0, :] | m[..., 1, :]), axis=(1, 2))
    return convex


def classify_collection(collection: SubcubeCollection) -> CollectionFlags:
    """Evaluate the four recognisers, each from its own definition: row 0 of
    each ``*_rows`` kernel on a stack of one (the ``closure`` cap of the
    pair table that ``pre_principal_rows`` reads)."""
    masks, n = collection.mask[None], collection.n
    return CollectionFlags(*(bool(rows(masks, n)[0]) for rows in (
        pre_principal_rows, pre_ideal_rows, min_ideal_rows, convex_rows)))
