"""Algebra on collections of subcubes.

A collection assigns to each configuration x the intersection of its
members containing x (the whole cube when none does), which realises a
Boolean network.  The union-closure and pointwise-intersection operators
turn collections of principal trapspaces into collections of trapspaces
and back; recognisers classify which collections arise that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import BooleanNetwork, Configuration, Subcube, _check_same_dimension, iter_submasks

CLOSURE_MAX_N = 13


def _sorted_members(members: Iterable[Subcube]) -> list[Subcube]:
    return sorted(members, key=lambda c: (c.free, c.base))


@dataclass(frozen=True)
class SubcubeCollection:
    """A finite, duplicate-free set of canonical subcubes of B^n."""

    n: int
    members: frozenset[Subcube]

    def __post_init__(self):
        for cube in self.members:
            if cube.n != self.n:
                raise ValueError(f"dimension mismatch: {cube.n} != {self.n}")

    @classmethod
    def of(cls, n: int, cubes: Iterable[Subcube]) -> "SubcubeCollection":
        return cls(n, frozenset(cubes))

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "SubcubeCollection":
        cubes = [Subcube.from_string(s) for s in strings]
        if not cubes:
            raise ValueError("cannot infer dimension from an empty collection")
        return cls(cubes[0].n, frozenset(cubes))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, cube: Subcube) -> bool:
        return cube in self.members

    def sorted_members(self) -> list[Subcube]:
        return _sorted_members(self.members)


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
        for cube in cubes:
            if cube.n != n:
                raise ValueError("subcubes of mixed widths")
    return SubcubeCollection(n, frozenset(cubes))


def format_collection(collection: SubcubeCollection) -> str:
    return "".join(f"{cube}\n" for cube in collection.sorted_members())


def _pointwise_free(collection: SubcubeCollection, x: int) -> int:
    # Free mask of the intersection of the members containing x (all
    # coordinates when none does); its base is x outside that mask.
    free = (1 << collection.n) - 1
    for cube in collection.members:
        if cube.contains_bits(x):
            free &= cube.free
    return free


def collection_at(collection: SubcubeCollection, x: Configuration) -> Subcube:
    """Intersection of all members containing x; B^n when no member does."""
    _check_same_dimension(collection, x)
    free = _pointwise_free(collection, x.bits)
    return Subcube(collection.n, free, x.bits & ~free)


def realize(collection: SubcubeCollection) -> BooleanNetwork:
    """The network whose interval at each x is the pointwise intersection."""
    n = collection.n
    return BooleanNetwork(
        n, tuple(x ^ _pointwise_free(collection, x) for x in range(1 << n))
    )


def lambda_closure(collection: SubcubeCollection) -> SubcubeCollection:
    """All subcubes expressible as unions of members.

    A subcube belongs to the closure iff it equals the union of the members
    it contains, so the sweep runs over all 3^n candidate subcubes instead
    of all member subsets (capped at n <= 13).
    """
    n = collection.n
    if n > CLOSURE_MAX_N:
        raise ValueError(f"union closure is capped at n={CLOSURE_MAX_N}")
    members = [(c.free, c.base, c.point_bitset()) for c in collection.members]
    out = []
    size = 1 << n
    for free in range(size):
        width = 1 << free.bit_count()
        keep = ~free & (size - 1)
        for base in iter_submasks(keep):
            bits = 0
            for mfree, mbase, pb in members:
                if mfree & ~free == 0 and (mbase ^ base) & keep == 0:
                    bits |= pb
                    if bits.bit_count() == width:
                        break
            if bits.bit_count() == width:
                out.append(Subcube(n, free, base))
    return SubcubeCollection(n, frozenset(out))


def mu_reduction(collection: SubcubeCollection) -> SubcubeCollection:
    """The set of pointwise intersections over all configurations."""
    n = collection.n
    out = set()
    for x in range(1 << n):
        free = _pointwise_free(collection, x)
        out.add(Subcube(n, free, x & ~free))
    return SubcubeCollection(n, frozenset(out))


@dataclass(frozen=True)
class CollectionFlags:
    pre_principal: bool
    pre_ideal: bool
    min_ideal: bool
    convex: bool


def _point_bitsets(collection: SubcubeCollection) -> list[int]:
    # Point-set comparisons between subcubes reduce to integer masks; the
    # canonical form makes distinct members have distinct bitsets.
    return [c.point_bitset() for c in collection.sorted_members()]


def is_pre_principal(collection: SubcubeCollection) -> bool:
    """Three conditions: members cover B^n; each pairwise intersection is a
    union of members; no member is a union of other members."""
    n = collection.n
    pbs = _point_bitsets(collection)
    union_all = 0
    for pb in pbs:
        union_all |= pb
    if union_all != (1 << (1 << n)) - 1:
        return False
    for pa in pbs:
        covered = 0
        for pb in pbs:
            if pb != pa and pb & ~pa == 0:
                covered |= pb
        if covered == pa:
            return False
    pb_set = set(pbs)
    for i, pa in enumerate(pbs):
        for pb in pbs[i + 1 :]:
            meet = pa & pb
            # A member equal to the intersection covers it by itself.
            if meet == 0 or meet in pb_set:
                continue
            covered = 0
            for pc in pbs:
                if pc & ~meet == 0:
                    covered |= pc
                    if covered == meet:
                        break
            if covered != meet:
                return False
    return True


def is_pre_ideal(collection: SubcubeCollection) -> bool:
    """B^n present, closed under non-empty intersections, union-closed."""
    n = collection.n
    if Subcube.full_cube(n) not in collection.members:
        return False
    pbs = _point_bitsets(collection)
    pb_set = set(pbs)
    for i, pa in enumerate(pbs):
        for pb in pbs[i + 1 :]:
            meet = pa & pb
            if meet and meet not in pb_set:
                return False
    return lambda_closure(collection).members == collection.members


def is_min_ideal(collection: SubcubeCollection) -> bool:
    """All members pairwise disjoint."""
    pbs = _point_bitsets(collection)
    for i, pa in enumerate(pbs):
        for pb in pbs[i + 1 :]:
            if pa & pb:
                return False
    return True


def is_convex(collection: SubcubeCollection) -> bool:
    """Every subcube between two nested members is itself a member."""
    members = collection.sorted_members()
    for small in members:
        for big in members:
            if small == big or not small.is_subset(big):
                continue
            extra = big.free & ~small.free
            for grow in iter_submasks(extra):
                mid = Subcube(collection.n, small.free | grow, small.base & ~grow)
                if mid not in collection.members:
                    return False
    return True


def classify_collection(collection: SubcubeCollection) -> CollectionFlags:
    """Evaluate the four recognisers, each from its own definition."""
    if collection.n > CLOSURE_MAX_N:
        raise ValueError(f"collection classification is capped at n={CLOSURE_MAX_N}")
    return CollectionFlags(
        pre_principal=is_pre_principal(collection),
        pre_ideal=is_pre_ideal(collection),
        min_ideal=is_min_ideal(collection),
        convex=is_convex(collection),
    )
