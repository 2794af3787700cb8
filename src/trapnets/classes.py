"""Network classes, alternate-definition cross-checkers and implication diagrams.

Every class predicate is computed from its own primary definition; the
``check_alternate_definitions`` entry point evaluates each of a class's
equivalent defining conditions independently so their agreement can be
verified over whole populations.  The implication diagrams encode which
class memberships force which others (unconditionally, for trapping
networks, or for commutative networks) together with the counterexample
fixtures witnessing the absent arrows.
"""

from __future__ import annotations

import functools
import importlib.resources
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .core import (
    CAPS,
    BooleanNetwork,
    _check_same_dimension,
    check_cap,
    cube_bitset,
    is_commutative,
    iter_submasks,
    update_table,
)
from .cubesets import SubcubeCollection, classify_collection
from .dynamics import HypercubeGraph, build_graph, graph_property
from .generators import exhaustive_networks
from .netio import parse_truth_table
from .trapspaces import (
    fixed_point_table,
    minimal_trapspaces,
    principal_pairs,
    trapping_closure,
    trapping_graph,
    trapspace_mask,
    min_trapping_extension,
)

THEOREM_SIZES = {
    "trapping7": 7,
    "commutative3": 3,
    "marseille4": 4,
    "lille4": 4,
    "globally_idempotent3": 3,
    "sink_terminal5": 5,
}


# ---------------------------------------------------------------------------
# vectorised update-table machinery


def update_tables(f: BooleanNetwork) -> np.ndarray:
    """U[s, x] = image of x under the update of subset s (s as a bit pattern)."""
    check_cap("pair_sweep", f.n)
    xs = np.arange(1 << f.n, dtype=np.int64)
    return update_table(f.np_image, xs[:, None], xs)


def _leq_rows(xs: np.ndarray, a: np.ndarray, b: np.ndarray) -> bool:
    """Transition order, broadcast over rows of update tables."""
    return bool(np.all(((xs ^ a) & ~(xs ^ b)) == 0))


def _pair_sweep(f: BooleanNetwork) -> dict[str, bool]:
    """The subset-pair condition of five theorems, by theorem, in one pass.

    Blocks of up to 4096 / 4^n subsets s go through together: comp[t, k, x]
    is the table of updating s[k] then t.  Each condition is its own test
    and is dropped once it fails; the pass ends when all five have failed.
    """
    U = update_tables(f)
    size = U.shape[0]
    xs = np.arange(size, dtype=np.int64)
    ts = xs[:, None]
    block = max(1, 4096 // (size * size))
    holds = dict.fromkeys(
        ("trapping7", "commutative3", "marseille4", "lille4", "globally_idempotent3"), True
    )
    for start in range(0, size, block):
        s = xs[start:start + block]
        comp = np.take(U, U[s], axis=1)
        union = U[ts | s]
        # update(s) then update(t) never moves more than update(s | t); the
        # trapping, sandwich and intersection-bound conditions all need it.
        below_union = (
            holds["trapping7"] or holds["commutative3"] or holds["globally_idempotent3"]
        ) and _leq_rows(xs, comp, union)
        holds["trapping7"] &= below_union
        if holds["commutative3"] or holds["marseille4"]:
            sym = U[ts ^ s]
            if holds["commutative3"]:
                holds["commutative3"] = below_union and _leq_rows(xs, sym, comp)
            if holds["marseille4"]:
                holds["marseille4"] = bool(np.all(comp == sym))
        if holds["lille4"]:
            holds["lille4"] = bool(np.all(comp == union))
        if holds["globally_idempotent3"]:
            # Both bounds are needed: the lower bound alone is strictly weaker
            # than global idempotence (26 of the 256 two-coordinate networks
            # satisfy it without being globally idempotent).
            holds["globally_idempotent3"] = below_union and _leq_rows(xs, U[ts & s], comp)
        if not any(holds.values()):
            break
    return holds


# ---------------------------------------------------------------------------
# interval-quantified conditions ("for all x and y in the interval of x")


def _forall_interval(f: BooleanNetwork, cond) -> bool:
    """cond(x, fx, y, fy) for every x and every y in the interval of x."""
    img = f.image
    return all(
        cond(x, fx, x ^ s, img[x ^ s])
        for x, fx in enumerate(img)
        for s in iter_submasks(x ^ fx)
    )


def _span_subset(y: int, fy: int, x: int, fx: int) -> bool:
    # span{y, fy} subseteq span{x, fx}
    free_small, free_big = y ^ fy, x ^ fx
    if free_small & ~free_big:
        return False
    return (y ^ x) & ~free_big == 0


def is_negation_on_subcubes(f: BooleanNetwork) -> bool:
    """True when the moved configurations split into disjoint subcubes on
    which f is the opposite map (flip all free coordinates)."""
    img = f.image
    # y = x ^ s must move to its opposite y ^ (x ^ fx) = fx ^ s.
    return all(
        img[x ^ s] == fx ^ s
        for x, fx in enumerate(img)
        if fx != x
        for s in iter_submasks(x ^ fx)
    )


def is_constant_on_arrangements(f: BooleanNetwork) -> bool:
    """True when each moved configuration belongs to a fiber that targets a
    fixed point and is closed under the intervals toward that target."""
    img = f.image
    for x, fx in enumerate(img):
        if fx == x:
            continue
        if img[fx] != fx:
            return False
        # The fiber of fx must contain the whole span of {x, fx}.
        if any(img[x ^ s] != fx for s in iter_submasks(x ^ fx)):
            return False
    return True


# ---------------------------------------------------------------------------
# simple whole-network predicates


def _is_permutation(table: np.ndarray) -> bool:
    return bool(np.all(np.bincount(table, minlength=len(table)) == 1))


def _globally_sweep(f: BooleanNetwork) -> tuple[bool, bool, bool]:
    """(bijective, involutive, idempotent) of every subset update.

    Walks the subsets in Gray-code order, rewriting one coordinate of the
    running table per step.
    """
    n = f.n
    check_cap("global_sweep", n)
    size = 1 << n
    xs = np.arange(size, dtype=np.int64)
    img = f.np_image
    tab = xs.copy()
    bij = inv = idem = True
    for k in range(size):
        if k:
            gray_prev = (k - 1) ^ ((k - 1) >> 1)
            gray = k ^ (k >> 1)
            bit = gray ^ gray_prev
            src = img if gray & bit else xs
            tab = (tab & ~bit) | (src & bit)
        if bij and np.bincount(tab, minlength=size).max() > 1:
            bij = False
        twice = tab[tab]
        if inv and not np.array_equal(twice, xs):
            inv = False
        if idem and not np.array_equal(twice, tab):
            idem = False
        if not (bij or inv or idem):
            break
    return bij, inv, idem


# ---------------------------------------------------------------------------
# the per-network profile: everything computed once, lazily


class NetworkProfile:
    """Lazily computed facts about one network, shared across checks."""

    def __init__(self, f: BooleanNetwork):
        self.f = f
        self.n = f.n

    def _shared(self, g: HypercubeGraph) -> HypercubeGraph:
        # Equal graphs (e.g. the general and trapping graphs of a trapping
        # network) share one object, so its cached rows and SCCs are built once.
        built = (vars(self).get(name) for name in ("graph_a", "graph_ga", "graph_tg"))
        return next((h for h in built if h == g), g)

    @cached_property
    def graph_a(self) -> HypercubeGraph:
        return self._shared(build_graph(self.f, "asynchronous"))

    @cached_property
    def graph_ga(self) -> HypercubeGraph:
        return self._shared(build_graph(self.f, "general"))

    @cached_property
    def pt_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return principal_pairs(self.f)

    @cached_property
    def closure(self) -> BooleanNetwork:
        return trapping_closure(self.f, self.pt_pairs)

    @cached_property
    def graph_tg(self) -> HypercubeGraph:
        return self._shared(trapping_graph(self.f, self.pt_pairs))

    @cached_property
    def pt_collection(self) -> SubcubeCollection:
        return SubcubeCollection.from_pairs(self.n, *self.pt_pairs)

    @cached_property
    def trapspace_collection(self) -> SubcubeCollection:
        return SubcubeCollection(self.n, trapspace_mask(self.f))

    @cached_property
    def minimal(self) -> tuple[SubcubeCollection, np.ndarray]:
        return minimal_trapspaces(self.f, self.pt_pairs)

    @cached_property
    def min_extension(self) -> BooleanNetwork:
        return min_trapping_extension(self.f, self.minimal[0])

    @cached_property
    def pt_flags(self):
        return classify_collection(self.pt_collection)

    @cached_property
    def fixed_bitset(self) -> int:
        bs = 0
        for x, fx in enumerate(self.f.image):
            if x == fx:
                bs |= 1 << x
        return bs

    @cached_property
    def xs(self) -> np.ndarray:
        return np.arange(1 << self.n, dtype=np.int64)

    @cached_property
    def singles(self) -> list[np.ndarray]:
        return [update_table(self.f.np_image, 1 << i, self.xs) for i in range(self.n)]

    @cached_property
    def globally_flags(self) -> tuple[bool, bool, bool]:
        return _globally_sweep(self.f)

    @cached_property
    def pair_flags(self) -> dict[str, bool]:
        return _pair_sweep(self.f)

    # -- individual class predicates, each from its primary definition

    @cached_property
    def trapping(self) -> bool:
        return graph_property(self.graph_ga, "transitive")

    @cached_property
    def commutative(self) -> bool:
        return is_commutative(self.f)

    @cached_property
    def bijective(self) -> bool:
        return _is_permutation(self.f.np_image)

    @cached_property
    def locally_bijective(self) -> bool:
        return all(_is_permutation(t) for t in self.singles)

    @cached_property
    def involutive(self) -> bool:
        img = self.f.np_image
        return np.array_equal(img[img], self.xs)

    @cached_property
    def locally_involutive(self) -> bool:
        return all(np.array_equal(t[t], self.xs) for t in self.singles)

    @cached_property
    def idempotent(self) -> bool:
        img = self.f.np_image
        return np.array_equal(img[img], img)

    @cached_property
    def locally_idempotent(self) -> bool:
        return all(np.array_equal(t[t], t) for t in self.singles)

    @cached_property
    def marseille(self) -> bool:
        return self.commutative and self.bijective

    @cached_property
    def lille(self) -> bool:
        return self.commutative and self.idempotent

    @cached_property
    def globally_idempotent(self) -> bool:
        return self.globally_flags[2]

    @cached_property
    def dynamically_local(self) -> bool:
        img = self.f.np_image
        return np.array_equal(img[img[img]], img)

    @cached_property
    def pt_distinct(self) -> int:
        """The number of distinct principal trapspaces."""
        free, base = self.pt_pairs
        return int(np.count_nonzero(np.diff(np.sort(free << self.n | base)))) + 1

    @cached_property
    def dpt(self) -> bool:
        return self.pt_distinct == 1 << self.n

    @cached_property
    def fixable(self) -> bool:
        return graph_property(self.graph_a, "sink-terminal")

    @cached_property
    def trapspace_fp(self) -> bool:
        # Every trapspace contains a fixed point.
        return bool(fixed_point_table(self.f)[self.trapspace_collection.mask].all())

    def _interval_fixed_counts(self):
        for x, fx in enumerate(self.f.image):
            yield (cube_bitset(x ^ fx, x & fx) & self.fixed_bitset).bit_count()

    @cached_property
    def interval_fp(self) -> bool:
        return all(c >= 1 for c in self._interval_fixed_counts())

    @cached_property
    def interval_ufp(self) -> bool:
        return all(c == 1 for c in self._interval_fixed_counts())

    @cached_property
    def min_trapping(self) -> bool:
        return self.f == self.min_extension

    def prop(self, name: str) -> bool:
        if name == "all":
            return True
        if name == "globally_bijective":
            return self.globally_flags[0]
        if name == "globally_involutive":
            return self.globally_flags[1]
        if name == "interval_ufp_idempotent":
            return self.interval_ufp and self.idempotent
        head, _, tail = name.rpartition("_")
        if tail in ("a", "ga", "tg") and head in (
            "symmetric",
            "oriented",
            "triangular",
            "sink_terminal",
        ):
            return graph_property(getattr(self, f"graph_{tail}"), head.replace("_", "-"))
        return bool(getattr(self, name))


@dataclass(frozen=True)
class ClassReport:
    trapping: bool
    commutative: bool
    marseille: bool
    lille: bool
    globally_idempotent: bool
    bijective: bool
    locally_bijective: bool
    globally_bijective: bool
    involutive: bool
    locally_involutive: bool
    globally_involutive: bool
    idempotent: bool
    locally_idempotent: bool
    dynamically_local: bool
    dpt: bool
    fixable: bool
    trapspace_fp: bool
    interval_fp: bool
    interval_ufp: bool
    min_trapping: bool

    def as_dict(self) -> dict[str, bool]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def classify_network(f: BooleanNetwork, profile: NetworkProfile | None = None) -> ClassReport:
    """Evaluate every class flag from its own primary definition."""
    check_cap("enumeration", f.n)
    p = profile if profile is not None else NetworkProfile(f)
    return ClassReport(**{field.name: p.prop(field.name) for field in fields(ClassReport)})


# ---------------------------------------------------------------------------
# alternate-definition cross-checkers


@functools.lru_cache(maxsize=None)
def _all_closure_tables(n: int) -> frozenset[tuple[int, ...]]:
    # Exhaustive image of the trapping-closure operator.
    return frozenset(trapping_closure(g).image for g in exhaustive_networks(n))


def _is_some_trapping_closure(f: BooleanNetwork, profile: NetworkProfile) -> bool:
    if f.n <= CAPS["exhaustive"]:
        return f.image in _all_closure_tables(f.n)
    # The closure operator is idempotent (tested separately), so its image
    # is exactly its fixed-point set.
    return profile.closure == f


def check_alternate_definitions(
    f: BooleanNetwork, theorem: str, profile: NetworkProfile | None = None
) -> tuple[bool, ...]:
    """Evaluate each equivalent defining condition of a class independently.

    Returns one boolean per condition; a mixed vector on any network
    contradicts the corresponding equivalence and is a build-breaking
    finding.  Refuses above the ``pair_sweep`` cap (the ``enumeration``
    cap for sink_terminal5) before any work.
    """
    check_cap("enumeration" if theorem == "sink_terminal5" else "pair_sweep", f.n)
    p = profile if profile is not None else NetworkProfile(f)
    if theorem == "trapping7":
        return (
            graph_property(p.graph_ga, "transitive"),
            _forall_interval(f, lambda x, fx, y, fy: _span_subset(y, fy, x, fx)),
            np.array_equal(p.xs ^ f.np_image, p.pt_pairs[0]),
            f == p.closure,
            _is_some_trapping_closure(f, p),
            p.graph_tg == p.graph_ga,
            p.pair_flags["trapping7"],
        )
    if theorem == "commutative3":
        return (
            p.commutative,
            _forall_interval(
                f,
                lambda x, fx, y, fy: _span_subset(y, fx, y, fy)
                and _span_subset(y, fy, x, fx),
            ),
            p.pair_flags["commutative3"],
        )
    if theorem == "marseille4":
        # For y inside the interval of x, interval equality reduces to equal
        # difference masks.
        return (
            p.marseille,
            is_negation_on_subcubes(f),
            _forall_interval(f, lambda x, fx, y, fy: (y ^ fy) == (x ^ fx)),
            p.pair_flags["marseille4"],
        )
    if theorem == "lille4":
        return (
            p.lille,
            is_constant_on_arrangements(f),
            _forall_interval(f, lambda x, fx, y, fy: (y ^ fy) == (y ^ fx)),
            p.pair_flags["lille4"],
        )
    if theorem == "globally_idempotent3":
        tables = (update_table(f.np_image, s, p.xs) for s in range(1 << f.n))
        return (
            all(np.array_equal(tab[tab], tab) for tab in tables),
            _forall_interval(f, lambda x, fx, y, fy: _span_subset(y, fy, y, fx)),
            p.pair_flags["globally_idempotent3"],
        )
    if theorem == "sink_terminal5":
        fix = p.fixed_bitset
        frees, bases = (a.tolist() for a in p.pt_pairs)
        descend_ok = True
        for x in range(1 << f.n):
            if fix >> x & 1:
                continue
            free, base = frees[x], bases[x]
            if all(frees[base | s] == free and bases[base | s] == base
                   for s in iter_submasks(free)):
                descend_ok = False
                break
        principal_fp = all(cube_bitset(fr, ba) & fix for fr, ba in set(zip(frees, bases)))
        return (
            graph_property(p.graph_tg, "sink-terminal"),
            descend_ok,
            np.array_equal(p.minimal[1], p.xs == f.np_image),
            principal_fp,
            p.trapspace_fp,
        )
    raise ValueError(f"unknown theorem {theorem!r}")


def trapspace_equivalent(
    f: BooleanNetwork, g: BooleanNetwork,
    pf: NetworkProfile | None = None, pg: NetworkProfile | None = None,
) -> tuple[bool, bool, bool, bool, bool]:
    """The five equal-trapspace-structure conditions, evaluated independently."""
    _check_same_dimension(f, g)
    check_cap("enumeration", f.n)
    pf = pf if pf is not None else NetworkProfile(f)
    pg = pg if pg is not None else NetworkProfile(g)
    return (
        pf.pt_collection == pg.pt_collection,
        pf.trapspace_collection == pg.trapspace_collection,
        np.array_equal(pf.pt_pairs[0], pg.pt_pairs[0]),
        pf.graph_tg == pg.graph_tg,
        pf.closure == pg.closure,
    )


def min_trapspace_equivalent(
    f: BooleanNetwork, g: BooleanNetwork,
    pf: NetworkProfile | None = None, pg: NetworkProfile | None = None,
) -> tuple[bool, bool, bool, bool]:
    """The four equal-minimal-trapspace conditions, evaluated independently."""
    _check_same_dimension(f, g)
    check_cap("table", f.n)
    pf = pf if pf is not None else NetworkProfile(f)
    pg = pg if pg is not None else NetworkProfile(g)
    mf, covered_f = pf.minimal
    mg, covered_g = pg.minimal
    # Given x and its free mask, the base of its principal trapspace is fixed.
    same_pt = pf.pt_pairs[0] == pg.pt_pairs[0]
    return (
        mf == mg,
        np.array_equal(covered_f, covered_g) and bool(same_pt[covered_f].all()),
        bool(same_pt[covered_f | covered_g].all()),
        pf.min_extension == pg.min_extension,
    )


# ---------------------------------------------------------------------------
# implication diagrams


@dataclass(frozen=True)
class DiagramEdge:
    source: str
    target: str
    guard: str  # "all" | "trapping" | "commutative"


@dataclass(frozen=True)
class Counterexample:
    label: str
    source: str
    guard: str
    target: str


@dataclass(frozen=True)
class DiagramSpec:
    id: str
    nodes: tuple[str, ...]
    edges: tuple[DiagramEdge, ...]
    counterexamples: tuple[Counterexample, ...]


def _edges(*triples) -> tuple[DiagramEdge, ...]:
    return tuple(DiagramEdge(s, t, g) for s, t, g in triples)


def _noedges(*quads) -> tuple[Counterexample, ...]:
    return tuple(Counterexample(l, s, g, t) for l, s, g, t in quads)


SYMMETRIC_DIAGRAM = DiagramSpec(
    "symmetric",
    (
        "marseille",
        "globally_involutive",
        "symmetric_ga",
        "symmetric_tg",
        "symmetric_a",
        "locally_involutive",
        "locally_bijective",
    ),
    _edges(
        ("symmetric_ga", "marseille", "all"),
        ("marseille", "symmetric_ga", "all"),
        ("symmetric_ga", "globally_involutive", "all"),
        ("globally_involutive", "symmetric_ga", "all"),
        ("symmetric_ga", "symmetric_tg", "all"),
        ("symmetric_tg", "symmetric_ga", "trapping"),
        ("symmetric_ga", "symmetric_a", "all"),
        ("symmetric_a", "symmetric_ga", "trapping"),
        ("symmetric_a", "locally_bijective", "all"),
        ("locally_bijective", "symmetric_a", "all"),
        ("symmetric_a", "locally_involutive", "all"),
        ("locally_involutive", "symmetric_a", "all"),
    ),
    _noedges(
        ("a", "symmetric_tg", "all", "symmetric_a"),
        ("b", "symmetric_a", "all", "symmetric_tg"),
    ),
)

MARSEILLE_DIAGRAM = DiagramSpec(
    "marseille",
    ("marseille", "involutive", "globally_bijective", "locally_bijective", "bijective"),
    _edges(
        ("marseille", "globally_bijective", "all"),
        ("globally_bijective", "locally_bijective", "all"),
        ("globally_bijective", "bijective", "all"),
        ("marseille", "involutive", "all"),
        ("involutive", "bijective", "all"),
        ("globally_bijective", "marseille", "trapping"),
        ("locally_bijective", "globally_bijective", "trapping"),
        ("bijective", "involutive", "trapping"),
        ("bijective", "globally_bijective", "commutative"),
        ("involutive", "marseille", "commutative"),
    ),
    _noedges(
        ("c", "involutive", "trapping", "locally_bijective"),
        ("d", "bijective", "all", "involutive"),
    ),
)

TRIANGULAR_DIAGRAM = DiagramSpec(
    "triangular",
    (
        "triangular_tg",
        "oriented_tg",
        "dpt",
        "triangular_ga",
        "oriented_ga",
        "triangular_a",
        "oriented_a",
        "locally_idempotent",
        "sink_terminal_a",
        "fixable",
        "sink_terminal_ga",
        "sink_terminal_tg",
        "trapspace_fp",
    ),
    _edges(
        ("triangular_tg", "oriented_tg", "all"),
        ("oriented_tg", "triangular_tg", "all"),
        ("triangular_ga", "oriented_ga", "all"),
        ("oriented_ga", "triangular_ga", "trapping"),
        ("triangular_a", "oriented_a", "all"),
        ("oriented_a", "triangular_a", "trapping"),
        ("triangular_tg", "triangular_ga", "all"),
        ("triangular_ga", "triangular_tg", "trapping"),
        ("triangular_ga", "triangular_a", "all"),
        ("triangular_a", "triangular_ga", "commutative"),
        ("oriented_ga", "oriented_a", "all"),
        ("oriented_a", "oriented_ga", "commutative"),
        ("triangular_a", "sink_terminal_a", "all"),
        ("sink_terminal_a", "triangular_a", "commutative"),
        ("sink_terminal_a", "sink_terminal_ga", "all"),
        ("sink_terminal_ga", "sink_terminal_a", "trapping"),
        ("sink_terminal_ga", "sink_terminal_tg", "all"),
        ("sink_terminal_tg", "sink_terminal_ga", "trapping"),
        ("triangular_tg", "dpt", "all"),
        ("dpt", "triangular_tg", "all"),
        ("oriented_a", "locally_idempotent", "all"),
        ("locally_idempotent", "oriented_a", "all"),
        ("sink_terminal_a", "fixable", "all"),
        ("fixable", "sink_terminal_a", "all"),
        ("sink_terminal_tg", "trapspace_fp", "all"),
        ("trapspace_fp", "sink_terminal_tg", "all"),
    ),
    _noedges(
        ("e", "triangular_ga", "all", "triangular_tg"),
        ("f", "triangular_a", "trapping", "oriented_ga"),
        ("g", "oriented_ga", "all", "sink_terminal_tg"),
        ("h", "sink_terminal_tg", "all", "sink_terminal_ga"),
        ("i", "sink_terminal_ga", "all", "sink_terminal_a"),
        ("j", "sink_terminal_a", "trapping", "oriented_a"),
    ),
)

LILLE_DIAGRAM = DiagramSpec(
    "lille",
    (
        "lille",
        "interval_ufp_idempotent",
        "globally_idempotent",
        "interval_ufp",
        "idempotent",
        "dpt",
        "triangular_ga",
        "triangular_a",
        "oriented_ga",
        "locally_idempotent",
        "fixable",
        "interval_fp",
        "trapspace_fp",
    ),
    _edges(
        ("lille", "interval_ufp_idempotent", "all"),
        ("interval_ufp_idempotent", "lille", "trapping"),
        ("interval_ufp_idempotent", "interval_ufp", "all"),
        ("interval_ufp", "interval_ufp_idempotent", "commutative"),
        ("interval_ufp", "interval_fp", "all"),
        ("interval_fp", "interval_ufp", "commutative"),
        ("lille", "globally_idempotent", "all"),
        ("globally_idempotent", "lille", "commutative"),
        ("dpt", "triangular_ga", "all"),
        ("triangular_ga", "dpt", "trapping"),
        ("globally_idempotent", "idempotent", "all"),
        ("idempotent", "globally_idempotent", "commutative"),
        ("globally_idempotent", "dpt", "all"),
        ("dpt", "globally_idempotent", "commutative"),
        ("triangular_ga", "triangular_a", "all"),
        ("triangular_a", "triangular_ga", "commutative"),
        ("triangular_ga", "oriented_ga", "all"),
        ("oriented_ga", "triangular_ga", "trapping"),
        ("triangular_a", "locally_idempotent", "all"),
        ("locally_idempotent", "triangular_a", "trapping"),
        ("oriented_ga", "locally_idempotent", "all"),
        ("locally_idempotent", "oriented_ga", "commutative"),
        ("triangular_a", "fixable", "all"),
        ("fixable", "triangular_a", "commutative"),
        ("fixable", "trapspace_fp", "all"),
        ("trapspace_fp", "fixable", "trapping"),
        ("interval_ufp_idempotent", "idempotent", "all"),
        ("idempotent", "interval_ufp_idempotent", "commutative"),
        ("idempotent", "interval_fp", "all"),
        ("interval_fp", "idempotent", "commutative"),
        ("interval_fp", "trapspace_fp", "all"),
        ("trapspace_fp", "interval_fp", "trapping"),
    ),
    _noedges(
        ("k", "interval_ufp_idempotent", "all", "fixable"),
        ("l", "interval_ufp_idempotent", "all", "locally_idempotent"),
        ("m", "interval_ufp", "trapping", "idempotent"),
        ("n", "globally_idempotent", "all", "interval_ufp"),
        ("o", "dpt", "trapping", "idempotent"),
        ("p", "idempotent", "trapping", "locally_idempotent"),
        ("q", "interval_ufp", "trapping", "locally_idempotent"),
    ),
)

DIAGRAMS = {
    d.id: d
    for d in (SYMMETRIC_DIAGRAM, MARSEILLE_DIAGRAM, TRIANGULAR_DIAGRAM, LILLE_DIAGRAM)
}


@dataclass(frozen=True)
class DiagramViolation:
    diagram: str
    kind: str  # "implication" | "counterexample"
    detail: str
    network: BooleanNetwork


def load_fixture(diagram: str, label: str) -> BooleanNetwork:
    """Load a counterexample fixture shipped with the package."""
    root = importlib.resources.files(__package__) / "fixtures" / diagram
    path = root / f"{label}.tt"
    try:
        text = path.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as exc:
        raise FileNotFoundError(f"missing fixture {diagram}/{label}.tt") from exc
    return parse_truth_table(text).network


def diagram_implication_violations(
    diagram: DiagramSpec, p: NetworkProfile
) -> list[DiagramViolation]:
    """Correctness on one network: if it satisfies an edge's source and guard,
    it must satisfy the edge's target."""
    violations = []
    for edge in diagram.edges:
        if not p.prop(edge.guard):
            continue
        if p.prop(edge.source) and not p.prop(edge.target):
            violations.append(
                DiagramViolation(
                    diagram.id,
                    "implication",
                    f"{edge.source} [{edge.guard}] -> {edge.target}",
                    p.f,
                )
            )
    return violations


def diagram_counterexample_violations(diagram: DiagramSpec) -> list[DiagramViolation]:
    """Completeness: every registered counterexample fixture must satisfy its
    non-edge's source and guard while violating the target."""
    violations = []
    for ce in diagram.counterexamples:
        net = load_fixture(diagram.id, ce.label)
        p = NetworkProfile(net)
        ok = p.prop(ce.guard) and p.prop(ce.source) and not p.prop(ce.target)
        if not ok:
            violations.append(
                DiagramViolation(
                    diagram.id,
                    "counterexample",
                    f"fixture {ce.label} fails to refute "
                    f"{ce.source} [{ce.guard}] -> {ce.target}",
                    net,
                )
            )
    return violations


def verify_diagram(
    diagram: DiagramSpec,
    population,
) -> list[DiagramViolation]:
    """Check correctness over a population and completeness over fixtures.

    ``population`` holds networks or NetworkProfile objects.  The implication
    violations come in population order, then the fixture ones.
    """
    violations = []
    for item in population:
        p = item if isinstance(item, NetworkProfile) else NetworkProfile(item)
        violations += diagram_implication_violations(diagram, p)
    return violations + diagram_counterexample_violations(diagram)
