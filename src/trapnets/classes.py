"""Network classes, alternate-definition cross-checkers and implication diagrams.

Every class predicate is computed from its own primary definition;
``check_alternate_definitions`` evaluates each of a class's equivalent
defining conditions independently so their agreement can be verified over
whole populations.  A ``ProfileBlock`` is a ``trapspaces.TrapspaceBlock``,
which holds a block of networks as their (k, 2^n) image rows and fills
``block[name]`` on first use by one path, ``_fill``, into one dict; every
trapspace fact (principal pairs, trapspaces, the minimal cover, P, J and
N, closures and min extensions) is that module's.  Two tables here map
the class layer's kernels to the names they fill: ``STACKS`` its array
facts (realisations, intervals, the fixed-point table and the
asynchronous components) and ``KERNELS`` the boolean columns, one kernel
per fact; ``FILLS`` indexes both with the trapspace facts.  The block of
the networks related to its rows, ``related()``, is kept in the same dict.
``verify --suite all`` checks every column but ``transitive_a``, on which
no claim rests.
Each per-network function reads row 0 of a block of its network alone;
``NetworkProfile``, a view of one row as objects, is for callers only.
The implication diagrams encode which class memberships force which others
(unconditionally, for trapping networks, or for commutative networks)
together with the counterexample fixtures witnessing the absent arrows.
This module owns the diagram check, ``implication_violations``, the
population cut, ``population_blocks``, and ``block_violations``, which
turns a block's broken columns into per-network ``Violation`` lists.
"""

from __future__ import annotations

import functools
import importlib.resources
import itertools
from dataclasses import asdict, dataclass, make_dataclass
from functools import cached_property

import numpy as np

from .core import (
    CAPS,
    BooleanNetwork,
    _check_same_dimension,
    bit_counts,
    check_cap,
    commutative_rows,
    is_commutative,
    update_table,
)
from .cubesets import (
    SubcubeCollection,
    _subcube_or,
    _ternary_of_masks,
    classify_collection,
    convex_rows,
    lambda_rows,
    min_ideal_rows,
    pointwise_cubes,
    pointwise_free,
    pre_ideal_rows,
    pre_principal_rows,
)
from .dynamics import (
    GRAPH_PROPERTIES,
    HypercubeGraph,
    build_graph,
    component_predicates,
    distinct_rows,
    general_rows,
    graph_property,
    move_components,
    move_row_predicates,
    subcube_components,
    subcube_graph,
    subcube_row_predicates,
)
from .netio import parse_truth_table
from .trapspaces import TrapspaceBlock, _by_name

# The theorems with a subset-pair and an interval condition.
PAIR_THEOREMS = ("trapping7", "commutative3", "marseille4", "lille4", "globally_idempotent3")

# The defining conditions of each theorem, as ``ProfileBlock`` columns.  Each
# condition is its own test: two conditions of one theorem may read the same
# index arrays, never the same predicate.  globally_idempotent3's definition
# is the Gray sweep's column.  ``principal_moves``,
# ``closure_fixed`` and ``tg_is_ga`` are one test, pt(x) = [x, f(x)] for
# every x, in three encodings (the free masks, the closure's image and the
# two graphs' rows), and ``some_closure`` is that test above the
# ``exhaustive`` cap; they are kept because the paper states them as
# separate conditions.
VECTORS = {
    "trapping7": ("trapping", "trapping7.intervals", "principal_moves", "closure_fixed",
                  "some_closure", "tg_is_ga", "trapping7.pairs"),
    "commutative3": ("commutative", "commutative3.intervals", "commutative3.pairs"),
    "marseille4": ("marseille", "negation_on_subcubes", "marseille4.intervals",
                   "marseille4.pairs"),
    "lille4": ("lille", "constant_on_arrangements", "lille4.intervals", "lille4.pairs"),
    "globally_idempotent3": ("globally_idempotent", "globally_idempotent3.intervals",
                             "globally_idempotent3.pairs"),
    "sink_terminal5": ("sink_terminal_tg", "descent", "minimal_fixed", "principal_fp",
                       "trapspace_fp"),
}
THEOREM_SIZES = {theorem: len(names) for theorem, names in VECTORS.items()}


# ---------------------------------------------------------------------------
# stacked kernels: each takes a (k, 2^n) stack of image rows and returns one
# boolean entry per row


def _submasks(masks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, s) for every entry i of the flattened ``masks`` and every subset s
    of masks[i], in order of i, then of s (as ``iter_submasks``): the j-th
    subset of m puts the bits of j, low first, on the coordinates of m."""
    masks = masks.reshape(-1)
    count = 1 << bit_counts(n)[masks]
    i = np.repeat(np.arange(len(masks)), count)
    j = np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)
    m = masks[i]
    s = np.zeros_like(m)
    for bit in range(n):
        here = m >> bit & 1
        s |= (j & here) << bit
        j >>= here
    return i, s


def _all_by_row(holds: np.ndarray, row: np.ndarray, k: int) -> np.ndarray:
    """Whether ``holds`` is true at every entry of each of rows 0..k-1."""
    out = np.ones(k, dtype=bool)
    out[row[~holds]] = False
    return out


def _same(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether a and b agree at every entry of their last axis."""
    return np.all(a == b, axis=-1)


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The tables a after b, row by row over the last axis."""
    return np.take_along_axis(a, b, axis=-1)


def _table_flags(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bijective, involutive, idempotent) of each table over the last axis;
    a permutation sorts to the identity."""
    xs, twice = np.arange(tables.shape[-1]), _compose(tables, tables)
    bijective = np.all(np.sort(tables, axis=-1) == xs, axis=-1)
    return bijective, np.all(twice == xs, axis=-1), np.all(twice == tables, axis=-1)


def single_update_rows(images: np.ndarray, n: int) -> np.ndarray:
    """Entry (r, i, x): x under the update of coordinate i + 1 alone, for the
    network of image row r."""
    xs = np.arange(1 << n)
    return update_table(images[:, None, :], (1 << np.arange(n))[:, None], xs)


_IMAGE_FLAGS = ("bijective", "involutive", "idempotent", "locally_bijective",
                "locally_involutive", "locally_idempotent", "dynamically_local")


def image_flag_rows(images: np.ndarray, n: int) -> dict[str, np.ndarray]:
    """The flags of each row read off its image table, off its single-
    coordinate update tables (the ``locally_*`` flags) and off f^3 = f
    (dynamically local)."""
    local = (flag.all(axis=1) for flag in _table_flags(single_update_rows(images, n)))
    dynamic = _same(_compose(images, _compose(images, images)), images)
    return dict(zip(_IMAGE_FLAGS, (*_table_flags(images), *local, dynamic)))


_GLOBALLY_FLAGS = ("globally_bijective", "globally_involutive", "globally_idempotent")


def globally_rows(images: np.ndarray, n: int) -> dict[str, np.ndarray]:
    """Whether every subset update of each row is bijective, involutive and
    idempotent: a walk over the subsets in Gray-code order, toggling one
    coordinate of the running tables per step, that a row leaves once all
    three fail.  The tables hold positions in the flattened stack, row r's
    offset by r * 2^n, so one gather composes every table with itself."""
    check_cap("global_sweep", n)
    size = 1 << n
    xs = np.arange(size)
    holds = np.zeros((3, len(images)), dtype=bool)
    live, moves, flags = np.arange(len(images)), images ^ xs, np.ones_like(holds)
    ident = xs + (live * size)[:, None]
    tab = ident.copy()
    bij = inv = idem = True
    for k in range(size):
        if k:
            # Adding or dropping coordinate ``bit`` of the subset switches
            # that coordinate of each table entry between x's and f(x)'s.
            bit = k ^ (k >> 1) ^ (k - 1) ^ ((k - 1) >> 1)
            tab ^= moves & bit
        # Per-row answers only when a whole-stack test fails.
        fails = []
        if bij:
            counts = np.bincount(tab.reshape(-1), minlength=tab.size)
            if counts.max() > 1:
                fails.append((0, counts.reshape(tab.shape).max(axis=1) == 1))
        if inv or idem:
            twice = tab.reshape(-1)[tab]
            if inv and not np.array_equal(twice, ident):
                fails.append((1, np.all(twice == ident, axis=1)))
            if idem and not np.array_equal(twice, tab):
                fails.append((2, np.all(twice == tab, axis=1)))
        if fails:
            for j, ok in fails:
                flags[j] &= ok
            bij, inv, idem = flags.any(axis=1).tolist()
            keep = flags.any(axis=0)
            if not keep.all():
                live, moves, flags = live[keep], moves[keep], flags[:, keep]
                ident = xs + (np.arange(len(live)) * size)[:, None]
                tab = (tab[keep] & (size - 1)) + ident - xs
                if not len(live):
                    break
    holds[:, live] = flags
    return dict(zip(_GLOBALLY_FLAGS, holds))


_PAIR_COLUMNS = tuple(f"{theorem}.pairs" for theorem in PAIR_THEOREMS)


def pair_rows(images: np.ndarray, n: int) -> dict[str, np.ndarray]:
    """The subset-pair condition of five theorems for each row, in one pass
    over the subsets s for all rows.  A table is held as its moves, table ^ x:
    the update of t moves x by f(x) ^ x on t, and comp[r, t, x], updating s
    then t, moves x by that of s, then by f(y) ^ y on t at the y it reaches.
    Each condition is its own test over every t and x; a row leaves the pass
    once all five have failed."""
    check_cap("pair_sweep", n)
    xs = np.arange(1 << n)
    ts = xs[:, None].astype(np.uint8)
    moves = (images ^ xs).astype(np.uint8)  # n <= 8
    holds = np.zeros((len(PAIR_THEOREMS), len(images)), dtype=bool)
    live, live_holds = np.arange(len(images)), np.ones_like(holds)

    def within(a, b):
        """Every move of a is one of b, for every t and x: a is below b in
        the transition order."""
        return ~np.any(a & ~b, axis=(1, 2))

    for s in range(1 << n):
        first = moves & s
        then = np.take_along_axis(moves, xs ^ first, axis=1)
        comp = (then[:, None, :] & ts) ^ first[:, None, :]
        spread = moves[:, None, :]
        union, sym = spread & (ts | s), spread & (ts ^ s)
        # update(s) then update(t) never moves more than update(s | t); the
        # trapping, sandwich and intersection-bound conditions all need it.
        below_union = within(comp, union)
        live_holds &= np.array([
            below_union,
            below_union & within(sym, comp),
            np.all(comp == sym, axis=(1, 2)),
            np.all(comp == union, axis=(1, 2)),
            # Both bounds are needed: the lower bound alone is strictly weaker
            # than global idempotence (26 of the 256 two-coordinate networks
            # satisfy it without being globally idempotent).
            below_union & within(spread & (ts & s), comp),
        ])
        keep = live_holds.any(axis=0)
        if not keep.all():
            live, moves, live_holds = live[keep], moves[keep], live_holds[:, keep]
            if not len(live):
                break
    holds[:, live] = live_holds
    return dict(zip(_PAIR_COLUMNS, holds))


def interval_arrays(images: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(at, s): one entry per row r, configuration x and subset s of x ^ f(x),
    so that y = x ^ s runs over [x, f(x)]; at = r * 2^n + x is x's position
    in the flattened image stack and at ^ s is y's.  In order of r, x, then
    s; row r has the sum over x of 2^|x ^ f(x)| entries, at most 4^n."""
    return _submasks(np.arange(1 << n) ^ images, n)


def _span_subset(a, fa, b, fb):
    """span{a, fa} is a subset of span{b, fb}, entry by entry."""
    free = b ^ fb
    return ((a ^ fa) & ~free == 0) & ((a ^ b) & ~free == 0)


def interval_rows(images: np.ndarray, n: int, intervals) -> dict[str, np.ndarray]:
    """The conditions of each row quantified over every x and every y in
    [x, f(x)], on its ``interval_arrays``: the interval
    condition of the five pair theorems, ``negation_on_subcubes`` (y moves
    to its opposite f(x) ^ s) and ``constant_on_arrangements`` (y moves to
    f(x), a fixed point)."""
    at, s = intervals
    flat = images.reshape(-1)
    x = at & ((1 << n) - 1)
    y, fx, fy = x ^ s, flat[at], flat[at ^ s]
    conditions = {
        "trapping7.intervals": _span_subset(y, fy, x, fx),
        "commutative3.intervals": _span_subset(y, fx, y, fy) & _span_subset(y, fy, x, fx),
        # For y inside the interval of x, interval equality reduces to equal
        # difference masks.
        "marseille4.intervals": (y ^ fy) == (x ^ fx),
        "lille4.intervals": (y ^ fy) == (y ^ fx),
        "globally_idempotent3.intervals": _span_subset(y, fy, y, fx),
        "negation_on_subcubes": fy == fx ^ s,
        # f(x) is in the interval too, so it is then a fixed point.
        "constant_on_arrangements": fy == fx,
    }
    row = at >> n
    return {name: _all_by_row(holds, row, len(images)) for name, holds in conditions.items()}


def _count_to_two(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """The ``_subcube_or`` op of counts saturated at 2: a + b, clipped."""
    np.minimum(np.add(a, b, out=out), 2, out=out)


def interval_fixed_rows(images: np.ndarray, n: int, fixed: np.ndarray) -> dict[str, np.ndarray]:
    """Whether every interval [x, f(x)] of each row holds a fixed point
    (``interval_fp``) and exactly one (``interval_ufp``), read off its row
    of the block's ``fixed_points`` table ``fixed``."""
    xs, tern = np.arange(1 << n), _ternary_of_masks(n)
    inside = np.take_along_axis(fixed, tern[xs & images] + 2 * tern[xs ^ images], axis=1)
    return {"interval_fp": np.all(inside >= 1, axis=1), "interval_ufp": np.all(inside == 1, axis=1)}


def fixable_rows(images: np.ndarray, label: np.ndarray, terminal: np.ndarray) -> np.ndarray:
    """Whether a fixed point is reachable from every configuration of each
    row, given the ``move_components`` of its asynchronous graph: every
    terminal component is a fixed point, so its least vertex is one."""
    return np.all((np.take_along_axis(images, label, axis=1) == label) | ~terminal, axis=1)


def descent_rows(
    images: np.ndarray, free: np.ndarray, base: np.ndarray, n: int
) -> dict[str, np.ndarray]:
    """Two sink_terminal5 conditions of each row, given its principal (free,
    base) arrays, over the members of each distinct principal trapspace of a
    moving configuration: ``descent`` (none is the principal trapspace of
    all its members) and ``principal_fp`` (each holds a fixed point)."""
    k, cell = len(images), (1 << n) - 1
    fixed = images == np.arange(1 << n)
    # The inverse keeps np.unique off the numpy.ma import of its plain form.
    keys = np.unique(
        ((np.arange(k)[:, None] << 2 * n) | free << n | base)[~fixed], return_inverse=True
    )[0]
    row, cube_free, cube_base = keys >> 2 * n, keys >> n & cell, keys & cell
    i, s = _submasks(cube_free, n)
    at = row[i] << n | cube_base[i] | s
    same = (free.reshape(-1)[at] == cube_free[i]) & (base.reshape(-1)[at] == cube_base[i])
    stuck = _all_by_row(same, i, len(keys))
    holds_fixed = ~_all_by_row(~fixed.reshape(-1)[at], i, len(keys))
    return {"descent": _all_by_row(~stuck, row, k),
            "principal_fp": _all_by_row(holds_fixed, row, k)}


_COLLECTION_COLUMNS = ("pre_principal", "convex", "pre_ideal", "min_ideal", "mu_fixes_p",
                       "lambda_p_is_j", "mu_j_is_p", "mu_lambda_invert")


def collection_rows(
    masks: dict[str, np.ndarray], realised: dict[str, np.ndarray], n: int
) -> dict[str, np.ndarray]:
    """The recognisers of each row's principal (P), trapspace (J) and minimal
    (N) masks, and the round trips of union closure (lambda) and pointwise
    reduction (mu) between P and J, given their realisations, which move x
    by its ``pointwise_free`` mask."""
    P, J, N = masks["P"], masks["J"], masks["N"]
    mu_p, mu_j = (pointwise_cubes(np.arange(1 << n) ^ realised[c], n) for c in "PJ")
    lam_p = lambda_rows(P, n)
    return {
        "pre_principal": pre_principal_rows(P, n),
        "convex": convex_rows(P, n),
        "pre_ideal": pre_ideal_rows(J, n),
        "min_ideal": min_ideal_rows(N, n),
        "mu_fixes_p": _same(mu_p, P),
        "lambda_p_is_j": _same(lam_p, J),
        "mu_j_is_p": _same(mu_j, P),
        "mu_lambda_invert": _same(pointwise_cubes(pointwise_free(lam_p, n), n), P)
        & _same(lambda_rows(mu_j, n), J),
    }


# ---------------------------------------------------------------------------
# the per-network profile: everything computed once, lazily


# The class flags, in the order of ``ClassReport``'s fields.
CLASS_FLAGS = (
    "trapping", "commutative", "marseille", "lille", "globally_idempotent", "bijective",
    "locally_bijective", "globally_bijective", "involutive", "locally_involutive",
    "globally_involutive", "idempotent", "locally_idempotent", "dynamically_local", "dpt",
    "fixable", "trapspace_fp", "interval_fp", "interval_ufp", "min_trapping",
)


def _with_flags(cls):
    """cls with a cached property per class flag: the profile's entry in
    that column of its block."""
    for name in CLASS_FLAGS:
        flag = cached_property(lambda profile, name=name: profile.prop(name))
        flag.__set_name__(cls, name)
        setattr(cls, name, flag)
    return cls


@_with_flags
class NetworkProfile:
    """One network as a view of its row of a ``ProfileBlock``, by default
    row 0 of a block of f alone, with the per-network objects (graphs,
    collections, related networks) built from that row on first use."""

    row = 0

    def __init__(self, f: BooleanNetwork, block: "ProfileBlock | None" = None, row: int = 0):
        self.f = f
        self.n = f.n
        if block is not None:
            self.block, self.row = block, row

    @cached_property
    def block(self) -> "ProfileBlock":
        """The block whose row ``row`` this profile views."""
        return ProfileBlock.of([self.f])

    @cached_property
    def graph_a(self) -> HypercubeGraph:
        return build_graph(self.f, "asynchronous")

    @cached_property
    def graph_ga(self) -> HypercubeGraph:
        return build_graph(self.f, "general")

    @cached_property
    def pt_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        free, base = self.block["principal"]
        return free[self.row], base[self.row]

    @cached_property
    def closure(self) -> BooleanNetwork:
        return BooleanNetwork(self.n, self.block["closures"][self.row])

    @cached_property
    def graph_tg(self) -> HypercubeGraph:
        return subcube_graph(self.n, *self.pt_pairs)

    @cached_property
    def pt_collection(self) -> SubcubeCollection:
        return SubcubeCollection(self.n, self.block["P"][self.row])

    @cached_property
    def trapspace_collection(self) -> SubcubeCollection:
        return SubcubeCollection(self.n, self.block["J"][self.row])

    @cached_property
    def minimal(self) -> tuple[SubcubeCollection, np.ndarray]:
        block, row = self.block, self.row
        return SubcubeCollection(self.n, block["N"][row]), block["covered"][row]

    @cached_property
    def min_extension(self) -> BooleanNetwork:
        return BooleanNetwork(self.n, self.block["min_extensions"][self.row])

    @cached_property
    def pt_flags(self):
        return classify_collection(self.pt_collection)

    @cached_property
    def fixed_bitset(self) -> int:
        fixed = np.flatnonzero(self.f.np_image == np.arange(1 << self.n))
        return sum(1 << x for x in fixed.tolist())

    @cached_property
    def singles(self) -> np.ndarray:
        """The (n, 2^n) single-coordinate update tables."""
        return single_update_rows(self.f.np_image[None], self.n)[0]

    @cached_property
    def globally_flags(self) -> tuple[bool, bool, bool]:
        return tuple(self.prop(f"globally_{w}") for w in ("bijective", "involutive", "idempotent"))

    def prop(self, name: str) -> bool:
        """The class flag or condition ``name`` (a ``ProfileBlock`` column)."""
        return bool(self.block[name][self.row])


@functools.cache
def _all_closure_tables(n: int) -> np.ndarray:
    """The trapping closure of every network of dimension n, one image row
    each (the ``exhaustive`` cap): x moves by its principal free mask."""
    from .generators import exhaustive_networks  # here, as only n <= 2 reaches it

    closures = ProfileBlock.of(exhaustive_networks(n))["closures"]
    closures.setflags(write=False)  # shared by every caller at this n
    return closures


# The predicates a non-transitive GA reads off its bitset graph.
_ARC_PREDICATES = ("oriented", "triangular", "sink-terminal")


def _graph_columns(props, kind: str) -> tuple[str, ...]:
    """The column names of the predicates ``props`` of graph ``kind`` (a, ga
    or tg)."""
    return tuple(f"{prop.replace('-', '_')}_{kind}" for prop in props)


def _named(holds: dict[str, np.ndarray], kind: str) -> dict[str, np.ndarray]:
    return dict(zip(_graph_columns(holds, kind), holds.values()))


def _subcube_rows(block, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The (free, base) rows of the block's GAs or TGs."""
    return block["principal"] if kind == "tg" else general_rows(block.images, block.n)


def _async_predicates(block) -> dict[str, np.ndarray]:
    """All six predicates of the asynchronous graphs, off their move rows."""
    holds = move_row_predicates(np.arange(1 << block.n) ^ block.images, block.n)
    return _named({**holds, **component_predicates(*block["async_components"])}, "a")


def _row_predicates(block, kind: str) -> dict[str, np.ndarray]:
    """The predicates of the GAs or TGs read off their rows with no SCC
    search."""
    return _named(subcube_row_predicates(*_subcube_rows(block, kind), block.n), kind)


def _scc_predicates(block, kind: str) -> dict[str, np.ndarray]:
    """The ``_ARC_PREDICATES`` of the GAs or TGs, read off their row SCCs."""
    free, base = _subcube_rows(block, kind)
    holds = {"oriented": distinct_rows(free, base, block.n),
             **component_predicates(*subcube_components(free, base, block.n))}
    # Those three hold on transitive rows (the TG's always); a GA that is not
    # transitive has its SCCs found on its bitsets.  The rows are those of a
    # false ``transitive_ga`` column, so a block whose column is flipped
    # searches the flipped rows.
    if kind == "ga":
        for i in np.flatnonzero(~block["transitive_ga"]).tolist():
            g = build_graph(block.network(i), "general")
            for prop in _ARC_PREDICATES:
                holds[prop][i] = graph_property(g, prop)
    return _named(holds, kind)


# The array facts the class layer adds to ``trapspaces.STACKS``, in the
# form of ``KERNELS``: each under the kernel that fills it.  Each of the
# ``realisations`` of P, J and N (by collection; x moves by its
# ``pointwise_free`` mask) is (k, 2^n), as is the pair ``async_components``
# (label, terminal); the one fixed-point table, ``fixed_points``, is
# (k, 3^n), its uint8 entry (i, T) counting row i's fixed points in T up to
# 2; and ``intervals`` is the (at, s) of ``interval_arrays``.
STACKS = {
    ("realisations",): lambda b: {c: np.arange(1 << b.n) ^ pointwise_free(b[c], b.n)
                                  for c in "PJN"},
    ("intervals",): lambda b: interval_arrays(b.images, b.n),
    ("fixed_points",): lambda b: _subcube_or((b.images == np.arange(1 << b.n)).astype(np.uint8),
                                             b.n, _count_to_two),
    ("async_components",): lambda b: move_components(np.arange(1 << b.n) ^ b.images, b.n),
}

# The class layer: every boolean column, under the kernel that fills it.  A
# kernel takes a ``ProfileBlock`` and returns a dict of its columns, or the
# array of its one column: a stacked ``*_rows`` kernel, a reading of the
# array facts or the graphs' row forms, or an expression in other columns.
KERNELS = {
    _IMAGE_FLAGS: lambda b: image_flag_rows(b.images, b.n),
    _GLOBALLY_FLAGS: lambda b: globally_rows(b.images, b.n),
    _PAIR_COLUMNS: lambda b: pair_rows(b.images, b.n),
    (*(f"{theorem}.intervals" for theorem in PAIR_THEOREMS), "negation_on_subcubes",
     "constant_on_arrangements"): lambda b: interval_rows(b.images, b.n, b["intervals"]),
    ("descent", "principal_fp"): lambda b: descent_rows(b.images, *b["principal"], b.n),
    ("interval_fp", "interval_ufp"): lambda b: interval_fixed_rows(b.images, b.n,
                                                                   b["fixed_points"]),
    _COLLECTION_COLUMNS: lambda b: collection_rows({c: b[c] for c in "PJN"},
                                                   b["realisations"], b.n),
    _graph_columns(GRAPH_PROPERTIES, "a"): _async_predicates,
    **{_graph_columns(("reflexive", "symmetric", "transitive"), kind):
       functools.partial(_row_predicates, kind=kind) for kind in ("ga", "tg")},
    **{_graph_columns(_ARC_PREDICATES, kind): functools.partial(_scc_predicates, kind=kind)
       for kind in ("ga", "tg")},
    ("all",): lambda b: np.ones(len(b.images), dtype=bool),
    ("commutative",): lambda b: commutative_rows(b.images, b.n),
    ("marseille",): lambda b: b["commutative"] & b["bijective"],
    ("lille",): lambda b: b["commutative"] & b["idempotent"],
    ("interval_ufp_idempotent",): lambda b: b["interval_ufp"] & b["idempotent"],
    # The paper defines trapping as the general graph's transitivity.
    ("trapping",): lambda b: b["transitive_ga"],
    ("tg_is_ga",): lambda b: np.all(np.equal(b["principal"], general_rows(b.images, b.n)),
                                    axis=(0, 2)),
    ("fixable",): lambda b: fixable_rows(b.images, *b["async_components"]),
    ("closure_fixed",): lambda b: _same(b.images, b["closures"]),
    # Above the exhaustive cap: the closure operator is idempotent (tested
    # separately), so its image is its fixed-point set.
    ("some_closure",): lambda b: b["closure_fixed"] if b.n > CAPS["exhaustive"] else _same(
        b.images[:, None], _all_closure_tables(b.n)).any(axis=1),
    ("principal_moves",): lambda b: _same(np.arange(1 << b.n) ^ b.images, b["principal"][0]),
    ("minimal_fixed",): lambda b: _same(b["covered"], np.arange(1 << b.n) == b.images),
    ("dpt",): lambda b: b["pt_distinct"] == 1 << b.n,
    # Every trapspace contains a fixed point.
    ("trapspace_fp",): lambda b: np.all((b["fixed_points"] > 0) | ~b["trapspaces"], axis=1),
    ("min_trapping",): lambda b: _same(b["min_extensions"], b.images),
}


COLUMNS = _by_name(KERNELS)


class ProfileBlock(TrapspaceBlock):
    """A ``trapspaces.TrapspaceBlock`` with the class layer: ``block[name]``
    is also a fact of this module's ``STACKS`` or a boolean column of
    ``KERNELS`` (one per class flag, diagram node and alternate-definition
    condition).  The block's dict also holds ``related``: the networks
    related to the rows, as the rows of a second block.  A block refers to
    no profile, so it is freed with its last reference."""

    FILLS = TrapspaceBlock.FILLS | _by_name(STACKS) | COLUMNS

    def related(self, realisations: bool = False) -> tuple["ProfileBlock", dict[str, np.ndarray]]:
        """The block, of this block's class, of the distinct closures and min
        extensions of the rows, and of the realisations of P, J and N if
        ``realisations``; and, by partner (``closure``, ``min_extension``, P,
        J, N), the row there of each row's.  Rebuilt only to add those."""
        held = self._facts.get("related")
        if held is None or realisations and "P" not in held[1]:
            partners = {"closure": self["closures"], "min_extension": self["min_extensions"],
                        **(self["realisations"] if realisations else {})}
            rows, inverse = np.unique(np.concatenate([*partners.values()]), axis=0,
                                      return_inverse=True)
            at = dict(zip(partners, inverse.reshape(len(partners), -1)))
            held = self._facts["related"] = type(self)(rows), at
        return held

    def vector(self, theorem: str) -> np.ndarray:
        """The (k, m) table of the theorem's m defining conditions."""
        return np.stack([self[name] for name in VECTORS[theorem]], axis=1)


# The one index of every fact and column that ``ProfileBlock._fill`` fills.
FILLS = ProfileBlock.FILLS


ClassReport = make_dataclass(
    "ClassReport", [(name, bool) for name in CLASS_FLAGS], frozen=True,
    namespace={"__module__": __name__, "as_dict": asdict},
)


def classify_network(f: BooleanNetwork, block: ProfileBlock | None = None) -> ClassReport:
    """Evaluate every class flag from its own primary definition: row 0 of
    ``block``, a block of f alone, by default a new one."""
    check_cap("enumeration", f.n)
    block = block if block is not None else ProfileBlock.of([f])
    return ClassReport(*(bool(block[name][0]) for name in CLASS_FLAGS))


# ---------------------------------------------------------------------------
# alternate-definition cross-checkers


def check_alternate_definitions(f: BooleanNetwork, theorem: str) -> tuple[bool, ...]:
    """Evaluate each equivalent defining condition of a class independently:
    row 0 of ``ProfileBlock.vector`` on a block of f alone.

    Returns one boolean per condition; a mixed vector on any network
    contradicts the corresponding equivalence and is a build-breaking
    finding.  Refuses above the ``pair_sweep`` cap (the ``enumeration``
    cap for sink_terminal5) before any work.
    """
    check_cap("enumeration" if theorem == "sink_terminal5" else "pair_sweep", f.n)
    if theorem not in VECTORS:
        raise ValueError(f"unknown theorem {theorem!r}")
    return tuple(ProfileBlock.of([f]).vector(theorem)[0].tolist())


def trapspace_equivalence_rows(a: TrapspaceBlock, i, b: TrapspaceBlock, j) -> np.ndarray:
    """The five equal-trapspace-structure conditions between rows i of
    block a and rows j of block b, each its own test: one row of five per
    pair."""
    same_pt = [_same(x[i], y[j]) for x, y in zip(a["principal"], b["principal"])]
    return np.stack([
        _same(a["P"][i], b["P"][j]),
        _same(a["J"][i], b["J"][j]),
        same_pt[0],
        same_pt[0] & same_pt[1],
        _same(a["closures"][i], b["closures"][j]),
    ], axis=1)


def min_equivalence_rows(a: TrapspaceBlock, i, b: TrapspaceBlock, j) -> np.ndarray:
    """The four equal-minimal-trapspace conditions between rows i of block
    a and rows j of block b, each its own test: one row of four per pair."""
    covered_a, covered_b = a["covered"][i], b["covered"][j]
    # Given x and its free mask, the base of its principal trapspace is fixed.
    same_pt = a["principal"][0][i] == b["principal"][0][j]
    return np.stack([
        _same(a["N"][i], b["N"][j]),
        _same(covered_a, covered_b) & np.all(same_pt | ~covered_a, axis=-1),
        np.all(same_pt | ~(covered_a | covered_b), axis=-1),
        _same(a["min_extensions"][i], b["min_extensions"][j]),
    ], axis=1)


def _pair_row(rows, cap: str, f, g) -> tuple[bool, ...]:
    """Row 0 of ``rows`` on row 0 of a block of f alone and one of g alone;
    refuses above the ``cap`` cap first."""
    _check_same_dimension(f, g)
    check_cap(cap, f.n)
    a, b = TrapspaceBlock.of([f]), TrapspaceBlock.of([g])
    return tuple(rows(a, slice(None), b, slice(None))[0].tolist())  # views: no row is copied


def trapspace_equivalent(f: BooleanNetwork, g: BooleanNetwork) -> tuple[bool, ...]:
    """The five equal-trapspace-structure conditions, evaluated independently:
    row 0 of ``trapspace_equivalence_rows``."""
    return _pair_row(trapspace_equivalence_rows, "enumeration", f, g)


def min_trapspace_equivalent(f: BooleanNetwork, g: BooleanNetwork) -> tuple[bool, ...]:
    """The four equal-minimal-trapspace conditions, evaluated independently:
    row 0 of ``min_equivalence_rows``."""
    return _pair_row(min_equivalence_rows, "table", f, g)


# ---------------------------------------------------------------------------
# implication diagrams, and the block check that ``verify`` shares


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
    edges: tuple[DiagramEdge, ...]
    counterexamples: tuple[Counterexample, ...]


def _edges(*triples) -> tuple[DiagramEdge, ...]:
    return tuple(DiagramEdge(s, t, g) for s, t, g in triples)


def _noedges(*quads) -> tuple[Counterexample, ...]:
    return tuple(Counterexample(l, s, g, t) for l, s, g, t in quads)


SYMMETRIC_DIAGRAM = DiagramSpec(
    "symmetric",
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


def load_fixture(diagram: str, label: str) -> BooleanNetwork:
    """Load a counterexample fixture shipped with the package."""
    root = importlib.resources.files(__package__) / "fixtures" / diagram
    path = root / f"{label}.tt"
    try:
        text = path.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as exc:
        raise FileNotFoundError(f"missing fixture {diagram}/{label}.tt") from exc
    return parse_truth_table(text)


@dataclass(frozen=True)
class Violation:
    check: str
    detail: str
    network: BooleanNetwork


def block_violations(block: ProfileBlock, check: str, pairs) -> list[list[Violation]]:
    """One list per network of the block: for each (broken, detail) pair, in
    order, a violation of ``check`` at each network where the column
    ``broken`` is true.  ``detail`` is a string or a function of the row."""
    out = [[] for _ in block.images]
    for broken, detail in pairs:
        for i in np.flatnonzero(broken).tolist():
            text = detail if isinstance(detail, str) else detail(i)
            out[i].append(Violation(check, text, block.network(i)))
    return out


# The most networks in one block, which ``_block_size`` allows below n = 6:
# the checks of a block of 256 allocate at most 2.2 MiB at n = 4 and 6.1 MiB at
# n = 5, of 4,096 at n = 4, 33.8 MiB.  ``verify --n 4 --samples 20000 --seed 1``
# peaks at 54 MiB RSS in blocks of 256 and 88 MiB in blocks of 4,096 (2 vCPUs,
# Python 3.11, numpy 2.4).
_MAX_BLOCK = 256


def _block_size(n: int) -> int:
    """Networks per block at dimension n by the pair tables alone: they
    (4^n entries per network) stay near 2^20 entries, 1 MB."""
    return max(1, 2**20 // 4**n)


def population_blocks(networks: list[BooleanNetwork]):
    """Consecutive runs of at most ``_block_size(n)`` networks of one
    dimension n, and of at most ``_MAX_BLOCK``."""
    for n, run in itertools.groupby(networks, key=lambda f: f.n):
        run = list(run)
        size = min(_block_size(n), _MAX_BLOCK)
        for start in range(0, len(run), size):
            yield run[start : start + size]


def implication_violations(diagram: DiagramSpec, block: ProfileBlock) -> list[list[Violation]]:
    """Correctness on each network of the block: an edge fails where its
    column ``guard & source & ~target`` is true."""
    return block_violations(block, f"diagram-{diagram.id}", [
        (block[e.guard] & block[e.source] & ~block[e.target],
         f"implication: {e.source} [{e.guard}] -> {e.target}") for e in diagram.edges
    ])


def diagram_counterexample_violations(diagram: DiagramSpec) -> list[Violation]:
    """Completeness: every registered counterexample fixture must satisfy its
    non-edge's source and guard while violating the target."""
    violations = []
    for ce in diagram.counterexamples:
        net = load_fixture(diagram.id, ce.label)
        block = ProfileBlock.of([net])
        if not (block[ce.guard] & block[ce.source] & ~block[ce.target])[0]:
            detail = f"fixture {ce.label} fails to refute {ce.source} [{ce.guard}] -> {ce.target}"
            violations.append(Violation(f"diagram-{diagram.id}", f"counterexample: {detail}", net))
    return violations


def verify_diagram(diagram: DiagramSpec, population: list[BooleanNetwork]) -> list[Violation]:
    """Check correctness over a population of networks, cut by
    ``population_blocks``, and completeness over the fixtures.  The
    implication violations come in population order, then the fixture ones."""
    violations = []
    for nets in population_blocks(population):
        for found in implication_violations(diagram, ProfileBlock.of(nets)):
            violations += found
    return violations + diagram_counterexample_violations(diagram)
