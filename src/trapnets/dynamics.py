"""Dynamics graphs on the hypercube and their structural predicates.

Each of the three graphs has a row form read off a (k, 2^n) stack of image
rows, and the six predicates and the strongly connected components (SCCs)
are stacked array passes over these rows:

- a general asynchronous (GA) row is the interval [x, f(x)], the subcube
  ``(x ^ f(x), x & f(x))`` (``general_rows``);
- a trapping-graph (TG) row is the principal trapspace pt(x), the
  ``(free, base)`` stacks of ``trapspaces.principal_rows``;
- an asynchronous row is x and its neighbours across the coordinates of
  the move mask ``x ^ f(x)``, at most n + 1 arcs.

On subcube rows that hold their own vertex, the graph is symmetric iff
each half of row(x) across a free coordinate i has i free in all its rows
(an AND table over the 3^n subcubes), and transitive iff the OR of the
free masks of row(x) lies in free(x) (an OR table).  On a transitive graph
x and y reach each other iff their rows are equal, so the SCCs are the
classes of equal rows, and the graph is oriented iff no two rows are
equal.  The TG is always transitive, and the GA is when the network is
trapping.  Move rows give symmetry, orientation and transitivity in n
passes, one per coordinate, and their SCCs in one Tarjan walk over the
move masks, O(n 2^n) steps.

``HypercubeGraph`` keeps one out-neighbourhood per vertex as a 2^n-bit
integer.  It is built for two jobs only, where a question needs the arcs
themselves: the DOT export, and the orientation and SCCs of a GA that is
not transitive.  There one path-based depth-first search finds the SCCs on
the out-rows alone, with no transposed rows: each step ANDs one row with
the set still to visit or the set on the search path, so V = 2^n vertices
cost O(V^2/64) word operations whatever the arc count.  The tests keep it,
with ``graph_property``, as the arc-by-arc oracle of the row forms.  Loops
are kept in every graph; only the DOT exporter drops them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .core import BooleanNetwork, bit_counts, bitset_members, check_cap, cube_bitset
from .cubesets import _subcube_or, _ternary_of_masks

GRAPH_PROPERTIES = (
    "reflexive",
    "symmetric",
    "transitive",
    "oriented",
    "triangular",
    "sink-terminal",
)


@dataclass(frozen=True)
class HypercubeGraph:
    """A digraph on B^n; ``out[x]`` is the successor set of x as a bitset."""

    n: int
    out: tuple[int, ...]

    def __post_init__(self):
        check_cap("network", self.n)
        size = 1 << self.n
        if len(self.out) != size:
            raise ValueError(f"out table must have {size} entries, got {len(self.out)}")
        full = (1 << size) - 1
        for row in self.out:
            if not 0 <= row <= full:
                raise ValueError("out-neighbourhood bitset out of range")

    def arcs(self, include_loops: bool = True) -> Iterator[tuple[int, int]]:
        for x, row in enumerate(self.out):
            for y in bitset_members(row):
                if include_loops or x != y:
                    yield (x, y)

    @cached_property
    def components(self) -> tuple[tuple[tuple[int, ...], ...], tuple[bool, ...]]:
        """``strongly_connected_components`` of this graph, computed once."""
        return strongly_connected_components(self)


def build_graph(f: BooleanNetwork, kind: str) -> HypercubeGraph:
    """The asynchronous or general asynchronous graph of a network.

    ``kind`` is ``"asynchronous"`` (single-coordinate moves plus loops) or
    ``"general"`` (the out-neighbourhood of x is the whole interval of x).
    """
    if kind == "asynchronous":
        rows = []
        for x, fx in enumerate(f.np_image.tolist()):
            row = 1 << x
            d = x ^ fx
            while d:
                bit = d & -d
                row |= 1 << (x ^ bit)
                d ^= bit
            rows.append(row)
        return HypercubeGraph(f.n, tuple(rows))
    if kind == "general":
        return subcube_graph(f.n, *general_rows(f.np_image, f.n))
    raise ValueError(f"kind must be 'asynchronous' or 'general', got {kind!r}")


def subcube_graph(n: int, free: np.ndarray, base: np.ndarray) -> HypercubeGraph:
    """The graph whose row x is the subcube (free[x], base[x])."""
    return HypercubeGraph(n, tuple(map(cube_bitset, free.tolist(), base.tolist())))


def strongly_connected_components(
    g: HypercubeGraph,
) -> tuple[tuple[tuple[int, ...], ...], tuple[bool, ...]]:
    """SCC partition of the graph in topological (condensation) order.

    Returns (components, terminal) where components[k] is a sorted vertex
    tuple and terminal[k] says whether component k has no arc leaving it.
    Gabow's path-based search, one depth-first search on the rows: the
    ``opened`` set holds the visited vertices in no component yet, and each
    vertex that may root a component holds the part of it below itself.  A
    newly visited vertex pops every root whose below-set meets its arcs,
    which merges those roots' parts with it; the search leaving a root
    closes the part above that root as one component.  Components are found
    sinks first.
    """
    out = g.out
    unvisited = (1 << (1 << g.n)) - 1
    opened = 0
    roots: list[tuple[int, int]] = []  # (vertex, the opened set below it)
    components: list[tuple[int, ...]] = []
    terminal: list[bool] = []
    path: list[int] = []
    while path or unvisited:
        # The least unvisited successor of the top of the path, or a new root.
        step = (out[path[-1]] if path else unvisited) & unvisited
        step &= -step
        if step:
            v = step.bit_length() - 1
            unvisited ^= step
            # Pushed before the pops, so an arc back to the parent merges v.
            roots.append((v, opened))
            opened |= step
            back = out[v] & opened
            while back & roots[-1][1]:
                roots.pop()
            path.append(v)
            continue
        v = path.pop()
        if roots[-1][0] == v:  # the search leaves a root: close its part
            below = roots.pop()[1]
            comp, opened = opened ^ below, below
            members = [v] if comp == 1 << v else bitset_members(comp)
            reach = 0
            for x in members:
                reach |= out[x]
            components.append(tuple(members))
            terminal.append(reach | comp == comp)
    return tuple(reversed(components)), tuple(reversed(terminal))


def graph_property(g: HypercubeGraph, prop: str) -> bool:
    """Evaluate one of the structural predicates on the graph.

    ``oriented`` ignores loops; ``triangular`` means the only cycles are
    loops; ``sink-terminal`` means every terminal component is a single
    vertex.  ``symmetric`` and ``oriented`` read the arcs inside each
    component: an arc and its reverse lie in one, and no arc leaves a
    component of a symmetric graph.
    """
    prop = prop.replace("_", "-")
    if prop not in GRAPH_PROPERTIES:
        raise ValueError(f"unknown graph property {prop!r}")
    if prop == "reflexive":
        return all(row >> x & 1 for x, row in enumerate(g.out))
    if prop == "transitive":
        # Each distinct row holds the rows of its members.
        for row in set(g.out):
            reach = 0
            for y in bitset_members(row):
                reach |= g.out[y]
            if reach | row != row:
                return False
        return True
    components, terminal = g.components
    if prop in ("symmetric", "oriented"):
        symmetric = prop == "symmetric"
        if symmetric and not all(terminal):
            return False
        for comp in components:
            if len(comp) == 1:
                continue
            inside = sum(1 << x for x in comp)
            for x in comp:
                for y in bitset_members(g.out[x] & inside & ~(1 << x)):
                    if (g.out[y] >> x & 1) != symmetric:
                        return False
        return True
    if prop == "triangular":
        return all(len(c) == 1 for c in components)
    # sink-terminal
    return all(len(c) == 1 for c, t in zip(components, terminal) if t)


def general_rows(images: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(free, base) of each GA row: the interval [x, f(x)] for every x of
    every row of an image stack."""
    xs = np.arange(1 << n)
    return xs ^ images, xs & images


def subcube_row_predicates(free: np.ndarray, base: np.ndarray, n: int) -> dict[str, np.ndarray]:
    """Reflexive, symmetric and transitive for each graph of a stack whose
    row x is the subcube (free[r, x], base[r, x]).

    The other two read rows that hold their own vertex, so that row(y) is
    y plus the span of free(y).  Then x is in row(y) iff x ^ y lies in
    free(y): symmetry asks, for each free coordinate i of row(x), that i be
    free at every y in the half of row(x) across i, through the AND of the
    free masks over that half.  And for y in row(x), row(y) lies in row(x)
    iff free(y) lies in free(x): transitivity asks that the OR of the free
    masks over row(x) lie in free(x)."""
    k, size = free.shape
    xs = np.arange(size)
    tern = _ternary_of_masks(n)
    at = tern[base] + 2 * tern[free] + (np.arange(k) * 3**n)[:, None]
    leaves = free.astype(np.uint16)
    union = _subcube_or(leaves, n).reshape(-1)
    transitive = np.all(union[at] & ~free == 0, axis=1)
    del union
    common = _subcube_or(leaves, n, np.bitwise_and).reshape(-1)
    symmetric = np.ones(k, dtype=bool)
    for i in range(n):
        bit = 1 << i
        # Digit i of the row is 2 (free); the half holds it at the opposite of x.
        half = np.where(free & bit, at - (1 + (xs >> i & 1)) * 3**i, at)
        symmetric &= np.all((common[half] & bit != 0) | (free & bit == 0), axis=1)
    return {
        "reflexive": np.all(xs & ~free == base, axis=1),
        "symmetric": symmetric,
        "transitive": transitive,
    }


def _row_keys(free: np.ndarray, base: np.ndarray, n: int) -> np.ndarray:
    """One int64 key per row entry, equal iff the subcubes and graphs are."""
    return np.arange(len(free))[:, None] << 2 * n | free << n | base


def distinct_rows(free: np.ndarray, base: np.ndarray, n: int) -> np.ndarray:
    """Whether the rows of each subcube-row graph are pairwise distinct: on
    a transitive graph, x and y != x with arcs both ways have equal rows, so
    this is orientation."""
    keys = np.sort(_row_keys(free, base, n), axis=1)
    return np.all(keys[:, 1:] != keys[:, :-1], axis=1)


def subcube_components(
    free: np.ndarray, base: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(label, terminal) of each transitive subcube-row graph of a stack:
    label[r, x] is the least vertex of the SCC of x and terminal[r, x] says
    whether no arc leaves it.

    On a transitive graph whose rows hold their vertices the SCCs are the
    classes of equal rows, each inside its row, and a class is terminal iff
    it is its whole row: it has 2^|free| members."""
    k, size = free.shape
    _, first, inverse, counts = np.unique(
        _row_keys(free, base, n).ravel(),
        return_index=True, return_inverse=True, return_counts=True,
    )
    # The sort is stable, so the first of each key is the least vertex.
    label = (first[inverse] & (size - 1)).reshape(k, size)
    terminal = counts[inverse].reshape(k, size) == 1 << bit_counts(n)[free]
    return label, terminal


def move_row_predicates(moves: np.ndarray, n: int) -> dict[str, np.ndarray]:
    """Reflexive, symmetric, transitive and oriented for each asynchronous
    graph of a stack of move masks, one pass per coordinate i over the arcs
    x -> x ^ e_i with i in moves[r, x]: the reverse arc exists iff i moves
    at x ^ e_i, and row(x) holds the rows of its members iff nothing but
    i moves there.  Every row holds its loop."""
    k, size = moves.shape
    xs = np.arange(size)
    symmetric, transitive, oriented = (np.ones(k, dtype=bool) for _ in range(3))
    for i in range(n):
        bit = 1 << i
        arc = moves & bit != 0
        back = moves[:, xs ^ bit]
        symmetric &= ~np.any(arc & (back & bit == 0), axis=1)
        oriented &= ~np.any(arc & (back & bit != 0), axis=1)
        transitive &= ~np.any(arc & (back & ~bit != 0), axis=1)
    return {
        "reflexive": np.ones(k, dtype=bool),
        "symmetric": symmetric,
        "transitive": transitive,
        "oriented": oriented,
    }


def move_components(moves: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(label, terminal) of each asynchronous graph of a stack of move masks,
    as ``subcube_components`` gives them.

    One iterative Tarjan walk over the whole stack, vertex r * 2^n + x for x
    in row r, whose arcs flip one coordinate and so stay in their row; a
    fixed point is its own component and is never walked.  A component is
    terminal when no arc, one pass per coordinate, leaves it."""
    k, size = moves.shape
    flat = moves.ravel()
    steps = flat.tolist()
    total = len(steps)
    comp = [v if not m else -1 for v, m in enumerate(steps)]
    index = [0 if m else -1 for m in steps]  # visit order from 1; -1 done
    low = [0] * total
    stack: list[int] = []
    counter = 0
    for root in range(total):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        work = [[root, steps[root]]]
        while work:
            top = work[-1]
            v, rest = top
            if rest:
                bit = rest & -rest
                top[1] = rest ^ bit
                w = v ^ bit
                if not index[w]:
                    counter += 1
                    index[w] = low[w] = counter
                    stack.append(w)
                    work.append([w, steps[w]])
                elif comp[w] < 0 and index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    comp[w] = v
                    if w == v:
                        break
    comp = np.array(comp, dtype=np.int64)
    least = np.full(total, total, dtype=np.int64)
    np.minimum.at(least, comp, np.arange(total))
    label = least[comp]
    leaves = np.zeros(total, dtype=bool)
    for i in range(n):
        src = np.flatnonzero(flat & 1 << i)
        out = label[src] != label[src ^ 1 << i]
        leaves[label[src[out]]] = True
    return (label & (size - 1)).reshape(k, size), ~leaves[label].reshape(k, size)


def component_predicates(label: np.ndarray, terminal: np.ndarray) -> dict[str, np.ndarray]:
    """Triangular (every SCC is one vertex) and sink-terminal (every terminal
    SCC is) for each graph of a stack, from its (label, terminal) arrays:
    x is alone in its SCC iff it is the least vertex there."""
    alone = label == np.arange(label.shape[1])
    return {"triangular": np.all(alone, axis=1), "sink-terminal": np.all(alone | ~terminal, axis=1)}


def power_rows(images: np.ndarray, k: int) -> np.ndarray:
    """Entry (r, x): the image of x under the k-fold composition of the
    network of image row r with itself (k >= 0), by repeated squaring."""
    if k < 0:
        raise ValueError("power must be non-negative")
    acc = np.broadcast_to(np.arange(images.shape[-1]), images.shape)
    step = images
    while k:
        if k & 1:
            acc = np.take_along_axis(step, acc, axis=-1)
        step = np.take_along_axis(step, step, axis=-1)
        k >>= 1
    return acc


def network_power(f: BooleanNetwork, k: int) -> BooleanNetwork:
    """The k-fold composition of f with itself (k >= 0): row 0 of
    ``power_rows``."""
    return BooleanNetwork(f.n, power_rows(f.np_image[None], k)[0])


def transient_and_period(f: BooleanNetwork) -> tuple[int, int]:
    """Smallest t >= 0 and p >= 1 with f^(t+p) == f^t as full tables.

    t is the longest tail leading into a cycle and p the lcm of the cycle
    lengths, found by array passes over doubling steps: O(n 2^n) whatever
    the order of f as a permutation, with a few int32 arrays over the
    configurations held at a time.
    """
    size = 1 << f.n
    # The image of f^k shrinks as k grows until k = t, where it is the set of
    # cyclic configurations: square f^(2^j), as int32, which holds every
    # configuration up to the network cap, until its image stops shrinking.
    image = f.np_image.astype(np.int32)
    power, cyclic = image, _image_mask(image, size)
    while True:
        power = power[power]
        shrunk = _image_mask(power, size)
        if np.count_nonzero(shrunk) == np.count_nonzero(cyclic):
            break
        cyclic = shrunk
    del power, shrunk
    # t is the most steps any configuration takes to its cycle, by pointer
    # jumping over f stopped on the cycles: after j rounds, jump[x] is 2^j
    # such steps from x and depth[x] the ones of them off the cycles.
    xs = np.arange(size, dtype=np.int32)
    jump = np.where(cyclic, xs, image)
    depth = (~cyclic).astype(np.int32)
    while not cyclic[jump].all():
        depth += depth[jump]
        jump = jump[jump]
    transient = int(depth.max())
    del jump, depth
    # Label each cyclic configuration by the least one on its cycle: a min
    # over 2^j steps, doubled until no label changes, which holds once
    # 2^j steps cover every cycle.  The others stay put, labelled size.
    step = np.where(cyclic, image, xs)
    label = np.where(cyclic, xs, size)
    while True:
        doubled = np.minimum(label, label[step])
        if (doubled == label).all():
            break
        label, step = doubled, step[step]
    lengths = np.bincount(label)[:size]
    return transient, math.lcm(*set(lengths[lengths > 0].tolist()))


def _image_mask(image: np.ndarray, size: int) -> np.ndarray:
    mask = np.zeros(size, dtype=bool)
    mask[image] = True
    return mask
