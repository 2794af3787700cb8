"""Dynamics graphs on the hypercube and their structural predicates.

A graph on B^n keeps one out-neighbourhood per vertex, stored as a 2^n-bit
integer so arc-set comparisons are word-parallel.  Loops are kept in every
graph built here; only the DOT exporter drops them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .core import BooleanNetwork, _check_dimension, cube_bitset

GRAPH_PROPERTIES = (
    "reflexive",
    "symmetric",
    "transitive",
    "oriented",
    "triangular",
    "sink-terminal",
)


class NotReflexive(ValueError):
    """A vertex is missing its loop."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"graph is not reflexive at vertex {vertex}")


class NotSubcube(ValueError):
    """An out-neighbourhood is not a subcube."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"out-neighbourhood of vertex {vertex} is not a subcube")


@dataclass(frozen=True)
class HypercubeGraph:
    """A digraph on B^n; ``out[x]`` is the successor set of x as a bitset."""

    n: int
    out: tuple[int, ...]

    def __post_init__(self):
        _check_dimension(self.n)
        size = 1 << self.n
        if len(self.out) != size:
            raise ValueError(f"out table must have {size} entries, got {len(self.out)}")
        full = (1 << size) - 1
        for row in self.out:
            if not 0 <= row <= full:
                raise ValueError("out-neighbourhood bitset out of range")

    def has_arc(self, x: int, y: int) -> bool:
        return bool(self.out[x] >> y & 1)

    def arcs(self, include_loops: bool = True) -> Iterator[tuple[int, int]]:
        for x, row in enumerate(self.out):
            while row:
                low = row & -row
                y = low.bit_length() - 1
                row ^= low
                if include_loops or x != y:
                    yield (x, y)

    def arc_count(self, include_loops: bool = True) -> int:
        total = sum(row.bit_count() for row in self.out)
        if not include_loops:
            total -= sum(1 for x, row in enumerate(self.out) if row >> x & 1)
        return total


def arc_subset(g: HypercubeGraph, h: HypercubeGraph) -> bool:
    """True when every arc of g is an arc of h."""
    if g.n != h.n:
        raise ValueError(f"dimension mismatch: {g.n} != {h.n}")
    return all(gr | hr == hr for gr, hr in zip(g.out, h.out))


def arc_union(g: HypercubeGraph, h: HypercubeGraph) -> HypercubeGraph:
    if g.n != h.n:
        raise ValueError(f"dimension mismatch: {g.n} != {h.n}")
    return HypercubeGraph(g.n, tuple(gr | hr for gr, hr in zip(g.out, h.out)))


def build_graph(f: BooleanNetwork, kind: str) -> HypercubeGraph:
    """The asynchronous or general asynchronous graph of a network.

    ``kind`` is ``"asynchronous"`` (single-coordinate moves plus loops) or
    ``"general"`` (the out-neighbourhood of x is the whole interval of x).
    """
    if kind == "asynchronous":
        rows = []
        for x, fx in enumerate(f.image):
            row = 1 << x
            d = x ^ fx
            while d:
                bit = d & -d
                row |= 1 << (x ^ bit)
                d ^= bit
            rows.append(row)
        return HypercubeGraph(f.n, tuple(rows))
    if kind == "general":
        return HypercubeGraph(
            f.n,
            tuple(cube_bitset(x ^ fx, x & fx) for x, fx in enumerate(f.image)),
        )
    raise ValueError(f"kind must be 'asynchronous' or 'general', got {kind!r}")


def network_from_graph(g: HypercubeGraph) -> BooleanNetwork:
    """Recover the network whose general asynchronous graph is ``g``.

    Requires g to be reflexive with subcube out-neighbourhoods; raises
    NotReflexive or NotSubcube otherwise.
    """
    image = []
    for x, row in enumerate(g.out):
        if not row >> x & 1:
            raise NotReflexive(x)
        members = []
        r = row
        while r:
            low = r & -r
            members.append(low.bit_length() - 1)
            r ^= low
        free = 0
        for m in members:
            free |= m ^ members[0]
        base = members[0] & ~free
        if len(members) != 1 << free.bit_count():
            raise NotSubcube(x)
        if any(m & ~free != base for m in members):
            raise NotSubcube(x)
        image.append(x ^ free)
    return BooleanNetwork(g.n, tuple(image))


def strongly_connected_components(
    g: HypercubeGraph,
) -> tuple[tuple[tuple[int, ...], ...], tuple[bool, ...]]:
    """SCC partition of the graph in topological (condensation) order.

    Returns (components, terminal) where components[k] is a sorted vertex
    tuple and terminal[k] says whether component k has no arc leaving it.
    """
    size = 1 << g.n
    index = [-1] * size
    low = [0] * size
    on_stack = [False] * size
    stack: list[int] = []
    comp_of = [-1] * size
    components: list[tuple[int, ...]] = []
    counter = 0

    for root in range(size):
        if index[root] != -1:
            continue
        # Iterative Tarjan; the work list keeps the unexplored successor bitset.
        work = [(root, g.out[root])]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, remaining = work[-1]
            if remaining:
                lowbit = remaining & -remaining
                w = lowbit.bit_length() - 1
                work[-1] = (v, remaining ^ lowbit)
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, g.out[w]))
                elif on_stack[w]:
                    if index[w] < low[v]:
                        low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp_of[w] = len(components)
                        comp.append(w)
                        if w == v:
                            break
                    components.append(tuple(sorted(comp)))

    # Tarjan emits components in reverse topological order.
    components.reverse()
    k = len(components)
    comp_of = [k - 1 - comp_of[v] for v in range(size)]
    terminal = [True] * k
    for v in range(size):
        row = g.out[v]
        cv = comp_of[v]
        while row:
            lowbit = row & -row
            w = lowbit.bit_length() - 1
            row ^= lowbit
            if comp_of[w] != cv:
                terminal[cv] = False
    return tuple(components), tuple(terminal)


def graph_property(g: HypercubeGraph, prop: str) -> bool:
    """Evaluate one of the structural predicates on the graph.

    ``oriented`` ignores loops; ``triangular`` means the only cycles are
    loops; ``sink-terminal`` means every terminal component is a single
    vertex.
    """
    prop = prop.replace("_", "-")
    if prop not in GRAPH_PROPERTIES:
        raise ValueError(f"unknown graph property {prop!r}")
    size = 1 << g.n
    if prop == "reflexive":
        return all(row >> x & 1 for x, row in enumerate(g.out))
    if prop == "symmetric":
        return all(g.out[y] >> x & 1 for x, y in g.arcs())
    if prop == "transitive":
        for x, row in enumerate(g.out):
            reach = 0
            r = row
            while r:
                lowbit = r & -r
                reach |= g.out[lowbit.bit_length() - 1]
                r ^= lowbit
            if reach | row != row:
                return False
        return True
    if prop == "oriented":
        return all(
            not g.out[y] >> x & 1 for x, y in g.arcs(include_loops=False)
        )
    if prop == "triangular":
        components, _ = strongly_connected_components(g)
        return all(len(c) == 1 for c in components)
    # sink-terminal
    components, terminal = strongly_connected_components(g)
    return all(len(c) == 1 for c, t in zip(components, terminal) if t)


def network_power(f: BooleanNetwork, k: int) -> BooleanNetwork:
    """The k-fold composition of f with itself (k >= 0)."""
    if k < 0:
        raise ValueError("power must be non-negative")
    acc = tuple(range(1 << f.n))
    step = f.image
    while k:
        if k & 1:
            acc = tuple(step[v] for v in acc)
        step = tuple(step[v] for v in step)
        k >>= 1
    return BooleanNetwork(f.n, acc)


def transient_and_period(f: BooleanNetwork) -> tuple[int, int]:
    """Smallest t >= 0 and p >= 1 with f^(t+p) == f^t as full tables.

    One walk of the functional graph of f: t is the longest tail leading
    into a cycle and p is the lcm of the cycle lengths, so the cost is
    O(2^n) whatever the order of f as a permutation.
    """
    image = f.image
    # Steps from x to its cycle once x is finished; -1 unvisited, -2 on the
    # current walk.
    tail = [-1] * len(image)
    transient, period = 0, 1
    for start in range(len(image)):
        if tail[start] >= 0:
            continue
        path = []
        x = start
        while tail[x] == -1:
            tail[x] = -2
            path.append(x)
            x = image[x]
        if tail[x] == -2:
            # The walk closed a new cycle at x.
            k = path.index(x)
            period = math.lcm(period, len(path) - k)
            for y in path[k:]:
                tail[y] = 0
            del path[k:]
        steps = tail[x]
        for y in reversed(path):
            steps += 1
            tail[y] = steps
        transient = max(transient, steps)
    return transient, period
