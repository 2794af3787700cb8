"""Dynamics graphs on the hypercube and their structural predicates.

A graph on B^n keeps one out-neighbourhood per vertex, stored as a 2^n-bit
integer so arc-set comparisons are word-parallel.  Loops are kept in every
graph built here; only the DOT exporter drops them.

Each graph caches its transposed rows ``into``, its transitivity and its
SCCs, found once by Kosaraju on the bitsets: each step of either search
ANDs one row with the set still to visit, so V = 2^n vertices cost
O(V^2/64) word operations whatever the arc count.  Every predicate is
read from its own definition on these rows; none walks the arcs one by
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .core import BooleanNetwork, bitset_members, check_cap, cube_bitset

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
    def into(self) -> tuple[int, ...]:
        """The transposed rows: ``into[y]`` is the predecessor set of y."""
        size = 1 << self.n
        width = (size + 7) // 8
        rows = np.frombuffer(
            b"".join(row.to_bytes(width, "little") for row in self.out), dtype=np.uint8
        ).reshape(size, width)
        cols = np.empty_like(rows)
        for start in range(0, size, 256):  # 256 x 2^n unpacked bits at a time
            block = np.unpackbits(rows[start:start + 256], axis=1, count=size, bitorder="little")
            packed = np.packbits(np.ascontiguousarray(block.T), axis=1, bitorder="little")
            cols[:, start // 8:start // 8 + packed.shape[1]] = packed
        data = cols.tobytes()
        return tuple(
            int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)
        )

    @cached_property
    def transitive(self) -> bool:
        """Whether each distinct row holds the rows of its members; computed once."""
        for row in set(self.out):
            reach = 0
            for y in bitset_members(row):
                reach |= self.out[y]
            if reach | row != row:
                return False
        return True

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


def strongly_connected_components(
    g: HypercubeGraph,
) -> tuple[tuple[tuple[int, ...], ...], tuple[bool, ...]]:
    """SCC partition of the graph in topological (condensation) order.

    Returns (components, terminal) where components[k] is a sorted vertex
    tuple and terminal[k] says whether component k has no arc leaving it.
    Kosaraju on bitsets: a depth-first search on the rows gives the
    finishing order, then in reverse finishing order each unassigned
    vertex grows its component through the transposed rows.
    """
    out, into = g.out, g.into
    everything = (1 << (1 << g.n)) - 1

    finished: list[int] = []
    unvisited = everything
    while unvisited:
        root = unvisited & -unvisited
        unvisited ^= root
        stack = [root.bit_length() - 1]
        while stack:
            succ = out[stack[-1]] & unvisited
            if succ:
                low = succ & -succ
                unvisited ^= low
                stack.append(low.bit_length() - 1)
            else:
                finished.append(stack.pop())

    components: list[tuple[int, ...]] = []
    terminal: list[bool] = []
    unassigned = everything
    for root in reversed(finished):
        if not unassigned >> root & 1:
            continue
        comp = 1 << root
        unassigned ^= comp
        members = [root]
        reach = 0
        for v in members:  # grows while it is walked
            reach |= out[v]
            new = into[v] & unassigned
            if new:
                unassigned ^= new
                comp |= new
                members.extend(bitset_members(new))
        components.append(tuple(sorted(members)))
        terminal.append(reach | comp == comp)
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
    if prop == "reflexive":
        return all(row >> x & 1 for x, row in enumerate(g.out))
    if prop == "symmetric":
        return g.out == g.into
    if prop == "transitive":
        return g.transitive
    if prop == "oriented":
        return all(
            not row & back & ~(1 << x) for x, (row, back) in enumerate(zip(g.out, g.into))
        )
    components, terminal = g.components
    if prop == "triangular":
        return all(len(c) == 1 for c in components)
    # sink-terminal
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

    t is the longest tail leading into a cycle and p the lcm of the cycle
    lengths, found by array passes over the powers f^(2^j): O(n 2^n)
    whatever the order of f as a permutation.
    """
    size = 1 << f.n
    # The image of f^k shrinks as k grows until k = t, where it is the set of
    # cyclic configurations; powers[j] = f^(2^j) up to the first 2^j >= t.
    powers = [f.np_image]
    cyclic = _image_mask(powers[0], size)
    while True:
        square = powers[-1][powers[-1]]
        image = _image_mask(square, size)
        if np.count_nonzero(image) == np.count_nonzero(cyclic):
            break
        powers.append(square)
        cyclic = image
    # t by binary lifting: the largest steps whose image leaves some
    # configuration off its cycle, plus one.
    transient = 0
    if not cyclic.all():
        ys = np.arange(size)
        for j in range(len(powers) - 2, -1, -1):
            zs = powers[j][ys]
            if not cyclic[zs].all():
                ys, transient = zs, transient + (1 << j)
        transient += 1
    # Label each cyclic configuration by the least one on its cycle: a min
    # over 2^j steps, doubled until no label changes, which holds once
    # 2^j steps cover every cycle.  The others stay put, labelled size.
    xs = np.arange(size)
    step = np.where(cyclic, powers[0], xs)
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
