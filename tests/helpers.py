"""Shared builders and independent oracles for the test suite."""

import math

import numpy as np

from trapnets import BooleanNetwork, Configuration, Subcube, SubcubeCollection
from trapnets.core import iter_submasks, update_table
from trapnets.cubesets import _ternary_of_masks
from trapnets.generators import (
    exhaustive_networks,
    long_transient_trapping,
    random_commutative,
    random_constant_on_arrangements,
    random_negation_on_subcubes,
    random_network,
)
from trapnets.dynamics import GRAPH_PROPERTIES, HypercubeGraph
from trapnets.trapspaces import enumerate_trapspaces, principal_pair


def cfg(s: str) -> Configuration:
    return Configuration.from_string(s)


def cube(s: str) -> Subcube:
    return Subcube.from_string(s)


def net_from_rows(rows: dict[str, str]) -> BooleanNetwork:
    """Build a network from {config string: image string} over all rows."""
    n = len(next(iter(rows)))
    image = [None] * (1 << n)
    for k, v in rows.items():
        image[cfg(k).bits] = cfg(v).bits
    assert None not in image, "incomplete row set"
    return BooleanNetwork(n, tuple(image))


def net_from_arcs(n: int, arcs: list[str]) -> BooleanNetwork:
    """Build a network from asynchronous arcs 'src>dst' / 'src<>dst'."""
    delta = [0] * (1 << n)
    for arc in arcs:
        if "<>" in arc:
            a, b = (cfg(p).bits for p in arc.split("<>"))
            delta[a] |= a ^ b
            delta[b] |= a ^ b
        else:
            a, b = (cfg(p).bits for p in arc.split(">"))
            delta[a] |= a ^ b
    return BooleanNetwork(n, tuple(x ^ d for x, d in enumerate(delta)))


F_EX3_ROWS = {
    "000": "110",
    "001": "100",
    "010": "000",
    "011": "110",
    "100": "100",
    "101": "101",
    "110": "110",
    "111": "110",
}


def f_ex3() -> BooleanNetwork:
    return net_from_rows(F_EX3_ROWS)


def sampled_networks(dims=range(3, 7)):
    """Two networks of every generator kind per dimension, plus the
    long-transient construction."""
    for n in dims:
        for seed in (41, 42):
            yield random_network(n, seed)
            yield random_commutative(n, seed)
            yield random_negation_on_subcubes(n, seed)
            yield random_constant_on_arrangements(n, seed)
        yield long_transient_trapping(n)


def table_population():
    """Every n = 2 network and the sampled n = 3..6 networks."""
    yield from exhaustive_networks(2)
    yield from sampled_networks()


def oracle_population(max_n: int = 8):
    """``table_population`` plus identity, negation and the long-transient
    construction up to max_n: all subcubes, one, and many trapspaces."""
    yield from table_population()
    for n in range(1, max_n + 1):
        yield BooleanNetwork.identity(n)
        yield BooleanNetwork.negation(n)
        if n >= 3:
            yield long_transient_trapping(n)


def all_subcubes(n: int):
    """Every subcube of B^n, via the 3^n star patterns."""
    import itertools

    for pattern in itertools.product("01*", repeat=n):
        yield Subcube.from_string("".join(pattern))


def brute_force_trapspaces(f: BooleanNetwork) -> set[Subcube]:
    """Independent oracle: membership loop over all 3^n subcubes."""
    out = set()
    for c in all_subcubes(f.n):
        if all(f.image[m] & ~c.free == c.base for m in c.member_bits()):
            out.add(c)
    return out


def digitwise_subcube_or(leaves: np.ndarray, n: int) -> np.ndarray:
    """Oracle (the library's former kernel): one OR pass per ternary digit
    over the whole 3^n table, so entry T is the OR of ``leaves`` over T."""
    table = np.zeros(3**n, dtype=leaves.dtype)
    table[_ternary_of_masks(n)] = leaves
    for j in range(n):
        v = table.reshape(3 ** (n - 1 - j), 3, 3**j)
        np.bitwise_or(v[:, 0, :], v[:, 1, :], out=v[:, 2, :])
    return table


def bitset_trapspace_fp(f: BooleanNetwork) -> bool:
    """Oracle (the library's former method): every enumerated trapspace's
    member bitset meets the bitset of fixed points."""
    fixed = sum(1 << x for x, fx in enumerate(f.image) if x == fx)
    return all(c.point_bitset() & fixed for c in enumerate_trapspaces(f).members)


def pairwise_is_commutative(f: BooleanNetwork) -> bool:
    """Independent oracle (the library's former `is_commutative`): compose the
    two single-coordinate update tables of every pair in both orders over all
    2^n configurations."""
    xs = np.arange(1 << f.n, dtype=np.int64)
    singles = [update_table(f.np_image, 1 << i, xs) for i in range(f.n)]
    return all(
        np.array_equal(singles[j][singles[i]], singles[i][singles[j]])
        for i in range(f.n)
        for j in range(i + 1, f.n)
    )


# Oracles for the collection algebra (the library's former methods): each
# loops over the members of a collection in Python.


def sweep_lambda_closure(collection: SubcubeCollection) -> set[Subcube]:
    """Oracle: sweep the 3^n candidate subcubes; one belongs to the union
    closure iff it equals the union of the members it contains."""
    n = collection.n
    members = [(c.free, c.base, c.point_bitset()) for c in collection.members]
    out = set()
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
                out.add(Subcube(n, free, base))
    return out


def member_scan_pointwise_free(collection: SubcubeCollection) -> list[int]:
    """Oracle: entry x is the free mask of the intersection of the members
    containing x (all coordinates when none does), one member scan per x."""
    members = collection.members
    frees = []
    for x in range(1 << collection.n):
        free = (1 << collection.n) - 1
        for cube in members:
            if cube.contains_bits(x):
                free &= cube.free
        frees.append(free)
    return frees


def pairwise_pre_principal(collection: SubcubeCollection) -> bool:
    """Oracle: members cover B^n, each pairwise intersection of member
    bitsets is a union of members, and no member is a union of others."""
    n = collection.n
    pbs = [c.point_bitset() for c in collection.members]
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


def pairwise_pre_ideal(collection: SubcubeCollection) -> bool:
    """Oracle: B^n present, every pairwise intersection of member bitsets a
    member, and the member set equal to ``sweep_lambda_closure``."""
    members = collection.members
    if Subcube.full_cube(collection.n) not in members:
        return False
    pbs = [c.point_bitset() for c in members]
    pb_set = set(pbs)
    for i, pa in enumerate(pbs):
        for pb in pbs[i + 1 :]:
            meet = pa & pb
            if meet and meet not in pb_set:
                return False
    return sweep_lambda_closure(collection) == members


def pairwise_min_ideal(collection: SubcubeCollection) -> bool:
    """Oracle: no two member bitsets share a point."""
    pbs = [c.point_bitset() for c in collection.members]
    for i, pa in enumerate(pbs):
        for pb in pbs[i + 1 :]:
            if pa & pb:
                return False
    return True


def nested_pairs_convex(collection: SubcubeCollection) -> bool:
    """Oracle: for every nested pair of members, every subcube between them
    is a member."""
    members = collection.members
    for small in members:
        for big in members:
            if small == big or not small.is_subset(big):
                continue
            extra = big.free & ~small.free
            for grow in iter_submasks(extra):
                mid = Subcube(collection.n, small.free | grow, small.base & ~grow)
                if mid not in members:
                    return False
    return True


def brute_force_principals(f: BooleanNetwork) -> list[Subcube]:
    """Independent oracle: smallest enumerated trapspace containing each x."""
    traps = brute_force_trapspaces(f)
    return [
        min((c for c in traps if c.contains_bits(x)), key=Subcube.size)
        for x in range(1 << f.n)
    ]


def brute_force_principal(f: BooleanNetwork, x: int) -> Subcube:
    """Independent oracle: smallest enumerated trapspace containing x."""
    return brute_force_principals(f)[x]


def pairwise_minimal_trapspaces(f: BooleanNetwork) -> set[Subcube]:
    """Oracle (the library's former method): the frontier principal
    trapspaces of one configuration per cycle, filtered pairwise for
    inclusion-minimality.  Each minimal trapspace contains a whole cycle."""
    image = f.image
    state = bytearray(len(image))  # 0 unvisited, 1 on current walk, 2 finished
    reps = []
    for start in range(len(image)):
        if state[start]:
            continue
        path = []
        x = start
        while state[x] == 0:
            state[x] = 1
            path.append(x)
            x = image[x]
        if state[x] == 1:
            reps.append(x)
        for y in path:
            state[y] = 2
    free, base = np.array(sorted({principal_pair(f, r) for r in reps})).reshape(-1, 2).T
    minimal = set()
    for k in range(len(free)):
        inside = ((free | free[k]) == free[k]) & (((base ^ base[k]) & ~free[k]) == 0)
        if inside.sum() == 1:  # only candidate k itself
            minimal.add(Subcube(f.n, int(free[k]), int(base[k])))
    return minimal


def power_iteration_transient_and_period(f: BooleanNetwork) -> tuple[int, int]:
    """Oracle (the library's former method): iterate whole tables until one
    repeats.  Its cost follows the period, so keep it to small n."""
    seen: dict[tuple[int, ...], int] = {}
    table = tuple(range(1 << f.n))
    k = 0
    while table not in seen:
        seen[table] = k
        table = tuple(f.image[v] for v in table)
        k += 1
    return seen[table], k - seen[table]


def stepwise_transient_and_period(f: BooleanNetwork) -> tuple[int, int]:
    """Oracle for large n: step every configuration at once until all sit on
    a cycle (the transient), then walk each cycle once (lcm of lengths)."""
    image = f.np_image
    on_cycle = np.zeros(len(image), dtype=bool)
    # f^(2^n) sends every configuration onto its cycle.
    g = image
    for _ in range(f.n):
        g = g[g]
    on_cycle[g] = True
    y = np.arange(len(image))
    transient = 0
    while not on_cycle[y].all():
        y = image[y]
        transient += 1
    period = 1
    seen = set()
    for start in np.flatnonzero(on_cycle).tolist():
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            length += 1
            x = f.image[x]
        if length:
            period = math.lcm(period, length)
    return transient, period


def tarjan_scc(
    g: HypercubeGraph,
) -> tuple[tuple[tuple[int, ...], ...], tuple[bool, ...]]:
    """Oracle (the library's former method): iterative Tarjan, one Python
    step per arc.  Same (components, terminal) shape as
    ``strongly_connected_components``, in topological order."""
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
        # The work list keeps the unexplored successor bitset.
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


def arcwise_graph_property(g: HypercubeGraph, prop: str) -> bool:
    """Oracle (the library's former method): each predicate walks the arcs
    one by one; triangular and sink-terminal go through ``tarjan_scc``."""
    prop = prop.replace("_", "-")
    assert prop in GRAPH_PROPERTIES, prop
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
        return all(not g.out[y] >> x & 1 for x, y in g.arcs(include_loops=False))
    components, terminal = tarjan_scc(g)
    if prop == "triangular":
        return all(len(c) == 1 for c in components)
    return all(len(c) == 1 for c, t in zip(components, terminal) if t)
