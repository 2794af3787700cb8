"""Reference answers for `trapnets analyze`, computed without trapnets.

Everything here is derived from the image table alone, with numpy and
algorithms that differ from the library's, so a check against these answers
does not share a bug with the code under test:

- trapspaces come from a table over the 3^n subcubes (ternary digit 0 or 1
  fixes a coordinate, 2 frees it) holding the OR of ``x ^ f(x)`` over each
  subcube's members; a subcube T is a trapspace iff that OR has no bit
  outside T's free mask, and principal trapspaces grow to a fixpoint on it;
- a principal trapspace T is minimal iff exactly |T| configurations have it
  as their principal trapspace;
- transient and period come from the functional graph (longest tail, lcm
  of the cycle lengths), not from iterating whole tables;
- graph predicates use dense adjacency matrices and breadth-first search.
"""

from __future__ import annotations

import math

import numpy as np

# Above this dimension only the --minimal-only fields are computed.
FULL_MAX_N = 11


def _tern_of_masks(n: int) -> np.ndarray:
    """TERN[m] = sum of 3^i over the bits i of m."""
    xs = np.arange(1 << n, dtype=np.int64)
    out = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        out += ((xs >> i) & 1) * 3**i
    return out


def _subcube_table(n: int, tern: np.ndarray, values: np.ndarray, combine) -> np.ndarray:
    """Fold ``values`` (one per configuration) over every subcube's members.

    The result is indexed by ternary subcube index; ``combine`` must be
    associative and commutative (OR, +).
    """
    table = np.zeros(3**n, dtype=values.dtype)
    table[tern] = values
    for i in range(n):
        view = table.reshape(3 ** (n - 1 - i), 3, 3**i)
        view[:, 2, :] = combine(view[:, 0, :], view[:, 1, :])
    return table


def _free_table(n: int) -> np.ndarray:
    """Free mask of every ternary subcube index."""
    table = np.zeros(3**n, dtype=np.int64)
    for i in range(n):
        view = table.reshape(3 ** (n - 1 - i), 3, 3**i)
        view[:, 2, :] = view[:, 0, :] | (1 << i)
    return table


def transient_and_period(image: np.ndarray) -> tuple[int, int]:
    """Longest tail into a cycle, and the lcm of all cycle lengths."""
    size = len(image)
    steps = max(1, size.bit_length())
    powers = [image]
    for _ in range(steps):
        powers.append(powers[-1][powers[-1]])
    # After 2^steps >= size steps every configuration sits on a cycle.
    on_cycle = np.zeros(size, dtype=bool)
    on_cycle[powers[-1]] = True
    # Binary lifting: the largest t with f^t(x) off every cycle.
    cur = np.arange(size, dtype=np.int64)
    tail = np.zeros(size, dtype=np.int64)
    for k in range(steps, -1, -1):
        nxt = powers[k][cur]
        move = ~on_cycle[nxt] & ~on_cycle[cur]
        cur = np.where(move, nxt, cur)
        tail += move.astype(np.int64) << k
    tail = np.where(on_cycle, 0, tail + 1)
    seen = np.zeros(size, dtype=bool)
    period = 1
    img = image.tolist()
    for start in np.flatnonzero(on_cycle).tolist():
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            length += 1
            x = img[x]
        period = math.lcm(period, length)
    return int(tail.max()), period


def _cube_string(n: int, free: int, base: int) -> str:
    return "".join(
        "*" if free >> i & 1 else ("1" if base >> i & 1 else "0") for i in range(n)
    )


class Reference:
    """Reference facts about one network given by its image table."""

    def __init__(self, image):
        self.f = np.asarray(image, dtype=np.int64)
        self.size = len(self.f)
        self.n = self.size.bit_length() - 1
        if 1 << self.n != self.size:
            raise ValueError("image table length is not a power of two")
        self.xs = np.arange(self.size, dtype=np.int64)
        self.delta = self.xs ^ self.f
        self.tern = _tern_of_masks(self.n)
        # uint16 holds any mask up to n = 16 and keeps the 3^n table small.
        moves = self.delta.astype(np.uint16 if self.n <= 16 else np.int64)
        self.moved = _subcube_table(self.n, self.tern, moves, np.bitwise_or)
        self.principal_free = self._principal_free()

    def index(self, free: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Ternary index of the subcube with this free mask through x."""
        return self.tern[x & ~free] + 2 * self.tern[free]

    def _principal_free(self) -> np.ndarray:
        free = np.zeros(self.size, dtype=np.int64)
        while True:
            grown = free | self.moved[self.index(free, self.xs)]
            if np.array_equal(grown, free):
                return free
            free = grown

    def _principal_classes(self):
        """Distinct principal trapspaces: ternary keys per configuration, the
        distinct keys, one configuration of each, their counts, and which
        are minimal (exactly |T| configurations have T as principal)."""
        keys = self.index(self.principal_free, self.xs)
        uniq, first, counts = np.unique(keys, return_index=True, return_counts=True)
        is_min = counts == (np.int64(1) << _popcount(self.principal_free[first]))
        return keys, uniq, first, counts, is_min

    # -- fields shared by full and --minimal-only analysis

    def minimal_only(self) -> dict:
        n = self.n
        _, uniq, first, counts, is_min = self._principal_classes()
        min_free = self.principal_free[first][is_min]
        min_base = self.xs[first][is_min] & ~min_free
        order = np.lexsort((min_base, min_free))
        transient, period = transient_and_period(self.f)
        return {
            "n": n,
            "transient": transient,
            "period": period,
            "trapspaces": {
                "principal_distinct": int(len(uniq)),
                "minimal": int(is_min.sum()),
                "min_configs": int(counts[is_min].sum()),
                "minimal_cubes": [
                    _cube_string(n, int(min_free[k]), int(min_base[k])) for k in order
                ],
            },
        }

    # -- full analysis

    def full(self) -> dict:
        if self.n > FULL_MAX_N:
            raise ValueError(f"full reference is capped at n={FULL_MAX_N}")
        out = self.minimal_only()
        n, f, xs = self.n, self.f, self.xs
        free_of = _free_table(n)
        trapspace = (self.moved & ~free_of) == 0
        out["trapspaces"]["all"] = int(trapspace.sum())

        fixed = self.delta == 0
        fixed_in = _subcube_table(n, self.tern, fixed.astype(np.int64), np.add)
        interval = self.index(self.delta, xs)
        flags = self._algebraic_flags()
        g_bij, g_inv, g_idem = self._global_flags()
        graphs = {
            "asynchronous": self._async_adjacency(),
            "general": _subcube_adjacency(xs, self.delta),
            "trapping": _subcube_adjacency(xs, self.principal_free),
        }
        table = {key: _graph_table(adj) for key, adj in graphs.items()}
        keys, uniq, _, _, is_min = self._principal_classes()
        in_minimal = np.isin(keys, uniq[is_min])
        extension = np.where(in_minimal, xs ^ self.principal_free, xs ^ (self.size - 1))
        flags.update(
            trapping=bool(np.all((self.moved[interval] & ~self.delta) == 0)),
            globally_bijective=g_bij,
            globally_involutive=g_inv,
            globally_idempotent=g_idem,
            globally_idempotent_flag=g_idem,
            dpt=out["trapspaces"]["principal_distinct"] == self.size,
            fixable=table["asynchronous"]["sink-terminal"],
            trapspace_fp=bool(np.all(fixed_in[trapspace] > 0)),
            interval_fp=bool(np.all(fixed_in[interval] >= 1)),
            interval_ufp=bool(np.all(fixed_in[interval] == 1)),
            min_trapping=bool(np.array_equal(extension, f)),
        )
        flags["marseille"] = flags["commutative"] and flags["bijective"]
        flags["lille"] = flags["commutative"] and flags["idempotent"]
        out["classes"] = flags
        out["graphs"] = table
        return out

    def _algebraic_flags(self) -> dict:
        f, xs = self.f, self.xs
        ff = f[f]
        singles = [(f & (1 << i)) | (xs & ~(1 << i)) for i in range(self.n)]
        return {
            "bijective": _is_permutation(f),
            "involutive": bool(np.array_equal(ff, xs)),
            "idempotent": bool(np.array_equal(ff, f)),
            "dynamically_local": bool(np.array_equal(f[ff], f)),
            "locally_bijective": all(_is_permutation(u) for u in singles),
            "locally_involutive": all(np.array_equal(u[u], xs) for u in singles),
            "locally_idempotent": all(np.array_equal(u[u], u) for u in singles),
            "commutative": all(
                np.array_equal(a[b], b[a])
                for k, a in enumerate(singles)
                for b in singles[k + 1:]
            ),
        }

    def _global_flags(self) -> tuple[bool, bool, bool]:
        """(bijective, involutive, idempotent) of the update of every subset."""
        bij = inv = idem = True
        xs, f = self.xs, self.f
        for lo in range(0, self.size, 256):
            subsets = xs[lo:lo + 256, None]
            tables = (f[None, :] & subsets) | (xs[None, :] & ~subsets)
            twice = np.take_along_axis(tables, tables, axis=1)
            bij = bij and bool(np.all(np.sort(tables, axis=1) == xs[None, :]))
            inv = inv and bool(np.all(twice == xs[None, :]))
            idem = idem and bool(np.all(twice == tables))
        return bij, inv, idem

    def _async_adjacency(self) -> np.ndarray:
        adj = np.eye(self.size, dtype=bool)
        for i in range(self.n):
            movers = np.flatnonzero(self.delta >> i & 1)
            adj[movers, movers ^ (1 << i)] = True
        return adj


def _popcount(a: np.ndarray) -> np.ndarray:
    count = np.zeros_like(a)
    v = a.copy()
    while np.any(v):
        count += v & 1
        v >>= 1
    return count


def _is_permutation(table: np.ndarray) -> bool:
    return bool(np.all(np.bincount(table, minlength=len(table)) == 1))


def _subcube_adjacency(xs: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Arc x -> y iff y lies in the subcube through x with x's free mask."""
    return ((xs[:, None] ^ xs[None, :]) & ~free[:, None]) == 0


def _graph_table(adj: np.ndarray) -> dict[str, bool]:
    """The six predicates of `trapnets analyze`, from a dense adjacency."""
    size = len(adj)
    loops = np.eye(size, dtype=bool)
    proper = adj & ~loops
    mutual = proper & proper.T
    return {
        "reflexive": bool(np.all(adj[loops])),
        "symmetric": bool(np.array_equal(adj, adj.T)),
        "transitive": _transitive(adj),
        "oriented": not bool(mutual.any()),
        "triangular": _acyclic(proper),
        "sink-terminal": _all_reach_a_sink(proper),
    }


def _transitive(adj: np.ndarray) -> bool:
    # Every successor's out-set lies inside the out-set; rows are packed so
    # each subset test is a byte-wise AND over the whole row.
    packed = np.packbits(adj, axis=1)
    src, dst = np.nonzero(adj)
    for lo in range(0, len(src), 1 << 16):
        s, d = src[lo:lo + (1 << 16)], dst[lo:lo + (1 << 16)]
        if np.any(packed[d] & ~packed[s]):
            return False
    return True


def _acyclic(proper: np.ndarray) -> bool:
    # Peel vertices without outgoing arcs until none are left or none peel.
    out_degree = proper.sum(axis=1)
    alive = np.ones(len(proper), dtype=bool)
    while True:
        peel = alive & (out_degree == 0)
        if not peel.any():
            return not alive.any()
        alive &= ~peel
        out_degree -= proper[:, peel].sum(axis=1)


def _all_reach_a_sink(proper: np.ndarray) -> bool:
    # Terminal components are all single vertices iff every vertex reaches a
    # vertex with no outgoing arc; search backwards from those.
    reached = ~proper.any(axis=1)
    frontier = reached.copy()
    while frontier.any():
        frontier = proper[:, frontier].any(axis=1) & ~reached
        reached |= frontier
    return bool(reached.all())
