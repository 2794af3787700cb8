"""Principal, minimal and full trapspace computation; trapping closure and graph.

A trapspace is a subcube mapped into itself by the network.  Whole-network
questions read tables over subcubes, all filled by the one subcube OR
kernel ``cubesets._subcube_or``, which gives entry T the OR (or another
reduction) of one value per member of T.  The moved table here ORs
``x ^ f(x)``, so T is a trapspace iff that OR moves no coordinate T fixes.

Enumeration reads the whole 3^n moved table (the ``enumeration`` cap,
n = 13).  The principal map reads a stacked one instead: m = min(n, 9)
ternary digits, and the top n - m coordinates left binary, one row of
3^m subcubes per setting of their bits.  The OR over a subcube is then the
OR of the rows its free high coordinates h can select.  The configurations
are grouped by h, and each group gathers its own 2^|h| rows, so no
configuration pays for the free high coordinates of another; one leaves
the loop once its subcube stops growing or is the whole cube.  The loop
steps the configurations in batches of at most 2^14, each a range of h,
and keeps one int32 per configuration between passes.  At n = 16 the
table takes 5 MB as uint16, against 86 MB for the whole 3^16 table; it
grows as 2^(n-9) 3^9 entries above n = 9.

Every whole-network fact comes from the principal map, by one kernel over
a stack of k networks of one dimension given as a (k, 2^n) array of image
rows: ``principal_rows`` (a read-only ``(free, base)`` pair of int64
arrays), ``trapspace_rows`` (a boolean mask over the subcube index, the
form a ``SubcubeCollection`` stores), ``cover_rows`` (the minimal
trapspaces, the configurations they cover and the count of distinct
principal trapspaces, by sorting the keys ``free << n | base`` in place)
and ``min_extension_rows``.  The trapping closure moves x by its free mask
and the trapping graph holds the bitsets of those subcubes.  Each kernel
is called only from ``STACKS``, the table by which a ``TrapspaceBlock``
fills each fact once, on first use; the per-network functions read row 0
of a block of one, and ``classes.ProfileBlock`` adds the class layer.  A
single principal trapspace is instead grown from a frontier of
newly-added members, with no table and no cap.

So the minimal trapspaces of one network take the stacked table plus a
few arrays over the configurations: the image, the (free, base) pair and
the covered mask.  At n = 16 ``principal_rows`` holds the 5 MB table plus
about 1 MiB and ``cover_rows`` at most 2.8 MiB with its result
(tracemalloc).
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import (
    BooleanNetwork,
    Configuration,
    Subcube,
    _check_same_dimension,
    bit_counts,
    check_cap,
    iter_submasks,
)
from .cubesets import SubcubeCollection, _free_of_index, _subcube_or, _ternary_of_masks, cube_masks
from .dynamics import HypercubeGraph, subcube_graph

# The ternary digits of the stacked table ``principal_rows`` reads; the
# coordinates above them stay binary, one table row per setting.  See the
# module notes.
_TABLE_DIGITS = 9


def principal_pair(f: BooleanNetwork, x_bits: int) -> tuple[int, int]:
    """(free, base) of the principal trapspace of a raw configuration."""
    tab = f.np_image
    free = 0
    members = np.array([x_bits], dtype=np.int64)
    frontier = members
    while True:
        deltas = frontier ^ tab[frontier]
        grow = int(np.bitwise_or.reduce(deltas)) & ~free
        if not grow:
            return free, x_bits & ~free
        combos = np.fromiter(iter_submasks(grow), dtype=np.int64)[1:]
        frontier = (members[:, None] ^ combos[None, :]).ravel()
        members = np.concatenate([members, frontier])
        free |= grow


def principal_trapspace(f: BooleanNetwork, x: Configuration) -> Subcube:
    """Least trapspace of f containing x."""
    _check_same_dimension(f, x)
    free, base = principal_pair(f, x.bits)
    return Subcube(f.n, free, base)


def _moved_rows(images: np.ndarray, n: int, digits: int) -> np.ndarray:
    """Entry (i, r, T): the OR of ``x ^ f(x)``, for f the network of image
    row i, over the members x of the subcube whose low ``digits`` coordinates
    have ternary index T and whose other coordinates are fixed to the bits
    of r.  The moves are uint16 up to n = 16 and uint32 above."""
    moves = (np.arange(1 << n) ^ images).astype(np.uint16 if n <= 16 else np.uint32)
    return _subcube_or(moves.reshape(len(images), -1, 1 << digits), digits)


# Configurations per batch of ``principal_rows``, and per slice of its scans:
# the loop's arrays are this long, whatever the size of the stack.
_BATCH = 1 << 14


def _batches(counts: np.ndarray) -> list[tuple[int, int]]:
    """Ranges [lo, hi) of free high masks, in decreasing order, that split
    the configurations counted by ``counts`` (one entry per mask) into
    batches of at most ``_BATCH``, or of one mask that alone holds more."""
    present = np.flatnonzero(counts)
    ends = np.cumsum(counts[present])
    out, i = [], 0
    while i < len(present):
        j = max(i + 1, int(np.searchsorted(ends, ends[i] - counts[present[i]] + _BATCH, "right")))
        out.append((int(present[i]), int(present[j - 1]) + 1))
        i = j
    return out[::-1]


def principal_rows(images: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(free, base) arrays of the principal trapspaces of a stack of networks:
    entry (i, x) describes the principal trapspace of x under the network
    of image row i.

    Each step frees every coordinate some member of the current subcube
    moves; a step that frees nothing new leaves a trapspace, so at most n
    steps are taken.  A configuration leaves the loop once its subcube stops
    growing or is the whole cube.  The moves are read from the stacked
    tables of ``_moved_rows(images, n, m)``: the OR over a subcube is the OR
    of the rows its free high coordinates can select, at its low ternary
    index.

    The loop holds one int32 entry per configuration, ``~grown`` while the
    configuration is in the loop and its free mask once it has left, and
    takes its steps in passes.  A pass scans that array in slices and steps
    the configurations in batches of at most ``_BATCH``, each batch a range
    of free high masks h (``_batches``).  In a batch the configurations are
    grouped by h, and each group gathers the 2^|h| rows of h alone; only a
    group of more than ``_BATCH`` configurations is split, so the batches
    gather no more rows than one pass over all of them would.  The ranges
    are taken in decreasing order, and a step only frees coordinates, so no
    configuration steps twice in a pass.  Both arrays are read-only int64 of
    shape (k, 2^n); the ``table`` cap applies.
    """
    check_cap("table", n)
    m = min(n, _TABLE_DIGITS)
    row, full, low = 3**m, (1 << n) - 1, (1 << m) - 1
    table = _moved_rows(images, n, m).reshape(-1)
    index = np.int32 if table.size < 1 << 31 else np.int64
    tern = _ternary_of_masks(m).astype(index)
    state = np.full(len(images) << n, -1, dtype=np.int32)
    slices = range(0, len(state), _BATCH)

    def step(at: np.ndarray) -> None:
        grown = ~state[at]
        # The subcube's position at the row of its network's table with
        # every free high coordinate 0.
        kept = at & ~grown
        position = (kept >> m) * row
        position += tern[kept & low]
        position += 2 * tern[grown & low]
        moved = table[position]
        high = grown >> m
        counts = np.bincount(high, minlength=1 << (n - m))
        if counts[0] < len(high):
            # A stable sort of 16-bit keys is a radix sort.
            order = np.argsort(high.astype(np.uint16), kind="stable")
            stops = np.cumsum(counts)
            for h in np.flatnonzero(counts[1:]) + 1:
                group = order[stops[h] - counts[h] : stops[h]]
                rows, ored = position[group], moved[group]
                for s in itertools.islice(iter_submasks(int(h)), 1, None):
                    ored |= table[rows + s * row]
                moved[group] = ored
        grow = moved & ~grown
        grown |= grow
        state[at] = np.where((grow == 0) | (grown == full), grown, ~grown)

    while True:
        live = np.zeros(1 << (n - m), dtype=np.int64)  # by free high mask
        for i in slices:
            h = ~state[i : i + _BATCH] >> m
            live += np.bincount(h[h >= 0], minlength=len(live))
        if not live.any():
            break
        for lo, hi in _batches(live):
            batch = []
            for i in slices:
                h = ~state[i : i + _BATCH] >> m
                batch.append(np.flatnonzero((h >= lo) & (h < hi)) + i)
                if sum(map(len, batch)) >= _BATCH or i == slices[-1]:
                    at, batch = np.concatenate(batch, dtype=index), []
                    step(at)
    del table
    free = state.astype(np.int64).reshape(len(images), 1 << n)
    base = ~free
    base &= np.arange(1 << n)
    free.setflags(write=False)
    base.setflags(write=False)
    return free, base


def trapspace_rows(images: np.ndarray, n: int) -> np.ndarray:
    """Entry (i, T): whether subcube T is a trapspace of the network of image
    row i (the ``enumeration`` cap)."""
    check_cap("enumeration", n)
    return (_moved_rows(images, n, n)[:, 0] & ~_free_of_index(n)) == 0


def cover_rows(free: np.ndarray, base: np.ndarray, n: int) -> dict[str, np.ndarray]:
    """The minimal trapspaces of a stack of networks, from their (k, 2^n)
    principal pairs as ``principal_rows`` returns them.

    Every member of a minimal trapspace has it as its principal trapspace,
    while a larger trapspace contains a smaller one whose members do not.
    A principal trapspace T of network i is therefore minimal iff exactly
    |T| configurations have T as their principal trapspace under network i.
    The keys ``i << 2n | free << n | base``, sorted in place, give each
    distinct principal trapspace as a run of its configurations.  A member
    x of a minimal trapspace has the member ``base[x]`` with the same
    principal trapspace, so x is covered iff ``base[x]`` is the base of a
    minimal trapspace whose free mask is ``free[x]``.

    Returns, by block name, ``minimal``: the network index, free mask and
    base of every minimal trapspace, sorted by index, free mask, then base;
    ``covered``: the read-only (k, 2^n) bool array of the configurations
    they cover; and ``pt_distinct``: the number of distinct principal
    trapspaces of each network.
    """
    k, cell = len(free), (1 << n) - 1
    keys = free << n
    keys |= base
    keys |= np.arange(k)[:, None] << 2 * n
    keys = keys.reshape(-1)
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=len(keys))
    keys = keys[starts]
    del starts
    distinct = np.bincount(keys >> 2 * n, minlength=k)
    keys = keys[sizes == 1 << bit_counts(n)[keys >> n & cell]]
    del sizes
    index, min_free, min_base = keys >> 2 * n, keys >> n & cell, keys & cell
    rows, bases = np.arange(k)[:, None], np.zeros((k, 1 << n), dtype=bool)
    bases[index, min_base] = True
    covered = bases[rows, base] & (free[rows, base] == free)
    covered.setflags(write=False)
    return {"minimal": (index, min_free, min_base), "covered": covered, "pt_distinct": distinct}


def min_extension_rows(free: np.ndarray, covered: np.ndarray, n: int) -> np.ndarray:
    """Entry (i, x): the image of x under the min-trapping extension of
    network i, from its principal free masks and the configurations its
    minimal trapspaces cover, both (k, 2^n).  A member x of a minimal
    trapspace M has M as its principal trapspace, so it moves to its
    opposite in M, ``x ^ free``; every other configuration moves to its
    full negation."""
    return np.arange(1 << n) ^ np.where(covered, free, (1 << n) - 1)


# ---------------------------------------------------------------------------
# the trapspace facts of a block of networks, each filled once


def _by_name(table: dict) -> dict:
    """Each name of a table, with all the names of its kernel and the kernel."""
    return {name: (names, kernel) for names, kernel in table.items() for name in names}


# The trapspace facts of a block, each under the kernel that fills it; a
# kernel of several names returns them as a dict.  ``covered``, ``closures``
# and ``min_extensions`` are (k, 2^n), as is each of the pair ``principal``
# (free, base); ``trapspaces`` and the principal (P), trapspace (J) and
# minimal (N) masks are (k, 3^n).  ``minimal`` is the (index, free, base)
# of every minimal trapspace, sorted by row, and ``pt_distinct`` the (k,)
# count of distinct principal trapspaces.
STACKS = {
    ("principal",): lambda b: principal_rows(b.images, b.n),
    ("trapspaces",): lambda b: trapspace_rows(b.images, b.n),
    ("minimal", "covered", "pt_distinct"): lambda b: cover_rows(*b["principal"], b.n),
    # The trapping closure moves x by its principal free mask.
    ("closures",): lambda b: np.arange(1 << b.n) ^ b["principal"][0],
    ("min_extensions",): lambda b: min_extension_rows(b["principal"][0], b["covered"], b.n),
    ("P",): lambda b: cube_masks(np.arange(len(b.images))[:, None], *b["principal"],
                                 len(b.images), b.n),
    ("J",): lambda b: b["trapspaces"],
    ("N",): lambda b: cube_masks(*b["minimal"], len(b.images), b.n),
}


class TrapspaceBlock:
    """The trapspace facts of a block of networks of one dimension, held as
    nothing but their (k, 2^n) image rows.  ``block[name]`` is a fact of
    ``FILLS``, and entry i of each is row i's; ``_fill`` fills each on first
    use, with the other names of its kernel, into one dict.  A subclass
    widens ``FILLS``."""

    FILLS = _by_name(STACKS)

    def __init__(self, images: np.ndarray):
        self.images = images
        self.n = images.shape[1].bit_length() - 1
        self._facts: dict = {}

    @classmethod
    def of(cls, networks: list[BooleanNetwork]):
        """The block of the networks' image rows.  A block of one views its
        network's image: no 2^n copy."""
        images = [f.np_image for f in networks]
        return cls(images[0][None] if len(images) == 1 else np.stack(images))

    def network(self, i: int) -> BooleanNetwork:
        """The network of row i."""
        return BooleanNetwork(self.n, self.images[i])

    def __getitem__(self, name: str):
        if name not in self._facts:
            self._facts.update(self._fill(name))
        return self._facts[name]

    def _fill(self, name: str) -> dict:
        """The facts of the kernel of ``name``, by name."""
        names, kernel = self.FILLS[name]
        filled = kernel(self)
        return filled if len(names) > 1 else {name: filled}


# ---------------------------------------------------------------------------
# per-network functions: row 0 of a block of one


def principal_pairs(f: BooleanNetwork) -> tuple[np.ndarray, np.ndarray]:
    """(free, base) arrays of the principal trapspace of every configuration:
    entry x of each read-only int64 array describes the principal trapspace
    of x.  The ``table`` cap applies."""
    free, base = TrapspaceBlock.of([f])["principal"]
    return free[0], base[0]


def enumerate_trapspaces(f: BooleanNetwork) -> SubcubeCollection:
    """All trapspaces of f (the ``enumeration`` cap)."""
    return SubcubeCollection(f.n, TrapspaceBlock.of([f])["trapspaces"][0])


def minimal_trapspaces(f: BooleanNetwork) -> tuple[SubcubeCollection, np.ndarray]:
    """Minimal trapspaces of f and the read-only bool array of the
    configurations they cover (the ``table`` cap)."""
    block = TrapspaceBlock.of([f])
    return SubcubeCollection(f.n, block["N"][0]), block["covered"][0]


def trapping_closure(f: BooleanNetwork) -> BooleanNetwork:
    """The network sending each x to its opposite in its principal trapspace.

    The result is the largest network (most transitions) with the same
    trapspaces as f, and is a fixed point of this operator.
    """
    return BooleanNetwork(f.n, TrapspaceBlock.of([f])["closures"][0])


def trapping_graph(f: BooleanNetwork) -> HypercubeGraph:
    """Graph with an arc x -> y whenever y lies in the principal trapspace of x."""
    return subcube_graph(f.n, *principal_pairs(f))


def min_trapping_extension(f: BooleanNetwork) -> BooleanNetwork:
    """Realisation of the minimal-trapspace collection.

    Inside a minimal trapspace each configuration moves to its opposite in
    that trapspace; every other configuration maps to its full negation.
    """
    return BooleanNetwork(f.n, TrapspaceBlock.of([f])["min_extensions"][0])
