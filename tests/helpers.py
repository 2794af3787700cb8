"""Shared builders and independent oracles for the test suite."""

import math

import numpy as np

from trapnets import BooleanNetwork, Configuration, Subcube, SubcubeCollection
from trapnets.classes import DIAGRAMS, VECTORS, NetworkProfile, ProfileBlock, Violation
from trapnets.core import (
    bitset_array,
    bitset_members,
    cube_bitset,
    is_commutative,
    iter_submasks,
    update_table,
)
from trapnets.cubesets import (
    _ternary_of_masks,
    lambda_closure,
    min_ideal_rows,
    mu_reduction,
    pre_ideal_rows,
    realize,
)
from trapnets.generators import (
    Arrangement,
    FreeDimBehavior,
    ValidationFailed,
    exhaustive_networks,
    long_transient_trapping,
    random_commutative,
    random_constant_on_arrangements,
    random_negation_on_subcubes,
    random_network,
)
from trapnets.dynamics import GRAPH_PROPERTIES, HypercubeGraph, build_graph, graph_property
from trapnets.trapspaces import enumerate_trapspaces, principal_pair, trapping_closure


def cfg(s: str) -> Configuration:
    return Configuration.from_string(s)


def cube(s: str) -> Subcube:
    return Subcube.from_string(s)


def full_cube(n: int) -> Subcube:
    return Subcube(n, (1 << n) - 1, 0)


def singleton(x: Configuration) -> Subcube:
    return Subcube(x.n, 0, x.bits)


def is_subcube_of(small: Subcube, big: Subcube) -> bool:
    """Whether every member of ``small`` lies in ``big``."""
    return not small.free & ~big.free and (small.base ^ big.base) & ~big.free == 0


def compose_word(f: BooleanNetwork, steps) -> BooleanNetwork:
    """Oracle (the library's former function): apply the subset updates of
    ``steps`` (Masks) left to right; no steps give the identity."""
    xs = np.arange(1 << f.n, dtype=np.int64)
    acc = xs
    for step in steps:
        acc = update_table(f.np_image, step.bits, xs)[acc]
    return BooleanNetwork(f.n, tuple(int(v) for v in acc))


def is_trapspace(f: BooleanNetwork, c: Subcube) -> bool:
    """Oracle (the library's former function): f maps every member of the
    subcube back into it."""
    members = np.fromiter(c.member_bits(), dtype=np.int64)
    return bool(np.all((f.np_image[members] & ~c.free) == c.base))


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


def network_from_graph(g: HypercubeGraph) -> BooleanNetwork:
    """Oracle (the library's former function): the network whose general
    asynchronous graph is ``g``; raises NotReflexive or NotSubcube unless g
    is reflexive with subcube out-neighbourhoods."""
    image = []
    for x, row in enumerate(g.out):
        if not row >> x & 1:
            raise NotReflexive(x)
        members = bitset_members(row)
        free = 0
        for m in members:
            free |= m ^ members[0]
        # Every member agrees with members[0] outside free; the count decides.
        if len(members) != 1 << free.bit_count():
            raise NotSubcube(x)
        image.append(x ^ free)
    return BooleanNetwork(g.n, tuple(image))


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


def single_table_principal_pairs(f: BooleanNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Oracle (the library's former method): the principal-map iteration on
    one moved table over all 3^n subcubes, filled by the digitwise kernel."""
    tern = _ternary_of_masks(f.n)
    table = digitwise_subcube_or((np.arange(1 << f.n) ^ f.np_image).astype(np.uint16), f.n)
    xs = np.arange(1 << f.n, dtype=np.int64)
    free = np.zeros_like(xs)
    index = tern.copy()
    while True:
        grow = table[index] & ~free
        if not grow.any():
            return free, xs & ~free
        free |= grow
        index += 2 * tern[grow] - tern[xs & grow]


def member_loop_min_extension(f: BooleanNetwork) -> BooleanNetwork:
    """Oracle (the library's former method): each member of a minimal
    trapspace moves to its opposite there, any other configuration to its
    full negation.  It takes the minimal trapspaces from
    ``pairwise_minimal_trapspaces``, so it reads nothing of the library's cover."""
    full = (1 << f.n) - 1
    image = [x ^ full for x in range(1 << f.n)]
    for cube in pairwise_minimal_trapspaces(f):
        for s in iter_submasks(cube.free):
            image[cube.base | s] = cube.base | (s ^ cube.free)
    return BooleanNetwork(f.n, tuple(image))


def member_loop_covered(n: int, cubes) -> np.ndarray:
    """Oracle: the bool array of the configurations that the (free, base)
    subcubes ``cubes`` cover, member by member."""
    covered = np.zeros(1 << n, dtype=bool)
    for free, base in cubes:
        covered[[base | s for s in iter_submasks(free)]] = True
    return covered


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


def validate_arrangement_network(net: BooleanNetwork, arrangement: Arrangement) -> None:
    """Independent oracle (the library's former post-construction check in
    `arrangement_network`): raise ValidationFailed where ``net`` moves a
    configuration outside the content, sends a content member outside the
    core, treats a coordinate non-uniformly over the content, or does not
    commute."""
    core = arrangement.core()
    inside = bitset_array(arrangement.content_bitset(), 1 << net.n)
    image = net.np_image
    xs = np.arange(len(image))
    if (image[~inside] != xs[~inside]).any():
        raise ValidationFailed("network moves a configuration outside the content")
    members, images = xs[inside], image[inside]
    if (images & ~core.free != core.base).any():
        raise ValidationFailed("image of a content member falls outside the core")
    for i in range(net.n):
        bit = 1 << i
        for value in (0, bit):
            outs = images[members & bit == value] & bit
            if outs.size and (outs != outs[0]).any():
                raise ValidationFailed(
                    f"coordinate {i + 1} is not uniform over the content"
                )
    if not is_commutative(net):
        raise ValidationFailed("constructed network is not commutative")


def pointwise_arrangement_network(
    arrangement: Arrangement, behaviors: dict[int, FreeDimBehavior]
) -> BooleanNetwork:
    """The arrangement network's image written one configuration and one
    coordinate at a time, with no check: each member of the content keeps
    the core's bit on a coordinate that is not free, and follows the
    coordinate's behaviour on a free one."""
    n, core = arrangement.n, arrangement.core()
    content = arrangement.content_bitset()
    image = list(range(1 << n))
    for x in bitset_members(content):
        y = 0
        for i in range(n):
            mode = behaviors.get(i + 1)
            if mode is None:
                bit = core.base >> i & 1
            elif mode is FreeDimBehavior.NEGATE:
                bit = 1 - (x >> i & 1)
            else:
                bit = int(mode is FreeDimBehavior.CONST1)
            y |= bit << i
        image[x] = y
    return BooleanNetwork(n, tuple(image))


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
    if full_cube(collection.n) not in members:
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
            if small == big or not is_subcube_of(small, big):
                continue
            extra = big.free & ~small.free
            for grow in iter_submasks(extra):
                mid = Subcube(collection.n, small.free | grow, small.base & ~grow)
                if mid not in members:
                    return False
    return True


# Perturbed blocks: each perturbation depends on the network alone, so a
# block's related block, which is of its class, perturbs its rows alike.


class PerturbedBlock(ProfileBlock):
    """A block whose principal collection gains or loses one subcube on
    networks with an even image sum, so that collection checks fire."""

    def _fill(self, name):
        filled = super()._fill(name)
        if name != "P":
            return filled
        total = self.images.sum(axis=1)
        even = np.flatnonzero(total % 2 == 0)
        masks = filled["P"].copy()
        masks[even, total[even] % 3**self.n] ^= True
        return {"P": masks}


class PerturbedCollections(ProfileBlock):
    """A block whose principal, trapspace or minimal collection gains or
    loses one subcube on the networks with an image sum of 1, 2 or 3 mod 4
    in turn; the others are clean."""

    def _fill(self, name):
        filled = super()._fill(name)
        if name not in ("P", "J", "N"):
            return filled
        # J is the trapspace mask itself, which no perturbation may change.
        masks = filled[name].copy()
        total = self.images.sum(axis=1)
        hit = np.flatnonzero(total % 4 == "PJN".index(name) + 1)
        masks[hit, 7 * total[hit] % 3**self.n] ^= True
        return {name: masks}


# One condition of each theorem, one node of each diagram, the
# dynamically-local flag, which the transient check compares with f^3 = f,
# the transitivity of the general graph's rows, which the trapping flag
# reads, and the columns of the two hierarchy facts that no other claim
# reads: the trapping graph's transitivity and the loops of each graph.
FLIPPED = (
    "trapping7.pairs", "commutative3.intervals", "negation_on_subcubes",
    "constant_on_arrangements", "globally_idempotent3.intervals", "descent",
    "symmetric_ga", "involutive", "oriented_a", "interval_fp", "dynamically_local",
    "transitive_ga", "transitive_tg", "reflexive_a", "reflexive_ga", "reflexive_tg",
)


class PerturbedClasses(ProfileBlock):
    """A profile block whose ``FLIPPED`` columns are negated on the networks
    with an image sum divisible by 3, so that the alternate-definition,
    hierarchy, diagram and transient checks fire."""

    def _fill(self, name):
        filled = super()._fill(name)
        chosen = self.images.sum(axis=1) % 3 == 0
        return {c: column ^ chosen if c in FLIPPED else column for c, column in filled.items()}


class PerturbedBoth(PerturbedBlock, PerturbedClasses):
    """Both perturbations: every per-network check fires."""


# Oracles for the checks of `verify` on the networks related to a block's
# rows (the library's former per-network bodies): each reads one profile and
# the profiles of its closure, min extension and realisations.


def related_profile(p, g: BooleanNetwork):
    """The profile of a network related to p's: row 0 of a block of g alone,
    of the class of p's block."""
    return NetworkProfile(g, type(p.block).of([g]))


def moves_within(f: BooleanNetwork, g: BooleanNetwork) -> bool:
    """Oracle: the transition order, configuration by configuration."""
    return all((x ^ a) & ~(x ^ b) == 0 for x, (a, b) in enumerate(zip(f.image, g.image)))


def per_network_closure_violations(p) -> list:
    """Oracle (the library's former check): the closure and min-extension
    laws of one network; the trapping graphs are compared as bitset graphs."""
    f, out = p.f, []
    pt, pm = related_profile(p, p.closure), related_profile(p, p.min_extension)
    for check, broken, detail in (
        ("closure", not moves_within(f, p.closure), "network not below its trapping closure"),
        ("closure", pt.closure != p.closure, "trapping closure is not idempotent"),
        ("closure", p.trapspace_collection != pt.trapspace_collection,
         "trapspaces change under the closure"),
        ("closure", p.pt_collection != pt.pt_collection,
         "principal trapspaces change under the closure"),
        ("closure", not p.graph_tg == build_graph(p.closure, "general") == pt.graph_tg,
         "trapping graph disagrees with closure graphs"),
        ("min-extension", not moves_within(f, p.min_extension),
         "network not below its min extension"),
        ("min-extension", pm.min_extension != p.min_extension, "min extension is not idempotent"),
        ("min-extension", pm.minimal[0] != p.minimal[0],
         "minimal trapspaces change under extension"),
        ("min-extension", not moves_within(p.closure, p.min_extension),
         "closure not below min extension"),
        ("min-extension", not pm.trapping, "min extension is not trapping"),
    ):
        if broken:
            out.append(Violation(check, detail, f))
    return out


def pairwise_trapspace_equivalent(pf, pg) -> tuple[bool, ...]:
    """Oracle (the library's former ``trapspace_equivalent`` body): the five
    conditions on two profiles."""
    return (
        pf.pt_collection == pg.pt_collection,
        pf.trapspace_collection == pg.trapspace_collection,
        np.array_equal(pf.pt_pairs[0], pg.pt_pairs[0]),
        all(np.array_equal(a, b) for a, b in zip(pf.pt_pairs, pg.pt_pairs)),
        pf.closure == pg.closure,
    )


def pairwise_min_trapspace_equivalent(pf, pg) -> tuple[bool, ...]:
    """Oracle (the library's former ``min_trapspace_equivalent`` body): the
    four conditions on two profiles."""
    mf, covered_f = pf.minimal
    mg, covered_g = pg.minimal
    same_pt = pf.pt_pairs[0] == pg.pt_pairs[0]
    return (
        mf == mg,
        np.array_equal(covered_f, covered_g) and bool(same_pt[covered_f].all()),
        bool(same_pt[covered_f | covered_g].all()),
        pf.min_extension == pg.min_extension,
    )


def per_network_equivalence_violations(p) -> list:
    """Oracle (the library's former check): both equivalence vectors of one
    network against its closure, then its min extension."""
    out = []
    for partner in (p.closure, p.min_extension):
        q = related_profile(p, partner)
        for check, equivalent in (("trapspace-equivalence", pairwise_trapspace_equivalent),
                                  ("min-trapspace-equivalence", pairwise_min_trapspace_equivalent)):
            vector = equivalent(p, q)
            if len(set(vector)) != 1:
                out.append(Violation(check, f"mixed vector {vector}", p.f))
    return out


def squaring_network_power(f: BooleanNetwork, k: int) -> BooleanNetwork:
    """Oracle (the library's former ``network_power``): the k-fold
    composition of one table, by repeated squaring."""
    acc, step = np.arange(1 << f.n), f.np_image
    while k:
        if k & 1:
            acc = step[acc]
        step = step[step]
        k >>= 1
    return BooleanNetwork(f.n, acc)


def per_network_dynamics_violations(p) -> list:
    """Oracle (the library's former check): the transient and period of one
    trapping network, and its dynamically-local flag against f^3 = f."""
    f, out = p.f, []
    if p.trapping:
        if squaring_network_power(f, f.n + 2) != squaring_network_power(f, f.n):
            out.append(Violation("transient", "trapping network with long transient", f))
        period = power_iteration_transient_and_period(f)[1]
        if period > 2:
            out.append(Violation("transient", f"trapping network with period {period}", f))
    if p.prop("dynamically_local") != (squaring_network_power(f, 3) == f):
        out.append(Violation("transient", "dynamically-local flag disagrees", f))
    return out


def per_network_roundtrip_violations(p) -> list:
    """Oracle (the library's former check): the collection round-trips of one
    network, through the single-collection operators and recognisers."""
    out = []
    f = p.f

    def bad(detail):
        out.append(Violation("collections", detail, f))

    principal = p.pt_collection
    ideals = p.trapspace_collection
    if not p.pt_flags.pre_principal:
        bad("principal trapspaces are not pre-principal")
    if mu_reduction(principal) != principal:
        bad("principal trapspaces not fixed by pointwise reduction")
    if not pre_ideal_rows(ideals.mask[None], ideals.n)[0]:
        bad("trapspaces are not pre-ideal")

    realized_q = realize(principal)
    realized_j = realize(ideals)
    if realized_q != p.closure:
        bad("realizing the principal collection misses the closure")
    if realized_j != p.closure:
        bad("realizing the trapspace collection misses the closure")
    if related_profile(p, realized_q).pt_collection != principal:
        bad("principal collection does not round-trip through realization")
    if related_profile(p, realized_j).trapspace_collection != ideals:
        bad("trapspace collection does not round-trip through realization")
    lam = lambda_closure(principal)
    if lam != ideals:
        bad("union closure of principal trapspaces misses the trapspaces")
    mu = mu_reduction(ideals)
    if mu != principal:
        bad("pointwise reduction of trapspaces misses the principal ones")
    if mu_reduction(lam) != principal or lambda_closure(mu) != ideals:
        bad("union closure and pointwise reduction do not invert each other")

    minimal, _ = p.minimal
    if not min_ideal_rows(minimal.mask[None], minimal.n)[0]:
        bad("minimal trapspaces are not pairwise disjoint")
    realized_n = realize(minimal)
    if realized_n != p.min_extension:
        bad("realizing the minimal collection misses the min extension")
    if related_profile(p, realized_n).minimal[0] != minimal:
        bad("minimal collection does not round-trip through realization")
    if p.min_trapping and realized_n != f:
        bad("min-trapping network is not recovered from its minimal trapspaces")
    return out


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


def rowwise_truth_table(f: BooleanNetwork) -> str:
    """Oracle (the library's former writer): one formatted string per row."""
    strings = [format(x, f"0{f.n}b")[::-1] for x in range(1 << f.n)]
    rows = [f"n={f.n}\n"]
    rows.extend(f"{strings[x]} {strings[y]}\n" for x, y in enumerate(f.image))
    return "".join(rows)


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


# Oracles for the class layer (the library's former per-network bodies):
# each loops over one network's subsets or intervals in Python.


def leq_rows(xs: np.ndarray, a: np.ndarray, b: np.ndarray) -> bool:
    """Transition order, broadcast over rows of update tables."""
    return bool(np.all(((xs ^ a) & ~(xs ^ b)) == 0))


def pair_sweep(f: BooleanNetwork) -> dict[str, bool]:
    """Oracle: the subset-pair condition of five theorems, by theorem, in
    blocks of up to 4096 / 4^n subsets s; comp[t, k, x] is the table of
    updating s[k] then t, and a condition is dropped once it fails."""
    size = 1 << f.n
    xs = np.arange(size, dtype=np.int64)
    ts = xs[:, None]
    U = update_table(f.np_image, ts, xs)  # U[s, x]: x under the update of subset s
    block = max(1, 4096 // (size * size))
    holds = dict.fromkeys(
        ("trapping7", "commutative3", "marseille4", "lille4", "globally_idempotent3"), True
    )
    for start in range(0, size, block):
        s = xs[start:start + block]
        comp = np.take(U, U[s], axis=1)
        union = U[ts | s]
        below_union = (
            holds["trapping7"] or holds["commutative3"] or holds["globally_idempotent3"]
        ) and leq_rows(xs, comp, union)
        holds["trapping7"] &= below_union
        if holds["commutative3"] or holds["marseille4"]:
            sym = U[ts ^ s]
            if holds["commutative3"]:
                holds["commutative3"] = below_union and leq_rows(xs, sym, comp)
            if holds["marseille4"]:
                holds["marseille4"] = bool(np.all(comp == sym))
        if holds["lille4"]:
            holds["lille4"] = bool(np.all(comp == union))
        if holds["globally_idempotent3"]:
            holds["globally_idempotent3"] = below_union and leq_rows(xs, U[ts & s], comp)
        if not any(holds.values()):
            break
    return holds


def globally_sweep(f: BooleanNetwork) -> tuple[bool, bool, bool]:
    """Oracle: (bijective, involutive, idempotent) of every subset update,
    walking the subsets in Gray-code order on one running table."""
    n = f.n
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


def forall_interval(f: BooleanNetwork, cond) -> bool:
    """Oracle: cond(x, fx, y, fy) for every x and every y in the interval of x."""
    img = f.image
    return all(
        cond(x, fx, x ^ s, img[x ^ s])
        for x, fx in enumerate(img)
        for s in iter_submasks(x ^ fx)
    )


def span_subset(y: int, fy: int, x: int, fx: int) -> bool:
    """span{y, fy} is a subset of span{x, fx}."""
    free_small, free_big = y ^ fy, x ^ fx
    if free_small & ~free_big:
        return False
    return (y ^ x) & ~free_big == 0


def loop_is_negation_on_subcubes(f: BooleanNetwork) -> bool:
    """Oracle: every y = x ^ s in the interval of a moving x moves to fx ^ s."""
    img = f.image
    return all(
        img[x ^ s] == fx ^ s
        for x, fx in enumerate(img)
        if fx != x
        for s in iter_submasks(x ^ fx)
    )


def loop_is_constant_on_arrangements(f: BooleanNetwork) -> bool:
    """Oracle: each moving x moves to a fixed point, as does its whole interval."""
    img = f.image
    for x, fx in enumerate(img):
        if fx == x:
            continue
        if img[fx] != fx:
            return False
        if any(img[x ^ s] != fx for s in iter_submasks(x ^ fx)):
            return False
    return True


def loop_descent(p) -> tuple[bool, bool]:
    """Oracle: sink_terminal5's descent condition (no moving x has a
    principal trapspace shared by all its members) and whether every
    distinct principal trapspace holds a fixed point, by member loops."""
    fix = p.fixed_bitset
    frees, bases = (a.tolist() for a in p.pt_pairs)
    descend_ok = True
    for x in range(1 << p.n):
        if fix >> x & 1:
            continue
        free, base = frees[x], bases[x]
        if all(frees[base | s] == free and bases[base | s] == base for s in iter_submasks(free)):
            descend_ok = False
            break
    principal_fp = all(cube_bitset(fr, ba) & fix for fr, ba in set(zip(frees, bases)))
    return descend_ok, principal_fp


def interval_fixed_counts(p):
    """Oracle: the number of fixed points in each interval [x, f(x)], by bitsets."""
    for x, fx in enumerate(p.f.image):
        yield (cube_bitset(x ^ fx, x & fx) & p.fixed_bitset).bit_count()


def loop_distance_bound_violation(f: BooleanNetwork) -> str | None:
    """Oracle: the distance bound on commutative networks and its equality
    case, at the first failing (x, y)."""
    img = f.image
    for x, fx in enumerate(img):
        dx = (x ^ fx).bit_count()
        for s in iter_submasks(x ^ fx):
            y = x ^ s
            fy = img[y]
            dy = (y ^ fy).bit_count()
            dist = s.bit_count()
            if not dist >= dx - dy >= 0:
                return f"distance bound fails at x={x}, y={y}"
            if (dist == dx - dy) != (fy == fx):
                return f"equality case fails at x={x}, y={y}"
    return None


def _is_permutation(table: np.ndarray) -> bool:
    return bool(np.all(np.bincount(table, minlength=len(table)) == 1))


def loop_class_flags(p) -> dict[str, bool]:
    """Oracle: the class flags of ``ProfileBlock`` that its stacked kernels fill,
    each by its former per-network definition."""
    f = p.f
    img, xs = f.np_image, np.arange(1 << f.n, dtype=np.int64)
    singles = [update_table(img, 1 << i, xs) for i in range(f.n)]
    commutative = pairwise_is_commutative(f)
    counts = list(interval_fixed_counts(p))
    flags = {
        "commutative": commutative,
        "bijective": _is_permutation(img),
        "locally_bijective": all(_is_permutation(t) for t in singles),
        "involutive": np.array_equal(img[img], xs),
        "locally_involutive": all(np.array_equal(t[t], xs) for t in singles),
        "idempotent": np.array_equal(img[img], img),
        "locally_idempotent": all(np.array_equal(t[t], t) for t in singles),
        "dynamically_local": np.array_equal(img[img[img]], img),
        "interval_fp": all(c >= 1 for c in counts),
        "interval_ufp": all(c == 1 for c in counts),
    }
    flags["marseille"] = commutative and flags["bijective"]
    flags["lille"] = commutative and flags["idempotent"]
    flags["interval_ufp_idempotent"] = flags["interval_ufp"] and flags["idempotent"]
    bij, inv, idem = globally_sweep(f)
    flags.update(globally_bijective=bij, globally_involutive=inv, globally_idempotent=idem)
    for kind in ("a", "ga", "tg"):
        for prop in ("symmetric", "oriented", "triangular", "sink_terminal"):
            flags[f"{prop}_{kind}"] = arcwise_graph_property(getattr(p, f"graph_{kind}"), prop)
    return flags


def loop_alternate_definitions(p, theorem: str) -> tuple[bool, ...]:
    """Oracle (the library's former ``check_alternate_definitions`` body):
    each condition of the theorem by its own loop or per-network call."""
    f = p.f
    img, xs = f.np_image, np.arange(1 << f.n, dtype=np.int64)
    flags = loop_class_flags(p)
    pairs = pair_sweep(f)
    if theorem == "trapping7":
        if f.n <= 2:
            some_closure = f.image in {trapping_closure(g).image for g in exhaustive_networks(f.n)}
        else:
            some_closure = p.closure == f
        return (
            graph_property(p.graph_ga, "transitive"),
            forall_interval(f, lambda x, fx, y, fy: span_subset(y, fy, x, fx)),
            np.array_equal(xs ^ img, p.pt_pairs[0]),
            f == p.closure,
            some_closure,
            p.graph_tg == p.graph_ga,
            pairs["trapping7"],
        )
    if theorem == "commutative3":
        return (
            flags["commutative"],
            forall_interval(
                f, lambda x, fx, y, fy: span_subset(y, fx, y, fy) and span_subset(y, fy, x, fx)
            ),
            pairs["commutative3"],
        )
    if theorem == "marseille4":
        return (
            flags["marseille"],
            loop_is_negation_on_subcubes(f),
            forall_interval(f, lambda x, fx, y, fy: (y ^ fy) == (x ^ fx)),
            pairs["marseille4"],
        )
    if theorem == "lille4":
        return (
            flags["lille"],
            loop_is_constant_on_arrangements(f),
            forall_interval(f, lambda x, fx, y, fy: (y ^ fy) == (y ^ fx)),
            pairs["lille4"],
        )
    if theorem == "globally_idempotent3":
        tables = (update_table(img, s, xs) for s in range(1 << f.n))
        return (
            all(np.array_equal(tab[tab], tab) for tab in tables),
            forall_interval(f, lambda x, fx, y, fy: span_subset(y, fy, y, fx)),
            pairs["globally_idempotent3"],
        )
    assert theorem == "sink_terminal5", theorem
    descend_ok, principal_fp = loop_descent(p)
    return (
        graph_property(p.graph_tg, "sink-terminal"),
        descend_ok,
        np.array_equal(p.minimal[1], xs == img),
        principal_fp,
        bitset_trapspace_fp(f),
    )


def per_network_class_violations(f: BooleanNetwork, flag) -> tuple[list, list, dict]:
    """Oracle (the library's former per-network checks): the alternate-
    definition and hierarchy violations of one network and its implication
    violations by diagram, given ``flag(name)``, its class flags and
    conditions by ``ProfileBlock`` column name."""
    alternates = []
    for theorem, names in VECTORS.items():
        vector = tuple(flag(name) for name in names)
        if len(set(vector)) != 1:
            alternates.append(
                Violation("alternate-definitions", f"{theorem} vector is mixed: {vector}", f)
            )
    hierarchy = []

    def implies(a, b, name):
        if a and not b:
            hierarchy.append(Violation("hierarchy", name, f))

    g_bij, g_inv, g_idem = (flag(f"globally_{w}") for w in ("bijective", "involutive", "idempotent"))
    implies(flag("marseille"), flag("commutative"), "marseille without commutative")
    implies(flag("lille"), flag("commutative"), "lille without commutative")
    implies(flag("commutative"), flag("trapping"), "commutative without trapping")
    implies(g_idem, flag("trapping"), "globally idempotent without trapping")
    if flag("commutative"):
        if not (flag("bijective") == flag("locally_bijective") == g_bij):
            hierarchy.append(Violation("hierarchy", "bijectivity variants split", f))
        if not (flag("idempotent") == flag("locally_idempotent") == g_idem):
            hierarchy.append(Violation("hierarchy", "idempotence variants split", f))
        implies(flag("fixable"), flag("lille"), "commutative fixable without lille")
    implies(flag("marseille"), g_inv, "marseille without globally involutive")
    implies(g_inv, flag("symmetric_ga"), "globally involutive without symmetric graph")
    implies(flag("symmetric_ga"), flag("marseille"), "symmetric graph without marseille")
    if flag("trapping"):
        implies(flag("locally_bijective"), flag("marseille"),
                "trapping locally bijective without marseille")
        implies(flag("trapspace_fp"), flag("fixable"), "trapping trapspace-fp without fixable")
    if not (flag("reflexive_a") and flag("reflexive_ga") and flag("reflexive_tg")):
        hierarchy.append(Violation("hierarchy", "graph without its loops", f))
    if not flag("transitive_tg"):
        hierarchy.append(Violation("hierarchy", "trapping graph not transitive", f))
    implications = {}
    for diagram in DIAGRAMS.values():
        implications[diagram.id] = [
            Violation(
                f"diagram-{diagram.id}",
                f"implication: {edge.source} [{edge.guard}] -> {edge.target}",
                f,
            )
            for edge in diagram.edges
            if flag(edge.guard) and flag(edge.source) and not flag(edge.target)
        ]
    return alternates, hierarchy, implications


def listed_report(report: dict) -> dict:
    """Oracle (the library's former report): ``cli._analysis_report``'s
    report with its minimal trapspaces as one string each, in order."""
    free, base = report["trapspaces"]["minimal_cubes"]
    cubes = [str(Subcube(report["n"], int(a), int(b))) for a, b in zip(free, base)]
    return {**report, "trapspaces": {**report["trapspaces"], "minimal_cubes": cubes}}


def listed_text_report(report: dict) -> str:
    """Oracle (the library's former text printer) of a ``listed_report``."""
    lines = [f"name: {report['name']}", f"n: {report['n']}"]
    ts = report["trapspaces"]
    counts = f"trapspaces: principal distinct: {ts['principal_distinct']}"
    if "all" in ts:
        counts += f", all: {ts['all']}"
    lines.append(f"{counts}, minimal: {ts['minimal']} (covering {ts['min_configs']} configurations)")
    lines += [f"  minimal: {cube}" for cube in ts["minimal_cubes"]]
    lines.append(f"dynamics: transient {report['transient']}, period {report['period']}")
    if "classes" in report:
        flags = report["classes"]
        on = [k for k, v in flags.items() if v]
        off = [k for k, v in flags.items() if not v]
        lines.append(f"classes (true): {', '.join(on) if on else '(none)'}")
        lines.append(f"classes (false): {', '.join(off) if off else '(none)'}")
    for key, props in report.get("graphs", {}).items():
        lines.append(f"graph {key}: " + ", ".join(f"{p}={'yes' if v else 'no'}"
                                                  for p, v in props.items()))
    return "\n".join(lines) + "\n"
