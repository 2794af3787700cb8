"""Population-level verification of the library's structural claims.

The suites sweep whole populations of networks (exhaustive up to the
``exhaustive`` cap, sampled above) and report violations of the class
equivalences, the closure-operator laws, the collection round-trips and the
implication diagrams.  Any violation carries the offending network so it can be dumped
as a ready-to-run truth-table reproducer.

``run_verification`` checks the population in one process, in consecutive
blocks of at most ``_block_size(n)`` and at most ``_MAX_BLOCK`` networks,
whose profiles are the rows of one ``ProfileBlock``.  That block owns the
trapspace facts of its networks (principal pairs, trapspaces, minimal
cover, fixed points, min extension), each one stacked kernel call over
their image rows on first use, and its class layer: one boolean column per
class flag and per alternate-definition condition, each from a stacked
kernel over the image rows (graph predicates from the graphs' row forms).
The distinct closures and min extensions of the block are the rows of a
second block.  The first block's collection facts (recognisers, union
closure, pointwise reduction, realisation) are single lattice passes over
the stacked masks of its networks.  A mixed row of a theorem's (k, m)
vector table is a violation, as is a true entry of an edge's
``guard & source & ~target`` or of a hierarchy fact's column.  The checks
that span networks (monotonicity pairs, compared in one broadcast) and
the diagrams' fixture counterexamples then run once, after the blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .classes import (
    DIAGRAMS,
    NetworkProfile,
    ProfileBlock,
    THEOREM_SIZES,
    diagram_counterexample_violations,
    implication_rows,
    interval_arrays,
    min_trapspace_equivalent,
    trapspace_equivalent,
)
from .core import BooleanNetwork, bit_counts, commutative_rows, lattice_combine, order_leq
from .cubesets import (
    convex_rows,
    lambda_rows,
    min_ideal_rows,
    pointwise_cubes,
    pointwise_free,
    pre_ideal_rows,
    pre_principal_rows,
)
from .dynamics import general_rows, network_power, transient_and_period
from .generators import (
    long_transient_trapping,
    random_commutative,
    random_constant_on_arrangements,
    random_negation_on_subcubes,
)
from .trapspaces import principal_rows

SUITES = ("all", "theorems", "diagrams", "closure")


@dataclass(frozen=True)
class Violation:
    check: str
    detail: str
    network: BooleanNetwork


def sample_population(n: int, samples: int, seed: int) -> list[BooleanNetwork]:
    """Random networks plus structured generator outputs, seed-deterministic."""
    rng = np.random.default_rng(seed)
    size = 1 << n
    nets = [
        BooleanNetwork(n, tuple(int(v) for v in rng.integers(0, size, size)))
        for _ in range(samples)
    ]
    extra = max(1, samples // 10)
    child = int(rng.integers(0, 2**31))
    for k in range(extra):
        nets.append(random_commutative(n, child + 3 * k, parts=1 + k % 3))
        nets.append(random_negation_on_subcubes(n, child + 3 * k + 1, parts=1 + k % 2))
        nets.append(random_constant_on_arrangements(n, child + 3 * k + 2, parts=1 + k % 2))
    if n >= 3:
        nets.append(long_transient_trapping(n))
    return nets


# ---------------------------------------------------------------------------
# per-network checks


def alternate_definition_violations(block: ProfileBlock) -> list[list[Violation]]:
    """Every alternate-definition vector must be constant: one list per
    network of the block, whose row of a theorem's vector table is mixed."""
    out = [[] for _ in block.profiles]
    for theorem in THEOREM_SIZES:
        vectors = block.vector(theorem)
        for i in np.flatnonzero(vectors.any(axis=1) & ~vectors.all(axis=1)).tolist():
            detail = f"{theorem} vector is mixed: {tuple(vectors[i].tolist())}"
            out[i].append(Violation("alternate-definitions", detail, block.profiles[i].f))
    return out


def closure_law_violations(p: NetworkProfile, profile=NetworkProfile) -> list[Violation]:
    """Closure and min-extension laws for a single network."""
    out = []
    f = p.f
    ft = p.closure
    pt_closure = profile(ft)
    if not order_leq(f, ft):
        out.append(Violation("closure", "network not below its trapping closure", f))
    if pt_closure.closure != ft:
        out.append(Violation("closure", "trapping closure is not idempotent", f))
    if p.trapspace_collection != pt_closure.trapspace_collection:
        out.append(Violation("closure", "trapspaces change under the closure", f))
    if p.pt_collection != pt_closure.pt_collection:
        out.append(Violation("closure", "principal trapspaces change under the closure", f))
    # The trapping graph against the closure's general and trapping graphs,
    # as their (free, base) rows.
    rows = (general_rows(ft.np_image, f.n), pt_closure.pt_pairs)
    if not all(np.array_equal(a, b) for other in rows for a, b in zip(p.pt_pairs, other)):
        out.append(Violation("closure", "trapping graph disagrees with closure graphs", f))

    fm = p.min_extension
    pm = profile(fm)
    if not order_leq(f, fm):
        out.append(Violation("min-extension", "network not below its min extension", f))
    if pm.min_extension != fm:
        out.append(Violation("min-extension", "min extension is not idempotent", f))
    if pm.minimal[0] != p.minimal[0]:
        out.append(Violation("min-extension", "minimal trapspaces change under extension", f))
    if not order_leq(ft, fm):
        out.append(Violation("min-extension", "closure not below min extension", f))
    if not pm.trapping:
        out.append(Violation("min-extension", "min extension is not trapping", f))
    return out


NOT_MONOTONE = "trapping closure is not monotone on this pair"


def monotonicity_violations(
    f: BooleanNetwork, g: BooleanNetwork,
    closed_f: BooleanNetwork, closed_g: BooleanNetwork,
) -> list[Violation]:
    if order_leq(f, g) and not order_leq(closed_f, closed_g):
        return [Violation("closure", NOT_MONOTONE, f)]
    return []


def monotone_pairs_violations(
    pairs: list[tuple[BooleanNetwork, BooleanNetwork]],
    closures: dict[BooleanNetwork, BooleanNetwork],
) -> list[Violation]:
    """``monotonicity_violations`` of every pair (f, g), in pair order, with
    ``closures[f]`` where given and the trapping closure of f elsewhere.  The
    networks and their closures are held as (N, 2^n) arrays of moved
    coordinates, and ``order_leq`` of all pairs is one broadcast.  The
    closures not given are computed as stacked principal passes, one per
    block of networks: the closure moves x by its principal free mask."""
    if not pairs:
        return []
    index = {f: i for i, f in enumerate(dict.fromkeys(itertools.chain.from_iterable(pairs)))}
    nets = list(index)
    n = nets[0].n
    xs = np.arange(1 << n)
    moved = _images(nets) ^ xs
    moved_closed = _images([closures.get(f, f) for f in nets]) ^ xs
    missing = [i for i, f in enumerate(nets) if f not in closures]
    for block in _blocks([nets[i] for i in missing]):
        rows, missing = missing[: len(block)], missing[len(block) :]
        moved_closed[rows] = principal_rows(_images(block), n)[0]
    fi, gi = np.array([(index[f], index[g]) for f, g in pairs]).T

    def leq(m):
        return ~np.any(m[fi] & ~m[gi], axis=1)

    bad = np.flatnonzero(leq(moved) & ~leq(moved_closed))
    return [Violation("closure", NOT_MONOTONE, pairs[i][0]) for i in bad.tolist()]


def equivalence_vector_violations(p: NetworkProfile, partner: NetworkProfile) -> list[Violation]:
    """Both equivalence vectors must be constant on any pair."""
    out = []
    v5 = trapspace_equivalent(p.f, partner.f, p, partner)
    if len(set(v5)) != 1:
        out.append(Violation("trapspace-equivalence", f"mixed vector {v5}", p.f))
    v4 = min_trapspace_equivalent(p.f, partner.f, p, partner)
    if len(set(v4)) != 1:
        out.append(Violation("min-trapspace-equivalence", f"mixed vector {v4}", p.f))
    return out


# The most networks in one block: each profile, with those of its closure
# and min extension, holds tens of KB, which the pair-table bound of
# ``_block_size`` does not see at small n.
_MAX_BLOCK = 256


def _block_size(n: int) -> int:
    """Networks per block at dimension n by the pair tables alone: they
    (4^n entries per network) stay near 2^20 entries, 1 MB."""
    return max(1, 2**20 // 4**n)


def _blocks(networks: list[BooleanNetwork]):
    """Consecutive runs of at most ``_block_size(n)`` networks of one
    dimension n, and of at most ``_MAX_BLOCK``."""
    for n, run in itertools.groupby(networks, key=lambda f: f.n):
        run = list(run)
        size = min(_block_size(n), _MAX_BLOCK)
        for start in range(0, len(run), size):
            yield run[start : start + size]


def _images(networks: list[BooleanNetwork]) -> np.ndarray:
    """The (k, 2^n) image rows of k networks of one dimension n."""
    return np.array([f.image for f in networks], dtype=np.int64)


def _same_rows(a: np.ndarray, b: np.ndarray) -> list[bool]:
    return np.all(a == b, axis=1).tolist()


class CollectionBlock:
    """The collection facts of a block of profiles of one dimension: each is
    one stacked lattice pass over the block's principal (P), trapspace (J) or
    minimal (N) masks.  Entry i of every list belongs to ``profiles[i]``;
    ``profile`` profiles their related networks (see ``_related_profiles``)."""

    def __init__(self, profiles: list[NetworkProfile], profile):
        n = profiles[0].n
        P = np.stack([p.pt_collection.mask for p in profiles])
        J = np.stack([p.trapspace_collection.mask for p in profiles])
        N = np.stack([p.minimal[0].mask for p in profiles])
        self.profiles, self.profile = profiles, profile
        self.pre_principal = pre_principal_rows(P, n).tolist()
        self.convex = convex_rows(P, n).tolist()
        self.pre_ideal = pre_ideal_rows(J, n).tolist()
        self.min_ideal = min_ideal_rows(N, n).tolist()
        free_p, free_j = pointwise_free(P, n), pointwise_free(J, n)
        mu_j, lam_p = pointwise_cubes(free_j, n), lambda_rows(P, n)
        self.mu_p_is_p = _same_rows(pointwise_cubes(free_p, n), P)
        self.lam_p_is_j = _same_rows(lam_p, J)
        self.mu_j_is_p = _same_rows(mu_j, P)
        self.mu_lam_p_is_p = _same_rows(pointwise_cubes(pointwise_free(lam_p, n), n), P)
        self.lam_mu_j_is_j = _same_rows(lambda_rows(mu_j, n), J)
        xs = np.arange(1 << n)
        # The realisations of P, J and N.
        self.realized_p, self.realized_j, self.realized_n = (
            [BooleanNetwork(n, tuple(image)) for image in (xs ^ free).tolist()]
            for free in (free_p, free_j, pointwise_free(N, n))
        )


def collection_roundtrip_violations(block: CollectionBlock) -> list[list[Violation]]:
    """Realisation, union-closure and pointwise-reduction round-trips: one
    list per network of the block."""
    out = []
    profile = block.profile
    for i, p in enumerate(block.profiles):
        principal, ideals = p.pt_collection, p.trapspace_collection
        minimal, _ = p.minimal
        realized_q, realized_j = block.realized_p[i], block.realized_j[i]
        realized_n = block.realized_n[i]
        checks = (
            (block.pre_principal[i], "principal trapspaces are not pre-principal"),
            (block.mu_p_is_p[i], "principal trapspaces not fixed by pointwise reduction"),
            (block.pre_ideal[i], "trapspaces are not pre-ideal"),
            (realized_q == p.closure, "realizing the principal collection misses the closure"),
            (realized_j == p.closure, "realizing the trapspace collection misses the closure"),
            (profile(realized_q).pt_collection == principal,
             "principal collection does not round-trip through realization"),
            (profile(realized_j).trapspace_collection == ideals,
             "trapspace collection does not round-trip through realization"),
            (block.lam_p_is_j[i], "union closure of principal trapspaces misses the trapspaces"),
            (block.mu_j_is_p[i], "pointwise reduction of trapspaces misses the principal ones"),
            (block.mu_lam_p_is_p[i] and block.lam_mu_j_is_j[i],
             "union closure and pointwise reduction do not invert each other"),
            (block.min_ideal[i], "minimal trapspaces are not pairwise disjoint"),
            (realized_n == p.min_extension,
             "realizing the minimal collection misses the min extension"),
            (profile(realized_n).minimal[0] == minimal,
             "minimal collection does not round-trip through realization"),
            (not p.min_trapping or realized_n == p.f,
             "min-trapping network is not recovered from its minimal trapspaces"),
        )
        out.append([Violation("collections", detail, p.f) for holds, detail in checks if not holds])
    return out


def dynamics_claim_violations(p: NetworkProfile) -> list[Violation]:
    """Transient and period facts for trapping networks."""
    out = []
    f = p.f
    if p.trapping:
        if network_power(f, f.n + 2) != network_power(f, f.n):
            out.append(Violation("transient", "trapping network with long transient", f))
        _, period = transient_and_period(f)
        if period > 2:
            out.append(Violation("transient", f"trapping network with period {period}", f))
    local = network_power(f, 3) == f
    if (p.dynamically_local and not local) or (local and not p.dynamically_local):
        out.append(Violation("transient", "dynamically-local flag disagrees", f))
    return out


def distance_bound_rows(images: np.ndarray, n: int, intervals) -> list[str | None]:
    """``distance_bound_violation`` of each row of a (k, 2^n) image stack, on
    its ``interval_arrays``: the first failing (x, y) in order of x, then
    y ^ x."""
    at, s = intervals
    flat, width = images.reshape(-1), bit_counts(n)
    x = at & ((1 << n) - 1)
    fx, fy = flat[at], flat[at ^ s]
    dx, dy, dist = width[x ^ fx], width[x ^ s ^ fy], width[s]
    bound_fails = (dist < dx - dy) | (dx < dy)
    equality_fails = (dist == dx - dy) != (fy == fx)
    bad = np.flatnonzero(bound_fails | equality_fails)
    rows, first = np.unique(at[bad] >> n, return_index=True)
    out = [None] * len(images)
    for row, e in zip(rows.tolist(), bad[first].tolist()):
        what = "distance bound" if bound_fails[e] else "equality case"
        out[row] = f"{what} fails at x={int(x[e])}, y={int(x[e] ^ s[e])}"
    return out


def distance_bound_violation(f: BooleanNetwork) -> str | None:
    """Distance bound on commutative networks and its equality case: one row."""
    image = f.np_image[None]
    return distance_bound_rows(image, f.n, interval_arrays(image, f.n))[0]


def commutative_claim_violations(
    block: ProfileBlock, convex: list[bool], realized: list[BooleanNetwork]
) -> list[list[Violation]]:
    """Commutative facts, one list per network i of the block, given whether
    its principal collection is convex (``convex[i]``) and its realisation."""
    commutative, local = (block[name].tolist() for name in ("commutative", "dynamically_local"))
    problems = distance_bound_rows(block.images, block.n, block.intervals)
    realized_commutative = commutative_rows(_images(realized), block.n).tolist()
    out = []
    for i, p in enumerate(block.profiles):
        checks = (
            (commutative[i] and not local[i], "commutative but not dynamically local"),
            (commutative[i] and problems[i], problems[i]),
            (commutative[i] and not convex[i], "principal trapspaces are not convex"),
            (convex[i] and not realized_commutative[i],
             "convex principal collection realizes a non-commutative network"),
        )
        out.append([Violation("commutative", detail, p.f) for bad, detail in checks if bad])
    return out


def hierarchy_violations(block: ProfileBlock) -> list[list[Violation]]:
    """Class-containment facts not already edges of a single diagram, one
    list per network of the block: each fact is one column expression, true
    on the networks that break it."""
    c = block
    trapping, commutative, marseille, lille = (
        c[name] for name in ("trapping", "commutative", "marseille", "lille")
    )
    g_bij, g_inv, g_idem = (c[f"globally_{w}"] for w in ("bijective", "involutive", "idempotent"))
    bij_split = (c["bijective"] != c["locally_bijective"]) | (c["locally_bijective"] != g_bij)
    idem_split = (c["idempotent"] != c["locally_idempotent"]) | (c["locally_idempotent"] != g_idem)
    facts = (
        ("marseille without commutative", marseille & ~commutative),
        ("lille without commutative", lille & ~commutative),
        ("commutative without trapping", commutative & ~trapping),
        ("globally idempotent without trapping", g_idem & ~trapping),
        ("bijectivity variants split", commutative & bij_split),
        ("idempotence variants split", commutative & idem_split),
        ("commutative fixable without lille", commutative & c["fixable"] & ~lille),
        ("marseille without globally involutive", marseille & ~g_inv),
        ("globally involutive without symmetric graph", g_inv & ~c["symmetric_ga"]),
        ("symmetric graph without marseille", c["symmetric_ga"] & ~marseille),
        ("trapping locally bijective without marseille",
         trapping & c["locally_bijective"] & ~marseille),
        ("trapping trapspace-fp without fixable", trapping & c["trapspace_fp"] & ~c["fixable"]),
    )
    out = [[] for _ in c.profiles]
    broken = np.array([column for _, column in facts])
    for j, i in zip(*(a.tolist() for a in np.nonzero(broken))):
        out[i].append(Violation("hierarchy", facts[j][0], c.profiles[i].f))
    return out


# ---------------------------------------------------------------------------
# orchestration


def _related_profiles(*profiles: NetworkProfile):
    """``profile(g)`` for the networks checked beside ``profiles`` (closures,
    min extensions, realisations): the one of ``profiles`` for its network,
    else one profile per network, built on first use."""
    known = {p.f: p for p in profiles}
    return lambda g: known[g] if g in known else known.setdefault(g, NetworkProfile(g))


def _check_block(nets: list[BooleanNetwork], suite: str) -> list[tuple]:
    """Every per-network check of ``suite`` on one block of networks: its
    trapspace, class and collection facts are stacked passes, and its
    profiles and their blocks are freed on return, before the next block's
    are built.

    Returns, per network in order, its theorem violations, its closure-law
    violations, its closure (for the monotonicity pairs; None outside the
    closure suite) and, per diagram of ``DIAGRAMS``, its implication violations.
    """
    theorem_suite = suite in ("all", "theorems")
    diagram_suite = suite in ("all", "diagrams")
    records = []
    profiles = [NetworkProfile(f) for f in nets]
    block = ProfileBlock(profiles)
    related = []
    if suite != "diagrams":
        # One profile per distinct closure and min extension of the block
        # that is not one of its networks, all rows of one more block; the
        # realisations of the collections are these networks too.
        own = set(nets)
        related = [NetworkProfile(g) for g in dict.fromkeys(
            g for p in profiles for g in (p.closure, p.min_extension) if g not in own
        )]
        if related:
            ProfileBlock(related)
    profile = _related_profiles(*profiles, *related)
    if theorem_suite:
        facts = CollectionBlock(profiles, profile)
        roundtrips = collection_roundtrip_violations(facts)
        alternates = alternate_definition_violations(block)
        commutative = commutative_claim_violations(block, facts.convex, facts.realized_p)
        hierarchy = hierarchy_violations(block)
    if diagram_suite:
        implications = [implication_rows(d, block) for d in DIAGRAMS.values()]
    for i, p in enumerate(profiles):
        theorems, laws, closure = [], [], None
        if theorem_suite:
            theorems += alternates[i]
            theorems += roundtrips[i]
            theorems += dynamics_claim_violations(p)
            theorems += commutative[i]
            theorems += hierarchy[i]
            theorems += equivalence_vector_violations(p, profile(p.closure))
            theorems += equivalence_vector_violations(p, profile(p.min_extension))
        if suite in ("all", "closure"):
            laws = closure_law_violations(p, profile)
            closure = p.closure
        diagram_rows = [[] for _ in DIAGRAMS]
        if diagram_suite:
            diagram_rows = [_diagram_violations(rows[i]) for rows in implications]
        records.append((theorems, laws, closure, diagram_rows))
    return records


def _diagram_violations(found) -> list[Violation]:
    return [Violation(f"diagram-{v.diagram}", f"{v.kind}: {v.detail}", v.network)
            for v in found]


def run_verification(
    networks: list[BooleanNetwork],
    suite: str = "all",
    monotonicity_pairs: list[tuple[BooleanNetwork, BooleanNetwork]] | None = None,
) -> list[Violation]:
    """Run the requested suite over the population; returns all violations.

    The per-network checks run block by block (``_check_block``); the
    violations come in this order: theorems, closure laws and monotonicity,
    then per diagram the implications and the counterexample fixtures.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    records = [record for nets in _blocks(networks) for record in _check_block(nets, suite)]
    violations = [v for r in records for v in r[0]]
    violations += [v for r in records for v in r[1]]
    if suite in ("all", "closure"):
        closures = {f: r[2] for f, r in zip(networks, records)}
        if monotonicity_pairs is None:
            monotonicity_pairs = [
                (f, lattice_combine(f, g, "join")) for f, g in zip(networks, networks[1:])
            ]
        violations += monotone_pairs_violations(monotonicity_pairs, closures)
    if suite in ("all", "diagrams"):
        for d, diagram in enumerate(DIAGRAMS.values()):
            violations += [v for r in records for v in r[3][d]]
            violations += _diagram_violations(diagram_counterexample_violations(diagram))
    return violations
