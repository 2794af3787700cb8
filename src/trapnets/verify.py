"""Population-level verification of the library's structural claims.

The suites sweep whole populations of networks (exhaustive up to the
``exhaustive`` cap, sampled above) and report violations of the class
equivalences, the closure-operator laws, the collection round-trips and the
implication diagrams.  Any violation carries the offending network so it can be dumped
as a ready-to-run truth-table reproducer.

``run_verification`` checks the population in one process, in the
consecutive blocks of ``classes.population_blocks``, whose profiles are the
rows of one ``ProfileBlock``.  That block owns every fact the checks read,
each filled on first use by one stacked kernel over its rows: the trapspace
facts (principal pairs, trapspaces, minimal cover, fixed points, min
extension), one boolean column per class flag and per alternate-definition
condition (graph predicates from the graphs' row forms), the collection
recognisers and round trips, and the realisations.
The closures and min extensions that are none of the block's networks are
the rows of one related block, read through ``ProfileBlock.profile_of``,
which profiles a realisation that is neither on first use.

Every per-network check takes the block and returns one violation list per
network, built by ``classes.block_violations`` from (broken column, detail)
pairs: a mixed row of a theorem's (k, m) vector table, or a true entry of a
hierarchy fact's column.  ``classes`` owns the block cut, ``Violation`` and
the diagram check (``implication_violations`` on the blocks, then the
fixture counterexamples), which ``classes.verify_diagram`` runs on its own;
this module imports them.  The checks that span networks (monotonicity
pairs of neighbours of one dimension, compared in one broadcast per
dimension, and the fixtures) run once, after the blocks.
"""

from __future__ import annotations

import functools

import numpy as np

from .caps import SUITES
from .classes import (
    DIAGRAMS,
    NetworkProfile,
    ProfileBlock,
    THEOREM_SIZES,
    Violation,
    block_violations,
    diagram_counterexample_violations,
    implication_violations,
    min_trapspace_equivalent,
    population_blocks,
    trapspace_equivalent,
)
from .core import BooleanNetwork, bit_counts, commutative_rows, lattice_combine, order_leq
from .dynamics import general_rows, network_power, transient_and_period
from .generators import (
    long_transient_trapping,
    random_commutative,
    random_constant_on_arrangements,
    random_negation_on_subcubes,
)
from .trapspaces import principal_rows


def sample_population(n: int, samples: int, seed: int) -> list[BooleanNetwork]:
    """Random networks plus structured generator outputs, seed-deterministic."""
    rng = np.random.default_rng(seed)
    size = 1 << n
    nets = [
        BooleanNetwork(n, rng.integers(0, size, size)) for _ in range(samples)
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
# per-network checks: each takes a block and returns one list per network


def _concat(lists: list[list[list[Violation]]]) -> list[list[Violation]]:
    """Per network, its lists of ``lists`` in order, concatenated."""
    return [[v for found in per_network for v in found] for per_network in zip(*lists)]


def alternate_definition_violations(block: ProfileBlock) -> list[list[Violation]]:
    """Every alternate-definition vector must be constant: a violation where
    a network's row of a theorem's vector table is mixed."""

    def mixed(theorem):
        vectors = block.vector(theorem)
        return (vectors.any(axis=1) & ~vectors.all(axis=1),
                lambda i: f"{theorem} vector is mixed: {tuple(vectors[i].tolist())}")

    return block_violations(block, "alternate-definitions", [mixed(t) for t in THEOREM_SIZES])


def closure_law_violations(block: ProfileBlock) -> list[list[Violation]]:
    """Closure and min-extension laws of each network of the block."""
    P = block.profiles
    closed = [block.profile_of(p.closure) for p in P]
    extended = [block.profile_of(p.min_extension) for p in P]

    def same_tg(p, pt):
        # The trapping graph against the closure's general and trapping
        # graphs, as their (free, base) rows.
        rows = (general_rows(p.closure.np_image, p.n), pt.pt_pairs)
        return all(np.array_equal(a, b) for other in rows for a, b in zip(p.pt_pairs, other))

    closure = block_violations(block, "closure", (
        ([not order_leq(p.f, p.closure) for p in P], "network not below its trapping closure"),
        ([pt.closure != p.closure for p, pt in zip(P, closed)],
         "trapping closure is not idempotent"),
        ([p.trapspace_collection != pt.trapspace_collection for p, pt in zip(P, closed)],
         "trapspaces change under the closure"),
        ([p.pt_collection != pt.pt_collection for p, pt in zip(P, closed)],
         "principal trapspaces change under the closure"),
        ([not same_tg(p, pt) for p, pt in zip(P, closed)],
         "trapping graph disagrees with closure graphs"),
    ))
    min_extension = block_violations(block, "min-extension", (
        ([not order_leq(p.f, p.min_extension) for p in P], "network not below its min extension"),
        ([pm.min_extension != p.min_extension for p, pm in zip(P, extended)],
         "min extension is not idempotent"),
        ([pm.minimal[0] != p.minimal[0] for p, pm in zip(P, extended)],
         "minimal trapspaces change under extension"),
        ([not order_leq(p.closure, p.min_extension) for p in P], "closure not below min extension"),
        ([not pm.trapping for pm in extended], "min extension is not trapping"),
    ))
    return _concat([closure, min_extension])


NOT_MONOTONE = "trapping closure is not monotone on this pair"


def monotonicity_violations(
    f: BooleanNetwork, g: BooleanNetwork,
    closed_f: BooleanNetwork, closed_g: BooleanNetwork,
) -> list[Violation]:
    """Oracle, read only by the tests and the benchmark's tracer: the trapping
    closure's monotonicity on one pair, given the closures.  ``run_verification``
    checks its pairs in one broadcast, ``monotone_pairs_violations``."""
    if order_leq(f, g) and not order_leq(closed_f, closed_g):
        return [Violation("closure", NOT_MONOTONE, f)]
    return []


def monotone_pairs_violations(
    pairs: list[tuple[BooleanNetwork, BooleanNetwork]],
) -> list[Violation]:
    """``monotonicity_violations`` of every pair (f, g), in pair order.  The
    networks of each dimension and their trapping closures are held as
    (N, 2^n) arrays of moved coordinates, and ``order_leq`` of their pairs
    is one broadcast.  The closures are computed as stacked principal
    passes, one per block of networks: the closure moves x by its principal
    free mask."""

    def images(networks):
        return np.array([f.np_image for f in networks])

    bad = np.zeros(len(pairs), dtype=bool)
    for n in dict.fromkeys(f.n for f, _ in pairs):
        at = [i for i, (f, _) in enumerate(pairs) if f.n == n]
        nets = list(dict.fromkeys(f for i in at for f in pairs[i]))
        index = {f: i for i, f in enumerate(nets)}
        moved = images(nets) ^ np.arange(1 << n)
        moved_closed = np.concatenate(
            [principal_rows(images(block), n)[0] for block in population_blocks(nets)]
        )
        fi, gi = np.array([(index[f], index[g]) for f, g in (pairs[i] for i in at)]).T

        def leq(m):
            return ~np.any(m[fi] & ~m[gi], axis=1)

        bad[at] = leq(moved) & ~leq(moved_closed)
    return [Violation("closure", NOT_MONOTONE, pairs[i][0]) for i in np.flatnonzero(bad).tolist()]


def equivalence_vector_violations(block: ProfileBlock) -> list[list[Violation]]:
    """Both equivalence vectors must be constant between each network of the
    block and its closure, then its min extension."""
    found = []
    for partner in ("closure", "min_extension"):
        pairs = [(p, block.profile_of(getattr(p, partner))) for p in block.profiles]
        for check, equivalent in (("trapspace-equivalence", trapspace_equivalent),
                                  ("min-trapspace-equivalence", min_trapspace_equivalent)):
            vectors = [equivalent(p.f, q.f, p, q) for p, q in pairs]
            found.append(block_violations(block, check, [
                ([len(set(v)) != 1 for v in vectors], lambda i: f"mixed vector {vectors[i]}"),
            ]))
    return _concat(found)


def collection_roundtrip_violations(block: ProfileBlock) -> list[list[Violation]]:
    """Realisation, union-closure and pointwise-reduction round-trips of each
    network of the block."""
    P = block.profiles
    realized_p, realized_j, realized_n = (block.realized[c] for c in "PJN")
    return block_violations(block, "collections", (
        (~block["pre_principal"], "principal trapspaces are not pre-principal"),
        (~block["mu_fixes_p"], "principal trapspaces not fixed by pointwise reduction"),
        (~block["pre_ideal"], "trapspaces are not pre-ideal"),
        ([g != p.closure for p, g in zip(P, realized_p)],
         "realizing the principal collection misses the closure"),
        ([g != p.closure for p, g in zip(P, realized_j)],
         "realizing the trapspace collection misses the closure"),
        ([block.profile_of(g).pt_collection != p.pt_collection for p, g in zip(P, realized_p)],
         "principal collection does not round-trip through realization"),
        ([block.profile_of(g).trapspace_collection != p.trapspace_collection
          for p, g in zip(P, realized_j)],
         "trapspace collection does not round-trip through realization"),
        (~block["lambda_p_is_j"], "union closure of principal trapspaces misses the trapspaces"),
        (~block["mu_j_is_p"], "pointwise reduction of trapspaces misses the principal ones"),
        (~block["mu_lambda_invert"],
         "union closure and pointwise reduction do not invert each other"),
        (~block["min_ideal"], "minimal trapspaces are not pairwise disjoint"),
        ([g != p.min_extension for p, g in zip(P, realized_n)],
         "realizing the minimal collection misses the min extension"),
        ([block.profile_of(g).minimal[0] != p.minimal[0] for p, g in zip(P, realized_n)],
         "minimal collection does not round-trip through realization"),
        (block["min_trapping"] & [g != p.f for p, g in zip(P, realized_n)],
         "min-trapping network is not recovered from its minimal trapspaces"),
    ))


def dynamics_claim_violations(block: ProfileBlock) -> list[list[Violation]]:
    """Transient and period facts for trapping networks, and the
    dynamically-local flag against f^3 = f, of each network of the block."""
    nets, trapping = [p.f for p in block.profiles], block["trapping"].tolist()
    periods = [transient_and_period(f)[1] if t else 0 for f, t in zip(nets, trapping)]
    return block_violations(block, "transient", (
        ([t and network_power(f, f.n + 2) != network_power(f, f.n) for f, t in zip(nets, trapping)],
         "trapping network with long transient"),
        ([period > 2 for period in periods], lambda i: f"trapping network with period {periods[i]}"),
        (block["dynamically_local"] != [network_power(f, 3) == f for f in nets],
         "dynamically-local flag disagrees"),
    ))


def distance_bound_rows(images: np.ndarray, n: int, intervals) -> list[str | None]:
    """The distance bound on commutative networks and its equality case, for
    each row of a (k, 2^n) image stack on its ``interval_arrays``: the first
    failing (x, y) in order of x, then y ^ x, or None."""
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


def commutative_claim_violations(block: ProfileBlock) -> list[list[Violation]]:
    """Commutative facts of each network of the block, with whether its
    principal collection is convex and its realisation commutative."""
    commutative, local, convex = (block[name] for name in ("commutative", "dynamically_local",
                                                           "convex"))
    problems = distance_bound_rows(block.images, block.n, block.intervals)
    realized = commutative_rows(np.arange(1 << block.n) ^ block.pointwise["P"], block.n)
    return block_violations(block, "commutative", (
        (commutative & ~local, "commutative but not dynamically local"),
        (commutative & [d is not None for d in problems], problems.__getitem__),
        (commutative & ~convex, "principal trapspaces are not convex"),
        (convex & ~realized, "convex principal collection realizes a non-commutative network"),
    ))


def hierarchy_violations(block: ProfileBlock) -> list[list[Violation]]:
    """Class-containment facts, each one column expression, true on the
    networks that break it.  Three are also edges of a single diagram
    (globally involutive -> symmetric GA, symmetric GA -> Marseille and
    trapping trapspace-fp -> fixable), repeated here so that ``--suite
    theorems`` checks them.  The last two test facts that no other claim
    reads: every graph keeps its loops, and the trapping graph's rows are
    transitive.  The ``trapping`` flag is the general graph's row
    transitivity, so the ``trapping7`` vector tests that column."""
    c = block
    trapping, commutative, marseille, lille = (
        c[name] for name in ("trapping", "commutative", "marseille", "lille")
    )
    g_bij, g_inv, g_idem = (c[f"globally_{w}"] for w in ("bijective", "involutive", "idempotent"))
    bij_split = (c["bijective"] != c["locally_bijective"]) | (c["locally_bijective"] != g_bij)
    idem_split = (c["idempotent"] != c["locally_idempotent"]) | (c["locally_idempotent"] != g_idem)
    return block_violations(block, "hierarchy", (
        (marseille & ~commutative, "marseille without commutative"),
        (lille & ~commutative, "lille without commutative"),
        (commutative & ~trapping, "commutative without trapping"),
        (g_idem & ~trapping, "globally idempotent without trapping"),
        (commutative & bij_split, "bijectivity variants split"),
        (commutative & idem_split, "idempotence variants split"),
        (commutative & c["fixable"] & ~lille, "commutative fixable without lille"),
        (marseille & ~g_inv, "marseille without globally involutive"),
        (g_inv & ~c["symmetric_ga"], "globally involutive without symmetric graph"),
        (c["symmetric_ga"] & ~marseille, "symmetric graph without marseille"),
        (trapping & c["locally_bijective"] & ~marseille,
         "trapping locally bijective without marseille"),
        (trapping & c["trapspace_fp"] & ~c["fixable"], "trapping trapspace-fp without fixable"),
        (~(c["reflexive_a"] & c["reflexive_ga"] & c["reflexive_tg"]), "graph without its loops"),
        (~c["transitive_tg"], "trapping graph not transitive"),
    ))


# ---------------------------------------------------------------------------
# orchestration


def _check_block(nets: list[BooleanNetwork], sections) -> list[list[Violation]]:
    """The violations of each section's checks on one block of networks,
    network by network and, for each, check by check.  The block's profiles
    and its related block are freed on return, before the next block's are
    built."""
    profiles = [NetworkProfile(f) for f in nets]
    block = ProfileBlock(profiles)
    return [[v for found in _concat([check(block) for check in checks]) for v in found]
            for checks in sections]


def run_verification(
    networks: list[BooleanNetwork],
    suite: str = "all",
    monotonicity_pairs: list[tuple[BooleanNetwork, BooleanNetwork]] | None = None,
) -> list[Violation]:
    """Run the requested suite over the population; returns all violations.

    Each section runs its per-network checks block by block
    (``_check_block``), then once its check that spans networks.  The
    violations come in this order: theorems, closure laws and monotonicity,
    then per diagram the implications and the counterexample fixtures.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")

    def monotonicity():
        pairs = monotonicity_pairs
        if pairs is None:
            pairs = [(f, lattice_combine(f, g, "join"))
                     for f, g in zip(networks, networks[1:]) if f.n == g.n]
        return monotone_pairs_violations(pairs)

    # (suite, per-network checks, check spanning networks) of each section;
    # built here, so a check rebound in this module is the one that runs.
    sections = [
        ("theorems", (alternate_definition_violations, collection_roundtrip_violations,
                      dynamics_claim_violations, commutative_claim_violations,
                      hierarchy_violations, equivalence_vector_violations), lambda: []),
        ("closure", (closure_law_violations,), monotonicity),
        *(("diagrams", (functools.partial(implication_violations, d),),
           functools.partial(diagram_counterexample_violations, d)) for d in DIAGRAMS.values()),
    ]
    sections = [section for section in sections if suite in ("all", section[0])]
    found = [[] for _ in sections]
    for nets in population_blocks(networks):
        for out, violations in zip(found, _check_block(nets, [s[1] for s in sections])):
            out += violations
    return [v for (_, _, once), out in zip(sections, found) for v in out + once()]
