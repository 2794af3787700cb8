"""Population-level verification of the library's structural claims.

The suites sweep whole populations of networks (exhaustive up to the
``exhaustive`` cap, sampled above) and report violations of the class
equivalences, the closure-operator laws, the collection round-trips and the
implication diagrams, each with the offending network, which the CLI dumps
as a ready-to-run truth-table reproducer.

``run_verification`` checks the population in one process, in the blocks
of ``classes.population_blocks``, each one ``classes.ProfileBlock``.  A
check reads every fact of a block as ``block[name]``, a ``STACKS`` array or
a ``KERNELS`` column, each filled once by ``ProfileBlock._fill``; the
block's second block, ``related()``, held in the same cache, has the
closures, min extensions and realisations of its rows as rows.  Every
per-network check takes the block and returns one violation list per
network, built by ``classes.block_violations`` from (broken column,
detail) pairs, each column an expression over the block or over the two
blocks.  The checks that span networks run after the blocks: the closure's
monotonicity on image rows, each network against its join with the next
one or, in the exhaustive sweep, against every network of its dimension,
and the diagram fixtures.
"""

from __future__ import annotations

import functools

import numpy as np

from .caps import SUITES
from .classes import (
    DIAGRAMS,
    ProfileBlock,
    THEOREM_SIZES,
    Violation,
    _same,
    block_violations,
    diagram_counterexample_violations,
    implication_violations,
    min_equivalence_rows,
    population_blocks,
    trapspace_equivalence_rows,
)
from .core import (
    BooleanNetwork,
    bit_counts,
    commutative_rows,
    order_leq,
    order_leq_rows,
)
from .dynamics import general_rows, power_rows, transient_and_period
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
    nets = [BooleanNetwork(n, rng.integers(0, size, size)) for _ in range(samples)]
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


def _mixed(vectors: np.ndarray, text: str):
    """(broken, detail) of a vector table: its mixed rows, with ``text`` and the row."""
    return (vectors.any(axis=1) & ~vectors.all(axis=1),
            lambda i: f"{text}{tuple(vectors[i].tolist())}")


def alternate_definition_violations(block: ProfileBlock) -> list[list[Violation]]:
    """Every alternate-definition vector must be constant: a violation where
    a network's row of a theorem's vector table is mixed."""
    return block_violations(block, "alternate-definitions", [
        _mixed(block.vector(t), f"{t} vector is mixed: ") for t in THEOREM_SIZES
    ])


def _kept(c: str, block: ProfileBlock, related: ProfileBlock, at: np.ndarray) -> np.ndarray:
    """Whether each row's collection c is that of its partner, row ``at`` of ``related``."""
    return _same(related[c][at], block[c])


def closure_law_violations(block: ProfileBlock) -> list[list[Violation]]:
    """Closure and min-extension laws of each network of the block, against
    its closure's and min extension's rows of the related block."""
    related, at = block.related()
    c, m = at["closure"], at["min_extension"]
    closures, extensions = block["closures"], block["min_extensions"]
    # The trapping graph's rows against the closure's general and trapping graphs'.
    graphs = (general_rows(closures, block.n), [rows[c] for rows in related["principal"]])
    same_tg = np.all(np.equal(block["principal"], graphs), axis=(0, 1, 3))
    closure = block_violations(block, "closure", (
        (~order_leq_rows(block.images, closures), "network not below its trapping closure"),
        (~_same(related["closures"][c], closures), "trapping closure is not idempotent"),
        (~_kept("J", block, related, c), "trapspaces change under the closure"),
        (~_kept("P", block, related, c), "principal trapspaces change under the closure"),
        (~same_tg, "trapping graph disagrees with closure graphs"),
    ))
    min_extension = block_violations(block, "min-extension", (
        (~order_leq_rows(block.images, extensions), "network not below its min extension"),
        (~_same(related["min_extensions"][m], extensions), "min extension is not idempotent"),
        (~_kept("N", block, related, m), "minimal trapspaces change under extension"),
        (~order_leq_rows(closures, extensions), "closure not below min extension"),
        (~related["trapping"][m], "min extension is not trapping"),
    ))
    return _concat([closure, min_extension])


NOT_MONOTONE = "trapping closure is not monotone on this pair"


def monotonicity_violations(
    f: BooleanNetwork, g: BooleanNetwork,
    closed_f: BooleanNetwork, closed_g: BooleanNetwork,
) -> list[Violation]:
    """Oracle, read only by the tests and the benchmark's tracer: the trapping
    closure's monotonicity on one pair, given the closures.  ``run_verification``
    checks its pairs on image rows, ``monotone_closure_violations``."""
    if order_leq(f, g) and not order_leq(closed_f, closed_g):
        return [Violation("closure", NOT_MONOTONE, f)]
    return []


def monotone_closure_violations(
    networks: list[BooleanNetwork], every_pair: bool = False,
) -> list[Violation]:
    """``monotonicity_violations`` of the pairs (f, g) of one dimension, in
    the order of f, then of g: g is every network of f's dimension with
    ``every_pair``, and otherwise f's join with the next network.  The
    closures are one principal pass per block of ``population_blocks`` and
    one per block's joins (x moves by its principal free mask)."""
    bad, held, start = np.zeros(len(networks), dtype=int), {}, 0
    for nets in population_blocks(networks):
        n, end, xs = nets[0].n, start + len(nets), np.arange(1 << nets[0].n)
        images = np.array([f.np_image for f in nets])
        closed = xs ^ principal_rows(images, n)[0]
        if every_pair:
            held.setdefault(n, []).append((np.arange(start, end), images, closed))
        elif nexts := [g.np_image for g in networks[start + 1 : end + 1] if g.n == n]:
            m = len(nexts)
            joins = xs ^ ((xs ^ images[:m]) | (xs ^ np.array(nexts)))
            bad[start : start + m] = ~order_leq_rows(closed[:m], xs ^ principal_rows(joins, n)[0])
        start = end
    for parts in held.values():
        at, images, closed = (np.concatenate(stack) for stack in zip(*parts))
        below = order_leq_rows(images[:, None], images) & ~order_leq_rows(closed[:, None], closed)
        bad[at] = below.sum(axis=1)
    return [Violation("closure", NOT_MONOTONE, networks[i])
            for i in np.repeat(np.arange(len(networks)), bad).tolist()]


def equivalence_vector_violations(block: ProfileBlock) -> list[list[Violation]]:
    """Both equivalence vectors must be constant between each network of the
    block and its closure, then its min extension."""
    related, at = block.related()
    found = []
    for partner in ("closure", "min_extension"):
        for check, rows in (("trapspace-equivalence", trapspace_equivalence_rows),
                            ("min-trapspace-equivalence", min_equivalence_rows)):
            vectors = rows(block, slice(None), related, at[partner])
            found.append(block_violations(block, check, [_mixed(vectors, "mixed vector ")]))
    return _concat(found)


def collection_roundtrip_violations(block: ProfileBlock) -> list[list[Violation]]:
    """Realisation, union-closure and pointwise-reduction round-trips of each
    network of the block: a collection round-trips when its realisation's
    row of the related block has it."""
    related, at = block.related(realisations=True)
    realised = block["realisations"]

    return block_violations(block, "collections", (
        (~block["pre_principal"], "principal trapspaces are not pre-principal"),
        (~block["mu_fixes_p"], "principal trapspaces not fixed by pointwise reduction"),
        (~block["pre_ideal"], "trapspaces are not pre-ideal"),
        (~_same(realised["P"], block["closures"]),
         "realizing the principal collection misses the closure"),
        (~_same(realised["J"], block["closures"]),
         "realizing the trapspace collection misses the closure"),
        (~_kept("P", block, related, at["P"]),
         "principal collection does not round-trip through realization"),
        (~_kept("J", block, related, at["J"]),
         "trapspace collection does not round-trip through realization"),
        (~block["lambda_p_is_j"], "union closure of principal trapspaces misses the trapspaces"),
        (~block["mu_j_is_p"], "pointwise reduction of trapspaces misses the principal ones"),
        (~block["mu_lambda_invert"],
         "union closure and pointwise reduction do not invert each other"),
        (~block["min_ideal"], "minimal trapspaces are not pairwise disjoint"),
        (~_same(realised["N"], block["min_extensions"]),
         "realizing the minimal collection misses the min extension"),
        (~_kept("N", block, related, at["N"]),
         "minimal collection does not round-trip through realization"),
        (block["min_trapping"] & ~_same(realised["N"], block.images),
         "min-trapping network is not recovered from its minimal trapspaces"),
    ))


def dynamics_claim_violations(block: ProfileBlock) -> list[list[Violation]]:
    """Transient and period facts for trapping networks, and the
    dynamically-local flag against f^3 = f, of each network of the block."""
    images, n = block.images, block.n
    moving = block["trapping"] & ~_same(power_rows(images, n + 2), power_rows(images, n))
    # A cycle whose length does not divide 2 moves its points between f^n
    # and f^(n+2), so a row that moves none has period 1 or 2.
    periods = [transient_and_period(block.network(i))[1] if t else 0
               for i, t in enumerate(moving.tolist())]
    return block_violations(block, "transient", (
        (moving, "trapping network with long transient"),
        ([period > 2 for period in periods], lambda i: f"trapping network with period {periods[i]}"),
        (block["dynamically_local"] != _same(power_rows(images, 3), images),
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
    problems = distance_bound_rows(block.images, block.n, block["intervals"])
    realized = commutative_rows(block["realisations"]["P"], block.n)
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
    network by network and, for each, check by check.  The block and its
    related block are freed on return, before the next block's are built."""
    block = ProfileBlock.of(nets)
    return [[v for found in _concat([check(block) for check in checks]) for v in found]
            for checks in sections]


def run_verification(
    networks: list[BooleanNetwork],
    suite: str = "all",
    every_pair: bool = False,
) -> list[Violation]:
    """Run the requested suite over the population; returns all violations.

    Each section runs its per-network checks block by block
    (``_check_block``), then once its check that spans networks; see
    ``monotone_closure_violations`` for ``every_pair``.  The violations come
    in this order: theorems, closure laws and monotonicity, then per diagram
    the implications and the counterexample fixtures.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")

    # (suite, per-network checks, check spanning networks) of each section;
    # built here, so a check rebound in this module is the one that runs.
    sections = [
        ("theorems", (alternate_definition_violations, collection_roundtrip_violations,
                      dynamics_claim_violations, commutative_claim_violations,
                      hierarchy_violations, equivalence_vector_violations), lambda: []),
        ("closure", (closure_law_violations,),
         functools.partial(monotone_closure_violations, networks, every_pair)),
        *(("diagrams", (functools.partial(implication_violations, d),),
           functools.partial(diagram_counterexample_violations, d)) for d in DIAGRAMS.values()),
    ]
    sections = [section for section in sections if suite in ("all", section[0])]
    found = [[] for _ in sections]
    for nets in population_blocks(networks):
        for out, violations in zip(found, _check_block(nets, [s[1] for s in sections])):
            out += violations
    return [v for (_, _, once), out in zip(sections, found) for v in out + once()]
