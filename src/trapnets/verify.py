"""Population-level verification of the library's structural claims.

The suites sweep whole populations of networks (exhaustive up to the
``exhaustive`` cap, sampled above) and report violations of the class
equivalences, the closure-operator laws, the collection round-trips and the
implication diagrams.  Any violation carries the offending network so it can be dumped
as a ready-to-run truth-table reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classes import (
    DIAGRAMS,
    NetworkProfile,
    THEOREM_SIZES,
    check_alternate_definitions,
    min_trapspace_equivalent,
    trapspace_equivalent,
    verify_diagram,
)
from .core import BooleanNetwork, is_commutative, iter_submasks, lattice_combine, order_leq
from .cubesets import (
    is_min_ideal,
    is_pre_ideal,
    lambda_closure,
    mu_reduction,
    realize,
)
from .dynamics import network_power, transient_and_period
from .generators import (
    long_transient_trapping,
    random_commutative,
    random_constant_on_arrangements,
    random_negation_on_subcubes,
)
from .trapspaces import trapping_closure

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


def alternate_definition_violations(p: NetworkProfile) -> list[Violation]:
    """Every alternate-definition vector must be constant."""
    out = []
    for theorem in THEOREM_SIZES:
        vector = check_alternate_definitions(p.f, theorem, p)
        if len(set(vector)) != 1:
            out.append(
                Violation(
                    "alternate-definitions",
                    f"{theorem} vector is mixed: {vector}",
                    p.f,
                )
            )
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
    if p.graph_tg != pt_closure.graph_ga or p.graph_tg != pt_closure.graph_tg:
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


def monotonicity_violations(
    f: BooleanNetwork, g: BooleanNetwork,
    closed_f: BooleanNetwork, closed_g: BooleanNetwork,
) -> list[Violation]:
    if order_leq(f, g) and not order_leq(closed_f, closed_g):
        return [Violation("closure", "trapping closure is not monotone on this pair", f)]
    return []


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


def collection_roundtrip_violations(p: NetworkProfile, profile=NetworkProfile) -> list[Violation]:
    """Realisation, union-closure and pointwise-reduction round-trips."""
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
    if not is_pre_ideal(ideals):
        bad("trapspaces are not pre-ideal")

    realized_q = realize(principal)
    realized_j = realize(ideals)
    if realized_q != p.closure:
        bad("realizing the principal collection misses the closure")
    if realized_j != p.closure:
        bad("realizing the trapspace collection misses the closure")
    if profile(realized_q).pt_collection != principal:
        bad("principal collection does not round-trip through realization")
    if profile(realized_j).trapspace_collection != ideals:
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
    if not is_min_ideal(minimal):
        bad("minimal trapspaces are not pairwise disjoint")
    realized_n = realize(minimal)
    if realized_n != p.min_extension:
        bad("realizing the minimal collection misses the min extension")
    if profile(realized_n).minimal[0] != minimal:
        bad("minimal collection does not round-trip through realization")
    if p.min_trapping and realized_n != f:
        bad("min-trapping network is not recovered from its minimal trapspaces")
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


def distance_bound_violation(f: BooleanNetwork) -> str | None:
    """Distance bound on commutative networks, with its equality case."""
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


def commutative_claim_violations(p: NetworkProfile) -> list[Violation]:
    out = []
    f = p.f
    if p.commutative:
        if not p.dynamically_local:
            out.append(Violation("commutative", "commutative but not dynamically local", f))
        problem = distance_bound_violation(f)
        if problem:
            out.append(Violation("commutative", problem, f))
        if not p.pt_flags.convex:
            out.append(
                Violation("commutative", "principal trapspaces are not convex", f)
            )
    if p.pt_flags.convex:
        if not is_commutative(realize(p.pt_collection)):
            out.append(
                Violation(
                    "commutative",
                    "convex principal collection realizes a non-commutative network",
                    f,
                )
            )
    return out


def hierarchy_violations(p: NetworkProfile) -> list[Violation]:
    """Class-containment facts not already edges of a single diagram."""
    out = []
    f = p.f

    def implies(a, b, name):
        if a and not b:
            out.append(Violation("hierarchy", name, f))

    g_bij, g_inv, g_idem = p.globally_flags
    implies(p.marseille, p.commutative, "marseille without commutative")
    implies(p.lille, p.commutative, "lille without commutative")
    implies(p.commutative, p.trapping, "commutative without trapping")
    implies(g_idem, p.trapping, "globally idempotent without trapping")
    if p.commutative:
        if not (p.bijective == p.locally_bijective == g_bij):
            out.append(Violation("hierarchy", "bijectivity variants split", f))
        if not (p.idempotent == p.locally_idempotent == g_idem):
            out.append(Violation("hierarchy", "idempotence variants split", f))
        implies(p.fixable, p.lille, "commutative fixable without lille")
    implies(p.marseille, g_inv, "marseille without globally involutive")
    implies(g_inv, p.prop("symmetric_ga"), "globally involutive without symmetric graph")
    implies(p.prop("symmetric_ga"), p.marseille, "symmetric graph without marseille")
    if p.trapping:
        implies(p.locally_bijective, p.marseille, "trapping locally bijective without marseille")
        implies(p.trapspace_fp, p.fixable, "trapping trapspace-fp without fixable")
    return out


# ---------------------------------------------------------------------------
# orchestration


def _related_profiles(p: NetworkProfile):
    """``profile(g)`` for the networks checked beside p (closure, min extension,
    realisations): p for p's network, else one profile each, built on first use."""
    known = {p.f: p}
    return lambda g: known[g] if g in known else known.setdefault(g, NetworkProfile(g))


def run_verification(
    networks: list[BooleanNetwork],
    suite: str = "all",
    monotonicity_pairs: list[tuple[BooleanNetwork, BooleanNetwork]] | None = None,
) -> list[Violation]:
    """Run the requested suite over the population; returns all violations."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    profiles = [NetworkProfile(f) for f in networks]
    violations: list[Violation] = []

    def want(name):
        return suite in ("all", name)

    closure_violations, closures = [], {}
    for p in profiles:
        profile = _related_profiles(p)
        if want("theorems"):
            violations += alternate_definition_violations(p)
            violations += collection_roundtrip_violations(p, profile)
            violations += dynamics_claim_violations(p)
            violations += commutative_claim_violations(p)
            violations += hierarchy_violations(p)
            violations += equivalence_vector_violations(p, profile(p.closure))
            violations += equivalence_vector_violations(p, profile(p.min_extension))
        if want("closure"):
            closure_violations += closure_law_violations(p, profile)
            closures[p.f] = p.closure
    violations += closure_violations
    if want("closure"):
        if monotonicity_pairs is None:
            monotonicity_pairs = []
            for p, q in zip(profiles, profiles[1:]):
                monotonicity_pairs.append((p.f, lattice_combine(p.f, q.f, "join")))
        for f, g in monotonicity_pairs:
            cf = closures[f] if f in closures else trapping_closure(f)
            cg = closures[g] if g in closures else trapping_closure(g)
            violations += monotonicity_violations(f, g, cf, cg)
    if want("diagrams"):
        for diagram in DIAGRAMS.values():
            violations += [
                Violation(f"diagram-{v.diagram}", f"{v.kind}: {v.detail}", v.network)
                for v in verify_diagram(diagram, profiles)
            ]
    return violations
