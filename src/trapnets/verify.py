"""Population-level verification of the library's structural claims.

The suites sweep whole populations of networks (exhaustive up to the
``exhaustive`` cap, sampled above) and report violations of the class
equivalences, the closure-operator laws, the collection round-trips and the
implication diagrams.  Any violation carries the offending network so it can be dumped
as a ready-to-run truth-table reproducer.

Networks are independent of each other, so ``run_verification`` checks the
population in contiguous chunks, one per CPU of the process's affinity mask
(one chunk where ``os.fork`` or the mask is missing).  The calling process
checks the first chunk and a forked child each other one; the results are
joined in chunk order, so the violations, and their order, do not depend on
the number of chunks.  The checks that span networks (monotonicity pairs)
and the diagrams' fixture counterexamples then run once, in the caller.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .classes import (
    DIAGRAMS,
    NetworkProfile,
    THEOREM_SIZES,
    check_alternate_definitions,
    diagram_counterexample_violations,
    diagram_implication_violations,
    min_trapspace_equivalent,
    trapspace_equivalent,
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


def _check_chunk(networks: list[BooleanNetwork], suite: str):
    """Every per-network check of ``suite`` on a run of the population, one
    profile at a time.

    Returns the theorem violations, the closure-law violations, the closure
    of each network (for the monotonicity pairs) and, per diagram of
    ``DIAGRAMS``, the implication violations, each in population order.
    """
    theorems, laws, closures = [], [], []
    implications = [[] for _ in DIAGRAMS]
    for f in networks:
        p = NetworkProfile(f)
        profile = _related_profiles(p)
        if suite in ("all", "theorems"):
            theorems += alternate_definition_violations(p)
            theorems += collection_roundtrip_violations(p, profile)
            theorems += dynamics_claim_violations(p)
            theorems += commutative_claim_violations(p)
            theorems += hierarchy_violations(p)
            theorems += equivalence_vector_violations(p, profile(p.closure))
            theorems += equivalence_vector_violations(p, profile(p.min_extension))
        if suite in ("all", "closure"):
            laws += closure_law_violations(p, profile)
            closures.append(p.closure)
        if suite in ("all", "diagrams"):
            for out, diagram in zip(implications, DIAGRAMS.values()):
                out += _diagram_violations(diagram_implication_violations(diagram, p))
    return theorems, laws, closures, implications


def _diagram_violations(found) -> list[Violation]:
    return [Violation(f"diagram-{v.diagram}", f"{v.kind}: {v.detail}", v.network)
            for v in found]


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask; 1 where fork or the mask is missing."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _child(work, chunk, w: int, inherited: list[int]) -> None:
    """Body of a forked child: send ``work(chunk)`` or its exception down pipe
    ``w``, then ``os._exit``, so that no exit handler of the parent runs."""
    import pickle
    import traceback

    status = 1
    try:
        for fd in inherited:  # read ends: the parent's must be the last reader
            os.close(fd)
        try:
            message = ("ok", work(chunk))
        except BaseException as exc:  # re-raised by the parent
            message = ("raised", exc, traceback.format_exc())
        try:
            data = pickle.dumps(message)
        except Exception as exc:
            text = message[2] if message[0] == "raised" else ""
            data = pickle.dumps(("raised", RuntimeError(f"cannot send result: {exc!r}"), text))
        with open(w, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _map_chunks(work, chunks: list) -> list:
    """``[work(c) for c in chunks]``: chunks[0] here, each other one in a
    forked child that pickles its result, or its exception, into a pipe.

    An exception in any chunk is raised here, after every child is gone.  A
    child whose parent has died fails on its write to the pipe, which nothing
    reads any more, and exits: it never outlives its own chunk.  Children are
    forked, not spawned, because a spawned one imports numpy and the package
    again (about 0.3 s, the whole gain of a sampled call at n = 6) and the
    work is a closure over networks already in memory.
    """
    if len(chunks) == 1:
        return [work(chunks[0])]
    import pickle
    import signal
    import warnings

    children = []  # (pid, read end of its pipe)
    try:
        for chunk in chunks[1:]:
            r, w = os.pipe()
            with warnings.catch_warnings():
                # Python 3.12+ warns that fork in a multi-threaded process may
                # deadlock the child.  The only other threads here are numpy's
                # OpenBLAS pool: OpenBLAS shuts it down around fork with its
                # own pthread_atfork handler, and the checks call no BLAS
                # routine anyway.  Silenced so that stderr stays the same on
                # every Python version and under -W error.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                _child(work, chunk, w, [r] + [fd for _, fd in children])
            os.close(w)
            children.append((pid, r))
        results = [work(chunks[0])]
        for pid, r in children:
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            if not data:
                raise RuntimeError(f"verification worker {pid} ended without a result")
            message = pickle.loads(data)
            if message[0] == "raised":
                raise message[1] from RuntimeError(f"in worker {pid}:\n{message[2]}")
            results.append(message[1])
        return results
    finally:
        # A child that has sent its result is exiting anyway; any other one is
        # no longer wanted.
        for pid, r in children:
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_verification(
    networks: list[BooleanNetwork],
    suite: str = "all",
    monotonicity_pairs: list[tuple[BooleanNetwork, BooleanNetwork]] | None = None,
) -> list[Violation]:
    """Run the requested suite over the population; returns all violations.

    The per-network checks run on contiguous chunks of the population, one
    chunk per usable CPU; the violations come in the same order whatever the
    number of chunks: theorems, closure laws and monotonicity, then per
    diagram the implications and the counterexample fixtures.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    k = max(1, min(_usable_cpus(), len(networks)))
    bounds = [len(networks) * i // k for i in range(k + 1)]
    chunks = [networks[a:b] for a, b in zip(bounds, bounds[1:])]
    results = _map_chunks(lambda chunk: _check_chunk(chunk, suite), chunks)
    theorems, laws, closed, implications = zip(*results)
    violations = [v for part in theorems + laws for v in part]
    if suite in ("all", "closure"):
        closures = dict(zip(networks, (c for part in closed for c in part)))
        if monotonicity_pairs is None:
            monotonicity_pairs = [
                (f, lattice_combine(f, g, "join")) for f, g in zip(networks, networks[1:])
            ]
        for f, g in monotonicity_pairs:
            cf = closures[f] if f in closures else trapping_closure(f)
            cg = closures[g] if g in closures else trapping_closure(g)
            violations += monotonicity_violations(f, g, cf, cg)
    if suite in ("all", "diagrams"):
        for d, diagram in enumerate(DIAGRAMS.values()):
            violations += [v for part in implications for v in part[d]]
            violations += _diagram_violations(diagram_counterexample_violations(diagram))
    return violations
