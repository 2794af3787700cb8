"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 1 note: the worked example's trapspace collection is frozen from
the 27-subcube brute-force oracle, which yields nine trapspaces (the union
of the fixed points 100 and 101 is a trapspace the usual narrative around
this example omits); the two named non-principal cubes are asserted
present and the whole collection is compared by set equality, which is
stronger than the stated count.
"""

import time

from trapnets import (
    BooleanNetwork,
    DIAGRAMS,
    NetworkProfile,
    build_graph,
    enumerate_trapspaces,
    exhaustive_networks,
    load_fixture,
    min_trapspace_equivalent,
    min_trapping_extension,
    network_power,
    order_leq,
    parse_truth_table,
    principal_trapspace,
    random_network,
    run_verification,
    sample_population,
    trapping_closure,
    trapping_graph,
    transient_and_period,
    trapspace_equivalent,
)
from trapnets.generators import long_transient_trapping, random_commutative
from trapnets.netio import export_dot, network_to_text
from trapnets.classes import ProfileBlock
from trapnets.verify import distance_bound_rows

from helpers import brute_force_trapspaces, cfg, cube, f_ex3


def report(name: str, ok: bool, extra: str = ""):
    print(f"{name}: {'PASS' if ok else 'FAIL'}{' (' + extra + ')' if extra else ''}")
    assert ok, name


def test_ac1_worked_example():
    t0 = time.perf_counter()
    f = f_ex3()

    expected_principal = {
        "000": "**0", "001": "***", "010": "**0", "011": "***",
        "100": "100", "101": "101", "110": "110", "111": "11*",
    }
    principal_ok = all(
        principal_trapspace(f, cfg(x)) == cube(t) for x, t in expected_principal.items()
    )

    collection = enumerate_trapspaces(f)
    oracle = brute_force_trapspaces(f)
    collection_ok = (
        set(collection.members) == oracle
        and cube("1*0") in collection.members
        and cube("1**") in collection.members
        and len(collection) == 9  # oracle count; the stated 8 undercounts
    )

    a = build_graph(f, "asynchronous")
    ga = build_graph(f, "general")
    extras = {
        (x, y) for x, y in ga.arcs(include_loops=False) if not a.out[x] >> y & 1
    }
    expected_extras = {
        (cfg("000").bits, cfg("110").bits),
        (cfg("001").bits, cfg("100").bits),
        (cfg("011").bits, cfg("110").bits),
    }
    ga_ok = extras == expected_extras

    tg_ok = trapping_graph(f) == build_graph(trapping_closure(f), "general")

    elapsed = time.perf_counter() - t0
    report(
        "AC1 worked example",
        principal_ok and collection_ok and ga_ok and tg_ok and elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


def test_ac2_exhaustive_two_coordinates():
    t0 = time.perf_counter()
    nets = exhaustive_networks(2)
    violations = run_verification(nets, "all", every_pair=True)
    elapsed = time.perf_counter() - t0
    for v in violations[:5]:
        print("  violation:", v.check, v.detail, v.network.image)
    report(
        "AC2 exhaustive n=2 sweep",
        not violations and elapsed < 30.0,
        f"{len(nets)} networks, {elapsed:.1f}s",
    )


def test_ac3_sampled_dimensions():
    t0 = time.perf_counter()
    total_violations = []
    counts = []
    for n in (3, 4, 5):
        nets = sample_population(n, 1000, seed=2024 + n)
        randoms = 1000
        generated = len(nets) - randoms
        assert randoms >= 1000 and generated >= 200
        counts.append(f"n={n}:{len(nets)}")
        total_violations += run_verification(nets, "all")
    elapsed = time.perf_counter() - t0
    for v in total_violations[:5]:
        print("  violation:", v.check, v.detail, v.network.image)
    report(
        "AC3 sampled n=3..5 sweep",
        not total_violations and elapsed < 120.0,
        f"{' '.join(counts)}, {elapsed:.1f}s",
    )


def test_ac4_counterexample_fixtures():
    ok = True
    for diagram in DIAGRAMS.values():
        for ce in diagram.counterexamples:
            p = NetworkProfile(load_fixture(diagram.id, ce.label))
            good = p.prop(ce.guard) and p.prop(ce.source) and not p.prop(ce.target)
            if not good:
                print(f"  fixture {diagram.id}/{ce.label} does not refute its arrow")
                ok = False

    min_a = load_fixture("minimal", "min_pair_a")
    min_b = load_fixture("minimal", "min_pair_b")
    ok &= min_trapspace_equivalent(min_a, min_b) == (True,) * 4
    ok &= trapspace_equivalent(min_a, min_b) == (False,) * 5

    low = load_fixture("minimal", "mono_low")
    high = load_fixture("minimal", "mono_high")
    ok &= order_leq(low, high)
    ok &= not order_leq(min_trapping_extension(low), min_trapping_extension(high))

    report("AC4 counterexample fixtures", ok, "17 diagram fixtures + two pairs")


def test_ac5_transients_and_periods():
    ok = True
    for n in range(3, 11):
        f = long_transient_trapping(n)
        if transient_and_period(f) != (n, 2):
            ok = False
            print(f"  long-transient construction broken at n={n}")
        if not NetworkProfile(f).trapping:
            ok = False
            print(f"  long-transient construction not trapping at n={n}")

    populations = [(2, exhaustive_networks(2))]
    for n in (3, 4, 5):
        populations.append((n, sample_population(n, 150, seed=99 + n)))
    checked = 0
    for n, nets in populations:
        for f in nets:
            if not NetworkProfile(f).trapping:
                continue
            checked += 1
            if network_power(f, n + 2) != network_power(f, n):
                ok = False
                print(f"  power law fails for {f.image}")
            if transient_and_period(f)[1] > 2:
                ok = False
                print(f"  period above two for {f.image}")
    report("AC5 transient/period facts", ok, f"{checked} trapping networks")


def test_ac6_distance_bound_on_commutative_networks():
    samples = []
    for n in (2, 3, 4, 5):
        for seed in range(130):
            samples.append(random_commutative(n, seed * 7 + n, parts=1 + seed % 3))
    assert len(samples) >= 500
    bad = []
    for n in (2, 3, 4, 5):
        nets = [f for f in samples if f.n == n]
        block = ProfileBlock.of(nets)
        problems = distance_bound_rows(block.images, n, block["intervals"])
        bad += [f for f, problem in zip(nets, problems) if problem is not None]
    for f in bad[:3]:
        print("  distance bound fails:", f.image)
    report("AC6 distance bound", not bad, f"{len(samples)} commutative samples")


def test_ac7_io_roundtrips():
    ok = True
    nets = [f_ex3(), BooleanNetwork.identity(3), BooleanNetwork.negation(2)]
    nets += [random_network(n, s) for n in (1, 3, 5) for s in range(3)]
    for f in nets:
        text = network_to_text(f)
        g = parse_truth_table(text)
        ok &= g == f  # parse . write is the in-memory identity
        ok &= network_to_text(g) == text  # write . parse fixes canonical text

    f = f_ex3()
    layers = [build_graph(f, "asynchronous"), build_graph(f, "general"), trapping_graph(f)]
    first = export_dot(layers)
    rebuilt = [build_graph(f, "asynchronous"), build_graph(f, "general"), trapping_graph(f)]
    ok &= export_dot(rebuilt) == first

    report("AC7 I/O round-trips", ok)


def test_ac8_performance_floor():
    from trapnets.trapspaces import principal_pair

    f = random_network(16, 5)
    principal_pair(f, 0)  # warm-up
    worst = 0.0
    for x in range(0, 1 << 16, 2729):
        t0 = time.perf_counter()
        principal_pair(f, x)
        worst = max(worst, time.perf_counter() - t0)

    g = random_network(10, 6)
    t0 = time.perf_counter()
    enumerate_trapspaces(g)
    enum_time = time.perf_counter() - t0

    report(
        "AC8 performance floor",
        worst < 0.1 and enum_time < 5.0,
        f"principal n=16 worst {worst * 1000:.1f}ms, enumerate n=10 {enum_time:.2f}s",
    )
