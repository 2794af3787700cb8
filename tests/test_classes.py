from collections import Counter

import numpy as np
import pytest

from trapnets import (
    CAPS,
    BooleanNetwork,
    DIAGRAMS,
    SubcubeCollection,
    NetworkProfile,
    check_alternate_definitions,
    classify_collection,
    classify_network,
    enumerate_trapspaces,
    is_commutative,
    lambda_closure,
    load_fixture,
    min_trapspace_equivalent,
    min_trapping_extension,
    minimal_trapspaces,
    random_network,
    trapping_closure,
    trapspace_equivalent,
    verify_diagram,
)
from trapnets.classes import (
    PAIR_THEOREMS,
    THEOREM_SIZES,
    Counterexample,
    DiagramSpec,
    ProfileBlock,
    Violation,
    pair_rows,
)
from trapnets.core import Mask, update_table
from trapnets.generators import (
    exhaustive_networks,
    long_transient_trapping,
    random_commutative,
    random_constant_on_arrangements,
    random_negation_on_subcubes,
)

from trapnets import classes, verify
from trapnets.trapspaces import TrapspaceBlock
from trapnets.verify import closure_law_violations, run_verification, sample_population

from helpers import (
    arcwise_graph_property,
    bitset_trapspace_fp,
    compose_word,
    brute_force_principals,
    brute_force_trapspaces,
    f_ex3,
    net_from_arcs,
    net_from_rows,
    oracle_population,
    pairwise_is_commutative,
    sampled_networks,
)


# --- classify_network


def test_negation_is_marseille():
    report = classify_network(BooleanNetwork.negation(3))
    assert report.marseille and report.trapping and report.globally_involutive
    assert report.commutative and report.bijective and report.involutive
    assert not report.lille and not report.fixable


def test_identity_is_lille():
    report = classify_network(BooleanNetwork.identity(3))
    assert report.lille and report.globally_idempotent and report.fixable
    assert report.trapspace_fp and report.interval_fp and report.interval_ufp
    assert report.min_trapping and report.dpt


def test_worked_example_is_not_trapping():
    report = classify_network(f_ex3())
    assert not report.trapping and not report.commutative
    assert report.fixable and report.trapspace_fp


def test_trapspace_fp_matches_bitset_oracle():
    for f in oracle_population():
        p = NetworkProfile(f)
        assert p.trapspace_fp == bitset_trapspace_fp(f)


@pytest.mark.parametrize("n", [14, 16])
def test_interval_fixed_point_flags_answer_above_the_enumeration_cap(n):
    # The interval flags read the fixed-point table alone, under the ``table``
    # cap; trapspace_fp also reads the trapspaces, capped at n = 13.
    full = (1 << n) - 1
    spread = np.arange(1 << n)
    spread[0] = full  # every other configuration is fixed, inside [0, full]
    for f, flags in (
        (BooleanNetwork.identity(n), (True, True)),
        (BooleanNetwork.negation(n), (False, False)),
        (random_constant_on_arrangements(n, 1), (True, True)),
        (BooleanNetwork(n, spread), (True, False)),
    ):
        p = NetworkProfile(f)
        assert (p.interval_fp, p.interval_ufp) == flags
        with pytest.raises(ValueError, match="capped at n=13"):
            p.trapspace_fp


def test_pt_distinct_counts_brute_force_principals():
    for f in [*exhaustive_networks(2), *sampled_networks(range(3, 5))]:
        assert NetworkProfile(f).block["pt_distinct"][0] == len(set(brute_force_principals(f)))


def test_long_transient_is_trapping_not_commutative():
    report = classify_network(long_transient_trapping(4))
    assert report.trapping and not report.commutative


def test_globally_sweep_dimension_cap():
    with pytest.raises(ValueError):
        classify_network(BooleanNetwork.identity(17))


def _empty_collection(n):
    return SubcubeCollection(n, np.zeros(3**n, dtype=bool))


# Each entry point runs as call(f) on the identity at the cap + 1.
CAPPED_ENTRY_POINTS = [
    pytest.param("enumeration", classify_network, id="classify_network-enumeration"),
    pytest.param("global_sweep", classify_network, id="classify_network-global_sweep"),
    *[
        pytest.param(
            "enumeration" if theorem == "sink_terminal5" else "pair_sweep",
            lambda f, theorem=theorem: check_alternate_definitions(f, theorem),
            id=theorem,
        )
        for theorem in THEOREM_SIZES
    ],
    pytest.param(
        "enumeration", lambda f: trapspace_equivalent(f, f), id="trapspace_equivalent"
    ),
    pytest.param(
        "table", lambda f: min_trapspace_equivalent(f, f), id="min_trapspace_equivalent"
    ),
    pytest.param("enumeration", enumerate_trapspaces, id="enumerate_trapspaces"),
    pytest.param("table", minimal_trapspaces, id="minimal_trapspaces"),
    pytest.param(
        "closure", lambda f: lambda_closure(_empty_collection(f.n)), id="lambda_closure"
    ),
    pytest.param(
        "closure", lambda f: classify_collection(_empty_collection(f.n)),
        id="classify_collection",
    ),
    pytest.param("exhaustive", lambda f: exhaustive_networks(f.n), id="exhaustive_networks"),
    pytest.param(
        "table", lambda f: SubcubeCollection(f.n, np.zeros(0, dtype=bool)),
        id="SubcubeCollection",
    ),
]


@pytest.mark.parametrize("kind, call", CAPPED_ENTRY_POINTS)
def test_capped_entry_points_refuse_before_any_work(monkeypatch, kind, call):
    # Every fact of a block is filled by ``_fill``.  A kernel may refuse at
    # its start, as the trapspace kernels do, but no fill may complete.
    fill = TrapspaceBlock._fill

    def fill_nothing(block, name):
        fill(block, name)
        raise AssertionError(f"{name!r} was filled before the refusal")

    monkeypatch.setattr(TrapspaceBlock, "_fill", fill_nothing)
    f = BooleanNetwork.identity(CAPS[kind] + 1)
    with pytest.raises(ValueError, match=r"is capped at n=\d+ and needs n >= 1"):
        call(f)


def test_cap_table_is_read_only():
    with pytest.raises(TypeError):
        CAPS["table"] = CAPS["table"] + 1


# --- alternate definitions


def _pair_condition_oracles(f):
    """Each subset-pair condition of ``pair_rows`` by a plain
    loop over every (s, t); comp updates s, then t."""
    xs = np.arange(1 << f.n, dtype=np.int64)
    U = [update_table(f.np_image, s, xs) for s in range(1 << f.n)]

    def leq(a, b):
        return bool(np.all(((xs ^ a) & ~(xs ^ b)) == 0))

    holds = dict.fromkeys(
        ("trapping7", "commutative3", "marseille4", "lille4", "globally_idempotent3"), True
    )
    for s in range(1 << f.n):
        for t in range(1 << f.n):
            comp = U[t][U[s]]
            holds["trapping7"] &= leq(comp, U[s | t])
            holds["commutative3"] &= leq(U[s ^ t], comp) and leq(comp, U[s | t])
            holds["marseille4"] &= bool(np.array_equal(comp, U[s ^ t]))
            holds["lille4"] &= bool(np.array_equal(comp, U[s | t]))
            holds["globally_idempotent3"] &= leq(U[s & t], comp) and leq(comp, U[s | t])
    return holds


def test_pair_flags_match_plain_loop_over_every_subset_pair():
    seen = set()
    networks = [*exhaustive_networks(1), *exhaustive_networks(2), *sampled_networks(range(3, 6))]
    for n in range(1, 6):
        nets = [f for f in networks if f.n == n]
        stacked = pair_rows(np.array([f.image for f in nets]), n)
        for i, f in enumerate(nets):
            flags = {t: bool(stacked[f"{t}.pairs"][i]) for t in PAIR_THEOREMS}
            alone = pair_rows(f.np_image[None], n)
            assert flags == {t: bool(alone[f"{t}.pairs"][0]) for t in PAIR_THEOREMS}
            assert flags == _pair_condition_oracles(f), f
            seen.update(flags.items())
    # Every condition both holds and fails somewhere in the population.
    assert len(seen) == 10


def test_negation_trapping7_all_true():
    assert check_alternate_definitions(BooleanNetwork.negation(3), "trapping7") == (True,) * 7


def test_worked_example_trapping7_all_false():
    assert check_alternate_definitions(f_ex3(), "trapping7") == (False,) * 7


def test_identity_lille4_all_true():
    assert check_alternate_definitions(BooleanNetwork.identity(3), "lille4") == (True,) * 4


def test_unknown_theorem_rejected():
    with pytest.raises(ValueError):
        check_alternate_definitions(f_ex3(), "trapping8")


def test_sweep_dimension_cap():
    with pytest.raises(ValueError):
        check_alternate_definitions(BooleanNetwork.identity(9), "trapping7")


@pytest.mark.parametrize(
    "theorem",
    ["trapping7", "commutative3", "marseille4", "lille4", "globally_idempotent3", "sink_terminal5"],
)
def test_vectors_constant_on_samples(theorem):
    for seed in range(40):
        f = random_network(3, seed)
        vector = check_alternate_definitions(f, theorem)
        assert len(set(vector)) == 1, (f.image, theorem, vector)
    for seed in range(10):
        f = random_commutative(3, seed)
        vector = check_alternate_definitions(f, theorem)
        assert len(set(vector)) == 1, (f.image, theorem, vector)


# --- equivalence vectors


def test_network_equivalent_to_its_closure():
    f = f_ex3()
    assert trapspace_equivalent(f, trapping_closure(f)) == (True,) * 5


def test_identity_negation_not_equivalent():
    assert trapspace_equivalent(BooleanNetwork.identity(2), BooleanNetwork.negation(2)) \
        == (False,) * 5
    assert min_trapspace_equivalent(BooleanNetwork.identity(2), BooleanNetwork.negation(2)) \
        == (False,) * 4


def test_network_equivalent_to_itself():
    f = f_ex3()
    assert trapspace_equivalent(f, f) == (True,) * 5


def test_min_pair_is_min_equivalent_only():
    a = net_from_arcs(2, ["00>10", "10>11"])
    b = net_from_arcs(2, ["00<>10", "10>11"])
    assert min_trapspace_equivalent(a, b) == (True,) * 4
    assert trapspace_equivalent(a, b) == (False,) * 5


def test_network_min_equivalent_to_extension():
    f = f_ex3()
    assert min_trapspace_equivalent(f, min_trapping_extension(f)) == (True,) * 4


def test_min_trapping_flag_finds_minimal_trapspaces_once(monkeypatch):
    import trapnets.trapspaces as trapspaces

    calls = []

    def counting_cover(*args):
        calls.append(args)
        return cover_rows(*args)

    cover_rows = trapspaces.cover_rows
    monkeypatch.setattr(trapspaces, "cover_rows", counting_cover)
    profile = NetworkProfile(f_ex3())
    assert len(profile.block["minimal"][1]) == 3
    assert len(profile.minimal[0]) == 3
    assert not profile.min_trapping
    assert len(calls) == 1


def test_equivalence_and_closure_law_match_collection_oracles():
    # Each network against its closure (same trapspaces), against the
    # previous network of its dimension and against a random one (mostly
    # different ones).  "Same trapping graph" compares the principal pairs;
    # its oracle compares the bitset graphs.
    previous = {}
    for seed, f in enumerate([*exhaustive_networks(1), *oracle_population()]):
        pf = NetworkProfile(f)
        assert closure_law_violations(pf.block) == [[]]
        for g in (pf.closure, previous.get(f.n), random_network(f.n, seed)):
            if g is None:
                continue
            pg = NetworkProfile(g)
            vector = trapspace_equivalent(f, g)
            same = brute_force_trapspaces(f) == brute_force_trapspaces(g)
            assert vector == (same,) * 5
            assert vector[3] == (pf.graph_tg == pg.graph_tg)
        previous[f.n] = f


def test_asynchronous_transitivity_does_not_imply_trapping():
    # No claim reads transitive_a: the asynchronous graph of 000 -> 110 is
    # 000's two neighbours, both fixed, but its general graph holds 110,
    # which moves on to 111.
    p = NetworkProfile(net_from_rows({"000": "110", "110": "111"} | {
        x: x for x in ("001", "010", "011", "100", "101", "111")
    }))
    assert p.prop("transitive_a") and not p.trapping
    assert arcwise_graph_property(p.graph_a, "transitive")
    assert not arcwise_graph_property(p.graph_ga, "transitive")


def test_equivalence_requires_same_dimension():
    with pytest.raises(ValueError):
        trapspace_equivalent(BooleanNetwork.identity(2), BooleanNetwork.identity(3))


# --- diagrams


def test_all_fixtures_load_and_refute():
    for diagram in DIAGRAMS.values():
        for ce in diagram.counterexamples:
            net = load_fixture(diagram.id, ce.label)
            p = NetworkProfile(net)
            assert p.prop(ce.guard), (diagram.id, ce.label)
            assert p.prop(ce.source), (diagram.id, ce.label)
            assert not p.prop(ce.target), (diagram.id, ce.label)


# The predicates are read off the graphs' rows; the worked example's general
# graph is not transitive, so it alone is built, by its block, for its SCCs,
# and only for a predicate that reads them.
@pytest.mark.parametrize("tail, built", [("a", []), ("ga", ["general"]), ("tg", [])])
def test_graph_prop_builds_only_its_graph(monkeypatch, tail, built):
    import trapnets.classes as classes

    kinds, build = [], classes.build_graph
    monkeypatch.setattr(classes, "build_graph",
                        lambda f, kind: (kinds.append(kind), build(f, kind))[1])
    p = NetworkProfile(f_ex3())
    lazy = {"graph_a", "graph_ga", "pt_pairs", "graph_tg"}
    for prop in ("reflexive", "symmetric", "transitive"):
        p.prop(f"{prop}_{tail}")
    assert kinds == []
    p.prop(f"oriented_{tail}")
    assert kinds == built
    assert lazy & vars(p).keys() == set()


def test_verify_diagram_counts_nothing_on_conforming_population():
    population = [random_network(3, seed) for seed in range(25)]
    population += [random_commutative(3, seed) for seed in range(10)]
    for diagram in DIAGRAMS.values():
        assert verify_diagram(diagram, population) == []


def test_verify_diagram_reports_implication_violation():
    # a doctored diagram with a false implication must flag the witness
    from trapnets.classes import DiagramEdge

    bogus = DiagramSpec(
        "symmetric",
        (DiagramEdge("bijective", "involutive", "all"),),
        tuple(),
    )
    four_cycle = net_from_arcs(2, ["00>10", "10>11", "11>01", "01>00"])
    violations = verify_diagram(bogus, [four_cycle])
    assert violations == [
        Violation("diagram-symmetric", "implication: bijective [all] -> involutive", four_cycle)
    ]


def test_verify_diagram_reports_a_fixture_that_fails_to_refute():
    # Fixture a refutes symmetric_tg -> symmetric_a, not its converse.
    bogus = DiagramSpec(
        "symmetric",
        tuple(),
        (Counterexample("a", "symmetric_a", "all", "symmetric_tg"),),
    )
    detail = "counterexample: fixture a fails to refute symmetric_a [all] -> symmetric_tg"
    assert verify_diagram(bogus, []) == [
        Violation("diagram-symmetric", detail, load_fixture("symmetric", "a"))
    ]


def test_missing_fixture_raises():
    bogus = DiagramSpec(
        "symmetric",
        tuple(),
        (Counterexample("zz", "bijective", "all", "involutive"),),
    )
    with pytest.raises(FileNotFoundError, match="missing fixture"):
        verify_diagram(bogus, [])


def test_fixture_headers_name_the_implication():
    import importlib.resources

    root = importlib.resources.files("trapnets") / "fixtures"
    for diagram in DIAGRAMS.values():
        for ce in diagram.counterexamples:
            text = (root / diagram.id / f"{ce.label}.tt").read_text()
            first = text.splitlines()[0]
            assert first.startswith("#") and ce.source in first and ce.target in first


# --- commutativity helper


def test_is_commutative_matches_update_composition():
    randoms = [random_network(3, seed) for seed in range(15)]
    for f in randoms + exhaustive_networks(2) + list(sampled_networks()):
        direct = all(
            compose_word(f, [Mask.from_coords(f.n, [i]), Mask.from_coords(f.n, [j])])
            == compose_word(f, [Mask.from_coords(f.n, [j]), Mask.from_coords(f.n, [i])])
            for i in range(1, f.n + 1)
            for j in range(1, f.n + 1)
        )
        assert is_commutative(f) == direct


def test_is_commutative_matches_pairwise_oracle():
    nets = exhaustive_networks(2) + list(sampled_networks(range(3, 7)))
    for n in range(10, 15):
        nets += [random_network(n, n), random_commutative(n, n),
                 random_negation_on_subcubes(n, n), random_constant_on_arrangements(n, n),
                 long_transient_trapping(n), BooleanNetwork.negation(n)]
    # one image entry of each commutative network moved by one coordinate
    for f in [f for f in nets if f.n >= 3 and is_commutative(f)]:
        image = list(f.image)
        image[5] ^= 1 << (f.n - 1)
        nets.append(BooleanNetwork(f.n, tuple(image)))
    verdicts = [is_commutative(f) for f in nets]
    assert verdicts == [pairwise_is_commutative(f) for f in nets]
    assert 0 < sum(verdicts) < len(nets)


# --- verify orchestration


def test_run_verification_builds_one_profile_per_distinct_network_of_a_block(monkeypatch):
    # The checks of a block read one row per network, and one row of its
    # related block per distinct network among their closures, their min
    # extensions and the realisations.
    built = []

    class CountingBlock(ProfileBlock):
        def __init__(self, images):
            super().__init__(images)
            built.extend(self.network(i) for i in range(len(images)))

    monkeypatch.setattr(verify, "ProfileBlock", CountingBlock)
    blocks, check = [], verify._check_block
    monkeypatch.setattr(verify, "_check_block", lambda *args: (blocks.append(1), check(*args))[1])
    nets = sample_population(4, 20, 1)
    for size in (len(nets), 5):
        monkeypatch.setattr(classes, "_block_size", lambda n: size)
        built.clear()
        blocks.clear()
        assert run_verification(nets) == []
        assert len(blocks) == -(-len(nets) // size)
        expected = []
        for start in range(0, len(nets), size):
            block = nets[start : start + size]
            related = {g for f in block for g in (trapping_closure(f), min_trapping_extension(f))}
            expected += block + list(related)
        assert Counter(built) == Counter(expected)
    # Closures and min extensions are shared across networks of one block.
    assert len(built) < 3 * len(nets)
