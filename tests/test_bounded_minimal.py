"""The minimal-only path in bounded memory: the batched principal loop
against the frontier oracle and against a single batch, the cover and the
transient within their memory bounds, and the report printers against
``json.dumps`` and the former text printer."""

import json
import tracemalloc

import numpy as np
import pytest

from trapnets import BooleanNetwork, cli, trapspaces
from trapnets.cli import _analysis_report, _print_json_report, _print_text_report, main
from trapnets.dynamics import transient_and_period
from trapnets.generators import (
    exhaustive_networks,
    long_transient_trapping,
    random_commutative,
    random_constant_on_arrangements,
    random_negation_on_subcubes,
    random_network,
)
from trapnets.netio import network_to_text
from trapnets.trapspaces import cover_rows, principal_pair, principal_rows
from trapnets.verify import sample_population

from helpers import (
    listed_report,
    listed_text_report,
    stepwise_transient_and_period,
)

GEN_KINDS = {
    "random": random_network,
    "commutative": random_commutative,
    "negation": random_negation_on_subcubes,
    "constant": random_constant_on_arrangements,
    "long-transient": lambda n, seed: long_transient_trapping(n),
}


def stack(networks) -> np.ndarray:
    return np.stack([f.np_image for f in networks])


def assert_rows_match_the_frontier(networks, n, configs=None):
    """``principal_rows`` of the stack equals ``principal_pair`` at every
    configuration of ``configs`` (all of them by default)."""
    free, base = principal_rows(stack(networks), n)
    for i, f in enumerate(networks):
        for x in range(1 << n) if configs is None else configs:
            assert principal_pair(f, x) == (free[i, x], base[i, x]), (i, x)
    return free, base


@pytest.mark.parametrize("batch", [1, 3, 16])
def test_batched_principal_rows_match_the_frontier_exhaustively(monkeypatch, batch):
    monkeypatch.setattr(trapspaces, "_BATCH", batch)
    for n in (1, 2):
        assert_rows_match_the_frontier(exhaustive_networks(n), n)


@pytest.mark.parametrize("digits", [1, 2, 9])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_batched_principal_rows_match_the_frontier_on_sampled_stacks(monkeypatch, n, digits):
    # Few ternary digits leave high coordinates, so the batches are ranges
    # of free high masks and the groups gather several rows.
    monkeypatch.setattr(trapspaces, "_TABLE_DIGITS", digits)
    monkeypatch.setattr(trapspaces, "_BATCH", 5)
    assert_rows_match_the_frontier(sample_population(n, 12, n), n)


@pytest.mark.parametrize("n, batch", [(12, 1 << 6), (16, 1 << 9)])
@pytest.mark.parametrize("kind", GEN_KINDS)
def test_batched_principal_rows_of_every_kind_at_large_n(monkeypatch, kind, n, batch):
    f = GEN_KINDS[kind](n, 1)
    whole = principal_rows(f.np_image[None], n)
    monkeypatch.setattr(trapspaces, "_BATCH", batch)
    configs = np.random.default_rng(n).integers(0, 1 << n, 12).tolist()
    free, base = assert_rows_match_the_frontier([f], n, configs)
    assert np.array_equal(free, whole[0]) and np.array_equal(base, whole[1])


def test_batches_split_no_group_of_free_high_masks(monkeypatch):
    # The batches are ranges of free high masks: a random network's groups
    # hold about 512 configurations at n = 16, so the loop gathers as many
    # rows in batches as in one batch.
    gathered = []
    submasks = trapspaces.iter_submasks

    def counting(mask):
        gathered.append(mask)
        return submasks(mask)

    monkeypatch.setattr(trapspaces, "iter_submasks", counting)
    f = random_network(16, 1)
    runs = []
    for batch in (trapspaces._BATCH, 1 << 20):
        monkeypatch.setattr(trapspaces, "_BATCH", batch)
        gathered.clear()
        runs.append((principal_rows(f.np_image[None], 16), sorted(gathered)))
    (batched, batched_groups), (whole, whole_groups) = runs
    assert batched_groups == whole_groups and len(whole_groups) > 100
    assert all(np.array_equal(a, b) for a, b in zip(batched, whole))


def traced_peak(fn, *args) -> int:
    """The most bytes ``fn(*args)`` holds at once beyond what it returns."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["random", "constant"])
def test_principal_cover_and_transient_stay_near_their_arrays_at_n16(kind):
    f = GEN_KINDS[kind](16, 1)
    free, base = principal_rows(f.np_image[None], 16)
    cover_rows(free, base, 16)  # fills the cached digit and bit-count tables
    table = 2 ** (16 - 9) * 3**9 * 2  # the stacked moved table, uint16
    # Measured at about the table plus 1 MiB; the loop over all 2^16
    # configurations at once held the table plus 2.5-3 MiB.
    assert traced_peak(principal_rows, f.np_image[None], 16) < table + (3 << 19)
    # The sort keys, the distinct runs and the three arrays of the up to
    # 2^16 minimal trapspaces returned: at most 2.8 MiB; np.unique held 4.6.
    assert traced_peak(cover_rows, free, base, 16) < 7 << 19
    # About eight int32 arrays over the configurations: 2.3-2.8 MiB, where the
    # ten squares of a random network's transient took it to 5.4 MiB.
    assert traced_peak(transient_and_period, f) < 13 << 18


def gray_chain(n: int) -> BooleanNetwork:
    """The Gray code walked to its last word, which is fixed: the longest
    tail a network of dimension n can have."""
    codes = np.arange(1 << n) ^ np.arange(1 << n) >> 1
    chain = np.empty(1 << n, dtype=np.int64)
    chain[codes] = np.append(codes[1:], codes[-1])
    return BooleanNetwork(n, chain)


def test_transient_of_the_longest_tails():
    # The stepwise oracle takes one step per unit of transient.
    for f in (gray_chain(11), long_transient_trapping(16)):
        assert transient_and_period(f) == stepwise_transient_and_period(f)
    assert transient_and_period(gray_chain(16)) == ((1 << 16) - 1, 1)


# --- the printers


NAME = 'dir/a "minimal_cubes": [] b.tt'


def assert_printers_match_the_former_ones(report, capsys):
    listed = listed_report(report)
    _print_json_report(report)
    assert capsys.readouterr().out == json.dumps(listed, indent=2) + "\n"
    _print_text_report(report)
    assert capsys.readouterr().out == listed_text_report(listed)


@pytest.mark.parametrize("minimal_only", [True, False])
@pytest.mark.parametrize("net", [
    BooleanNetwork.negation(4),  # one minimal trapspace, the whole cube
    BooleanNetwork.identity(5),  # every configuration a fixed point
    random_constant_on_arrangements(8, 1),
    random_network(8, 3),
])
def test_printers_match_json_dumps_and_the_former_text_printer(monkeypatch, capsys, net,
                                                              minimal_only):
    report = _analysis_report(net, NAME, minimal_only)
    assert ("classes" in report) != minimal_only
    assert_printers_match_the_former_ones(report, capsys)
    # Blocks of a few trapspaces, so that a list spans several writes.
    monkeypatch.setattr(cli, "_CUBES_PER_WRITE", 3)
    assert_printers_match_the_former_ones(report, capsys)


def test_printers_of_a_report_without_minimal_trapspaces(capsys):
    # No network has none; the printers still write an empty list.
    empty = np.zeros(0, dtype=np.int64)
    report = {"name": NAME, "n": 3, "transient": 0, "period": 1, "trapspaces": {
        "principal_distinct": 0, "minimal": 0, "min_configs": 0, "minimal_cubes": (empty, empty)}}
    assert_printers_match_the_former_ones(report, capsys)
    _print_json_report(report)
    assert '"minimal_cubes": []\n' in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_minimal_only_cli_at_n16_prints_every_minimal_trapspace(tmp_path, capsys, fmt):
    net = random_constant_on_arrangements(16, 1)
    path = tmp_path / "constant16.tt"
    path.write_text(network_to_text(net), encoding="utf-8")
    assert main(["analyze", str(path), "--minimal-only", "--format", fmt]) == 0
    out = capsys.readouterr().out
    report = listed_report(_analysis_report(net, str(path), minimal_only=True))
    assert report["trapspaces"]["minimal"] > 10 * cli._CUBES_PER_WRITE
    if fmt == "json":
        assert json.loads(out) == report
    else:
        assert out == listed_text_report(report)
