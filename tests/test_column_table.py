"""The class layer's column table: every column that a check, a diagram, a
class flag or ``analyze`` reads is filled by one kernel of ``KERNELS``, and
every column that ``verify --suite all`` fills is checked by it.  Every
fact of a block, a ``STACKS`` array or a column, is filled once, by
``ProfileBlock._fill``."""

from collections import Counter, defaultdict

import numpy as np

from trapnets import NetworkProfile, cli
from trapnets.classes import (
    CLASS_FLAGS,
    COLUMNS,
    DIAGRAMS,
    FILLS,
    KERNELS,
    STACKS,
    VECTORS,
    ProfileBlock,
)
from trapnets.dynamics import GRAPH_PROPERTIES
from trapnets.generators import random_network
from trapnets.netio import network_to_text
from trapnets.verify import run_verification, sample_population


def test_every_read_column_is_a_table_key(monkeypatch):
    assert sum(map(len, KERNELS)) == len(COLUMNS)  # no column in two kernels
    read = {name for names in VECTORS.values() for name in names}
    for diagram in DIAGRAMS.values():
        read.update(name for e in diagram.edges for name in (e.source, e.target, e.guard))
        read.update(name for ce in diagram.counterexamples
                    for name in (ce.source, ce.target, ce.guard))
    printed, prop = [], NetworkProfile.prop
    monkeypatch.setattr(NetworkProfile, "prop",
                        lambda self, name: (printed.append(name), prop(self, name))[1])
    report = cli._analysis_report(random_network(3, 1), "net", minimal_only=False)
    assert {f"{p.replace('-', '_')}_{kind}" for p in GRAPH_PROPERTIES
            for kind in ("a", "ga", "tg")} <= set(printed)
    assert list(report["classes"]) == list(CLASS_FLAGS)
    assert read | set(printed) | set(CLASS_FLAGS) <= COLUMNS.keys()


def test_each_kernel_fills_exactly_its_columns():
    block = ProfileBlock.of([random_network(3, 2)])
    for names, kernel in KERNELS.items():
        filled = kernel(block)
        if len(names) > 1:
            assert list(filled) == list(names)
            assert all(column.dtype == bool and column.shape == (1,) for column in filled.values())
        else:
            assert filled.dtype == bool and filled.shape == (1,), names


# The columns whose negation no check of ``--suite all`` sees, with why.
UNCHECKED = {
    # Asynchronous transitivity does not imply trapping, so no claim reads
    # it (``test_classes.py::test_asynchronous_transitivity_does_not_imply_trapping``);
    # ``analyze`` prints it.
    "transitive_a",
}


def test_every_column_is_checked_under_the_all_suite(monkeypatch):
    # Each column in turn is negated on the networks with an image sum
    # divisible by 3, as ``PerturbedClasses`` does, in every block: those of
    # the population and of the fixtures, which build their own.
    nets = sample_population(3, 20, 5) + sample_population(4, 10, 7)
    assert run_verification(nets, "all") == []
    fill, unchecked = ProfileBlock._fill, set()
    for column in COLUMNS:

        def flipped(self, name, column=column):
            filled = fill(self, name)
            if column in filled:
                chosen = self.images.sum(axis=1) % 3 == 0
                filled = {**filled, column: filled[column] ^ chosen}
            return filled

        with monkeypatch.context() as patch:
            patch.setattr(ProfileBlock, "_fill", flipped)
            if not run_verification(nets, "all"):
                unchecked.add(column)
    assert unchecked == UNCHECKED


STACK_NAMES = {name for names in STACKS for name in names}


def recorded_fills(monkeypatch):
    """By block, the names each ``_fill`` call returned and the names read."""
    fills, reads = defaultdict(list), defaultdict(set)
    fill, get = ProfileBlock._fill, ProfileBlock.__getitem__

    def counting(self, name):
        filled = fill(self, name)
        fills[self].extend(filled)
        return filled

    def reading(self, name):
        reads[self].add(name)
        return get(self, name)

    monkeypatch.setattr(ProfileBlock, "_fill", counting)
    monkeypatch.setattr(ProfileBlock, "__getitem__", reading)
    return fills, reads


def assert_each_read_filled_once(fills, reads) -> set:
    """Every name a block reads was filled by its ``_fill``, no name twice;
    returns the names read over all blocks."""
    assert reads and reads.keys() <= fills.keys()
    for block, filled in fills.items():
        assert max(Counter(filled).values()) == 1
        assert reads[block] <= set(filled) <= FILLS.keys()
    return set().union(*reads.values())


def test_every_fact_a_verify_run_reads_is_filled_once_by_fill(monkeypatch):
    assert sum(map(len, STACKS)) + sum(map(len, KERNELS)) == len(FILLS)  # no name twice
    fills, reads = recorded_fills(monkeypatch)
    assert run_verification(sample_population(4, 30, 1), "all") == []
    read = assert_each_read_filled_once(fills, reads)
    assert STACK_NAMES | set(CLASS_FLAGS) <= read


def test_every_fact_analyze_reads_is_filled_once_by_fill(monkeypatch, tmp_path, capsys):
    path = tmp_path / "net.tt"
    path.write_text(network_to_text(random_network(5, 3)))
    fills, reads = recorded_fills(monkeypatch)
    assert cli.main(["analyze", str(path), "--format", "json"]) == 0
    read = assert_each_read_filled_once(fills, reads)
    assert {"principal", "trapspaces", "minimal", "covered", "J"} <= read
    assert set(CLASS_FLAGS) <= read
    assert capsys.readouterr().out


def test_each_stack_has_its_documented_shape():
    nets = sample_population(3, 6, 2)
    k, size, cubes = len(nets), 1 << 3, 3**3
    block = ProfileBlock.of(nets)
    facts = {name: block[name] for name in STACK_NAMES}
    for name in ("covered", "closures", "min_extensions"):
        assert facts[name].shape == (k, size), name
    for name in ("trapspaces", "P", "J", "N"):
        assert facts[name].shape == (k, cubes) and facts[name].dtype == bool, name
    for name in ("principal", "async_components"):
        assert len(facts[name]) == 2 and all(a.shape == (k, size) for a in facts[name])
    assert list(facts["realisations"]) == ["P", "J", "N"]
    assert all(a.shape == (k, size) for a in facts["realisations"].values())
    index, free, base = facts["minimal"]
    assert index.ndim == 1 and index.shape == free.shape == base.shape
    assert np.all(np.diff(index) >= 0) and set(index.tolist()) == set(range(k))
    assert facts["pt_distinct"].shape == (k,)
    at, s = facts["intervals"]
    assert at.ndim == 1 and at.shape == s.shape
