"""The class layer's column table: every column that a check, a diagram, a
class flag or ``analyze`` reads is filled by one kernel of ``KERNELS``, and
every column that ``verify --suite all`` fills is checked by it."""

import numpy as np

from trapnets import NetworkProfile, cli
from trapnets.classes import (
    CLASS_FLAGS,
    COLUMNS,
    DIAGRAMS,
    KERNELS,
    VECTORS,
    ProfileBlock,
)
from trapnets.dynamics import GRAPH_PROPERTIES
from trapnets.generators import random_network
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
