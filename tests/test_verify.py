"""`run_verification` in one process: the violations come section by
section, in population order within each, and nothing is forked."""

import os

import pytest

from trapnets import cli, verify
from trapnets.classes import DiagramViolation
from trapnets.verify import Violation, run_verification, sample_population


def flag_checks(monkeypatch, flagged):
    """One check per section reports every network of ``flagged`` (a list),
    with its index there; the real checks still run."""

    def index(f):
        return str(flagged.index(f)) if f in flagged else None

    def flag(out, f, violation):
        i = index(f)
        return out if i is None else out + [violation(i)]

    original_laws = verify.closure_law_violations

    def laws(p, *args):
        return flag(original_laws(p, *args), p.f, lambda i: Violation("flag-closure", i, p.f))

    # The class checks take a block and return one list per network.
    original_hierarchy = verify.hierarchy_violations

    def hierarchy(block):
        return [
            flag(out, p.f, lambda i, p=p: Violation("flag-theorem", i, p.f))
            for p, out in zip(block.profiles, original_hierarchy(block))
        ]

    original_implications = verify.implication_rows

    def implications(diagram, block):
        rows = original_implications(diagram, block)
        if diagram.id != "marseille":
            return rows
        return [
            flag(out, p.f, lambda i, p=p: DiagramViolation(diagram.id, "implication", i, p.f))
            for p, out in zip(block.profiles, rows)
        ]

    monkeypatch.setattr(verify, "closure_law_violations", laws)
    monkeypatch.setattr(verify, "hierarchy_violations", hierarchy)
    monkeypatch.setattr(verify, "implication_rows", implications)


@pytest.mark.parametrize("size", [0, 1, 2, 16])
def test_violations_keep_their_order_for_any_process_count(monkeypatch, size):
    nets = sample_population(3, 12, 5)[:size]
    assert len(set(nets)) == len(nets) == size
    flagged = [f for i, f in enumerate(nets) if i % 3 != 1]
    flag_checks(monkeypatch, flagged)
    expected = [("flag-theorem", str(i)) for i in range(len(flagged))]
    expected += [("flag-closure", str(i)) for i in range(len(flagged))]
    expected += [("diagram-marseille", f"implication: {i}") for i in range(len(flagged))]
    violations = run_verification(nets)
    assert [(v.check, v.detail) for v in violations] == expected
    assert [v.network for v in violations] == flagged * 3


class CheckFailed(Exception):
    pass


def test_exception_in_a_check_propagates_unchanged(monkeypatch):
    nets = sample_population(3, 12, 5)
    failure = CheckFailed("bad network")
    original = verify.dynamics_claim_violations

    def patched(p):
        if p.f == nets[-1]:
            raise failure
        return original(p)

    monkeypatch.setattr(verify, "dynamics_claim_violations", patched)
    with pytest.raises(CheckFailed) as info:
        run_verification(nets)
    assert info.value is failure


def test_verify_forks_nothing(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("verify forked")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    assert cli.main(["verify", "--n", "4", "--samples", "290", "--seed", "100"]) == 0
    assert "checked 378 networks" in capsys.readouterr().out
