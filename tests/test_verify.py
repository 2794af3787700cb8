"""`run_verification` in one process: the violations come section by
section, in population order within each, and nothing is forked."""

import os

import pytest

from trapnets import cli, verify
from trapnets.verify import Violation, run_verification, sample_population


def networks(block):
    """The networks of the block's rows."""
    return [block.network(i) for i in range(len(block.images))]


def flag_checks(monkeypatch, flagged):
    """One check per section reports every network of ``flagged`` (a list),
    with its index there; the real checks still run.  A check takes a block
    last and returns one list per network."""

    def flagging(name, violation, applies=lambda *args: True):
        original = getattr(verify, name)

        def check(*args):
            found = original(*args)
            if not applies(*args):
                return found
            return [out + [violation(str(flagged.index(f)), f)] if f in flagged else out
                    for f, out in zip(networks(args[-1]), found)]

        monkeypatch.setattr(verify, name, check)

    flagging("hierarchy_violations", lambda i, f: Violation("flag-theorem", i, f))
    flagging("closure_law_violations", lambda i, f: Violation("flag-closure", i, f))
    flagging("implication_violations",
             lambda i, f: Violation("diagram-marseille", f"implication: {i}", f),
             lambda diagram, block: diagram.id == "marseille")


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

    def patched(block):
        if nets[-1] in networks(block):
            raise failure
        return original(block)

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


def test_sample_population_refuses_a_negative_count():
    with pytest.raises(ValueError, match=r"^samples must be at least 0, got -5$"):
        sample_population(3, -5, 0)
    # No random network: one of each structured kind and the long transient.
    assert len(sample_population(3, 0, 0)) == 4
