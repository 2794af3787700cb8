"""Tests of the benchmark itself: its reference answers, its failure
accounting and its tracing wrappers.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import trapnets.cli
import trapnets.trapspaces
from trapnets import generators
from trapnets.core import BooleanNetwork
from trapnets.dynamics import transient_and_period as library_transient_and_period
from trapnets.netio import network_to_text
from trapnets.verify import sample_population

import tracing
from child import EXIT, MEMORY, TIMEOUT, TRACEBACK, run_call
from reference import Reference, transient_and_period
from run import end_to_end
from workloads import WORKLOADS, Call, compare_answer, expected_population, make_passes

from conftest import BENCH, ROOT

MiB = 1 << 20


def _networks(n_values, seeds):
    for n in n_values:
        for seed in seeds:
            yield generators.random_network(n, seed)
            yield generators.random_commutative(n, seed, parts=1 + seed % 3)
            yield generators.random_negation_on_subcubes(n, seed)
            yield generators.random_constant_on_arrangements(n, seed)
        if n >= 3:
            yield generators.long_transient_trapping(n)
    yield BooleanNetwork.identity(3)
    yield BooleanNetwork.negation(3)


def _cli_answer(tmp_path, capsys, net, minimal_only=False):
    path = tmp_path / "net.tt"
    path.write_text(network_to_text(net), encoding="utf-8")
    args = ["analyze", str(path), "--format", "json"]
    if minimal_only:
        args.append("--minimal-only")
    capsys.readouterr()
    assert trapnets.cli.main(args) == 0
    return json.loads(capsys.readouterr().out)


def test_reference_matches_the_cli_on_small_networks(tmp_path, capsys):
    for net in _networks(range(1, 8), range(4)):
        answer = _cli_answer(tmp_path, capsys, net)
        assert compare_answer(answer, Reference(net.image).full()) == [], net


def test_reference_matches_the_cli_with_minimal_only(tmp_path, capsys):
    for net in _networks((9, 12), range(2)):
        answer = _cli_answer(tmp_path, capsys, net, minimal_only=True)
        assert compare_answer(answer, Reference(net.image).minimal_only()) == []


def test_reference_period_is_the_lcm_of_cycle_lengths():
    # Cycles of lengths 2, 3, 5 and 7 on 17 of 32 points; the rest feed
    # a chain into the 7-cycle.
    image = list(range(32))
    start = 0
    for length in (2, 3, 5, 7):
        for k in range(length):
            image[start + k] = start + (k + 1) % length
        start += length
    for x in range(start, 32):
        image[x] = x + 1 if x + 1 < 32 else 10
    net = BooleanNetwork(5, tuple(image))
    assert transient_and_period(np.array(image)) == (15, 210)
    assert library_transient_and_period(net) == (15, 210)
    for seed in range(20):
        f = generators.random_network(6, seed)
        assert transient_and_period(np.array(f.image)) == library_transient_and_period(f)


def test_compare_answer_is_by_field():
    reference = {"n": 2, "classes": {"lille": True, "globally_idempotent_flag": False}}
    assert compare_answer({"n": 2, "classes": {"lille": True, "extra": 1}}, reference) == []
    assert compare_answer({"n": 2, "classes": {"lille": False}}, reference) == ["classes.lille"]
    assert compare_answer({"classes": {"lille": True}}, reference) == ["n"]


def test_expected_population_matches_sample_population():
    for n, samples in ((3, 1), (4, 9), (5, 100), (6, 37)):
        assert len(sample_population(n, samples, 0)) == expected_population(n, samples)


def _python(code):
    return [sys.executable, "-c", code]


def test_call_past_the_deadline_counts_as_failed(tmp_path):
    result = run_call(_python("import time; time.sleep(30)"), deadline_s=0.5,
                      mem_cap_bytes=512 * MiB, env=dict(os.environ),
                      out_prefix=str(tmp_path / "c"))
    assert result.reason == TIMEOUT and not result.ok
    assert 0.5 <= result.wall_s < 5
    call = Call("sleep", [], nets=1)
    metrics = end_to_end([([(call, result)], 1.0)], setup_s=0.1, deadline_s=0.5)
    assert metrics["ok_ratio"][0] == 0
    assert metrics["nets_per_s"][0] == 0
    assert metrics["call_s_max"][0] >= 0.5


def test_call_over_the_memory_cap_counts_as_failed(tmp_path):
    before = resource.getrlimit(resource.RLIMIT_AS)
    result = run_call(_python("x = bytearray(600 * 2**20)"), deadline_s=30,
                      mem_cap_bytes=256 * MiB, env=dict(os.environ),
                      out_prefix=str(tmp_path / "c"))
    assert result.reason == MEMORY
    # The cap applies to the child only.
    assert resource.getrlimit(resource.RLIMIT_AS) == before
    call = Call("alloc", [], nets=1)
    metrics = end_to_end([([(call, result)], 1.0)], setup_s=0.1, deadline_s=30)
    assert metrics["ok_ratio"][0] == 0 and metrics["call_s_p50"][0] >= 30


def test_traceback_and_exit_codes_are_failures(tmp_path):
    common = dict(deadline_s=30, mem_cap_bytes=512 * MiB, env=dict(os.environ))
    assert run_call(_python("raise ValueError('x')"), out_prefix=str(tmp_path / "a"),
                    **common).reason == TRACEBACK
    assert run_call(_python("import sys; sys.exit(3)"), out_prefix=str(tmp_path / "b"),
                    **common).reason == EXIT
    assert run_call(_python("print('ok')"), out_prefix=str(tmp_path / "c"),
                    **common).ok


def _outputs(tmp_path, capsys):
    """Answers of two analyze calls and one verify call, as printed."""
    out = [
        json.dumps(_cli_answer(tmp_path, capsys, net))
        for net in (generators.random_network(6, 1), generators.random_commutative(6, 2))
    ]
    trapnets.cli.main(["verify", "--n", "3", "--samples", "10", "--seed", "4"])
    out.append(capsys.readouterr().out)
    return out


def test_wrappers_leave_answers_unchanged(tmp_path, capsys):
    plain = _outputs(tmp_path, capsys)
    original = trapnets.trapspaces.principal_pair
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert trapnets.trapspaces.principal_pair is not original
        traced = _outputs(tmp_path, capsys)
    finally:
        tracer.uninstall()
    assert trapnets.trapspaces.principal_pair is original
    assert traced == plain
    totals = tracing.LayerTotals()
    totals.add(tracer.record())
    metrics = totals.metrics()
    for name in ("cli.main", "trapspaces.principal_pair", "verify.run_verification",
                 "dynamics.strongly_connected_components", "netio.parse_truth_table"):
        assert metrics[f"{name}.calls"][0] > 0, name
    assert metrics["classes.profile.pt_pairs.self_s"][0] > 0
    assert metrics["dynamics.strongly_connected_components.calls_per_graph"][0] >= 1


def test_self_time_subtracts_child_spans():
    record = {
        "names": ["outer", "inner"],
        "spans": [[0, 0, 100, -1], [1, 10, 30, 0], [1, 40, 90, 0], [0, 200, 210, -1]],
        "distinct_graphs": 0,
    }
    totals = tracing.LayerTotals()
    totals.add(record)
    assert totals.calls == {"outer": 2, "inner": 2}
    assert totals.self_ns == {"outer": 40, "inner": 70}


def test_workloads_make_checkable_calls(tmp_path):
    for workload in WORKLOADS.values():
        count = workload.passes(30)
        images = {slot: (0, 1) for slot in workload.slots(count)}
        passes = make_passes(workload, 3, str(tmp_path), images, count)
        assert len(passes) == count
        assert all(calls and all(c.nets >= 1 for c in calls) for calls in passes)


def test_run_refuses_a_directory_without_the_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "analyze-full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("minimal_only", [False, True])
def test_reference_matches_the_cli_process(tmp_path, minimal_only):
    # One end-to-end check through the real command line.
    n = 12 if minimal_only else 8
    net = generators.random_commutative(n, 5)
    path = tmp_path / "net.tt"
    path.write_text(network_to_text(net), encoding="utf-8")
    args = [sys.executable, "-m", "trapnets.cli", "analyze", str(path), "--format", "json"]
    if minimal_only:
        args.append("--minimal-only")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(args, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    ref = Reference(net.image)
    expected = ref.minimal_only() if minimal_only else ref.full()
    assert compare_answer(json.loads(proc.stdout), expected) == []
