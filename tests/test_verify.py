"""`run_verification` over chunks of the population: the same violations in
the same order for any process count, and no process left behind."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from trapnets import verify
from trapnets.classes import DIAGRAMS, DiagramViolation
from trapnets.verify import Violation, run_verification, sample_population

ROOT = Path(__file__).resolve().parents[1]
FORKS = hasattr(os, "fork")


def pin_cpus(monkeypatch, k):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: k)


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
    flagged = [f for i, f in enumerate(nets) if i % 3 != 1]  # some of every chunk
    flag_checks(monkeypatch, flagged)
    expected = [("flag-theorem", str(i)) for i in range(len(flagged))]
    expected += [("flag-closure", str(i)) for i in range(len(flagged))]
    expected += [("diagram-marseille", f"implication: {i}") for i in range(len(flagged))]
    runs = []
    for k in (1, 2, 3):
        pin_cpus(monkeypatch, k)
        runs.append(run_verification(nets))
    assert [(v.check, v.detail) for v in runs[0]] == expected
    assert [v.network for v in runs[0]] == flagged * 3
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.skipif(not FORKS, reason="one process where fork is missing")
def test_chunks_run_in_one_process_each(monkeypatch):
    def pid_of(block):
        return [[Violation("pid", str(os.getpid()), p.f)] for p in block.profiles]

    monkeypatch.setattr(verify, "hierarchy_violations", pid_of)
    nets = sample_population(3, 12, 5)
    for k in (1, 2, 3):
        pin_cpus(monkeypatch, k)
        pids = [v.detail for v in run_verification(nets, "theorems") if v.check == "pid"]
        assert len(pids) == len(nets)
        assert pids[0] == str(os.getpid())
        assert len(set(pids)) == k


class CheckFailed(Exception):
    pass


def raise_on(monkeypatch, target, exc):
    original = verify.dynamics_claim_violations

    def patched(p):
        if p.f == target:
            raise exc
        return original(p)

    monkeypatch.setattr(verify, "dynamics_claim_violations", patched)


@pytest.mark.skipif(not FORKS, reason="one process where fork is missing")
def test_exception_in_a_child_chunk_is_raised_in_the_parent(monkeypatch):
    nets = sample_population(3, 12, 5)
    pin_cpus(monkeypatch, 3)
    raise_on(monkeypatch, nets[-1], CheckFailed("bad network"))
    with pytest.raises(CheckFailed, match="bad network") as info:
        run_verification(nets)
    assert "Traceback" in str(info.value.__cause__)
    with pytest.raises(ChildProcessError):  # every child has been reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not FORKS, reason="one process where fork is missing")
def test_unpicklable_exception_and_lost_child_still_raise(monkeypatch):
    nets = sample_population(3, 12, 5)
    pin_cpus(monkeypatch, 2)
    raise_on(monkeypatch, nets[-1], CheckFailed(lambda: None))
    with pytest.raises(RuntimeError, match="cannot send result"):
        run_verification(nets)

    parent = os.getpid()

    def lost(chunk, suite):
        if os.getpid() != parent:
            os._exit(3)
        return [], [], [], [[] for _ in DIAGRAMS]

    monkeypatch.setattr(verify, "_check_chunk", lost)
    with pytest.raises(RuntimeError, match="without a result"):
        run_verification(nets)


def _live_members(pgid):
    """Processes of process group ``pgid`` that are not zombies."""
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            live.append(int(entry))
    return live


@pytest.mark.skipif(not FORKS or not os.path.isdir("/proc/self"),
                    reason="needs fork and /proc")
def test_children_end_when_the_parent_is_killed():
    code = ("import sys; from trapnets import cli, verify; "
            "verify._usable_cpus = lambda: 3; sys.exit(cli.main(sys.argv[1:]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "verify", "--n", "4", "--samples", "290"],
        env=env, stdout=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while len(_live_members(proc.pid)) < 3:  # the parent and two children
            assert proc.poll() is None, "verify ended before it forked"
            assert time.monotonic() < deadline, "verify never forked"
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 30
        while _live_members(proc.pid):
            assert time.monotonic() < deadline, "children outlived their killed parent"
            time.sleep(0.05)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)
