"""Run one CLI call as a child process under a deadline and a memory cap.

The cap is an address-space limit set with ``setrlimit`` in the child only,
so the benchmark process itself is never limited.  Output goes to files,
not pipes, so a large answer cannot stall the child.  Peak RSS comes from
``os.wait4``.
"""

from __future__ import annotations

import contextlib
import os
import resource
import signal
import subprocess
import time
from dataclasses import dataclass, field

POLL_S = 0.005
KILL_GRACE_S = 3.0

# Failure reasons, in the order they are tested.
TIMEOUT = "timeout"
MEMORY = "memory"
TRACEBACK = "traceback"
EXIT = "exit"
WRONG = "wrong"


@dataclass
class CallResult:
    wall_s: float
    peak_rss_mb: float
    exit_code: int | None  # None when killed at the deadline
    stdout: str
    stderr: str
    reason: str | None  # None while the call counts as a success
    wrong_fields: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.reason is None


def run_call(
    argv: list[str],
    *,
    deadline_s: float,
    mem_cap_bytes: int,
    env: dict[str, str],
    out_prefix: str,
) -> CallResult:
    """Run ``argv`` and classify how it ended.

    At the deadline the child gets SIGTERM (a traced child then writes its
    spans) and, after a short grace, SIGKILL.
    """

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (mem_cap_bytes, mem_cap_bytes))

    out_path, err_path = out_prefix + ".out", out_prefix + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env,
            preexec_fn=limit_child,
        )
        timed_out = False
        signalled_at = None
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                now = time.perf_counter()
                if not timed_out and now - start > deadline_s:
                    timed_out = True
                    signalled_at = now
                    proc.send_signal(signal.SIGTERM)
                elif timed_out and now - signalled_at > KILL_GRACE_S:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(POLL_S)
        except BaseException:
            # The benchmark itself is stopping: take the child with it.
            with contextlib.suppress(ChildProcessError, ProcessLookupError):
                proc.kill()
                os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        wall = time.perf_counter() - start
    # The child is reaped here; stop Popen from waiting on it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    if timed_out:
        # Only the wall time up to the deadline is the call's own.
        wall = signalled_at - start
    reason = None
    if timed_out:
        reason = TIMEOUT
    elif "MemoryError" in stderr or "Unable to allocate" in stderr:
        reason = MEMORY
    elif "Traceback (most recent call last)" in stderr:
        reason = TRACEBACK
    elif proc.returncode != 0:
        reason = EXIT
    return CallResult(
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=None if timed_out else proc.returncode,
        stdout=stdout,
        stderr=stderr,
        reason=reason,
    )
