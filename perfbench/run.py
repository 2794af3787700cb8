"""Benchmark of the trapnets CLI: one client, one CLI child at a time.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-full --seed 1 --seconds 30 --trace 0

The run writes its inputs from the seed, then makes --seconds / (the
workload's nominal pass time) passes over the workload's calls, at least
one; each pass has inputs of its own, so the work of a run depends only on
the seed and --seconds.  Each call runs under the workload's deadline and a
memory cap set on the child only.  Every answer is checked.  A failed call
(timeout, memory, non-zero exit, traceback, wrong answer) stays in the
sample at the deadline.  The last line of stdout is a JSON object with the
keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics:

- nets_per_s: networks answered correctly per second of a pass, median over
  the passes;
- call_s_p50: median wall time of a CLI call, interpreter start included;
- call_s_max: the slowest call of a pass, median over the passes;
- ok_ratio: calls that succeeded over calls attempted;
- peak_rss_mb: the highest peak RSS of a CLI child in a pass, median over
  the passes;
- setup_s: writing the inputs and starting the CLI once, median of a few tries.

--trace 1 makes one untraced and one traced pass (spans around each module's
public functions, see tracing.py) and reports per-layer calls and self time,
plus trace.overhead_ratio; the traced answers must equal the untraced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from collections import Counter

from child import EXIT, WRONG, run_call
from tracing import LayerTotals, Tracer
from workloads import MEM_CAP_BYTES, WORKLOADS, make_passes, write_inputs

SETUP_REPEATS = 5
HERE = os.path.dirname(os.path.abspath(__file__))


def cli_argv(args: list[str], spans_path: str | None = None) -> list[str]:
    if spans_path is None:
        return [sys.executable, "-m", "trapnets.cli", *args]
    return [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path, *args]


class Runner:
    def __init__(self, workload, seed: int, workdir: str, src: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self._count = 0

    def call(self, args: list[str], spans_path: str | None = None):
        self._count += 1
        return run_call(
            cli_argv(args, spans_path),
            deadline_s=self.workload.deadline_s,
            mem_cap_bytes=MEM_CAP_BYTES,
            env=self.env,
            out_prefix=os.path.join(self.workdir, f"call{self._count}"),
        )

    def start_cli(self) -> None:
        result = self.call(["--help"])
        if result.exit_code != 0:
            raise SystemExit(f"error: the trapnets CLI does not start:\n{result.stderr}")

    def setup(self, passes: int) -> tuple[float, dict]:
        """Write the inputs and start the CLI once; the median of a few tries."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            images = write_inputs(self.workload, self.seed, self.workdir, passes)
            self.start_cli()
            times.append(time.perf_counter() - start)
        return statistics.median(times), images

    def run_pass(self, calls, traced: bool = False, totals: LayerTotals | None = None):
        results = []
        for k, call in enumerate(calls):
            spans_path = os.path.join(self.workdir, f"spans{k}.json") if traced else None
            result = self.call(call.args, spans_path)
            if traced and os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as fh:
                    totals.add(json.load(fh))
                os.remove(spans_path)
            results.append((call, result))
        return results


def check_all(results) -> None:
    """Mark wrong answers.  Exit code 1 is also checked, as it is how verify
    reports violations; other failures keep their reason."""
    for call, result in results:
        if result.reason in (None, EXIT) and result.exit_code in (0, 1):
            result.wrong_fields = call.check(result.exit_code, result.stdout)
            if result.wrong_fields:
                result.reason = WRONG


def end_to_end(passes, setup_s: float, deadline_s: float) -> dict:
    """The six end-to-end metrics from [(results, pass wall time), ...]."""
    results = [item for rs, _ in passes for item in rs]

    def sample(r):
        return r.wall_s if r.ok else max(r.wall_s, deadline_s)

    return {
        "nets_per_s": (statistics.median(
            sum(call.nets for call, r in rs if r.ok) / wall for rs, wall in passes
        ), "1/s"),
        "call_s_p50": (statistics.median(sample(r) for _, r in results), "s"),
        "call_s_max": (statistics.median(
            max(sample(r) for _, r in rs) for rs, _ in passes
        ), "s"),
        "ok_ratio": (sum(1 for _, r in results if r.ok) / len(results), "ratio"),
        "peak_rss_mb": (statistics.median(
            max(r.peak_rss_mb for _, r in rs) for rs, _ in passes
        ), "MB"),
        "setup_s": (setup_s, "s"),
    }


def report_calls(results) -> None:
    by_label: dict[str, list] = {}
    for call, result in results:
        by_label.setdefault(call.label, []).append(result)
    for label, rs in by_label.items():
        reasons = Counter(r.reason for r in rs if not r.ok)
        failed = ", ".join(f"{n} {why}" for why, n in sorted(reasons.items())) or "ok"
        print(
            f"  {label:<22} calls {len(rs):>2}  median {statistics.median(r.wall_s for r in rs):8.3f} s"
            f"  peak {max(r.peak_rss_mb for r in rs):7.1f} MB  {failed}"
        )
        for r in rs:
            if r.wrong_fields:
                print(f"    wrong fields: {', '.join(r.wrong_fields[:8])}")


def run(workload, seed: int, seconds: int, trace: bool, workdir: str, src: str) -> dict:
    runner = Runner(workload, seed, workdir, src)
    runner.start_cli()  # compiles bytecode before anything is timed
    if trace:
        return run_traced(runner)
    count = workload.passes(seconds)
    setup_s, images = runner.setup(count)
    passes = make_passes(workload, seed, workdir, images, count)
    print(f"workload {workload.name}, seed {seed}: {count} pass(es) of {len(passes[0])} "
          f"calls, deadline {workload.deadline_s} s, memory cap {MEM_CAP_BYTES >> 20} MiB")
    timed = []
    for calls in passes:
        start = time.perf_counter()
        results = runner.run_pass(calls)
        timed.append((results, time.perf_counter() - start))
    results = [item for rs, _ in timed for item in rs]
    check_all(results)
    report_calls(results)
    metrics = end_to_end(timed, setup_s, workload.deadline_s)
    correct = all(r.reason != WRONG for _, r in results)
    return _result(correct, results, metrics)


def run_traced(runner) -> dict:
    """One untraced and one traced pass; spans also cover writing the inputs."""
    workload = runner.workload
    totals = LayerTotals()
    tracer = Tracer()
    tracer.install()
    try:
        images = write_inputs(workload, runner.seed, runner.workdir, 1)
    finally:
        tracer.uninstall()
    totals.add(tracer.record())
    calls = make_passes(workload, runner.seed, runner.workdir, images, 1)[0]
    plain = runner.run_pass(calls)
    traced = runner.run_pass(calls, traced=True, totals=totals)
    check_all(plain + traced)
    print("untraced pass:")
    report_calls(plain)
    print("traced pass:")
    report_calls(traced)
    same = True
    for (call, a), (_, b) in zip(plain, traced):
        if a.ok and b.ok and a.stdout != b.stdout:
            print(f"  traced answer differs: {call.label}")
            same = False
    metrics = totals.metrics()
    metrics["trace.overhead_ratio"] = (
        sum(r.wall_s for _, r in traced) / sum(r.wall_s for _, r in plain), "ratio",
    )
    correct = same and all(r.reason != WRONG for _, r in plain + traced)
    return _result(correct, plain + traced, metrics)


def _result(correct: bool, results, metrics: dict) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {
        "correct": correct,
        "attempted": len(results),
        "failed": sum(1 for _, r in results if not r.ok),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "trapnets", "cli.py")):
        print("error: no trapnets source at ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # On SIGTERM, unwind so the running child is killed and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = os.path.join(root, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), workdir, src)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
