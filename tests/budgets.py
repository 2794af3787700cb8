"""Each CLI command's budget at its cap, as one table of rows, and the runner
that checks every row: ``python tests/budgets.py``.

A row is one ``python -W error -m trapnets.cli`` call in a child process
limited to 512 MiB of address space.  It must exit with one of its codes,
write exactly its refusal to stderr (or nothing), and stay within its wall
time and peak RSS.  Dimensions are ``CAPS`` entries, so raising a cap in
``trapnets/caps.py`` moves its rows with it.  A child's ``ru_maxrss`` counts
its parent's RSS at the fork, so this runner imports no numpy and child
processes write the input files.
"""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, SRC)

from trapnets.caps import CAPS, SUITES  # noqa: E402  (neither module imports numpy)
from trapnets.cli import INT_DIGITS, MAX_PARTS, MAX_SAMPLES  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
ADDRESS_SPACE = 512 << 20  # every row's RLIMIT_AS, set in its child alone
KINDS = ("random", "commutative", "negation", "constant", "long-transient")
# Two stress shapes for the strongly connected components: the Gray chain
# g_i -> g_(i+1), whose search is as deep as the cube, and negation with
# f(0) = 1, which is dense and not transitive.
SHAPES = ("gray-chain", "negation-f0-is-1")
WRITE_SHAPE = """
import sys
from trapnets import BooleanNetwork
from trapnets.netio import network_to_text
shape, n, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
if shape == "gray-chain":
    codes = [i ^ i >> 1 for i in range(1 << n)]
    image = [0] * (1 << n)
    for a, b in zip(codes, codes[1:] + codes[-1:]):
        image[a] = b
else:
    image = list(BooleanNetwork.negation(n).image)
    image[0] = 1
with open(path, "w") as fh:
    fh.write(network_to_text(BooleanNetwork(n, tuple(image))))
"""


@dataclass(frozen=True)
class Net:
    """A network file: a stress shape, or what ``gen`` writes at seed 1."""

    kind: str
    n: int
    parts: int = 2

    @property
    def name(self) -> str:
        return f"{self.kind}-n{self.n}" + (f"-parts{self.parts}" if self.parts != 2 else "") + ".tt"

    def gen(self) -> tuple:
        """The ``gen`` arguments that write this file."""
        return ("gen", "--kind", self.kind, "--n", str(self.n), "--seed", "1",
                "--parts", str(self.parts), "--out", self)


@dataclass(frozen=True)
class Row:
    """One CLI call and its budget; a ``Net`` among the arguments stands for
    its file, which the call writes when it follows ``--out``."""

    args: tuple
    seconds: float  # wall time from start to exit
    codes: tuple = (0,)
    error: str | None = None  # the last line of stderr; with None, stderr is empty
    peak_mib: float = math.inf
    above_import_mib: float = math.inf  # peak RSS over a bare ``import numpy, trapnets.cli``
    cap: str | None = None  # the CAPS entry whose value, or one more, the row runs at

    @property
    def out(self) -> Net | None:
        return self.args[self.args.index("--out") + 1] if "--out" in self.args else None

    @property
    def inputs(self) -> list[Net]:
        return [a for a in self.args if isinstance(a, Net) and a is not self.out]


def refusal(args: tuple, error: str, cap: str | None = None) -> Row:
    """A call that must exit 2 with ``error`` within 5 s and 40 MiB."""
    return Row(args, seconds=5, codes=(2,), error=error, peak_mib=40, cap=cap)


def _small_rows(n: int, kind: str) -> tuple:
    """Every command on one small ``gen`` network."""
    net = Net(kind, n)
    return (
        Row(net.gen(), seconds=30),
        *(Row(("analyze", net, *flag, "--format", fmt), seconds=30)
          for flag in ((), ("--minimal-only",)) for fmt in ("text", "json")),
        # Against a random network, exit 1 is the verdict "not equivalent".
        *(Row(("equiv", "--mode", mode, net, other), seconds=30, codes=codes)
          for mode in ("trapspace", "min") for other, codes in ((net, (0,)), (Net("random", n), (0, 1)))),
        *(Row(("graph", net, *flag), seconds=30)
          for flag in (("--kind", "async"), ("--kind", "ga"), ("--kind", "tg"), ("--layered",))),
    )


ENUMERATION, TABLE, NETWORK = CAPS["enumeration"], CAPS["table"], CAPS["network"]
PAIR_SWEEP, EXHAUSTIVE = CAPS["pair_sweep"], CAPS["exhaustive"]
HUGE = "9" * 5000  # more digits than int() reads on Python 3.11+
# Each command that refuses a file from its header: the arguments before the
# files, the cap it reads and the work its refusal names.
HEADER_REFUSALS = (
    (("analyze",), "enumeration", "full analysis"),
    (("analyze", "--minimal-only"), "table", "minimal-only analysis"),
    (("graph",), "enumeration", "graph export"),
    (("equiv", "--mode", "trapspace"), "enumeration", "trapspace equivalence"),
    (("equiv", "--mode", "min"), "table", "min equivalence"),
)

ROWS = (
    Row(("--help",), seconds=5),
    # gen at the enumeration cap classifies its network; above it, it does not.
    *(Row(Net(kind, n).gen(), seconds=30, cap="enumeration" if n <= ENUMERATION + 1 else None)
      for n in (ENUMERATION, ENUMERATION + 1, TABLE, TABLE + 1) for kind in KINDS),
    # Every kind peaks at 180.2-185.9 MiB writing one image (Python 3.11, numpy 2.4,
    # Linux); the bound is a tenth above that, under the 225 MiB of a commutative
    # network built part by part.
    *(Row(Net(kind, NETWORK, MAX_PARTS).gen(), seconds=30, peak_mib=205, cap="network")
      for kind in KINDS),
    *(refusal(Net(kind, NETWORK, MAX_PARTS + 1).gen(),
              f"trapnets gen: error: argument --parts: value must be at most {MAX_PARTS}")
      for kind in KINDS),
    refusal(Net("random", NETWORK + 1).gen(), f"error: networks are capped at n={NETWORK}", "network"),
    Row(("analyze", Net("random", ENUMERATION - 1), "--format", "json"), seconds=60),
    *(Row(("analyze", Net(kind, ENUMERATION), "--format", "json"), seconds=60, peak_mib=80,
          cap="enumeration") for kind in KINDS + SHAPES),
    *(Row(("analyze", Net(kind, TABLE), "--minimal-only", "--format", fmt), seconds=30,
          peak_mib=80, above_import_mib=10.8, cap="table")
      for kind in KINDS for fmt in ("text", "json")),
    Row(("equiv", "--mode", "trapspace", Net("random", ENUMERATION), Net("commutative", ENUMERATION)),
        seconds=60, codes=(0, 1), cap="enumeration"),
    Row(("equiv", "--mode", "trapspace", Net("negation", ENUMERATION), Net("constant", ENUMERATION)),
        seconds=60, codes=(0, 1), cap="enumeration"),
    # min equivalence peaks at 97-100 MiB here: its bound leaves a fifth above that.
    Row(("equiv", "--mode", "min", Net("random", TABLE), Net("constant", TABLE)),
        seconds=60, codes=(0, 1), peak_mib=120, cap="table"),
    Row(("graph", Net("random", 11), "--kind", "tg"), seconds=120),
    # The layered export writes its DOT to a discarded stdout: about 3.4 GB
    # for negation-f0-is-1, whose general graph is nearly complete.
    *(Row(("graph", Net(kind, ENUMERATION), "--layered"), seconds=60, peak_mib=80, cap="enumeration")
      for kind in KINDS + SHAPES),
    # One dimension above each cap, and the largest file, refused from the header.
    *(refusal((*args, *[Net("random", n)] * (2 if args[0] == "equiv" else 1)),
              f"error: {work} is capped at n={CAPS[cap]}", cap if n == CAPS[cap] + 1 else "network")
      for args, cap, work in HEADER_REFUSALS for n in (CAPS[cap] + 1, NETWORK)),
    refusal(("equiv", "--mode", "trapspace", Net("random", ENUMERATION + 1), Net("commutative", ENUMERATION + 1)),
            f"error: trapspace equivalence is capped at n={ENUMERATION}"),
    refusal(("equiv", "--mode", "min", Net("random", TABLE + 1), Net("constant", TABLE + 1)),
            f"error: min equivalence is capped at n={TABLE}"),
    *(Row(("verify", "--n", str(PAIR_SWEEP), "--samples", samples, "--seed", seed), seconds=120,
          cap="pair_sweep") for samples, seed in (("10", "1"), ("40", "2"))),
    *(Row(("verify", "--n", n, "--samples", samples, "--seed", seed), seconds=120)
      for n, samples, seed in (("4", str(MAX_SAMPLES), "1"), ("6", "2000", "3"), ("5", "200", "1"),
                               ("4", "290", "100"))),
    *(Row(("verify", "--n", "3", "--samples", "60", "--seed", "5", "--suite", suite), seconds=120)
      for suite in SUITES),
    Row(("verify", "--n", str(EXHAUSTIVE), "--exhaustive"), seconds=120, cap="exhaustive"),
    # The every-pair monotonicity broadcast alone.
    Row(("verify", "--n", str(EXHAUSTIVE), "--exhaustive", "--suite", "closure"), seconds=120,
        cap="exhaustive"),
    refusal(("verify", "--n", str(PAIR_SWEEP + 1), "--samples", "3"),
            f"error: sampled verification is capped at n={PAIR_SWEEP}", "pair_sweep"),
    refusal(("verify", "--n", str(EXHAUSTIVE + 1), "--exhaustive"),
            f"error: --exhaustive is only available for n <= {EXHAUSTIVE}", "exhaustive"),
    refusal(("verify", "--n", "3", "--samples", str(MAX_SAMPLES + 1)),
            f"trapnets verify: error: argument --samples: value must be at most {MAX_SAMPLES}"),
    # An integer option longer than int() reads is refused by its bound.
    refusal(("verify", "--n", HUGE),
            f"trapnets verify: error: argument --n: value must have at most {INT_DIGITS} digits"),
    refusal(("verify", "--n", "3", "--samples", HUGE),
            f"trapnets verify: error: argument --samples: value must be at most {MAX_SAMPLES}"),
    refusal(("gen", "--kind", "random", "--n", "3", "--seed", HUGE, "--out", Net("random", 3)),
            f"trapnets gen: error: argument --seed: value must have at most {INT_DIGITS} digits"),
    refusal(("gen", "--kind", "random", "--n", "3", "--parts", HUGE, "--out", Net("random", 3)),
            f"trapnets gen: error: argument --parts: value must be at most {MAX_PARTS}"),
    *(row for n in (3, 8) for kind in KINDS for row in _small_rows(n, kind)),
)


def run(argv: list[str], seconds: float) -> tuple[int, str, float, float]:
    """(exit code, stderr, wall seconds, peak RSS in MiB) of ``python -W error
    *argv`` in a child under the address-space limit, killed past ``seconds``."""
    with tempfile.TemporaryFile() as err:
        start = time.monotonic()
        child = subprocess.Popen([sys.executable, "-W", "error", *argv], env=ENV, stdout=subprocess.DEVNULL,
                                 stderr=err, preexec_fn=lambda: resource.setrlimit(
                                     resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE)))
        while not (reaped := os.wait4(child.pid, os.WNOHANG))[0]:
            if time.monotonic() - start > seconds:
                child.kill()
            time.sleep(0.01)
        wall = time.monotonic() - start
        child.returncode = os.waitstatus_to_exitcode(reaped[1])
        err.seek(0)
        return child.returncode, err.read().decode(errors="replace"), wall, reaped[2].ru_maxrss / 1024


def check(row: Row, tmp: str, bare_mib: float) -> tuple[list[str], str]:
    """The bounds that one row, run in ``tmp``, broke, and a line for the log."""
    path = {net: os.path.join(tmp, net.name) for net in row.args if isinstance(net, Net)}
    for net in row.inputs:
        if not os.path.exists(path[net]):
            argv = (["-c", WRITE_SHAPE, net.kind, str(net.n), path[net]] if net.kind in SHAPES
                    else ["-m", "trapnets.cli", *(path[net] if a is net else a for a in net.gen())])
            subprocess.run([sys.executable, *argv], env=ENV, check=True, stdout=subprocess.DEVNULL)
    if row.out and os.path.exists(path[row.out]):
        os.remove(path[row.out])
    code, err, wall, peak = run(["-m", "trapnets.cli", *(path.get(a, a) for a in row.args)], row.seconds)
    lines = err.splitlines(keepends=True)
    # An argparse usage error prints its usage before the message.
    stderr_ok = (not lines if row.error is None else lines[-1:] == [row.error + "\n"]
                 and (len(lines) == 1 or lines[0].startswith("usage: ")))
    wrote = row.out is not None and os.path.exists(path[row.out])
    broken = [message for failed, message in (
        (code not in row.codes, f"exit {code}, not {row.codes}"),
        (not stderr_ok, f"stderr {err!r}"),
        (wall >= row.seconds, f"{wall:.1f} s, over {row.seconds} s"),
        (peak >= row.peak_mib, f"peak {peak:.1f} MiB, over {row.peak_mib}"),
        (peak - bare_mib >= row.above_import_mib, f"{peak - bare_mib:.1f} MiB above import, over {row.above_import_mib}"),
        (row.out is not None and wrote != (code == 0), f"exit {code}, and --out written: {wrote}"),
    ) if failed]
    shown = " ".join(a.name if isinstance(a, Net) else a if len(a) < 40 else f"<{len(a)} chars>" for a in row.args)
    return broken, f"{wall:7.2f} s {peak:6.1f} MiB  exit {code}  {shown}"


def main(rows=ROWS) -> int:
    """Check every row, print one line each, and return 1 if any broke a bound."""
    start, failed = time.monotonic(), 0
    with tempfile.TemporaryDirectory() as tmp:
        bare = run(["-c", "import numpy, trapnets.cli"], 60)[3]
        print(f"bare import numpy, trapnets.cli: {bare:.1f} MiB", flush=True)
        for row in rows:
            broken, line = check(row, tmp, bare)
            failed += bool(broken)
            print(f"{'FAIL' if broken else 'ok':4} {line}", *(f"     {b}" for b in broken), sep="\n", flush=True)
    print(f"{len(rows)} rows, {failed} failed, {time.monotonic() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
