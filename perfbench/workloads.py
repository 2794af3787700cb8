"""The benchmark's workloads: what each run asks the CLI, and how to check it.

A workload is a fixed list of CLI calls (one pass) derived from the run's
seed.  Analyze workloads first write their input networks as truth-table
files; the CLI sees only those files.  The verify workload passes the seed
on the command line.  Every answer is checked: analyze answers field by
field against `reference.py`, verify answers against the population size the
seed implies and a zero violation count.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from reference import Reference

KINDS = ("random", "commutative", "negation", "constant", "long-transient")
STRUCTURED = KINDS[1:]
# Address-space cap of every CLI child: above the 150 MB an idle CLI maps
# and what any call needs at the seed, except a transient_and_period run on
# a table with a huge period.
MEM_CAP_BYTES = 512 << 20

# Flags a later change may drop from the analyze JSON without the answer
# being wrong: globally_idempotent_flag repeats globally_idempotent.
OPTIONAL_FIELDS = {"classes.globally_idempotent_flag"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pass_s: float  # nominal length of one pass; --seconds / pass_s passes run
    deadline_s: float
    # Analyze inputs as (kind, n); pass k uses layouts[k % len(layouts)] and
    # networks of its own.
    layouts: tuple[tuple[tuple[str, int], ...], ...] = ()
    minimal_only: bool = False
    verify: tuple[tuple[int, int], ...] = ()  # (n, samples) per pass

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_s))

    def slots(self, passes: int) -> list[tuple[str, int, int]]:
        """Every input network of a run, as (kind, n, pass)."""
        if not self.layouts:
            return []
        return [
            (kind, n, k)
            for k in range(passes)
            for kind, n in self.layouts[k % len(self.layouts)]
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="analyze-full",
            why="full analyze at n=9..11: SCC and graph predicates dominate on random "
                "nets, trapspace enumeration and class sweeps on structured ones",
            pass_s=10.0,
            deadline_s=30.0,
            layouts=tuple(
                (("random", 9), ("random", 10), ("commutative", 10), ("negation", 10),
                 ("constant", 10), (structured, 11))
                for structured in ("long-transient", "commutative", "negation", "constant")
            ),
        ),
        Workload(
            name="analyze-minimal",
            why="analyze --minimal-only at n=12..16: principal pairs, "
                "minimal_trapspaces and transient_and_period, no graphs; the "
                "n>=14 calls fail at the seed",
            pass_s=30.0,
            deadline_s=12.0,
            layouts=((("random", 16), ("commutative", 12), ("negation", 12), ("constant", 14)),),
            minimal_only=True,
        ),
        Workload(
            name="verify-sampled",
            why="verify at n=4..6, samples sized so each call takes about as long: "
                "many small nets, so per-call overhead in trapspaces, graphs, classes "
                "and collections dominates",
            pass_s=10.0,
            deadline_s=30.0,
            verify=((4, 290), (5, 125), (6, 40)),
        ),
    )
}


def network_seed(seed: int, kind: str, n: int, pass_no: int) -> int:
    return seed * 1000 + pass_no * 100 + n * 5 + KINDS.index(kind)


def generate(kind: str, n: int, seed: int, pass_no: int):
    """The input network of one (kind, n, pass) slot, built by trapnets.generators."""
    from trapnets import generators

    s = network_seed(seed, kind, n, pass_no)
    if kind == "random":
        return generators.random_network(n, s)
    if kind == "commutative":
        return generators.random_commutative(n, s)
    if kind == "negation":
        return generators.random_negation_on_subcubes(n, s)
    if kind == "constant":
        return generators.random_constant_on_arrangements(n, s)
    return generators.long_transient_trapping(n)


@dataclass
class Call:
    """One CLI call of a pass, with what it takes to check its answer."""

    label: str
    args: list[str]
    nets: int  # networks a correct answer covers
    image: tuple[int, ...] | None = None  # analyze input, for the reference
    minimal_only: bool = False
    expected_checked: int | None = None  # verify population size
    _reference: dict | None = field(default=None, repr=False)

    def check(self, exit_code: int | None, stdout: str) -> list[str]:
        """Fields of the answer that are wrong (empty when correct)."""
        if self.expected_checked is not None:
            return _check_verify(stdout, exit_code, self.expected_checked)
        if exit_code != 0:
            return ["exit code"]
        try:
            answer = json.loads(stdout)
        except json.JSONDecodeError:
            return ["json"]
        if self._reference is None:
            ref = Reference(self.image)
            self._reference = ref.minimal_only() if self.minimal_only else ref.full()
        return compare_answer(answer, self._reference)


def write_inputs(workload: Workload, seed: int, workdir: str, passes: int) -> dict:
    """Generate and write the run's input files; returns their images."""
    from trapnets.netio import network_to_text

    images = {}
    for slot in workload.slots(passes):
        kind, n, pass_no = slot
        net = generate(kind, n, seed, pass_no)
        with open(input_path(workdir, slot), "w", encoding="utf-8", newline="") as fh:
            fh.write(network_to_text(net))
        images[slot] = net.image
    return images


def input_path(workdir: str, slot: tuple[str, int, int]) -> str:
    kind, n, pass_no = slot
    return os.path.join(workdir, f"{kind}-n{n}-{pass_no}.tt")


def make_passes(workload: Workload, seed: int, workdir: str, images, passes: int) -> list[list[Call]]:
    """The calls of each pass; every pass has inputs of its own."""
    out = [[] for _ in range(passes)]
    for slot in workload.slots(passes):
        kind, n, k = slot
        args = ["analyze", input_path(workdir, slot), "--format", "json"]
        if workload.minimal_only:
            args.append("--minimal-only")
        out[k].append(Call(f"{kind} n={n}", args, 1, image=images[slot],
                           minimal_only=workload.minimal_only))
    for k in range(passes):
        for n, samples in workload.verify:
            population = expected_population(n, samples)
            args = ["verify", "--n", str(n), "--samples", str(samples),
                    "--seed", str(seed * 100 + k)]
            out[k].append(Call(f"verify n={n}", args, population,
                               expected_checked=population))
    return out


def expected_population(n: int, samples: int) -> int:
    """Size of `verify --samples`'s population: the random samples, three
    structured networks per ten samples (at least one each), and the
    long-transient network from n = 3 on."""
    return samples + 3 * max(1, samples // 10) + (1 if n >= 3 else 0)


def _check_verify(stdout: str, exit_code: int | None, expected: int) -> list[str]:
    wrong = []
    if exit_code != 0:
        wrong.append("exit code")
    lines = stdout.splitlines()
    if not any(line.startswith(f"checked {expected} networks ") for line in lines):
        wrong.append(f"checked {expected}")
    if "violations: 0" not in lines:
        wrong.append("violations")
    return wrong


def compare_answer(answer, reference, path: str = "") -> list[str]:
    """Paths of reference fields the answer lacks or disagrees on.

    Fields the reference does not know are ignored, and so is a missing
    field listed in OPTIONAL_FIELDS.
    """
    wrong = []
    for key, expected in reference.items():
        where = f"{path}.{key}" if path else key
        if not isinstance(answer, dict) or key not in answer:
            if where not in OPTIONAL_FIELDS:
                wrong.append(where)
            continue
        got = answer[key]
        if isinstance(expected, dict):
            wrong += compare_answer(got, expected, where)
        elif got != expected:
            wrong.append(where)
    return wrong

