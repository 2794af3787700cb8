"""Golden digests of the CLI's output.

``cli.main`` runs in-process over a fixed corpus of calls, and each call's
exit code and the sha256 of its stdout and stderr must match its line of
``golden_digests.txt``.  The corpus:

- every command and format on what ``gen`` writes for each kind at
  n = 1..8, and on both stress shapes of ``budgets.py`` at n = 1..8;
- ``verify`` under each suite at n = 1 and 2 (exhaustive) and 3 (sampled);
- the refusals the commands make themselves;
- per ``gen`` kind, ``analyze --minimal-only`` at n = 16 and a full
  ``analyze`` at n = 13.

The usage errors of argparse are left out: their usage text changes with
the Python version.  The random generators draw only ``integers`` and
``random`` from numpy's ``default_rng``, whose streams numpy 1.24 and 2.x
share.

After an intended change of output, regenerate the file with
``python tests/test_golden_outputs.py`` and say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

import budgets  # puts ``src`` on the path

from trapnets.caps import CAPS, SUITES
from trapnets.cli import main

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.txt")
SMALL = range(1, 9)


def _files(net: str, other: str) -> list[tuple[str, ...]]:
    """Every command and format on the file ``net``, with ``other`` (a random
    network of the same dimension) as the second side of ``equiv``."""
    return [
        *(("analyze", net, *flag, "--format", fmt)
          for flag in ((), ("--minimal-only",)) for fmt in ("text", "json")),
        *(("equiv", "--mode", mode, net, second)
          for mode in ("trapspace", "min") for second in (net, other)),
        *(("graph", net, *flag)
          for flag in (("--kind", "async"), ("--kind", "ga"), ("--kind", "tg"), ("--layered",))),
    ]


def _gen(kind: str, n: int) -> tuple[str, ...]:
    return ("gen", "--kind", kind, "--n", str(n), "--seed", "1", "--out", f"{kind}{n}.tt")


def corpus() -> list[tuple[str, ...]]:
    """The calls, in order: a ``gen`` call writes the file later calls read."""
    calls = [_gen(kind, n) for n in SMALL for kind in budgets.KINDS]
    for n in SMALL:
        for kind in budgets.KINDS + budgets.SHAPES:
            if kind != "long-transient" or n >= 3:
                calls += _files(f"{kind}{n}.tt", f"random{n}.tt")
    for suite in SUITES:
        calls += [("verify", "--n", n, "--exhaustive", "--suite", suite) for n in ("1", "2")]
        calls.append(("verify", "--n", "3", "--samples", "20", "--seed", "5", "--suite", suite))
    for kind in budgets.KINDS:
        calls += [_gen(kind, 16), ("analyze", f"{kind}16.tt", "--minimal-only"),
                  _gen(kind, 13), ("analyze", f"{kind}13.tt", "--format", "json")]
    enumeration, table = CAPS["enumeration"], CAPS["table"]
    calls += [
        ("analyze", f"header{enumeration + 1}.tt"),
        ("analyze", f"header{table + 1}.tt", "--minimal-only"),
        ("graph", f"header{enumeration + 1}.tt"),
        ("equiv", f"header{enumeration + 1}.tt", f"header{enumeration + 1}.tt"),
        ("equiv", "--mode", "min", f"header{table + 1}.tt", f"header{table + 1}.tt"),
        ("equiv", "random3.tt", "random4.tt"),
        ("analyze", "malformed.tt"),
        ("analyze", "missing.tt"),
        ("verify", "--n", "3", "--exhaustive", "--samples", "2"),
        ("verify", "--n", "2"),
        ("verify", "--n", "3", "--exhaustive"),
        ("verify", "--n", "3"),
        ("verify", "--n", str(CAPS["pair_sweep"] + 1), "--samples", "3"),
        ("gen", "--kind", "random", "--n", str(CAPS["network"] + 1), "--out", "refused.tt"),
        ("gen", "--kind", "long-transient", "--n", "2", "--out", "refused.tt"),
    ]
    return calls


def _write_inputs() -> None:
    """The files of the corpus that ``gen`` does not write, in the working
    directory: the stress shapes, headers above the caps with no body, and
    a table that lacks a row."""
    for shape in budgets.SHAPES:
        for n in SMALL:
            budgets.write_shape(shape, n, f"{shape}{n}.tt")
    for n in (CAPS["enumeration"] + 1, CAPS["table"] + 1):
        with open(f"header{n}.tt", "w", encoding="utf-8") as fh:
            fh.write(f"n={n}\n")
    with open("malformed.tt", "w", encoding="utf-8") as fh:
        fh.write("n=2\n00 01\n01 11\n10 10\n")


def digest_lines() -> list[str]:
    """One line per call of the corpus, run in the working directory: its
    exit code, the sha256 of its stdout and of its stderr, and its arguments."""
    _write_inputs()
    lines = []
    for call in corpus():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(call))
            except SystemExit as exc:  # a file the commands cannot read
                code = exc.code
        streams = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
        lines.append(" ".join((str(code), *streams, *call)) + "\n")
    return lines


def test_cli_output_matches_the_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open(DIGESTS, encoding="utf-8") as fh:
        expected = fh.readlines()
    got = digest_lines()
    changed = [line for line, old in zip(got, expected) if line != old]
    assert not changed and len(got) == len(expected), changed[:5]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        lines = digest_lines()
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    print(f"wrote {len(lines)} digests to {DIGESTS}")
