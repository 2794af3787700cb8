"""Command-line front end.

Exit codes: 0 for success (or an equivalent/no-violation verdict), 1 for a
negative verdict (not equivalent, violations found), 2 for usage or parse
errors.  A command whose reader closes its standard output early (as with
``| head``) stops at the failed write, prints nothing to stderr and exits 0.

Each command imports the layers it runs when it runs: ``--help`` and a
usage error load no numpy, and ``analyze --minimal-only`` loads neither the
class layer, ``verify`` nor the generators.  A command with a cap refuses
a regular file from its header, before its body is read.

``python -m trapnets.cli`` and the ``trapnets`` script run ``entry``, which
pauses the cyclic collector for the whole call and freezes what is alive
at its end, so that no collection walks the objects that numpy and the
layers leave, neither while they load nor at interpreter shutdown.  A
command's cyclic garbage is a few hundred objects whatever its input.
``main`` leaves the collector as it finds it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import stat
import sys

from .caps import CAPS, SUITES, decimal

# The most pieces ``gen --parts`` places: a part takes up to 100 draws, and 16
# commutative parts at n = 20 take about 1 s (2 vCPUs, Python 3.11, numpy 2.4).
MAX_PARTS = 16
# The most random networks ``verify --samples`` draws: the whole population,
# 26,001 networks, is built first, and checked in about 8 s at a peak RSS of 54
# MiB at n = 4 (2 vCPUs, Python 3.11, numpy 2.4), and in 9-11 minutes at n = 8.
MAX_SAMPLES = 20000
# The most digits of an integer option: as many as int() reads on Python 3.11+.
INT_DIGITS = 4300


def _int_at_least(low: int, most: int | None = None):
    """An argparse type for integers of at least ``low`` (and at most
    ``most``, if given), written as ASCII digits with an optional leading
    minus, as in a truth-table header."""

    def parse(value: str) -> int:
        digits = decimal(value)
        if digits is None:
            raise argparse.ArgumentTypeError(f"{value!r} is not an integer")
        # float() reads a longer value as an infinity, beyond every bound on its side.
        n = int(digits) if len(digits) <= INT_DIGITS else float(digits)
        if n < low:
            raise argparse.ArgumentTypeError(f"value must be at least {low}")
        if most is not None and n > most:
            raise argparse.ArgumentTypeError(f"value must be at most {most}")
        if n == math.inf:
            raise argparse.ArgumentTypeError(f"value must have at most {INT_DIGITS} digits")
        return n

    return parse


def _refuse(message: str) -> int:
    """Print a refusal to stderr and return its exit code, 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load_network(path: str):
    from .netio import NetParseError, parse_truth_table

    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SystemExit(_refuse(str(exc))) from None
    try:
        return parse_truth_table(data)
    except (NetParseError, UnicodeDecodeError) as exc:
        raise SystemExit(_refuse(f"{path}: {exc}")) from None


def _load_networks(cap: int, *paths) -> tuple[list[int], list | None]:
    """(dims, networks) of the files at ``paths``.  When each is a regular
    file whose header the parse accepts and one header names n above
    ``cap``, the dims are the headers' and no body is read (networks None);
    else each file is parsed, and one the parse refuses exits 2."""
    from .netio import header_dimension

    def header(path):
        try:
            if stat.S_ISREG(os.stat(path).st_mode):  # a pipe is read once, by the parse
                with open(path, "rb") as fh:
                    return header_dimension(fh)
        except OSError:
            pass  # the parse reports it
        return None

    dims = [header(path) for path in paths]
    if None not in dims and max(dims) > cap:
        return dims, None
    networks = [_load_network(path) for path in paths]
    return [f.n for f in networks], networks


def _analysis_report(f, name: str, minimal_only: bool) -> dict:
    """What ``analyze`` prints, in print order.  The minimal trapspaces are
    their (free, base) arrays, in ``pairs()`` order, under ``minimal_cubes``:
    the printers format them in blocks, so no string per trapspace is held."""
    from .dynamics import transient_and_period

    if minimal_only:
        from .trapspaces import minimal_cover

        free, base, covered, distinct = minimal_cover(f)
    else:
        from .classes import NetworkProfile

        profile = NetworkProfile(f)
        (free, base, covered), distinct = profile.minimal_pairs, profile.pt_distinct
    transient, period = transient_and_period(f)
    report: dict = {
        "name": name,
        "n": f.n,
        "transient": transient,
        "period": period,
        "trapspaces": {
            "principal_distinct": distinct,
            "minimal": len(free),
            "min_configs": int(covered.sum()),
            "minimal_cubes": (free, base),
        },
    }
    if minimal_only:
        return report
    from .classes import classify_network
    from .dynamics import GRAPH_PROPERTIES

    report["trapspaces"]["all"] = len(profile.trapspace_collection)
    report["classes"] = classify_network(f, profile).as_dict()
    report["graphs"] = {
        key: {p: profile.prop(f"{p.replace('-', '_')}_{kind}") for p in GRAPH_PROPERTIES}
        for key, kind in (("asynchronous", "a"), ("general", "ga"), ("trapping", "tg"))
    }
    return report


# The minimal trapspaces formatted per write.
_CUBES_PER_WRITE = 1 << 12


def _write_cubes(n: int, free, base, prefix: str, suffix: str) -> None:
    """Write one line per (free, base) subcube, between ``prefix`` and
    ``suffix``, a block at a time."""
    from .cubesets import format_pairs

    for start in range(0, len(free), _CUBES_PER_WRITE):
        block = slice(start, start + _CUBES_PER_WRITE)
        sys.stdout.write(format_pairs(n, free[block], base[block], prefix, suffix))


def _print_json_report(report: dict) -> None:
    """Print ``json.dumps(report, indent=2)`` of the report with its minimal
    trapspaces as a list of strings, writing that list a block at a time."""
    ts, key = report["trapspaces"], '"minimal_cubes": '
    free, base = ts["minimal_cubes"]
    text = json.dumps({**report, "trapspaces": {**ts, "minimal_cubes": []}}, indent=2)
    head, _, tail = text.partition(key + "[]")
    sys.stdout.write(head + key)
    if len(free):
        # indent=2 puts the list's items at depth 3 and its bracket at depth 2.
        sys.stdout.write("[\n")
        _write_cubes(report["n"], free[:-1], base[:-1], '      "', '",\n')
        _write_cubes(report["n"], free[-1:], base[-1:], '      "', '"\n')
        sys.stdout.write("    ]")
    else:
        sys.stdout.write("[]")
    sys.stdout.write(tail + "\n")


def _print_text_report(report: dict) -> None:
    print(f"name: {report['name']}")
    print(f"n: {report['n']}")
    ts = report["trapspaces"]
    print(f"trapspaces: principal distinct: {ts['principal_distinct']}", end="")
    if "all" in ts:
        print(f", all: {ts['all']}", end="")
    print(f", minimal: {ts['minimal']} (covering {ts['min_configs']} configurations)")
    _write_cubes(report["n"], *ts["minimal_cubes"], "  minimal: ", "\n")
    print(f"dynamics: transient {report['transient']}, period {report['period']}")
    if "classes" in report:
        flags = report["classes"]
        on = [k for k, v in flags.items() if v]
        off = [k for k, v in flags.items() if not v]
        print(f"classes (true): {', '.join(on) if on else '(none)'}")
        print(f"classes (false): {', '.join(off) if off else '(none)'}")
    if "graphs" in report:
        for key, props in report["graphs"].items():
            line = ", ".join(f"{p}={'yes' if v else 'no'}" for p, v in props.items())
            print(f"graph {key}: {line}")


def cmd_analyze(args) -> int:
    cap = CAPS["table"] if args.minimal_only else CAPS["enumeration"]
    (n,), networks = _load_networks(cap, args.file)
    if n > cap:
        mode = "minimal-only" if args.minimal_only else "full"
        return _refuse(f"{mode} analysis is capped at n={cap}")
    (f,) = networks
    report = _analysis_report(f, args.file, args.minimal_only)
    (_print_json_report if args.format == "json" else _print_text_report)(report)
    return 0


def cmd_graph(args) -> int:
    (n,), networks = _load_networks(CAPS["enumeration"], args.file)
    if n > CAPS["enumeration"]:
        return _refuse(f"graph export is capped at n={CAPS['enumeration']}")
    (f,) = networks
    from .classes import NetworkProfile
    from .netio import iter_dot

    profile = NetworkProfile(f)
    depth = 3 if args.layered else {"async": 1, "ga": 2, "tg": 3}[args.kind]
    layers = [getattr(profile, a) for a in ("graph_a", "graph_ga", "graph_tg")[:depth]]
    labels = ["asynchronous", "general asynchronous", "trapping"][:depth]
    for piece in iter_dot(layers, labels):
        sys.stdout.write(piece)
    return 0


TRAPSPACE_CONDITIONS = (
    "same principal trapspace collection",
    "same trapspace collection",
    "same principal trapspaces pointwise",
    "same trapping graph",
    "same trapping closure",
)
MIN_CONDITIONS = (
    "same minimal trapspace collection",
    "same min configurations with equal principal trapspaces there",
    "equal principal trapspaces on either side's min configurations",
    "same min-trapping extension",
)


def cmd_equiv(args) -> int:
    cap = CAPS["enumeration"] if args.mode == "trapspace" else CAPS["table"]
    (n, m), networks = _load_networks(cap, args.file_a, args.file_b)
    if n != m:
        return _refuse(f"dimension mismatch: {n} != {m}")
    if n > cap:
        return _refuse(f"{args.mode} equivalence is capped at n={cap}")
    f, g = networks
    from .classes import min_trapspace_equivalent, trapspace_equivalent

    if args.mode == "trapspace":
        vector = trapspace_equivalent(f, g)
        names = TRAPSPACE_CONDITIONS
    else:
        vector = min_trapspace_equivalent(f, g)
        names = MIN_CONDITIONS
    for name, value in zip(names, vector):
        print(f"{name}: {'yes' if value else 'no'}")
    equivalent = all(vector)
    print(f"verdict: {'equivalent' if equivalent else 'not equivalent'}")
    return 0 if equivalent else 1


def cmd_verify(args) -> int:
    if args.exhaustive and args.samples is not None:
        return _refuse("choose either --exhaustive or --samples")
    exhaustive_n = CAPS["exhaustive"]
    if args.n <= exhaustive_n:
        if not args.exhaustive:
            return _refuse(f"n <= {exhaustive_n} requires --exhaustive")
    elif args.exhaustive:
        return _refuse(f"--exhaustive is only available for n <= {exhaustive_n}")
    elif args.samples is None:
        return _refuse(f"n >= {exhaustive_n + 1} requires --samples")
    elif args.n > CAPS["pair_sweep"]:
        return _refuse(f"sampled verification is capped at n={CAPS['pair_sweep']}")
    from .generators import exhaustive_networks
    from .netio import network_to_text
    from .verify import run_verification, sample_population

    if args.exhaustive:
        networks = exhaustive_networks(args.n)
    else:
        networks = sample_population(args.n, args.samples, args.seed)
    violations = run_verification(networks, args.suite, every_pair=args.exhaustive)
    print(f"checked {len(networks)} networks (n={args.n}, suite={args.suite})")
    for v in violations:
        print(f"violation [{v.check}]: {v.detail}")
        print("reproducer:")
        sys.stdout.write(network_to_text(v.network))
    print(f"violations: {len(violations)}")
    return 1 if violations else 0


def cmd_gen(args) -> int:
    if args.kind == "long-transient" and args.n < 3:
        return _refuse("long-transient requires n >= 3")
    if args.n > CAPS["network"]:
        return _refuse(f"networks are capped at n={CAPS['network']}")
    from . import generators
    from .dynamics import transient_and_period
    from .netio import network_to_text

    if args.kind == "random":
        net = generators.random_network(args.n, args.seed)
    elif args.kind == "commutative":
        net = generators.random_commutative(args.n, args.seed, args.parts)
    elif args.kind == "negation":
        net = generators.random_negation_on_subcubes(args.n, args.seed, args.parts)
    elif args.kind == "constant":
        net = generators.random_constant_on_arrangements(args.n, args.seed, args.parts)
    else:
        net = generators.long_transient_trapping(args.n)
    text = network_to_text(net)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        return _refuse(str(exc))
    transient, period = transient_and_period(net)
    if args.n > CAPS["enumeration"]:
        summary = f"classes skipped above n={CAPS['enumeration']}"
    else:
        from .classes import classify_network

        report = classify_network(net)
        summary = ", ".join(
            f"{name}: {'true' if getattr(report, name) else 'false'}"
            for name in ("trapping", "commutative", "marseille", "lille", "globally_idempotent")
        )
    print(f"wrote {args.out} (n={args.n}, {summary}, transient={transient}, period={period})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapnets",
        description="Trapspace analysis of Boolean networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a network and count its trapspaces")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--minimal-only", action="store_true",
                   help=f"skip full enumeration; allows n up to {CAPS['table']}")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("graph", help="export a dynamics graph as DOT")
    p.add_argument("file")
    p.add_argument("--kind", choices=("async", "ga", "tg"), default="async")
    p.add_argument("--layered", action="store_true",
                   help="stack all three layers regardless of --kind")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("equiv", help="compare the trapspace structure of two networks")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--mode", choices=("trapspace", "min"), default="trapspace")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("verify", help="sweep a population against the structural claims")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=_int_at_least(1, MAX_SAMPLES),
                   help=f"random networks to draw, at most {MAX_SAMPLES}")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--suite", choices=SUITES, default="all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a network and write its truth table")
    p.add_argument("--kind", required=True,
                   choices=("random", "commutative", "negation", "constant", "long-transient"))
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--parts", type=_int_at_least(1, MAX_PARTS), default=2,
                   help=f"pieces of a commutative, negation or constant network, "
                   f"at most {MAX_PARTS}")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, so that a failed write is caught below
    except BrokenPipeError:
        # The reader has gone: stop quietly, and send what is left in the
        # buffer to /dev/null so the flush at exit is quiet too.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 0
    return code


def entry() -> int:
    """``main`` on ``sys.argv`` as the process's one call, with the collector
    paused and, on every exit path, frozen."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
