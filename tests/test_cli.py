import gc
import json
import os
import re
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trapnets.cli import INT_DIGITS, MAX_PARTS, MAX_SAMPLES, main
from trapnets.classes import NetworkProfile
from trapnets.dynamics import GRAPH_PROPERTIES
from trapnets.generators import random_constant_on_arrangements
from trapnets.netio import network_to_text
from trapnets import BooleanNetwork, random_network

from helpers import (
    arcwise_graph_property,
    f_ex3,
    net_from_arcs,
    pairwise_minimal_trapspaces,
    stepwise_transient_and_period,
)


def write_net(tmp_path, name, net):
    path = tmp_path / name
    path.write_text(network_to_text(net), encoding="utf-8")
    return str(path)


def f_ex3_file(tmp_path):
    return write_net(tmp_path, "f_ex3.tt", f_ex3())


# --- analyze


def test_analyze_worked_example_text(tmp_path, capsys):
    assert main(["analyze", f_ex3_file(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "minimal: 3" in out
    assert "all: 9" in out
    assert "trapping" in out


def test_analyze_worked_example_json(tmp_path, capsys):
    assert main(["analyze", f_ex3_file(tmp_path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 3
    assert report["trapspaces"]["minimal"] == 3
    assert report["trapspaces"]["all"] == 9
    assert report["classes"]["trapping"] is False
    assert report["classes"]["fixable"] is True
    assert report["graphs"]["trapping"]["transitive"] is True


def test_analyze_identity_is_lille(tmp_path, capsys):
    path = write_net(tmp_path, "id.tt", BooleanNetwork.identity(2))
    assert main(["analyze", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classes"]["lille"] is True


def test_analyze_missing_file_exits_2(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["analyze", str(tmp_path / "missing.tt")])
    assert info.value.code == 2


def test_analyze_parse_error_exits_2(tmp_path):
    path = tmp_path / "bad.tt"
    path.write_text("n=2\n00 00\n", encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main(["analyze", str(path)])
    assert info.value.code == 2


def test_analyze_signed_header_exits_2(tmp_path, capsys):
    # A complete n = 1 table under a header that int() would accept.
    path = tmp_path / "signed.tt"
    path.write_text("n=+1\n0 0\n1 1\n", encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main(["analyze", str(path)])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: line 1: bad dimension in header 'n=+1'\n"


def test_analyze_undecodable_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.tt"
    path.write_bytes(b"n=1\n0 \xff\n")
    with pytest.raises(SystemExit) as info:
        main(["analyze", str(path)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("padding", [0, 9000])
def test_analyze_undecodable_file_names_the_byte_and_its_position(tmp_path, capsys, padding):
    # The whole file is decoded at once, so a bad byte past the first 8 KiB
    # is reported at its position in the file.
    path = tmp_path / "bad.tt"
    path.write_bytes(b"n=1\n0 0\n#" + b"x" * padding + b"\xff\n1 1\n")
    with pytest.raises(SystemExit) as info:
        main(["analyze", str(path)])
    assert info.value.code == 2
    assert capsys.readouterr() == ("", f"error: {path}: 'utf-8' codec can't decode byte 0xff "
                                       f"in position {9 + padding}: invalid start byte\n")


def test_analyze_reads_crlf_line_ends_as_lf(tmp_path, capsys):
    f = random_network(6, 3)
    text = network_to_text(f)
    lf, crlf = tmp_path / "lf.tt", tmp_path / "crlf.tt"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    outputs = []
    for path in (lf, crlf):
        assert main(["analyze", str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        outputs.append({k: v for k, v in report.items() if k != "name"})
    assert outputs[0] == outputs[1]


def test_analyze_json_is_stable(tmp_path, capsys):
    path = f_ex3_file(tmp_path)
    assert main(["analyze", path, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", path, "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_analyze_minimal_only(tmp_path, capsys):
    assert main(["analyze", f_ex3_file(tmp_path), "--minimal-only", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trapspaces"]["minimal"] == 3
    assert "classes" not in report and "all" not in report["trapspaces"]


@pytest.mark.parametrize(
    "make, n, seed", [(random_network, 16, 1), (random_constant_on_arrangements, 14, 5)]
)
def test_analyze_minimal_only_at_large_n(tmp_path, capsys, make, n, seed):
    net = make(n, seed)
    path = write_net(tmp_path, "large.tt", net)
    assert main(["analyze", path, "--minimal-only", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["transient"], report["period"]) == stepwise_transient_and_period(net)
    expected = pairwise_minimal_trapspaces(net)
    assert report["trapspaces"]["minimal"] == len(expected)
    assert report["trapspaces"]["min_configs"] == sum(c.size() for c in expected)
    assert sorted(report["trapspaces"]["minimal_cubes"]) == sorted(str(c) for c in expected)


# What arcwise_graph_property gives on the three graphs of random_network(12, 1).
# The trapping graph has about 16M arcs; its arc-wise answers take about a
# minute on 2 vCPUs, so they are stored here rather than recomputed.
ARCWISE_GRAPHS_RANDOM_12_1 = {
    "asynchronous": {
        "reflexive": True, "symmetric": False, "transitive": False,
        "oriented": False, "triangular": False, "sink-terminal": True,
    },
    "general": {
        "reflexive": True, "symmetric": False, "transitive": False,
        "oriented": False, "triangular": False, "sink-terminal": True,
    },
    "trapping": {
        "reflexive": True, "symmetric": False, "transitive": True,
        "oriented": False, "triangular": False, "sink-terminal": True,
    },
}


def test_analyze_full_at_n12_matches_arcwise_oracle(tmp_path, capsys):
    net = random_network(12, 1)
    path = write_net(tmp_path, "n12.tt", net)
    assert main(["analyze", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["graphs"] == ARCWISE_GRAPHS_RANDOM_12_1
    profile = NetworkProfile(net)
    for key, g in (("asynchronous", profile.graph_a), ("general", profile.graph_ga)):
        assert report["graphs"][key] == {
            p: arcwise_graph_property(g, p) for p in GRAPH_PROPERTIES
        }


@pytest.mark.parametrize(
    "net, count, trapspace_fp",
    [
        (BooleanNetwork.identity(13), 3**13, True),  # every subcube
        (BooleanNetwork.negation(13), 1, False),  # the full cube only
    ],
    ids=["identity", "negation"],
)
def test_analyze_full_at_the_cap(tmp_path, capsys, net, count, trapspace_fp):
    path = write_net(tmp_path, "n13.tt", net)
    assert main(["analyze", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trapspaces"]["all"] == count
    assert report["classes"]["trapspace_fp"] is trapspace_fp


# --- graph


def test_graph_async_of_identity_has_no_arcs(tmp_path, capsys):
    path = write_net(tmp_path, "id.tt", BooleanNetwork.identity(2))
    assert main(["graph", path, "--kind", "async"]) == 0
    assert "->" not in capsys.readouterr().out


def test_graph_ga_adds_three_magenta(tmp_path, capsys):
    assert main(["graph", f_ex3_file(tmp_path), "--kind", "ga"]) == 0
    out = capsys.readouterr().out
    assert out.count("color=magenta") == 3


def test_graph_tg_layered_contains_orange(tmp_path, capsys):
    assert main(["graph", f_ex3_file(tmp_path), "--kind", "tg", "--layered"]) == 0
    out = capsys.readouterr().out
    assert '"001" -> "111" [color=orange];' in out
    assert out.count("color=blue") == 8


def test_graph_layered_is_full_stack_for_any_kind(tmp_path, capsys):
    path = f_ex3_file(tmp_path)
    assert main(["graph", path, "--kind", "async", "--layered"]) == 0
    first = capsys.readouterr().out
    assert main(["graph", path, "--kind", "tg", "--layered"]) == 0
    assert capsys.readouterr().out == first


def test_graph_stops_quietly_when_the_reader_closes(tmp_path):
    # About 660 KB of DOT, ten times a pipe's buffer: the writes after the
    # reader closes fail with EPIPE.
    path = write_net(tmp_path, "r7.tt", random_network(7, 1))
    child = subprocess.Popen([sys.executable, "-m", "trapnets.cli", "graph", path, "--kind", "tg"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.readline() == b"digraph {\n"
    child.stdout.close()
    assert child.stderr.read() == b""
    assert child.wait(timeout=60) == 0


@pytest.mark.parametrize("command", [
    ["analyze", "{net}", "--format", "json"],
    ["analyze", "{net}"],
    ["graph", "{net}", "--kind", "tg"],
    ["equiv", "{net}", "{net}"],
    ["verify", "--n", "3", "--samples", "5", "--seed", "1"],
    ["gen", "--kind", "random", "--n", "3", "--out", "{out}"],
], ids=["analyze-json", "analyze-text", "graph-tg", "equiv", "verify", "gen"])
def test_command_stops_quietly_when_the_reader_has_closed(tmp_path, command):
    # The reader closes before the child writes: its first write, at the
    # latest the flush at exit, fails with EPIPE however short the output.
    net = write_net(tmp_path, "r6.tt", random_network(6, 1))
    args = [a.format(net=net, out=tmp_path / "gen.tt") for a in command]
    child = subprocess.Popen([sys.executable, "-m", "trapnets.cli", *args],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()
    assert child.stderr.read() == b""
    assert child.wait(timeout=60) == 0


def test_graph_above_analyze_cap_exits_2(tmp_path, capsys):
    path = write_net(tmp_path, "id14.tt", BooleanNetwork.identity(14))
    assert main(["graph", path, "--kind", "async"]) == 2
    assert "capped at n=13" in capsys.readouterr().err


# --- equiv


def test_equiv_network_and_closure(tmp_path, capsys):
    from trapnets import trapping_closure

    a = f_ex3_file(tmp_path)
    b = write_net(tmp_path, "closure.tt", trapping_closure(f_ex3()))
    assert main(["equiv", a, b, "--mode", "trapspace"]) == 0
    assert "equivalent" in capsys.readouterr().out


def test_equiv_min_pair(tmp_path, capsys):
    a = write_net(tmp_path, "a.tt", net_from_arcs(2, ["00>10", "10>11"]))
    b = write_net(tmp_path, "b.tt", net_from_arcs(2, ["00<>10", "10>11"]))
    assert main(["equiv", a, b, "--mode", "min"]) == 0
    assert main(["equiv", a, b, "--mode", "trapspace"]) == 1


def test_equiv_identity_negation(tmp_path):
    a = write_net(tmp_path, "id.tt", BooleanNetwork.identity(2))
    b = write_net(tmp_path, "neg.tt", BooleanNetwork.negation(2))
    assert main(["equiv", a, b, "--mode", "trapspace"]) == 1


def test_equiv_dimension_mismatch_exits_2(tmp_path):
    a = write_net(tmp_path, "id2.tt", BooleanNetwork.identity(2))
    b = write_net(tmp_path, "id3.tt", BooleanNetwork.identity(3))
    assert main(["equiv", a, b, "--mode", "trapspace"]) == 2


@pytest.mark.parametrize("mode, n, cap", [("trapspace", 14, 13), ("min", 17, 16)])
def test_equiv_above_cap_exits_2(tmp_path, capsys, mode, n, cap):
    path = write_net(tmp_path, f"id{n}.tt", BooleanNetwork.identity(n))
    assert main(["equiv", path, path, "--mode", mode]) == 2
    assert f"{mode} equivalence is capped at n={cap}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["analyze", "over"], "full analysis is capped at n=13"),
    (["analyze", "over", "--minimal-only"], "minimal-only analysis is capped at n=16"),
    (["graph", "over", "--layered"], "graph export is capped at n=13"),
    (["equiv", "over", "over"], "trapspace equivalence is capped at n=13"),
    (["equiv", "over", "over", "--mode", "min"], "min equivalence is capped at n=16"),
    (["equiv", "small", "over", "--mode", "min"], "dimension mismatch: 3 != 17"),
])
def test_over_cap_file_is_refused_from_its_header(tmp_path, capsys, monkeypatch, argv, message):
    from trapnets import netio

    paths = {
        # A comment line before the header, and a body no parse reads.
        "over": tmp_path / "over.tt",
        "small": write_net(tmp_path, "small.tt", f_ex3()),
    }
    paths["over"].write_bytes(b"# over every cap but the network's\nn=17\n\xff not a row\n")

    def refuse(data):
        raise AssertionError("the body was parsed")

    monkeypatch.setattr(netio, "parse_truth_table", refuse)
    argv = [str(paths.get(arg, arg)) for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_within_cap_and_refused_headers_keep_the_parse_error(tmp_path, capsys):
    for doc, error in (
        ("n=3\n000 001\n", "line 2: missing configuration 100"),
        ("n=21\n", "line 1: dimension 21 out of range"),
        ("n=17 x\n", "line 1: bad dimension in header 'n=17 x'"),
        # Past int()'s 4,300 digits, and a header with no rows.
        ("n=" + "9" * 5000 + "\n", f"line 1: dimension {'9' * 5000} out of range"),
        ("n=" + "0" * 5000 + "2\n", "line 1: missing configuration 00"),
        ("n=2\r\n", "line 1: missing configuration 00"),
        ("# c\nn=1\n# only comments\n", "line 2: missing configuration 0"),
    ):
        path = tmp_path / "bad.tt"
        path.write_text(doc, encoding="utf-8")
        for argv in (["analyze", str(path)], ["graph", str(path)], ["equiv", str(path), str(path)]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert capsys.readouterr().err == f"error: {path}: {error}\n"


# Each mutation takes a document, a position in it and a byte.
_MUTATIONS = {
    "flip": lambda doc, i, b: doc[:i] + bytes(x ^ b for x in doc[i : i + 1]) + doc[i + 1 :],
    "insert": lambda doc, i, b: doc[:i] + bytes([b]) + doc[i:],
    "delete": lambda doc, i, b: doc[:i] + doc[i + 1 :],
    "truncate": lambda doc, i, b: doc[:i],
    "crlf": lambda doc, i, b: doc.replace(b"\n", b"\r\n"),
    "bom": lambda doc, i, b: b"\xef\xbb\xbf" + doc,
    "non-utf-8": lambda doc, i, b: doc[:i] + b"\xff" + doc[i:],
}
_HEADERS = st.sampled_from(["", "-", "-3", "+3", "0003", "-0"]) | st.integers(4299, 5001).flatmap(
    lambda k: st.sampled_from(["9" * k, "0" * (k - 1) + "3", "-" + "9" * k])
)


@st.composite
def _documents(draw):
    """A written network of n <= 4, with a header swapped in and a few bytes
    mutated."""
    n = draw(st.integers(1, 4))
    image = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1 << n, max_size=1 << n))
    doc = network_to_text(BooleanNetwork(n, tuple(image))).encode()
    header = draw(st.none() | _HEADERS)
    if header is not None:
        doc = f"n={header}".encode() + doc[doc.index(b"\n") :]
    for name in draw(st.lists(st.sampled_from(sorted(_MUTATIONS)), max_size=3)):
        doc = _MUTATIONS[name](doc, draw(st.integers(0, len(doc))), draw(st.integers(0, 255)))
    return doc


@pytest.mark.parametrize("command", [
    ["analyze"], ["analyze", "--minimal-only"], ["graph"], ["equiv"], ["equiv", "--mode", "min"],
])
@given(doc=_documents())
@example(doc=b"n=" + b"9" * 5000 + b"\n")
@example(doc=b"n=2\n")
@settings(max_examples=200, deadline=None)
def test_any_document_exits_0_1_or_2(tmp_path_factory, command, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed.tt"
    path.write_bytes(doc)
    files = [str(path)] * (2 if command[0] == "equiv" else 1)
    try:
        code = main([*command, *files])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2)


def test_analyze_reads_a_network_from_a_pipe(tmp_path, capsys):
    # A pipe is read once, in full: its header is not read ahead.
    fifo = tmp_path / "net.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(network_to_text(f_ex3()),),
                              daemon=True)
    writer.start()
    try:
        assert main(["analyze", str(fifo), "--minimal-only"]) == 0
    finally:
        writer.join(timeout=60)
    assert capsys.readouterr().out.startswith(f"name: {fifo}\nn: 3\n")


# --- verify


def test_verify_exhaustive_n1(capsys):
    assert main(["verify", "--n", "1", "--exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "violations: 0" in out


def test_verify_exhaustive_n2_all_suites(capsys):
    assert main(["verify", "--n", "2", "--exhaustive", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert "checked 256 networks" in out
    assert "violations: 0" in out


def test_verify_samples_required_above_two(capsys):
    assert main(["verify", "--n", "3"]) == 2


def test_verify_exhaustive_required_below_three(capsys):
    assert main(["verify", "--n", "2", "--samples", "10"]) == 2


def test_verify_small_sampled_run(capsys):
    assert main(["verify", "--n", "3", "--samples", "12", "--seed", "7",
                 "--suite", "theorems"]) == 0
    out = capsys.readouterr().out
    assert "violations: 0" in out


def test_verify_above_sweep_cap_exits_2(capsys):
    assert main(["verify", "--n", "9", "--samples", "1"]) == 2
    assert "sampled verification is capped at n=8" in capsys.readouterr().err


def test_verify_sampled_at_n7(capsys):
    assert main(["verify", "--n", "7", "--samples", "2"]) == 0
    out = capsys.readouterr().out
    assert "checked 6 networks (n=7" in out and "violations: 0" in out


def test_verify_negative_seed_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--n", "3", "--samples", "5", "--seed", "-1"])
    assert info.value.code == 2
    assert "value must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["diagrams", "closure"])
def test_verify_single_suite(suite, capsys):
    assert main(["verify", "--n", "3", "--samples", "12", "--seed", "7", "--suite", suite]) == 0
    out = capsys.readouterr().out
    assert f"suite={suite})" in out and out.endswith("violations: 0\n")


def test_verify_flag_conflict(capsys):
    assert main(["verify", "--n", "2", "--exhaustive", "--samples", "5"]) == 2


# --- gen


def test_gen_long_transient(tmp_path, capsys):
    out_file = str(tmp_path / "lt.tt")
    assert main(["gen", "--kind", "long-transient", "--n", "4", "--out", out_file]) == 0
    summary = capsys.readouterr().out
    assert "transient=4" in summary and "period=2" in summary
    from trapnets import parse_truth_table, transient_and_period

    net = parse_truth_table(open(out_file).read())
    assert transient_and_period(net) == (4, 2)


def test_gen_negation_is_marseille(tmp_path, capsys):
    out_file = str(tmp_path / "neg.tt")
    assert main(["gen", "--kind", "negation", "--n", "3", "--seed", "1",
                 "--out", out_file]) == 0
    assert "marseille: true" in capsys.readouterr().out


def test_gen_rejects_zero_dimension(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["gen", "--kind", "random", "--n", "0", "--out", str(tmp_path / "x.tt")])
    assert info.value.code == 2


def test_gen_negative_seed_exits_2(tmp_path, capsys):
    out_file = tmp_path / "x.tt"
    with pytest.raises(SystemExit) as info:
        main(["gen", "--kind", "random", "--n", "3", "--seed", "-1", "--out", str(out_file)])
    assert info.value.code == 2
    assert "value must be at least 0" in capsys.readouterr().err
    assert not out_file.exists()


@pytest.mark.parametrize("value", ["1_0", "+1", " 1", "\u0663"])
@pytest.mark.parametrize("option", ["--n", "--seed", "--samples", "--parts"])
def test_integer_options_take_ascii_digits_only(tmp_path, capsys, option, value):
    # int() would read each of these values as 10, 1, 1 and 3.
    out_file = tmp_path / "x.tt"
    gen = ["gen", "--kind", "random", "--out", str(out_file)]
    command = {
        "--n": gen,
        "--seed": gen + ["--n", "3"],
        "--samples": ["verify", "--n", "3"],
        "--parts": gen + ["--n", "3"],
    }[option]
    with pytest.raises(SystemExit) as info:
        main(command + [option, value])
    assert info.value.code == 2
    assert f"{value!r} is not an integer" in capsys.readouterr().err
    assert not out_file.exists()


def test_integer_options_ignore_leading_zeros_and_refuse_by_digit_count(tmp_path, capsys):
    # int() reads at most INT_DIGITS digits, leading zeros among them.
    padded, plain = tmp_path / "padded.tt", tmp_path / "plain.tt"
    gen = ["gen", "--kind", "commutative", "--n", "3"]
    assert main(gen + ["--parts", "0" * 5000 + "2", "--seed", "0" * 5000 + "1", "--out", str(padded)]) == 0
    assert main(gen + ["--parts", "2", "--seed", "1", "--out", str(plain)]) == 0
    assert padded.read_bytes() == plain.read_bytes()
    assert main(gen + ["--seed", "9" * INT_DIGITS, "--out", str(plain)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(gen + ["--seed", "1" + "0" * INT_DIGITS, "--out", str(tmp_path / "x.tt")])
    assert info.value.code == 2
    assert f"argument --seed: value must have at most {INT_DIGITS} digits" in capsys.readouterr().err
    assert not (tmp_path / "x.tt").exists()


@pytest.mark.parametrize("kind", ["commutative", "negation", "constant"])
def test_gen_parts_is_bounded(tmp_path, capsys, kind):
    out_file = tmp_path / "x.tt"
    gen = ["gen", "--kind", kind, "--n", "4", "--seed", "1", "--out", str(out_file)]
    assert main(gen + ["--parts", str(MAX_PARTS)]) == 0
    assert out_file.exists()
    out_file.unlink()
    with pytest.raises(SystemExit) as info:
        main(gen + ["--parts", str(MAX_PARTS + 1)])
    assert info.value.code == 2
    assert f"value must be at most {MAX_PARTS}" in capsys.readouterr().err
    assert not out_file.exists()


def test_gen_random_roundtrips(tmp_path, capsys):
    out_file = str(tmp_path / "r.tt")
    assert main(["gen", "--kind", "random", "--n", "3", "--seed", "5",
                 "--out", out_file]) == 0
    from trapnets import parse_truth_table, random_network

    net = parse_truth_table(open(out_file).read())
    assert net == random_network(3, 5)


def test_gen_long_transient_needs_n3(tmp_path):
    assert main(["gen", "--kind", "long-transient", "--n", "2",
                 "--out", str(tmp_path / "x.tt")]) == 2


def test_gen_above_dimension_cap_exits_2(tmp_path, capsys):
    out_file = tmp_path / "x.tt"
    assert main(["gen", "--kind", "random", "--n", "21", "--out", str(out_file)]) == 2
    assert "capped at n=20" in capsys.readouterr().err
    assert not out_file.exists()


def test_gen_above_analyze_cap_skips_classes(tmp_path, capsys):
    out_file = str(tmp_path / "r14.tt")
    assert main(["gen", "--kind", "random", "--n", "14", "--seed", "1",
                 "--out", out_file]) == 0
    summary = capsys.readouterr().out
    transient, period = stepwise_transient_and_period(random_network(14, 1))
    assert "classes skipped above n=13" in summary
    assert f"transient={transient}, period={period}" in summary


def test_minimal_only_analyze_imports_no_masked_arrays(tmp_path):
    # The plain form of np.unique imports numpy.ma (about 14 ms a call under
    # numpy 2.4); numpy 1 imports it with numpy itself.
    path = write_net(tmp_path, "c.tt", random_constant_on_arrangements(8, 1))
    script = (
        "import sys; from trapnets.cli import main\n"
        "before = 'numpy.ma' in sys.modules\n"
        f"main(['analyze', {path!r}, '--minimal-only'])\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    before, after = out.stdout.split("\n")[-2].split()
    assert before == after


def test_sampled_verify_and_full_analyze_import_no_masked_arrays(tmp_path):
    path = write_net(tmp_path, "r.tt", random_network(9, 2))
    script = (
        "import sys; from trapnets.cli import main\n"
        "before = 'numpy.ma' in sys.modules\n"
        "main(['verify', '--n', '4', '--samples', '290', '--seed', '424200'])\n"
        f"main(['analyze', {path!r}])\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    before, after = out.stdout.split("\n")[-2].split()
    assert before == after


def loaded_after(argv):
    """The numpy and trapnets modules loaded by one ``main(argv)`` call in a
    fresh interpreter."""
    script = (
        "import sys\nfrom trapnets.cli import main\n"
        "try:\n    main(sys.argv[1:])\nexcept SystemExit:\n    pass\n"
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] in ('numpy', 'trapnets')))\n"
    )
    out = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
    return set(out.stdout.splitlines()[-1].split()) if out.stdout.strip() else set()


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"], ["verify", "--n", "0"], []])
def test_help_and_usage_errors_import_no_numpy(argv):
    assert loaded_after(argv) == {"trapnets", "trapnets.caps", "trapnets.cli"}


def test_verify_samples_above_the_bound_exit_2_before_importing_numpy(capsys):
    argv = ["verify", "--n", "3", "--samples", str(MAX_SAMPLES + 1)]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"value must be at most {MAX_SAMPLES}" in capsys.readouterr().err
    assert loaded_after(argv) == {"trapnets", "trapnets.caps", "trapnets.cli"}


def test_each_command_imports_only_the_layers_it_runs(tmp_path):
    small = write_net(tmp_path, "r.tt", random_network(5, 1))
    other = write_net(tmp_path, "c.tt", random_constant_on_arrangements(5, 1))
    layers = {"trapnets.classes", "trapnets.verify", "trapnets.generators"}
    minimal = loaded_after(["analyze", small, "--minimal-only"])
    assert {"numpy", "trapnets.trapspaces"} <= minimal and not minimal & layers
    for argv in (["analyze", small], ["graph", small, "--layered"],
                 ["equiv", small, other], ["equiv", "--mode", "min", small, other]):
        loaded = loaded_after(argv)
        assert "trapnets.classes" in loaded and not loaded & layers - {"trapnets.classes"}, argv
    loaded = loaded_after(["gen", "--kind", "random", "--n", "14", "--out", str(tmp_path / "g.tt")])
    assert "trapnets.generators" in loaded and "trapnets.classes" not in loaded


def test_help_runs_with_warnings_as_errors():
    # runpy warns when the package's import already loaded ``trapnets.cli``.
    out = subprocess.run([sys.executable, "-W", "error", "-m", "trapnets.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.startswith("usage: trapnets") and out.stderr == ""


def test_commands_read_only_the_image_array(tmp_path, monkeypatch, capsys):
    # Every command builds and reads networks as their int64 arrays; the
    # tuple form is for ``repr`` and for callers outside the package.
    from trapnets.classes import _all_closure_tables

    def no_tuple(self):
        raise AssertionError("BooleanNetwork.image was read")

    monkeypatch.setattr(BooleanNetwork, "image", property(no_tuple))
    _all_closure_tables.cache_clear()  # so that verify --exhaustive builds it here
    files = []
    for n in (5, 10):
        for kind in ("random", "commutative", "negation", "constant", "long-transient"):
            path = str(tmp_path / f"{kind}{n}.tt")
            assert main(["gen", "--kind", kind, "--n", str(n), "--seed", "1", "--parts", "4",
                         "--out", path]) == 0
            files.append(path)
    for path in files:
        assert main(["analyze", path]) == 0
        assert main(["analyze", path, "--minimal-only", "--format", "json"]) == 0
    assert main(["graph", files[1], "--layered"]) == 0
    for mode in ("trapspace", "min"):
        assert main(["equiv", "--mode", mode, files[6], files[8]]) in (0, 1)
    assert main(["verify", "--n", "3", "--samples", "30"]) == 0
    assert main(["verify", "--n", "2", "--exhaustive"]) == 0
    capsys.readouterr()


# --- the process entry

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_script_target_is_a_function_of_the_cli():
    # Read as text: Python 3.10 has no tomllib.
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        scripts = fh.read().split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    (target,) = re.findall(r'^trapnets = "(.*)"$', scripts, re.M)
    module, _, name = target.partition(":")
    import trapnets.cli

    assert module == "trapnets.cli" and callable(getattr(trapnets.cli, name, None))


@pytest.mark.parametrize("argv, code", [
    (["verify", "--n", "2", "--exhaustive"], 0),
    (["verify", "--n", "3"], 2),
    (["verify", "--n", "0"], 2),
], ids=["success", "refusal", "usage-error"])
@pytest.mark.parametrize("enabled", [True, False], ids=["collecting", "paused"])
def test_main_leaves_the_collector_as_it_found_it(capsys, argv, code, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        try:
            assert main(argv) == code
        except SystemExit as exc:
            assert exc.code == code
        assert gc.isenabled() == enabled and gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_entry_leaves_the_collector_frozen_after_a_refusal_inside_a_command(tmp_path):
    script = (
        "import gc\nfrom trapnets.cli import entry\n"
        "try:\n    entry()\nexcept SystemExit as exc:\n"
        "    print(exc.code, gc.isenabled(), gc.get_freeze_count() > 0)\n"
    )
    out = subprocess.run([sys.executable, "-c", script, "analyze", str(tmp_path / "none.tt")],
                         capture_output=True, text=True)
    assert out.stdout.split() == ["2", "False", "True"], out.stderr


def garbage_after(argv):
    """What ``gc.collect()`` finds after one ``main(argv)`` call in a fresh
    interpreter whose collector was paused from the start."""
    script = (
        "import gc, sys\ngc.disable()\nfrom trapnets.cli import main\n"
        "main(sys.argv[1:])\nsys.stdout.flush()\nprint(gc.collect(), file=sys.stderr)\n"
    )
    out = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return int(out.stderr.split()[-1])


def test_a_commands_cyclic_garbage_does_not_grow_with_its_input(tmp_path):
    # What makes it safe for ``entry`` to pause the collector for a whole call.
    verify = ["verify", "--n", "4", "--seed", "424200", "--samples"]
    assert garbage_after([*verify, "29"]) == garbage_after([*verify, "290"])
    small, large = (write_net(tmp_path, f"r{n}.tt", random_network(n, 2)) for n in (5, 10))
    assert garbage_after(["analyze", small]) == garbage_after(["analyze", large])


def test_a_reader_that_has_closed_leaves_no_descriptor_open():
    # The lowest free descriptor is the same before and after the call.
    script = (
        "import os, sys\nfrom trapnets.cli import main\n"
        "def lowest():\n    fd = os.open(os.devnull, os.O_RDONLY)\n    os.close(fd)\n    return fd\n"
        "before = lowest()\ncode = main(sys.argv[1:])\n"
        "print(code, before == lowest(), file=sys.stderr)\n"
    )
    child = subprocess.Popen([sys.executable, "-c", script, "verify", "--n", "2", "--exhaustive"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()
    assert child.stderr.read().split() == [b"0", b"True"]
    assert child.wait(timeout=60) == 0
