import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapnets import (
    BooleanNetwork,
    NetParseError,
    build_graph,
    export_dot,
    netio,
    network_to_text,
    parse_truth_table,
    trapping_graph,
)
from trapnets.generators import exhaustive_networks, random_network
from trapnets.netio import _parse_canonical, _parse_lines, header_dimension

from helpers import F_EX3_ROWS, cfg, f_ex3, rowwise_truth_table, sampled_networks


def f_ex3_text():
    return "n=3\n" + "".join(f"{k} {v}\n" for k, v in F_EX3_ROWS.items())


# --- truth tables


def test_parse_worked_example():
    f = parse_truth_table(f_ex3_text())
    assert f.n == 3
    assert f == f_ex3()
    assert f(cfg("000")) == cfg("110")


def test_parse_identity_on_one_bit():
    assert parse_truth_table("n=1\n0 0\n1 1") == BooleanNetwork.identity(1)


def test_missing_row_reported():
    text = "\n".join(
        f"{k} {v}" for k, v in F_EX3_ROWS.items() if k != "011"
    )
    with pytest.raises(NetParseError, match="missing configuration 011"):
        parse_truth_table("n=3\n" + text)


def test_duplicate_row_reported():
    with pytest.raises(NetParseError, match="duplicate configuration 0"):
        parse_truth_table("n=1\n0 0\n0 1\n1 1")


def test_ragged_width_reported():
    with pytest.raises(NetParseError, match="expected width 2"):
        parse_truth_table("n=2\n00 00\n01 010\n10 10\n11 11")


def test_bad_character_reported():
    err = None
    try:
        parse_truth_table("n=1\n0 0\n1 x")
    except NetParseError as exc:
        err = exc
    assert err is not None and err.line == 3
    for token, char in (("1_0", "_"), ("+01", "+")):
        rows = "".join(f"{x:03b} {x:03b}\n" for x in range(1, 8))
        with pytest.raises(NetParseError, match=re.escape(f"line 2: bad character {char!r}")):
            parse_truth_table(f"n=3\n{token} 000\n{rows}")


def test_comments_and_blank_lines_ignored():
    f = parse_truth_table("# header\n\nn=1\n0 1  # negate\n1 0\n")
    assert f == BooleanNetwork.negation(1)


@pytest.mark.parametrize("header", ["n=1_0", "n=+1", "n= 1", "n=\u0663"])
def test_header_dimension_must_be_ascii_digits(header):
    # int() would read these as 10, 1, 1 and 3 (an Arabic-Indic digit).
    message = f"line 1: bad dimension in header {header!r}"
    with pytest.raises(NetParseError, match=re.escape(message)):
        parse_truth_table(f"{header}\n0 0\n1 1\n")


def test_negative_header_is_out_of_range():
    with pytest.raises(NetParseError, match="line 1: dimension -1 out of range"):
        parse_truth_table("n=-1\n")


def test_write_is_canonical_and_roundtrips():
    f = parse_truth_table(f_ex3_text())
    text = network_to_text(f)
    again = parse_truth_table(text)
    assert again == f
    assert network_to_text(again) == text
    # shuffled rows parse to the same network and re-serialise sorted
    lines = f_ex3_text().strip().splitlines()
    shuffled = [lines[0]] + random.Random(1).sample(lines[1:], len(lines) - 1)
    assert network_to_text(parse_truth_table("\n".join(shuffled))) == text


def test_write_identity_on_two_bits():
    text = network_to_text(BooleanNetwork.identity(2))
    assert text == "n=2\n00 00\n10 10\n01 01\n11 11\n"


# --- the numpy reader of canonical documents, against the line loop


def _outcome(parse, text):
    try:
        f = parse(text)
    except NetParseError as exc:
        return "error", exc.line, str(exc)
    return "ok", f.n, f


def _lines(rows, end="\n"):
    return "".join(row + end for row in rows)


# Each edit takes (rows, data) and returns a body and whether the numpy
# reader must take it.  The last three keep the canonical length but break
# the layout, so they must reach the loop's message.
_EDITS = {
    "canonical": lambda rows, data: (_lines(rows), True),
    "shuffled": lambda rows, data: (_lines(data.draw(st.permutations(rows))), True),
    "comment line": lambda rows, data: (_lines(["# rows follow", *rows]), False),
    "trailing comment": lambda rows, data: (_lines(r + " # c" for r in rows), False),
    "crlf": lambda rows, data: (_lines(rows, "\r\n"), False),
    "trailing spaces": lambda rows, data: (_lines(r + "  " for r in rows), False),
    "tab separator": lambda rows, data: (_lines(r.replace(" ", "\t") for r in rows), False),
    "no final newline": lambda rows, data: (_lines(rows)[:-1], False),
    "no rows": lambda rows, data: ("", False),
    "a 2": lambda rows, data: _replace_char(rows, data, "2"),
    "duplicate row": lambda rows, data: _copy_row(rows, data),
    "missing row": lambda rows, data: _comment_row(rows, data),
}


def _replace_char(rows, data, char):
    i = data.draw(st.integers(0, len(rows) - 1))
    col = data.draw(st.sampled_from([c for c, ch in enumerate(rows[i]) if ch != " "]))
    rows = list(rows)
    rows[i] = rows[i][:col] + char + rows[i][col + 1 :]
    return _lines(rows), False


def _copy_row(rows, data):
    i, j = data.draw(st.permutations(range(len(rows))))[:2]
    rows = list(rows)
    rows[i] = rows[j]
    return _lines(rows), False


def _comment_row(rows, data):
    i = data.draw(st.integers(0, len(rows) - 1))
    rows = list(rows)
    rows[i] = "#" * len(rows[i])
    return _lines(rows), False


@given(st.integers(1, 4), st.sampled_from(sorted(_EDITS)), st.data())
@settings(max_examples=300, deadline=None)
def test_numpy_reader_matches_line_loop(n, edit, data):
    image = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1 << n, max_size=1 << n))
    rows = [f"{format(x, f'0{n}b')[::-1]} {format(y, f'0{n}b')[::-1]}" for x, y in enumerate(image)]
    body, canonical = _EDITS[edit](rows, data)
    text = f"n={n}\n{body}"
    assert (_parse_canonical(text) is not None) == canonical
    loop = _outcome(_parse_lines, text)
    assert _outcome(parse_truth_table, text) == loop
    if canonical:
        assert loop == ("ok", n, BooleanNetwork(n, tuple(image)))
    elif edit in ("a 2", "duplicate row", "missing row"):
        assert loop[0] == "error" and len(body) == (2 * n + 2) << n
    elif edit == "no rows":
        assert loop[:2] == ("error", 1)


def _shuffled(text: str, seed: int) -> str:
    header, *rows = text.splitlines(keepends=True)
    return header + "".join(random.Random(seed).sample(rows, len(rows)))


@pytest.mark.parametrize("chunk", [1, 3, 16])
def test_numpy_reader_checks_every_configuration_across_its_passes(monkeypatch, chunk):
    monkeypatch.setattr(netio, "_CHUNK_ROWS", chunk)
    f = random_network(4, 3)
    text = network_to_text(f)
    header, *rows = text.splitlines(keepends=True)
    for doc in (text, _shuffled(text, chunk)):
        n, image = _parse_canonical(doc)
        assert n == 4 and image.tolist() == list(f.image)
    # A row named twice, in the first pass and in the last, and a row missing.
    twice = header + "".join(rows[:-1]) + rows[0]
    missing = header + "".join(rows[:-1]) + "#" * (len(rows[0]) - 1) + "\n"
    for doc, message in ((twice, "duplicate configuration"), (missing, "missing configuration")):
        assert _parse_canonical(doc) is None
        with pytest.raises(NetParseError, match=message):
            parse_truth_table(doc)


def test_numpy_reader_holds_the_image_and_one_pass_at_n16():
    f = random_network(16, 1)
    text = network_to_text(f)
    for doc in (text.encode(), _shuffled(text, 1).encode()):
        tracemalloc.start()
        try:
            n, image = _parse_canonical(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 16 and np.array_equal(image, f.np_image)
        # The int64 image and the bool mask of named configurations (0.56
        # MiB) and one pass's temporaries over 4,096 rows: about 0.9 MiB.
        assert peak < 5 << 18


def test_header_dimension_reads_up_to_the_header_alone():
    body = network_to_text(f_ex3()).encode()
    for doc, n in (
        (body, 3),
        (b"# a comment\n\n   # another\r\nn=3  # the header\n", 3),
        # The body is not read: bytes that no parse accepts may follow.
        (b"n=20\n\xff\xfe not a row\n", 20),
        # Headers the parse refuses, and documents with none: its error stands.
        (b"n=21\n", None),
        (b"n=-3\n", None),
        (b"n=3.0\n", None),
        (b"x=3\n", None),
        (b"\xffn=3\n", None),
        (b"# only a comment\n", None),
        (b"", None),
    ):
        lines = iter(doc.splitlines(keepends=True))
        assert header_dimension(lines) == n, doc
        if n is not None:
            # Nothing past the header's line was read.
            assert b"".join(lines) == doc[doc.index(b"n=") :].partition(b"\n")[2]


# --- DOT export


def test_dot_asynchronous_layer_of_worked_example():
    f = f_ex3()
    dot = export_dot([build_graph(f, "asynchronous")], ["asynchronous"])
    assert dot.count("->") == 8
    assert dot.count("color=blue") == 8
    assert '"000" -> "100" [color=blue];' in dot


def test_dot_general_layer_adds_three_magenta():
    f = f_ex3()
    layers = [build_graph(f, "asynchronous"), build_graph(f, "general")]
    dot = export_dot(layers)
    assert dot.count("color=magenta") == 3
    for arc in ('"000" -> "110"', '"001" -> "100"', '"011" -> "110"'):
        assert f"{arc} [color=magenta];" in dot


def test_dot_trapping_layer_orange():
    f = f_ex3()
    layers = [
        build_graph(f, "asynchronous"),
        build_graph(f, "general"),
        trapping_graph(f),
    ]
    dot = export_dot(layers)
    assert '"001" -> "111" [color=orange];' in dot


def test_dot_identity_has_no_arcs():
    dot = export_dot([build_graph(BooleanNetwork.identity(2), "asynchronous")])
    assert "->" not in dot
    assert dot.count('"') == 8  # the four vertices still appear


def test_dot_requires_nested_layers():
    f = f_ex3()
    with pytest.raises(ValueError, match="nested"):
        export_dot([build_graph(f, "general"), build_graph(BooleanNetwork.identity(3), "general")])


def test_dot_is_byte_stable():
    f = f_ex3()
    layers = [build_graph(f, "asynchronous"), build_graph(f, "general"), trapping_graph(f)]
    assert export_dot(layers) == export_dot(layers)


def test_roundtrip_via_network_text():
    f = f_ex3()
    assert parse_truth_table(network_to_text(f)) == f


def test_byte_array_writer_matches_rowwise_oracle_and_roundtrips():
    networks = [
        *exhaustive_networks(1), *exhaustive_networks(2),
        *sampled_networks(range(3, 9)), random_network(13, 4),
    ]
    for f in networks:
        text = network_to_text(f)
        assert text == rowwise_truth_table(f)
        assert parse_truth_table(text) == f
