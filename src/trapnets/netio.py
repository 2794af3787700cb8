"""Reading and writing networks as truth tables, plus layered DOT export.

The truth table is the one network file format: UTF-8 with LF line ends,
optional ``#`` comments, an ``n=<k>`` header with k in ASCII digits, then
exactly 2^k rows ``<config> <image>`` written as width-k binary strings
x_1 x_2 ... x_k.  Rows may arrive in any order; the writer always emits
them in increasing configuration order, so write(parse(text)) is a
canonical form.  A document in the writer's exact byte layout, rows in any
order, is read from its bytes as one numpy byte array; any other is decoded
and goes through the line loop, which raises every ``NetParseError``.
``header_dimension`` reads a document's lines up to its header alone.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .caps import decimal
from .core import CAPS, BooleanNetwork, _bits_to_string, _string_to_bits, bitset_members
from .dynamics import HypercubeGraph

DOT_PALETTE = ("blue", "magenta", "orange", "violet", "red", "green")


class NetParseError(ValueError):
    """A malformed network file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _significant_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def _header_dimension(line_no: int, header: str) -> int:
    """The dimension that the ``n=<k>`` header line names; raises NetParseError."""
    if not header.startswith("n="):
        raise NetParseError(line_no, f"expected 'n=<k>' header, got {header!r}")
    digits = decimal(header[2:])
    if digits is None:
        raise NetParseError(line_no, f"bad dimension in header {header!r}")
    if len(digits) > len(str(CAPS["network"])) or not 1 <= int(digits) <= CAPS["network"]:
        raise NetParseError(line_no, f"dimension {digits} out of range")
    return int(digits)


def header_dimension(lines) -> int | None:
    """The dimension named by the header of a document given as its byte
    lines (a binary file), read up to the header; None where parsing the
    lines read raises, as parsing the whole document then does."""
    for raw in lines:
        try:
            for line_no, header in _significant_lines(raw.decode("utf-8")):
                return _header_dimension(line_no, header)
        except ValueError:  # UnicodeDecodeError and NetParseError among them
            return None
    return None


def _parse_config_token(token: str, n: int, line_no: int) -> int:
    if len(token) != n:
        raise NetParseError(line_no, f"expected width {n}, got {token!r}")
    try:
        return _string_to_bits(token)
    except ValueError as exc:
        raise NetParseError(line_no, str(exc)) from None


# Rows per pass of the canonical reader, so that its temporaries stay small
# beside the document.
_CHUNK_ROWS = 1 << 12


def _parse_canonical(data: str | bytes) -> tuple[int, np.ndarray] | None:
    """(n, image) of a document in exactly the writer's layout, else None.

    That layout is the header ``n=<k>`` and 2^k rows of k bits, a space, k
    bits and LF, so the body reads in place as a (2^k, 2k + 2) byte array.
    Rows may come in any order; each pass writes its rows into the image.
    Anything else, or any failed check, is left to the line loop, which
    owns every error message.
    """
    if isinstance(data, str):
        if not data.isascii():
            return None
        data = data.encode()
    end = data.find(b"\n", 0, 24)  # the header is short; the body is not copied
    if end < 0 or not (data.startswith(b"n=") and data[2:end].isdigit()):
        return None
    n = int(data[2:end])
    width = 2 * n + 2
    if not 1 <= n <= CAPS["network"] or len(data) - end - 1 != width << n:
        return None
    rows = np.frombuffer(data, dtype=np.uint8, offset=end + 1).reshape(1 << n, width)
    expect = np.frombuffer(f"{'1' * n} {'1' * n}\n".encode("ascii"), dtype=np.uint8)
    image, seen = np.empty(1 << n, dtype=np.int64), np.zeros(1 << n, dtype=bool)
    for start in range(0, 1 << n, _CHUNK_ROWS):
        chunk = rows[start : start + _CHUNK_ROWS]
        if not np.all(chunk | (expect & 1) == expect):  # bits are "0" or "1"
            return None
        # Only the low bit tells "0" from "1", and it is 0 in " " and "\n", so
        # the low bits of a row, packed little-endian, read as x + (y << (n + 1)).
        packed = np.zeros((len(chunk), 8), dtype=np.uint8)
        packed[:, : (width + 7) // 8] = np.packbits(chunk & 1, axis=1, bitorder="little")
        xy = packed.view("<i8").ravel()
        x = xy & (1 << n) - 1
        image[x] = xy >> (n + 1)
        seen[x] = True
    # 2^n rows, each naming a configuration, name them all iff none twice.
    if not seen.all():
        return None
    return n, image


def parse_truth_table(text: str | bytes) -> BooleanNetwork:
    """Parse a truth-table document, given as text or as its UTF-8 bytes;
    every configuration must appear once.  Bytes outside the writer's
    layout are decoded for the line loop, which may raise UnicodeDecodeError."""
    canonical = _parse_canonical(text)
    if canonical is None:
        return _parse_lines(text if isinstance(text, str) else text.decode("utf-8"))
    return BooleanNetwork(*canonical)


def _parse_lines(text: str) -> BooleanNetwork:
    """Any truth-table document, one line at a time; raises every NetParseError."""
    lines = _significant_lines(text)
    try:
        line_no, header = next(lines)  # the line a header-only document's error names
    except StopIteration:
        raise NetParseError(1, "empty document, expected 'n=<k>' header") from None
    n = _header_dimension(line_no, header)

    image = np.full(1 << n, -1)  # -1 until the configuration's row is read
    for line_no, line in lines:
        tokens = line.split()
        if len(tokens) != 2:
            raise NetParseError(line_no, f"expected '<config> <image>', got {line!r}")
        x = _parse_config_token(tokens[0], n, line_no)
        y = _parse_config_token(tokens[1], n, line_no)
        if image[x] >= 0:
            raise NetParseError(line_no, f"duplicate configuration {tokens[0]}")
        image[x] = y
    missing = np.flatnonzero(image < 0)
    if missing.size:
        raise NetParseError(line_no, f"missing configuration {_bits_to_string(int(missing[0]), n)}")
    return BooleanNetwork(n, image)


def network_to_text(f: BooleanNetwork) -> str:
    """Canonical serialisation: header then rows in increasing order."""
    n = f.n
    # The rows as one (2^n, 2n + 2) byte array; bit i of a configuration is
    # character i of its column.
    xs = np.arange(1 << n)
    rows = np.full((1 << n, 2 * n + 2), ord(" "), dtype=np.uint8)
    rows[:, -1] = ord("\n")
    for i in range(n):
        rows[:, i] = ord("0") + (xs >> i & 1)
        rows[:, n + 1 + i] = ord("0") + (f.np_image >> i & 1)
    return f"n={n}\n" + rows.tobytes().decode("ascii")


def iter_dot(layers: list[HypercubeGraph], labels: list[str] | None = None) -> Iterator[str]:
    """Layered DOT export, one piece per vertex and layer; loops dropped,
    arcs coloured by their first layer.

    The layers must be increasing under arc inclusion (e.g. asynchronous,
    then general asynchronous, then trapping); they are checked before the
    first piece is yielded.
    """
    if not layers:
        raise ValueError("need at least one graph layer")
    n = layers[0].n
    for g in layers:
        if g.n != n:
            raise ValueError("layers of mixed dimension")
    for lower, upper in zip(layers, layers[1:]):
        if not all(lo | hi == hi for lo, hi in zip(lower.out, upper.out)):
            raise ValueError("layers are not nested under arc inclusion")
    if labels is not None and len(labels) != len(layers):
        raise ValueError("one label per layer required")

    yield "digraph {\n"
    if labels:
        for k, label in enumerate(labels):
            yield f"  // layer {k}: {label} ({DOT_PALETTE[k % len(DOT_PALETTE)]})\n"
    names = [f'"{_bits_to_string(x, n)}"' for x in range(1 << n)]
    for name in names:
        yield f"  {name};\n"
    seen = [0] * (1 << n)
    for k, g in enumerate(layers):
        tail = f" [color={DOT_PALETTE[k % len(DOT_PALETTE)]}];\n"
        for x, name in enumerate(names):
            fresh = g.out[x] & ~seen[x] & ~(1 << x)
            seen[x] |= g.out[x]
            if fresh:
                head = f"  {name} -> "
                yield "".join(head + names[y] + tail for y in bitset_members(fresh))
    yield "}\n"


def export_dot(layers: list[HypercubeGraph], labels: list[str] | None = None) -> str:
    """``iter_dot`` as one string."""
    return "".join(iter_dot(layers, labels))
