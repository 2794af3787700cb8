"""Parsing and serialising networks, plus layered DOT export.

Truth-table format: UTF-8 with LF line ends, optional ``#`` comments, an
``n=<k>`` header, then exactly 2^k rows ``<config> <image>`` written as
width-k binary strings x_1 x_2 ... x_k.  Rows may arrive in any order; the
writer always emits them in increasing configuration order, so
write(parse(text)) is a canonical form.  A document in the writer's exact
byte layout, rows in any order, is read as one numpy byte array; any
other goes through the line loop, which raises every ``NetParseError``.

Expression format: one ``x<i>, <expr>`` line per coordinate, where the
expression uses identifiers x1..xn, constants 0/1, parentheses and the
operators ! & ^ | with precedence ! > & > ^ > |.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import CAPS, BooleanNetwork, _bits_to_string, _string_to_bits, bitset_members
from .dynamics import HypercubeGraph

DOT_PALETTE = ("blue", "magenta", "orange", "violet", "red", "green")


class NetParseError(ValueError):
    """A malformed network file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class NetworkDocument:
    n: int
    source: str  # "truth-table" | "expression"
    network: BooleanNetwork
    name: str | None = None


def _significant_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def _parse_config_token(token: str, n: int, line_no: int) -> int:
    if len(token) != n:
        raise NetParseError(line_no, f"expected width {n}, got {token!r}")
    try:
        return _string_to_bits(token)
    except ValueError as exc:
        raise NetParseError(line_no, str(exc)) from None


def _parse_canonical(text: str) -> tuple[int, np.ndarray] | None:
    """(n, image) of a document in exactly the writer's layout, else None.

    That layout is the header ``n=<k>`` and 2^k rows of k bits, a space, k
    bits and LF, so the body reads as a (2^k, 2k + 2) byte array.  Rows may
    come in any order.  Anything else, or any failed check, is left to the
    line loop, which owns every error message.
    """
    header, _, body = text.partition("\n")
    if not (text.isascii() and header.startswith("n=") and header[2:].isdigit()):
        return None
    n = int(header[2:])
    width = 2 * n + 2
    if not 1 <= n <= CAPS["network"] or len(body) != width << n:
        return None
    rows = np.frombuffer(body.encode("ascii"), dtype=np.uint8).reshape(1 << n, width)
    expect = np.frombuffer(f"{'1' * n} {'1' * n}\n".encode("ascii"), dtype=np.uint8)
    if not np.all(rows | (expect & 1) == expect):  # bits are "0" or "1"
        return None
    # Only the low bit tells "0" from "1", and it is 0 in " " and "\n", so
    # the low bits of a row, packed little-endian, read as x + (y << (n + 1)).
    packed = np.zeros((1 << n, 8), dtype=np.uint8)
    packed[:, : (width + 7) // 8] = np.packbits(rows & 1, axis=1, bitorder="little")
    xy = packed.view("<u8").ravel().astype(np.int64)
    x, y = xy & (1 << n) - 1, xy >> (n + 1)
    if np.bincount(x, minlength=1 << n).max() != 1:
        return None
    image = np.empty_like(y)
    image[x] = y
    return n, image


def parse_truth_table(text: str, name: str | None = None) -> NetworkDocument:
    """Parse a truth-table document; every configuration must appear once."""
    canonical = _parse_canonical(text)
    if canonical is None:
        return _parse_lines(text, name)
    n, image = canonical
    return NetworkDocument(n, "truth-table", BooleanNetwork(n, tuple(image.tolist())), name)


def _parse_lines(text: str, name: str | None) -> NetworkDocument:
    """Any truth-table document, one line at a time; raises every NetParseError."""
    lines = _significant_lines(text)
    try:
        line_no, header = next(lines)
    except StopIteration:
        raise NetParseError(1, "empty document, expected 'n=<k>' header") from None
    if not header.startswith("n="):
        raise NetParseError(line_no, f"expected 'n=<k>' header, got {header!r}")
    try:
        n = int(header[2:])
    except ValueError:
        raise NetParseError(line_no, f"bad dimension in header {header!r}") from None
    if not 1 <= n <= CAPS["network"]:
        raise NetParseError(line_no, f"dimension {n} out of range")

    image: list[int | None] = [None] * (1 << n)
    for line_no, line in lines:
        tokens = line.split()
        if len(tokens) != 2:
            raise NetParseError(line_no, f"expected '<config> <image>', got {line!r}")
        x = _parse_config_token(tokens[0], n, line_no)
        y = _parse_config_token(tokens[1], n, line_no)
        if image[x] is not None:
            raise NetParseError(line_no, f"duplicate configuration {tokens[0]}")
        image[x] = y
    for x, y in enumerate(image):
        if y is None:
            raise NetParseError(line_no, f"missing configuration {_bits_to_string(x, n)}")
    return NetworkDocument(n, "truth-table", BooleanNetwork(n, tuple(image)), name)


def write_truth_table(doc: NetworkDocument) -> str:
    """Canonical serialisation: header then rows in increasing order."""
    n = doc.n
    # The rows as one (2^n, 2n + 2) byte array; bit i of a configuration is
    # character i of its column.
    xs = np.arange(1 << n)
    rows = np.full((1 << n, 2 * n + 2), ord(" "), dtype=np.uint8)
    rows[:, -1] = ord("\n")
    for i in range(n):
        rows[:, i] = ord("0") + (xs >> i & 1)
        rows[:, n + 1 + i] = ord("0") + (doc.network.np_image >> i & 1)
    return f"n={n}\n" + rows.tobytes().decode("ascii")


def network_to_text(f: BooleanNetwork) -> str:
    return write_truth_table(NetworkDocument(f.n, "truth-table", f))


class ExpressionError(ValueError):
    """A malformed coordinate expression; carries line and column."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class _ExprParser:
    # Recursive descent with precedence ! > & > ^ > |.

    def __init__(self, text: str, line_no: int):
        self.text = text
        self.line_no = line_no
        self.pos = 0

    def error(self, message: str):
        raise ExpressionError(self.line_no, self.pos + 1, message)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        node = self.parse_or()
        if self.peek():
            self.error(f"unexpected {self.text[self.pos]!r}")
        return node

    def parse_or(self):
        node = self.parse_xor()
        while self.peek() == "|":
            self.pos += 1
            node = ("or", node, self.parse_xor())
        return node

    def parse_xor(self):
        node = self.parse_and()
        while self.peek() == "^":
            self.pos += 1
            node = ("xor", node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_not()
        while self.peek() == "&":
            self.pos += 1
            node = ("and", node, self.parse_not())
        return node

    def parse_not(self):
        if self.peek() == "!":
            self.pos += 1
            return ("not", self.parse_not())
        return self.parse_atom()

    def parse_atom(self):
        c = self.peek()
        if c == "":
            self.error("unexpected end of expression")
        if c == "(":
            self.pos += 1
            node = self.parse_or()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return node
        if c in ("0", "1"):
            self.pos += 1
            return ("const", int(c))
        if c == "x":
            start = self.pos
            self.pos += 1
            digits = ""
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                digits += self.text[self.pos]
                self.pos += 1
            if not digits:
                self.pos = start
                self.error("expected variable index after 'x'")
            return ("var", int(digits))
        self.error(f"unexpected {c!r}")


def eval_expression(node, xs: np.ndarray) -> np.ndarray:
    """Evaluate an expression tree over an array of configurations (0/1 arrays)."""
    op = node[0]
    if op == "const":
        return np.full(xs.shape, node[1], dtype=np.int64)
    if op == "var":
        return (xs >> (node[1] - 1)) & 1
    if op == "not":
        return 1 - eval_expression(node[1], xs)
    a = eval_expression(node[1], xs)
    b = eval_expression(node[2], xs)
    if op == "and":
        return a & b
    if op == "xor":
        return a ^ b
    return a | b


def parse_expression_network(text: str, name: str | None = None) -> NetworkDocument:
    """Materialise a truth table from one expression per coordinate."""
    exprs: dict[int, tuple] = {}
    max_index = 0
    for line_no, line in _significant_lines(text):
        head, sep, rest = line.partition(",")
        head = head.strip()
        if not sep or not head.startswith("x"):
            raise NetParseError(line_no, f"expected 'x<i>, <expr>', got {line!r}")
        try:
            i = int(head[1:])
        except ValueError:
            raise NetParseError(line_no, f"bad coordinate name {head!r}") from None
        if i < 1:
            raise NetParseError(line_no, f"coordinate index {i} must be positive")
        if i > CAPS["network"]:
            raise NetParseError(
                line_no, f"coordinate index {i} is above the cap n={CAPS['network']}"
            )
        if i in exprs:
            raise NetParseError(line_no, f"duplicate coordinate x{i}")
        exprs[i] = _ExprParser(rest, line_no).parse()
        max_index = max(max_index, i)
    if not exprs:
        raise NetParseError(1, "no coordinate lines found")
    n = max_index
    for i in range(1, n + 1):
        if i not in exprs:
            raise NetParseError(1, f"missing coordinate line for x{i}")

    def check_vars(node, line_hint):
        if node[0] == "var" and node[1] > n:
            raise NetParseError(line_hint, f"undefined variable x{node[1]} (n={n})")
        for child in node[1:]:
            if isinstance(child, tuple):
                check_vars(child, line_hint)

    for i, node in exprs.items():
        check_vars(node, i)

    xs = np.arange(1 << n, dtype=np.int64)
    image = np.zeros(1 << n, dtype=np.int64)
    for i in range(1, n + 1):
        image |= eval_expression(exprs[i], xs) << (i - 1)
    net = BooleanNetwork(n, tuple(int(v) for v in image))
    return NetworkDocument(n, "expression", net, name)


def iter_dot(
    layers: list[HypercubeGraph],
    labels: list[str] | None = None,
    palette: tuple[str, ...] = DOT_PALETTE,
) -> Iterator[str]:
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
            yield f"  // layer {k}: {label} ({palette[k % len(palette)]})\n"
    names = [f'"{_bits_to_string(x, n)}"' for x in range(1 << n)]
    for name in names:
        yield f"  {name};\n"
    seen = [0] * (1 << n)
    for k, g in enumerate(layers):
        tail = f" [color={palette[k % len(palette)]}];\n"
        for x, name in enumerate(names):
            fresh = g.out[x] & ~seen[x] & ~(1 << x)
            seen[x] |= g.out[x]
            if fresh:
                head = f"  {name} -> "
                yield "".join(head + names[y] + tail for y in bitset_members(fresh))
    yield "}\n"


def export_dot(
    layers: list[HypercubeGraph],
    labels: list[str] | None = None,
    palette: tuple[str, ...] = DOT_PALETTE,
) -> str:
    """``iter_dot`` as one string."""
    return "".join(iter_dot(layers, labels, palette))
