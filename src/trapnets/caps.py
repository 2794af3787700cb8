"""The tables every entry point reads before any work: the dimension caps
and the names of the ``verify`` suites.

``CAPS`` is the one read-only table of caps and ``check_cap(kind, n)`` the
one check.  The CLI's parser reads ``CAPS``, ``SUITES`` and ``decimal``
from here, so that ``--help`` and a usage error import no numpy.
"""

from __future__ import annotations

from types import MappingProxyType

# kind of work: (cap on n, the work as a refusal names it); the README's
# "Caps" table says which computations and commands read each entry.
_CAPPED_WORK = {
    "network": (20, "a network"),
    "table": (16, "the 3^n subcube table"),
    "enumeration": (13, "trapspace enumeration"),
    "closure": (13, "the 4^n union-closure pair table"),
    "global_sweep": (16, "the global subset sweep"),
    "pair_sweep": (8, "the subset-pair sweep"),
    "exhaustive": (2, "the exhaustive sweep"),
}
CAPS = MappingProxyType({kind: cap for kind, (cap, _) in _CAPPED_WORK.items()})

# The suites of ``verify.run_verification``.
SUITES = ("all", "theorems", "diagrams", "closure")


def check_cap(kind: str, n: int) -> None:
    """Raise ValueError unless 1 <= n <= CAPS[kind]; call it before any work."""
    cap, work = _CAPPED_WORK[kind]
    if not 1 <= n <= cap:
        raise ValueError(f"{work} is capped at n={cap} and needs n >= 1, got n={n}")


def decimal(text: str) -> str | None:
    """``text``, ASCII digits after an optional minus, less its leading zeros
    and the sign of zero; None where ``text`` is not so written.  Measure it
    before calling int() on it: on Python 3.11+, int() reads at most 4,300
    digits, leading zeros among them."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        return None
    magnitude = text.lstrip("-0") or "0"
    return "-" + magnitude if text.startswith("-") and magnitude != "0" else magnitude
