"""A walking tour of one three-coordinate network.

Builds a small network from its truth table, computes its principal,
minimal and full trapspace collections, derives the trapping closure, and
prints the layered DOT drawing of its three dynamics graphs.
"""

from trapnets import (
    Configuration,
    build_graph,
    enumerate_trapspaces,
    minimal_trapspaces,
    parse_truth_table,
    principal_trapspace,
    trapping_closure,
    trapping_graph,
)
from trapnets.netio import export_dot, network_to_text

TABLE = """
n=3
000 110
001 100
010 000
011 110
100 100
101 101
110 110
111 110
"""

f = parse_truth_table(TABLE)
print("the network, row by row:")
print(network_to_text(f))

# Each configuration sits in a unique least trapspace.  Star notation reads
# coordinate-wise: '**0' is the face x3 = 0, '***' the whole cube.
print("principal trapspaces:")
for x in range(8):
    c = Configuration(3, x)
    print(f"  T({c}) = {principal_trapspace(f, c)}")

all_trapspaces = enumerate_trapspaces(f)
print(f"\nall trapspaces ({len(all_trapspaces)}):",
      " ".join(str(c) for c in all_trapspaces.sorted_members()))

# The cover is a bool array over the 2^n configurations.
minimal, covered = minimal_trapspaces(f)
print(f"minimal trapspaces: {' '.join(str(c) for c in minimal.sorted_members())}")
print("configurations inside minimal trapspaces:",
      " ".join(sorted(str(Configuration(3, x)) for x in range(8) if covered[x])))

# The trapping closure keeps the same trapspaces but has the most
# transitions: each configuration now jumps to its opposite corner.
ft = trapping_closure(f)
print("\ntrapping closure:")
print(network_to_text(ft))
assert enumerate_trapspaces(ft) == all_trapspaces

# The three graphs nest: asynchronous (single-coordinate moves), general
# asynchronous (whole intervals), trapping (whole principal trapspaces).
layers = [
    build_graph(f, "asynchronous"),
    build_graph(f, "general"),
    trapping_graph(f),
]
print("layered DOT drawing (loops omitted; blue/magenta/orange by layer):")
print(export_dot(layers, ["asynchronous", "general asynchronous", "trapping"]))
