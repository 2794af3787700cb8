"""Sweeping whole populations against the structural claims.

The exhaustive sweep checks every two-coordinate network (all 256 of
them): constant alternate-definition vectors, closure laws, the
closure's monotonicity on every ordered pair, collection round-trips, and
the four implication diagrams with their counterexample fixtures.  The
sampled sweep repeats the same suites on random and generated networks
one dimension up, checking monotonicity on each network and its join with
the next one.
"""

import time

from trapnets import exhaustive_networks, run_verification, sample_population
from trapnets.netio import network_to_text

t0 = time.perf_counter()
networks = exhaustive_networks(2)
violations = run_verification(networks, "all", every_pair=True)
print(f"exhaustive n=2: {len(networks)} networks, "
      f"{len(violations)} violations, {time.perf_counter() - t0:.1f}s")

t0 = time.perf_counter()
population = sample_population(3, samples=150, seed=42)
violations += run_verification(population, "all")
print(f"sampled n=3: {len(population)} networks, "
      f"{len(violations)} violations, {time.perf_counter() - t0:.1f}s")

# Any violation would come with a ready-to-run reproducer.
for v in violations:
    print(f"violation [{v.check}] {v.detail}")
    print(network_to_text(v.network))
if not violations:
    print("every claim held on every network swept")
