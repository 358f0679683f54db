"""Quantum systems that generate temporal correlations.

Simulates the canonical protocols, realizes a deterministic vertex exactly on
three levels, and reproduces an arbitrary mixed behavior with a block-diagonal
construction.
"""

import numpy as np

from tempocorr import (
    Scenario,
    canonical_protocols,
    check_membership,
    decompose_behavior,
    full_behavior,
    mixture_realization,
    named_vertex,
    qutrit_vertex_realization,
    run_sequence,
    vertex_behavior,
)
from tempocorr.correlations import compose_from_conditionals, random_conditional_chain
from tempocorr.witness import builtin_functionals, evaluate

F = builtin_functionals()

print("=== canonical protocols ===")
for name, system in canonical_protocols().items():
    behavior = full_behavior(system, 2)
    values = {k: round(evaluate(F[k], behavior), 9) for k in F}
    print(f"  {name:12s} dim {system.dim}: {values}")

print("\n=== stepping through the B1-saturating qubit protocol ===")
proto = canonical_protocols()["qubit-B1-3"]
for settings in [(0, 0), (1, 1), (0, 1), (1, 0)]:
    dist = run_sequence(proto, settings)
    print(f"  settings {settings}: outcome distribution {np.round(dist, 6)}")

print("\n=== exact three-level realization of a vertex ===")
v = named_vertex("e1")
realization = qutrit_vertex_realization(v)
for s in (0, 1):
    effect = realization.instruments[s].effects[0]
    print(f"  effect of result 0 for measurement {s}:\n{effect.real.astype(int)}")
realized = full_behavior(realization, 2)
target = vertex_behavior(v)
print(f"  realized behavior matches the vertex exactly: "
      f"max deviation {np.max(np.abs(realized.table - target.table)):.2e}")
print(f"  B1 on the realized behavior: {evaluate(F['B1'], realized)}")

print("\n=== mixtures by direct sums ===")
rng = np.random.default_rng(1729)
behavior = compose_from_conditionals(random_conditional_chain(rng, Scenario(2, 2, 2)))
decomposition = decompose_behavior(behavior)
print(f"random member behavior decomposes into {len(decomposition.terms)} vertices")
system = mixture_realization(decomposition)
resim = full_behavior(system, 2)
print(f"block-diagonal system of dimension {system.dim} reproduces it: "
      f"max deviation {np.max(np.abs(resim.table - behavior.table)):.2e}")
print("membership of the simulated behavior:", check_membership(resim).is_member)
