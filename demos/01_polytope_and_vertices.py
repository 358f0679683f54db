"""Tour of the classical temporal-correlation polytope.

Counts and enumerates the deterministic vertices, checks membership of a few
behaviors, factorizes a behavior into step conditionals, and classifies the
(2,2,2) vertices under relabeling symmetries.
"""

import numpy as np

from tempocorr import (
    RelabelingGroup,
    Scenario,
    check_membership,
    classify_vertices,
    compose_from_conditionals,
    count_vertices,
    enumerate_vertices,
    factorize,
    marginal,
    named_vertex,
    vertex_behavior,
)
from tempocorr.correlations import Behavior, random_conditional_chain

print("=== vertex counting ===")
for L, R, S in [(1, 2, 2), (2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 2), (4, 2, 2)]:
    scenario = Scenario(L, R, S)
    print(f"  P_{L}^({R},{S}): {count_vertices(scenario)} extreme points")

scenario = Scenario(2, 2, 2)
vertices = enumerate_vertices(scenario)  # row k: vertex k's outcome per setting history
print(f"\nenumerated {len(vertices)} vertices of the (2,2,2) polytope, "
      f"one outcome for each of its {vertices.shape[1]} setting histories;")
print(f"formula agrees: {count_vertices(scenario) == len(vertices)}")

print("\n=== the four vertices no qubit reaches ===")
for name in ("e1", "e2", "e3", "e4"):
    v = named_vertex(name)
    assert tuple(vertices[v.index]) == v.outcomes
    b = vertex_behavior(v)
    units = [
        f"p({a}{bb}|{x}{y})"
        for x in (0, 1)
        for y in (0, 1)
        for a in (0, 1)
        for bb in (0, 1)
        if b.prob((a, bb), (x, y)) == 1.0
    ]
    print(f"  {name} (enumeration index {v.index:2d}): " + " = ".join(units) + " = 1")

print("\n=== membership checking ===")
b = vertex_behavior(named_vertex("e1"))
print("e1 vertex:", check_membership(b).summary())

signaling = np.zeros((4, 4))
signaling[0, 0] = signaling[1, 3] = signaling[2, 0] = signaling[3, 0] = 1.0
print("hand-built signaling table:")
print(" ", check_membership(Behavior(scenario, signaling)).summary())

print("\n=== factorization into step conditionals ===")
rng = np.random.default_rng(1729)
behavior = compose_from_conditionals(random_conditional_chain(rng, Scenario(3, 2, 2)))
chain = factorize(behavior)
back = compose_from_conditionals(chain)
print(f"random length-3 member behavior, factorize/compose round trip: "
      f"max deviation {np.max(np.abs(back.table - behavior.table)):.2e}")
m = marginal(behavior, 1)
print(f"its level-1 marginal p(a|x):\n{m.table}")

print("\n=== relabeling classification of (2,2,2) ===")
classes = classify_vertices(scenario)
sizes = sorted((len(orb) for orb in classes.orbits), reverse=True)
print(f"full group (order {RelabelingGroup.full(scenario).order}): "
      f"{classes.n_orbits} classes with sizes {sizes}")
for name in ("e1", "e2", "e3", "e4"):
    print(f"  {name} sits in class {classes.orbit_of(named_vertex(name).index)}")
coarse = classify_vertices(scenario, RelabelingGroup.uniform_outcome(scenario))
print(f"global-outcome-swap group (order 4) would leave {coarse.n_orbits} classes,")
print("so distinguishing per-measurement outcome relabelings is what brings it to 10.")
