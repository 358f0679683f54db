"""Certifying dimension and distance-from-a-qubit from observed behaviors.

A violation of a witness bound proves the system is not a qubit; the size of
the violation lower-bounds how far states and instrument outputs stray from
every two-dimensional subspace.
"""

import numpy as np

from tempocorr import (
    canonical_protocols,
    certify,
    full_behavior,
    named_vertex,
    system_epsilon,
    vertex_behavior,
)
from tempocorr.correlations import uniform_behavior, Scenario

print("=== certification reports ===")
for label, behavior in [
    ("e1 vertex", vertex_behavior(named_vertex("e1"))),
    ("qubit protocol saturating B1", full_behavior(canonical_protocols()["qubit-B1-3"], 2)),
    ("uniform noise", uniform_behavior(Scenario(2, 2, 2))),
]:
    report = certify(behavior)
    print(f"\n--- {label} ---")
    print(report.to_text())

print("\n=== deviation of the three-level protocol from any qubit subspace ===")
# system_epsilon is a certified upper bound on the deviation: the least of the
# AM-GM bounds lambda_max(t A + C / t) / 2 that it evaluates.  Every branch of
# this protocol has one Kraus operator, so it is also within 1e-10 of exact.
protocol = canonical_protocols()["qutrit-e1"]
rng = np.random.default_rng(1729)
certified = []
for _ in range(10):
    z = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    q, _ = np.linalg.qr(z)
    certified.append(system_epsilon(protocol, q @ q.conj().T))
print(f"over 10 random rank-2 subspaces: certified eps from {min(certified):.4f} "
      f"to {max(certified):.4f}")
print(f"every one exceeds the certified floor 1/12 = {1 / 12:.4f}, consistent with B1 = 4:")
print("B1 <= 3 + 12 eps for any subspace, so eps >= 1/12 no matter which one you pick.")
