"""At any finite temperature, sudden death is the rule.

With reservoir occupation nbar > 0 the two qubits relax toward the
product of single-qubit thermal states — a full-rank state strictly
inside the separable set.  A neighborhood of that interior point is
separable too, and every trajectory must enter it; entanglement therefore
always terminates at a finite time, whatever the initial state.
Contrast the zero-temperature channel of the previous demo, whose
asymptote (the pure ground state) sits on the boundary and leaves room
for asymptotic survivors.
"""

import numpy as np

from esdkit import (
    IndependentDecay,
    bell,
    classify_position,
    death_time,
    embed_x,
    estimate_asymptote,
    propagate_x_closed,
    random_x,
    thermal_product,
    x_entangled,
)

channel = IndependentDecay(1.0, 1.0, nbar=0.5)

# --- the attractor and its position -----------------------------------------

limit = thermal_product(0.5)
print("thermal attractor populations:", np.diag(limit.matrix).real)
region = classify_position(limit)
print(f"position: {region.label} (PT margin {region.margin:+.4f})\n")

# --- even a Bell state now dies quickly -------------------------------------

report = death_time(bell("phi+"), channel, horizon=50.0)
print(f"phi+ under thermal decay: {report.verdict} at t* = {report.t_star:.4f}\n")

# --- random entangled starts, every single one finite -----------------------

tested = 0
seed = 0
latest = 0.0
while tested < 50:
    x = random_x(seed)
    seed += 1
    if not x_entangled(x).entangled:
        continue
    tested += 1
    report = death_time(x, channel, horizon=50.0)
    assert report.verdict == "finite"
    latest = max(latest, report.t_star)
print(f"50/50 random entangled X states die in finite time "
      f"(latest t* = {latest:.3f})")

# --- and every start flows onto that same limit -----------------------------

start = random_x(123)
settled = estimate_asymptote(start, channel)  # the exact projection: no propagation
assert np.array_equal(settled.matrix, limit.matrix)
gaps = []
for t in (1.0, 2.0, 4.0, 8.0, 16.0):
    late = embed_x(propagate_x_closed(start, channel, t))
    gaps.append(float(np.abs(late.matrix - settled.matrix).max()))
    print(f"t = {t:4.1f}: max |rho(t) - limit| = {gaps[-1]:.3e}")
# the gap shrinks as exp(-gamma (2 nbar + 1) t) = exp(-2 t)
assert all(later < 0.2 * earlier for earlier, later in zip(gaps, gaps[1:]))
assert gaps[-1] < 1e-12
