"""Least-time navigation in a moving medium.

A wave front moves at unit speed relative to the medium while the medium
itself drifts with a vector field W.  The least-time paths are geodesics of
an explicit Randers norm, and the curve parameter of a unit-speed geodesic
IS the physical travel time.  This script builds that norm for a constant
wind, checks the classic with/against-the-wind travel times, checks the
norm of a sound-speed medium against its explicit conformal formulas, and
shows the small-drift linearization.

Run:  python demos/02_zermelo_navigation.py
"""

import numpy as np

from randers import (ConstantField, ConstantForm, Domain, MediumModel,
                     RadialProfile, herglotz_check, integrate_geodesic,
                     linearize, travel_time_consistency, zermelo_construct)

dom = Domain(radius=1.0)

# --- constant wind, 50% of wave speed --------------------------------------
medium = MediumModel(dom, speed=ConstantField(1.0), wind=ConstantForm([0.5, 0.0]))
spec = zermelo_construct(medium)
print("alpha at origin:\n", spec.alpha.value(np.zeros(2)))
print("beta at origin :", spec.beta.value(np.zeros(2)))
print("max drift speed:", medium.max_drift)

down = integrate_geodesic(spec, [-1.0, 0.0], [1.0, 0.0])
up = integrate_geodesic(spec, [1.0, 0.0], [-1.0, 0.0])
print("\ncrossing the diameter with the wind   :", down.exit_time, "(expect 4/3)")
print("crossing the diameter against the wind:", up.exit_time, "(expect 4)")
print("travel-time identity residual:", travel_time_consistency(medium, down))

# --- a sound-speed medium against the conformal formulas -------------------
# For g = c^-2 * euclidean, with D = 1 - |W|^2 / c^2, the construction reads
# alpha_ij = delta_ij / (c^2 D) + W^i W^j / (c^2 D)^2 and beta_i = -W^i / (c^2 D).
speed = RadialProfile("2 - r")
wind = ConstantForm([0.1, 0.05])
spec_sound = zermelo_construct(MediumModel(dom, speed=speed, wind=wind))
X = np.array([[0.3, -0.2], [0.1, 0.5]])
c, W = speed.value(X), wind.value(X)
lam = (c * c - np.sum(W * W, axis=1))[:, None]          # c^2 D, per point
alpha = np.eye(2) / lam[:, :, None] + np.einsum("mi,mj->mij", W / lam, W / lam)
beta = -W / lam
print("\nalpha deviation from the conformal formulas:",
      np.abs(spec_sound.alpha.value(X) - alpha).max())
print("beta deviation from the conformal formulas :",
      np.abs(spec_sound.beta.value(X) - beta).max())

# --- the non-trapping condition for radial profiles -------------------------
for profile in ("2 - r", "1 + 10*r^2"):
    rep = herglotz_check(RadialProfile(profile), dom.radius)
    print(f"d/dr(r/c) for c = {profile}: holds={rep.holds} margin={rep.margin:.3f}")

# --- first-order linearization ----------------------------------------------
# to first order in |W|/c the metric part stays c^-2 e and only the 1-form
# beta = -W/c^2 survives; the reported ratio budgets the O(rho^2) error.
lin, rho = linearize(ConstantField(1.0), ConstantForm([0.05, 0.0]), dom)
print("\nlinearized beta at origin:", lin.beta.value(np.zeros(2)), " drift ratio:", rho)
