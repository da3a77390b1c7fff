"""Randers norms from the ground up.

A Randers norm F(x, y) = sqrt(a_ij(x) y^i y^j) + b_i(x) y^i measures the
cost of moving through x with velocity y.  The 1-form part makes the cost
direction-dependent: with b pointing along +x1, moving downwind is cheaper
than moving upwind.  This script builds a few norms, checks the axioms, and
evaluates dual norms.

Run:  python demos/01_randers_norms.py
"""

import numpy as np

from randers import (ConstantForm, Domain, EuclideanMetric, RandersSpec,
                     dual_norm, fundamental_tensor, validate_norm)

dom = Domain(radius=1.0)

# --- a flat norm with a constant drift form -------------------------------
spec = RandersSpec(dom, EuclideanMetric(), ConstantForm([0.5, 0.0]))
x = np.array([0.0, 0.0])
print("F(e1)  =", spec.norm(x, [1.0, 0.0]), " (downwind: cheap)")
print("F(-e1) =", spec.norm(x, [-1.0, 0.0]), "(upwind: expensive)")
print("F(e2)  =", spec.norm(x, [0.0, 1.0]), " (crosswind)")
print("validity margin 1 - sup|b| =", spec.margin)

# --- the norm axioms, checked numerically ----------------------------------
report = validate_norm(spec)
print("\nvalidity report:", report.summary())

# pushing |b| past 1 destroys positivity: F becomes negative against the drift
bad = RandersSpec(dom, EuclideanMetric(), ConstantForm([1.1, 0.0]))
bad_report = validate_norm(bad)
print("|b| = 1.1 ->", bad_report.summary())

# --- the fundamental tensor -------------------------------------------------
# g_ij(x, y) = 1/2 d^2(F^2)/dy_i dy_j is the local metric of the norm; it is
# y-dependent for genuine Randers norms but degree-0 homogeneous in y.
y = np.array([0.3, 0.8])
g1 = fundamental_tensor(spec, x, y)
g2 = fundamental_tensor(spec, x, 2 * y)
print("\nfundamental tensor at y:\n", g1)
print("degree-0 homogeneity deviation:", np.abs(g2 - g1).max())

# --- dual norms -------------------------------------------------------------
# F*(w) = sup { w(y) : F(y) = 1 }.  For the Riemannian part this is the
# usual inverse-metric norm; for the full Randers norm it is the closed form
# of its Zermelo navigation data (h, W): F*(w) = |w|_h* + w(W).
w = np.array([1.0, 0.0])
print("\nriemannian dual of e1:", dual_norm(spec.alpha, x, w))
print("randers dual of e1   :", dual_norm(spec, x, w))
