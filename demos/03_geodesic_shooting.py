"""Tracing geodesics and solving two-point boundary problems.

Geodesics satisfy x'' + 2 G(x, x') = 0 with the spray G built from the
norm; unit-F-speed parametrization makes the parameter equal travel time.
The two-point solver sweeps the inward shooting angle, brackets the sign
change of the angular endpoint miss, and polishes it to a 1e-8 R miss.
Path samples are written as CSV for plotting.

Run:  python demos/03_geodesic_shooting.py   (writes demo_out/path_*.csv)
"""

import os

import numpy as np

from randers import (ConformalMetric, Domain, ExactForm, PotentialBump,
                     RadialProfile, RandersSpec, integrate_geodesic,
                     reversed_geodesic_check, solve_bvp, spray)

out = "demo_out"
os.makedirs(out, exist_ok=True)
dom = Domain(radius=1.0)

# a lens-like medium (slower near the rim) plus a closed drift form
spec = RandersSpec(dom, ConformalMetric(RadialProfile("2 - r^2")),
                   ExactForm(PotentialBump(0.25, 1.0)))

print("spray at a sample state:", spray(spec, [0.3, 0.1], [1.0, 0.2]))

# --- initial-value shooting: a fan of rays from one boundary point ----------
for k, psi in enumerate(np.linspace(-1.2, 1.2, 7)):
    ang = np.pi + psi  # direction angle measured from the inward normal at (1, 0)
    path = integrate_geodesic(spec, dom.boundary_point(0.0),
                              [np.cos(ang), np.sin(ang)])
    path.to_csv(os.path.join(out, f"path_{k}.csv"))
    print(f"ray {k}: inward angle {psi:+.2f} rad -> exits at "
          f"angle {np.arctan2(*path.exit_point[::-1]):+.3f} after T = {path.exit_time:.4f}")

# --- two-point solving -------------------------------------------------------
a, b = dom.boundary_point(0.0), dom.boundary_point(2.4)
shot = solve_bvp(spec, a, b)
print(f"\nBVP 0.0 -> 2.4 rad: travel time {shot.path.exit_time:.6f}, "
      f"miss {shot.miss:.1e}, branches {shot.branch_count}")
shot.path.to_csv(os.path.join(out, "bvp_path.csv"))

# because the drift form is closed, the reversed endpoints retrace the same
# curve (with different timing); the report measures the angle between the
# reversed arrival and the reverse chord's launch at the shared end point
rep = reversed_geodesic_check(spec, shot.path)
print(f"reversed-path angle gap: {rep.angle_gap:.2e} rad "
      f"(times {rep.forward_time:.4f} vs {rep.backward_time:.4f})")
print(f"\nwrote CSVs to {out}/")
