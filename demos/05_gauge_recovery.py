"""What boundary data can and cannot see: the gauge, recovered.

Adding an exact form d(phi) with phi vanishing on the boundary changes the
norm but not a single boundary travel time: the data is blind to that
gauge.  Conversely, from two data sets one can recover the boundary values
of the potential connecting their drift forms, and the symmetric parts
must agree.  This script runs the full pipeline on a scenario pair and
prints the verdicts.

Run:  python demos/05_gauge_recovery.py   (writes demo_out/recovery/)
"""

from randers import (ComponentForm, ConformalMetric, Domain, ExactForm,
                     PotentialBump, RadialProfile, RandersSpec, SumForm,
                     distance_matrix, recover_boundary_potential,
                     rigidity_report)

dom = Domain(radius=1.0)
alpha = ConformalMetric(RadialProfile("2 - r^2"))
bump = PotentialBump(0.3, 1.0)            # phi = 0.3 (1 - |x|^2), zero on the rim

# d(phi) written as components: closed, but with no potential, so its rays
# integrate it and the equal travel times below are the theorem, not a
# shift of the times by phi that holds by construction
k = -2.0 * bump.amplitude
spec1 = RandersSpec(dom, alpha)
spec2 = RandersSpec(dom, alpha, ComponentForm([f"{k!r}*x1", f"{k!r}*x2"]))
assert spec2._cotangent_fields()[3] is None

report = rigidity_report(spec1, spec2, n=12, phi_truth=bump)
print(report.summary())
report.write("demo_out/recovery")
print("\nwrote demo_out/recovery/ (report.txt + CSV attachments)")

# --- a potential that does NOT vanish on the boundary is visible ------------
base_beta = ExactForm(bump)
spec3 = RandersSpec(dom, alpha, base_beta)
spec4 = RandersSpec(dom, alpha, SumForm(base_beta, ComponentForm(["0.1", "0"])))
assert spec4._cotangent_fields()[3] is None
d3 = distance_matrix(spec3, 8)
d4 = distance_matrix(spec4, 8)
pot = recover_boundary_potential(d3, d4)
pts = d3.points
print("\nrecovered boundary potential vs truth 0.1*x1 (mean-zero gauge):")
for i in range(8):
    print(f"  sensor {i}: recovered {pot.values[i]:+.6f}   truth {0.1 * pts[i, 0]:+.6f}")
print("system residual:", pot.constancy_deviation)
