"""Inverse pipeline: what boundary travel times reveal about the medium.

From the non-symmetric distance matrix alone one recovers (a) the line
integrals of the 1-form along boundary geodesics (antisymmetric part),
(b) the distances of the reversible part (symmetric part), (c) for a pair
of data sets, the boundary values of the potential connecting their
1-forms, and (d) for radially conformal media, the sound-speed profile via
the classical travel-time inversion.  Everything is reported with explicit
residuals; verdicts are only set when residuals are below their declared
tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .boundary import BoundaryDistanceData, decompose, distance_matrix
from .errors import NonAdmissibleError, RecoveryError, TriplicationError
from .fields import disk_grid
from .norms import closedness_residual

__all__ = ["recover_beta_integrals", "recover_symmetric_data",
           "recover_boundary_potential", "PotentialRecovery",
           "herglotz_invert", "ProfileRecovery",
           "verify_gauge", "GaugeReport",
           "rigidity_report", "RecoveryReport"]

_PROFILE_POINTS = 240       # turning-radius samples of the recovered profile
_SPREAD_TOL = 1e-6          # same-separation spread accepted as radial
_INTERIOR_PROBES = 500      # disk points where the gauge identity is checked
_BOUNDARY_PROBES = 256      # boundary points where phi must vanish
_DATA_TOL = 2e-8            # distance agreement counted as equal data
_POTENTIAL_TOL = 1e-6       # pairwise residual counted as a constant potential
_CLOSED_TOL = 1e-8          # exterior-derivative residual counted as closed


def _require_complete(data):
    off = ~np.eye(data.n, dtype=bool)
    if np.isnan(data.matrix[off]).any():
        raise RecoveryError("distance data has excluded/missing pairs; recovery needs complete data")


def recover_beta_integrals(data):
    """Line integrals of the 1-form along boundary geodesics.

    int_gamma beta = (d(x, x') - d(x', x)) / 2, entry (i, j) for the i -> j
    geodesic; zero for reversible norms.
    """
    _require_complete(data)
    return decompose(data)[1]


def recover_symmetric_data(data):
    """Boundary distances of the reversible part: (D + D^T) / 2."""
    _require_complete(data)
    return decompose(data)[0]


@dataclass
class PotentialRecovery:
    values: np.ndarray            # boundary potential, mean-zero gauge
    constancy_deviation: float    # max residual of the pairwise system


def recover_boundary_potential(data1, data2):
    """Boundary values of the potential linking two data sets' 1-forms.

    Solves the overdetermined system phi(x_j) - phi(x_i) = Delta[i, j] over
    all ordered pairs i != j by least squares, with Delta = anti2 - anti1.
    Delta is antisymmetric with a zero diagonal, so the normal equations give
    phi_k = mean_i Delta[i, k] up to a constant; the mean-zero solution fixes
    it.  When the data sets agree the result is identically zero; the max
    system residual is reported as the constancy deviation.
    """
    if data1.n != data2.n or not np.array_equal(data1.angles, data2.angles):
        raise RecoveryError("data sets must share the same boundary samples")
    if data1.radius != data2.radius:
        raise RecoveryError("data sets must share the same domain radius")
    _require_complete(data1)
    _require_complete(data2)

    delta = recover_beta_integrals(data2) - recover_beta_integrals(data1)
    phi = delta.mean(axis=0)
    phi -= phi.mean()
    resid = phi[None, :] - phi[:, None] - delta
    off = ~np.eye(data1.n, dtype=bool)
    return PotentialRecovery(values=phi, constancy_deviation=float(np.abs(resid[off]).max()))


# ---------------------------------------------------------------------------
# radial profile inversion


@dataclass
class ProfileRecovery:
    r: np.ndarray                 # increasing radii
    c: np.ndarray                 # recovered sound speed
    separation: np.ndarray        # separation table the fit used
    travel_time: np.ndarray       # mean travel time per separation
    spread_max_rel: float         # same-separation spread (non-radiality stat)
    radial_consistent: bool
    p_margin: float               # max increase of p(sep); <= 0 when monotone


def herglotz_invert(data):
    """Recover a radial sound speed from symmetric travel-time data.

    Builds travel time vs boundary separation, differentiates a monotone
    cubic interpolant for the ray parameter p = dT/dSep, checks that p is
    monotone (no triplication), and applies the classical turning-radius
    integral r(p1) = R exp(-(1/pi) * int_0^{Sep1} arccosh(p/p1) dSep),
    c(r1) = r1 / p1.  Interpolation runs against the chord abscissa
    sin(Sep/2), which keeps the antipodal endpoint regular.
    """
    if not isinstance(data, BoundaryDistanceData):
        raise TypeError("herglotz_invert expects BoundaryDistanceData")
    _require_complete(data)
    sym = 0.5 * (data.matrix + data.matrix.T)
    n, R = data.n, data.radius
    if n < 16:
        raise RecoveryError("profile inversion needs a dense boundary sampling (n >= 16; 64 recommended)")
    if n % 2:
        raise RecoveryError("profile inversion expects an even sample count (antipodal coverage)")

    # group ordered pairs by angular separation k * 2pi / n
    half = n // 2
    seps = 2.0 * math.pi * np.arange(1, half + 1) / n
    T = np.empty(half)
    spread = np.empty(half)
    idx = np.arange(n)
    for k in range(1, half + 1):
        vals = sym[idx, (idx + k) % n]
        T[k - 1] = vals.mean()
        spread[k - 1] = vals.max() - vals.min()
    spread_rel = float((spread / T).max())
    consistent = spread_rel <= _SPREAD_TOL

    # monotone fit of T against the chord abscissa, then p by the chain rule
    xs = np.concatenate([[0.0], np.sin(0.5 * seps)])
    Ts = np.concatenate([[0.0], T])
    order = np.argsort(xs)
    interp = PchipInterpolator(xs[order], Ts[order])
    dTdx = interp.derivative()

    def p_of(sep):
        half_sep = 0.5 * np.asarray(sep, dtype=float)
        return 0.5 * np.cos(half_sep) * dTdx(np.sin(half_sep))

    fine = np.linspace(0.0, math.pi, 2048)
    pf = p_of(fine)
    p_margin = float(np.diff(pf).max())
    if p_margin > 1e-10 * max(pf.max(), 1e-300):
        raise TriplicationError(
            f"ray parameter is not monotone in separation (margin {p_margin:.3g}); "
            "triplication or conjugate points: inversion hypotheses violated")

    # turning-radius integral on a separation grid
    sep1 = np.linspace(seps[0] / 4.0, math.pi, _PROFILE_POINTS)
    p1 = p_of(sep1)
    keep = p1 > 1e-8 * pf[0]
    sep1, p1 = sep1[keep], p1[keep]

    # panels graded toward the upper endpoint where the integrand has a
    # square-root shoulder
    uni = np.linspace(0.0, 0.85, 17)[:-1]
    geo = 1.0 - 0.15 * 0.5 ** np.arange(9)
    edges = np.concatenate([uni, geo, [1.0]])
    gl_t, gl_w = np.polynomial.legendre.leggauss(8)
    gl_t = 0.5 * (gl_t + 1.0)
    gl_w = 0.5 * gl_w

    e0, e1 = edges[:-1], edges[1:]
    # nodes: (panels, gauss) in [0, 1], then scaled per sep1
    tloc = e0[:, None] + (e1 - e0)[:, None] * gl_t[None, :]
    wloc = (e1 - e0)[:, None] * gl_w[None, :]
    nodes = sep1[:, None, None] * tloc[None, :, :]
    ratio = np.maximum(p_of(nodes) / p1[:, None, None], 1.0)
    integral = np.einsum("spg,pg->s", np.arccosh(ratio), wloc) * sep1

    r1 = R * np.exp(-integral / math.pi)
    c1 = r1 / p1
    order = np.argsort(r1)
    return ProfileRecovery(r=r1[order], c=c1[order], separation=seps,
                           travel_time=T, spread_max_rel=spread_rel,
                           radial_consistent=consistent, p_margin=p_margin)


# ---------------------------------------------------------------------------
# gauge verification


@dataclass
class GaugeReport:
    gauge_residual: float         # max |beta2 - beta1 - d(phi)| over interior
    boundary_residual: float      # max |phi| on the boundary
    psi_identity: bool = True     # conformal-radial instantiation only
    profile_deviation: float | None = None


def verify_gauge(beta1, beta2, phi, domain, *, profile1=None, profile2=None):
    """Residuals of beta2 = beta1 + d(phi) with phi vanishing on the boundary.

    When radial sound-speed profiles are supplied, additionally reports
    their pointwise deviation (the conformal-radial case has identity
    repositioning, which the flag records).
    """
    X = disk_grid(domain, _INTERIOR_PROBES)
    diff = beta2.value(X) - beta1.value(X) - phi.gradient(X)
    gauge_res = float(np.linalg.norm(diff, axis=1).max())
    theta = 2.0 * math.pi * np.arange(_BOUNDARY_PROBES) / _BOUNDARY_PROBES
    Xb = domain.boundary_point(theta)
    boundary_res = float(np.abs(phi.value(Xb)).max())
    prof_dev = None
    if profile1 is not None and profile2 is not None:
        r = np.linspace(0.0, domain.radius, 512)
        prof_dev = float(np.abs(profile2.profile(r) - profile1.profile(r)).max())
    return GaugeReport(gauge_residual=gauge_res, boundary_residual=boundary_res,
                       psi_identity=True, profile_deviation=prof_dev)


# ---------------------------------------------------------------------------
# end-to-end report


@dataclass
class RecoveryReport:
    angles: np.ndarray
    radius: float
    data_max_diff: float
    beta_integrals_1: np.ndarray
    beta_integrals_2: np.ndarray
    symmetric_1: np.ndarray
    symmetric_2: np.ndarray
    sym_max_diff: float
    potential: PotentialRecovery
    verdicts: dict
    hypothesis: dict
    psi_identity: bool
    profiles: list = field(default_factory=list)   # ProfileRecovery per data set
    gauge: GaugeReport | None = None
    notes: list = field(default_factory=list)

    def summary(self):
        lines = ["recovery report",
                 f"  samples: n={len(self.angles)} R={self.radius}",
                 f"  max |D1 - D2|          = {self.data_max_diff:.3e}",
                 f"  max |sym1 - sym2|      = {self.sym_max_diff:.3e}",
                 f"  potential constancy    = {self.potential.constancy_deviation:.3e}"]
        for key, val in self.verdicts.items():
            lines.append(f"  verdict {key}: {val}")
        for key, val in self.hypothesis.items():
            lines.append(f"  hypothesis {key}: {val}")
        lines.append(f"  psi_identity: {self.psi_identity}")
        if self.gauge is not None:
            lines.append(f"  gauge residual         = {self.gauge.gauge_residual:.3e}")
            lines.append(f"  boundary phi residual  = {self.gauge.boundary_residual:.3e}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def write(self, outdir):
        import os

        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "report.txt"), "w") as fh:
            fh.write(self.summary() + "\n")

        def dump(name, mat):
            with open(os.path.join(outdir, name), "w") as fh:
                fh.write("# matrix units=time\n")
                n = mat.shape[0]
                fh.write("i,j,value\n")
                for i in range(n):
                    for j in range(n):
                        fh.write(f"{i},{j},{float(mat[i, j])!r}\n")

        dump("beta_integrals_1.csv", self.beta_integrals_1)
        dump("beta_integrals_2.csv", self.beta_integrals_2)
        dump("symmetric_1.csv", self.symmetric_1)
        dump("symmetric_2.csv", self.symmetric_2)
        with open(os.path.join(outdir, "potential.csv"), "w") as fh:
            fh.write("# boundary potential units=action\n")
            fh.write("i,angle,phi\n")
            for i, (a, v) in enumerate(zip(self.angles, self.potential.values)):
                fh.write(f"{i},{float(a)!r},{float(v)!r}\n")
        for k, prof in enumerate(self.profiles, start=1):
            with open(os.path.join(outdir, f"profile_{k}.csv"), "w") as fh:
                fh.write("# recovered radial sound speed units=length,speed\n")
                fh.write("r,c\n")
                for rr, cc in zip(prof.r, prof.c):
                    fh.write(f"{float(rr)!r},{float(cc)!r}\n")


def rigidity_report(spec1, spec2, *, n=16, opts=None, data1=None, data2=None,
                    phi_truth=None, invert_profile=False):
    """Run the full forward + inverse pipeline on a scenario pair.

    Simulates the two distance matrices unless provided, decomposes them,
    recovers the boundary potential and the symmetric data, optionally
    inverts radial profiles, and verifies the gauge against ground truth
    when it is available.  Closedness of both 1-forms is a precondition;
    admissibility failures during simulation poison the verdicts with a
    hypothesis tag instead of raising.
    """
    domain = spec1.domain
    if spec2.domain.radius != domain.radius:
        raise RecoveryError("scenario domains differ")
    probes = disk_grid(domain, 200)
    closed1 = closedness_residual(spec1.beta, probes)
    closed2 = closedness_residual(spec2.beta, probes)
    if max(closed1, closed2) > _CLOSED_TOL:
        raise RecoveryError(
            f"1-forms must be closed (residuals {closed1:.3g}, {closed2:.3g}); "
            "recovery up to a potential requires closed forms")

    hypothesis = {"closedness_residual_1": closed1, "closedness_residual_2": closed2,
                  "simply_connected": True, "admissible": True}
    notes = []
    try:
        if data1 is None:
            data1 = distance_matrix(spec1, n, opts)
        if data2 is None:
            data2 = distance_matrix(spec2, n, opts)
    except NonAdmissibleError as exc:
        hypothesis["admissible"] = False
        notes.append(f"admissibility probe failed: {exc}")
        empty = np.zeros((0, 0))
        return RecoveryReport(
            angles=np.zeros(0), radius=domain.radius, data_max_diff=math.nan,
            beta_integrals_1=empty, beta_integrals_2=empty,
            symmetric_1=empty, symmetric_2=empty, sym_max_diff=math.nan,
            potential=PotentialRecovery(np.zeros(0), math.nan),
            verdicts={"boundary_data_equal": None, "gauge_equivalent": None},
            hypothesis=hypothesis, psi_identity=False, notes=notes)

    anti1 = recover_beta_integrals(data1)
    anti2 = recover_beta_integrals(data2)
    sym1 = recover_symmetric_data(data1)
    sym2 = recover_symmetric_data(data2)
    data_diff = float(np.abs(data1.matrix - data2.matrix)[~np.eye(data1.n, dtype=bool)].max())
    sym_diff = float(np.abs(sym1 - sym2)[~np.eye(data1.n, dtype=bool)].max())
    potential = recover_boundary_potential(data1, data2)

    conformal_radial = (spec1.alpha.flavor == "conformal-radial"
                        and spec2.alpha.flavor == "conformal-radial")
    profiles = []
    if invert_profile:
        if not conformal_radial:
            notes.append("profile inversion skipped: media are not conformal-radial")
        else:
            profiles = [herglotz_invert(data1), herglotz_invert(data2)]

    gauge = None
    if phi_truth is not None:
        gauge = verify_gauge(spec1.beta, spec2.beta, phi_truth, domain)

    verdicts = {
        "boundary_data_equal": bool(data_diff <= _DATA_TOL),
        "gauge_equivalent": bool(potential.constancy_deviation <= _POTENTIAL_TOL
                                 and sym_diff <= _DATA_TOL),
    }
    if conformal_radial:
        notes.append("conformal-radial case: boundary-fixing repositioning is the identity")
    return RecoveryReport(angles=data1.angles, radius=domain.radius,
                          data_max_diff=data_diff,
                          beta_integrals_1=anti1, beta_integrals_2=anti2,
                          symmetric_1=sym1, symmetric_2=sym2, sym_max_diff=sym_diff,
                          potential=potential, verdicts=verdicts,
                          hypothesis=hypothesis, psi_identity=conformal_radial,
                          profiles=profiles, gauge=gauge, notes=notes)
