"""Geodesic spray, initial-value shooting, and boundary-to-boundary solving.

Geodesics are integrated as rays of the dual norm, parametrized by F-arc
length, so a ray's exit parameter is its travel time.  Two-point problems
have one solver, ``shoot_pairs``: it sweeps the inward shooting angle once
per start, finds the sweep rays that already hit a target and the sign
changes of the angular endpoint miss in one sorted join over all starts,
and closes the brackets of all pairs by interpolating the sweep's exit
times or, where that is not safe, in one guarded false-position batch.  A
pair's branch count is its number of roots found.  ``solve_bvp`` is the
one-pair case.  Where H does not depend on x (``_fan_fields``), the
geodesics are the chords, and each pair shoots its chord's ray instead
(``_chord_shots``): one fan of P rays, with no sweep, join or bracket.

The join sorts the targets once, by start and then by angle from the start.
A segment, two neighbouring exited nodes of one start whose exit angles
differ by less than 0.9 pi, covers an arc of exit angle, and a shot node a
window of ``miss_rtol`` around its exit; two ``np.searchsorted`` calls find
the targets in each (interval stabbing, as wavefront construction places
receivers between neighbouring rays).  Each candidate is then held to the
exact rules on its own misses, so the join finds what a scan of every target
against every node finds, in O((P + N) log P) for P pairs and N nodes.

The sweep adapts to the exit map theta(psi) of each start.  A coarse fan of
``angle_samples`` rays comes first; then every interval where the map is not
safely monotone is bisected, in one batch per level over all starts, at
most ``_REFINE_DEPTH`` levels deep.  An interval is not safely monotone
when exactly one of its ends exits, or when its slope d/h (exit-angle step
d over the interval width h) and a neighbour's differ by more than
``_REFINE_RHO`` times the smaller of the two; with the ratio at one this
includes every sign change.  A fold of the exit map,
d theta / d psi = 0, is a caustic; where the map has none the coarse fan is
all the sweep shoots, and where it has one the refined nodes resolve it to
pi / (2**_REFINE_DEPTH * angle_samples).

Every ray, recorded or not, integrates Hamilton's equations of the dual
norm H = F* on states (x, p) (Hamiltonian ray tracing), in F-arc length.
The spec writes F as F(c, W) + b (``RandersSpec._cotangent_fields``): a
navigation norm, whose dual is c|p| + <W, p>, plus a 1-form b that moves
its dual ball, so H has a closed form (``_navigation_dual``).  An unrecorded
fan of a conformal alpha under a beta with a ``potential`` phi drops b: F
and F + d phi share geodesics, and the travel time is the exit parameter
plus phi(exit) - phi(start).  A ray starts at p = dF/dy; a recorded path
takes y = dH/dp from the right-hand side, F-unit for any p, so it is
F-unit-speed by construction.  The rays run at ``_COTANGENT_TOL`` = 0.3
times the options' (rtol, atol), the tolerance that the Hermite check below
uses, and the tests hold them against the geodesic equation of ``spray``.
Loosening the factor moves D, so it changes only with a check of D against
a tight reference.

Most brackets are then closed without a ray.  Each exited sweep node
carries its exit time T and its first-variation rate p (below), which is
dT/dmiss, so where the six nodes k-2 .. k+3 around a bracket (k, k+1) are
rated and their misses strictly monotone, the bracket takes the degree-11
Hermite interpolant of T in the miss at zero miss (the travel-time
interpolation of wavefront-construction ray tracing).  It is accepted when
it agrees with the degree-7 one through the inner four nodes to within
``_HERMITE_TOL`` times the integrator's tolerance at that time,
atol + rtol * T, so the check scales with the domain and tightens with the
solver.  Its angle is then the cubic start's root below, which no ray has
checked against ``miss_rtol``; its miss and correction are zero, since the
interpolant ends on the target by construction.  The unshot grazing limits
have no rate, so their brackets never qualify.

Every other bracket, and every bracket of a recorded path, is solved by a
bracketed secant iteration (Dekker's safeguard, as in the exit refinement
of ``integrators``).  It starts from the inverse cubic through the four
sweep nodes around the bracket (Lagrange interpolation of psi in the miss,
evaluated at zero) wherever those nodes exited and their misses are
strictly monotone, and from the secant through the bracket ends
elsewhere; the first step is a Newton step with the start's slope, every
later one a secant step through the last two rays, and an iterate that
leaves the bracket becomes its midpoint.  The grazing limits
psi = -+pi/2, which exit where they start, are nodes of every fan without
being shot, so a target nearer the start than the fan's outermost exit is
still bracketed.

A converged ray still misses its target by an angle delta, and where it
stops depends on the root finder.  By the first variation of length, the
travel time to the boundary point at angle theta changes at the rate
p = <dF/dy(x, y), dx/dtheta> of the arriving geodesic (x, y).  Each fan
reads it at its exits from its covector xi: dF/dy = xi / H with
H = <xi, y> (Euler's relation for the 1-homogeneous H), plus d phi on a
shifted fan; dividing by H keeps the rate at round-off where xi drifts
off H = 1.  Each shot reports T - p delta + p' delta^2 / 2, the paraxial
expansion of the exit time about the ray.  p' = dp/dtheta is the
derivative at zero miss of the cubic through p at the four sweep nodes
of the bracket's cubic start, and is taken as zero where those nodes have
no rate (the grazing limits are not shot).  With p' known, the first ray
of a bracket is kept when its |delta| is at most ``_ONE_RAY_CAP``, so a
smooth bracket costs one full-tolerance ray; other rays, and every ray of
a recorded path, iterate to ``miss_rtol``.  ``GeodesicPath.exit_time`` stays the raw exit time of
the ray.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import integrators as ivp
from ._tables import write_table
from .errors import (ConnectivityError, ConvexityError, DegenerateInputError,
                     DomainError, NonAdmissibleError, RandersError,
                     SpecMismatchError, TrappedGeodesicError)
from .fields import (ConstantField, ConstantForm, Domain, ZeroForm, _pts_pair, _unbatch,
                     circle_directions, disk_grid, jet_spray_terms)
from .norms import (RandersSpec, _alpha_at, _beta_at, _dF_dy, _fundamental,
                    _nonzero_directions)

__all__ = ["SolverOptions", "GeodesicPath", "ShootingResult", "PairShots",
           "spray", "integrate_geodesic", "solve_bvp", "shoot_pairs",
           "reversed_geodesic_check", "ReversalReport"]

_TWO_PI = 2.0 * math.pi

# fold-aware refinement of the coarse fan: levels of bisection, and the
# relative slope change between neighbouring intervals that flags both
_REFINE_DEPTH, _REFINE_RHO = 4, 1.0
_REFINE_MAX_ITER = 80   # false-position iterations per bracket
_ONE_RAY_CAP = 1e-4     # |miss| up to which a smooth bracket's first ray is kept
_HERMITE_TOL = 1e-2     # interpolant agreement, in units of atol + rtol * T, to skip the ray
_COTANGENT_TOL = 0.3    # (rtol, atol) of cotangent rays, as a fraction of the options'
_JOIN_SLACK = 1e-9      # radians by which the pair join widens its search windows
_MAX_STEPS = 100_000    # accepted steps per ray
_TRAP_TIME_FACTOR = 50.0  # ray time budget, in units of _time_scale


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and the sweep resolution of geodesic integration and shooting.

    ``rtol`` and ``atol`` are the integrator's tolerances, ``angle_samples``
    the coarse fan per start, and ``miss_rtol`` the target |angular miss|
    (arc length / R) of a ray that the second-order correction does not
    absorb: rays above ``_ONE_RAY_CAP`` and recorded paths.  The ray budget
    (``_MAX_STEPS``, and ``_TRAP_TIME_FACTOR`` times ``_time_scale``) and
    the pair-exclusion cutoff of ``boundary`` are constants.
    """

    rtol: float = 1e-9
    atol: float = 1e-12
    angle_samples: int = 90
    miss_rtol: float = 1e-8

    def __post_init__(self):
        for name in ("rtol", "atol", "miss_rtol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        k = self.angle_samples
        if not (isinstance(k, numbers.Integral) and k >= 2):   # a bool is below 2
            raise ValueError(f"angle_samples must be an integer >= 2, got {k!r}")

    def controls(self, spec, record=False):
        t_max = _TRAP_TIME_FACTOR * _time_scale(spec)
        # recorded paths cap the step so stored samples resolve the curve
        # (pointwise invariants rely on this)
        h_max = t_max / (_TRAP_TIME_FACTOR * 256.0) if record else np.inf
        return ivp.Controls(rtol=self.rtol, atol=self.atol,
                            max_steps=_MAX_STEPS, t_max=t_max, h_max=h_max)


def _wrap(angle):
    """Wrap to [-pi, pi)."""
    return (angle + math.pi) % _TWO_PI - math.pi


def _time_scale(spec):
    """Upper bound for the time an F-unit-speed curve needs to cross the ball."""
    pts = disk_grid(spec.domain, 64)
    dirs = circle_directions(8)
    X = np.repeat(pts, len(dirs), axis=0)
    Y = np.tile(dirs, (len(pts), 1))
    return 2.0 * spec.domain.radius * float(spec._raw_norm(X, Y).max())


# ---------------------------------------------------------------------------
# spray


def _spray_and_norm(spec, x0, x1, y0, y1):
    """Planar spray (G0, G1) and norm F on component arrays; no domain checks.

    G = G_alpha + P y + alpha S (Shen's decomposition of a Randers spray),
    with J_il = d b_i / dx^l, s_i0 = w (y1, -y0) for w = (J01 - J10) / 2,
    r00 = y.J.y - 2 <b, G_alpha>, S = a^-1 s_.0, s0 = <b, S> and
    P = (r00 - 2 alpha s0) / (2F).  S is zero where beta has no curl, so a
    closed beta only rescales the alpha spray along y.
    """
    A, (G0, G1), inv = jet_spray_terms(spec.alpha.jet(x0, x1), y0, y1)
    bjet = None if spec.beta.is_zero else spec.beta.jet(x0, x1)
    al = np.sqrt(A)
    if bjet is None:
        F = al
    else:
        (b0, b1), ((J00, J01), (J10, J11)) = bjet
        F = al + (b0 * y0 + b1 * y1)
        r00 = (J00 * y0 + J01 * y1) * y0 + (J10 * y0 + J11 * y1) * y1 - 2.0 * (b0 * G0 + b1 * G1)
        w = 0.5 * (J01 - J10)
        i00, i01, i11 = inv
        s0, s1 = w * y1, -w * y0
        S0, S1 = i00 * s0 + i01 * s1, i01 * s0 + i11 * s1
        with np.errstate(divide="ignore", invalid="ignore"):
            P = (r00 - 2.0 * al * (b0 * S0 + b1 * S1)) / (2.0 * F)
        G0, G1 = G0 + P * y0 + al * S0, G1 + P * y1 + al * S1
    return G0, G1, F


def spray(spec, x, y):
    """Spray coefficients G^i(x, y) of the geodesic equation x'' + 2G = 0.

    Degree-2 positively homogeneous in y; requires y != 0.
    """
    spec.require_valid()
    X, Y, single = _pts_pair(x, y)
    _nonzero_directions(Y)
    spec.domain.require_inside(X)
    if not np.all(_fundamental(spec, X, Y)[1] > 0.0):
        raise ConvexityError("fundamental tensor is singular or indefinite; "
                             "the spec should have been rejected by validate_norm")
    G0, G1, _ = _spray_and_norm(spec, X[:, 0], X[:, 1], Y[:, 0], Y[:, 1])
    return _unbatch(np.column_stack([G0, G1]), single)


# ---------------------------------------------------------------------------
# rays of the dual norm


def _navigation_dual(c, W, b, p0, p1):
    """t = H(x, p) of F = F(c, W) + b, v = p - t b, |v|, u = c v / |v| + W, 1 + <u, b>.

    F's dual ball is F(c, W)'s moved by b, so t > 0 solves c|v| + <W, v> = t:
    with w = <W, p>, kappa = 1 + <W, b>, m = kappa w - c^2 <b, p> and
    lam = kappa^2 - c^2 |b|^2 (> 0 where F is a norm), that is
    t = (m + sqrt(m^2 + lam (c^2 |p|^2 - w^2))) / lam.  W None is zero.
    """
    b0, b1 = b
    c2 = c * c
    m, lam = -c2 * (b0 * p0 + b1 * p1), -c2 * (b0 * b0 + b1 * b1)
    q = c2 * (p0 * p0 + p1 * p1)
    if W is None:   # kappa = 1, w = 0
        lam = 1.0 + lam
    else:
        w, kappa = W[0] * p0 + W[1] * p1, 1.0 + (W[0] * b0 + W[1] * b1)
        m, lam, q = kappa * w + m, kappa * kappa + lam, q - w * w
    t = (m + np.sqrt(m * m + lam * q)) / lam
    v0, v1 = p0 - t * b0, p1 - t * b1
    n = np.sqrt(v0 * v0 + v1 * v1)
    k = c / n
    u0, u1 = (k * v0, k * v1) if W is None else (k * v0 + W[0], k * v1 + W[1])
    return t, (v0, v1), n, (u0, u1), 1.0 + (u0 * b0 + u1 * b1)


def _cotangent_rhs(speed, wind, form=None):
    """Hamilton's equations of the dual norm H of F = F(c, W) + b on states (x, p) (hot path).

    Without b, H = c|p| + <W, p>: x' = dH/dp = c p / |p| + W and
    p' = -dH/dx = -|p| grad c - (dW)^T p, with (dW)_ik = d_k W^i.  With b
    (``form``) and ``_navigation_dual``'s t, v, u and delta, x' = u / delta
    and p'_k = -(d_k c |v| + <d_k W, v> - t <u, d_k b>) / delta.
    """
    def rhs(u):
        x0, x1, p0, p1 = u.T
        c, (c_0, c_1) = speed.jet(x0, x1)
        out = np.empty(u.T.shape)
        if form is not None:
            b, ((B00, B01), (B10, B11)) = form.jet(x0, x1)
            W, J = (None, None) if wind is None else wind.jet(x0, x1)
            t, (v0, v1), n, (u0, u1), d = _navigation_dual(c, W, b, p0, p1)
            g0 = n * c_0 - t * (u0 * B00 + u1 * B10)
            g1 = n * c_1 - t * (u0 * B01 + u1 * B11)
            if J is not None:   # (dW)_ik = J[i][k]
                g0, g1 = g0 + (v0 * J[0][0] + v1 * J[1][0]), g1 + (v0 * J[0][1] + v1 * J[1][1])
            out[0], out[1], out[2], out[3] = u0 / d, u1 / d, -g0 / d, -g1 / d
            return out.T
        n = np.sqrt(p0 * p0 + p1 * p1)
        k = c / n
        if wind is None:
            out[0] = k * p0
            out[1] = k * p1
            out[2] = -n * c_0
            out[3] = -n * c_1
        else:
            (W0, W1), ((J00, J01), (J10, J11)) = wind.jet(x0, x1)
            out[0] = k * p0 + W0
            out[1] = k * p1 + W1
            out[2] = -n * c_0 - (p0 * J00 + p1 * J10)
            out[3] = -n * c_1 - (p0 * J01 + p1 * J11)
        return out.T
    return rhs


def _cotangent_stop(spec, rhs):
    """Disk stop (value, rate) on states (x, p): g = |x|^2 - R^2 and its exact
    rate 2<x, dH/dp>, with dH/dp read from ``rhs``, so it is left to exit refinement."""
    r2 = spec.domain.radius ** 2

    def value(u):
        return u[:, 0] ** 2 + u[:, 1] ** 2 - r2

    def rate(u):
        v = rhs(u)
        return 2.0 * (u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1])
    return value, rate


def _uniform(field):
    """True for a field absent or constant by its family, whose jet has no x-derivative."""
    return field is None or isinstance(field, (ConstantField, ConstantForm, ZeroForm))


def _straight_rays(rhs, u0, radius, t_max, record):
    """Rays of an H that does not depend on x, as ``integrate_batch`` reports them.

    p stays fixed and x = x0 + t v with v = dH/dp, so each ray exits at the
    root t > 0 of |x0 + t v|^2 = R^2, taken in the form that does not cancel
    for either sign of <x0, v>; a root beyond ``t_max`` leaves the ray
    TRAPPED at t_max.  No step is taken, and a recorded history is the
    start and the end, the ray's exact path.
    """
    x, v = u0[:, 0:2], rhs(u0)[:, 0:2]
    a = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]
    b = x[:, 0] * v[:, 0] + x[:, 1] * v[:, 1]
    c = x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1] - radius * radius
    root = np.sqrt(b * b - a * c)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(b < 0.0, (root - b) / a, -c / (b + root))
    status = np.where(t <= t_max, ivp.EXITED, ivp.TRAPPED).astype(np.int8)
    t = np.minimum(t, t_max)
    u_end = u0.copy()
    u_end[:, 0:2] += t[:, None] * v
    history = ([(np.array([0.0, tk]), np.stack([s, e])) for tk, s, e in zip(t, u0, u_end)]
               if record else None)
    return ivp.BatchIntegration(status, t, u_end, np.zeros(len(u0), dtype=np.int64), history)


def _fan_fields(spec, record):
    """(c, W, b, phi, straight) of a fan of ``spec``: its ``_cotangent_fields``,
    with b dropped where an unrecorded fan shifts by the potential phi and
    phi None elsewhere; ``straight`` holds where c, W and that b are all
    ``_uniform``, so H does not depend on x and the rays are straight."""
    speed, wind, form, phi = spec._cotangent_fields()
    if record or phi is None:
        phi = None
    else:
        form = None
    return speed, wind, form, phi, all(_uniform(field) for field in (speed, wind, form))


def _cotangent_fan(spec, x0, d, ctl, record=False):
    """Rays of the dual norm H of F from x0 along d; returns (result, rate).

    The rays start at p = dF/dy(x0, d) and run at ``_COTANGENT_TOL`` times
    the tolerances of ``ctl``.  An unrecorded fan under a potential phi
    drops the 1-form b, starts at dalpha/dy and adds phi(exit) - phi(start)
    to the exit parameter.  Where c, W and the b that is left are all
    constant (``_fan_fields``), H does not depend on x and the rays are
    straight: each exit is solved in closed form (``_straight_rays``), and
    no integrator runs.
    ``result`` is ``integrate_batch``'s, or its closed-form twin, with that
    time and its histories as states (x, dH/dp); ``rate`` is each exit's
    first-variation rate (see the module docstring), nan where none exited.
    """
    speed, wind, form, phi, straight = _fan_fields(spec, record)
    beta = None if phi is not None else _beta_at(spec.beta, x0)
    _, _, (p0, p1) = _dF_dy(_alpha_at(spec.alpha, x0), beta, d[:, 0], d[:, 1])
    ctl = replace(ctl, rtol=_COTANGENT_TOL * ctl.rtol, atol=_COTANGENT_TOL * ctl.atol)
    rhs = _cotangent_rhs(speed, wind, form)
    u0 = np.column_stack([x0, p0, p1])
    if straight:
        res = _straight_rays(rhs, u0, spec.domain.radius, ctl.t_max, record)
    else:
        res = ivp.integrate_batch(rhs, u0, _cotangent_stop(spec, rhs), ctl, record=record)
    # dF/dy = p / H at the exit, with H = <p, dH/dp>, plus dphi on a shifted fan
    e0, e1, p0, p1 = res.u_end.T
    v = rhs(res.u_end)
    H = p0 * v[:, 0] + p1 * v[:, 1]
    q0, q1, t = p0 / H, p1 / H, res.t_end
    if phi is not None:
        shift, (g0, g1) = phi.jet(e0, e1)
        q0, q1, t = q0 + g0, q1 + g1, t + (shift - phi.value(x0))
    rate = spec.domain.radius * (e0 * q1 - e1 * q0) / np.hypot(e0, e1)
    rate[res.status != ivp.EXITED] = np.nan
    history = [(ts, np.column_stack([us[:, 0:2], rhs(us)[:, 0:2]]))
               for ts, us in res.history] if record else None
    return replace(res, t_end=t, history=history), rate


# ---------------------------------------------------------------------------
# initial value problem


@dataclass
class GeodesicPath:
    """Discretized unit-speed geodesic with its exit record."""

    t: np.ndarray          # (k,) parameter samples
    x: np.ndarray          # (k, 2) positions
    y: np.ndarray          # (k, 2) velocities
    f_length: float        # trapezoidal integral of F(x, y) over the samples
    exit_time: float       # exit parameter T
    exit_point: np.ndarray
    spec_hash: str

    def unit_speed_residual(self, spec):
        """max |F(x, y) - 1| over the samples: y = dH/dp is F-unit for any
        covector p, so this checks the record's conversion, not the integration."""
        f = spec._raw_norm(self.x, self.y)
        return float(np.abs(f - 1.0).max())

    def to_csv(self, path):
        write_table(path, "geodesic samples units=time,length", ["t", "x1", "x2", "y1", "y2"],
                    self.t, self.x[:, 0], self.x[:, 1], self.y[:, 0], self.y[:, 1])


def _nudged_start(spec, x0):
    """Pull boundary starts inside by a relative 1e-13 so the stop function
    starts non-positive regardless of rounding."""
    R = spec.domain.radius
    r = float(np.linalg.norm(x0))
    if r > R * (1.0 + 1e-9):
        raise DomainError(f"start point {x0} lies outside the closed domain")
    if r >= R * (1.0 - 1e-12):
        return x0 * ((R * (1.0 - 1e-13)) / r), True
    return np.asarray(x0, dtype=float), False


def integrate_geodesic(spec, x0, y0, opts=None):
    """Trace the F-geodesic from (x0, y0) until it first exits the ball.

    The path is F-unit-speed, so only y0's direction matters (under F, not
    the reversed norm); for boundary starts it must point into the domain.
    """
    spec.require_valid()
    opts = opts or SolverOptions()
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if np.linalg.norm(y0) == 0.0:
        raise DegenerateInputError("initial direction must be nonzero")
    x0n, on_boundary = _nudged_start(spec, x0)
    if on_boundary and x0 @ y0 >= 0.0:
        raise DomainError("initial direction at a boundary point must point inward")
    if not spec._raw_norm(x0n[None], y0[None])[0] > 0.0:
        raise DegenerateInputError("initial direction has non-positive F")
    ctl = opts.controls(spec, record=True)
    return _path_from(_cotangent_fan(spec, x0n[None], y0[None], ctl, record=True)[0], 0, spec)


def _path_from(res, i, spec, label="geodesic"):
    """Ray i of a recorded fan as a GeodesicPath, its velocities y = dH/dp."""
    st = res.status[i]
    if st == ivp.TRAPPED or st == ivp.MAXSTEPS:
        raise TrappedGeodesicError(
            f"{label} did not reach the boundary within the budget "
            f"(t={res.t_end[i]:.4g}, steps={res.steps[i]}); the medium may be trapping")
    if st != ivp.EXITED:
        raise RandersError(f"{label} integration failed (nonfinite state); check the spec fields")
    ts, us = res.history[i]
    x, y = us[:, 0:2], us[:, 2:4]
    return GeodesicPath(t=ts, x=x, y=y,
                        f_length=float(np.trapezoid(spec._raw_norm(x, y), ts)),
                        exit_time=float(res.t_end[i]),
                        exit_point=res.u_end[i, 0:2].copy(),
                        spec_hash=spec.spec_hash)


# ---------------------------------------------------------------------------
# shooting fans


def _fan_starts(spec, theta0, psi):
    """Start points and unit directions of rays leaving boundary angle theta0
    at inward angle psi."""
    R = spec.domain.radius
    x0 = (R * (1.0 - 1e-13)) * np.column_stack([np.cos(theta0), np.sin(theta0)])
    d_ang = theta0 + math.pi + psi
    return x0, np.column_stack([np.cos(d_ang), np.sin(d_ang)])


def _exit_fan(spec, theta0, psi, opts, record=False):
    """Integrate a fan as rays of the dual norm; returns (exit_theta, exit_time,
    rate, ok, result), ``rate`` the first-variation rate of ``_cotangent_fan``."""
    theta0, psi = np.asarray(theta0, dtype=float), np.asarray(psi, dtype=float)
    ctl = opts.controls(spec, record=record)
    res, rate = _cotangent_fan(spec, *_fan_starts(spec, theta0, psi), ctl, record)
    exit_theta = np.arctan2(res.u_end[:, 1], res.u_end[:, 0]) % _TWO_PI
    return exit_theta, res.t_end.copy(), rate, res.status == ivp.EXITED, res


def _sweep_angles(n):
    return -0.5 * math.pi + math.pi * (np.arange(n) + 0.5) / n


def _refine_intervals(start, psi, th, ok):
    """Intervals (k, k+1) of the flat sweep nodes where the exit map is not
    safely monotone (see the module docstring), of any width: the depth of
    refinement is bounded by the caller's number of levels.

    ``start`` labels each node with its start; a start's nodes are adjacent
    and sorted in ``psi``, and no interval joins two starts.
    """
    same = start[1:] == start[:-1]
    flag = same & (ok[1:] != ok[:-1])
    both = same & ok[1:] & ok[:-1]
    h = np.diff(psi)
    slope = _wrap(np.diff(th)) / h
    a, b = slope[:-1], slope[1:]
    # at _REFINE_RHO = 1 a sign change, |b - a| = |a| + |b|, is always flagged
    bent = both[:-1] & both[1:] & (np.abs(b - a) > _REFINE_RHO * np.minimum(np.abs(a), np.abs(b)))
    flag[:-1] |= bent
    flag[1:] |= bent
    return np.flatnonzero(flag)


def _sweep(spec, theta0, opts):
    """Adaptive shooting fans from the starts ``theta0`` (s,), at ``opts``.

    Returns the flat (N,) node arrays psi, exit angle, exit time, exit flag
    and first-variation rate, start by start and sorted in psi within a
    start, and the (s + 1,) offsets of the starts in them: start i's nodes
    are ``off[i]:off[i + 1]``, the coarse fan and each level of refinement
    (see the module docstring).
    """
    K = opts.angle_samples
    start = np.repeat(np.arange(len(theta0)), K)
    ps = np.tile(_sweep_angles(K), len(theta0))
    th, t, rate, ok, _ = _exit_fan(spec, theta0[start], ps, opts)
    for _ in range(_REFINE_DEPTH):
        k = _refine_intervals(start, ps, th, ok)
        if not k.size:
            break
        mid = 0.5 * (ps[k] + ps[k + 1])
        new = (start[k], mid, *_exit_fan(spec, theta0[start[k]], mid, opts)[:4])
        start, ps, th, t, rate, ok = (
            np.insert(a, k + 1, b) for a, b in zip((start, ps, th, t, rate, ok), new))
    return ps, th, t, ok, rate, np.searchsorted(start, np.arange(len(theta0) + 1))


def _inverse_cubic(psi, miss, valid):
    """psi and d psi / d miss at zero miss on the inverse cubic through four nodes.

    Columns of ``psi``, ``miss`` and ``valid`` (4, q) hold the sweep nodes
    k-1 .. k+2 around a bracket (k, k+1).  The cubic is the Lagrange
    interpolant of psi in the miss, which needs distinct but not uniform
    nodes.  A column with an invalid node or misses that are not strictly
    monotone gives nan for both, which ``_false_position`` reads as a
    secant start.
    """
    dm = np.diff(miss, axis=0)
    mono = valid.all(axis=0) & ((dm > 0.0).all(axis=0) | (dm < 0.0).all(axis=0))
    p, m = psi[:, mono], miss[:, mono]
    root, slope = np.zeros(p.shape[1]), np.zeros(p.shape[1])
    for i in range(4):
        a, b, c = (m[j] for j in range(4) if j != i)
        # basis i is (x - a)(x - b)(x - c) / its value at m_i; its value and
        # derivative at x = 0 are -abc and ab + ac + bc over that
        w = p[i] / ((m[i] - a) * (m[i] - b) * (m[i] - c))
        root -= w * a * b * c
        slope += w * (a * b + a * c + b * c)
    out = np.full((2, psi.shape[1]), np.nan)
    out[:, mono] = root, slope
    return out


def _hermite_at_zero(miss, time, rate):
    """Exit time at zero miss from the sweep nodes k-2 .. k+3 around a bracket.

    Columns of ``miss``, ``time`` and ``rate`` (6, q) hold the nodes' misses,
    exit times and first-variation rates dT/dmiss.  Returns (2, q): the
    degree-11 Hermite interpolant of the time in the miss at zero, and its
    distance from the degree-7 one through the inner four nodes; both come
    from one confluent divided-difference table, which takes the inner
    nodes first.  A column with a nan rate or misses that are not strictly
    monotone gives nan for both.
    """
    dm = np.diff(miss, axis=0)
    use = np.isfinite(rate).all(axis=0) & ((dm > 0.0).all(axis=0) | (dm < 0.0).all(axis=0))
    order = [1, 2, 3, 4, 0, 5]
    z = np.repeat(miss[order][:, use], 2, axis=0)
    c = np.repeat(time[order][:, use], 2, axis=0)
    c[2::2] = (c[2::2] - c[1:-1:2]) / (z[2::2] - z[1:-1:2])
    c[1::2] = rate[order][:, use]
    for j in range(2, 12):
        c[j:] = (c[j:] - c[j - 1:-1]) / (z[j:] - z[:-j])
    # Newton form at x = 0: term j is c_j times the product of (0 - z_l), l < j
    t = c * np.cumprod(np.concatenate([np.ones((1, z.shape[1])), -z[:-1]]), axis=0)
    # summed in the order of numpy's sum over a row of 8 and of 4 (which adds
    # to +0.0, so it differs only where every term is -0.0)
    inner = ((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7]))
    outer = ((t[8] + t[9]) + t[10]) + t[11]
    out = np.full((2, miss.shape[1]), np.nan)
    out[:, use] = inner + outer, np.abs(outer)
    return out


def _false_position(spec, theta0, theta_tgt, lo, hi, m_lo, m_hi, opts, cubic=None, cap=None):
    """Bracketed secant iteration on batches of independent brackets.

    Returns (psi, time, miss, ok, rate, rays) arrays; each row is one
    bracket problem, ``rate`` is the first-variation rate of its converged
    ray and ``rays`` counts the rays shot for it.  A row starts from
    ``cubic``, the (2, q) root and slope d psi / d miss of
    ``_inverse_cubic``, or where that is nan from the secant through its
    bracket ends.  Each next iterate is x - m s from the last ray (x, m):
    s is the start's slope on the first step, and the secant through the
    last two rays after that.  The first step is Newton's because at the
    coarse sweep spacing h the cubic root still carries the cubic's
    interpolation error, of order h^4, above the miss tolerance: the first
    ray measures that error as its miss, and a step with the cubic's slope
    leaves only the product of the two errors.  A row's first ray is also
    accepted when its |miss| is within ``cap`` (q,), where the caller
    absorbs the miss to second order; every later ray must land within
    ``opts.miss_rtol``.  An iterate outside the bracket, and every sixth
    one, becomes the bracket midpoint.  The iteration holds only its
    unfinished brackets: a bracket's result is written out once, when its
    ray lands within tolerance, and the live arrays shrink only on
    iterations where some bracket converged, its ray failed or its bracket
    closed to a few ulps of psi without a root (an exit map with a jump);
    the last two leave its result nan.
    """
    q = len(lo)
    psi_out, t_out, miss_out, rate_out = np.full((4, q), np.nan)
    rays = np.zeros(q, dtype=int)
    ids = np.arange(q)
    x, s = np.full((2, q), np.nan) if cubic is None else cubic
    secant = (hi - lo) / (m_hi - m_lo)
    cold = ~np.isfinite(x)
    x, s = np.where(cold, hi - m_hi * secant, x), np.where(cold, secant, s)
    # no earlier ray: the first secant is nan and the start's slope is kept
    x_prev, m_prev = np.full((2, q), np.nan)

    for it in range(_REFINE_MAX_ITER):
        if not ids.size:
            break
        inside = (x > lo) & (x < hi) & (it % 6 != 5)
        x = np.where(inside, x, 0.5 * (lo + hi))
        th_exit, t_exit, rate, ok, _ = _exit_fan(spec, theta0, x, opts)
        rays[ids] += 1
        m = _wrap(th_exit - theta_tgt)
        tol = opts.miss_rtol if it or cap is None else np.maximum(cap, opts.miss_rtol)
        conv = ok & (np.abs(m) <= tol)
        rows = ids[conv]
        psi_out[rows], t_out[rows], miss_out[rows] = x[conv], t_exit[conv], m[conv]
        rate_out[rows] = rate[conv]

        same_lo = np.sign(m) == np.sign(m_lo)
        lo, hi = np.where(same_lo, x, lo), np.where(same_lo, hi, x)
        jump = hi - lo <= 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        with np.errstate(divide="ignore", invalid="ignore"):
            last = (x - x_prev) / (m - m_prev)
        s = np.where(np.isfinite(last), last, s)
        x_prev, m_prev, x = x, m, x - m * s
        live = ok & ~conv & ~jump
        if not live.all():
            ids, theta0, theta_tgt, lo, hi, m_lo, x, s, x_prev, m_prev = (
                a[live] for a in (ids, theta0, theta_tgt, lo, hi, m_lo, x, s, x_prev, m_prev))
    return psi_out, t_out, miss_out, np.isfinite(psi_out), rate_out, rays


@dataclass
class ShootingResult:
    path: GeodesicPath
    initial_angle: float   # from the inward boundary normal
    miss: float            # signed boundary arc-length miss
    branch_count: int


def _on_boundary_angle(spec, x):
    x = np.asarray(x, dtype=float)
    R = spec.domain.radius
    if abs(np.linalg.norm(x) - R) > 1e-9 * R:
        raise DomainError(f"point {x} is not on the boundary circle of radius {R}")
    return float(np.arctan2(x[1], x[0]) % _TWO_PI)


def solve_bvp(spec, x_from, x_to, opts=None):
    """Unique boundary-to-boundary geodesic by angle-sweep shooting.

    The one-pair case of ``shoot_pairs``.  Raises ConnectivityError when no
    branch converges and NonAdmissibleError when the sweep finds more than
    one, per the uniqueness the distance data requires.
    """
    spec.require_valid()
    opts = opts or SolverOptions()
    th0 = _on_boundary_angle(spec, x_from)
    th1 = _on_boundary_angle(spec, x_to)
    if abs(_wrap(th0 - th1)) < 1e-12:
        raise DomainError("boundary points must be distinct")

    shots = shoot_pairs(spec, [th0, th1], [(0, 1)], opts, record_paths=True)
    return ShootingResult(path=shots.single_path(0, [th0, th1]),
                          initial_angle=float(shots.angle[0]),
                          miss=float(shots.miss[0]), branch_count=1)


# ---------------------------------------------------------------------------
# batched pair shooting (matrix builder backend)


@dataclass
class PairShots:
    """Shooting results of ordered boundary pairs, one array entry per pair."""

    pairs: np.ndarray         # (P, 2) ordered sample index pairs (i, j)
    time: np.ndarray          # exit time less ``correction``, or the interpolated time
    miss: np.ndarray          # arc-length units; 0 for an interpolated bracket (no ray)
    branch_count: np.ndarray
    converged: np.ndarray
    angle: np.ndarray         # converged inward shooting angle, nan otherwise; for an
                              # interpolated bracket the cubic start's root, not
                              # converged to miss_rtol
    correction: np.ndarray    # p delta - p' delta^2 / 2, subtracted from the ray's exit
                              # time; 0 for an interpolated bracket
    sweep_nodes: np.ndarray   # rays shot from the pair's start to search its targets:
                              # its sweep, or on a straight medium its chord rays
    brackets: np.ndarray      # brackets, interpolated or handed to false position
    bracket_rays: np.ndarray  # rays false position shot for them
    interpolated: np.ndarray  # brackets closed without a ray, by Hermite interpolation
    paths: list | None = None   # with record_paths: GeodesicPath or None per pair

    def single_path(self, q, angles):
        """Pair q's recorded path, or the error for no branch or several (``angles``
        is the boundary angle table the pairs index)."""
        th0, th1 = (float(angles[i]) for i in self.pairs[q])
        if not self.converged[q]:
            raise ConnectivityError(
                f"no geodesic branch connects boundary angles {th0:.4f} -> {th1:.4f}")
        if self.branch_count[q] > 1:
            raise NonAdmissibleError(
                f"{self.branch_count[q]} geodesic branches connect boundary angles "
                f"{th0:.4f} -> {th1:.4f}; the norm is not admissible for this pair")
        return self.paths[q]


def _pair_join(start, target, theta0, off, exit_th, valid, tol):
    """Hits and brackets of every pair on its start's sweep nodes, by sorted search.

    Pair q runs from start ``start[q]``, at boundary angle
    ``theta0[start[q]]``, to the angle ``target[q]``.  Start i's nodes are
    ``off[i]:off[i + 1]`` of the flat ``exit_th`` and ``valid``, its two
    grazing limits first and last.  With the miss m = _wrap(exit - target),
    a hit is a valid node other than a grazing limit with |m| <= ``tol``,
    and a bracket is a segment (k, k + 1) of two valid neighbours whose
    misses change sign, differ by less than 0.9 pi, and both exceed ``tol``.

    The targets are sorted once, by start and then by angle from the start,
    and binary search finds those within ``tol`` of each node's exit and on
    each segment's arc (see the module docstring).  The windows are wider by
    ``_JOIN_SLACK``, far above the rounding of the keys, and each candidate
    is held to the exact rules above, so the result is a scan's of every
    target against every node.  Returns (hit_pair, hit_node, bracket_pair,
    bracket_node), each sorted by pair and then node.
    """
    # start i's keys 8 i + (angle from the start) lie in [8 i, 8 i + 2 pi];
    # the sorts are stable: numpy's default sort kernels would map about
    # 0.4 MB more code into a process (peak RSS of randers simulate, n = 32)
    key = 8.0 * start + (target - theta0[start]) % _TWO_PI
    order = np.argsort(key, kind="stable")
    key = key[order]
    bound = np.concatenate(([0], np.cumsum(np.bincount(start, minlength=len(theta0)))))
    node_start = np.repeat(np.arange(len(theta0)), np.diff(off))
    rel = (exit_th - theta0[node_start]) % _TWO_PI

    def stab(k, lo, hi):
        """(pair, node k) for each target at an angle in [lo, hi] from node k's start."""
        # a window that reaches below 0 or above 2 pi also searches a turn on
        below, above = np.flatnonzero(lo < 0.0), np.flatnonzero(hi > _TWO_PI)
        w = np.concatenate([np.arange(len(k)), below, above])
        turn = np.repeat([0.0, _TWO_PI, -_TWO_PI], [len(k), len(below), len(above)])
        k = k[w]
        si = node_start[k]
        first = np.maximum(np.searchsorted(key, 8.0 * si + (lo[w] + turn), "left"), bound[si])
        last = np.minimum(np.searchsorted(key, 8.0 * si + (hi[w] + turn), "right"),
                          bound[si + 1])
        n = np.maximum(last - first, 0)
        at = np.arange(n.sum()) + np.repeat(first - (np.cumsum(n) - n), n)
        return order[at], np.repeat(k, n)

    def by_pair(pair, node):
        # a window wider than a turn finds a target twice; one is kept
        pk = np.sort(pair * len(exit_th) + node, kind="stable")
        return np.divmod(pk[np.diff(pk, prepend=-1) != 0], len(exit_th))

    limit = np.zeros(len(exit_th), dtype=bool)
    limit[off[:-1]] = limit[off[1:] - 1] = True
    k = np.flatnonzero(valid & ~limit)
    half = tol + _JOIN_SLACK
    hp, hk = stab(k, rel[k] - half, rel[k] + half)
    hit = np.abs(_wrap(exit_th[hk] - target[hp])) <= tol

    d = _wrap(np.diff(exit_th))
    seg = valid[:-1] & valid[1:] & (np.abs(d) < 0.9 * math.pi + _JOIN_SLACK)
    seg[off[1:-1] - 1] = False   # no segment joins two starts
    k = np.flatnonzero(seg)
    bp, bk = stab(k, rel[k] + np.minimum(d[k], 0.0) - _JOIN_SLACK,
                  rel[k] + np.maximum(d[k], 0.0) + _JOIN_SLACK)
    m0, m1 = _wrap(exit_th[bk] - target[bp]), _wrap(exit_th[bk + 1] - target[bp])
    bracket = ((np.sign(m0) * np.sign(m1) < 0.0) & (np.abs(m1 - m0) < 0.9 * math.pi)
               & ~(np.abs(m0) <= tol) & ~(np.abs(m1) <= tol))
    return (*by_pair(hp[hit], hk[hit]), *by_pair(bp[bracket], bk[bracket]))


def _chord_shots(spec, angles, pairs, opts, record_paths):
    """``shoot_pairs`` on a straight fan: one ray per pair, along its chord.

    H does not depend on x, so the chord is the unique minimiser of the
    strictly convex norm.  Pair (i, j) shoots at the inward angle
    psi = ((theta_j - theta_i) mod 2 pi) / 2 - pi / 2, all P rays in one fan
    (recorded with ``record_paths``); a ray misses only by the start's
    nudge, which the first-order correction absorbs, and has one branch when
    it exits.  ``sweep_nodes`` counts its start's rays; no bracket is made.
    """
    theta0, target = angles[pairs[:, 0]], angles[pairs[:, 1]]
    psi = 0.5 * ((target - theta0) % _TWO_PI) - 0.5 * math.pi
    exit_th, exit_t, rate, ok, res = _exit_fan(spec, theta0, psi, opts, record_paths)
    miss = np.where(ok, _wrap(exit_th - target), np.nan)
    correction = rate * miss   # nan where the ray did not exit
    out = PairShots(pairs, exit_t - correction, miss * spec.domain.radius, ok.astype(int), ok,
                    np.where(ok, psi, np.nan), np.nan_to_num(correction),
                    np.bincount(pairs[:, 0])[pairs[:, 0]], *np.zeros((3, len(pairs)), dtype=int))
    if record_paths:
        out.paths = [None] * len(pairs)
        for q in np.flatnonzero(ok).tolist():
            i, j = pairs[q]
            out.paths[q] = _path_from(res, q, spec, f"geodesic of boundary pair ({i}, {j})")
    return out


def shoot_pairs(spec, angles, pairs, opts=None, record_paths=False):
    """Solve many ordered boundary pairs sharing per-start sweeps.

    ``angles`` is the boundary angle table and ``pairs`` (P, 2) ordered
    index pairs (i, j); the :class:`PairShots` record returned is aligned
    with them.  On a straight fan (``_fan_fields``) each pair shoots its
    chord's ray (``_chord_shots``).  Elsewhere one adaptive sweep per
    distinct start (``_sweep``) is shared by its targets, its end nodes the
    unshot grazing limits psi = -+pi/2, which exit at theta0 (exact on a
    strictly convex boundary).  A pair counts one branch per sweep ray
    within tolerance of its target and per bracket (``_pair_join``), and
    takes its first such ray, or else its first converged bracket in sweep
    order, each bracket interpolated or shot as the module docstring says.
    A shot's time carries the correction for its miss, also reported as
    ``correction``.  ``sweep_nodes`` counts the rays of the pair's start;
    ``brackets``, ``bracket_rays`` and ``interpolated`` the pair's brackets,
    the rays false position shot for them and those closed without a ray.
    Results do not depend on pair order or grouping.  With ``record_paths``
    every bracket is shot to ``miss_rtol``, and the converged single-branch
    rays are re-integrated as one recorded batch: ``paths[q]`` is pair q's
    GeodesicPath (``exit_time`` uncorrected), or None when q has no single
    converged branch; a recorded ray that does not exit raises
    TrappedGeodesicError naming its pair.
    """
    spec.require_valid()
    opts = opts or SolverOptions()
    angles = np.asarray(angles, dtype=float)
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    if not len(pairs) or _fan_fields(spec, record_paths)[-1]:   # no pair makes an empty fan
        return _chord_shots(spec, angles, pairs, opts, record_paths)
    starts, start = np.unique(pairs[:, 0], return_inverse=True)
    theta0, target = angles[starts], angles[pairs[:, 1]]
    psi, exit_th, exit_t, ok, rate, off = _sweep(spec, theta0, opts)
    # each start's nodes: its shot rays between the grazing limits
    # psi = -+pi/2, which exit where they start and have no rate
    ends = np.repeat(off, 2)[1:-1]
    ps = np.insert(psi, ends, np.tile([-0.5 * math.pi, 0.5 * math.pi], len(starts)))
    th = np.insert(exit_th, ends, np.repeat(theta0, 2))
    valid = np.insert(ok, ends, True)
    pv, tv = np.insert(rate, ends, np.nan), np.insert(exit_t, ends, np.nan)
    node_off = off + 2 * np.arange(len(off))
    hit_pair, hit_node, owner, kb = _pair_join(start, target, theta0, node_off, th, valid,
                                               opts.miss_rtol)

    P = len(pairs)
    # shot_rate is the accepted ray's rate; nan for an interpolated time
    time, miss, angle, shot_rate = np.full((4, P), np.nan)
    bend = np.zeros(P)   # d rate / d theta at the accepted ray, where known
    count = np.bincount(hit_pair, minlength=P) + np.bincount(owner, minlength=P)
    nodes = np.diff(off)[start]
    converged = np.zeros(P, dtype=bool)
    # a pair with a hit takes its first one (node k is shot ray k - 2 s - 1
    # of start s), and its brackets are not closed
    first_hit = np.diff(hit_pair, prepend=-1) != 0
    r, k = hit_pair[first_hit], hit_node[first_hit]
    time[r], miss[r], angle[r] = tv[k], _wrap(th[k] - target[r]), ps[k]
    shot_rate[r] = pv[k]
    converged[r] = True
    unhit = ~converged[owner]
    owner, kb = owner[unhit], kb[unhit]
    # the six nodes k-2 .. k+3 around bracket k, clipped to its start's nodes
    six = kb + np.arange(-2, 4)[:, None]
    lo_end, hi_end = node_off[start[owner]], node_off[start[owner] + 1] - 1
    inside = (six >= lo_end) & (six <= hi_end)
    six = np.clip(six, lo_end, hi_end)
    ps6, m6 = ps[six], _wrap(th[six] - target[owner])
    v6, p6, t6 = valid[six] & inside, pv[six], tv[six]
    lo, hi, m_lo, m_hi = ps6[2], ps6[3], m6[2], m6[3]
    ps4, m4, v4, p4 = (a[1:5] for a in (ps6, m6, v6, p6))
    # a bracket whose degree-11 and degree-7 Hermite exit times agree well
    # within the integrator's own tolerance there takes the former and shoots
    # no ray (recorded paths must end at their targets)
    t0, err = _hermite_at_zero(m6, t6, p6)
    zero = (err <= _HERMITE_TOL * (opts.atol + opts.rtol * np.abs(t0))) & (not record_paths)
    go = ~zero
    # the cubic through the nodes' rates, differentiated at zero miss, is the
    # rate's derivative in the exit angle; where it is known the first ray's
    # miss is absorbed to second order, except on recorded paths
    dp = _inverse_cubic(p4, m4, v4 & np.isfinite(p4))[1]
    smooth = np.isfinite(dp)
    cap = None if record_paths else np.where(smooth, _ONE_RAY_CAP, 0.0)[go]
    cubic = _inverse_cubic(ps4, m4, v4)
    p, tt, mm, good = cubic[0], t0, np.zeros(len(owner)), zero.copy()
    rr, rays = np.full(len(owner), np.nan), np.zeros(len(owner), dtype=int)
    p[go], tt[go], mm[go], good[go], rr[go], rays[go] = _false_position(
        spec, theta0[start[owner[go]]], target[owner[go]], lo[go], hi[go],
        m_lo[go], m_hi[go], opts, cubic[:, go], cap)
    brackets = np.bincount(owner, minlength=P)
    bracket_rays = np.bincount(owner, weights=rays, minlength=P).astype(int)
    interpolated = np.bincount(owner[zero], minlength=P)
    # rows of one pair are contiguous and in sweep order
    won, first = np.unique(owner[good], return_index=True)
    sel = np.flatnonzero(good)[first]
    time[won], miss[won], angle[won], shot_rate[won] = tt[sel], mm[sel], p[sel], rr[sel]
    bend[won] = np.where(smooth[sel], dp[sel], 0.0)
    converged[won] = True

    # T(theta_tgt) = T - p delta + p' delta^2 / 2 for a ray that exits at
    # theta_tgt + delta (paraxial expansion of the exit time about the ray)
    correction = np.zeros(P)
    shot = np.isfinite(shot_rate)   # an interpolated time needs none
    d = miss[shot]
    correction[shot] = shot_rate[shot] * d - 0.5 * bend[shot] * d * d
    time -= correction
    miss *= spec.domain.radius
    out = PairShots(pairs, time, miss, count, converged, angle, correction, nodes, brackets,
                    bracket_rays, interpolated)
    if record_paths:
        out.paths = [None] * P
        rec = np.flatnonzero(converged & (count == 1))
        res = _exit_fan(spec, angles[pairs[rec, 0]], angle[rec], opts, record=True)[-1]
        for k, q in enumerate(rec.tolist()):
            i, j = pairs[q]
            out.paths[q] = _path_from(res, k, spec, f"geodesic of boundary pair ({i}, {j})")
    return out


# ---------------------------------------------------------------------------
# reversibility check


def _direction_gap(p, q, reversal=False):
    """Angle in radians between the directions of two paths at a shared boundary point.

    Two geodesics through one point are one curve exactly when their
    directions there agree.  By default p and q start at the same point and
    their launches are compared; with ``reversal`` p ends where q starts and
    p's reversed arrival is compared with q's launch.
    """
    u = -p.y[-1] if reversal else p.y[0]
    v = q.y[0]
    return abs(math.atan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1]))


@dataclass
class ReversalReport:
    angle_gap: float       # radians, reversed arrival against the reverse chord's launch
    forward_time: float
    backward_time: float


def reversed_geodesic_check(spec, path, opts=None):
    """Compare the reversed path with the geodesic joining reversed endpoints.

    Both leave the path's exit point, so they are one curve exactly when the
    reversed arrival direction and the reverse chord's launch agree.  For
    closed one-forms they do; a rotational (non closed) perturbation
    separates them on some chord.
    """
    if path.spec_hash != spec.spec_hash:
        raise SpecMismatchError("path was not produced under the supplied spec")
    opts = opts or SolverOptions()
    back = solve_bvp(spec, path.exit_point, path.x[0], opts)
    return ReversalReport(angle_gap=_direction_gap(path, back.path, reversal=True),
                          forward_time=path.exit_time,
                          backward_time=back.path.exit_time)
