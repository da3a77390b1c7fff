"""Geodesic spray, initial-value shooting, and boundary-to-boundary solving.

Geodesics are integrated in F-unit-speed parametrization with an extra
quadrature state accumulating the F-length, so the exit parameter and the
length agree to solver precision.  Two-point problems have one solver,
``shoot_pairs``: it sweeps the inward shooting angle once per start, marks
the sweep rays that already hit a target and the sign changes of the angular
endpoint miss with boolean masks over the sweep axis, and drives the
brackets of all pairs to convergence in one guarded false-position batch.
A pair's branch count is its number of marked roots.  ``solve_bvp`` is the
one-pair case.

The sweep only makes decisions (which rays hit, where the miss changes
sign, which rays exit), so it runs at the loose tolerances ``_SWEEP_RTOL``
and ``_SWEEP_ATOL``.  Every sweep ray that could change a decision is then
re-integrated at the solver tolerance in one batch: rays within the guard
band ``_GUARD`` (radians) of a target, rays that did not exit or came near
their time or step budget, and both rays of a sweep interval whose
exit-angle step could put a miss jump within the band of the wrap cut.
Outside the band a decision needs the exit angle only to ``_GUARD``, so
masks, branch counts and errors are those of a sweep at the solver
tolerance.  The guard checks itself: the re-integrated rays measure the
loose error, and a start where it exceeds a tenth of the band has its whole
fan re-integrated.

A converged ray still misses its target by an angle delta, and where it
stops depends on the root finder and on the loose bracket values it starts
from.  By the first variation of length, the travel time to the boundary
point at angle theta changes at the rate <dF/dy(x, y), dx/dtheta> of the
arriving geodesic (x, y), so each shot reports T minus that rate times
delta.  This removes the first-order dependence on the stopping point;
``GeodesicPath.exit_time`` stays the raw exit time of the ray.

The spray is the Riemannian spray of alpha plus a beta correction (Shen's
decomposition): a closed beta adds a multiple of y, so its geodesics are
alpha's traced at another speed, and only a curl of beta turns them.  The
right-hand side copies the batch's positions and velocities once into four
contiguous component arrays and makes one field call per batch,
:meth:`RandersSpec.spray_terms`, so its arithmetic runs on (m,) arrays, and
on NumPy scalars for what the medium keeps constant over the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import integrators as ivp
from .errors import (ConnectivityError, ConvexityError, DegenerateInputError,
                     DomainError, NonAdmissibleError, RandersError,
                     SpecMismatchError, TrappedGeodesicError)
from .fields import (ConformalMetric, Domain, _pts_pair, _unbatch, circle_directions,
                     disk_grid)
from .norms import (RandersSpec, _alpha_at, _beta_at, _dF_dy, _fundamental,
                    _nonzero_directions)
from .zermelo import herglotz_check

__all__ = ["SolverOptions", "GeodesicPath", "ShootingResult", "PairShots",
           "spray", "integrate_geodesic", "solve_bvp", "shoot_pairs",
           "conjugate_point_scan", "reversed_geodesic_check",
           "polyline_hausdorff", "ConjugateScanReport", "ReversalReport"]

_TWO_PI = 2.0 * math.pi

# shooting sweep: its loose tolerances, and the band of angular miss (rad)
# inside which a sweep ray is re-integrated at the solver tolerance
_SWEEP_RTOL, _SWEEP_ATOL = 1e-6, 1e-9
_GUARD = 1e-3
_REFINE_MAX_ITER = 80   # false-position iterations per bracket
_RESAMPLE_STEP = 5e-4   # parameter spacing of GeodesicPath.resample


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and resolutions for geodesic integration and shooting."""

    rtol: float = 1e-9
    atol: float = 1e-12
    max_steps: int = 100_000
    trap_time_factor: float = 50.0
    angle_samples: int = 720
    miss_rtol: float = 1e-8          # target |angular miss| (arc length / R)
    exclude_separation: float = 1e-3  # radians; nearly-adjacent pair cutoff

    def __post_init__(self):
        for name in ("rtol", "atol", "miss_rtol", "trap_time_factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not self.max_steps >= 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps!r}")
        if not self.angle_samples >= 2:
            raise ValueError(f"angle_samples must be >= 2, got {self.angle_samples!r}")
        if not (math.isfinite(self.exclude_separation) and self.exclude_separation >= 0.0):
            raise ValueError(f"exclude_separation must be finite and >= 0, "
                             f"got {self.exclude_separation!r}")

    def controls(self, t_max, record=False):
        # recorded paths cap the step so stored samples resolve the curve
        # (pointwise invariants and Hermite resampling both rely on this)
        h_max = t_max / (self.trap_time_factor * 256.0) if record else np.inf
        return ivp.Controls(rtol=self.rtol, atol=self.atol,
                            max_steps=self.max_steps, t_max=t_max, h_max=h_max)


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
    """Planar spray (G0, G1) and norm F on component arrays; no domain checks (hot path).

    G = G_alpha + P y + alpha S (Shen's decomposition of a Randers spray),
    with J_il = d b_i / dx^l, s_i0 = w (y1, -y0) for w = (J01 - J10) / 2,
    r00 = y.J.y - 2 <b, G_alpha>, S = a^-1 s_.0, s0 = <b, S> and
    P = (r00 - 2 alpha s0) / (2F).  S is zero where beta has no curl, so a
    closed beta only rescales the alpha spray along y.
    """
    (A, (G0, G1), inv), bjet = spec.spray_terms(x0, x1, y0, y1)
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


def _geodesic_rhs(spec):
    def rhs(u):
        x0, x1, y0, y1 = np.ascontiguousarray(u[:, 0:4].T)
        G0, G1, F = _spray_and_norm(spec, x0, x1, y0, y1)
        out = np.empty(u.shape)
        out[:, 0] = y0
        out[:, 1] = y1
        out[:, 2] = -2.0 * G0
        out[:, 3] = -2.0 * G1
        out[:, 4] = F
        return out
    return rhs


def _boundary_stop(spec):
    """Disk stop g = |x|^2 - R^2 with its exact rate 2<x, y> (x' = y)."""
    r2 = spec.domain.radius ** 2

    def stop(u):
        return u[:, 0] ** 2 + u[:, 1] ** 2 - r2, 2.0 * (u[:, 0] * u[:, 2] + u[:, 1] * u[:, 3])
    return stop


# ---------------------------------------------------------------------------
# initial value problem


@dataclass
class GeodesicPath:
    """Discretized unit-speed geodesic with its exit record."""

    t: np.ndarray          # (k,) parameter samples
    x: np.ndarray          # (k, 2) positions
    y: np.ndarray          # (k, 2) velocities
    f_length: float        # accumulated F-length
    exit_time: float       # exit parameter T
    exit_point: np.ndarray
    spec_hash: str

    def unit_speed_residual(self, spec):
        f = spec._raw_norm(self.x, self.y)
        return float(np.abs(f - 1.0).max())

    def resample(self):
        """Densified positions via cubic Hermite interpolation of the samples.

        The stored velocities make each interval a cubic with O(h^4) error,
        so point-set comparisons at 1e-6 R scales are meaningful even though
        the solver's accepted steps are much coarser.
        """
        T = self.t[-1]
        npts = max(int(math.ceil(T / _RESAMPLE_STEP)), 2)
        tq = np.linspace(0.0, T, npts)
        k = np.clip(np.searchsorted(self.t, tq, side="right") - 1, 0, len(self.t) - 2)
        h = self.t[k + 1] - self.t[k]
        h = np.where(h > 0.0, h, 1.0)
        s = np.clip((tq - self.t[k]) / h, 0.0, 1.0)[:, None]
        x0, x1 = self.x[k], self.x[k + 1]
        v0, v1 = self.y[k] * h[:, None], self.y[k + 1] * h[:, None]
        h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
        h10 = s * (1.0 - s) ** 2
        h01 = s ** 2 * (3.0 - 2.0 * s)
        h11 = s ** 2 * (s - 1.0)
        return h00 * x0 + h10 * v0 + h01 * x1 + h11 * v1

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("# geodesic samples units=time,length\n")
            fh.write("t,x1,x2,y1,y2\n")
            for k in range(len(self.t)):
                fh.write(f"{float(self.t[k])!r},{float(self.x[k, 0])!r},{float(self.x[k, 1])!r},"
                         f"{float(self.y[k, 0])!r},{float(self.y[k, 1])!r}\n")


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

    y0 is rescaled to unit F-speed (under F, not the reversed norm); for
    boundary starts the direction must point into the domain.
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
    f0 = float(spec._raw_norm(x0n[None], y0[None])[0])
    if not f0 > 0.0:
        raise DegenerateInputError("initial direction has non-positive F")
    u0 = np.concatenate([x0n, y0 / f0, [0.0]])

    res = ivp.integrate_batch(_geodesic_rhs(spec), u0[None],
                              _boundary_stop(spec),
                              opts.controls(opts.trap_time_factor * _time_scale(spec), record=True),
                              record=True)
    return _path_from(res, 0, spec)


def _path_from(res, i, spec, label="geodesic"):
    st = res.status[i]
    if st == ivp.TRAPPED or st == ivp.MAXSTEPS:
        raise TrappedGeodesicError(
            f"{label} did not reach the boundary within the budget "
            f"(t={res.t_end[i]:.4g}, steps={res.steps[i]}); the medium may be trapping")
    if st != ivp.EXITED:
        raise RandersError(f"{label} integration failed (nonfinite state); check the spec fields")
    ts, us = res.history[i]
    return GeodesicPath(t=ts, x=us[:, 0:2], y=us[:, 2:4],
                        f_length=float(res.u_end[i, 4]),
                        exit_time=float(res.t_end[i]),
                        exit_point=res.u_end[i, 0:2].copy(),
                        spec_hash=spec.spec_hash)


# ---------------------------------------------------------------------------
# shooting fans


def _fan_states(spec, theta0, psi):
    """Initial states for rays leaving boundary angle theta0 at inward angle psi."""
    R = spec.domain.radius
    x0 = (R * (1.0 - 1e-13)) * np.column_stack([np.cos(theta0), np.sin(theta0)])
    d_ang = theta0 + math.pi + psi
    d = np.column_stack([np.cos(d_ang), np.sin(d_ang)])
    f = spec._raw_norm(x0, d)
    y0 = d / f[:, None]
    return np.concatenate([x0, y0, np.zeros((len(psi), 1))], axis=1)


def _exit_fan(spec, theta0, psi, opts, record=False):
    """Integrate a fan; returns (exit_theta, exit_time, ok, result)."""
    u0 = _fan_states(spec, np.asarray(theta0, dtype=float), np.asarray(psi, dtype=float))
    res = ivp.integrate_batch(_geodesic_rhs(spec), u0, _boundary_stop(spec),
                              opts.controls(opts.trap_time_factor * _time_scale(spec),
                                            record=record),
                              record=record)
    exit_theta = np.arctan2(res.u_end[:, 1], res.u_end[:, 0]) % _TWO_PI
    ok = res.status == ivp.EXITED
    return exit_theta, res.t_end.copy(), ok, res


def _sweep_angles(n):
    return -0.5 * math.pi + math.pi * (np.arange(n) + 0.5) / n


def _bracket_roots(miss, ok, angle_tol):
    """Root masks of the angular miss along the last (sweep) axis.

    Returns (node, bracket): ``node`` (..., K) marks valid sweep rays whose
    miss is already within tolerance; ``bracket`` (..., K-1) marks intervals
    (k, k+1) with valid ends, a sign change and both misses above tolerance.
    Sign changes across a wrap jump (|dm| >= 0.9 pi) are discarded.  ``ok``
    broadcasts against ``miss``.
    """
    small = np.abs(miss) <= angle_tol
    node = ok & small
    m0, m1 = miss[..., :-1], miss[..., 1:]
    bracket = (ok[..., :-1] & ok[..., 1:] & (np.sign(m0) * np.sign(m1) < 0.0)
               & (np.abs(m1 - m0) < 0.9 * math.pi) & ~small[..., :-1] & ~small[..., 1:])
    return node, bracket


def _sweep(spec, theta0, psi, targets, opts):
    """Shooting fans from the starts ``theta0`` (s,) over the angles ``psi`` (K,).

    ``targets[si]`` holds the target angles of start si.  Returns the exit
    angle, exit time, exit flag and exit state, shaped (s, K) and (s, K, 5).
    The fans run at the loose sweep tolerance and every ray that could
    change a decision is re-integrated at ``opts`` (see the module
    docstring); when ``opts`` is as loose as the sweep there is one pass.
    """
    S, K = len(theta0), len(psi)
    th0, ps = np.repeat(theta0, K), np.tile(psi, S)
    loose = replace(opts, rtol=max(opts.rtol, _SWEEP_RTOL), atol=max(opts.atol, _SWEEP_ATOL))
    th, t, ok, res = _exit_fan(spec, th0, ps, loose)
    u = res.u_end
    if loose != opts:
        # a ray that exits within a relative _GUARD of its time budget, or
        # near its step budget, may not exit at the solver tolerance; an
        # order-5 pair takes steps ~ tol^(-1/5), and the guard is twice that
        step_ratio = 2.0 * max(loose.rtol / opts.rtol, loose.atol / opts.atol) ** 0.2
        t_max = opts.trap_time_factor * _time_scale(spec)
        redo = (~ok | (t >= (1.0 - _GUARD) * t_max)
                | (res.steps * step_ratio >= opts.max_steps)).reshape(S, K)
        # whatever the target, a miss jump |m1 - m0| is |d| or 2 pi - |d| for
        # the exit-angle step d; either one near the wrap cut can flip a bracket
        d = np.abs(np.diff(th.reshape(S, K), axis=1))
        cut = np.minimum(np.abs(d - 0.9 * math.pi), np.abs(1.1 * math.pi - d)) <= _GUARD
        redo[:, :-1] |= cut
        redo[:, 1:] |= cut
        band = opts.miss_rtol + _GUARD
        for si, tg in enumerate(targets):
            # distance to the nearest target around the circle: the targets
            # repeated one turn either side always enclose an exit angle
            x, tg = th[si * K:(si + 1) * K], tg % _TWO_PI
            ring = np.sort(np.concatenate([tg - _TWO_PI, tg, tg + _TWO_PI]))
            k = np.searchsorted(ring, x)
            redo[si] |= np.minimum(x - ring[k - 1], ring[k] - x) <= band
        redo = np.flatnonzero(redo)
        if redo.size:
            th_r, t_r, ok_r, res_r = _exit_fan(spec, th0[redo], ps[redo], opts)
            err = np.where(ok[redo] & ok_r, np.abs(_wrap(th[redo] - th_r)),
                           np.where(ok[redo] == ok_r, 0.0, np.inf))
            th[redo], t[redo], ok[redo], u[redo] = th_r, t_r, ok_r, res_r.u_end
            # self-check: a start whose loose error leaves the guard's margin
            # gets its whole fan at the solver tolerance
            bad = np.unique(redo[err > 0.1 * _GUARD] // K)
            if bad.size:
                full = (bad[:, None] * K + np.arange(K)).ravel()
                th_f, t_f, ok_f, res_f = _exit_fan(spec, th0[full], ps[full], opts)
                th[full], t[full], ok[full], u[full] = th_f, t_f, ok_f, res_f.u_end
    return th.reshape(S, K), t.reshape(S, K), ok.reshape(S, K), u.reshape(S, K, 5)


def _first_variation(spec, u):
    """<dF/dy(x, y), tau> at exit states u (m, 5), tau = dx/dtheta at the exit point.

    This is the rate at which the travel time to the boundary point at angle
    theta changes with theta, with tau = R (-sin theta, cos theta).
    """
    X = u[:, 0:2]
    _, _, (p0, p1) = _dF_dy(_alpha_at(spec.alpha, X), _beta_at(spec.beta, X), u[:, 2], u[:, 3])
    x0, x1 = u[:, 0], u[:, 1]
    return spec.domain.radius * (x0 * p1 - x1 * p0) / np.hypot(x0, x1)


def _false_position(spec, theta0, theta_tgt, lo, hi, m_lo, m_hi, opts):
    """Guarded Illinois iteration on batches of independent brackets.

    Returns (psi, time, miss, ok, state) arrays; each row is one bracket
    problem and ``state`` (q, 5) holds the exit state of its converged ray.
    The iteration holds only its unfinished brackets: a bracket's result is
    written out once, when its ray lands within tolerance, and the live
    arrays shrink only on iterations where some bracket converged or its
    ray failed (which leaves its result nan).
    """
    q = len(lo)
    psi_out, t_out, miss_out = np.full(q, np.nan), np.full(q, np.nan), np.full(q, np.nan)
    u_out = np.full((q, 5), np.nan)
    ids, side = np.arange(q), np.zeros(q, dtype=np.int8)

    for it in range(_REFINE_MAX_ITER):
        if not ids.size:
            break
        width = hi - lo
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = hi - m_hi * width / (m_hi - m_lo)
        mid = 0.5 * (lo + hi)
        cand = np.where(np.isfinite(cand), cand, mid)
        cand = np.clip(cand, lo + 0.02 * width, hi - 0.02 * width)
        if it % 6 == 5:
            cand = mid  # periodic bisection keeps the bracket shrinking

        th_exit, t_exit, ok, res = _exit_fan(spec, theta0, cand, opts)
        m_new = _wrap(th_exit - theta_tgt)
        conv = ok & (np.abs(m_new) <= opts.miss_rtol)
        rows = ids[conv]
        psi_out[rows], t_out[rows], miss_out[rows] = cand[conv], t_exit[conv], m_new[conv]
        u_out[rows] = res.u_end[conv]

        # replace one endpoint; halve the other side when it stagnates
        same_lo = np.sign(m_new) == np.sign(m_lo)
        lo, hi = np.where(same_lo, cand, lo), np.where(same_lo, hi, cand)
        m_lo, m_hi = (np.where(same_lo, m_new, np.where(side == 1, 0.5 * m_lo, m_lo)),
                      np.where(same_lo, np.where(side == -1, 0.5 * m_hi, m_hi), m_new))
        side = np.where(same_lo, -1, 1)
        live = ok & ~conv
        if not live.all():
            ids, theta0, theta_tgt, lo, hi, m_lo, m_hi, side = (
                a[live] for a in (ids, theta0, theta_tgt, lo, hi, m_lo, m_hi, side))
    return psi_out, t_out, miss_out, np.isfinite(psi_out), u_out


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
    time: np.ndarray          # exit time less the first-variation correction
    miss: np.ndarray          # arc-length units
    branch_count: np.ndarray
    converged: np.ndarray
    angle: np.ndarray         # converged inward shooting angle, nan otherwise
    correction: np.ndarray    # first-variation term subtracted from the ray's exit time
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


def shoot_pairs(spec, angles, pairs, opts=None, record_paths=False):
    """Solve many ordered boundary pairs sharing per-start sweeps.

    ``angles`` is the boundary angle table, ``pairs`` (P, 2) ordered index
    pairs (i, j); the :class:`PairShots` record returned is aligned with
    them.  One sweep fan is integrated per distinct start and shared across
    its targets (see ``_sweep``).  A pair counts one branch per sweep ray
    within tolerance of its target and per bracket; a pair with such a ray
    takes the first one, every other pair its first converged bracket in
    sweep order, with all brackets refined in a single batch.  Each
    converged shot's time carries the first-variation correction for its
    miss, also reported as ``correction``.  Branch counts and flags are
    independent of pair order and grouping, and so are times up to the
    correction's second-order remainder.  With ``record_paths`` the
    converged single-branch rays are re-integrated once as a recorded batch:
    ``paths[q]`` is pair q's GeodesicPath (its ``exit_time`` uncorrected),
    or None when q has no single converged branch; a recorded ray that
    does not exit raises TrappedGeodesicError naming its pair.
    """
    spec.require_valid()
    opts = opts or SolverOptions()
    angles = np.asarray(angles, dtype=float)
    pairs = np.array(list(pairs), dtype=int).reshape(-1, 2)
    if not len(pairs):
        z = np.zeros(0)
        return PairShots(pairs, z, z, z.astype(int), z.astype(bool), z, z,
                         [] if record_paths else None)
    starts = np.unique(pairs[:, 0])
    rows_of = [np.flatnonzero(pairs[:, 0] == i) for i in starts]
    targets = [angles[pairs[rows, 1]] for rows in rows_of]

    psi = _sweep_angles(opts.angle_samples)
    exit_th, exit_t, ok, exit_u = _sweep(spec, angles[starts], psi, targets, opts)

    P = len(pairs)
    time, miss, angle = np.full(P, np.nan), np.full(P, np.nan), np.full(P, np.nan)
    state = np.full((P, 5), np.nan)
    count = np.zeros(P, dtype=int)
    converged = np.zeros(P, dtype=bool)
    fp = []   # per start: (pair rows, sweep index, miss at k and k+1) of brackets
    for si, (rows, tg) in enumerate(zip(rows_of, targets)):
        m = _wrap(exit_th[si] - tg[:, None])
        node, bracket = _bracket_roots(m, ok[si], opts.miss_rtol)
        count[rows] = node.sum(axis=1) + bracket.sum(axis=1)
        hit = node.any(axis=1)
        k = node.argmax(axis=1)[hit]
        r = rows[hit]
        time[r], miss[r], angle[r], state[r] = exit_t[si, k], m[hit, k], psi[k], exit_u[si, k]
        converged[r] = True
        q, kb = np.nonzero(bracket & ~hit[:, None])
        fp.append((rows[q], kb, m[q, kb], m[q, kb + 1]))

    owner, kb, m_lo, m_hi = (np.concatenate(c) for c in zip(*fp))
    if len(owner):
        p, tt, mm, good, uu = _false_position(
            spec, angles[pairs[owner, 0]], angles[pairs[owner, 1]], psi[kb], psi[kb + 1],
            m_lo, m_hi, opts)
        # rows of one pair are contiguous and in sweep order
        won, first = np.unique(owner[good], return_index=True)
        sel = np.flatnonzero(good)[first]
        time[won], miss[won], angle[won], state[won] = tt[sel], mm[sel], p[sel], uu[sel]
        converged[won] = True

    correction = np.zeros(P)
    correction[converged] = _first_variation(spec, state[converged]) * miss[converged]
    time -= correction
    miss *= spec.domain.radius
    out = PairShots(pairs, time, miss, count, converged, angle, correction)
    if record_paths:
        out.paths = [None] * P
        rec = np.flatnonzero(converged & (count == 1))
        if rec.size:
            _, _, _, res = _exit_fan(spec, angles[pairs[rec, 0]], angle[rec], opts, record=True)
            for k, q in enumerate(rec.tolist()):
                i, j = pairs[q]
                out.paths[q] = _path_from(res, k, spec, f"geodesic of boundary pair ({i}, {j})")
    return out


# ---------------------------------------------------------------------------
# Jacobi fields along conformal-radial geodesics


@dataclass
class ConjugateScanReport:
    angles: np.ndarray
    exit_times: np.ndarray
    first_conjugate: np.ndarray   # parameter of first Jacobi zero, nan if none
    min_jacobi: np.ndarray        # min of J past the initial instant
    herglotz_margin: float
    any_conjugate: bool
    note: str = ("finite fan scan: absence of zeros is evidence for "
                 "admissibility, not a certificate")


def _gauss_curvature_fn(profile):
    """K(r) for g = c^-2(r) * euclidean: K = c^2 * laplacian(ln c)."""
    def K(r):
        r = np.maximum(r, 1e-9)
        c = profile.profile(r)
        d1 = profile.profile_d1(r)
        d2 = profile.profile_d2(r)
        lc1 = d1 / c
        lc2 = d2 / c - lc1 ** 2
        return c ** 2 * (lc2 + lc1 / r)
    return K


def conjugate_point_scan(metric, radius, angles=None, opts=None):
    """Integrate Jacobi fields along a fan and report zero crossings.

    ``metric`` must be a conformal-radial metric field (flat-profile sound
    speed); the scan starts rays from one boundary point across a fan of
    inward angles, excluding exactly-radial shots where the conformal factor
    need not be smooth.
    """
    if not isinstance(metric, ConformalMetric) or metric.flavor != "conformal-radial":
        raise ValueError("conjugate point scan expects a conformal-radial metric")
    opts = opts or SolverOptions()
    if angles is None:
        half = np.linspace(0.06, 1.45, 12)
        angles = np.concatenate([-half[::-1], half])
    angles = np.asarray(angles, dtype=float)

    spec = RandersSpec(Domain(radius), metric)
    hz = herglotz_check(metric.speed, radius)
    Kfn = _gauss_curvature_fn(metric.speed)

    base = _geodesic_rhs(spec)

    def rhs(u):
        core = base(u[:, :5])
        r = np.linalg.norm(u[:, 0:2], axis=1)
        jac = np.column_stack([u[:, 6], -Kfn(r) * u[:, 5]])
        return np.concatenate([core, jac], axis=1)

    x0 = _fan_states(spec, np.zeros_like(angles), angles)
    u0 = np.concatenate([x0, np.zeros((len(angles), 1)), np.ones((len(angles), 1))], axis=1)
    res = ivp.integrate_batch(rhs, u0, _boundary_stop(spec),
                              opts.controls(opts.trap_time_factor * _time_scale(spec), record=True),
                              record=True)

    first = np.full(len(angles), np.nan)
    minj = np.full(len(angles), np.nan)
    for k in range(len(angles)):
        if res.status[k] != ivp.EXITED:
            continue
        ts, us = res.history[k]
        j = us[:, 5]
        late = ts > 1e-6 * res.t_end[k]
        minj[k] = j[late].min() if late.any() else j[-1]
        sign_flip = np.nonzero((j[:-1] > 0.0) & (j[1:] <= 0.0) & late[1:])[0]
        if sign_flip.size:
            a = sign_flip[0]
            frac = j[a] / (j[a] - j[a + 1])
            first[k] = ts[a] + frac * (ts[a + 1] - ts[a])
    return ConjugateScanReport(angles=angles, exit_times=res.t_end.copy(),
                               first_conjugate=first, min_jacobi=minj,
                               herglotz_margin=hz.margin,
                               any_conjugate=bool(np.isfinite(first).any()))


# ---------------------------------------------------------------------------
# reversibility check


def polyline_hausdorff(A, B):
    """Hausdorff distance between two polylines given by vertex arrays."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return max(_directed_hausdorff(A, B), _directed_hausdorff(B, A))


def _directed_hausdorff(P, Q):
    """max over P of the distance to polyline Q (point-to-segment).

    A KD-tree narrows each query point to segments adjacent to its nearest
    vertices, which is exact for the smooth, non-self-approaching curves
    compared here and keeps dense comparisons linear.
    """
    if len(Q) < 2:
        return float(np.linalg.norm(P - Q[0], axis=1).max())
    q0, q1 = Q[:-1], Q[1:]
    d = q1 - q0
    L2 = np.maximum(np.einsum("si,si->s", d, d), 1e-300)
    if len(P) * len(q0) <= 1_000_000:
        w = P[:, None, :] - q0[None, :, :]
        tproj = np.clip(np.einsum("ksi,si->ks", w, d) / L2, 0.0, 1.0)
        closest = q0[None] + tproj[..., None] * d[None]
        dist = np.linalg.norm(P[:, None, :] - closest, axis=2).min(axis=1)
        return float(dist.max())

    from scipy.spatial import cKDTree

    tree = cKDTree(Q)
    _, nearest = tree.query(P, k=1)
    best = np.full(len(P), np.inf)
    for off in (-2, -1, 0, 1):
        seg = np.clip(nearest + off, 0, len(q0) - 1)
        w = P - q0[seg]
        tproj = np.clip(np.einsum("ki,ki->k", w, d[seg]) / L2[seg], 0.0, 1.0)
        closest = q0[seg] + tproj[:, None] * d[seg]
        best = np.minimum(best, np.linalg.norm(P - closest, axis=1))
    return float(best.max())


@dataclass
class ReversalReport:
    hausdorff: float
    relative: float        # hausdorff / R
    forward_time: float
    backward_time: float


def reversed_geodesic_check(spec, path, opts=None):
    """Compare the reversed path with the geodesic joining reversed endpoints.

    For closed one-forms the two agree as point sets; a rotational (non
    closed) perturbation separates them on some chord.
    """
    if path.spec_hash != spec.spec_hash:
        raise SpecMismatchError("path was not produced under the supplied spec")
    opts = opts or SolverOptions()
    back = solve_bvp(spec, path.exit_point, path.x[0], opts)
    h = polyline_hausdorff(path.resample()[::-1], back.path.resample())
    return ReversalReport(hausdorff=h, relative=h / spec.domain.radius,
                          forward_time=path.exit_time,
                          backward_time=back.path.exit_time)
