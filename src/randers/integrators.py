"""Batched adaptive Runge-Kutta integration with boundary-exit refinement.

A single Dormand-Prince 5(4) driver advances a whole batch of rays at once
(per-ray step sizes, accept/reject masks), which is what makes shooting fans
of 10^4 geodesics tractable in pure numpy.  When a ray's accepted step
crosses the stop surface (sign change of a scalar stop function from <= 0 to
> 0), the crossing time is pinned afterwards by a bracketed Newton iteration
on the step length, each iterate one fixed step from the last interior
state, so the refined exit inherits the integrator's local accuracy; the
stop function supplies its own time derivative, so Newton costs no extra
right-hand-side evaluation.  Detection is end-of-step only, which is exact
for domains whose boundary is strictly convex for the flow being integrated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Controls", "BatchIntegration", "integrate_batch",
           "EXITED", "TRAPPED", "MAXSTEPS", "FAILED"]

EXITED, TRAPPED, MAXSTEPS, FAILED = 0, 1, 2, 3

# Dormand-Prince 5(4) tableau
_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([35 / 384 - 5179 / 57600, 0.0, 500 / 1113 - 7571 / 16695,
               125 / 192 - 393 / 640, -2187 / 6784 + 92097 / 339200,
               11 / 84 - 187 / 2100, -1 / 40])

_SAFETY, _MIN_FAC, _MAX_FAC = 0.9, 0.2, 5.0

# exit refinement stops once the Newton correction is at most this fraction
# of the step: far below the integrator's local error, and above the rounding
# noise of the stop value except at grazing exits (bracket width ends those)
_EXIT_RTOL = 2.0 ** -45


@dataclass
class Controls:
    rtol: float = 1e-9
    atol: float = 1e-12
    max_steps: int = 100_000
    t_max: float = np.inf
    h_max: float = np.inf


@dataclass
class BatchIntegration:
    status: np.ndarray   # (m,) EXITED/TRAPPED/MAXSTEPS/FAILED
    t_end: np.ndarray    # (m,)
    u_end: np.ndarray    # (m, d) refined exit state (last state otherwise)
    steps: np.ndarray    # (m,) accepted step counts
    history: list | None  # per ray: (t (k,), u (k, d)) including the exit sample


def _rk_step(rhs, u, h, f0):
    """Shared DP45 stage arithmetic; returns (u5, k_list)."""
    hh = h[:, None]
    k = [f0]
    for a in _A:
        du = a[0] * k[0]
        for aj, kj in zip(a[1:], k[1:]):
            du = du + aj * kj
        k.append(rhs(u + hh * du))
    inc = _B5[0] * k[0]
    for bj, kj in zip(_B5[1:], k[1:]):
        if bj != 0.0:
            inc = inc + bj * kj
    return u + hh * inc, k


def _stages(rhs, u, h, f0):
    """One error-controlled DP45 step. Returns (u5, err, f_new)."""
    u5, k = _rk_step(rhs, u, h, f0)
    k.append(rhs(u5))
    ev = _E[0] * k[0]
    for ej, kj in zip(_E[1:], k[1:]):
        if ej != 0.0:
            ev = ev + ej * kj
    return u5, h[:, None] * ev, k[6]


def _initial_step(rhs, u0, f0, ctl):
    scale = ctl.atol + ctl.rtol * np.abs(u0)
    d0 = np.sqrt(np.mean((u0 / scale) ** 2, axis=1))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2, axis=1))
    h0 = np.where((d0 > 1e-5) & (d1 > 1e-5), 0.01 * d0 / np.maximum(d1, 1e-300), 1e-6)
    u1 = u0 + h0[:, None] * f0
    f1 = rhs(u1)
    d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2, axis=1)) / np.maximum(h0, 1e-300)
    big = np.maximum(d1, d2)
    h1 = np.where(big > 1e-15, (0.01 / np.maximum(big, 1e-300)) ** 0.2,
                  np.maximum(1e-6, h0 * 1e3))
    return np.minimum(np.minimum(100.0 * h0, h1), ctl.h_max)


def _refine_exits(rhs, stop, u0, f0, h, g1):
    """Pin the crossing inside steps that go from stop <= 0 at u0 to g1 > 0.

    Every iterate is a single fixed DP45 step of length tau from u0, so the
    stop value g is a smooth function of tau.  The first iterate is the root
    of the quadratic through g(0), g'(0) and g(h) = g1, which is exact for
    straight rays; each later one is a Newton step with the stop rate as
    slope.  An iterate outside the bracket g(lo) <= 0 < g(hi), which starts
    as (0, h], is replaced by the bracket midpoint.  A ray stops when its
    Newton correction is at most _EXIT_RTOL * h, when g = 0, or when its
    bracket is that narrow, and its last iterate (tau, state) is returned as
    it stands.
    """
    tau, u_exit = np.zeros_like(h), np.empty_like(u0)
    lo, hi = np.zeros_like(h), h.copy()
    tol = _EXIT_RTOL * h
    g, dg = stop(u0)
    curv = (g1 - g - dg * h) / (h * h)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_new = -2.0 * g / (dg + np.sqrt(np.maximum(dg * dg - 4.0 * curv * g, 0.0)))
    rays = np.arange(len(h))
    while rays.size:
        lo_r, hi_r = lo[rays], hi[rays]
        t_new = np.where((t_new > lo_r) & (t_new < hi_r), t_new, 0.5 * (lo_r + hi_r))
        u_new, _ = _rk_step(rhs, u0[rays], t_new, f0[rays])
        g, dg = stop(u_new)
        out = g > 0.0
        hi_r, lo_r = np.where(out, t_new, hi_r), np.where(out, lo_r, t_new)
        hi[rays], lo[rays] = hi_r, lo_r
        tau[rays], u_exit[rays] = t_new, u_new
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / dg
        tol_r = tol[rays]
        going = ~((np.abs(step) <= tol_r) | (g == 0.0) | (hi_r - lo_r <= tol_r))
        rays, t_new = rays[going], (t_new - step)[going]
    return tau, u_exit


def integrate_batch(rhs, u0, stop, ctl=None, record=False):
    """Integrate du/dt = rhs(u) for a batch until each ray crosses stop > 0.

    ``rhs`` maps (k, d) -> (k, d) and must be pure.  ``stop`` maps (k, d) to
    a pair (g, dg) of (k,) arrays: the stop value and its rate dg/dt along
    the flow, which exit refinement uses as a Newton slope (for the disk
    stop g = |x|^2 - R^2 with x' = y, dg = 2<x, y>).  Rays start with
    g <= 0 and finish when g first turns positive at the end of an
    accepted step; the exit is then refined inside that step.
    """
    if ctl is None:
        ctl = Controls()
    u0 = np.atleast_2d(np.asarray(u0, dtype=float))
    m, _ = u0.shape

    status = np.full(m, MAXSTEPS, dtype=np.int8)
    t_end = np.zeros(m)
    u_end = u0.copy()
    nsteps = np.zeros(m, dtype=np.int64)
    hist = [([0.0], [u0[i].copy()]) for i in range(m)] if record else None

    t = np.zeros(m)
    u = u0.copy()
    f = rhs(u)
    h = _initial_step(rhs, u, f, ctl)
    active = np.arange(m)

    # exits waiting for refinement, as copied row blocks: (rays, t, u, f, h, g(u5))
    pending = []

    for _ in range(ctl.max_steps * 4):
        if active.size == 0:
            break
        na = active.size
        ua, fa, ta = u[active], f[active], t[active]
        ha = np.minimum(h[active], np.maximum(ctl.t_max - ta, 1e-14))
        u5, err, fnew = _stages(rhs, ua, ha, fa)

        scale = ctl.atol + ctl.rtol * np.maximum(np.abs(ua), np.abs(u5))
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            enorm = np.sqrt(np.mean((err / scale) ** 2, axis=1))
        enorm = np.where(np.isfinite(enorm) & np.isfinite(u5).all(axis=1), enorm, np.inf)
        accept = enorm <= 1.0

        with np.errstate(divide="ignore", over="ignore"):
            fac = _SAFETY * enorm ** -0.2
        fac = np.clip(np.where(np.isfinite(fac), fac, _MIN_FAC), _MIN_FAC, _MAX_FAC)
        fac = np.where(accept, fac, np.minimum(fac, 1.0))

        exited_l = np.zeros(na, dtype=bool)
        acc_l = np.nonzero(accept)[0]
        if acc_l.size:
            g_acc = stop(u5[acc_l])[0]
            crossed = g_acc > 0.0
            cr_l = acc_l[crossed]
            if cr_l.size:
                pending.append((active[cr_l], ta[cr_l], ua[cr_l], fa[cr_l], ha[cr_l],
                                g_acc[crossed]))
                nsteps[active[cr_l]] += 1
                exited_l[cr_l] = True

            stay_l = acc_l[~exited_l[acc_l]]
            rays_stay = active[stay_l]
            t[rays_stay] += ha[stay_l]
            u[rays_stay] = u5[stay_l]
            f[rays_stay] = fnew[stay_l]
            nsteps[rays_stay] += 1
            if record:
                for rr in rays_stay:
                    hist[rr][0].append(float(t[rr]))
                    hist[rr][1].append(u[rr].copy())

        h[active] = np.minimum(ha * fac, ctl.h_max)

        alive = ~exited_l
        dead_l = np.nonzero((h[active] <= 1e-15 * np.maximum(1.0, t[active])) & ~accept & alive)[0]
        if dead_l.size:
            rays = active[dead_l]
            status[rays] = FAILED
            t_end[rays], u_end[rays] = t[rays], u[rays]
            alive[dead_l] = False

        trap_l = np.nonzero((t[active] >= ctl.t_max * (1.0 - 1e-12)) & alive)[0]
        if trap_l.size:
            rays = active[trap_l]
            status[rays] = TRAPPED
            t_end[rays], u_end[rays] = t[rays], u[rays]
            alive[trap_l] = False

        over_l = np.nonzero((nsteps[active] >= ctl.max_steps) & alive)[0]
        if over_l.size:
            rays = active[over_l]
            t_end[rays], u_end[rays] = t[rays], u[rays]
            alive[over_l] = False

        active = active[alive]

    if active.size:  # iteration cap: leave as MAXSTEPS with final snapshots
        t_end[active], u_end[active] = t[active], u[active]

    if pending:
        rays, t0, u0p, f0p, h0p, g1p = (np.concatenate(col) for col in zip(*pending))
        tau, u_exit = _refine_exits(rhs, stop, u0p, f0p, h0p, g1p)
        status[rays] = EXITED
        t_end[rays] = t0 + tau
        u_end[rays] = u_exit
        if record:
            for k, rr in enumerate(rays):
                hist[rr][0].append(float(t_end[rr]))
                hist[rr][1].append(u_exit[k].copy())

    out_hist = None
    if record:
        out_hist = [(np.asarray(ts), np.vstack(us)) for ts, us in hist]
    return BatchIntegration(status, t_end, u_end, nsteps, out_hist)
