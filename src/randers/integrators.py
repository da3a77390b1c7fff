"""Batched adaptive Runge-Kutta integration with boundary-exit refinement.

A single Dormand-Prince 5(4) driver advances a whole batch of rays at once
(per-ray step sizes, accept/reject masks), which is what makes shooting fans
of 10^4 geodesics tractable in pure numpy.  When a ray's accepted step
crosses the stop surface (sign change of a scalar stop function from <= 0 to
> 0), the crossing time is pinned afterwards by a bracketed Newton iteration
on the step length, each iterate one fixed step from the last interior
state, so the refined exit inherits the integrator's local accuracy; the
stop supplies its own time derivative, so Newton costs no extra
right-hand-side evaluation, and only the refinement asks for it.
Detection is end-of-step only, which is exact for domains whose boundary is
strictly convex for the flow being integrated.

The driver and the exit refinement hold only their live rows, the
unfinished rays, each with its index in the batch.  A ray's result is written
to the output arrays once, when it finishes; the live arrays are updated with
masks and compacted only on iterations where some ray finished.

The live batch is column-major: a (d, m) array with each of the d state
components contiguous over the m rays.  ``rhs`` and the stop's callables
receive its transpose, an (m, d) view, and ``rhs`` may return an (m, d)
array of any layout (one whose columns are contiguous is used without a
copy), so a right-hand side written for row-major input still works.
Per-ray norms sum the components one row at a time, in the order numpy's
mean over a short row uses, and rays are compacted with ``take`` on the ray
axis.
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
    u_end: np.ndarray    # (m, d) refined exit state (last state otherwise), column-major
    steps: np.ndarray    # (m,) accepted step counts
    history: list | None  # per ray: (t (k,), u (k, d)) including the exit sample


def _eval(rhs, u):
    """rhs on the batch u (d, m), as a (d, m) C-contiguous array."""
    return np.ascontiguousarray(rhs(u.T).T)


def _rms(a):
    """Root mean square over the components of a (d, m), per ray.

    The rows are summed left to right, which is the order of numpy's mean
    over a row shorter than 8, so this is bit for bit
    ``np.sqrt(np.mean(a.T ** 2, axis=1))`` for any d < 8, such as a ray's 4.
    """
    sq = a ** 2
    s = sq[0]
    for row in sq[1:]:
        s = s + row
    return np.sqrt(s / len(a))


def _rk_step(rhs, u, h, f0):
    """Shared DP45 stage arithmetic; returns (u5, k_list)."""
    k = [f0]
    for a in _A:
        du = a[0] * k[0]
        for aj, kj in zip(a[1:], k[1:]):
            du = du + aj * kj
        k.append(_eval(rhs, u + h * du))
    inc = _B5[0] * k[0]
    for bj, kj in zip(_B5[1:], k[1:]):
        if bj != 0.0:
            inc = inc + bj * kj
    return u + h * inc, k


def _stages(rhs, u, h, f0):
    """One error-controlled DP45 step. Returns (u5, err, f_new)."""
    u5, k = _rk_step(rhs, u, h, f0)
    k.append(_eval(rhs, u5))
    ev = _E[0] * k[0]
    for ej, kj in zip(_E[1:], k[1:]):
        if ej != 0.0:
            ev = ev + ej * kj
    return u5, h * ev, k[6]


def _initial_step(rhs, u0, f0, ctl):
    scale = ctl.atol + ctl.rtol * np.abs(u0)
    d0 = _rms(u0 / scale)
    d1 = _rms(f0 / scale)
    h0 = np.where((d0 > 1e-5) & (d1 > 1e-5), 0.01 * d0 / np.maximum(d1, 1e-300), 1e-6)
    f1 = _eval(rhs, u0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / np.maximum(h0, 1e-300)
    big = np.maximum(d1, d2)
    h1 = np.where(big > 1e-15, (0.01 / np.maximum(big, 1e-300)) ** 0.2,
                  np.maximum(1e-6, h0 * 1e3))
    return np.minimum(np.minimum(100.0 * h0, h1), ctl.h_max)


def _refine_exits(rhs, stop, u0, f0, h, g1):
    """Pin the crossing inside steps that go from stop <= 0 at u0 to g1 > 0.

    ``u0`` and ``f0`` are (m, d), the returned exit states too.  Every
    iterate is a single fixed DP45 step of length tau from u0, so the
    stop value g is a smooth function of tau; ``stop`` is the pair
    (value, rate) of ``integrate_batch``.  The first iterate is the root
    of the quadratic through g(0), g'(0) and g(h) = g1, which is exact for
    straight rays; each later one is a Newton step with the stop rate as
    slope.  An iterate outside the bracket g(lo) <= 0 < g(hi), which starts
    as (0, h], is replaced by the bracket midpoint.  A ray stops when its
    Newton correction is at most _EXIT_RTOL * h, when g = 0, or when its
    bracket is that narrow, and its last iterate (tau, state) is returned as
    it stands.
    """
    u0, f0 = np.ascontiguousarray(u0.T), np.ascontiguousarray(f0.T)
    tau, u_exit = np.empty_like(h), np.empty_like(u0)
    ids = np.arange(len(h))
    lo, hi, tol = np.zeros_like(h), h, _EXIT_RTOL * h
    value, rate = stop
    g, dg = value(u0.T), rate(u0.T)
    curv = (g1 - g - dg * h) / (h * h)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_new = -2.0 * g / (dg + np.sqrt(np.maximum(dg * dg - 4.0 * curv * g, 0.0)))
    while ids.size:
        t_new = np.where((t_new > lo) & (t_new < hi), t_new, 0.5 * (lo + hi))
        u_new, _ = _rk_step(rhs, u0, t_new, f0)
        g, dg = value(u_new.T), rate(u_new.T)
        out = g > 0.0
        hi, lo = np.where(out, t_new, hi), np.where(out, lo, t_new)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / dg
        done = (np.abs(step) <= tol) | (g == 0.0) | (hi - lo <= tol)
        idx = np.flatnonzero(done)
        tau[ids[idx]], u_exit[:, ids[idx]] = t_new[idx], u_new.take(idx, axis=1)
        t_new = t_new - step
        if idx.size:
            idx = np.flatnonzero(~done)
            ids, lo, hi, tol, t_new, u0, f0 = (
                a.take(idx, axis=-1) for a in (ids, lo, hi, tol, t_new, u0, f0))
    return tau, u_exit.T


def integrate_batch(rhs, u0, stop, ctl=None, record=False):
    """Integrate du/dt = rhs(u) for a batch until each ray crosses stop > 0.

    ``rhs`` maps (k, d) -> (k, d) and must be pure.  ``stop`` is a pair
    (value, rate) of callables mapping (k, d) to (k,) arrays: the stop value
    g and its rate dg/dt along the flow, which only exit refinement reads,
    as a Newton slope (for the disk stop g = |x|^2 - R^2 of a ray with
    x' = dH/dp, dg = 2<x, dH/dp>).  All three receive (k, d) views of the
    column-major batch (see the module docstring).  Rays start with g <= 0
    and finish when g first turns positive at the end of an accepted step;
    the exit is then refined inside that step.
    """
    ctl = ctl or Controls()
    value = stop[0]
    u0 = np.atleast_2d(np.asarray(u0, dtype=float))
    m = len(u0)

    status = np.full(m, MAXSTEPS, dtype=np.int8)
    t_end, u_end = np.zeros(m), np.empty(u0.T.shape)
    steps = np.zeros(m, dtype=np.int64)

    ids, t, u, n = np.arange(m), np.zeros(m), np.array(u0.T, order="C"), np.zeros(m, dtype=np.int64)
    f = _eval(rhs, u)
    h = _initial_step(rhs, u, f, ctl)
    # recorded samples as (ids, t, u) blocks, split per ray at the end
    blocks = [(ids, t, u)] if record else None
    # exits waiting for refinement, as ray blocks: (ids, t, u, f, h, g(u5))
    pending = []

    for _ in range(ctl.max_steps * 4):
        if not ids.size:
            break
        hs = np.minimum(h, np.maximum(ctl.t_max - t, 1e-14))
        u5, err, fnew = _stages(rhs, u, hs, f)

        scale = ctl.atol + ctl.rtol * np.maximum(np.abs(u), np.abs(u5))
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            enorm = _rms(err / scale)
        enorm = np.where(np.isfinite(enorm) & np.isfinite(u5).all(axis=0), enorm, np.inf)
        accept = enorm <= 1.0

        with np.errstate(divide="ignore", over="ignore"):
            fac = _SAFETY * enorm ** -0.2
        fac = np.clip(np.where(np.isfinite(fac), fac, _MIN_FAC), _MIN_FAC, _MAX_FAC)
        fac = np.where(accept, fac, np.minimum(fac, 1.0))

        # stop is evaluated on accepted (finite) states only
        g = np.zeros_like(t)
        idx = np.flatnonzero(accept)
        g[idx] = value(u5.take(idx, axis=1).T)
        crossed = g > 0.0
        stay = accept & ~crossed
        t = np.where(stay, t + hs, t)
        u = np.where(stay, u5, u)
        f = np.where(stay, fnew, f)
        n = n + accept
        h = np.minimum(hs * fac, ctl.h_max)
        if record:
            idx = np.flatnonzero(stay)
            blocks.append(tuple(a.take(idx, axis=-1) for a in (ids, t, u)))

        failed = (h <= 1e-15 * np.maximum(1.0, t)) & ~accept
        trapped = (t >= ctl.t_max * (1.0 - 1e-12)) & ~crossed & ~failed
        capped = (n >= ctl.max_steps) & ~crossed & ~failed & ~trapped
        ended = failed | trapped | capped
        left = ended | crossed
        if left.any():
            idx = np.flatnonzero(crossed)
            pending.append(tuple(a.take(idx, axis=-1) for a in (ids, t, u, f, hs, g)))
            status[ids[failed]], status[ids[trapped]] = FAILED, TRAPPED
            idx = np.flatnonzero(ended)
            t_end[ids[idx]], u_end[:, ids[idx]] = t[idx], u.take(idx, axis=1)
            steps[ids[left]] = n[left]
            idx = np.flatnonzero(~left)
            ids, t, u, f, h, n = (a.take(idx, axis=-1) for a in (ids, t, u, f, h, n))

    # rays still live at the iteration cap stay MAXSTEPS with their last state
    t_end[ids], u_end[:, ids], steps[ids] = t, u, n

    if pending:
        rays, t0, u0p, f0p, h0p, g1p = (np.concatenate(col, axis=-1) for col in zip(*pending))
        tau, u_exit = _refine_exits(rhs, stop, u0p.T, f0p.T, h0p, g1p)
        status[rays], t_end[rays], u_end[:, rays] = EXITED, t0 + tau, u_exit.T
        if record:
            blocks.append((rays, t_end[rays], u_exit.T))

    history = None
    if record:
        rays, ts, us = (np.concatenate(col, axis=-1) for col in zip(*blocks))
        order = np.argsort(rays, kind="stable")
        cuts = np.cumsum(np.bincount(rays, minlength=m))[:-1]
        # [:m]: np.split returns one (empty) piece for an empty batch
        history = list(zip(np.split(ts[order], cuts), np.split(us.T[order], cuts)))[:m]
    return BatchIntegration(status, t_end, u_end.T, steps, history)
