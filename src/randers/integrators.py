"""Batched adaptive Runge-Kutta integration with boundary-exit refinement.

A single Dormand-Prince 8(5,3) integrator (Hairer's DOP853: 12 stages plus
the first-same-as-last one, and an error norm that combines the 5th- and
3rd-order estimates; Hairer, Norsett & Wanner, Solving ODEs I, II.5 and
II.10) advances a whole batch of rays at once (per-ray step sizes,
accept/reject masks), which is what makes shooting fans of 10^4 geodesics
tractable in pure numpy.  A step's stages are stacked in one (12, d, m)
array, and each stage increment is one contraction over its stage axis.
A zero error estimate grows the step by the largest factor, as does the
round-off estimate of a straight flow.  When a ray's accepted step
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
copy, except the first, which the driver owns and updates in place), so a
right-hand side written for row-major input still works.
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

# Dormand-Prince 8(5,3) coefficients, those of Hairer's DOP853: rows 1..11 of
# the Runge-Kutta matrix, the 8th-order weights, and the weights of the 5th-
# and 3rd-order error estimates.  The FSAL stage, rhs at the new state, has
# zero error weight, so the estimate needs the 12 stages alone.
_STAGES = 12
_A = (
    np.array([0.05260015195876773]),
    np.array([0.0197250569845379, 0.0591751709536137]),
    np.array([0.02958758547680685, 0.0, 0.08876275643042054]),
    np.array([0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792]),
    np.array([0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242]),
    np.array([0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125]),
    np.array([0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
              -0.015319437748624402, 0.008273789163814023]),
    np.array([0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
              27.59209969944671, 20.154067550477894, -43.48988418106996]),
    np.array([0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
              21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627]),
    np.array([-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
              -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
              -3.0467644718982196]),
    np.array([2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
              -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
              12.360567175794303, 0.6433927460157636]),
)
_B = np.array([0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
               -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
               0.04471061572777259])
_E = np.array([[0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571, -0.022355307863886294],
               [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
                -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
                0.20136540080403034, 0.02265179219836082]])

_SAFETY, _MIN_FAC, _MAX_FAC = 0.9, 0.2, 5.0
# 1 / (q + 1) for the order q = 7 of the error estimate: step-size control
# and the initial step scale with the error as h ** 8
_EXPONENT = 1.0 / 8.0

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


def _sumsq(a):
    """Sum of squares over the components of a (d, m), per ray, rows added left to right."""
    sq = a ** 2
    s = sq[0]
    for row in sq[1:]:
        s = s + row
    return s


def _rms(a):
    """Root mean square over the components of a (d, m), per ray.

    The rows are summed left to right, which is the order of numpy's mean
    over a row shorter than 8, so this is bit for bit
    ``np.sqrt(np.mean(a.T ** 2, axis=1))`` for any d < 8, such as a ray's 4.
    """
    return np.sqrt(_sumsq(a) / len(a))


def _combine(w, flat, shape):
    """sum_s w[s] * flat[s], shaped as ``shape``: one contraction over the stages.

    einsum, unlike a BLAS matrix-vector product, rounds each entry the same
    way wherever it sits in the batch (for more than one entry), so a ray
    gets the same bits alone or in any batch.
    """
    return np.einsum("s,sn->n", w, flat).reshape(shape)


def _rk_step(rhs, u, h, f0):
    """One DOP853 step of length h (per ray) from u (d, m), with f0 = rhs(u).

    Returns the 8th-order state and the (12, d * m) stack of the stages.
    """
    K = np.empty((_STAGES,) + u.shape)
    K[0] = f0
    flat = K.reshape(_STAGES, -1)
    for s, a in enumerate(_A, start=1):
        K[s] = rhs((u + h * _combine(a, flat[:s], u.shape)).T).T
    return u + h * _combine(_B, flat, u.shape), flat


def _error_norm(flat, h, scale):
    """DOP853's error norm per ray, h |e5|^2 / sqrt(d (|e5|^2 + |e3|^2 / 100)).

    e5 and e3 are the 5th- and 3rd-order estimates in units of ``scale``
    (d, m); the norm is zero where e5 is.
    """
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        s5, s3 = (_sumsq(_combine(w, flat, scale.shape) / scale) for w in _E)
        norm = h * s5 / np.sqrt(len(scale) * (s5 + 0.01 * s3))
    return np.where(s5 == 0.0, 0.0, norm)


def _initial_step(rhs, u0, f0, ctl):
    scale = ctl.atol + ctl.rtol * np.abs(u0)
    d0 = _rms(u0 / scale)
    d1 = _rms(f0 / scale)
    h0 = np.where((d0 > 1e-5) & (d1 > 1e-5), 0.01 * d0 / np.maximum(d1, 1e-300), 1e-6)
    f1 = _eval(rhs, u0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / np.maximum(h0, 1e-300)
    big = np.maximum(d1, d2)
    h1 = np.where(big > 1e-15, (0.01 / np.maximum(big, 1e-300)) ** _EXPONENT,
                  np.maximum(1e-6, h0 * 1e3))
    return np.minimum(np.minimum(100.0 * h0, h1), ctl.h_max)


def _refine_exits(rhs, stop, u0, f0, h, g1):
    """Pin the crossing inside steps that go from stop <= 0 at u0 to g1 > 0.

    ``u0`` and ``f0`` are (m, d), the returned exit states too.  Every
    iterate is a single fixed DOP853 step of length tau from u0, so the
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
    # owned: the FSAL update writes into f, and rhs may return a view of u
    f = _eval(rhs, u).copy()
    h = _initial_step(rhs, u, f, ctl)
    # recorded samples as (ids, t, u) blocks, split per ray at the end
    blocks = [(ids, t, u)] if record else None
    # exits waiting for refinement, as ray blocks: (ids, t, u, f, h, g(u8))
    pending = []

    for _ in range(ctl.max_steps * 4):
        if not ids.size:
            break
        hs = np.minimum(h, np.maximum(ctl.t_max - t, 1e-14))
        u8, stages = _rk_step(rhs, u, hs, f)

        scale = ctl.atol + ctl.rtol * np.maximum(np.abs(u), np.abs(u8))
        enorm = _error_norm(stages, hs, scale)
        enorm = np.where(np.isfinite(enorm) & np.isfinite(u8).all(axis=0), enorm, np.inf)
        accept = enorm <= 1.0

        # a zero estimate grows the step by _MAX_FAC, an infinite one
        # (non-finite state) shrinks it by _MIN_FAC
        with np.errstate(divide="ignore"):
            fac = np.clip(_SAFETY * enorm ** -_EXPONENT, _MIN_FAC, _MAX_FAC)
        fac = np.where(accept, fac, np.minimum(fac, 1.0))

        # stop is evaluated on accepted (finite) states only
        g = np.zeros_like(t)
        idx = np.flatnonzero(accept)
        g[idx] = value(u8.take(idx, axis=1).T)
        crossed = g > 0.0
        stay = accept & ~crossed
        t = np.where(stay, t + hs, t)
        u = np.where(stay, u8, u)
        # the FSAL stage, rhs(u8), is the next step's first: only rays that
        # go on need it
        idx = np.flatnonzero(stay)
        if idx.size:
            f[:, idx] = _eval(rhs, u8.take(idx, axis=1))
        n = n + accept
        h = np.minimum(hs * fac, ctl.h_max)
        if record:
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
