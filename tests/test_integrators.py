"""The batched Dormand-Prince 8(5,3) integrator and its boundary-exit refinement.

The coefficients are checked against scipy's copy of DOP853 and the order
on a harmonic oscillator.  On a straight-line flow the exit time is the
root of a quadratic, so the refined exits can be checked to rounding level.
A grazing exit is conditioned by 1 / g'(t*): rounding |x|^2 by an ulp moves
it by about eps / g'(t*), which the tolerance allows for.
"""

import math

import numpy as np
import pytest

from randers import integrators as ivp
from randers.geodesics import _cotangent_rhs, _cotangent_stop, _fan_starts, _sweep_angles
from randers.norms import _alpha_at, _beta_at, _dF_dy

EPS = np.finfo(float).eps


def _fan(spec, theta0, psi):
    """Start states (x, p = dF/dy) of a fan, with the right-hand side and stop of
    the dual norm of F, beta integrated as its 1-form b."""
    speed, wind, form, _ = spec._cotangent_fields()
    x0, d = _fan_starts(spec, theta0, psi)
    _, _, (p0, p1) = _dF_dy(_alpha_at(spec.alpha, x0), _beta_at(spec.beta, x0), d[:, 0], d[:, 1])
    rhs = _cotangent_rhs(speed, wind, form)
    return np.column_stack([x0, p0, p1]), rhs, _cotangent_stop(spec, rhs)


def _unit_disk_value(u):
    return u[:, 0] ** 2 + u[:, 1] ** 2 - 1.0


def _unit_disk_rate(u):
    return 2.0 * (u[:, 0] * u[:, 2] + u[:, 1] * u[:, 3])


# the stop of a flow x' = (u[:, 2], u[:, 3]) on the unit disk
_UNIT_DISK_STOP = (_unit_disk_value, _unit_disk_rate)


def _line_rhs(u):
    return np.concatenate([u[:, 2:4], np.zeros((len(u), 2))], axis=1)


def _line_exit(u0):
    """Exit time of x + t y from the unit disk and the stop rate there."""
    x, y = u0[:, 0:2], u0[:, 2:4]
    a, b, c = (y * y).sum(1), (x * y).sum(1), (x * x).sum(1) - 1.0
    root = np.sqrt(b * b - a * c)
    # the form without cancellation for either sign of b
    t = np.where(b < 0.0, (root - b) / a, -c / (b + root))
    return t, 2.0 * root


def test_coefficients_are_dop853s():
    # bit for bit scipy's copy of Hairer's DOP853 coefficients; the FSAL
    # stage carries no error weight, so the estimate reads 12 stages
    from scipy.integrate._ivp import dop853_coefficients as dop

    assert ivp._STAGES == dop.N_STAGES == len(ivp._A) + 1
    for i, row in enumerate(ivp._A, start=1):
        assert _same_bits(row, dop.A[i, :i]), i
    assert _same_bits(ivp._B, dop.B)
    assert _same_bits(ivp._E, np.stack([dop.E5[:12], dop.E3[:12]]))
    assert dop.E5[12] == dop.E3[12] == 0.0


def test_step_is_eighth_order():
    # one step of the rotation x'' = -x from (1, 0): the local error is
    # O(h^9), so it falls by about 2^9 per halving of h
    def rotation(u):
        return np.column_stack([u[:, 1], -u[:, 0]])

    h = np.array([0.8, 0.4, 0.2])
    u0 = np.tile([[1.0], [0.0]], (1, 3))
    u, _ = ivp._rk_step(rotation, u0, h, ivp._eval(rotation, u0))
    err = np.hypot(u[0] - np.cos(h), u[1] + np.sin(h))
    assert np.all(np.abs(np.log2(err[:-1] / err[1:]) - 9.0) < 0.3)


def _straight_starts(euclid_spec):
    """Unit-speed straight rays into the unit disk as (x, y) states: fans from
    six boundary points, with grazing rays, and 200 interior starts."""
    rng = np.random.default_rng(7)
    theta = rng.uniform(0.0, 2.0 * math.pi, 6)
    grazing = math.pi / 2 - np.array([1e-6, 1e-7, 1e-8])
    psi = np.concatenate([np.linspace(-1.5, 1.5, 31), grazing, -grazing])
    u_fan = np.hstack(_fan_starts(euclid_spec, np.repeat(theta, len(psi)),
                                  np.tile(psi, len(theta))))
    r = 0.99 * np.sqrt(rng.uniform(size=200))
    phi, ang = rng.uniform(0.0, 2.0 * math.pi, (2, 200))
    u_in = np.column_stack([r * np.cos(phi), r * np.sin(phi), np.cos(ang), np.sin(ang)])
    return np.vstack([u_fan, u_in])


def test_straight_line_exits_match_closed_form(euclid_spec):
    u0 = _straight_starts(euclid_spec)
    res = ivp.integrate_batch(_line_rhs, u0, _UNIT_DISK_STOP)
    assert (res.status == ivp.EXITED).all()
    t_star, rate = _line_exit(u0)
    assert np.all(np.abs(res.t_end - t_star) <= 1e-14 + 4.0 * EPS / rate)
    assert rate.min() < 1e-5          # the grazing rays are in the batch


@pytest.mark.parametrize("zero_estimate", [False, True])
def test_straight_lines_grow_the_step(monkeypatch, euclid_spec, zero_estimate):
    # every stage of a straight flow is the same, so its error estimate is
    # round-off, and exactly zero where the weighted sum of the stages
    # cancels exactly (forced here); either way each accepted step grows h by
    # _MAX_FAC: from h0 a ray covers h0 (F^k - 1) / (F - 1) in k steps, and it
    # exits at the first k that passes its exit time
    if zero_estimate:
        monkeypatch.setattr(ivp, "_error_norm", lambda stages, h, scale: np.zeros_like(h))
    u0 = _straight_starts(euclid_spec)
    h0 = ivp._initial_step(_line_rhs, u0.T, ivp._eval(_line_rhs, u0.T), ivp.Controls())
    F = ivp._MAX_FAC
    bound = np.ceil(np.log1p((F - 1.0) * _line_exit(u0)[0] / h0) / math.log(F))
    res = ivp.integrate_batch(_line_rhs, u0, _UNIT_DISK_STOP,
                              ivp.Controls(max_steps=int(bound.max())))
    assert (res.status == ivp.EXITED).all()
    assert np.all(res.steps <= bound)


def test_rhs_returning_its_input_keeps_the_recorded_starts():
    # u' = u returns the batch itself, so the first derivative array is the
    # live state; with p = x the stop's rate 2<x, p> is the flow's
    x0 = np.array([[0.5, 0.0], [0.0, -0.3], [0.2, 0.4]])
    u0 = np.hstack([x0, x0])
    res = ivp.integrate_batch(lambda u: u, u0, _UNIT_DISK_STOP, record=True)
    assert (res.status == ivp.EXITED).all()
    assert np.allclose(res.t_end, -np.log(np.hypot(*x0.T)), rtol=1e-9)
    for (ts, us), start in zip(res.history, u0):
        assert ts[0] == 0.0 and (us[0] == start).all()


def test_overshooting_step_refines_to_root():
    # one accepted step of h = 4 that ends with g = 20.4 on the unit disk
    stop = _UNIT_DISK_STOP
    u0 = np.array([[0.5, 0.4, 0.6, 0.8]])
    h = np.array([4.0])
    g1 = stop[0](u0 + h[:, None] * _line_rhs(u0))
    assert g1[0] > 20.0
    tau, u_exit = ivp._refine_exits(_line_rhs, stop, u0, _line_rhs(u0), h, g1)
    assert tau[0] == pytest.approx(_line_exit(u0)[0][0], abs=1e-14)
    assert u_exit[0, :2] @ u_exit[0, :2] == pytest.approx(1.0, abs=1e-14)


def _refine_rows(monkeypatch, spec, theta0, psi):
    """Integrate a fan; return (result, RHS rows spent inside exit refinement)."""
    rows = {"step": 0, "refine": 0}
    phase = ["step"]
    u0, rhs, stop = _fan(spec, theta0, psi)

    def counted(u):
        rows[phase[0]] += len(u)
        return rhs(u)

    refine = ivp._refine_exits

    def refine_phase(*args):
        phase[0] = "refine"
        try:
            return refine(*args)
        finally:
            phase[0] = "step"

    monkeypatch.setattr(ivp, "_refine_exits", refine_phase)
    return ivp.integrate_batch(counted, u0, stop), rows["refine"]


def test_only_refinement_reads_the_rate(monkeypatch, smooth_bump_spec):
    # the step loop asks the stop for its value alone; the rate is the
    # Newton slope of exit refinement
    u0, rhs, (value, rate) = _fan(smooth_bump_spec, np.full(90, 2.0), _sweep_angles(90))
    refining, calls = [False], []
    refine = ivp._refine_exits

    def refine_phase(*args):
        refining[0] = True
        try:
            return refine(*args)
        finally:
            refining[0] = False

    def checked_rate(u):
        calls.append(refining[0])
        return rate(u)

    monkeypatch.setattr(ivp, "_refine_exits", refine_phase)
    res = ivp.integrate_batch(rhs, u0, (value, checked_rate))
    assert (res.status == ivp.EXITED).all()
    assert calls and all(calls)


def test_refinement_row_budget(monkeypatch, euclid_spec):
    res, rows = _refine_rows(monkeypatch, euclid_spec, np.full(720, 0.4), _sweep_angles(720))
    exited = int((res.status == ivp.EXITED).sum())
    assert exited == 720
    assert rows <= 75 * exited


def test_curved_exits_land_on_boundary(monkeypatch, smooth_bump_spec):
    res, rows = _refine_rows(monkeypatch, smooth_bump_spec, np.full(90, 2.0), _sweep_angles(90))
    assert (res.status == ivp.EXITED).all()
    x = res.u_end[:, 0:2]
    assert np.abs((x * x).sum(1) - 1.0).max() <= 1e-13
    assert rows <= 75 * 90


def _oscillator_rhs(u):
    """x'' = -w2 x with w2 = u[:, 4] carried as a constant; NaN for x2 > 0.6."""
    out = np.column_stack([u[:, 2:4], -u[:, 4:5] * u[:, 0:2], np.zeros(len(u))])
    out[u[:, 1] > 0.6] = np.nan
    return out


# exiting rays, slow oscillations trapped by t_max, fast ones capped by
# max_steps, and straight rays that fail at the NaN wall x2 = 0.6
MIXED_U0 = np.array([
    [0.0, 0.0, 1.0, 0.0, 0.0],
    [0.1, -0.2, -0.5, 0.3, 0.0],
    [0.3, 0.0, 0.0, 0.1, 1.0],
    [0.2, -0.3, 0.0, 0.0, 4000.0],
    [0.0, 0.0, 0.0, 1.0, 0.0],
    [-0.3, 0.2, 0.2, 0.5, 0.0],
    [0.5, 0.1, 0.0, -0.2, 0.5],
    [-0.4, -0.1, 0.3, 0.0, 2500.0],
    [0.4, 0.0, -1.0, -0.2, 0.2],
])
MIXED_CTL = ivp.Controls(t_max=20.0, max_steps=400)


@pytest.mark.parametrize("record", [False, True])
def test_mixed_batch_equals_rays_alone(record):
    u0, ctl = MIXED_U0, MIXED_CTL
    res = ivp.integrate_batch(_oscillator_rhs, u0, _UNIT_DISK_STOP, ctl, record=record)
    assert set(res.status.tolist()) == {ivp.EXITED, ivp.TRAPPED, ivp.MAXSTEPS, ivp.FAILED}
    assert (res.history is None) == (not record)
    for k in range(len(u0)):
        one = ivp.integrate_batch(_oscillator_rhs, u0[k:k + 1], _UNIT_DISK_STOP, ctl,
                                  record=record)
        assert res.status[k] == one.status[0]
        assert res.t_end[k] == one.t_end[0]
        assert np.array_equal(res.u_end[k], one.u_end[0])
        assert res.steps[k] == one.steps[0]
        if record:
            (t, u), (t1, u1) = res.history[k], one.history[0]
            assert np.array_equal(t, t1) and np.array_equal(u, u1)
            # the start, then one sample per accepted step (an exit step's
            # sample is its refined exit)
            assert len(t) == res.steps[k] + 1
            assert t[0] == 0.0 and t[-1] == res.t_end[k]
            assert np.array_equal(u[0], u0[k]) and np.array_equal(u[-1], res.u_end[k])


def _layout_spy(fn, calls):
    """fn, recording for each call whether its (m, d) input has contiguous columns."""
    def spy(u):
        calls.append(u.ndim == 2 and u.T.flags.c_contiguous)
        return fn(u)
    return spy


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


@pytest.mark.parametrize("record", [False, True])
def test_rhs_and_stop_see_contiguous_columns(smooth_bump_spec, record):
    # the driver and the exit refinement hand out views of their column-major
    # batch; a copy into row-major rows would show up here
    rhs_calls, stop_calls = [], []
    u0, rhs, stop = _fan(smooth_bump_spec, np.full(90, 2.0), _sweep_angles(90))
    stop = tuple(_layout_spy(fn, stop_calls) for fn in stop)
    res = ivp.integrate_batch(_layout_spy(rhs, rhs_calls), u0, stop, record=record)
    assert (res.status == ivp.EXITED).all()
    assert len(rhs_calls) > 50 and all(rhs_calls)
    assert len(stop_calls) > 10 and all(stop_calls)


def test_refine_exits_sees_contiguous_columns():
    # row-major input, as from a caller outside the driver
    rhs_calls, stop_calls = [], []
    value, rate = _UNIT_DISK_STOP
    u0 = np.array([[0.5, 0.4, 0.6, 0.8], [0.0, 0.1, -1.0, 0.0]])
    h = np.array([4.0, 2.0])
    g1 = value(u0 + h[:, None] * _line_rhs(u0))
    stop = (_layout_spy(value, stop_calls), _layout_spy(rate, stop_calls))
    tau, u_exit = ivp._refine_exits(_layout_spy(_line_rhs, rhs_calls), stop,
                                    u0, _line_rhs(u0), h, g1)
    assert np.abs(tau - _line_exit(u0)[0]).max() <= 1e-14
    assert u_exit.shape == u0.shape
    assert rhs_calls and all(rhs_calls) and stop_calls and all(stop_calls)


def _column_major_oscillator(u):
    return np.asfortranarray(_oscillator_rhs(u))


@pytest.mark.parametrize("record", [False, True])
def test_layouts_give_identical_results(record):
    """C- and F-ordered starts, row- and column-major rhs: the same bits."""
    ref = ivp.integrate_batch(_oscillator_rhs, MIXED_U0, _UNIT_DISK_STOP, MIXED_CTL,
                              record=record)
    for fn in (_oscillator_rhs, _column_major_oscillator):
        for u0 in (np.ascontiguousarray(MIXED_U0), np.asfortranarray(MIXED_U0)):
            calls = []
            res = ivp.integrate_batch(_layout_spy(fn, calls), u0, _UNIT_DISK_STOP, MIXED_CTL,
                                      record=record)
            assert all(calls)
            for field in ("status", "t_end", "u_end", "steps"):
                assert _same_bits(getattr(res, field), getattr(ref, field)), field
            if record:
                assert len(res.history) == len(ref.history)
                for (t, u), (t_ref, u_ref) in zip(res.history, ref.history):
                    assert _same_bits(t, t_ref) and _same_bits(u, u_ref)
            else:
                assert res.history is None


@pytest.mark.parametrize("m", [1, 3, 8640])
def test_rms_is_numpys_row_mean(m):
    # the error norm of the column-major batch: bit for bit the row-major
    # np.mean it replaced, over the 4 components of a ray's (x, p) and the
    # 5 of the oscillator batches above
    rng = np.random.default_rng(m)
    for d in (4, 5):
        a = rng.standard_normal((d, m)) * 10.0 ** rng.integers(-9, 9, (d, m))
        assert _same_bits(ivp._rms(a), np.sqrt(np.mean(a.T ** 2, axis=1)))
