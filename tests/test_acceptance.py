"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines; every tolerance is pinned in the assertions below.
"""

import time

import numpy as np
import pytest

from randers import (ComponentForm, ConformalMetric, ConstantField, ConstantForm, Domain,
                     EuclideanMetric, ExactForm, ExprField, MediumModel,
                     PotentialBump, RadialProfile, RandersSpec, RotationalForm,
                     SolverOptions, SumForm, decompose, distance_matrix,
                     herglotz_check, herglotz_invert, integrate_geodesic,
                     linearize, recover_boundary_potential, sample_boundary,
                     shoot_pairs, solve_bvp, validate_norm, zermelo_construct)
from randers.boundary import load, save
from randers.recovery import recover_symmetric_data
from conftest import bump_gradient
from pointsets import hausdorff, resample

DOM = Domain(radius=1.0)
EUCLID = EuclideanMetric()
SMOOTH = ConformalMetric(RadialProfile("2 - r^2"))


def report(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def catalog_specs():
    """20 valid norm specs drawn from the field catalog."""
    specs = [
        RandersSpec(DOM, EUCLID),
        RandersSpec(DOM, SMOOTH),
        RandersSpec(DOM, ConformalMetric(RadialProfile("2 - r"))),
        RandersSpec(DOM, ConformalMetric(ConstantField(2.0))),
        RandersSpec(DOM, EUCLID, ConstantForm([0.9, 0.0])),
        RandersSpec(DOM, EUCLID, ConstantForm([0.3, -0.4])),
        RandersSpec(DOM, EUCLID, ExactForm(PotentialBump(0.3, 1.0))),
        RandersSpec(DOM, SMOOTH, ExactForm(PotentialBump(0.2, 1.0))),
        RandersSpec(DOM, EUCLID, RotationalForm(0.5)),
        RandersSpec(DOM, EUCLID, ExactForm(ExprField("0.2*x1 + 0.1*x2"))),
        zermelo_construct(MediumModel(DOM, speed=ConstantField(1.0),
                                      wind=ConstantForm([0.5, 0.0]))),
        zermelo_construct(MediumModel(DOM, speed=RadialProfile("2 - r"),
                                      wind=ConstantForm([0.2, 0.1]))),
        linearize(ConstantField(1.0), ConstantForm([0.1, 0.0]), DOM)[0],
        linearize(RadialProfile("2 - r^2"), ExactForm(ExprField("0.1*x1*x2")), DOM)[0],
    ]
    for amp in (0.05, 0.1, 0.15, -0.1, -0.2, 0.25):
        specs.append(RandersSpec(DOM, EUCLID, ExactForm(PotentialBump(amp, 1.0))))
    return specs


@pytest.fixture(scope="module")
def bump_pair_16():
    """Criterion 5/6 scenario: smooth conformal metric, boundary-vanishing bump."""
    base = RandersSpec(DOM, SMOOTH)
    bumped = RandersSpec(DOM, SMOOTH, bump_gradient(0.3))
    assert bumped._cotangent_fields()[3] is None
    t0 = time.time()
    d1 = distance_matrix(base, 16)
    d2 = distance_matrix(bumped, 16)
    return d1, d2, time.time() - t0


def test_criterion_01_norm_axioms():
    t0 = time.time()
    specs = catalog_specs()
    assert len(specs) == 20
    reports = [validate_norm(s) for s in specs]
    bad = validate_norm(RandersSpec(DOM, EUCLID, ConstantForm([1.1, 0.0])))
    elapsed = time.time() - t0
    ok = (all(r.passed for r in reports)
          and all(s.margin > 0 for s in specs)
          and not bad.passed and bad.positivity_min <= 0.0
          and elapsed < 1.0)
    report(1, ok, f"20 catalog specs valid, |b|=1.1 fails positivity "
                  f"({bad.positivity_min:.2g}); {elapsed:.2f}s < 1s")


def test_criterion_02_zermelo_oracle():
    spec = zermelo_construct(MediumModel(DOM, speed=ConstantField(1.0),
                                         wind=ConstantForm([0.5, 0.0])))
    data = distance_matrix(spec, sample_boundary(DOM, 2))
    sym, anti = decompose(data)
    # sample 0 = (1, 0), sample 1 = (-1, 0): downwind is 1 -> 0
    e_down = abs(data.matrix[1, 0] - 4.0 / 3.0)
    e_up = abs(data.matrix[0, 1] - 4.0)
    e_sym = abs(sym[1, 0] - 8.0 / 3.0)
    e_anti = abs(anti[1, 0] + 4.0 / 3.0)
    worst = max(e_down, e_up, e_sym, e_anti)
    report(2, worst <= 1e-7,
           f"diameter times 4/3, 4 and parts 8/3, -4/3; worst dev {worst:.2e} <= 1e-7")


def _gauge_scenarios():
    bump = lambda a: ExactForm(PotentialBump(a, 1.0))
    return [
        (EUCLID, None, 0.2),
        (EUCLID, ConstantForm([0.2, 0.1]), -0.15),
        (SMOOTH, None, 0.3),
        (SMOOTH, bump(0.2), 0.1),
        (EUCLID, ExactForm(ExprField("0.1*x1")), 0.25),
    ]


def test_criterion_03_projective_equivalence():
    n = 8
    angles = sample_boundary(DOM, n).angles
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert len(pairs) == 28
    worst = 0.0
    for alpha, beta1, amp in _gauge_scenarios():
        s1 = RandersSpec(DOM, alpha, beta1)
        beta2 = bump_gradient(amp) if beta1 is None else SumForm(beta1, bump_gradient(amp))
        s2 = RandersSpec(DOM, alpha, beta2)
        assert s2._cotangent_fields()[3] is None
        paths1 = shoot_pairs(s1, angles, pairs, record_paths=True).paths
        paths2 = shoot_pairs(s2, angles, pairs, record_paths=True).paths
        for a, b in zip(paths1, paths2):
            worst = max(worst, hausdorff(resample(a), resample(b)))
    ok_gauge = worst <= 1e-6 * DOM.radius

    rot = RandersSpec(DOM, EUCLID, RotationalForm(0.3))
    base = RandersSpec(DOM, EUCLID)
    sep = 0.0
    sub = pairs[:6]
    paths1 = shoot_pairs(base, angles, sub, record_paths=True).paths
    paths2 = shoot_pairs(rot, angles, sub, record_paths=True).paths
    for a, b in zip(paths1, paths2):
        sep = max(sep, hausdorff(resample(a), resample(b)))
    ok_rot = sep > 1e-3 * DOM.radius
    report(3, ok_gauge and ok_rot,
           f"5 scenarios x 28 pairs agree (worst {worst:.2e} <= 1e-6 R); "
           f"rotational separates ({sep:.2e} > 1e-3 R)")


def _reversal_separation(spec, a, b):
    """Hausdorff distance between the reversed a -> b geodesic and the b -> a one."""
    pa, pb = DOM.boundary_point(a), DOM.boundary_point(b)
    fwd, back = solve_bvp(spec, pa, pb).path, solve_bvp(spec, pb, pa).path
    return hausdorff(resample(fwd)[::-1], resample(back))


def test_criterion_04_reversible_geodesics():
    chords = [(0.4, 2.6), (1.5, 4.9)]
    worst = 0.0
    for alpha, beta1, amp in _gauge_scenarios()[:4]:
        beta2 = bump_gradient(amp) if beta1 is None else SumForm(beta1, bump_gradient(amp))
        spec = RandersSpec(DOM, alpha, beta2)
        assert spec._cotangent_fields()[3] is None
        for a, b in chords:
            worst = max(worst, _reversal_separation(spec, a, b))
    ok_closed = worst <= 1e-6 * DOM.radius

    rot = RandersSpec(DOM, EUCLID, RotationalForm(0.4))
    seps = [_reversal_separation(rot, a, b) for a, b in chords]
    ok_rot = max(seps) > 1e-3 * DOM.radius
    report(4, ok_closed and ok_rot,
           f"closed scenarios reverse (worst {worst:.2e} <= 1e-6 R); "
           f"rotational chord separates ({max(seps):.2e} > 1e-3 R)")


def test_criterion_05_gauge_invisibility(bump_pair_16):
    d1, d2, elapsed = bump_pair_16
    off = ~np.eye(16, dtype=bool)
    diff = float(np.abs(d1.matrix - d2.matrix)[off].max())
    ok = diff <= 2e-8 and elapsed < 30.0
    report(5, ok, f"n=16 matrices under beta vs beta + d(phi), phi|bdry = 0: "
                  f"max diff {diff:.2e} <= 2e-8; {elapsed:.1f}s < 30s")


def test_criterion_06_gauge_recovery(bump_pair_16):
    d1, d2, _ = bump_pair_16
    pot = recover_boundary_potential(d1, d2)
    const_dev = float(np.abs(pot.values - pot.values.mean()).max())
    sym_diff = float(np.abs(recover_symmetric_data(d1) - recover_symmetric_data(d2)).max())
    ok_a = const_dev <= 1e-6 and sym_diff <= 2e-8

    base_beta = ExactForm(PotentialBump(0.2, 1.0))
    s1 = RandersSpec(DOM, SMOOTH, base_beta)
    # d(0.1 x1) as components: s2 has no potential, so its rays integrate
    # it and the recovered potential tests the solver, not a time shift
    s2 = RandersSpec(DOM, SMOOTH, SumForm(base_beta, ComponentForm(["0.1", "0"])))
    assert s2._cotangent_fields()[3] is None
    e1 = distance_matrix(s1, 8)
    e2 = distance_matrix(s2, 8)
    pot2 = recover_boundary_potential(e1, e2)
    pts = e1.points
    diffs = pot2.values[None, :] - pot2.values[:, None]
    expect = 0.1 * (pts[None, :, 0] - pts[:, None, 0])
    lin_err = float(np.abs(diffs - expect).max())
    ok_b = lin_err <= 1e-6
    report(6, ok_a and ok_b,
           f"potential constant to {const_dev:.2e} <= 1e-6, sym agree {sym_diff:.2e} <= 2e-8; "
           f"phi = 0.1 x1 differences match to {lin_err:.2e} <= 1e-6")


def test_criterion_07_herglotz_pipeline():
    t0 = time.time()
    prof_field = RadialProfile("2 - r")
    hz = herglotz_check(prof_field, 1.0)
    ok_margin = hz.holds and hz.margin >= 0.5 - 1e-9

    spec = RandersSpec(DOM, ConformalMetric(prof_field))
    data = distance_matrix(spec, 64)
    rec = herglotz_invert(data)
    mask = (rec.r >= 0.05) & (rec.r <= 1.0)
    truth = 2.0 - rec.r[mask]
    err_lin = float((np.abs(rec.c[mask] - truth) / truth).max())
    ok_lin = err_lin <= 1e-2

    const_spec = RandersSpec(DOM, ConformalMetric(ConstantField(1.5)))
    data_c = distance_matrix(const_spec, 64)
    rec_c = herglotz_invert(data_c)
    mask_c = rec_c.r >= 0.05
    err_const = float((np.abs(rec_c.c[mask_c] - 1.5) / 1.5).max())
    ok_const = err_const <= 1e-3
    elapsed = time.time() - t0
    report(7, ok_margin and ok_lin and ok_const and elapsed < 120.0,
           f"margin {hz.margin:.3f} >= 0.5; roundtrip err {err_lin:.2e} <= 1e-2; "
           f"constant-c err {err_const:.2e} <= 1e-3; {elapsed:.0f}s < 120s")


def test_criterion_08_conservation():
    """Unit speed and T = L_F on recorded paths, within their pinned bounds.

    Rays of the dual norm carry y = dH/dp, which is F-unit for any
    covector, so both hold by construction: this checks the conversion of
    the record, and ``TestCotangentRays::test_recorded_fans_agree_with_spray``
    in ``test_geodesics.py`` checks the integration against the spray.
    """
    scenarios = [
        RandersSpec(DOM, EUCLID),
        zermelo_construct(MediumModel(DOM, speed=ConstantField(1.0),
                                      wind=ConstantForm([0.5, 0.0]))),
        RandersSpec(DOM, SMOOTH, ExactForm(PotentialBump(0.3, 1.0))),
        RandersSpec(DOM, ConformalMetric(RadialProfile("2 - r"))),
    ]
    worst_speed, worst_time = 0.0, 0.0
    for spec in scenarios:
        for ang, direction in [(0.0, (-0.9, 0.45)), (2.1, (0.3, -0.95)), (4.0, (0.7, 0.7))]:
            path = integrate_geodesic(spec, DOM.boundary_point(ang), np.array(direction))
            worst_speed = max(worst_speed, path.unit_speed_residual(spec))
            worst_time = max(worst_time, abs(path.exit_time - path.f_length) / path.exit_time)
    ok = worst_speed <= 1e-6 and worst_time <= 1e-8
    report(8, ok, f"unit-speed residual {worst_speed:.2e} <= 1e-6; "
                  f"|T - L_F|/T {worst_time:.2e} <= 1e-8")


def test_criterion_09_linearization_convergence():
    rhos = [0.2, 0.1, 0.05]
    diffs = []
    for rho in rhos:
        exact = zermelo_construct(MediumModel(DOM, speed=ConstantField(1.0),
                                              wind=ConstantForm([rho, 0.0])))
        lin, reported = linearize(ConstantField(1.0), ConstantForm([rho, 0.0]), DOM)
        assert reported == pytest.approx(rho)
        de = distance_matrix(exact, 8)
        dl = distance_matrix(lin, 8)
        off = ~np.eye(8, dtype=bool)
        diffs.append(float(np.abs(de.matrix - dl.matrix)[off].max()))
    slope, intercept = np.polyfit(np.log(rhos), np.log(diffs), 1)
    ok = 1.7 <= slope <= 2.3
    report(9, ok, f"boundary-distance gap fits {np.exp(intercept):.2f} * rho^{slope:.2f} "
                  f"(exponent must lie in [1.7, 2.3])")


def test_criterion_10_determinism(tmp_path):
    spec = zermelo_construct(MediumModel(DOM, speed=ConstantField(1.0),
                                         wind=ConstantForm([0.4, 0.2])))
    from randers import add_noise

    runs = []
    for k in range(2):
        data = add_noise(distance_matrix(spec, 6), 1e-3, seed=5)
        p = tmp_path / f"run{k}.csv"
        save(data, p)
        runs.append(p.read_bytes())
    ok_repeat = runs[0] == runs[1]
    back = load(tmp_path / "run0.csv")
    ok_roundtrip = np.array_equal(back.matrix,
                                  add_noise(distance_matrix(spec, 6), 1e-3, seed=5).matrix)

    serial = distance_matrix(spec, 6, threads=1)
    parallel = distance_matrix(spec, 6, threads=2)
    ok_parallel = np.array_equal(serial.matrix, parallel.matrix)
    report(10, ok_repeat and ok_roundtrip and ok_parallel,
           "fixed seed reproduces CSV bitwise; parallel == serial matrix")
