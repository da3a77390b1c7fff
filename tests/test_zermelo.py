import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randers import (ComponentForm, ConstantField, ConstantForm, Domain,
                     ExactForm, ExprField, InvalidMediumError, MediumModel,
                     RadialProfile, RotationalForm, SpecMismatchError,
                     closedness_residual, disk_grid, dual_norm, herglotz_check,
                     integrate_geodesic, linearize, travel_time_consistency,
                     validate_norm, zermelo_construct)


class TestConstruction:
    def test_no_drift_returns_riemannian(self, dom, smooth_profile):
        med = MediumModel(dom, speed=smooth_profile, wind=None)
        spec = zermelo_construct(med)
        assert spec.is_reversible

    def test_constant_wind_values(self, wind_spec):
        x = np.array([0.3, -0.2])
        a = wind_spec.alpha.value(x)
        b = wind_spec.beta.value(x)
        assert a[0, 0] == pytest.approx(16.0 / 9.0, abs=1e-14)
        assert a[1, 1] == pytest.approx(4.0 / 3.0, abs=1e-14)
        assert a[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert b[0] == pytest.approx(-2.0 / 3.0, abs=1e-14)
        assert b[1] == pytest.approx(0.0, abs=1e-15)

    def test_constructed_spec_is_valid(self, wind_spec):
        assert wind_spec.margin == pytest.approx(0.5, abs=1e-12)
        assert validate_norm(wind_spec).passed

    def test_dual_norm_equals_drift_speed(self, dom, wind_medium, wind_spec):
        # |beta|_alpha* = |W|_g, here 0.5
        for x in ([0.0, 0.0], [0.4, 0.3], [-0.2, 0.6]):
            beta_val = wind_spec.beta.value(np.asarray(x))
            assert dual_norm(wind_spec.alpha, x, beta_val) == pytest.approx(0.5, abs=1e-6)

    def test_dual_norm_against_direction_sweep(self, wind_spec):
        # brute force sup { beta(y) : |y|_alpha = 1 } over 1e4 directions
        x = np.array([0.3, -0.1])
        beta_val = wind_spec.beta.value(x)
        a = wind_spec.alpha.value(x)
        th = np.linspace(0, 2 * math.pi, 10_000, endpoint=False)
        U = np.column_stack([np.cos(th), np.sin(th)])
        norms = np.sqrt(np.einsum("ij,mi,mj->m", a, U, U))
        brute = ((U @ beta_val) / norms).max()
        assert dual_norm(wind_spec.alpha, x, beta_val) == pytest.approx(brute, abs=1e-6)

    def test_supercritical_drift_rejected(self, dom):
        with pytest.raises(InvalidMediumError):
            MediumModel(dom, speed=ConstantField(1.0), wind=ConstantForm([1.0, 0.0]))

    def test_media_compare_by_identity_and_show_their_fields(self, dom):
        a = MediumModel(dom, speed=ConstantField(1.0))
        b = MediumModel(Domain(2.0), speed=ConstantField(3.0), wind=ConstantForm([0.5, 0.0]))
        assert a != b and a == a
        assert repr(a) == "MediumModel(ball(R=1.0,dim=2), c=const(1.0), W=zero)"
        assert "R=2.0" in repr(b) and "const(3.0)" in repr(b)


def _einsum_reference(metric, wind, X):
    """Zermelo alpha, its partials, beta and its jacobian as 4-index einsum tensors.

    The batch-first formulas the planar component algebra replaced, kept as
    an independent reference.
    """
    g, P = metric.value(X), metric.partials(X)
    W, J = wind.value(X), wind.jacobian(X)
    Wi = np.einsum("mij,mj->mi", g, W)
    lam = 1.0 - np.einsum("mi,mi->m", Wi, W)
    dWi = np.einsum("mkij,mj->mki", P, W) + np.einsum("mij,mjk->mki", g, J)
    ds = np.einsum("mkij,mi,mj->mk", P, W, W) + 2.0 * np.einsum("mj,mjk->mk", Wi, J)
    dlam = -ds
    alpha = g / lam[:, None, None] + (Wi[:, :, None] * Wi[:, None, :]) / (lam ** 2)[:, None, None]
    l1 = lam[:, None, None, None]
    outer = Wi[:, None, :, None] * Wi[:, None, None, :]
    douter = dWi[:, :, :, None] * Wi[:, None, None, :] + Wi[:, None, :, None] * dWi[:, :, None, :]
    alpha_partials = (P / l1
                      - g[:, None] * dlam[:, :, None, None] / l1 ** 2
                      + douter / l1 ** 2
                      - 2.0 * outer * dlam[:, :, None, None] / l1 ** 3)
    beta = -Wi / lam[:, None]
    beta_jacobian = (-np.swapaxes(dWi, 1, 2) / lam[:, None, None]
                     + Wi[:, :, None] * dlam[:, None, :] / (lam ** 2)[:, None, None])
    return alpha, alpha_partials, beta, beta_jacobian


@st.composite
def _media(draw):
    """A radial or expression speed >= 0.5 and a wind with |W|_e <= 0.45."""
    a = draw(st.floats(1.0, 2.0))
    if draw(st.booleans()):
        speed = RadialProfile(f"{a!r} + {draw(st.floats(-0.5, 0.5))!r}*r^2")
    else:
        b, c = draw(st.floats(-0.25, 0.25)), draw(st.floats(-0.25, 0.25))
        speed = ExprField(f"{a!r} + {b!r}*x1 + {c!r}*x1*x2")
    s = draw(st.floats(0.0, 0.45))
    kind = draw(st.sampled_from(["constant", "rotational", "exact"]))
    if kind == "constant":
        phi = draw(st.floats(0.0, 2.0 * math.pi))
        wind = ConstantForm([s * math.cos(phi), s * math.sin(phi)])
    elif kind == "rotational":
        wind = RotationalForm(2.0 * s)        # |W| = s r
    else:
        # grad = k (x2 + x1 x2, x1 + x1^2 / 2), |grad| <= 2.5 k on the unit disk
        wind = ExactForm(ExprField(f"{s / 2.5!r}*(x1*x2 + 0.5*x1^2*x2)"))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return speed, wind, seed


class TestPlanarAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(_media())
    def test_matches_einsum_reference(self, dom, medium):
        speed, wind, seed = medium
        med = MediumModel(dom, speed=speed, wind=wind)
        spec = zermelo_construct(med)
        rng = np.random.default_rng(seed)
        r = 0.95 * np.sqrt(rng.uniform(0.0, 1.0, 64))
        th = rng.uniform(0.0, 2.0 * math.pi, 64)
        X = np.column_stack([r * np.cos(th), r * np.sin(th)])
        got = (spec.alpha.value(X), spec.alpha.partials(X),
               spec.beta.value(X), spec.beta.jacobian(X))
        for new, ref in zip(got, _einsum_reference(med.metric, med.wind, X)):
            assert new.shape == ref.shape
            assert np.all(np.abs(new - ref) <= 1e-13 * (1.0 + np.abs(ref)))


class TestConformalSpecialization:
    """Zermelo's construction on g = c^-2 e against its explicit conformal values."""

    def test_unit_speed_reduces_to_general(self, dom):
        spec = zermelo_construct(MediumModel(dom, speed=ConstantField(1.0),
                                             wind=ConstantForm([0.5, 0.0])))
        x = np.array([0.1, 0.1])
        a = spec.alpha.value(x)
        assert a[0, 0] == pytest.approx(16.0 / 9.0, abs=1e-14)
        assert spec.beta.value(x)[0] == pytest.approx(-2.0 / 3.0, abs=1e-14)

    def test_worked_arithmetic_c2(self, dom):
        spec = zermelo_construct(MediumModel(dom, speed=ConstantField(2.0),
                                             wind=ConstantForm([0.5, 0.0])))
        x = np.array([0.0, 0.0])
        assert spec.alpha.value(x)[0, 0] == pytest.approx(64.0 / 225.0, abs=1e-15)
        assert spec.beta.value(x)[0] == pytest.approx(-2.0 / 15.0, abs=1e-15)

    @pytest.mark.parametrize("wind", [[1.0, 0.0], [0.0, -1.3]])
    def test_wind_at_or_above_speed_rejected(self, dom, wind):
        with pytest.raises(InvalidMediumError, match=r"\|W\|_g = [0-9.]+ >= 1 on the probe grid"):
            MediumModel(dom, speed=ConstantField(1.0), wind=ConstantForm(wind))


class TestLinearization:
    def test_zero_wind_exact(self, dom):
        spec, rho = linearize(ConstantField(1.0), ConstantForm([0.0, 0.0]), dom)
        assert rho == 0.0 and spec.is_reversible

    def test_first_order_beta(self, dom):
        spec, rho = linearize(ConstantField(1.0), ConstantForm([0.05, 0.0]), dom)
        assert rho == pytest.approx(0.05)
        x = np.array([0.0, 0.0])
        assert spec.beta.value(x)[0] == pytest.approx(-0.05, abs=1e-15)
        exact = zermelo_construct(
            MediumModel(dom, speed=ConstantField(1.0), wind=ConstantForm([0.05, 0.0])))
        exact_b1 = exact.beta.value(x)[0]
        assert exact_b1 == pytest.approx(-0.05 / (1 - 0.0025), abs=1e-15)
        # deviation between exact and linearized beta is O(rho^3)
        assert abs(exact_b1 - (-0.05)) == pytest.approx(0.05 * 0.0025, rel=1e-2)

    def test_closedness_transfer(self, dom):
        # constant c: d(beta) = 0 iff the wind is irrotational
        grid = disk_grid(dom, 100)
        irrot = ExactForm(ExprField("0.1*x1*x2"))
        spec, _ = linearize(ConstantField(1.0), irrot, dom)
        assert closedness_residual(spec.beta, grid) < 1e-13
        rot = ComponentForm(["-0.1*x2", "0.1*x1"])
        spec2, _ = linearize(ConstantField(1.0), rot, dom)
        assert closedness_residual(spec2.beta, grid) == pytest.approx(0.2)


class TestHerglotz:
    def test_constant_speed(self):
        rep = herglotz_check(ConstantField(2.0), 1.0)
        assert rep.holds and rep.margin == pytest.approx(0.5)

    def test_linear_profile(self, kink_profile):
        rep = herglotz_check(kink_profile, 1.0)
        assert rep.holds
        assert rep.margin == pytest.approx(0.5, abs=1e-6)

    def test_focusing_profile_fails(self):
        rep = herglotz_check(RadialProfile("1 + 10*r^2"), 1.0)
        assert not rep.holds
        assert rep.margin < 0.0
        assert rep.r_argmin > 1.0 / math.sqrt(10.0)


class TestTravelTime:
    def test_no_wind_chord(self, dom):
        med = MediumModel(dom, speed=ConstantField(1.0), wind=None)
        spec = zermelo_construct(med)
        path = integrate_geodesic(spec, [-1.0, 0.0], [1.0, 0.0])
        assert path.exit_time == pytest.approx(2.0, abs=1e-9)
        assert travel_time_consistency(med, path) <= 1e-8 * path.exit_time

    def test_wind_diameters(self, dom, wind_medium, wind_spec):
        down = integrate_geodesic(wind_spec, [-1.0, 0.0], [1.0, 0.0])
        up = integrate_geodesic(wind_spec, [1.0, 0.0], [-1.0, 0.0])
        assert down.exit_time == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert up.exit_time == pytest.approx(4.0, abs=1e-9)
        for path in (down, up):
            assert travel_time_consistency(wind_medium, path) <= 1e-8 * path.exit_time

    def test_radial_medium_identity(self, dom, kink_profile):
        med = MediumModel(dom, speed=kink_profile, wind=None)
        spec = zermelo_construct(med)
        path = integrate_geodesic(spec, [math.cos(0.4), math.sin(0.4)], [-0.9, -0.3])
        assert travel_time_consistency(med, path) <= 1e-8 * path.exit_time

    def test_mismatched_path_rejected(self, dom, wind_medium, euclid_spec):
        path = integrate_geodesic(euclid_spec, [-1.0, 0.0], [1.0, 0.0])
        with pytest.raises(SpecMismatchError):
            travel_time_consistency(wind_medium, path)
