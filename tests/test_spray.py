"""The geodesic spray against a reference and the paper's projective law.

``reference_spray_and_norm`` is the earlier spray body: it builds the full
Randers fundamental tensor from the planar jets of alpha and beta and solves the 2x2
geodesic system per row.  The spray in ``randers.geodesics`` uses Shen's
decomposition instead and must agree with it on every metric family and
1-form family.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from randers import (ComponentForm, ConformalMetric, ConstantForm,
                     ConvexityError, EuclideanMetric, ExactForm, ExprField,
                     MediumModel, PotentialBump, RadialProfile, RandersSpec,
                     RotationalForm, ScaledForm, SumForm, ZeroForm, spray,
                     zermelo_construct)
from randers.fields import Domain
from randers.geodesics import _spray_and_norm


def reference_spray_and_norm(spec, x0, x1, y0, y1, check=False):
    """Spray and norm through the Randers fundamental tensor and a 2x2 solve."""
    a, dA = spec.alpha.jet(x0, x1)
    bjet = None if spec.beta.is_zero else spec.beta.jet(x0, x1)
    a00, a01, a11 = a
    ay0 = a00 * y0 + a01 * y1
    ay1 = a01 * y0 + a11 * y1
    A = ay0 * y0 + ay1 * y1
    al = np.sqrt(A)

    (P000, P001, P011), (P100, P101, P111) = dA
    # A_k = dA/dx^k; Qkl = (dA/dx^k . y)_l used for y^k d^2A/dx^k dy^l
    A_0 = P000 * y0 * y0 + 2.0 * P001 * y0 * y1 + P011 * y1 * y1
    A_1 = P100 * y0 * y0 + 2.0 * P101 * y0 * y1 + P111 * y1 * y1
    Q00 = P000 * y0 + P001 * y1
    Q01 = P001 * y0 + P011 * y1
    Q10 = P100 * y0 + P101 * y1
    Q11 = P101 * y0 + P111 * y1
    yA_kl0 = 2.0 * (y0 * Q00 + y1 * Q10)
    yA_kl1 = 2.0 * (y0 * Q01 + y1 * Q11)

    if bjet is None:
        F = al
        g00, g01, g11 = a00, a01, a11
        rhs0 = yA_kl0 - A_0
        rhs1 = yA_kl1 - A_1
    else:
        (b0, b1), ((J00, J01), (J10, J11)) = bjet   # Jil = d b_i / dx^l
        B = b0 * y0 + b1 * y1
        F = al + B
        B_0 = J00 * y0 + J10 * y1
        B_1 = J01 * y0 + J11 * y1
        yB_k = y0 * B_0 + y1 * B_1
        yB_kl0 = y0 * J00 + y1 * J01
        yB_kl1 = y0 * J10 + y1 * J11
        yA_k = y0 * A_0 + y1 * A_1
        one_plus = 1.0 + B / al
        coef_ay = 2.0 * yB_k / al - B * yA_k / (al * A)
        coef_b = yA_k / al + 2.0 * yB_k
        rhs0 = one_plus * (yA_kl0 - A_0) + 2.0 * F * (yB_kl0 - B_0) + ay0 * coef_ay + b0 * coef_b
        rhs1 = one_plus * (yA_kl1 - A_1) + 2.0 * F * (yB_kl1 - B_1) + ay1 * coef_ay + b1 * coef_b
        # closed-form Randers fundamental tensor
        ell0, ell1 = ay0 / al, ay1 / al
        lb0, lb1 = ell0 + b0, ell1 + b1
        fa = F / al
        g00 = fa * (a00 - ell0 * ell0) + lb0 * lb0
        g01 = fa * (a01 - ell0 * ell1) + lb0 * lb1
        g11 = fa * (a11 - ell1 * ell1) + lb1 * lb1

    det = g00 * g11 - g01 * g01
    if check and (not np.all(np.isfinite(det)) or np.any(det <= 0.0)):
        raise ConvexityError("fundamental tensor is singular or indefinite")
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_det = 0.25 / det
        G0 = (g11 * rhs0 - g01 * rhs1) * inv_det
        G1 = (g00 * rhs1 - g01 * rhs0) * inv_det
    return G0, G1, F


DOM = Domain(radius=1.0)
SPEED = RadialProfile("2 - r^2")
BUMP = PotentialBump(0.3, 1.0)

# every 1-form family; as winds of a navigation alpha they stay subcritical
BETAS = {
    "zero": lambda: ZeroForm(),
    "constant": lambda: ConstantForm([0.2, -0.1]),
    "exact": lambda: ExactForm(BUMP),
    "rotational": lambda: RotationalForm(0.4),
    "component": lambda: ComponentForm(["0.1 - 0.1*x2", "0.1*x1*x2"]),
    "scaled": lambda: ScaledForm(RotationalForm(0.3), -0.5),
    "sum": lambda: SumForm(ExactForm(BUMP), RotationalForm(0.2)),
}


def _navigation(beta, reverse):
    spec = zermelo_construct(MediumModel(DOM, speed=SPEED, wind=beta))
    return spec.reverse() if reverse else spec


ALPHAS = {
    "euclidean": lambda beta: RandersSpec(DOM, EuclideanMetric(), beta),
    "radial_conformal": lambda beta: RandersSpec(DOM, ConformalMetric(SPEED), beta),
    "expr_conformal": lambda beta: RandersSpec(
        DOM, ConformalMetric(ExprField("1 + 0.2*x1 - 0.1*x2^2")), beta),
    "navigation": lambda beta: _navigation(beta, False),
    "navigation_reversed": lambda beta: _navigation(beta, True),
}


@functools.cache
def _spec(alpha, beta):
    return ALPHAS[alpha](BETAS[beta]())


def _components(pts):
    return tuple(np.ascontiguousarray(c) for c in pts.T)


points = arrays(np.float64, (6, 2), elements=st.floats(-0.65, 0.65))
directions = arrays(np.float64, (6, 2), elements=st.floats(-2.0, 2.0)).filter(
    lambda y: np.all(np.hypot(y[:, 0], y[:, 1]) > 1e-3))


@pytest.mark.parametrize("beta", sorted(BETAS))
@pytest.mark.parametrize("alpha", sorted(ALPHAS))
@settings(max_examples=15, deadline=None)
@given(X=points, Y=directions)
def test_matches_fundamental_tensor_reference(alpha, beta, X, Y):
    spec = _spec(alpha, beta)
    x0, x1 = _components(X)
    y0, y1 = _components(Y)
    got = _spray_and_norm(spec, x0, x1, y0, y1)
    ref = reference_spray_and_norm(spec, x0, x1, y0, y1)
    for g, r in zip(got, ref):
        assert np.all(np.abs(g - r) <= 1e-13 * (1.0 + np.abs(r)))


POTENTIALS = {"bump": BUMP, "expr": ExprField("0.1*x1*x2 + 0.05*x2^3 - 0.08*x1^2")}
CONFORMAL = {"euclidean": EuclideanMetric(), "radial_conformal": ConformalMetric(SPEED),
             "expr_conformal": ConformalMetric(ExprField("1 + 0.2*x1 - 0.1*x2^2"))}


def _spray_shift(alpha, beta, X, Y):
    """spray(alpha + beta) - spray(alpha), the spray and the cross product with y."""
    G = spray(RandersSpec(DOM, alpha, beta), X, Y)
    dG = G - spray(RandersSpec(DOM, alpha), X, Y)
    return G, dG[:, 0] * Y[:, 1] - dG[:, 1] * Y[:, 0]


@pytest.mark.parametrize("potential", sorted(POTENTIALS))
@pytest.mark.parametrize("alpha", sorted(CONFORMAL))
@settings(max_examples=20, deadline=None)
@given(X=points, Y=directions, scale=st.floats(-1.0, 1.0))
def test_exact_beta_is_projectively_equivalent(alpha, potential, X, Y, scale):
    # F = alpha + d(phi) has alpha's geodesics: the sprays differ along y
    beta = ScaledForm(ExactForm(POTENTIALS[potential]), scale)
    G, cross = _spray_shift(CONFORMAL[alpha], beta, X, Y)
    assert np.all(np.abs(cross) <= 1e-13 * (1.0 + np.hypot(G[:, 0], G[:, 1])))


@pytest.mark.parametrize("alpha", sorted(CONFORMAL))
def test_rotational_beta_turns_geodesics(alpha, rng):
    X = rng.uniform(-0.6, 0.6, (16, 2))
    Y = rng.normal(size=(16, 2))
    _, cross = _spray_shift(CONFORMAL[alpha], RotationalForm(0.4), X, Y)
    assert np.abs(cross).max() > 1e-2


class TestConvexityCheck:
    """A spec certified on a coarse grid can still have F < 0 off the grid."""

    X = [0.999, 0.0]

    @pytest.fixture(scope="class")
    def spec(self, dom):
        spec = RandersSpec(dom, EuclideanMetric(), ComponentForm(["1.2*x1^8", "0"]),
                           margin_grid=4)
        assert spec.margin > 0.9
        return spec

    def test_negative_norm_raises(self, spec):
        with pytest.raises(ConvexityError):
            spray(spec, self.X, [-1.0, 0.0])

    def test_positive_norm_passes(self, spec):
        G = spray(spec, self.X, [1.0, 0.0])
        assert np.all(np.isfinite(G))
