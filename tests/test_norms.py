import math
import re

import numpy as np
import pytest

from randers import (ComponentForm, ConformalMetric, ConstantField, ConstantForm,
                     DegenerateInputError, Domain, DomainError, EuclideanMetric,
                     ExactForm, InvalidNormError, PotentialBump, RadialProfile,
                     RandersSpec, RotationalForm, circle_directions,
                     closedness_residual, conformal_specialize, curve_length,
                     disk_grid, dual_norm, fundamental_tensor, reverse_norm,
                     riemannian_norm, validate_norm)
from randers.norms import MARGIN_GRID_SIZE, _fundamental


def _analytic_fundamental(a, b, Y):
    """Closed-form Randers fundamental tensor from metric/1-form values."""
    ay = np.einsum("mij,mj->mi", a, Y)
    A = np.einsum("mi,mi->m", ay, Y)
    al = np.sqrt(A)
    B = np.einsum("mi,mi->m", b, Y)
    F = al + B
    ell = ay / al[:, None]
    lb = ell + b
    return ((F / al)[:, None, None] * (a - ell[:, :, None] * ell[:, None, :])
            + lb[:, :, None] * lb[:, None, :])


def _fd_fundamental_batch(spec, X, Y):
    """Central-difference fundamental tensor, batched.

    The finite-difference implementation the closed form replaced, kept as
    an independent reference.  The y-stencil arithmetic runs in extended
    precision so the second differences sit well below the required
    tolerances; metric and 1-form values at x enter every stencil point
    identically, so their float64 rounding cancels in the differences.
    """
    m, n = X.shape
    a = spec.alpha.value(X).astype(np.longdouble)
    b = spec.beta.value(X).astype(np.longdouble)
    y0 = Y.astype(np.longdouble)
    h = (1e-4 * np.maximum(np.linalg.norm(Y, axis=1), 1.0)).astype(np.longdouble)

    def f2(y):
        quad = np.einsum("mij,mi,mj->m", a, y, y)
        lin = np.einsum("mi,mi->m", b, y)
        return (np.sqrt(quad) + lin) ** 2

    e = np.eye(n, dtype=np.longdouble)
    g = np.empty((m, n, n), dtype=np.longdouble)
    f0 = f2(y0)
    for i in range(n):
        hi = h[:, None] * e[i]
        g[:, i, i] = (f2(y0 + hi) - 2.0 * f0 + f2(y0 - hi)) / h ** 2
        for j in range(i + 1, n):
            hj = h[:, None] * e[j]
            gij = (f2(y0 + hi + hj) - f2(y0 + hi - hj)
                   - f2(y0 - hi + hj) + f2(y0 - hi - hj)) / (4.0 * h ** 2)
            g[:, i, j] = gij
            g[:, j, i] = gij
    g = 0.5 * g.astype(float)
    return 0.5 * (g + np.swapaxes(g, 1, 2))


def _default_probes(spec):
    """The probe rows of ``validate_norm``'s default set, in its order."""
    points, dirs = disk_grid(spec.domain, 100), circle_directions(16)
    return np.repeat(points, len(dirs), axis=0), np.tile(dirs, (len(points), 1))


# the validity-boundary family plus every kind of spec the pipeline builds
TENSOR_SPECS = ["smooth_spec", "smooth_bump_spec", "wind_spec", "rot_zermelo_spec",
                "conformal", "const_0.9", "const_1.0", "const_1.1"]


@pytest.fixture(params=TENSOR_SPECS)
def tensor_spec(request, dom):
    name = request.param
    if name == "conformal":
        return conformal_specialize(RadialProfile("2 - r^2"), RotationalForm(0.4), dom)
    if name.startswith("const_"):
        return RandersSpec(dom, EuclideanMetric(), ConstantForm([float(name[6:]), 0.0]))
    return request.getfixturevalue(name)


class TestRiemannianNorm:
    def test_pythagoras(self, dom, euclid_spec):
        assert riemannian_norm(EuclideanMetric(), [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)

    def test_conformal_scaling(self, dom):
        g = ConformalMetric(ConstantField(2.0))
        assert riemannian_norm(g, [0.1, 0.1], [3.0, 4.0]) == pytest.approx(2.5)

    def test_zero_vector(self, dom):
        assert riemannian_norm(EuclideanMetric(), [0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_domain_error(self, dom):
        with pytest.raises(DomainError):
            riemannian_norm(EuclideanMetric(), [2.0, 0.0], [1.0, 0.0], domain=dom)


class TestRandersNorm:
    def test_direct_formula(self, dom):
        spec = RandersSpec(dom, EuclideanMetric(), ConstantForm([0.5, 0.0]))
        x = [0.0, 0.0]
        assert spec.norm(x, [1.0, 0.0]) == pytest.approx(1.5)
        assert spec.norm(x, [-1.0, 0.0]) == pytest.approx(0.5)

    def test_zermelo_wind_speeds(self, wind_spec):
        # travel-time interpretation: net speed 1 +/- 0.5 along the wind axis
        x = [0.2, -0.1]
        assert wind_spec.norm(x, [1.0, 0.0]) == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert wind_spec.norm(x, [-1.0, 0.0]) == pytest.approx(2.0, abs=1e-14)

    def test_reversible_case_matches_riemannian(self, dom, smooth_spec, rng):
        x = rng.uniform(-0.6, 0.6, (8, 2))
        y = rng.normal(size=(8, 2))
        assert np.allclose(smooth_spec.norm(x, y),
                           riemannian_norm(smooth_spec.alpha, x, y))

    def test_invalid_spec_refuses_evaluation(self, dom):
        bad = RandersSpec(dom, EuclideanMetric(), ConstantForm([1.1, 0.0]))
        assert bad.margin < 0.0
        with pytest.raises(InvalidNormError):
            bad.norm([0.0, 0.0], [1.0, 0.0])

    def test_positive_homogeneity(self, wind_spec, smooth_bump_spec, rng):
        for spec in (wind_spec, smooth_bump_spec):
            x = rng.uniform(-0.6, 0.6, (20, 2))
            y = rng.normal(size=(20, 2))
            f = spec.norm(x, y)
            for lam in (0.5, 2.0, 7.0):
                assert np.abs(spec.norm(x, lam * y) - lam * f).max() <= 1e-10 * (lam * f).max()


class TestDualNorm:
    def test_euclidean_self_dual(self, dom, euclid_spec):
        assert dual_norm(EuclideanMetric(), [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)

    def test_conformal_inverse_factor(self, dom):
        g = ConformalMetric(ConstantField(2.0))
        assert dual_norm(g, [0.0, 0.1], [1.0, 0.0]) == pytest.approx(2.0)

    def test_randers_matches_brute_force(self, dom, rng):
        spec = RandersSpec(dom, EuclideanMetric(), ConstantForm([0.5, 0.0]))
        x = np.array([0.1, 0.2])
        for w in ([1.0, 0.0], [0.3, -0.8], [-1.0, 0.5]):
            w = np.asarray(w)
            th = np.linspace(0, 2 * math.pi, 10_000, endpoint=False)
            U = np.column_stack([np.cos(th), np.sin(th)])
            F = spec._raw_norm(np.broadcast_to(x, U.shape).copy(), U)
            brute = ((U @ w) / F).max()
            # the sweep oracle itself is only accurate to ~(2 pi / 1e4)^2
            assert dual_norm(spec, x, w) == pytest.approx(brute, abs=1e-6)
            assert dual_norm(spec, x, w) >= brute - 1e-12

    def test_randers_matches_closed_form(self, dom):
        # independent route: the navigation data (h, W) of (alpha, b) gives
        # F*(w) = |w|_{h*} + w . W
        b = np.array([0.4, 0.2])
        spec = RandersSpec(dom, EuclideanMetric(), ConstantForm(b))
        lam = 1 - b @ b
        h = lam * (np.eye(2) - np.outer(b, b))
        W = -b / lam
        w = np.array([0.7, -0.3])
        closed = math.sqrt(w @ np.linalg.solve(h, w)) + w @ W
        assert dual_norm(spec, [0.0, 0.0], w) == pytest.approx(closed, abs=1e-12)

    def test_randers_undefined_off_the_margin_grid(self, dom):
        # a narrow 1-form spike between margin-grid points: the spec is
        # valid, yet |b|_a* = 1.5 at the spike, where F* does not exist
        c = np.array([0.029178, 0.023475])
        assert np.linalg.norm(disk_grid(dom, MARGIN_GRID_SIZE) - c, axis=1).min() > 0.02
        spike = f"1.5*exp(-100000*((x1 - {c[0]})^2 + (x2 - {c[1]})^2))"
        spec = RandersSpec(dom, EuclideanMetric(), ComponentForm([spike, "0"]))
        assert spec.is_valid
        assert dual_norm(spec, [0.3, 0.2], [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(InvalidNormError, match=re.escape(str(c))):
            dual_norm(spec, np.array([[0.3, 0.2], c]), np.array([[1.0, 0.0], [0.0, 1.0]]))


class TestValidity:
    def test_euclidean_passes_with_unit_convexity(self, euclid_spec):
        rep = validate_norm(euclid_spec)
        assert rep.passed
        assert rep.convexity_min_eig == pytest.approx(1.0, abs=1e-14)

    def test_double_eigenvalue_is_exact(self, euclid_spec, rng):
        # g = I for every y: a double eigenvalue, where an eigenvalue taken
        # from sqrt(tr^2 - 4 det) loses half its digits to rounding
        probes = (disk_grid(euclid_spec.domain, 10), rng.normal(size=(50, 2)))
        assert validate_norm(euclid_spec, probes).convexity_min_eig == pytest.approx(1.0, abs=1e-14)

    def test_margin_09_passes(self, dom):
        spec = RandersSpec(dom, EuclideanMetric(), ConstantForm([0.9, 0.0]))
        rep = validate_norm(spec)
        assert rep.passed and rep.beta_margin == pytest.approx(0.1)
        assert rep.convexity_min_eig > 0.0

    def test_margin_11_fails_positivity(self, dom):
        spec = RandersSpec(dom, EuclideanMetric(), ConstantForm([1.1, 0.0]))
        rep = validate_norm(spec)
        assert not rep.passed
        assert rep.positivity_min < 0.0
        assert rep.flagged

    def test_empty_probes_rejected(self, euclid_spec):
        with pytest.raises(ValueError):
            validate_norm(euclid_spec, probes=(np.zeros((0, 2)), np.eye(2)))

    def test_vanishing_tensor_on_validity_boundary(self, dom):
        # |b| = 1 and y = -b: F = 0 and dF/dy = 0, so g = 0 exactly
        spec = RandersSpec(dom, EuclideanMetric(), ConstantForm([1.0, 0.0]))
        rep = validate_norm(spec, probes=([0.0, 0.0], [-1.0, 0.0]))
        assert rep.flagged == [{"point": [0.0, 0.0], "direction": [-1.0, 0.0],
                                "norm": 0.0, "convexity": 0.0}]

    def test_zero_direction_rejected_by_index(self, wind_spec):
        # F is not smooth at y = 0, so no convexity value exists there
        dirs = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(DegenerateInputError, match="direction 2 is zero"):
            validate_norm(wind_spec, probes=(disk_grid(wind_spec.domain, 10), dirs))

    def test_convexity_matches_closed_form_reference(self, tensor_spec):
        X, Y = _default_probes(tensor_spec)
        ref = np.linalg.eigvalsh(_analytic_fundamental(
            tensor_spec.alpha.value(X), tensor_spec.beta.value(X), Y))[:, 0]
        _, eigmin = _fundamental(tensor_spec, X, Y)
        assert np.abs(eigmin - ref).max() <= 1e-13
        assert abs(validate_norm(tensor_spec).convexity_min_eig - ref.min()) <= 1e-13

    def test_matches_stencil_reference(self, tensor_spec):
        # the closed form against the finite-difference tensor it replaced:
        # the tensors agree to the stencil's accuracy and the same probes are
        # flagged, including on and past the validity boundary |b| = 1
        X, Y = _default_probes(tensor_spec)
        g_fd = _fd_fundamental_batch(tensor_spec, X, Y)
        g = fundamental_tensor(tensor_spec, X, Y)
        assert np.abs(g - g_fd).max() <= 1e-7
        tr = g_fd[:, 0, 0] + g_fd[:, 1, 1]
        det = g_fd[:, 0, 0] * g_fd[:, 1, 1] - g_fd[:, 0, 1] * g_fd[:, 1, 0]
        eig_fd = 0.5 * (tr - np.sqrt(np.maximum(tr ** 2 - 4.0 * det, 0.0)))
        f1 = tensor_spec._raw_norm(X, Y)
        expected = [(X[i].tolist(), Y[i].tolist())
                    for i in np.nonzero((f1 <= 0.0) | (eig_fd <= 0.0))[0]]
        got = [(f["point"], f["direction"]) for f in validate_norm(tensor_spec).flagged]
        assert got == expected

    def test_report_csv(self, euclid_spec, tmp_path):
        rep = validate_norm(euclid_spec)
        rep.to_csv(tmp_path / "validity.csv")
        text = (tmp_path / "validity.csv").read_text()
        assert text.startswith("# validity passed=True")
        assert "convexity_min_eig" in text
        assert "PASS" in rep.summary()


class TestFundamentalTensor:
    def test_euclidean_identity(self, euclid_spec, rng):
        for _ in range(5):
            y = rng.normal(size=2)
            g = fundamental_tensor(euclid_spec, [0.1, -0.2], y)
            assert np.abs(g - np.eye(2)).max() < 1e-10

    def test_riemannian_y_independence(self, smooth_spec, rng):
        x = np.array([0.3, 0.1])
        ref = fundamental_tensor(smooth_spec, x, [1.0, 0.0])
        for _ in range(10):
            y = rng.normal(size=2)
            y *= rng.uniform(0.5, 2.0) / np.linalg.norm(y)
            g = fundamental_tensor(smooth_spec, x, y)
            assert np.abs(g - ref).max() <= 1e-14

    def test_degree_zero_homogeneity(self, wind_spec, rng):
        x = np.array([0.2, -0.3])
        y = rng.normal(size=2)
        g1 = fundamental_tensor(wind_spec, x, y)
        g2 = fundamental_tensor(wind_spec, x, 2.0 * y)
        assert np.abs(g2 - g1).max() <= 1e-14

    def test_matches_closed_form(self, dom, wind_spec, rng):
        x = np.atleast_2d([0.2, -0.3])
        y = np.atleast_2d(rng.normal(size=2))
        a = wind_spec.alpha.value(x)
        b = wind_spec.beta.value(x)
        expected = _analytic_fundamental(a, b, y)[0]
        g = fundamental_tensor(wind_spec, x[0], y[0])
        assert np.abs(g - expected).max() < 1e-13

    def test_zero_vector_rejected(self, euclid_spec):
        with pytest.raises(DegenerateInputError):
            fundamental_tensor(euclid_spec, [0.0, 0.0], [0.0, 0.0])


class TestPlanarInput:
    CALLS = {
        "norm": lambda spec, p: spec.norm(p, [1.0, 0.0]),
        "norm_direction": lambda spec, p: spec.norm([0.0, 0.0], p),
        "riemannian_norm": lambda spec, p: riemannian_norm(spec.alpha, p, [1.0, 0.0]),
        "dual_norm": lambda spec, p: dual_norm(spec, p, [1.0, 0.0]),
        "fundamental_tensor": lambda spec, p: fundamental_tensor(spec, [0.0, 0.0], p),
        "validate_norm": lambda spec, p: validate_norm(spec, probes=(p, np.eye(2))),
        "validate_norm_directions": lambda spec, p: validate_norm(spec, probes=(np.zeros((1, 2)), p)),
        "metric_value": lambda spec, p: spec.alpha.value(p),
    }

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2)])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_non_planar_rejected_with_shape(self, wind_spec, call, shape):
        # a third column used to be dropped without a word
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            self.CALLS[call](wind_spec, np.zeros(shape))


class TestCurveLength:
    def test_straight_segment(self, euclid_spec):
        parts = curve_length(euclid_spec, np.array([[-1.0, 0.0], [1.0, 0.0]]))
        assert parts.total == pytest.approx(2.0)
        assert parts.oneform == 0.0

    def test_wind_diameter_decomposition(self, wind_spec):
        seg = np.array([[-1.0, 0.0], [1.0, 0.0]])
        parts = curve_length(wind_spec, seg)
        assert parts.total == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert parts.riemannian == pytest.approx(8.0 / 3.0, abs=1e-12)
        assert parts.oneform == pytest.approx(-4.0 / 3.0, abs=1e-12)

    def test_reversal_flips_oneform_exactly(self, dom, rng):
        spec = RandersSpec(dom, EuclideanMetric(),
                           ExactForm(PotentialBump(0.3, 1.0)))
        pts = rng.uniform(-0.6, 0.6, (6, 2))
        fwd = curve_length(spec, pts)
        bwd = curve_length(spec, pts[::-1])
        assert bwd.oneform == -fwd.oneform          # exact
        assert bwd.riemannian == pytest.approx(fwd.riemannian, rel=1e-12)
        assert fwd.total == fwd.riemannian + fwd.oneform

    def test_decomposition_identity(self, smooth_bump_spec, rng):
        pts = rng.uniform(-0.5, 0.5, (8, 2))
        parts = curve_length(smooth_bump_spec, pts)
        assert parts.total == parts.riemannian + parts.oneform

    def test_domain_exit_reports_parameter(self, euclid_spec):
        with pytest.raises(DomainError, match="parameter"):
            curve_length(euclid_spec, np.array([[0.0, 0.0], [3.0, 0.0]]))


class TestReverseNorm:
    def test_reversible_fixed_point(self, smooth_spec, rng):
        rev = reverse_norm(smooth_spec)
        x = rng.uniform(-0.5, 0.5, (6, 2))
        y = rng.normal(size=(6, 2))
        assert np.allclose(rev.norm(x, y), smooth_spec.norm(x, y))

    def test_definition(self, wind_spec, rng):
        rev = reverse_norm(wind_spec)
        x = rng.uniform(-0.5, 0.5, (6, 2))
        y = rng.normal(size=(6, 2))
        assert np.allclose(rev.norm(x, y), wind_spec.norm(x, -y))

    def test_involution(self, wind_spec, rng):
        twice = reverse_norm(reverse_norm(wind_spec))
        x = rng.uniform(-0.5, 0.5, (6, 2))
        y = rng.normal(size=(6, 2))
        assert np.array_equal(twice.norm(x, y), wind_spec.norm(x, y))


class TestClosedness:
    def test_exact_form_closed(self, dom):
        beta = ExactForm(PotentialBump(1.0, 1.0))
        assert closedness_residual(beta, disk_grid(dom, 100)) < 1e-13

    def test_rotational_residual_one(self, dom):
        assert closedness_residual(RotationalForm(1.0), disk_grid(dom, 100)) == pytest.approx(1.0)

    def test_constant_closed(self, dom):
        assert closedness_residual(ConstantForm([0.4, -0.2]), disk_grid(dom, 100)) == 0.0
