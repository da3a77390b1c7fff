import math

import numpy as np
import pytest

from randers import (ConfigError, ConformalMetric, ConstantField, ConstantForm,
                     Domain, DomainError, EuclideanMetric, ExactForm, ExprField,
                     PotentialBump, RadialProfile, RotationalForm, SumForm,
                     ZeroForm, disk_grid)
from randers.expressions import compile_expression


def fd_gradient(field, x, h=1e-6):
    g = np.zeros(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        g[i] = (field.value(x + e) - field.value(x - e)) / (2 * h)
    return g


class TestExpressions:
    def test_arithmetic(self):
        e = compile_expression("2*x1 + x2^2 - sqrt(r)/3", allowed=("x1", "x2", "r"))
        assert e(x1=1.0, x2=2.0, r=9.0) == pytest.approx(2 + 4 - 1.0)

    def test_functions(self):
        e = compile_expression("exp(x1) * cos(x2) + sin(x1)", allowed=("x1", "x2"))
        assert e(x1=0.3, x2=0.7) == pytest.approx(math.exp(0.3) * math.cos(0.7) + math.sin(0.3))

    def test_unary_minus_and_precedence(self):
        e = compile_expression("-x1^2", allowed=("x1",))
        assert e(x1=3.0) == -9.0
        assert compile_expression("2 + 3 * 4", allowed=())() == 14.0

    def test_constant_folding(self):
        e = compile_expression("2^3 + 1", allowed=())
        assert e.is_constant and e.constant_value() == 9.0

    def test_unknown_variable_rejected(self):
        with pytest.raises(ConfigError, match="unknown variable"):
            compile_expression("q + 1", allowed=("x1",))

    def test_unknown_function_rejected(self):
        with pytest.raises(ConfigError, match="unknown function"):
            compile_expression("tan(x1)", allowed=("x1",))

    def test_syntax_error_has_position(self):
        with pytest.raises(ConfigError, match="column"):
            compile_expression("1 + * 2", allowed=())

    def test_nonconstant_exponent_rejected(self):
        with pytest.raises(ConfigError, match="constant"):
            compile_expression("2 ^ x1", allowed=("x1",))


class TestDomain:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Domain(radius=-1.0)
        with pytest.raises(ValueError):
            Domain(radius=1.0, dimension=1)
        with pytest.raises(ValueError):
            Domain(radius=1.0, dimension=3)

    def test_boundary_defect_sign(self, dom):
        assert dom.boundary_defect([0.0, 0.0]) < 0
        assert dom.boundary_defect([2.0, 0.0]) > 0
        assert dom.boundary_defect([1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_require_inside(self, dom):
        with pytest.raises(DomainError):
            dom.require_inside(np.array([1.5, 0.0]))

    def test_grid_is_interior_and_deterministic(self, dom):
        g1 = disk_grid(dom, 1000)
        g2 = disk_grid(dom, 1000)
        assert np.array_equal(g1, g2)
        r = np.linalg.norm(g1, axis=1)
        assert r.max() < 1.0 and len(g1) == 1000


class TestScalarFields:
    def test_expr_gradient_matches_fd(self, rng):
        f = ExprField("exp(x1) * cos(x2) + 0.5*r^2")
        for _ in range(10):
            x = rng.uniform(-0.7, 0.7, 2)
            assert np.allclose(f.gradient(x), fd_gradient(f, x), rtol=1e-5, atol=1e-7)

    def test_expr_hessian_matches_fd(self, rng):
        f = ExprField("x1^2 * x2 + sin(x2)")
        x = np.array([0.4, -0.3])
        h = 1e-5
        H = f.hessian(x)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            col = (f.gradient(x + e) - f.gradient(x - e)) / (2 * h)
            assert np.allclose(H[:, i], col, rtol=1e-5, atol=1e-6)

    def test_expr_hessian_with_radial_variable(self, rng):
        f = ExprField("exp(r) - 0.3*r^2 + x1*r")
        h = 1e-5
        for _ in range(5):
            x = rng.uniform(-0.7, 0.7, 2)
            H = f.hessian(x)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                col = (f.gradient(x + e) - f.gradient(x - e)) / (2 * h)
                assert np.allclose(H[:, i], col, rtol=1e-5, atol=1e-7)

    def test_radial_profile_derivatives(self):
        p = RadialProfile("2 - r^2")
        r = np.linspace(0.1, 1.0, 7)
        assert np.allclose(p.profile(r), 2 - r**2)
        assert np.allclose(p.profile_d1(r), -2 * r)
        assert np.allclose(p.profile_d2(r), -2.0)

    def test_radial_as_planar_field(self, rng):
        p = RadialProfile("2 - r")
        x = rng.uniform(-0.7, 0.7, 2)
        assert p.value(x) == pytest.approx(2 - np.linalg.norm(x))
        assert np.allclose(p.gradient(x), fd_gradient(p, x), rtol=1e-6)

    def test_bump_vanishes_on_boundary(self, dom):
        bump = PotentialBump(0.3, 1.0)
        theta = np.linspace(0, 2 * math.pi, 17)
        vals = bump.value(dom.boundary_point(theta))
        assert np.abs(vals).max() < 1e-15

    def test_value_and_gradient_consistent(self, rng):
        for f in (ExprField("x1*x2 + r"), RadialProfile("1 + r^2"), ConstantField(2.0)):
            x = rng.uniform(-0.5, 0.5, (5, 2))
            v, g = f.value_and_gradient(x)
            assert np.array_equal(v, f.value(x))
            assert np.array_equal(g, f.gradient(x))


class TestForms:
    def test_exact_form_is_gradient(self, rng):
        phi = ExprField("0.3*(1 - (x1^2 + x2^2))")
        form = ExactForm(phi)
        x = rng.uniform(-0.6, 0.6, 2)
        assert np.allclose(form.value(x), phi.gradient(x))
        assert np.allclose(form.jacobian(x), phi.hessian(x))

    def test_rotational_jacobian(self):
        form = RotationalForm(1.0)
        J = form.jacobian([0.2, 0.3])
        assert np.allclose(J, 0.5 * np.array([[0, -1], [1, 0]]))

    def test_sum_and_zero(self, rng):
        x = rng.uniform(-0.5, 0.5, (4, 2))
        s = SumForm(ConstantForm([0.1, 0.2]), ZeroForm(2))
        assert np.allclose(s.value(x), [0.1, 0.2])
        assert s.is_zero is False
        assert ZeroForm(2).is_zero is True


class TestMetrics:
    def test_euclidean(self, rng):
        m = EuclideanMetric()
        x = rng.uniform(-0.5, 0.5, (3, 2))
        assert np.allclose(m.value(x), np.eye(2))
        assert np.abs(m.partials(x)).max() == 0.0

    def test_conformal_value_and_partials(self, rng):
        c = RadialProfile("2 - r^2")
        m = ConformalMetric(c)
        assert m.flavor == "conformal-radial"
        x = rng.uniform(-0.6, 0.6, 2)
        g = m.value(x)
        assert np.allclose(g, np.eye(2) / c.value(x) ** 2)
        h = 1e-6
        P = m.partials(x)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd = (m.value(x + e) - m.value(x - e)) / (2 * h)
            assert np.allclose(P[k], fd, rtol=1e-6, atol=1e-8)
