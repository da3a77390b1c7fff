import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from randers import (ComponentForm, ConfigError, ConformalMetric, ConstantField,
                     ConstantForm, Domain, DomainError, EuclideanMetric, ExactForm,
                     ExprField, PotentialBump, RadialProfile, RotationalForm,
                     ScaledForm, SumForm, ZeroForm, disk_grid)
from conftest import assert_jet_component
from randers.expressions import compile_expression
from randers.zermelo import (LinearizedOneForm, NavigationMetric, NavigationOneForm,
                             _ConformalAlgebra, _ZermeloAlgebra)


def fd_gradient(field, x, h=1e-6):
    g = np.zeros(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        g[i] = (field.value(x + e) - field.value(x - e)) / (2 * h)
    return g


def fd_hessian(field, x, h=1e-5):
    H = np.zeros((2, 2))
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        H[:, i] = (field.gradient(x + e) - field.gradient(x - e)) / (2 * h)
    return H


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


# Random expression trees.  Leaves are variables and numbers in [-1, 1];
# sqrt, division and non-integer powers only see arguments in [0.5, 2.5],
# so every tree and its derivatives stay finite on the sampled points.
NUMBERS = st.floats(-1.0, 1.0).map(lambda v: f"({v!r})")


def _extend(sub):
    return st.one_of(
        st.builds("-({})".format, sub),
        st.builds("({}) {} ({})".format, sub, st.sampled_from("+-*"), sub),
        st.builds("({}) / (1.5 + cos({}))".format, sub, sub),
        st.builds("sqrt(1.5 + sin({}))".format, sub),
        st.builds("(1.5 + sin({}))^({})".format, sub, st.sampled_from([-2.0, -1.5, 0.5, 2.5])),
        st.builds("({})^{}".format, sub, st.sampled_from(["2", "3"])),
        st.builds("{}({})".format, st.sampled_from(["sin", "cos"]), sub),
        st.builds("exp(sin({}))".format, sub),
    )


def expression_sources(variables):
    """A skeleton with every node kind (num, var, neg, + - * /, pow, calls) around random subtrees."""
    sub = st.recursive(st.one_of(st.sampled_from(variables), NUMBERS), _extend, max_leaves=5)
    return st.builds("sqrt(1.5 + sin({})) * exp(-sin({})) / (1.5 + cos({})) - ({})^3 + {} * 0.5".format,
                     sub, sub, sub, sub, st.sampled_from(variables))


VARS = ("x1", "x2", "r")
CS_STEP = 1e-30
# Central differences resolve a field only where it varies slowly on the
# step scale; trees such as cos(((1.5 + sin(x1))^2.5)^3) oscillate too fast.
FD_MAX_CURVATURE = 100.0


def complex_step(expr, env, var):
    """d expr / d var at env by the complex step: exact to rounding for analytic trees."""
    shifted = dict(env, **{var: env[var] + 1j * CS_STEP})
    return np.broadcast_to(np.imag(expr(**shifted)) / CS_STEP, env[var].shape)


def complex_step_jacobian(fn, x):
    """d fn / dx at the planar point x by the complex step; entry [..., j] is along x_j."""
    x = x.astype(complex)
    return np.stack([np.imag(fn(x + 1j * CS_STEP * e)) / CS_STEP for e in np.eye(2)], axis=-1)


def chained_env(x):
    """Expression variables at a planar point, r = |x| included (complex points allowed)."""
    return {"x1": x[0], "x2": x[1], "r": np.sqrt(x[0] * x[0] + x[1] * x[1])}


def chained_gradient(f, x):
    """Gradient of an ExprField away from the origin by the chain d/dx_i = f_xi + f_r x_i / r,
    built from its first-order trees only, so it is independent of its Hessian code."""
    env = chained_env(x)
    fr = f.d1["r"](**env)
    return np.array([f.d1["x1"](**env) + fr * env["x1"] / env["r"],
                     f.d1["x2"](**env) + fr * env["x2"] / env["r"]])


class TestSymbolicDerivatives:
    @settings(max_examples=40, deadline=None)
    @given(src=expression_sources(VARS),
           pts=st.lists(st.floats(-0.9, 0.9), min_size=9, max_size=9))
    def test_diff_matches_complex_step(self, src, pts):
        e = compile_expression(src, allowed=VARS)
        env = dict(zip(VARS, np.reshape(pts, (3, 3)).astype(complex)))
        for a in VARS:
            da = e.diff(a)
            got = np.broadcast_to(da(**env), (3,)).real
            ref = complex_step(e, env, a)
            assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref))), (src, a)
            for b in VARS:
                got2 = np.broadcast_to(da.diff(b)(**env), (3,)).real
                ref2 = complex_step(da, env, b)
                assert np.all(np.abs(got2 - ref2) <= 1e-12 * (1.0 + np.abs(ref2))), (src, a, b)

    def test_zero_terms_and_unit_factors_are_dropped(self):
        e = compile_expression("3*x1 + x2^2 + 5", allowed=VARS)
        assert e.diff("x1").node == ("num", 3.0)
        assert e.diff("r").node == ("num", 0.0) and not e.diff("r").variables
        assert e.diff("x2").node == ("*", ("num", 2.0), ("var", "x2"))

    @settings(max_examples=30, deadline=None)
    @given(src=expression_sources(VARS), radius=st.floats(0.2, 0.9),
           angle=st.floats(0.0, 2.0 * math.pi))
    # a central difference missed this Hessian by 7e-4: the step-size error
    # grows with the third derivative, which no curvature filter bounds
    @example(src="sqrt(1.5 + sin(x1)) * exp(-sin(x1)) / (1.5 + cos(sqrt(1.5 + sin(((1.5 + "
                 "sin(x1))^(2.5))^3)))) - (x1)^3 + x1 * 0.5", radius=0.25, angle=0.0)
    def test_expr_field_with_r_matches_complex_step(self, src, radius, angle):
        f = ExprField(src)
        x = radius * np.array([math.cos(angle), math.sin(angle)])
        g, H = f.gradient(x), f.hessian(x)
        scale = 1.0 + np.abs(f.value(x))
        g_ref = complex_step_jacobian(lambda z: f.expr(**chained_env(z)), x)
        H_ref = complex_step_jacobian(lambda z: chained_gradient(f, z), x)
        assert np.allclose(g, g_ref, rtol=1e-6, atol=1e-6 * scale), src
        assert np.allclose(H, H_ref, rtol=1e-5, atol=1e-5 * (1.0 + np.abs(g).max())), src
        assert np.array_equal(H, H.T)

    @settings(max_examples=30, deadline=None)
    @given(src=expression_sources(VARS))
    # a constant power folded with a scalar's ** differed from the array power here
    @example(src="sqrt(1.5 + sin((x1) - (((r) + (0.99))^3))) * exp(-sin(x1)) "
                 "/ (1.5 + cos(x1)) - (x1)^3 + x1 * 0.5")
    @example(src="sqrt(1.5 + sin(x1)) * exp(-sin((x1) * ((1.5 + sin((r) + (0.26)))^(2.5)))) "
                 "/ (1.5 + cos(x1)) - (x1)^3 + x1 * 0.5")
    def test_expr_field_r_chain_vanishes_at_origin(self, src):
        # r = |x| has no derivative at 0, where a central difference of the
        # field converges only at first order.  By convention the r-chain
        # terms are zero there: the field's derivatives equal those of the
        # same expression with r frozen at 0, which is smooth.
        f, frozen = ExprField(src), ExprField(re.sub(r"\br\b", "(0)", src))
        assert "r" not in frozen.expr.variables
        origin = np.zeros(2)
        g, H = f.gradient(origin), f.hessian(origin)
        assert np.array_equal(g, frozen.gradient(origin))
        assert np.array_equal(H, frozen.hessian(origin))
        assume(np.abs(H).max() <= FD_MAX_CURVATURE)
        assert np.allclose(g, fd_gradient(frozen, origin), rtol=1e-6,
                           atol=1e-6 * (1.0 + abs(frozen.value(origin)))), src
        assert np.allclose(H, fd_hessian(frozen, origin), rtol=1e-5,
                           atol=1e-5 * (1.0 + np.abs(g).max())), src


class TestDomain:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Domain(radius=-1.0)

    @pytest.mark.parametrize("radius", [0.0, float("nan"), float("inf"), float("-inf")])
    def test_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="domain radius must be finite and positive"):
            Domain(radius)

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

    def test_radial_hessian_matches_fd(self, rng):
        p = RadialProfile("1 + 0.3*exp(-4*r^2) + r^3")
        for x in rng.uniform(-0.7, 0.7, (4, 2)):
            assert np.allclose(p.hessian(x), fd_hessian(p, x), rtol=1e-6, atol=1e-8)

    def test_radial_gradient_jet_zero_at_origin(self):
        # c'' = 0.75 r^-0.5 is infinite at the origin; the jet is still zero there
        p = RadialProfile("r^1.5")
        with np.errstate(divide="ignore", invalid="ignore"):
            (g0, g1), ((h00, h01), (h10, h11)) = p.gradient_jet(np.zeros(1), np.zeros(1))
        assert all(np.array_equal(v, [0.0]) for v in (g0, g1, h00, h01, h10, h11))

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
    def test_bump_radius_checked_at_construction(self, radius):
        with pytest.raises(ValueError, match="bump radius must be positive"):
            PotentialBump(0.3, radius)

    def test_bump_vanishes_on_boundary(self, dom):
        bump = PotentialBump(0.3, 1.0)
        theta = np.linspace(0, 2 * math.pi, 17)
        vals = bump.value(dom.boundary_point(theta))
        assert np.abs(vals).max() < 1e-15

    def test_value_and_gradient_consistent(self, rng):
        for f in (ExprField("x1*x2 + r"), RadialProfile("1 + r^2"), ConstantField(2.0)):
            x = rng.uniform(-0.5, 0.5, (5, 2))
            x0, x1 = np.ascontiguousarray(x.T)
            v, (g0, g1) = f.jet(x0, x1)
            (h0, h1), _ = f.gradient_jet(x0, x1)
            for comp in (v, g0, g1, h0, h1):
                assert_jet_component(comp, 5)
            assert np.array_equal(np.broadcast_to(v, (5,)), f.value(x))
            g = np.column_stack(np.broadcast_arrays(g0, g1, x0)[:2])
            assert np.array_equal(g, f.gradient(x))
            assert type(h0) is type(g0) and np.array_equal(h0, g0)
            assert type(h1) is type(g1) and np.array_equal(h1, g1)


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
        s = SumForm(ConstantForm([0.1, 0.2]), ZeroForm())
        assert np.allclose(s.value(x), [0.1, 0.2])
        assert s.is_zero is False
        assert ZeroForm().is_zero is True

    @pytest.mark.parametrize("form, components", [
        (ComponentForm, ["0.1*x1"]),
        (ComponentForm, ["0.1*x1", "x2", "r"]),
        (ConstantForm, [0.1]),
        (ConstantForm, [0.1, 0.2, 0.3]),
        (ConstantForm, 0.1),
    ], ids=["component-1", "component-3", "const-1", "const-3", "const-scalar"])
    def test_form_arity_checked_at_construction(self, form, components):
        with pytest.raises(ValueError, match=f"{form.__name__} needs 2 components"):
            form(components)


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


# every family of each base class; the tensor calls are assembled from the jet
_SPEED = RadialProfile("2 - r^2")
_WIND = RotationalForm(0.4)
SCALARS = {
    "constant": ConstantField(1.5),
    "expr": ExprField("exp(x1) * cos(x2) + 0.5*r^2 + sqrt(1 + r)"),
    "expr_no_r": ExprField("0.1*x1*x2 + 0.05*x2^3 - 0.08*x1^2"),
    "radial": RadialProfile("1 + 0.3*exp(-4*r^2) + r^3"),
    "bump": PotentialBump(0.3, 1.0),
}
FORMS = {
    "zero": ZeroForm(),
    "constant": ConstantForm([0.2, -0.1]),
    "exact": ExactForm(RadialProfile("2 - r^2 + r^3")),
    "rotational": _WIND,
    "component": ComponentForm(["0.1 - 0.1*x2", "0.1*x1*x2 + 0.02*r"]),
    "scaled": ScaledForm(RotationalForm(0.3), -0.5),
    "sum": SumForm(ExactForm(PotentialBump(0.3, 1.0)), _WIND),
    "navigation": NavigationOneForm(_ZermeloAlgebra(ConformalMetric(_SPEED), _WIND)),
    "conformal_navigation": NavigationOneForm(_ConformalAlgebra(_SPEED, _WIND)),
    "linearized": LinearizedOneForm(ExprField("1.5 + 0.1*x1"), _WIND),
}
METRICS = {
    "euclidean": EuclideanMetric(),
    "conformal": ConformalMetric(_SPEED),
    "navigation": NavigationMetric(_ZermeloAlgebra(ConformalMetric(_SPEED), _WIND)),
    "conformal_navigation": NavigationMetric(_ConformalAlgebra(_SPEED, _WIND)),
}


def _jet_pairs(kind, f, x):
    """(jet component, matching tensor entry) pairs at the points x, (m, 2)."""
    x0, x1 = np.ascontiguousarray(x.T)
    if kind == "scalar":
        c, dc = f.jet(x0, x1)
        dc_, ((h00, h01), (h10, h11)) = f.gradient_jet(x0, x1)
        v, g, H = f.value(x), f.gradient(x), f.hessian(x)
        return ([(c, v)] + [(dc[k], g[:, k]) for k in (0, 1)]
                + [(dc_[k], g[:, k]) for k in (0, 1)]
                + [(h, H[:, i, j]) for h, (i, j) in
                   zip((h00, h01, h10, h11), ((0, 0), (0, 1), (1, 0), (1, 1)))])
    if kind == "form":
        b, J = f.jet(x0, x1)
        v, Jv = f.value(x), f.jacobian(x)
        return ([(b[i], v[:, i]) for i in (0, 1)]
                + [(J[i][k], Jv[:, i, k]) for i in (0, 1) for k in (0, 1)])
    a, da = f.jet(x0, x1)
    g, P = f.value(x), f.partials(x)
    pairs = ((0, 0), (0, 1), (1, 1))
    return ([(a[n], g[:, i, j]) for n, (i, j) in enumerate(pairs)]
            + [(a[n], g[:, j, i]) for n, (i, j) in enumerate(pairs)]
            + [(da[k][n], P[:, k, i, j]) for k in (0, 1) for n, (i, j) in enumerate(pairs)]
            + [(da[k][n], P[:, k, j, i]) for k in (0, 1) for n, (i, j) in enumerate(pairs)])


FAMILIES = {"scalar": SCALARS, "form": FORMS, "metric": METRICS}
TENSORS = {"scalar": ("value", "gradient", "hessian"), "form": ("value", "jacobian"),
           "metric": ("value", "partials")}


@pytest.mark.parametrize("kind, name", [(k, n) for k, fs in FAMILIES.items() for n in fs])
def test_tensor_calls_equal_jet(rng, kind, name):
    f = FAMILIES[kind][name]
    x = rng.uniform(-0.6, 0.6, (9, 2))
    x[0] = 0.0                                   # the origin
    for pts in (x, x[:1], x[3:4]):
        for comp, ref in _jet_pairs(kind, f, pts):
            assert_jet_component(comp, len(pts))
            assert np.array_equal(np.broadcast_to(comp, ref.shape), ref)
    for p in (x[0], x[3]):                       # single-point input, origin included
        for method in TENSORS[kind]:
            t = getattr(f, method)
            assert np.array_equal(t(p), t(p[None, :])[0])
