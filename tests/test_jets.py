"""Field evaluation is stateless: nothing is remembered between calls.

A batch changed in place must evaluate like a fresh copy, and beta's jet,
which the spray reads, must agree bit for bit with beta's public tensor
calls.

A jet component that is constant over the batch is an ``np.float64``
scalar: the families and algebras below return scalars where their formula
is constant, the tensor calls still return (m, ...) arrays, and a constant
medium gives the same distances, bit for bit, as a twin whose jets return
full arrays.
"""

import math

import numpy as np
import pytest

from randers import (ComponentForm, ConformalMetric, ConstantField,
                     ConstantForm, Domain, EuclideanMetric, ExactForm,
                     ExprField, MediumModel, PotentialBump, RadialProfile,
                     RandersSpec, RotationalForm, ScaledForm, SumForm, ZeroForm,
                     distance_matrix, fundamental_tensor, linearize, spray,
                     zermelo_construct)
from conftest import assert_jet_component
from randers.fields import jet_spray_terms
from randers.geodesics import _time_scale
from randers.zermelo import _ZermeloAlgebra

SPEED = RadialProfile("2 - r^2")
WIND = RotationalForm(0.4)


def _navigation_spec(dom):
    return zermelo_construct(MediumModel(dom, speed=SPEED, wind=WIND))


def _plain_spec(dom):
    return RandersSpec(dom, ConformalMetric(SPEED), ExactForm(PotentialBump(0.3, 1.0)))


def _cli_wind_spec(dom):
    # what `randers simulate` builds from c = "1", wind = "const(a, b)"
    return zermelo_construct(MediumModel(dom, speed=ConstantField(1.0),
                                         wind=ConstantForm([0.3, -0.4])))


def _euclid_constant_spec(dom):
    return RandersSpec(dom, EuclideanMetric(), ConstantForm([0.2, 0.1]))


def _component_spec(dom):
    # the jets of the two component expression fields
    return RandersSpec(dom, ConformalMetric(SPEED), ComponentForm(["0.1 - 0.1*x2", "0.1*x1*x2"]))


def _euclid_spec(dom):
    return RandersSpec(dom, EuclideanMetric())


def _reversed_navigation_spec(dom):
    # the navigation algebra over the wind ScaledForm(WIND, -1)
    return _navigation_spec(dom).reverse()


def _exact_expr_spec(dom):
    # the expression field's gradient jet, from its derivative trees
    return RandersSpec(dom, ConformalMetric(SPEED),
                       ExactForm(ExprField("0.1*x1*x2 + 0.05*x2^3 - 0.08*x1^2")))


def _sum_spec(dom):
    return RandersSpec(dom, ConformalMetric(SPEED),
                       SumForm(ExactForm(PotentialBump(0.3, 1.0)), ScaledForm(WIND, -0.5)))


SPECS = {"navigation": _navigation_spec, "plain": _plain_spec, "cli_wind": _cli_wind_spec,
         "euclid_constant": _euclid_constant_spec, "component": _component_spec,
         "euclid": _euclid_spec, "navigation_reversed": _reversed_navigation_spec,
         "exact_expr": _exact_expr_spec, "sum": _sum_spec}


@pytest.fixture
def batch(rng):
    return rng.uniform(-0.35, 0.35, (7, 2)), rng.normal(size=(7, 2))


@pytest.mark.parametrize("call", [
    "conformal_metric.value",
    "navigation.beta.value",
    "navigation.norm",
])
def test_in_place_change_is_not_stale(dom, batch, call):
    X, Y = batch
    fns = {
        "conformal_metric.value": ConformalMetric(SPEED).value,
        "navigation.beta.value": _navigation_spec(dom).beta.value,
        "navigation.norm": lambda x, spec=_navigation_spec(dom): spec.norm(x, Y),
    }
    fn = fns[call]
    X = X.copy()
    fn(X)
    X *= 2.0  # same array object, new points
    assert np.array_equal(fn(X), fn(X.copy()))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_jet_equals_public_field_calls(dom, batch, name):
    spec = SPECS[name](dom)
    X, _ = batch
    x0, x1 = np.ascontiguousarray(X.T)
    if not spec.beta.is_zero:
        (b, J), bv, Jv = spec.beta.jet(x0, x1), spec.beta.value(X), spec.beta.jacobian(X)
        pairs = [(b[i], bv[:, i]) for i in (0, 1)]
        pairs += [(J[i][k], Jv[:, i, k]) for i in (0, 1) for k in (0, 1)]
        for comp, ref in pairs:
            assert_jet_component(comp, len(X))
            assert np.array_equal(np.broadcast_to(comp, ref.shape), ref)


def _state(obj, seen=None):
    """Identity of every attribute reachable through randers objects."""
    seen = set() if seen is None else seen
    if id(obj) in seen or not type(obj).__module__.startswith("randers"):
        return {}
    seen.add(id(obj))
    out = {}
    for key, val in vars(obj).items():
        out[(id(obj), key)] = id(val)
        out.update(_state(val, seen))
    return out


@pytest.mark.parametrize("name", sorted(SPECS))
def test_evaluation_stores_nothing(dom, batch, name):
    spec = SPECS[name](dom)
    X, Y = batch
    before = _state(spec)
    spec.norm(X, Y)
    spray(spec, X, Y)
    _time_scale(spec)
    assert _state(spec) == before


# ---------------------------------------------------------------------------
# constant jet components are NumPy scalars

def _leaves(jet):
    """The components of a nested jet tuple, in order."""
    if isinstance(jet, tuple):
        return [leaf for part in jet for leaf in _leaves(part)]
    return [jet]


def _scalar_mask(jet):
    """Per component of a jet: True where it is an np.float64 scalar."""
    return [type(v) is np.float64 for v in _leaves(jet)]


S, R = True, False   # a scalar (constant over the batch), (m,) rows


@pytest.mark.parametrize("field, call, expected", [
    (ConstantField(1.5), "jet", [S, S, S]),
    (ConstantField(1.5), "gradient_jet", [S] * 6),
    (PotentialBump(0.3, 1.0), "gradient_jet", [R, R, S, S, S, S]),
    (ExprField("2.5"), "jet", [S, S, S]),
    (ExprField("x1*x2"), "gradient_jet", [R, R, S, S, S, S]),
    (ZeroForm(), "jet", [S] * 6),
    (ConstantForm([0.2, -0.1]), "jet", [S] * 6),
    (RotationalForm(0.4), "jet", [R, R, S, S, S, S]),
    (ScaledForm(ConstantForm([0.2, -0.1]), -0.5), "jet", [S] * 6),
    (ScaledForm(RotationalForm(0.4), -1.0), "jet", [R, R, S, S, S, S]),
    (SumForm(ConstantForm([0.2, -0.1]), ZeroForm()), "jet", [S] * 6),
    (SumForm(ConstantForm([0.2, -0.1]), RotationalForm(0.4)), "jet", [R, R, S, S, S, S]),
    (EuclideanMetric(), "jet", [S] * 9),
    (ConformalMetric(RadialProfile("2 - r^2")), "jet", [R, S, R, R, S, R, R, S, R]),
    (ConformalMetric(ConstantField(2.0)), "jet", [S] * 9),
], ids=["constant", "constant-gradient", "bump-hessian", "expr-number", "expr-hessian",
        "zero", "form-constant", "rotational", "scaled-constant", "scaled-rotational",
        "sum-constant", "sum-rotational", "euclidean", "conformal", "conformal-constant"])
def test_constant_components_are_numpy_scalars(rng, field, call, expected):
    x0, x1 = rng.uniform(-0.5, 0.5, (2, 6))
    jet = getattr(field, call)(x0, x1)
    assert _scalar_mask(jet) == expected
    for comp in _leaves(jet):
        assert_jet_component(comp, 6)


def test_constant_scalar_values(rng):
    x0, x1 = rng.uniform(-0.5, 0.5, (2, 4))
    assert ConstantField(1.5).jet(x0, x1)[0] == 1.5
    assert ConstantForm([0.2, -0.1]).jet(x0, x1)[0] == (0.2, -0.1)
    assert RotationalForm(0.4).jet(x0, x1)[1] == ((0.0, -0.2), (0.2, 0.0))
    assert PotentialBump(0.3, 2.0).gradient_jet(x0, x1)[1] == ((-0.15, 0.0), (0.0, -0.15))


def _cli_medium_algebras():
    # c = "1" under a constant wind, as `randers simulate` builds it
    speed, wind = ConstantField(1.0), ConstantForm([0.3, -0.4])
    return {"zermelo": _ZermeloAlgebra(ConformalMetric(speed), wind),
            "zermelo_reversed": _ZermeloAlgebra(ConformalMetric(speed), ScaledForm(wind, -1.0))}


@pytest.mark.parametrize("name", sorted(_cli_medium_algebras()))
def test_constant_medium_algebra_runs_on_scalars(rng, name):
    algebra = _cli_medium_algebras()[name]
    x0, x1 = rng.uniform(-0.5, 0.5, (2, 5))
    ajet, bjet = algebra.jet(x0, x1)
    assert all(_scalar_mask(ajet)) and all(_scalar_mask(bjet))
    # and the spray terms carry rows only where y enters
    y0, y1 = rng.normal(size=(2, 5))
    A_, G, inv = jet_spray_terms(ajet, y0, y1)
    assert A_.shape == G[0].shape == G[1].shape == (5,)
    assert all(type(v) is np.float64 for v in inv)


def _tensor_calls():
    """(call, tail shape) for every public tensor call of every field kind."""
    scalars = {"constant": ConstantField(1.5), "bump": PotentialBump(0.3, 1.0),
               "expr": ExprField("x1*x2 + r"), "radial": RadialProfile("2 - r^2")}
    wind_spec = _cli_wind_spec(Domain(1.0))
    forms = {"zero": ZeroForm(), "constant": ConstantForm([0.2, -0.1]),
             "rotational": RotationalForm(0.4), "navigation": wind_spec.beta}
    metrics = {"euclidean": EuclideanMetric(),
               "conformal_constant": ConformalMetric(ConstantField(2.0)),
               "navigation": wind_spec.alpha}
    tails = [(scalars, {"value": (), "gradient": (2,), "hessian": (2, 2)}),
             (forms, {"value": (2,), "jacobian": (2, 2)}),
             (metrics, {"value": (2, 2), "partials": (2, 2, 2)})]
    return [pytest.param(getattr(f, method), tail, id=f"{name}.{method}")
            for fields, methods in tails for name, f in fields.items()
            for method, tail in methods.items()]


@pytest.mark.parametrize("call, tail", _tensor_calls())
def test_tensor_calls_keep_their_shapes(rng, call, tail):
    X = rng.uniform(-0.5, 0.5, (6, 2))
    for pts, shape in ((X, (6, *tail)), (X[:1], (1, *tail)), (X[:0], (0, *tail)), (X[2], tail)):
        out = call(pts)
        assert np.shape(out) == shape and np.asarray(out).dtype == np.float64
    assert np.array_equal(call(X[2]), call(X)[2])


@pytest.mark.parametrize("name", ["cli_wind", "euclid_constant", "euclid"])
def test_fundamental_tensor_keeps_its_shape(dom, rng, name):
    spec = SPECS[name](dom)
    X, Y = rng.uniform(-0.5, 0.5, (6, 2)), rng.normal(size=(6, 2))
    assert fundamental_tensor(spec, X, Y).shape == (6, 2, 2)
    assert fundamental_tensor(spec, X[:1], Y[:1]).shape == (1, 2, 2)
    assert fundamental_tensor(spec, X[:0], Y[:0]).shape == (0, 2, 2)
    assert fundamental_tensor(spec, X[2], Y[2]).shape == (2, 2)


class _ArrayConstantField(ConstantField):
    """ConstantField whose jets return full arrays, as every jet did before scalars."""

    def jet(self, x0, x1):
        zero = np.zeros(np.shape(x0))
        return np.full(np.shape(x0), self.c), (zero, zero)

    def gradient_jet(self, x0, x1):
        zero = np.zeros(np.shape(x0))
        return (zero, zero), ((zero, zero), (zero, zero))


class _ArrayConstantForm(ConstantForm):
    """ConstantForm whose jet returns full arrays."""

    def jet(self, x0, x1):
        m = np.shape(x0)
        zero = np.zeros(m)
        b0, b1 = self.components
        return (np.full(m, b0), np.full(m, b1)), ((zero, zero), (zero, zero))


def _constant_wind_spec(kind, dom, speed, wind):
    if kind == "zermelo":
        return zermelo_construct(MediumModel(dom, speed=speed, wind=wind))
    return linearize(speed, wind, dom)[0]


# c = 1 is the CLI medium; at c = 1.45, np.float64(c) ** -2 differs from the
# array power in the last place, so a scalar ** in a jet breaks the equality
@pytest.mark.parametrize("c, wind", [(1.0, [0.5 * math.cos(2.0), 0.5 * math.sin(2.0)]),
                                     (1.45, [0.6, 0.0])], ids=["c1", "c1.45"])
@pytest.mark.parametrize("kind", ["zermelo", "linearized"])
def test_constant_wind_distances_equal_full_array_twin(dom, kind, c, wind):
    spec = _constant_wind_spec(kind, dom, ConstantField(c), ConstantForm(wind))
    twin = _constant_wind_spec(kind, dom, _ArrayConstantField(c), _ArrayConstantForm(wind))
    assert spec.spec_hash == twin.spec_hash
    assert spec.margin == twin.margin and spec.sup_beta == twin.sup_beta
    a, b = distance_matrix(spec, 8), distance_matrix(twin, 8)
    for got, ref in ((a.matrix, b.matrix), (a.diagnostics.miss, b.diagnostics.miss),
                     (a.diagnostics.correction, b.diagnostics.correction)):
        assert np.array_equal(got, ref, equal_nan=True)
