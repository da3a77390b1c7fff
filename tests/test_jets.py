"""Field evaluation is stateless: nothing is remembered between calls.

A batch changed in place must evaluate like a fresh copy, and the spray's
field call ``spec.spray_terms`` must agree with the public field calls:
beta's jet bit for bit, alpha's terms with those of alpha's jet.
"""

import numpy as np
import pytest

from randers import (ComponentForm, ConformalMetric, ConstantField,
                     ConstantForm, EuclideanMetric, ExactForm, ExprField,
                     MediumModel, PotentialBump, RadialProfile, RandersSpec,
                     RotationalForm, ScaledForm, SumForm, conformal_specialize,
                     spray, zermelo_construct)
from randers.fields import jet_spray_terms
from randers.geodesics import _geodesic_rhs, _time_scale
from randers.zermelo import _ZermeloAlgebra

SPEED = RadialProfile("2 - r^2")
WIND = RotationalForm(0.4)


def _navigation_spec(dom):
    return zermelo_construct(MediumModel(dom, speed=SPEED, wind=WIND))


def _specialized_spec(dom):
    return conformal_specialize(SPEED, WIND, dom)


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


SPECS = {"navigation": _navigation_spec, "specialized": _specialized_spec,
         "plain": _plain_spec, "cli_wind": _cli_wind_spec,
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
    "specialized.beta.value",
])
def test_in_place_change_is_not_stale(dom, batch, call):
    X, Y = batch
    fns = {
        "conformal_metric.value": ConformalMetric(SPEED).value,
        "navigation.beta.value": _navigation_spec(dom).beta.value,
        "navigation.norm": lambda x, spec=_navigation_spec(dom): spec.norm(x, Y),
        "specialized.beta.value": _specialized_spec(dom).beta.value,
    }
    fn = fns[call]
    X = X.copy()
    fn(X)
    X *= 2.0  # same array object, new points
    assert np.array_equal(fn(X), fn(X.copy()))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_jet_equals_public_field_calls(dom, batch, name):
    spec = SPECS[name](dom)
    X, Y = batch
    x0, x1 = np.ascontiguousarray(X.T)
    y0, y1 = np.ascontiguousarray(Y.T)
    aterms, bjet = spec.spray_terms(x0, x1, y0, y1)
    A, G, inv = aterms
    rA, rG, rinv = jet_spray_terms(spec.alpha.jet(x0, x1), y0, y1)
    for comp, ref in zip((A, *G, *inv), (rA, *rG, *rinv)):
        comp, ref = np.broadcast_arrays(comp, ref)
        assert np.all(np.abs(comp - ref) <= 1e-13 * (1.0 + np.abs(ref)))
    assert (bjet is None) == spec.beta.is_zero
    if bjet is not None:
        (b, J), bv, Jv = bjet, spec.beta.value(X), spec.beta.jacobian(X)
        pairs = [(b[i], bv[:, i]) for i in (0, 1)]
        pairs += [(J[i][k], Jv[:, i, k]) for i in (0, 1) for k in (0, 1)]
        for comp, ref in pairs:
            assert comp.shape == (len(X),) and comp.flags.c_contiguous
            assert np.array_equal(comp, ref)


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
    spec.spray_terms(X[:, 0], X[:, 1], Y[:, 0], Y[:, 1])
    spray(spec, X, Y)
    _time_scale(spec)
    assert _state(spec) == before


def test_reversed_navigation_runs_the_algebra_once(dom, batch, monkeypatch):
    spec = _reversed_navigation_spec(dom)
    calls = []
    jet = _ZermeloAlgebra.jet

    def counted(self, x0, x1):
        calls.append(1)
        return jet(self, x0, x1)
    monkeypatch.setattr(_ZermeloAlgebra, "jet", counted)
    X, Y = batch
    _geodesic_rhs(spec)(np.column_stack([X, Y, np.zeros(len(X))]))
    assert len(calls) == 1
