"""Field evaluation is stateless: nothing is remembered between calls.

A batch changed in place must evaluate like a fresh copy, and a spec's
joint ``jet`` must equal its four public field calls bit for bit.
"""

import numpy as np
import pytest

from randers import (ConformalMetric, ExactForm, MediumModel, PotentialBump,
                     RadialProfile, RandersSpec, RotationalForm,
                     conformal_specialize, spray, zermelo_construct)
from randers.geodesics import _time_scale

SPEED = RadialProfile("2 - r^2")
WIND = RotationalForm(0.4)


def _navigation_spec(dom):
    return zermelo_construct(MediumModel(dom, speed=SPEED, wind=WIND))


def _specialized_spec(dom):
    return conformal_specialize(SPEED, WIND, dom)


def _plain_spec(dom):
    return RandersSpec(dom, ConformalMetric(SPEED), ExactForm(PotentialBump(0.3, 1.0)))


SPECS = {"navigation": _navigation_spec, "specialized": _specialized_spec,
         "plain": _plain_spec}


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
    X, _ = batch
    a, P, b, Jb = spec.jet(X)
    assert np.array_equal(a, spec.alpha.value(X))
    assert np.array_equal(P, spec.alpha.partials(X))
    assert np.array_equal(b, spec.beta.value(X))
    assert np.array_equal(Jb, spec.beta.jacobian(X))


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
    spec.jet(X)
    spray(spec, X, Y)
    _time_scale(spec)
    assert _state(spec) == before
