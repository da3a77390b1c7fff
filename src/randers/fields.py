"""Domain geometry and the smooth-field catalog.

Every scenario is assembled from a small set of named field families
(constants, radial profiles, expression fields, potential bumps, constant
or gradient winds, rotational forms) so runs are exactly reproducible from
a short textual description.  All fields evaluate on batches of points:
``x`` may be a single point of shape (n,) or a stack of shape (m, n), and
derivative rules are analytic or dual-number based, never finite
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dual import Dual, DualHess, seed_dual, seed_dual2, seed_hess
from .errors import DomainError
from .expressions import compile_expression

__all__ = [
    "Domain", "disk_grid", "circle_directions",
    "ScalarField", "ConstantField", "ExprField", "RadialProfile", "PotentialBump",
    "VectorValuedField", "ZeroForm", "ConstantForm", "ExactForm", "RotationalForm",
    "ComponentForm", "ScaledForm", "SumForm",
    "MetricField", "EuclideanMetric", "ConformalMetric",
]

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def _pts(x):
    """Normalize to an (m, n) batch; second return flags single-point input."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim != 2:
        raise ValueError(f"points must have shape (n,) or (m, n), got {x.shape}")
    return x, False


def _unbatch(arr, single):
    return arr[0] if single else arr


def _safe_radial(x):
    """(r, x/r) with the unit vector zeroed at the origin."""
    r = np.sqrt(np.einsum("...i,...i->...", x, x))
    safe = np.where(r > 0.0, r, 1.0)
    unit = x / safe[..., None]
    unit[r == 0.0] = 0.0
    return r, unit


@dataclass(frozen=True)
class Domain:
    """Closed disk of given radius; ``dimension`` is always 2 (the pipeline is planar)."""

    radius: float
    dimension: int = 2

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("domain radius must be positive")
        if self.dimension != 2:
            raise ValueError("domain dimension must be 2; only planar disks are supported")

    def boundary_defect(self, x):
        """Signed boundary function |x|^2 - R^2 (negative inside)."""
        x, single = _pts(x)
        return _unbatch(np.einsum("mi,mi->m", x, x) - self.radius ** 2, single)

    def contains(self, x, rtol=1e-9):
        x, single = _pts(x)
        ok = np.linalg.norm(x, axis=1) <= self.radius * (1.0 + rtol)
        return _unbatch(ok, single)

    def require_inside(self, x, rtol=1e-9, what="point"):
        inside = np.atleast_1d(self.contains(x, rtol))
        if not inside.all():
            bad = np.atleast_2d(np.asarray(x, dtype=float))[~inside][0]
            raise DomainError(f"{what} {bad} lies outside the closed domain (R={self.radius})")

    def boundary_point(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self.radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)

    def boundary_angle(self, x):
        x = np.asarray(x, dtype=float)
        return np.arctan2(x[..., 1], x[..., 0]) % (2.0 * math.pi)

    def describe(self):
        return f"ball(R={self.radius!r},dim={self.dimension})"


def disk_grid(domain, count=1000):
    """Deterministic quasi-uniform interior grid (sunflower layout)."""
    k = np.arange(count, dtype=float)
    r = domain.radius * np.sqrt((k + 0.5) / count)
    th = k * _GOLDEN_ANGLE
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def circle_directions(count=16):
    th = 2.0 * math.pi * np.arange(count) / count
    return np.column_stack([np.cos(th), np.sin(th)])


# ---------------------------------------------------------------------------
# scalar fields


class ScalarField:
    """Smooth scalar field with analytic/dual gradient and Hessian rules."""

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    def hessian(self, x):
        raise NotImplementedError

    def value_and_gradient(self, x):
        """Single-pass (value, gradient); overridden where one pass is cheaper."""
        return self.value(x), self.gradient(x)

    def describe(self):
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantField(ScalarField):
    c: float

    def value(self, x):
        x, single = _pts(x)
        return _unbatch(np.full(x.shape[0], self.c), single)

    def gradient(self, x):
        x, single = _pts(x)
        return _unbatch(np.zeros_like(x), single)

    def hessian(self, x):
        x, single = _pts(x)
        m, n = x.shape
        return _unbatch(np.zeros((m, n, n)), single)

    def describe(self):
        return f"const({self.c!r})"


class ExprField(ScalarField):
    """Scalar field from an expression in x1, x2, r."""

    def __init__(self, expr):
        if isinstance(expr, str):
            expr = compile_expression(expr, allowed=("x1", "x2", "r"))
        self.expr = expr

    def _env_plain(self, x):
        env = {"x1": x[:, 0], "x2": x[:, 1]}
        if "r" in self.expr.variables:
            env["r"] = np.linalg.norm(x, axis=1)
        return env

    def value(self, x):
        x, single = _pts(x)
        v = self.expr(**self._env_plain(x))
        return _unbatch(np.broadcast_to(np.asarray(v, dtype=float), (x.shape[0],)).copy(), single)

    def gradient(self, x):
        return self.value_and_gradient(x)[1]

    def value_and_gradient(self, x):
        x, single = _pts(x)
        x1, x2 = seed_dual(x)
        env = {"x1": x1, "x2": x2}
        if "r" in self.expr.variables:
            r, unit = _safe_radial(x)
            env["r"] = Dual(r, unit)
        out = self.expr(**env)
        if not isinstance(out, Dual):
            val = np.broadcast_to(np.asarray(out, dtype=float), (x.shape[0],)).copy()
            return _unbatch(val, single), _unbatch(np.zeros_like(x), single)
        val = np.broadcast_to(out.val, (x.shape[0],)).copy()
        grad = np.broadcast_to(out.grad, x.shape).copy()
        return _unbatch(val, single), _unbatch(grad, single)

    def hessian(self, x):
        x, single = _pts(x)
        x1, x2 = seed_hess(x)
        env = {"x1": x1, "x2": x2}
        if "r" in self.expr.variables:
            r, unit = _safe_radial(x)
            eye = np.eye(2)[None, :, :]
            rr = np.where(r > 0.0, r, 1.0)
            hess = (eye - unit[:, :, None] * unit[:, None, :]) / rr[:, None, None]
            hess[r == 0.0] = 0.0
            env["r"] = DualHess(r, unit, hess)
        out = self.expr(**env)
        m, n = x.shape
        if not isinstance(out, DualHess):
            return _unbatch(np.zeros((m, n, n)), single)
        return _unbatch(np.broadcast_to(out.hess, (m, n, n)).copy(), single)

    def describe(self):
        return f"expr({self.expr.source})"


class RadialProfile(ScalarField):
    """Radially symmetric field c(r) given by an expression in r alone.

    Exposes the 1D profile and its first two radial derivatives, which the
    Herglotz condition check and curvature evaluations need.
    """

    def __init__(self, expr):
        if isinstance(expr, str):
            expr = compile_expression(expr, allowed=("r",))
        if not expr.variables <= {"r"}:
            raise ValueError("radial profile may only use the variable r")
        self.expr = expr

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        return np.broadcast_to(np.asarray(self.expr(r=r), dtype=float), r.shape).copy()

    def profile_pair(self, r):
        """(c, dc/dr) in a single jet pass."""
        r = np.asarray(r, dtype=float)
        out = self.expr(r=seed_dual2(r))
        from .dual import Dual2

        if not isinstance(out, Dual2):
            return np.broadcast_to(np.asarray(out, dtype=float), r.shape).copy(), np.zeros_like(r)
        return (np.broadcast_to(out.val, r.shape).copy(),
                np.broadcast_to(out.d1, r.shape).copy())

    def profile_d1(self, r):
        return self.profile_pair(r)[1]

    def profile_d2(self, r):
        r = np.asarray(r, dtype=float)
        out = self.expr(r=seed_dual2(r))
        from .dual import Dual2

        if not isinstance(out, Dual2):
            return np.zeros_like(r)
        return np.broadcast_to(out.d2, r.shape).copy()

    def value(self, x):
        x, single = _pts(x)
        return _unbatch(self.profile(np.linalg.norm(x, axis=1)), single)

    def gradient(self, x):
        x, single = _pts(x)
        r, unit = _safe_radial(x)
        return _unbatch(self.profile_d1(r)[:, None] * unit, single)

    def value_and_gradient(self, x):
        x, single = _pts(x)
        r, unit = _safe_radial(x)
        c, d1 = self.profile_pair(r)
        return _unbatch(c, single), _unbatch(d1[:, None] * unit, single)

    def hessian(self, x):
        x, single = _pts(x)
        r, unit = _safe_radial(x)
        d1, d2 = self.profile_d1(r), self.profile_d2(r)
        eye = np.eye(x.shape[1])[None]
        outer = unit[:, :, None] * unit[:, None, :]
        rr = np.where(r > 0.0, r, 1.0)
        hess = d2[:, None, None] * outer + (d1 / rr)[:, None, None] * (eye - outer)
        hess[r == 0.0] = 0.0
        return _unbatch(hess, single)

    def describe(self):
        return f"radial({self.expr.source})"


@dataclass(frozen=True)
class PotentialBump(ScalarField):
    """phi = A (1 - |x|^2 / R^2); vanishes on the boundary of radius R."""

    amplitude: float
    radius: float

    def value(self, x):
        x, single = _pts(x)
        r2 = np.einsum("mi,mi->m", x, x)
        return _unbatch(self.amplitude * (1.0 - r2 / self.radius ** 2), single)

    def gradient(self, x):
        x, single = _pts(x)
        return _unbatch((-2.0 * self.amplitude / self.radius ** 2) * x, single)

    def hessian(self, x):
        x, single = _pts(x)
        m, n = x.shape
        h = np.broadcast_to((-2.0 * self.amplitude / self.radius ** 2) * np.eye(n), (m, n, n)).copy()
        return _unbatch(h, single)

    def describe(self):
        return f"bump(A={self.amplitude!r},R={self.radius!r})"


# ---------------------------------------------------------------------------
# vector-valued fields (1-forms and winds share the same flat-coordinate data)


class VectorValuedField:
    """Smooth covector/vector field: value (m, n), jacobian[m, i, j] = d_j comp_i."""

    dim = 2

    def value(self, x):
        raise NotImplementedError

    def jacobian(self, x):
        raise NotImplementedError

    def value_and_jacobian(self, x):
        """(value, jacobian); overridden where one pass is cheaper."""
        return self.value(x), self.jacobian(x)

    def describe(self):
        raise NotImplementedError

    @property
    def is_zero(self):
        return False


@dataclass(frozen=True)
class ZeroForm(VectorValuedField):
    dim: int = 2

    def value(self, x):
        x, single = _pts(x)
        return _unbatch(np.zeros_like(x), single)

    def jacobian(self, x):
        x, single = _pts(x)
        m, n = x.shape
        return _unbatch(np.zeros((m, n, n)), single)

    @property
    def is_zero(self):
        return True

    def describe(self):
        return "zero"


class ConstantForm(VectorValuedField):
    def __init__(self, components):
        self.components = np.asarray(components, dtype=float)
        self.dim = len(self.components)

    def value(self, x):
        x, single = _pts(x)
        return _unbatch(np.broadcast_to(self.components, x.shape).copy(), single)

    def jacobian(self, x):
        x, single = _pts(x)
        m, n = x.shape
        return _unbatch(np.zeros((m, n, n)), single)

    @property
    def is_zero(self):
        return not self.components.any()

    def describe(self):
        return f"const({tuple(self.components)!r})"


class ExactForm(VectorValuedField):
    """d(phi): exact 1-form (or gradient wind) of a scalar field."""

    def __init__(self, potential):
        self.potential = potential

    def value(self, x):
        return self.potential.gradient(x)

    def jacobian(self, x):
        return self.potential.hessian(x)

    def describe(self):
        return f"d({self.potential.describe()})"


@dataclass(frozen=True)
class RotationalForm(VectorValuedField):
    """strength/2 * (-x2, x1); exterior derivative equals strength everywhere."""

    strength: float

    def value(self, x):
        x, single = _pts(x)
        v = 0.5 * self.strength * np.column_stack([-x[:, 1], x[:, 0]])
        return _unbatch(v, single)

    def jacobian(self, x):
        x, single = _pts(x)
        m = x.shape[0]
        j = np.broadcast_to(0.5 * self.strength * np.array([[0.0, -1.0], [1.0, 0.0]]), (m, 2, 2)).copy()
        return _unbatch(j, single)

    def describe(self):
        return f"rot({self.strength!r})"


class ComponentForm(VectorValuedField):
    """Components given by expressions in x1, x2, r."""

    def __init__(self, exprs):
        self.fields = [e if isinstance(e, ExprField) else ExprField(e) for e in exprs]
        self.dim = len(self.fields)

    def value(self, x):
        x, single = _pts(x)
        v = np.column_stack([f.value(x) for f in self.fields])
        return _unbatch(v, single)

    def jacobian(self, x):
        x, single = _pts(x)
        j = np.stack([f.gradient(x) for f in self.fields], axis=1)
        return _unbatch(j, single)

    def describe(self):
        return "components(" + ",".join(f.expr.source for f in self.fields) + ")"


class ScaledForm(VectorValuedField):
    def __init__(self, base, factor):
        self.base = base
        self.factor = float(factor)
        self.dim = base.dim

    def value(self, x):
        return self.factor * self.base.value(x)

    def jacobian(self, x):
        return self.factor * self.base.jacobian(x)

    @property
    def is_zero(self):
        return self.factor == 0.0 or self.base.is_zero

    def describe(self):
        return f"scaled({self.factor!r},{self.base.describe()})"


class SumForm(VectorValuedField):
    def __init__(self, *parts):
        self.parts = parts
        self.dim = parts[0].dim

    def value(self, x):
        out = self.parts[0].value(x)
        for p in self.parts[1:]:
            out = out + p.value(x)
        return out

    def jacobian(self, x):
        out = self.parts[0].jacobian(x)
        for p in self.parts[1:]:
            out = out + p.jacobian(x)
        return out

    @property
    def is_zero(self):
        return all(p.is_zero for p in self.parts)

    def describe(self):
        return "sum(" + ",".join(p.describe() for p in self.parts) + ")"


# ---------------------------------------------------------------------------
# Riemannian metric fields


class MetricField:
    """Symmetric positive-definite metric with analytic spatial partials.

    ``partials(x)[m, k, i, j]`` is the derivative of g_ij along coordinate k.
    """

    flavor = "general"
    dim = 2

    def value(self, x):
        raise NotImplementedError

    def partials(self, x):
        raise NotImplementedError

    def value_and_partials(self, x):
        """(value, partials); overridden where one pass is cheaper."""
        return self.value(x), self.partials(x)

    def describe(self):
        raise NotImplementedError


@dataclass(frozen=True)
class EuclideanMetric(MetricField):
    dim: int = 2
    flavor: str = field(default="euclidean", init=False)

    def value(self, x):
        x, single = _pts(x)
        m, n = x.shape
        return _unbatch(np.broadcast_to(np.eye(n), (m, n, n)).copy(), single)

    def partials(self, x):
        x, single = _pts(x)
        m, n = x.shape
        return _unbatch(np.zeros((m, n, n, n)), single)

    def describe(self):
        return f"euclidean(dim={self.dim})"


class ConformalMetric(MetricField):
    """g = c^-2 * euclidean for a sound-speed field c.

    Every call evaluates the speed and its gradient in one pass; geodesic
    right-hand sides take value and partials together through
    ``value_and_partials``.
    """

    def __init__(self, speed, dim=2):
        self.speed = speed
        self.dim = dim
        self.flavor = "conformal-radial" if isinstance(speed, (RadialProfile, ConstantField)) else "conformal"

    def value(self, x):
        x, single = _pts(x)
        c, _ = self.speed.value_and_gradient(x)
        return _unbatch(_conformal_value(c, x.shape[1]), single)

    def partials(self, x):
        x, single = _pts(x)
        c, dc = self.speed.value_and_gradient(x)
        return _unbatch(_conformal_partials(c, dc), single)

    def value_and_partials(self, x):
        x, single = _pts(x)
        c, dc = self.speed.value_and_gradient(x)
        return (_unbatch(_conformal_value(c, x.shape[1]), single),
                _unbatch(_conformal_partials(c, dc), single))

    def describe(self):
        return f"conformal({self.speed.describe()})"


def _conformal_value(c, n):
    g = np.zeros((c.shape[0], n, n))
    idx = np.arange(n)
    g[:, idx, idx] = (c ** -2)[:, None]
    return g


def _conformal_partials(c, dc):
    m, n = dc.shape
    dfac = -2.0 * c ** -3  # d(c^-2)/dc
    p = np.zeros((m, n, n, n))
    idx = np.arange(n)
    p[:, :, idx, idx] = (dfac[:, None] * dc)[:, :, None]
    return p
