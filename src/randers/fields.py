"""Domain geometry and the smooth-field catalog.

Every scenario is assembled from a small set of named field families
(constants, radial profiles, expression fields, potential bumps, constant
or gradient winds, rotational forms) so runs are exactly reproducible from
a short textual description.  All fields evaluate on batches of points:
``x`` may be a single point of shape (2,) or a stack of shape (m, 2), and
derivatives are analytic: closed forms for the fixed families, and
symbolic derivative trees of the expression (see
:meth:`randers.expressions.Expression.diff`) for expression fields, never
finite differences.

A field family implements one primitive, its planar component jet
``jet(x0, x1)`` on the coordinate arrays of m points (tuples nest as
described on each base class); scalar fields also implement
``gradient_jet``, the jet of their exact form.  Each component and
derivative of a jet is a C-contiguous (m,) array, or an ``np.float64``
scalar where the family's formula (or a folded expression tree) makes it
constant over the batch: a constant wind, a Euclidean metric, a zero
derivative.  Arithmetic on a jet therefore runs once per batch on what is
constant and per row only on what varies.  NumPy scalars, unlike Python
floats, follow the caller's ``np.errstate`` exactly as arrays do; powers
of jet components go through ``np.power``, which gives a scalar the bits an
array element gets, where a scalar's ``**`` may differ in the last place.
The base classes assemble every family's batch-first tensors (``value``,
``gradient``, ``hessian``, ``jacobian``, ``partials``) from that jet, in one
place each, broadcasting scalars against the batch, so a jet and the tensor
calls agree bit for bit.

The geodesic spray reads a metric and a 1-form through their jets alone;
:func:`jet_spray_terms` turns a metric's jet into its quadratic form, its
Riemannian spray and its inverse along planar directions.  A 1-form that
is closed by construction carries its ``potential``, a scalar field phi
with d phi = beta (None on every other form), which shooting reads to
trace alpha's rays and shift their times by phi.

Every field and metric also declares ``rotation_invariant``: True where the
family equals its own rotation about the origin (constants, radial profiles
and expressions in r alone, the bump, the zero and rotational forms, and
exact, scaled, summed or combined fields of such parts), False elsewhere.
It is a declaration of the family, never a numerical test; a spec built of
invariant parts lets ``distance_matrix`` shoot one row of D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Normalize planar input to an (m, 2) batch; second return flags a single point."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (2,) or x.ndim > 2:
        raise ValueError(f"points must have shape (2,) or (m, 2), got {x.shape}")
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def _pts_pair(x, y):
    """Points and directions as (m, 2) batches, a single one broadcast against
    the other; the third return flags that both are single."""
    (X, x_single), (Y, y_single) = _pts(x), _pts(y)
    if len(X) != len(Y) and not (x_single or y_single):
        raise ValueError(f"point batch {X.shape} and direction batch {Y.shape} differ in length")
    return *np.broadcast_arrays(X, Y), x_single and y_single


def _unbatch(arr, single):
    return arr[0] if single else arr


_ZERO = np.float64(0.0)   # a jet component that is zero over the batch


def _rows(v, m):
    """A jet component as an (m,) array: a scalar is repeated, an array passed through."""
    return np.full(m, v) if np.ndim(v) == 0 else v


def _vec(comps, m):
    """(m, 2) array from planar components (t0, t1), each an (m,) array or a scalar."""
    out = np.empty((m, 2))
    out[:, 0], out[:, 1] = comps
    return out


def _mat(rows, m):
    """(m, 2, 2) tensor from planar component rows ((t00, t01), (t10, t11))."""
    out = np.empty((m, 2, 2))
    (out[:, 0, 0], out[:, 0, 1]), (out[:, 1, 0], out[:, 1, 1]) = rows
    return out


def _sym(a, m):
    """(m, 2, 2) symmetric tensor from planar components (a00, a01, a11)."""
    a00, a01, a11 = a
    return _mat(((a00, a01), (a01, a11)), m)


def _full(v):
    """A jet component from an evaluated expression tree.

    A tree may fold to a plain number, which becomes an ``np.float64``, or
    return one of its input arrays, so an array result is always copied.
    """
    return np.float64(v) if np.ndim(v) == 0 else np.array(v, dtype=float)


_INSIDE_RTOL = 1e-9   # relative slack on the radius for points counted inside


@dataclass(frozen=True)
class Domain:
    """Closed planar disk of the given radius."""

    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"domain radius must be finite and positive, got {self.radius!r}")

    def boundary_defect(self, x):
        """Signed boundary function |x|^2 - R^2 (negative inside)."""
        x, single = _pts(x)
        return _unbatch(np.einsum("mi,mi->m", x, x) - self.radius ** 2, single)

    def contains(self, x):
        x, single = _pts(x)
        ok = np.linalg.norm(x, axis=1) <= self.radius * (1.0 + _INSIDE_RTOL)
        return _unbatch(ok, single)

    def require_inside(self, x):
        inside = np.atleast_1d(self.contains(x))
        if not inside.all():
            bad = np.atleast_2d(np.asarray(x, dtype=float))[~inside][0]
            raise DomainError(f"point {bad} lies outside the closed domain (R={self.radius})")

    def boundary_point(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self.radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)

    def describe(self):
        # "dim=2" stays in the description, which every spec hash covers
        return f"ball(R={self.radius!r},dim=2)"


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
    """Smooth scalar field; a family implements ``jet`` and ``gradient_jet``.

    ``value``, ``gradient`` and ``hessian`` are assembled from those planar
    jets here, so the tensor calls and the jets agree bit for bit.
    """

    # declared True by a family whose value is a function of |x| alone,
    # never detected numerically; distance_matrix reads it through the spec
    rotation_invariant = False

    def jet(self, x0, x1):
        """Planar jet (c, (d0 c, d1 c)) at the points (x0, x1)."""
        raise NotImplementedError

    def gradient_jet(self, x0, x1):
        """Planar jet of the gradient, ``((d0 c, d1 c), ((h00, h01), (h10, h11)))``.

        This is the layout of a 1-form jet, so it is the jet of the exact form d c.
        """
        raise NotImplementedError

    def value(self, x):
        x, single = _pts(x)
        return _unbatch(_rows(self.jet(x[:, 0], x[:, 1])[0], len(x)), single)

    def gradient(self, x):
        x, single = _pts(x)
        return _unbatch(_vec(self.jet(x[:, 0], x[:, 1])[1], len(x)), single)

    def hessian(self, x):
        x, single = _pts(x)
        return _unbatch(_mat(self.gradient_jet(x[:, 0], x[:, 1])[1], len(x)), single)

    def describe(self):
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantField(ScalarField):
    c: float
    rotation_invariant = True

    def jet(self, x0, x1):
        return np.float64(self.c), (_ZERO, _ZERO)

    def gradient_jet(self, x0, x1):
        return (_ZERO, _ZERO), ((_ZERO, _ZERO), (_ZERO, _ZERO))

    def profile(self, r):
        """The constant as a radial profile; its radial derivatives are zero."""
        return np.full(np.shape(r), self.c, dtype=float)

    def profile_pair(self, r):
        return self.profile(r), self.profile_d1(r)

    def profile_d1(self, r):
        return np.zeros(np.shape(r))

    profile_d2 = profile_d1

    def describe(self):
        return f"const({self.c!r})"


class ExprField(ScalarField):
    """Scalar field from an expression in x1, x2, r.

    Its partial derivatives along x1, x2 and r, first and second order, are
    expression trees built once at construction.  The gradient and Hessian
    chain r = |x| through dr/dx = x / r, with the unit vector x / r taken as
    zero at the origin; r is computed only when the expression uses it.
    """

    def __init__(self, expr):
        if isinstance(expr, str):
            expr = compile_expression(expr, allowed=("x1", "x2", "r"))
        self.expr = expr
        self.rotation_invariant = expr.variables <= {"r"}
        self.d1 = {v: expr.diff(v) for v in ("x1", "x2", "r")}
        self.d2 = {(a, b): self.d1[a].diff(b)
                   for a, b in (("x1", "x1"), ("x1", "x2"), ("x2", "x2"),
                                ("x1", "r"), ("x2", "r"), ("r", "r"))}

    def _env(self, x0, x1):
        """Variables at the points, and (x0 / r, x1 / r, 1 / r) or None without r."""
        env = {"x1": x0, "x2": x1}
        if "r" not in self.expr.variables:
            return env, None
        r = np.sqrt(x0 * x0 + x1 * x1)
        env["r"] = r
        safe = np.where(r > 0.0, r, np.inf)   # zero unit vector at the origin
        return env, (x0 / safe, x1 / safe, 1.0 / safe)

    def _grad(self, env, radial):
        g0, g1 = self.d1["x1"](**env), self.d1["x2"](**env)
        if radial is not None:
            gr = self.d1["r"](**env)
            u0, u1, _ = radial
            g0, g1 = g0 + gr * u0, g1 + gr * u1
        return _full(g0), _full(g1)

    def _hess(self, env, radial):
        """Planar Hessian components (h00, h01, h11)."""
        d2 = {k: e(**env) for k, e in self.d2.items()}
        h00, h01, h11 = d2["x1", "x1"], d2["x1", "x2"], d2["x2", "x2"]
        if radial is not None:
            u0, u1, inv_r = radial
            f0, f1, fr = d2["x1", "r"], d2["x2", "r"], self.d1["r"](**env)
            frr, fr_r = d2["r", "r"], fr * inv_r
            h00 = h00 + 2.0 * f0 * u0 + frr * u0 * u0 + fr_r * (1.0 - u0 * u0)
            h01 = h01 + f0 * u1 + f1 * u0 + (frr - fr_r) * u0 * u1
            h11 = h11 + 2.0 * f1 * u1 + frr * u1 * u1 + fr_r * (1.0 - u1 * u1)
        return _full(h00), _full(h01), _full(h11)

    def jet(self, x0, x1):
        env, radial = self._env(x0, x1)
        return _full(self.expr(**env)), self._grad(env, radial)

    def gradient_jet(self, x0, x1):
        env, radial = self._env(x0, x1)
        h00, h01, h11 = self._hess(env, radial)
        return self._grad(env, radial), ((h00, h01), (h01, h11))

    def describe(self):
        return f"expr({self.expr.source})"


class RadialProfile(ScalarField):
    """Radially symmetric field c(r) given by an expression in r alone.

    Exposes the 1D profile and its first two radial derivatives, which the
    Herglotz condition check and curvature evaluations need; the derivative
    trees are built once at construction.  In the plane, the unit vector
    x / r is taken as zero at the origin, and so are the gradient and Hessian.
    A profile with c'(0) != 0, such as 2 - r, is not smooth at the origin;
    distances between diametral boundary points, whose rays pass through
    it, reproduce to about 1e-12 (see the README's scope notes).
    """

    rotation_invariant = True

    def __init__(self, expr):
        if isinstance(expr, str):
            expr = compile_expression(expr, allowed=("r",))
        if not expr.variables <= {"r"}:
            raise ValueError("radial profile may only use the variable r")
        self.expr = expr
        self.d1 = expr.diff("r")
        self.d2 = self.d1.diff("r")

    # the profile calls return fresh arrays shaped like r, also where a
    # derivative tree folds to a number or is the bare r

    @staticmethod
    def _fresh(v, r):
        if isinstance(v, np.ndarray) and v is not r and v.dtype == float and v.shape == r.shape:
            return v
        return np.full(r.shape, v, dtype=float)

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        return self._fresh(self.expr(r=r), r)

    def profile_pair(self, r):
        """(c, dc/dr) at the radii r."""
        return self.profile(r), self.profile_d1(r)

    def profile_d1(self, r):
        r = np.asarray(r, dtype=float)
        return self._fresh(self.d1(r=r), r)

    def profile_d2(self, r):
        r = np.asarray(r, dtype=float)
        return self._fresh(self.d2(r=r), r)

    def jet(self, x0, x1):
        r = np.sqrt(x0 * x0 + x1 * x1)
        c, d1 = self.profile_pair(r)
        safe = np.where(r > 0.0, r, np.inf)  # zero unit vector at the origin
        return c, (d1 * (x0 / safe), d1 * (x1 / safe))

    def gradient_jet(self, x0, x1):
        """Hessian c'' u u^T + (c' / r)(I - u u^T) with u = x / r."""
        r = np.sqrt(x0 * x0 + x1 * x1)
        d1, d2 = self.profile_d1(r), self.profile_d2(r)
        safe = np.where(r > 0.0, r, np.inf)  # zero unit vector at the origin
        u0, u1, d1_r = x0 / safe, x1 / safe, d1 / safe
        h00 = d2 * (u0 * u0) + d1_r * (1.0 - u0 * u0)
        h01 = d2 * (u0 * u1) - d1_r * (u0 * u1)
        h11 = d2 * (u1 * u1) + d1_r * (1.0 - u1 * u1)
        h00, h01, h11 = (np.where(r > 0.0, h, 0.0) for h in (h00, h01, h11))
        return (d1 * u0, d1 * u1), ((h00, h01), (h01, h11))

    def describe(self):
        return f"radial({self.expr.source})"


@dataclass(frozen=True)
class PotentialBump(ScalarField):
    """phi = A (1 - |x|^2 / R^2); vanishes on the boundary of radius R."""

    amplitude: float
    radius: float
    rotation_invariant = True

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"bump radius must be positive, got {self.radius!r}")

    def jet(self, x0, x1):
        k = -2.0 * self.amplitude / self.radius ** 2
        c = self.amplitude * (1.0 - (x0 * x0 + x1 * x1) / self.radius ** 2)
        return c, (k * x0, k * x1)

    def gradient_jet(self, x0, x1):
        k = np.float64(-2.0 * self.amplitude / self.radius ** 2)
        return (k * x0, k * x1), ((k, _ZERO), (_ZERO, k))

    def describe(self):
        return f"bump(A={self.amplitude!r},R={self.radius!r})"


class LinearField(ScalarField):
    """phi = <b, x>, the potential of a constant 1-form b."""

    def __init__(self, components):
        self.components = np.asarray(components, dtype=float)

    def jet(self, x0, x1):
        b0, b1 = self.components
        return b0 * x0 + b1 * x1, (b0, b1)

    def gradient_jet(self, x0, x1):
        return tuple(self.components), ((_ZERO, _ZERO), (_ZERO, _ZERO))

    def describe(self):
        return f"linear({tuple(self.components)!r})"


class LinearCombination(ScalarField):
    """phi = sum k_i phi_i over (k_i, phi_i) terms: the potential of a scaled or summed form."""

    def __init__(self, *terms):
        self.terms = terms
        self.rotation_invariant = all(f.rotation_invariant for _, f in terms)

    def jet(self, x0, x1):
        c, g0, g1 = _ZERO, _ZERO, _ZERO
        for k, f in self.terms:
            v, (d0, d1) = f.jet(x0, x1)
            c, g0, g1 = c + k * v, g0 + k * d0, g1 + k * d1
        return c, (g0, g1)

    def gradient_jet(self, x0, x1):
        g0, g1, h00, h01, h11 = (_ZERO,) * 5
        for k, f in self.terms:
            (d0, d1), ((e00, e01), (_, e11)) = f.gradient_jet(x0, x1)
            g0, g1 = g0 + k * d0, g1 + k * d1
            h00, h01, h11 = h00 + k * e00, h01 + k * e01, h11 + k * e11
        return (g0, g1), ((h00, h01), (h01, h11))

    def describe(self):
        return "combination(" + ",".join(f"{k!r}*{f.describe()}" for k, f in self.terms) + ")"


# ---------------------------------------------------------------------------
# vector-valued fields (1-forms and winds share the same flat-coordinate data)


class VectorValuedField:
    """Smooth covector/vector field; a family implements ``jet``.

    Its planar jet is ``((b0, b1), ((d0 b0, d1 b0), (d0 b1, d1 b1)))``: the
    components, then one row of the jacobian per component.  ``value`` (m, n)
    and ``jacobian`` (m, n, n) with jacobian[m, i, j] = d_j comp_i are
    assembled from it here.
    """

    def jet(self, x0, x1):
        """Planar component jet at the points (x0, x1)."""
        raise NotImplementedError

    def value(self, x):
        x, single = _pts(x)
        return _unbatch(_vec(self.jet(x[:, 0], x[:, 1])[0], len(x)), single)

    def jacobian(self, x):
        x, single = _pts(x)
        return _unbatch(_mat(self.jet(x[:, 0], x[:, 1])[1], len(x)), single)

    def describe(self):
        raise NotImplementedError

    # a scalar field phi with d phi = this form when the form is closed by
    # construction (so J01 = J10 exactly), None for any other form
    potential = None
    # True for a family declared equal to its own rotation about the origin,
    # beta(R x)(R y) = beta(x)(y) for every rotation R; never detected numerically
    rotation_invariant = False

    @property
    def is_zero(self):
        return False


@dataclass(frozen=True)
class ZeroForm(VectorValuedField):
    potential = ConstantField(0.0)
    rotation_invariant = True

    def jet(self, x0, x1):
        return (_ZERO, _ZERO), ((_ZERO, _ZERO), (_ZERO, _ZERO))

    @property
    def is_zero(self):
        return True

    def describe(self):
        return "zero"


class ConstantForm(VectorValuedField):
    def __init__(self, components):
        self.components = np.asarray(components, dtype=float)
        if self.components.shape != (2,):
            raise ValueError(f"ConstantForm needs 2 components, got {self.components.tolist()!r}")
        self.potential = LinearField(self.components)

    def jet(self, x0, x1):
        b0, b1 = self.components
        return (b0, b1), ((_ZERO, _ZERO), (_ZERO, _ZERO))

    @property
    def is_zero(self):
        return not self.components.any()

    def describe(self):
        return f"const({tuple(self.components)!r})"


class ExactForm(VectorValuedField):
    """d(phi): exact 1-form (or gradient wind) of a scalar field."""

    def __init__(self, potential):
        self.potential = potential
        self.rotation_invariant = potential.rotation_invariant

    def jet(self, x0, x1):
        return self.potential.gradient_jet(x0, x1)

    def describe(self):
        return f"d({self.potential.describe()})"


@dataclass(frozen=True)
class RotationalForm(VectorValuedField):
    """strength/2 * (-x2, x1); exterior derivative equals strength everywhere."""

    strength: float
    rotation_invariant = True

    def jet(self, x0, x1):
        h = np.float64(0.5 * self.strength)
        return (h * -x1, h * x0), ((_ZERO, -h), (h, _ZERO))

    def describe(self):
        return f"rot({self.strength!r})"


class ComponentForm(VectorValuedField):
    """Components given by expressions in x1, x2, r."""

    def __init__(self, exprs):
        self.fields = [e if isinstance(e, ExprField) else ExprField(e) for e in exprs]
        if len(self.fields) != 2:
            raise ValueError(f"ComponentForm needs 2 components, got {len(self.fields)}")

    def jet(self, x0, x1):
        (b0, db0), (b1, db1) = (f.jet(x0, x1) for f in self.fields)
        return (b0, b1), (db0, db1)

    def describe(self):
        return "components(" + ",".join(f.expr.source for f in self.fields) + ")"


class ScaledForm(VectorValuedField):
    def __init__(self, base, factor):
        self.base = base
        self.factor = float(factor)
        self.rotation_invariant = base.rotation_invariant
        if base.potential is not None:
            self.potential = LinearCombination((self.factor, base.potential))

    def jet(self, x0, x1):
        (b0, b1), ((J00, J01), (J10, J11)) = self.base.jet(x0, x1)
        k = self.factor
        return (k * b0, k * b1), ((k * J00, k * J01), (k * J10, k * J11))

    @property
    def is_zero(self):
        return self.factor == 0.0 or self.base.is_zero

    def describe(self):
        return f"scaled({self.factor!r},{self.base.describe()})"


class SumForm(VectorValuedField):
    def __init__(self, *parts):
        self.parts = parts
        self.rotation_invariant = all(p.rotation_invariant for p in parts)
        if all(p.potential is not None for p in parts):
            self.potential = LinearCombination(*((1.0, p.potential) for p in parts))

    def jet(self, x0, x1):
        (b0, b1), ((J00, J01), (J10, J11)) = self.parts[0].jet(x0, x1)
        for p in self.parts[1:]:
            (c0, c1), ((K00, K01), (K10, K11)) = p.jet(x0, x1)
            b0, b1 = b0 + c0, b1 + c1
            J00, J01, J10, J11 = J00 + K00, J01 + K01, J10 + K10, J11 + K11
        return (b0, b1), ((J00, J01), (J10, J11))

    @property
    def is_zero(self):
        return all(p.is_zero for p in self.parts)

    def describe(self):
        return "sum(" + ",".join(p.describe() for p in self.parts) + ")"


# ---------------------------------------------------------------------------
# Riemannian metric fields


def jet_spray_terms(jet, y0, y1):
    """(A, (G0, G1), (i00, i01, i11)) of a metric from its planar jet, along (y0, y1).

    A = a(y, y), G is the spray of the metric's own geodesics (x'' + 2G = 0)
    and i holds the inverse metric components; each entry is an (m,) array
    or a scalar that broadcasts against one.  G = 1/2 a^-1 (Q - A_x / 2)
    with Q_l = y^k (d_k a y)_l and (A_x)_l = d_l a(y, y), through the
    explicit 2x2 inverse.
    """
    (a00, a01, a11), ((p000, p001, p011), (p100, p101, p111)) = jet
    ay0 = a00 * y0 + a01 * y1
    ay1 = a01 * y0 + a11 * y1
    A = ay0 * y0 + ay1 * y1
    q00 = p000 * y0 + p001 * y1   # qkl = (d_k a y)_l
    q01 = p001 * y0 + p011 * y1
    q10 = p100 * y0 + p101 * y1
    q11 = p101 * y0 + p111 * y1
    h0 = y0 * q00 + y1 * q10 - 0.5 * (q00 * y0 + q01 * y1)
    h1 = y0 * q01 + y1 * q11 - 0.5 * (q10 * y0 + q11 * y1)
    inv_det = 1.0 / (a00 * a11 - a01 * a01)
    i00, i01, i11 = a11 * inv_det, -a01 * inv_det, a00 * inv_det
    G0 = 0.5 * (i00 * h0 + i01 * h1)
    G1 = 0.5 * (i01 * h0 + i11 * h1)
    return A, (G0, G1), (i00, i01, i11)


class MetricField:
    """Symmetric positive-definite metric; a family implements ``jet``.

    Its planar jet is ``((a00, a01, a11), (d0, d1))`` with
    ``dk = (dk a00, dk a01, dk a11)``.  ``value`` (m, n, n) and ``partials``
    (m, n, n, n), with ``partials(x)[m, k, i, j]`` the derivative of g_ij
    along coordinate k, are assembled from it here.
    """

    # the speed c of a metric g = c^-2 e (a ScalarField), None for any other
    # metric; shooting reads it to trace rays of the dual norm c|p|
    conformal_speed = None
    # True for a metric declared equal to its own rotation about the origin
    rotation_invariant = False

    def jet(self, x0, x1):
        """Planar component jet at the points (x0, x1)."""
        raise NotImplementedError

    def value(self, x):
        x, single = _pts(x)
        return _unbatch(_sym(self.jet(x[:, 0], x[:, 1])[0], len(x)), single)

    def partials(self, x):
        x, single = _pts(x)
        d0, d1 = self.jet(x[:, 0], x[:, 1])[1]
        return _unbatch(np.stack([_sym(d0, len(x)), _sym(d1, len(x))], axis=1), single)

    def describe(self):
        raise NotImplementedError


@dataclass(frozen=True)
class EuclideanMetric(MetricField):
    conformal_speed = ConstantField(1.0)
    rotation_invariant = True

    def jet(self, x0, x1):
        one = np.float64(1.0)
        return (one, _ZERO, one), ((_ZERO, _ZERO, _ZERO), (_ZERO, _ZERO, _ZERO))

    def describe(self):
        return "euclidean(dim=2)"


class ConformalMetric(MetricField):
    """g = c^-2 * euclidean for a sound-speed field c.

    Every call evaluates the speed's planar jet once: lam = c^-2 and
    d lam = -2 c^-3 grad c.
    """

    def __init__(self, speed):
        self.speed = speed

    @property
    def conformal_speed(self):
        return self.speed

    @property
    def rotation_invariant(self):
        return self.speed.rotation_invariant

    def jet(self, x0, x1):
        c, (c_0, c_1) = self.speed.jet(x0, x1)
        lam = np.power(c, -2)
        dfac = -2.0 * np.power(c, -3)  # d(c^-2)/dc
        lam_0, lam_1 = dfac * c_0, dfac * c_1
        return (lam, _ZERO, lam), ((lam_0, _ZERO, lam_0), (lam_1, _ZERO, lam_1))

    def describe(self):
        return f"conformal({self.speed.describe()})"
