"""Randers norms F = sqrt(a_ij y^i y^j) + b_i y^i and their pointwise ops.

A :class:`RandersSpec` bundles the domain, the Riemannian part, and the
1-form part, and certifies at construction how far the 1-form is from the
validity boundary |b|_a* = 1 on a fixed quasi-uniform probe grid.  A spec
with non-positive margin can still be inspected and validated, but it
refuses evaluation and every downstream solver refuses to start from it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from ._tables import write_table
from .errors import DegenerateInputError, DomainError, InvalidNormError
from .fields import (MetricField, ScaledForm, ZeroForm, _pts, _pts_pair, _rows, _sym,
                     _unbatch, circle_directions, disk_grid)

__all__ = [
    "RandersSpec", "ValidityReport", "LengthParts",
    "riemannian_norm", "dual_norm", "validate_norm", "fundamental_tensor",
    "curve_length", "reverse_norm", "closedness_residual",
]

MARGIN_GRID_SIZE = 1000  # fixed interior probe grid for |b|_a* certification


# ---------------------------------------------------------------------------
# planar component algebra: every pointwise quantity of a Randers norm is
# computed here from the planar jets of alpha and beta, with a = (a00, a01,
# a11) and b = (b0, b1) one (m,) array per component; a jet component that
# is a scalar (constant over the batch) is repeated to the batch length


def _alpha_at(alpha, X):
    """Components (a00, a01, a11) of a metric field at the points X (m, 2)."""
    return tuple(_rows(v, len(X)) for v in alpha.jet(X[:, 0], X[:, 1])[0])


def _beta_at(beta, X):
    """Components (b0, b1) of a 1-form or wind at the points X (m, 2); None when zero."""
    if beta.is_zero:
        return None
    return tuple(_rows(v, len(X)) for v in beta.jet(X[:, 0], X[:, 1])[0])


def _quad(a, y0, y1):
    """a(y, y)."""
    a00, a01, a11 = a
    return (a00 * y0 + a01 * y1) * y0 + (a01 * y0 + a11 * y1) * y1


def _inv_form(a, v, w):
    """a^-1(v, w) through the explicit 2x2 inverse."""
    a00, a01, a11 = a
    (v0, v1), (w0, w1) = v, w
    return (v0 * (a11 * w0 - a01 * w1) + v1 * (a00 * w1 - a01 * w0)) / (a00 * a11 - a01 * a01)


def _dF_dy(a, b, y0, y1):
    """(alpha, ell, dF/dy) along y: alpha = sqrt(a(y, y)), ell = a y / alpha, dF/dy = ell + b."""
    a00, a01, a11 = a
    ay0, ay1 = a00 * y0 + a01 * y1, a01 * y0 + a11 * y1
    al = np.sqrt(ay0 * y0 + ay1 * y1)
    ell = (ay0 / al, ay1 / al)
    return al, ell, ell if b is None else (ell[0] + b[0], ell[1] + b[1])


class RandersSpec:
    """A Randers norm on a closed ball, with a grid-certified validity margin."""

    def __init__(self, domain, alpha, beta=None):
        self.domain = domain
        self.alpha = alpha
        self.beta = beta if beta is not None else ZeroForm()
        grid = disk_grid(domain, MARGIN_GRID_SIZE)
        b = _beta_at(self.beta, grid)
        cov = 0.0 if b is None else _inv_form(_alpha_at(alpha, grid), b, b).max()
        self.sup_beta = float(np.sqrt(max(cov, 0.0)))
        self.margin = 1.0 - self.sup_beta
        self._hash = hashlib.sha256(self.describe().encode()).hexdigest()[:12]

    # -- identification ----------------------------------------------------

    def describe(self):
        return (f"randers(domain={self.domain.describe()},"
                f"alpha={self.alpha.describe()},beta={self.beta.describe()})")

    @property
    def spec_hash(self):
        return self._hash

    @property
    def is_reversible(self):
        return self.beta.is_zero

    @property
    def rotation_invariant(self):
        """True when alpha and beta are both declared rotation-invariant about the
        domain's centre, so D at equispaced samples is circulant."""
        return self.alpha.rotation_invariant and self.beta.rotation_invariant

    @property
    def is_valid(self):
        return self.margin > 0.0

    def require_valid(self):
        if not self.is_valid:
            raise InvalidNormError(
                f"randers spec has grid margin {self.margin:.3g} <= 0 "
                f"(sup |beta| = {self.sup_beta:.3g}); refusing to evaluate")

    # -- evaluation ---------------------------------------------------------

    def _raw_norm(self, x, y):
        """F without validity or domain checks; x, y batched (m, 2)."""
        y0, y1 = y[:, 0], y[:, 1]
        out = np.sqrt(np.maximum(_quad(_alpha_at(self.alpha, x), y0, y1), 0.0))
        b = _beta_at(self.beta, x)
        return out if b is None else out + (b[0] * y0 + b[1] * y1)

    def norm(self, x, y):
        """Evaluate F(x, y); accepts single points or batches."""
        self.require_valid()
        X, Y, single = _pts_pair(x, y)
        self.domain.require_inside(X)
        return _unbatch(self._raw_norm(X, Y), single)

    def _cotangent_fields(self):
        """(c, W, b, phi): F = F(c, W) + b, the navigation norm of speed c and
        wind W plus a 1-form b (None when zero), whose dual norm rays integrate.
        A conformal alpha = |y| / c (Euclidean: c = 1) gives (c, None, beta) and
        beta's ``potential`` phi, by which shooting may shift alpha's times; a
        ``NavigationMetric``, the only other alpha, its ``navigation(beta)``."""
        speed = self.alpha.conformal_speed
        if speed is None:
            return (*self.alpha.navigation(self.beta), None)
        return speed, None, None if self.beta.is_zero else self.beta, self.beta.potential

    def reverse(self):
        """Spec of the reversed norm F(x, -y): same metric, negated 1-form."""
        beta = ZeroForm() if self.beta.is_zero else ScaledForm(self.beta, -1.0)
        return RandersSpec(self.domain, self.alpha, beta)


# ---------------------------------------------------------------------------
# module-level operations


def riemannian_norm(metric, x, y, domain=None):
    """sqrt(g_ij(x) y^i y^j); zero vectors allowed."""
    X, Y, single = _pts_pair(x, y)
    if domain is not None:
        domain.require_inside(X)
    quad = _quad(_alpha_at(metric, X), Y[:, 0], Y[:, 1])
    return _unbatch(np.sqrt(np.maximum(quad, 0.0)), single)


def dual_norm(obj, x, omega):
    """Dual norm F*(x, omega) = sup { omega(y) : F(x, y) = 1 }.

    A Randers norm is the navigation norm of h = lam (a - b b) under the
    wind W = -a^-1 b / lam, with lam = 1 - |b|_a*^2 (Zermelo's
    correspondence), so F*(w) = |w|_h* + w(W), which is
    (sqrt(lam |w|_a*^2 + <b, w>_a*^2) - <b, w>_a*) / lam.  A metric field
    is the case b = 0: sqrt(g^ij w_i w_j).
    """
    X, W, single = _pts_pair(x, omega)
    if isinstance(obj, MetricField):
        a, b = _alpha_at(obj, X), (0.0, 0.0)
    else:
        obj.require_valid()
        obj.domain.require_inside(X)
        a, b = _alpha_at(obj.alpha, X), _beta_at(obj.beta, X) or (0.0, 0.0)
    w = (W[:, 0], W[:, 1])
    ww = _inv_form(a, w, w)
    bw = _inv_form(a, b, w)
    lam = 1.0 - _inv_form(a, b, b)
    if np.any(lam <= 0.0):
        k = int(np.argmax(lam <= 0.0))
        raise InvalidNormError(
            f"|beta|_alpha* = {math.sqrt(1.0 - lam[k]):.3g} >= 1 at point {X[k]}; "
            f"the dual norm is undefined there (grid margin {obj.margin:.3g})")
    return _unbatch((np.sqrt(np.maximum(lam * ww + bw * bw, 0.0)) - bw) / lam, single)


# -- fundamental tensor ------------------------------------------------------


def _fundamental(spec, X, Y):
    """Closed-form fundamental tensor (g00, g01, g11) and its smallest eigenvalue.

    g = (F / alpha)(a - ell ell^T) + (ell + b)(ell + b)^T with ell = a y / alpha
    (Bao, Chern and Shen, section 11.1), and det g = (F / alpha)^3 det a.  The
    eigenvalue 2 det g / (tr g + sqrt((g00 - g11)^2 + 4 g01^2)) keeps its
    precision when it is small and when it is nearly double.
    """
    a, b = _alpha_at(spec.alpha, X), _beta_at(spec.beta, X)
    y0, y1 = Y[:, 0], Y[:, 1]
    al, (l0, l1), (p0, p1) = _dF_dy(a, b, y0, y1)
    k = 1.0 if b is None else (al + (b[0] * y0 + b[1] * y1)) / al   # F / alpha
    a00, a01, a11 = a
    g00 = k * (a00 - l0 * l0) + p0 * p0
    g01 = k * (a01 - l0 * l1) + p0 * p1
    g11 = k * (a11 - l1 * l1) + p1 * p1
    det = k ** 3 * (a00 * a11 - a01 * a01)
    den = (g00 + g11) + np.hypot(g00 - g11, 2.0 * g01)
    # den = 0 only where g = 0 (F = 0 and dF/dy = 0 on the validity boundary)
    eigmin = np.divide(2.0 * det, den, out=np.zeros_like(den), where=den > 0.0)
    return (g00, g01, g11), eigmin


def _nonzero_directions(Y):
    """Reject zero directions (F is not smooth at y = 0), naming the first one."""
    zero = ~Y.any(axis=1)
    if zero.any():
        raise DegenerateInputError(f"direction {int(np.argmax(zero))} is zero; the fundamental "
                                   "tensor is undefined at y = 0 (F is not smooth there)")


def fundamental_tensor(spec, x, y):
    """Local metric g_ij(x, y) = 1/2 d^2(F^2)/dy_i dy_j, in closed form."""
    X, Y, single = _pts_pair(x, y)
    _nonzero_directions(Y)
    spec.domain.require_inside(X)
    g, _ = _fundamental(spec, X, Y)
    return _unbatch(_sym(g, len(X)), single)


# -- validity ----------------------------------------------------------------


@dataclass
class ValidityReport:
    passed: bool
    beta_margin: float
    positivity_min: float
    homogeneity_max_rel: float
    convexity_min_eig: float
    probe_count: int
    flagged: list

    def summary(self):
        state = "PASS" if self.passed else "FAIL"
        return (f"{state}: margin={self.beta_margin:.3g} positivity_min={self.positivity_min:.3g} "
                f"homogeneity_max={self.homogeneity_max_rel:.3g} convexity_min={self.convexity_min_eig:.3g} "
                f"flags={len(self.flagged)}/{self.probe_count}")

    def to_csv(self, path):
        names = ["beta_margin", "positivity_min", "homogeneity_max_rel", "convexity_min_eig"]
        write_table(path, f"validity passed={self.passed} probes={self.probe_count} "
                          "units=dimensionless", ["quantity", "value"],
                    names, [getattr(self, name) for name in names])


def validate_norm(spec, probes=None):
    """Check positivity, degree-1 homogeneity, and convexity on a probe set.

    ``probes`` is an optional ``(points, directions)`` pair; the default is
    a 100-point interior grid crossed with 16 unit directions.  Works on
    invalid specs too (that is the point of the check).
    """
    if probes is None:
        probes = disk_grid(spec.domain, 100), circle_directions(16)
    points, dirs = (_pts(p)[0] for p in probes)
    if len(points) == 0 or len(dirs) == 0:
        raise ValueError("probe set must be nonempty")
    _nonzero_directions(dirs)

    p, q = len(points), len(dirs)
    X = np.repeat(points, q, axis=0)
    Y = np.tile(dirs, (p, 1))

    f1 = spec._raw_norm(X, Y)
    positivity_min = float(f1.min())

    hom = 0.0
    for lam in (0.5, 2.0):
        fl = spec._raw_norm(X, lam * Y)
        rel = np.abs(fl - lam * f1) / np.maximum(np.abs(lam * f1), 1e-300)
        hom = max(hom, float(rel.max()))

    _, eigmin = _fundamental(spec, X, Y)
    convexity_min = float(eigmin.min())

    flagged = [{"point": X[i].tolist(), "direction": Y[i].tolist(),
                "norm": float(f1[i]), "convexity": float(eigmin[i])}
               for i in np.nonzero((f1 <= 0.0) | (eigmin <= 0.0))[0]]

    passed = (spec.margin > 0.0 and positivity_min > 0.0
              and convexity_min > 0.0 and hom <= 1e-10)
    return ValidityReport(passed, spec.margin, positivity_min, hom,
                          convexity_min, p * q, flagged)


# -- lengths -----------------------------------------------------------------

# 4-point Gauss-Legendre nodes/weights on [0, 1]
_GL_T, _GL_W = np.polynomial.legendre.leggauss(4)
_GL_T = 0.5 * (_GL_T + 1.0)
_GL_W = 0.5 * _GL_W


@dataclass(frozen=True)
class LengthParts:
    total: float
    riemannian: float
    oneform: float


def curve_length(spec, curve):
    """F-length of a polyline or stored path, split into its two parts.

    Returns ``LengthParts(total, riemannian, oneform)`` with
    total = riemannian + oneform exactly; each part is a composite 4-point
    Gauss-Legendre quadrature per segment accumulated with exact rounding.
    """
    spec.require_valid()
    verts, _ = _pts(getattr(curve, "x", curve))
    if verts.shape[0] < 2:
        raise ValueError("curve must have at least two vertices")
    seg_a, seg_b = verts[:-1], verts[1:]
    seg_v = seg_b - seg_a

    # orientation-canonical quadrature nodes: node positions depend only on
    # the segment as a set, so reversing the polyline evaluates the fields
    # at bitwise-identical points and int(beta) negates exactly
    swap = (seg_a[:, 0] > seg_b[:, 0]) | ((seg_a[:, 0] == seg_b[:, 0]) & (seg_a[:, 1] > seg_b[:, 1]))
    lo = np.where(swap[:, None], seg_b, seg_a)
    hi = np.where(swap[:, None], seg_a, seg_b)
    Xq = lo[:, None, :] + _GL_T[None, :, None] * (hi - lo)[:, None, :]
    Xf = Xq.reshape(-1, 2)
    inside = spec.domain.contains(Xf)
    if not inside.all():
        k = int(np.nonzero(~inside)[0][0])
        t_param = k // 4 + _GL_T[k % 4]
        raise DomainError(f"curve exits the domain near parameter {t_param:.6g} "
                          f"(segment {k // 4}, point {Xf[k]})")

    v0, v1 = np.repeat(seg_v[:, 0], 4), np.repeat(seg_v[:, 1], 4)
    riem_terms = np.sqrt(np.maximum(_quad(_alpha_at(spec.alpha, Xf), v0, v1), 0.0))
    w = np.tile(_GL_W, len(seg_v))
    riem = math.fsum((w * riem_terms).tolist())
    b = _beta_at(spec.beta, Xf)
    one = 0.0 if b is None else math.fsum((w * (b[0] * v0 + b[1] * v1)).tolist())
    return LengthParts(riem + one, riem, one)


def reverse_norm(spec):
    """Spec of the reversed norm; see :meth:`RandersSpec.reverse`."""
    return spec.reverse()


def closedness_residual(beta, probes):
    """Max antisymmetry of the 1-form Jacobian over interior probes.

    In the plane this is max |d beta_2/d x1 - d beta_1/d x2|, i.e. the sup
    norm of the exterior derivative.
    """
    X, _ = _pts(probes)
    _, ((_, J01), (J10, _)) = beta.jet(X[:, 0], X[:, 1])
    return float(np.abs(J01 - J10).max())
