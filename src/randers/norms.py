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

from .errors import DegenerateInputError, DomainError, InvalidNormError
from .fields import (MetricField, ScaledForm, ZeroForm, _pts, _unbatch,
                     circle_directions, disk_grid)

__all__ = [
    "RandersSpec", "ValidityReport", "LengthParts",
    "riemannian_norm", "dual_norm", "validate_norm", "fundamental_tensor",
    "curve_length", "reverse_norm", "closedness_residual",
]

MARGIN_GRID_SIZE = 1000  # fixed interior probe grid for |b|_a* certification


class RandersSpec:
    """A Randers norm on a closed ball, with a grid-certified validity margin."""

    def __init__(self, domain, alpha, beta=None, *, margin_grid=MARGIN_GRID_SIZE):
        self.domain = domain
        self.alpha = alpha
        self.beta = beta if beta is not None else ZeroForm()
        grid = disk_grid(domain, margin_grid)
        a = alpha.value(grid)
        b = self.beta.value(grid)
        cov = np.einsum("mi,mi->m", b, np.linalg.solve(a, b[:, :, None])[:, :, 0])
        self.sup_beta = float(np.sqrt(max(cov.max(), 0.0)))
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
    def is_valid(self):
        return self.margin > 0.0

    def require_valid(self):
        if not self.is_valid:
            raise InvalidNormError(
                f"randers spec has grid margin {self.margin:.3g} <= 0 "
                f"(sup |beta| = {self.sup_beta:.3g}); refusing to evaluate")

    # -- evaluation ---------------------------------------------------------

    def _raw_norm(self, x, y):
        """F without validity or domain checks; x, y batched (m, n)."""
        a = self.alpha.value(x)
        quad = np.einsum("mij,mi,mj->m", a, y, y)
        out = np.sqrt(np.maximum(quad, 0.0))
        if not self.beta.is_zero:
            out = out + np.einsum("mi,mi->m", self.beta.value(x), y)
        return out

    def norm(self, x, y):
        """Evaluate F(x, y); accepts single points or batches."""
        self.require_valid()
        X, single = _pts(x)
        Y, _ = _pts(y)
        self.domain.require_inside(X)
        Y = np.broadcast_to(Y, X.shape) if Y.shape[0] == 1 and X.shape[0] > 1 else Y
        return _unbatch(self._raw_norm(X, np.ascontiguousarray(Y)), single)

    def spray_terms(self, x0, x1, y0, y1):
        """(alpha.spray_terms, beta.jet) at the points (x0, x1) along (y0, y1).

        The geodesic spray's only field call per batch; None stands for a
        zero beta.  Specs whose alpha and beta share intermediate quantities
        override it to compute them once.
        """
        return (self.alpha.spray_terms(x0, x1, y0, y1),
                None if self.beta.is_zero else self.beta.jet(x0, x1))

    def reverse(self):
        """Spec of the reversed norm F(x, -y): same metric, negated 1-form."""
        beta = ZeroForm() if self.beta.is_zero else ScaledForm(self.beta, -1.0)
        return RandersSpec(self.domain, self.alpha, beta)


# ---------------------------------------------------------------------------
# module-level operations


def riemannian_norm(metric, x, y, domain=None):
    """sqrt(g_ij(x) y^i y^j); zero vectors allowed."""
    X, single = _pts(x)
    Y, _ = _pts(y)
    if domain is not None:
        domain.require_inside(X)
    g = metric.value(X)
    quad = np.einsum("mij,mi,mj->m", g, Y, Y)
    return _unbatch(np.sqrt(np.maximum(quad, 0.0)), single)


def dual_norm(obj, x, omega):
    """Dual norm F*(x, omega) = sup { omega(y) : F(x, y) = 1 }.

    A Randers norm is the navigation norm of h = lam (a - b b) under the
    wind W = -a^-1 b / lam, with lam = 1 - |b|_a*^2 (Zermelo's
    correspondence), so F*(w) = |w|_h* + w(W), which is
    (sqrt(lam |w|_a*^2 + <b, w>_a*^2) - <b, w>_a*) / lam.  A metric field
    is the case b = 0: sqrt(g^ij w_i w_j).
    """
    X, single = _pts(x)
    W, _ = _pts(omega)
    if isinstance(obj, MetricField):
        a, b = obj.value(X), np.zeros_like(X)
    else:
        obj.require_valid()
        obj.domain.require_inside(X)
        a, b = obj.alpha.value(X), obj.beta.value(X)
    w_sharp = np.linalg.solve(a, W[:, :, None])[:, :, 0]
    ww = np.einsum("mi,mi->m", W, w_sharp)
    bw = np.einsum("mi,mi->m", b, w_sharp)
    lam = 1.0 - np.einsum("mi,mi->m", b, np.linalg.solve(a, b[:, :, None])[:, :, 0])
    if np.any(lam <= 0.0):
        k = int(np.argmax(lam <= 0.0))
        raise InvalidNormError(
            f"|beta|_alpha* = {math.sqrt(1.0 - lam[k]):.3g} >= 1 at point {X[k]}; "
            f"the dual norm is undefined there (grid margin {obj.margin:.3g})")
    return _unbatch((np.sqrt(np.maximum(lam * ww + bw * bw, 0.0)) - bw) / lam, single)


# -- fundamental tensor ------------------------------------------------------


def _fd_fundamental_batch(spec, X, Y):
    """Central-difference fundamental tensor, batched.

    The y-stencil arithmetic runs in extended precision so the second
    differences sit well below the required tolerances; metric and 1-form
    values at x enter every stencil point identically, so their float64
    rounding cancels in the differences.
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


def fundamental_tensor(spec, x, y):
    """Local metric g_ij(x, y) = 1/2 d^2(F^2)/dy_i dy_j by central differences."""
    X, single = _pts(x)
    Y, _ = _pts(y)
    if np.any(np.linalg.norm(Y, axis=1) == 0.0):
        raise DegenerateInputError("fundamental tensor is undefined at y = 0 (F is not smooth there)")
    spec.domain.require_inside(X)
    return _unbatch(_fd_fundamental_batch(spec, X, np.broadcast_to(Y, X.shape)), single)


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
        with open(path, "w") as fh:
            fh.write(f"# validity passed={self.passed} probes={self.probe_count} units=dimensionless\n")
            fh.write("quantity,value\n")
            fh.write(f"beta_margin,{self.beta_margin!r}\n")
            fh.write(f"positivity_min,{self.positivity_min!r}\n")
            fh.write(f"homogeneity_max_rel,{self.homogeneity_max_rel!r}\n")
            fh.write(f"convexity_min_eig,{self.convexity_min_eig!r}\n")


def validate_norm(spec, probes=None):
    """Check positivity, degree-1 homogeneity, and convexity on a probe set.

    ``probes`` is an optional ``(points, directions)`` pair; the default is
    a 100-point interior grid crossed with 16 unit directions.  Works on
    invalid specs too (that is the point of the check).
    """
    if probes is None:
        points = disk_grid(spec.domain, 100)
        dirs = circle_directions(16)
    else:
        points, dirs = probes
        points = np.atleast_2d(np.asarray(points, dtype=float))
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    if len(points) == 0 or len(dirs) == 0:
        raise ValueError("probe set must be nonempty")

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

    g = _fd_fundamental_batch(spec, X, Y)
    tr = g[:, 0, 0] + g[:, 1, 1]
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    disc = np.sqrt(np.maximum(tr ** 2 - 4.0 * det, 0.0))
    eigmin = 0.5 * (tr - disc)
    convexity_min = float(eigmin.min())

    flagged = []
    bad = (f1 <= 0.0) | (eigmin <= 0.0)
    for idx in np.nonzero(bad)[0]:
        flagged.append({
            "point": X[idx].tolist(),
            "direction": Y[idx].tolist(),
            "norm": float(f1[idx]),
            "convexity": float(eigmin[idx]),
        })

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
    verts = np.asarray(getattr(curve, "x", curve), dtype=float)
    if verts.ndim != 2 or verts.shape[0] < 2:
        raise ValueError("curve must have at least two vertices")
    seg_a = verts[:-1]
    seg_b = verts[1:]
    seg_v = seg_b - seg_a
    s, n = seg_a.shape

    # orientation-canonical quadrature nodes: node positions depend only on
    # the segment as a set, so reversing the polyline evaluates the fields
    # at bitwise-identical points and int(beta) negates exactly
    swap = (seg_a[:, 0] > seg_b[:, 0]) | ((seg_a[:, 0] == seg_b[:, 0]) & (seg_a[:, 1] > seg_b[:, 1]))
    lo = np.where(swap[:, None], seg_b, seg_a)
    hi = np.where(swap[:, None], seg_a, seg_b)
    Xq = lo[:, None, :] + _GL_T[None, :, None] * (hi - lo)[:, None, :]
    Xf = Xq.reshape(s * 4, n)
    inside = spec.domain.contains(Xf, rtol=1e-9)
    if not inside.all():
        k = int(np.nonzero(~inside)[0][0])
        t_param = k // 4 + _GL_T[k % 4]
        raise DomainError(f"curve exits the domain near parameter {t_param:.6g} "
                          f"(segment {k // 4}, point {Xf[k]})")

    a = spec.alpha.value(Xf)
    Vf = np.repeat(seg_v, 4, axis=0)
    riem_terms = np.sqrt(np.maximum(np.einsum("mij,mi,mj->m", a, Vf, Vf), 0.0))
    w = np.tile(_GL_W, s)
    riem = math.fsum((w * riem_terms).tolist())
    if spec.beta.is_zero:
        one = 0.0
    else:
        b = spec.beta.value(Xf)
        one_terms = np.einsum("mi,mi->m", b, Vf)
        one = math.fsum((w * one_terms).tolist())
    return LengthParts(riem + one, riem, one)


def reverse_norm(spec):
    """Spec of the reversed norm; see :meth:`RandersSpec.reverse`."""
    return spec.reverse()


def closedness_residual(beta, probes):
    """Max antisymmetry of the 1-form Jacobian over interior probes.

    In the plane this is max |d beta_2/d x1 - d beta_1/d x2|, i.e. the sup
    norm of the exterior derivative.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    J = beta.jacobian(probes)
    anti = J - np.swapaxes(J, -1, -2)
    return float(np.abs(anti).max())
