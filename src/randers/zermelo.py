"""Least-time navigation in a moving medium as a Randers norm.

A wave moving at unit self-speed in metric g while drifting with a flow W
follows geodesics of the Randers norm built here; the curve parameter is
physical travel time.  The module provides the general construction, the
conformal (sound-speed) specialization, its small-drift linearization, and
the non-trapping condition check for radial profiles.

Both navigation algebras (general Zermelo and conformal) are written in
planar components: each evaluates the metric (or speed) and wind jets once
and returns the planar jets of alpha and beta, each component an (m,) array
or, where every input it depends on is constant over the batch, an
``np.float64`` scalar.  A constant medium (c = "1" under a constant wind)
thus runs its algebra on scalars, once per call.  The public alpha and beta
tensors are assembled from that jet.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidMediumError, SpecMismatchError
from .fields import (ConformalMetric, ConstantField, MetricField, RadialProfile,
                     ScaledForm, VectorValuedField, ZeroForm, disk_grid, jet_spray_terms)
from .norms import MARGIN_GRID_SIZE, RandersSpec, _alpha_at, _beta_at, _quad

__all__ = ["MediumModel", "zermelo_construct", "conformal_specialize",
           "linearize", "herglotz_check", "HerglotzReport",
           "travel_time_consistency"]

_HERGLOTZ_RADII = 1000   # radii in [0, R] where the non-trapping condition is evaluated


class MediumModel:
    """Physical scenario: domain, sound speed c, and drift field W.

    The metric is conformal, g = c^-2 e, and the drift must be subcritical,
    |W|_g < 1 (equivalently |W|_e < c); this is certified on the standard
    interior probe grid at construction.  Media compare by identity.
    """

    def __init__(self, domain, speed, wind=None):
        self.domain = domain
        self.wind = wind if wind is not None else ZeroForm()
        self.speed = speed
        self.metric = ConformalMetric(speed)
        pts = disk_grid(domain, MARGIN_GRID_SIZE)
        W = _beta_at(self.wind, pts)
        drift = 0.0 if W is None else _quad(_alpha_at(self.metric, pts), *W).max()
        self.max_drift = float(np.sqrt(max(drift, 0.0)))
        if self.max_drift >= 1.0:
            raise InvalidMediumError(
                f"drift speed reaches |W|_g = {self.max_drift:.4g} >= 1 on the probe grid; "
                "the medium must satisfy |W|_g < 1 everywhere")

    def __repr__(self):
        return (f"MediumModel({self.domain.describe()}, c={self.speed.describe()}, "
                f"W={self.wind.describe()})")


# ---------------------------------------------------------------------------
# navigation algebra: stateless planar component arithmetic, evaluated once
# per batch by the spec's jet

_PAIRS = ((0, 0), (0, 1), (1, 1))   # (i, j) of the planar metric components


@dataclass(frozen=True)
class _ZermeloAlgebra:
    """alpha_ij = g_ij / lam + (W_i / lam)(W_j / lam), beta_i = -W_i / lam.

    Here W_i = g_ij W^j and lam = 1 - |W|_g^2.  ``jet`` evaluates the metric
    and wind jets once and returns the planar jets of alpha and beta.
    """

    metric: object
    wind: object
    name = "zermelo"

    def args(self):
        return f"g={self.metric.describe()},W={self.wind.describe()}"

    def jet(self, x0, x1):
        g, dg = self.metric.jet(x0, x1)
        (V0, V1), dV = self.wind.jet(x0, x1)
        g00, g01, g11 = g
        w = (g00 * V0 + g01 * V1, g01 * V0 + g11 * V1)    # W_i = g_ij W^j
        lam = 1.0 - (w[0] * V0 + w[1] * V1)
        lam2, lam3 = np.power(lam, 2), np.power(lam, 3)
        dw, dlam = [], []                                  # d_k W_i, d_k lam
        for k, (p00, p01, p11) in enumerate(dg):
            v0, v1 = dV[0][k], dV[1][k]                    # d_k W^0, d_k W^1
            dw.append((p00 * V0 + p01 * V1 + (g00 * v0 + g01 * v1),
                       p01 * V0 + p11 * V1 + (g01 * v0 + g11 * v1)))
            ds = (p00 * V0 * V0 + 2.0 * p01 * V0 * V1 + p11 * V1 * V1
                  + 2.0 * (w[0] * v0 + w[1] * v1))
            dlam.append(-ds)
        alpha = tuple(gij / lam + (w[i] * w[j]) / lam2 for gij, (i, j) in zip(g, _PAIRS))
        dalpha = tuple(
            tuple(pij / lam - gij * dlam[k] / lam2
                  + (dw[k][i] * w[j] + w[i] * dw[k][j]) / lam2
                  - 2.0 * (w[i] * w[j]) * dlam[k] / lam3
                  for pij, gij, (i, j) in zip(dg[k], g, _PAIRS))
            for k in (0, 1))
        beta = (-w[0] / lam, -w[1] / lam)
        dbeta = tuple(tuple(-dw[k][i] / lam + w[i] * dlam[k] / lam2 for k in (0, 1))
                      for i in (0, 1))
        return (alpha, dalpha), (beta, dbeta)


@dataclass(frozen=True)
class _ConformalAlgebra:
    """g = c^-2 e: alpha_ij = c^-2 d_ij / D + c^-4 W^i W^j / D^2, beta_i = -c^-2 W^i / D.

    Here D = 1 - c^-2 |W|_e^2; an arithmetic path independent of
    :class:`_ZermeloAlgebra` that gives the same result.
    """

    speed: object
    wind: object
    name = "conformal_zermelo"

    def args(self):
        return f"c={self.speed.describe()},W={self.wind.describe()}"

    def jet(self, x0, x1):
        c, dc = self.speed.jet(x0, x1)
        W, dV = self.wind.jet(x0, x1)
        c2 = np.power(c, -2)
        c4 = np.power(c2, 2)
        dc2_dc, dc4_dc = -2.0 * np.power(c, -3), -4.0 * np.power(c, -5)
        w2 = W[0] * W[0] + W[1] * W[1]
        D = 1.0 - c2 * w2
        D2, D3 = np.power(D, 2), np.power(D, 3)
        e, f = c2 / D, c4 / D2                  # alpha = e delta + f W W
        alpha = tuple(e * (i == j) + f * (W[i] * W[j]) for i, j in _PAIRS)
        beta = (-e * W[0], -e * W[1])
        dalpha, dbeta = [], []                  # per derivative direction k
        for k in (0, 1):
            dc2, dc4 = dc2_dc * dc[k], dc4_dc * dc[k]
            dw2 = 2.0 * (W[0] * dV[0][k] + W[1] * dV[1][k])
            dD = -(dc2 * w2 + c2 * dw2)
            t1 = dc2 / D - c2 * dD / D2
            t2 = dc4 / D2 - 2.0 * c4 * dD / D3
            dalpha.append(tuple(t1 * (i == j) + t2 * (W[i] * W[j])
                                + f * (dV[i][k] * W[j] + W[i] * dV[j][k])
                                for i, j in _PAIRS))
            dbeta.append(tuple(-(dc2 / D) * W[i] - e * dV[i][k] + (c2 / D2) * W[i] * dD
                               for i in (0, 1)))
        return (alpha, tuple(dalpha)), (beta, tuple(zip(*dbeta)))


class NavigationMetric(MetricField):
    """The Riemannian part alpha of a navigation algebra."""

    def __init__(self, algebra):
        self.algebra = algebra

    def jet(self, x0, x1):
        return self.algebra.jet(x0, x1)[0]

    def describe(self):
        return f"{self.algebra.name}_alpha({self.algebra.args()})"


class NavigationOneForm(VectorValuedField):
    """The 1-form part beta of a navigation algebra."""

    def __init__(self, algebra):
        self.algebra = algebra

    def jet(self, x0, x1):
        return self.algebra.jet(x0, x1)[1]

    def describe(self):
        return f"{self.algebra.name}_beta({self.algebra.args()})"


class _NavigationSpec(RandersSpec):
    """Randers spec of a medium with wind; its spray terms run the algebra once per batch."""

    def __init__(self, domain, algebra):
        super().__init__(domain, NavigationMetric(algebra), NavigationOneForm(algebra))
        self.algebra = algebra

    def spray_terms(self, x0, x1, y0, y1):
        ajet, bjet = self.algebra.jet(x0, x1)
        return jet_spray_terms(ajet, y0, y1), bjet

    def reverse(self):
        """The same algebra over the wind -W.

        Both algebras are even in W for alpha and odd for beta, and negation
        is exact, so alpha is unchanged and beta is exactly negated.
        """
        wind = ScaledForm(self.algebra.wind, -1.0)
        return _NavigationSpec(self.domain, replace(self.algebra, wind=wind))


def zermelo_construct(medium):
    """Randers spec whose geodesics are the least-time paths of the medium."""
    if medium.wind.is_zero:
        return RandersSpec(medium.domain, medium.metric)
    return _NavigationSpec(medium.domain, _ZermeloAlgebra(medium.metric, medium.wind))


def conformal_specialize(speed, wind, domain):
    """Randers spec for g = c^-2 * euclidean via the specialized formulas.

    Agrees with ``zermelo_construct`` on the same medium to near machine
    precision; kept as an independent arithmetic path.
    """
    pts = disk_grid(domain, 1000)
    c = speed.value(pts)
    w = np.linalg.norm(wind.value(pts), axis=1)
    if (w >= c).any():
        raise InvalidMediumError("drift speed reaches |W|_e >= c on the probe grid")
    if wind.is_zero:
        return RandersSpec(domain, ConformalMetric(speed))
    return _NavigationSpec(domain, _ConformalAlgebra(speed, wind))


# ---------------------------------------------------------------------------
# first-order linearization


class LinearizedOneForm(VectorValuedField):
    """beta = -W / c^2: the first-order drift perturbation."""

    def __init__(self, speed, wind):
        self.speed = speed
        self.wind = wind

    def jet(self, x0, x1):
        c, dc = self.speed.jet(x0, x1)
        W, dW = self.wind.jet(x0, x1)
        # d_k beta_i = k2 d_k W_i + k3 W_i d_k c
        k2, k3 = -np.power(c, -2), 2.0 * np.power(c, -3)
        dbeta = tuple(tuple(k2 * dW[i][k] + k3 * W[i] * dc[k] for k in (0, 1)) for i in (0, 1))
        return (k2 * W[0], k2 * W[1]), dbeta

    @property
    def is_zero(self):
        return self.wind.is_zero

    def describe(self):
        return f"linearized_beta(c={self.speed.describe()},W={self.wind.describe()})"


def linearize(speed, wind, domain):
    """First-order spec (alpha = c^-2 e, beta = -W/c^2) and the drift ratio.

    Returns ``(spec, rho)`` where rho = sup |W|_e / c over the probe grid;
    the approximation error of boundary distances scales like rho^2.
    """
    pts = disk_grid(domain, 1000)
    c = speed.value(pts)
    w = np.linalg.norm(wind.value(pts), axis=1)
    rho = float((w / c).max())
    alpha = ConformalMetric(speed)
    if wind.is_zero:
        return RandersSpec(domain, alpha), rho
    return RandersSpec(domain, alpha, LinearizedOneForm(speed, wind)), rho


# ---------------------------------------------------------------------------
# radial non-trapping condition


@dataclass(frozen=True)
class HerglotzReport:
    holds: bool
    margin: float      # min over [0, R] of d/dr (r / c(r))
    r_argmin: float


def herglotz_check(speed, radius):
    """Evaluate d/dr (r / c(r)) on [0, R]; positivity keeps rays non-trapped.

    This is the radial special case of boundary convexity: for a
    conformal-radial metric the circle of radius r is strictly convex
    exactly where r / c(r) increases, so a positive margin makes every
    circle r <= R, the boundary included, strictly convex and no geodesic
    is trapped inside.  ``herglotz_invert`` assumes it.
    """
    if not isinstance(speed, (RadialProfile, ConstantField)):
        raise ValueError("herglotz check needs a radial profile or constant speed")
    r = np.linspace(0.0, radius, _HERGLOTZ_RADII)
    c, d1 = speed.profile_pair(r)
    val = (c - r * d1) / c ** 2
    k = int(np.argmin(val))
    margin = float(val[k])
    return HerglotzReport(holds=bool(margin > 0.0), margin=margin, r_argmin=float(r[k]))


def travel_time_consistency(medium, path):
    """|T - L_F| for a path traced under this medium's navigation norm.

    The exit parameter of a unit-speed geodesic is its travel time; the
    residual must vanish to solver precision (<= 1e-8 T).
    """
    spec = zermelo_construct(medium)
    if path.spec_hash != spec.spec_hash:
        raise SpecMismatchError("path was not produced under this medium's navigation norm")
    return abs(path.exit_time - path.f_length)
