"""Least-time navigation in a moving medium as a Randers norm.

A wave moving at unit self-speed in metric g while drifting with a flow W
follows geodesics of the Randers norm built here; the curve parameter is
physical travel time.  The module provides the general construction, the
conformal (sound-speed) specialization, its small-drift linearization, and
the non-trapping condition check for radial profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMediumError, SpecMismatchError
from .fields import (ConformalMetric, ConstantField, MetricField, RadialProfile,
                     VectorValuedField, _pts, _unbatch, disk_grid)
from .norms import RandersSpec

__all__ = ["MediumModel", "zermelo_construct", "conformal_specialize",
           "linearize", "herglotz_check", "HerglotzReport",
           "travel_time_consistency"]


@dataclass
class MediumModel:
    """Physical scenario: domain, wave speed, and drift field.

    The drift must be subcritical, |W|_g < 1 (equivalently |W|_e < c in the
    conformal case); this is certified on the standard interior probe grid
    at construction.
    """

    def __init__(self, domain, speed=None, wind=None, metric=None, grid=1000):
        from .fields import ZeroForm

        self.domain = domain
        self.wind = wind if wind is not None else ZeroForm(domain.dimension)
        if metric is not None:
            self.metric = metric
            self.speed = speed
            self.flavor = "general-g"
        else:
            if speed is None:
                raise ValueError("either a sound speed or an explicit metric is required")
            self.speed = speed
            self.metric = ConformalMetric(speed, dim=domain.dimension)
            self.flavor = self.metric.flavor
        pts = disk_grid(domain, grid)
        g = self.metric.value(pts)
        W = self.wind.value(pts)
        drift = np.sqrt(np.maximum(np.einsum("mij,mi,mj->m", g, W, W), 0.0))
        self.max_drift = float(drift.max())
        if self.max_drift >= 1.0:
            raise InvalidMediumError(
                f"drift speed reaches |W|_g = {self.max_drift:.4g} >= 1 on the probe grid; "
                "the medium must satisfy |W|_g < 1 everywhere")

    def describe(self):
        return (f"medium(domain={self.domain.describe()},metric={self.metric.describe()},"
                f"wind={self.wind.describe()})")


# ---------------------------------------------------------------------------
# navigation algebra: stateless, evaluated once per batch by the spec's jet


class _ZermeloAlgebra:
    """alpha_ij = g_ij / lam + (W_i / lam)(W_j / lam), beta_i = -W_i / lam.

    Here W_i = g_ij W^j and lam = 1 - |W|_g^2.  ``parts`` evaluates the
    metric and the wind once; the four formulas read only those parts.
    """

    name = "zermelo"

    def __init__(self, metric, wind):
        self.metric = metric
        self.wind = wind

    def args(self):
        return f"g={self.metric.describe()},W={self.wind.describe()}"

    def parts(self, X):
        g, P = self.metric.value_and_partials(X)
        W, J = self.wind.value_and_jacobian(X)
        Wi = np.einsum("mij,mj->mi", g, W)
        s = np.einsum("mi,mi->m", Wi, W)
        lam = 1.0 - s
        dWi = np.einsum("mkij,mj->mki", P, W) + np.einsum("mij,mjk->mki", g, J)
        ds = np.einsum("mkij,mi,mj->mk", P, W, W) + 2.0 * np.einsum("mj,mjk->mk", Wi, J)
        return {"g": g, "P": P, "Wi": Wi, "lam": lam, "dWi": dWi, "dlam": -ds}

    @staticmethod
    def alpha(p):
        lam = p["lam"]
        Wi = p["Wi"]
        return p["g"] / lam[:, None, None] + (Wi[:, :, None] * Wi[:, None, :]) / (lam ** 2)[:, None, None]

    @staticmethod
    def alpha_partials(p):
        g, P, Wi, lam, dWi, dlam = p["g"], p["P"], p["Wi"], p["lam"], p["dWi"], p["dlam"]
        l1 = lam[:, None, None, None]
        outer = Wi[:, None, :, None] * Wi[:, None, None, :]
        douter = dWi[:, :, :, None] * Wi[:, None, None, :] + Wi[:, None, :, None] * dWi[:, :, None, :]
        return (P / l1
                - g[:, None] * dlam[:, :, None, None] / l1 ** 2
                + douter / l1 ** 2
                - 2.0 * outer * dlam[:, :, None, None] / l1 ** 3)

    @staticmethod
    def beta(p):
        return -p["Wi"] / p["lam"][:, None]

    @staticmethod
    def beta_jacobian(p):
        Wi, lam, dWi, dlam = p["Wi"], p["lam"], p["dWi"], p["dlam"]
        # d beta_i / dx^k = -dWi[k, i] / lam + W_i dlam_k / lam^2
        return (-np.swapaxes(dWi, 1, 2) / lam[:, None, None]
                + Wi[:, :, None] * dlam[:, None, :] / (lam ** 2)[:, None, None])


class _ConformalAlgebra:
    """g = c^-2 e: alpha_ij = c^-2 d_ij / D + c^-4 W^i W^j / D^2, beta_i = -c^-2 W^i / D.

    Here D = 1 - c^-2 |W|_e^2; an arithmetic path independent of
    :class:`_ZermeloAlgebra` that gives the same result.
    """

    name = "conformal_zermelo"

    def __init__(self, speed, wind):
        self.speed = speed
        self.wind = wind

    def args(self):
        return f"c={self.speed.describe()},W={self.wind.describe()}"

    def parts(self, X):
        c, dc = self.speed.value_and_gradient(X)
        W, J = self.wind.value_and_jacobian(X)
        c2 = c ** -2
        dc2 = (-2.0 * c ** -3)[:, None] * dc                    # (m,k)
        w2 = np.einsum("mi,mi->m", W, W)
        dw2 = 2.0 * np.einsum("mi,mik->mk", W, J)
        D = 1.0 - c2 * w2
        dD = -(dc2 * w2[:, None] + c2[:, None] * dw2)
        return {"c": c, "dc": dc, "W": W, "J": J, "c2": c2, "dc2": dc2, "D": D, "dD": dD}

    @staticmethod
    def alpha(p):
        c2, D, W = p["c2"], p["D"], p["W"]
        eye = np.eye(W.shape[1])[None]
        return (c2 / D)[:, None, None] * eye + ((c2 ** 2) / D ** 2)[:, None, None] * (
            W[:, :, None] * W[:, None, :])

    @staticmethod
    def alpha_partials(p):
        c, dc, W, J, c2, dc2, D, dD = (p["c"], p["dc"], p["W"], p["J"],
                                       p["c2"], p["dc2"], p["D"], p["dD"])
        eye = np.eye(W.shape[1])[None, None]
        c4 = c2 ** 2
        dc4 = (-4.0 * c ** -5)[:, None] * dc
        outer = W[:, None, :, None] * W[:, None, None, :]
        douter = (J[:, :, :] .swapaxes(1, 2)[:, :, :, None] * W[:, None, None, :]
                  + W[:, None, :, None] * J.swapaxes(1, 2)[:, :, None, :])
        term1 = (dc2 / D[:, None] - c2[:, None] * dD / D[:, None] ** 2)[:, :, None, None] * eye
        term2 = (dc4 / D[:, None] ** 2 - 2.0 * c4[:, None] * dD / D[:, None] ** 3)[:, :, None, None] * outer
        term3 = (c4 / D ** 2)[:, None, None, None] * douter
        return term1 + term2 + term3

    @staticmethod
    def beta(p):
        return -(p["c2"] / p["D"])[:, None] * p["W"]

    @staticmethod
    def beta_jacobian(p):
        W, J, c2, dc2, D, dD = p["W"], p["J"], p["c2"], p["dc2"], p["D"], p["dD"]
        return (-(dc2 / D[:, None])[:, None, :] * W[:, :, None]
                - (c2 / D)[:, None, None] * J
                + (c2 / D ** 2)[:, None, None] * W[:, :, None] * dD[:, None, :])


class NavigationMetric(MetricField):
    """The Riemannian part alpha of a navigation algebra."""

    flavor = "general"

    def __init__(self, algebra, dim=2):
        self.algebra = algebra
        self.dim = dim

    def value(self, x):
        X, single = _pts(x)
        return _unbatch(self.algebra.alpha(self.algebra.parts(X)), single)

    def partials(self, x):
        X, single = _pts(x)
        return _unbatch(self.algebra.alpha_partials(self.algebra.parts(X)), single)

    def describe(self):
        return f"{self.algebra.name}_alpha({self.algebra.args()})"


class NavigationOneForm(VectorValuedField):
    """The 1-form part beta of a navigation algebra."""

    def __init__(self, algebra, dim=2):
        self.algebra = algebra
        self.dim = dim

    def value(self, x):
        X, single = _pts(x)
        return _unbatch(self.algebra.beta(self.algebra.parts(X)), single)

    def jacobian(self, x):
        X, single = _pts(x)
        return _unbatch(self.algebra.beta_jacobian(self.algebra.parts(X)), single)

    def describe(self):
        return f"{self.algebra.name}_beta({self.algebra.args()})"


class _NavigationSpec(RandersSpec):
    """Randers spec of a medium with wind; its jet runs the algebra once per batch."""

    def __init__(self, domain, algebra):
        n = domain.dimension
        super().__init__(domain, NavigationMetric(algebra, n), NavigationOneForm(algebra, n))
        self.algebra = algebra

    def jet(self, X):
        alg = self.algebra
        p = alg.parts(X)
        return alg.alpha(p), alg.alpha_partials(p), alg.beta(p), alg.beta_jacobian(p)


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
        return RandersSpec(domain, ConformalMetric(speed, dim=domain.dimension))
    return _NavigationSpec(domain, _ConformalAlgebra(speed, wind))


# ---------------------------------------------------------------------------
# first-order linearization


class LinearizedOneForm(VectorValuedField):
    """beta = -W / c^2: the first-order drift perturbation."""

    def __init__(self, speed, wind, dim=2):
        self.speed = speed
        self.wind = wind
        self.dim = dim

    def value(self, x):
        X, single = _pts(x)
        c = self.speed.value(X)
        return _unbatch(-(c ** -2)[:, None] * self.wind.value(X), single)

    def jacobian(self, x):
        X, single = _pts(x)
        c = self.speed.value(X)
        dc = self.speed.gradient(X)
        W = self.wind.value(X)
        J = self.wind.jacobian(X)
        j = (-(c ** -2)[:, None, None] * J
             + (2.0 * c ** -3)[:, None, None] * W[:, :, None] * dc[:, None, :])
        return _unbatch(j, single)

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
    alpha = ConformalMetric(speed, dim=domain.dimension)
    if wind.is_zero:
        return RandersSpec(domain, alpha), rho
    return RandersSpec(domain, alpha, LinearizedOneForm(speed, wind, domain.dimension)), rho


# ---------------------------------------------------------------------------
# radial non-trapping condition


@dataclass(frozen=True)
class HerglotzReport:
    holds: bool
    margin: float      # min over [0, R] of d/dr (r / c(r))
    r_argmin: float


def herglotz_check(speed, radius, grid=1000):
    """Evaluate d/dr (r / c(r)) on [0, R]; positivity keeps rays non-trapped."""
    if not isinstance(speed, (RadialProfile, ConstantField)):
        raise ValueError("herglotz check needs a radial profile or constant speed")
    r = np.linspace(0.0, radius, grid)
    c = speed.profile(r) if isinstance(speed, RadialProfile) else np.full_like(r, speed.c)
    d1 = speed.profile_d1(r) if isinstance(speed, RadialProfile) else np.zeros_like(r)
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
