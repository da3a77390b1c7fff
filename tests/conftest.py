import numpy as np
import pytest

from randers import (ComponentForm, ConformalMetric, ConstantField, ConstantForm, Domain,
                     EuclideanMetric, ExactForm, ExprField, MediumModel,
                     PotentialBump, RadialProfile, RandersSpec, RotationalForm,
                     SolverOptions, shoot_pairs, zermelo_construct)


@pytest.fixture(scope="session")
def dom():
    return Domain(radius=1.0)


@pytest.fixture(scope="session")
def euclid_spec(dom):
    return RandersSpec(dom, EuclideanMetric())


@pytest.fixture(scope="session")
def wind_medium(dom):
    return MediumModel(dom, speed=ConstantField(1.0), wind=ConstantForm([0.5, 0.0]))


@pytest.fixture(scope="session")
def wind_spec(wind_medium):
    return zermelo_construct(wind_medium)


@pytest.fixture(scope="session")
def smooth_profile():
    return RadialProfile("2 - r^2")


@pytest.fixture(scope="session")
def smooth_alpha(smooth_profile):
    return ConformalMetric(smooth_profile)


@pytest.fixture(scope="session")
def smooth_spec(dom, smooth_alpha):
    return RandersSpec(dom, smooth_alpha)


@pytest.fixture(scope="session")
def bump():
    return PotentialBump(0.3, 1.0)


@pytest.fixture(scope="session")
def smooth_bump_spec(dom, smooth_alpha, bump):
    return RandersSpec(dom, smooth_alpha, ExactForm(bump))


@pytest.fixture(scope="session")
def kink_profile():
    return RadialProfile("2 - r")


@pytest.fixture(scope="session")
def kink_spec(dom, kink_profile):
    return RandersSpec(dom, ConformalMetric(kink_profile))


@pytest.fixture(scope="session")
def rot_zermelo_spec(dom):
    # rotational wind on 2 - r^2: a non-closed beta on a curved metric
    return zermelo_construct(MediumModel(dom, speed=RadialProfile("2 - r^2"),
                                         wind=RotationalForm(0.4)))


# the generic medium: neither its sound speed nor its 1-form is rotation
# invariant, so a matrix build on it shoots every pair, and the 1-form is
# not closed (d beta = -0.25 + 0.05 x2)
@pytest.fixture(scope="session")
def generic_spec(dom):
    return RandersSpec(dom, ConformalMetric(ExprField("2 - (x1 - 0.3)^2 - 0.8*x2^2")))


@pytest.fixture(scope="session")
def generic_beta_spec(dom, generic_spec):
    return RandersSpec(dom, generic_spec.alpha,
                       ComponentForm(["0.15*x2 + 0.05*x1^2", "-0.1*x1 + 0.05*x1*x2"]))


# low-velocity lenses: three geodesics join some boundary pairs, so both lie
# outside the paper's hypotheses and a distance matrix build must abort
@pytest.fixture(scope="session")
def lens_spec(dom):
    return RandersSpec(dom, ConformalMetric(RadialProfile("1 - 0.5*exp(-10*r^2)")))


@pytest.fixture(scope="session")
def offcentre_lens_spec(dom):
    return RandersSpec(dom, ConformalMetric(ExprField("1 - 0.5*exp(-20*((x1-0.3)^2 + x2^2))")))


# a narrow low-velocity spot: its exit maps fold within |psi| < 0.07 of the
# diametral ray, so diametral pairs have three branches
@pytest.fixture(scope="session")
def narrow_lens_spec(dom):
    return RandersSpec(dom, ConformalMetric(RadialProfile("1 - 0.1*exp(-200*r^2)")))


@pytest.fixture(scope="session")
def opts():
    return SolverOptions()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


def bump_gradient(amp):
    """d of the bump amp (1 - r^2), written as components.

    The form is closed but not by construction (it has no ``potential``), so
    shooting integrates it as the 1-form b of the dual norm: a gauge check
    built with it tests the solver on F + d phi against F, which a potential
    shift of the travel times would otherwise satisfy by construction.
    """
    k = -2.0 * amp
    return ComponentForm([f"{k!r}*x1", f"{k!r}*x2"])


def full_build(spec, angles, opts=None):
    """The matrix build that shoots every ordered pair, the circulant row's reference.

    One ``shoot_pairs`` call over all pairs (i, j), i != j, scattered as
    ``distance_matrix`` scatters it when it shoots every start.  Returns
    (shots, D, branch_counts, converged, error), where ``error`` is the
    "Type: message" that ``distance_matrix`` raises for the first bad pair
    in i-major order, or None.  No pair is excluded (the callers' samples
    are far apart).
    """
    n = len(angles)
    shots = shoot_pairs(spec, angles, np.argwhere(~np.eye(n, dtype=bool)), opts)
    i, j = shots.pairs.T
    D, branches = np.zeros((n, n)), np.zeros((n, n), dtype=int)
    converged = np.zeros((n, n), dtype=bool)
    D[i, j], branches[i, j], converged[i, j] = shots.time, shots.branch_count, shots.converged
    error = None
    bad = np.flatnonzero((shots.branch_count != 1) | ~shots.converged)
    if bad.size:
        q = bad[0]
        i, j, count = shots.pairs[q, 0], shots.pairs[q, 1], shots.branch_count[q]
        if count == 0 or not shots.converged[q]:
            error = f"ConnectivityError: no shooting branch found for boundary pair ({i}, {j})"
        else:
            error = (f"NonAdmissibleError: {count} geodesic branches for boundary pair "
                     f"({i}, {j}); distance matrix build aborted")
    return shots, D, branches, converged, error


def assert_jet_component(comp, m):
    """The jet contract: a C-contiguous (m,) float array, or an np.float64 scalar
    (never a Python float) for a component that is constant over the batch."""
    if type(comp) is not np.float64:
        assert isinstance(comp, np.ndarray), type(comp)
        assert comp.shape == (m,) and comp.dtype == np.float64 and comp.flags.c_contiguous
