"""The circulant row build of rotation-invariant media, and the declarations it reads.

On a medium declared rotation-invariant, at equispaced samples, D is
circulant and ``distance_matrix`` shoots the pairs (0, j) alone.  The full
build, every pair shot (``conftest.full_build``), stays the reference: its
circulant defect is a metamorphic check on every symmetric medium.  The
magnetic media, Euclidean alpha with ``RotationalForm(s)``, have a closed
form for D, an exact check on a beta that is not closed.
"""

import math

import numpy as np
import pytest

from randers import (ComponentForm, ConformalMetric, ConstantField, ConstantForm,
                     EuclideanMetric, ExactForm, ExprField, MediumModel, PotentialBump,
                     RadialProfile, RandersError, RandersSpec, RotationalForm, SolverOptions,
                     ZeroForm, distance_matrix, linearize, zermelo_construct)
from randers import boundary as bd
from randers.boundary import BoundarySamples
from randers.fields import LinearCombination, LinearField, ScaledForm, SumForm
from randers.zermelo import (LinearizedOneForm, NavigationMetric, NavigationOneForm,
                             _ZermeloAlgebra)
from conftest import bump_gradient, full_build

TIGHT = SolverOptions(rtol=1e-12, atol=1e-15)
ROUND_OFF = 1e-14    # floor of a build's own error on media with straight rays


def _angles(n, offset=0.0):
    return 2.0 * math.pi * (np.arange(n) + offset) / n


def _row_build(spec, angles, opts=None):
    """(data, error) of ``distance_matrix``, error as "Type: message" or None."""
    try:
        return distance_matrix(spec, BoundarySamples(angles=angles, radius=1.0), opts), None
    except RandersError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _magnetic_spec(dom, s):
    """F = |y| + RotationalForm(s): the magnetic medium of field strength s."""
    return RandersSpec(dom, EuclideanMetric(), RotationalForm(s))


def _circulant(row):
    n = len(row)
    return row[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


# ---------------------------------------------------------------------------
# declarations

_RADIAL, _PLANAR = RadialProfile("2 - r^2"), ExprField("1 + 0.1*x1")
_ROT, _CONST = RotationalForm(0.4), ConstantForm([0.3, 0.0])

DECLARED = [
    ("ConstantField", lambda: ConstantField(2.0), True),
    ("RadialProfile", lambda: RadialProfile("2 - r"), True),
    ("PotentialBump", lambda: PotentialBump(0.3, 1.0), True),
    ("ExprField r^2", lambda: ExprField("r^2"), True),
    ("ExprField constant", lambda: ExprField("3"), True),
    ("ExprField x1", lambda: ExprField("x1"), False),
    ("ExprField x1 and r", lambda: ExprField("x1 * r"), False),
    ("LinearField", lambda: LinearField([0.1, 0.2]), False),
    ("LinearCombination invariant", lambda: LinearCombination(
        (2.0, ConstantField(1.0)), (-1.0, PotentialBump(0.3, 1.0))), True),
    ("LinearCombination mixed", lambda: LinearCombination(
        (2.0, PotentialBump(0.3, 1.0)), (1.0, LinearField([0.1, 0.0]))), False),
    ("ZeroForm", ZeroForm, True),
    ("RotationalForm", lambda: RotationalForm(-0.5), True),
    ("ConstantForm", lambda: ConstantForm([0.0, 0.0]), False),
    ("ComponentForm", lambda: ComponentForm(["r^2", "r^2"]), False),
    ("ExactForm radial", lambda: ExactForm(PotentialBump(0.3, 1.0)), True),
    ("ExactForm planar", lambda: ExactForm(ExprField("x1*x2")), False),
    ("ScaledForm invariant", lambda: ScaledForm(_ROT, -1.0), True),
    ("ScaledForm constant", lambda: ScaledForm(_CONST, 2.0), False),
    ("SumForm invariant", lambda: SumForm(_ROT, ExactForm(RadialProfile("r^2"))), True),
    ("SumForm rotational and constant", lambda: SumForm(_ROT, _CONST), False),
    ("EuclideanMetric", EuclideanMetric, True),
    ("ConformalMetric radial", lambda: ConformalMetric(_RADIAL), True),
    ("ConformalMetric planar", lambda: ConformalMetric(_PLANAR), False),
    ("NavigationMetric zermelo", lambda: NavigationMetric(
        _ZermeloAlgebra(ConformalMetric(_RADIAL), _ROT)), True),
    ("NavigationMetric zermelo constant wind", lambda: NavigationMetric(
        _ZermeloAlgebra(EuclideanMetric(), _CONST)), False),
    ("NavigationMetric conformal planar speed", lambda: NavigationMetric(
        _ZermeloAlgebra(ConformalMetric(_PLANAR), _ROT)), False),
    ("NavigationOneForm", lambda: NavigationOneForm(
        _ZermeloAlgebra(ConformalMetric(_RADIAL), _ROT)), True),
    ("NavigationOneForm planar speed", lambda: NavigationOneForm(
        _ZermeloAlgebra(ConformalMetric(_PLANAR), _ROT)), False),
    ("LinearizedOneForm", lambda: LinearizedOneForm(_RADIAL, _ROT), True),
    ("LinearizedOneForm constant wind", lambda: LinearizedOneForm(_RADIAL, _CONST), False),
    ("LinearizedOneForm planar speed", lambda: LinearizedOneForm(_PLANAR, _ROT), False),
]


@pytest.mark.parametrize("make, expected", [d[1:] for d in DECLARED],
                         ids=[d[0] for d in DECLARED])
def test_declared_rotation_invariance(make, expected):
    assert make().rotation_invariant is expected


@pytest.mark.parametrize("alpha, beta, expected", [
    (EuclideanMetric(), None, True),
    (EuclideanMetric(), RotationalForm(0.8), True),
    (ConformalMetric(_RADIAL), ExactForm(PotentialBump(0.3, 1.0)), True),
    (ConformalMetric(_RADIAL), bump_gradient(0.3), False),
    (ConformalMetric(_PLANAR), RotationalForm(0.2), False),
    (EuclideanMetric(), SumForm(RotationalForm(0.2), ConstantForm([0.1, 0.0])), False),
], ids=["euclidean", "magnetic", "bump", "component bump", "planar speed", "rot plus const"])
def test_spec_declares_both_parts(dom, alpha, beta, expected):
    spec = RandersSpec(dom, alpha, beta)
    assert spec.rotation_invariant is expected
    assert spec.reverse().rotation_invariant is expected


def test_navigation_specs(dom):
    for speed, wind, expected in ((_RADIAL, _ROT, True), (_RADIAL, _CONST, False),
                                  (_PLANAR, _ROT, False)):
        medium = MediumModel(dom, speed=speed, wind=wind)
        assert zermelo_construct(medium).rotation_invariant is expected
        assert zermelo_construct(medium).reverse().rotation_invariant is expected
        assert linearize(speed, wind, dom)[0].rotation_invariant is expected


# ---------------------------------------------------------------------------
# which path a build takes


class _Spy:
    """Wraps ``boundary.shoot_pairs`` and keeps the pairs of each call."""

    def __init__(self, monkeypatch):
        self.calls = []
        self._shoot = bd.shoot_pairs
        monkeypatch.setattr(bd, "shoot_pairs", self)

    def __call__(self, spec, angles, pairs, opts=None, record_paths=False):
        self.calls.append(np.asarray(pairs))
        return self._shoot(spec, angles, pairs, opts, record_paths)


@pytest.fixture(scope="module")
def component_bump_spec(dom, smooth_alpha):
    # the bump's gauge written as components: the same medium, not declared invariant
    return RandersSpec(dom, smooth_alpha, bump_gradient(0.3))


class TestPathSelection:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_invariant_medium_shoots_row_zero(self, monkeypatch, smooth_bump_spec, threads):
        # the row path runs before the threads branch, and through the
        # module attribute that tracing wraps
        spy = _Spy(monkeypatch)
        data = bd.distance_matrix(smooth_bump_spec, 8, threads=threads)
        assert len(spy.calls) == 1
        assert spy.calls[0].tolist() == [[0, j] for j in range(1, 8)]
        D = data.matrix
        assert np.array_equal(D, _circulant(D[0]))

    @pytest.mark.parametrize("medium, samples", [
        ("wind_spec", 0.0), ("wind_spec", 0.37), ("smooth_spec", "jittered"),
        ("component_bump_spec", 0.0), ("component_bump_spec", 0.37)])
    def test_other_builds_equal_the_full_build_bitwise(self, request, medium, samples):
        # a medium not declared invariant, or samples jittered by up to
        # 1e-3 rad, take the build that shoots every pair
        spec = request.getfixturevalue(medium)
        if samples == "jittered":
            angles = _angles(10) + np.random.default_rng(7).uniform(-1e-3, 1e-3, 10)
        else:
            angles = _angles(10, samples)
        data, error = _row_build(spec, angles)
        shots, D, branches, _, ref_error = full_build(spec, angles)
        assert error is None and ref_error is None
        assert np.array_equal(data.matrix, D)
        assert np.array_equal(data.diagnostics.branch_counts, branches)
        # pairs are i-major, nine per start
        assert np.array_equal(data.diagnostics.sweep_nodes, shots.sweep_nodes[::9])

    def test_offcentre_lens_aborts_as_the_full_build(self, offcentre_lens_spec):
        angles = _angles(12)
        _, error = _row_build(offcentre_lens_spec, angles)
        assert error == full_build(offcentre_lens_spec, angles)[4]
        assert error.startswith("NonAdmissibleError: 3 geodesic branches for boundary pair (0, 4);")

    @pytest.mark.parametrize("jitter, row", [(1e-13, True), (-1e-13, True), (1e-11, False)])
    def test_equispaced_within_1e_12(self, monkeypatch, smooth_bump_spec, jitter, row):
        angles = _angles(8, 0.37)
        angles[5] += jitter
        spy = _Spy(monkeypatch)
        bd.distance_matrix(smooth_bump_spec, BoundarySamples(angles=angles, radius=1.0))
        assert len(spy.calls[0]) == (7 if row else 56)

    def test_rotated_and_wrapped_samples_are_equispaced(self, monkeypatch, smooth_bump_spec):
        # samples from 2 pi (k + offset) / n, wrapped to [0, 2 pi) as
        # sample sets may be, start anywhere on the circle
        angles = np.roll((_angles(8, 0.37) + 4.0) % (2.0 * math.pi), 3)
        spy = _Spy(monkeypatch)
        data = bd.distance_matrix(smooth_bump_spec, BoundarySamples(angles=angles, radius=1.0))
        assert len(spy.calls[0]) == 7
        assert np.array_equal(data.matrix, _circulant(data.matrix[0]))


# ---------------------------------------------------------------------------
# the row build against the full build

INVARIANT = ["euclid_spec", "smooth_spec", "smooth_bump_spec", "kink_spec", "rot_zermelo_spec",
             "lens_spec", "narrow_lens_spec"]
ABORTS = {("lens_spec", 12): "NonAdmissibleError: 3 geodesic branches for boundary pair (0, 5)",
          ("narrow_lens_spec", 12): "NonAdmissibleError: 3 geodesic branches for boundary "
                                    "pair (0, 6)",
          ("narrow_lens_spec", 24): "NonAdmissibleError: 3 geodesic branches for boundary "
                                    "pair (0, 12)"}


@pytest.mark.parametrize("n", [12, 24])
@pytest.mark.parametrize("medium", INVARIANT)
def test_circulant_defect_within_the_full_builds_error(request, medium, n):
    spec = request.getfixturevalue(medium)
    assert spec.rotation_invariant
    angles = _angles(n)
    data, error = _row_build(spec, angles)
    _, D, branches, converged, ref_error = full_build(spec, angles)
    assert error == ref_error
    if (medium, n) in ABORTS:
        assert error.startswith(ABORTS[medium, n] + ";")
    if medium in ("lens_spec", "narrow_lens_spec"):
        assert error is not None
        return
    # a build that did not abort converged on every pair
    assert error is None and converged[~np.eye(n, dtype=bool)].all()
    assert np.array_equal(data.diagnostics.branch_counts, branches)
    # the row build is as accurate as the full build: against a tight full
    # build, up to that build's own circulant defect
    tight = full_build(spec, angles, TIGHT)[1]
    defect = np.abs(tight - _circulant(tight[0])).max()
    assert np.abs(data.matrix - tight).max() <= max(np.abs(D - tight).max() + defect, ROUND_OFF)


def test_row_build_diagnostics(dom, opts):
    # the per-start counters report the one sweep shot; the per-pair arrays
    # roll (the magnetic medium shoots rays for some brackets, so its miss
    # and correction are not all zero)
    n = 12
    spec = _magnetic_spec(dom, 0.8)
    data = distance_matrix(spec, n)
    shots = full_build(spec, _angles(n))[0]
    row = shots.pairs[:, 0] == 0
    diag = data.diagnostics
    assert diag.sweep_nodes[0] == opts.angle_samples and not diag.sweep_nodes[1:].any()
    for field in ("brackets", "bracket_rays", "interpolated"):
        counts = getattr(diag, field)
        assert counts[0] == getattr(shots, field)[row].sum() and not counts[1:].any()
    assert diag.bracket_rays[0] > 0 and diag.miss.any() and diag.correction.any()
    for field in ("miss", "correction", "branch_counts"):
        values = getattr(diag, field)
        assert np.array_equal(values, _circulant(values[0]))
    assert not np.isnan(data.matrix).any() and not diag.excluded.any()


@pytest.mark.parametrize("n, offset, cutoff", [(8, 0.0, 0.8), (12, 0.37, 2.0 * math.pi / 12)],
                         ids=["0.8 rad", "one spacing"])
def test_row_build_excludes_by_separation(smooth_bump_spec, monkeypatch, n, offset, cutoff):
    # separations below the cutoff are excluded on every row alike, also at
    # a cutoff of exactly one sample spacing, where the rounded separations
    # of the other rows fall on both sides of it
    monkeypatch.setattr(bd, "_EXCLUDE_SEPARATION", cutoff)
    samples = BoundarySamples(angles=_angles(n, offset), radius=1.0)
    data = distance_matrix(smooth_bump_spec, samples)
    excluded = data.diagnostics.excluded
    assert np.array_equal(excluded, _circulant(excluded[0]))
    assert np.array_equal(np.isnan(data.matrix), excluded)
    if cutoff == 0.8:
        assert excluded[0].tolist() == [False, True] + [False] * 5 + [True]


# ---------------------------------------------------------------------------
# the magnetic oracle

MAGNETIC_TOL = 3e-10   # a few times the 3.8e-11 measured at n = 48


def _magnetic(s, n):
    """D of |y| + RotationalForm(s) on the unit disk at 2 pi k / n, in closed form.

    The geodesics are circles of radius 1/|s|, turning clockwise for s > 0
    (curvature s towards the right of the velocity), so the centre lies to
    the right of the chord from x_i to x_j for s > 0 and the path is the
    minor arc, of angle 2 asin(d |s| / 2).  Its time is its length plus
    the line integral of (s/2)(x1 dx2 - x2 dx1), s times the area the
    position vector sweeps: (rho^2 dphi + C x (B - A)) / 2 along an arc of
    centre C turning by dphi from A to B.
    """
    th = _angles(n)
    P = np.column_stack([np.cos(th), np.sin(th)])
    A, B = P[:, None, :], P[None, :, :]
    off = ~np.eye(n, dtype=bool)
    d = np.where(off, np.hypot(*(B - A).transpose(2, 0, 1)), 1.0)
    e = (B - A) / d[..., None]
    right = np.stack([e[..., 1], -e[..., 0]], axis=-1)
    rho, sign = 1.0 / abs(s), math.copysign(1.0, s)
    C = 0.5 * (A + B) + sign * np.sqrt(rho * rho - 0.25 * d * d)[..., None] * right
    turn = 2.0 * np.arcsin(0.5 * d * abs(s))
    cross = C[..., 0] * (B - A)[..., 1] - C[..., 1] * (B - A)[..., 0]
    area = 0.5 * (rho * rho * (-sign * turn) + cross)
    return np.where(off, rho * turn + s * area, 0.0)


def test_magnetic_oracle_is_the_chord_for_weak_fields():
    # as s -> 0 the arc flattens to the chord and the swept area to zero
    n = 8
    chord = 2.0 * np.abs(np.sin(0.5 * (_angles(n)[None, :] - _angles(n)[:, None])))
    assert np.abs(_magnetic(1e-6, n) - chord).max() < 1e-6


@pytest.mark.parametrize("n", [16, 48])
@pytest.mark.parametrize("s", [0.3, 0.8, -0.5])
def test_magnetic_matrix_matches_closed_form(dom, s, n):
    spec = _magnetic_spec(dom, s)
    assert spec.rotation_invariant and spec.beta.potential is None
    D = distance_matrix(spec, n).matrix
    assert np.abs(D - _magnetic(s, n)).max() <= MAGNETIC_TOL
    # F(-s)(x, y) = F(s)(x, -y): reversing the field transposes D
    D_rev = distance_matrix(_magnetic_spec(dom, -s), n).matrix
    assert np.abs(D_rev - D.T).max() <= MAGNETIC_TOL


def test_magnetic_full_build_matches_closed_form(dom):
    _, D, branches, _, error = full_build(_magnetic_spec(dom, 0.8), _angles(16))
    assert error is None and (branches[~np.eye(16, dtype=bool)] == 1).all()
    assert np.abs(D - _magnetic(0.8, 16)).max() <= MAGNETIC_TOL


@pytest.mark.parametrize("n", [24, 48])
def test_gauge_shifted_magnetic_matrix_matches_closed_form(dom, n):
    # the constant form w adds <w, x_j> - <w, x_i> to every path from x_i to
    # x_j, and breaks the rotation invariance: this checks the build of
    # every pair on rays that integrate a beta that is not closed
    s, w = 0.8, np.array([0.1, -0.05])
    spec = RandersSpec(dom, EuclideanMetric(), SumForm(RotationalForm(s), ConstantForm(w)))
    assert not spec.rotation_invariant and spec.beta.potential is None
    D = distance_matrix(spec, n).matrix
    shift = np.column_stack([np.cos(_angles(n)), np.sin(_angles(n))]) @ w
    assert np.abs(D - (_magnetic(s, n) + shift[None, :] - shift[:, None])).max() <= MAGNETIC_TOL


def test_concave_magnetic_boundary_aborts_on_the_first_pair(dom):
    # |s| > 1 turns the boundary concave for clockwise tangents (see the
    # README's scope notes); both builds name the same first pair
    spec = _magnetic_spec(dom, 1.2)
    angles = _angles(12)
    _, error = _row_build(spec, angles)
    assert error == full_build(spec, angles)[4]
    assert error == ("NonAdmissibleError: 2 geodesic branches for boundary pair (0, 1); "
                     "distance matrix build aborted")
