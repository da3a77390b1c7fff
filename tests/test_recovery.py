import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from randers import (BoundaryDistanceData, ComponentForm, ConformalMetric,
                     Domain, ExactForm, ExprField, PotentialBump, RandersSpec,
                     RecoveryError, RotationalForm, SumForm, TriplicationError,
                     distance_matrix, herglotz_invert, recover_beta_integrals,
                     recover_boundary_potential, recover_symmetric_data,
                     rigidity_report, verify_gauge)
from randers import recovery
from randers.boundary import BoundarySamples
from conftest import bump_gradient


def analytic_constant_c_data(n=64, c0=1.0, R=1.0):
    """Exact chord travel times for a constant sound speed."""
    ang = 2 * math.pi * np.arange(n) / n
    sep = np.abs((ang[:, None] - ang[None, :] + math.pi) % (2 * math.pi) - math.pi)
    D = 2.0 * R * np.sin(sep / 2.0) / c0
    np.fill_diagonal(D, 0.0)
    return BoundaryDistanceData(angles=ang, radius=R, matrix=D, spec_hash="0" * 12)


@pytest.fixture(scope="module")
def bump_pair(dom, smooth_alpha, smooth_spec):
    # the bump's gradient as components, so the gauge law is not a potential shift
    bumped = RandersSpec(dom, smooth_alpha, bump_gradient(0.3))
    assert bumped._cotangent_fields()[3] is None
    d1 = distance_matrix(smooth_spec, 8)
    d2 = distance_matrix(bumped, 8)
    return d1, d2


class TestBetaIntegrals:
    def test_reversible_zero(self, bump_pair):
        anti = recover_beta_integrals(bump_pair[0])
        assert np.abs(anti).max() <= 2e-8

    def test_wind_diameter_value(self, wind_spec, dom):
        from randers import sample_boundary

        data = distance_matrix(wind_spec, sample_boundary(dom, 2))
        anti = recover_beta_integrals(data)
        # from (-1,0) to (1,0): beta = (-2/3, 0) against displacement (2, 0)
        assert anti[1, 0] == pytest.approx(-4.0 / 3.0, abs=1e-7)

    def test_boundary_vanishing_form_invisible(self, bump_pair):
        anti2 = recover_beta_integrals(bump_pair[1])
        assert np.abs(anti2).max() <= 2e-8


class TestSymmetricData:
    def test_wind_alpha_length(self, wind_spec, dom):
        from randers import sample_boundary

        data = distance_matrix(wind_spec, sample_boundary(dom, 2))
        sym = recover_symmetric_data(data)
        assert sym[0, 1] == pytest.approx(8.0 / 3.0, abs=1e-7)

    def test_reversible_equals_matrix(self, bump_pair):
        sym = recover_symmetric_data(bump_pair[0])
        assert np.array_equal(np.diag(sym), np.zeros(8))
        assert np.abs(sym - bump_pair[0].matrix).max() <= 2e-8

    def test_bump_sym_matches_base_distances(self, bump_pair):
        sym2 = recover_symmetric_data(bump_pair[1])
        assert np.abs(sym2 - bump_pair[0].matrix).max() <= 2e-8


@st.composite
def _travel_time_tables(draw):
    n = draw(st.integers(2, 40))
    D = draw(arrays(np.float64, (n, n), elements=st.floats(-10.0, 10.0)))
    np.fill_diagonal(D, 0.0)
    return D


def _lstsq_potential(delta):
    """Reference: mean-zero least squares on the explicit n(n-1) x n system."""
    n = len(delta)
    rows = [(i, j) for i in range(n) for j in range(n) if i != j]
    A = np.zeros((len(rows), n))
    for r, (i, j) in enumerate(rows):
        A[r, j], A[r, i] = 1.0, -1.0
    rhs = np.array([delta[i, j] for i, j in rows])
    phi = np.linalg.lstsq(A, rhs, rcond=None)[0]
    return phi, float(np.abs(A @ phi - rhs).max())


class TestPotentialRecovery:
    def test_identical_data_gives_zero(self, bump_pair):
        pot = recover_boundary_potential(bump_pair[0], bump_pair[0])
        assert np.abs(pot.values).max() == 0.0
        assert pot.constancy_deviation == 0.0

    def test_boundary_vanishing_bump(self, bump_pair):
        pot = recover_boundary_potential(*bump_pair)
        assert np.abs(pot.values).max() <= 1e-6
        assert pot.constancy_deviation <= 1e-6

    def test_linear_potential_recovered(self, dom, smooth_alpha):
        base_beta = ExactForm(PotentialBump(0.2, 1.0))
        s1 = RandersSpec(dom, smooth_alpha, base_beta)
        # d(0.1 x1) as components: s2 has no potential, so its rays integrate
        # it and the recovered potential tests the solver, not a time shift
        s2 = RandersSpec(dom, smooth_alpha, SumForm(base_beta, ComponentForm(["0.1", "0"])))
        assert s2._cotangent_fields()[3] is None
        d1 = distance_matrix(s1, 8)
        d2 = distance_matrix(s2, 8)
        pot = recover_boundary_potential(d1, d2)
        pts = d1.points
        diffs = pot.values[None, :] - pot.values[:, None]
        expect = 0.1 * (pts[None, :, 0] - pts[:, None, 0])
        assert np.abs(diffs - expect).max() <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(_travel_time_tables())
    def test_matches_least_squares(self, D):
        # random tables are inconsistent for n > 2: the residual is nonzero
        n = len(D)
        ang = 2 * math.pi * np.arange(n) / n
        zero = BoundaryDistanceData(angles=ang, radius=1.0, matrix=np.zeros((n, n)),
                                    spec_hash="0" * 12)
        data = BoundaryDistanceData(angles=ang, radius=1.0, matrix=D, spec_hash="1" * 12)
        pot = recover_boundary_potential(zero, data)
        phi, resid = _lstsq_potential(recover_beta_integrals(data))
        assert np.abs(pot.values - phi).max() <= 1e-12
        assert abs(pot.constancy_deviation - resid) <= 1e-12

    def test_mismatched_samples_rejected(self, bump_pair, euclid_spec):
        other = distance_matrix(euclid_spec, 6)
        with pytest.raises(RecoveryError):
            recover_boundary_potential(bump_pair[0], other)

    def test_mismatched_radius_rejected(self):
        small, large = analytic_constant_c_data(n=8), analytic_constant_c_data(n=8, R=2.0)
        with pytest.raises(RecoveryError, match="^data sets must share the same domain radius$"):
            recover_boundary_potential(small, large)

    @pytest.mark.parametrize("recover", [
        recover_beta_integrals, recover_symmetric_data, herglotz_invert,
        lambda data: recover_boundary_potential(data, data)],
        ids=["beta_integrals", "symmetric_data", "herglotz", "boundary_potential"])
    def test_excluded_pair_rejected(self, recover):
        data = analytic_constant_c_data(n=8)
        data.matrix[0, 1] = np.nan   # an excluded pair
        with pytest.raises(RecoveryError, match="excluded/missing pairs"):
            recover(data)


# The paper's recovery theorem on a medium with no symmetry: the generic c
# (conftest.generic_spec) under d phi, phi = 0.1 x1 x2 + 0.05 x1 - 0.04 x2^2,
# written as components with no declared potential, so the rays integrate it.
# phi does not vanish on the boundary.  Bounds, from measurements at
# n = 12 and 16, offset 0.37:
# - COCYCLE_TOL: the largest |A_ij + A_jk + A_ki| of A = (D - D^T) / 2 under
#   c + d phi measured 6.3e-11 and 5.0e-11, against a build error of
#   5.6e-11 and 5.9e-11 (max |D - D_tight| at rtol 1e-12, atol 1e-15,
#   miss_rtol 1e-11); the bound is twice the larger cocycle, and lies below
#   three times the build error, the most three entries can add up to.
# - NOT_CLOSED_MIN: under the generic beta of conftest, whose d beta is
#   -0.25 + 0.05 x2, the cocycle measured 0.198 at both n; the bound is
#   about 1/20 of that.
# - POTENTIAL_TOL: the recovered potential erred from phi - mean(phi) by
#   9.3e-12 and 6.4e-12; the bound is twice the larger.
# - RESIDUAL_TOL: the fit's coboundary residual (``constancy_deviation``)
#   measured 2.3e-11 and 2.4e-11, below one build error; the bound is twice
#   the larger.
COCYCLE_TOL = 1.3e-10
NOT_CLOSED_MIN = 1e-2
POTENTIAL_TOL = 2e-11
RESIDUAL_TOL = 5e-11
D_PHI = ["0.1*x2 + 0.05", "0.1*x1 - 0.08*x2"]


def _phi(x):
    return 0.1 * x[:, 0] * x[:, 1] + 0.05 * x[:, 0] - 0.04 * x[:, 1] ** 2


def _largest_cocycle(data):
    """max |A_ij + A_jk + A_ki| over sample triples, A the antisymmetric part of D."""
    A = recover_beta_integrals(data)
    return float(np.abs(A[:, :, None] + A[None, :, :] + A.T[:, None, :]).max())


class TestRecoveryWithoutSymmetry:
    @pytest.fixture(scope="class", params=[12, 16])
    def builds(self, request, dom, generic_spec, generic_beta_spec):
        n = request.param
        samples = BoundarySamples(angles=2.0 * math.pi * (np.arange(n) + 0.37) / n, radius=1.0)
        shifted = RandersSpec(dom, generic_spec.alpha, ComponentForm(D_PHI))
        assert shifted._cotangent_fields()[3] is None and not shifted.rotation_invariant
        return (samples, distance_matrix(generic_spec, samples),
                distance_matrix(shifted, samples), distance_matrix(generic_beta_spec, samples))

    def test_closed_form_has_no_cocycle(self, builds):
        _, _, shifted, generic_beta = builds
        assert _largest_cocycle(shifted) <= COCYCLE_TOL
        assert _largest_cocycle(generic_beta) >= NOT_CLOSED_MIN

    def test_potential_recovered(self, builds):
        samples, base, shifted, _ = builds
        phi = _phi(samples.points)
        pot = recover_boundary_potential(base, shifted)
        assert np.abs(pot.values - (phi - phi.mean())).max() <= POTENTIAL_TOL
        assert pot.constancy_deviation <= RESIDUAL_TOL


class TestHerglotzInvert:
    def test_constant_speed_analytic(self):
        prof = herglotz_invert(analytic_constant_c_data(c0=1.5))
        mask = prof.r >= 0.05
        assert np.abs(prof.c[mask] - 1.5).max() / 1.5 <= 1e-3
        assert prof.radial_consistent
        assert prof.p_margin <= 1e-10

    def test_nonradial_data_flagged(self, dom):
        # squash the chord pattern anisotropically: same-separation pairs
        # now disagree, which the spread diagnostic must flag
        data = analytic_constant_c_data(n=64)
        ang = data.angles
        mid = 0.5 * (ang[:, None] + ang[None, :])
        data.matrix *= 1.0 + 0.05 * np.cos(2 * mid)
        np.fill_diagonal(data.matrix, 0.0)
        prof = herglotz_invert(data)
        assert not prof.radial_consistent
        assert prof.spread_max_rel > 1e-3

    def test_triplication_raises(self):
        # travel times with an inflection strong enough to fold p(sep)
        n = 64
        ang = 2 * math.pi * np.arange(n) / n
        sep = np.abs((ang[:, None] - ang[None, :] + math.pi) % (2 * math.pi) - math.pi)
        D = 2.0 * np.sin(sep / 2) + 0.35 * np.sin(sep) ** 4
        np.fill_diagonal(D, 0.0)
        data = BoundaryDistanceData(angles=ang, radius=1.0, matrix=D, spec_hash="0" * 12)
        with pytest.raises(TriplicationError):
            herglotz_invert(data)

    def test_small_n_rejected(self):
        with pytest.raises(RecoveryError):
            herglotz_invert(analytic_constant_c_data(n=8))

    def test_odd_n_rejected(self):
        with pytest.raises(RecoveryError, match="expects an even sample count"):
            herglotz_invert(analytic_constant_c_data(n=17))

    def test_plain_array_rejected(self):
        D = analytic_constant_c_data(n=16).matrix
        with pytest.raises(TypeError, match="^herglotz_invert expects BoundaryDistanceData$"):
            herglotz_invert(D)


def _scipy_pchip_derivative(x, y):
    from scipy.interpolate import PchipInterpolator
    return PchipInterpolator(x, y).derivative()


class TestPchipDerivative:
    # scipy's PchipInterpolator is the oracle; probes are every breakpoint
    # (both ends included), every segment midpoint and points just past
    # either end, where both extend the end cubics
    @pytest.mark.parametrize("x, y, pinned", [
        # uneven spacing, increasing data
        ([0.0, 0.1, 0.35, 0.4, 1.0, 1.7], [0.0, 0.3, 0.5, 0.9, 1.0, 2.2], {}),
        # a flat segment: both its nodes get slope 0
        ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 1.0, 2.0, 3.0], {1: 0.0, 2: 0.0}),
        # a local extremum: the secants change sign, so the slope there is 0
        ([0.0, 0.5, 1.2, 2.0, 2.5], [0.0, 1.0, 3.0, 1.0, 0.0], {2: 0.0}),
        # end rule d = (3 m0 - m1) / 2 on unit spacing: m0 = 1, m1 = 4 gives
        # d = -0.5, of the opposite sign to m0, so 0; m0 = 1, m1 = -4 gives
        # d = 3.5 > 3 |m0| with secants of opposite signs, so 3 m0; the last
        # case is the mirror image at the right end
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 5.0, 6.0], {0: 0.0}),
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, -3.0, -2.0], {0: 3.0}),
        ([0.0, 1.0, 2.0, 3.0], [-2.0, -3.0, 1.0, 0.0], {3: -3.0}),
    ])
    def test_matches_scipy(self, x, y, pinned):
        x, y = np.array(x), np.array(y)
        mids = 0.5 * (x[:-1] + x[1:])
        q = np.concatenate([x, mids, [x[0] - 0.3, x[-1] + 0.3]])
        got = recovery._pchip_derivative(x, y)(q)
        ref = _scipy_pchip_derivative(x, y)(q)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        for node, slope in pinned.items():
            assert got[node] == slope

    def test_random_data_matches_scipy(self, rng):
        for _ in range(50):
            x = np.cumsum(rng.uniform(0.05, 1.0, 12))
            y = np.round(rng.normal(size=12), 1)
            q = np.concatenate([x, rng.uniform(x[0] - 0.5, x[-1] + 0.5, 40)])
            got = recovery._pchip_derivative(x, y)(q)
            ref = _scipy_pchip_derivative(x, y)(q)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.fixture(scope="class")
    def smooth_data_64(self, smooth_spec):
        return distance_matrix(smooth_spec, 64)

    @pytest.mark.parametrize("source", ["analytic", "smooth_64"])
    def test_inversion_matches_scipy_interpolant(self, source, smooth_data_64, monkeypatch):
        data = analytic_constant_c_data() if source == "analytic" else smooth_data_64
        got = herglotz_invert(data)
        monkeypatch.setattr(recovery, "_pchip_derivative", _scipy_pchip_derivative)
        ref = herglotz_invert(data)
        for field in ("r", "c"):
            a, b = getattr(got, field), getattr(ref, field)
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


class TestVerifyGauge:
    def test_exact_gauge(self, dom, smooth_spec, smooth_bump_spec, bump):
        rep = verify_gauge(smooth_spec.beta, smooth_bump_spec.beta, bump, dom)
        assert rep.gauge_residual <= 1e-12
        assert rep.boundary_residual <= 1e-12

    def test_rotational_perturbation_detected(self, dom, smooth_spec, bump):
        eps = 1e-3
        beta2 = SumForm(ExactForm(bump), RotationalForm(eps))
        rep = verify_gauge(smooth_spec.beta, beta2, bump, dom)
        # rotational part of size eps/2 * |x| survives in the residual
        assert rep.gauge_residual == pytest.approx(eps / 2, rel=0.1)

    def test_constant_shift_appears_on_boundary(self, dom, smooth_spec, smooth_bump_spec):
        shifted = ExprField("0.3*(1 - (x1^2 + x2^2)) + 0.25")
        rep = verify_gauge(smooth_spec.beta, smooth_bump_spec.beta, shifted, dom)
        assert rep.gauge_residual <= 1e-12
        assert rep.boundary_residual == pytest.approx(0.25, abs=1e-12)


class TestRigidityReport:
    def test_gauge_pair_verdicts(self, dom, smooth_spec, smooth_bump_spec, bump, bump_pair):
        rep = rigidity_report(smooth_spec, smooth_bump_spec, n=8,
                              data1=bump_pair[0], data2=bump_pair[1], phi_truth=bump)
        assert rep.verdicts["boundary_data_equal"] is True
        assert rep.verdicts["gauge_equivalent"] is True
        assert rep.hypothesis["admissible"] is True
        assert rep.psi_identity
        assert rep.gauge.gauge_residual <= 1e-12

    def test_simulated_data_equal_explicit_data(self, smooth_spec, smooth_bump_spec, bump_pair):
        rep = rigidity_report(smooth_spec, smooth_bump_spec, n=8)
        ref = rigidity_report(smooth_spec, smooth_bump_spec, n=8, data1=bump_pair[0],
                              data2=distance_matrix(smooth_bump_spec, 8))
        assert rep.verdicts == ref.verdicts
        assert np.array_equal(rep.potential.values, ref.potential.values)

    def test_different_profiles_fail_clause(self, dom, smooth_spec, kink_profile):
        other = RandersSpec(dom, ConformalMetric(kink_profile))
        d1 = distance_matrix(smooth_spec, 6)
        d2 = distance_matrix(other, 6)
        rep = rigidity_report(smooth_spec, other, n=6, data1=d1, data2=d2)
        assert rep.verdicts["boundary_data_equal"] is False
        assert rep.sym_max_diff > 1e-3

    def test_mismatched_domains_rejected(self, euclid_spec):
        larger = RandersSpec(Domain(radius=2.0), euclid_spec.alpha)
        with pytest.raises(RecoveryError, match="^scenario domains differ$"):
            rigidity_report(euclid_spec, larger, n=4)

    def test_profile_inversion_skipped_off_conformal_radial(self, euclid_spec, generic_spec):
        # a conformal alpha whose speed is not radial: the inversion is
        # noted as skipped and no profile is computed
        data = analytic_constant_c_data(n=16)
        rep = rigidity_report(euclid_spec, generic_spec, n=16, data1=data, data2=data,
                              invert_profile=True)
        assert rep.notes == ["profile inversion skipped: media are not conformal-radial"]
        assert rep.profiles == [] and not rep.psi_identity
        # a Euclidean alpha is conformal-radial, with c = 1: its chord data
        # invert to that speed (measured within 1.8e-8 for r >= 0.05)
        rep = rigidity_report(euclid_spec, euclid_spec, n=16, data1=data, data2=data,
                              invert_profile=True)
        assert rep.notes == ["conformal-radial case: boundary-fixing repositioning is the identity"]
        assert rep.psi_identity and len(rep.profiles) == 2
        keep = rep.profiles[0].r >= 0.05
        assert np.abs(rep.profiles[0].c[keep] - 1.0).max() <= 1e-6

    def test_nonclosed_rejected(self, dom, euclid_spec):
        rot = RandersSpec(dom, euclid_spec.alpha, RotationalForm(0.3))
        with pytest.raises(RecoveryError, match="closed"):
            rigidity_report(euclid_spec, rot, n=4)

    def test_admissibility_failure_poisons_verdict(self, euclid_spec, monkeypatch):
        import randers.recovery as rc
        from randers import NonAdmissibleError

        def explode(spec, n, opts):
            raise NonAdmissibleError("2 geodesic branches for boundary pair (0, 1)")

        monkeypatch.setattr(rc, "distance_matrix", explode)
        rep = rigidity_report(euclid_spec, euclid_spec, n=4)
        assert rep.hypothesis["admissible"] is False
        assert rep.verdicts["boundary_data_equal"] is None
        assert any("admissibility" in note for note in rep.notes)

    def test_profiles_equal_inversion_of_symmetrized_data(self, smooth_spec, smooth_bump_spec,
                                                            rng):
        # asymmetric tables; the report inverts them as they come, and
        # herglotz_invert's own symmetrization must give what inverting the
        # symmetrized tables gives, bit for bit
        data = []
        for c0 in (1.0, 1.2):
            d = analytic_constant_c_data(n=32, c0=c0)
            d.matrix += 1e-9 * rng.uniform(size=d.matrix.shape) * ~np.eye(32, dtype=bool)
            data.append(d)
        rep = rigidity_report(smooth_spec, smooth_bump_spec, n=32, data1=data[0],
                              data2=data[1], invert_profile=True)
        assert len(rep.profiles) == 2
        for prof, d in zip(rep.profiles, data):
            assert not np.array_equal(d.matrix, d.matrix.T)
            sym = BoundaryDistanceData(angles=d.angles, radius=d.radius,
                                       matrix=0.5 * (d.matrix + d.matrix.T),
                                       spec_hash=d.spec_hash)
            ref = herglotz_invert(sym)
            for field in ("r", "c", "separation", "travel_time", "spread_max_rel",
                          "radial_consistent", "p_margin"):
                assert np.array_equal(getattr(prof, field), getattr(ref, field))

    def test_report_write(self, tmp_path, dom, smooth_spec, smooth_bump_spec, bump_pair):
        rep = rigidity_report(smooth_spec, smooth_bump_spec, n=8,
                              data1=bump_pair[0], data2=bump_pair[1])
        rep.write(tmp_path / "rec")
        assert (tmp_path / "rec" / "report.txt").exists()
        assert (tmp_path / "rec" / "potential.csv").exists()
        assert "verdict boundary_data_equal: True" in rep.summary()

    def test_report_write_gauge_and_profiles(self, tmp_path, smooth_spec, smooth_bump_spec, bump):
        data = analytic_constant_c_data(n=32)
        rep = rigidity_report(smooth_spec, smooth_bump_spec, n=32, data1=data, data2=data,
                              phi_truth=bump, invert_profile=True)
        rep.write(tmp_path / "rec")
        text = (tmp_path / "rec" / "report.txt").read_text()
        assert f"  gauge residual         = {rep.gauge.gauge_residual:.3e}\n" in text
        assert f"  boundary phi residual  = {rep.gauge.boundary_residual:.3e}\n" in text
        assert len(rep.profiles) == 2
        for k, prof in enumerate(rep.profiles, start=1):
            lines = (tmp_path / "rec" / f"profile_{k}.csv").read_text().splitlines()
            assert lines[:2] == ["# recovered radial sound speed units=length,speed", "r,c"]
            table = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
            assert np.array_equal(table, np.column_stack([prof.r, prof.c]))
