import math

import numpy as np
import pytest

from randers import (ConformalMetric, ConnectivityError, ConstantField,
                     ConstantForm, DegenerateInputError, Domain, DomainError,
                     EuclideanMetric, ExactForm, NonAdmissibleError,
                     PotentialBump, RadialProfile, RandersError, RandersSpec,
                     RotationalForm, SolverOptions, SumForm, TrappedGeodesicError,
                     conjugate_point_scan, curve_length, distance_matrix,
                     integrate_geodesic, polyline_hausdorff,
                     reversed_geodesic_check, shoot_pairs, solve_bvp, spray)
from randers import boundary as bd
from randers import geodesics as geo
from randers.geodesics import _bracket_roots, _sweep_angles


class TestSolverOptions:
    @pytest.mark.parametrize("field, value", [
        ("rtol", 0.0), ("atol", 0.0), ("rtol", -1e-9), ("atol", float("nan")),
        ("miss_rtol", float("nan")), ("miss_rtol", 0.0), ("trap_time_factor", float("inf")),
        ("trap_time_factor", 0.0), ("max_steps", 0), ("angle_samples", 1),
        ("angle_samples", 0), ("exclude_separation", -1e-3),
        ("exclude_separation", float("nan")), ("exclude_separation", float("inf")),
    ])
    def test_bad_value_names_field(self, field, value):
        # rtol = atol = 0 used to raise ZeroDivisionError in the sweep, and
        # miss_rtol = nan or angle_samples = 1 to report "no shooting branch"
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SolverOptions(**{field: value})

    def test_edge_values_accepted(self):
        SolverOptions(max_steps=1, angle_samples=2, exclude_separation=0.0)


class TestSpray:
    def test_constant_coefficients_vanish(self, wind_spec, rng):
        for _ in range(5):
            x = rng.uniform(-0.6, 0.6, 2)
            y = rng.normal(size=2)
            assert np.abs(spray(wind_spec, x, y)).max() == 0.0

    def test_conformal_matches_christoffel(self, dom, kink_profile, rng):
        spec = RandersSpec(dom, ConformalMetric(kink_profile))
        for _ in range(8):
            x = rng.uniform(-0.6, 0.6, 2)
            y = rng.normal(size=2)
            r = np.linalg.norm(x)
            psi_grad = (x / r) / (2.0 - r)   # grad of -ln c for c = 2 - r
            oracle = (psi_grad @ y) * y - 0.5 * psi_grad * (y @ y)
            assert np.abs(spray(spec, x, y) - oracle).max() < 1e-13

    def test_degree_two_homogeneity(self, smooth_bump_spec, rng):
        x = rng.uniform(-0.5, 0.5, 2)
        y = rng.normal(size=2)
        g1 = spray(smooth_bump_spec, x, y)
        g2 = spray(smooth_bump_spec, x, 2.0 * y)
        assert np.abs(g2 - 4.0 * g1).max() <= 1e-6 * max(np.abs(g2).max(), 1e-12)

    def test_zero_vector_rejected(self, euclid_spec):
        with pytest.raises(DegenerateInputError):
            spray(euclid_spec, [0.1, 0.1], [0.0, 0.0])

    def test_matches_nested_finite_differences(self, dom, rng):
        # fully independent route: both derivative layers by central
        # differences through the raw norm, on a spec where alpha and the
        # (non-exact) 1-form both vary in x
        from randers import ComponentForm, MediumModel, RadialProfile, zermelo_construct

        med = MediumModel(dom, speed=RadialProfile("2 - r^2"),
                          wind=ComponentForm(["0.2 - 0.1*x2^2", "0.1*x1"]))
        spec = zermelo_construct(med)

        def F2(x, y):
            return float(spec._raw_norm(np.atleast_2d(x), np.atleast_2d(y))[0]) ** 2

        def spray_fd(x, y, hx=1e-5, hy=1e-5):
            g = np.zeros((2, 2))
            for i in range(2):
                for j in range(2):
                    ei, ej = np.eye(2)[i] * hy, np.eye(2)[j] * hy
                    g[i, j] = (F2(x, y + ei + ej) - F2(x, y + ei - ej)
                               - F2(x, y - ei + ej) + F2(x, y - ei - ej)) / (8 * hy * hy)
            rhs = np.zeros(2)
            for l in range(2):
                el = np.eye(2)[l]
                mixed = 0.0
                for k in range(2):
                    ek = np.eye(2)[k] * hx
                    dp = (F2(x + ek, y + el * hy) - F2(x + ek, y - el * hy)) / (2 * hy)
                    dm = (F2(x - ek, y + el * hy) - F2(x - ek, y - el * hy)) / (2 * hy)
                    mixed += y[k] * (dp - dm) / (2 * hx)
                rhs[l] = mixed - (F2(x + el * hx, y) - F2(x - el * hx, y)) / (2 * hx)
            return 0.25 * np.linalg.solve(g, rhs)

        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, 2)
            y = rng.normal(size=2)
            assert np.abs(spray(spec, x, y) - spray_fd(x, y)).max() <= 1e-4


class TestInitialValue:
    def test_euclidean_chord(self, euclid_spec):
        path = integrate_geodesic(euclid_spec, [-1.0, 0.0], [2.0, 0.0])
        assert path.exit_time == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(path.exit_point, [1.0, 0.0], atol=1e-9)
        assert abs(path.f_length - path.exit_time) <= 1e-8 * path.exit_time

    def test_wind_diameter(self, wind_spec):
        path = integrate_geodesic(wind_spec, [-1.0, 0.0], [1.0, 0.0])
        assert path.exit_time == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert np.allclose(path.exit_point, [1.0, 0.0], atol=1e-8)
        # straight line: all samples on the axis
        assert np.abs(path.x[:, 1]).max() < 1e-12

    def test_unit_speed_conservation(self, dom, kink_profile):
        spec = RandersSpec(dom, ConformalMetric(kink_profile))
        path = integrate_geodesic(spec, dom.boundary_point(0.7),
                                  [-0.8, -0.5])
        assert path.unit_speed_residual(spec) <= 1e-6
        assert abs(path.exit_point @ path.exit_point - 1.0) <= 2e-9

    def test_exit_on_boundary(self, smooth_bump_spec, dom):
        path = integrate_geodesic(smooth_bump_spec, dom.boundary_point(1.2), [-0.2, -0.9])
        assert abs(np.linalg.norm(path.exit_point) - 1.0) <= 1e-9

    def test_outward_start_rejected(self, euclid_spec):
        with pytest.raises(DomainError):
            integrate_geodesic(euclid_spec, [1.0, 0.0], [1.0, 0.0])

    def test_budget_exhaustion_reports_trapped(self, euclid_spec):
        from randers import TrappedGeodesicError

        with pytest.raises(TrappedGeodesicError):
            integrate_geodesic(euclid_spec, [-1.0, 0.0], [1.0, 0.0],
                               SolverOptions(trap_time_factor=0.01))

    def test_geodesic_equation_residual(self, dom, smooth_bump_spec):
        # Hermite-Simpson consistency: the velocity divided difference per
        # interval must match the Simpson average of the spray acceleration,
        # with the midpoint state reconstructed from the stored samples
        path = integrate_geodesic(smooth_bump_spec, dom.boundary_point(0.3), [-0.7, 0.4])

        def acc_at(x, y):
            return -2.0 * spray(smooth_bump_spec, x, y)

        h = np.diff(path.t)[:, None]
        x0c, x1c = path.x[:-1], path.x[1:]
        y0c, y1c = path.y[:-1], path.y[1:]
        a0 = acc_at(x0c, y0c)
        a1 = acc_at(x1c, y1c)
        xm = 0.5 * (x0c + x1c) + (5.0 / 32.0) * h * (y0c - y1c) + (h ** 2 / 64.0) * (a0 + a1)
        ym = (15.0 / 8.0) * (x1c - x0c) / h - (7.0 / 16.0) * (y0c + y1c) + (h / 32.0) * (a1 - a0)
        am = acc_at(xm, ym)
        resid = np.abs((y1c - y0c) / h - (a0 + 4.0 * am + a1) / 6.0).max()
        assert resid <= 1e-4


class TestBoundaryValue:
    def test_euclidean_diameter(self, euclid_spec):
        res = solve_bvp(euclid_spec, [-1.0, 0.0], [1.0, 0.0])
        assert res.branch_count == 1
        assert res.path.exit_time == pytest.approx(2.0, abs=1e-8)
        assert abs(res.miss) <= 1e-8

    def test_wind_oracle_times(self, wind_spec):
        down = solve_bvp(wind_spec, [-1.0, 0.0], [1.0, 0.0])
        up = solve_bvp(wind_spec, [1.0, 0.0], [-1.0, 0.0])
        assert down.path.exit_time == pytest.approx(4.0 / 3.0, abs=1e-7)
        assert up.path.exit_time == pytest.approx(4.0, abs=1e-7)

    def test_wind_chord_net_speed(self, dom, wind_spec):
        # analytic travel time for a straight chord under constant drift
        a, b = dom.boundary_point(0.9), dom.boundary_point(3.8)
        chord = b - a
        L = np.linalg.norm(chord)
        d = chord / L
        w = np.array([0.5, 0.0])
        s = w @ d + math.sqrt((w @ d) ** 2 + 1.0 - w @ w)
        res = solve_bvp(wind_spec, a, b)
        assert res.path.exit_time == pytest.approx(L / s, abs=1e-9)

    def test_identical_points_rejected(self, euclid_spec):
        with pytest.raises(DomainError):
            solve_bvp(euclid_spec, [1.0, 0.0], [1.0, 0.0])

    def test_interior_point_rejected(self, euclid_spec):
        with pytest.raises(DomainError):
            solve_bvp(euclid_spec, [0.5, 0.0], [1.0, 0.0])

    def test_no_branch_reports_connectivity(self, euclid_spec):
        # with the ray budget too small every sweep ray fails, so no bracket
        # can form and the solver must report the missing connection
        with pytest.raises(ConnectivityError):
            solve_bvp(euclid_spec, [-1.0, 0.0], [1.0, 0.0],
                      SolverOptions(trap_time_factor=0.01, angle_samples=32))

    def test_minimality_against_competitors(self, dom, smooth_bump_spec, rng):
        a, b = dom.boundary_point(0.2), dom.boundary_point(2.9)
        d = solve_bvp(smooth_bump_spec, a, b).path.exit_time
        for _ in range(10):
            mid = rng.uniform(-0.5, 0.5, (2, 2))
            poly = np.vstack([a, mid, b])
            assert curve_length(smooth_bump_spec, poly).total >= d - 1e-9


class TestBracketLogic:
    def test_single_root(self):
        miss = np.linspace(-1.0, 1.0, 16)
        ok = np.ones(16, dtype=bool)
        node, bracket = _bracket_roots(miss, ok, 1e-8)
        assert bracket.shape == (15,) and node.shape == (16,)
        assert bracket.sum() == 1 and not node.any()

    def test_wrap_jump_discarded(self):
        miss = np.array([2.0, 2.8, -2.9, -2.0, -1.0, -0.5, -0.2, -0.1])
        ok = np.ones(8, dtype=bool)
        node, bracket = _bracket_roots(miss, ok, 1e-8)
        assert not bracket.any() and not node.any()

    def test_node_root_detected(self):
        miss = np.array([1.0, 0.5, 0.0, -0.5, -1.0, -1.5, -2.0, -2.5])
        ok = np.ones(8, dtype=bool)
        node, bracket = _bracket_roots(miss, ok, 1e-8)
        assert np.flatnonzero(node).tolist() == [2] and not bracket.any()

    def test_invalid_rays_break_brackets(self):
        miss = np.array([1.0, 0.5, -0.5, -1.0, -1.5, -2.0])
        ok = np.array([True, True, False, True, True, True])
        _, bracket = _bracket_roots(miss, ok, 1e-8)
        assert not bracket.any()

    def test_multiple_roots_counted(self):
        miss = np.array([1.0, 0.5, -0.5, -1.0, -0.4, 0.3, 0.8, 0.4, -0.3, -0.8, -1.2, -1.6])
        ok = np.ones(12, dtype=bool)
        _, bracket = _bracket_roots(miss, ok, 1e-8)
        assert bracket.sum() == 3

    def test_rows_match_single_sweeps(self):
        # one (targets x K) call marks the same roots as one call per row
        miss = np.array([[1.0, 0.5, 0.0, -0.5, -1.0, -1.5],
                         [2.0, 2.8, -2.9, -2.0, -1.0, 0.5],
                         [1.0, -0.5, -1.0, -0.4, 0.3, 0.8]])
        ok = np.array([True, True, True, True, False, True])
        node, bracket = _bracket_roots(miss, ok, 1e-8)
        for row, m in enumerate(miss):
            n1, b1 = _bracket_roots(m, ok, 1e-8)
            assert np.array_equal(node[row], n1) and np.array_equal(bracket[row], b1)


class TestFalsePosition:
    def test_batch_equals_brackets_alone(self, monkeypatch, smooth_bump_spec):
        # chords of different lengths converge at different iterations; under
        # a step cap between their step counts the longest chord's rays fail
        spec, psi = smooth_bump_spec, _sweep_angles(16)
        theta0 = np.array([0.0, 0.0, 0.0, 1.0, 2.0, 2.5])
        theta1 = np.array([3.0, 0.3, 1.6, 4.0, 4.3, 2.2])
        brackets = []
        for a, b in zip(theta0, theta1):
            th, _, ok, _ = geo._exit_fan(spec, np.full(16, a), psi, SolverOptions())
            m = geo._wrap(th - b)
            k = int(np.argmax(_bracket_roots(m, ok, 1e-8)[1]))
            brackets.append((psi[k], psi[k + 1], m[k], m[k + 1]))
        lo, hi, m_lo, m_hi = (np.array(c) for c in zip(*brackets))

        fans = []
        exit_fan = geo._exit_fan

        def counted(*args, **kwargs):
            fans.append(len(args[2]))
            return exit_fan(*args, **kwargs)

        monkeypatch.setattr(geo, "_exit_fan", counted)
        opts = SolverOptions(max_steps=89)
        batch = geo._false_position(spec, theta0, theta1, lo, hi, m_lo, m_hi, opts)
        assert fans[0] == 6 and min(fans) < 6   # finished brackets leave the batch
        iterations = []
        for q in range(6):
            fans.clear()
            one = geo._false_position(spec, theta0[q:q + 1], theta1[q:q + 1], lo[q:q + 1],
                                      hi[q:q + 1], m_lo[q:q + 1], m_hi[q:q + 1], opts)
            iterations.append(len(fans))
            for got, ref in zip(batch, one):
                assert np.array_equal(got[q:q + 1], ref, equal_nan=True)
        ok = batch[3]
        assert ok.any() and not ok.all()
        assert np.isnan(batch[0][~ok]).all()
        assert len({n for n, good in zip(iterations, ok) if good}) > 1


class TestShootPairs:
    def test_matches_solve_bvp(self, dom, smooth_bump_spec):
        angles = np.array([0.0, 1.3, 2.7, 4.4])
        pairs = [(0, 2), (1, 3), (3, 0)]
        shots = shoot_pairs(smooth_bump_spec, angles, pairs)
        assert shots.pairs.tolist() == [list(p) for p in pairs]
        assert shots.converged.all() and (shots.branch_count == 1).all()
        for (i, j), time in zip(pairs, shots.time):
            ref = solve_bvp(smooth_bump_spec, dom.boundary_point(angles[i]),
                            dom.boundary_point(angles[j]))
            assert time == pytest.approx(ref.path.exit_time, abs=1e-9)

    def test_independent_of_pair_order(self, wind_spec, rng):
        # straight wind rays from a 32-point sampling hit odd separations
        # exactly at a sweep node (720 k / 32 is a half-integer for odd k)
        n, starts = 32, range(4)
        angles = 2.0 * math.pi * np.arange(n) / n
        pairs = [(i, j) for i in starts for j in range(n) if i != j]
        shuffled = [pairs[k] for k in rng.permutation(len(pairs))]
        per_start = [shoot_pairs(wind_spec, angles, [p for p in pairs if p[0] == i])
                     for i in starts]
        runs = [[shoot_pairs(wind_spec, angles, pairs)],
                [shoot_pairs(wind_spec, angles, shuffled)], per_start]

        def table(records, field):
            by_pair = {(int(i), int(j)): v for shots in records
                       for (i, j), v in zip(shots.pairs, getattr(shots, field))}
            return np.array([by_pair[p] for p in pairs])

        # both result paths are compared: sweep nodes and false position
        at_node = np.isin(table(runs[0], "angle"), _sweep_angles(720))
        assert at_node.any() and not at_node.all()
        for field in ("time", "miss", "angle", "branch_count"):
            ref = table(runs[0], field)
            for other in runs[1:]:
                assert np.array_equal(table(other, field), ref)

    def test_recorded_paths(self, dom, smooth_bump_spec):
        angles = np.array([0.0, 2.0])
        shots = shoot_pairs(smooth_bump_spec, angles, [(0, 1)], record_paths=True)
        path, = shots.paths
        assert path is not None
        assert np.allclose(path.x[-1], dom.boundary_point(2.0), atol=1e-7)
        # recorded re-integration caps the step size, so times agree only
        # to solver accuracy
        assert abs(path.exit_time - shots.time[0]) < 1e-9

    def test_recorded_ray_that_does_not_exit_names_pair(self, smooth_bump_spec):
        # the sweep and false-position rays exit within 100 steps; the
        # recorded re-run caps its step size and needs more
        opts, angles = SolverOptions(max_steps=100), [0.0, 2.0]
        shots = shoot_pairs(smooth_bump_spec, angles, [(0, 1)], opts)
        assert shots.converged[0] and shots.branch_count[0] == 1
        with pytest.raises(TrappedGeodesicError, match=r"^geodesic of boundary pair \(0, 1\) "):
            shoot_pairs(smooth_bump_spec, angles, [(0, 1)], opts, record_paths=True)

    def test_paths_only_for_single_converged_branch(self, lens_spec):
        # pair (0, 5) of the 12-point lens sampling has three branches
        angles = 2.0 * math.pi * np.arange(12) / 12
        shots = shoot_pairs(lens_spec, angles, [(0, 5), (0, 1)], record_paths=True)
        assert shots.branch_count.tolist() == [3, 1]
        assert shots.paths[0] is None and shots.paths[1] is not None
        with pytest.raises(NonAdmissibleError, match=r"^3 geodesic branches connect boundary "
                                                     r"angles 0\.0000 -> 2\.6180;"):
            shots.single_path(0, angles)
        assert shots.single_path(1, angles) is shots.paths[1]

    @pytest.mark.parametrize("record_paths", [False, True])
    def test_no_pairs_give_empty_record(self, wind_spec, record_paths):
        shots = shoot_pairs(wind_spec, [0.0, 1.0], [], record_paths=record_paths)
        assert shots.pairs.shape == (0, 2)
        for field in ("time", "miss", "branch_count", "converged", "angle", "correction"):
            assert getattr(shots, field).shape == (0,)
        assert shots.paths == ([] if record_paths else None)


_MEDIA = ("smooth_bump_spec", "wind_spec", "rot_zermelo_spec", "lens_spec",
          "offcentre_lens_spec")


def _all_pairs(n):
    return 2.0 * math.pi * np.arange(n) / n, [(i, j) for i in range(n) for j in range(n) if i != j]


def _build_error(monkeypatch, spec, shots, n):
    """The error distance_matrix raises for these shots, or None."""
    with monkeypatch.context() as mp:
        mp.setattr(bd, "shoot_pairs", lambda *args, **kwargs: shots)
        try:
            bd.distance_matrix(spec, n)
        except RandersError as exc:
            return f"{type(exc).__name__}: {exc}"
    return None


class TestLooseSweep:
    @pytest.mark.parametrize("medium", ["smooth_bump_spec", "rot_zermelo_spec", "kink_spec",
                                        "lens_spec", "offcentre_lens_spec"])
    def test_loose_error_within_guard_margin(self, request, medium):
        # the guard band holds only while the loose sweep's exit angles stay
        # well inside it: a tenth of the band is the self-check's trigger
        spec = request.getfixturevalue(medium)
        psi, starts = _sweep_angles(720), np.array([0.0, 1.9, 3.3, 4.2])
        th0, ps = np.repeat(starts, 720), np.tile(psi, len(starts))
        loose = SolverOptions(rtol=geo._SWEEP_RTOL, atol=geo._SWEEP_ATOL)
        th_l, _, ok_l, _ = geo._exit_fan(spec, th0, ps, loose)
        th_t, _, ok_t, _ = geo._exit_fan(spec, th0, ps, SolverOptions())
        assert ok_t.all() and np.array_equal(ok_l, ok_t)
        assert np.abs(geo._wrap(th_l - th_t)).max() < 0.1 * geo._GUARD

    @pytest.mark.parametrize("medium,opts", [(m, SolverOptions()) for m in _MEDIA] + [
        # loose rays take about a quarter of the steps: some exit only loosely
        ("smooth_bump_spec", SolverOptions(max_steps=60))],
        ids=[*_MEDIA, "bump-max_steps60"])
    def test_matches_single_pass(self, request, monkeypatch, medium, opts):
        # with the sweep constants at the solver tolerance there is one pass
        spec, n = request.getfixturevalue(medium), 12
        angles, pairs = _all_pairs(n)
        two = shoot_pairs(spec, angles, pairs, opts)
        monkeypatch.setattr(geo, "_SWEEP_RTOL", opts.rtol)
        monkeypatch.setattr(geo, "_SWEEP_ATOL", opts.atol)
        one = shoot_pairs(spec, angles, pairs, opts)
        assert np.array_equal(two.pairs, one.pairs)
        assert np.array_equal(two.branch_count, one.branch_count)
        assert np.array_equal(two.converged, one.converged)
        c = two.converged
        assert (np.abs(two.time[c] - one.time[c]) <= 1e-12).all()
        assert _build_error(monkeypatch, spec, two, n) == _build_error(monkeypatch, spec, one, n)

    def test_target_between_loose_and_tight_exit(self, monkeypatch, smooth_bump_spec):
        # the loose and the tight ray miss this target on opposite sides: a
        # bracket taken from the loose sweep would not contain the root
        spec, psi = smooth_bump_spec, _sweep_angles(720)
        loose = SolverOptions(rtol=geo._SWEEP_RTOL, atol=geo._SWEEP_ATOL)
        th_t, _, _, _ = geo._exit_fan(spec, np.zeros(720), psi, SolverOptions())
        th_l, _, _, _ = geo._exit_fan(spec, np.zeros(720), psi, loose)
        k = int(np.argmax(np.abs(geo._wrap(th_l - th_t))))
        target = 0.5 * (th_l[k] + th_t[k])
        assert abs(geo._wrap(th_t[k] - target)) > SolverOptions().miss_rtol
        two = shoot_pairs(spec, [0.0, target], [(0, 1)])
        monkeypatch.setattr(geo, "_SWEEP_RTOL", SolverOptions().rtol)
        monkeypatch.setattr(geo, "_SWEEP_ATOL", SolverOptions().atol)
        one = shoot_pairs(spec, [0.0, target], [(0, 1)])
        assert (two.branch_count[0], two.converged[0]) == (one.branch_count[0],
                                                           one.converged[0]) == (1, True)
        assert abs(two.time[0] - one.time[0]) <= 1e-12

    def test_ray_straddling_time_budget(self, monkeypatch, smooth_bump_spec):
        # t_max between a ray's loose and tight exit times: it exits only in
        # the loose sweep, and with a shorter neighbour it would bracket a
        # target that lies outside the miss band
        spec, psi = smooth_bump_spec, _sweep_angles(720)
        loose = SolverOptions(rtol=geo._SWEEP_RTOL, atol=geo._SWEEP_ATOL)
        th, t_t, _, _ = geo._exit_fan(spec, np.zeros(720), psi, SolverOptions())
        _, t_l, _, _ = geo._exit_fan(spec, np.zeros(720), psi, loose)
        k = next(k for k in range(360, 719) if t_l[k] < t_t[k] and t_t[k + 1] < t_l[k])
        target = 0.5 * (th[k] + th[k + 1])
        assert abs(geo._wrap(th[k] - target)) > SolverOptions().miss_rtol + geo._GUARD
        opts = SolverOptions(trap_time_factor=0.5 * (t_l[k] + t_t[k]) / geo._time_scale(spec))
        two = shoot_pairs(spec, [0.0, target], [(0, 1)], opts)
        monkeypatch.setattr(geo, "_SWEEP_RTOL", opts.rtol)
        monkeypatch.setattr(geo, "_SWEEP_ATOL", opts.atol)
        one = shoot_pairs(spec, [0.0, target], [(0, 1)], opts)
        assert (two.branch_count[0], two.converged[0]) == (one.branch_count[0],
                                                           one.converged[0]) == (0, False)

    def test_self_check_retraces_whole_fans(self, monkeypatch, smooth_bump_spec):
        # a sweep far too loose for the band: the re-integrated rays show it,
        # and their starts' fans are integrated again at the solver tolerance
        spec, n = smooth_bump_spec, 8
        angles, pairs = _all_pairs(n)
        ref = shoot_pairs(spec, angles, pairs)
        fans = []
        exit_fan = geo._exit_fan

        def counted(spec, theta0, psi, opts, record=False):
            fans.append((len(psi), opts.rtol))
            return exit_fan(spec, theta0, psi, opts, record)

        monkeypatch.setattr(geo, "_exit_fan", counted)
        monkeypatch.setattr(geo, "_SWEEP_RTOL", 3e-3)
        monkeypatch.setattr(geo, "_SWEEP_ATOL", 1e-5)
        got = shoot_pairs(spec, angles, pairs)
        tight = SolverOptions().rtol
        assert fans[0] == (n * 720, 3e-3) and fans[1][1] == tight
        assert fans[2][0] % 720 == 0 and fans[2][0] > 0 and fans[2][1] == tight
        assert np.array_equal(got.branch_count, ref.branch_count)
        assert np.array_equal(got.converged, ref.converged)
        assert (np.abs(got.time - ref.time) <= 1e-12).all()


class TestFirstVariation:
    @pytest.mark.parametrize("medium", ["smooth_bump_spec", "rot_zermelo_spec"])
    def test_independent_of_stopping_point(self, request, medium):
        # false position stops at different rays; the corrected times agree
        # to the second-order remainder
        spec = request.getfixturevalue(medium)
        d8 = distance_matrix(spec, 12, SolverOptions(miss_rtol=1e-8))
        d11 = distance_matrix(spec, 12, SolverOptions(miss_rtol=1e-11))
        off = ~np.eye(12, dtype=bool)
        assert np.abs(d8.matrix - d11.matrix)[off].max() <= 1e-13
        raw8, raw11 = (d.matrix + d.diagnostics.correction for d in (d8, d11))
        assert np.abs(raw8 - raw11)[off].max() > 1e-12   # the raw times do depend on it

    def test_closer_to_tight_reference(self, smooth_bump_spec):
        n = 32
        data = distance_matrix(smooth_bump_spec, n)
        ref = distance_matrix(smooth_bump_spec, n,
                              SolverOptions(rtol=1e-12, atol=1e-15, miss_rtol=1e-13)).matrix
        off = ~np.eye(n, dtype=bool)
        raw = data.matrix + data.diagnostics.correction
        assert np.abs(data.matrix - ref)[off].max() < np.abs(raw - ref)[off].max()

    def test_first_variation_is_boundary_rate(self, rot_zermelo_spec):
        # <dF/dy, tau> matches a central difference of the exit time in the
        # target angle on a non-reversible, curved medium
        spec, h = rot_zermelo_spec, 1e-4
        angles = np.array([0.3, 2.4 - h, 2.4, 2.4 + h])
        shots = shoot_pairs(spec, angles, [(0, 1), (0, 2), (0, 3)])
        lo, _, hi = shots.time
        _, _, _, res = geo._exit_fan(spec, np.array([0.3]), shots.angle[1:2], SolverOptions())
        rate = geo._first_variation(spec, res.u_end)[0]
        assert rate == pytest.approx((hi - lo) / (2 * h), abs=1e-7)


class TestProjectiveEquivalence:
    def test_bump_preserves_point_sets(self, dom, smooth_alpha, smooth_spec):
        spec2 = RandersSpec(dom, smooth_alpha, ExactForm(PotentialBump(0.25, 1.0)))
        for a, b in [(0.0, 2.2), (1.1, 4.0), (2.5, 5.9)]:
            p1 = solve_bvp(smooth_spec, dom.boundary_point(a), dom.boundary_point(b)).path
            p2 = solve_bvp(spec2, dom.boundary_point(a), dom.boundary_point(b)).path
            h = polyline_hausdorff(p1.resample(), p2.resample())
            assert h <= 1e-6 * dom.radius

    def test_rotational_breaks_point_sets(self, dom, euclid_spec):
        rot = RandersSpec(dom, EuclideanMetric(), RotationalForm(0.4))
        worst = 0.0
        for a, b in [(0.0, 2.2), (1.1, 4.0)]:
            p1 = solve_bvp(euclid_spec, dom.boundary_point(a), dom.boundary_point(b)).path
            p2 = solve_bvp(rot, dom.boundary_point(a), dom.boundary_point(b)).path
            worst = max(worst, polyline_hausdorff(p1.resample(), p2.resample()))
        assert worst > 1e-3 * dom.radius


class TestReversedGeodesics:
    def test_reversible_spec(self, dom, smooth_spec):
        path = solve_bvp(smooth_spec, dom.boundary_point(0.4), dom.boundary_point(2.8)).path
        rep = reversed_geodesic_check(smooth_spec, path)
        assert rep.relative <= 1e-6

    def test_closed_form_bump(self, dom, smooth_bump_spec):
        path = solve_bvp(smooth_bump_spec, dom.boundary_point(5.8), dom.boundary_point(1.9)).path
        rep = reversed_geodesic_check(smooth_bump_spec, path)
        assert rep.relative <= 1e-6
        assert rep.forward_time != rep.backward_time  # non-reversible parametrization

    def test_rotational_counterexample(self, dom):
        rot = RandersSpec(dom, EuclideanMetric(), RotationalForm(0.4))
        path = solve_bvp(rot, dom.boundary_point(0.0), dom.boundary_point(2.5)).path
        rep = reversed_geodesic_check(rot, path)
        assert rep.relative > 1e-3


class TestConjugateScan:
    def test_euclidean_fan_positive(self, dom):
        scan = conjugate_point_scan(ConformalMetric(ConstantField(1.0)), 1.0)
        assert not scan.any_conjugate
        assert np.nanmin(scan.min_jacobi) > 0.0

    def test_herglotz_linear_profile(self, kink_profile):
        scan = conjugate_point_scan(ConformalMetric(kink_profile), 1.0)
        assert scan.herglotz_margin == pytest.approx(0.5, abs=1e-6)
        # negative curvature: no conjugate points, consistent with unique BVP branches
        assert not scan.any_conjugate
        assert np.nanmin(scan.min_jacobi) > 0.0

    def test_constant_curvature_oracle(self):
        # c = (1 + 4 r^2)/2 is the conformal factor of a curvature-4 sphere
        # patch: every geodesic meets its first conjugate point at exactly
        # pi/sqrt(4), giving a sharp quantitative check of the Jacobi solve
        scan = conjugate_point_scan(ConformalMetric(RadialProfile("(1 + 4*r^2)/2")), 1.0)
        assert scan.herglotz_margin < 0.0
        assert scan.any_conjugate
        expected = math.pi / 2.0
        for T, fc in zip(scan.exit_times, scan.first_conjugate):
            if T > expected:
                assert abs(fc - expected) <= 1e-5
            else:
                assert not np.isfinite(fc)

    def test_requires_radial(self, dom):
        with pytest.raises(ValueError):
            conjugate_point_scan(EuclideanMetric(), 1.0)
