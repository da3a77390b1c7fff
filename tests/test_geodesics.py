import math
import types

import numpy as np
import pytest

from randers import (ConformalMetric, ConnectivityError, ConstantForm,
                     DegenerateInputError, Domain, DomainError,
                     EuclideanMetric, ExactForm, NonAdmissibleError,
                     PotentialBump, RadialProfile, RandersSpec,
                     RotationalForm, SolverOptions, SumForm, TrappedGeodesicError,
                     curve_length, distance_matrix, integrate_geodesic,
                     polyline_hausdorff, reversed_geodesic_check, shoot_pairs,
                     solve_bvp, spray)
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

    def test_jump_leaves_the_batch_unconverged(self, monkeypatch, euclid_spec):
        # an exit map with a step changes sign without a root; the bracket
        # closes onto the step in about log2(width / ulp) rays and the row
        # stops there, where it used to re-shoot to _REFINE_MAX_ITER
        def miss(psi):
            return (psi - 0.2) + np.where(psi < 0.2, -0.5, 0.5)

        def stepped(spec, theta0, psi, opts, record=False):
            n = len(psi)
            return (2.0 + miss(psi), np.ones(n), np.ones(n, dtype=bool),
                    types.SimpleNamespace(u_end=np.zeros((n, 5))))

        monkeypatch.setattr(geo, "_exit_fan", stepped)
        lo, hi = np.array([0.2 - math.pi / 180]), np.array([0.2 + math.pi / 180])
        psi, _, _, ok, _, rays = geo._false_position(
            euclid_spec, np.zeros(1), np.full(1, 2.0), lo, hi, miss(lo), miss(hi), SolverOptions())
        assert not ok[0] and np.isnan(psi[0])
        assert rays[0] <= 60 < geo._REFINE_MAX_ITER


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
        # straight wind rays from a 32-point sampling hit some separations
        # exactly at a sweep node (90 k / 32 is a half-integer for k = 8 mod 16)
        n, starts = 32, range(4)
        angles = 2.0 * math.pi * np.arange(n) / n
        pairs = [(i, j) for i in starts for j in range(n) if i != j]
        nodes = geo._sweep(wind_spec, angles[list(starts)], SolverOptions())[0]
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
        at_node = np.isin(table(runs[0], "angle"), np.concatenate(nodes))
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


def _all_pairs(n):
    return 2.0 * math.pi * np.arange(n) / n, [(i, j) for i in range(n) for j in range(n) if i != j]


def _fixed_fan_counts(monkeypatch, spec, angles, pairs, samples):
    """Branch counts of a fixed fan of ``samples`` rays at the solver tolerance."""
    with monkeypatch.context() as mp:
        mp.setattr(geo, "_REFINE_DEPTH", 0)
        return shoot_pairs(spec, angles, pairs, SolverOptions(angle_samples=samples)).branch_count


class TestAdaptiveSweep:
    def test_narrow_lens_counts_match_tight_fan(self, monkeypatch, narrow_lens_spec):
        angles, pairs = _all_pairs(24)
        shots = shoot_pairs(narrow_lens_spec, angles, pairs)
        ref = _fixed_fan_counts(monkeypatch, narrow_lens_spec, angles, pairs, 1440)
        assert np.array_equal(shots.branch_count, ref)
        diametral = shots.pairs[:, 1] == (shots.pairs[:, 0] + 12) % 24
        assert (shots.branch_count[diametral] == 3).all()
        assert (shots.branch_count[~diametral] == 1).all()
        # the folds are refined: every start shoots more than its coarse fan
        assert (shots.sweep_nodes > SolverOptions().angle_samples).all()

    def test_narrow_lens_diametral_counts_are_rotation_equivariant(self, narrow_lens_spec):
        # the medium is radial, so every diametral pair has the same three
        # branches, whether or not its start lies on a multiple of pi / 2
        angles = 2.0 * math.pi * np.arange(12) / 12
        shots = shoot_pairs(narrow_lens_spec, angles, [(i, (i + 6) % 12) for i in range(12)])
        assert shots.branch_count.tolist() == [3] * 12

    def test_refinement_finds_what_a_coarse_fan_misses(self, monkeypatch, offcentre_lens_spec):
        # a 24-ray fan alone misses branches of the off-centre lens; refined
        # where its exit maps fold, it counts what the default sweep counts
        angles, pairs = _all_pairs(12)
        coarse = SolverOptions(angle_samples=24)
        ref = shoot_pairs(offcentre_lens_spec, angles, pairs).branch_count
        assert not np.array_equal(
            _fixed_fan_counts(monkeypatch, offcentre_lens_spec, angles, pairs, 24), ref)
        shots = shoot_pairs(offcentre_lens_spec, angles, pairs, coarse)
        assert np.array_equal(shots.branch_count, ref)
        assert (shots.sweep_nodes > 24).all()
        assert shots.sweep_nodes.max() <= 24 * 2 ** geo._REFINE_DEPTH

    def test_refined_nodes_independent_of_grouping(self, offcentre_lens_spec):
        angles, pairs = _all_pairs(8)
        together = shoot_pairs(offcentre_lens_spec, angles, pairs)
        for i in (0, 3):
            rows = [q for q, p in enumerate(pairs) if p[0] == i]
            alone = shoot_pairs(offcentre_lens_spec, angles, [pairs[q] for q in rows])
            for field in ("sweep_nodes", "branch_count", "converged", "time", "angle"):
                assert np.array_equal(getattr(alone, field), getattr(together, field)[rows],
                                      equal_nan=True)

    @pytest.mark.parametrize("medium", ["smooth_bump_spec", "wind_spec"])
    def test_smooth_media_shoot_the_coarse_fan(self, request, medium):
        data = distance_matrix(request.getfixturevalue(medium), 8)
        assert data.diagnostics.angle_samples == SolverOptions().angle_samples
        assert (data.diagnostics.sweep_nodes == SolverOptions().angle_samples).all()

    def test_false_position_rays_per_bracket(self, smooth_bump_spec):
        # a smooth bracket keeps the first ray of its cubic start, its miss
        # absorbed to second order; a fallback regression takes about two
        diag = distance_matrix(smooth_bump_spec, 24).diagnostics
        assert diag.brackets.sum() > 0.9 * 24 * 23
        assert diag.bracket_rays.sum() <= 1.05 * diag.brackets.sum()

    @pytest.mark.parametrize("medium", ["lens_spec", "offcentre_lens_spec"])
    def test_lens_rays_per_bracket(self, request, medium):
        # the lenses' exit maps bend, so some brackets need more rays than the
        # Newton start; the secant through the last two rays keeps them few
        shots = shoot_pairs(request.getfixturevalue(medium), *_all_pairs(24))
        assert shots.bracket_rays.sum() <= 2.5 * shots.brackets.sum()


class TestRefineIntervals:
    # one start, nodes 0.1 apart; intervals are flagged by their index k
    psi = 0.1 * np.arange(6)
    start = np.zeros(6, dtype=int)
    ok = np.ones(6, dtype=bool)

    def flags(self, th, ok=None):
        ok = self.ok if ok is None else ok
        return geo._refine_intervals(self.start, self.psi, np.asarray(th), ok).tolist()

    def test_smooth_map_is_kept(self):
        # slopes 2.0 .. 3.0: no sign change, no relative change above one
        assert self.flags(2.0 * self.psi + 1.0 * self.psi ** 2) == []

    def test_fold_flags_both_sides(self):
        # the exit angle turns back after node 3: intervals 2 and 3 differ in sign
        assert self.flags([0.0, 0.2, 0.4, 0.6, 0.5, 0.4]) == [2, 3]

    def test_slope_jump_flags_both_sides(self):
        # slope 2 then 4.2: the change 2.2 exceeds the smaller slope; 2 to 3.9 does not
        assert self.flags([0.0, 0.2, 0.4, 0.82, 1.24, 1.66]) == [1, 2]
        assert self.flags([0.0, 0.2, 0.4, 0.79, 1.18, 1.57]) == []

    def test_exit_boundary_flagged(self):
        ok = np.array([True, True, True, False, False, True])
        assert self.flags(2.0 * self.psi, ok) == [2, 4]

    def test_finest_intervals_and_start_seams_are_kept(self):
        start = np.array([0, 0, 0, 1, 1, 1])
        psi = np.array([0.0, 0.1, 0.2, 0.0, 0.1, 0.2])
        th = np.array([0.0, 0.2, 0.4, 3.0, 3.2, 3.4])
        assert geo._refine_intervals(start, psi, th, self.ok).tolist() == []


class TestInverseCubic:
    def test_exact_on_a_cubic(self):
        # psi a cubic in the miss: the interpolant is exact, on uneven nodes too
        m = np.array([[-0.3, -0.1, 0.05, 0.4], [0.5, 0.2, -0.1, -0.2]])
        psi = 0.7 + 1.3 * m - 0.4 * m ** 2 + 0.9 * m ** 3
        root, slope = geo._inverse_cubic(psi, m, np.ones((2, 4), dtype=bool))
        assert np.allclose(root, 0.7, rtol=0, atol=1e-14)
        assert np.allclose(slope, 1.3, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("miss, valid", [
        ([-0.3, -0.1, 0.05, 0.02], [True] * 4),     # not monotone
        ([-0.3, -0.1, -0.1, 0.4], [True] * 4),      # not strictly monotone
        ([-0.3, -0.1, 0.05, 0.4], [True, True, True, False]),   # a node did not exit
    ], ids=["turning", "flat", "invalid"])
    def test_fallback_rows_are_nan(self, miss, valid):
        m = np.array([miss, [-0.3, -0.1, 0.05, 0.4]])
        psi = np.array([[0.0, 0.1, 0.2, 0.3]] * 2)
        ok = np.array([valid, [True] * 4])
        root, slope = geo._inverse_cubic(psi, m, ok)
        assert np.isnan(root[0]) and np.isnan(slope[0])
        assert np.isfinite(root[1]) and np.isfinite(slope[1])

    def test_nan_start_takes_the_secant_path(self, smooth_bump_spec):
        # a bracket whose four nodes fall back runs exactly today's secant
        spec, psi = smooth_bump_spec, _sweep_angles(16)
        th, _, ok, _ = geo._exit_fan(spec, np.zeros(16), psi, SolverOptions())
        m = geo._wrap(th - 2.5)
        k = int(np.argmax(_bracket_roots(m, ok, 1e-8)[1]))
        four = np.arange(k - 1, k + 3)
        turned = m[four].copy()
        turned[0] = turned[2]   # no longer monotone
        cubic = geo._inverse_cubic(psi[four][None], turned[None], ok[four][None])
        assert np.isnan(cubic).all()
        args = (spec, np.zeros(1), np.full(1, 2.5), psi[k:k + 1], psi[k + 1:k + 2],
                m[k:k + 1], m[k + 1:k + 2], SolverOptions())
        for got, ref in zip(geo._false_position(*args, cubic), geo._false_position(*args)):
            assert np.array_equal(got, ref, equal_nan=True)
        # from the true nodes the cubic start lands on the same root
        good = geo._inverse_cubic(psi[four][None], m[four][None], ok[four][None])
        assert np.isfinite(good).all()
        fast, slow = geo._false_position(*args, good), geo._false_position(*args)
        assert fast[3][0] and slow[3][0] and abs(fast[0][0] - slow[0][0]) < 1e-8


class TestFirstVariation:
    @pytest.mark.parametrize("medium", ["smooth_bump_spec", "rot_zermelo_spec"])
    def test_independent_of_stopping_point(self, monkeypatch, request, medium):
        # a smooth bracket keeps its first ray, about 1e-5 off its target;
        # iterated to miss_rtol it stops at another ray, and the corrected
        # times agree to the third-order remainder (a tight integrator keeps
        # its own error between the two rays below that)
        spec, tight = request.getfixturevalue(medium), SolverOptions(rtol=1e-12, atol=1e-15)
        one = distance_matrix(spec, 12, tight)
        monkeypatch.setattr(geo, "_ONE_RAY_CAP", 0.0)
        iterated = distance_matrix(spec, 12, tight)
        off = ~np.eye(12, dtype=bool)
        assert np.abs(one.matrix - iterated.matrix)[off].max() <= 1e-13
        raw1, raw2 = (d.matrix + d.diagnostics.correction for d in (one, iterated))
        assert np.abs(raw1 - raw2)[off].max() > 1e-12   # the raw times do depend on it

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
        lo, _, hi = shoot_pairs(spec, angles, [(0, 1), (0, 2), (0, 3)]).time
        # the rate is taken on a ray iterated to miss_rtol, as recorded paths
        # are: a first ray kept by the second-order term misses by ~1e-5
        psi = shoot_pairs(spec, angles, [(0, 2)], record_paths=True).angle
        _, _, _, res = geo._exit_fan(spec, np.array([0.3]), psi, SolverOptions())
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


def _hausdorff_reference(A, B):
    """Brute force: every vertex of one polyline against every segment of the other."""
    def directed(P, Q):
        best = np.full(len(P), np.inf)
        for a, b in zip(Q[:-1], Q[1:]):
            d = b - a
            s = np.clip(((P - a) @ d) / (d @ d), 0.0, 1.0)
            best = np.minimum(best, np.hypot(*(P - a - s[:, None] * d).T))
        return best.max()
    return max(directed(A, B), directed(B, A))


class TestPolylineHausdorff:
    @pytest.mark.parametrize("na, nb, kd_tree", [(40, 57, False), (1100, 1300, True)],
                             ids=["dense", "kd-tree"])
    def test_matches_brute_force(self, monkeypatch, na, nb, kd_tree):
        # two smooth curves sampled unevenly; the dense branch covers
        # len(P) * segments <= 1e6, the KD-tree branch larger inputs
        import scipy.spatial
        trees = []
        tree = scipy.spatial.cKDTree
        monkeypatch.setattr(scipy.spatial, "cKDTree", lambda Q: trees.append(1) or tree(Q))
        x = 3.0 * np.linspace(0.0, 1.0, na) ** 1.1
        A = np.column_stack([x, np.sin(x)])
        x = 3.0 * np.linspace(0.0, 1.0, nb) ** 1.2
        B = np.column_stack([x, np.sin(x) + 0.01 * np.cos(3.0 * x)])
        got = polyline_hausdorff(A, B)
        assert bool(trees) == kd_tree
        assert got == pytest.approx(_hausdorff_reference(A, B), rel=0, abs=1e-15)
        assert 0.005 < got < 0.2


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
