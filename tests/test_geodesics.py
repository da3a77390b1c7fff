import math
import types

import numpy as np
import pytest

from randers import (ComponentForm, ConformalMetric, ConnectivityError, ConstantField,
                     ConstantForm, DegenerateInputError, Domain, DomainError,
                     EuclideanMetric, ExactForm, ExprField, MediumModel,
                     NonAdmissibleError, PotentialBump, RadialProfile, RandersSpec,
                     RotationalForm, SolverOptions, SpecMismatchError, SumForm,
                     TrappedGeodesicError, curve_length, distance_matrix,
                     integrate_geodesic, linearize, reversed_geodesic_check,
                     shoot_pairs, solve_bvp, spray, zermelo_construct)
from randers import geodesics as geo
from randers.zermelo import NavigationMetric, _NavigationSpec, _ZermeloAlgebra
from randers.geodesics import _sweep_angles
from randers.norms import _alpha_at, _beta_at, _dF_dy
from conftest import bump_gradient
from pointsets import hausdorff, resample


class TestSolverOptions:
    @pytest.mark.parametrize("field, value", [
        ("rtol", 0.0), ("atol", 0.0), ("rtol", -1e-9), ("atol", float("nan")),
        ("miss_rtol", float("nan")), ("miss_rtol", 0.0), ("angle_samples", 1),
        ("angle_samples", 0), ("angle_samples", 2.5), ("angle_samples", 90.0),
        ("angle_samples", True),
    ])
    def test_bad_value_names_field(self, field, value):
        # rtol = atol = 0 used to raise ZeroDivisionError in the sweep,
        # miss_rtol = nan or angle_samples = 1 to report "no shooting branch",
        # and angle_samples = 2.5 to fail broadcasting the fan
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SolverOptions(**{field: value})

    def test_edge_values_accepted(self):
        SolverOptions(angle_samples=2)
        SolverOptions(angle_samples=np.int64(2))


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

    def test_zero_direction_rejected(self, euclid_spec):
        with pytest.raises(DegenerateInputError, match="^initial direction must be nonzero$"):
            integrate_geodesic(euclid_spec, [0.1, 0.2], [0.0, 0.0])

    def test_start_outside_rejected(self, euclid_spec):
        with pytest.raises(DomainError, match=r"^start point \[1\.5 0\. \] lies outside "
                                              r"the closed domain$"):
            integrate_geodesic(euclid_spec, [1.5, 0.0], [-1.0, 0.0])

    def test_unit_speed_conservation(self, dom, kink_profile):
        spec = RandersSpec(dom, ConformalMetric(kink_profile))
        path = integrate_geodesic(spec, dom.boundary_point(0.7),
                                  [-0.8, -0.5])
        assert path.unit_speed_residual(spec) <= 1e-6
        assert abs(path.exit_point @ path.exit_point - 1.0) <= 2e-9

    def test_interior_start(self, dom):
        spec = RandersSpec(dom, ConformalMetric(RadialProfile("2 - r^2")), RotationalForm(0.2))
        x0 = np.array([0.2, -0.3])
        path = integrate_geodesic(spec, x0, [0.5, 0.8])
        assert np.array_equal(path.x[0], x0)   # an interior start is not nudged
        # F(x, dH/dp) = 1 for any covector, so these two bounds check the
        # record's conversion; test_recorded_fans_agree_with_spray checks
        # the integration
        assert path.unit_speed_residual(spec) <= 1e-6
        assert abs(path.exit_time - path.f_length) <= 1e-8 * path.exit_time
        assert abs(np.linalg.norm(path.exit_point) - 1.0) <= 1e-9

    def test_exit_on_boundary(self, smooth_bump_spec, dom):
        path = integrate_geodesic(smooth_bump_spec, dom.boundary_point(1.2), [-0.2, -0.9])
        assert abs(np.linalg.norm(path.exit_point) - 1.0) <= 1e-9

    def test_outward_start_rejected(self, euclid_spec):
        with pytest.raises(DomainError):
            integrate_geodesic(euclid_spec, [1.0, 0.0], [1.0, 0.0])

    def test_budget_exhaustion_reports_trapped(self, euclid_spec, monkeypatch):
        from randers import TrappedGeodesicError

        monkeypatch.setattr(geo, "_TRAP_TIME_FACTOR", 0.01)
        with pytest.raises(TrappedGeodesicError):
            integrate_geodesic(euclid_spec, [-1.0, 0.0], [1.0, 0.0])

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

    def test_no_branch_reports_connectivity(self, euclid_spec, monkeypatch):
        # with the ray budget too small every sweep ray fails, so no bracket
        # can form and the solver must report the missing connection
        monkeypatch.setattr(geo, "_TRAP_TIME_FACTOR", 0.01)
        with pytest.raises(ConnectivityError):
            solve_bvp(euclid_spec, [-1.0, 0.0], [1.0, 0.0], SolverOptions(angle_samples=32))

    def test_minimality_against_competitors(self, dom, smooth_bump_spec, rng):
        a, b = dom.boundary_point(0.2), dom.boundary_point(2.9)
        d = solve_bvp(smooth_bump_spec, a, b).path.exit_time
        for _ in range(10):
            mid = rng.uniform(-0.5, 0.5, (2, 2))
            poly = np.vstack([a, mid, b])
            assert curve_length(smooth_bump_spec, poly).total >= d - 1e-9


def _bracket_roots(miss, ok, angle_tol):
    """Root masks of the angular miss along the last (sweep) axis.

    Returns (node, bracket): ``node`` (..., K) marks valid sweep rays whose
    miss is already within tolerance; ``bracket`` (..., K-1) marks intervals
    (k, k+1) with valid ends, a sign change and both misses above tolerance.
    Sign changes across a wrap jump (|dm| >= 0.9 pi) are discarded.  ``ok``
    broadcasts against ``miss``.
    """
    small = np.abs(miss) <= angle_tol
    node = ok & small
    m0, m1 = miss[..., :-1], miss[..., 1:]
    bracket = (ok[..., :-1] & ok[..., 1:] & (np.sign(m0) * np.sign(m1) < 0.0)
               & (np.abs(m1 - m0) < 0.9 * math.pi) & ~small[..., :-1] & ~small[..., 1:])
    return node, bracket


def _scan(start, target, theta0, off, exit_th, valid, tol):
    """``geo._pair_join`` by scanning every target against every node of its start.

    This is the (targets x K) miss array of each start that the join
    replaced, marked by ``_bracket_roots``; the grazing limits, each start's
    first and last node, are never hits.
    """
    hits, brackets = [], []
    for si in range(len(theta0)):
        rows, nodes = np.flatnonzero(start == si), np.arange(off[si], off[si + 1])
        node, bracket = _bracket_roots(geo._wrap(exit_th[nodes] - target[rows, None]),
                                       valid[nodes], tol)
        node[:, [0, -1]] = False
        q, k = np.nonzero(node)
        hits.append((rows[q], nodes[k]))
        q, k = np.nonzero(bracket)
        brackets.append((rows[q], nodes[k]))
    out = []
    for found in (hits, brackets):
        pair, node = (np.concatenate(c) for c in zip(*found))
        order = np.lexsort((node, pair))
        out += [pair[order], node[order]]
    return out


def _join_and_scan(start, target, theta0, off, exit_th, valid, tol=1e-8):
    """The join's result, checked equal to the scan's."""
    args = (np.asarray(start), np.asarray(target, dtype=float), np.asarray(theta0, dtype=float),
            np.asarray(off), np.asarray(exit_th, dtype=float), np.asarray(valid), tol)
    join = geo._pair_join(*args)
    for got, ref in zip(join, _scan(*args)):
        assert got.dtype.kind == "i" and np.array_equal(got, ref)
    return join


def _branch_count(join, pairs):
    return np.bincount(join[0], minlength=pairs) + np.bincount(join[2], minlength=pairs)


def _one_start(miss, ok, target=2.5, theta0=1.0):
    """Node table of one start whose misses from ``target`` are ``miss``,
    between grazing limits that did not exit (so that they add no root)."""
    exit_th = np.concatenate(([theta0], (target + np.asarray(miss)) % (2.0 * math.pi), [theta0]))
    valid = np.concatenate(([False], np.broadcast_to(ok, len(miss)), [False]))
    return [0, len(exit_th)], exit_th, valid


def _roots(miss, ok):
    """Hit nodes and brackets of the one-start table of ``_one_start``, as
    indices into ``miss``."""
    join = _join_and_scan([0], [2.5], [1.0], *_one_start(miss, ok))
    return (join[1] - 1).tolist(), (join[3] - 1).tolist()


class TestBracketLogic:
    """The pair join (``geo._pair_join``), always checked against the scan it replaced."""

    def test_single_root(self):
        hits, brackets = _roots(np.linspace(-1.0, 1.0, 16), True)
        assert hits == [] and len(brackets) == 1

    def test_wrap_jump_discarded(self):
        hits, brackets = _roots([2.0, 2.8, -2.9, -2.0, -1.0, -0.5, -0.2, -0.1], True)
        assert hits == [] and brackets == []

    def test_node_root_detected(self):
        hits, brackets = _roots([1.0, 0.5, 0.0, -0.5, -1.0, -1.5, -2.0, -2.5], True)
        assert hits == [2] and brackets == []

    def test_invalid_rays_break_brackets(self):
        _, brackets = _roots([1.0, 0.5, -0.5, -1.0, -1.5, -2.0],
                             [True, True, False, True, True, True])
        assert brackets == []

    def test_multiple_roots_counted(self):
        _, brackets = _roots(
            [1.0, 0.5, -0.5, -1.0, -0.4, 0.3, 0.8, 0.4, -0.3, -0.8, -1.2, -1.6], True)
        assert len(brackets) == 3

    def test_rows_match_single_sweeps(self):
        # one call for several targets of a start marks the roots of one call per target
        off, exit_th, valid = _one_start([1.0, 0.5, 0.0, -0.5, -1.0, -1.5], True)
        valid[5] = False
        targets = np.array([2.5, 3.1, 1.9, 2.5 - 1e-9])
        both = _join_and_scan(np.zeros(4, dtype=int), targets, [1.0], off, exit_th, valid)
        for q in range(len(targets)):
            one = _join_and_scan([0], targets[q:q + 1], [1.0], off, exit_th, valid)
            for pair, node, one_pair, one_node in ((both[0], both[1], one[0], one[1]),
                                                   (both[2], both[3], one[2], one[3])):
                assert np.array_equal(node[pair == q], one_node) and (one_pair == 0).all()

    # node tables of two starts, as exit angles measured from the start; each
    # start's first and last node are its grazing limits, which exit at the start
    FOLD = [0.0, 0.2, 0.5, 1.0, 1.6, 1.3, 1.0, 1.4, 2.0, 2.6, 2.9, 3.2, 4.5, 6.0, 2.0 * math.pi]
    FAILED = 10   # the ray at 2.9 did not exit: no bracket spans 2.6 .. 3.2
    # a curve that winds past 2 pi: up across the start (6.0 -> 0.3), a wrap
    # jump (3.0 -> 0.05, 2.95 >= 0.9 pi), and down across the start (0.05 -> 6.1)
    WOUND = [0.0, 0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.0, 0.3, 1.0, 2.0, 3.0, 0.05, 6.1, 5.0, 4.0,
             2.0 * math.pi]
    AT_2 = 10   # the node at 2.0 on the second pass

    def test_hand_made_tables(self):
        theta0 = np.array([0.3, 6.1])
        rel = [np.array(self.FOLD), np.array(self.WOUND)]
        exit_th = np.concatenate([(t + r) % (2.0 * math.pi) for t, r in zip(theta0, rel)])
        off = np.array([0, len(rel[0]), len(rel[0]) + len(rel[1])])
        exit_th[[0, off[1] - 1]], exit_th[[off[1], off[2] - 1]] = theta0
        valid = np.ones(len(exit_th), dtype=bool)
        valid[self.FAILED] = False
        special = {  # (start, angle from it): branch count
            (0, 1.2): 3,        # the fold: three segments span it
            (0, 2.8): 0,        # behind the failed ray
            (0, 1e-3): 1, (0, -1e-3): 1,   # next to the start
            (1, 1e-3): 3,       # next to the start, and on both crossings of it
            (1, -1e-3): 3,      # likewise, on the last segment and both crossings
            (1, 0.1): 2,        # on the first segment and the upward crossing
            (1, 6.2): 3,        # on both crossings and the last segment
            (1, 1.2): 2,        # on both passes, but not on the jump's arc
            (1, 2.0): 2,        # a hit on the second pass, whose segments do not
                                # count, and a bracket on the first pass
            (0, 0.0): 0,        # the start itself
        }
        start = [s for s, _ in special]
        target = [(theta0[s] + r) % (2.0 * math.pi) for s, r in special]
        target[list(special).index((1, 2.0))] = exit_th[off[1] + self.AT_2]
        grid = np.linspace(0.0, 2.0 * math.pi, 157, endpoint=False)
        start += [0] * len(grid) + [1] * len(grid)
        target = np.concatenate([target, grid, grid])
        join = _join_and_scan(start, target, theta0, off, exit_th, valid)
        assert _branch_count(join, len(target))[:len(special)].tolist() == list(special.values())
        assert (off[1] + self.AT_2) in join[1]

    @pytest.mark.parametrize("medium", [
        "euclid_spec", "wind_spec", "smooth_spec", "smooth_bump_spec", "kink_spec",
        "rot_zermelo_spec", "lens_spec", "offcentre_lens_spec", "narrow_lens_spec"])
    def test_sweeps_of_every_medium(self, request, medium):
        # the nodes of one sweep from every start at n = 12, as shoot_pairs joins them
        angles, pairs = _all_pairs(12)
        pairs = np.array(pairs)
        _, th, _, ok, _, off = geo._sweep(request.getfixturevalue(medium), angles, SolverOptions())
        ends = np.repeat(off, 2)[1:-1]
        join = _join_and_scan(pairs[:, 0], angles[pairs[:, 1]], angles,
                              off + 2 * np.arange(len(off)),
                              np.insert(th, ends, np.repeat(angles, 2)), np.insert(ok, ends, True))
        count = _branch_count(join, len(pairs))
        assert count.min() >= 1
        assert (count.max() == 3) == (medium.endswith("lens_spec"))


class TestFalsePosition:
    def test_batch_equals_brackets_alone(self, monkeypatch, smooth_bump_spec):
        # chords of different lengths converge at different iterations; under
        # a step cap between their step counts the rays of the chord 0 -> 1.6
        # fail (its cotangent rays take 12 steps, those of the others 4 to 10)
        spec, psi = smooth_bump_spec, _sweep_angles(16)
        theta0 = np.array([0.0, 0.0, 0.0, 1.0, 2.0, 2.5])
        theta1 = np.array([3.0, 0.3, 1.6, 4.0, 4.3, 2.2])
        brackets = []
        for a, b in zip(theta0, theta1):
            th, _, _, ok, _ = geo._exit_fan(spec, np.full(16, a), psi, SolverOptions())
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
        monkeypatch.setattr(geo, "_MAX_STEPS", 11)
        opts = SolverOptions()
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
            return 2.0 + miss(psi), np.ones(n), np.zeros(n), np.ones(n, dtype=bool), None

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

    def test_independent_of_pair_order(self, generic_spec, rng):
        # the generic medium sweeps; each start's sweep ray 30 exits at an
        # added target, which it hits, and the other pairs close brackets
        n, starts = 32, range(4)
        angles = 2.0 * math.pi * np.arange(n) / n
        nodes, exit_th, _, _, _, off = geo._sweep(generic_spec, angles[list(starts)],
                                                  SolverOptions())
        angles = np.concatenate([angles, exit_th[off[:-1] + 30]])
        pairs = [(i, j) for i in starts for j in range(len(angles)) if i != j]
        shuffled = [pairs[k] for k in rng.permutation(len(pairs))]
        per_start = [shoot_pairs(generic_spec, angles, [p for p in pairs if p[0] == i])
                     for i in starts]
        runs = [[shoot_pairs(generic_spec, angles, pairs)],
                [shoot_pairs(generic_spec, angles, shuffled)], per_start]

        def table(records, field):
            by_pair = {(int(i), int(j)): v for shots in records
                       for (i, j), v in zip(shots.pairs, getattr(shots, field))}
            return np.array([by_pair[p] for p in pairs])

        # both result paths are compared: hit sweep nodes and closed brackets
        at_node = np.isin(table(runs[0], "angle"), nodes)
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

    def test_recorded_ray_that_does_not_exit_names_pair(self, smooth_bump_spec, monkeypatch):
        # the sweep and false-position rays exit within 11 steps; the
        # recorded re-run, with a capped step size, needs 94
        monkeypatch.setattr(geo, "_MAX_STEPS", 50)
        angles = [0.0, 2.0]
        shots = shoot_pairs(smooth_bump_spec, angles, [(0, 1)])
        assert shots.converged[0] and shots.branch_count[0] == 1
        with pytest.raises(TrappedGeodesicError, match=r"^geodesic of boundary pair \(0, 1\) "):
            shoot_pairs(smooth_bump_spec, angles, [(0, 1)], record_paths=True)

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
    def test_no_pairs_give_empty_record(self, wind_spec, generic_spec, record_paths):
        for spec in (wind_spec, generic_spec):   # a straight and a curved medium
            shots = shoot_pairs(spec, [0.0, 1.0], [], record_paths=record_paths)
            assert shots.pairs.shape == (0, 2)
            for field, dtype in (("time", float), ("miss", float), ("branch_count", int),
                                 ("converged", bool), ("angle", float), ("correction", float),
                                 ("sweep_nodes", int), ("brackets", int), ("bracket_rays", int),
                                 ("interpolated", int)):
                value = getattr(shots, field)
                assert value.shape == (0,) and value.dtype == dtype
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

    @pytest.mark.parametrize("medium", ["smooth_bump_spec", "generic_spec"])
    def test_smooth_media_shoot_the_coarse_fan(self, request, medium):
        spec = request.getfixturevalue(medium)
        data = distance_matrix(spec, 8)
        assert data.diagnostics.angle_samples == SolverOptions().angle_samples
        expected = np.full(8, SolverOptions().angle_samples)
        if spec.rotation_invariant:   # the bump's row build sweeps from start 0 alone
            expected[1:] = 0
        assert np.array_equal(data.diagnostics.sweep_nodes, expected)

    def test_false_position_rays_per_bracket(self, monkeypatch, smooth_bump_spec):
        # a smooth bracket keeps the first ray of its cubic start, its miss
        # absorbed to second order; a fallback regression takes about two
        # (every bracket is shot: interpolated ones would need no ray)
        # (every pair is shot, as the bump's row build would shoot row 0 alone)
        monkeypatch.setattr(geo, "_HERMITE_TOL", -1.0)
        shots = shoot_pairs(smooth_bump_spec, *_all_pairs(24))
        assert shots.brackets.sum() > 0.9 * 24 * 23
        assert shots.bracket_rays.sum() <= 1.05 * shots.brackets.sum()

    @pytest.mark.parametrize("medium", ["lens_spec", "offcentre_lens_spec"])
    def test_lens_rays_per_bracket(self, monkeypatch, request, medium):
        # the lenses' exit maps bend, so some brackets need more rays than the
        # Newton start; the secant through the last two rays keeps them few
        monkeypatch.setattr(geo, "_HERMITE_TOL", -1.0)   # every bracket is shot
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
        root, slope = geo._inverse_cubic(psi.T, m.T, np.ones((4, 2), dtype=bool))
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
        root, slope = geo._inverse_cubic(psi.T, m.T, ok.T)
        assert np.isnan(root[0]) and np.isnan(slope[0])
        assert np.isfinite(root[1]) and np.isfinite(slope[1])

    def test_nan_start_takes_the_secant_path(self, smooth_bump_spec):
        # a bracket whose four nodes fall back runs exactly today's secant
        spec, psi = smooth_bump_spec, _sweep_angles(16)
        th, _, _, ok, _ = geo._exit_fan(spec, np.zeros(16), psi, SolverOptions())
        m = geo._wrap(th - 2.5)
        k = int(np.argmax(_bracket_roots(m, ok, 1e-8)[1]))
        four = np.arange(k - 1, k + 3)
        turned = m[four].copy()
        turned[0] = turned[2]   # no longer monotone
        cubic = geo._inverse_cubic(psi[four][:, None], turned[:, None], ok[four][:, None])
        assert np.isnan(cubic).all()
        args = (spec, np.zeros(1), np.full(1, 2.5), psi[k:k + 1], psi[k + 1:k + 2],
                m[k:k + 1], m[k + 1:k + 2], SolverOptions())
        for got, ref in zip(geo._false_position(*args, cubic), geo._false_position(*args)):
            assert np.array_equal(got, ref, equal_nan=True)
        # from the true nodes the cubic start lands on the same root
        good = geo._inverse_cubic(psi[four][:, None], m[four][:, None], ok[four][:, None])
        assert np.isfinite(good).all()
        fast, slow = geo._false_position(*args, good), geo._false_position(*args)
        assert fast[3][0] and slow[3][0] and abs(fast[0][0] - slow[0][0]) < 1e-8


def _spray_rhs(spec):
    """The spray on states (x, y, L): x' = y, y' = -2 G(x, y) and L' = F(x, y)."""
    def rhs(u):
        x0, x1, y0, y1 = u.T[0:4]
        G0, G1, F = geo._spray_and_norm(spec, x0, x1, y0, y1)
        return np.column_stack([y0, y1, -2.0 * G0, -2.0 * G1, F])
    return rhs


def _spray_fan(spec, theta0, psi, opts, record=False):
    """The reference fan of the geodesic spray, from F-unit velocities along
    ``geo._fan_starts``, at the tolerances of ``opts``; its exit states
    (x, y, L) are those of ``_exit_fan`` without potential shift."""
    x0, d = geo._fan_starts(spec, theta0, psi)
    y0 = d / spec._raw_norm(x0, d)[:, None]
    r2 = spec.domain.radius ** 2
    stop = (lambda u: u[:, 0] ** 2 + u[:, 1] ** 2 - r2,
            lambda u: 2.0 * (u[:, 0] * u[:, 2] + u[:, 1] * u[:, 3]))
    ctl = opts.controls(spec, record=record)
    return geo.ivp.integrate_batch(_spray_rhs(spec), np.column_stack([x0, y0, np.zeros(len(psi))]),
                                   stop, ctl, record=record)


def _spray_rate(spec, u):
    """The first-variation rate <dF/dy(x, y), dx/dtheta> at spray exit states (x, y, L)."""
    X = u[:, 0:2]
    _, _, (q0, q1) = _dF_dy(_alpha_at(spec.alpha, X), _beta_at(spec.beta, X), u[:, 2], u[:, 3])
    return spec.domain.radius * (X[:, 0] * q1 - X[:, 1] * q0) / np.hypot(X[:, 0], X[:, 1])


def _table_media(dom, smooth_alpha, smooth_profile, rot_zermelo_spec):
    """The media whose rays integrate a 1-form b in the dual norm (see
    ``RandersSpec._cotangent_fields``), by name."""
    import randers.cli as cli

    return {
        "bump_gradient": RandersSpec(dom, smooth_alpha, bump_gradient(0.3)),
        "rotational_on_curved": RandersSpec(dom, smooth_alpha, RotationalForm(0.2)),
        "rotational_on_flat": RandersSpec(dom, EuclideanMetric(), RotationalForm(0.3)),
        "linearized": linearize(smooth_profile, RotationalForm(0.4), dom)[0],
        "bumped_zermelo": cli._bumped(rot_zermelo_spec),
        "navigation_alpha": RandersSpec(dom, NavigationMetric(rot_zermelo_spec.algebra)),
    }


# the spray reference of the cotangent checks.  DOP853's error estimate
# follows its 8th-order local error, so at the rays' own tolerance the spray
# is no more accurate than they are (at rtol 1e-12 one ray of the flat
# rotational Zermelo fan lands 5.3e-12 rad off, the cotangent ray 1.1e-14);
# a hundred times tighter it is
_SPRAY_REFERENCE = SolverOptions(rtol=1e-14, atol=1e-17)


class TestCotangentRays:
    # max |cotangent - spray| over two 90-ray fans, the cotangent at rtol
    # 1e-12 / atol 1e-15 and the spray at _SPRAY_REFERENCE, as measured:
    # (exit angle, exit time, first-variation rate)
    MEASURED = {"smooth_bump_spec": (3.73e-14, 2.44e-14, 1.42e-14),
                "rot_zermelo_spec": (6.22e-14, 2.38e-14, 1.74e-14),
                "wind_spec": (7.11e-15, 7.15e-15, 2.89e-15),
                "smooth_spec": (3.20e-14, 2.46e-14, 1.40e-14),
                "potential_spec": (3.20e-14, 2.53e-14, 1.55e-14),
                "euclid_zermelo_spec": (6.39e-14, 3.31e-14, 2.42e-14),
                "bump_gradient": (5.68e-14, 6.09e-14, 8.97e-14),
                "rotational_on_curved": (1.03e-13, 3.42e-14, 2.55e-14),
                "rotational_on_flat": (2.38e-13, 5.77e-14, 2.55e-13),
                "linearized": (8.70e-14, 2.58e-14, 4.40e-14),
                "bumped_zermelo": (1.33e-13, 9.52e-14, 8.99e-14),
                "navigation_alpha": (3.73e-14, 1.33e-14, 2.40e-14)}

    @pytest.fixture(scope="class")
    def potential_spec(self, dom, smooth_alpha):
        # a potential that does not vanish on the boundary: the times shift by
        # up to 0.38 between the ends of a ray
        beta = SumForm(ExactForm(ExprField("0.1*x1*x2 + 0.05*r^2")), ConstantForm([0.1, -0.2]))
        return RandersSpec(dom, smooth_alpha, beta)

    @pytest.fixture(scope="class")
    def euclid_zermelo_spec(self, dom):
        # the general algebra over the Euclidean metric: H = |p| + <W, p>
        return _NavigationSpec(dom, _ZermeloAlgebra(EuclideanMetric(), RotationalForm(0.4)))

    @pytest.fixture(scope="class")
    def media(self, dom, smooth_alpha, smooth_profile, rot_zermelo_spec):
        return _table_media(dom, smooth_alpha, smooth_profile, rot_zermelo_spec)

    def _medium(self, request, medium):
        media = request.getfixturevalue("media")
        return media[medium] if medium in media else request.getfixturevalue(medium)

    @pytest.mark.parametrize("medium", list(MEASURED))
    def test_agrees_with_spray(self, request, medium):
        spec, tight = self._medium(request, medium), SolverOptions(rtol=1e-12, atol=1e-15)
        theta0, psi = np.repeat([0.7, 3.9], 90), np.tile(_sweep_angles(90), 2)
        th, t, rate, ok, _ = geo._exit_fan(spec, theta0, psi, tight)
        ref = _spray_fan(spec, theta0, psi, _SPRAY_REFERENCE)
        assert ok.all() and (ref.status == geo.ivp.EXITED).all()
        th_ref = np.arctan2(ref.u_end[:, 1], ref.u_end[:, 0])
        gaps = (np.abs(geo._wrap(th - th_ref)).max(), np.abs(t - ref.t_end).max(),
                np.abs(rate - _spray_rate(spec, ref.u_end)).max())
        for gap, measured in zip(gaps, self.MEASURED[medium]):
            # the measured value, with room for round-off in other builds
            assert gap <= min(max(2.0 * measured, 1e-13), 1e-11)

    def test_which_specs_qualify(self, dom, smooth_alpha, smooth_profile, euclid_spec,
                                 smooth_bump_spec, kink_spec, wind_spec, rot_zermelo_spec):
        # (c, W, b, phi) of every family: F = F(c, W) + b, and phi where
        # shooting may trace alpha's rays and shift their times
        speed, wind, form, phi = smooth_bump_spec._cotangent_fields()
        assert speed is smooth_profile and wind is None
        assert form is smooth_bump_spec.beta and phi is smooth_bump_spec.beta.potential
        # a zero beta: no form, and a potential that shifts by zero
        speed, wind, form, phi = euclid_spec._cotangent_fields()
        assert speed == ConstantField(1.0) and wind is None and form is None
        assert phi == ConstantField(0.0)
        assert kink_spec._cotangent_fields()[0] is kink_spec.alpha.speed
        # a beta not closed by construction is integrated, never shifted
        for spec in (RandersSpec(dom, EuclideanMetric(), RotationalForm(0.3)),
                     RandersSpec(dom, smooth_alpha, bump_gradient(0.3)),
                     linearize(smooth_profile, RotationalForm(0.4), dom)[0]):
            speed, wind, form, phi = spec._cotangent_fields()
            assert speed is spec.alpha.conformal_speed and wind is None
            assert form is spec.beta and phi is None
        # navigation over a conformal speed: the speed and the wind, with no form
        rot = RotationalForm(0.4)
        nav = zermelo_construct(MediumModel(dom, speed=smooth_profile, wind=rot))
        assert nav._cotangent_fields() == (smooth_profile, rot, None, None)
        algebra = rot_zermelo_spec.algebra
        assert rot_zermelo_spec._cotangent_fields()[1:] == (algebra.wind, None, None)
        assert wind_spec._cotangent_fields()[1:] == (wind_spec.algebra.wind, None, None)
        flat = _NavigationSpec(dom, _ZermeloAlgebra(EuclideanMetric(), rot))
        assert flat._cotangent_fields() == (ConstantField(1.0), rot, None, None)
        # a navigation alpha under any beta: its (c, W), and beta less the
        # navigation 1-form, whose part in a sum drops out
        x = np.array([[0.3, -0.2], [-0.5, 0.1]])
        nav_beta = rot_zermelo_spec.beta.value(x)
        for beta, added in ((None, -nav_beta),
                            (RotationalForm(0.1), RotationalForm(0.1).value(x) - nav_beta),
                            (SumForm(rot_zermelo_spec.beta, bump_gradient(0.2)),
                             bump_gradient(0.2).value(x))):
            spec = RandersSpec(dom, NavigationMetric(algebra), beta)
            speed, wind, form, phi = spec._cotangent_fields()
            assert speed is algebra.speed and wind is algebra.wind and phi is None
            assert np.allclose(form.value(x), added, rtol=0, atol=1e-15)
        bumped = RandersSpec(dom, NavigationMetric(algebra), SumForm(rot_zermelo_spec.beta))
        assert bumped._cotangent_fields()[2] is None
        assert ComponentForm(["0.1", "0"]).potential is None

    def test_recorded_fans_take_no_shift(self, smooth_bump_spec):
        # an unrecorded fan of a potential traces alpha's rays and ends with
        # their alpha-unit velocity dH/dp; a recorded one integrates beta and
        # ends with the F-unit velocity, its time unshifted
        spec, opts = smooth_bump_spec, SolverOptions()
        theta0, psi = np.full(9, 1.0), np.linspace(-1.2, 1.2, 9)
        plain = geo._exit_fan(spec, theta0, psi, opts)[-1]
        recorded = geo._exit_fan(spec, theta0, psi, opts, record=True)[-1]
        assert plain.history is None and recorded.history is not None
        speed, wind, form, _ = spec._cotangent_fields()
        alpha = RandersSpec(spec.domain, spec.alpha)
        velocities = []
        for res, unit, b in ((plain, alpha, None), (recorded, spec, form)):
            X, Y = res.u_end[:, 0:2], geo._cotangent_rhs(speed, wind, b)(res.u_end)[:, 0:2]
            assert np.abs(unit._raw_norm(X, Y) - 1.0).max() < 1e-8
            velocities.append(Y)
        assert np.abs(spec._raw_norm(plain.u_end[:, 0:2], velocities[0]) - 1.0).max() > 0.1
        # a recorded history ends with the exit point and that velocity
        ends = np.array([us[-1] for _, us in recorded.history])
        assert np.array_equal(ends, np.column_stack([recorded.u_end[:, 0:2], velocities[1]]))
        # the bump vanishes on the boundary: both times agree, by a shift of
        # zero on one side and by integrating beta on the other
        assert np.abs(plain.t_end - recorded.t_end).max() < 1e-8

    # max |recorded cotangent - recorded spray| over a 12-ray fan, the
    # cotangent at rtol 1e-12 / atol 1e-15 and the spray at _SPRAY_REFERENCE,
    # as measured: (exit point, exit time, Hausdorff distance of the
    # resampled paths / h^4).  h is the step cap of a recorded path,
    # t_max / (50 * 256), where the cotangent steps sit, so the Hausdorff
    # distance is the cubic Hermite resampling error of their samples, of
    # order h^4 (a straight ray is recorded exactly, by its two ends)
    RECORDED = {"smooth_bump_spec": (6.22e-15, 5.11e-15, 5.26),
                "rot_zermelo_spec": (1.67e-15, 1.47e-15, 1.02e-1),
                "wind_spec": (6.77e-15, 1.20e-14, 1.4e-7),
                "kink_spec": (1.30e-15, 1.22e-15, 3.93e-1),
                "rotational_on_curved": (2.61e-15, 1.33e-15, 1.38e-1),
                "rotational_on_flat": (2.14e-15, 1.67e-15, 1.03e-4),
                "bumped_zermelo": (3.36e-15, 1.11e-15, 1.14e-1),
                "navigation_alpha": (1.67e-15, 1.11e-15, 1.20e-1)}

    @pytest.mark.parametrize("medium", list(RECORDED))
    def test_recorded_fans_agree_with_spray(self, request, medium):
        spec, tight = self._medium(request, medium), SolverOptions(rtol=1e-12, atol=1e-15)
        theta0, psi = np.full(12, 0.7), np.linspace(-1.3, 1.3, 12)
        res = geo._exit_fan(spec, theta0, psi, tight, record=True)[-1]
        ref = _spray_fan(spec, theta0, psi, _SPRAY_REFERENCE, record=True)
        h = tight.controls(spec, record=True).h_max
        gaps = np.zeros(3)
        for k in range(12):
            path = geo._path_from(res, k, spec)
            ts, us = ref.history[k]
            spray_path = types.SimpleNamespace(t=ts, x=us[:, 0:2], y=us[:, 2:4])
            gaps = np.maximum(gaps, (np.abs(path.exit_point - ref.u_end[k, 0:2]).max(),
                                     abs(path.exit_time - ref.t_end[k]),
                                     hausdorff(resample(path), resample(spray_path))))
            # F-unit velocities and a length that is the exit time
            assert path.unit_speed_residual(spec) <= 1e-12
            assert abs(path.f_length - path.exit_time) <= 1e-12 * path.exit_time
        point, time, hermite = self.RECORDED[medium]
        for gap, measured in zip(gaps, (point, time, hermite * h ** 4)):
            # the measured value, with room for round-off in other builds
            assert gap <= 2.0 * max(measured, 1e-13)


def _zermelo_time(x0, x1, wind):
    """Travel time of the straight chord x0 -> x1 at unit speed under a constant wind:
    T = (sqrt(<d, W>^2 + (1 - |W|^2) |d|^2) - <d, W>) / (1 - |W|^2), with d = x1 - x0."""
    d = np.atleast_2d(x1) - np.atleast_2d(x0)
    dw, lam = d @ wind, 1.0 - wind @ wind
    return (np.sqrt(dw * dw + lam * (d * d).sum(1)) - dw) / lam


class TestStraightRays:
    def test_straight_media_take_no_integrator(self, monkeypatch, dom, euclid_spec, wind_spec):
        # H of a constant speed under a constant wind or none, and a constant
        # 1-form or none, does not depend on x: its fans, recorded or not, are
        # solved in closed form; a rotational wind bends the rays, and they
        # are integrated
        calls = []
        batch = geo.ivp.integrate_batch

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return batch(*args, **kwargs)

        monkeypatch.setattr(geo.ivp, "integrate_batch", counted)
        theta0, psi, opts = np.full(9, 0.4), _sweep_angles(9), SolverOptions()
        tilted = RandersSpec(dom, EuclideanMetric(), ConstantForm([0.1, -0.2]))
        for spec in (euclid_spec, wind_spec, tilted):
            for record in (False, True):
                ok, res = geo._exit_fan(spec, theta0, psi, opts, record)[3:]
                assert ok.all() and not res.steps.any()
        assert calls == []
        # the exits of the wind fan against the closed form; the start is
        # nudged inside by a relative 1e-13
        _, t, _, _, res = geo._exit_fan(wind_spec, theta0, psi, opts)
        wind = wind_spec.algebra.wind.components
        exact = _zermelo_time(dom.boundary_point(0.4), res.u_end[:, 0:2], wind)
        assert np.abs(np.hypot(res.u_end[:, 0], res.u_end[:, 1]) - 1.0).max() <= 4e-16
        assert np.abs(t - exact).max() <= 3e-13
        curled = zermelo_construct(MediumModel(dom, speed=ConstantField(1.0),
                                               wind=RotationalForm(0.4)))
        geo._exit_fan(curled, theta0, psi, opts)
        assert calls == [9]

    def test_recorded_straight_ray(self, dom, wind_spec):
        # a recorded straight ray is its start and its exit, joined by the
        # exact (straight) path, with one F-unit velocity
        x0 = dom.boundary_point(2.0)
        path = integrate_geodesic(wind_spec, x0, [0.6, -0.3])
        assert path.t.tolist() == [0.0, path.exit_time]
        assert np.array_equal(path.x[-1], path.exit_point) and np.array_equal(path.y[0], path.y[1])
        assert abs(np.linalg.norm(path.exit_point) - 1.0) <= 4e-16
        assert path.unit_speed_residual(wind_spec) <= 4e-16
        assert abs(path.f_length - path.exit_time) <= 4e-16 * path.exit_time
        wind = wind_spec.algebra.wind.components
        assert path.exit_time == pytest.approx(_zermelo_time(x0, path.exit_point, wind)[0],
                                               abs=3e-13)


def _chord_media(dom):
    """Straight media, each with the closed form of D on boundary points P:
    the wind's chord time, |d| + <w, d> under a constant 1-form w, and
    |d| + phi(x_j) - phi(x_i) under d phi, for d = x_j - x_i."""
    wind, w, phi = np.array([0.5, 0.0]), np.array([0.3, -0.2]), PotentialBump(0.3, 1.0)

    def chord(P):
        n = len(P)
        return _zermelo_time(np.repeat(P, n, axis=0), np.tile(P, (n, 1)), wind).reshape(n, n)

    def length(P):
        d = P[None] - P[:, None]
        return np.sqrt((d * d).sum(-1))

    def tilted(P):
        return length(P) + (P[None] - P[:, None]) @ w

    def shifted(P):
        f = phi.value(P)
        return length(P) + f[None] - f[:, None]
    return {
        "wind": (zermelo_construct(MediumModel(dom, speed=ConstantField(1.0),
                                               wind=ConstantForm(wind))), chord),
        "constant": (RandersSpec(dom, EuclideanMetric(), ConstantForm(w)), tilted),
        "exact": (RandersSpec(dom, EuclideanMetric(), ExactForm(phi)), shifted),
    }


class TestChordShots:
    """Straight media shoot one chord ray per pair: no sweep, join or bracket."""

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        for name in ("_exit_fan", "_sweep", "_pair_join"):
            orig = getattr(geo, name)

            def spied(*args, _orig=orig, _name=name, **kwargs):
                calls.append((_name, len(args[2]) if _name == "_exit_fan" else None))
                return _orig(*args, **kwargs)
            monkeypatch.setattr(geo, name, spied)
        return calls

    @pytest.mark.parametrize("medium", ["wind", "constant", "exact"])
    def test_one_fan_of_pair_rays(self, monkeypatch, dom, medium):
        spec = _chord_media(dom)[medium][0]
        angles, pairs = _all_pairs(12)
        calls = self._spy(monkeypatch)
        shots = shoot_pairs(spec, angles, pairs)
        assert calls == [("_exit_fan", len(pairs))]
        assert shots.converged.all() and (shots.branch_count == 1).all()

    def test_recorded_exact_form_sweeps(self, monkeypatch, dom):
        # a recorded fan integrates d phi of a bump, which depends on x, so it
        # sweeps; the unrecorded fan shifts the times by phi and goes straight
        spec = _chord_media(dom)["exact"][0]
        calls = self._spy(monkeypatch)
        shoot_pairs(spec, [0.0, 2.0], [(0, 1)], record_paths=True)
        assert ("_sweep", None) in calls and ("_pair_join", None) in calls

    @pytest.mark.parametrize("n", [12, 48])
    @pytest.mark.parametrize("medium", ["wind", "constant", "exact"])
    def test_matrix_matches_closed_form(self, dom, medium, n):
        # the starts are nudged inside by a relative 1e-13 (measured 2.0e-13)
        spec, exact = _chord_media(dom)[medium]
        data = distance_matrix(spec, n)
        off = ~np.eye(n, dtype=bool)
        assert np.abs(data.matrix - exact(data.points))[off].max() <= 1e-12

    def test_wind_build_counts_one_ray_per_pair(self, dom):
        n = 12
        diag = distance_matrix(_chord_media(dom)["wind"][0], n).diagnostics
        assert diag.sweep_nodes.tolist() == [n - 1] * n
        for counter in (diag.brackets, diag.bracket_rays, diag.interpolated):
            assert not counter.any()
        assert (diag.branch_counts[~np.eye(n, dtype=bool)] == 1).all()

    def test_independent_of_pair_order(self, wind_spec, rng):
        angles, pairs = _all_pairs(16)
        pairs = [tuple(p) for p in pairs if p[0] < 4]
        shuffled = [pairs[k] for k in rng.permutation(len(pairs))]
        ref = shoot_pairs(wind_spec, angles, pairs)
        other = shoot_pairs(wind_spec, angles, shuffled)
        order = [pairs.index(p) for p in shuffled]
        for field in ("time", "miss", "angle", "correction", "branch_count", "sweep_nodes"):
            assert np.array_equal(getattr(other, field), getattr(ref, field)[order])

    def test_trapped_chord_names_its_pair(self, monkeypatch, wind_spec):
        # a ray budget below the longer chords' times traps their rays: those
        # pairs do not converge, and the build names the first in i-major order
        monkeypatch.setattr(geo, "_TRAP_TIME_FACTOR", 0.3)
        angles, pairs = _all_pairs(12)
        pairs = np.array(pairs)
        P = np.column_stack([np.cos(angles), np.sin(angles)])
        exact = _zermelo_time(P[pairs[:, 0]], P[pairs[:, 1]], np.array([0.5, 0.0]))
        trapped = exact > SolverOptions().controls(wind_spec).t_max
        assert trapped.any() and not trapped.all()
        shots = shoot_pairs(wind_spec, angles, pairs)
        assert np.array_equal(shots.converged, ~trapped)
        assert np.array_equal(shots.branch_count, (~trapped).astype(int))
        assert np.isnan(shots.time[trapped]).all() and not shots.correction[trapped].any()
        i, j = pairs[np.flatnonzero(trapped)[0]]
        with pytest.raises(ConnectivityError,
                           match=rf"^no shooting branch found for boundary pair \({i}, {j}\)$"):
            distance_matrix(wind_spec, 12)

    def test_solve_bvp_path_is_the_chord(self, dom, wind_spec):
        a, b = dom.boundary_point(0.9), dom.boundary_point(3.8)
        res = solve_bvp(wind_spec, a, b)
        path = res.path
        assert len(path.t) == 2 and res.branch_count == 1
        assert np.abs(path.exit_point - b).max() <= 1e-12 and abs(res.miss) <= 1e-12
        assert path.exit_time == pytest.approx(
            _zermelo_time(a, b, np.array([0.5, 0.0]))[0], abs=1e-12)


# the largest gap between a first-ray and an iterated build at n = 12: the
# row-built invariant media reach the third-order remainder; the generic
# medium's full build, measured at 1.35e-11, carries its tight integrator's
# error between the two rays
_STOPPING_GAP = {"smooth_bump_spec": 1e-13, "rot_zermelo_spec": 1e-13,
                 "generic_beta_spec": 3e-11}


class TestFirstVariation:
    @pytest.mark.parametrize("medium", ["smooth_bump_spec", "rot_zermelo_spec",
                                        "generic_beta_spec"])
    def test_independent_of_stopping_point(self, monkeypatch, request, medium):
        # a smooth bracket keeps its first ray, about 1e-5 off its target;
        # iterated to miss_rtol it stops at another ray, and the corrected
        # times agree to the third-order remainder (a tight integrator keeps
        # its own error between the two rays below that)
        # (brackets shoot their rays: an interpolated bracket has no raw time)
        monkeypatch.setattr(geo, "_HERMITE_TOL", -1.0)
        spec, tight = request.getfixturevalue(medium), SolverOptions(rtol=1e-12, atol=1e-15)
        one = distance_matrix(spec, 12, tight)
        monkeypatch.setattr(geo, "_ONE_RAY_CAP", 0.0)
        iterated = distance_matrix(spec, 12, tight)
        off = ~np.eye(12, dtype=bool)
        assert np.abs(one.matrix - iterated.matrix)[off].max() <= _STOPPING_GAP[medium]
        raw1, raw2 = (d.matrix + d.diagnostics.correction for d in (one, iterated))
        assert np.abs(raw1 - raw2)[off].max() > 1e-12   # the raw times do depend on it

    @staticmethod
    def _errors_against_tight_reference(monkeypatch, spec, n):
        """(default build, its error, corrected error, raw error) against a
        tight reference; the corrected and raw times, and the reference,
        come from builds in which every bracket shoots its rays."""
        fast = distance_matrix(spec, n)
        monkeypatch.setattr(geo, "_HERMITE_TOL", -1.0)
        data = distance_matrix(spec, n)
        ref = distance_matrix(spec, n,
                              SolverOptions(rtol=1e-12, atol=1e-15, miss_rtol=1e-13)).matrix
        off = ~np.eye(n, dtype=bool)
        raw = data.matrix + data.diagnostics.correction
        return fast, *(np.abs(d - ref)[off].max() for d in (fast.matrix, data.matrix, raw))

    def test_closer_to_tight_reference(self, monkeypatch, smooth_bump_spec):
        # corrected ray times are closer to a tight reference than raw ones,
        # and times interpolated without a ray are no farther than corrected.
        # Both errors are integration error of the same size (8.6e-12 and
        # 8.5e-12 here), whose order is noise: over n = 16-64 and offsets 0
        # and 0.37 fast / corrected spans 0.95-1.12 (0.94-1.14 with DP45)
        fast, fast_err, corrected, raw = self._errors_against_tight_reference(
            monkeypatch, smooth_bump_spec, 32)
        assert corrected < raw
        assert fast.diagnostics.bracket_rays.sum() == 0
        assert (fast.diagnostics.interpolated == fast.diagnostics.brackets).all()
        assert fast_err <= 1.15 * corrected

    def test_closer_to_tight_reference_on_full_build(self, monkeypatch, generic_beta_spec):
        # the same laws where every pair is shot; the default build shoots
        # rays for the brackets whose Hermite check fails (761 at n = 32),
        # and its error (9.7e-11) is far below the raw one (3.5e-5)
        fast, fast_err, corrected, raw = self._errors_against_tight_reference(
            monkeypatch, generic_beta_spec, 32)
        assert not generic_beta_spec.rotation_invariant
        assert corrected < raw
        assert fast_err <= corrected

    def test_first_variation_is_boundary_rate(self, rot_zermelo_spec):
        # <dF/dy, tau> matches a central difference of the exit time in the
        # target angle on a non-reversible, curved medium
        spec, h = rot_zermelo_spec, 1e-4
        angles = np.array([0.3, 2.4 - h, 2.4, 2.4 + h])
        lo, _, hi = shoot_pairs(spec, angles, [(0, 1), (0, 2), (0, 3)]).time
        # the rate is taken on a ray iterated to miss_rtol, as recorded paths
        # are: a first ray kept by the second-order term misses by ~1e-5
        psi = shoot_pairs(spec, angles, [(0, 2)], record_paths=True).angle
        rate = geo._exit_fan(spec, np.array([0.3]), psi, SolverOptions())[2][0]
        assert rate == pytest.approx((hi - lo) / (2 * h), abs=1e-7)


def _hermite_rows(miss, time, rate):
    """``geo._hermite_at_zero`` on row-major (q, 6) tables, with numpy's row sums."""
    dm = np.diff(miss, axis=1)
    use = np.isfinite(rate).all(axis=1) & ((dm > 0.0).all(axis=1) | (dm < 0.0).all(axis=1))
    order = [1, 2, 3, 4, 0, 5]
    z = np.repeat(miss[use][:, order], 2, axis=1)
    c = np.repeat(time[use][:, order], 2, axis=1)
    c[:, 2::2] = (c[:, 2::2] - c[:, 1:-1:2]) / (z[:, 2::2] - z[:, 1:-1:2])
    c[:, 1::2] = rate[use][:, order]
    for j in range(2, 12):
        c[:, j:] = (c[:, j:] - c[:, j - 1:-1]) / (z[:, j:] - z[:, :-j])
    terms = c * np.cumprod(np.concatenate([np.ones((len(z), 1)), -z[:, :-1]], axis=1), axis=1)
    outer = terms[:, 8:].sum(axis=1)
    out = np.full((2, len(miss)), np.nan)
    out[:, use] = terms[:, :8].sum(axis=1) + outer, np.abs(outer)
    return out


class TestZeroRayBrackets:
    def test_hermite_exact_on_degree_eleven(self, rng):
        # values and slopes at six uneven nodes fix a degree-11 polynomial;
        # the nodes straddle zero between the third and fourth, as a
        # bracket's do, in rows of increasing and decreasing misses, and
        # on a degree-7 row the two interpolants agree
        poly = np.polynomial.polynomial
        coef = rng.normal(size=(3, 12))
        coef[2, 8:] = 0.0
        m = 0.15 * (np.arange(6) - 2.5 + rng.uniform(-0.3, 0.3, (3, 6)))
        m[1] = -m[1]
        T = np.array([poly.polyval(mi, ci) for mi, ci in zip(m, coef)])
        p = np.array([poly.polyval(mi, poly.polyder(ci)) for mi, ci in zip(m, coef)])
        t0, err = geo._hermite_at_zero(m.T, T.T, p.T)
        assert np.allclose(t0, coef[:, 0], rtol=0, atol=1e-14)
        assert np.isfinite(err).all() and err[2] <= 1e-14
        # a fold among the nodes or a node without a rate gives nan
        turned, unrated = m[:1].copy(), p[:1].copy()
        turned[0, 5], unrated[0, 0] = turned[0, 3], np.nan
        assert np.isnan(geo._hermite_at_zero(turned.T, T[:1].T, p[:1].T)).all()
        assert np.isnan(geo._hermite_at_zero(m[:1].T, T[:1].T, unrated.T)).all()

    def test_columns_sum_as_rows(self, rng):
        # the column-major table adds its terms in the order of numpy's row
        # sums, so it is bit for bit the row-major one, on rows of zeros too
        q = 4000
        m = np.sort(rng.normal(size=(q, 6)), axis=1) * 10.0 ** rng.integers(-4, 1, (q, 1))
        m[::2] = -m[::2]
        T, p = rng.normal(size=(2, q, 6)) * 10.0 ** rng.integers(-3, 3, (2, q, 6))
        T[::7], p[::11] = rng.choice([0.0, -0.0], size=(2, 6))
        p[::13, 2] = np.nan
        ref = _hermite_rows(m, T, p)
        got = geo._hermite_at_zero(m.T.copy(), T.T.copy(), p.T.copy())
        assert np.isnan(ref).any() and ref.tobytes() == got.tobytes()

    @pytest.mark.parametrize("medium, rtol", [("smooth_bump_spec", 1e-12),
                                              ("rot_zermelo_spec", 1e-12),
                                              ("lens_spec", 1e-12),
                                              ("offcentre_lens_spec", 1e-13)])
    def test_agrees_with_false_position(self, monkeypatch, request, medium, rtol):
        # at a tight integrator tolerance the interpolated times are the
        # converged rays' to that tolerance, on lenses with three branches
        # too: the agreement check tightens with the solver
        spec, tight = request.getfixturevalue(medium), SolverOptions(rtol=rtol, atol=1e-3 * rtol)
        angles, pairs = _all_pairs(24)
        fast = shoot_pairs(spec, angles, pairs, tight)
        monkeypatch.setattr(geo, "_HERMITE_TOL", -1.0)
        ref = shoot_pairs(spec, angles, pairs, tight)
        assert fast.interpolated.sum() > 0 and ref.interpolated.sum() == 0
        assert (fast.bracket_rays < ref.bracket_rays).any()
        for field in ("branch_count", "converged"):
            assert np.array_equal(getattr(fast, field), getattr(ref, field))
        assert np.abs(fast.time - ref.time)[ref.converged].max() <= rtol

    @pytest.mark.parametrize("radius", [0.25, 4.0])
    def test_check_scales_with_the_domain(self, smooth_spec, radius):
        # c = 2 - (r/R)^2 on radius R is the unit disk's 2 - r^2 scaled by R:
        # its times scale by R and the same brackets are interpolated
        angles, pairs = _all_pairs(24)
        unit = shoot_pairs(smooth_spec, angles, pairs)
        scaled = RandersSpec(Domain(radius),
                             ConformalMetric(RadialProfile(f"2 - r^2/{radius * radius!r}")))
        shots = shoot_pairs(scaled, angles, pairs)
        assert unit.interpolated.sum() == unit.brackets.sum() > 0
        assert np.array_equal(shots.interpolated, unit.interpolated)
        assert np.allclose(shots.time, radius * unit.time, rtol=1e-10, atol=0.0)

    def test_kink_brackets_near_the_origin_are_shot(self, kink_spec):
        # c = 2 - r is not smooth at the origin: the brackets of the rays
        # passing near it fail the agreement check and shoot rays
        angles, pairs = _all_pairs(24)
        shots = shoot_pairs(kink_spec, angles, pairs)
        shot = shots.interpolated < shots.brackets
        sep = (shots.pairs[:, 1] - shots.pairs[:, 0]) % 24
        assert np.array_equal(shot, (sep >= 10) & (sep <= 14))
        assert (shots.bracket_rays[shot] >= 1).all() and not shots.bracket_rays[~shot].any()
        assert shots.converged.all()

    def test_step_inside_a_bracket_leaves_the_pair_unconverged(self, monkeypatch, generic_spec):
        # straight chords, whose exit angle and time jump by 0.5 at psi = 0.2:
        # the nodes on either side are smooth, monotone and rated, but the
        # Hermite interpolants across the step disagree, so false position
        # runs and stops at the jump (the medium is curved, so it sweeps:
        # a straight one would shoot one chord ray per pair)
        def stepped(spec, theta0, psi, opts, record=False):
            step = np.where(psi < 0.2, 0.0, 0.5)
            th, d = theta0 + math.pi + 2.0 * psi + step, theta0 + math.pi + psi
            # the first-variation rate <y, tau> of the unit chord y at exit angle th
            return (th % (2.0 * math.pi), 2.0 * np.cos(psi) + step, np.sin(d - th),
                    np.ones(len(psi), dtype=bool), None)

        monkeypatch.setattr(geo, "_exit_fan", stepped)
        angles = np.array([0.0, math.pi + 0.65])   # between the step's two sides
        shots = shoot_pairs(generic_spec, angles, [(0, 1)])
        assert shots.branch_count[0] == 1 and shots.interpolated[0] == 0
        assert not shots.converged[0] and shots.bracket_rays[0] >= 1
        monkeypatch.setattr(geo, "_HERMITE_TOL", math.inf)
        assert shoot_pairs(generic_spec, angles, [(0, 1)]).converged[0]

    def test_recorded_paths_interpolate_nothing(self, smooth_bump_spec):
        angles, pairs = _all_pairs(6)
        free = shoot_pairs(smooth_bump_spec, angles, pairs)
        rec = shoot_pairs(smooth_bump_spec, angles, pairs, record_paths=True)
        assert free.interpolated.sum() == free.brackets.sum() > 0
        assert not free.bracket_rays.any() and not free.correction.any()
        assert not rec.interpolated.any()
        assert (rec.bracket_rays >= rec.brackets).all() and np.abs(rec.miss).max() > 0.0


class TestProjectiveEquivalence:
    def test_bump_preserves_point_sets(self, dom, smooth_alpha, smooth_spec):
        spec2 = RandersSpec(dom, smooth_alpha, bump_gradient(0.25))
        assert spec2._cotangent_fields()[3] is None
        for a, b in [(0.0, 2.2), (1.1, 4.0), (2.5, 5.9)]:
            p1 = solve_bvp(smooth_spec, dom.boundary_point(a), dom.boundary_point(b)).path
            p2 = solve_bvp(spec2, dom.boundary_point(a), dom.boundary_point(b)).path
            h = hausdorff(resample(p1), resample(p2))
            assert h <= 1e-6 * dom.radius

    def test_rotational_breaks_point_sets(self, dom, euclid_spec):
        rot = RandersSpec(dom, EuclideanMetric(), RotationalForm(0.4))
        worst = 0.0
        for a, b in [(0.0, 2.2), (1.1, 4.0)]:
            p1 = solve_bvp(euclid_spec, dom.boundary_point(a), dom.boundary_point(b)).path
            p2 = solve_bvp(rot, dom.boundary_point(a), dom.boundary_point(b)).path
            worst = max(worst, hausdorff(resample(p1), resample(p2)))
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


class TestPointSetReference:
    def test_hausdorff_matches_brute_force(self):
        # two smooth curves sampled unevenly
        x = 3.0 * np.linspace(0.0, 1.0, 40) ** 1.1
        A = np.column_stack([x, np.sin(x)])
        x = 3.0 * np.linspace(0.0, 1.0, 57) ** 1.2
        B = np.column_stack([x, np.sin(x) + 0.01 * np.cos(3.0 * x)])
        got = hausdorff(A, B)
        assert got == pytest.approx(_hausdorff_reference(A, B), rel=0, abs=1e-15)
        assert 0.005 < got < 0.2


class TestReversedGeodesics:
    def test_direction_gap_is_an_unsigned_angle(self):
        # launches y[0] by default, p's reversed arrival -y[-1] with reversal;
        # vector lengths do not matter
        p = types.SimpleNamespace(y=np.array([[1.0, 0.0], [0.0, 2.0]]))
        q = types.SimpleNamespace(y=np.array([[0.0, -3.0], [1.0, 1.0]]))
        assert geo._direction_gap(p, q) == geo._direction_gap(q, p) == pytest.approx(math.pi / 2)
        assert geo._direction_gap(p, q, reversal=True) == 0.0
        assert geo._direction_gap(q, p, reversal=True) == pytest.approx(0.75 * math.pi)

    def test_reversible_spec(self, dom, smooth_spec):
        path = solve_bvp(smooth_spec, dom.boundary_point(0.4), dom.boundary_point(2.8)).path
        rep = reversed_geodesic_check(smooth_spec, path)
        assert rep.angle_gap <= 1e-6

    def test_closed_form_bump(self, dom, smooth_bump_spec):
        path = solve_bvp(smooth_bump_spec, dom.boundary_point(5.8), dom.boundary_point(1.9)).path
        rep = reversed_geodesic_check(smooth_bump_spec, path)
        assert rep.angle_gap <= 1e-6
        assert rep.forward_time != rep.backward_time  # non-reversible parametrization

    def test_path_of_another_spec_rejected(self, dom, euclid_spec, smooth_spec):
        path = integrate_geodesic(euclid_spec, dom.boundary_point(0.3), [-1.0, 0.2])
        with pytest.raises(SpecMismatchError,
                           match="^path was not produced under the supplied spec$"):
            reversed_geodesic_check(smooth_spec, path)

    def test_rotational_counterexample(self, dom):
        rot = RandersSpec(dom, EuclideanMetric(), RotationalForm(0.4))
        path = solve_bvp(rot, dom.boundary_point(0.0), dom.boundary_point(2.5)).path
        rep = reversed_geodesic_check(rot, path)
        assert rep.angle_gap > 1e-3
