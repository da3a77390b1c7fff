import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randers import (ConstantField, ConstantForm, CsvFormatError, MediumModel,
                     add_noise, decompose, distance_matrix, load,
                     sample_boundary, save, zermelo_construct)
from randers.boundary import BoundarySamples


@pytest.fixture(scope="module")
def euclid4(euclid_spec):
    return distance_matrix(euclid_spec, 4)


@pytest.fixture(scope="module")
def wind2(wind_spec, dom):
    return distance_matrix(wind_spec, sample_boundary(dom, 2))


class TestSampling:
    def test_four_points(self, dom):
        s = sample_boundary(dom, 4)
        assert np.allclose(s.angles, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_two_points_antipodal(self, dom):
        s = sample_boundary(dom, 2)
        assert np.allclose(s.points[0], [1.0, 0.0])
        assert np.allclose(s.points[1], [-1.0, 0.0])

    def test_points_exactly_on_boundary(self, dom):
        s = sample_boundary(dom, 16)
        assert np.abs(np.linalg.norm(s.points, axis=1) - dom.radius).max() < 1e-15

    def test_minimum_count(self, dom):
        with pytest.raises(ValueError):
            sample_boundary(dom, 1)


class TestDistanceMatrix:
    def test_euclid_chords(self, euclid4):
        D = euclid4.matrix
        root2 = math.sqrt(2.0)
        expect = np.array([[0, root2, 2, root2],
                           [root2, 0, root2, 2],
                           [2, root2, 0, root2],
                           [root2, 2, root2, 0]])
        assert np.abs(D - expect).max() < 1e-8
        assert np.abs(D - D.T).max() < 2e-8  # reversible spec is symmetric

    def test_wind_oracle(self, wind2):
        D = wind2.matrix
        # sample 0 = (1, 0), sample 1 = (-1, 0)
        assert D[1, 0] == pytest.approx(4.0 / 3.0, abs=1e-7)
        assert D[0, 1] == pytest.approx(4.0, abs=1e-7)

    def test_diagnostics(self, euclid4):
        d = euclid4.diagnostics
        assert (d.branch_counts[~np.eye(4, dtype=bool)] == 1).all()
        assert np.abs(d.miss).max() <= 1e-8
        assert not d.excluded.any()

    def test_diagonal_zero_offdiag_positive(self, euclid4):
        D = euclid4.matrix
        assert np.diagonal(D).max() == 0.0
        off = ~np.eye(4, dtype=bool)
        assert (D[off] > 0).all()

    def test_parallel_matches_serial(self, wind_spec):
        serial = distance_matrix(wind_spec, 6, threads=1)
        parallel = distance_matrix(wind_spec, 6, threads=2)
        assert np.array_equal(serial.matrix, parallel.matrix)

    def test_repeat_build_bitwise_identical(self, euclid_spec):
        a = distance_matrix(euclid_spec, 5)
        b = distance_matrix(euclid_spec, 5)
        assert np.array_equal(a.matrix, b.matrix)


class TestDecompose:
    def test_wind_values(self, wind2):
        sym, anti = decompose(wind2)
        assert sym[1, 0] == pytest.approx(8.0 / 3.0, abs=1e-7)
        assert anti[1, 0] == pytest.approx(-4.0 / 3.0, abs=1e-7)

    def test_reconstruction_to_roundoff(self, wind2):
        # halving the rounded sum/difference loses at most one ulp, so the
        # reconstruction identity holds to machine epsilon, not bitwise
        sym, anti = decompose(wind2)
        err = np.abs(sym + anti - wind2.matrix).max()
        assert err <= 2 * np.finfo(float).eps * np.abs(wind2.matrix).max()

    def test_symmetry_properties(self, euclid4):
        sym, anti = decompose(euclid4)
        assert np.array_equal(sym, sym.T)
        assert np.array_equal(anti, -anti.T)
        assert np.abs(anti).max() <= 2e-8  # reversible spec


class TestNoise:
    def test_zero_sigma_identity(self, euclid4):
        noisy = add_noise(euclid4, 0.0, seed=7)
        assert np.array_equal(noisy.matrix, euclid4.matrix)

    def test_seed_reproducible(self, euclid4):
        a = add_noise(euclid4, 1e-3, seed=42)
        b = add_noise(euclid4, 1e-3, seed=42)
        assert np.array_equal(a.matrix, b.matrix)
        assert a.noise.sigma == 1e-3 and a.noise.seed == 42

    def test_bounded_and_offdiagonal_only(self, euclid4):
        noisy = add_noise(euclid4, 1e-3, seed=42)
        bump = noisy.matrix - euclid4.matrix
        assert np.diagonal(bump).max() == 0.0
        assert np.abs(bump).max() <= 6e-3

    def test_decompose_still_reconstructs(self, euclid4):
        noisy = add_noise(euclid4, 1e-3, seed=1)
        sym, anti = decompose(noisy)
        err = np.abs(sym + anti - noisy.matrix).max()
        assert err <= 2 * np.finfo(float).eps * np.abs(noisy.matrix).max()

    def test_negative_sigma_rejected(self, euclid4):
        with pytest.raises(ValueError):
            add_noise(euclid4, -1.0, seed=0)


class TestCsv:
    def test_roundtrip_bitwise(self, euclid4, tmp_path):
        p = tmp_path / "d.csv"
        save(euclid4, p)
        back = load(p)
        assert np.array_equal(back.matrix, euclid4.matrix)
        assert np.array_equal(back.angles, euclid4.angles)
        assert back.radius == euclid4.radius
        assert back.spec_hash == euclid4.spec_hash

    def test_noise_descriptor_roundtrip(self, euclid4, tmp_path):
        noisy = add_noise(euclid4, 1e-3, seed=9)
        p = tmp_path / "n.csv"
        save(noisy, p)
        back = load(p)
        assert np.array_equal(back.matrix, noisy.matrix)
        assert back.noise.sigma == 1e-3 and back.noise.seed == 9

    def test_truncated_file_reports_line(self, euclid4, tmp_path):
        p = tmp_path / "t.csv"
        save(euclid4, p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(CsvFormatError, match="line"):
            load(p)

    def test_header_mismatch_rejected(self, euclid4, tmp_path):
        p = tmp_path / "m.csv"
        save(euclid4, p)
        text = p.read_text().replace("# n=4", "# n=5")
        p.write_text(text)
        with pytest.raises(CsvFormatError):
            load(p)

    def test_malformed_row_reports_line(self, euclid4, tmp_path):
        p = tmp_path / "b.csv"
        save(euclid4, p)
        lines = p.read_text().splitlines()
        lines[4] = "0,2,not_a_number,0.0,1.5"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError, match="line 5"):
            load(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("junk\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            load(p)


class TestAdmissibilityAbort:
    def test_multi_branch_aborts_with_pair(self, euclid_spec, monkeypatch):
        import randers.boundary as bd
        from randers import NonAdmissibleError
        from randers.geodesics import PairShot

        def fake_shoot(spec, angles, pairs, opts=None, record_paths=False):
            return [PairShot(i, j, 1.0, 0.0, 2, True) for i, j in pairs]

        monkeypatch.setattr(bd, "shoot_pairs", fake_shoot)
        with pytest.raises(NonAdmissibleError, match=r"\(0, 1\)"):
            bd.distance_matrix(euclid_spec, 3)

    def test_missing_branch_aborts(self, euclid_spec, monkeypatch):
        import randers.boundary as bd
        from randers import ConnectivityError
        from randers.geodesics import PairShot

        def fake_shoot(spec, angles, pairs, opts=None, record_paths=False):
            return [PairShot(i, j, float("nan"), float("nan"), 0, False)
                    for i, j in pairs]

        monkeypatch.setattr(bd, "shoot_pairs", fake_shoot)
        with pytest.raises(ConnectivityError):
            bd.distance_matrix(euclid_spec, 3)


class TestExclusion:
    def test_nearly_adjacent_pairs_excluded(self, euclid_spec, dom):
        angles = np.array([0.0, 5e-4, math.pi / 2, math.pi])
        data = distance_matrix(euclid_spec, BoundarySamples(angles=angles, radius=1.0))
        assert data.diagnostics.excluded[0, 1] and data.diagnostics.excluded[1, 0]
        assert np.isnan(data.matrix[0, 1])
        assert not np.isnan(data.matrix[0, 2])


@pytest.fixture(scope="module", params=["wind_spec", "smooth_bump_spec"])
def forward_and_reversed(request):
    spec = request.getfixturevalue(request.param)
    return distance_matrix(spec, 6).matrix, distance_matrix(spec.reverse(), 6).matrix


class TestMetamorphic:
    def test_reversed_norm_transposes(self, forward_and_reversed):
        D, D_rev = forward_and_reversed
        assert np.abs(D_rev - D.T).max() <= 2e-8

    def test_triangle_inequality(self, forward_and_reversed):
        # a non-minimising branch would break D[i,k] <= D[i,j] + D[j,k]
        D, _ = forward_and_reversed
        n = len(D)
        slack = D[:, :, None] + D[None, :, :] - D[:, None, :]   # [i, j, k]
        i, j, k = np.meshgrid(*(np.arange(n),) * 3, indexing="ij")
        distinct = (i != j) & (j != k) & (i != k)
        assert slack[distinct].min() >= -1e-9


def _rotated_samples(n, delta):
    return BoundarySamples(angles=(2.0 * math.pi * np.arange(n) / n + delta) % (2.0 * math.pi),
                           radius=1.0)


@pytest.fixture(scope="module")
def bump6(smooth_bump_spec):
    return distance_matrix(smooth_bump_spec, 6).matrix


class TestRotationEquivariance:
    @settings(max_examples=5, deadline=None)
    @given(st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    def test_rotation_invariant_medium(self, smooth_bump_spec, bump6, delta):
        # c = 2 - r^2 and the bump gauge are rotation invariant, so rotating
        # the samples must leave D unchanged
        D = distance_matrix(smooth_bump_spec, _rotated_samples(6, delta)).matrix
        assert np.abs(D - bump6).max() <= 2e-8

    def test_wind_rotates_with_samples(self, dom, wind_spec):
        delta = 2.0
        w = 0.5 * np.array([math.cos(delta), math.sin(delta)])
        turned = zermelo_construct(MediumModel(dom, speed=ConstantField(1.0), wind=ConstantForm(w)))
        D = distance_matrix(wind_spec, 6).matrix
        D_turned = distance_matrix(turned, _rotated_samples(6, delta)).matrix
        assert np.abs(D_turned - D).max() <= 2e-8
