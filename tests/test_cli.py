import json
import math

import numpy as np
import pytest

from randers import Domain, PotentialBump, build_scenario, parse_config
from randers.boundary import load, sample_boundary
from randers.cli import main

EUCLID_CFG = """
[domain]
radius = 1.0
boundary_samples = 6

[medium]
kind = "direct"
alpha = "euclidean"
beta = "zero"
"""

BUMP_CFG = EUCLID_CFG.replace('beta = "zero"', 'beta = "bump(0.2, 1.0)"')

ROT_CFG = EUCLID_CFG.replace('beta = "zero"', 'beta = "rotational(0.4)"')

CURVED_CFG = """
[domain]
boundary_samples = 8

[medium]
kind = "zermelo"
c = "2 - r^2"
"""

POTENTIAL_CFG = """
[domain]
boundary_samples = 8

[medium]
kind = "direct"
alpha = "conformal"
c = "2 - r^2"
beta = "potential(0.1*x1*x2 + 0.05*r^2)"
"""

WIND_CFG = """
[domain]
boundary_samples = 4

[medium]
kind = "zermelo"
c = "1"
wind = "const(0.5, 0)"

[pipeline]
noise_sigma = 0.001
seed = 11
"""


@pytest.fixture
def cfg_file(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


class TestSimulate:
    def test_euclid_symmetric_matrix(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", cfg_file("e.cfg", EUCLID_CFG), "--out", str(out)])
        assert rc == 0
        data = load(out / "distances.csv")
        assert data.n == 6
        assert np.abs(data.matrix - data.matrix.T).max() <= 2e-8
        # n=6 chords: 1, sqrt(3), 2
        assert data.matrix[0, 1] == pytest.approx(1.0, abs=1e-8)
        assert data.matrix[0, 2] == pytest.approx(math.sqrt(3.0), abs=1e-8)
        assert data.matrix[0, 3] == pytest.approx(2.0, abs=1e-8)

    def test_deterministic_artifacts(self, cfg_file, tmp_path):
        cfg = cfg_file("w.cfg", WIND_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "distances.csv").read_bytes() == (out2 / "distances.csv").read_bytes()

    def test_seed_override_changes_noise(self, cfg_file, tmp_path):
        cfg = cfg_file("w.cfg", WIND_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "99"])
        d1, d2 = load(out1 / "distances.csv"), load(out2 / "distances.csv")
        assert not np.array_equal(d1.matrix, d2.matrix)
        assert d2.noise.seed == 99

    def test_threads_identical(self, cfg_file, tmp_path):
        # the constant wind is not rotation-invariant, so its build shoots
        # every start and the threads split them
        cfg = cfg_file("w.cfg", WIND_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2), "--threads", "2"])
        assert (out1 / "distances.csv").read_bytes() == (out2 / "distances.csv").read_bytes()

    def test_error_block_on_bad_config(self, cfg_file, tmp_path, capsys):
        for text, needle in (('[medium]\nkind = "direct"\nbeta = "const(1.5, 0)"\n', "margin"),
                             ("[solver]\nangle_samples = 0\n", "angle_samples")):
            bad = cfg_file("bad.cfg", text)
            rc = main(["simulate", "--config", bad, "--out", str(tmp_path / "o")])
            assert rc == 1
            err = capsys.readouterr().err
            block = json.loads(err.strip().splitlines()[-1])
            assert block["error"]["type"] == "ConfigError"
            assert needle in block["error"]["message"]

    def test_threads_flag_checked_before_building(self, cfg_file, tmp_path, capsys):
        bad = cfg_file("bad.cfg", "[solver]\nangle_samples = 0\n")
        rc = main(["simulate", "--config", bad, "--out", str(tmp_path / "o"), "--threads", "0"])
        assert rc == 1
        block = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "--threads" in block["error"]["message"]


class TestDecompose:
    def test_writes_parts(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["decompose", "--config", cfg_file("w.cfg", WIND_CFG.replace("0.001", "0")),
                   "--out", str(out)])
        assert rc == 0
        d = load(out / "distances.csv")
        s = load(out / "sym.csv")
        a = load(out / "anti.csv")
        assert np.abs(s.matrix - 0.5 * (d.matrix + d.matrix.T)).max() == 0.0
        assert np.abs(a.matrix + a.matrix.T).max() == 0.0
        # wind diameters: sample 0 = (1,0), sample 2 = (-1,0)
        assert s.matrix[2, 0] == pytest.approx(8.0 / 3.0, abs=1e-7)
        assert a.matrix[2, 0] == pytest.approx(-4.0 / 3.0, abs=1e-7)


class TestRecover:
    def test_bump_pair_verdicts(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["recover", "--config", cfg_file("a.cfg", EUCLID_CFG),
                   "--config", cfg_file("b.cfg", BUMP_CFG), "--out", str(out)])
        assert rc == 0
        text = (out / "report.txt").read_text()
        assert "verdict boundary_data_equal: True" in text
        assert "verdict gauge_equivalent: True" in text
        assert (out / "potential.csv").exists()

    def test_requires_shared_boundary_sampling(self, cfg_file, tmp_path, capsys):
        other = BUMP_CFG.replace("boundary_samples = 6", "boundary_samples = 8")
        rc = main(["recover", "--config", cfg_file("a.cfg", EUCLID_CFG),
                   "--config", cfg_file("b.cfg", other), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "RandersError",
                       "message": "the two scenarios must share boundary sampling and radius"}

    def test_requires_two_configs(self, cfg_file, tmp_path, capsys):
        rc = main(["recover", "--config", cfg_file("a.cfg", EUCLID_CFG),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "two" in capsys.readouterr().err


class TestVerify:
    def test_closed_scenario_passes(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["verify", "--config", cfg_file("b.cfg", BUMP_CFG), "--out", str(out)])
        assert rc == 0
        assert "all checks passed" in (out / "verify.txt").read_text()

    def test_rotational_scenario_hypothesis_violated(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["verify", "--config", cfg_file("r.cfg", ROT_CFG), "--out", str(out)])
        assert rc == 2
        text = (out / "verify.txt").read_text()
        assert "hypothesis violated" in text
        assert "SEPARATED" in text

    def test_closed_form_whose_reversal_separates_is_a_bug(self, cfg_file, tmp_path,
                                                           monkeypatch):
        import randers.cli as cli

        monkeypatch.setattr(cli, "_direction_gap", lambda p, q, reversal=False: 1.0)
        out = tmp_path / "out"
        rc = main(["verify", "--config", cfg_file("b.cfg", BUMP_CFG), "--out", str(out)])
        assert rc == 1
        lines = (out / "verify.txt").read_text().splitlines()
        assert sum("SEPARATED" in line for line in lines) == 3
        assert lines[-1] == "RESULT: bug (closed 1-form but reversal separated)"

    def test_failed_projective_check_is_a_bug(self, cfg_file, tmp_path, monkeypatch):
        # the three reversal chords pass; the projective comparison fails
        import randers.cli as cli

        monkeypatch.setattr(cli, "_direction_gap",
                            lambda p, q, reversal=False: 0.0 if reversal else 1.0)
        out = tmp_path / "out"
        rc = main(["verify", "--config", cfg_file("b.cfg", BUMP_CFG), "--out", str(out)])
        assert rc == 1
        lines = (out / "verify.txt").read_text().splitlines()
        assert not any("SEPARATED" in line for line in lines)
        assert any(line.startswith("projective equivalence") and line.endswith("FAIL")
                   for line in lines)
        assert lines[-1] == "RESULT: bug"

    @pytest.mark.parametrize("text", [BUMP_CFG, ROT_CFG, CURVED_CFG, POTENTIAL_CFG],
                             ids=["bump", "rotational", "curved", "potential"])
    def test_angle_verdicts_match_point_sets(self, cfg_file, tmp_path, monkeypatch, text):
        # each chord verify compares is also compared as point sets: the
        # Hausdorff distance of the resampled paths against the 1e-6 R bound
        # the angle check replaced (every medium here has R = 1); only the
        # rotational form's reversal chords separate
        import randers.cli as cli
        from pointsets import hausdorff, resample

        gap_of = cli._direction_gap
        verdicts = []

        def spy(p, q, reversal=False):
            gap = gap_of(p, q, reversal)
            a = resample(p)[::-1] if reversal else resample(p)
            by_points = hausdorff(a, resample(q)) <= 1e-6
            verdicts.append((reversal, gap <= cli._LEMMA_TOL, by_points))
            return gap

        monkeypatch.setattr(cli, "_direction_gap", spy)
        main(["verify", "--config", cfg_file("v.cfg", text), "--out", str(tmp_path / "out")])
        assert len(verdicts) == 7
        for reversal, by_angle, by_points in verdicts:
            assert by_angle == by_points == (text is not ROT_CFG or not reversal)

    @pytest.mark.parametrize("text", [WIND_CFG, BUMP_CFG, ROT_CFG, CURVED_CFG, POTENTIAL_CFG],
                             ids=["wind", "bump", "rotational", "curved", "potential"])
    def test_bumped_spec_runs_on_the_spray(self, text, rng):
        # the gauge lines compare F with F + d phi; were d phi a potential,
        # the times of F + d phi would be F's shifted by phi and the lines
        # would hold by construction; without one, its rays integrate it
        import randers.cli as cli

        spec = build_scenario(parse_config(text)).spec
        bumped = cli._bumped(spec)
        assert bumped._cotangent_fields()[3] is None
        # d phi of phi = 0.05 (R^2 - r^2) on any radius R
        x = rng.uniform(-0.6, 0.6, (8, 2))
        added = bumped.beta.value(x) - spec.beta.value(x)
        for R in (1.0, 2.5):
            assert np.allclose(added, PotentialBump(0.05 * R * R, R).gradient(x),
                               rtol=0, atol=1e-15)

    def test_chord_with_several_branches_is_an_error(self, cfg_file, tmp_path, capsys):
        # on this lens three geodesics join the second chord's endpoints
        cfg = cfg_file("l.cfg", '[domain]\nboundary_samples = 6\n\n[medium]\nkind = "zermelo"\n'
                                'c = "1 - 0.5*exp(-10*r^2)"\nwind = "zero"\n')
        rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "NonAdmissibleError"
        assert err["message"].startswith("3 geodesic branches connect boundary angles "
                                         "1.0000 -> 3.6000;")


class TestPlotdata:
    def test_writes_paths_and_profile(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        cfg = cfg_file("c.cfg", '[medium]\nkind = "zermelo"\nc = "2 - r"\nwind = "zero"\n')
        rc = main(["plotdata", "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert (out / "path_00.csv").exists()
        assert (out / "profile.csv").exists()
        assert (out / "boundary.csv").exists()
        first = (out / "path_00.csv").read_text().splitlines()
        assert first[1] == "t,x1,x2,y1,y2"

    def test_direct_conformal_profile_from_metric(self, cfg_file, tmp_path):
        # a direct spec has no medium: the profile is read from alpha's speed
        out = tmp_path / "out"
        cfg = cfg_file("d.cfg", '[domain]\nboundary_samples = 4\n\n[medium]\nkind = "direct"\n'
                                'alpha = "conformal"\nc = "2 - r^2"\n')
        assert main(["plotdata", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "profile.csv").read_text().splitlines()
        assert lines[:2] == ["# radial sound speed units=length,speed", "r,c"]
        r = np.linspace(0.0, 1.0, 256)
        want = [f"{a!r},{b!r}" for a, b in zip(r.tolist(), (2.0 - r * r).tolist())]
        assert lines[2:] == want

    def test_boundary_csv_bytes(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        cfg = cfg_file("c.cfg", "[domain]\nradius = 1.5\nboundary_samples = 7\n\n"
                                '[medium]\nkind = "zermelo"\nc = "2 - r"\nwind = "zero"\n')
        assert main(["plotdata", "--config", cfg, "--out", str(out)]) == 0
        # the rows as written when each row read its point from a fresh smp.points
        smp = sample_boundary(Domain(radius=1.5), 7)
        want = "# boundary samples units=radians,length\ni,angle,x1,x2\n"
        for i, a in enumerate(smp.angles):
            p = smp.points[i]
            want += f"{i},{float(a)!r},{float(p[0])!r},{float(p[1])!r}\n"
        assert (out / "boundary.csv").read_bytes() == want.encode()
