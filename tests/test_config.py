import math

import numpy as np
import pytest

from randers import ConfigError, RadialProfile, disk_grid
from randers.config import (DEFAULT_CONFIG, build_scenario, emit_config,
                            parse_config)

GOOD = """
[domain]
radius = 1.0
boundary_samples = 8

[medium]
kind = "conformal"
c = "2 - r"
wind = "const(0.05, 0)"

[solver]
angle_samples = 360

[pipeline]
seed = 3
"""


class TestParsing:
    def test_defaults_fill_missing(self):
        cfg = parse_config("")
        assert cfg == DEFAULT_CONFIG

    def test_good_config(self):
        cfg = parse_config(GOOD)
        assert cfg.domain["boundary_samples"] == 8
        assert cfg.medium["kind"] == "conformal"
        assert cfg.solver["angle_samples"] == 360
        assert cfg.solver["rtol"] == 1e-9
        assert cfg.pipeline["seed"] == 3

    def test_radial_profile_matches_expression(self):
        cfg = parse_config(GOOD)
        scn = build_scenario(cfg)
        speed = scn.medium.speed
        assert isinstance(speed, RadialProfile)
        r = np.linspace(0.0, 1.0, 1000)
        assert np.array_equal(speed.profile(r), 2.0 - r)

    def test_constant_wind_preset(self):
        scn = build_scenario(parse_config(GOOD))
        w = scn.medium.wind.value(np.zeros(2))
        assert np.allclose(w, [0.05, 0.0])

    def test_bump_vanishes_on_boundary(self, dom):
        text = """
[medium]
kind = "direct"
beta = "potential(0.3*(1 - (x1^2 + x2^2)))"
"""
        scn = build_scenario(parse_config(text))
        theta = np.linspace(0, 2 * math.pi, 33)
        bdry = scn.domain.boundary_point(theta)
        phi = scn.spec.beta.potential
        assert np.abs(phi.value(bdry)).max() < 1e-15

    def test_unknown_section_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("\n[bogus]\n")

    def test_unknown_key_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("\n[domain]\nradios = 1.0\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[domain]\nradius = 1.0\nradius = 2.0\n")

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config("[domain]\nboundary_samples = 2.5\n")
        with pytest.raises(ConfigError, match="true/false"):
            parse_config("[pipeline]\ninvert_profile = 1\n")
        # a boolean is not a number
        for text in ("[solver]\nrtol = true\n", "[domain]\nradius = true\n"):
            with pytest.raises(ConfigError, match="expects a number") as exc:
                parse_config("# booleans\n" + text)
            assert exc.value.line == 3

    def test_bad_expression_located(self):
        with pytest.raises(ConfigError, match="sound speed"):
            build_scenario(parse_config('[medium]\nc = "2 +* r"\n'))

    def test_unknown_wind_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            build_scenario(parse_config('[medium]\nkind = "zermelo"\nwind = "vortex(1)"\n'))

    def test_value_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("radius = 1.0\n")

    def test_negative_radius_rejected(self):
        with pytest.raises(ConfigError, match="radius"):
            parse_config("[domain]\nradius = -1.0\n")

    @pytest.mark.parametrize("text", ["[domain]\nradius = nan\n", "[domain]\nradius = inf\n",
                                      "[pipeline]\nnoise_sigma = nan\n",
                                      "[pipeline]\nnoise_sigma = inf\n"])
    def test_nonfinite_value_rejected(self, text):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(text)

    @pytest.mark.parametrize("key, value", [
        ("angle_samples", "0"), ("angle_samples", "-4"), ("max_steps", "0"),
        ("threads", "0"), ("threads", "-3"), ("trap_time_factor", "0"),
        ("trap_time_factor", "-1"), ("exclude_separation", "-0.001"),
        ("angle_samples", "1"), ("rtol", "nan"), ("atol", "inf"), ("miss_tol", "nan"),
        ("miss_tol", "0"), ("exclude_separation", "inf"),
    ])
    def test_bad_solver_value_names_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(f"[solver]\n{key} = {value}\n")

    # (config text, message, line or None when the check is not tied to a line)
    @pytest.mark.parametrize("text, message, line", [
        ('[medium]\nbeta = ["0.1*x2", "0.1*x1"\n', "unterminated list", 2),
        ("[domain]\nradius = one\n", "cannot parse value 'one'", 2),
        ("[domain]\n\nradius\n", "expected 'key = value', got 'radius'", 3),
        ('[medium]\nbeta = ["0.1*x2", 3]\n', "list entries for 'beta' must be quoted", 2),
        ('[medium]\nkind = "magic"\n', "unknown medium kind 'magic'", None),
        ('[medium]\nalpha = "riemann"\n', "unknown alpha 'riemann'", None),
        ('[medium]\nkind = "zermelo"\nwind = ["0.1"]\n',
         "wind expression list must have exactly 2 components", None),
        ('[medium]\nkind = "zermelo"\nwind = "swirl"\n', "unknown wind preset 'swirl'", None),
        ('[medium]\nkind = "zermelo"\nwind = "const(0.1)"\n',
         r"const\(\.\.\) wind needs two components", None),
        ('[medium]\nkind = "direct"\nbeta = "bump(0.2)"\n',
         r"bump\(A, R\) needs amplitude and radius", None),
        ('[medium]\nc = "r - 0.5"\n', "sound speed must be positive on the domain", None),
    ])
    def test_rejected_input_names_its_fault(self, text, message, line):
        with pytest.raises(ConfigError, match=message) as exc:
            build_scenario(parse_config(text))
        assert exc.value.line == line


class TestEmit:
    def test_round_trip_identity(self):
        cfg = parse_config(GOOD)
        again = parse_config(emit_config(cfg))
        assert again == cfg

    def test_emit_is_canonical(self):
        cfg = parse_config(GOOD)
        assert emit_config(cfg) == emit_config(parse_config(emit_config(cfg)))

    def test_units_annotated(self):
        text = emit_config(DEFAULT_CONFIG)
        assert "# length" in text
        assert "# radians" in text

    def test_list_value_round_trip(self):
        cfg = parse_config('[medium]\nkind = "direct"\nbeta = ["0.1*x2", "0.1*x1"]\n')
        assert cfg.medium["beta"] == ["0.1*x2", "0.1*x1"]
        assert parse_config(emit_config(cfg)) == cfg


class TestBuild:
    def test_zermelo_kind(self):
        scn = build_scenario(parse_config(
            '[medium]\nkind = "zermelo"\nc = "1"\nwind = "const(0.5, 0)"\n'))
        x = np.array([0.0, 0.0])
        assert scn.spec.alpha.value(x)[0, 0] == pytest.approx(16.0 / 9.0)

    def test_linearized_kind_reports_rho(self):
        scn = build_scenario(parse_config(
            '[medium]\nkind = "linearized"\nc = "1"\nwind = "const(0.1, 0)"\n'))
        assert scn.rho == pytest.approx(0.1)

    def test_direct_rotational(self):
        scn = build_scenario(parse_config(
            '[medium]\nkind = "direct"\nbeta = "rotational(0.4)"\n'))
        from randers import closedness_residual

        assert closedness_residual(scn.spec.beta, disk_grid(scn.domain, 50)) == pytest.approx(0.4)

    def test_component_beta(self):
        scn = build_scenario(parse_config(
            '[medium]\nkind = "direct"\nbeta = ["0.1*x2", "0.1*x1"]\n'))
        v = scn.spec.beta.value(np.array([0.5, 0.25]))
        assert np.allclose(v, [0.025, 0.05])

    def test_invalid_norm_rejected(self):
        with pytest.raises(ConfigError, match="margin"):
            build_scenario(parse_config('[medium]\nkind = "direct"\nbeta = "const(1.1, 0)"\n'))

    def test_supercritical_wind_rejected(self):
        from randers import InvalidMediumError

        with pytest.raises(InvalidMediumError):
            build_scenario(parse_config('[medium]\nkind = "zermelo"\nwind = "const(1.2, 0)"\n'))
