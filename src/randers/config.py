"""Scenario definition language: parse, validate, build, re-emit.

A scenario file is a small INI-style document with typed keys, each with a
declared unit.  Unknown sections or keys are rejected with line numbers;
values are numbers, quoted strings, booleans, or lists of quoted
expressions.  ``parse -> emit -> parse`` is the identity on the parsed
structure, and a parsed scenario builds deterministically into fields,
medium, and solver options.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .expressions import compile_expression
from .fields import (ComponentForm, ConformalMetric, ConstantField,
                     ConstantForm, Domain, EuclideanMetric, ExactForm,
                     ExprField, PotentialBump, RadialProfile, RotationalForm,
                     ZeroForm, disk_grid)
from .geodesics import SolverOptions
from .norms import RandersSpec

__all__ = ["ScenarioConfig", "Scenario", "parse_config", "emit_config",
           "build_scenario", "DEFAULT_CONFIG"]

# schema: section -> key -> (type, unit, default); solver defaults are SolverOptions'
_SCHEMA = {
    "domain": {
        "radius": ("float", "length", 1.0),
        "boundary_samples": ("int", "count", 16),
    },
    "medium": {
        "kind": ("str", "enum:zermelo|linearized|direct", "direct"),
        "c": ("str", "speed expression in x1,x2,r", "1"),
        "wind": ("field", "speed field preset", "zero"),
        "alpha": ("str", "enum:euclidean|conformal", "euclidean"),
        "beta": ("field", "one-form preset", "zero"),
    },
    "solver": {
        "rtol": ("float", "dimensionless", SolverOptions.rtol),
        "atol": ("float", "dimensionless", SolverOptions.atol),
        "angle_samples": ("int", "count", SolverOptions.angle_samples),
        "miss_tol": ("float", "fraction of R; rays above the one-ray cap, recorded paths",
                     SolverOptions.miss_rtol),
        "max_steps": ("int", "count", SolverOptions.max_steps),
        "trap_time_factor": ("float", "dimensionless", SolverOptions.trap_time_factor),
        "exclude_separation": ("float", "radians", SolverOptions.exclude_separation),
        "threads": ("int", "count", 1),
    },
    "pipeline": {
        "noise_sigma": ("float", "time", 0.0),
        "invert_profile": ("bool", "flag", False),
        "seed": ("int", "count", 0),
    },
}

_SECTION_ORDER = ("domain", "medium", "solver", "pipeline")


@dataclass(frozen=True)
class ScenarioConfig:
    domain: dict
    medium: dict
    solver: dict
    pipeline: dict

    def block(self, name):
        return getattr(self, name)


def _default_blocks():
    return {sec: {k: spec[2] for k, spec in keys.items()} for sec, keys in _SCHEMA.items()}


DEFAULT_CONFIG = ScenarioConfig(**_default_blocks())

_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.+?)\s*$")
_SECTION_RE = re.compile(r"^\[([A-Za-z_][A-Za-z_0-9]*)\]\s*$")


def _parse_scalar(raw, line):
    raw = raw.strip()
    if raw in ("true", "false"):
        return raw == "true"
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    try:
        if re.fullmatch(r"[+-]?\d+", raw):
            return int(raw)
        return float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r} (numbers, booleans, "
                          f"\"strings\", or [lists] expected)", line=line) from None


def _strip_comment(raw):
    in_str = False
    for k, ch in enumerate(raw):
        if ch == '"':
            in_str = not in_str
        elif ch == "#" and not in_str:
            return raw[:k]
    return raw


def _split_list_items(inner):
    """Split on commas outside quoted strings."""
    parts, cur, in_str = [], [], False
    for ch in inner:
        if ch == '"':
            in_str = not in_str
        if ch == "," and not in_str:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_value(raw, line):
    raw = _strip_comment(raw).strip()
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise ConfigError("unterminated list", line=line)
        inner = raw[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(part, line) for part in _split_list_items(inner)]
    return _parse_scalar(raw, line)


def parse_config(text):
    """Parse scenario text with full validation and located diagnostics."""
    blocks = _default_blocks()
    seen = set()
    section = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        msec = _SECTION_RE.match(stripped)
        if msec:
            section = msec.group(1)
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}] "
                                  f"(expected one of {', '.join(_SECTION_ORDER)})", line=ln)
            continue
        mkey = _KEY_RE.match(stripped)
        if mkey is None:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", line=ln)
        if section is None:
            raise ConfigError("key outside any [section]", line=ln)
        key, rawval = mkey.group(1), mkey.group(2)
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}] "
                              f"(allowed: {', '.join(sorted(_SCHEMA[section]))})", line=ln)
        if (section, key) in seen:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", line=ln)
        seen.add((section, key))
        val = _parse_value(rawval, ln)
        typ = _SCHEMA[section][key][0]
        if typ == "float":
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ConfigError(f"key {key!r} expects a number", line=ln)
            val = float(val)
        elif typ == "int":
            if isinstance(val, bool) or not isinstance(val, int):
                raise ConfigError(f"key {key!r} expects an integer", line=ln)
        elif typ == "bool":
            if not isinstance(val, bool):
                raise ConfigError(f"key {key!r} expects true/false", line=ln)
        elif typ == "str":
            if not isinstance(val, str):
                raise ConfigError(f"key {key!r} expects a quoted string", line=ln)
        elif typ == "field":
            if not isinstance(val, (str, list)):
                raise ConfigError(f"key {key!r} expects a preset string or expression list", line=ln)
            if isinstance(val, list) and not all(isinstance(v, str) for v in val):
                raise ConfigError(f"list entries for {key!r} must be quoted expressions", line=ln)
        blocks[section][key] = val

    cfg = ScenarioConfig(**blocks)
    _validate(cfg)
    return cfg


# solver key -> SolverOptions field; SolverOptions checks each value
_SOLVER_FIELDS = {"rtol": "rtol", "atol": "atol", "angle_samples": "angle_samples",
                  "miss_tol": "miss_rtol", "max_steps": "max_steps",
                  "trap_time_factor": "trap_time_factor",
                  "exclude_separation": "exclude_separation"}


def _validate(cfg):
    if not (math.isfinite(cfg.domain["radius"]) and cfg.domain["radius"] > 0):
        raise ConfigError("domain radius must be finite and positive")
    if cfg.domain["boundary_samples"] < 2:
        raise ConfigError("boundary_samples must be >= 2")
    kind = cfg.medium["kind"]
    if kind not in ("zermelo", "linearized", "direct"):
        raise ConfigError(f"unknown medium kind {kind!r}")
    if cfg.medium["alpha"] not in ("euclidean", "conformal"):
        raise ConfigError(f"unknown alpha {cfg.medium['alpha']!r}")
    for key, name in _SOLVER_FIELDS.items():
        try:
            SolverOptions(**{name: cfg.solver[key]})
        except ValueError as exc:
            raise ConfigError(f"solver {key}: {exc}") from None
    if cfg.solver["threads"] <= 0:
        raise ConfigError("solver threads must be positive")
    if not (math.isfinite(cfg.pipeline["noise_sigma"]) and cfg.pipeline["noise_sigma"] >= 0):
        raise ConfigError("noise_sigma must be finite and >= 0")


def _fmt(val):
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, str):
        return f'"{val}"'
    if isinstance(val, list):
        return "[" + ", ".join(_fmt(v) for v in val) + "]"
    return repr(val)


def emit_config(cfg):
    """Canonical re-emission: fixed section and key order, units annotated."""
    out = []
    for sec in _SECTION_ORDER:
        out.append(f"[{sec}]")
        for key, (typ, unit, _default) in _SCHEMA[sec].items():
            out.append(f"{key} = {_fmt(cfg.block(sec)[key])}  # {unit}")
        out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# building scenario objects


_PRESET_RE = re.compile(r"^([a-z_]+)\((.*)\)$")


def _parse_speed(src):
    src = src.strip()
    try:
        expr = compile_expression(src, allowed=("x1", "x2", "r"))
    except ConfigError as exc:
        raise ConfigError(f"bad sound speed expression: {exc}") from None
    if expr.is_constant:
        return ConstantField(expr.constant_value())
    if expr.variables <= {"r"}:
        return RadialProfile(compile_expression(src, allowed=("r",)))
    return ExprField(expr)


def _parse_form(val, what):
    """Wind / one-form preset: zero | const(a,b) | grad(e) | potential(e) |
    bump(A, R) | rotational(s) | [e1, e2]."""
    if isinstance(val, list):
        if len(val) != 2:
            raise ConfigError(f"{what} expression list must have exactly 2 components")
        return ComponentForm(val)
    src = val.strip()
    if src == "zero":
        return ZeroForm()
    m = _PRESET_RE.match(src)
    if m is None:
        raise ConfigError(f"unknown {what} preset {src!r} (expected zero, const(..), "
                          f"grad(..), potential(..), bump(..), rotational(..), or a list)")
    name, args = m.group(1), m.group(2)
    if name == "const":
        parts = [p.strip() for p in args.split(",")]
        if len(parts) != 2:
            raise ConfigError(f"const(..) {what} needs two components")
        vals = [compile_expression(p, allowed=()).constant_value() for p in parts]
        return ConstantForm(vals)
    if name in ("grad", "potential"):
        return ExactForm(ExprField(compile_expression(args, allowed=("x1", "x2", "r"))))
    if name == "bump":
        parts = [p.strip() for p in args.split(",")]
        if len(parts) != 2:
            raise ConfigError("bump(A, R) needs amplitude and radius")
        a, r = (compile_expression(p, allowed=()).constant_value() for p in parts)
        return ExactForm(PotentialBump(a, r))
    if name == "rotational":
        s = compile_expression(args, allowed=()).constant_value()
        return RotationalForm(s)
    raise ConfigError(f"unknown {what} preset {name!r}")


@dataclass
class Scenario:
    """A built scenario: domain, norm spec, optional medium, solver options."""

    config: ScenarioConfig
    domain: Domain
    spec: RandersSpec
    medium: object | None
    rho: float | None
    solver: SolverOptions

    @property
    def n_boundary(self):
        return self.config.domain["boundary_samples"]

    @property
    def seed(self):
        return self.config.pipeline["seed"]


def build_scenario(cfg):
    """Instantiate fields, medium, and solver options from a parsed config."""
    from .zermelo import MediumModel, linearize, zermelo_construct

    dom = Domain(radius=cfg.domain["radius"])
    opts = SolverOptions(**{name: cfg.solver[key] for key, name in _SOLVER_FIELDS.items()})

    kind = cfg.medium["kind"]
    speed = _parse_speed(cfg.medium["c"])
    if np.any(speed.value(disk_grid(dom, 200)) <= 0.0):
        raise ConfigError("sound speed must be positive on the domain")
    medium = None
    rho = None
    if kind == "direct":
        alpha = EuclideanMetric() if cfg.medium["alpha"] == "euclidean" else ConformalMetric(speed)
        beta = _parse_form(cfg.medium["beta"], "beta")
        spec = RandersSpec(dom, alpha, beta)
    else:
        wind = _parse_form(cfg.medium["wind"], "wind")
        medium = MediumModel(dom, speed=speed, wind=wind)
        if kind == "zermelo":
            spec = zermelo_construct(medium)
        else:
            spec, rho = linearize(speed, wind, dom)
    if spec.margin <= 0.0:
        raise ConfigError(f"scenario norm is invalid: margin {spec.margin:.3g} <= 0")
    return Scenario(config=cfg, domain=dom, spec=spec, medium=medium, rho=rho, solver=opts)
