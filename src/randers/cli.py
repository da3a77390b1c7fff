"""Command-line driver: simulate | decompose | recover | verify | plotdata.

Artifacts are deterministic for a fixed config and seed (no timestamps,
shortest-roundtrip float formatting), pipeline errors exit 1 with a
machine-readable JSON block on stderr, and `verify` distinguishes violated
mathematical hypotheses (exit 2) from genuine failures (exit 1).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import boundary as bd
from ._tables import write_table
from .config import build_scenario, emit_config, parse_config
from .errors import RandersError
from .fields import ComponentForm, ConstantField, RadialProfile, SumForm, disk_grid
from .geodesics import _direction_gap, _exit_fan, _path_from, shoot_pairs
from .norms import RandersSpec, closedness_residual
from .recovery import (_CLOSED_TOL, _DATA_TOL, _POTENTIAL_TOL, recover_boundary_potential,
                       rigidity_report)

_LEMMA_TOL = 1e-6   # radians between two chords' directions at a shared boundary point


def _load_scenarios(paths, seed=None, threads=None):
    if threads is not None and threads < 1:
        raise RandersError("--threads must be >= 1")
    scenarios = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        if seed is not None:
            pipeline = dict(cfg.pipeline, seed=seed)
            cfg = dataclasses.replace(cfg, pipeline=pipeline)
        scenarios.append(build_scenario(cfg))
    return scenarios


def _simulate(scn, threads):
    workers = threads if threads is not None else scn.config.solver["threads"]
    data = bd.distance_matrix(scn.spec, scn.n_boundary, scn.solver, threads=workers)
    sigma = scn.config.pipeline["noise_sigma"]
    if sigma > 0.0:
        data = bd.add_noise(data, sigma, scn.seed)
    return data


def cmd_simulate(scenarios, out, threads):
    scn = scenarios[0]
    data = _simulate(scn, threads)
    bd.save(data, os.path.join(out, "distances.csv"))
    with open(os.path.join(out, "scenario.cfg"), "w") as fh:
        fh.write(emit_config(scn.config))
    print(f"wrote {scn.n_boundary}x{scn.n_boundary} distance matrix to {out}/distances.csv")
    return 0


def cmd_decompose(scenarios, out, threads):
    scn = scenarios[0]
    data = _simulate(scn, threads)
    sym, anti = bd.decompose(data)
    bd.save(data, os.path.join(out, "distances.csv"))
    bd.save(dataclasses.replace(data, matrix=sym), os.path.join(out, "sym.csv"))
    bd.save(dataclasses.replace(data, matrix=anti), os.path.join(out, "anti.csv"))
    print(f"wrote distances.csv, sym.csv, anti.csv to {out}")
    return 0


def cmd_recover(scenarios, out, threads):
    if len(scenarios) != 2:
        raise RandersError("recover needs exactly two --config files (the scenario pair)")
    s1, s2 = scenarios
    if s1.n_boundary != s2.n_boundary or s1.domain.radius != s2.domain.radius:
        raise RandersError("the two scenarios must share boundary sampling and radius")
    d1 = _simulate(s1, threads)
    d2 = _simulate(s2, threads)
    report = rigidity_report(s1.spec, s2.spec, n=s1.n_boundary, opts=s1.solver,
                             data1=d1, data2=d2,
                             invert_profile=s1.config.pipeline["invert_profile"])
    report.write(out)
    print(report.summary())
    return 0


def _chord_paths(spec, chords, opts):
    """Paths of the boundary chords (angle pairs) from one batch; raises as solve_bvp does."""
    # sorted and deduplicated by hand: a plain np.unique imports numpy.ma
    angles = np.sort(np.ravel(chords))
    angles = angles[np.diff(angles, prepend=-np.inf) != 0.0]
    shots = shoot_pairs(spec, angles, np.searchsorted(angles, chords), opts, record_paths=True)
    return [shots.single_path(q, angles) for q in range(len(chords))]


def _bumped(spec):
    """spec + d phi for phi = 0.05 (R^2 - r^2), which vanishes on the boundary.

    d phi = (-0.1 x1, -0.1 x2) for any R, written as components: closed, but
    with no potential, so the rays integrate it (as the 1-form b of F(c, W) + b).
    Through a potential its times would shift by phi, and the gauge lines
    below would hold by construction.
    """
    return RandersSpec(spec.domain, spec.alpha,
                       SumForm(spec.beta, ComponentForm(["-0.1*x1", "-0.1*x2"])))


def cmd_verify(scenarios, out, threads):
    scn = scenarios[0]
    spec = scn.spec
    dom = scn.domain
    probes = disk_grid(dom, 200)
    closed_resid = closedness_residual(spec.beta, probes)
    is_closed = closed_resid <= _CLOSED_TOL

    lines = [f"closedness_residual = {closed_resid:.3e} (closed: {is_closed})"]
    bug = False
    lemma1_failures = 0

    # reversible geodesics: reversed endpoints retrace the path iff d(beta)=0;
    # shared geodesics under an added exact form (holds for any base 1-form)
    chords = [(0.0, 2.0), (1.0, 3.6), (2.5, 5.4)]
    bumped = _bumped(spec)
    pairs_ang = [(0.0, 2.4), (0.8, 3.9), (1.7, 5.2), (3.1, 0.4)] if bumped.margin > 0.0 else []
    wanted = [c for a, b in chords for c in ((a, b), (b, a))] + pairs_ang
    paths = _chord_paths(spec, wanted, scn.solver)
    for k, (a, b) in enumerate(chords):
        fwd, back = paths[2 * k], paths[2 * k + 1]
        gap = _direction_gap(fwd, back, reversal=True)
        passed = gap <= _LEMMA_TOL
        lines.append(f"reversal chord ({a:.1f} -> {b:.1f}): angle gap {gap:.3e} rad "
                     f"{'OK' if passed else 'SEPARATED'}")
        if not passed:
            lemma1_failures += 1

    if not pairs_ang:
        lines.append("projective check skipped: bumped spec not a norm")
    else:
        bumped_paths = _chord_paths(bumped, pairs_ang, scn.solver)
        worst = max(_direction_gap(p1, p2)
                    for p1, p2 in zip(paths[2 * len(chords):], bumped_paths))
        ok = worst <= _LEMMA_TOL
        lines.append(f"projective equivalence under +d(phi): worst angle gap {worst:.3e} rad "
                     f"{'OK' if ok else 'FAIL'}")
        bug |= not ok

    # boundary-vanishing potential is invisible to distance data
    n = min(scn.n_boundary, 8)
    workers = threads if threads is not None else scn.config.solver["threads"]
    d1 = bd.distance_matrix(spec, n, scn.solver, threads=workers)
    d2 = bd.distance_matrix(bumped, n, scn.solver, threads=workers) if bumped.margin > 0 else None
    if d2 is not None:
        diff = float(np.abs(d1.matrix - d2.matrix)[~np.eye(n, dtype=bool)].max())
        ok = diff <= _DATA_TOL
        lines.append(f"gauge invisibility: max |D - D_bumped| = {diff:.3e} {'OK' if ok else 'FAIL'}")
        bug |= not ok
        pot = recover_boundary_potential(d1, d2)
        ok = (float(np.abs(pot.values).max()) <= _POTENTIAL_TOL
              and pot.constancy_deviation <= _POTENTIAL_TOL)
        lines.append(f"recovered boundary potential: max {np.abs(pot.values).max():.3e}, "
                     f"deviation {pot.constancy_deviation:.3e} {'OK' if ok else 'FAIL'}")
        bug |= not ok

    if is_closed and lemma1_failures:
        lines.append("RESULT: bug (closed 1-form but reversal separated)")
        code = 1
    elif bug:
        lines.append("RESULT: bug")
        code = 1
    elif not is_closed:
        found = (f"reversal counterexample found as predicted ({lemma1_failures} chord(s))"
                 if lemma1_failures else
                 "violation below the reversal resolution at this strength")
        lines.append(f"RESULT: hypothesis violated (1-form is not closed; {found})")
        code = 2
    else:
        lines.append("RESULT: all checks passed")
        code = 0

    with open(os.path.join(out, "verify.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return code


def cmd_plotdata(scenarios, out, threads):
    scn = scenarios[0]
    spec = scn.spec
    dom = scn.domain
    angles = np.linspace(-1.3, 1.3, 12)
    # one recorded fan from boundary angle 0
    res = _exit_fan(spec, np.zeros(len(angles)), angles, scn.solver, record=True)[-1]
    for k in range(len(angles)):
        _path_from(res, k, spec).to_csv(os.path.join(out, f"path_{k:02d}.csv"))
    speed = getattr(scn.medium, "speed", None)
    if speed is None and hasattr(spec.alpha, "speed"):
        speed = spec.alpha.speed
    if isinstance(speed, (RadialProfile, ConstantField)):
        r = np.linspace(0.0, dom.radius, 256)
        write_table(os.path.join(out, "profile.csv"), "radial sound speed units=length,speed",
                    ["r", "c"], r, speed.profile(r))
    smp = bd.sample_boundary(dom, scn.n_boundary)
    pts = smp.points
    write_table(os.path.join(out, "boundary.csv"), "boundary samples units=radians,length",
                ["i", "angle", "x1", "x2"], np.arange(len(pts)), smp.angles, pts[:, 0], pts[:, 1])
    print(f"wrote {len(angles)} path files, profile.csv, boundary.csv to {out}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "decompose": cmd_decompose,
    "recover": cmd_recover,
    "verify": cmd_verify,
    "plotdata": cmd_plotdata,
}


def run(command, configs, out="out", seed=None, threads=None):
    """Programmatic entry point mirroring the CLI commands.

    ``threads=None`` defers to each scenario's solver block.
    """
    os.makedirs(out, exist_ok=True)
    scenarios = _load_scenarios(configs, seed=seed, threads=threads)
    return _COMMANDS[command](scenarios, out, threads)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="randers",
        description="Randers-metric travel-time workbench: simulate boundary "
                    "distance data in moving media and run the recovery pipeline.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", action="append", required=True,
                        help="scenario config file (recover takes it twice)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="parallel workers for matrix builds (default: scenario solver block)")
    args = parser.parse_args(argv)

    try:
        return run(args.command, args.config, out=args.out, seed=args.seed,
                   threads=args.threads)
    except (RandersError, OSError) as exc:
        block = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(block), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
