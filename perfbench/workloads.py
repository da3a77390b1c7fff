"""The three benchmark workloads: inputs from a seed, one timed operation, checks.

Each workload object is built in a fresh worker process.  ``setup`` makes the
inputs from the seed, builds what the timed operation needs and runs one small
warm-up of the same code path (so lazy one-time costs such as the per-spec
time-scale cache and first numpy/LAPACK calls are paid before timing).  ``op``
is the timed operation and returns what ``check`` needs; ``check`` compares the
output with an oracle or invariant and returns ``(attempted, failed)`` counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os

import numpy as np

from randers import boundary as bd
from randers import cli, recovery
from randers.fields import (ConformalMetric, Domain, ExactForm, PotentialBump,
                            RadialProfile)
from randers.geodesics import SolverOptions
from randers.norms import RandersSpec

WIND_SPEED = 0.5          # |W| of the constant wind, as a share of c = 1
WIND_TOL = 1e-9           # closed-form constant-wind travel time
ANTI_TOL = 2e-8           # gauge invisibility, acceptance criterion 05
TRIANGLE_TOL = 1e-9
PROFILE_RTOL = 1e-2       # herglotz_invert of 2 - r^2
PHI_TOL = 1e-10           # recovered boundary potential
CONST_RTOL = 1e-3         # herglotz_invert of the chord data, c = 1
R_MIN = 0.05              # profile checks start at this radius

WARMUP_OPTS = SolverOptions(angle_samples=90)


def _off_diagonal(n):
    return ~np.eye(n, dtype=bool)


def _triangle_failures(D, tol):
    """Entries (i, k) with D[i, k] > min_j D[i, j] + D[j, k] + tol."""
    n = D.shape[0]
    best = np.full((n, n), np.inf)
    for j in range(n):
        via = D[:, j, None] + D[None, j, :]
        via[j, :] = np.inf
        via[:, j] = np.inf
        best = np.minimum(best, via)
    return _off_diagonal(n) & ~(D <= best + tol)


def _profile_failures(rec, truth, rtol):
    """(attempted, failed) over the recovered c(r) samples with r >= R_MIN."""
    keep = rec.r >= R_MIN
    c_true = truth(rec.r[keep])
    err = np.abs(rec.c[keep] - c_true) / c_true
    return int(keep.sum()), int((~(err <= rtol)).sum())


class WindCli:
    """``randers simulate`` on a generated constant-wind Zermelo config."""

    name = "wind_cli_n32"
    op_metric = "simulate_s"
    nominal_op_s = 12.0       # on a 2-vCPU x86-64 VM, Python 3.11, numpy 2.4
    n = 32
    ops_if_raised = n * (n - 1)

    def __init__(self, seed, out):
        self.seed = seed
        self.out = out

    def _write_config(self, path, n, angle_samples=None):
        lines = ["[domain]", f"boundary_samples = {n}", "", "[medium]",
                 'kind = "zermelo"', 'c = "1"',
                 f'wind = "const({self.wind_text[0]}, {self.wind_text[1]})"', ""]
        if angle_samples is not None:
            lines += ["[solver]", f"angle_samples = {angle_samples}", ""]
        with open(path, "w") as fh:
            fh.write("\n".join(lines))

    def setup(self):
        rng = np.random.default_rng(self.seed)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        # fixed-point text keeps the config free of exponents; the oracle
        # uses the wind exactly as the program parses it
        self.wind_text = [f"{WIND_SPEED * v:.17f}" for v in (math.cos(ang), math.sin(ang))]
        self.wind = np.array([float(t) for t in self.wind_text])
        self.config = os.path.join(self.out, "scenario_in.cfg")
        self._write_config(self.config, self.n)
        warm = os.path.join(self.out, "warmup")
        os.makedirs(warm, exist_ok=True)
        warm_cfg = os.path.join(warm, "scenario_in.cfg")
        self._write_config(warm_cfg, 4, angle_samples=WARMUP_OPTS.angle_samples)
        self._simulate(warm_cfg, warm)

    def _simulate(self, config, out):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--config", config, "--out", out,
                             "--threads", "1"])
        if code != 0:
            raise RuntimeError(f"randers simulate exited with {code}")

    def op(self):
        self._simulate(self.config, self.out)
        return self.matrix_path

    @property
    def matrix_path(self):
        return os.path.join(self.out, "distances.csv")

    def check(self, path):
        data = bd.load(path)
        P = data.points
        d = P[None, :, :] - P[:, None, :]          # d[i, j] = x_j - x_i
        W = self.wind
        lam = 1.0 - W @ W
        dw = d @ W
        exact = (-dw + np.sqrt(dw * dw + lam * np.einsum("ijk,ijk->ij", d, d))) / lam
        off = _off_diagonal(data.n)
        bad = off & ~(np.abs(data.matrix - exact) <= WIND_TOL)
        return int(off.sum()), int(bad.sum())


class BumpMatrix:
    """``distance_matrix`` on a conformal 2 - r^2 medium plus a boundary-vanishing gauge."""

    name = "bump_n96"
    op_metric = "matrix_s"
    nominal_op_s = 38.0
    n = 96
    ops_if_raised = n * (n - 1)

    def __init__(self, seed, out):
        self.seed = seed
        self.out = out

    def setup(self):
        rng = np.random.default_rng(self.seed)
        offset = rng.uniform(0.0, 1.0)
        dom = Domain(radius=1.0)
        self.samples = bd.BoundarySamples(
            angles=2.0 * math.pi * (np.arange(self.n) + offset) / self.n, radius=1.0)
        self.spec = RandersSpec(dom, ConformalMetric(RadialProfile("2 - r^2")),
                                ExactForm(PotentialBump(0.3, 1.0)))
        warm = bd.BoundarySamples(angles=self.samples.angles[:: self.n // 4].copy(),
                                  radius=1.0)
        bd.distance_matrix(self.spec, warm, WARMUP_OPTS, threads=1)

    def op(self):
        return bd.distance_matrix(self.spec, self.samples, threads=1)

    @property
    def matrix_path(self):
        return os.path.join(self.out, "distances.csv")

    def save(self, data):
        bd.save(data, self.matrix_path)

    def check(self, data):
        D = data.matrix
        off = _off_diagonal(self.n)
        _, anti = bd.decompose(data)
        bad = off & ~(np.abs(anti) <= ANTI_TOL)
        bad |= _triangle_failures(D, TRIANGLE_TOL)
        attempted, failed = int(off.sum()), int(bad.sum())
        rec = recovery.herglotz_invert(data)
        a, f = _profile_failures(rec, lambda r: 2.0 - r * r, PROFILE_RTOL)
        return attempted + a, failed + f


class InverseRecovery:
    """load x2 -> decompose -> recover_boundary_potential -> herglotz_invert on stored data."""

    name = "inverse_n256"
    op_metric = "recover_s"
    nominal_op_s = 2.4
    n = 256
    ops_if_raised = n         # the potential values; the profile size is unknown
    matrix_path = None        # reads matrices, writes none
    modes = 3                 # Fourier modes of the boundary potential
    amplitude = 0.02          # per coefficient; keeps |d phi| well below the chord speed

    def __init__(self, seed, out):
        self.seed = seed
        self.out = out

    def _write_pair(self, n, prefix):
        theta = 2.0 * math.pi * np.arange(n) / n
        k = np.arange(1, self.modes + 1)
        phi = (np.cos(np.outer(theta, k)) @ self.coef[0]
               + np.sin(np.outer(theta, k)) @ self.coef[1])
        phi -= phi.mean()
        chord = 2.0 * np.abs(np.sin(0.5 * (theta[None, :] - theta[:, None])))
        exact = chord + phi[None, :] - phi[:, None]
        np.fill_diagonal(exact, 0.0)
        paths = []
        for tag, mat in (("chord", chord), ("randers", exact)):
            path = os.path.join(self.out, f"{prefix}{tag}.csv")
            tag_hash = hashlib.sha256(f"{tag}-{self.seed}".encode()).hexdigest()[:12]
            bd.save(bd.BoundaryDistanceData(angles=theta, radius=1.0, matrix=mat,
                                            spec_hash=tag_hash), path)
            paths.append(path)
        return paths, phi

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.coef = rng.uniform(-self.amplitude, self.amplitude, size=(2, self.modes))
        self.paths, self.phi = self._write_pair(self.n, "")
        warm_paths, _ = self._write_pair(16, "warmup_")
        self._pass(warm_paths)

    @staticmethod
    def _pass(paths):
        d1 = bd.load(paths[0])
        d2 = bd.load(paths[1])
        bd.decompose(d2)   # the user's first look at the data; its result is not checked
        pot = recovery.recover_boundary_potential(d1, d2)
        prof = recovery.herglotz_invert(d2)
        return pot, prof

    def op(self):
        return self._pass(self.paths)

    def check(self, result):
        pot, prof = result
        bad_phi = int((~(np.abs(pot.values - self.phi) <= PHI_TOL)).sum())
        a, f = _profile_failures(prof, np.ones_like, CONST_RTOL)
        return self.n + a, bad_phi + f


WORKLOADS = {cls.name: cls for cls in (WindCli, BumpMatrix, InverseRecovery)}
