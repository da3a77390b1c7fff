"""Boundary sampling, the non-symmetric distance matrix, and its CSV format.

The distance matrix D[i][j] holds the travel time of the unique geodesic
from boundary sample i to j; its symmetric part is the reversible-norm
distance and its antisymmetric part the line integrals of the 1-form, which
is what the inverse pipeline consumes.  CSV round trips are bit-exact.
"""

from __future__ import annotations

import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConnectivityError, CsvFormatError, NonAdmissibleError,
                     RandersError)
from .geodesics import SolverOptions, shoot_pairs

__all__ = ["BoundarySamples", "sample_boundary", "BoundaryDistanceData",
           "DistanceDiagnostics", "NoiseDescriptor", "distance_matrix",
           "decompose", "add_noise", "save", "load"]


@dataclass(frozen=True)
class BoundarySamples:
    angles: np.ndarray   # (n,) in [0, 2pi)
    radius: float

    @property
    def points(self):
        return self.radius * np.column_stack([np.cos(self.angles), np.sin(self.angles)])

    def __len__(self):
        return len(self.angles)


def sample_boundary(domain, n):
    """n equally spaced boundary samples starting at angle 0; deterministic."""
    if n < 2:
        raise ValueError("at least two boundary samples are required")
    return BoundarySamples(angles=2.0 * math.pi * np.arange(n) / n,
                           radius=domain.radius)


@dataclass(frozen=True)
class NoiseDescriptor:
    sigma: float
    seed: int


@dataclass
class DistanceDiagnostics:
    branch_counts: np.ndarray
    miss: np.ndarray            # arc-length units
    excluded: np.ndarray        # nearly-adjacent pairs left out
    angle_samples: int


@dataclass
class BoundaryDistanceData:
    angles: np.ndarray
    radius: float
    matrix: np.ndarray
    spec_hash: str
    diagnostics: DistanceDiagnostics | None = None
    noise: NoiseDescriptor | None = None

    @property
    def n(self):
        return len(self.angles)

    @property
    def points(self):
        return self.radius * np.column_stack([np.cos(self.angles), np.sin(self.angles)])


def distance_matrix(spec, samples, opts=None, threads=1):
    """Assemble D[i][j] = travel time of the unique i -> j geodesic.

    ``samples`` may be a BoundarySamples or a sample count.  Pairs whose
    angular separation is below ``opts.exclude_separation`` are excluded
    (NaN entries, flagged in diagnostics).  Any pair with zero or multiple
    shooting branches aborts the build with the pair identified.
    """
    opts = opts or SolverOptions()
    if isinstance(samples, int):
        samples = sample_boundary(spec.domain, samples)
    if samples.radius != spec.domain.radius:
        raise ValueError("boundary samples were taken on a different radius than the spec domain")
    angles = samples.angles
    n = len(angles)

    sep = np.abs((angles[:, None] - angles[None, :] + math.pi) % (2.0 * math.pi) - math.pi)
    off = ~np.eye(n, dtype=bool)
    excluded = off & (sep < opts.exclude_separation)
    keep = off & ~excluded
    pairs = [tuple(p) for p in np.argwhere(keep).tolist()]   # i-major

    if threads <= 1:
        shots = shoot_pairs(spec, angles, pairs, opts)
    else:
        by_start = {}
        for p in pairs:
            by_start.setdefault(p[0], []).append(p)
        groups = [[] for _ in range(threads)]
        for k, i in enumerate(sorted(by_start)):
            groups[k % threads].extend(by_start[i])
        groups = [g for g in groups if g]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda g: shoot_pairs(spec, angles, g, opts), groups))
        flat = {}
        for grp, res in zip(groups, parts):
            for p, s in zip(grp, res):
                flat[p] = s
        shots = [flat[p] for p in pairs]

    D = np.zeros((n, n))
    D[excluded] = np.nan
    miss = np.zeros((n, n))
    branches = np.zeros((n, n), dtype=int)
    for shot in shots:
        if shot.branch_count == 0 or not shot.converged:
            raise ConnectivityError(
                f"no shooting branch found for boundary pair ({shot.i}, {shot.j})")
        if shot.branch_count > 1:
            raise NonAdmissibleError(
                f"{shot.branch_count} geodesic branches for boundary pair "
                f"({shot.i}, {shot.j}); distance matrix build aborted")
        D[shot.i, shot.j] = shot.time
        miss[shot.i, shot.j] = shot.miss
        branches[shot.i, shot.j] = shot.branch_count

    if not (D[keep] > 0.0).all():
        raise RandersError("non-positive distance computed; solver failure")
    diag = DistanceDiagnostics(branch_counts=branches, miss=miss,
                               excluded=excluded, angle_samples=opts.angle_samples)
    return BoundaryDistanceData(angles=angles.copy(), radius=samples.radius,
                                matrix=D, spec_hash=spec.spec_hash, diagnostics=diag)


def decompose(data):
    """Split D into symmetric and antisymmetric parts (exact arithmetic).

    sym[i][j] = (D[i][j] + D[j][i]) / 2 is the reversible-part distance;
    anti[i][j] = (D[i][j] - D[j][i]) / 2 is the 1-form line integral along
    the i -> j geodesic.
    """
    D = data.matrix
    return 0.5 * (D + D.T), 0.5 * (D - D.T)


def add_noise(data, sigma, seed):
    """Gaussian perturbation of scale sigma on off-diagonal entries."""
    if sigma < 0.0:
        raise ValueError("noise scale must be >= 0")
    n = data.n
    rng = np.random.default_rng(seed)
    bump = sigma * rng.standard_normal((n, n))
    np.fill_diagonal(bump, 0.0)
    return replace(data, matrix=data.matrix + bump,
                   noise=NoiseDescriptor(sigma=float(sigma), seed=int(seed)))


_HEADER_RE = re.compile(
    r"^# n=(?P<n>\d+) R=(?P<R>[^ ]+) spec=(?P<spec>[0-9a-f]+) units=time"
    r"(?: sigma=(?P<sigma>[^ ]+) seed=(?P<seed>\d+))?\s*$")


def save(data, path):
    """Write the matrix as CSV with a self-describing header; bit-exact."""
    ang = [repr(float(a)) for a in data.angles]
    with open(path, "w") as fh:
        head = f"# n={data.n} R={float(data.radius)!r} spec={data.spec_hash} units=time"
        if data.noise is not None:
            head += f" sigma={float(data.noise.sigma)!r} seed={data.noise.seed}"
        fh.write(head + "\n")
        fh.write("i,j,angle_i,angle_j,d\n")
        for i in range(data.n):
            for j in range(data.n):
                if i == j:
                    continue
                fh.write(f"{i},{j},{ang[i]},{ang[j]},{float(data.matrix[i, j])!r}\n")


def load(path):
    """Parse a distance CSV; malformed content errors carry line numbers."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CsvFormatError("empty file", line=1)
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise CsvFormatError("bad header (expected '# n=<n> R=<R> spec=<hash> units=time')", line=1)
    n = int(m.group("n"))
    radius = float(m.group("R"))
    spec_hash = m.group("spec")
    noise = None
    if m.group("sigma") is not None:
        noise = NoiseDescriptor(sigma=float(m.group("sigma")), seed=int(m.group("seed")))
    if len(lines) < 2 or lines[1].strip() != "i,j,angle_i,angle_j,d":
        raise CsvFormatError("missing column header 'i,j,angle_i,angle_j,d'", line=2)

    angles = np.full(n, np.nan)
    D = np.zeros((n, n))
    seen = np.zeros((n, n), dtype=bool)
    for ln, raw in enumerate(lines[2:], start=3):
        if not raw.strip():
            continue
        cols = raw.split(",")
        if len(cols) != 5:
            raise CsvFormatError(f"expected 5 columns, found {len(cols)}", line=ln)
        try:
            i, j = int(cols[0]), int(cols[1])
            ai, aj, d = float(cols[2]), float(cols[3]), float(cols[4])
        except ValueError as exc:
            raise CsvFormatError(str(exc), line=ln) from None
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise CsvFormatError(f"pair ({i}, {j}) out of range for n={n}", line=ln)
        if seen[i, j]:
            raise CsvFormatError(f"duplicate pair ({i}, {j})", line=ln)
        for idx, val in ((i, ai), (j, aj)):
            if np.isnan(angles[idx]):
                angles[idx] = val
            elif angles[idx] != val:
                raise CsvFormatError(f"inconsistent angle for sample {idx}", line=ln)
        D[i, j] = d
        seen[i, j] = True

    missing = ~seen & ~np.eye(n, dtype=bool)
    if missing.any():
        i, j = np.argwhere(missing)[0]
        raise CsvFormatError(f"missing entry for pair ({i}, {j}); file truncated?",
                             line=len(lines) + 1)
    if np.isnan(angles).any():
        raise CsvFormatError("some samples never appeared in any row", line=len(lines))
    return BoundaryDistanceData(angles=angles, radius=radius, matrix=D,
                                spec_hash=spec_hash, noise=noise)
