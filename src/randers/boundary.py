"""Boundary sampling, the non-symmetric distance matrix, and its CSV format.

The distance matrix D[i][j] holds the travel time of the unique geodesic
from boundary sample i to j; its symmetric part is the reversible-norm
distance and its antisymmetric part the line integrals of the 1-form, which
is what the inverse pipeline consumes.  CSV round trips are bit-exact.

A spec declared ``rotation_invariant`` (alpha and beta equal to their own
rotations about the centre; see ``fields``) at equispaced samples has a
circulant D, D[i][j] = D[0][(j - i) mod n], since rotating the disk by
2 pi i / n maps pair (0, j - i) to (i, j).  ``distance_matrix`` then shoots
the pairs (0, j) alone and rolls that row, and every pair's diagnostics
with it.  The first bad pair in i-major order is then (0, j) for the least
bad j, which a build of every pair names too.  Every other spec or sample
set shoots every pair.

``load`` streams the body of a distance CSV: blank and whitespace-only
lines are skipped, and the rest go ``_CHUNK`` lines at a time through
``np.loadtxt``.  One scanner checks each chunk, range, duplicate pair and
angle as whole-chunk operations, against what earlier chunks left: each
sample's first angle and the mask of pairs seen.  It then scatters the
chunk into D, so memory is D, the mask and one chunk; the two are
allocated once the first chunk has passed, so a fault in it is reported
whatever n the header claims; a header n whose n (n - 1) rows, of at
least 10 bytes each, the file cannot hold is then a fault of line 1.  A
row's faults depend only on earlier rows, so the first chunk with a fault
holds the earliest one, the line a row-by-row parse would stop at; errors
name that line.  Row numbers are mapped to line numbers, by reading the
file again, only when there is an error to report.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
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

_EXCLUDE_SEPARATION = 1e-3   # radians; nearly-adjacent pair cutoff


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
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise ValueError(f"boundary sample count must be an integer, got {n!r}")
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
    angle_samples: int          # coarse sweep fan per start
    correction: np.ndarray      # p delta - p' delta^2 / 2, subtracted from each exit time
    sweep_nodes: np.ndarray     # (n,) rays shot per start: its sweep, refinement included,
                                # or on a straight medium one chord ray per pair
    brackets: np.ndarray        # (n,) brackets per start, interpolated or shot
    bracket_rays: np.ndarray    # (n,) rays false position shot for them
    interpolated: np.ndarray    # (n,) brackets closed without a ray


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


def _equispaced(angles):
    """True when angles[k] = angles[0] + 2 pi k / n, wrapped to (-pi, pi], for
    every k to within 1e-12 rad; samples 2 pi (k + offset) / n are off by
    about 1e-15."""
    n = len(angles)
    d = angles - angles[0] - 2.0 * math.pi * np.arange(n) / n
    return bool((np.abs(math.pi - (math.pi - d) % (2.0 * math.pi)) <= 1e-12).all())


def distance_matrix(spec, samples, opts=None, threads=1):
    """Assemble D[i][j] = travel time of the unique i -> j geodesic.

    ``samples`` may be a BoundarySamples or an integral sample count.  Pairs
    whose angular separation is below ``_EXCLUDE_SEPARATION`` = 1e-3 rad
    (so no equispaced pair below 6,284 samples) are excluded (NaN entries,
    flagged in diagnostics).  The first pair, in i-major order, with zero
    or multiple shooting branches aborts the build.

    When ``spec.rotation_invariant`` holds and the samples are equispaced
    (``_equispaced``), the pairs (0, j) are shot in one call, whatever
    ``threads`` is, and D, ``miss``, ``correction``, ``branch_counts`` and
    ``excluded`` are rolled from row 0.  The per-start counters
    ``sweep_nodes``, ``brackets``, ``bracket_rays`` and ``interpolated``
    report the work done, start i's sweep rays (its chord rays on a straight
    medium) and the brackets of the pairs shot from it, so there they are
    zero for every start but 0.
    """
    opts = opts or SolverOptions()
    if isinstance(samples, numbers.Integral):
        samples = sample_boundary(spec.domain, int(samples))
    if samples.radius != spec.domain.radius:
        raise ValueError("boundary samples were taken on a different radius than the spec domain")
    angles = samples.angles
    n = len(angles)

    sep = np.abs((angles[:, None] - angles[None, :] + math.pi) % (2.0 * math.pi) - math.pi)
    off = ~np.eye(n, dtype=bool)
    excluded = off & (sep < _EXCLUDE_SEPARATION)
    roll = None
    if spec.rotation_invariant and _equispaced(angles):
        roll = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n   # (j - i) mod n
        excluded = excluded[0][roll]
    keep = off & ~excluded
    pairs = np.argwhere(keep if roll is None else keep[:1])   # i-major

    if roll is not None or threads <= 1:
        parts = [shoot_pairs(spec, angles, pairs, opts)]
    else:
        # whole starts go round-robin to the workers: each sweep is the serial one
        starts = np.unique(pairs[:, 0])
        groups = [pairs[np.isin(pairs[:, 0], starts[k::threads])] for k in range(threads)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda g: shoot_pairs(spec, angles, g, opts), groups))

    D = np.zeros((n, n))
    D[excluded] = np.nan
    miss = np.zeros((n, n))
    correction = np.zeros((n, n))
    branches = np.zeros((n, n), dtype=int)
    converged = np.zeros((n, n), dtype=bool)
    nodes, brackets, bracket_rays, interpolated = np.zeros((4, n), dtype=int)
    for shots in parts:
        i, j = shots.pairs.T
        D[i, j], miss[i, j], correction[i, j] = shots.time, shots.miss, shots.correction
        branches[i, j], converged[i, j] = shots.branch_count, shots.converged
        nodes[i] = shots.sweep_nodes
        np.add.at(brackets, i, shots.brackets)
        np.add.at(bracket_rays, i, shots.bracket_rays)
        np.add.at(interpolated, i, shots.interpolated)
    if roll is not None:
        D, miss, correction, branches, converged = (
            a[0][roll] for a in (D, miss, correction, branches, converged))
    bad = keep & ((branches != 1) | ~converged)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        if branches[i, j] == 0 or not converged[i, j]:
            raise ConnectivityError(f"no shooting branch found for boundary pair ({i}, {j})")
        raise NonAdmissibleError(
            f"{branches[i, j]} geodesic branches for boundary pair "
            f"({i}, {j}); distance matrix build aborted")

    if not (D[keep] > 0.0).all():
        raise RandersError("non-positive distance computed; solver failure")
    diag = DistanceDiagnostics(branch_counts=branches, miss=miss,
                               excluded=excluded, angle_samples=opts.angle_samples,
                               correction=correction, sweep_nodes=nodes, brackets=brackets,
                               bracket_rays=bracket_rays, interpolated=interpolated)
    return BoundaryDistanceData(angles=angles.copy(), radius=samples.radius,
                                matrix=D, spec_hash=spec.spec_hash, diagnostics=diag)


def decompose(data):
    """Split D into symmetric and antisymmetric parts (exact arithmetic).

    sym[i][j] = (D[i][j] + D[j][i]) / 2 is the reversible-part distance;
    anti[i][j] = (D[i][j] - D[j][i]) / 2 is the mean of the 1-form's line
    integrals along the i -> j geodesic and along the reversed j -> i
    geodesic.  The two differ by the flux of d(beta) between the curves, so
    anti is the integral along the i -> j geodesic only for a closed beta.
    """
    D = data.matrix
    return 0.5 * (D + D.T), 0.5 * (D - D.T)


def add_noise(data, sigma, seed):
    """Gaussian perturbation of scale sigma on off-diagonal entries."""
    if not (isinstance(sigma, numbers.Real) and not isinstance(sigma, bool)
            and math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"noise scale must be finite and >= 0, got {sigma!r}")
    if not (isinstance(seed, numbers.Integral) and not isinstance(seed, bool) and seed >= 0):
        raise ValueError(f"noise seed must be an integer >= 0, got {seed!r}")
    n = data.n
    rng = np.random.default_rng(seed)
    bump = sigma * rng.standard_normal((n, n))
    np.fill_diagonal(bump, 0.0)
    return replace(data, matrix=data.matrix + bump,
                   noise=NoiseDescriptor(sigma=float(sigma), seed=int(seed)))


_HEADER_RE = re.compile(
    r"^# n=(?P<n>\d+) R=(?P<R>[^ ]+) spec=(?P<spec>[0-9a-f]+) units=time"
    r"(?: sigma=(?P<sigma>[^ ]+) seed=(?P<seed>\d+))?\s*$")
_COLUMNS = "i,j,angle_i,angle_j,d"
_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("angle_i", np.float64),
                 ("angle_j", np.float64), ("d", np.float64)])
_CHUNK = 8192              # body lines per np.loadtxt call: bounds the memory of a load


def save(data, path):
    """Write the matrix as CSV with a self-describing header; bit-exact.

    Each angle is formatted once, and the rows of one sample are formatted
    from one ``tolist`` of its matrix row and written in one call, so
    memory stays at one sample's rows.
    """
    ang = [repr(a) for a in np.asarray(data.angles, dtype=float).tolist()]
    with open(path, "w") as fh:
        head = f"# n={data.n} R={float(data.radius)!r} spec={data.spec_hash} units=time"
        if data.noise is not None:
            head += f" sigma={float(data.noise.sigma)!r} seed={data.noise.seed}"
        fh.write(head + "\n")
        fh.write(_COLUMNS + "\n")
        for i, row in enumerate(np.asarray(data.matrix, dtype=float)):
            ai = ang[i]
            fh.write("".join([f"{i},{j},{ai},{aj},{v!r}\n"
                              for j, (aj, v) in enumerate(zip(ang, row.tolist())) if j != i]))


def _read_header(fh):
    """Parse the two header lines: (n, radius, spec_hash, noise)."""
    head = fh.readline()
    if not head:
        raise CsvFormatError("empty file", line=1)
    m = _HEADER_RE.match(head.rstrip("\n"))
    if m is None:
        raise CsvFormatError("bad header (expected '# n=<n> R=<R> spec=<hash> units=time')", line=1)
    n, radius, spec_hash = int(m.group("n")), float(m.group("R")), m.group("spec")
    noise = None
    if m.group("sigma") is not None:
        noise = NoiseDescriptor(sigma=float(m.group("sigma")), seed=int(m.group("seed")))
    if fh.readline().strip() != _COLUMNS:
        raise CsvFormatError(f"missing column header '{_COLUMNS}'", line=2)
    return n, radius, spec_hash, noise


def _parse_rows(lines):
    """Parse non-blank body lines in one np.loadtxt pass; ValueError if it rejects one."""
    if not lines:            # loadtxt warns on empty input
        return np.zeros(0, dtype=_ROW)
    return np.loadtxt(lines, delimiter=",", dtype=_ROW, comments=None, ndmin=1)


class _Scan:
    """The body checked and scattered into D a chunk of lines at a time.

    The checks of a row need only earlier rows, through the state carried
    here: each sample's first angle (NaN until it is read) and the pairs
    seen.  The mask and D are allocated at the first scatter.  A file of
    ``size`` bytes holds at most size / 10 rows, as a row takes at least 10
    bytes; for an n whose n (n - 1) rows it cannot hold nothing is
    allocated, and the first row in range is a fault of line 1.
    """

    def __init__(self, n, size):
        self.n, self.size = n, size
        self.rows = 0                                   # body rows before the next chunk
        self.fits = 10 * n * (n - 1) <= size
        self.angles = np.full(n, np.nan) if self.fits else None
        self.seen = self.matrix = None

    def grids(self):
        """The mask of pairs seen and D, allocated on the first call."""
        if self.seen is None:
            self.matrix = np.zeros((self.n, self.n))
            self.seen = np.zeros((self.n, self.n), dtype=bool)
        return self.seen, self.matrix

    def chunk(self, lines):
        """Check and scatter the next lines; the earliest fault as (row, message), or None.

        Where loadtxt rejects a line, the rows before the first rejected
        line are checked: a fault among them comes first, else the rejection.
        """
        try:
            fault = self._check(_parse_rows(lines))
        except ValueError:
            k = next(k for k, raw in enumerate(lines) if _rejected(raw))
            fault = self._check(_parse_rows(lines[:k])) or (k, _rejection(lines[k]))
        if fault is None:
            self.rows += len(lines)
            return None
        return self.rows + fault[0], fault[1]

    def _check(self, rows):
        """The earliest faulty row of a chunk as (row, message); else None, and the rows are kept.

        A row is checked for range, then duplicate, then the angle of i, then
        that of j, each against earlier rows only; so the earliest row any
        whole-chunk check flags is the row a line-by-line parse stops at.
        """
        if not len(rows):
            return None
        n, faults = self.n, []
        i, j = rows["i"], rows["j"]
        bad = (i < 0) | (i >= n) | (j < 0) | (j >= n) | (i == j)
        if bad.any():
            r = int(bad.argmax())
            faults.append((r, f"pair ({i[r]}, {j[r]}) out of range for n={n}"))
            rows, i, j = rows[:r], i[:r], j[:r]
        if not self.fits:
            if len(rows):
                raise CsvFormatError(f"header n={n} needs {n * (n - 1)} rows, more than "
                                     f"the file's {self.size} bytes can hold", line=1)
            return faults[0]
        _, first = np.unique(i * n + j, return_index=True)
        dup = np.ones(len(rows), dtype=bool)
        dup[first] = False
        if self.seen is not None:
            dup |= self.seen[i, j]
        if dup.any():
            r = int(dup.argmax())
            faults.append((r, f"duplicate pair ({i[r]}, {j[r]})"))
        # events in parse order, two per row: (i, angle_i), then (j, angle_j)
        idx = np.column_stack([i, j]).ravel()
        val = np.column_stack([rows["angle_i"], rows["angle_j"]]).ravel()
        _, first = np.unique(idx, return_index=True)
        first = first[np.isnan(self.angles[idx[first]])]   # samples first read here
        angles = self.angles.copy()
        angles[idx[first]] = val[first]
        finite = np.isfinite(val)
        bad = ~finite | (val != angles[idx])
        if bad.any():
            e = int(bad.argmax())
            faults.append((e // 2, f"inconsistent angle for sample {idx[e]}" if finite[e]
                           else f"angle for sample {idx[e]} is not finite"))
        if faults:
            # min() keeps the first of equal rows: a duplicate before an angle fault
            return min(faults, key=lambda f: f[0])
        self.angles = angles
        seen, D = self.grids()
        seen[i, j] = True
        D[i, j] = rows["d"]
        return None


def _lines(path):
    """Every line of the file without its terminator; read only to report an error."""
    with open(path) as fh:
        return [raw.rstrip("\n") for raw in fh]


def _body(path):
    """(line number, text) of each non-blank line after the header: row k is body[k]."""
    return [(ln, raw) for ln, raw in enumerate(_lines(path)[2:], start=3) if raw.strip()]


def _rejected(raw):
    """True when np.loadtxt cannot parse this one body line."""
    try:
        _parse_rows([raw])
    except ValueError:
        return True
    return False


def _rejection(raw):
    """Why loadtxt rejected a line, in the words of int() and float() where they reject it too."""
    cols = raw.rstrip("\n").split(",")
    if len(cols) != 5:
        return f"expected 5 columns, found {len(cols)}"
    try:
        int(cols[0]), int(cols[1])
        float(cols[2]), float(cols[3]), float(cols[4])
    except ValueError as exc:
        return str(exc)
    return f"unsupported number format in {raw.strip()!r}"


def load(path):
    """Parse a distance CSV; every error for malformed content names its line.

    Angles must be finite and the same on every row of a sample; ``d`` is
    not checked (NaN marks an excluded pair).  Numbers are read by
    ``np.loadtxt``, which rejects digit separators (``1_0``), non-ASCII
    digits and indices outside int64; ``save`` writes none of these.
    """
    with open(path) as fh:
        n, radius, spec_hash, noise = _read_header(fh)
        scan = _Scan(n, os.fstat(fh.fileno()).st_size)
        body = itertools.filterfalse(str.isspace, fh)
        fault = None
        while fault is None and (lines := list(itertools.islice(body, _CHUNK))):
            fault = scan.chunk(lines)
    if fault is not None:
        raise CsvFormatError(fault[1], line=_body(path)[fault[0]][0])
    if scan.rows < n * (n - 1):
        i, j = 0, 1   # the first pair, when no row was read
        if scan.seen is not None:
            np.fill_diagonal(scan.seen, True)
            i, j = np.argwhere(~scan.seen)[0]
        raise CsvFormatError(f"missing entry for pair ({i}, {j}); file truncated?",
                             line=len(_lines(path)) + 1)
    if np.isnan(scan.angles).any():
        raise CsvFormatError("some samples never appeared in any row", line=len(_lines(path)))
    return BoundaryDistanceData(angles=scan.angles, radius=radius, matrix=scan.grids()[1],
                                spec_hash=spec_hash, noise=noise)
