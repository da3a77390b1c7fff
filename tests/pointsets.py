"""Point-set comparison of recorded geodesic paths, the test suite's reference.

``randers`` compares geodesics by their directions at a shared boundary
point; the tests compare them also as point sets, by the Hausdorff distance
between densely resampled paths, which is what the paper's statements are
about.  scipy's KD-tree keeps the comparison of long paths linear.
"""

import math

import numpy as np
from scipy.spatial import cKDTree

RESAMPLE_STEP = 5e-4   # parameter spacing of resample


def resample(path):
    """Densified positions of a GeodesicPath by cubic Hermite interpolation.

    The stored velocities make each interval a cubic with O(h^4) error, so
    point-set comparisons at 1e-6 R scales are meaningful even though the
    solver's accepted steps are much coarser.
    """
    t = path.t
    T = t[-1]
    tq = np.linspace(0.0, T, max(int(math.ceil(T / RESAMPLE_STEP)), 2))
    k = np.clip(np.searchsorted(t, tq, side="right") - 1, 0, len(t) - 2)
    h = t[k + 1] - t[k]
    h = np.where(h > 0.0, h, 1.0)
    s = np.clip((tq - t[k]) / h, 0.0, 1.0)[:, None]
    x0, x1 = path.x[k], path.x[k + 1]
    v0, v1 = path.y[k] * h[:, None], path.y[k + 1] * h[:, None]
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s ** 2 * (3.0 - 2.0 * s)
    h11 = s ** 2 * (s - 1.0)
    return h00 * x0 + h10 * v0 + h01 * x1 + h11 * v1


def hausdorff(A, B):
    """Hausdorff distance between two polylines given by vertex arrays."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return max(_directed(A, B), _directed(B, A))


def _directed(P, Q):
    """max over P of the distance to polyline Q (point-to-segment).

    Each point is measured against the segments next to its nearest vertex
    of Q, which is exact for the smooth, non-self-approaching curves
    compared here.
    """
    if len(Q) < 2:
        return float(np.linalg.norm(P - Q[0], axis=1).max())
    q0, q1 = Q[:-1], Q[1:]
    d = q1 - q0
    L2 = np.maximum(np.einsum("si,si->s", d, d), 1e-300)
    _, nearest = cKDTree(Q).query(P, k=1)
    best = np.full(len(P), np.inf)
    for off in (-2, -1, 0, 1):
        seg = np.clip(nearest + off, 0, len(q0) - 1)
        w = P - q0[seg]
        tproj = np.clip(np.einsum("ki,ki->k", w, d[seg]) / L2[seg], 0.0, 1.0)
        closest = q0[seg] + tproj[:, None] * d[seg]
        best = np.minimum(best, np.linalg.norm(P - closest, axis=1))
    return float(best.max())
