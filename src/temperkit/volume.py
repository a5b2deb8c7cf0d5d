"""Monte-Carlo validation of the volume-decay and translate bounds.

This is the only module that computes with floating point.  It estimates
volumes of intersections vol(e^{tA} C ∩ C) by hit-or-miss sampling, fits
the exponential decay rate against the exact rho of the flow matrix, and
stress-tests the symmetric-convex translate inequality
vol((B + v) ∩ B') <= vol(B ∩ B').
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import expm
from scipy.spatial import ConvexHull

from .errors import NonSplitError
from .model import Record


class ConvexBody(Record):
    """A compact convex body centered at the origin.

    kind "box": axis box with per-axis halfwidths; kind "ball": Euclidean
    ball of given radius; kind "polytope": convex hull of a centrally
    symmetric vertex set (the vertex list is symmetrized on construction).
    ``_facets``, a polytope's (A, b) with A x <= b inside, is neither shown
    nor compared.
    """

    __slots__ = ("kind", "dimension", "halfwidths", "radius", "vertices", "_facets")
    _fields = __slots__[:5]

    def __init__(self, kind: str, dimension: int, halfwidths: Optional[tuple] = None,
                 radius: Optional[float] = None, vertices: Optional[tuple] = None,
                 _facets: Optional[tuple] = None):
        self._set(kind, dimension, halfwidths, radius, vertices, _facets)

    @staticmethod
    def box(dimension: int, halfwidth=1.0) -> "ConvexBody":
        if np.isscalar(halfwidth):
            hw = (float(halfwidth),) * dimension
        else:
            hw = tuple(float(h) for h in halfwidth)
        if len(hw) != dimension or any(h <= 0 for h in hw):
            raise ValueError("need one positive halfwidth per axis")
        return ConvexBody(kind="box", dimension=dimension, halfwidths=hw)

    @staticmethod
    def ball(dimension: int, radius: float = 1.0) -> "ConvexBody":
        if radius <= 0:
            raise ValueError("radius must be positive")
        return ConvexBody(kind="ball", dimension=dimension, radius=float(radius))

    @staticmethod
    def symmetric_polytope(vertices) -> "ConvexBody":
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] < V.shape[1] + 1:
            raise ValueError("need at least dim+1 vertices")
        sym = np.vstack([V, -V])
        hull = ConvexHull(sym)
        # facets as A x <= b with b > 0 (origin interior)
        A = hull.equations[:, :-1]
        b = -hull.equations[:, -1]
        if np.any(b <= 0):
            raise ValueError("origin is not interior to the polytope")
        return ConvexBody(kind="polytope", dimension=V.shape[1],
                          vertices=tuple(map(tuple, sym)), _facets=(A, b))

    def bounding_halfwidths(self) -> np.ndarray:
        if self.kind == "box":
            return np.array(self.halfwidths)
        if self.kind == "ball":
            return np.full(self.dimension, self.radius)
        V = np.asarray(self.vertices)
        return np.abs(V).max(axis=0)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (N, d) array of points."""
        points = np.atleast_2d(points)
        if self.kind == "box":
            return np.all(np.abs(points) <= np.array(self.halfwidths) + 1e-12,
                          axis=1)
        if self.kind == "ball":
            return np.einsum("ij,ij->i", points, points) <= self.radius ** 2 + 1e-12
        A, b = self._facets
        return np.all(points @ A.T <= b + 1e-9, axis=1)


def rho_from_matrix(A) -> float:
    """Half the sum of absolute eigenvalue real parts of a split matrix.

    Rejects matrices with non-real eigenvalues or a defective eigenvector
    basis, since the decay statement assumes a split (real-diagonalizable)
    direction.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    vals, vecs = np.linalg.eig(A)
    if np.max(np.abs(vals.imag)) > 1e-9 * max(1.0, np.max(np.abs(vals))):
        raise NonSplitError("matrix has non-real eigenvalues")
    if np.linalg.matrix_rank(vecs) < A.shape[0]:
        raise NonSplitError("matrix is not diagonalizable")
    return 0.5 * float(np.sum(np.abs(vals.real)))


def mc_intersection_volume(A, t: float, C: ConvexBody, samples: int,
                           seed: int) -> tuple[float, float]:
    """Hit-or-miss estimate of vol(e^{tA} C ∩ C) with its standard error.

    Samples uniformly in the bounding box of C; a point x is a hit when
    x ∈ C and e^{-tA} x ∈ C.  Reproducible for a fixed seed.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    A = np.asarray(A, dtype=float)
    flow = expm(-t * A)
    if not np.all(np.isfinite(flow)):
        raise ValueError("matrix exponential overflow at the requested time")
    rng = np.random.default_rng(seed)
    hw = C.bounding_halfwidths()
    box_vol = float(np.prod(2 * hw))
    pts = rng.uniform(-hw, hw, size=(samples, C.dimension))
    hits = C.contains(pts) & C.contains(pts @ flow.T)
    p = hits.mean()
    est = box_vol * p
    stderr = box_vol * math.sqrt(max(p * (1 - p), 0.0) / samples)
    return est, stderr


class DecayFit(Record):
    __slots__ = _fields = ("times", "log_volumes", "stderrs", "fitted_slope",
                           "predicted_slope", "tolerance", "passed", "dropped_times")

    def __init__(self, times: tuple, log_volumes: tuple, stderrs: tuple,
                 fitted_slope: float, predicted_slope: float, tolerance: float,
                 passed: bool, dropped_times: tuple = ()):
        # log_volumes are trace-corrected: log(e^{-t tr(A)/2} vol)
        self._set(times, log_volumes, stderrs, fitted_slope, predicted_slope,
                  tolerance, passed, dropped_times)


def verify_lemma_2_8(A, C: ConvexBody, t_range: Sequence[float], samples: int,
                     seed: int, tolerance: float = 0.1) -> DecayFit:
    """Fit the decay rate of e^{-t Tr(A)/2} vol(e^{tA} C ∩ C) along a ray.

    The sandwich bound predicts slope -rho(A) asymptotically, so the fit
    uses only the tail of t_range: the smallest third of the times is
    dropped, as are times whose hit count falls below 30 (volume beneath
    the Monte-Carlo floor).
    """
    A = np.asarray(A, dtype=float)
    rho = rho_from_matrix(A)
    trace = float(np.trace(A))
    t_range = sorted(float(t) for t in t_range)
    if len(t_range) < 3:
        raise ValueError("need at least 3 sample times")
    hw = C.bounding_halfwidths()
    box_vol = float(np.prod(2 * hw))
    min_vol = 30.0 / samples * box_vol

    kept_t, kept_log, kept_se, dropped = [], [], [], []
    for i, t in enumerate(t_range):
        est, se = mc_intersection_volume(A, t, C, samples, seed + i)
        if est < min_vol:
            dropped.append(t)
            continue
        kept_t.append(t)
        kept_log.append(math.log(est) - 0.5 * t * trace)
        kept_se.append(se / est)

    tail_start = t_range[len(t_range) // 3]
    fit_t = [t for t in kept_t if t >= tail_start]
    fit_y = [y for t, y in zip(kept_t, kept_log) if t >= tail_start]
    if len(fit_t) < 2:
        raise ValueError("not enough surviving sample times for a fit; "
                         "shrink t_range or increase samples")
    slope = float(np.polyfit(fit_t, fit_y, 1)[0])
    return DecayFit(times=tuple(kept_t), log_volumes=tuple(kept_log),
                    stderrs=tuple(kept_se), fitted_slope=slope,
                    predicted_slope=-rho, tolerance=tolerance,
                    passed=abs(slope + rho) <= tolerance,
                    dropped_times=tuple(dropped))


def check_brunn_translate(B: ConvexBody, B2: ConvexBody, v, samples: int,
                          seed: int) -> dict:
    """Test vol((B + v) ∩ B2) <= vol(B ∩ B2) within 3 sigma.

    Both sides are estimated from the same uniform sample in the bounding
    box of B2 (both intersections are subsets of B2).
    """
    if B.dimension != B2.dimension:
        raise ValueError("dimension mismatch")
    v = np.asarray(v, dtype=float)
    rng = np.random.default_rng(seed)
    hw = B2.bounding_halfwidths()
    box_vol = float(np.prod(2 * hw))
    pts = rng.uniform(-hw, hw, size=(samples, B2.dimension))
    in_b2 = B2.contains(pts)
    left_hits = in_b2 & B.contains(pts - v)
    right_hits = in_b2 & B.contains(pts)

    def est(hits):
        p = hits.mean()
        return box_vol * p, box_vol * math.sqrt(max(p * (1 - p), 0.0) / samples)

    left, se_l = est(left_hits)
    right, se_r = est(right_hits)
    sigma = math.sqrt(se_l ** 2 + se_r ** 2)
    return {"left": left, "right": right, "sigma": sigma,
            "passed": left <= right + 3 * sigma}


def random_symmetric_polytope(dimension: int, rng,
                              n_vertices: Optional[int] = None) -> ConvexBody:
    """Random origin-symmetric polytope with vertices on the unit sphere."""
    if n_vertices is None:
        n_vertices = 2 * dimension + 3
    V = rng.normal(size=(n_vertices, dimension))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return ConvexBody.symmetric_polytope(V)
