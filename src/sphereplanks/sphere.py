"""Primitive geometry on the unit sphere S^n in R^(n+1).

Unit vectors are plain numpy arrays of length n+1.  All angles are radians.
Inner products are clamped into [-1, 1] before arccos to absorb rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-12
#: Most sphere draws one rejection round of ``sample_uniform_cap`` makes.
CAP_ROUND_DRAWS = 1 << 20
#: Most multiply entries (k * d * rows) a ``row_blocks`` product takes:
#: OpenBLAS runs products this small on the calling thread.
BLOCK_ENTRIES = 1 << 18
#: Nodes of the Gauss-Legendre rule ``integrate`` uses.
GL_NODES = 64
#: Gauss-Legendre nodes per panel of ``circle_rule``, and of the polar
#: vertex averages' partial panels.
PANEL_NODES = 20


def sphere_area(n):
    """Total surface measure sigma_n of S^n, by the Gamma-function formula."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def cap_area(n, radius):
    """Surface measure of a spherical cap of the given radius in S^n."""
    if not 0.0 <= radius <= math.pi + UNIT_TOL:
        raise ValueError(f"cap radius must lie in [0, pi], got {radius}")
    if n == 1:
        return 2.0 * radius
    return sphere_area(n - 1) * integrate(lambda t: np.sin(t) ** (n - 1),
                                          0.0, radius)


@functools.cache
def gauss_legendre(nodes):
    """Read-only nodes and weights of the ``nodes``-point Gauss-Legendre
    rule on [-1, 1] (Golub and Welsch, 1969), made once per node count."""
    rule = np.polynomial.legendre.leggauss(nodes)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def integrate(f, a, b):
    """int_a^b f(t) dt by the ``GL_NODES``-point Gauss-Legendre rule; ``f``
    maps an array of nodes to an array of values.  Exact for polynomials
    of degree below 2 * GL_NODES, and accurate to rounding for integrands
    analytic near [a, b]."""
    x, w = gauss_legendre(GL_NODES)
    half = 0.5 * (b - a)
    return half * float(w @ f(a + half * (x + 1.0)))


def graded(t, h, scale):
    """Panel ends t +- h 2^-k, k = 1 to ceil(log2 scale) (at most 60), that
    shrink toward a point t where the integrand has a layer about 1/scale
    wide; none for scale <= 1.  The ends come back flat."""
    t, scale = np.broadcast_arrays(t, scale)
    k = np.arange(1, 61)
    use = k - 1 < np.log2(np.maximum(scale, 1.0))[..., None]
    step = h * 0.5 ** k
    return np.concatenate([(t[..., None] - step)[use],
                           (t[..., None] + step)[use]])


def circle_rule(normals, scales):
    """Flat ``(theta, weights)`` of a rule for int_0^{2 pi} h(w) dtheta,
    w = (cos theta, sin theta), where h is smooth between the directions
    orthogonal to a row c of ``normals``: t = atan2(c) + pi/2 and t - pi
    split the circle into panels, graded toward t and t - pi where h has
    a layer about 1/scales[i] wide (none for scales[i] <= 1), with
    PANEL_NODES Gauss-Legendre nodes on each panel."""
    normals = np.asarray(normals, dtype=float)
    t = np.arctan2(normals[:, 1], normals[:, 0]) + math.pi / 2.0
    ends = np.concatenate([t, t - math.pi])
    layers = graded(ends, math.pi / 2.0, np.tile(scales, 2))
    pts = np.unique(np.mod(np.concatenate([[0.0], ends, layers]),
                           2.0 * math.pi))
    lo, hi = pts[:, None], np.append(pts[1:], 2.0 * math.pi)[:, None]
    x, wx = gauss_legendre(PANEL_NODES)
    theta = (lo + hi) / 2.0 + (hi - lo) / 2.0 * x
    return theta.ravel(), ((hi - lo) / 2.0 * wx).ravel()


def unit_vector(x, tol=UNIT_TOL):
    """Validate and return ``x`` as a float array with Euclidean norm 1."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a 1-d coordinate array")
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"not a unit vector: |norm - 1| = {abs(nrm - 1.0):.3e}")
    return v


def normalize(x):
    v = np.asarray(x, dtype=float)
    nrm = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(nrm == 0.0):
        raise ValueError("cannot normalize the zero vector")
    return v / nrm


def row_blocks(A, x):
    """``(rows, A @ x[rows].T)`` over row blocks of the batch ``x`` that
    depend only on ``A.shape``; a 1-d ``x`` is one block, ``rows = ()``."""
    if x.ndim == 1:
        yield (), A @ x
        return
    step = max(1, BLOCK_ENTRIES // A.size)
    for start in range(0, x.shape[0], step):
        yield slice(start, start + step), A @ x[start:start + step].T


def geodesic_distance(x, y):
    """Angular distance arccos(<x, y>), clamped into [0, pi]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    dot = np.clip(np.sum(x * y, axis=-1), -1.0, 1.0)
    return np.arccos(dot)


@dataclass(frozen=True, eq=False)
class SphericalCap:
    """Closed spherical cap: all points within ``radius`` of ``center``."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", unit_vector(self.center))
        if not 0.0 <= self.radius <= math.pi:
            raise ValueError(f"cap radius must lie in [0, pi], got {self.radius}")

    @property
    def n(self):
        return self.center.shape[0] - 1


# ---------------------------------------------------------------------------
# Seeded streams.  A stream is seeded by (seed, spawn key) alone, so its
# draws never depend on which worker ran it.  SFC64 fills Gaussians in
# 14.5-16.3 ns per value where Philox takes 21.0-21.2 ns (numpy 2.4.6,
# 2-core Xeon), and the fill is most of every Monte Carlo estimate.
# ---------------------------------------------------------------------------

def make_stream(seed, spawn_key=()):
    """Seeded random stream: SFC64 on the SeedSequence of (seed,
    spawn_key)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(spawn_key))
    return np.random.Generator(np.random.SFC64(ss))


def sample_uniform_sphere(n, rng, size=None):
    """Uniform points on S^n: a single vector for ``size=None``, else an
    array of shape (size, n+1).  One Gaussian fill, one normalising pass;
    a zero row is redrawn from ``rng``."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    g = rng.standard_normal((1 if size is None else int(size), n + 1))
    while True:
        # Row sums of squares column by column: the additions, in order,
        # that np.linalg.norm(g, axis=1) makes, without its reduction over
        # the short last axis.
        sq = g[:, 0] * g[:, 0]
        for j in range(1, g.shape[1]):
            sq += g[:, j] * g[:, j]
        # Resample the (measure-zero) zero draws rather than dividing by 0.
        rows = np.flatnonzero(sq == 0.0)
        if not rows.size:
            break
        g[rows] = rng.standard_normal((rows.size, g.shape[1]))
    g /= np.sqrt(sq)[:, None]
    return g[0] if size is None else g


def sample_uniform_cap(cap, rng, size=None):
    """Uniform points on a cap by rejection, a single vector for
    ``size=None``, else an array of shape (size, n+1): the first in-cap
    draws of ``sample_uniform_sphere``, in rounds sized from the cap's
    area.  A zero-radius cap gives its center, drawing nothing."""
    m = 1 if size is None else int(size)
    n = cap.n
    cos_r = math.cos(cap.radius)
    frac = cap_area(n, cap.radius) / sphere_area(n)
    out = np.tile(cap.center, (m, 1))
    have = m if cap.radius == 0.0 else 0
    while have < m:
        # 10% more draws than the cap's area fraction needs, so one round
        # usually suffices, and at most CAP_ROUND_DRAWS per round.  Normals
        # do not depend on how draws are split into calls, so the points
        # returned do not depend on these sizes.
        want = 1.1 * (m - have)
        chunk = CAP_ROUND_DRAWS if want > frac * CAP_ROUND_DRAWS \
            else max(math.ceil(want / frac), 128)
        draws = sample_uniform_sphere(n, rng, size=chunk)
        keep = draws @ cap.center >= cos_r - UNIT_TOL
        kept = draws[keep]
        take = min(m - have, kept.shape[0])
        out[have:have + take] = kept[:take]
        have += take
    return out[0] if size is None else out
