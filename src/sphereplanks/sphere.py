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


@dataclass(frozen=True)
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
# Seeded streams.  Philox is counter-based, so a stream's draws depend
# only on (seed, spawn key), never on which worker ran it.
# ---------------------------------------------------------------------------

def make_stream(seed, spawn_key=()):
    """Seeded counter-based random stream (Philox)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(spawn_key))
    return np.random.Generator(np.random.Philox(ss))


def sample_uniform_sphere(n, rng, size=None):
    """Uniform points on S^n, the one-batch case of ``sample_sphere_batches``:
    a single vector for ``size=None``, else an array of shape (size, n+1)."""
    m = 1 if size is None else int(size)
    g = sample_sphere_batches(n, [rng], [m])
    return g[0] if size is None else g


def sample_sphere_batches(n, rngs, sizes):
    """The points ``sample_uniform_sphere(n, rngs[i], sizes[i])`` gives,
    stacked in order: one Gaussian fill per batch, one normalising pass.
    A zero row in batch ``i`` is redrawn from ``rngs[i]``."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    ends = np.cumsum(sizes)
    g = np.empty((int(ends[-1]), n + 1))
    for rng, start, end in zip(rngs, ends - sizes, ends):
        rng.standard_normal(out=g[start:end])
    while True:
        # Row sums of squares column by column: the additions, in order,
        # that np.linalg.norm(g, axis=1) makes, without its reduction over
        # the short last axis.
        sq = g[:, 0] * g[:, 0]
        for j in range(1, g.shape[1]):
            sq += g[:, j] * g[:, j]
        # Resample the (measure-zero) zero draws rather than dividing by 0.
        bad = sq == 0.0
        if not np.any(bad):
            break
        for rng, start, end in zip(rngs, ends - sizes, ends):
            rows = start + np.flatnonzero(bad[start:end])
            if rows.size:
                g[rows] = rng.standard_normal((rows.size, g.shape[1]))
    g /= np.sqrt(sq)[:, None]
    return g


def sample_cap_batches(cap, rngs, sizes):
    """The points ``sample_uniform_cap(cap, rngs[i], sizes[i])`` gives,
    stacked in order; a full-sphere cap is normalised in one pass."""
    if cap.radius >= math.pi:
        return sample_sphere_batches(cap.n, rngs, sizes)
    return np.concatenate([sample_uniform_cap(cap, rng, size)
                           for rng, size in zip(rngs, sizes)])


def sample_uniform_cap(cap, rng, size=None):
    """Uniform points on a cap, by rejection from the full sphere.

    Efficient for the large caps (radius >= pi/2) this package works with.
    A full-sphere cap is sampled directly, and a zero-radius cap returns
    the center deterministically.
    """
    if cap.radius >= math.pi:
        return sample_uniform_sphere(cap.n, rng, size)
    m = 1 if size is None else int(size)
    if cap.radius == 0.0:
        pts = np.tile(cap.center, (m, 1))
        return pts[0] if size is None else pts
    n = cap.n
    cos_r = math.cos(cap.radius)
    frac = cap_area(n, cap.radius) / sphere_area(n)
    out = np.empty((m, n + 1))
    have = 0
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
