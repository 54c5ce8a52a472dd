"""Primitive geometry on the unit sphere S^n in R^(n+1).

Unit vectors are plain numpy arrays of length n+1.  All angles are radians.
Inner products are clamped into [-1, 1] before arccos to absorb rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

UNIT_TOL = 1e-12


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
    ring = sphere_area(n - 1)
    val, _ = quad(lambda t: math.sin(t) ** (n - 1), 0.0, radius, epsabs=1e-12)
    return ring * val


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

    def contains(self, x):
        return geodesic_distance(self.center, x) <= self.radius + UNIT_TOL


# ---------------------------------------------------------------------------
# Seeded streams.  Philox is counter-based, so a substream's draws depend
# only on (seed, spawn key), never on which worker ran it.
# ---------------------------------------------------------------------------

def make_stream(seed, spawn_key=()):
    """Seeded counter-based random stream (Philox)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(spawn_key))
    return np.random.Generator(np.random.Philox(ss))


def substreams(seed, count):
    """``count`` independent streams derived deterministically from ``seed``."""
    return [make_stream(seed, (i,)) for i in range(count)]


def sample_uniform_sphere(n, rng, size=None):
    """Uniform points on S^n: normalized standard Gaussian vectors.

    Returns a single vector for ``size=None``, else an array of shape
    ``(size, n+1)``.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    m = 1 if size is None else int(size)
    g = rng.standard_normal((m, n + 1))
    # Resample the (measure-zero) zero draws rather than dividing by 0.
    bad = np.linalg.norm(g, axis=1) == 0.0
    while np.any(bad):
        g[bad] = rng.standard_normal((int(bad.sum()), n + 1))
        bad = np.linalg.norm(g, axis=1) == 0.0
    pts = normalize(g)
    return pts[0] if size is None else pts


def sample_uniform_cap(cap, rng, size=None):
    """Uniform points on a cap, by rejection from the full sphere.

    Efficient for the large caps (radius >= pi/2) this package works with.
    A zero-radius cap returns the center deterministically.
    """
    m = 1 if size is None else int(size)
    if cap.radius == 0.0:
        pts = np.tile(cap.center, (m, 1))
        return pts[0] if size is None else pts
    n = cap.n
    cos_r = math.cos(cap.radius)
    out = np.empty((m, n + 1))
    have = 0
    while have < m:
        chunk = max(4 * (m - have), 128)
        draws = sample_uniform_sphere(n, rng, size=chunk)
        keep = draws @ cap.center >= cos_r - UNIT_TOL
        kept = draws[keep]
        take = min(m - have, kept.shape[0])
        out[have:have + take] = kept[:take]
        have += take
    return out[0] if size is None else out
