"""Random instance generators shared by the tests, the acceptance suite
and the CLI."""

from __future__ import annotations

import math

import numpy as np

from . import bodies as bd
from .sphere import SphericalCap, normalize, sample_uniform_cap, \
    sample_uniform_sphere

DEFAULT_POINTS = {2: 8, 3: 12, 4: 16}


def random_rotation(d, rng):
    """Haar-ish orthonormal frame via QR of a Gaussian matrix."""
    M = rng.standard_normal((d, d))
    Q, R = np.linalg.qr(M)
    return Q * np.sign(np.diag(R))


def random_body(n, rng, n_points=None):
    """Random polytopal body strictly inside a random cap of radius 1.

    V-generators are uniform points in the cap; the H-representation is
    computed by cone conversion.  Retries until the hull is
    full-dimensional.
    """
    n_points = DEFAULT_POINTS.get(n, 4 * (n + 1)) if n_points is None else n_points
    if n_points < n + 1:
        raise ValueError(f"a body in S^{n} needs at least {n + 1} generators, "
                         f"got {n_points}")
    for _ in range(50):
        cap = SphericalCap(center=sample_uniform_sphere(n, rng), radius=1.0)
        pts = sample_uniform_cap(cap, rng, size=n_points)
        try:
            body = bd.make_body(n, v_generators=pts, tag="random")
        except bd.BodyError:
            continue
        if body.is_body:
            return body
    raise RuntimeError("failed to generate a full-dimensional random body")


def random_lune(n, rng, angle=None):
    """Random lune: random 2-plane for the sector, random offset angle."""
    Q = random_rotation(n + 1, rng)
    angle = float(rng.uniform(0.2, math.pi - 0.2)) if angle is None else angle
    theta0 = float(rng.uniform(0.0, 2.0 * math.pi))
    return bd.make_lune_from_angle(n, angle, (Q[0], Q[1]), theta0=theta0)


def octant_body(n=2):
    """The positive-octant body {x >= 0} on S^n."""
    return bd.make_body(n, h_normals=-np.eye(n + 1), tag="octant")


def cap_polytope(n, center, radius, n_vertices=64, rng=None):
    """Inscribed polytopal approximation of a cap.

    For n = 2 a regular vertex ring on the boundary circle; for higher n
    random points on the boundary sphere (requires ``rng``).
    """
    if n_vertices < 1:
        raise ValueError(f"need at least 1 vertex, got {n_vertices}")
    center = normalize(np.asarray(center, dtype=float))
    # Orthonormal basis of center-perp.
    _, _, Vt = np.linalg.svd(center[None, :], full_matrices=True)
    perp = Vt[1:]
    if n == 2:
        theta = 2.0 * math.pi * np.arange(n_vertices) / n_vertices
        ring = np.cos(theta)[:, None] * perp[0] + \
            np.sin(theta)[:, None] * perp[1]
    else:
        if rng is None:
            raise ValueError("rng required for n > 2 cap polytopes")
        w = sample_uniform_sphere(n - 1, rng, size=n_vertices)
        ring = w @ perp
    verts = math.cos(radius) * center + math.sin(radius) * ring
    verts = normalize(verts)
    return bd.make_body(n, v_generators=verts, tag=f"cap({radius:.3f})")
