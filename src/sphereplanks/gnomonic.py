"""Gnomonic bridge between the sphere and Euclidean space.

Central projection from an open hemisphere onto the tangent hyperplane at
its pole maps great subspheres to hyperplanes and spherically convex sets
to convex sets.  A great subsphere u-perp with u = tau e - sqrt(1-tau^2) u0
projects to the hyperplane {x : <u0, x> = t}, t = tau / sqrt(1 - tau^2).

On the Euclidean side, weighted hyperplane measures with radial density f
give the functional U_f; with the spherical density (1+t^2)^(-(n+1)/2) it
reproduces the spherical mean width of the unprojected body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bodies as bd
from .measure import (Estimate, body_digest, combined_stderr, mc_map,
                      mean_width_mc, three_sigma)
from .sphere import circle_rule, row_blocks, sample_uniform_sphere, \
    sphere_area, unit_vector

FRAME_TOL = 1e-12
EQUATOR_TOL = 1e-9
QUAD_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ProjectionFrame:
    """Tangency point ``e`` plus an orthonormal basis of e-perp giving
    coordinates for the Euclidean target space."""

    e: np.ndarray
    basis: np.ndarray  # (n, n+1)

    def __post_init__(self):
        G = np.vstack([self.e, self.basis])
        gram = G @ G.T
        if np.max(np.abs(gram - np.eye(G.shape[0]))) > FRAME_TOL:
            raise ValueError("frame is not orthonormal")


def frame_at(e):
    """Frame at ``e`` by Gram-Schmidt over the coordinate axes in order."""
    e = unit_vector(e, tol=1e-9)
    d = e.shape[0]
    rows = [e]
    for i in range(d):
        cand = np.zeros(d)
        cand[i] = 1.0
        for r in rows:
            cand = cand - (cand @ r) * r
        nrm = np.linalg.norm(cand)
        if nrm > 1e-8:
            rows.append(cand / nrm)
        if len(rows) == d:
            break
    # Re-orthogonalize for strict 1e-12 frame tolerance.
    basis = np.array(rows[1:])
    for i in range(basis.shape[0]):
        v = basis[i] - (basis[i] @ e) * e
        for j in range(i):
            v = v - (v @ basis[j]) * basis[j]
        basis[i] = v / np.linalg.norm(v)
    return ProjectionFrame(e=e, basis=basis)


def circumcenter_frame(body):
    """Frame at the circumcenter of the body (the canonical choice)."""
    c = bd.circumradius(body)[1]
    if c is None:
        raise bd.BodyError("body is not contained in an open hemisphere")
    return frame_at(c)


@dataclass(frozen=True, eq=False)
class EuclideanPolytope:
    vertices: np.ndarray  # (m, n)

    def __post_init__(self):
        if self.vertices.ndim != 2 or self.vertices.shape[0] == 0:
            raise ValueError("need at least one vertex")

    @property
    def n(self):
        return self.vertices.shape[1]


def project_point(frame, x):
    """Gnomonic image of x (single vector or batch) in frame coordinates."""
    x = np.asarray(x, dtype=float)
    tau = x @ frame.e
    if np.any(tau <= EQUATOR_TOL):
        raise ValueError("point on or beyond the equator of the frame")
    scaled = x / tau[..., None] if x.ndim > 1 else x / tau
    return (scaled - frame.e) @ frame.basis.T


def project_body(frame, body):
    """Project the generators; the image polytope is their convex hull."""
    if np.any(body.v_generators @ frame.e <= EQUATOR_TOL):
        raise bd.BodyError("body is not strictly inside the frame hemisphere")
    verts = project_point(frame, body.v_generators)
    return EuclideanPolytope(vertices=verts)


def hyperplane_param(frame, u):
    """Parameters (u0, t) of the projected great subsphere u-perp.

    Sign convention u = tau e - sqrt(1-tau^2) u0, so t >= 0 always.
    """
    u = unit_vector(u, tol=1e-9)
    tau = float(u @ frame.e)
    if tau < 0.0:
        raise ValueError("u must lie in the closed frame hemisphere")
    if 1.0 - tau <= 1e-14:
        raise ValueError("u = e does not parametrize a hyperplane")
    root = math.sqrt(max(0.0, 1.0 - tau * tau))
    u0_amb = -(u - tau * frame.e) / root
    return frame.basis @ u0_amb, tau / root


# ---------------------------------------------------------------------------
# Weight functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFunction:
    """A positive weight f on [0, inf), carried by its cumulative
    F(s) = int_0^s f, a vectorized callable: U_f and C(R, f) read f only
    through F.  ``kind`` is a label such as "spherical(2)" or "constant".
    """

    kind: str
    F: callable


def spherical_weight(n):
    """The weight (1+t^2)^(-(n+1)/2) matching spherical mean width in E^n.
    F(s) = int_0^(atan s) cos^(n-1) by I_k = (s q^(-k/2) + (k-1) I_(k-2)) / k,
    q = 1 + s^2, from I_0 = atan s or I_1 = s / sqrt(q): no term overflows."""
    def F(s):
        if n < 1:
            raise ValueError(f"need a dimension n >= 1, got {n}")
        s = np.asarray(s, dtype=float)
        q = 1.0 + s * s
        term = s if n % 2 else s / np.sqrt(q)
        out = np.arctan(s) if n % 2 else term
        for k in range(3 - n % 2, n, 2):
            term = term / q
            out = (term + (k - 1) * out) / k
        return out

    return WeightFunction(kind=f"spherical({n})", F=F)


def constant_weight():
    """The weight f = 1, with F(s) = s."""
    return WeightFunction(kind="constant",
                          F=lambda s: np.asarray(s, dtype=float))


# ---------------------------------------------------------------------------
# The hyperplane-measure functional U_f
# ---------------------------------------------------------------------------

def _uf_integrand(poly, w, dirs):
    hi, lo = np.empty(dirs.shape[:-1]), np.empty(dirs.shape[:-1])
    for rows, dots in row_blocks(poly.vertices, dirs):  # vertex-major
        hi[rows], lo[rows] = dots.max(axis=0), dots.min(axis=0)
    upper = np.maximum(hi, 0.0)
    return w.F(upper) - w.F(np.clip(lo, 0.0, upper))


def uf(poly, w, samples=None, seed=0, mode="auto", threads=1):
    """Total nu_f measure of hyperplanes meeting the polytope.

    For 0 in K this is the support-function integral of F(h(K, u0)); the
    general two-sided form subtracts the part of the t-range cut off when
    the origin is outside.  Deterministic Gauss-Legendre quadrature is the
    default in the plane; Monte Carlo otherwise.
    """
    if mode == "auto":
        mode = "quadrature" if poly.n == 2 else "mc"
    if mode == "quadrature":
        if poly.n != 2:
            raise ValueError("quadrature mode implemented for n = 2 only")
        return _uf_quadrature_2d(poly, w, seed)
    return _uf_mc(poly, w, samples, seed, threads)


def _uf_quadrature_2d(poly, w, seed):
    """Piecewise Gauss-Legendre over the direction circle.

    The integrand is smooth between directions orthogonal to a vertex
    difference (argmax/argmin switches) and directions orthogonal to a
    vertex (clipping kinks); both families are inserted as panel
    boundaries.  Beside a kink of vertex v, F(|v| cos) has a layer about
    1/|v| wide, so the panels next to it are graded toward it.
    """
    V = poly.vertices
    i, j = np.triu_indices(V.shape[0], 1)
    theta, wgt = circle_rule(
        np.concatenate([V, V[i] - V[j]]),
        np.concatenate([np.linalg.norm(V, axis=1), np.zeros(i.size)]))
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    total = float(np.sum(_uf_integrand(poly, w, dirs) * wgt))
    return Estimate(value=total, stderr=QUAD_TOL * abs(total),
                    samples=theta.size, seed=seed, quantity="uf")


def _uf_mc(poly, w, samples, seed, threads):
    n = poly.n
    samples = 1_000_000 if samples is None else samples

    def draw(rng, size):
        v = _uf_integrand(poly, w, sample_uniform_sphere(n - 1, rng, size))
        return float(np.sum(v)), float(np.sum(v * v))

    s1, s2 = map(math.fsum, zip(*mc_map(draw, samples, seed, threads)))
    mean = s1 / samples
    var = max(0.0, s2 / samples - mean * mean)
    mu = sphere_area(n - 1)
    return Estimate(value=mu * mean, stderr=mu * math.sqrt(var / samples),
                    samples=int(samples), seed=seed, quantity="uf")


def check_projection_consistency(body, samples=None, seed=0, threads=1):
    """Compare the sphere-side mean width with the projected-side U_f for
    the spherical weight, at 3 combined sigma."""
    frame = circumcenter_frame(body)
    w = spherical_weight(body.n)
    poly = project_body(frame, body)
    sphere_side = mean_width_mc(body, samples=samples, seed=seed,
                                threads=threads)
    flat_side = uf(poly, w, samples=samples, seed=seed + 1, threads=threads)
    return three_sigma(
        "gnomonic_consistency",
        sphere_side.value, flat_side.value,
        combined_stderr(sphere_side, flat_side), "==",
        "|U(K) - U_f(proj K)| <= 3 * combined stderr",
        inputs_digest=body_digest(body, samples, seed),
        details={"seed": seed, "samples": sphere_side.samples,
                 "flat_samples": flat_side.samples, "weight": w.kind},
    )
