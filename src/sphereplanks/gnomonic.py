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
from scipy.integrate import quad

from . import bodies as bd
from .cones import min_norm_point
from .measure import (Estimate, VerificationReport, body_digest,
                      combined_stderr, mc_map, mean_width_mc)
from .sphere import sample_uniform_sphere, sphere_area, unit_vector

FRAME_TOL = 1e-12
EQUATOR_TOL = 1e-9
QUAD_TOL = 1e-10


@dataclass(frozen=True)
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

    @property
    def n(self):
        return self.basis.shape[0]


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
    met = bd.circumradius(body)
    if met.hemisphere_flagged:
        raise bd.BodyError("body is not contained in an open hemisphere")
    return frame_at(met.circumcenter)


@dataclass(frozen=True)
class EuclideanPolytope:
    n: int
    vertices: np.ndarray  # (m, n)
    contains_origin: bool = False

    def __post_init__(self):
        if self.vertices.ndim != 2 or self.vertices.shape[0] == 0:
            raise ValueError("need at least one vertex")


def project_point(frame, x):
    """Gnomonic image of x (single vector or batch) in frame coordinates."""
    x = np.asarray(x, dtype=float)
    tau = x @ frame.e
    if np.any(tau <= EQUATOR_TOL):
        raise ValueError("point on or beyond the equator of the frame")
    scaled = x / tau[..., None] if x.ndim > 1 else x / tau
    return (scaled - frame.e) @ frame.basis.T


def unproject_point(frame, y):
    """Inverse gnomonic map back to the open hemisphere."""
    y = np.asarray(y, dtype=float)
    amb = frame.e + y @ frame.basis
    return amb / np.linalg.norm(amb, axis=-1, keepdims=True) if amb.ndim > 1 \
        else amb / np.linalg.norm(amb)


def project_body(frame, body):
    """Project the generators; the image polytope is their convex hull."""
    if body.v_generators is None:
        raise bd.BodyError("V-representation required")
    if np.any(body.v_generators @ frame.e <= EQUATOR_TOL):
        raise bd.BodyError("body is not strictly inside the frame hemisphere")
    verts = project_point(frame, body.v_generators)
    origin_dist = np.linalg.norm(min_norm_point(verts))
    return EuclideanPolytope(n=frame.n, vertices=verts,
                             contains_origin=origin_dist <= 1e-9)


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
    """Positive weight f on [0, inf) with cumulative F(s) = int_0^s f.

    ``f`` and ``F`` are vectorized callables.  ``kind`` is a label such as
    "spherical(2)" or "constant".
    """

    kind: str
    f: callable
    F: callable


def spherical_weight(n):
    """The weight (1+t^2)^(-(n+1)/2) matching spherical mean width in E^n."""
    p = (n + 1) / 2.0

    def f(t):
        t = np.asarray(t, dtype=float)
        return (1.0 + t * t) ** (-p)

    if n == 2:
        def F(s):
            s = np.asarray(s, dtype=float)
            return s / np.sqrt(1.0 + s * s)
    elif n == 3:
        def F(s):
            s = np.asarray(s, dtype=float)
            return 0.5 * (np.arctan(s) + s / (1.0 + s * s))
    elif n == 4:
        def F(s):
            s = np.asarray(s, dtype=float)
            return s * (3.0 + 2.0 * s * s) / (3.0 * (1.0 + s * s) ** 1.5)
    else:
        F = _quadrature_cumulative(f)
    return WeightFunction(kind=f"spherical({n})", f=f, F=F)


def constant_weight(c=1.0):
    if c <= 0.0:
        raise ValueError("weight must be positive")

    def f(t):
        return np.full_like(np.asarray(t, dtype=float), c)

    def F(s):
        return c * np.asarray(s, dtype=float)

    return WeightFunction(kind="constant", f=f, F=F)


def tabulated_weight(ts, fs):
    """Weight given by a sample table, linearly interpolated."""
    ts = np.asarray(ts, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if np.any(fs <= 0.0):
        raise ValueError("weight table must be strictly positive")
    if ts[0] != 0.0 or np.any(np.diff(ts) <= 0.0):
        raise ValueError("table abscissae must start at 0 and increase")
    cum = np.concatenate([[0.0], np.cumsum(np.diff(ts) * (fs[:-1] + fs[1:]) / 2.0)])

    def f(t):
        return np.interp(np.asarray(t, dtype=float), ts, fs)

    def F(s):
        return np.interp(np.asarray(s, dtype=float), ts, cum)

    return WeightFunction(kind="table", f=f, F=F)


def _quadrature_cumulative(f):
    def F(s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.array([quad(lambda t: float(f(t)), 0.0, si, epsabs=QUAD_TOL)[0]
                        for si in s_arr])
        return out[0] if np.ndim(s) == 0 else out
    return F


def validate_weight(w, smax=10.0, points=1000):
    """Check f > 0, F(0) = 0 and F strictly increasing on a grid."""
    grid = np.linspace(0.0, smax, points)
    fv = w.f(grid)
    if np.any(fv <= 0.0):
        raise ValueError(f"{w.kind}: weight not strictly positive")
    Fv = w.F(grid)
    if abs(float(np.atleast_1d(Fv)[0])) > 1e-12:
        raise ValueError(f"{w.kind}: F(0) != 0")
    if np.any(np.diff(Fv) <= 0.0):
        raise ValueError(f"{w.kind}: F not strictly increasing")
    return True


# ---------------------------------------------------------------------------
# The hyperplane-measure functional U_f
# ---------------------------------------------------------------------------

def support_function(poly, u0):
    """h(K, u0) = max over vertices of <vertex, u0> (u0 may be a batch)."""
    u0 = np.asarray(u0, dtype=float)
    return np.max(u0 @ poly.vertices.T, axis=-1)


def _uf_integrand(poly, w, dirs):
    dots = dirs @ poly.vertices.T
    upper = np.maximum(dots.max(axis=-1), 0.0)
    lower = np.clip(dots.min(axis=-1), 0.0, upper)
    return w.F(upper) - w.F(lower)


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
    boundaries.
    """
    V = poly.vertices
    angles = [0.0, 2.0 * math.pi]
    for i in range(V.shape[0]):
        vi = V[i]
        if np.linalg.norm(vi) > 1e-13:
            a = math.atan2(vi[1], vi[0])
            angles += [a + math.pi / 2.0, a - math.pi / 2.0]
        for j in range(i + 1, V.shape[0]):
            c = vi - V[j]
            if np.linalg.norm(c) > 1e-13:
                a = math.atan2(c[1], c[0])
                angles += [a + math.pi / 2.0, a - math.pi / 2.0]
    pts = np.unique(np.mod(np.array(angles), 2.0 * math.pi))
    pts = np.concatenate([pts, [2.0 * math.pi]])
    nodes, weights = np.polynomial.legendre.leggauss(20)
    a = pts[:-1][:, None]
    b = pts[1:][:, None]
    theta = (a + b) / 2.0 + (b - a) / 2.0 * nodes[None, :]
    wgt = (b - a) / 2.0 * weights[None, :]
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    vals = _uf_integrand(poly, w, dirs.reshape(-1, 2)).reshape(theta.shape)
    total = float(np.sum(vals * wgt))
    return Estimate(value=total, stderr=QUAD_TOL, samples=theta.size,
                    seed=seed, quantity="uf")


def _uf_mc(poly, w, samples, seed, threads):
    n = poly.n
    samples = 1_000_000 if samples is None else samples

    def draw(rng, size):
        vals = _uf_integrand(poly, w, sample_uniform_sphere(n - 1, rng, size))
        return float(np.sum(vals)), float(np.sum(vals * vals))

    s1, s2 = map(math.fsum, zip(*mc_map(draw, samples, seed, threads)))
    mean = s1 / samples
    var = max(0.0, s2 / samples - mean * mean)
    mu = sphere_area(n - 1)
    return Estimate(value=mu * mean, stderr=mu * math.sqrt(var / samples),
                    samples=int(samples), seed=seed, quantity="uf")


def check_projection_consistency(body, w=None, samples=None, seed=0, threads=1):
    """Compare the sphere-side mean width with the projected-side U_f for
    the spherical weight, at 3 combined sigma."""
    frame = circumcenter_frame(body)
    if w is None:
        w = spherical_weight(body.n)
    poly = project_body(frame, body)
    sphere_side = mean_width_mc(body, samples=samples, seed=seed,
                                threads=threads)
    flat_side = uf(poly, w, samples=samples, seed=seed + 1, threads=threads)
    tol = 3.0 * combined_stderr(sphere_side, flat_side)
    slack = -abs(sphere_side.value - flat_side.value)
    return VerificationReport(
        claim="gnomonic_consistency",
        lhs=sphere_side.value, rhs=flat_side.value, slack=slack,
        tolerance=tol,
        tolerance_rule="|U(K) - U_f(proj K)| <= 3 * combined stderr",
        passed=slack >= -tol,
        inputs_digest=body_digest(body, samples, seed),
        details={"seed": seed, "samples": sphere_side.samples,
                 "weight": w.kind},
    )
