"""Spherically convex bodies as sphere-cone intersections.

A body is S^n intersected with a closed convex cone of R^(n+1), carried in
dual representations:

* H-rep: facet poles ``u_i`` with body = {x in S^n : <u_i, x> <= 0};
* V-rep: generators ``v_j`` with body = S^n  intersect  pos-hull{v_j}.

The sign convention makes polarity a pure representation swap.  Sets
without interior points (e.g. polars of full-dimensional bodies) are
representable; their ``is_body`` is False, derived from the interior
solve, which runs once, on first use.  Volume is an exact 0 for them, and
inradius and mean width refuse them.

``ConvexBody`` is the one body record.  ``inradius`` and ``circumradius``
return (radius, centre) pairs read off its two cached solves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cones import cone_generators, dedup_rows, max_min_inner
from .sphere import SphericalCap, blocked, geodesic_distance, unit_vector

CONTAIN_TOL = 1e-12
CROSS_TOL = 1e-9


class BodyError(ValueError):
    """Invalid or degenerate spherical body for the requested operation."""


@dataclass(frozen=True, eq=False)
class ConvexBody:
    """Both representations of one body.  Its two min-norm problems are
    each solved once, on first use, and kept: ``interior`` decides
    ``is_body`` and gives the inradius, ``support`` the circumradius.

    ``lune_angle`` is a lune's exact interior angle in (0, pi], twice its
    inradius, and None for other bodies; the poles live in the H-rep."""

    h_normals: np.ndarray
    v_generators: np.ndarray
    lune_angle: float | None = None
    tag: str = ""

    @property
    def n(self):
        return self.h_normals.shape[1] - 1

    @functools.cached_property
    def interior(self):
        """(sin r, incenter), or (0.0, None) without interior (Gordan)."""
        return max_min_inner(-self.h_normals)

    @functools.cached_property
    def support(self):
        """(cos R, circumcenter), or (0.0, None) in no open hemisphere."""
        return max_min_inner(self.v_generators)

    @property
    def is_body(self):
        return self.interior[1] is not None


def _as_unit_rows(vectors, d):
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    if V.shape[1] != d:
        raise BodyError(f"vectors have length {V.shape[1]}, expected {d}")
    norms = np.linalg.norm(V, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise BodyError("all H/V vectors must be unit vectors")
    return dedup_rows(V / norms[:, None])


def make_body(n, h_normals=None, v_generators=None, lune_angle=None, tag=""):
    """Build a validated body from one or both representations.

    Missing representations are computed by cone conversion (ambient
    dimension <= 5).  Raises ``BodyError`` when the set is not contained in
    a closed hemisphere or the representations are inconsistent.  A set
    with empty interior is accepted; its ``is_body`` is False.
    """
    d = n + 1
    if h_normals is None and v_generators is None:
        raise BodyError("need at least one representation")
    H = _as_unit_rows(h_normals, d) if h_normals is not None else None
    V = _as_unit_rows(v_generators, d) if v_generators is not None else None

    if V is None:
        V = cone_generators(H)
    elif H is None:
        # Facet normals of cone(V) generate its polar cone {u : Vu <= 0}.
        H = cone_generators(V)

    if H.shape[0] == 0:
        raise BodyError("set is not contained in a closed hemisphere")
    if V.shape[0] == 0:
        raise BodyError("empty body (cone reduces to the origin)")
    cross = H @ V.T
    if np.max(cross) > CROSS_TOL:
        raise BodyError(
            f"inconsistent dual representations: max <u_i, v_j> = {np.max(cross):.3e}"
        )
    return ConvexBody(h_normals=H, v_generators=V, lune_angle=lune_angle,
                      tag=tag)


def contains(body, x):
    """Membership test <u_i, x> <= CONTAIN_TOL for all facet poles.

    ``x`` may be a single vector or an (m, n+1) batch.  The products are
    taken facet-major in row blocks, shape (k, rows), so the test reduces
    over the long axis.
    """
    return blocked(body.h_normals, np.asarray(x, dtype=float),
                   lambda vals: np.max(vals, axis=0) <= CONTAIN_TOL)


def hyperplane_meets(body, u):
    """True iff the great subsphere u-perp meets the body.

    Sign test on the generators: misses iff all generators lie strictly on
    one side of u-perp.  ``u`` may be a batch; the products are taken
    generator-major in row blocks.
    """
    if not body.is_body:
        raise BodyError("hyperplane_meets requires a body with interior")
    return blocked(body.v_generators, np.asarray(u, dtype=float),
                   lambda vals: (vals.min(axis=0) <= 0.0)
                   & (vals.max(axis=0) >= 0.0))


def polar(body):
    """Polar body K* = {u : <u, v> <= 0 for all v in K}.

    Pure representation swap; the result may have no interior.
    """
    return ConvexBody(h_normals=body.v_generators,
                      v_generators=body.h_normals, tag=f"polar({body.tag})")


def inradius(body):
    """Largest cap inside the body, as (r, incenter).

    r is the arcsine of the max-min slack: max s s.t. <u_i, x> <= -s,
    |x| <= 1, which is the min-norm-point problem for conv{-u_i}; the
    optimizer has |x| = 1.  A lune's r is half its exact angle; its
    incenter is still the solver's.
    """
    if not body.is_body:
        raise BodyError("inradius is undefined for a set without interior")
    s, x = body.interior
    angle = body.lune_angle
    return (math.asin(min(1.0, s)) if angle is None else angle / 2.0), x


def inradius_value(body):
    """The inradius ``inradius`` gives, without the solve for a lune."""
    angle = body.lune_angle
    return inradius(body)[0] if angle is None else angle / 2.0


def circumradius(body):
    """Smallest cap containing the body, as (R, circumcenter).

    R is the arccosine of the max-min support.  Valid because caps of
    radius <= pi/2 are spherically convex, so the smallest cap containing
    the generators contains the body.  A body in no open hemisphere gets
    (pi/2, None).
    """
    c, e = body.support
    if e is None:
        return math.pi / 2.0, None
    return math.acos(max(-1.0, min(1.0, c))), e


def make_lune(n, u1, u2=None, tag="lune", angle=None):
    """Lune with facet poles u1, u2 (u2 = u1 gives a hemisphere).

    Records the interior angle alpha = pi - dist(u1, u2).  Callers that
    construct the poles from a known angle may pass ``angle`` to keep it
    exact instead of recovering it through arccos; a stated angle must
    agree with the poles.  Antipodal poles (empty interior) are rejected.
    """
    u1 = unit_vector(u1, tol=1e-9)
    u2 = u1.copy() if u2 is None else unit_vector(u2, tol=1e-9)
    dist = float(geodesic_distance(u1, u2))
    if dist >= math.pi - 1e-12:
        raise BodyError("antipodal lune poles give an empty interior")
    if angle is None:
        angle = math.pi - dist
    elif not abs(angle - (math.pi - dist)) <= 1e-7:  # also rejects NaN
        raise BodyError("stated lune angle disagrees with the poles")
    return make_body(n, h_normals=np.vstack([u1, u2]), lune_angle=angle,
                     tag=tag)


def make_lune_from_angle(n, angle, plane, theta0=0.0, tag="lune"):
    """Lune of interior angle ``angle`` as an angular sector in a 2-plane.

    ``plane`` is an orthonormal pair (p, q) spanning the complement of the
    ridge; the lune covers sector directions [theta0, theta0+angle].
    """
    if not 0.0 < angle <= math.pi:
        raise BodyError(f"lune angle must lie in (0, pi], got {angle}")
    p, q = (unit_vector(v, tol=1e-9) for v in plane)

    def direction(t):
        return math.cos(t) * p + math.sin(t) * q

    u1 = -direction(theta0 + math.pi / 2.0)
    u2 = -direction(theta0 + angle - math.pi / 2.0)
    return make_lune(n, u1, u2, tag=tag, angle=angle)


def intersect_with_hemisphere(body, cap):
    """Intersect with a closed hemisphere (cap of radius pi/2).

    Appends the constraint <-center, x> <= 0 and reconverts; an
    empty-interior result is flagged, not rejected.
    """
    if not isinstance(cap, SphericalCap) or abs(cap.radius - math.pi / 2.0) > 1e-12:
        raise BodyError("expected a cap of radius pi/2")
    if np.max(body.v_generators @ -cap.center) <= CONTAIN_TOL:
        # Constraint is redundant: the body already lies in the hemisphere.
        return body
    H = np.vstack([body.h_normals, -cap.center])
    return make_body(body.n, h_normals=H, tag=f"{body.tag}&hemi")
