"""Coverings of large spherical balls, lune fans, and the sum-of-inradii
bound.

A lune fan slices the sphere into lunes around a common ridge; its
inradius sum is pi in exact angle arithmetic, which is the equality case
of the covering bound.  Perturbed (widened) fans give overlapping covers
whose slack is exactly half the added angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bodies as bd
from .measure import VerificationReport, mc_map
from .sphere import (SphericalCap, geodesic_distance, sample_uniform_cap,
                     sample_uniform_sphere)

ANGLE_TOL = 1e-12
RADIUS_TOL = 1e-7


class CoveringError(ValueError):
    """The covering hypothesis failed; the bound is not claimed."""


@dataclass(frozen=True)
class LuneFan:
    """Lunes with common ridge, given by boundary angles in the plane
    orthogonal to the ridge.  Gap i spans [theta_{i-1}, theta_i]."""

    ridge_basis: np.ndarray  # (n-1, n+1)
    plane_basis: np.ndarray  # (2, n+1)
    boundary_angles: np.ndarray  # (m+1,), strictly increasing, span 2 pi
    widen: np.ndarray | None = None  # per-lune added angle

    @property
    def gaps(self):
        return np.diff(self.boundary_angles)

    def inradius_sum(self):
        """Exact angle arithmetic: sum of half the (possibly widened)
        dihedral angles."""
        extra = 0.0 if self.widen is None else math.fsum(self.widen)
        return (math.fsum(self.gaps) + extra) / 2.0


@dataclass(frozen=True)
class CoveringInstance:
    B: SphericalCap
    bodies: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.B.radius < math.pi / 2.0 - ANGLE_TOL:
            raise ValueError("covering instances require r(B) >= pi/2")


def default_ridge_frame(n):
    """Plane = first two coordinate axes, ridge = the remaining axes."""
    d = n + 1
    eye = np.eye(d)
    return eye[2:], eye[:2]


def make_lune_fan(n, boundary_angles, ridge_frame=None, widen=None,
                  ball=None):
    """Fan of lunes covering S^n (or the ball ``ball`` if given).

    ``boundary_angles`` must be strictly increasing with total span 2 pi
    and every gap at most pi.  ``widen`` adds the given angle to each lune
    symmetrically, producing an overlapping cover.
    """
    angles = np.asarray(boundary_angles, dtype=float)
    gaps = np.diff(angles)
    if np.any(gaps <= 0.0):
        raise ValueError("boundary angles must be strictly increasing")
    if abs(angles[-1] - angles[0] - 2.0 * math.pi) > ANGLE_TOL:
        raise ValueError("boundary angles must span exactly 2 pi")
    if np.any(gaps > math.pi + ANGLE_TOL):
        raise ValueError("each lune must lie in a hemisphere (gap <= pi)")

    ridge_basis, plane_basis = (default_ridge_frame(n) if ridge_frame is None
                                else ridge_frame)
    if widen is not None:
        widen = np.broadcast_to(np.asarray(widen, dtype=float),
                                gaps.shape).copy()
        if np.any(gaps + widen > math.pi + ANGLE_TOL):
            raise ValueError("widened lune exceeds a hemisphere")
        if np.any(widen < 0.0):
            raise ValueError("widening must be nonnegative")

    p, q = plane_basis
    lunes = []
    for i, gap in enumerate(gaps):
        extra = 0.0 if widen is None else widen[i]
        theta0 = angles[i] - extra / 2.0
        lunes.append(bd.make_lune_from_angle(
            n, min(gap + extra, math.pi), (p, q), theta0=theta0,
            tag=f"fan-lune-{i}"))

    fan = LuneFan(ridge_basis=ridge_basis, plane_basis=plane_basis,
                  boundary_angles=angles, widen=widen)
    B = ball if ball is not None else SphericalCap(center=p, radius=math.pi)
    kind = "lune-fan" if widen is None else "perturbed-fan"
    return CoveringInstance(B=B, bodies=lunes,
                            metadata={"construction": kind, "fan": fan})


def make_hemisphere_fan(n, boundary_angles, ridge_frame=None, widen=None):
    """Overlapping lune cover of a hemisphere.

    ``boundary_angles`` subdivide [0, pi]; lune i spans
    [theta_{i-1}, theta_i + widen_i] with everything kept inside [0, pi],
    so each lune is contained in the hemisphere B = {<q, x> >= 0}.
    """
    angles = np.asarray(boundary_angles, dtype=float)
    gaps = np.diff(angles)
    if np.any(gaps <= 0.0) or abs(angles[0]) > ANGLE_TOL \
            or abs(angles[-1] - math.pi) > ANGLE_TOL:
        raise ValueError("boundary angles must increase from 0 to pi")
    ridge_basis, plane_basis = (default_ridge_frame(n) if ridge_frame is None
                                else ridge_frame)
    p, q = plane_basis
    m = gaps.shape[0]
    if widen is not None:
        widen = np.broadcast_to(np.asarray(widen, dtype=float), (m,)).copy()
    lunes = []
    for i, gap in enumerate(gaps):
        extra = 0.0 if widen is None else widen[i]
        lo = max(0.0, angles[i] - extra / 2.0)
        hi = min(math.pi, angles[i + 1] + extra / 2.0)
        lunes.append(bd.make_lune_from_angle(n, hi - lo, (p, q), theta0=lo,
                                             tag=f"hemifan-lune-{i}"))
    fan = LuneFan(ridge_basis=ridge_basis, plane_basis=plane_basis,
                  boundary_angles=angles, widen=widen)
    B = SphericalCap(center=q, radius=math.pi / 2.0)
    inst = CoveringInstance(B=B, bodies=lunes,
                            metadata={"construction": "hemisphere-fan",
                                      "fan": fan})
    return inst


def fan_covering_certificate(inst):
    """Deterministic cover check for fan instances: the lune angle
    intervals must cover the full circle (or [0, pi] for hemisphere fans)
    in exact interval arithmetic."""
    fan = inst.metadata.get("fan")
    if fan is None:
        return None
    construction = inst.metadata.get("construction")
    angles = fan.boundary_angles
    if construction == "hemisphere-fan":
        return abs(angles[0]) <= ANGLE_TOL and \
            abs(angles[-1] - math.pi) <= ANGLE_TOL
    return abs(angles[-1] - angles[0] - 2.0 * math.pi) <= ANGLE_TOL


def _uncovered(bodies, pts, covered):
    """Mask of ``pts`` outside every body and outside ``covered`` (updated)."""
    for body in bodies:
        covered |= np.asarray(bd.contains(body, pts))
        if np.all(covered):
            break
    return ~covered


def check_covering(inst, samples=100_000, seed=0, threads=1):
    """Probabilistic covering certificate: every point sampled uniformly in
    B must lie in some body; up to 10 uncovered witnesses are reported."""
    def draw(rng, size):
        pts = sample_uniform_cap(inst.B, rng, size=size)
        return pts[_uncovered(inst.bodies, pts, np.zeros(size, dtype=bool))]

    missed = np.concatenate(mc_map(draw, samples, seed, threads))
    n_missed = missed.shape[0]
    cert = fan_covering_certificate(inst)
    return VerificationReport(
        claim="covering",
        lhs=float(samples - n_missed), rhs=float(samples),
        slack=-float(n_missed), tolerance=0.0,
        tolerance_rule="every sampled point of B lies in some body",
        passed=n_missed == 0,
        details={"witnesses": missed[:10].tolist(), "seed": seed,
                 "samples": samples, "fan_certificate": cert},
    )


def _body_inradius(body):
    """Exact angle arithmetic for tagged lunes, solver otherwise."""
    if body.lune is not None:
        return body.lune.inradius
    return bd.inradius(body).inradius


def verify_thm1(inst, samples=100_000, seed=0, threads=1):
    """Covering bound: sum of inradii >= r(B).

    For r(B) = pi/2 the stronger sum over the intersections with B is
    checked as well.  Refuses instances that fail the covering check.
    """
    cov = check_covering(inst, samples=samples, seed=seed, threads=threads)
    if not cov.passed:
        raise CoveringError(
            f"covering check failed with {-cov.slack:.0f} uncovered samples")
    r_B = inst.B.radius
    radii = [_body_inradius(b) for b in inst.bodies]
    total = math.fsum(radii)
    details = {"inradii": radii, "r_B": r_B, "seed": seed,
               "samples": samples}

    passed = total >= r_B - RADIUS_TOL
    if abs(r_B - math.pi / 2.0) <= ANGLE_TOL:
        strong = []
        for b in inst.bodies:
            cut = bd.intersect_with_hemisphere(b, inst.B)
            strong.append(_body_inradius(cut) if cut.is_body else 0.0)
        strong_total = math.fsum(strong)
        details["strong_inradii"] = strong
        details["strong_sum"] = strong_total
        passed = passed and strong_total >= r_B - RADIUS_TOL
    return VerificationReport(
        claim="covering_inradius_bound",
        lhs=total, rhs=r_B, slack=total - r_B, tolerance=RADIUS_TOL,
        tolerance_rule="sum of inradii >= r(B) - 1e-7 "
                       "(and the intersected sum when r(B) = pi/2)",
        passed=passed,
        details=details,
    )


def verify_antipodal_argument(inst, samples=100_000, seed=0, threads=1):
    """Re-derive the bound through the antipodal ball.

    B' is the cap of radius pi - r(B) at the antipode of B's center; with
    the bodies it covers the whole sphere, and the rearranged inequality
    pi - r(B) + sum r(K_i) >= pi must agree with the direct route.
    """
    r_B = inst.B.radius
    if r_B >= math.pi - ANGLE_TOL:
        return VerificationReport(
            claim="antipodal_ball_route",
            lhs=0.0, rhs=0.0, slack=0.0, tolerance=0.0,
            tolerance_rule="skipped: B' degenerates to a point for r(B) = pi",
            passed=True,
            details={"skipped": True, "r_B": r_B},
        )
    n = inst.B.n
    anti = SphericalCap(center=-inst.B.center, radius=math.pi - r_B)

    def draw(rng, size):
        pts = sample_uniform_sphere(n, rng, size=size)
        near = geodesic_distance(pts, anti.center) <= anti.radius + 1e-12
        return int(np.count_nonzero(_uncovered(inst.bodies, pts, near)))

    n_missed = sum(mc_map(draw, samples, seed, threads))

    total = math.fsum(_body_inradius(b) for b in inst.bodies)
    direct_slack = total - r_B
    rearranged_slack = (math.pi - r_B + total) - math.pi
    agree = abs(direct_slack - rearranged_slack) <= 1e-9
    passed = n_missed == 0 and agree and rearranged_slack >= -RADIUS_TOL
    return VerificationReport(
        claim="antipodal_ball_route",
        lhs=direct_slack, rhs=rearranged_slack,
        slack=direct_slack, tolerance=1e-9,
        tolerance_rule="B' plus the bodies cover S^n; both inequality "
                       "routes agree to 1e-9",
        passed=passed,
        details={"uncovered": n_missed, "antipodal_radius": anti.radius,
                 "seed": seed, "samples": samples},
    )
