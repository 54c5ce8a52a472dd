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
from .cones import MAX_AMBIENT_DIM
from .measure import VerificationReport, mc_map
from .sphere import SphericalCap, sample_cap_batches

ANGLE_TOL = 1e-12
RADIUS_TOL = 1e-7


class CoveringError(ValueError):
    """The covering hypothesis failed; the bound is not claimed."""


@dataclass(frozen=True, eq=False)
class CoveringInstance:
    """Bodies meant to cover the ball ``B``.  A fan's ``metadata`` holds
    its ``construction`` (the fan file's kind), its ``boundary_angles``
    and its per-lune ``widen`` (None when not widened)."""

    B: SphericalCap
    bodies: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.B.radius < math.pi / 2.0 - ANGLE_TOL:
            raise ValueError("covering instances require r(B) >= pi/2")


def make_lune_fan(n, boundary_angles, widen=None, ball=None):
    """Fan of lunes covering S^n (or the ball ``ball`` if given).

    ``boundary_angles`` must be strictly increasing with total span 2 pi
    and every gap at most pi.  ``widen`` adds the given angle to each lune
    symmetrically, producing an overlapping cover.
    """
    angles, gaps = _angles(boundary_angles)
    if np.any(gaps <= 0.0):
        raise ValueError("boundary angles must be strictly increasing")
    if abs(angles[-1] - angles[0] - 2.0 * math.pi) > ANGLE_TOL:
        raise ValueError("boundary angles must span exactly 2 pi")
    if np.any(gaps > math.pi + ANGLE_TOL):
        raise ValueError("each lune must lie in a hemisphere (gap <= pi)")
    p, q = _fan_plane(n)

    widen = _widths(widen, gaps.shape[0])
    if widen is not None:
        if np.any(gaps + widen > math.pi + ANGLE_TOL):
            raise ValueError("widened lune exceeds a hemisphere")
        if np.any(widen < 0.0):
            raise ValueError("widening must be nonnegative")

    lunes = []
    for i, gap in enumerate(gaps):
        extra = 0.0 if widen is None else widen[i]
        theta0 = angles[i] - extra / 2.0
        lunes.append(bd.make_lune_from_angle(
            n, min(gap + extra, math.pi), (p, q), theta0=theta0,
            tag=f"fan-lune-{i}"))

    B = ball if ball is not None else SphericalCap(center=p, radius=math.pi)
    kind = "lune-fan" if widen is None else "perturbed-fan"
    return CoveringInstance(B=B, bodies=lunes, metadata={
        "construction": kind, "boundary_angles": angles, "widen": widen})


def make_hemisphere_fan(n, boundary_angles, widen=None):
    """Overlapping lune cover of a hemisphere.

    ``boundary_angles`` theta_0 = 0 < ... < theta_m = pi subdivide [0, pi];
    lune i spans [theta_i - widen_i / 2, theta_(i+1) + widen_i / 2] clipped
    to [0, pi], so it lies in the hemisphere B = {<q, x> >= 0}.
    """
    angles, gaps = _angles(boundary_angles)
    if np.any(gaps <= 0.0) or abs(angles[0]) > ANGLE_TOL \
            or abs(angles[-1] - math.pi) > ANGLE_TOL:
        raise ValueError("boundary angles must increase from 0 to pi")
    p, q = _fan_plane(n)
    widen = _widths(widen, gaps.shape[0])
    lunes = []
    for i, gap in enumerate(gaps):
        extra = 0.0 if widen is None else widen[i]
        lo = max(0.0, angles[i] - extra / 2.0)
        hi = min(math.pi, angles[i + 1] + extra / 2.0)
        lunes.append(bd.make_lune_from_angle(n, hi - lo, (p, q), theta0=lo,
                                             tag=f"hemifan-lune-{i}"))
    B = SphericalCap(center=q, radius=math.pi / 2.0)
    return CoveringInstance(B=B, bodies=lunes, metadata={
        "construction": "hemisphere-fan", "boundary_angles": angles,
        "widen": widen})


def _angles(boundary_angles):
    angles = np.asarray(boundary_angles, dtype=float)
    if angles.size < 2:
        raise ValueError("a fan needs at least two boundary angles")
    # A comparison with NaN is False, so no later check would refuse it.
    if not np.all(np.isfinite(angles)):
        raise ValueError(f"boundary angles must be finite, got "
                         f"{angles.tolist()}")
    return angles, np.diff(angles)


def _fan_plane(n):
    """The plane of the first two axes, whose sectors are a fan's lunes.
    Lunes are converted to generators, so S^n must fit cone conversion;
    checked before anything of size n is built."""
    if not 1 <= n < MAX_AMBIENT_DIM:
        raise ValueError(f"fans need a dimension from 1 to "
                         f"{MAX_AMBIENT_DIM - 1}, got {n}")
    return np.eye(n + 1)[:2]


def _widths(widen, m):
    """``widen`` as one finite added angle per lune of ``m``, or None."""
    if widen is not None:
        widen = np.broadcast_to(np.asarray(widen, dtype=float), (m,)).copy()
        if not np.all(np.isfinite(widen)):
            raise ValueError(f"widening must be finite, got {widen.tolist()}")
    return widen


def check_covering(inst, samples=100_000, seed=0, threads=1):
    """Covering check by sampling: every point sampled uniformly in B must
    lie in some body; up to 10 uncovered witnesses are reported.  Nothing
    here is exact: a gap smaller than the sample spacing can pass."""
    def draw(rngs, sizes):
        pts = sample_cap_batches(inst.B, rngs, sizes)
        covered = np.zeros(pts.shape[0], dtype=bool)
        for body in inst.bodies:
            covered |= np.asarray(bd.contains(body, pts))
            if np.all(covered):
                break
        return pts[~covered]

    missed = np.concatenate(mc_map(draw, samples, seed, threads))
    n_missed = missed.shape[0]
    return VerificationReport(
        claim="covering",
        lhs=float(samples - n_missed), rhs=float(samples),
        slack=-float(n_missed), tolerance=0.0,
        tolerance_rule="every sampled point of B lies in some body",
        passed=n_missed == 0,
        details={"witnesses": missed[:10].tolist(), "seed": seed,
                 "samples": samples},
    )


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
    radii = [bd.inradius_value(b) for b in inst.bodies]
    total = math.fsum(radii)
    details = {"inradii": radii, "r_B": r_B, "seed": seed,
               "samples": samples}

    passed = total >= r_B - RADIUS_TOL
    if abs(r_B - math.pi / 2.0) <= ANGLE_TOL:
        strong = []
        for b in inst.bodies:
            cut = bd.intersect_with_hemisphere(b, inst.B)
            strong.append(bd.inradius_value(cut) if cut.is_body else 0.0)
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


def verify_antipodal_argument(thm1):
    """Re-derive the bound through the antipodal ball, from the report
    ``thm1`` that ``verify_thm1`` returned for the same instance.

    B' is the cap of radius pi - r(B) at the antipode of B's center.  Since
    S^n \\ B lies in B', B' and the bodies cover S^n once the bodies cover
    B, which ``verify_thm1`` checked: it raises CoveringError on any
    uncovered sample, so ``uncovered`` is 0.  What is left is the
    rearranged inequality pi - r(B) + sum r(K_i) >= pi.
    """
    total, r_B = thm1.lhs, thm1.rhs
    provenance = {k: thm1.details[k] for k in ("seed", "samples")}
    if r_B >= math.pi - ANGLE_TOL:
        return VerificationReport(
            claim="antipodal_ball_route",
            lhs=0.0, rhs=0.0, slack=0.0, tolerance=0.0,
            tolerance_rule="skipped: B' degenerates to a point for r(B) = pi",
            passed=True,
            details={"skipped": True, "r_B": r_B, **provenance},
        )
    rearranged_slack = (math.pi - r_B + total) - math.pi
    return VerificationReport(
        claim="antipodal_ball_route",
        lhs=thm1.slack, rhs=rearranged_slack,
        slack=thm1.slack, tolerance=1e-9,
        tolerance_rule="B' plus the bodies cover S^n; both inequality "
                       "routes agree to 1e-9",
        passed=rearranged_slack >= -RADIUS_TOL,
        details={"uncovered": 0, "antipodal_radius": math.pi - r_B,
                 **provenance},
    )
