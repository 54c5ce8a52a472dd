"""Coverings of large spherical balls, lune fans, and the sum-of-inradii
bound.

A lune fan slices the sphere into lunes around a common ridge; its
inradius sum is pi in exact angle arithmetic, which is the equality case
of the covering bound.  Perturbed (widened) fans give overlapping covers
whose slack is exactly half the added angle.

Lunes whose poles lie in the plane of the first two axes share the ridge
orthogonal to it, and each is the set of points whose angle in that plane
lies in a closed arc (points on the ridge lie in every lune).  Such a
cover is decided exactly by sweeping the arcs over the angles B needs;
other covers are refused.  ``check_covering`` samples B as a separate
check and claims no bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bodies as bd
from .cones import MAX_AMBIENT_DIM
from .measure import VerificationReport, mc_map
from .sphere import UNIT_TOL, SphericalCap, sample_uniform_cap

#: Rounding allowed in fan angles, and the seam tolerance of the exact
#: cover rule: an angular gap no wider than this is closed.  2^12 ulps of
#: 2 pi (3.6e-12), above the few ulps that summing boundary angles and
#: reading them back from poles cost, and above 2 * bodies.CONTAIN_TOL:
#: the midpoint of a gap g lies sin(g / 2) past the nearest lune's faces,
#: so only a gap wider than 2 * CONTAIN_TOL has a midpoint that
#: ``contains`` rejects.
ANGLE_TOL = 2**12 * math.ulp(2.0 * math.pi)
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
    """Fan of lunes over the strictly increasing ``boundary_angles``, the
    one fan constructor; the angles decide what the fan covers.

    Angles that run from 0 to pi make a hemisphere fan: it covers
    B = {<e_2, x> >= 0}, a ``ball`` given must be that B, and each lune is
    clipped to [0, pi] (``_fan_arcs``), so any finite ``widen`` is allowed.
    Angles that span 2 pi make a fan of S^n, or of ``ball`` if given: each
    gap must be at most pi, and ``widen`` nonnegative with gap + widen at
    most pi.  ``widen`` adds the given angle to each lune symmetrically,
    producing an overlapping cover; a negative one narrows the lunes of a
    hemisphere fan, a planted non-cover that ``verify_thm1`` refuses.
    """
    angles, gaps = _angles(boundary_angles)
    if np.any(gaps <= 0.0):
        raise ValueError("boundary angles must be strictly increasing")
    p, q = _fan_plane(n)
    widen = _widths(widen, gaps.shape[0])
    if abs(angles[0]) <= ANGLE_TOL and abs(angles[-1] - math.pi) <= ANGLE_TOL:
        B = SphericalCap(center=q, radius=math.pi / 2.0)
        if ball is not None and (ball.radius != B.radius or
                                 not np.array_equal(ball.center, B.center)):
            raise ValueError(
                f"bad ball: a hemisphere fan covers the ball of center "
                f"{B.center.tolist()} and radius {B.radius!r}, the file gives "
                f"center {ball.center.tolist()} and radius {ball.radius!r}")
        kind, tag = "hemisphere-fan", "hemifan-lune"
    else:
        if abs(angles[-1] - angles[0] - 2.0 * math.pi) > ANGLE_TOL:
            raise ValueError(f"boundary angles must run from 0 to pi or span "
                             f"exactly 2 pi, got {angles.tolist()}")
        if np.any(gaps > math.pi + ANGLE_TOL):
            raise ValueError("each lune must lie in a hemisphere (gap <= pi)")
        if widen is not None:
            if np.any(gaps + widen > math.pi + ANGLE_TOL):
                raise ValueError("widened lune exceeds a hemisphere")
            if np.any(widen < 0.0):
                raise ValueError("widening must be nonnegative")
        B = ball if ball is not None else SphericalCap(center=p,
                                                       radius=math.pi)
        kind = "lune-fan" if widen is None else "perturbed-fan"
        tag = "fan-lune"
    meta = {"construction": kind, "boundary_angles": angles, "widen": widen}
    lunes = [bd.make_lune_from_angle(n, width, (p, q), theta0=start,
                                     tag=f"{tag}-{i}")
             for i, (start, width) in enumerate(_fan_arcs(meta))]
    return CoveringInstance(B=B, bodies=lunes, metadata=meta)


def _fan_arcs(meta):
    """(start, width) of each lune's closed arc of fan-plane angles, from a
    fan's ``metadata``: lune i spans [theta_i - w_i / 2, theta_(i+1) +
    w_i / 2], clipped to [0, pi] in a hemisphere fan and to a width of pi
    in the others."""
    angles, widen = meta["boundary_angles"], meta["widen"]
    arcs = []
    for i, gap in enumerate(np.diff(angles)):
        extra = 0.0 if widen is None else widen[i]
        lo = angles[i] - extra / 2.0
        if meta["construction"] == "hemisphere-fan":
            lo = max(0.0, lo)
            arcs.append((lo, min(math.pi, angles[i + 1] + extra / 2.0) - lo))
        else:
            arcs.append((lo, min(gap + extra, math.pi)))
    return arcs


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
    def draw(rng, size):
        pts = sample_uniform_cap(inst.B, rng, size)
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


def _lune_arc(body):
    """(start, width) of the closed arc of fan-plane angles that a lune
    covers, read off its one or two poles: the pole at angle phi keeps the
    half circle [phi + pi/2, phi + 3 pi/2].  Raises ``ValueError`` unless
    ``body`` is a lune whose poles lie in the plane of the first two axes."""
    H = body.h_normals
    if body.lune_angle is None or H.shape[0] > 2 or np.any(H[:, 2:] != 0.0):
        raise ValueError(f"body {body.tag!r} is not a lune with its poles in "
                         f"the fan plane: the cover is not decided")
    ends = np.arctan2(H[[0, -1], 1], H[[0, -1], 0]) + math.pi / 2.0
    s0, s1 = ends.tolist()
    d = (s1 - s0) % (2.0 * math.pi)
    start, width = (s1, math.pi - d) if d <= math.pi else (s0, d - math.pi)
    if abs(width - body.lune_angle) > ANGLE_TOL:
        raise ValueError(f"lune {body.tag!r}: its poles span {width!r} rad "
                         f"but its lune_angle is {float(body.lune_angle)!r}")
    return start, width


def _check_fan_metadata(meta, arcs):
    """Each arc is the one its constructor meant, ``_fan_arcs(meta)``.
    Ends are compared as points of the circle, to ANGLE_TOL."""
    meant = _fan_arcs(meta)
    if len(arcs) != len(meant):
        raise ValueError(f"the fan's metadata lists {len(meant)} "
                         f"lunes, the instance has {len(arcs)} bodies")
    got, want = (np.array([(start, start + width) for start, width in a])
                 for a in (arcs, meant))
    chord = np.hypot(np.cos(got) - np.cos(want), np.sin(got) - np.sin(want))
    bad = np.flatnonzero(np.any(chord > ANGLE_TOL, axis=1))
    if bad.size:
        i = bad[0]
        raise ValueError(f"lune {i} spans {got[i].tolist()} rad, its fan's "
                         f"metadata {want[i].tolist()}")


def _widest_gap(arcs, lo, hi):
    """The widest open stretch (a, b) of [lo, hi] that no arc covers, the
    arcs taken mod 2 pi; a == b when they cover it all."""
    turn = 2.0 * math.pi
    ends = sorted((s + k * turn, s + w + k * turn)
                  for s, w in arcs for k in (-1, 0, 1))
    gap, reach = (lo, lo), lo
    for s, e in ends:
        if min(s, hi) - reach > gap[1] - gap[0]:
            gap = (reach, min(s, hi))
        reach = max(reach, e)
    return (reach, hi) if hi - reach > gap[1] - gap[0] else gap


def _fan_cover(inst):
    """Decide the cover exactly from the lunes' angles; return the rule
    that decided.  Every body must be a lune with its poles in the fan
    plane.

    B needs the closed half circle of angles facing its centre when it is
    a hemisphere centred in the plane, and the whole circle otherwise.  A
    gap wider than ANGLE_TOL raises ``CoveringError`` with a witness, the
    plane's unit vector at the gap's midpoint, once it is checked to lie in
    B and outside every body.  Under other balls the witness may miss B;
    then the cover is not decided and ``ValueError`` is raised.
    """
    arcs = [_lune_arc(body) for body in inst.bodies]
    if "boundary_angles" in inst.metadata:
        _check_fan_metadata(inst.metadata, arcs)
    B = inst.B
    if B.radius == math.pi / 2.0 and np.all(B.center[2:] == 0.0):
        facing = math.atan2(B.center[1], B.center[0])
        lo, hi = facing - math.pi / 2.0, facing + math.pi / 2.0
        rule = "lune angles cover the half circle facing B's centre"
    else:
        lo = min((start for start, _ in arcs), default=0.0)
        hi = lo + 2.0 * math.pi
        rule = "lune angles cover the circle"
    a, b = _widest_gap(arcs, lo, hi)
    if b - a <= ANGLE_TOL:
        return rule
    x = np.zeros(B.n + 1)
    x[:2] = math.cos((a + b) / 2.0), math.sin((a + b) / 2.0)
    if x @ B.center < math.cos(B.radius) - UNIT_TOL or \
            any(bd.contains(body, x) for body in inst.bodies):
        raise ValueError(f"lune angles leave ({a!r}, {b!r}) open, but its "
                         f"witness {x.tolist()} misses B or lies in a body: "
                         f"the cover is not decided")
    raise CoveringError(
        f"lune angles leave ({a!r}, {b!r}) uncovered, a gap of {b - a:.3e} "
        f"rad; witness {x.tolist()} lies in B and in no body")


def verify_thm1(inst, samples=100_000, seed=0):
    """Covering bound: sum of inradii >= r(B).

    For r(B) = pi/2 the stronger sum over the intersections with B is
    checked as well.  The cover is decided exactly by ``_fan_cover``, whose
    rule the report's ``cover_rule`` names; instances that are not covers
    are refused, and so are those it cannot decide.  ``samples`` and
    ``seed`` are not read, only carried in the report.
    """
    rule = _fan_cover(inst)
    r_B = inst.B.radius
    radii = [bd.inradius_value(b) for b in inst.bodies]
    total = math.fsum(radii)
    details = {"inradii": radii, "r_B": r_B, "seed": seed,
               "samples": samples, "cover_rule": rule}

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
    B, which ``verify_thm1`` decided exactly: it returns a report only for
    a cover, so ``uncovered`` is 0.  What is left is the rearranged
    inequality pi - r(B) + sum r(K_i) >= pi.
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
