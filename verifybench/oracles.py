"""Independent closed forms and report checks for the benchmark's verdicts.

Nothing here calls into sphereplanks: every expected value is a closed
form (sphere and cap areas, lune and octant measures, Girard areas of
spherical polygons, the hemisphere averages C(R, f)) or the rule a report
states for its own verdict.

Monte Carlo values are compared with their closed form at ``BAND``
standard errors.  The program's own verdicts use 3 sigma, which a correct
estimate exceeds 0.27% of the time; at that band the benchmark would flag
a correct program in roughly one run in twenty.  A verdict that fails is
therefore counted right only when its own numbers violate its stated rule
and those numbers still agree with the closed form.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import nnls
from scipy.spatial import ConvexHull

BAND = 5.0
EXACT = 1e-12


def sphere_area(n):
    """sigma_n, the surface measure of S^n."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def cap_area(n, rho):
    """Measure of a cap of radius rho in S^n, n = 2, 3, 4."""
    c = math.cos(rho)
    if n == 2:
        return 2.0 * math.pi * (1.0 - c)
    if n == 3:
        return math.pi * (2.0 * rho - math.sin(2.0 * rho))
    if n == 4:
        return 2.0 * math.pi ** 2 * (2.0 / 3.0 - c + c ** 3 / 3.0)
    raise ValueError(f"no closed-form cap area for n = {n}")


def cap_mean_width(n, rho):
    """U(cap of radius rho): half the measure of u whose u-perp meets it."""
    return sphere_area(n) / 2.0 - cap_area(n, math.pi / 2.0 - rho)


def lune_volume(n, alpha):
    return sphere_area(n) / math.pi * alpha / 2.0


def octant_volume(n):
    return sphere_area(n) / 2 ** (n + 1)


def octant_mean_width(n):
    # Identity (2.1) with the polar of the octant being the opposite octant.
    return sphere_area(n) / 2.0 - octant_volume(n)


def octant_inradius(n):
    return math.asin(1.0 / math.sqrt(n + 1))


def min_norm_point(points):
    """Min-norm point of conv(points), by NNLS with the simplex constraint
    as a heavily weighted extra row (the package uses Wolfe's algorithm,
    so this is a second algorithm)."""
    P = np.asarray(points, dtype=float)
    weight = 1e3
    A = np.vstack([P.T, np.full(P.shape[0], weight)])
    b = np.zeros(P.shape[1] + 1)
    b[-1] = weight
    lam, _ = nnls(A, b)
    return P.T @ (lam / lam.sum())


def inradius(h_normals):
    p = min_norm_point(-np.asarray(h_normals))
    return math.asin(min(1.0, float(np.linalg.norm(p))))


def circumradius(v_generators):
    return math.acos(min(1.0, float(np.linalg.norm(
        min_norm_point(v_generators)))))


RADIUS_TOL = 1e-8


def girard_area(points):
    """Area of the spherical convex hull of unit vectors in S^2.

    The points are ordered by a planar hull of their gnomonic images at
    the hull's circumcenter, and the polygon is summed as a fan of
    triangles around it, each by the Van Oosterom-Strackee formula.
    """
    P = np.asarray(points, dtype=float)
    c = min_norm_point(P)
    c /= np.linalg.norm(c)
    if np.min(P @ c) <= 1e-9:
        raise ValueError("points are not inside an open hemisphere")
    _, _, Vt = np.linalg.svd(c[None, :])
    flat = (P / (P @ c)[:, None]) @ Vt[1:].T
    ring = P[ConvexHull(flat).vertices]
    total = 0.0
    for a, b in zip(ring, np.roll(ring, -1, axis=0)):
        num = abs(float(np.dot(c, np.cross(a, b))))
        den = 1.0 + float(c @ a + a @ b + b @ c)
        total += 2.0 * math.atan2(num, den)
    return total


def hemisphere_average(R, weight, n):
    """C(R, f) for the constant and the spherical weight, n = 2, 3."""
    if weight == "constant":
        return {2: 2.0 * R / math.pi, 3: R / 2.0}[n]
    if weight == "spherical":
        return {2: 2.0 / math.pi * math.atan(R), 3: math.atan(R) / 2.0}[n]
    raise ValueError(f"unknown weight {weight!r}")


# ---------------------------------------------------------------------------
# Report checks.  Each returns a list of problems; empty means right.
# ---------------------------------------------------------------------------

def near(label, value, expected, stderr, problems, band=BAND):
    """``value`` within ``band`` standard errors of ``expected``."""
    tol = band * stderr + EXACT * max(1.0, abs(expected))
    if not abs(value - expected) <= tol:
        problems.append(f"{label}: {value!r} vs closed form {expected!r} "
                        f"(|diff| {abs(value - expected):.3e} > {tol:.3e})")


def within(label, value, lo, hi, stderr, problems, band=BAND):
    """``value`` inside [lo, hi] widened by ``band`` standard errors."""
    slack = band * stderr + EXACT * max(1.0, abs(hi))
    if not lo - slack <= value <= hi + slack:
        problems.append(f"{label}: {value!r} outside [{lo!r}, {hi!r}] "
                        f"+- {slack:.3e}")


def close(label, value, expected, tol, problems):
    if not abs(value - expected) <= tol:
        problems.append(f"{label}: {value!r} vs {expected!r} "
                        f"(|diff| {abs(value - expected):.3e} > {tol:.1e})")


def exit_matches(code, passed, problems):
    if code != (0 if passed else 1):
        problems.append(f"exit code {code} for pass={passed}")


def rule_holds(report):
    """Re-apply the rule a verification report states for its verdict."""
    claim = report["claim"]
    lhs, rhs = report["lhs"], report["rhs"]
    slack, tol = report["slack"], report["tolerance"]
    if claim == "volume_inradius_bound":
        return lhs - tol <= rhs
    if claim in ("polar_width_identity", "gnomonic_consistency"):
        return abs(slack + abs(lhs - rhs)) <= EXACT * max(1.0, abs(lhs)) \
            and slack >= -tol
    if claim == "vertex_average_inequality":
        return lhs + tol >= rhs
    if claim == "segment_minimizes_uf":
        return slack >= 0.0 and \
            abs(report["segment_value"] - report["bound"]) <= tol
    raise ValueError(f"no rule for claim {claim!r}")


def verdict_follows(report, code, problems):
    """The verdict follows from the report's numbers, and the exit code
    from the verdict."""
    exit_matches(code, report["pass"], problems)
    if rule_holds(report) != report["pass"]:
        problems.append(f"{report['claim']}: pass={report['pass']} "
                        f"contradicts its own rule")
