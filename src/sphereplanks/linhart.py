"""Machinery behind the segment-minimizer result for U_f on K(B).

Inscribed simplices with vertices on the boundary of a centered ball B,
their spherical images (normal cones intersected with the direction
sphere), the hemisphere average C(R, f) of g(phi) = F(R cos phi), the
vertex-average inequality that compares the two, and a randomized search
confirming that the diameter segment minimizes U_f over K(B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gnomonic import QUAD_TOL, EuclideanPolytope, WeightFunction, uf
from .measure import VerificationReport, mc_map, three_sigma
from .sphere import (graded, integrate, make_stream, sample_sphere_batches,
                     sample_uniform_sphere, sphere_area)

SEB_TOL = 1e-10
#: Tolerance, relative to R, of the checks that a simplex lies in B.
BALL_TOL = 1e-9
#: Largest R: (2R)^2 and sums of squares of 1e6 R-sized values are finite.
MAX_RADIUS = 1e150


# ---------------------------------------------------------------------------
# Smallest enclosing ball (Welzl)
# ---------------------------------------------------------------------------

def smallest_enclosing_ball(points):
    """Exact smallest enclosing ball by Welzl's recursive method.

    Returns ``(center, radius)``.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if P.shape[0] == 0:
        raise ValueError("empty point list")
    d = P.shape[1]
    order = np.arange(P.shape[0])
    np.random.default_rng(1234).shuffle(order)  # deterministic shuffle
    scale = float(np.max(np.abs(P))) ** 2
    c, r2 = _welzl([P[i] for i in order], [], d, SEB_TOL * scale)
    return c, math.sqrt(max(0.0, r2))


def _welzl(P, R, d, tol):
    if not P or len(R) == d + 1:
        return _ball_from(R, d)
    p = P[0]
    ball = _welzl(P[1:], R, d, tol)
    c, r2 = ball
    if c is not None and np.sum((p - c) ** 2) <= r2 + tol:
        return ball
    return _welzl(P[1:], R + [p], d, tol)


def _ball_from(R, d):
    if not R:
        return None, -1.0
    S = np.array(R)
    p0 = S[0]
    if S.shape[0] == 1:
        return p0, 0.0
    A = S[1:] - p0
    b = 0.5 * np.sum(A * A, axis=1)
    # Circumcenter within the affine hull: c = p0 + A^T y.
    M = A @ A.T
    try:
        y = np.linalg.solve(M, b)
    except np.linalg.LinAlgError:
        y, *_ = np.linalg.lstsq(M, b, rcond=None)
    c = p0 + A.T @ y
    return c, float(np.sum((p0 - c) ** 2))


# ---------------------------------------------------------------------------
# Inscribed simplices and spherical images
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplexInBall:
    """k-simplex with vertices on the boundary sphere of the centered ball
    of radius R, whose smallest enclosing ball is that ball."""

    R: float
    vertices: np.ndarray  # (k+1, n)

    @property
    def k(self):
        return self.vertices.shape[0] - 1

    @property
    def n(self):
        return self.vertices.shape[1]


def make_simplex(R, vertices):
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    norms = np.linalg.norm(V, axis=1)
    tol = BALL_TOL * R
    if np.any(np.abs(norms - R) > tol):
        raise ValueError("all vertices must lie on the boundary sphere")
    diffs = V[1:] - V[0]
    if diffs.shape[0] and np.linalg.matrix_rank(diffs, tol=tol) != diffs.shape[0]:
        raise ValueError("vertices must be affinely independent")
    _check_enclosing_ball(V, R)
    return SimplexInBall(R=float(R), vertices=V)


def _check_enclosing_ball(V, R):
    """Refuse points whose smallest enclosing ball is not B, to BALL_TOL R."""
    c, r = smallest_enclosing_ball(V)
    if np.linalg.norm(c) > BALL_TOL * R or abs(r - R) > BALL_TOL * R:
        raise ValueError("smallest enclosing ball of the vertices is not B")


def _check_ball(R, n):
    """Refuse n < 1, R <= 0, R > MAX_RADIUS, or R^2 not a normal float."""
    if not (np.finfo(float).tiny <= float(R) * float(R) < math.inf
            and R > 0.0 and n >= 1):
        raise ValueError(f"need radius R > 0 and dimension n >= 1, with R^2 "
                         f"a normal float, got R = {R}, n = {n}")
    if R > MAX_RADIUS:
        raise ValueError(f"need R <= {MAX_RADIUS:g}, got R = {R}, n = {n}")


def segment_simplex(R, n):
    """The diameter segment: the unique minimizer shape."""
    _check_ball(R, n)
    V = np.zeros((2, n))
    V[0, 0] = R
    V[1, 0] = -R
    return make_simplex(R, V)


def regular_triangle(R):
    _check_ball(R, 2)
    ang = [0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0]
    V = R * np.array([[math.cos(a), math.sin(a)] for a in ang])
    return make_simplex(R, V)


def random_simplex(R, n, rng, k=None):
    """Random inscribed simplex whose enclosing ball is exactly B.

    Half the time an antipodal diameter pair is forced in (which pins the
    enclosing ball); otherwise boundary points are resampled until the
    enclosing-ball check passes.
    """
    _check_ball(R, n)
    k = int(rng.integers(1, n + 1)) if k is None else k
    for _ in range(200):
        if rng.random() < 0.5 or k == 1:
            p = R * sample_uniform_sphere(n - 1, rng)
            extra = R * sample_uniform_sphere(n - 1, rng, size=k - 1)
            V = np.vstack([p, -p, extra])[: k + 1]
        else:
            V = R * sample_uniform_sphere(n - 1, rng, size=k + 1)
        try:
            return make_simplex(R, V)
        except ValueError:
            continue
    raise ValueError(f"no inscribed simplex found for R = {R}, n = {n}")


def normal_cone_membership(s, j, u):
    """True iff u lies in the normal cone of the simplex at vertex j,
    i.e. <u, v_i - v_j> <= 1e-12 R for all i.  ``u`` may be a batch."""
    if not 0 <= j <= s.k:
        raise IndexError(f"vertex index {j} out of range")
    u = np.asarray(u, dtype=float)
    diffs = s.vertices - s.vertices[j]
    return np.max(diffs @ u.T, axis=0) <= 1e-12 * s.R


# ---------------------------------------------------------------------------
# The constant C(R, f) and the vertex-average inequality
# ---------------------------------------------------------------------------

def constant_C(R, w, n):
    """Hemisphere average of g(phi) = F(R cos phi):

        C = int_0^{pi/2} F(R cos phi) sin^{n-2} phi dphi
            / int_0^{pi/2} sin^{n-2} phi dphi
    """
    _check_ball(R, n)
    # F(R cos phi) has a layer about 1/R wide at phi = pi/2.
    ends = np.unique(np.clip(np.concatenate(
        [[0.0, math.pi / 2.0], graded(math.pi / 2.0, math.pi / 2.0, R)]),
        0.0, math.pi / 2.0))
    top = math.fsum(
        integrate(lambda phi: w.F(R * np.cos(phi)) * np.sin(phi) ** (n - 2),
                  a, b) for a, b in zip(ends[:-1], ends[1:]))
    bot = integrate(lambda phi: np.sin(phi) ** (n - 2), 0.0, math.pi / 2.0)
    return top / bot


def uf_lower_bound(R, w, n):
    """The proven minimum of U_f over K(B): mu(S^{n-1}) * C(R, f)."""
    return sphere_area(n - 1) * constant_C(R, w, n)


def _images(s, vertices, samples, seed, threads, reduce):
    """``[[reduce(dirs, a, keep) for each vertex j in vertices] for each
    chunk]`` of one ``mc_map`` draw of directions ``dirs``, with heights
    a = dirs @ ej, ej = v_j / R, and ``keep`` marking the directions whose
    fold sign(a) dirs onto the half-sphere D_j lies in S_j.

    The normal cones partition the sphere, so one draw serves every
    vertex.  A fold lies in S_j when a_j is the largest height (a_j >= 0)
    or the smallest (a_j < 0), to 1e-12: ``normal_cone_membership``'s
    test in units of R.
    """
    E = s.vertices / s.R

    def draw(rngs, sizes):
        dirs = sample_sphere_batches(s.n - 1, rngs, sizes)
        heights = np.stack([dirs @ ej for ej in E])
        hi = heights.max(axis=0) - 1e-12
        lo = heights.min(axis=0) + 1e-12
        out = []
        for j in vertices:
            a = heights[j]
            up = a >= 0.0
            out.append(reduce(dirs, a, (up & (a >= hi)) | (~up & (a <= lo))))
        return out

    return mc_map(draw, samples, seed, threads)


def sample_spherical_image(s, j, samples, seed, threads=1):
    """Directions uniform in S_j, by rejection from the half-sphere D_j.

    Returns ``(accepted, n_halfsphere)``; the acceptance fraction estimates
    mu(S_j) / mu(D_j), and the accepted samples feed the g-average, so both
    estimates share the same draws.
    """
    def folded(dirs, a, keep):
        return np.compress(keep, dirs * np.where(a >= 0.0, 1.0, -1.0)[:, None],
                           axis=0)

    chunks = _images(s, [j], samples, seed, threads, folded)
    return np.concatenate([c[0] for c in chunks]), samples


def check_vertex_averages(s, w, samples=200_000, seed=0, threads=1,
                          vertices=None):
    """``check_7_1`` at every vertex in ``vertices`` (default: all), from
    one draw of ``samples`` directions.

    Each vertex's report is the one ``check_7_1`` gives at the same seed;
    the estimates of different vertices share the draw, and so are
    correlated, but no verdict combines them.
    """
    vertices = range(s.k + 1) if vertices is None else vertices
    # Each chunk keeps only the heights |a| of each vertex's folds.
    chunks = _images(s, vertices, samples, seed, threads,
                     lambda dirs, a, keep: np.abs(np.compress(keep, a)))
    rhs = constant_C(s.R, w, s.n)
    reports = []
    for i, j in enumerate(vertices):
        h = s.R * np.concatenate([c[i] for c in chunks])
        if h.shape[0] == 0:
            raise ValueError("degenerate simplex: empty spherical image "
                             "sample")
        g = np.asarray(w.F(h), dtype=float)
        lhs = float(np.mean(g))
        stderr = float(np.std(g, ddof=1) / math.sqrt(g.shape[0])) if g.shape[0] > 1 else 0.0
        # rhs is exact to QUAD_TOL relative, which outweighs a flat F's stderr.
        sigma = max(stderr, QUAD_TOL * rhs)
        mu_sj = sphere_area(s.n - 1) / 2.0 * h.shape[0] / samples
        reports.append(three_sigma(
            "vertex_average_inequality", lhs, rhs, sigma, ">=",
            "lhs + 3 stderr >= rhs" if sigma == stderr
            else "lhs + 3 QUAD_TOL rhs >= rhs",
            details={"vertex": j, "mu_Sj": mu_sj, "stderr": stderr,
                     "weight": w.kind, "seed": seed, "samples": samples,
                     "accepted": int(h.shape[0])}))
    return reports


def check_7_1(s, j, w, samples=200_000, seed=0, threads=1):
    """Compare the S_j-average of g with the hemisphere average C(R, f).

    The average over the spherical image can only exceed the hemisphere
    average, with equality exactly when S_j is the full half-sphere (the
    segment case).
    """
    return check_vertex_averages(s, w, samples, seed, threads, [j])[0]


# ---------------------------------------------------------------------------
# K(B) instances and the minimality search
# ---------------------------------------------------------------------------

def make_kb_instance(R, vertices):
    """Member of K(B), as the polytope conv(vertices), whose smallest
    enclosing ball must be the centered ball of radius R."""
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    _check_enclosing_ball(V, R)
    return EuclideanPolytope(n=V.shape[1], vertices=V)


def random_kb_instance(R, n, rng):
    """Random member of K(B), with B as its smallest enclosing ball by
    construction: a diametral pair +-p and points inside B, or boundary
    points moved and scaled onto their own smallest enclosing ball."""
    m = int(rng.integers(3, 9))  # 3 to 8 points
    if rng.random() < 0.5:
        p = R * sample_uniform_sphere(n - 1, rng)
        pts = np.vstack([p, -p,
                         R * rng.uniform(0.2, 1.0, size=(m - 2, 1))
                         * sample_uniform_sphere(n - 1, rng, size=m - 2)])
    else:
        pts = R * sample_uniform_sphere(n - 1, rng, size=m)
        c, r = smallest_enclosing_ball(pts)
        pts = (pts - c) * (R / r)
    return EuclideanPolytope(n=n, vertices=pts)


def min_uf_search(R, w, n=2, trials=50, samples=None, seed=0, threads=1):
    """Randomized minimality check: no K(B) instance may fall below the
    diameter segment, and the segment must match the closed-form bound."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    seg = segment_simplex(R, n)
    seg_poly = EuclideanPolytope(n=n, vertices=seg.vertices)
    seg_est = uf(seg_poly, w, samples=samples, seed=seed, threads=threads)
    bound = uf_lower_bound(R, w, n)

    values = []
    min_gap = math.inf
    rng = make_stream(seed, (1,))
    for t in range(trials):
        poly = random_kb_instance(R, n, rng)
        est = uf(poly, w, samples=samples, seed=seed + 2 + t,
                 threads=threads)
        values.append(est.value)
        gap = est.value - (seg_est.value
                           - 3.0 * math.hypot(est.stderr, seg_est.stderr))
        min_gap = min(min_gap, gap)

    sigma = seg_est.stderr
    if n > 2:  # exact: a sample can miss the 1/R-wide layer of F(R |u_1|)
        sq = WeightFunction("square", f=None, F=lambda s: w.F(s) ** 2)
        var = max(0.0, constant_C(R, sq, n) - constant_C(R, w, n) ** 2)
        sigma = sphere_area(n - 1) * math.sqrt(var / seg_est.samples)
    # The bound is a quadrature, exact to QUAD_TOL relative.
    seg_tol = 3.0 * math.hypot(sigma, QUAD_TOL * abs(bound))
    seg_ok = abs(seg_est.value - bound) <= seg_tol
    passed = (min_gap >= 0.0) and seg_ok
    return VerificationReport(
        claim="segment_minimizes_uf",
        lhs=float(min(values)), rhs=seg_est.value,
        slack=min_gap, tolerance=seg_tol,
        tolerance_rule=("every U_f(K) >= U_f(segment) - 3 combined sigma; "
                        "segment matches mu(S^{n-1}) C(R,f)"),
        passed=passed,
        details={"bound": bound, "segment_value": seg_est.value,
                 "segment_residual": seg_est.value - bound,
                 "trials": trials, "weight": w.kind, "seed": seed,
                 "samples": samples, "R": R},
    )
