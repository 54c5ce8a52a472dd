"""Machinery behind the segment-minimizer result for U_f on K(B).

Inscribed simplices with vertices on the boundary of a centered ball B,
their spherical images (normal cones intersected with the direction
sphere), the hemisphere average C(R, f) of g(phi) = F(R cos phi), the
vertex-average inequality that compares the two (by polar quadrature in
R^2 and R^3, from one Monte Carlo draw in higher dimensions), and a
randomized search confirming that the diameter segment minimizes U_f
over K(B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import min_norm_point
from .gnomonic import QUAD_TOL, EuclideanPolytope, WeightFunction, uf
from .measure import VerificationReport, mc_map, three_sigma
from .sphere import (PANEL_NODES, circle_rule, gauss_legendre, graded,
                     integrate, make_stream, row_blocks,
                     sample_uniform_sphere, sphere_area)

#: Tolerance, relative to R, of the checks that a simplex lies in B.
BALL_TOL = 1e-9
#: Largest R: (2R)^2 and sums of squares of 1e6 R-sized values are finite.
MAX_RADIUS = 1e150


# ---------------------------------------------------------------------------
# Smallest enclosing ball (Wolfe)
# ---------------------------------------------------------------------------

def smallest_enclosing_ball(points):
    """Smallest enclosing ball of points on one sphere about the origin.

    Returns ``(center, radius)``.  For |p_i| = rho the ball problem's dual,
    max sum l_i |p_i|^2 - |sum l_i p_i|^2 over convex weights l, is rho^2
    minus the squared norm of a point of conv(points), so the centre is
    that hull's min-norm point and the radius is sqrt(rho^2 - |center|^2).
    The points are scaled to unit norm for Wolfe's solve.  Raises
    ``ValueError`` for an empty list, or unless every norm lies within
    BALL_TOL of the largest, rho, relative, and rho > 0.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if P.size == 0:
        raise ValueError("empty point list")
    norms = np.linalg.norm(P, axis=1)
    rho = float(norms.max())
    if not (0.0 < rho < math.inf and norms.min() >= rho * (1.0 - BALL_TOL)):
        raise ValueError("points must lie on one sphere about the origin")
    x = min_norm_point(P / rho)
    return rho * x, rho * math.sqrt(max(0.0, 1.0 - float(x @ x)))


# ---------------------------------------------------------------------------
# Inscribed simplices and spherical images
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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
    """Refuse points whose smallest enclosing ball is not B, to BALL_TOL R.

    For V in B, B is the smallest enclosing ball of V exactly when 0 lies
    in the hull of the points of V on the boundary sphere: if 0 = sum l_i
    v_i over them, then sum l_i |v_i - c|^2 = R^2 + |c|^2 for every centre
    c.  The points are scaled by 1/R for Wolfe's solve.
    """
    norms = np.linalg.norm(V, axis=1)
    edge = norms >= R * (1.0 - BALL_TOL)
    if not (np.all(norms <= R * (1.0 + BALL_TOL)) and np.any(edge)
            and np.linalg.norm(min_norm_point(V[edge] / R)) <= BALL_TOL):
        raise ValueError("smallest enclosing ball of the vertices is not B")


def _check_ball(R, n):
    """Refuse n < 2, R <= 0, R > MAX_RADIUS, or R^2 not a normal float.

    Every route samples S^(n-1) or takes its area, so n = 1 has no sphere.
    """
    if not (np.finfo(float).tiny <= float(R) * float(R) < math.inf
            and R > 0.0 and n >= 2):
        raise ValueError(f"need radius R > 0 and dimension n >= 2, with R^2 "
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

def _g_panels(R, w, n):
    """Panel ends on [0, pi/2] and the Gauss-Legendre integral of
    g(phi) sin^{n-2} phi, g(phi) = F(R cos phi), over each panel."""
    # F(R cos phi) has a layer about 1/R wide at phi = pi/2.
    ends = np.unique(np.clip(np.concatenate(
        [[0.0, math.pi / 2.0], graded(math.pi / 2.0, math.pi / 2.0, R)]),
        0.0, math.pi / 2.0))
    return ends, [
        integrate(lambda phi: w.F(R * np.cos(phi)) * np.sin(phi) ** (n - 2),
                  a, b) for a, b in zip(ends[:-1], ends[1:])]


def constant_C(R, w, n):
    """Hemisphere average of g(phi) = F(R cos phi):

        C = int_0^{pi/2} F(R cos phi) sin^{n-2} phi dphi
            / int_0^{pi/2} sin^{n-2} phi dphi
    """
    _check_ball(R, n)
    top = math.fsum(_g_panels(R, w, n)[1])
    bot = integrate(lambda phi: np.sin(phi) ** (n - 2), 0.0, math.pi / 2.0)
    return top / bot


def uf_lower_bound(R, w, n):
    """The proven minimum of U_f over K(B): mu(S^{n-1}) * C(R, f)."""
    return sphere_area(n - 1) * constant_C(R, w, n)


def _images(s, vertices, samples, seed, threads, reduce):
    """``[[reduce(dirs, a, keep) for each vertex j in vertices] for each
    batch]`` of one ``mc_map`` draw of directions ``dirs``, with heights
    a = (E @ dirs.T)[j], E = vertices / R, and ``keep`` marking the
    directions whose fold sign(a) dirs onto the half-sphere D_j lies in
    S_j.

    The normal cones partition the sphere, so one draw serves every
    vertex.  A fold lies in S_j when a_j is the largest height (a_j >= 0)
    or the smallest (a_j < 0), to 1e-12: ``normal_cone_membership``'s
    test in units of R.  The heights are one product per row block, so
    BLAS runs them on the calling thread; a batch of one block uses its
    product as it is.
    """
    E = s.vertices / s.R

    def draw(rng, size):
        dirs = sample_uniform_sphere(s.n - 1, rng, size)
        blocks = [dots for _, dots in row_blocks(E, dirs)]  # vertex-major
        heights = blocks[0] if len(blocks) == 1 else np.hstack(blocks)
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

    batches = _images(s, [j], samples, seed, threads, folded)
    return np.concatenate([b[0] for b in batches]), samples


def _polar_averages(s, w, vertices):
    """``(lhs, mu(S_j), nodes)`` at each vertex j in ``vertices``, n = 2
    or 3: the S_j-average of g(phi) = F(R cos phi) and the measure of S_j,
    by Gauss-Legendre quadrature on ``nodes`` points (phi, w) in polar
    coordinates about p_j = v_j / R (Santalo, 1976).

    S_j is convex, holds p_j and lies in the half-sphere about it, so the
    ray toward a unit w orthogonal to p_j leaves S_j at rho(w) = min(pi/2,
    min_i atan2(a_i, <w, c_i>)), c_i = (v_i - v_j) / R, a_i = -<p_j, c_i>.
    Then mu(S_j) = int M(rho(w)) dw, M(rho) = rho or 2 sin^2(rho / 2), and
    the S_j-integral of g is int G(rho(w)) dw, G(rho) = int_0^rho g(phi)
    sin^{n-2} phi dphi: ``constant_C``'s panels below rho and one partial
    panel.  For n = 2, w is +-q.  For n = 3, w(theta) runs over the
    ``circle_rule`` panels split at rho's kinks, <w, c_i> = 0 (graded: rho
    leaves pi/2 within about a_i / |c_i|, G within 1/R of that) and
    <w, a_k c_i - a_i c_k> = 0 (constraints i and k tie).
    """
    E = s.vertices / s.R
    ends, vals = _g_panels(s.R, w, s.n)
    cum = np.array([math.fsum(vals[:k]) for k in range(len(vals) + 1)])
    x, wx = gauss_legendre(PANEL_NODES)
    out = []
    for j in vertices:
        C = np.delete(E - E[j], j, axis=0)
        a = -(C @ E[j])
        if not np.all(a > 0.0):
            raise ValueError(f"degenerate simplex: vertex {j} lies outside "
                             f"its own normal cone")
        Q = np.linalg.svd(E[j][None])[2][1:]  # orthonormal basis of p_j-perp
        if s.n == 2:
            W, dw = np.vstack([Q, -Q]), np.ones(2)
        else:
            i, l = np.triu_indices(a.shape[0], 1)
            kinks = np.vstack([C, a[l, None] * C[i] - a[i, None] * C[l]])
            kinks = kinks @ Q.T
            theta, dw = circle_rule(kinks, np.concatenate(
                [max(s.R, 1.0) * np.hypot(*kinks[:a.shape[0]].T) / a,
                 np.zeros(i.size)]))
            W = np.outer(np.cos(theta), Q[0]) + np.outer(np.sin(theta), Q[1])
        rho = np.minimum(np.arctan2(a, W @ C.T).min(axis=1), math.pi / 2.0)
        k = np.searchsorted(ends, rho, side="right") - 1  # panel of rho
        half = (rho - ends[k]) / 2.0
        phi = ends[k][:, None] + half[:, None] * (x + 1.0)
        G = cum[k] + half * ((w.F(s.R * np.cos(phi))
                              * np.sin(phi) ** (s.n - 2)) @ wx)
        mu = float(dw @ (rho if s.n == 2 else 2.0 * np.sin(rho / 2.0) ** 2))
        out.append((float(dw @ G) / mu, mu, phi.size))
    return out


def check_vertex_averages(s, w, samples=200_000, seed=0, threads=1,
                          vertices=None):
    """``check_7_1`` at every vertex in ``vertices`` (default: all).

    For n <= 3 the averages are ``_polar_averages``, exact to QUAD_TOL
    relative to C(R, f): ``samples`` and ``seed`` are only echoed, and
    ``threads`` is not read.  For n >= 4 every vertex reads one draw of
    ``samples`` directions, so its report is the one ``check_7_1`` gives
    at the same seed; the estimates of different vertices are correlated,
    but no verdict combines them.
    """
    vertices = range(s.k + 1) if vertices is None else vertices
    rhs = constant_C(s.R, w, s.n)
    if s.n <= 3:
        estimates = [(lhs, mu_sj, QUAD_TOL * rhs, "nodes", nodes)
                     for lhs, mu_sj, nodes in _polar_averages(s, w, vertices)]
    else:
        # Each batch keeps only the heights |a| of each vertex's folds.
        batches = _images(s, vertices, samples, seed, threads,
                          lambda dirs, a, keep: np.abs(np.compress(keep, a)))
        estimates = []
        for i in range(len(vertices)):
            h = s.R * np.concatenate([b[i] for b in batches])
            if h.shape[0] == 0:
                raise ValueError("degenerate simplex: empty spherical image "
                                 "sample")
            g = np.asarray(w.F(h), dtype=float)
            stderr = float(np.std(g, ddof=1) / math.sqrt(g.shape[0])) \
                if g.shape[0] > 1 else 0.0
            mu_sj = sphere_area(s.n - 1) / 2.0 * h.shape[0] / samples
            estimates.append((float(np.mean(g)), mu_sj, stderr, "accepted",
                              int(h.shape[0])))
    reports = []
    for j, (lhs, mu_sj, stderr, unit, count) in zip(vertices, estimates):
        # rhs is exact to QUAD_TOL relative, which outweighs a flat F's stderr.
        sigma = max(stderr, QUAD_TOL * rhs)
        reports.append(three_sigma(
            "vertex_average_inequality", lhs, rhs, sigma, ">=",
            "lhs + 3 stderr >= rhs" if stderr > QUAD_TOL * rhs
            else "lhs + 3 QUAD_TOL rhs >= rhs",
            details={"vertex": j, "mu_Sj": mu_sj, "stderr": stderr,
                     "weight": w.kind, "seed": seed, "samples": samples,
                     unit: count}))
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
    return EuclideanPolytope(vertices=V)


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
    return EuclideanPolytope(vertices=pts)


def min_uf_search(R, w, n=2, trials=50, samples=None, seed=0, threads=1):
    """Randomized minimality check: no K(B) instance may fall below the
    diameter segment, and the segment must match the closed-form bound."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    seg = segment_simplex(R, n)
    seg_poly = EuclideanPolytope(vertices=seg.vertices)
    seg_est = uf(seg_poly, w, samples=samples, seed=seed, threads=threads)
    bound = uf_lower_bound(R, w, n)

    values = []
    min_gap = math.inf
    rng = make_stream(seed)  # no mc_map batch draws from key ()
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
        sq = WeightFunction("square", F=lambda s: w.F(s) ** 2)
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
