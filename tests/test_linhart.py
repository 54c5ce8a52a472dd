"""Enclosing balls, spherical images, the hemisphere average C(R, f), and
the vertex-average inequality."""

import functools
import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sphereplanks import (check_7_1, constant_C, constant_weight,
                          make_simplex, make_stream, min_uf_search,
                          normal_cone_membership, random_simplex,
                          regular_triangle, sample_uniform_sphere,
                          segment_simplex, smallest_enclosing_ball,
                          sphere_area, spherical_weight, uf, uf_lower_bound)
from sphereplanks.cones import min_norm_point
from sphereplanks.gnomonic import EuclideanPolytope, WeightFunction
from sphereplanks.linhart import (QUAD_TOL, _images, check_vertex_averages,
                                  make_kb_instance, random_kb_instance,
                                  sample_spherical_image)
from sphereplanks.measure import N_BATCHES, mc_map


# ---------------------------------------------------------------------------
# Smallest enclosing ball
# ---------------------------------------------------------------------------

def _brute_force_ball(P):
    """Independent oracle: of the circumballs of every subset of at most
    d + 1 points, each centred within the subset's affine hull, the
    smallest that holds every point.  Returns ``(center, radius)``."""
    P = np.asarray(P, dtype=float)
    m, d = P.shape
    scale = np.max(np.linalg.norm(P, axis=1))
    best = (None, math.inf)
    for k in range(1, min(m, d + 1) + 1):
        for subset in itertools.combinations(range(m), k):
            S = P[list(subset)]
            A = S[1:] - S[0]
            if np.linalg.matrix_rank(A, tol=1e-9 * scale) < k - 1:
                continue
            y = np.linalg.solve(A @ A.T, 0.5 * np.sum(A * A, axis=1)) \
                if k > 1 else np.zeros(0)
            c = S[0] + A.T @ y
            r = float(np.linalg.norm(S[0] - c))
            if r < best[1] and \
                    np.max(np.linalg.norm(P - c, axis=1)) <= r + 1e-9 * scale:
                best = (c, r)
    return best


def test_seb_single_point():
    c, r = smallest_enclosing_ball(np.array([[2.0, 3.0]]))
    assert np.allclose(c, [2.0, 3.0]) and r == 0.0


def test_seb_antipodal_pair():
    c, r = smallest_enclosing_ball(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert np.allclose(c, 0.0, atol=1e-12)
    assert r == pytest.approx(1.0, abs=1e-12)


def test_seb_equilateral_triangle():
    # Side s: circumradius s / sqrt(3), about the centre of the circle.
    s = 2.0
    ang = 0.3 + np.array([0.0, 2.0, 4.0]) * math.pi / 3.0
    pts = s / math.sqrt(3.0) * np.column_stack([np.cos(ang), np.sin(ang)])
    c, r = smallest_enclosing_ball(pts)
    assert r == pytest.approx(s / math.sqrt(3.0), abs=1e-10)
    assert np.allclose(c, 0.0, atol=1e-10)


def test_seb_obtuse_triangle_uses_diameter():
    # All three points on an arc shorter than pi: the longest side is a
    # diameter of the smallest enclosing ball.
    ang = np.array([0.1, 1.0, 2.5])
    pts = 2.0 * np.column_stack([np.cos(ang), np.sin(ang)])
    c, r = smallest_enclosing_ball(pts)
    assert r == pytest.approx(0.5 * np.linalg.norm(pts[2] - pts[0]),
                              abs=1e-10)
    assert np.allclose(c, 0.5 * (pts[0] + pts[2]), atol=1e-10)


@pytest.mark.parametrize("m,d,seed", [(10, 2, 0), (20, 3, 1), (15, 4, 2),
                                      (30, 2, 3), (6, 2, 4), (8, 5, 5),
                                      (7, 5, 6), (9, 3, 8)])
def test_seb_random_against_brute_force(m, d, seed):
    # Points on a sphere about the origin.  For seed % 3 > 0 they gather
    # toward e_1, so their ball is smaller than the sphere's and centred
    # off the origin.
    shift = 0.75 * (seed % 3)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(m, d))
    g[:, 0] += shift
    R = float(rng.uniform(0.5, 3.0))
    pts = R * g / np.linalg.norm(g, axis=1, keepdims=True)
    c, r = smallest_enclosing_ball(pts)
    c_ref, r_ref = _brute_force_ball(pts)
    assert r == pytest.approx(r_ref, abs=1e-9 * R)
    assert np.linalg.norm(c - c_ref) <= 1e-7 * R
    # Feasibility.
    assert np.max(np.linalg.norm(pts - c, axis=1)) <= r + 1e-8
    # No random candidate center does better.
    for _ in range(200):
        cand = c + rng.normal(scale=0.3, size=d)
        assert np.max(np.linalg.norm(pts - cand, axis=1)) >= r - 1e-8


@pytest.mark.parametrize("points", [
    [[1.0, 0.0], [0.5, 0.0]], [[1.0, 0.0], [0.0, 1.0], [0.1, 0.1]],
    [[0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], [], np.zeros((0, 3))],
    ids=["inner-point", "off-sphere", "origin", "origins", "empty",
         "empty-rows"])
def test_seb_refuses_points_off_one_sphere_about_the_origin(points):
    with pytest.raises(ValueError):
        smallest_enclosing_ball(points)


# ---------------------------------------------------------------------------
# Simplices and spherical images
# ---------------------------------------------------------------------------

def test_make_simplex_validation():
    with pytest.raises(ValueError):
        make_simplex(1.0, [[0.5, 0.0], [-1.0, 0.0]])  # off the sphere
    with pytest.raises(ValueError):
        # On the sphere but the enclosing ball is smaller than B.
        make_simplex(1.0, [[1.0, 0.0],
                           [math.cos(0.3), math.sin(0.3)]])


def test_segment_and_triangle_constructors():
    seg = segment_simplex(2.0, 3)
    assert seg.k == 1 and seg.n == 3 and seg.R == 2.0
    tri = regular_triangle(1.5)
    assert tri.k == 2
    assert np.allclose(np.linalg.norm(tri.vertices, axis=1), 1.5)


def test_random_simplex_valid():
    rng = make_stream(4)
    for n in (2, 3):
        for _ in range(10):
            s = random_simplex(1.0, n, rng)
            c, r = smallest_enclosing_ball(s.vertices)
            assert np.linalg.norm(c) < 1e-8 and abs(r - 1.0) < 1e-8


def test_normal_cones_partition_directions():
    rng = make_stream(5)
    s = random_simplex(1.0, 2, rng, k=2)
    dirs = sample_uniform_sphere(1, rng, size=20_000)
    counts = np.zeros(20_000, dtype=int)
    for j in range(s.k + 1):
        counts += np.asarray(normal_cone_membership(s, j, dirs)).astype(int)
    # Every direction lands in at least one cone; overlaps only on the
    # measure-zero boundaries.
    assert np.all(counts >= 1)
    assert np.mean(counts > 1) < 1e-3


@given(n=st.integers(2, 4), seed=st.integers(0, 2 ** 16),
       segment=st.booleans(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_normal_cone_membership_matches_all_reduce_formula(n, seed, segment,
                                                           data):
    rng = make_stream(seed)
    # The segment of radius 1/2 has vertex differences +-e_1, so exact
    # coordinates give exact products.
    s = segment_simplex(0.5, n) if segment else random_simplex(1.0, n, rng)
    tol = 1e-12 * s.R
    rows = data.draw(st.lists(st.lists(
        st.one_of(st.sampled_from((0.0, tol, -tol, 1.0, -1.0)),
                  st.floats(-1.0, 1.0)), min_size=n, max_size=n),
        min_size=1, max_size=8))
    g = sample_uniform_sphere(n - 1, rng, size=4)
    for j in range(s.k + 1):
        diffs = s.vertices - s.vertices[j]
        beside = [np.array(rows), sample_uniform_sphere(n - 1, rng, size=30)]
        for d in diffs[np.any(diffs != 0.0, axis=1)]:
            # Directions on the cone's boundary plane, and +-tol off it.
            on = g - np.outer(g @ d, d) / (d @ d)
            beside += [on, on + tol * d / (d @ d), on - tol * d / (d @ d)]
        u = np.vstack(beside)
        ref = np.all(u @ diffs.T <= tol, axis=-1)
        assert np.array_equal(normal_cone_membership(s, j, u), ref)
        for x in u:
            assert normal_cone_membership(s, j, x) == \
                np.all(x @ diffs.T <= tol)


def test_spherical_image_inside_half_sphere():
    rng = make_stream(6)
    s = random_simplex(1.0, 3, rng, k=3)
    for j in range(s.k + 1):
        acc, total = sample_spherical_image(s, j, 20_000, seed=7)
        ej = s.vertices[j] / s.R
        assert np.all(acc @ ej >= -1e-12)
        assert np.all(normal_cone_membership(s, j, acc))


def test_regular_triangle_image_measure():
    # By symmetry each vertex of the regular triangle gets exactly one third
    # of the circle.
    s = regular_triangle(1.0)
    mu_total = 0.0
    for j in range(3):
        acc, total = sample_spherical_image(s, j, 300_000, seed=8 + j)
        mu_total += acc.shape[0] / total  # fraction of the half-circle
        frac = acc.shape[0] / total
        # mu(S_j) = (1/3) * 2pi; half-circle has measure pi.
        assert abs(frac - 2.0 / 3.0) <= 3.0 * math.sqrt(frac * (1 - frac)
                                                        / total)
    assert mu_total == pytest.approx(2.0, abs=0.01)


def _image_cases(dims=(2, 3, 4)):
    """Random simplices of every k in R^n, segments, the regular
    triangle."""
    cases = [("regular-triangle", regular_triangle(1.0))] if 2 in dims else []
    for n in dims:
        cases.append((f"segment-n{n}", segment_simplex(1.0, n)))
        for k in range(1, n + 1):
            for seed in (0, 1):
                rng = make_stream(100 * n + 10 * k + seed)
                cases.append((f"random-n{n}-k{k}-{seed}",
                              random_simplex(1.0, n, rng, k=k)))
    return cases


@pytest.mark.parametrize("name,s", _image_cases())
def test_one_draw_is_split_exactly_between_the_vertices(name, s):
    # The normal cones partition the directions, and each of u, -u lands in
    # exactly one of them: the vertices of one draw accept 2 N directions.
    samples = 20_000
    accepted = np.sum(_images(s, range(s.k + 1), samples, 21, 1,
                              lambda dirs, a, keep: np.count_nonzero(keep)),
                      axis=0)
    assert accepted.sum() == 2 * samples
    if name.startswith("segment"):
        assert np.all(accepted == samples)


@pytest.mark.parametrize("name,s", _image_cases())
@pytest.mark.parametrize("kind", ["constant", "spherical"])
def test_vertex_averages_are_check_7_1_at_the_same_seed(name, s, kind):
    w = constant_weight() if kind == "constant" else spherical_weight(s.n)
    samples, seed = 30_000, 22
    for threads in (1, 2):
        reports = check_vertex_averages(s, w, samples, seed, threads)
        assert [r.details["vertex"] for r in reports] == list(range(s.k + 1))
        for j, rep in enumerate(reports):
            assert rep.to_dict() == check_7_1(s, j, w, samples, seed,
                                              3 - threads).to_dict()


@pytest.mark.parametrize("name,s", _image_cases(dims=(4,)))
@pytest.mark.parametrize("kind", ["constant", "spherical"])
def test_sampled_vertex_averages_are_the_mean_over_the_accepted_draws(
        name, s, kind):
    # Reference: the average over the accepted directions themselves, as
    # check_7_1 took it before one draw served every vertex.  The heights
    # are the same dot products with E = vertices / R, taken batch by batch.
    w = constant_weight() if kind == "constant" else spherical_weight(s.n)
    samples, seed = 30_000, 22
    reports = check_vertex_averages(s, w, samples, seed)
    assert sum(r.details["accepted"] for r in reports) == 2 * samples
    E = s.vertices / s.R
    for j, rep in enumerate(reports):
        acc, total = sample_spherical_image(s, j, samples, seed)
        h = np.clip(s.R * (acc @ E.T)[:, j], 0.0, None)
        g = np.asarray(w.F(h), dtype=float)
        assert (rep.details["accepted"], total) == (acc.shape[0], samples)
        assert rep.details["mu_Sj"] == \
            sphere_area(s.n - 1) / 2.0 * acc.shape[0] / samples
        assert rep.lhs == float(np.mean(g))
        assert rep.details["stderr"] == \
            float(np.std(g, ddof=1) / math.sqrt(g.shape[0]))


def _folded_route(s, samples, seed, threads):
    """Per batch and vertex, the accepted folded directions u and their
    heights (u @ E.T)[:, j], E = vertices / R, by folding each direction
    onto D_j and testing it with ``normal_cone_membership``."""
    E = s.vertices / s.R

    def draw(rng, size):
        dirs = sample_uniform_sphere(s.n - 1, rng, size)
        heights = dirs @ E.T
        out = []
        for j in range(s.k + 1):
            u = dirs * np.where(heights[:, j] >= 0.0, 1.0, -1.0)[:, None]
            u = np.compress(normal_cone_membership(s, j, u), u, axis=0)
            out.append((u, (u @ E.T)[:, j]))
        return out

    return mc_map(draw, samples, seed, threads)


@pytest.mark.parametrize("name,s", _image_cases())
def test_height_partition_matches_the_folded_membership_route(name, s):
    samples, seed = 40_000, 23
    want = _folded_route(s, samples, seed, 1)
    vertices = range(s.k + 1)
    for threads in (1, 2):
        got = _images(s, vertices, samples, seed, threads,
                      lambda dirs, a, keep: np.abs(np.compress(keep, a)))
        assert len(got) == len(want) == N_BATCHES
        for batch, ref in zip(got, want):
            for h, (_, h_ref) in zip(batch, ref):
                assert np.array_equal(h.view(np.uint64),
                                      h_ref.view(np.uint64))
    for j in vertices:
        acc, _ = sample_spherical_image(s, j, samples, seed, threads=2)
        ref = np.concatenate([batch[j][0] for batch in want])
        assert np.array_equal(acc.view(np.uint64), ref.view(np.uint64))


# ---------------------------------------------------------------------------
# C(R, f) and the inequality
# ---------------------------------------------------------------------------

def test_constant_C_closed_forms():
    # f = 1, n = 2: C = int_0^{pi/2} R cos phi dphi / (pi/2) = 2R/pi.
    assert constant_C(2.0, constant_weight(), 2) == \
        pytest.approx(4.0 / math.pi, abs=1e-9)
    # f = 1, n = 3: C = R int cos sin / int sin = R/2.
    assert constant_C(2.0, constant_weight(), 3) == \
        pytest.approx(1.0, abs=1e-9)


def test_constant_C_spherical_weight_oracle():
    w = spherical_weight(2)
    R = 1.7
    num, _ = quad(lambda p: float(w.F(R * math.cos(p))), 0.0, math.pi / 2,
                  epsabs=1e-12)
    assert constant_C(R, w, 2) == pytest.approx(num / (math.pi / 2), abs=1e-9)
    with pytest.raises(ValueError):
        constant_C(0.0, w, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["spherical", "constant"])
def test_constant_C_matches_adaptive_quadrature(n, kind):
    w = spherical_weight(n) if kind == "spherical" else constant_weight()
    for R in (0.1, 0.37, 1.0, 1.7, 3.2, 5.0):
        num, _ = quad(lambda p: float(w.F(R * math.cos(p)))
                      * math.sin(p) ** (n - 2), 0.0, math.pi / 2,
                      epsabs=0.0, epsrel=1e-13, limit=200)
        den, _ = quad(lambda p: math.sin(p) ** (n - 2), 0.0, math.pi / 2,
                      epsabs=0.0, epsrel=1e-13, limit=200)
        assert constant_C(R, w, n) == pytest.approx(num / den, rel=1e-13,
                                                    abs=0.0)


def _mp_F(kind, n, s):
    """F(s) at the working precision: s, or int_0^x cos^(n-1), x = atan s,
    by I_k = (cos^(k-1) x sin x + (k-1) I_(k-2)) / k."""
    if kind == "constant":
        return s
    x = mpmath.atan(s)
    I = [x, mpmath.sin(x)]
    for k in range(2, n):
        I.append((mpmath.cos(x) ** (k - 1) * mpmath.sin(x)
                  + (k - 1) * I[k - 2]) / k)
    return I[n - 1]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["constant", "spherical"])
def test_constant_C_matches_50_digit_mpmath(n, kind):
    # constant_C states that C is within 2^4 u = 2^-49 of its value.  The
    # oracle integrates F(R cos phi) sin^{n-2} phi, with breaks in F's
    # layer about 1/R wide at phi = pi/2.
    w = constant_weight() if kind == "constant" else spherical_weight(n)
    with mpmath.workdps(50):
        half = mpmath.pi / 2
        den = mpmath.quad(lambda p: mpmath.sin(p) ** (n - 2), [0, half])
        for R in (1e-3, 0.37, 1.0, 1e3, 1e9, 1e150):
            Rm = mpmath.mpf(R)
            pts = [0] + [half - t / Rm for t in (1e3, 1.0, 1e-3)
                         if 1e-40 < t / R < 1.0] + [half]
            num = mpmath.quad(lambda p: _mp_F(kind, n, Rm * mpmath.cos(p))
                              * mpmath.sin(p) ** (n - 2), pts)
            want = num / den
            assert abs(constant_C(R, w, n) - want) <= 2.0 ** -49 * want, R


@pytest.mark.parametrize("kind", ["constant", "spherical"])
def test_cap_matches_50_digit_mpmath(kind):
    # cap states that G is within 2^4 u = 2^-49 of its value.
    w = constant_weight() if kind == "constant" else spherical_weight(3)
    rho = np.array([1e-8, 1e-3, 0.3, 1.0, 1.5, math.pi / 2.0])
    with mpmath.workdps(50):
        for R in (1e-3, 1.0, 1e3, 1e9, 1e150):
            G = _mp_G(kind, 3, R)
            for got, r in zip(w.cap(R, rho), rho):
                want = G(mpmath.mpf(r), mpmath.cos(mpmath.mpf(r)))
                assert abs(got - want) <= 2.0 ** -49 * want, (R, r)


def test_constant_C_refuses_a_weight_without_a_closed_form():
    # A spherical weight holds its closed forms in its own dimension only.
    custom = WeightFunction("custom", F=lambda s: np.asarray(s, dtype=float))
    for w, n in ((spherical_weight(2), 3), (spherical_weight(3), 2),
                 (spherical_weight(4), 5), (custom, 2)):
        with pytest.raises(ValueError, match=re.escape(w.kind)):
            constant_C(1.0, w, n)
    with pytest.raises(ValueError, match=re.escape("spherical(2)")):
        check_vertex_averages(segment_simplex(1.0, 3), spherical_weight(2))


@pytest.mark.parametrize("w", [constant_weight(), spherical_weight(2)],
                         ids=["constant", "spherical"])
def test_planted_C_error_fails_the_planar_segment_checks(w, monkeypatch):
    """C(R, f) off by 1e-12 relative fails the n = 2 segment's vertex
    verdicts and min_uf_search's match of the segment with its bound."""
    from sphereplanks import linhart
    true_C = linhart.constant_C
    monkeypatch.setattr(linhart, "constant_C",
                        lambda R, w, n: true_C(R, w, n) * (1.0 + 1e-12))
    for R in (1e-3, 1.0, 1e150):
        reps = check_vertex_averages(segment_simplex(R, 2), w)
        assert not any(rep.passed for rep in reps), R
        rep = min_uf_search(R, w, n=2, trials=2)
        assert not rep.passed
        assert abs(rep.details["segment_residual"]) > rep.tolerance, R


def test_uf_lower_bound_values():
    # f = 1, n = 2: bound = 2pi * 2R/pi = 4R.
    assert uf_lower_bound(1.0, constant_weight(), 2) == \
        pytest.approx(4.0, abs=1e-9)
    # Spherical weight, R = tan(rho): the bound is 4 rho (the spherical
    # mean width of a geodesic arc of half-length rho).
    rho = 0.6
    got = uf_lower_bound(math.tan(rho), spherical_weight(2), 2)
    assert got == pytest.approx(4.0 * rho, abs=1e-9)


def test_segment_attains_the_bound():
    for R in (0.5, 1.0, 3.0):
        for w in (constant_weight(), spherical_weight(2)):
            seg = segment_simplex(R, 2)
            poly = EuclideanPolytope(vertices=seg.vertices)
            est = uf(poly, w)
            assert est.value == pytest.approx(uf_lower_bound(R, w, 2),
                                              abs=1e-8)


def test_check_7_1_segment_equality():
    seg = segment_simplex(1.0, 2)
    for j in (0, 1):
        rep = check_7_1(seg, j, spherical_weight(2), samples=200_000, seed=9)
        assert rep.passed
        assert abs(rep.slack) <= rep.tolerance  # equality case


def test_check_7_1_triangle_strict():
    tri = regular_triangle(1.0)
    rep = check_7_1(tri, 0, constant_weight(), samples=200_000, seed=10)
    assert rep.passed
    assert rep.slack > rep.tolerance  # strictly above the average
    assert rep.rhs == pytest.approx(2.0 / math.pi, abs=1e-9)


def test_check_7_1_random_simplices():
    rng = make_stream(11)
    for n in (2, 3):
        s = random_simplex(1.0, n, rng)
        w = spherical_weight(n)
        for j in range(s.k + 1):
            rep = check_7_1(s, j, w, samples=100_000, seed=12 + j)
            assert rep.passed, rep.to_dict()


def test_check_7_1_bad_vertex_index():
    with pytest.raises(IndexError):
        normal_cone_membership(segment_simplex(1.0, 2), 5, np.eye(2)[0])


# ---------------------------------------------------------------------------
# Polar vertex averages in R^2 and R^3
# ---------------------------------------------------------------------------

RADII = (1e-3, 1.0, 1e3, 1e6, 1e9)


def _mp_G(kind, n, R):
    """``G(rho, cos rho)`` = int_0^rho F(R cos phi) sin^{n-2} phi dphi in
    closed form: for n = 3, (Phi(R) - Phi(R cos rho)) / R with Phi' = F."""
    R = mpmath.mpf(R)
    if n == 2:
        if kind == "constant":
            return lambda r, c: R * mpmath.sin(r)
        return lambda r, c: mpmath.asin(R * mpmath.sin(r)
                                        / mpmath.sqrt(1 + R * R))
    if kind == "constant":
        def Phi(x):
            return x * x / 2
    else:
        def Phi(x):
            q = 1 + x * x
            return (x * (mpmath.atan(x) + x / q) + 1 / q) / 2
    top = Phi(R)
    return lambda r, c: (top - Phi(R * c)) / R


def _mp_vertex(E, j):
    """``(integrate, mu)`` for vertex j of the unit simplex E, at the
    working precision.  ``integrate(h)`` is int h(rho(w), cos rho(w)) dw
    over unit w orthogonal to p_j: the sum over w = +-q for n = 2, and
    mpmath.quad over the circle split at rho's kinks for n = 3.  ``mu`` is
    mu(S_j)."""
    n = E.shape[1]
    E = [[mpmath.mpf(float(x)) for x in row] for row in E]
    p = [x / mpmath.sqrt(mpmath.fdot(E[j], E[j])) for x in E[j]]
    C = [[x - y for x, y in zip(E[i], E[j])]
         for i in range(len(E)) if i != j]
    a = [-mpmath.fdot(p, c) for c in C]
    Q = []  # orthonormal basis of p-perp, by Gram-Schmidt over the axes
    for e in range(n):
        q = [mpmath.mpf(int(i == e)) for i in range(n)]
        for b in [p] + Q:
            d = mpmath.fdot(b, q)
            q = [x - d * y for x, y in zip(q, b)]
        if mpmath.sqrt(mpmath.fdot(q, q)) > 0.5 and len(Q) < n - 1:
            Q.append([x / mpmath.sqrt(mpmath.fdot(q, q)) for x in q])
    cq = [[mpmath.fdot(q, c) for q in Q] for c in C]

    def rho(w):
        r = min([mpmath.pi / 2] + [mpmath.atan2(ai, mpmath.fdot(w, c))
                                   for ai, c in zip(a, cq)])
        return r, mpmath.cos(r)

    if n == 2:
        rhos = [rho([1]), rho([-1])]
        return (lambda h: h(*rhos[0]) + h(*rhos[1])), \
            rhos[0][0] + rhos[1][0]
    kinks = cq + [[a[k] * x - a[i] * y for x, y in zip(cq[i], cq[k])]
                  for i in range(len(C)) for k in range(i + 1, len(C))]
    pts = {mpmath.mpf(0), 2 * mpmath.pi}
    for d in kinks:
        t = mpmath.atan2(d[1], d[0]) + mpmath.pi / 2
        pts |= {t % (2 * mpmath.pi), (t - mpmath.pi) % (2 * mpmath.pi)}
    at = functools.cache(lambda t: rho([mpmath.cos(t), mpmath.sin(t)]))

    def integrate(h):
        return mpmath.quad(lambda t: h(*at(t)), sorted(pts))

    return integrate, integrate(lambda r, c: 1 - c)


def _polar_cases():
    """Unit simplices and the vertices checked: every vertex in the plane,
    the first in R^3 once k >= 2 (each costs a second at 50 digits)."""
    cases = [pytest.param(segment_simplex(1.0, 2), (0, 1), id="segment-n2"),
             pytest.param(regular_triangle(1.0), (0, 1, 2),
                          id="regular-triangle"),
             pytest.param(segment_simplex(1.0, 3), (0, 1), id="segment-n3")]
    for n in (2, 3):
        for k in range(1, n + 1):
            s = random_simplex(1.0, n, make_stream(700 + 10 * n + k), k=k)
            cases.append(pytest.param(
                s, range(s.k + 1) if n == 2 or k == 1 else (0,),
                id=f"random-n{n}-k{k}"))
    return cases


@pytest.mark.parametrize("s,vertices", _polar_cases())
def test_polar_vertex_averages_match_50_digit_mpmath(s, vertices):
    # Each report states the bound its lhs is held to: the rounding bound
    # 2^-44 rhs pi / mu(S_j) for n = 2, QUAD_TOL rhs for n = 3.  mu(S_j) is
    # held to 2^-44 relative for n = 2 and to QUAD_TOL for n = 3.
    tol = 2.0 ** -44 if s.n == 2 else QUAD_TOL
    with mpmath.workdps(50):
        for j in vertices:
            integrate, mu = _mp_vertex(s.vertices, j)
            for kind in ("constant", "spherical"):
                w = constant_weight() if kind == "constant" \
                    else spherical_weight(s.n)
                for R in RADII:
                    scaled = make_simplex(R, R * s.vertices)
                    rep, = check_vertex_averages(scaled, w, vertices=[j])
                    lhs = float(integrate(_mp_G(kind, s.n, R)) / mu)
                    mu_sj = rep.details["mu_Sj"]
                    assert rep.details["stderr"] == (
                        tol * rep.rhs * math.pi / mu_sj if s.n == 2
                        else tol * rep.rhs)
                    assert abs(rep.lhs - lhs) <= rep.details["stderr"], \
                        (j, kind, R, rep.lhs, lhs)
                    assert mu_sj == pytest.approx(float(mu), rel=tol, abs=0.0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["constant", "spherical"])
def test_polar_segment_averages_are_constant_C(n, kind):
    # S_j is the half-sphere about p_j, so rho = pi/2 everywhere and lhs is
    # G(pi/2) / M(pi/2): constant_C's closed form, written another way.
    w = constant_weight() if kind == "constant" else spherical_weight(n)
    eps = np.finfo(float).eps
    for R in (1e-100, 1e-3, 1.0, 5.0, 1e3, 1e9, 1e150):
        C = constant_C(R, w, n)
        half = sphere_area(n - 1) / 2.0
        for rep in check_vertex_averages(segment_simplex(R, n), w):
            assert rep.rhs == C
            assert abs(rep.lhs - C) <= 8.0 * eps * C
            assert abs(rep.details["mu_Sj"] - half) <= 2.0 * eps * half
            assert rep.passed and abs(rep.slack) <= rep.tolerance


def test_polar_route_echoes_samples_and_seed_and_reads_no_threads():
    s = random_simplex(1.0, 3, make_stream(34), k=3)
    w = spherical_weight(3)
    for a, b in zip(check_vertex_averages(s, w, 5, 1, 1),
                    check_vertex_averages(s, w, 200_000, 9, 3)):
        a, b = a.to_dict(), b.to_dict()
        assert (a.pop("samples"), a.pop("seed")) == (5, 1)
        assert (b.pop("samples"), b.pop("seed")) == (200_000, 9)
        assert a == b


def test_polar_route_refuses_a_vertex_outside_its_normal_cone():
    # Within BALL_TOL, v_1 lies 1e-10 R beyond the sphere and 1e-6 R from
    # v_0, so <v_1 - v_0, v_0> > 0: p_0 is not in S_0, and polar
    # coordinates about p_0 cannot describe S_0.
    r, e = 1.0 + 1e-10, 1e-6
    s = make_simplex(1.0, [[1.0, 0.0], [r * math.cos(e), r * math.sin(e)],
                           [-1.0, 0.0]])
    with pytest.raises(ValueError, match="vertex 0 lies outside its own"):
        check_vertex_averages(s, constant_weight())


def test_polar_vertex_averages_agree_with_the_sampled_route():
    # 5 sigma against the one-draw Monte Carlo route, 2e6 directions.
    samples, seed = 2_000_000, 24
    for s in (regular_triangle(1.0),
              random_simplex(1.0, 2, make_stream(31), k=2),
              random_simplex(2.0, 3, make_stream(32), k=3),
              random_simplex(0.5, 3, make_stream(33), k=2)):
        vertices = range(s.k + 1)
        batches = _images(s, vertices, samples, seed, 1,
                          lambda dirs, a, keep: np.abs(np.compress(keep, a)))
        half = sphere_area(s.n - 1) / 2.0
        for w in (constant_weight(), spherical_weight(s.n)):
            for j, rep in zip(vertices, check_vertex_averages(s, w)):
                g = np.asarray(w.F(s.R * np.concatenate(
                    [b[j] for b in batches])), dtype=float)
                stderr = np.std(g, ddof=1) / math.sqrt(g.shape[0])
                assert abs(rep.lhs - np.mean(g)) <= 5.0 * stderr
                f = g.shape[0] / samples
                assert abs(rep.details["mu_Sj"] - half * f) <= \
                    5.0 * half * math.sqrt(f * (1.0 - f) / samples)


# ---------------------------------------------------------------------------
# Chain identity and the minimality search
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["spherical", "constant"])
def test_vertex_averages_sum_to_uf(kind):
    # Chain identity: U_f is the sum over vertices of mu(S_j) times the
    # S_j-average of g.  The two sides come from different draws; the
    # vertex estimates share one draw, so their stderrs add.
    rng = make_stream(13)
    for n, k in ((2, 2), (3, 3), (3, 1)):
        s = random_simplex(1.0, n, rng, k=k)
        w = constant_weight() if kind == "constant" else spherical_weight(n)
        poly = EuclideanPolytope(vertices=s.vertices)
        direct = uf(poly, w, samples=300_000, seed=14)
        reports = check_vertex_averages(s, w, samples=300_000, seed=15)
        via = math.fsum(r.details["mu_Sj"] * r.lhs for r in reports)
        via_stderr = math.fsum(r.details["mu_Sj"] * r.details["stderr"]
                               for r in reports)
        tol = 3.0 * math.hypot(direct.stderr, via_stderr)
        assert abs(direct.value - via) <= tol, (n, k, direct, via, tol)


def test_random_kb_instances_are_valid():
    # The brute-force ball is B, and so is what Wolfe sees: every point
    # lies in B, and Wolfe's min-norm point puts the origin in the hull of
    # the points on the boundary sphere.
    for n in (2, 3, 4, 5):
        for seed in (16, 17, 18):
            rng = make_stream(seed)
            for _ in range(20):
                R = float(rng.uniform(0.5, 3.0))
                P = random_kb_instance(R, n, rng).vertices
                c, r = _brute_force_ball(P)
                assert np.linalg.norm(c) < 1e-7 * R and abs(r - R) < 1e-7 * R
                norms = np.linalg.norm(P, axis=1)
                assert np.all(norms <= R * (1.0 + 1e-9))
                x = min_norm_point(P[norms >= R * (1.0 - 1e-9)])
                assert np.linalg.norm(x) <= 1e-9 * R, (n, seed)


def test_make_kb_instance_checks_the_enclosing_ball():
    # A diametral pair with one point inside spans K(B); moved off the
    # centre, or shrunk, the same points have another enclosing ball.
    pts = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0], [0.5, 1.0, 0.3]])
    poly = make_kb_instance(2.0, pts)
    assert poly.n == 3 and np.array_equal(poly.vertices, pts)
    for bad in (pts + 0.1, 0.9 * pts):
        with pytest.raises(ValueError, match="enclosing ball"):
            make_kb_instance(2.0, bad)


@pytest.mark.parametrize("R", [2e-154, 1e150])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_members_of_K_B_at_the_extreme_radii(R, n):
    # The smallest R whose square is a normal float, and the largest R.
    assert segment_simplex(R, n).R == R
    rng = make_stream(19)
    for _ in range(10):
        s = random_simplex(R, n, rng)
        assert np.allclose(np.linalg.norm(s.vertices, axis=1) / R, 1.0,
                           rtol=0.0, atol=1e-9)
        P = random_kb_instance(R, n, rng).vertices
        assert np.array_equal(make_kb_instance(R, P).vertices, P)


def test_min_uf_search_passes():
    rep = min_uf_search(1.0, spherical_weight(2), n=2, trials=20, seed=17)
    assert rep.passed, rep.to_dict()
    assert abs(rep.details["segment_residual"]) < 1e-7
    assert rep.slack >= 0.0


def test_kb_instances_draw_from_a_stream_no_batch_uses(monkeypatch):
    from sphereplanks import linhart, measure
    keys = {}
    for module in (linhart, measure):
        def recorded(seed, spawn_key=(), _real=module.make_stream,
                     _log=keys.setdefault(module.__name__, [])):
            _log.append((seed, tuple(spawn_key)))
            return _real(seed, spawn_key)
        monkeypatch.setattr(module, "make_stream", recorded)
    min_uf_search(1.0, spherical_weight(3), n=3, trials=2, samples=2000,
                  seed=7)
    assert keys["sphereplanks.linhart"] == [(7, ())]
    batches = keys["sphereplanks.measure"]
    # The segment's Monte Carlo U_f draws batches (7, (b,)), and trial t
    # draws (9 + t, (b,)); none of them is the instances' stream.
    assert (7, (1,)) in batches and (7, ()) not in batches
    assert {seed for seed, _ in batches} == {7, 9, 10}


@pytest.mark.parametrize("n, weight", [(2, spherical_weight(2)),
                                       (2, constant_weight()),
                                       (3, spherical_weight(3))],
                         ids=["n2-spherical", "n2-constant", "n3-spherical"])
def test_min_uf_search_fails_a_planted_shorter_segment(n, weight,
                                                       monkeypatch):
    """A segment shorter than the diameter is not in K(B), and its U_f lies
    below the segment's: the search must fail on the gap alone, while the
    segment itself still matches its bound."""
    from sphereplanks import linhart
    short = EuclideanPolytope(vertices=0.9 * segment_simplex(1.0, n).vertices)
    monkeypatch.setattr(linhart, "random_kb_instance",
                        lambda R, n, rng: short)
    rep = min_uf_search(1.0, weight, n=n, trials=3, samples=20000, seed=5)
    assert not rep.passed
    assert rep.slack < 0.0
    assert abs(rep.details["segment_residual"]) <= rep.tolerance


def test_min_uf_search_rejects_zero_trials():
    with pytest.raises(ValueError):
        min_uf_search(1.0, constant_weight(), trials=0)


def test_perturbed_segment_increases_uf():
    """Thickening the segment into a thin lens strictly increases U_f."""
    w = spherical_weight(2)
    seg = segment_simplex(1.0, 2)
    seg_val = uf(EuclideanPolytope(vertices=seg.vertices), w).value
    lens = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.4], [0.0, -0.4]])
    lens_val = uf(EuclideanPolytope(vertices=lens), w).value
    assert lens_val > seg_val + 1e-3


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1e3, 1e4,
                               1e6])
def test_constant_C_matches_closed_forms_for_any_radius(R):
    # C = L / ((n - 1) W_{n-2}): W_0 = pi/2, W_1 = 1, W_2 = pi/4, W_3 = 2/3.
    for n, den in ((2, math.pi / 2.0), (3, 2.0), (4, 3.0 * math.pi / 4.0),
                   (5, 8.0 / 3.0)):
        for got, want in ((constant_C(R, spherical_weight(n), n),
                           math.atan(R) / den),
                          (constant_C(R, constant_weight(), n), R / den)):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
