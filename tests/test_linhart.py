"""Enclosing balls, spherical images, the hemisphere average C(R, f), and
the vertex-average inequality."""

import math

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
from sphereplanks.gnomonic import EuclideanPolytope
from sphereplanks.linhart import (_images, check_vertex_averages,
                                  make_kb_instance, random_kb_instance,
                                  sample_spherical_image)
from sphereplanks.measure import mc_map
from sphereplanks.sphere import sample_sphere_batches


# ---------------------------------------------------------------------------
# Smallest enclosing ball
# ---------------------------------------------------------------------------

def test_seb_single_point():
    c, r = smallest_enclosing_ball(np.array([[2.0, 3.0]]))
    assert np.allclose(c, [2.0, 3.0]) and r == 0.0


def test_seb_antipodal_pair():
    c, r = smallest_enclosing_ball(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert np.allclose(c, 0.0, atol=1e-12)
    assert r == pytest.approx(1.0, abs=1e-12)


def test_seb_equilateral_triangle():
    # Side s: circumradius s / sqrt(3).
    s = 2.0
    pts = np.array([[0.0, 0.0], [s, 0.0], [s / 2.0, s * math.sqrt(3) / 2.0]])
    c, r = smallest_enclosing_ball(pts)
    assert r == pytest.approx(s / math.sqrt(3.0), abs=1e-10)
    assert np.allclose(c, pts.mean(axis=0), atol=1e-10)


def test_seb_obtuse_triangle_uses_diameter():
    pts = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 0.1]])
    c, r = smallest_enclosing_ball(pts)
    assert r == pytest.approx(2.0, abs=1e-10)
    assert np.allclose(c, [2.0, 0.0], atol=1e-10)


@pytest.mark.parametrize("m,d,seed", [(10, 2, 0), (20, 3, 1), (15, 4, 2),
                                      (30, 2, 3)])
def test_seb_random_against_brute_force(m, d, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(m, d))
    c, r = smallest_enclosing_ball(pts)
    # Feasibility.
    assert np.max(np.linalg.norm(pts - c, axis=1)) <= r + 1e-8
    # No random candidate center does better.
    for _ in range(200):
        cand = c + rng.normal(scale=0.3, size=d)
        assert np.max(np.linalg.norm(pts - cand, axis=1)) >= r - 1e-8


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
    cases = [("regular-triangle", regular_triangle(1.0))]
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
    reports = check_vertex_averages(s, constant_weight(), samples, seed=21)
    assert sum(r.details["accepted"] for r in reports) == 2 * samples
    if name.startswith("segment"):
        for r in reports:
            assert r.details["accepted"] == samples
            assert r.details["mu_Sj"] == sphere_area(s.n - 1) / 2.0


@pytest.mark.parametrize("name,s", _image_cases(dims=(2, 3)))
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
    # Reference: the average over the accepted directions themselves, as
    # check_7_1 took it before one draw served every vertex.  The heights
    # are the same row products, taken chunk by chunk.
    for j, rep in enumerate(reports):
        acc, total = sample_spherical_image(s, j, samples, seed)
        h = np.clip(s.R * (acc @ (s.vertices[j] / s.R)), 0.0, None)
        g = np.asarray(w.F(h), dtype=float)
        assert (rep.details["accepted"], total) == (acc.shape[0], samples)
        assert rep.lhs == float(np.mean(g))
        assert rep.details["stderr"] == \
            float(np.std(g, ddof=1) / math.sqrt(g.shape[0]))


def _folded_route(s, samples, seed, threads):
    """Per chunk and vertex, the accepted folded directions u and their
    heights u @ ej, by folding each direction onto D_j and testing it with
    ``normal_cone_membership``."""
    def draw(rngs, sizes):
        dirs = sample_sphere_batches(s.n - 1, rngs, sizes)
        out = []
        for j in range(s.k + 1):
            ej = s.vertices[j] / s.R
            u = dirs * np.where(dirs @ ej >= 0.0, 1.0, -1.0)[:, None]
            u = np.compress(normal_cone_membership(s, j, u), u, axis=0)
            out.append((u, u @ ej))
        return out

    return mc_map(draw, samples, seed, threads)


@pytest.mark.parametrize("name,s", _image_cases())
def test_height_partition_matches_the_folded_membership_route(name, s):
    samples, seed = 40_000, 23  # three chunks
    want = _folded_route(s, samples, seed, 1)
    vertices = range(s.k + 1)
    for threads in (1, 2):
        got = _images(s, vertices, samples, seed, threads,
                      lambda dirs, a, keep: np.abs(np.compress(keep, a)))
        assert len(got) == len(want) == 3
        for chunk, ref in zip(got, want):
            for h, (_, h_ref) in zip(chunk, ref):
                assert np.array_equal(h.view(np.uint64),
                                      h_ref.view(np.uint64))
    for j in vertices:
        acc, _ = sample_spherical_image(s, j, samples, seed, threads=2)
        ref = np.concatenate([chunk[j][0] for chunk in want])
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
            poly = EuclideanPolytope(n=2, vertices=seg.vertices)
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
        poly = EuclideanPolytope(n=n, vertices=s.vertices)
        direct = uf(poly, w, samples=300_000, seed=14)
        reports = check_vertex_averages(s, w, samples=300_000, seed=15)
        via = math.fsum(r.details["mu_Sj"] * r.lhs for r in reports)
        via_stderr = math.fsum(r.details["mu_Sj"] * r.details["stderr"]
                               for r in reports)
        tol = 3.0 * math.hypot(direct.stderr, via_stderr)
        assert abs(direct.value - via) <= tol, (n, k, direct, via, tol)


def test_random_kb_instances_are_valid():
    # Welzl's ball is B, and so is what a second algorithm sees: every
    # point lies in B, and Wolfe's min-norm point puts the origin in the
    # hull of the points on the boundary sphere.
    for n in (2, 3, 4, 5):
        for seed in (16, 17, 18):
            rng = make_stream(seed)
            for _ in range(20):
                R = float(rng.uniform(0.5, 3.0))
                P = random_kb_instance(R, n, rng).vertices
                c, r = smallest_enclosing_ball(P)
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


def test_min_uf_search_passes():
    rep = min_uf_search(1.0, spherical_weight(2), n=2, trials=20, seed=17)
    assert rep.passed, rep.to_dict()
    assert abs(rep.details["segment_residual"]) < 1e-7
    assert rep.slack >= 0.0


def test_min_uf_search_rejects_zero_trials():
    with pytest.raises(ValueError):
        min_uf_search(1.0, constant_weight(), trials=0)


def test_perturbed_segment_increases_uf():
    """Thickening the segment into a thin lens strictly increases U_f."""
    w = spherical_weight(2)
    seg = segment_simplex(1.0, 2)
    seg_val = uf(EuclideanPolytope(n=2, vertices=seg.vertices), w).value
    lens = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.4], [0.0, -0.4]])
    lens_val = uf(EuclideanPolytope(n=2, vertices=lens), w).value
    assert lens_val > seg_val + 1e-3


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1e3, 1e4,
                               1e6])
def test_constant_C_matches_closed_forms_for_any_radius(R):
    # F(R cos phi) has a layer about 1/R wide at phi = pi/2.
    for got, want in ((constant_C(R, spherical_weight(2), 2),
                       2.0 / math.pi * math.atan(R)),
                      (constant_C(R, spherical_weight(3), 3),
                       math.atan(R) / 2.0),
                      (constant_C(R, constant_weight(), 2), 2.0 * R / math.pi),
                      (constant_C(R, constant_weight(), 3), R / 2.0)):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
