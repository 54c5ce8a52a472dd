"""Gnomonic projection, weight functions, and the U_f functional."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sphereplanks import (check_projection_consistency, constant_weight,
                          frame_at, hyperplane_meets,
                          hyperplane_param, make_stream, octant_body,
                          project_body, project_point, random_body,
                          sample_uniform_sphere, spherical_weight, uf)
from sphereplanks.bodies import BodyError
from sphereplanks.gnomonic import (EuclideanPolytope, _uf_integrand,
                                   circumcenter_frame)
from sphereplanks.measure import default_samples
from sphereplanks.randgen import cap_polytope, random_lune
from sphereplanks.sphere import BLOCK_ENTRIES


# ---------------------------------------------------------------------------
# Frames and the projection
# ---------------------------------------------------------------------------

def test_frame_is_orthonormal():
    rng = make_stream(0)
    for n in (2, 3, 4):
        e = sample_uniform_sphere(n, rng)
        fr = frame_at(e)
        G = np.vstack([fr.e, fr.basis])
        assert np.max(np.abs(G @ G.T - np.eye(n + 1))) < 1e-12


def test_projection_roundtrip():
    rng = make_stream(1)
    fr = frame_at(sample_uniform_sphere(3, rng))
    pts = sample_uniform_sphere(3, rng, size=1000)
    pts = pts[pts @ fr.e > 0.05]
    # Inverse map: lift y to e + y . basis and renormalise.
    amb = fr.e + project_point(fr, pts) @ fr.basis
    back = amb / np.linalg.norm(amb, axis=1, keepdims=True)
    assert np.max(np.abs(back - pts)) < 1e-12


def test_projection_norm_is_tangent():
    # |proj(x)| = tan(dist(x, e)).
    rng = make_stream(2)
    fr = frame_at(sample_uniform_sphere(2, rng))
    pts = sample_uniform_sphere(2, rng, size=500)
    pts = pts[pts @ fr.e > 0.1]
    y = project_point(fr, pts)
    ang = np.arccos(np.clip(pts @ fr.e, -1.0, 1.0))
    assert np.allclose(np.linalg.norm(y, axis=1), np.tan(ang), atol=1e-10)


def test_projection_rejects_equator():
    fr = frame_at(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        project_point(fr, np.array([1.0, 0.0, 0.0]))


def test_project_body_maps_cap_ring_to_tangent_circle():
    body = cap_polytope(2, [0.0, 0.0, 1.0], 0.5, n_vertices=32)
    fr = frame_at(np.array([0.0, 0.0, 1.0]))
    poly = project_body(fr, body)
    assert poly.vertices.shape == (32, 2)
    assert np.allclose(np.linalg.norm(poly.vertices, axis=1), math.tan(0.5),
                       atol=1e-12)


def test_project_body_rejects_ridge_on_equator():
    lune = random_lune(2, make_stream(3), angle=1.0)
    with pytest.raises(BodyError):
        project_body(frame_at(np.array([0.0, 0.0, 1.0])), lune)


def test_circumcenter_frame_octant():
    fr = circumcenter_frame(octant_body(2))
    assert np.allclose(fr.e, np.ones(3) / math.sqrt(3.0), atol=1e-9)


# ---------------------------------------------------------------------------
# Hyperplane parametrization
# ---------------------------------------------------------------------------

def test_hyperplane_param_equator_direction():
    fr = frame_at(np.array([0.0, 0.0, 1.0]))
    u = np.array([1.0, 0.0, 0.0])  # tau = 0: hyperplane through the origin
    u0, t = hyperplane_param(fr, u)
    assert t == 0.0
    assert np.allclose(fr.basis @ (-u), u0)


def test_hyperplane_param_diagonal():
    fr = frame_at(np.array([0.0, 0.0, 1.0]))
    u = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    u0, t = hyperplane_param(fr, u)
    assert t == pytest.approx(1.0, abs=1e-12)


def test_hyperplane_param_rejects_pole():
    fr = frame_at(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        hyperplane_param(fr, fr.e)


def test_hyperplane_incidence_is_preserved():
    """u-perp meets K iff the projected hyperplane meets the projected
    polytope (strict cases; boundary grazing excluded by a margin)."""
    rng = make_stream(4)
    body = random_body(2, rng)
    fr = circumcenter_frame(body)
    poly = project_body(fr, body)
    n_checked = 0
    for _ in range(2000):
        u = sample_uniform_sphere(2, rng)
        if u @ fr.e < 0.0:
            u = -u
        if u @ fr.e > 1.0 - 1e-9:
            continue
        u0, t = hyperplane_param(fr, u)
        dots = poly.vertices @ u0
        margin = 1e-9
        if abs(t - dots.max()) < margin or abs(t - dots.min()) < margin:
            continue
        flat_meets = dots.min() < t < dots.max()
        assert bool(hyperplane_meets(body, u)) == flat_meets
        n_checked += 1
    assert n_checked > 1500


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 10))
def test_spherical_weight_F_matches_quadrature_above_dimension_4(n):
    w = spherical_weight(n)

    def f(t):
        return (1.0 + t * t) ** (-(n + 1) / 2.0)

    s = np.array([0.0, 1e-6, 0.1, 0.5, 1.0, 2.0, 7.5, 40.0, 1e4])
    ref = [quad(f, 0.0, x, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
           for x in s]
    assert np.all(f(s) > 0.0)
    assert np.allclose(w.F(s), ref, rtol=1e-13, atol=1e-15)
    assert float(w.F(0.5)) == pytest.approx(ref[3], rel=1e-13)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", range(2, 10))
def test_spherical_weight_F_is_finite_and_bounded_for_huge_s(n):
    # F rises to int_0^{pi/2} cos^(n-1) (Wallis); to rounding it stays
    # nondecreasing and below that limit up to s = 1e154, where s^2 is
    # still finite.
    limit = math.pi / 2.0 if n % 2 else 1.0
    for k in range(3 - n % 2, n, 2):
        limit *= (k - 1) / k
    F = spherical_weight(n).F(np.concatenate([[0.0],
                                              np.logspace(-13, 154, 20001)]))
    ulp = np.finfo(float).eps * limit
    assert np.all(np.isfinite(F))
    assert np.all(np.diff(F) >= -4.0 * ulp)
    assert np.max(F) <= limit + 4.0 * ulp


def test_spherical_weight_generic_dimension():
    w = spherical_weight(5)
    oracle, _ = quad(lambda t: (1.0 + t * t) ** (-3.0), 0.0, 1.5,
                     epsabs=1e-12)
    assert float(w.F(1.5)) == pytest.approx(oracle, abs=1e-9)


def test_constant_weight():
    w = constant_weight()
    assert float(w.F(3.0)) == 3.0


def test_change_of_variables_identity():
    """The substitution t = tau / sqrt(1 - tau^2) carries the spherical
    height density to the weight (1 + t^2)^(-(n+1)/2)."""
    for n, (a, b) in [(2, (0.1, 0.8)), (3, (0.0, 0.5)), (3, (0.3, 0.99))]:
        lhs, _ = quad(lambda tau: (1.0 - tau * tau) ** ((n - 2) / 2.0),
                      a, b, epsabs=1e-12)
        ta = a / math.sqrt(1.0 - a * a)
        tb = b / math.sqrt(1.0 - b * b)
        rhs, _ = quad(lambda t: (1.0 + t * t) ** (-(n + 1) / 2.0),
                      ta, tb, epsabs=1e-12)
        assert lhs == pytest.approx(rhs, abs=1e-9)


# ---------------------------------------------------------------------------
# The functional U_f
# ---------------------------------------------------------------------------

def test_uf_constant_weight_square():
    # With f = 1 and 0 in K, U_f = int h(u) du = perimeter integral of the
    # support function: for the unit square int |cos| + |sin| = 8.
    poly = EuclideanPolytope(vertices=np.array(
        [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))
    est = uf(poly, constant_weight())
    assert est.value == pytest.approx(8.0, abs=1e-9)


def test_uf_two_sided_translation_invariant_measure():
    # nu_f counts hyperplanes, so translating the body off the origin must
    # not change U_f (two-sided integrand handles 0 outside K).
    w = spherical_weight(2)
    sq = np.array([[0.5, 0.5], [0.5, -0.5], [-0.5, 0.5], [-0.5, -0.5]])
    base = uf(EuclideanPolytope(vertices=sq), w)
    shifted = uf(EuclideanPolytope(vertices=sq + np.array([2.0, 0.7])), w)
    # Not equal in general for weighted measures (f decays with distance),
    # but the two-sided form must still bound it and stay positive.
    assert shifted.value > 0.0
    assert shifted.value < base.value  # far hyperplane bands weigh less


def test_uf_quadrature_matches_mc():
    rng = make_stream(5)
    body = random_body(2, rng)
    poly = project_body(circumcenter_frame(body), body)
    w = spherical_weight(2)
    q = uf(poly, w, mode="quadrature")
    m = uf(poly, w, mode="mc", samples=400_000, seed=6)
    assert abs(q.value - m.value) <= 3.0 * m.stderr


def test_uf_quadrature_rejects_higher_dim():
    poly = EuclideanPolytope(vertices=np.eye(3))
    with pytest.raises(ValueError):
        uf(poly, constant_weight(), mode="quadrature")


def test_uf_segment_closed_form():
    # Segment [-a, a] x {0}: hyperplanes with normal angle theta meet it
    # iff |t| <= a |cos theta|; U_f = int F(a |cos|) = 4 int_0^{pi/2}.
    a = 1.0
    poly = EuclideanPolytope(vertices=np.array([[a, 0.0], [-a, 0.0]]))
    w = spherical_weight(2)
    est = uf(poly, w)
    oracle, _ = quad(lambda th: float(w.F(a * abs(math.cos(th)))),
                     0.0, 2.0 * math.pi, epsabs=1e-12)
    assert est.value == pytest.approx(oracle, abs=1e-8)
    # Which is 4 arcsin(a / sqrt(1 + a^2)) = 4 * (pi/4) for a = 1.
    assert est.value == pytest.approx(math.pi, abs=1e-8)


def _one_shot_integrand(poly, w, dirs):
    """Reference: the whole batch's vertex-major product in one call."""
    dots = poly.vertices @ dirs.T
    upper = np.maximum(dots.max(axis=0), 0.0)
    lower = np.clip(dots.min(axis=0), 0.0, upper)
    return w.F(upper) - w.F(lower)


def _assert_integrands_agree(poly, w, dirs, atol=0.0):
    np.testing.assert_allclose(_uf_integrand(poly, w, dirs),
                               _one_shot_integrand(poly, w, dirs),
                               rtol=0.0, atol=atol)
    for u in dirs[:: max(1, len(dirs) // 5)]:
        assert _uf_integrand(poly, w, u) == _one_shot_integrand(poly, w, u)


@given(n=st.integers(2, 4), k=st.integers(1, 300), seed=st.integers(0, 2 ** 16),
       data=st.data())
@settings(max_examples=25, deadline=None)
def test_blocked_uf_integrand_matches_one_shot(n, k, seed, data):
    """Over 3 or 4 row blocks, the last one ragged.  Integer vertices and
    directions on a 2^-20 grid give exact products in any blocking, so the
    integrands agree bitwise; for real vertices and uniform directions the
    blocked products may differ from the one-shot ones by an ulp."""
    rng = make_stream(seed)
    grid = EuclideanPolytope(
        vertices=rng.integers(-3, 4, (k, n)).astype(float))
    step = max(1, BLOCK_ENTRIES // grid.vertices.size)
    m = step * data.draw(st.integers(2, 3)) + \
        data.draw(st.integers(1, step - 1))
    w = data.draw(st.sampled_from((spherical_weight(n), constant_weight())))
    dirs = sample_uniform_sphere(n - 1, rng, size=m)
    _assert_integrands_agree(grid, w, np.round(dirs * 2.0 ** 20) / 2.0 ** 20)
    real = EuclideanPolytope(vertices=rng.standard_normal((k, n)))
    _assert_integrands_agree(real, w, dirs, atol=1e-12)


@pytest.mark.parametrize("n", [2, 4])
def test_blocked_uf_integrand_with_one_direction_per_block(n):
    # k * n > BLOCK_ENTRIES, so every block holds a single direction.
    rng = make_stream(n)
    poly = EuclideanPolytope(vertices=rng.integers(
        -3, 4, (BLOCK_ENTRIES // n + 1, n)).astype(float))
    dirs = np.round(sample_uniform_sphere(n - 1, rng, size=6) * 2.0 ** 20)
    _assert_integrands_agree(poly, spherical_weight(n), dirs / 2.0 ** 20)


def test_uf_mc_reproducible():
    poly = EuclideanPolytope(vertices=np.eye(3))
    w = spherical_weight(3)
    a = uf(poly, w, samples=100_000, seed=7, threads=1)
    b = uf(poly, w, samples=100_000, seed=7, threads=4)
    assert a.value == b.value and a.stderr == b.stderr


def test_projection_report_states_both_sample_counts():
    # At default samples the sphere side of an S^4 body draws
    # default_samples(4) points, while U_f keeps its own 1e6 default.
    rep = check_projection_consistency(octant_body(4), seed=3)
    assert rep.passed
    d = rep.to_dict()
    assert d["samples"] == default_samples(4) == 4_000_000
    assert d["flat_samples"] == 1_000_000


RADII = (0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1e3, 1e4, 1e6)


@pytest.mark.parametrize("R", RADII)
def test_uf_segment_matches_closed_forms_for_any_radius(R):
    # U_f of [-R, R] x {0} is 4 atan R for the spherical weight and 4R for
    # the constant one; F(R |cos|) has a layer about 1/R wide beside each
    # direction orthogonal to the segment.
    seg = EuclideanPolytope(vertices=np.array([[R, 0.0], [-R, 0.0]]))
    assert uf(seg, spherical_weight(2)).value == \
        pytest.approx(4.0 * math.atan(R), rel=1e-12, abs=0.0)
    assert uf(seg, constant_weight()).value == \
        pytest.approx(4.0 * R, rel=1e-12, abs=0.0)
