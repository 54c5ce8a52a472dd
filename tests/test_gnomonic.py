"""Gnomonic projection, weight functions, and the U_f functional."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from sphereplanks import (constant_weight, frame_at, hyperplane_meets,
                          hyperplane_param, make_stream, octant_body,
                          project_body, project_point, random_body,
                          sample_uniform_sphere, spherical_weight,
                          support_function, tabulated_weight, uf,
                          unproject_point)
from sphereplanks.bodies import BodyError
from sphereplanks.gnomonic import (EuclideanPolytope, circumcenter_frame,
                                   validate_weight)
from sphereplanks.randgen import cap_polytope, random_lune


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
    back = unproject_point(fr, project_point(fr, pts))
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


def test_project_body_flags_origin():
    body = cap_polytope(2, [0.0, 0.0, 1.0], 0.5, n_vertices=32)
    fr = frame_at(np.array([0.0, 0.0, 1.0]))
    poly = project_body(fr, body)
    assert poly.contains_origin
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

@pytest.mark.parametrize("n", [2, 3, 4])
def test_spherical_weight_closed_form_F(n):
    w = spherical_weight(n)
    for s in (0.0, 0.3, 1.0, 2.5, 10.0):
        oracle, _ = quad(lambda t: (1.0 + t * t) ** (-(n + 1) / 2.0),
                         0.0, s, epsabs=1e-12)
        assert float(w.F(s)) == pytest.approx(oracle, abs=1e-10)
    assert validate_weight(w)


def test_spherical_weight_generic_dimension():
    w = spherical_weight(5)
    oracle, _ = quad(lambda t: (1.0 + t * t) ** (-3.0), 0.0, 1.5,
                     epsabs=1e-12)
    assert float(w.F(1.5)) == pytest.approx(oracle, abs=1e-9)


def test_constant_weight():
    w = constant_weight(2.0)
    assert float(w.F(3.0)) == 6.0
    with pytest.raises(ValueError):
        constant_weight(0.0)


def test_tabulated_weight_matches_table():
    ts = np.linspace(0.0, 5.0, 2001)
    w_exact = spherical_weight(2)
    w_tab = tabulated_weight(ts, np.asarray(w_exact.f(ts)))
    for s in (0.5, 1.7, 4.2):
        assert float(w_tab.F(s)) == pytest.approx(float(w_exact.F(s)),
                                                  abs=1e-5)
    assert validate_weight(w_tab, smax=5.0)


def test_tabulated_weight_validation():
    with pytest.raises(ValueError):
        tabulated_weight([0.0, 1.0], [1.0, -1.0])
    with pytest.raises(ValueError):
        tabulated_weight([0.5, 1.0], [1.0, 1.0])


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

def test_support_function_square():
    poly = EuclideanPolytope(n=2, vertices=np.array(
        [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]),
        contains_origin=True)
    assert support_function(poly, np.array([1.0, 0.0])) == 1.0
    th = np.linspace(0.0, 2.0 * math.pi, 7)
    dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
    assert np.allclose(support_function(poly, dirs),
                       np.abs(dirs).sum(axis=1))


def test_uf_constant_weight_square():
    # With f = 1 and 0 in K, U_f = int h(u) du = perimeter integral of the
    # support function: for the unit square int |cos| + |sin| = 8.
    poly = EuclideanPolytope(n=2, vertices=np.array(
        [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]),
        contains_origin=True)
    est = uf(poly, constant_weight())
    assert est.value == pytest.approx(8.0, abs=1e-9)


def test_uf_two_sided_translation_invariant_measure():
    # nu_f counts hyperplanes, so translating the body off the origin must
    # not change U_f (two-sided integrand handles 0 outside K).
    w = spherical_weight(2)
    sq = np.array([[0.5, 0.5], [0.5, -0.5], [-0.5, 0.5], [-0.5, -0.5]])
    base = uf(EuclideanPolytope(n=2, vertices=sq, contains_origin=True), w)
    shifted = uf(EuclideanPolytope(n=2, vertices=sq + np.array([2.0, 0.7]),
                                   contains_origin=False), w)
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
    poly = EuclideanPolytope(n=3, vertices=np.eye(3), contains_origin=False)
    with pytest.raises(ValueError):
        uf(poly, constant_weight(), mode="quadrature")


def test_uf_segment_closed_form():
    # Segment [-a, a] x {0}: hyperplanes with normal angle theta meet it
    # iff |t| <= a |cos theta|; U_f = int F(a |cos|) = 4 int_0^{pi/2}.
    a = 1.0
    poly = EuclideanPolytope(n=2, vertices=np.array([[a, 0.0], [-a, 0.0]]),
                             contains_origin=True)
    w = spherical_weight(2)
    est = uf(poly, w)
    oracle, _ = quad(lambda th: float(w.F(a * abs(math.cos(th)))),
                     0.0, 2.0 * math.pi, epsabs=1e-12)
    assert est.value == pytest.approx(oracle, abs=1e-8)
    # Which is 4 arcsin(a / sqrt(1 + a^2)) = 4 * (pi/4) for a = 1.
    assert est.value == pytest.approx(math.pi, abs=1e-8)


def test_uf_mc_reproducible():
    poly = EuclideanPolytope(n=3, vertices=np.eye(3), contains_origin=False)
    w = spherical_weight(3)
    a = uf(poly, w, samples=100_000, seed=7, threads=1)
    b = uf(poly, w, samples=100_000, seed=7, threads=4)
    assert a.value == b.value and a.stderr == b.stderr
