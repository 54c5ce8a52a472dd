"""Sphere primitives: measure constants, distances, samplers."""

import math

import numpy as np
import pytest

from sphereplanks.sphere import (CAP_ROUND_DRAWS, GL_NODES, UNIT_TOL,
                                 SphericalCap, cap_area, gauss_legendre,
                                 geodesic_distance, make_stream,
                                 sample_sphere_batches, sample_uniform_cap,
                                 sample_uniform_sphere, sphere_area)


def test_sphere_area_closed_forms():
    assert sphere_area(1) == pytest.approx(2 * math.pi, abs=1e-12)
    assert sphere_area(2) == pytest.approx(4 * math.pi, abs=1e-12)
    assert sphere_area(3) == pytest.approx(2 * math.pi ** 2, abs=1e-12)


def test_sphere_area_rejects_bad_dimension():
    with pytest.raises(ValueError):
        sphere_area(0)


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_area_matches_surface_integration(n):
    # Full cap of radius pi integrates the surface element over the sphere.
    assert cap_area(n, math.pi) == pytest.approx(sphere_area(n), abs=1e-9)


def _x_minus_sin(x):
    """x - sin x without cancellation: its Taylor series below 1."""
    if x >= 1.0:
        return x - math.sin(x)
    term, total, k = x ** 3 / 6.0, 0.0, 3
    while abs(term) > 1e-18 * x ** 3:
        total += term
        term *= -x * x / ((k + 1) * (k + 2))
        k += 2
    return total


_CAP_CLOSED_FORMS = {
    1: lambda r: 2.0 * r,
    2: lambda r: 4.0 * math.pi * math.sin(r / 2.0) ** 2,
    # 4 pi int_0^r sin^2 = pi (2r - sin 2r)
    3: lambda r: math.pi * _x_minus_sin(2.0 * r),
    # 2 pi^2 int_0^r sin^3 = 2 pi^2 (1 - cos r)^2 (2 + cos r) / 3
    4: lambda r: 2.0 * math.pi ** 2 * (2.0 * math.sin(r / 2.0) ** 2) ** 2
    * (2.0 + math.cos(r)) / 3.0,
}
_RADII = np.geomspace(1e-6, math.pi, 25)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cap_area_matches_closed_forms(n):
    for r in _RADII:
        exact = _CAP_CLOSED_FORMS[n](r)
        assert cap_area(n, r) == pytest.approx(exact, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_cap_area_matches_adaptive_quadrature(n):
    from scipy.integrate import quad
    for r in _RADII:
        val, _ = quad(lambda t: math.sin(t) ** (n - 1), 0.0, r, epsabs=0.0,
                      epsrel=1e-13, limit=200)
        assert cap_area(n, r) == pytest.approx(sphere_area(n - 1) * val,
                                               rel=1e-13, abs=0.0)


def test_gauss_legendre_rule_is_made_once(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda k: calls.append(k) or leggauss(k))
    gauss_legendre.cache_clear()
    for r in _RADII:
        cap_area(3, r)
    assert calls == [GL_NODES]
    x, w = gauss_legendre(GL_NODES)
    assert gauss_legendre(GL_NODES)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    assert math.fsum(w) == pytest.approx(2.0, abs=1e-14)


def test_geodesic_distance_examples():
    x = np.array([1.0, 0.0, 0.0])
    assert geodesic_distance(x, x) == 0.0
    assert geodesic_distance(x, -x) == pytest.approx(math.pi, abs=1e-15)
    y = np.array([0.0, 1.0, 0.0])
    assert geodesic_distance(x, y) == pytest.approx(math.pi / 2, abs=1e-15)


def test_geodesic_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        geodesic_distance(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_geodesic_distance_symmetry_and_triangle():
    rng = make_stream(42)
    for _ in range(200):
        x, y, z = sample_uniform_sphere(3, rng, size=3)
        assert geodesic_distance(x, y) == pytest.approx(
            geodesic_distance(y, x), abs=1e-12)
        assert geodesic_distance(x, z) <= \
            geodesic_distance(x, y) + geodesic_distance(y, z) + 1e-12


def test_uniform_sphere_norms_and_symmetry():
    rng = make_stream(0)
    pts = sample_uniform_sphere(2, rng, size=1_000_000)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12
    # Fixed hemisphere hit fraction.
    frac = np.mean(pts[:, 0] >= 0.0)
    assert abs(frac - 0.5) <= 3 * 0.5 / 1e3
    # Coordinate means vanish at the CLT scale.
    assert np.max(np.abs(pts.mean(axis=0))) <= 3.0 / 1e3


def test_cap_sampler_zero_radius_is_center():
    cap = SphericalCap(center=np.array([0.0, 0.0, 1.0]), radius=0.0)
    pts = sample_uniform_cap(cap, make_stream(1), size=5)
    assert np.all(pts == cap.center)


def test_cap_sampler_stays_in_cap():
    cap = SphericalCap(center=np.array([0.0, 0.0, 1.0]),
                       radius=math.pi / 2)
    pts = sample_uniform_cap(cap, make_stream(2), size=200_000)
    assert np.all(geodesic_distance(pts, cap.center) <= math.pi / 2 + 1e-12)


def test_cap_sampler_subcap_fraction():
    # Sub-cap of radius pi/4 inside a hemisphere on S^2: area ratio
    # (1 - cos(pi/4)) / 1.
    n_samp = 1_000_000
    cap = SphericalCap(center=np.array([0.0, 0.0, 1.0]),
                       radius=math.pi / 2)
    pts = sample_uniform_cap(cap, make_stream(3), size=n_samp)
    frac = np.mean(geodesic_distance(pts, cap.center) <= math.pi / 4)
    expect = 1.0 - math.cos(math.pi / 4)
    stderr = math.sqrt(expect * (1 - expect) / n_samp)
    assert abs(frac - expect) <= 3 * stderr


@pytest.mark.parametrize("n,radius,test_radius", [
    (2, 2.0, 1.0),
    (3, math.pi, 1.3),
])
def test_cap_sampler_matches_cap_area(n, radius, test_radius):
    n_samp = 400_000
    center = np.zeros(n + 1)
    center[0] = 1.0
    cap = SphericalCap(center=center, radius=radius)
    pts = sample_uniform_cap(cap, make_stream(4), size=n_samp)
    frac = np.mean(geodesic_distance(pts, center) <= test_radius)
    expect = cap_area(n, test_radius) / cap_area(n, radius)
    stderr = math.sqrt(expect * (1 - expect) / n_samp)
    assert abs(frac - expect) <= 3 * stderr


def test_full_cap_equals_sphere_law():
    n_samp = 200_000
    cap = SphericalCap(center=np.array([0.0, 0.0, 1.0]), radius=math.pi)
    pts = sample_uniform_cap(cap, make_stream(5), size=n_samp)
    frac = np.mean(pts[:, 2] >= 0.0)
    assert abs(frac - 0.5) <= 3 * 0.5 / math.sqrt(n_samp)


def test_streams_are_reproducible_and_independent():
    a = sample_uniform_sphere(2, make_stream(7), size=10)
    b = sample_uniform_sphere(2, make_stream(7), size=10)
    assert np.array_equal(a, b)
    x1 = sample_uniform_sphere(2, make_stream(7, (0,)), size=10)
    x2 = sample_uniform_sphere(2, make_stream(7, (1,)), size=10)
    assert not np.array_equal(x1, x2)


def test_batch_streams_are_uncorrelated():
    # The 64 streams one Monte Carlo run draws from: the sample correlation
    # of two independent normal sequences of length m has standard error
    # 1/sqrt(m); every one of the 2,016 pairs stays within 5 of those.
    m = 20_000
    g = np.stack([make_stream(17, (b,)).standard_normal(m)
                  for b in range(64)])
    corr = np.corrcoef(g)
    off = corr[~np.eye(64, dtype=bool)]
    assert np.max(np.abs(off)) <= 5.0 / math.sqrt(m)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batch_sampler_second_moments(n):
    # Uniform on S^n: E[x x^T] = I / (n+1).  Per entry the standard error
    # is sqrt(var / m), with E[x_i^4] = 3 / ((n+1)(n+3)) on the diagonal
    # and E[x_i^2 x_j^2] = 1 / ((n+1)(n+3)) off it; bound 5 of them.
    m = 1_000_000
    sizes = [m // 64] * 64
    x = sample_sphere_batches(n, [make_stream(19, (b,)) for b in range(64)],
                              sizes)
    moments = x.T @ x / m
    d, p = n + 1, 1.0 / ((n + 1) * (n + 3))
    sigma = np.full((d, d), math.sqrt(p / m))
    np.fill_diagonal(sigma, math.sqrt((3.0 * p - 1.0 / d ** 2) / m))
    assert np.all(np.abs(moments - np.eye(d) / d) <= 5.0 * sigma)


class _CountingRng:
    """Generator wrapper that counts the Gaussian rows drawn through it."""

    def __init__(self, rng):
        self.rng = rng
        self.rows = 0
        self.largest = 0

    def standard_normal(self, shape=None, out=None):
        rows = (shape if out is None else out.shape)[0]
        self.rows += rows
        self.largest = max(self.largest, rows)
        return self.rng.standard_normal(shape, out=out)


class _ZeroFirstRowRng(_CountingRng):
    """Returns ``zero_draws`` all-zero first rows before the real stream."""

    def __init__(self, rng, zero_draws):
        super().__init__(rng)
        self.zero_draws = zero_draws

    def standard_normal(self, shape=None, out=None):
        g = super().standard_normal(shape, out=out)
        if self.zero_draws:
            self.zero_draws -= 1
            g[0] = 0.0
        return g


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_uniform_sphere_is_bitwise_the_norm_reference(n):
    # Reference: the Gaussian rows divided by their np.linalg.norm.
    for m in (1, 7, 1000, 10_000, 12345):
        g = make_stream(21, (n,)).standard_normal((m, n + 1))
        ref = g / np.linalg.norm(g, axis=1, keepdims=True)
        pts = sample_uniform_sphere(n, make_stream(21, (n,)), size=m)
        assert np.array_equal(pts.view(np.uint64), ref.view(np.uint64))
    one = sample_uniform_sphere(n, make_stream(21, (n,)))
    assert one.shape == (n + 1,)
    assert np.array_equal(one.view(np.uint64), ref[0].view(np.uint64))


@pytest.mark.parametrize("zero_draws", [1, 2])
def test_uniform_sphere_resamples_zero_rows(zero_draws):
    rng = _ZeroFirstRowRng(make_stream(8), zero_draws)
    pts = sample_uniform_sphere(2, rng, size=5)
    # One 5-row draw, then one single-row redraw per zero row.
    assert rng.rows == 5 + zero_draws
    g = make_stream(8).standard_normal((rng.rows, 3))
    g[0] = g[-1]
    assert np.all(np.isfinite(pts))
    assert np.array_equal(pts, g[:5] / np.linalg.norm(g[:5], axis=1,
                                                      keepdims=True))


class _ZeroFirstFillRng:
    """Seeded stream whose first ``zero_draws`` Gaussian fills or draws
    start with an all-zero row; takes a shape or an ``out=`` array."""

    def __init__(self, seed, zero_draws):
        self.rng = make_stream(seed)
        self.zero_draws = zero_draws

    def standard_normal(self, shape=None, out=None):
        g = self.rng.standard_normal(shape, out=out)
        if self.zero_draws:
            self.zero_draws -= 1
            g[0] = 0.0
        return g


@pytest.mark.parametrize("zeros", [(1, 0, 0), (0, 2, 0), (1, 1, 2)])
def test_batch_sampler_resamples_zero_rows_from_their_own_stream(zeros):
    sizes = [5, 3, 4]
    got = sample_sphere_batches(
        2, [_ZeroFirstFillRng(s, z) for s, z in zip((8, 9, 10), zeros)],
        sizes)
    ref = np.concatenate([
        sample_uniform_sphere(2, _ZeroFirstFillRng(s, z), size=m)
        for s, z, m in zip((8, 9, 10), zeros, sizes)])
    assert np.all(np.isfinite(got))
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("n,radius,m", [
    (2, 1.0, 5_000), (3, 1.0, 5_000), (4, 1.0, 5_000),
    (2, math.pi / 2, 5_000), (3, math.pi, 5_000),
    # Needs about 1.6e6 draws: more than one round of CAP_ROUND_DRAWS.
    (2, 0.05, 1_000),
])
def test_cap_sampler_keeps_first_accepted_draws(n, radius, m):
    center = np.zeros(n + 1)
    center[-1] = 1.0
    cap = SphericalCap(center=center, radius=radius)
    rng = _CountingRng(make_stream(9))
    pts = sample_uniform_cap(cap, rng, size=m)
    # Normals do not depend on how the draws are split into calls: the
    # result is the first m in-cap points of one long draw.
    draws = sample_uniform_sphere(n, make_stream(9), size=rng.rows)
    kept = draws[draws @ center >= math.cos(radius) - UNIT_TOL]
    assert np.array_equal(pts, kept[:m])
    assert np.array_equal(sample_uniform_cap(cap, make_stream(9)), kept[0])
    # Draws are sized from the cap's area fraction, not 4 per point.
    frac = cap_area(n, radius) / sphere_area(n)
    bound = 1.25 * m / frac
    if bound > CAP_ROUND_DRAWS:  # the last full round may overshoot
        bound += CAP_ROUND_DRAWS
    assert rng.rows <= bound
    assert rng.largest <= CAP_ROUND_DRAWS
