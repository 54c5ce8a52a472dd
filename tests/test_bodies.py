"""Convex bodies on the sphere: representations, polarity, radii."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereplanks import (BodyError, EuclideanPolytope, circumradius,
                          contains, frame_at, geodesic_distance,
                          hyperplane_meets, inradius,
                          intersect_with_hemisphere, make_body, make_lune,
                          make_lune_fan, make_lune_from_angle, make_stream,
                          octant_body, polar, random_body, random_lune,
                          sample_uniform_cap, sample_uniform_sphere,
                          segment_simplex)
from sphereplanks.bodies import CONTAIN_TOL, ConvexBody, inradius_value
from sphereplanks.randgen import cap_polytope
from sphereplanks.sphere import BLOCK_ENTRIES, SphericalCap

OCTANT_INRADIUS = math.asin(1.0 / math.sqrt(3.0))
OCTANT_CIRCUMRADIUS = math.acos(1.0 / math.sqrt(3.0))


# ---------------------------------------------------------------------------
# Construction and representations
# ---------------------------------------------------------------------------

def test_octant_representations():
    body = octant_body(2)
    assert body.is_body
    assert body.h_normals.shape == (3, 3)
    # V-rep recovered by conversion: the coordinate axes.
    got = sorted(tuple(np.round(v, 9)) for v in body.v_generators)
    want = sorted(tuple(r) for r in np.eye(3))
    assert got == want


def test_v_to_h_roundtrip_octant():
    body = make_body(2, v_generators=np.eye(3))
    got = sorted(tuple(np.round(u, 9)) for u in body.h_normals)
    want = sorted(tuple(r) for r in -np.eye(3))
    assert got == want


def test_make_body_rejects_non_unit():
    with pytest.raises(BodyError):
        make_body(2, h_normals=[[1.0, 1.0, 0.0]])


def test_make_body_rejects_inconsistent_reps():
    with pytest.raises(BodyError):
        make_body(2, h_normals=-np.eye(3),
                  v_generators=[[-1.0, 0.0, 0.0]])


def test_not_in_hemisphere_is_an_error():
    # Generators +-e_i span the whole sphere.
    with pytest.raises(BodyError, match="hemisphere"):
        make_body(2, v_generators=np.vstack([np.eye(3), -np.eye(3)]))


def test_single_point_is_not_a_body():
    body = make_body(2, v_generators=[[0.0, 0.0, 1.0]])
    assert not body.is_body
    with pytest.raises(BodyError):
        inradius(body)


def test_contains_octant_batch():
    body = octant_body(2)
    pts = np.array([[1.0, 0.0, 0.0],
                    [0.6, 0.8, 0.0],
                    [-0.6, 0.8, 0.0]])
    assert list(contains(body, pts)) == [True, True, False]


def test_hyperplane_meets_octant():
    body = octant_body(2)
    # The subsphere orthogonal to (1,-1,0)/sqrt(2) passes through the
    # octant (it contains (1,1,1)/sqrt(3)); the one orthogonal to a point
    # deep inside does not.
    u_hit = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    u_miss = np.ones(3) / math.sqrt(3.0)
    assert hyperplane_meets(body, u_hit)
    assert not hyperplane_meets(body, u_miss)


def _all_reduce_contains(body, x, tol=CONTAIN_TOL):
    """Reference: the point-major all-reduce formula."""
    return np.all(np.asarray(x) @ body.h_normals.T <= tol, axis=-1)


def _all_reduce_meets(body, u):
    """Reference: u-perp misses iff every generator is on one strict side."""
    vals = np.asarray(u) @ body.v_generators.T
    return ~(np.all(vals > 0.0, axis=-1) | np.all(vals < 0.0, axis=-1))


def _on_and_beside(g, normals, tol):
    """Each row of ``g`` moved onto each normal's hyperplane, then +-tol
    off it along the normal."""
    out = []
    for u in normals:
        on = g - np.outer(g @ u, u) / (u @ u)
        out += [on, on + tol * u, on - tol * u]
    return np.vstack(out)


# Coordinates that give exact products with the octant's poles and axes.
_EXACT = st.sampled_from((0.0, CONTAIN_TOL, -CONTAIN_TOL, 1.0, -1.0))


@given(n=st.integers(2, 4), kind=st.sampled_from(("octant", "lune", "random")),
       seed=st.integers(0, 2 ** 16), data=st.data())
@settings(max_examples=60, deadline=None)
def test_cone_tests_match_all_reduce_formulas(n, kind, seed, data):
    rng = make_stream(seed)
    body = {"octant": lambda: octant_body(n), "lune": lambda: random_lune(n, rng),
            "random": lambda: random_body(n, rng)}[kind]()
    rows = data.draw(st.lists(
        st.lists(st.one_of(_EXACT, st.floats(-1.0, 1.0)), min_size=n + 1,
                 max_size=n + 1), min_size=1, max_size=8))
    g = sample_uniform_sphere(n, rng, size=4)
    pts = np.vstack([np.array(rows), sample_uniform_sphere(n, rng, size=30),
                     _on_and_beside(g, body.h_normals, CONTAIN_TOL)])
    dirs = np.vstack([np.array(rows), sample_uniform_sphere(n, rng, size=30),
                      _on_and_beside(g, body.v_generators, CONTAIN_TOL)])
    assert np.array_equal(contains(body, pts), _all_reduce_contains(body, pts))
    assert np.array_equal(hyperplane_meets(body, dirs),
                          _all_reduce_meets(body, dirs))
    for x in pts:
        assert contains(body, x) == _all_reduce_contains(body, x)
    for u in dirs:
        assert hyperplane_meets(body, u) == _all_reduce_meets(body, u)


def _one_shot_contains(A, x, tol=CONTAIN_TOL):
    """Reference: the whole batch's facet-major product in one call."""
    return np.max(A @ x.T, axis=0) <= tol


def _one_shot_meets(A, u):
    vals = A @ u.T
    return (np.min(vals, axis=0) <= 0.0) & (np.max(vals, axis=0) >= 0.0)


def _ragged_batch(data, A):
    """A batch size spanning 3 or 4 row blocks of ``A``, the last one
    ragged."""
    step = max(1, BLOCK_ENTRIES // A.size)
    return step * data.draw(st.integers(2, 3)) + \
        data.draw(st.integers(1, step - 1))


def _axis_body(n, k, rng):
    """A record whose facet rows and generators are the same k coordinate
    axes of R^(n+1) (repeats allowed).  Each axis has one random sign, so
    0 is not in the rows' hull and the set has interior (Gordan)."""
    signed = np.eye(n + 1) * rng.choice([-1.0, 1.0], n + 1)
    A = signed[rng.integers(0, n + 1, k)]
    body = ConvexBody(h_normals=A, v_generators=A)
    assert body.is_body
    return body


def _exact_batch(n, m, rng):
    """Uniform points with about half the coordinates replaced by 0, +-tol
    or +-1; against axis rows each lies on a facet or exactly tol off it."""
    pts = sample_uniform_sphere(n, rng, size=m)
    mask = rng.random(pts.shape) < 0.5
    pts[mask] = rng.choice([0.0, 0.0, CONTAIN_TOL, -CONTAIN_TOL, 1.0, -1.0],
                           int(mask.sum()))
    return pts


def _assert_blocked_equals_one_shot(body, pts):
    assert np.array_equal(contains(body, pts),
                          _one_shot_contains(body.h_normals, pts))
    assert np.array_equal(hyperplane_meets(body, pts),
                          _one_shot_meets(body.v_generators, pts))
    for x in pts[:: max(1, len(pts) // 7)]:  # single vectors give scalars
        got = contains(body, x), hyperplane_meets(body, x)
        assert got == (_one_shot_contains(body.h_normals, x),
                       _one_shot_meets(body.v_generators, x))
        assert all(type(g) is np.bool_ for g in got)


@given(n=st.integers(2, 4), k=st.integers(1, 300), seed=st.integers(0, 2 ** 16),
       data=st.data())
@settings(max_examples=30, deadline=None)
def test_blocked_cone_tests_match_one_shot_on_exact_products(n, k, seed, data):
    """Facet rows that are signed axes make every product one coordinate,
    exactly, whatever the blocking; exact coordinates then put points on a
    facet and +-tol off it, so turning ``<=`` into ``<`` fails here."""
    rng = make_stream(seed)
    body = _axis_body(n, k, rng)
    _assert_blocked_equals_one_shot(
        body, _exact_batch(n, _ragged_batch(data, body.h_normals), rng))


@given(n=st.integers(2, 4), vertices=st.integers(8, 40),
       seed=st.integers(0, 2 ** 16), data=st.data())
@settings(max_examples=20, deadline=None)
def test_blocked_cone_tests_match_one_shot_on_cap_polytopes(n, vertices, seed,
                                                           data):
    """Many-facet bodies at uniform points, where no product sits within
    an ulp of a threshold."""
    rng = make_stream(seed)
    body = cap_polytope(n, np.eye(n + 1)[n], 0.7, n_vertices=vertices, rng=rng)
    m = max(_ragged_batch(data, body.h_normals),
            _ragged_batch(data, body.v_generators))
    _assert_blocked_equals_one_shot(body, sample_uniform_sphere(n, rng, m))


@pytest.mark.parametrize("n", [2, 4])
def test_blocked_cone_tests_with_one_point_per_block(n):
    # k * d > BLOCK_ENTRIES, so every block holds a single point.
    rng = make_stream(n)
    body = _axis_body(n, BLOCK_ENTRIES // (n + 1) + 1, rng)
    _assert_blocked_equals_one_shot(body, _exact_batch(n, 6, rng))


# ---------------------------------------------------------------------------
# Radii
# ---------------------------------------------------------------------------

def test_octant_inradius_closed_form():
    r, x = inradius(octant_body(2))
    assert r == pytest.approx(OCTANT_INRADIUS, abs=1e-12)
    assert np.allclose(x, np.ones(3) / math.sqrt(3.0), atol=1e-9)


def test_octant_inradius_brute_force_grid():
    """Independent oracle: maximize min distance-to-facet over a dense grid
    of interior points."""
    body = octant_body(2)
    best = 0.0
    ts = np.linspace(0.05, math.pi / 2 - 0.05, 120)
    for a in ts:
        for b in ts:
            x = np.array([math.cos(a) * math.cos(b),
                          math.cos(a) * math.sin(b), math.sin(a)])
            if not contains(body, x):
                continue
            # Distance from x to the great circle u-perp is arcsin|<u,x>|.
            best = max(best, np.min(np.arcsin(np.abs(body.h_normals @ x))))
    # The grid value can only undershoot, by at most the grid spacing.
    assert best <= OCTANT_INRADIUS + 1e-12
    assert best >= OCTANT_INRADIUS - 0.02
    assert inradius(body)[0] == pytest.approx(OCTANT_INRADIUS, abs=1e-10)


def test_octant_circumradius_closed_form():
    R, c = circumradius(octant_body(2))
    assert R == pytest.approx(OCTANT_CIRCUMRADIUS, abs=1e-12)
    assert c is not None


def test_incenter_cap_is_inside():
    rng = make_stream(11)
    body = random_body(2, rng)
    r, x = inradius(body)
    cap = SphericalCap(center=x, radius=r - 1e-7)
    pts = sample_uniform_cap(cap, rng, size=50_000)
    assert np.all(contains(body, pts))


def test_circumball_contains_generators():
    rng = make_stream(12)
    for n in (2, 3):
        body = random_body(n, rng)
        R, c = circumradius(body)
        dists = geodesic_distance(body.v_generators, c)
        assert np.max(dists) <= R + 1e-9
        assert R < math.pi / 2


def test_circumradius_hemisphere_flag():
    # A closed hemisphere is not inside any open hemisphere.
    hemi = make_lune(2, np.array([0.0, 0.0, 1.0]))
    R, c = circumradius(hemi)
    assert c is None
    assert R == pytest.approx(math.pi / 2)


def test_inradius_monotone_under_shrinking():
    rng = make_stream(13)
    for _ in range(10):
        body = random_body(2, rng)
        r, x = inradius(body)
        # Add a constraint through a point at distance < r from the
        # incenter: the inradius must strictly drop.
        u = -np.asarray(x)
        cut = make_body(2, h_normals=np.vstack([body.h_normals, u]))
        if not cut.is_body:
            continue
        assert inradius(cut)[0] <= r + 1e-12


# ---------------------------------------------------------------------------
# Polarity
# ---------------------------------------------------------------------------

def test_polar_swaps_representations():
    body = octant_body(2)
    pol = polar(body)
    assert np.array_equal(pol.h_normals, body.v_generators)
    assert np.array_equal(pol.v_generators, body.h_normals)


def test_octant_polar_is_negative_octant():
    body = octant_body(2)
    pol = polar(body)
    center = np.ones(3) / math.sqrt(3.0)
    assert pol.is_body
    assert contains(pol, -center)
    assert not contains(pol, center)
    # Reflection through the origin: K* = -K for the octant.
    assert inradius(pol)[0] == pytest.approx(OCTANT_INRADIUS, abs=1e-12)


def test_bipolar_is_identity():
    rng = make_stream(14)
    for n in (2, 3):
        body = random_body(n, rng)
        back = polar(polar(body))
        assert np.allclose(np.sort(back.h_normals, axis=0),
                           np.sort(body.h_normals, axis=0), atol=1e-12)
        assert back.is_body == body.is_body


def test_polar_of_lune_is_an_arc():
    lune = random_lune(2, make_stream(15), angle=1.0)
    pol = polar(lune)
    assert not pol.is_body
    # The polar arc connects the two facet poles: its length is
    # pi - angle = dist(u1, u2).
    assert geodesic_distance(pol.v_generators[0], pol.v_generators[1]) == \
        pytest.approx(math.pi - 1.0, abs=1e-9)


def test_radius_duality_on_random_bodies():
    """r(K*) = pi/2 - R(K) -- the polar cap of the circumball is the
    largest cap in the polar body.  Both radii come from one min-norm
    problem, over V and over -V, so they agree to a few ulp of pi/2."""
    rng = make_stream(16)
    for n in (2, 3, 4):
        bodies = [random_body(n, rng) for _ in range(10)]
        bodies += [cap_polytope(n, sample_uniform_sphere(n, rng), radius,
                                n_vertices=n + 9, rng=rng)
                   for radius in (0.2, 0.7, 1.3)]
        for body in bodies:
            r_polar = inradius(polar(body))[0]
            R = circumradius(body)[0]
            assert abs(r_polar - (math.pi / 2.0 - R)) <= \
                4 * math.ulp(math.pi / 2.0)


# ---------------------------------------------------------------------------
# Lunes
# ---------------------------------------------------------------------------

@given(n=st.integers(min_value=2, max_value=4),
       angle=st.floats(min_value=0.05, max_value=math.pi - 0.05),
       seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=30, deadline=None)
def test_lune_angle_is_exact(n, angle, seed):
    lune = random_lune(n, make_stream(seed), angle=angle)
    assert lune.lune_angle == angle
    # One inradius, half the angle, with the interior solve's incenter.
    r, x = inradius(lune)
    assert r == angle / 2.0 == inradius_value(lune)
    assert x is lune.interior[1]
    # The interior solve agrees with the exact value.
    assert math.asin(lune.interior[0]) == pytest.approx(angle / 2.0,
                                                        abs=1e-9)


def test_hemisphere_lune():
    q = np.array([0.0, 0.0, 1.0])
    hemi = make_lune(2, q)
    assert hemi.lune_angle == math.pi
    assert inradius_value(hemi) == math.pi / 2.0
    assert contains(hemi, np.array([1.0, 0.0, 0.0]))


def test_make_lune_rejects_antipodal_poles():
    q = np.array([0.0, 0.0, 1.0])
    with pytest.raises(BodyError):
        make_lune(2, q, -q)


def test_make_lune_rejects_wrong_stated_angle():
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])
    with pytest.raises(BodyError):
        make_lune(2, p, q, angle=1.0)  # true angle is pi/2


def test_sector_lune_geometry():
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])
    lune = make_lune_from_angle(2, math.pi / 3.0, (p, q), theta0=0.2)
    # Sector directions at the two boundary angles are on the boundary,
    # the mid-direction strictly inside.
    for t, inside in ((0.2, True), (0.2 + math.pi / 3.0, True),
                      (0.2 + math.pi / 6.0, True),
                      (0.2 - 0.01, False), (0.2 + math.pi / 3.0 + 0.01, False)):
        x = math.cos(t) * p + math.sin(t) * q
        assert bool(contains(lune, x)) == inside
    # Ridge points belong to every sector lune.
    ridge = np.array([0.0, 0.0, 1.0])
    assert contains(lune, ridge)


# ---------------------------------------------------------------------------
# Hemisphere intersection
# ---------------------------------------------------------------------------

def test_intersect_with_hemisphere_redundant():
    body = octant_body(2)
    cap = SphericalCap(center=np.ones(3) / math.sqrt(3.0),
                       radius=math.pi / 2.0)
    assert intersect_with_hemisphere(body, cap) is body


def test_intersect_with_hemisphere_cuts():
    hemi_pole = np.array([1.0, 0.0, 0.0])
    lune = make_lune(2, np.array([0.0, 0.0, 1.0]))  # hemisphere z <= 0
    cap = SphericalCap(center=hemi_pole, radius=math.pi / 2.0)
    cut = intersect_with_hemisphere(lune, cap)
    assert cut.is_body
    # Quarter-sphere: inradius is that of a right-angle lune.
    assert inradius(cut)[0] == pytest.approx(math.pi / 4.0, abs=1e-9)


def test_only_lunes_carry_a_lune_angle():
    # The polar and a reconverted cut are not lunes, even though the
    # quarter-sphere cut has a lune's shape; a hemisphere lies in no open
    # hemisphere, so it has no circumcenter.
    hemi = make_lune(2, np.array([0.0, 0.0, 1.0]))
    cap = SphericalCap(center=np.array([1.0, 0.0, 0.0]), radius=math.pi / 2.0)
    cut = intersect_with_hemisphere(hemi, cap)
    assert cut is not hemi
    assert polar(hemi).lune_angle is None
    assert cut.lune_angle is None
    assert circumradius(hemi) == (math.pi / 2.0, None)


def test_intersect_with_hemisphere_rejects_other_caps():
    body = octant_body(2)
    cap = SphericalCap(center=np.array([0.0, 0.0, 1.0]), radius=1.0)
    with pytest.raises(BodyError):
        intersect_with_hemisphere(body, cap)


@pytest.mark.parametrize("make", [
    lambda: octant_body(2),
    lambda: segment_simplex(1.0, 2),
    lambda: EuclideanPolytope(vertices=np.eye(2)),
    lambda: frame_at(np.array([0.0, 0.0, 1.0])),
    lambda: SphericalCap(center=np.array([0.0, 0.0, 1.0]), radius=1.0),
    lambda: make_lune_fan(2, [0.0, math.pi / 2.0, math.pi, 2.0 * math.pi]),
], ids=["ConvexBody", "SimplexInBall", "EuclideanPolytope",
        "ProjectionFrame", "SphericalCap", "CoveringInstance"])
def test_records_with_arrays_compare_by_identity_and_hash(make):
    # A field-wise == would take the truth value of an ndarray and raise.
    a, b = make(), make()
    assert a == a and a != b and not a == b
    assert len({a, b, a}) == 2
