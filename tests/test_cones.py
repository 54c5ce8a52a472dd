"""Cone primitives: min-norm point, max-min inner products, cone
conversion and its subset-enumeration oracle."""

import math

import numpy as np
import pytest
from _cone_oracle import oracle_cone_generators, oracle_dedup_rows
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from sphereplanks import (cap_polytope, cones, make_body, make_stream, polar,
                          random_body, sample_uniform_sphere)
from sphereplanks.cones import (DEDUP_TOL, cone_generators, dedup_rows,
                                sweep_direction,
                                max_min_inner, min_norm_point)


def _min_norm_oracle(P):
    """Independent slow oracle: constrained SLSQP over simplex weights."""
    m = P.shape[0]

    def obj(lam):
        x = lam @ P
        return float(x @ x)

    cons = ({"type": "eq", "fun": lambda lam: lam.sum() - 1.0},)
    best = None
    for start in range(3):
        lam0 = np.full(m, 1.0 / m) if start == 0 else \
            np.random.default_rng(start).dirichlet(np.ones(m))
        res = minimize(obj, lam0, bounds=[(0.0, 1.0)] * m, constraints=cons,
                       method="SLSQP", options={"ftol": 1e-14,
                                                "maxiter": 500})
        if best is None or res.fun < best:
            best = res.fun
    return math.sqrt(max(0.0, best))


def test_min_norm_single_point():
    p = np.array([[3.0, 4.0]])
    assert np.allclose(min_norm_point(p), p[0])


def test_min_norm_segment_projection():
    # Segment from (2, 0) to (0, 2): the perpendicular foot is (1, 1).
    P = np.array([[2.0, 0.0], [0.0, 2.0]])
    x = min_norm_point(P)
    assert np.allclose(x, [1.0, 1.0], atol=1e-10)


def test_min_norm_origin_inside():
    P = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    assert np.linalg.norm(min_norm_point(P)) < 1e-9


@pytest.mark.parametrize("m,d,seed", [(4, 2, 0), (6, 3, 1), (8, 4, 2),
                                      (5, 2, 3), (10, 3, 4)])
def test_min_norm_matches_slow_oracle(m, d, seed):
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(m, d)) + 0.5
    fast = np.linalg.norm(min_norm_point(P))
    slow = _min_norm_oracle(P)
    assert fast == pytest.approx(slow, abs=1e-6)


def test_min_norm_wolfe_certificate():
    # Optimality: min_j <x, p_j> >= |x|^2 (up to tolerance).
    rng = np.random.default_rng(9)
    for _ in range(50):
        P = rng.normal(size=(6, 3)) + rng.uniform(-1, 1)
        x = min_norm_point(P)
        assert np.min(P @ x) >= x @ x - 1e-9


@pytest.mark.parametrize("P", [
    [[1.0, 0.0], [-1.0, 0.0]], [[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.9]],
    [[2.0, 0.0], [0.0, 2.0]], [[2.0, 1.0], [1.0, 3.0], [3.0, 2.5]],
    [[1.0, 0.2, 0.1], [0.3, 1.0, -0.2], [0.1, -0.3, 1.0]]],
    ids=["segment-about-0", "triangle-about-0", "foot", "vertex", "face"])
@pytest.mark.parametrize("s", [1e-7, 1e-3, 1.0, 1e3, 1e100])
def test_min_norm_point_scales_with_its_input(P, s):
    # The stopping rule is relative to max |p|^2: an absolute one stops at
    # the first vertex of a segment scaled to 1e-7 about the origin.
    P = np.asarray(P)
    x = min_norm_point(P)
    assert np.linalg.norm(min_norm_point(s * P) - s * x) <= 1e-14 * s


def test_min_norm_raises_when_the_major_cycles_run_out(monkeypatch):
    # From (1, 0) one major cycle adds (0, 1); only a second one can
    # confirm the foot (1/2, 1/2).
    P = np.eye(2)
    monkeypatch.setattr(cones, "WOLFE_MAX_ITER", 2)
    assert np.allclose(min_norm_point(P), [0.5, 0.5])
    monkeypatch.setattr(cones, "WOLFE_MAX_ITER", 1)
    with pytest.raises(ValueError, match="1 iterations"):
        min_norm_point(P)


def test_min_norm_raises_when_the_best_point_is_already_in_the_corral(
        monkeypatch):
    # Corral weights that are not the affine minimizer leave x = (0.9, 0.1)
    # short of optimal, and its most violating point (0, 1) is in the
    # corral already.
    monkeypatch.setattr(cones, "_affine_min_weights",
                        lambda S: np.array([0.9, 0.1]))
    with pytest.raises(ValueError, match="point 1 is already in the corral"):
        min_norm_point(np.eye(2))


@pytest.mark.parametrize("S", [np.ones((2, 2)), np.full((2, 2), 1e200)],
                         ids=["solve-refuses", "non-finite"])
def test_min_norm_raises_on_a_singular_corral(S, monkeypatch):
    affine = cones._affine_min_weights
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="singular corral of 2 points"):
        affine(np.asarray(S))
    # The solver's first two-point corral is replaced by S.
    monkeypatch.setattr(cones, "_affine_min_weights",
                        lambda _: affine(np.asarray(S)))
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="singular corral of 2 points"):
        min_norm_point(np.eye(2))


@given(n=st.integers(2, 4), seed=st.integers(0, 2 ** 16),
       cap=st.booleans(), radius=st.floats(0.05, 1.4),
       vertices=st.integers(3, 24))
@settings(max_examples=60, deadline=None)
def test_min_norm_points_of_bodies_carry_the_wolfe_certificate(
        n, seed, cap, radius, vertices):
    # Both of the solver's inputs in the package: the V-generators
    # (circumradius) and the negated facet normals (inradius).
    rng = make_stream(seed)
    if cap:
        body = cap_polytope(n, sample_uniform_sphere(n, rng), radius,
                            n_vertices=max(vertices, n + 1), rng=rng)
    else:
        body = random_body(n, rng)
    for P in (body.v_generators, -body.h_normals):
        x = min_norm_point(P)
        scale = max(1.0, float(np.max(np.sum(P * P, axis=1))))
        assert np.min(P @ x) >= x @ x - 1e-12 * scale


def test_max_min_inner_value_and_witness():
    # Two unit vectors at 90 degrees: optimum e is the bisector,
    # value cos(45 deg).
    P = np.array([[1.0, 0.0], [0.0, 1.0]])
    val, e = max_min_inner(P)
    assert val == pytest.approx(math.sqrt(0.5), abs=1e-10)
    assert np.allclose(e, [math.sqrt(0.5)] * 2, atol=1e-8)


def test_max_min_inner_infeasible():
    P = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    val, e = max_min_inner(P)
    assert val == 0.0
    assert e is None


def test_dedup_rows():
    rows = np.array([[1.0, 0.0], [1.0, 1e-12], [0.0, 1.0]])
    assert dedup_rows(rows).shape == (2, 2)


def test_cone_generators_octant():
    # {x <= 0} in R^3: generators are the negative axes.
    G = cone_generators(np.eye(3))
    assert G.shape == (3, 3)
    got = sorted(tuple(np.round(g, 9)) for g in G)
    want = sorted(tuple(r) for r in -np.eye(3))
    assert got == want


def test_cone_generators_halfspace_has_lineality():
    # Single constraint in R^3: cone is a halfspace, lineality dim 2.
    G = cone_generators(np.array([[0.0, 0.0, 1.0]]))
    # Every generator satisfies the constraint; the span is 3-dimensional
    # on the closed side.
    assert np.max(G @ np.array([0.0, 0.0, 1.0])) <= 1e-9
    assert np.linalg.matrix_rank(G) == 3


def test_cone_generators_pointed_wedge():
    # {x : -x0 <= 0, x1 - x0 <= 0} in R^2 is the wedge between (1, 0)
    # and (1, 1)/sqrt(2).
    A = np.array([[-1.0, 0.0], [-1.0, 1.0]]) / \
        np.array([[1.0], [math.sqrt(2.0)]])
    G = cone_generators(A)
    assert G.shape == (2, 2)
    dirs = {tuple(np.round(g, 7)) for g in G}
    s = 1.0 / math.sqrt(2.0)
    assert tuple(np.round(np.array([0.0, -1.0]), 7)) in dirs
    assert tuple(np.round(np.array([s, s]), 7)) in dirs
    # All generators feasible.
    assert np.max(A @ G.T) <= 1e-9


def test_cone_generators_trivial_cone_is_empty():
    # Constraints +-e_i force x = 0.
    for d in (2, 3, 4, 5):
        A = np.vstack([np.eye(d), -np.eye(d)])
        assert cone_generators(A).shape == (0, d)
        assert oracle_cone_generators(A).shape[0] == 0


def test_cone_generators_rejects_high_dimension():
    with pytest.raises(ValueError):
        cone_generators(np.eye(6))


@pytest.mark.parametrize("d,seed", [(3, 0), (4, 1), (4, 2), (5, 3)])
def test_cone_roundtrip_random(d, seed):
    """H -> V -> H double conversion returns the facets of the same cone."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d + 2, d))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    V = cone_generators(A)
    if V.shape[0] == 0:
        return
    # Every generator satisfies every original constraint.
    assert np.max(A @ V.T) <= 1e-8
    H2 = cone_generators(V)
    # Same cone: generators feasible for the recovered facets and a dense
    # grid of feasible points of the recovered cone satisfies A as well.
    assert np.max(H2 @ V.T) <= 1e-8
    lam = rng.uniform(size=(200, V.shape[0]))
    pts = lam @ V
    feas_old = np.max(A @ pts.T, axis=0) <= 1e-8
    assert np.all(feas_old)


def test_extreme_ray_count_square_cone():
    # Cone over a square in R^3: 4 facets, 4 extreme rays.
    A = np.array([[1.0, 0.0, -1.0], [-1.0, 0.0, -1.0],
                  [0.0, 1.0, -1.0], [0.0, -1.0, -1.0]])
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    G = cone_generators(-A)  # flip so the cone opens along +z
    assert G.shape[0] == 4
    assert np.all(G[:, 2] < 0.0)


# ---------------------------------------------------------------------------
# Qhull conversion against the subset-enumeration oracle
# ---------------------------------------------------------------------------

def _assert_same_rays(G, H, tol=1e-7):
    """Same set of unit vectors up to ``tol``, in any order."""
    assert G.shape == H.shape
    if G.shape[0]:
        D = np.linalg.norm(G[:, None, :] - H[None, :, :], axis=2)
        assert D.min(axis=1).max() <= tol
        assert D.min(axis=0).max() <= tol


@given(d=st.integers(2, 5), m=st.integers(1, 12), rank=st.integers(1, 5),
       shift=st.sampled_from([0.0, 0.5, 1.0, 2.0]), lattice=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_cone_generators_match_enumeration_oracle(d, m, rank, shift, lattice,
                                                  seed):
    """Random cones in R^2..R^5: Gaussian rows of any rank (lineality when
    rank < d), or {-1, 0, 1} lattice rows with many non-simplicial facets
    and repeated rows.  ``shift`` tilts the rows so the cone is often
    nontrivial."""
    rng = np.random.default_rng(seed)
    if lattice:
        A = rng.integers(-1, 2, size=(m, d)).astype(float)
    else:
        k = min(rank, d)
        A = rng.normal(size=(m, k)) @ rng.normal(size=(k, d))
    A[:, 0] += shift
    _assert_same_rays(cone_generators(A), oracle_cone_generators(A))
    assert np.array_equal(dedup_rows(A), oracle_dedup_rows(A))


@given(m=st.integers(1, 30), d=st.integers(1, 5),
       scale=st.sampled_from([0.3, 0.9, 1.1, 3.0]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_dedup_rows_matches_greedy_loop(m, d, scale, seed):
    """Rows with near copies, and near copies of those, at distances around
    DEDUP_TOL: a chain a ~ b ~ c keeps c when b was dropped for a."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, d))
    for _ in range(2):
        step = rng.normal(size=(m, d))
        step *= scale * DEDUP_TOL / np.linalg.norm(step, axis=1, keepdims=True)
        X = np.vstack([X, X[rng.integers(0, X.shape[0], size=m)] + step])
    X = rng.permutation(X)
    assert np.array_equal(dedup_rows(X), oracle_dedup_rows(X))


@pytest.mark.parametrize("scale", [1.0, 1e3])
@pytest.mark.parametrize("d", [1, 3, 5])
def test_dedup_rows_exact_duplicates_and_scale(scale, d):
    """Exact copies, and copies moved by just under and just over
    DEDUP_TOL, of rows at unit scale and at scale 1e3, where the
    projections carry the most rounding."""
    rng = np.random.default_rng(d)
    X = scale * rng.normal(size=(20, d))
    step = rng.normal(size=(20, d))
    step /= np.linalg.norm(step, axis=1, keepdims=True)
    X = np.vstack([X, X[:5], X[5:10] + 0.9 * DEDUP_TOL * step[5:10],
                   X[10:15] + 1.1 * DEDUP_TOL * step[10:15], X[:3]])
    X = rng.permutation(X)
    D = dedup_rows(X)
    assert np.array_equal(D, oracle_dedup_rows(X))
    assert D.shape[0] == 25


def _on_one_projection(m, d, rng):
    """Distinct rows whose projections on the sweep direction agree to
    rounding: every pair is a candidate, the sweep's worst case."""
    u = sweep_direction(d)
    X = rng.normal(size=(m, d))
    return X - np.outer(X @ u, u)


def test_dedup_rows_on_one_projection_matches_greedy_loop():
    rng = np.random.default_rng(11)
    X = _on_one_projection(150, 4, rng)
    u = sweep_direction(4)
    step = _on_one_projection(150, 4, rng)
    step *= DEDUP_TOL / np.linalg.norm(step, axis=1, keepdims=True)
    for factor in (0.5, 0.99, 1.01):
        X = np.vstack([X, X[rng.integers(0, 150, size=50)]
                       + factor * step[:50]])
    X = rng.permutation(X)
    assert np.ptp(X @ u) < 1e-12
    assert np.array_equal(dedup_rows(X), oracle_dedup_rows(X))


@pytest.mark.parametrize("copies", [False, True], ids=["distinct", "copies"])
def test_dedup_rows_on_one_projection_has_bounded_memory(copies):
    """2,000 rows on one projection: distinct rows give about 2e6
    candidate pairs, and 2,000 copies of one row about 2e6 near pairs.
    Neither list may be built."""
    import tracemalloc
    rng = np.random.default_rng(12)
    d = 3
    if copies:
        X = np.tile(_on_one_projection(1, d, rng), (2000, 1))
        expect = X[:1]
    else:
        X = _on_one_projection(1900, d, rng)
        step = _on_one_projection(100, d, rng)
        step *= 0.5 * DEDUP_TOL / np.linalg.norm(step, axis=1, keepdims=True)
        expect = X
        X = np.vstack([X, X[:100] + step])
    tracemalloc.start()
    try:
        D = dedup_rows(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(D, expect)
    # All 2e6 pairs at once would take 2000 * 1999 / 2 * 16 bytes.
    assert peak < 4e6


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 2])
def test_hemisphere_and_lune_cones_match_oracle(d, m):
    rng = np.random.default_rng(10 * d + m)
    A = rng.normal(size=(m, d))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    G = cone_generators(A)
    _assert_same_rays(G, oracle_cone_generators(A))
    # Lineality of dimension d - m, with both signs, plus m extreme rays.
    assert G.shape[0] == 2 * (d - m) + m


def test_rank_deficient_cone_has_lineality():
    # Rows in a 2-plane of R^4, tilted so the cone within it is a wedge:
    # a 2-dim lineality space plus 2 extreme rays.
    rng = np.random.default_rng(3)
    plane = np.linalg.qr(rng.normal(size=(4, 2)))[0].T
    A = (rng.normal(size=(5, 2)) + [2.0, 0.0]) @ plane
    G = cone_generators(A)
    _assert_same_rays(G, oracle_cone_generators(A))
    assert G.shape[0] == 6
    lineal = G[np.max(np.abs(A @ G.T), axis=0) <= 1e-9]
    assert lineal.shape[0] == 4 and np.linalg.matrix_rank(lineal) == 2
    _assert_same_rays(lineal, -lineal)


@pytest.mark.parametrize("factor,kept", [(0.5, 4), (2.0, 5)])
def test_duplicate_row_near_dedup_tolerance(factor, kept):
    """A copy of a row moved by just under / just over DEDUP_TOL is dropped /
    kept, exactly as the greedy loop does.  A kept copy is a real constraint
    that splits one facet of the square cone, adding a fifth ray."""
    A = np.array([[1.0, 0.0, -1.0], [-1.0, 0.0, -1.0],
                  [0.0, 1.0, -1.0], [0.0, -1.0, -1.0]]) / math.sqrt(2.0)
    A = np.vstack([A, A[2] + factor * DEDUP_TOL * np.array([1.0, 0.0, 0.0])])
    D = dedup_rows(A)
    assert D.shape[0] == kept
    assert np.array_equal(D, oracle_dedup_rows(A))
    G = cone_generators(A)
    _assert_same_rays(G, oracle_cone_generators(A))
    assert G.shape[0] == kept


def test_v_to_h_of_polar_without_interior():
    """The polar of a lune is an arc: converting its generators to facets
    still matches the oracle and gives a set flagged as not a body."""
    lune = make_body(3, h_normals=np.array([[0.0, 0.0, 0.6, 0.8],
                                            [0.0, 0.6, 0.0, 0.8]]))
    pol = polar(lune)
    assert not pol.is_body
    H = cone_generators(pol.v_generators)
    _assert_same_rays(H, oracle_cone_generators(pol.v_generators))
    back = make_body(3, v_generators=pol.v_generators)
    assert not back.is_body
    _assert_same_rays(back.h_normals, H)


def test_cap_polytope_s3_with_64_vertices_round_trips():
    """64 points in general position on the boundary 2-sphere give
    2 * 64 - 4 = 124 facets, and H -> V -> H returns them."""
    body = cap_polytope(3, [0.0, 0.0, 0.0, 1.0], 0.8, 64, make_stream(7))
    assert body.h_normals.shape == (124, 4)
    assert body.v_generators.shape == (64, 4)
    V = make_body(3, h_normals=body.h_normals).v_generators
    _assert_same_rays(V, body.v_generators)
    H = make_body(3, v_generators=V).h_normals
    _assert_same_rays(H, body.h_normals)
