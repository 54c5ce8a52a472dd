"""Polyhedral cone machinery in low ambient dimension (d <= 5).

Two primitives drive everything else:

* ``min_norm_point``: the point of smallest norm in the convex hull of
  finitely many points (Wolfe's algorithm).  Inradius and circumradius of a
  spherical body are both a max-min inner product, whose value is exactly
  this norm.
* ``cone_generators``: generators of the cone {x : <a_i, x> <= 0}: the
  lineality space by SVD, then the extreme rays of the pointed part as
  facet normals of one Qhull convex hull (Barber, Dobkin and Huhdanpaa,
  1996).  Conversion V -> H is the same primitive applied to the
  generators, since the facet normals of a cone generate its polar cone.
"""

from __future__ import annotations

import numpy as np

DEDUP_TOL = 1e-9
#: Largest ambient dimension d = n + 1 that cone conversion supports.
MAX_AMBIENT_DIM = 5
FEAS_TOL = 1e-9
#: Termination tolerance of Wolfe's criterion, relative to the points' scale.
WOLFE_TOL = 1e-12
#: Most major cycles, and most minor cycles within each, of Wolfe's method.
WOLFE_MAX_ITER = 1000


def min_norm_point(points):
    """Minimum-norm point of conv(points), by Wolfe's algorithm.

    Parameters
    ----------
    points : (m, d) array

    Returns
    -------
    x : (d,) array
        The minimum-norm point: the first iterate that meets Wolfe's
        criterion min_j <x, p_j> >= |x|^2 - WOLFE_TOL max_j |p_j|^2.  The
        tolerance is relative to the points' scale, so
        min_norm_point(s P) = s min_norm_point(P) to rounding for any
        s > 0.

    Raises ``ValueError``, naming the cause, when ``WOLFE_MAX_ITER`` major
    cycles end without meeting the criterion, when the most violating
    point is already in the corral, or when the corral's affine hull is
    singular.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    m, d = P.shape
    if m == 0:
        raise ValueError("empty point set")
    sq = np.sum(P * P, axis=1)
    scale = float(sq.max())

    idx = [int(sq.argmin())]
    lam = np.array([1.0])

    for _ in range(WOLFE_MAX_ITER):
        x = lam @ P[idx]
        dots = P @ x
        j = int(dots.argmin())
        if dots[j] >= x @ x - WOLFE_TOL * scale:
            return x
        if j in idx:
            raise ValueError(f"Wolfe's min-norm point stalled: the most "
                             f"violating point {j} is already in the corral")
        idx.append(j)
        lam = np.append(lam, 0.0)
        # Minor cycle: pull lam toward the affine minimizer until it is a
        # proper convex combination.  lam stays convex, so some weight
        # survives the cut below.
        for _ in range(WOLFE_MAX_ITER):
            alpha = _affine_min_weights(P[idx])
            if alpha.min() > 1e-14:
                lam = alpha
                break
            mask = alpha < 1e-14
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = lam[mask] / (lam[mask] - alpha[mask])
            theta = float(np.min(ratios[np.isfinite(ratios)], initial=1.0))
            lam = (1.0 - theta) * lam + theta * alpha
            lam[lam < 1e-14] = 0.0
            keep = lam > 0.0
            idx = [i for i, k in zip(idx, keep) if k]
            lam = lam[keep]
            lam = lam / lam.sum()
    raise ValueError(f"Wolfe's min-norm point did not converge in "
                     f"{WOLFE_MAX_ITER} iterations")


def _affine_min_weights(S):
    """Weights of the min-norm point of the affine hull of rows of S;
    ``ValueError`` when that hull is singular."""
    k = S.shape[0]
    M = np.ones((k + 1, k + 1))
    M[:k, :k] = S @ S.T
    M[k, k] = 0.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    singular = f"Wolfe's min-norm point: singular corral of {k} points"
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        raise ValueError(singular) from None
    if not np.all(np.isfinite(sol)):
        raise ValueError(singular)
    return sol[:k]


def max_min_inner(points):
    """Solve max_{|e| <= 1} min_j <p_j, e>.

    Returns ``(value, e)``.  The value equals the norm of the min-norm point
    of conv(points); when it is ~0 (origin in the hull) no strictly positive
    witness exists and ``e`` is None.
    """
    p = min_norm_point(points)
    v = float(np.linalg.norm(p))
    if v <= FEAS_TOL:
        return 0.0, None
    return v, p / v


def dedup_rows(rows, tol=DEDUP_TOL):
    """Drop rows that lie within ``tol`` of an earlier kept row.

    Greedy in row order, by a sort sweep: rows within ``tol`` of each other
    project within ``tol`` of each other on any unit direction, so a row is
    measured only against the earlier kept rows in its projection window,
    and only rows with another row in their window are visited.  Memory
    stays O(m) whatever the number of near pairs.
    """
    X = np.atleast_2d(np.asarray(rows, dtype=float))
    proj = X @ sweep_direction(X.shape[1])
    order = np.argsort(proj, kind="stable")
    proj = proj[order]
    # The window is doubled so that the projections' own rounding cannot
    # miss a pair; the norm below decides, as the greedy definition does.
    lo = np.searchsorted(proj, proj - 2.0 * tol, side="left")
    hi = np.searchsorted(proj, proj + 2.0 * tol, side="right")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    keep = np.ones(X.shape[0], dtype=bool)
    for j in np.flatnonzero((hi - lo > 1)[rank]):
        near = order[lo[rank[j]]:hi[rank[j]]]
        near = near[(near < j) & keep[near]]
        if np.any(np.linalg.norm(X[near] - X[j], axis=1) <= tol):
            keep[j] = False
    return X[keep]


def sweep_direction(d):
    """The unit direction ``dedup_rows`` sorts along: (sin 1, ..., sin d),
    normalised.  Its coordinates have no rational linear relation, so rows
    that differ in a few coordinates still project apart."""
    u = np.sin(np.arange(1.0, d + 1.0))
    return u / np.linalg.norm(u)


def cone_generators(normals):
    """Generators of the cone C = {x : <a_i, x> <= 0 for all rows a_i}.

    Returns unit vectors: a basis of the lineality space of C with both
    signs, plus the extreme rays of the pointed part, which lives in the
    row space of dimension d'.  For d' >= 3 those rays are the outward
    normals of the facets through the origin of ConvexHull({0} and the
    rows): one hull of m points instead of C(m, d'-1) SVDs.  For d' <= 2
    they are the candidates +-1 or +-row perpendiculars that satisfy every
    constraint.  Empty when C = {0}.  Supports d <= 5; raises
    ``ValueError`` if Qhull fails on the input.
    """
    A = np.atleast_2d(np.asarray(normals, dtype=float))
    d = A.shape[1]
    if d > MAX_AMBIENT_DIM:
        raise ValueError(f"ambient dimension {d} > {MAX_AMBIENT_DIM} "
                         f"not supported")
    if A.shape[0] == 0:
        eye = np.eye(d)
        return np.vstack([eye, -eye])
    A = dedup_rows(A)

    # Lineality space L = null(A); the pointed part lives in L-perp.
    _, s, Vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > FEAS_TOL * max(1.0, s[0])))
    L = Vt[rank:]
    Q = Vt[:rank].T  # d x d' basis of the row space
    Ap = A @ Q

    if rank >= 3:
        # Deferred: only this branch needs Qhull, and scipy.spatial is most
        # of the package's import time.
        from scipy.spatial import ConvexHull, QhullError
        try:
            eq = ConvexHull(np.vstack([np.zeros(rank), Ap])).equations
        except QhullError as exc:
            raise ValueError(f"cone conversion failed in Qhull: {exc}") from None
        cand = eq[np.abs(eq[:, -1]) <= FEAS_TOL, :-1]
    elif rank == 2:
        perp = Ap[:, ::-1] * [-1.0, 1.0]
        norms = np.linalg.norm(perp, axis=1)
        keep = norms > FEAS_TOL
        perp = perp[keep] / norms[keep, None]
        cand = np.vstack([perp, -perp])
    elif rank == 1:
        cand = np.array([[1.0], [-1.0]])
    else:
        cand = np.empty((0, 0))
    rays = cand[np.max(Ap @ cand.T, axis=0) <= FEAS_TOL]

    G = np.vstack([rays @ Q.T, L, -L])
    if G.shape[0] == 0:
        return np.empty((0, d))
    G = G / np.linalg.norm(G, axis=1, keepdims=True)
    return dedup_rows(G, tol=1e-7)
