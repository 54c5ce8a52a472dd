"""Reference cone conversion by subset enumeration, kept only as a test oracle.

``oracle_cone_generators`` computes the same generators as
``sphereplanks.cones.cone_generators`` by a second algorithm: it splits off
the lineality space with an SVD, then tries every (d'-1)-subset of the
rows of the pointed part as an active set, with one SVD per subset.  Its
cost is O(C(m, d'-1)) SVDs, so it is only usable on small inputs.
``oracle_dedup_rows`` is the plain greedy O(m^2) loop that
``sphereplanks.cones.dedup_rows`` must match exactly.
"""

from __future__ import annotations

import itertools

import numpy as np

DEDUP_TOL = 1e-9
FEAS_TOL = 1e-9


def oracle_dedup_rows(rows, tol=DEDUP_TOL):
    """Drop rows that duplicate an earlier kept row within ``tol``."""
    out = []
    for r in np.atleast_2d(np.asarray(rows, dtype=float)):
        if all(np.linalg.norm(r - q) > tol for q in out):
            out.append(r)
    return np.array(out)


def oracle_cone_generators(normals, tol=FEAS_TOL):
    """Generators of {x : <a_i, x> <= 0} by active-set subset enumeration."""
    A = np.atleast_2d(np.asarray(normals, dtype=float))
    d = A.shape[1]
    if A.shape[0] == 0:
        eye = np.eye(d)
        return np.vstack([eye, -eye])
    A = oracle_dedup_rows(A)

    _, s, Vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > tol * max(1.0, s[0])))
    L = Vt[rank:]
    Q = Vt[:rank].T

    rays = _extreme_rays_pointed(A @ Q, tol)
    gens = [Q @ r for r in rays]
    for ell in L:
        gens.append(ell)
        gens.append(-ell)
    if not gens:
        return np.empty((0, d))
    G = np.array(gens)
    G = G / np.linalg.norm(G, axis=1, keepdims=True)
    return oracle_dedup_rows(G, tol=1e-7)


def _extreme_rays_pointed(A, tol):
    m, d = A.shape
    if d == 0:
        return []
    rays = []
    for subset in itertools.combinations(range(m), d - 1):
        null = _null_space(A[list(subset)], d, tol)
        if null.shape[0] != 1:
            continue
        for r in (null[0], -null[0]):
            vals = A @ r
            if np.max(vals) > tol:
                continue
            if _rank(A[np.abs(vals) <= tol], tol) != d - 1:
                continue
            if all(np.linalg.norm(r - q) > 1e-7 for q in rays):
                rays.append(r)
    return rays


def _null_space(B, d, tol):
    if B.shape[0] == 0:
        return np.eye(d) if d == 1 else np.empty((0, d))
    _, s, Vt = np.linalg.svd(B, full_matrices=True)
    rank = int(np.sum(s > tol * max(1.0, s[0])))
    return Vt[rank:]


def _rank(M, tol):
    if M.shape[0] == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > tol * max(1.0, s[0])))
