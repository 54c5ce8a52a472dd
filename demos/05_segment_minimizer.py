"""Among all convex bodies whose smallest enclosing ball is B, the
diameter segment minimizes the weighted hyperplane measure U_f.

The minimum value is mu(S^{n-1}) * C(R, f), where C is the hemisphere
average of g(phi) = F(R cos phi).  The vertex-average inequality behind
the proof is checked at every vertex of random inscribed simplices.
"""

import math

from sphereplanks import (constant_weight, make_stream, min_uf_search,
                          spherical_weight, uf, uf_lower_bound)
from sphereplanks.gnomonic import EuclideanPolytope
from sphereplanks.linhart import (check_vertex_averages, random_simplex,
                                  regular_triangle, segment_simplex)


def main():
    R = 1.0
    w = spherical_weight(2)

    print("=== the segment attains the closed-form bound ===")
    seg = segment_simplex(R, 2)
    poly = EuclideanPolytope(vertices=seg.vertices)
    val = uf(poly, w).value
    bound = uf_lower_bound(R, w, 2)
    print(f"  U_f(segment) = {val:.12f}")
    print(f"  mu(S^1) C    = {bound:.12f}")
    print(f"  residual     = {abs(val - bound):.2e}")
    # For the spherical weight and R = tan(rho) the bound is 4 rho: the
    # spherical mean width of a geodesic arc of half-length rho.
    rho = math.atan(R)
    print(f"  (= 4 atan(R) = {4 * rho:.12f})")

    print("\n=== vertex-average inequality on random simplices ===")
    rng = make_stream(5)
    for trial in range(3):
        s = random_simplex(R, 2, rng)
        # In the plane each vertex average is a polar quadrature.
        for rep in check_vertex_averages(s, w):
            print(f"  simplex {trial} vertex {rep.details['vertex']}: "
                  f"S_j-avg = {rep.lhs:.4f} >= C = {rep.rhs:.4f}  "
                  f"slack {rep.slack:+.4f}  "
                  f"[{'PASS' if rep.passed else 'FAIL'}]")

    print("\n=== regular triangle, f = 1: strictly above the average ===")
    tri = regular_triangle(R)
    rep, = check_vertex_averages(tri, constant_weight(), vertices=[0])
    print(f"  lhs = {rep.lhs:.4f} vs 2R/pi = {rep.rhs:.4f} "
          f"(excess {rep.slack:.4f}, tolerance {rep.tolerance:.1e})")

    print("\n=== randomized minimality search over K(B) ===")
    rep = min_uf_search(R, w, n=2, trials=30, seed=11)
    print(f"  smallest U_f found   = {rep.lhs:.5f}")
    print(f"  U_f(segment)         = {rep.rhs:.5f}")
    print(f"  min gap to segment   = {rep.slack:.5f}  "
          f"[{'PASS' if rep.passed else 'FAIL'}]")


if __name__ == "__main__":
    main()
