"""Polar duality: swap the representations, swap the radii, and the polar
volume identity sigma_n - 2 sigma(K*) = 2 U(K).

The polar of a full-dimensional body can be lower-dimensional (the polar
of a lune is a geodesic arc); the package tracks this with an ``is_body``
flag and assigns such sets exact measure zero.
"""

import math

from sphereplanks import (check_identity_2_1, circumradius, inradius,
                          make_stream, polar, random_body, random_lune,
                          volume_mc)


def main():
    rng = make_stream(7)
    body = random_body(2, rng)

    print("=== radius duality: r(K*) = pi/2 - R(K) ===")
    R = circumradius(body)[0]
    r_star = inradius(polar(body))[0]
    print(f"  R(K)            = {R:.12f}")
    print(f"  pi/2 - R(K)     = {math.pi / 2 - R:.12f}")
    print(f"  r(K*)           = {r_star:.12f}")
    print(f"  difference      = {abs(r_star - (math.pi / 2 - R)):.2e}")

    print("\n=== polar of a lune is an arc (measure zero) ===")
    lune = random_lune(2, rng, angle=1.0)
    arc = polar(lune)
    print(f"  is_body(K*) = {arc.is_body}")
    est = volume_mc(arc, seed=1)
    print(f"  sigma(K*)   = {est.value} (exact, no sampling needed)")

    print("\n=== the identity sigma_n - 2 sigma(K*) = 2 U(K) ===")
    for n in (2, 3):
        b = random_body(n, rng)
        rep = check_identity_2_1(b, seed=2 + n)
        print(f"  S^{n}: lhs = {rep.lhs:.5f}  rhs = {rep.rhs:.5f}  "
              f"|diff| = {-rep.slack:.5f} <= {rep.tolerance:.5f}  "
              f"[{'PASS' if rep.passed else 'FAIL'}]")


if __name__ == "__main__":
    main()
