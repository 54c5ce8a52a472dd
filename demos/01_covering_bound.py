"""Covering a large spherical ball: the sum of inradii can't beat pi.

Slice the sphere into a fan of lunes around a common ridge and the
inradii sum to exactly pi -- the equality case.  Widen the lunes and the
sum exceeds pi by exactly half the added angle.  Delete one lune and the
cover breaks, which the verifier refuses outright.
"""

import math

import numpy as np

from sphereplanks import CoveringError, verify_antipodal_argument, verify_thm1
from sphereplanks.covering import CoveringInstance, make_hemisphere_fan, \
    make_lune_fan


def main():
    print("=== tight fan: four quarter-lunes around a ridge ===")
    angles = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi]
    inst = make_lune_fan(2, angles)
    rep = verify_thm1(inst, samples=100_000, seed=0)
    print(f"  sum of inradii = {rep.lhs:.15f}")
    print(f"  r(B)           = {rep.rhs:.15f}")
    print(f"  slack          = {rep.slack:.2e}   -> {'PASS' if rep.passed else 'FAIL'}")
    print(f"  cover decided by: {rep.details['cover_rule']}")

    print("\n=== widened fan: overlap adds exactly widen/2 per lune ===")
    inst = make_lune_fan(2, angles, widen=0.02)
    rep = verify_thm1(inst, samples=100_000, seed=1)
    print(f"  slack = {rep.slack:.15f} (constructed: {4 * 0.02 / 2:.15f})")

    print("\n=== hemisphere target: the strong intersected form ===")
    inst = make_hemisphere_fan(2, [0.0, math.pi / 3, 2 * math.pi / 3,
                                   math.pi], widen=0.05)
    rep = verify_thm1(inst, samples=100_000, seed=2)
    print(f"  sum r(K_i)        = {rep.lhs:.6f} >= pi/2 = {rep.rhs:.6f}")
    print(f"  sum r(K_i ∩ B)    = {rep.details['strong_sum']:.6f}")
    anti = verify_antipodal_argument(rep)
    print(f"  antipodal route: pi - r(B) + sum r(K_i) - pi = {anti.rhs:.6f}"
          f" -> {'PASS' if anti.passed else 'FAIL'}")

    print("\n=== broken cover: verifier refuses to claim the bound ===")
    broken = CoveringInstance(B=inst.B, bodies=inst.bodies[:-1])
    try:
        verify_thm1(broken, samples=50_000, seed=4)
    except CoveringError as exc:
        print(f"  refused: {exc}")
        witness_free = False
    else:
        witness_free = True
    assert not witness_free


if __name__ == "__main__":
    main()
