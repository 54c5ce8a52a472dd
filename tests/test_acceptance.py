"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every criterion runs at its stated sample size and tolerance; seeds are
fixed so the whole gate is deterministic.  The Monte Carlo calls run on
two threads: reports are byte-identical at any thread count, which
criterion 9 checks.
"""

import json
import math

import numpy as np
import pytest

from sphereplanks import (check_7_1, check_identity_2_1,
                          check_projection_consistency, circumradius,
                          constant_weight, inradius, make_stream,
                          mean_width_mc, min_uf_search, octant_body, polar,
                          random_body, random_lune, spherical_weight, uf,
                          verify_antipodal_argument, verify_thm1, verify_thm2,
                          volume_mc)
from sphereplanks.cli import main as cli_main
from sphereplanks.covering import (check_covering, make_hemisphere_fan,
                                   make_lune_fan)
from sphereplanks.gnomonic import circumcenter_frame, project_body
from sphereplanks.linhart import random_simplex, regular_triangle
from sphereplanks.measure import combined_stderr
from sphereplanks.randgen import cap_polytope
from sphereplanks.sphere import sphere_area

SAMPLES = 1_000_000
THREADS = 2


def report(capsys, num, passed, detail):
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def test_criterion_1_lune_volume_law(capsys):
    """|volume_mc - (sigma_n/pi) r| <= 3 stderr for 20 random lune angles
    in S^2 and S^3 at 1e6 samples."""
    worst = 0.0
    checked = 0
    for n in (2, 3):
        rng = make_stream(101 + n)
        for i in range(10):
            lune = random_lune(n, rng)
            est = volume_mc(lune, samples=SAMPLES, seed=1000 + 10 * n + i,
                            threads=THREADS)
            exact = sphere_area(n) / math.pi * lune.lune_angle / 2.0
            z = abs(est.value - exact) / est.stderr
            worst = max(worst, z)
            checked += 1
    report(capsys, 1, worst <= 3.0 and checked == 20,
           f"lune volume law, {checked} lunes in S^2/S^3, "
           f"max |z| = {worst:.2f} (limit 3)")


def test_criterion_2_volume_inradius_bound(capsys):
    """volume_mc - 3 stderr <= (sigma_n/pi) r for 100 random bodies in each
    of S^2 and S^3; lunes two-sided at 3 stderr; octant slack >= 0.8."""
    failures = 0
    checked = 0
    for n in (2, 3):
        rng = make_stream(201 + n)
        for i in range(100):
            body = random_body(n, rng)
            rep = verify_thm2(body, samples=SAMPLES, seed=2000 + 100 * n + i,
                              threads=THREADS)
            checked += 1
            if not rep.passed:
                failures += 1
    lune_ok = True
    for n in (2, 3):
        rng = make_stream(211 + n)
        for i in range(3):
            rep = verify_thm2(random_lune(n, rng), samples=SAMPLES,
                              seed=2500 + 10 * n + i, threads=THREADS)
            lune_ok = lune_ok and abs(rep.slack) <= rep.tolerance
    oct_rep = verify_thm2(octant_body(2), samples=SAMPLES, seed=2600,
                          threads=THREADS)
    report(capsys, 2,
           failures == 0 and lune_ok and oct_rep.slack >= 0.8,
           f"volume-inradius bound, {checked} random bodies "
           f"({failures} failures), lune equality two-sided "
           f"{'ok' if lune_ok else 'violated'}, octant slack "
           f"{oct_rep.slack:.3f} (>= 0.8)")


def test_criterion_3_polar_width_identity(capsys):
    """sigma_n - 2 sigma(K*) = 2 U(K) within 3 combined stderr in at least
    49 of 50 random bodies."""
    passes = 0
    for n in (2, 3):
        rng = make_stream(301 + n)
        for i in range(25):
            body = random_body(n, rng)
            rep = check_identity_2_1(body, samples=SAMPLES,
                                     seed=3000 + 100 * n + i,
                                     threads=THREADS)
            passes += int(rep.passed)
    report(capsys, 3, passes >= 49,
           f"polarity identity, {passes}/50 within 3 combined sigma "
           f"(need >= 49)")


def test_criterion_4_gnomonic_consistency(capsys):
    """Sphere-side U(K) vs projected-side U_f at 3 combined sigma for 50
    random bodies; polytopal cap rho = 0.7 matches 2 pi sin 0.7."""
    failures = 0
    for n in (2, 3):
        rng = make_stream(401 + n)
        for i in range(25):
            body = random_body(n, rng)
            rep = check_projection_consistency(body, samples=SAMPLES,
                                               seed=4000 + 100 * n + i,
                                               threads=THREADS)
            if not rep.passed:
                failures += 1
    cap = cap_polytope(2, [0.0, 0.0, 1.0], 0.7, n_vertices=512)
    exact = 2.0 * math.pi * math.sin(0.7)
    sphere_side = mean_width_mc(cap, samples=SAMPLES, seed=4600,
                                threads=THREADS)
    poly = project_body(circumcenter_frame(cap), cap)
    flat_side = uf(poly, spherical_weight(2), threads=THREADS)
    mesh_tol = 5e-3  # inscribed 512-gon mean-width deficit
    cap_ok = (abs(sphere_side.value - exact)
              <= 3 * sphere_side.stderr + mesh_tol) and \
        (abs(flat_side.value - exact) <= 3 * flat_side.stderr + mesh_tol)
    report(capsys, 4, failures == 0 and cap_ok,
           f"gnomonic consistency, 50 bodies ({failures} failures); "
           f"cap(0.7): sphere {sphere_side.value:.4f}, projected "
           f"{flat_side.value:.4f}, target {exact:.4f}")


def test_criterion_5_polar_radius_duality(capsys):
    """|r(K*) - (pi/2 - R(K))| <= 1e-7 for 100 random bodies."""
    worst = 0.0
    counts = {2: 40, 3: 40, 4: 20}
    total = 0
    for n, m in counts.items():
        rng = make_stream(501 + n)
        for _ in range(m):
            body = random_body(n, rng)
            r_star = inradius(polar(body))[0]
            R = circumradius(body)[0]
            worst = max(worst, abs(r_star - (math.pi / 2.0 - R)))
            total += 1
    report(capsys, 5, worst <= 1e-7 and total == 100,
           f"polar radius duality, {total} bodies in S^2/S^3/S^4, "
           f"max |r(K*) - (pi/2 - R)| = {worst:.2e} (limit 1e-7)")


def test_criterion_6_vertex_average_inequality(capsys):
    """S_j-average of g >= C(R, f) - 3 QUAD_TOL C(R, f) at every vertex of
    100 random inscribed simplices (n = 2, 3; both weights), each average a
    polar Gauss-Legendre quadrature; segment equality two-sided; regular
    triangle with f = 1 strictly above 2/pi."""
    failures = 0
    seg_ok = True
    n_vertex_checks = 0
    n_segments = 0
    sid = 6000
    for n in (2, 3):
        rng = make_stream(601 + n)
        weights = (constant_weight(), spherical_weight(n))
        for i in range(50):
            s = random_simplex(1.0, n, rng)
            for w in weights:
                for j in range(s.k + 1):
                    sid += 1
                    rep = check_7_1(s, j, w, samples=100_000, seed=sid,
                                    threads=THREADS)
                    n_vertex_checks += 1
                    if not rep.passed:
                        failures += 1
                    if s.k == 1:
                        n_segments += 1
                        seg_ok = seg_ok and abs(rep.slack) <= rep.tolerance
    tri = regular_triangle(1.0)
    tri_rep = check_7_1(tri, 0, constant_weight(), samples=SAMPLES,
                        seed=6999, threads=THREADS)
    tri_strict = tri_rep.slack > tri_rep.tolerance and \
        tri_rep.rhs == pytest.approx(2.0 / math.pi, abs=1e-9)
    report(capsys, 6,
           failures == 0 and seg_ok and tri_strict,
           f"vertex-average inequality by polar quadrature (lhs + 3 "
           f"QUAD_TOL rhs >= rhs), {n_vertex_checks} vertex checks "
           f"({failures} failures), {n_segments} segment equalities "
           f"{'ok' if seg_ok else 'violated'}, triangle lhs "
           f"{tri_rep.lhs:.4f} > 2/pi = {2 / math.pi:.4f} beyond 3 QUAD_TOL "
           f"rhs: {tri_strict}")


def test_criterion_7_segment_minimizes_uf(capsys):
    """No value below uf(segment) - 3 sigma over 200 random K(B) instances
    (n = 2, both weights); segment matches mu(S^1) C(R, f)."""
    reps = []
    for k, w in enumerate((constant_weight(), spherical_weight(2))):
        reps.append(min_uf_search(1.0, w, n=2, trials=100, seed=7000 + k,
                                  threads=THREADS))
    passed = all(r.passed for r in reps)
    resid = max(abs(r.details["segment_residual"]) for r in reps)
    min_gap = min(r.slack for r in reps)
    report(capsys, 7, passed,
           f"segment minimality, 200 K(B) instances, min gap to segment "
           f"{min_gap:.4f} (>= 0), max |segment - bound| = {resid:.2e}")


def test_criterion_8_covering_bound(capsys):
    """Tight fans sum to pi within 1e-12; 50 widened covers of S^2 and 50
    of a hemisphere pass with slack matching the widening to 1e-7; each
    hemisphere fan also covers B at a second seed, and its antipodal route
    agrees with the direct route to 1e-9."""
    rng = make_stream(801)

    def random_partition(lo, hi, m):
        # Gaps kept in (0.1, pi - 0.1) so widening by <= 0.05 never clips
        # at the interval ends and the expected slack stays closed-form.
        while True:
            raw = rng.dirichlet(np.ones(m)) * (hi - lo)
            if np.all(raw < math.pi - 0.1) and np.all(raw > 0.1):
                return np.concatenate([[lo], lo + np.cumsum(raw[:-1]), [hi]])

    sum_err = 0.0
    for _ in range(20):
        inst = make_lune_fan(2, random_partition(0.0, 2 * math.pi, 5))
        total = math.fsum(b.lune_angle / 2.0 for b in inst.bodies)
        sum_err = max(sum_err, abs(total - math.pi))

    slack_err = 0.0
    anti_ok = True
    n_pass = 0
    for i in range(50):
        w = float(rng.uniform(0.005, 0.05))
        inst = make_lune_fan(2, random_partition(0.0, 2 * math.pi, 4),
                             widen=w)
        rep = verify_thm1(inst, samples=50_000, seed=8000 + i)
        n_pass += int(rep.passed)
        slack_err = max(slack_err, abs(rep.slack - 4 * w / 2.0))
    for i in range(50):
        w = float(rng.uniform(0.005, 0.05))
        m = int(rng.integers(3, 6))
        inst = make_hemisphere_fan(2, random_partition(0.0, math.pi, m),
                                   widen=w)
        rep = verify_thm1(inst, samples=50_000, seed=8100 + i)
        n_pass += int(rep.passed)
        # End lunes clip at 0 and pi: expected slack (m-1) w / 2.
        slack_err = max(slack_err, abs(rep.slack - (m - 1) * w / 2.0))
        # An independent draw of B at its own seed; the antipodal route is
        # derived from this fan's Theorem 1 report.
        cover = check_covering(inst, 50_000, seed=8200 + i, threads=THREADS)
        anti = verify_antipodal_argument(rep)
        anti_ok = anti_ok and cover.passed and anti.passed
    report(capsys, 8,
           sum_err <= 1e-12 and n_pass == 100 and slack_err <= 1e-7
           and anti_ok,
           f"covering bound: fan sum error {sum_err:.1e} (limit 1e-12), "
           f"{n_pass}/100 widened covers pass, slack error {slack_err:.1e} "
           f"(limit 1e-7), antipodal route "
           f"{'agrees' if anti_ok else 'disagrees'}")


def test_criterion_9_reproducibility(capsys, tmp_path):
    """Byte-identical CLI reports for identical seeds regardless of thread
    count."""
    body_path = tmp_path / "body.json"
    assert cli_main(["gen-body", "--kind", "random", "--dim", "3",
                     "--seed", "9", "--out", str(body_path)]) == 0
    identical = True
    for verb in (["verify-thm2"], ["volume"], ["verify-2-1"]):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"{verb[0]}-{threads}.json"
            code = cli_main(verb + [str(body_path), "--samples", "200000",
                                    "--seed", "90", "--threads", threads,
                                    "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        identical = identical and outs[0] == outs[1]
        # The report must be non-trivial.
        assert json.loads(outs[0])
    report(capsys, 9, identical,
           "reproducibility: verify-thm2 / volume / verify-2-1 reports "
           "byte-identical across --threads 1 vs 4")
