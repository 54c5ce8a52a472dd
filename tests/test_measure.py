"""Monte Carlo estimators and the two sphere-side verifiers."""

import math
import sys
import threading

import numpy as np
import pytest

from sphereplanks import (cap_area, check_identity_2_1, make_body,
                          make_stream, mean_width_mc, octant_body, polar,
                          random_body, random_lune, verify_thm2, volume_mc)
from sphereplanks import cones, measure
from sphereplanks.cli import main
from sphereplanks.covering import (CoveringInstance, check_covering,
                                   make_lune_fan)
from sphereplanks.gnomonic import (circumcenter_frame, project_body,
                                   spherical_weight, uf)
from sphereplanks.linhart import random_simplex, sample_spherical_image
from sphereplanks.measure import (Estimate, combined_stderr, mc_map,
                                  three_sigma)
from sphereplanks.randgen import cap_polytope
from sphereplanks.sphere import sample_uniform_sphere

N = 300_000


def _close(est, exact, sigmas=3.0):
    assert abs(est.value - exact) <= sigmas * est.stderr + 1e-12, \
        f"{est.quantity}: {est.value} vs {exact} (stderr {est.stderr})"


def test_octant_volume():
    _close(volume_mc(octant_body(2), samples=N, seed=1), math.pi / 2.0)


def test_lune_volume_law():
    # sigma(lune) = 2 * angle on S^2; equality case of the volume bound.
    lune = random_lune(2, make_stream(2), angle=0.9)
    _close(volume_mc(lune, samples=N, seed=3), 2.0 * 0.9)


def test_cap_volume_matches_cap_area():
    body = cap_polytope(2, [0.0, 0.0, 1.0], 0.8, n_vertices=512)
    est = volume_mc(body, samples=N, seed=4)
    # Inscribed polytope: slightly below the smooth cap, within the mesh
    # deficit plus noise.
    exact = cap_area(2, 0.8)
    assert est.value <= exact + 3.0 * est.stderr
    assert est.value >= exact - 3.0 * est.stderr - 5e-3


def test_volume_of_non_body_is_exact_zero():
    lune = random_lune(2, make_stream(5))
    arc = polar(lune)
    est = volume_mc(arc, samples=N, seed=6)
    assert est.value == 0.0 and est.stderr == 0.0


def test_octant_mean_width():
    # U(octant) = 3 pi / 2: every great circle meets it except those
    # avoiding all three axes... measured directly.
    _close(mean_width_mc(octant_body(2), samples=N, seed=7), 1.5 * math.pi)


def test_lune_mean_width_is_2pi():
    # Every great circle meets a lune through the ridge points.
    lune = random_lune(2, make_stream(8), angle=1.3)
    est = mean_width_mc(lune, samples=N, seed=9)
    assert est.value == pytest.approx(2.0 * math.pi, abs=1e-9)
    assert est.stderr == 0.0


def test_mean_width_solves_for_interior_on_the_calling_thread(monkeypatch):
    """hyperplane_meets reads is_body in every worker; the one solve behind
    it runs before any worker starts."""
    lune = random_lune(3, make_stream(14), angle=1.0)
    solve, callers = cones.min_norm_point, []

    def traced(*args, **kwargs):
        callers.append(threading.current_thread())
        return solve(*args, **kwargs)

    monkeypatch.setattr(cones, "min_norm_point", traced)
    mean_width_mc(lune, samples=100_000, seed=3, threads=2)
    assert callers == [threading.current_thread()]


def test_cap_mean_width():
    # U(cap of radius rho) = 2 pi sin(rho) on S^2.
    body = cap_polytope(2, [0.0, 0.0, 1.0], 0.7, n_vertices=512)
    est = mean_width_mc(body, samples=N, seed=10)
    assert abs(est.value - 2.0 * math.pi * math.sin(0.7)) <= \
        3.0 * est.stderr + 5e-3


def test_volume_monotone_under_inclusion():
    rng = make_stream(11)
    body = random_body(2, rng, n_points=10)
    sub = make_body(2, v_generators=body.v_generators[:5])
    if not sub.is_body:
        pytest.skip("degenerate sub-body")
    v_big = volume_mc(body, samples=N, seed=12)
    v_small = volume_mc(sub, samples=N, seed=12)
    assert v_small.value <= v_big.value + 3.0 * combined_stderr(v_big, v_small)


def test_reproducible_and_thread_invariant():
    body = random_body(3, make_stream(13))
    a = volume_mc(body, samples=50_000, seed=99, threads=1)
    b = volume_mc(body, samples=50_000, seed=99, threads=4)
    assert a.value == b.value and a.stderr == b.stderr
    c = volume_mc(body, samples=50_000, seed=100)
    assert c.value != a.value


def test_estimate_rejects_negative_stderr():
    with pytest.raises(ValueError):
        Estimate(value=1.0, stderr=-1.0, samples=10, seed=0)


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------

def test_identity_octant():
    # sigma_2 - 2 sigma(octant*) = 4pi - 2(pi/2)... the polar octant has
    # volume pi/2, so lhs = 3pi = 2 U(octant).
    rep = check_identity_2_1(octant_body(2), samples=N, seed=14)
    assert rep.passed
    assert rep.lhs == pytest.approx(3.0 * math.pi, abs=0.05)


def test_identity_random_bodies():
    rng = make_stream(15)
    for n in (2, 3):
        body = random_body(n, rng)
        rep = check_identity_2_1(body, samples=N, seed=16)
        assert rep.passed, rep.to_dict()
        assert rep.inputs_digest  # provenance recorded


def test_thm2_octant_strict():
    rep = verify_thm2(octant_body(2), samples=N, seed=17)
    assert rep.passed
    # Slack 2 arcsin(1/sqrt 3) * 4 - pi/2 ~ 0.8878.
    exact_slack = 4.0 * math.asin(1.0 / math.sqrt(3.0)) - math.pi / 2.0
    assert rep.slack == pytest.approx(exact_slack, abs=0.05)


def test_thm2_lune_equality():
    lune = random_lune(3, make_stream(18), angle=2.0)
    rep = verify_thm2(lune, samples=N, seed=19)
    assert rep.passed
    # Two-sided: lune volume equals (sigma_n / pi) r exactly.
    assert abs(rep.slack) <= rep.tolerance


def test_thm2_uses_exact_lune_inradius():
    lune = random_lune(2, make_stream(20), angle=0.4)
    rep = verify_thm2(lune, samples=10_000, seed=21)
    assert rep.details["inradius"] == 0.2


def test_report_dict_shape():
    rep = verify_thm2(octant_body(2), samples=10_000, seed=22)
    d = rep.to_dict()
    for key in ("claim", "lhs", "rhs", "slack", "tolerance",
                "tolerance_rule", "pass", "inputs_digest"):
        assert key in d


# ---------------------------------------------------------------------------
# The engine: one draw per batch, and one pool per thread count
# ---------------------------------------------------------------------------

ENGINE_SAMPLES = [1, 63, 64, 7_777, 100_000, 200_001]


@pytest.mark.parametrize("samples", ENGINE_SAMPLES)
def test_mc_map_points_do_not_depend_on_chunks_or_threads(samples):
    # The contract: batch b's points are sample_uniform_sphere on stream
    # (seed, b), whatever the workers.
    ref = np.concatenate([
        sample_uniform_sphere(2, make_stream(5, (b,)), size)
        for b, size in enumerate(measure._batch_sizes(samples)) if size])
    for threads in (1, 2, 3):
        parts = mc_map(lambda rng, size: sample_uniform_sphere(2, rng, size),
                       samples, 5, threads)
        assert len(parts) == min(samples, measure.N_BATCHES)
        got = np.concatenate(parts)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def _engine_results(samples, threads):
    """Reports of the samplers that reduce over batches or points."""
    rng = make_stream(3)
    body = cap_polytope(3, np.array([0.0, 0.0, 0.0, 1.0]), 0.9, rng=rng,
                        n_vertices=24)  # many facets, 24 generators
    poly = project_body(circumcenter_frame(body), body)
    fan = make_lune_fan(2, np.linspace(0.0, 2.0 * math.pi, 5))
    gapped = CoveringInstance(B=fan.B, bodies=fan.bodies[1:])
    simplex = random_simplex(1.0, 3, make_stream(2))
    accepted, _ = sample_spherical_image(simplex, 1, samples, 6, threads)
    return (volume_mc(body, samples=samples, seed=1, threads=threads),
            mean_width_mc(body, samples=samples, seed=2, threads=threads),
            uf(poly, spherical_weight(3), samples=samples, seed=3,
               threads=threads),
            check_covering(gapped, samples=samples, seed=4,
                           threads=threads).to_dict(),
            accepted.tobytes())


@pytest.mark.parametrize("samples", [64, 7_777, 100_000])
def test_verifier_results_do_not_depend_on_chunks_or_threads(samples):
    ref = _engine_results(samples, 1)
    for threads in (2, 3):
        assert _engine_results(samples, threads) == ref


def test_mc_map_rejects_threads_below_one():
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            mc_map(lambda rng, size: 0, 100, 0, threads)


def test_pool_is_made_once_per_thread_count(tmp_path, monkeypatch):
    body = tmp_path / "body.json"
    assert main(["gen-body", "--kind", "octant", "--dim", "2",
                 "--out", str(body)]) == 0
    argv = ["volume", str(body), "--samples", "100000", "--threads", "2",
            "--out", str(tmp_path / "rep.json")]
    used, real = [], measure._pool
    monkeypatch.setattr(measure, "_pool",
                        lambda threads: used.append(threads) or real(threads))
    assert main(argv) == 0
    assert used == [2]  # the call ran its batches on the pool
    assert real.cache_info().currsize >= 1
    before = threading.active_count()
    for _ in range(20):
        assert main(argv) == 0
    assert threading.active_count() == before
    assert measure._pool(2) is measure._pool(2)


def test_concurrent_callers_share_the_pool():
    # Four caller threads on one two-worker pool, with a short switch
    # interval; each must get the serial result.
    body = random_body(3, make_stream(13))
    want = volume_mc(body, samples=100_000, seed=5)
    got = [None] * 4

    def call(i):
        got[i] = volume_mc(body, samples=100_000, seed=5, threads=2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(i,))
                   for i in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == [want] * 4


def _rule_written_out(direction, lhs, rhs, tol):
    """Slack and verdict as each verifier computed them before
    ``three_sigma``; ``verifybench.oracles.rule_holds`` re-applies these."""
    if direction == "<=":
        return rhs - lhs, lhs - tol <= rhs
    if direction == ">=":
        return lhs - rhs, lhs + tol >= rhs
    slack = -abs(lhs - rhs)
    return slack, slack >= -tol


@pytest.mark.parametrize("sigma", [0.0, 0.1, 1e-3, 7.5e-9])
@pytest.mark.parametrize("direction", ["<=", ">=", "=="])
def test_three_sigma_keeps_each_written_out_rule(direction, sigma):
    # lhs at equality and at either tolerance edge, and one ulp either
    # side of each: the verdict flips somewhere among them.
    rhs, tol = 1.0, 3.0 * sigma
    edges = (rhs, rhs + tol, rhs - tol)
    verdicts = set()
    for lhs in [x for e in edges for x in (math.nextafter(e, -math.inf), e,
                                          math.nextafter(e, math.inf))]:
        rep = three_sigma("claim", lhs, rhs, sigma, direction, "the rule",
                          inputs_digest="abc", details={"stderr": sigma})
        slack, passed = _rule_written_out(direction, lhs, rhs, tol)
        assert (rep.slack, rep.tolerance, rep.passed) == (slack, tol, passed)
        assert (rep.lhs, rep.rhs, rep.tolerance_rule) == (lhs, rhs, "the rule")
        assert rep.to_dict()["stderr"] == sigma
        verdicts.add(rep.passed)
    assert verdicts == {True, False}


def test_three_sigma_refuses_an_unknown_direction():
    with pytest.raises(ValueError, match="unknown direction"):
        three_sigma("claim", 1.0, 1.0, 0.1, "<", "the rule")


def test_doubled_combined_stderr_is_the_written_out_sum():
    # check_identity_2_1 passes 2 * combined_stderr(vol, width) as sigma;
    # scaling by 2 and 4 is exact, so it equals the old expression.
    rng = np.random.default_rng(8)
    for a, b in rng.uniform(0.0, 1.0, size=(1000, 2)) * 10.0 ** \
            rng.integers(-12, 3, size=(1000, 1)):
        pair = [Estimate(value=0.0, stderr=x, samples=1, seed=0)
                for x in (a, b)]
        assert 2.0 * combined_stderr(*pair) == \
            math.sqrt((2.0 * a) ** 2 + (2.0 * b) ** 2)
