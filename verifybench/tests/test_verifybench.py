"""Self-tests of the benchmark: span arithmetic, oracles, seeded inputs.

    python3 -m pytest verifybench/tests -q
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from scipy.integrate import quad  # noqa: E402

from verifybench import layers, oracles  # noqa: E402
from verifybench.tracer import (Span, Tracer, check_self_sums,  # noqa: E402
                                covered, self_times)
from verifybench.workloads import (WORKLOADS, Body,  # noqa: E402
                                   _check_estimate, _refuse_removed_lune)


def span(sid, parent, start, end, thread=1, verdict="v"):
    return Span(sid, f"s{sid}", parent, verdict, "timed", thread, start, end)


def test_self_times_of_a_nested_tree_sum_to_the_root():
    spans = [span(0, None, 0, 100), span(1, 0, 10, 40), span(2, 1, 20, 30),
             span(3, 0, 50, 90)]
    selfs = self_times(spans)
    assert selfs == {0: 30, 1: 20, 2: 10, 3: 40}
    assert sum(selfs.values()) == 100
    assert check_self_sums(spans, selfs) == []


def test_overlapping_worker_spans_count_once_against_their_parent():
    spans = [span(0, None, 0, 100), span(1, 0, 10, 90),
             span(2, 1, 20, 60, thread=2), span(3, 1, 40, 80, thread=3)]
    selfs = self_times(spans)
    assert covered([(20, 60), (40, 80)], 10, 90) == 60
    assert selfs[1] == 80 - 60
    assert selfs[0] == 20
    # Workers overlap, so only the main thread's sum is bounded.
    assert check_self_sums(spans, selfs) == []
    bad = [span(0, None, 0, 10), span(1, 0, 2, 20)]
    assert check_self_sums(bad, self_times(bad))


def test_tracer_spans_of_real_calls_sum_exactly():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    leaf_t = tracer.wrap(leaf, "leaf")
    mid_t = tracer.wrap(lambda: leaf_t() + leaf_t(), "mid")
    tracer.verdict = "v"
    with tracer.span("root"):
        mid_t()
        leaf_t()
    assert [s.name for s in tracer.spans].count("leaf") == 3
    assert check_self_sums(tracer.spans, self_times(tracer.spans)) == []


def test_install_wraps_every_binding_and_uninstall_restores():
    import sphereplanks
    from sphereplanks import cli, linhart, measure, sphere

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "sphereplanks" or name.startswith("sphereplanks.")]
    orig = sphere.sample_uniform_sphere
    tracer = Tracer()
    tracer.install(modules, layers.TARGETS)
    try:
        for mod in (sphere, measure, linhart, sphereplanks):
            assert mod.sample_uniform_sphere is not orig
        assert cli.make_stream is sphere.make_stream
    finally:
        tracer.uninstall()
    assert measure.sample_uniform_sphere is orig


def test_benchmark_json_lists_the_layer_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == layers.benchmark_entries()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == \
        [w.why for w in WORKLOADS.values()]


def test_closed_forms_agree_with_quadrature():
    for n in (2, 3, 4):
        for rho in (0.2, 1.0, 2.5):
            ring = oracles.sphere_area(n - 1)
            direct = ring * quad(lambda t: math.sin(t) ** (n - 1), 0, rho)[0]
            assert oracles.cap_area(n, rho) == pytest.approx(direct, rel=1e-12)
    F = {2: lambda s: s / math.sqrt(1 + s * s),
         3: lambda s: 0.5 * (math.atan(s) + s / (1 + s * s))}
    for n in (2, 3):
        den = quad(lambda p: math.sin(p) ** (n - 2), 0, math.pi / 2)[0]
        for R in (0.5, 1.0, 2.0):
            for weight, f in (("constant", lambda s: s), ("spherical", F[n])):
                num = quad(lambda p: f(R * math.cos(p))
                           * math.sin(p) ** (n - 2), 0, math.pi / 2)[0]
                assert oracles.hemisphere_average(R, weight, n) == \
                    pytest.approx(num / den, rel=1e-10)
    octant = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert oracles.girard_area(octant) == pytest.approx(math.pi / 2)


def test_girard_polar_area_matches_the_crofton_perimeter():
    """On S^2, sigma(K*) = 2 pi - perimeter(K)."""
    import numpy as np
    from scipy.spatial import ConvexHull

    from sphereplanks import make_stream, random_body

    rng = make_stream(7)
    for _ in range(20):
        body = random_body(2, rng)
        V = body.v_generators
        c = oracles.min_norm_point(V)
        c /= np.linalg.norm(c)
        _, _, Vt = np.linalg.svd(c[None, :])
        ring = V[ConvexHull((V / (V @ c)[:, None]) @ Vt[1:].T).vertices]
        perimeter = sum(math.acos(min(1.0, float(a @ b))) for a, b in
                        zip(ring, np.roll(ring, -1, axis=0)))
        assert oracles.girard_area(body.h_normals) == \
            pytest.approx(2 * math.pi - perimeter, abs=1e-9)


def test_oracle_rejects_a_wrong_estimate():
    octant = Body(2, "octant", None, None, oracles.octant_inradius(2),
                  math.acos(1 / math.sqrt(3)))
    truth = octant.volume()
    report = {"quantity": "volume", "samples": 1_000_000, "stderr": 1e-3,
              "value": math.pi / 2 + 2e-3}
    assert _check_estimate(octant, "volume", truth, [0], [report]) == []
    report["value"] = math.pi / 2 + 10e-3
    assert _check_estimate(octant, "volume", truth, [0], [report])
    assert _check_estimate(octant, "volume", truth, [1], [report])


def test_oracle_rejects_a_verdict_its_numbers_contradict():
    report = {"claim": "volume_inradius_bound", "lhs": 1.0, "rhs": 1.2,
              "slack": 0.2, "tolerance": 0.003, "pass": False}
    problems = []
    oracles.verdict_follows(report, 1, problems)
    assert problems
    report["pass"] = True
    problems = []
    oracles.verdict_follows(report, 0, problems)
    assert problems == []


def test_fan_with_a_lune_removed_is_refused(tmp_path):
    from sphereplanks import cli

    path = tmp_path / "fan.json"
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["gen-fan", "--gaps", "pi/2,pi/2,pi/2,pi/2",
                         "--out", str(path)]) == 0
    refused = _refuse_removed_lune(str(path), 1, seed=3)["refused"]
    assert refused and "uncovered" in refused


@pytest.mark.parametrize("name", ["mc-estimate", "instance-sweep"])
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name, tmp_path):
    from sphereplanks import cli

    wl = WORKLOADS[name]

    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        with contextlib.redirect_stderr(io.StringIO()):
            wl.generate(cli, wl.plan(seed), d)
        # Report paths name the directory; compare the geometry only.
        return {p.name: {k: v for k, v in json.loads(p.read_text()).items()
                         if k != "written"}
                for p in sorted(d.iterdir())}

    assert wl.plan(3) == wl.plan(3)
    assert files(3, "a") == files(3, "b")
    assert files(3, "a2") != files(4, "c")


def test_cone_convert_schedule_repeats_for_a_seed():
    wl = WORKLOADS["cone-convert"]
    assert wl.plan(5) == wl.plan(5)
    assert wl.plan(5) != wl.plan(6)


@pytest.mark.parametrize("seed", [5, 6])
def test_instance_sweep_seed_never_sets_a_verdict_cost(seed):
    from sphereplanks.linhart import random_simplex
    from sphereplanks.sphere import make_stream

    plan = WORKLOADS["instance-sweep"].plan(seed)
    for simplex, _, n, R, s, _ in plan["linhart"]:
        if simplex == "random":
            assert random_simplex(R, n, make_stream(s)).k == n
    assert sorted(len(gaps) for _, _, gaps, _, _, _ in plan["fans"]) == \
        sorted(len(gaps) for _, _, gaps, _, _, _ in
               WORKLOADS["instance-sweep"].plan(seed + 10)["fans"])
