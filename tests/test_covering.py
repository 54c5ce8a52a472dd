"""Lune fans, covering certificates, and the sum-of-inradii bound."""

import math

import numpy as np
import pytest

from sphereplanks import (CoveringError, check_covering, covering,
                          make_hemisphere_fan, make_lune_fan, measure, sphere,
                          verify_antipodal_argument, verify_thm1)
from sphereplanks.cli import main as cli_main
from sphereplanks.covering import CoveringInstance
from sphereplanks.sphere import SphericalCap


def _angles(*gaps):
    return np.concatenate([[0.0], np.cumsum(gaps)])


def test_fan_inradius_sum_is_exact():
    # Sum of inradii of any tight fan is exactly pi, in exact arithmetic.
    for gaps in ([math.pi, math.pi / 2, math.pi / 2],
                 [math.pi / 2] * 4,
                 [0.1, 0.2, 3.0, 2 * math.pi - 3.3]):
        inst = make_lune_fan(2, _angles(*gaps))
        total = math.fsum(b.lune_angle / 2.0 for b in inst.bodies)
        assert abs(total - math.pi) < 1e-12


def test_fan_requires_increasing_angles():
    with pytest.raises(ValueError):
        make_lune_fan(2, [0.0, 1.0, 0.5, 2 * math.pi])
    with pytest.raises(ValueError):
        make_lune_fan(2, [0.0, 1.0, 2.0])  # span != 2 pi
    with pytest.raises(ValueError):
        make_lune_fan(2, _angles(3.5, 2 * math.pi - 3.5))  # gap > pi


@pytest.mark.parametrize("make", [make_lune_fan, make_hemisphere_fan])
def test_fan_needs_two_boundary_angles(make):
    for angles in ([], [0.0]):
        with pytest.raises(ValueError, match="at least two boundary angles"):
            make(2, angles)


def test_widen_validation():
    with pytest.raises(ValueError):
        make_lune_fan(2, _angles(*[math.pi / 2] * 4), widen=-0.1)
    with pytest.raises(ValueError):
        make_lune_fan(2, _angles(math.pi, math.pi / 2, math.pi / 2),
                      widen=0.5)  # pi + 0.5 > pi


def test_widened_fan_slack_is_exact():
    widen = 0.02
    inst = make_lune_fan(2, _angles(*[math.pi / 2] * 4), widen=widen)
    total = math.fsum(b.lune_angle / 2.0 for b in inst.bodies)
    assert total - math.pi == pytest.approx(4 * widen / 2.0, abs=1e-12)


def test_fan_covers_sphere():
    inst = make_lune_fan(2, _angles(*[2 * math.pi / 5] * 5))
    rep = check_covering(inst, samples=50_000, seed=0)
    assert rep.passed
    assert rep.details["witnesses"] == []


def test_deleted_lune_breaks_cover():
    inst = make_lune_fan(2, _angles(*[math.pi / 2] * 4))
    broken = CoveringInstance(B=inst.B, bodies=inst.bodies[:-1],
                              metadata={})
    rep = check_covering(broken, samples=50_000, seed=1)
    assert not rep.passed
    # Witness points really are uncovered.
    assert 1 <= len(rep.details["witnesses"]) <= 10
    from sphereplanks import contains
    for wpt in rep.details["witnesses"]:
        assert not any(contains(b, np.array(wpt)) for b in broken.bodies)


def test_covering_report_is_thread_invariant():
    inst = make_lune_fan(2, _angles(*[math.pi / 2] * 4))
    broken = CoveringInstance(B=inst.B, bodies=inst.bodies[:-1])
    reps = [check_covering(broken, samples=20_000, seed=3, threads=t)
            for t in (1, 3)]
    assert reps[0] == reps[1]
    assert reps[0].slack < 0


def test_check_covering_rejects_zero_samples():
    inst = make_lune_fan(2, _angles(*[math.pi / 2] * 4))
    gapped = CoveringInstance(B=inst.B, bodies=inst.bodies[:-1])
    with pytest.raises(ValueError, match="samples"):
        check_covering(gapped, samples=0)


def test_verify_thm1_tight_fan():
    inst = make_lune_fan(3, _angles(*[math.pi / 3] * 6))
    rep = verify_thm1(inst, samples=50_000, seed=2)
    assert rep.passed
    # Gap angles pi/3 accumulate a few ulps through cumsum; the sum of
    # inradii still reproduces pi far below the 1e-7 radius tolerance.
    assert rep.lhs == pytest.approx(math.pi, abs=1e-12)
    assert rep.rhs == math.pi
    assert abs(rep.slack) < 1e-12


def test_verify_thm1_widened_fan():
    inst = make_lune_fan(2, _angles(*[math.pi / 2] * 4), widen=0.01)
    rep = verify_thm1(inst, samples=50_000, seed=3)
    assert rep.passed
    assert rep.slack == pytest.approx(0.02, abs=1e-9)


def test_verify_thm1_refuses_non_cover():
    inst = make_lune_fan(2, _angles(*[math.pi / 2] * 4))
    broken = CoveringInstance(B=inst.B, bodies=inst.bodies[:-1],
                              metadata=inst.metadata)
    with pytest.raises(CoveringError):
        verify_thm1(broken, samples=20_000, seed=4)


@pytest.mark.parametrize("n", [2, 3])
def test_verify_thm1_refuses_hemisphere_fan_missing_a_lune(n):
    inst = make_hemisphere_fan(n, _angles(*[math.pi / 3] * 3), widen=0.05)
    broken = CoveringInstance(B=inst.B, bodies=inst.bodies[::2],
                              metadata=inst.metadata)
    samples, seed = 20_000, 6
    with pytest.raises(CoveringError):
        verify_thm1(broken, samples=samples, seed=seed)
    # The gap is a lune of angle pi/3 - 0.05, so it holds that share of pi
    # of the hemisphere: uniform points on B miss it at that rate.
    p = (math.pi / 3 - 0.05) / math.pi
    missed = -check_covering(broken, samples=samples, seed=seed).slack
    assert abs(missed - p * samples) <= 4 * math.sqrt(samples * p * (1 - p))


def test_hemisphere_fan_strong_form():
    angles = _angles(*[math.pi / 4] * 4)
    inst = make_hemisphere_fan(2, angles, widen=0.05)
    rep = verify_thm1(inst, samples=50_000, seed=5)
    assert rep.passed
    # Strong form: intersected inradii sum to >= pi/2.
    assert rep.details["strong_sum"] >= math.pi / 2 - 1e-7
    assert rep.rhs == math.pi / 2


def test_hemisphere_fan_requires_zero_to_pi():
    with pytest.raises(ValueError):
        make_hemisphere_fan(2, [0.1, math.pi])


def test_covering_instance_requires_large_ball():
    with pytest.raises(ValueError):
        CoveringInstance(B=SphericalCap(center=np.array([0.0, 0.0, 1.0]),
                                        radius=1.0), bodies=[])


def test_intermediate_ball_radius():
    # Fan covers the whole sphere, hence any ball; with r(B) = 3pi/4 the
    # bound has slack pi/4.
    B = SphericalCap(center=np.array([1.0, 0.0, 0.0]),
                     radius=3 * math.pi / 4)
    inst = make_lune_fan(2, _angles(*[math.pi / 2] * 4), ball=B)
    rep = verify_thm1(inst, samples=50_000, seed=6)
    assert rep.passed
    assert rep.slack == pytest.approx(math.pi / 4, abs=1e-12)
    anti = verify_antipodal_argument(rep)
    assert anti.passed
    assert not anti.details.get("skipped", False)
    assert anti.details["antipodal_radius"] == pytest.approx(math.pi / 4)


def test_antipodal_route_skips_full_sphere():
    inst = make_lune_fan(2, _angles(*[math.pi / 2] * 4))
    rep = verify_antipodal_argument(verify_thm1(inst, samples=10_000, seed=8))
    assert rep.passed
    assert rep.details["skipped"] is True


def test_antipodal_route_hemisphere():
    inst = make_hemisphere_fan(2, _angles(*[math.pi / 3] * 3), widen=0.02)
    rep = verify_antipodal_argument(verify_thm1(inst, samples=50_000, seed=9))
    assert rep.passed
    assert rep.details["uncovered"] == 0


_ROUTE_RULE = ("B' plus the bodies cover S^n; both inequality routes agree "
               "to 1e-9")
# The reports the sampled antipodal route gave, which redrew S^n with the
# seed and sample count of the Theorem 1 check.
PINNED_ROUTES = {
    "full-sphere": (
        lambda: make_lune_fan(2, _angles(*[math.pi / 2] * 4)), 10_000, 8,
        {"claim": "antipodal_ball_route", "lhs": 0.0, "rhs": 0.0,
         "slack": 0.0, "tolerance": 0.0,
         "tolerance_rule": "skipped: B' degenerates to a point for "
                           "r(B) = pi",
         "pass": True, "inputs_digest": "", "skipped": True,
         "r_B": 3.141592653589793, "seed": 8, "samples": 10000}),
    "ball-3pi/4": (
        lambda: make_lune_fan(
            2, _angles(*[math.pi / 2] * 4),
            ball=SphericalCap(center=np.array([1.0, 0.0, 0.0]),
                              radius=3 * math.pi / 4)), 50_000, 6,
        {"claim": "antipodal_ball_route", "lhs": 0.7853981633974483,
         "rhs": 0.7853981633974483, "slack": 0.7853981633974483,
         "tolerance": 1e-09, "tolerance_rule": _ROUTE_RULE, "pass": True,
         "inputs_digest": "", "uncovered": 0,
         "antipodal_radius": 0.7853981633974483, "seed": 6,
         "samples": 50000}),
    "hemisphere": (
        lambda: make_hemisphere_fan(2, _angles(*[math.pi / 3] * 3),
                                    widen=0.02), 50_000, 9,
        {"claim": "antipodal_ball_route", "lhs": 0.019999999999999796,
         "rhs": 0.019999999999999574, "slack": 0.019999999999999796,
         "tolerance": 1e-09, "tolerance_rule": _ROUTE_RULE, "pass": True,
         "inputs_digest": "", "uncovered": 0,
         "antipodal_radius": 1.5707963267948966, "seed": 9,
         "samples": 50000}),
    "hemisphere-S3": (
        lambda: make_hemisphere_fan(3, _angles(*[math.pi / 3] * 3),
                                    widen=0.05), 20_000, 11,
        {"claim": "antipodal_ball_route", "lhs": 0.04999999999999982,
         "rhs": 0.04999999999999982, "slack": 0.04999999999999982,
         "tolerance": 1e-09, "tolerance_rule": _ROUTE_RULE, "pass": True,
         "inputs_digest": "", "uncovered": 0,
         "antipodal_radius": 1.5707963267948966, "seed": 11,
         "samples": 20000}),
}


@pytest.mark.parametrize("case", PINNED_ROUTES)
def test_derived_route_gives_the_sampled_route_report(case):
    make, samples, seed, want = PINNED_ROUTES[case]
    rep = verify_thm1(make(), samples=samples, seed=seed)
    assert verify_antipodal_argument(rep).to_dict() == want


def test_derived_route_draws_nothing(monkeypatch):
    inst = make_hemisphere_fan(2, _angles(*[math.pi / 3] * 3), widen=0.02)
    rep = verify_thm1(inst, samples=20_000, seed=9)

    def refuse(*args, **kwargs):
        raise AssertionError("the antipodal route sampled or solved")

    for module, name in ((covering, "mc_map"),
                         (covering, "sample_cap_batches"),
                         (sphere, "sample_sphere_batches"),
                         (sphere, "sample_uniform_sphere"),
                         (covering.bd, "inradius_value")):
        monkeypatch.setattr(module, name, refuse)
    assert verify_antipodal_argument(rep).passed


@pytest.mark.parametrize("fan", [
    ["--gaps", "pi/3,pi/3,pi/3", "--hemisphere", "--widen", "0.05"],
    ["--gaps", "pi/2,pi/2,pi"],
], ids=["hemisphere", "full-sphere"])
def test_verify_thm1_makes_one_monte_carlo_pass(fan, monkeypatch, tmp_path,
                                                capsys):
    path = tmp_path / "fan.json"
    assert cli_main(["gen-fan", "--dim", "3", *fan, "--out", str(path)]) == 0
    calls = []
    real = measure.mc_map

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(measure, "mc_map", counted)
    monkeypatch.setattr(covering, "mc_map", counted)
    assert cli_main(["verify-thm1", str(path), "--samples", "20000"]) == 0
    assert len(calls) == 1
