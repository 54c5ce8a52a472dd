"""Lune fans, covering certificates, and the sum-of-inradii bound."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sphereplanks import (CoveringError, check_covering, contains, covering,
                          make_hemisphere_fan, make_lune, make_lune_fan,
                          make_lune_from_angle, measure, sphere,
                          verify_antipodal_argument, verify_thm1)
from sphereplanks.cli import main as cli_main
from sphereplanks.covering import CoveringInstance
from sphereplanks.files import load_fan
from sphereplanks.randgen import octant_body
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
    broken = CoveringInstance(B=inst.B, bodies=inst.bodies[:-1])
    with pytest.raises(CoveringError, match="uncovered, a gap of 1.571e"):
        verify_thm1(broken, samples=20_000, seed=4)


def test_fan_metadata_must_describe_the_bodies():
    inst = make_lune_fan(2, _angles(*[math.pi / 2] * 4))
    fewer = CoveringInstance(B=inst.B, bodies=inst.bodies[:-1],
                             metadata=inst.metadata)
    with pytest.raises(ValueError, match="lists 4 lunes, the instance has 3"):
        verify_thm1(fewer)
    # The same lunes in another order: lune 0 is not the one its
    # boundary angles give.
    shuffled = CoveringInstance(B=inst.B, bodies=inst.bodies[::-1],
                                metadata=inst.metadata)
    with pytest.raises(ValueError, match="lune 0 spans"):
        verify_thm1(shuffled)


def test_lune_angle_must_match_the_poles():
    # make_lune lets a stated angle differ from its poles' by 1e-7; the
    # exact cover rule reads the poles, so it refuses any difference
    # beyond rounding.
    p, q = np.eye(3)[:2]
    lunes = [make_lune(2, -q, -p * math.sin(0.5) - q * math.cos(0.5),
                       angle=angle)
             for angle in (math.pi - 0.5, math.pi - 0.5 + 1e-9)]
    assert lunes[0].h_normals.shape == lunes[1].h_normals.shape == (2, 3)
    B = SphericalCap(center=p, radius=math.pi)
    with pytest.raises(ValueError, match="poles span"):
        verify_thm1(CoveringInstance(B=B, bodies=[lunes[1]]))
    with pytest.raises(CoveringError, match="uncovered"):
        verify_thm1(CoveringInstance(B=B, bodies=[lunes[0]]))


@pytest.mark.parametrize("n", [2, 3])
def test_verify_thm1_refuses_hemisphere_fan_missing_a_lune(n):
    inst = make_hemisphere_fan(n, _angles(*[math.pi / 3] * 3), widen=0.05)
    broken = CoveringInstance(B=inst.B, bodies=inst.bodies[::2])
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
                         (covering, "sample_uniform_cap"),
                         (sphere, "sample_uniform_sphere"),
                         (covering.bd, "inradius_value")):
        monkeypatch.setattr(module, name, refuse)
    assert verify_antipodal_argument(rep).passed


def _count_mc_map(monkeypatch):
    calls = []
    real = measure.mc_map

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(measure, "mc_map", counted)
    monkeypatch.setattr(covering, "mc_map", counted)
    return calls


@pytest.mark.parametrize("fan", [
    ["--gaps", "pi/3,pi/3,pi/3", "--hemisphere", "--widen", "0.05"],
    ["--gaps", "pi/2,pi/2,pi"],
], ids=["hemisphere", "full-sphere"])
def test_verify_thm1_on_fan_files_makes_no_monte_carlo_pass(
        fan, monkeypatch, tmp_path, capsys):
    path = tmp_path / "fan.json"
    assert cli_main(["gen-fan", "--dim", "3", *fan, "--out", str(path)]) == 0
    capsys.readouterr()
    calls = _count_mc_map(monkeypatch)
    outs = []
    for threads in ("1", "2"):
        assert cli_main(["verify-thm1", str(path), "--samples", "20000",
                         "--threads", threads]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    thm1 = json.loads(outs[0])["thm1"]
    # The sampled rule's parameters stay in the report.
    assert (thm1["samples"], thm1["seed"]) == (20000, 0)
    assert thm1["cover_rule"].startswith("lune angles cover the")
    # With a lune removed and no fan metadata, as the benchmark's control
    # instances are built, the cover is refused as uncovered.
    inst = load_fan(str(path))
    gapped = CoveringInstance(B=inst.B, bodies=inst.bodies[1:])
    with pytest.raises(CoveringError, match="uncovered"):
        verify_thm1(gapped, samples=20_000, seed=3)
    assert calls == []


def test_verify_thm1_refuses_a_body_that_is_no_fan_lune(monkeypatch):
    # An octant is no lune: the cover is not decided, and nothing samples.
    inst = make_lune_fan(2, _angles(*[math.pi / 2] * 4))
    calls = _count_mc_map(monkeypatch)
    with pytest.raises(ValueError, match="body 'octant' is not a lune"):
        verify_thm1(CoveringInstance(B=inst.B,
                                     bodies=[*inst.bodies, octant_body(2)]),
                    samples=20_000, seed=3)
    assert calls == []


def test_verify_thm1_refuses_a_gap_whose_witness_misses_b():
    # Lunes over [0, 3 pi/2] leave the gap (3 pi/2, 2 pi); its midpoint
    # w(7 pi/4) is the antipode of B's centre, so it misses B, while points
    # of the gap near the ridge lie in B.
    mid = 7 * math.pi / 4
    B = SphericalCap(center=-np.array([math.cos(mid), math.sin(mid), 0.0]),
                     radius=2.0)
    inst = CoveringInstance(B=B, bodies=_lunes(
        2, [(k * math.pi / 2, math.pi / 2) for k in range(3)]))
    with pytest.raises(ValueError, match="the cover is not decided") as exc:
        verify_thm1(inst)
    assert not isinstance(exc.value, CoveringError)


@pytest.mark.parametrize("n", [2, 3])
def test_strong_form_on_lunes_that_cross_the_ball(n, tmp_path, capsys):
    # Three 2 pi/3 lunes under the hemisphere facing angle pi/2: lune 0
    # lies in B, lune 1 crosses its boundary and keeps a pi/3 lune, and
    # lune 2 meets B only on its boundary.
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({
        "dim": n, "kind": "lune-fan",
        "boundary_angles": [0.0, 2 * math.pi / 3, 4 * math.pi / 3,
                            2 * math.pi],
        "ball": {"center": np.eye(n + 1)[1].tolist(),
                 "radius": math.pi / 2}}))
    assert cli_main(["verify-thm1", str(path)]) == 0
    thm1 = json.loads(capsys.readouterr().out)["thm1"]
    assert thm1["pass"]
    assert thm1["cover_rule"] == \
        "lune angles cover the half circle facing B's centre"
    want = [math.pi / 3, math.pi / 6, 0.0]
    for got, w in zip(thm1["strong_inradii"], want, strict=True):
        assert abs(got - w) <= 8 * math.ulp(math.pi)
    assert abs(thm1["strong_sum"] - math.pi / 2) <= 1e-12


# The hemisphere-fan file on S^2 whose first lune is narrowed by 1e-7 or
# 1e-9 leaves two strips of half that width uncovered, at 0 and at pi/2.
# 100,000 uniform points of B miss strips that thin.
@pytest.mark.parametrize("narrow", [1e-7, 1e-9])
def test_narrowed_hemisphere_fan_is_refused(narrow, tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({
        "dim": 2, "kind": "hemisphere-fan",
        "boundary_angles": [0.0, math.pi / 2, math.pi],
        "widen": [-narrow, 0.0]}))
    assert cli_main(["verify-thm1", str(path), "--samples", "100000",
                     "--seed", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification refused: lune angles leave (")
    assert f"uncovered, a gap of {narrow / 2:.3e} rad; witness [" in err


def _lunes(n, arcs):
    """Lunes over the (start, width) arcs, with no fan metadata."""
    p, q = np.eye(n + 1)[:2]
    return [make_lune_from_angle(n, w, (p, q), theta0=s) for s, w in arcs]


def _full_sphere(n):
    return SphericalCap(center=np.eye(n + 1)[0], radius=math.pi)


def test_lunes_missing_two_pi_by_1e_9_are_refused():
    # Four quarter lunes whose last one ends 1e-9 short of 2 pi.
    arcs = [(k * math.pi / 2, math.pi / 2) for k in range(3)]
    arcs.append((3 * math.pi / 2, math.pi / 2 - 1e-9))
    inst = CoveringInstance(B=_full_sphere(2), bodies=_lunes(2, arcs))
    with pytest.raises(CoveringError, match="uncovered, a gap of 1.000e-09"):
        verify_thm1(inst)


# The seam tolerance, 2^12 ulps of 2 pi, stated here rather than read from
# the module so that a change to it is seen.
SEAM_TOL = 2**12 * math.ulp(2 * math.pi)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_seam_tolerance(n):
    def fan(seam):
        return CoveringInstance(B=_full_sphere(n), bodies=_lunes(
            n, [(0.0, 2.0), (2.0, 2.0), (4.0, 2 * math.pi - 4.0 - seam)]))

    assert covering.ANGLE_TOL == SEAM_TOL
    assert SEAM_TOL > 2 * covering.bd.CONTAIN_TOL
    assert verify_thm1(fan(SEAM_TOL / 2)).details["cover_rule"] == \
        "lune angles cover the circle"
    with pytest.raises(CoveringError, match="uncovered, a gap of 3.638e-11"):
        verify_thm1(fan(10 * SEAM_TOL))


@st.composite
def _random_fans(draw):
    """Lunes over a random partition of the circle (or of [0, pi] under the
    hemisphere), each widened or narrowed by up to 0.05."""
    n = draw(st.integers(1, 4))
    hemi = draw(st.booleans())
    m = draw(st.integers(2, 5))
    span = math.pi if hemi else 2 * math.pi
    cuts = sorted(draw(st.lists(st.floats(0.15, span - 0.15), min_size=m - 1,
                                max_size=m - 1)))
    angles = np.array([0.0, *cuts, span])
    assume(np.all(np.diff(angles) > 0.15) and np.all(np.diff(angles) < 3.0))
    widen = np.array(draw(st.lists(st.floats(-0.05, 0.05), min_size=m,
                                   max_size=m)))
    lo, hi = angles[:-1] - widen / 2, angles[1:] + widen / 2
    if hemi:
        lo, hi = np.maximum(lo, 0.0), np.minimum(hi, math.pi)
        B = SphericalCap(center=np.eye(n + 1)[1], radius=math.pi / 2)
    else:
        B = _full_sphere(n)
    # The stretch before each lune, the seam or the ends of [0, pi]
    # included; only neighbours can overlap.
    if hemi:
        gaps = np.append(lo, math.pi) - np.insert(hi, 0, 0.0)
    else:
        gaps = lo - np.insert(hi[:-1], 0, hi[-1] - span)
    # Gaps near the seam tolerance are left to test_seam_tolerance.
    assume(not np.any((gaps > SEAM_TOL / 2) & (gaps < 2 * SEAM_TOL)))
    return CoveringInstance(B=B, bodies=_lunes(n, zip(lo, hi - lo))), gaps


@settings(max_examples=40, deadline=None)
@given(_random_fans())
def test_angle_rule_agrees_with_sampling(fan):
    inst, gaps = fan
    open_gaps = gaps[gaps > SEAM_TOL]
    try:
        verify_thm1(inst)
        refused = None
    except CoveringError as exc:
        refused = str(exc)
    assert (refused is None) == (open_gaps.size == 0)
    if refused is not None:
        witness = np.array(json.loads(
            refused[refused.index("witness ") + 8:refused.index(" lies")]))
        assert witness @ inst.B.center >= math.cos(inst.B.radius)
        assert not any(contains(body, witness) for body in inst.bodies)
    if open_gaps.size == 0 or np.all(open_gaps > 1e-3):
        sampled = check_covering(inst, samples=100_000, seed=1)
        assert sampled.passed == (refused is None)
