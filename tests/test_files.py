"""Instance files: symbolic angles, body/fan serialization round trips."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sphereplanks import make_stream, octant_body, random_body, random_lune
from sphereplanks.cli import main
from sphereplanks.covering import make_lune_fan
from sphereplanks.files import (FileFormatError, body_from_dict, body_to_dict,
                                fan_from_dict, fan_to_dict, load_body,
                                load_fan, parse_angle, save_body)


@pytest.mark.parametrize("text,value", [
    ("pi", math.pi),
    ("pi/2", math.pi / 2),
    ("3pi/4", 3 * math.pi / 4),
    ("2*pi", 2 * math.pi),
    (" pi / 3 ", math.pi / 3),
    ("0.5", 0.5),
    ("1e-3", 1e-3),
])
def test_parse_angle(text, value):
    assert parse_angle(text) == pytest.approx(value, abs=0.0)


@pytest.mark.parametrize("bad", ["pi/0", "twopi", "", "pi/2/3"])
def test_parse_angle_rejects(bad):
    with pytest.raises(FileFormatError):
        parse_angle(bad)


@given(num=st.integers(min_value=1, max_value=12),
       den=st.integers(min_value=1, max_value=12))
def test_parse_angle_fractions(num, den):
    assert parse_angle(f"{num}pi/{den}") == float(num) / den * math.pi


def test_body_dict_roundtrip():
    body = octant_body(2)
    back = body_from_dict(body_to_dict(body))
    assert np.allclose(np.sort(back.h_normals, axis=0),
                       np.sort(body.h_normals, axis=0))
    assert back.tag == body.tag


def test_body_file_roundtrip(tmp_path):
    rng = make_stream(1)
    for maker in (lambda: random_body(3, rng),
                  lambda: random_lune(2, rng, angle=0.75),
                  lambda: octant_body(2)):
        body = maker()
        path = tmp_path / "body.json"
        save_body(body, path)
        back = load_body(path)
        assert back.n == body.n
        assert np.allclose(np.sort(back.v_generators, axis=0),
                           np.sort(body.v_generators, axis=0), atol=1e-12)
        assert back.lune_angle == body.lune_angle  # exact through JSON


def test_body_file_is_deterministic(tmp_path):
    body = random_body(2, make_stream(2))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_body(body, p1)
    save_body(body, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_body_dict_validation():
    with pytest.raises(FileFormatError):
        body_from_dict({"rep": "H"})  # missing dim
    with pytest.raises(FileFormatError):
        body_from_dict({"dim": 2, "rep": "X", "normals": [[1, 0, 0]]})
    with pytest.raises(FileFormatError):
        # Well-formed JSON but an invalid body underneath.
        body_from_dict({"dim": 2, "rep": "V",
                        "generators": (np.vstack([np.eye(3),
                                                  -np.eye(3)])).tolist()})


def test_load_body_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,\n  "rep": }')
    with pytest.raises(FileFormatError, match=r"line 2, col"):
        load_body(path)


def test_fan_roundtrip(tmp_path):
    inst = make_lune_fan(2, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2,
                             2 * math.pi], widen=0.01)
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan_to_dict(inst)))
    back = load_fan(path)
    f0, f1 = inst.metadata, back.metadata
    assert np.array_equal(f0["boundary_angles"], f1["boundary_angles"])
    assert np.array_equal(f0["widen"], f1["widen"])
    assert back.B.radius == inst.B.radius
    assert len(back.bodies) == len(inst.bodies)


def test_hemisphere_fan_roundtrip(tmp_path):
    inst = make_lune_fan(2, [0.0, math.pi / 2, math.pi], widen=0.05)
    path = tmp_path / "hemifan.json"
    path.write_text(json.dumps(fan_to_dict(inst)))
    back = load_fan(path)
    assert back.metadata["construction"] == "hemisphere-fan"
    assert back.B.radius == math.pi / 2
    assert np.array_equal(back.metadata["widen"], inst.metadata["widen"])


def test_fan_dict_sum_field():
    inst = make_lune_fan(2, [0.0, math.pi, 2 * math.pi])
    d = fan_to_dict(inst)
    assert d["sum_inradii"] == math.pi
    assert d["kind"] == "lune-fan"
    # Round trip through JSON text keeps the exact float.
    d2 = json.loads(json.dumps(d))
    assert d2["sum_inradii"] == math.pi


def test_fan_dict_validation():
    with pytest.raises(FileFormatError):
        fan_from_dict({"kind": "lune-fan"})
    angles = [0.0, math.pi, 2 * math.pi]
    with pytest.raises(FileFormatError):
        fan_from_dict({"dim": 2, "boundary_angles": angles,
                       "widen": {"a": 1}})
    with pytest.raises(FileFormatError):
        fan_from_dict({"dim": 2, "boundary_angles": angles,
                       "ball": {"radius": 1.0}})


# ---------------------------------------------------------------------------
# Loader fuzz through the CLI: malformed JSON exits 2, never a traceback
# ---------------------------------------------------------------------------

_DIMS = st.one_of(st.integers(-2, 5), st.integers(-2, 10 ** 30))
_SCALARS = st.one_of(st.none(), st.booleans(), _DIMS, st.floats(),
                     st.text(max_size=5),
                     st.sampled_from(["pi/2", "nan", "H", "V", "both",
                                      "lune-fan", "hemisphere-fan"]))
_JSON = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=10)
_ROWS = st.lists(st.lists(st.one_of(st.floats(-2.0, 2.0), _SCALARS),
                          max_size=5), max_size=4)
_ANGLES = st.lists(st.one_of(
    st.floats(-7.0, 7.0), _SCALARS,
    st.sampled_from([0.0, math.pi / 2, math.pi, 2 * math.pi])), max_size=5)
_BODY_FILES = st.one_of(_JSON, st.fixed_dictionaries({}, optional={
    "dim": st.one_of(_DIMS, _SCALARS),
    "rep": st.one_of(st.sampled_from(["H", "V", "both"]), _JSON),
    "normals": st.one_of(_ROWS, _JSON),
    "generators": st.one_of(_ROWS, _JSON),
    "tags": st.one_of(st.fixed_dictionaries({}, optional={
        "tag": _SCALARS, "lune_angle": _SCALARS}), _JSON)}))
_FAN_FILES = st.one_of(_JSON, st.fixed_dictionaries({}, optional={
    "dim": st.one_of(_DIMS, _SCALARS),
    "kind": st.one_of(st.sampled_from(["lune-fan", "perturbed-fan",
                                       "hemisphere-fan"]), _SCALARS),
    "boundary_angles": st.one_of(_ANGLES, _JSON),
    "widen": st.one_of(st.floats(-1.0, 1.0), _ANGLES, _JSON),
    "ball": st.one_of(st.fixed_dictionaries({}, optional={
        "center": st.one_of(_ROWS, st.lists(st.floats(-1.0, 1.0),
                                            max_size=5), _JSON),
        "radius": _SCALARS}), _JSON)}))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _exit_code(path, data, argv):
    path.write_text(json.dumps(data))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=_BODY_FILES)
def test_fuzzed_body_files_exit_2_or_load(fuzz_dir, data):
    path = fuzz_dir / "body.json"
    for argv in (["circumradius", str(path)],
                 ["volume", str(path), "--samples", "64"]):
        code = _exit_code(path, data, argv)
        assert code in (0, 2)
        if not isinstance(data, dict) or "dim" not in data:
            assert code == 2


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=_FAN_FILES)
def test_fuzzed_fan_files_exit_2_or_load(fuzz_dir, data):
    path = fuzz_dir / "fan.json"
    code = _exit_code(path, data, ["verify-thm1", str(path),
                                   "--samples", "64"])
    assert code in (0, 1, 2)  # 1: a loaded fan that does not cover
    if not isinstance(data, dict) or "boundary_angles" not in data:
        assert code == 2


@pytest.mark.parametrize("verb, data", [
    ("circumradius", {"dim": math.inf, "rep": "H", "normals": [[0, 0, -1]]}),
    ("verify-thm1", {"dim": math.inf, "boundary_angles": [0, math.pi]}),
    ("verify-thm1", {"dim": 2, "boundary_angles": []}),
    ("verify-thm1", {"dim": 2, "kind": [1],
                     "boundary_angles": [0, math.pi, 2 * math.pi]}),
    ("verify-thm1", {"dim": 10 ** 6,
                     "boundary_angles": [0, math.pi, 2 * math.pi]}),
], ids=["body-infinite-dim", "fan-infinite-dim", "fan-no-angles",
        "fan-list-kind", "fan-huge-dim"])
def test_fuzz_findings_exit_2(verb, data, tmp_path):
    path = tmp_path / "f.json"
    assert _exit_code(path, data, [verb, str(path)]) == 2


@pytest.mark.parametrize("data, message", [
    ({"dim": 2, "boundary_angles": [0, math.pi, 2 * math.pi],
      "ball": {"center": [0, 0, 1, 0], "radius": 3}},
     "bad ball center: 4 entries, expected dim + 1 = 3"),
    ({"dim": 2, "boundary_angles": [0, math.pi, 2 * math.pi],
      "widen": [0.1, 0.1, 0.1]},
     "bad widen: shape (3,), expected one number or one per lune (2)"),
    ({"dim": 2, "kind": "hemisphere-fan",
      "boundary_angles": [0, math.pi / 2, math.pi], "widen": [[0.1, 0.1]]},
     "bad widen: shape (1, 2), expected one number or one per lune (2)"),
    # A hemisphere fan's ball must be the hemisphere it covers, which is
    # what fan_to_dict writes.
    *[({"dim": 2, "kind": "hemisphere-fan",
        "boundary_angles": [0, math.pi / 2, math.pi],
        "ball": {"center": center, "radius": radius}},
       "bad ball: a hemisphere fan covers the ball of center [0.0, 1.0, 0.0] "
       f"and radius 1.5707963267948966, the file gives center {center} and "
       f"radius {radius!r}")
      for center, radius in (([0.0, 0.0, 1.0], 2.5), ([0.0, 1.0, 0.0], 2.5),
                             ([0.0, 0.0, 1.0], math.pi / 2))],
    # The kind must be the one the angles and widen make.
    ({"dim": 2, "kind": "hemisphere-fan",
      "boundary_angles": [0, math.pi, 2 * math.pi]},
     "bad kind field 'hemisphere-fan': boundary angles from 0.0 to "
     "6.283185307179586 without widen make a 'lune-fan' (a 'hemisphere-fan' "
     "runs from 0 to pi, a 'perturbed-fan' spans 2 pi with widen)"),
    ({"dim": 2, "kind": "lune-fan",
      "boundary_angles": [0, math.pi / 2, math.pi]},
     "bad kind field 'lune-fan': boundary angles from 0.0 to "
     "3.141592653589793 without widen make a 'hemisphere-fan'"),
    ({"dim": 2, "kind": "perturbed-fan",
      "boundary_angles": [0, math.pi, 2 * math.pi]},
     "bad kind field 'perturbed-fan': boundary angles from 0.0 to "
     "6.283185307179586 without widen make a 'lune-fan'"),
    ({"dim": 2, "kind": "lune-fan",
      "boundary_angles": [0, 2 * math.pi / 3, 4 * math.pi / 3, 2 * math.pi],
      "widen": 0.1},
     "bad kind field 'lune-fan': boundary angles from 0.0 to "
     "6.283185307179586 with widen make a 'perturbed-fan'"),
], ids=["ball-center", "widen-list", "widen-nested", "hemisphere-ball",
        "hemisphere-ball-radius", "hemisphere-ball-center",
        "hemisphere-kind-full-turn", "lune-kind-half-turn",
        "perturbed-kind-without-widen", "lune-kind-with-widen"])
def test_fan_field_lengths_exit_2_naming_the_field(data, message, tmp_path,
                                                   capsys):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(data))
    assert main(["verify-thm1", str(path), "--samples", "64"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("angles, widen, made", [
    ([0, math.pi, 2 * math.pi], None, "lune-fan"),
    ([0, 2 * math.pi / 3, 4 * math.pi / 3, 2 * math.pi], 0.1,
     "perturbed-fan"),
    ([0, math.pi / 2, math.pi], None, "hemisphere-fan")])
def test_fan_without_kind_loads_as_its_angles_make_it(angles, widen, made):
    data = {"dim": 2, "boundary_angles": angles}
    if widen is not None:
        data["widen"] = widen
    assert fan_from_dict(data).metadata["construction"] == made


def test_fan_scalar_widen_still_loads():
    angles = [0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi]
    inst = fan_from_dict({"dim": 2, "boundary_angles": angles, "widen": 0.1})
    assert inst.metadata["widen"].tolist() == [0.1] * 4
