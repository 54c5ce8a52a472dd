"""End-to-end CLI checks: verbs, exit codes, deterministic reports."""

import json
import math
import subprocess
import sys

import pytest

from sphereplanks.cli import main


def run_cli(args, tmp_path=None):
    """Invoke the CLI in-process, capturing stdout."""
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


@pytest.fixture
def octant_file(tmp_path):
    path = tmp_path / "octant.json"
    code, _ = run_cli(["gen-body", "--kind", "octant", "--dim", "2",
                       "--out", str(path)])
    assert code == 0
    return str(path)


@pytest.fixture
def lune_file(tmp_path):
    path = tmp_path / "lune.json"
    code, _ = run_cli(["gen-body", "--kind", "lune", "--dim", "2",
                       "--angle", "pi/2", "--seed", "5",
                       "--out", str(path)])
    assert code == 0
    return str(path)


@pytest.fixture
def hemi_fan_file(tmp_path):
    """Widened hemisphere fan: r(B) = pi/2, so the antipodal route runs."""
    path = tmp_path / "hemi.json"
    code, _ = run_cli(["gen-fan", "--dim", "2", "--gaps", "pi/3,pi/3,pi/3",
                       "--widen", "0.05", "--hemisphere", "--out", str(path)])
    assert code == 0
    return str(path)


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "sphereplanks", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "verify-thm1" in out.stdout


def test_gen_body_emits_valid_json(tmp_path):
    code, out = run_cli(["gen-body", "--kind", "random", "--dim", "2",
                         "--seed", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 2 and data["rep"] == "both"


def test_inradius_and_circumradius(octant_file):
    code, out = run_cli(["inradius", octant_file])
    assert code == 0
    assert json.loads(out)["inradius"] == pytest.approx(
        math.asin(1 / math.sqrt(3)), abs=1e-9)
    code, out = run_cli(["circumradius", octant_file])
    assert code == 0
    assert json.loads(out)["circumradius"] == pytest.approx(
        math.acos(1 / math.sqrt(3)), abs=1e-9)


def test_polar_verb(lune_file, tmp_path):
    code, out = run_cli(["polar", lune_file])
    assert code == 0
    data = json.loads(out)
    assert data["is_body"] is False  # polar of a lune is an arc


def test_volume_verb(octant_file):
    code, out = run_cli(["volume", octant_file, "--samples", "200000",
                         "--seed", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(math.pi / 2,
                                          abs=3 * data["stderr"])


def test_meanwidth_and_uf_agree(tmp_path):
    path = tmp_path / "cap.json"
    run_cli(["gen-body", "--kind", "cap", "--cap-radius", "0.7",
             "--dim", "2", "--vertices", "128", "--out", str(path)])
    code, w_out = run_cli(["meanwidth", str(path), "--samples", "200000"])
    assert code == 0
    code, u_out = run_cli(["uf", str(path), "--weight", "spherical"])
    assert code == 0
    width = json.loads(w_out)["value"]
    u_val = json.loads(u_out)["value"]
    exact = 2 * math.pi * math.sin(0.7)
    assert abs(width - exact) < 0.05
    assert abs(u_val - exact) < 0.01


def test_verify_thm2_pass_and_report(lune_file):
    code, out = run_cli(["verify-thm2", lune_file, "--samples", "200000",
                         "--seed", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["claim"] == "volume_inradius_bound"
    assert data["inputs_digest"]


def test_verify_2_1_and_projection(octant_file):
    code, out = run_cli(["verify-2-1", octant_file, "--samples", "200000"])
    assert code == 0 and json.loads(out)["pass"] is True
    code, out = run_cli(["verify-projection", octant_file,
                         "--samples", "200000"])
    assert code == 0 and json.loads(out)["pass"] is True


def test_gen_fan_and_verify_thm1(tmp_path):
    fan_path = tmp_path / "fan.json"
    code, out = run_cli(["gen-fan", "--dim", "2",
                         "--gaps", "pi/2,pi/2,pi/2,pi/2",
                         "--out", str(fan_path)])
    assert code == 0
    saved = json.loads(fan_path.read_text())
    assert saved["sum_inradii"] == math.pi
    code, out = run_cli(["verify-thm1", str(fan_path),
                         "--samples", "20000"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["thm1"]["pass"] is True and data["antipodal"]["pass"] is True


def test_hemisphere_fan_cli(tmp_path):
    fan_path = tmp_path / "hemi.json"
    code, _ = run_cli(["gen-fan", "--dim", "2", "--gaps", "pi/3,pi/3,pi/3",
                       "--widen", "0.05", "--hemisphere",
                       "--out", str(fan_path)])
    assert code == 0
    code, out = run_cli(["verify-thm1", str(fan_path), "--samples", "20000"])
    assert code == 0


def test_verify_prop_and_linhart():
    code, out = run_cli(["verify-prop", "--dim", "2", "--trials", "5",
                         "--samples", "50000", "--seed", "3"])
    assert code == 0 and json.loads(out)["pass"] is True
    code, out = run_cli(["verify-linhart", "--simplex", "regular-triangle",
                         "--weight", "constant", "--samples", "100000"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert len(data["vertices"]) == 3


@pytest.mark.parametrize("argv", [
    ["verify-thm2", "{octant}", "--samples", "100000"],
    ["verify-thm1", "{hemi_fan}", "--samples", "20000"],
    ["verify-linhart", "--simplex", "random", "--dim", "3",
     "--samples", "50000"],
], ids=["verify-thm2", "verify-thm1-hemisphere", "verify-linhart-random-S3"])
def test_reports_are_byte_identical_across_threads(argv, octant_file,
                                                   hemi_fan_file, tmp_path):
    argv = [a.format(octant=octant_file, hemi_fan=hemi_fan_file)
            for a in argv]
    outs = []
    for threads in ("1", "4"):
        p = tmp_path / f"rep{threads}.json"
        code, _ = run_cli(argv + ["--seed", "11", "--threads", threads,
                                  "--out", str(p)])
        assert code == 0
        outs.append(p.read_bytes())
    assert outs[0] == outs[1]
    if argv[0] == "verify-thm1":
        assert "skipped" not in json.loads(outs[0])["antipodal"]


@pytest.mark.parametrize("verb", ["volume", "meanwidth", "verify-thm1",
                                  "verify-linhart"])
def test_zero_samples_exit_2(verb, octant_file, hemi_fan_file, capsys):
    target = {"volume": [octant_file], "meanwidth": [octant_file],
              "verify-thm1": [hemi_fan_file],
              "verify-linhart": ["--simplex", "segment"]}[verb]
    assert main([verb, *target, "--samples", "0"]) == 2
    assert "samples must be >= 1" in capsys.readouterr().err


def test_seed_env_is_read_on_every_call(octant_file, monkeypatch):
    argv = ["volume", octant_file, "--samples", "1000"]
    monkeypatch.setenv("SPHERE_PLANKS_SEED", "5")
    _, first = run_cli(argv)
    monkeypatch.setenv("SPHERE_PLANKS_SEED", "6")
    _, second = run_cli(argv)
    assert json.loads(first)["seed"] == 5
    assert json.loads(second)["seed"] == 6
    assert second == run_cli(argv + ["--seed", "6"])[1]
    monkeypatch.setenv("SPHERE_PLANKS_SEED", "abc")
    assert main(argv) == 2
    assert run_cli(argv + ["--seed", "6"]) == (0, second)


def test_csv_format(octant_file):
    code, out = run_cli(["volume", octant_file, "--samples", "10000",
                         "--format", "csv"])
    assert code == 0
    header, row = out.strip().split("\n")
    assert "value" in header.split(",")
    # CSV floats round-trip exactly (shortest repr).
    idx = header.split(",").index("value")
    assert float(row.split(",")[idx]) > 0


def test_malformed_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["volume", str(bad)])
    assert code == 2


@pytest.mark.parametrize("payload", [
    {"dim": 2, "rep": "H", "normals": [[0, 0, -1]], "tags": [1]},
    {"dim": 2, "rep": "H", "normals": {"a": 1}},
    {"dim": 2, "rep": "H", "normals": [[0, 0, -1], [0, 1]]},
    {"dim": 2, "rep": "H", "normals": [[0, 0, -1], [0, 1, 0]],
     "tags": {"lune_angle": "nan"}},
])
def test_malformed_body_fields_exit_2(tmp_path, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["inradius", str(bad)]) == 2


def test_missing_file_exits_2(tmp_path):
    code = main(["inradius", str(tmp_path / "nope.json")])
    assert code == 2


def test_failed_cover_refuses_with_exit_1(tmp_path):
    # Hemisphere fan whose lunes are narrowed (negative widen): uncovered
    # strips remain, so the verifier must refuse the bound, exit 1.
    fan_path = tmp_path / "narrow.json"
    fan_path.write_text(json.dumps({
        "dim": 2, "kind": "hemisphere-fan",
        "boundary_angles": [0.0, math.pi / 2, math.pi],
        "widen": [-0.2, -0.2],
    }))
    code = main(["verify-thm1", str(fan_path), "--samples", "20000"])
    assert code == 1


def test_bad_fan_file_exits_2(tmp_path):
    fan_path = tmp_path / "span.json"
    fan_path.write_text(json.dumps({
        "dim": 2, "kind": "lune-fan",
        "boundary_angles": [0.0, math.pi / 2, math.pi],  # span != 2 pi
    }))
    code = main(["verify-thm1", str(fan_path), "--samples", "5000"])
    assert code == 2


def test_large_cap_polytope_and_polar_radius_duality(tmp_path):
    """S^4 cap with 64 vertices: the polar's inradius is pi/2 minus the
    body's circumradius."""
    body, pol = tmp_path / "cap.json", tmp_path / "polar.json"
    assert main(["gen-body", "--kind", "cap", "--dim", "4", "--vertices",
                 "64", "--seed", "4", "--out", str(body)]) == 0
    assert main(["polar", str(body), "--out", str(pol)]) == 0
    _, out = run_cli(["inradius", str(pol)])
    r_polar = json.loads(out)["inradius"]
    _, out = run_cli(["circumradius", str(body)])
    R = json.loads(out)["circumradius"]
    assert abs(r_polar - (math.pi / 2.0 - R)) <= 1e-7
