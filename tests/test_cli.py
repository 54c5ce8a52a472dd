"""End-to-end CLI checks: verbs, exit codes, deterministic reports."""

import argparse
import importlib.util
import inspect
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from sphereplanks import cones
from sphereplanks import covering as cov
from sphereplanks import files
from sphereplanks import gnomonic as gn
from sphereplanks import linhart as lh
from sphereplanks import measure as ms
from sphereplanks.cli import build_parser, main
from sphereplanks.files import load_body, load_fan
from sphereplanks.measure import N_BATCHES
from sphereplanks.sphere import BLOCK_ENTRIES


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
    assert set(json.loads(out)) == {"incenter", "inradius"}
    assert json.loads(out)["inradius"] == pytest.approx(
        math.asin(1 / math.sqrt(3)), abs=1e-9)
    code, out = run_cli(["circumradius", octant_file])
    assert code == 0
    assert json.loads(out)["circumradius"] == pytest.approx(
        math.acos(1 / math.sqrt(3)), abs=1e-9)


def test_inradius_and_verify_thm2_agree_on_a_lune(tmp_path):
    path = str(tmp_path / "lune.json")
    assert run_cli(["gen-body", "--kind", "lune", "--dim", "3", "--seed",
                    "4", "--out", path])[0] == 0
    angle = load_body(path).lune_angle
    code, out = run_cli(["inradius", path])
    assert code == 0 and json.loads(out)["inradius"] == angle / 2.0
    code, out = run_cli(["verify-thm2", path, "--samples", "1000"])
    assert code == 0 and json.loads(out)["inradius"] == angle / 2.0


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
    ["verify-linhart", "--simplex", "random", "--dim", "4",
     "--samples", "50000"],
], ids=["verify-thm2", "verify-thm1-hemisphere", "verify-linhart-random-S3",
        "verify-linhart-random-S4"])
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


@pytest.fixture
def lune_polar_file(lune_file, tmp_path):
    """Polar of a lune: a set without interior, whose volume is exactly 0."""
    path = tmp_path / "lune-polar.json"
    assert run_cli(["polar", lune_file, "--out", str(path)])[0] == 0
    assert json.loads(path.read_text())["is_body"] is False
    return str(path)


@pytest.mark.parametrize("argv", [
    ["volume", "{octant}"], ["meanwidth", "{octant}"],
    ["verify-thm1", "{hemi_fan}"],
    ["verify-linhart", "--simplex", "segment"],
    # Exact verbs (quadrature, or measure zero) refuse 0 samples too.
    ["uf", "{octant}"], ["verify-prop", "--dim", "2"],
    ["volume", "{lune_polar}"],
], ids=["volume", "meanwidth", "verify-thm1", "verify-linhart",
        "uf-quadrature", "verify-prop-quadrature", "volume-lower-dimensional"])
def test_zero_samples_exit_2(argv, octant_file, hemi_fan_file,
                             lune_polar_file, capsys):
    argv = [a.format(octant=octant_file, hemi_fan=hemi_fan_file,
                     lune_polar=lune_polar_file) for a in argv]
    assert main([*argv, "--samples", "0"]) == 2
    assert "samples must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen-body", "--kind", "cap", "--dim", "3", "--vertices", "12",
     "--seed", "3"],
    ["gen-fan", "--dim", "2", "--gaps", "pi/2,pi/2,pi/2,pi/2",
     "--widen", "0.1", "--seed", "3"],
    ["polar", "{lune}"],
], ids=["gen-body", "gen-fan", "polar"])
def test_out_file_equals_stdout(argv, lune_file, tmp_path):
    argv = [a.format(lune=lune_file) for a in argv]
    code, stdout = run_cli(argv)
    assert code == 0
    path = tmp_path / "out.json"
    assert run_cli(argv + ["--out", str(path)]) == (0, "")
    assert path.read_text() == stdout


def test_seed_comes_only_from_the_option(octant_file, monkeypatch):
    argv = ["volume", octant_file, "--samples", "1000"]
    monkeypatch.setenv("SPHERE_PLANKS_SEED", "5")
    _, out = run_cli(argv)
    assert json.loads(out)["seed"] == 0
    assert run_cli(argv + ["--seed", "0"]) == (0, out)


# The shared options each verb takes; verb-specific ones are not listed.
REPORT_OPTIONS = {"--threads", "--format", "--out"}
SEEDED_OPTIONS = REPORT_OPTIONS | {"--seed"}
SAMPLING_OPTIONS = SEEDED_OPTIONS | {"--samples"}
OPTION_TABLE = {
    "gen-body": SEEDED_OPTIONS, "gen-fan": SEEDED_OPTIONS,
    "inradius": REPORT_OPTIONS, "circumradius": REPORT_OPTIONS,
    "polar": REPORT_OPTIONS,
    **dict.fromkeys(("volume", "meanwidth", "uf", "verify-thm2",
                     "verify-2-1", "verify-projection", "verify-thm1",
                     "verify-prop", "verify-linhart"), SAMPLING_OPTIONS)}


def test_each_verb_takes_only_the_shared_options_it_reads():
    parser = build_parser()
    verbs = next(a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    assert set(verbs) == set(OPTION_TABLE)
    for verb, sub in verbs.items():
        taken = {s for a in sub._actions for s in a.option_strings}
        assert taken & SAMPLING_OPTIONS == OPTION_TABLE[verb], verb


@pytest.mark.parametrize("argv", [
    [*verb, option, "1000"]
    for verb in (["gen-body"], ["gen-fan", "--gaps", "pi,pi"],
                 ["inradius", "{octant}"], ["circumradius", "{octant}"],
                 ["polar", "{octant}"])
    for option in sorted(SAMPLING_OPTIONS - OPTION_TABLE[verb[0]])
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_removed_options_exit_2(argv, octant_file, capsys):
    argv = [a.format(octant=octant_file) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


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


MALFORMED_BODIES = [
    ({"dim": 2, "rep": "H", "normals": [[0, 0, -1]], "tags": [1]},
     "bad tags field [1]: expected an object"),
    ({"dim": 2, "rep": "H", "normals": {"a": 1}}, "bad normals: "),
    ({"dim": 2, "rep": "H", "normals": [[0, 0, -1], [0, 1]]},
     "bad normals: "),
    ({"dim": 2, "rep": "H", "normals": [[0, 0, -1], [0, 1, 0]],
      "tags": {"lune_angle": "nan"}},
     "stated lune angle disagrees with the poles"),
    # A lune file's generators are checked before the lune is rebuilt
    # from its poles.
    ({"dim": 2, "rep": "both", "normals": [[0, 0, 1]],
      "generators": [[1, 0, 0], [0, 0, 1]], "tags": {"lune_angle": "pi"}},
     "inconsistent dual representations"),
    ({"dim": 2, "rep": "H", "normals": [[0, 0, -1, 0]]},
     "vectors have length 4, expected 3"),
    # The cone of +-e_1, +-e_2, +-e_3 is the origin alone.
    ({"dim": 2, "rep": "H", "normals": [[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                                        [0, -1, 0], [0, 0, 1], [0, 0, -1]]},
     "empty body (cone reduces to the origin)"),
]


@pytest.mark.parametrize("payload, message", MALFORMED_BODIES,
                         ids=[f"payload{i}"
                              for i in range(len(MALFORMED_BODIES))])
def test_malformed_body_fields_exit_2(tmp_path, payload, message, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["inradius", str(bad)]) == 2
    assert message in capsys.readouterr().err


def test_lune_file_generators_are_rederived_from_its_poles(tmp_path):
    # A lune file is built twice: once to check its generators against its
    # normals, then from its poles.  Kept as stated, the generator subset
    # [[1, 0, 0]] of this hemisphere would read as a point.
    stated = tmp_path / "stated.json"
    stated.write_text(json.dumps({
        "dim": 2, "rep": "both", "normals": [[0, 0, 1]],
        "generators": [[1, 0, 0]], "tags": {"lune_angle": "pi"}}))
    generated = tmp_path / "generated.json"
    assert main(["gen-body", "--kind", "lune", "--angle", "pi", "--dim", "2",
                 "--seed", "5", "--out", str(generated)]) == 0
    for verb in (["circumradius"], ["meanwidth", "--seed", "3",
                                    "--samples", "20000"]):
        outs = [json.loads(run_cli([verb[0], str(path), *verb[1:]])[1])
                for path in (stated, generated)]
        assert outs[0] == outs[1]
    assert outs[0]["value"] == pytest.approx(2.0 * math.pi)


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


# Gaps summing to pi make a hemisphere fan, which --hemisphere names; gaps
# summing to 2 pi make a fan of S^n, whose lunes widen by at least 0.
@pytest.mark.parametrize("argv, message", [
    (["--gaps", "pi,pi", "--hemisphere"],
     "--hemisphere is given exactly when the gaps sum to pi, and these sum "
     "to 6.283185307179586"),
    (["--gaps", "pi/2,pi/2"],
     "--hemisphere is given exactly when the gaps sum to pi, and these sum "
     "to 3.141592653589793"),
    (["--gaps", "pi/2,pi/2,pi", "--widen", "-0.1"],
     "widening must be nonnegative"),
], ids=["hemisphere-full-turn", "half-turn", "narrowed-sphere"])
def test_gen_fan_refuses_gaps_that_do_not_make_its_fan(argv, message,
                                                      tmp_path, capsys):
    out = tmp_path / "fan.json"
    assert main(["gen-fan", *argv, "--out", str(out)]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ball, message", [
    ({"center": [0, 2, 0], "radius": math.pi / 2}, "not a unit vector"),
    ({"center": [0, 1, 0], "radius": 4},
     "cap radius must lie in [0, pi], got 4.0"),
], ids=["center-not-unit", "radius-4"])
def test_bad_fan_ball_exits_2(ball, message, tmp_path, capsys):
    fan_path = tmp_path / "ball.json"
    fan_path.write_text(json.dumps({
        "dim": 2, "kind": "lune-fan", "ball": ball,
        "boundary_angles": [0.0, 2 * math.pi / 3, 4 * math.pi / 3,
                            2 * math.pi]}))
    assert main(["verify-thm1", str(fan_path), "--samples", "5000"]) == 2
    assert "bad fan file: " + message in capsys.readouterr().err


def test_lune_angle_above_pi_exits_2(capsys):
    assert main(["gen-body", "--kind", "lune", "--angle", "4"]) == 2
    assert "lune angle must lie in (0, pi], got 4.0" in \
        capsys.readouterr().err


def test_mean_width_of_a_body_without_interior_exits_2(tmp_path, capsys):
    # Two generators span an arc, a cap that gen-body refuses.
    arc = tmp_path / "arc.json"
    assert main(["gen-body", "--kind", "cap", "--vertices", "2",
                 "--out", str(arc)]) == 2
    assert "needs at least 3 vertices, got 2" in capsys.readouterr().err
    arc.write_text(json.dumps({"dim": 2, "rep": "V", "generators": [
        [0.6, 0.0, 0.8], [-0.6, 0.0, 0.8]]}))
    assert main(["meanwidth", str(arc), "--samples", "1000"]) == 2
    assert "requires a body with interior" in capsys.readouterr().err


def test_corpus_malformed_inputs_exit_2_without_a_traceback(tmp_path,
                                                            monkeypatch):
    """``tools/report_corpus.py``'s malformed argvs, run as the tool runs
    them: every argv that reads a malformed file exits 2, except the
    planted narrowed fans, whose covers fail (exit 1)."""
    spec = importlib.util.spec_from_file_location(
        "report_corpus",
        Path(__file__).resolve().parent.parent / "tools" / "report_corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    monkeypatch.chdir(tmp_path)
    for name, text in (*corpus.MALFORMED_FILES.items(), corpus.CROSSING_FAN):
        (tmp_path / name).write_text(text)
    gens = [argv for argv in corpus._body_argvs() + corpus._fan_argvs()
            if argv[0].startswith("gen-")
            and argv[-1] in ("octant-2-3.json", "fan-lune-2.json")]
    assert [corpus._run(main, argv)["code"] for argv in gens] == [0, 0]
    records = [corpus._run(main, argv) for argv in corpus._malformed_argvs()]
    assert all(rec["code"] != "traceback" for rec in records)
    for rec in records:
        read = [a for a in rec["argv"] if a in corpus.MALFORMED_FILES]
        if read:
            assert rec["code"] == (1 if "narrowed" in read[0] else 2), rec


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


@pytest.mark.parametrize("argv", [
    ["verify-prop", "--dim", "0"],
    ["verify-prop", "--dim", "1"],
    ["verify-linhart", "--dim", "0", "--simplex", "segment"],
    ["verify-linhart", "--dim", "1", "--simplex", "segment"],
    ["verify-linhart", "--dim", "1", "--simplex", "random"],
    ["verify-linhart", "--radius", "0"],
    ["verify-linhart", "--radius", "-1"],
], ids=["prop-dim-0", "prop-dim-1", "linhart-segment-dim-0",
        "linhart-segment-dim-1", "linhart-random-dim-1", "linhart-radius-0",
        "linhart-radius-negative"])
def test_bad_linhart_ball_exits_2(argv, capsys):
    assert main([*argv, "--samples", "1000"]) == 2
    err = capsys.readouterr().err
    assert "need radius R > 0 and dimension n >= 2" in err
    assert "got 0" not in err


@pytest.mark.parametrize("dim, seed", [("3", "1"), ("3", "11"), ("4", "16")])
def test_verify_prop_holds_where_f_saturates(dim, seed):
    # At R = 1e9 the draws miss F's 1/R-wide layer, so each estimate's
    # sampled stderr reads about 0 and the instances' U_f differ from the
    # segment's by rounding; the segment's exact sigma bounds the gap.
    code, out = run_cli(["verify-prop", "--weight", "spherical",
                         "--radius=1e9", "--samples", "2000", "--dim", dim,
                         "--seed", seed])
    assert code == 0
    assert json.loads(out)["slack"] >= 0.0


@pytest.mark.parametrize("samples", ["5", "1"])
def test_vertex_average_from_fewer_than_two_draws_exits_2(samples, capsys):
    # Vertex 0 of seed 0's random 4-simplex gets one accepted draw, whose
    # standard error would read 0.
    assert main(["verify-linhart", "--dim", "4", "--samples", samples]) == 2
    assert f"vertex 0 got 1 of {samples} samples in its spherical image" \
        in capsys.readouterr().err


def test_verify_prop_in_dimension_5_uses_the_spherical_weight():
    # spherical(5) takes F from the cos-power reduction formula.
    code, out = run_cli(["verify-prop", "--dim", "5", "--weight",
                         "spherical", "--trials", "2", "--samples", "2000"])
    assert code == 0
    assert json.loads(out)["weight"] == "spherical(5)"


def test_gen_cap_body_without_vertices_uses_64():
    code, out = run_cli(["gen-body", "--kind", "cap", "--dim", "2"])
    assert code == 0
    assert len(json.loads(out)["generators"]) == 64


@pytest.mark.parametrize("argv, message", [
    (["--kind", "random", "--dim", "2", "--vertices", "1"],
     "needs at least 3 generators"),
    (["--kind", "random", "--dim", "3", "--vertices", "3"],
     "needs at least 4 generators"),
    (["--kind", "random", "--dim", "2", "--vertices", "0"],
     "needs at least 3 generators"),
    (["--kind", "cap", "--dim", "2", "--vertices", "0"],
     "a cap polytope in S^2 needs at least 3 vertices, got 0"),
    (["--kind", "cap", "--dim", "3", "--vertices", "-2"],
     "a cap polytope in S^3 needs at least 4 vertices, got -2"),
    # Fewer than n + 1 vertices span no interior.
    (["--kind", "cap", "--dim", "2", "--vertices", "2"],
     "a cap polytope in S^2 needs at least 3 vertices, got 2"),
    (["--kind", "cap", "--dim", "3", "--vertices", "3"],
     "a cap polytope in S^3 needs at least 4 vertices, got 3"),
], ids=["random-S2-1", "random-S3-3", "random-S2-0", "cap-S2-0",
        "cap-S3-negative", "cap-S2-2", "cap-S3-3"])
def test_gen_body_with_too_few_vertices_exits_2(argv, message, capsys):
    assert main(["gen-body", *argv]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("dim", ["3", "5"])
def test_regular_triangle_outside_the_plane_exits_2(dim, capsys):
    assert main(["verify-linhart", "--simplex", "regular-triangle",
                 "--dim", dim, "--samples", "1000"]) == 2
    assert "regular triangle is planar" in capsys.readouterr().err


def test_reports_are_byte_identical_across_threads_on_many_facets(tmp_path):
    """An S^4 cap polytope with 57 facets and 16 generators, at a sample
    count whose every batch spans several product blocks."""
    body_file = tmp_path / "cap.json"
    assert main(["gen-body", "--kind", "cap", "--dim", "4", "--vertices",
                 "16", "--seed", "4", "--out", str(body_file)]) == 0
    body = load_body(str(body_file))
    assert body.h_normals.shape[0] >= 40
    samples = 10_000 * N_BATCHES
    for A in (body.h_normals, body.v_generators):
        assert samples // N_BATCHES > 2 * (BLOCK_ENTRIES // A.size)
    for verb in ("verify-thm2", "verify-2-1", "verify-projection"):
        outs = []
        for threads in ("1", "2"):
            path = tmp_path / f"{verb}-{threads}.json"
            assert main([verb, str(body_file), "--samples", str(samples),
                         "--seed", "9", "--threads", threads,
                         "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["volume", "{octant}", "--samples", "1000"],
    ["verify-thm1", "{hemi_fan}", "--samples", "1000"],
    ["verify-linhart", "--simplex", "segment", "--samples", "1000"],
    ["verify-prop", "--dim", "2", "--samples", "1000"],
    ["inradius", "{octant}"], ["polar", "{octant}"],
    ["gen-fan", "--gaps", "pi,pi"],
], ids=["volume", "verify-thm1", "verify-linhart", "verify-prop-quadrature",
        "inradius", "polar", "gen-fan"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_2(argv, threads, octant_file, hemi_fan_file,
                                  capsys):
    argv = [a.format(octant=octant_file, hemi_fan=hemi_fan_file)
            for a in argv]
    assert main([*argv, "--threads", threads]) == 2
    assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err


@pytest.fixture
def cap40_s4_file(tmp_path):
    path = tmp_path / "cap40.json"
    assert main(["gen-body", "--kind", "cap", "--dim", "4", "--vertices",
                 "40", "--seed", "7", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def cap24_s3_file(tmp_path):
    path = tmp_path / "cap24.json"
    assert main(["gen-body", "--kind", "cap", "--dim", "3", "--vertices",
                 "24", "--seed", "7", "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("argv", [
    ["volume", "{cap24}", "--samples", "7777"],
    ["uf", "{cap24}", "--samples", "7777"],
    ["verify-linhart", "--simplex", "random", "--dim", "4"],
    ["verify-projection", "{cap40}", "--samples", "23456"],
], ids=["volume-cap24-S3", "uf-cap24-S3", "verify-linhart-random-S4",
        "verify-projection-cap40-S4"])
def test_reports_are_byte_identical_across_threads_in_small_batches(
        argv, cap24_s3_file, cap40_s4_file, tmp_path):
    """Sample counts with small batches: 121 or 122 points at 7,777
    samples, 3,125 at the Linhart default of 200,000, 366 or 367 at
    23,456."""
    argv = [a.format(cap24=cap24_s3_file, cap40=cap40_s4_file)
            for a in argv]
    outs = set()
    for threads in ("1", "2", "3"):
        path = tmp_path / f"rep{threads}.json"
        assert main(argv + ["--seed", "12", "--threads", threads,
                            "--out", str(path)]) == 0
        outs.add(path.read_bytes())
    assert len(outs) == 1


@pytest.mark.parametrize("argv, message", [
    (["gen-fan", "--dim", "1000000", "--gaps", "pi,pi"],
     "fans need a dimension from 1 to 4, got 1000000"),
    (["gen-fan", "--dim", "0", "--gaps", "pi,pi"],
     "fans need a dimension from 1 to 4, got 0"),
    (["gen-body", "--kind", "octant", "--dim", "1000000"],
     "gen-body needs --dim from 1 to 4, got 1000000"),
    (["gen-body", "--kind", "lune", "--dim", "1000000"],
     "gen-body needs --dim from 1 to 4, got 1000000"),
    (["gen-body", "--kind", "lune", "--dim", "0"],
     "gen-body needs --dim from 1 to 4, got 0"),
    (["gen-body", "--kind", "random", "--dim", "5"],
     "gen-body needs --dim from 1 to 4, got 5"),
], ids=["fan-huge", "fan-0", "octant-huge", "lune-huge", "lune-0",
        "random-5"])
def test_dimensions_outside_cone_conversion_exit_2(argv, message, capsys):
    # Refused before anything of the dimension's size is allocated.
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["0", "-1", "2", "pi/2", "inf", "nan"])
def test_cap_radius_outside_the_open_quarter_turn_exits_2(radius, capsys):
    # Outside (0, pi/2) the polytope is not the named cap: radius 2 gave a
    # circumradius of pi - 2, radius 0 a body with no interior.
    assert main(["gen-body", "--kind", "cap", "--dim", "2",
                 f"--cap-radius={radius}"]) == 2
    err = capsys.readouterr().err
    assert "cap radius must be in (0, pi/2), got" in err
    assert "got " + str(float(files.parse_angle(radius))) in err


def test_cap_polytope_on_the_circle_exits_2(capsys):
    # The vertex ring lives on S^(n-1): the message names --dim, not the
    # ring's dimension 0.
    assert main(["gen-body", "--kind", "cap", "--dim", "1"]) == 2
    err = capsys.readouterr().err
    assert "cap polytopes need --dim >= 2, got 1" in err
    assert "got 0" not in err


@pytest.fixture
def lune_fan_file(tmp_path):
    """Full-sphere lune fan: r(B) = pi, so the antipodal route is skipped."""
    path = tmp_path / "fan.json"
    assert main(["gen-fan", "--dim", "2", "--gaps", "pi/2,pi/2,pi",
                 "--out", str(path)]) == 0
    return str(path)


def _fan_reports(path, **mc):
    inst = load_fan(path)
    # verify_thm1 decides the cover exactly and takes no thread count.
    rep = cov.verify_thm1(inst, samples=mc["samples"], seed=mc["seed"])
    anti = cov.verify_antipodal_argument(rep)
    return {"thm1": rep.to_dict(), "antipodal": anti.to_dict(),
            "pass": rep.passed and anti.passed}


def _linhart_reports(R, n, **mc):
    s = lh.segment_simplex(R, n)
    # One draw serves every vertex, so each report carries the verb's seed.
    reports = [lh.check_7_1(s, j, gn.constant_weight(), samples=mc["samples"],
                            seed=mc["seed"]) for j in range(s.k + 1)]
    return {"vertices": [r.to_dict() for r in reports],
            "pass": all(r.passed for r in reports), "simplex": "segment",
            "weight": "constant"}


MC = {"samples": 20_000, "seed": 3, "threads": 1}
VERDICTS = {
    "verify-thm2": (["verify-thm2", "{body}"],
                    lambda f: ms.verify_thm2(load_body(f), **MC).to_dict()),
    "verify-2-1": (["verify-2-1", "{body}"],
                   lambda f: ms.check_identity_2_1(load_body(f),
                                                   **MC).to_dict()),
    "verify-projection": (
        ["verify-projection", "{body}"],
        lambda f: gn.check_projection_consistency(load_body(f),
                                                  **MC).to_dict()),
    "verify-thm1-hemisphere": (["verify-thm1", "{hemi_fan}"],
                               lambda f: _fan_reports(f, **MC)),
    "verify-thm1-skipped-antipodal": (["verify-thm1", "{lune_fan}"],
                                      lambda f: _fan_reports(f, **MC)),
    "verify-linhart": (["verify-linhart", "--dim", "3", "--simplex",
                        "segment"],
                       lambda f: _linhart_reports(1.0, 3, **MC)),
    "verify-prop-default-samples": (
        ["verify-prop", "--trials", "3"],
        lambda f: lh.min_uf_search(1.0, gn.spherical_weight(2), n=2,
                                   trials=3, seed=3).to_dict()),
}


@pytest.mark.parametrize("verb", VERDICTS)
def test_verdict_verbs_print_the_library_report(verb, octant_file,
                                                hemi_fan_file, lune_fan_file):
    argv, library = VERDICTS[verb]
    files = {"{body}": octant_file, "{hemi_fan}": hemi_fan_file,
             "{lune_fan}": lune_fan_file}
    argv = [files.get(a, a) for a in argv] + ["--seed", "3"]
    if "default-samples" not in verb:
        argv += ["--samples", "20000"]
    code, out = run_cli(argv)
    want = library(next((a for a in argv if a.endswith(".json")), None))
    assert json.loads(out) == json.loads(json.dumps(want))
    assert code == (0 if want["pass"] else 1)


def test_skipped_antipodal_route_and_default_samples_carry_provenance(
        lune_fan_file):
    anti = cov.verify_antipodal_argument(
        cov.verify_thm1(load_fan(lune_fan_file), seed=7, samples=500))
    assert anti.details["skipped"] is True
    assert (anti.details["seed"], anti.details["samples"]) == (7, 500)
    code, out = run_cli(["verify-prop", "--trials", "2", "--seed", "7"])
    assert code == 0
    assert (json.loads(out)["seed"], json.loads(out)["samples"]) == (7, None)


def test_unset_samples_take_the_library_defaults(lune_fan_file):
    # The CLI states no sample size of its own.
    def default(fn):
        return inspect.signature(fn).parameters["samples"].default

    code, out = run_cli(["verify-thm1", lune_fan_file])
    assert code == 0
    assert json.loads(out)["thm1"]["samples"] == default(cov.verify_thm1)
    code, out = run_cli(["verify-linhart", "--simplex", "segment"])
    assert code == 0
    assert [v["samples"] for v in json.loads(out)["vertices"]] == \
        [default(lh.check_vertex_averages)] * 2


RADII = ["inf", "1e308", "1e-320", "1e-12", "1e-8", "1e-6", "1e-3", "1",
         "1e9", "1e-160", "1e-100", "1e100", "1e150", "6e153", "7e153",
         "1.3e154", "1e155"]
LINHART_VERBS = {"segment": ["verify-linhart", "--simplex", "segment"],
                 "random": ["verify-linhart", "--simplex", "random"],
                 "prop": ["verify-prop", "--trials", "3"]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("radius", RADII)
@pytest.mark.parametrize("argv", LINHART_VERBS.values(),
                         ids=list(LINHART_VERBS))
def test_linhart_radii_exit_0_or_2(argv, radius, capsys):
    # Any R > 0 up to 1e150 whose square is a normal float runs; the rest
    # are refused with exit 2 and a message naming R, never a traceback or
    # a warning.  Above 1e150, (2R)^2 or a sum of squares can overflow.
    code = main([*argv, "--dim", "3", f"--radius={radius}",
                 "--samples", "2000"])
    R, err = float(radius), capsys.readouterr().err
    assert code == (0 if sys.float_info.min <= R * R and R <= 1e150
                    else 2), err
    assert code == 0 or f"got R = {R}," in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("weight", ["spherical", "constant"])
@pytest.mark.parametrize("dim", ["2", "3", "4", "5"])
@pytest.mark.parametrize("verb", LINHART_VERBS)
def test_linhart_verbs_scale_with_the_radius(verb, dim, weight, capsys):
    # Every tolerance is relative to R, so the verdicts hold from tiny to
    # huge balls, without an overflow or underflow warning on the way.
    for radius in ("1e-100", "1e-12", "1e-8", "1", "5", "1e3", "1e9",
                   "1e100", "1e150"):
        code = main([*LINHART_VERBS[verb], "--dim", dim, "--weight", weight,
                     f"--radius={radius}", "--samples", "2000"])
        assert code == 0, (radius, capsys.readouterr())


@pytest.mark.parametrize("weight", ["spherical", "constant"])
@pytest.mark.parametrize("radius", ["0.5", "1", "2", "5", "10", "100", "1e3",
                                    "1e4", "1e6"])
def test_planar_prop_holds_for_any_radius(radius, weight, capsys):
    code = main(["verify-prop", "--dim", "2", "--weight", weight,
                 f"--radius={radius}", "--trials", "5"])
    assert code == 0, capsys.readouterr().out


@pytest.mark.parametrize("widen", ["nan", "inf"])
@pytest.mark.parametrize("fan", [["--gaps", "2pi/3,2pi/3,2pi/3"],
                                 ["--gaps", "pi/2,pi/2", "--hemisphere"]],
                         ids=["lune-fan", "hemisphere-fan"])
def test_non_finite_widen_exits_2(fan, widen, tmp_path, capsys):
    out = tmp_path / "fan.json"
    assert main(["gen-fan", *fan, f"--widen={widen}", "--out", str(out)]) == 2
    assert "widening must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen-fan", "--gaps", "nan,pi"],
    ["gen-fan", "--gaps", "nan,pi", "--hemisphere"],
    ["verify-thm1", "FAN"],
], ids=["lune-fan", "hemisphere-fan", "hemisphere-fan-file"])
def test_non_finite_boundary_angles_exit_2(argv, tmp_path, capsys):
    fan = tmp_path / "nan-angle.json"
    fan.write_text('{"dim": 2, "kind": "hemisphere-fan", '
                   '"boundary_angles": [0, NaN, 3.141592653589793]}')
    assert main([str(fan) if a == "FAN" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert "boundary angles must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize("argv", [["gen-body"],
                                  ["verify-thm2", "BODY", "--samples", "1000"]],
                         ids=["gen-body", "verify-thm2"])
def test_unwritable_out_exits_2(argv, target, lune_file, tmp_path):
    out = tmp_path / "missing-dir" / "x.json" if target == "missing-dir" \
        else tmp_path
    argv = [lune_file if a == "BODY" else a for a in argv]
    run = subprocess.run([sys.executable, "-m", "sphereplanks", *argv,
                          "--out", str(out)], capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stderr.startswith("error: ")
    assert "Traceback" not in run.stderr


def _csv(argv):
    code, out = run_cli([*argv, "--format", "csv"])
    header, row = out.strip().split("\n")
    return code, dict(zip(header.split(","), row.split(",")))


def test_csv_keeps_nested_reports(hemi_fan_file):
    argv = ["verify-thm1", hemi_fan_file, "--samples", "20000"]
    code, flat = _csv(argv)
    report = json.loads(run_cli(argv)[1])
    assert code == 0
    for key in ("thm1.lhs", "thm1.slack", "antipodal.slack",
                "antipodal.tolerance", "pass"):
        assert key in flat, key
    assert float(flat["thm1.lhs"]) == report["thm1"]["lhs"]
    assert flat["antipodal.tolerance_rule"] == \
        report["antipodal"]["tolerance_rule"]
    # Lists of numbers are left out.
    assert not any(k.startswith("thm1.inradii") for k in flat)

    argv = ["verify-linhart", "--dim", "3", "--simplex", "segment",
            "--samples", "20000"]
    code, flat = _csv(argv)
    report = json.loads(run_cli(argv)[1])
    assert code == 0
    for j, vertex in enumerate(report["vertices"]):
        for key in ("lhs", "rhs", "slack", "tolerance"):
            assert float(flat[f"vertices.{j}.{key}"]) == vertex[key]
    assert "vertices.2.lhs" not in flat


def _wolfe_calls(argv, monkeypatch):
    """How often ``main(argv)`` calls Wolfe's ``cones.min_norm_point``,
    counted through the module attribute, as the tracer wraps it."""
    solve, calls = cones.min_norm_point, []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(cones, "min_norm_point", counted)
        assert run_cli(argv)[0] == 0
    return len(calls)


@pytest.mark.parametrize("argv, solves", [
    (["inradius", "{body}"], 1),
    (["circumradius", "{body}"], 1),
    (["polar", "{body}"], 1),
    (["verify-thm2", "{body}", "--samples", "1000"], 1),
    (["verify-thm2", "{lune}", "--samples", "1000"], 1),
    (["gen-body", "--kind", "cap", "--dim", "3"], 0),
    (["gen-body", "--kind", "octant", "--dim", "3"], 0),
    (["gen-body", "--kind", "lune", "--dim", "3"], 0),
    (["gen-body", "--kind", "random", "--dim", "3"], 1),
], ids=["inradius", "circumradius", "polar", "verify-thm2-random",
        "verify-thm2-lune", "gen-cap", "gen-octant", "gen-lune",
        "gen-random"])
def test_each_min_norm_problem_is_solved_once(argv, solves, tmp_path,
                                              monkeypatch):
    """A body poses two min-norm problems, each solved at most once:
    building a body and taking its polar solve nothing, and a verb reuses
    the solve that decided ``is_body``.  Only a random body asks whether
    it has interior while it is made."""
    paths = {}
    for kind in ("random", "lune"):
        paths[kind] = str(tmp_path / f"{kind}.json")
        assert main(["gen-body", "--kind", kind, "--dim", "3", "--seed", "9",
                     "--out", paths[kind]]) == 0
    argv = [a.format(body=paths["random"], lune=paths["lune"]) for a in argv]
    assert _wolfe_calls(argv, monkeypatch) == solves
