"""Record what the CLI prints for a fixed list of argvs.

    python3 tools/report_corpus.py SRC OUT.json

SRC is a checkout of this repository; the ``sphereplanks`` package under
``SRC/src`` is imported and every argv runs in-process through
``sphereplanks.cli.main``.  The runs share one fixed scratch directory
and name their files by relative paths, so messages that quote a path
read the same for any checkout.  For each argv OUT.json holds the exit
code, stdout, stderr without its ``wall_clock_s`` line, and the text of
the ``--out`` file if there is one.  An exception that escapes ``main``
is recorded as the exit code "traceback" with its type and message.

Two corpora, say of a parent commit and of a change, are compared with
``diff``: entries are written one per argv, in a fixed order.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

DIMS = (2, 3, 4)
SEEDS = (3, 4)
MC = ("--samples", "20000")
BODY_KINDS = {"octant": [], "lune": ["--angle", "pi/3"],
              "cap": ["--vertices", "24"], "random": []}
EXACT_VERBS = ("inradius", "circumradius", "polar")
MC_VERBS = ("volume", "meanwidth", "uf", "verify-thm2", "verify-2-1",
            "verify-projection")
FANS = {"lune": ["--gaps", "pi/2,pi/2,pi"],
        "widened": ["--gaps", "2pi/3,2pi/3,2pi/3", "--widen", "0.05"],
        "hemisphere": ["--gaps", "pi/3,pi/3,pi/3", "--hemisphere"],
        "widened-hemisphere": ["--gaps", "pi/2,pi/2", "--hemisphere",
                               "--widen", "0.05"]}
# Three 2 pi/3 lunes under the hemisphere facing angle pi/2: one lies in
# B, one crosses its boundary and one meets it only there, so the strong
# form's intersected inradii are pi/3, pi/6 and 0.
CROSSING_FAN = ("fan-crossing-2.json",
                '{"dim": 2, "kind": "lune-fan", "boundary_angles": [0.0, '
                '2.0943951023931953, 4.1887902047863905, 6.283185307179586], '
                '"ball": {"center": [0, 1, 0], '
                '"radius": 1.5707963267948966}}')
RADII = ("inf", "1e308", "1e-320", "2e-154", "1e-12", "1e-8", "1e-6", "1e-3",
         "1", "1e9")
HUGE_RADII = ("1e120", "1e150", "6e153", "7e153", "1.3e154")
CAP_RADII = ("0", "-1", "2", "pi/2", "inf", "nan")
MALFORMED_FILES = {
    "not-json.json": "{not json",
    "body-tags.json": '{"dim": 2, "rep": "H", "normals": [[0, 0, -1]], '
                      '"tags": [1]}',
    "body-ragged.json": '{"dim": 2, "rep": "H", '
                        '"normals": [[0, 0, -1], [0, 1]]}',
    "body-nan-angle.json": '{"dim": 2, "rep": "H", "normals": '
                           '[[0, 0, -1], [0, 1, 0]], '
                           '"tags": {"lune_angle": "nan"}}',
    "body-length.json": '{"dim": 2, "rep": "H", "normals": [[0, 0, -1, 0]]}',
    # The cone of +-e_1, +-e_2, +-e_3 is the origin alone.
    "body-empty.json": '{"dim": 2, "rep": "H", "normals": [[1, 0, 0], '
                       '[-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], '
                       '[0, 0, -1]]}',
    # Two generators span an arc, which has no interior.
    "cap-2-vertices.json": '{"dim": 2, "rep": "V", "generators": '
                           '[[0.6, 0.0, 0.8], [-0.6, 0.0, 0.8]]}',
    # A fan's kind disagreeing with its angles, either way round.
    "fan-span.json": '{"dim": 2, "kind": "lune-fan", '
                     '"boundary_angles": [0.0, 1.5707963267948966, '
                     '3.141592653589793]}',
    "fan-kind.json": '{"dim": 2, "kind": "hemisphere-fan", '
                     '"boundary_angles": [0.0, 3.141592653589793, '
                     '6.283185307179586]}',
    # A kind the angles and widen do not make.
    "fan-perturbed-kind.json": '{"dim": 2, "kind": "perturbed-fan", '
                               '"boundary_angles": [0.0, 3.141592653589793, '
                               '6.283185307179586]}',
    "fan-lune-kind.json": '{"dim": 2, "kind": "lune-fan", '
                          '"boundary_angles": [0.0, 2.0943951023931953, '
                          '4.1887902047863905, 6.283185307179586], '
                          '"widen": 0.05}',
    "fan-widen.json": '{"dim": 2, "kind": "hemisphere-fan", '
                      '"boundary_angles": [0.0, 1.5707963267948966, '
                      '3.141592653589793], "widen": [0.1, 0.1, 0.1]}',
    "fan-narrowed.json": '{"dim": 2, "kind": "hemisphere-fan", '
                         '"boundary_angles": [0.0, 1.5707963267948966, '
                         '3.141592653589793], "widen": [-0.2, -0.2]}',
    # Strips of 5e-8 and 5e-10 rad left uncovered, thinner than the
    # sample spacing.
    "fan-narrowed-1e-7.json": '{"dim": 2, "kind": "hemisphere-fan", '
                              '"boundary_angles": [0.0, 1.5707963267948966, '
                              '3.141592653589793], "widen": [-1e-7, 0.0]}',
    "fan-narrowed-1e-9.json": '{"dim": 2, "kind": "hemisphere-fan", '
                              '"boundary_angles": [0.0, 1.5707963267948966, '
                              '3.141592653589793], "widen": [-1e-9, 0.0]}',
    "fan-nan-angle.json": '{"dim": 2, "kind": "hemisphere-fan", '
                          '"boundary_angles": [0, NaN, 3.141592653589793]}',
    # A ball other than the hemisphere the fan covers.
    "fan-hemisphere-ball.json": '{"dim": 2, "kind": "hemisphere-fan", '
                                '"boundary_angles": [0, 1.5707963267948966, '
                                '3.141592653589793], "ball": {"center": '
                                '[0, 0, 1], "radius": 2.5}}',
    "fan-ball-center.json": '{"dim": 2, "kind": "lune-fan", '
                            '"boundary_angles": [0.0, 2.0943951023931953, '
                            '4.1887902047863905, 6.283185307179586], '
                            '"ball": {"center": [0, 2, 0], '
                            '"radius": 1.5707963267948966}}',
    "fan-ball-radius.json": '{"dim": 2, "kind": "lune-fan", '
                            '"boundary_angles": [0.0, 2.0943951023931953, '
                            '4.1887902047863905, 6.283185307179586], '
                            '"ball": {"center": [0, 1, 0], "radius": 4}}',
}


def _body_argvs():
    """Bodies first: every later body verb reads their files."""
    gens, bodies = [], []
    for kind, extra in BODY_KINDS.items():
        for n in DIMS:
            for seed in (3, 11):
                name = f"{kind}-{n}-{seed}.json"
                gens.append(["gen-body", "--kind", kind, "--dim", str(n),
                             "--seed", str(seed), *extra, "--out", name])
                bodies.append(name)
        gens.append(["gen-body", "--kind", kind, "--dim", "3", "--seed", "3",
                     *extra, "--format", "csv"])
    runs = []
    for body in bodies:
        runs += [[verb, body] for verb in EXACT_VERBS]
        for verb in MC_VERBS:
            for seed in SEEDS:
                for threads in ("1", "2"):
                    runs.append([verb, body, *MC, "--seed", str(seed),
                                 "--threads", threads])
        runs.append(["uf", body, *MC, "--weight", "constant"])
        runs += [[verb, body, "--format", "csv"] for verb in EXACT_VERBS]
        runs += [[verb, body, *MC, "--seed", "3", "--format", "csv"]
                 for verb in MC_VERBS]
    # A planar U_f over a 128-gon's normal fan.
    gens.append(["gen-body", "--kind", "cap", "--dim", "2", "--seed", "3",
                 "--vertices", "128", "--out", "cap-2-128.json"])
    runs += [["uf", "cap-2-128.json", "--weight", weight]
             for weight in ("spherical", "constant")]
    return gens + runs


def _fan_argvs():
    gens, runs = [], []
    for kind, extra in FANS.items():
        for n in DIMS:
            name = f"fan-{kind}-{n}.json"
            gens.append(["gen-fan", "--dim", str(n), *extra, "--out", name])
            for seed in SEEDS:
                for threads in ("1", "2"):
                    runs.append(["verify-thm1", name, *MC, "--seed",
                                 str(seed), "--threads", threads])
            runs.append(["verify-thm1", name, *MC, "--format", "csv"])
        gens.append(["gen-fan", *extra, "--format", "csv"])
    # At the library's default sample size.
    runs += [["verify-thm1", "fan-widened-2.json"],
             ["verify-thm1", "fan-hemisphere-3.json"],
             ["verify-thm1", CROSSING_FAN[0]]]
    for widen in ("nan", "inf", "-inf"):
        gens.append(["gen-fan", "--gaps", "2pi/3,2pi/3,2pi/3",
                     f"--widen={widen}"])
        gens.append(["gen-fan", "--gaps", "pi/2,pi/2", "--hemisphere",
                     f"--widen={widen}"])
    return gens + runs


def _linhart_argvs():
    runs = []
    for n in (2, 3, 4, 5):
        for weight in ("spherical", "constant"):
            common = ["--dim", str(n), "--weight", weight, *MC]
            for radius in ("0.5", "1.7"):
                for simplex in ("random", "segment"):
                    for threads in ("1", "2"):
                        runs.append(["verify-linhart", *common, "--radius",
                                     radius, "--simplex", simplex, "--seed",
                                     "3", "--threads", threads])
                runs.append(["verify-prop", *common, "--radius", radius,
                             "--trials", "3", "--seed", "3"])
            runs.append(["verify-linhart", *common, "--format", "csv"])
            runs.append(["verify-prop", *common, "--trials", "2",
                         "--format", "csv"])
    runs += [["verify-linhart", "--dim", "2", "--simplex",
              "regular-triangle", *MC],
             ["verify-prop", "--trials", "2"],
             # At the library's default sample size.
             ["verify-linhart"],
             ["verify-linhart", "--dim", "3", "--simplex", "segment"]]
    for radius in RADII:
        for simplex in ("segment", "random"):
            runs.append(["verify-linhart", "--dim", "3", "--simplex", simplex,
                         f"--radius={radius}", "--samples", "2000"])
        runs.append(["verify-prop", "--dim", "3", f"--radius={radius}",
                     "--trials", "3", "--samples", "2000"])
    # Planar U_f at the library's default trials: F(R cos) nearly linear
    # at 1e-3, and with a layer far thinner than an ulp of angle at 1e150.
    for radius in ("1e-3", "1e9", "1e150"):
        for weight in ("spherical", "constant"):
            runs.append(["verify-prop", "--dim", "2", "--weight", weight,
                         f"--radius={radius}"])
    # At the library's default sizes, where F saturates on S^4 and the
    # sums of squares of R-sized values near the largest radii.
    for radius in HUGE_RADII:
        runs += [["verify-linhart", "--dim", "4", "--weight", "spherical",
                  "--simplex", "segment", f"--radius={radius}"],
                 ["verify-prop", "--dim", "4", f"--radius={radius}"]]
    # The closed-form C(R, f) and radial integrals G at both ends of the
    # radii, and, at the library's default size, F flat on S^4.
    for n in ("2", "3"):
        for radius in ("1e-3", "1e150"):
            for weight in ("spherical", "constant"):
                for simplex in ("random", "segment"):
                    runs.append(["verify-linhart", "--dim", n, "--weight",
                                 weight, "--simplex", simplex,
                                 f"--radius={radius}"])
    runs.append(["verify-linhart", "--dim", "5", "--weight", "spherical",
                 "--simplex", "segment", "--radius=1e150"])
    return runs


def _malformed_argvs():
    runs = [["inradius", name] for name in MALFORMED_FILES
            if name.startswith("body-")]
    runs += [["verify-thm1", name, *MC] for name in MALFORMED_FILES
             if name.startswith("fan-")]
    return runs + [
        ["volume", "not-json.json"], ["verify-thm1", "not-json.json"],
        ["inradius", "missing.json"], ["verify-thm1", "missing.json"],
        ["volume", "octant-2-3.json", "--samples", "0"],
        ["verify-thm2", "octant-2-3.json", "--threads", "0"],
        ["verify-thm1", "fan-lune-2.json", "--samples", "0"],
        ["gen-body", "--dim", "0"], ["gen-body", "--dim", "9"],
        ["gen-body", "--kind", "cap", "--dim", "1"],
        ["gen-body", "--kind", "lune", "--angle", "half"],
        ["gen-body", "--kind", "lune", "--angle", "4"],
        # Fewer than n + 1 cap vertices span no interior.
        ["gen-body", "--kind", "cap", "--vertices", "2"],
        ["gen-body", "--kind", "cap", "--dim", "3", "--vertices", "3"],
        ["meanwidth", "cap-2-vertices.json", *MC],
        *(["gen-body", "--kind", "cap", f"--cap-radius={radius}"]
          for radius in CAP_RADII),
        ["gen-fan", "--gaps", "pi/2,pi/2"],
        ["gen-fan", "--gaps", "pi,pi", "--hemisphere"],
        ["gen-fan", "--gaps", "pi/0,pi"],
        ["gen-fan", "--dim", "9", "--gaps", "pi,pi"],
        ["gen-fan", "--gaps", "nan,pi"],
        ["gen-fan", "--gaps", "nan,pi", "--hemisphere"],
        ["verify-linhart", "--simplex", "regular-triangle", "--dim", "3"],
        ["verify-linhart", "--radius", "-1"],
        ["verify-prop", "--dim", "0"], ["verify-prop", "--trials", "0"],
        ["uf", "octant-2-3.json", "--weight", "cubic"],
        # Relative: every run shares the one scratch directory.
        ["gen-body", "--out", "missing-dir/x.json"],
        # Options a verb does not take, and thread counts below 1 on verbs
        # that do not sample.
        ["gen-body", "--samples", "1000"],
        ["gen-fan", "--gaps", "pi,pi", "--samples", "1000"],
        *([verb, "octant-2-3.json", option, "1000"] for verb in EXACT_VERBS
          for option in ("--samples", "--seed")),
        ["inradius", "octant-2-3.json", "--threads", "0"],
        ["gen-fan", "--gaps", "pi,pi", "--threads", "0"],
    ]


def argvs():
    return (_body_argvs() + _fan_argvs() + _linhart_argvs()
            + _malformed_argvs())


def _run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing an option
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - recorded, not raised
            code = "traceback"
            err.write(f"{type(exc).__name__}: {exc}\n")
    lines = [line for line in err.getvalue().splitlines(keepends=True)
             if not line.startswith("wall_clock_s=")]
    # Warnings without their source location, which differs by checkout.
    shown = dict.fromkeys(f"{w.category.__name__}: {w.message}\n"
                          for w in caught)
    record = {"argv": argv, "code": code, "stdout": out.getvalue(),
              "stderr": "".join(lines) + "".join(shown)}
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        record["out"] = path.read_text() if path.exists() else None
    return record


def main(src, out_path):
    out_path = Path(out_path).resolve()
    sys.path.insert(0, str(Path(src).resolve() / "src"))
    from sphereplanks import cli
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {cli.__file__}, not the package in {src}")
    work = Path(tempfile.gettempdir()) / "sphereplanks-report-corpus"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    os.chdir(work)
    for name, text in (*MALFORMED_FILES.items(), CROSSING_FAN):
        (work / name).write_text(text)
    records = [_run(cli.main, argv) for argv in argvs()]
    with open(out_path, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    codes = Counter(str(rec["code"]) for rec in records)
    print(f"{len(records)} argvs, exit codes {dict(codes)}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    main(*sys.argv[1:])
