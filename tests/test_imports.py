"""What each verb imports: numpy only, except cone conversion's Qhull.

Every check runs in a fresh interpreter and reads ``sys.modules``, so it
does not depend on what other tests have imported.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import sphereplanks
from sphereplanks import make_lune_fan, make_stream, random_body
from sphereplanks.files import body_to_dict, fan_to_dict

SRC = str(Path(sphereplanks.__file__).resolve().parents[1])

_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
import sphereplanks.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
out = {{"import": scipy_modules(), "runs": []}}
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = sphereplanks.cli.main(argv)
    out["runs"].append([code, scipy_modules()])
print(json.dumps(out))
"""


def _probe(argvs):
    code = _PROBE.format(src=SRC, argvs=argvs)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300, check=True)
    return json.loads(res.stdout)


def test_importing_the_cli_loads_no_scipy():
    assert _probe([])["import"] == []


def test_verbs_without_cone_conversion_load_no_scipy(tmp_path):
    body = tmp_path / "body.json"
    body.write_text(json.dumps(body_to_dict(random_body(3, make_stream(4)))))
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps(fan_to_dict(
        make_lune_fan(2, [0.0, math.pi / 2, math.pi, 2 * math.pi]))))
    out = _probe([["inradius", str(body)],
                  ["verify-thm2", str(body), "--samples", "1000"],
                  ["verify-linhart", "--samples", "1000"],
                  ["verify-thm1", str(fan), "--samples", "1000"]])
    assert out["runs"] == [[0, []]] * 4


def test_cone_conversion_loads_qhull_on_demand():
    out = _probe([["gen-body", "--kind", "random", "--dim", "3"]])
    assert out["import"] == []
    code, loaded = out["runs"][0]
    assert code == 0 and "scipy.spatial" in loaded
