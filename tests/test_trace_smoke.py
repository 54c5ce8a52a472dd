"""The benchmark's tracer runs on real CLI calls.

Its counters read parameters of the wrapped functions by name, so a
dropped or renamed parameter breaks ``--trace 1`` without failing any
library test.  This runs one small call of each kind under the installed
``verifybench.layers.TARGETS``, and calls the wrapped library functions
that no CLI verb reaches directly.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from verifybench.layers import TARGETS, per_layer_metrics  # noqa: E402
from verifybench.tracer import Tracer  # noqa: E402

import sphereplanks.cli as cli  # noqa: E402
from sphereplanks import covering, files, linhart  # noqa: E402
from sphereplanks.gnomonic import constant_weight  # noqa: E402

SMALL = ["--samples", "2000", "--seed", "3"]


def test_traced_cli_calls_complete(tmp_path, capsys):
    body, fan = str(tmp_path / "body.json"), str(tmp_path / "fan.json")
    calls = [
        ["gen-body", "--dim", "3", "--seed", "1", "--out", body],
        ["inradius", body], ["circumradius", body], ["polar", body],
        ["volume", body, *SMALL], ["meanwidth", body, *SMALL],
        ["verify-thm2", body, *SMALL, "--threads", "2"],
        ["uf", body, *SMALL], ["verify-projection", body, *SMALL],
        ["gen-fan", "--dim", "2", "--gaps", "pi/3,pi/3,pi/3", "--widen",
         "0.05", "--hemisphere", "--out", fan],
        ["verify-thm1", fan, *SMALL],
        ["verify-prop", "--dim", "2", "--trials", "2", *SMALL],
        ["verify-linhart", "--dim", "3", *SMALL],
    ]
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "sphereplanks" or name.startswith("sphereplanks.")]
    tracer = Tracer()
    tracer.install(modules, TARGETS)
    try:
        tracer.phase = tracer.verdict = "timed"
        codes = [cli.main(argv) for argv in calls]
        # No verb calls these since verify-linhart reads its partition
        # from one height per vertex.
        s = linhart.segment_simplex(1.0, 3)
        linhart.normal_cone_membership(s, 0, s.vertices)
        linhart.sample_spherical_image(s, 0, 2000, 3)
        linhart.check_7_1(s, 0, constant_weight(), 2000, 3)
        # Nor this, since K(B) members are built with B as their ball.
        linhart.make_kb_instance(1.0, s.vertices)
        # Nor this, since a fan's cover is decided from its lunes' angles.
        covering.check_covering(files.load_fan(fan), 2000, 3)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(calls)
    metrics = per_layer_metrics(tracer.spans, 1, 0.0)
    for name in ("cli.main.calls", "cones.cone_generators.rays_out",
                 "bodies.contains.points", "gnomonic.uf.mc.samples",
                 "covering.check_covering.samples",
                 "linhart.normal_cone_membership.points",
                 "linhart.sample_spherical_image.accept_ratio",
                 "linhart.check_7_1.calls"):
        assert metrics[name]["value"] > 0, name
