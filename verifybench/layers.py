"""What the traced run wraps, and the per-layer metrics it derives.

Layers are the sphereplanks modules.  ``TARGETS`` names each wrapped
public function with its span name and the counters read from its
arguments or result; ``per_layer_metrics`` turns the spans of one traced
run into the metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .tracer import self_times


def _rows(x):
    a = np.asarray(x)
    return 1 if a.ndim < 2 else int(a.shape[0])


def _size(args):
    return 1 if args["size"] is None else int(args["size"])


def _uf_mode(args):
    mode = args["mode"]
    if mode == "auto":
        mode = "quadrature" if args["poly"].n == 2 else "mc"
    return f"gnomonic.uf.{mode}"


# (module, function) -> (span name or namer, counters(args, result) or None)
TARGETS = {
    ("sphereplanks.sphere", "make_stream"): ("sphere.make_stream", None),
    ("sphereplanks.sphere", "sample_uniform_sphere"): (
        "sphere.sample_uniform_sphere",
        lambda a, r: {"points": _size(a)}),
    ("sphereplanks.sphere", "normalize"): ("sphere.normalize", None),
    ("sphereplanks.sphere", "sample_uniform_cap"): (
        "sphere.sample_uniform_cap", lambda a, r: {"returned": _size(a)}),
    ("sphereplanks.bodies", "contains"): (
        "bodies.contains", lambda a, r: {"points": _rows(a["x"])}),
    ("sphereplanks.bodies", "hyperplane_meets"): (
        "bodies.hyperplane_meets", lambda a, r: {"points": _rows(a["u"])}),
    ("sphereplanks.bodies", "make_body"): ("bodies.make_body", None),
    ("sphereplanks.bodies", "inradius"): ("bodies.inradius", None),
    ("sphereplanks.bodies", "circumradius"): ("bodies.circumradius", None),
    ("sphereplanks.bodies", "polar"): ("bodies.polar", None),
    ("sphereplanks.bodies", "intersect_with_hemisphere"): (
        "bodies.intersect_with_hemisphere", None),
    ("sphereplanks.cones", "cone_generators"): (
        "cones.cone_generators",
        lambda a, r: {"rows_in": _rows(a["normals"]),
                      "rays_out": int(r.shape[0])}),
    ("sphereplanks.cones", "min_norm_point"): ("cones.min_norm_point", None),
    ("sphereplanks.cones", "dedup_rows"): (
        "cones.dedup_rows", lambda a, r: {"rows_in": _rows(a["rows"])}),
    ("sphereplanks.measure", "mc_hit_fraction"): (
        "measure.mc_hit_fraction",
        lambda a, r: {"samples": int(a["samples"])}),
    ("sphereplanks.measure", "verify_thm2"): ("measure.verify_thm2", None),
    ("sphereplanks.measure", "check_identity_2_1"): (
        "measure.check_identity_2_1", None),
    ("sphereplanks.gnomonic", "uf"): (
        _uf_mode, lambda a, r: {"samples": int(r.samples)}),
    ("sphereplanks.gnomonic", "project_body"): ("gnomonic.project_body", None),
    ("sphereplanks.gnomonic", "circumcenter_frame"): (
        "gnomonic.circumcenter_frame", None),
    ("sphereplanks.covering", "check_covering"): (
        "covering.check_covering",
        lambda a, r: {"samples": int(a["samples"])}),
    ("sphereplanks.covering", "verify_antipodal_argument"): (
        "covering.verify_antipodal_argument", None),
    ("sphereplanks.covering", "verify_thm1"): ("covering.verify_thm1", None),
    ("sphereplanks.linhart", "check_7_1"): ("linhart.check_7_1", None),
    ("sphereplanks.linhart", "sample_spherical_image"): (
        "linhart.sample_spherical_image",
        lambda a, r: {"accepted": int(r[0].shape[0]), "drawn": int(r[1])}),
    ("sphereplanks.linhart", "normal_cone_membership"): (
        "linhart.normal_cone_membership",
        lambda a, r: {"points": _rows(a["u"])}),
    ("sphereplanks.linhart", "constant_C"): ("linhart.constant_C", None),
    ("sphereplanks.linhart", "smallest_enclosing_ball"): (
        "linhart.smallest_enclosing_ball", None),
    ("sphereplanks.linhart", "random_kb_instance"): (
        "linhart.random_kb_instance", lambda a, r: {"instances": 1}),
    ("sphereplanks.linhart", "make_kb_instance"): (
        "linhart.make_kb_instance", None),
    ("sphereplanks.randgen", "random_body"): (
        "randgen.random_body", lambda a, r: {"bodies": 1}),
    ("sphereplanks.randgen", "cap_polytope"): ("randgen.cap_polytope", None),
    ("sphereplanks.files", "load_body"): ("files.load_body", None),
    ("sphereplanks.files", "load_fan"): ("files.load_fan", None),
    ("sphereplanks.files", "save_body"): ("files.save_body", None),
    ("sphereplanks.cli", "main"): ("cli.main", None),
}

# Accept ratios: (span, counter of useful outcomes, child span whose calls
# or counter are the attempts).
RATIOS = {
    "sphere.sample_uniform_cap": ("returned", "sphere.sample_uniform_sphere",
                                  "points"),
    "linhart.sample_spherical_image": ("accepted", None, "drawn"),
    "linhart.random_kb_instance": ("instances", "linhart.make_kb_instance",
                                   None),
    "randgen.random_body": ("bodies", "bodies.make_body", None),
}

# Per-layer metrics in BENCHMARK.json order: (name, span, stat).
_STATS = {
    "sphere.make_stream": ("calls", "self_s"),
    "sphere.sample_uniform_sphere": ("points", "self_s"),
    "sphere.normalize": ("self_s",),
    "sphere.sample_uniform_cap": ("self_s", "accept_ratio"),
    "bodies.contains": ("points", "self_s"),
    "bodies.hyperplane_meets": ("points", "self_s"),
    "bodies.make_body": ("calls", "self_s"),
    "bodies.inradius": ("self_s",),
    "bodies.circumradius": ("self_s",),
    "bodies.polar": ("self_s",),
    "bodies.intersect_with_hemisphere": ("self_s",),
    "cones.cone_generators": ("calls", "rows_in", "rays_out", "self_s"),
    "cones.min_norm_point": ("calls", "self_s"),
    "cones.dedup_rows": ("rows_in", "self_s"),
    "measure.mc_hit_fraction": ("samples", "self_s"),
    "measure.verify_thm2": ("total_s",),
    "measure.check_identity_2_1": ("total_s",),
    "gnomonic.uf.mc": ("samples", "self_s"),
    "gnomonic.uf.quadrature": ("calls", "self_s"),
    "gnomonic.project_body": ("self_s",),
    "gnomonic.circumcenter_frame": ("self_s",),
    "covering.check_covering": ("samples", "self_s"),
    "covering.verify_antipodal_argument": ("self_s",),
    "covering.verify_thm1": ("total_s",),
    "linhart.check_7_1": ("calls", "self_s"),
    "linhart.sample_spherical_image": ("accept_ratio", "self_s"),
    "linhart.normal_cone_membership": ("points", "self_s"),
    "linhart.constant_C": ("calls", "self_s"),
    "linhart.smallest_enclosing_ball": ("calls", "self_s"),
    "linhart.random_kb_instance": ("accept_ratio",),
    "randgen.random_body": ("calls", "self_s", "accept_ratio"),
    "randgen.cap_polytope": ("self_s",),
    "files.load_body": ("self_s",),
    "files.load_fan": ("self_s",),
    "files.save_body": ("self_s",),
    "cli.main": ("calls", "self_s"),
}
THREADS2 = (("sphere.sample_uniform_sphere", "busy_s"),
            ("bodies.contains", "busy_s"),
            ("measure.mc_hit_fraction", "self_s"))

UNITS = {"calls": ("count", "lower"), "points": ("count", "lower"),
         "samples": ("count", "lower"), "rows_in": ("count", "lower"),
         "rays_out": ("count", "lower"), "self_s": ("s", "lower"),
         "total_s": ("s", "lower"), "busy_s": ("s", "lower"),
         "accept_ratio": ("ratio", "higher"),
         "overhead_frac": ("ratio", "lower")}

METRICS = ([(f"{span}.{stat}", span, stat)
            for span, stats in _STATS.items() for stat in stats]
           + [(f"threads2.{span}.{stat}", span, stat)
              for span, stat in THREADS2]
           + [("trace.overhead_frac", None, "overhead_frac")])


def benchmark_entries():
    """The ``per_layer`` list of BENCHMARK.json."""
    return [{"name": name, "unit": UNITS[stat][0], "better": UNITS[stat][1]}
            for name, _, stat in METRICS]


def _aggregate(spans):
    selfs = self_times(spans)
    names = {s.sid: s.name for s in spans}
    agg = defaultdict(lambda: defaultdict(float))
    for s in spans:
        a = agg[s.name]
        a["calls"] += 1
        a["self_s"] += selfs[s.sid] / 1e9
        a["total_s"] += (s.end - s.start) / 1e9
        for key, value in s.counters.items():
            a[key] += value
        parent = names.get(s.parent)
        if parent is not None:
            c = agg[(parent, s.name)]
            c["calls"] += 1
            c["points"] += s.counters.get("points", 0)
    return agg


def _value(agg, span, stat):
    a = agg.get(span, {})
    if stat == "busy_s":
        return a.get("total_s", 0.0)
    if stat != "accept_ratio":
        return a.get(stat, 0.0)
    useful, child, attempts = RATIOS[span]
    tried = agg.get((span, child), {}).get(attempts or "calls", 0.0) \
        if child else a.get(attempts, 0.0)
    # A layer that was never asked for anything wasted nothing; report 0
    # with its call count, rather than an undefined ratio.
    return a.get(useful, 0.0) / tried if tried else 0.0


def per_layer_metrics(spans, cycles, overhead_frac):
    """Per-layer values for one set-up plus one cycle of the schedule,
    and the threads-2 pass as run."""
    setup = _aggregate([s for s in spans if s.phase == "setup"])
    timed = _aggregate([s for s in spans if s.phase == "timed"])
    both = _aggregate([s for s in spans if s.phase in ("setup", "timed")])
    threads2 = _aggregate([s for s in spans if s.phase == "threads2"])
    out = {}
    for name, span, stat in METRICS:
        if name.startswith("threads2."):
            value = _value(threads2, span, stat)
        elif stat == "overhead_frac":
            value = overhead_frac
        elif stat == "accept_ratio":
            value = _value(both, span, stat)
        else:
            value = _value(setup, span, stat) + \
                _value(timed, span, stat) / cycles
        out[name] = {"value": value, "unit": UNITS[stat][0]}
    return out
