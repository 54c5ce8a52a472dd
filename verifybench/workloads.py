"""The benchmark's workloads: seeded inputs, verdict schedules and oracles.

A verdict is one claim checked end to end: one or more ``sphereplanks``
CLI calls whose reports an oracle judges.  Each workload has a fixed
schedule of verdict slots (verb, dimension, input kind, size).  The seed
chooses the random content of every input but never the mix, so the cost
of a cycle through the schedule does not depend on the seed.

``plan(seed)`` is pure and cheap: it fixes every input parameter.
``generate`` writes the workload's input files (timed as set-up), and
``verdicts`` turns the plan and the written files into verdicts with
their oracle data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import oracles as orc

DIMS = (2, 3, 4)


class SetupError(RuntimeError):
    """A workload's inputs could not be generated."""


@dataclass
class Verdict:
    vid: str
    dim: int
    # (argv without --threads, report path) per CLI call.
    steps: list = field(default_factory=list)
    # check(exit codes, parsed reports) -> list of problems.
    check: Callable = None
    # Library call used instead of CLI steps; returns the report dict.
    direct: Callable | None = None


def sub_seed(seed, k):
    """Seed of the k-th input or verdict, distinct for every (seed, k)."""
    return int(seed) * 1000 + k


def _cli(cli, argv):
    code = cli.main(argv)
    if code != 0:
        raise SetupError(f"{' '.join(argv)} exited with {code}")


def _codes_ok(codes, problems):
    if any(c != 0 for c in codes):
        problems.append(f"exit codes {codes}")


# ---------------------------------------------------------------------------
# mc-estimate
# ---------------------------------------------------------------------------

MC_KINDS = ("random", "lune", "octant")
MC_SAMPLES = {2: 1_000_000, 3: 1_000_000, 4: 4_000_000}
# Each verb meets each dimension once; S^4 also checks Theorem 2's lune
# equality case.  Lunes are not strictly inside a hemisphere, so they have
# no gnomonic projection and never take a verify-projection slot.  With
# six 4e6-sample S^4 slots, at least eleven of a run's verdicts fall in
# that cost class, so the tail order statistic lands inside the class
# rather than on its lower edge.
MC_SCHEDULE = (
    ("verify-thm2", 2, "lune"), ("verify-thm2", 3, "random"),
    ("verify-thm2", 4, "octant"), ("verify-thm2", 4, "lune"),
    ("verify-2-1", 2, "random"), ("verify-2-1", 3, "octant"),
    ("verify-2-1", 4, "lune"),
    ("verify-projection", 2, "random"), ("verify-projection", 3, "octant"),
    ("verify-projection", 4, "random"),
    ("volume", 2, "octant"), ("volume", 3, "lune"), ("volume", 4, "random"),
    ("meanwidth", 2, "lune"), ("meanwidth", 3, "random"),
    ("meanwidth", 4, "octant"),
)


@dataclass
class Body:
    """Oracle view of a body file: closed forms, or radii from NNLS."""

    n: int
    kind: str
    H: np.ndarray
    V: np.ndarray
    r: float
    R: float

    @classmethod
    def load(cls, path, n, kind):
        data = json.loads(Path(path).read_text())
        H = np.asarray(data["normals"], dtype=float)
        V = np.asarray(data["generators"], dtype=float)
        if kind == "lune":
            alpha = math.pi - math.acos(max(-1.0, min(1.0, H[0] @ H[-1])))
            r, R = alpha / 2.0, math.pi / 2.0
        elif kind == "octant":
            r, R = orc.octant_inradius(n), math.acos(1.0 / math.sqrt(n + 1))
        else:
            r, R = orc.inradius(H), orc.circumradius(V)
        return cls(n, kind, H, V, r, R)

    def volume(self):
        if self.kind == "lune":
            return (orc.lune_volume(self.n, 2.0 * self.r),) * 2
        if self.kind == "octant":
            return (orc.octant_volume(self.n),) * 2
        if self.n == 2:
            return (orc.girard_area(self.V),) * 2
        return orc.cap_area(self.n, self.r), orc.cap_area(self.n, self.R)

    def polar_volume(self):
        if self.kind == "lune":
            return 0.0, 0.0
        if self.kind == "octant":
            return (orc.octant_volume(self.n),) * 2
        if self.n == 2:
            return (orc.girard_area(self.H),) * 2
        return (orc.cap_area(self.n, math.pi / 2.0 - self.R),
                orc.cap_area(self.n, math.pi / 2.0 - self.r))

    def mean_width(self):
        if self.kind == "lune":
            return (orc.sphere_area(self.n) / 2.0,) * 2
        if self.kind == "octant":
            return (orc.octant_mean_width(self.n),) * 2
        if self.n == 2:
            return (orc.sphere_area(2) / 2.0 - orc.girard_area(self.H),) * 2
        return (orc.cap_mean_width(self.n, self.r),
                orc.cap_mean_width(self.n, self.R))


def _check_estimate(body, quantity, truth, codes, reports):
    p = []
    rep = reports[0]
    _codes_ok(codes, p)
    if rep["quantity"] != quantity or rep["samples"] != MC_SAMPLES[body.n]:
        p.append(f"report is {rep['quantity']} at {rep['samples']} samples")
    orc.within(quantity, rep["value"], *truth, rep["stderr"], p)
    return p


def _check_thm2(body, codes, reports):
    p = []
    rep = reports[0]
    orc.verdict_follows(rep, codes[0], p)
    if rep["samples"] != MC_SAMPLES[body.n]:
        p.append(f"ran {rep['samples']} samples")
    orc.within("volume", rep["lhs"], *body.volume(), rep["volume_stderr"], p)
    orc.close("inradius", rep["inradius"], body.r, orc.RADIUS_TOL, p)
    orc.close("rhs", rep["rhs"],
              orc.sphere_area(body.n) / math.pi * rep["inradius"],
              1e-12 * rep["rhs"], p)
    return p


def _check_2_1(body, codes, reports):
    p = []
    rep = reports[0]
    orc.verdict_follows(rep, codes[0], p)
    if rep["samples"] != MC_SAMPLES[body.n]:
        p.append(f"ran {rep['samples']} samples")
    # tolerance = 3 sqrt((2 se_vol)^2 + (2 se_width)^2) bounds each se.
    se = rep["tolerance"] / 6.0
    orc.within("polar volume", rep["polar_volume"], *body.polar_volume(),
               se, p)
    orc.within("mean width", rep["mean_width"], *body.mean_width(), se, p)
    sigma = orc.sphere_area(body.n)
    orc.close("lhs", rep["lhs"], sigma - 2.0 * rep["polar_volume"],
              1e-12 * sigma, p)
    orc.close("rhs", rep["rhs"], 2.0 * rep["mean_width"], 1e-12 * sigma, p)
    return p


def _check_projection(body, codes, reports):
    p = []
    rep = reports[0]
    orc.verdict_follows(rep, codes[0], p)
    if rep["samples"] != MC_SAMPLES[body.n] or \
            rep["weight"] != f"spherical({body.n})":
        p.append(f"ran {rep['samples']} samples, weight {rep['weight']}")
    se = rep["tolerance"] / 3.0
    orc.within("sphere side U(K)", rep["lhs"], *body.mean_width(), se, p)
    orc.within("projected U_f", rep["rhs"], *body.mean_width(), se, p)
    return p


def _mc_check(verb, body):
    if verb == "volume":
        return lambda c, r: _check_estimate(body, "volume", body.volume(),
                                            c, r)
    if verb == "meanwidth":
        return lambda c, r: _check_estimate(body, "mean_width",
                                            body.mean_width(), c, r)
    check = {"verify-thm2": _check_thm2, "verify-2-1": _check_2_1,
             "verify-projection": _check_projection}[verb]
    return lambda c, r: check(body, c, r)


class McEstimate:
    name = "mc-estimate"
    why = ("batched Monte Carlo at spec sample sizes: sphere draws, "
           "contains/hyperplane_meets, the hit-fraction reduction and "
           "gnomonic U_f; cone conversion only in set-up")
    # Both S^2 slots that sample one batch per facet test, and the random
    # bodies with many facets in S^3 and S^4.
    threads_subset = ("verify-thm2-S2-lune", "volume-S2-octant",
                      "verify-thm2-S3-random", "volume-S4-random")
    threads_rounds = 2
    nominal_cycle_s = 10.0

    def plan(self, seed):
        bodies = {f"body-S{n}-{kind}": (n, kind, sub_seed(seed, 10 * n + k))
                  for n in DIMS for k, kind in enumerate(MC_KINDS)}
        slots = [(verb, n, kind, sub_seed(seed, 100 + i))
                 for i, (verb, n, kind) in enumerate(MC_SCHEDULE)]
        return {"bodies": bodies, "slots": slots}

    def generate(self, cli, plan, inputs):
        for name, (n, kind, s) in plan["bodies"].items():
            _cli(cli, ["gen-body", "--kind", kind, "--dim", str(n), "--seed",
                       str(s), "--out", str(inputs / f"{name}.json")])

    def verdicts(self, plan, inputs, out):
        bodies = {name: Body.load(inputs / f"{name}.json", n, kind)
                  for name, (n, kind, _) in plan["bodies"].items()}
        result = []
        for verb, n, kind, s in plan["slots"]:
            vid = f"{verb}-S{n}-{kind}"
            path = str(inputs / f"body-S{n}-{kind}.json")
            report = str(out / f"{vid}.json")
            result.append(Verdict(
                vid, n, [([verb, path, "--seed", str(s), "--out", report],
                          report)],
                _mc_check(verb, bodies[f"body-S{n}-{kind}"])))
        return result


# ---------------------------------------------------------------------------
# cone-convert
# ---------------------------------------------------------------------------

# Generator counts from the random-body defaults up to the 512-vertex cap
# of the acceptance gate; conversion costs O(C(m, n)) SVDs.
CAP_SIZES = {2: (8, 32, 128, 512), 3: (8, 16, 32, 48), 4: (8, 12, 16, 24)}
# Random S^4 bodies (16 generators) are the costliest class below the five
# largest caps, and random S^3 bodies sit in the middle of the cost order.
# With these counts the tail order statistic, the eleventh-slowest chain,
# falls inside the S^4 class and the median inside the S^3 class, rather
# than between single chains of different sizes.
RANDOM_PER_DIM = {2: 22, 3: 12, 4: 16}
RANDOM_CAP_RADIUS = 1.0  # randgen.random_body's default


def _check_chain(kind, n, m, rho, codes, reports):
    p = []
    _codes_ok(codes, p)
    K, P, rK, RK, rP = reports
    H, V = K["normals"], K["generators"]
    if K["dim"] != n or (m is not None and len(V) != m):
        p.append(f"generated dim {K['dim']} with {len(V)} generators")
    if not (np.allclose(P["normals"], V, rtol=0.0, atol=orc.EXACT)
            and np.allclose(P["generators"], H, rtol=0.0, atol=orc.EXACT)
            and P["is_body"] is True):
        p.append("polar is not the representation swap")
    r, R, r_star = rK["inradius"], RK["circumradius"], rP["inradius"]
    if RK["hemisphere_flagged"] or not 0.0 < r <= R:
        p.append(f"radii r = {r!r}, R = {R!r}")
    orc.close("r(K*) vs pi/2 - R(K)", r_star, math.pi / 2.0 - R, 1e-7, p)
    orc.close("inradius", r, orc.inradius(H), orc.RADIUS_TOL, p)
    orc.close("circumradius", R, orc.circumradius(V), orc.RADIUS_TOL, p)
    if kind == "cap" and n == 2:
        orc.close("circumradius of the regular cap polygon", R, rho, 1e-9, p)
        orc.close("tan r vs tan rho cos(pi/m)", math.tan(r),
                  math.tan(rho) * math.cos(math.pi / m), 1e-9, p)
    elif R > (rho if kind == "cap" else RANDOM_CAP_RADIUS) + 1e-9:
        p.append(f"circumradius {R!r} exceeds the generating cap")
    return p


class ConeConvert:
    name = "cone-convert"
    why = ("gen-body, polar, inradius and circumradius with no Monte Carlo: "
           "cone conversion over the generator count, and Wolfe's "
           "min-norm point")
    threads_subset = ("cap-S2-m128", "cap-S3-m32", "cap-S4-m24")
    threads_rounds = 2
    nominal_cycle_s = 20.0

    def plan(self, seed):
        rng = np.random.default_rng(seed)
        chains = []
        for n in DIMS:
            for i in range(RANDOM_PER_DIM[n]):
                chains.append((f"random-S{n}-{i}", "random", n, None, None,
                               sub_seed(seed, 10 * n + i)))
            for m in CAP_SIZES[n]:
                rho = float(rng.uniform(0.3, 1.2))
                chains.append((f"cap-S{n}-m{m}", "cap", n, m, rho,
                               sub_seed(seed, 100 * n + m)))
        return {"chains": chains}

    def generate(self, cli, plan, inputs):
        # The bodies are generated inside each verdict; set-up only fixes
        # the schedule.
        (inputs / "schedule.json").write_text(json.dumps(plan, indent=1))

    def verdicts(self, plan, inputs, out):
        result = []
        for vid, kind, n, m, rho, s in plan["chains"]:
            d = out / vid
            d.mkdir(parents=True, exist_ok=True)
            body, pol = str(d / "K.json"), str(d / "P.json")
            gen = ["gen-body", "--kind", kind, "--dim", str(n),
                   "--seed", str(s), "--out", body]
            if kind == "cap":
                gen += ["--vertices", str(m), "--cap-radius", repr(rho)]
            steps = [(gen, body),
                     (["polar", body, "--out", pol], pol)]
            for verb, src, name in (("inradius", body, "rK"),
                                    ("circumradius", body, "RK"),
                                    ("inradius", pol, "rP")):
                report = str(d / f"{name}.json")
                steps.append(([verb, src, "--out", report], report))
            result.append(Verdict(
                vid, n, steps,
                lambda c, r, a=(kind, n, m, rho): _check_chain(*a, c, r)))
        return result


# ---------------------------------------------------------------------------
# instance-sweep
# ---------------------------------------------------------------------------

WEIGHTS = ("constant", "spherical")
THM1_SAMPLES = 100_000
LINHART_SAMPLES = 200_000
PROP_TRIALS = 50
VARIANTS = 2
# Lunes per fan: the covering check's cost grows with it, so the schedule
# fixes it rather than the seed.
FAN_LUNES = {False: 4, True: 3}
# Full simplices in S^3 (four vertices, one 2e5-sample check each) are the
# costliest verdicts.  Eight per cycle put the tail order statistic inside
# that class instead of on the edge between two classes.
S3_SIMPLEX_VARIANTS = 4


def _partition(rng, total, m):
    """m gaps in (0.1, pi - 0.1) summing to ``total``, so a widening of at
    most 0.05 never reaches pi and the expected slack stays closed-form."""
    while True:
        raw = rng.dirichlet(np.ones(m)) * total
        if np.all(raw < math.pi - 0.1) and np.all(raw > 0.1):
            gaps = [float(g) for g in raw[:-1]]
            return gaps + [total - sum(gaps)]


def _full_simplex_seed(seed, n, R):
    """First seed from ``seed`` on whose random simplex is a full one,
    with n + 1 vertices; the vertex count, and with it the verdict's cost,
    is then the schedule's and not the seed's."""
    from sphereplanks.linhart import random_simplex
    from sphereplanks.sphere import make_stream

    for s in range(seed, seed + 64):
        if random_simplex(R, n, make_stream(s)).k == n:
            return s
    return seed


def _fan_inradii(gaps, widen, hemisphere):
    angles = np.concatenate([[0.0], np.cumsum(gaps)])
    if not hemisphere:
        return [(g + widen) / 2.0 for g in gaps]
    return [(min(math.pi, angles[i + 1] + widen / 2.0)
             - max(0.0, angles[i] - widen / 2.0)) / 2.0
            for i in range(len(gaps))]


def _check_fan(gaps, widen, hemisphere, codes, reports):
    p = []
    _codes_ok(codes, p)
    rep = reports[0]
    t, a = rep["thm1"], rep["antipodal"]
    if not (rep["pass"] and t["pass"] and a["pass"]):
        p.append("a covering verdict failed")
    if t["samples"] != THM1_SAMPLES:
        p.append(f"covering check ran {t['samples']} samples")
    m = len(gaps)
    orc.close("r(B)", t["rhs"], math.pi / 2.0 if hemisphere else math.pi,
              orc.EXACT, p)
    for i, (got, want) in enumerate(zip(t["inradii"],
                                        _fan_inradii(gaps, widen,
                                                     hemisphere))):
        orc.close(f"inradius of lune {i}", got, want, orc.EXACT, p)
    # Widened lunes gain the added angle; hemisphere end lunes clip at 0
    # and pi and gain half of it.
    added = (m - 1 if hemisphere else m) * widen
    orc.close("slack", t["slack"], added / 2.0,
              1e-7 if widen else orc.EXACT, p)
    if hemisphere:
        orc.close("intersected sum", t["strong_sum"], t["lhs"], orc.EXACT, p)
        if a["uncovered"] != 0:
            p.append(f"antipodal route left {a['uncovered']} uncovered")
        orc.close("antipodal routes", a["lhs"], a["rhs"], 1e-9, p)
    elif not a.get("skipped"):
        p.append("antipodal route not skipped for r(B) = pi")
    return p


def _check_linhart(simplex, weight, n, R, codes, reports):
    p = []
    rep = reports[0]
    verts = rep["vertices"]
    orc.exit_matches(codes[0], rep["pass"], p)
    if rep["pass"] != all(v["pass"] for v in verts):
        p.append("overall pass disagrees with the vertex verdicts")
    count = {"segment": (2,), "regular-triangle": (3,)}.get(
        simplex, range(2, n + 2))
    if len(verts) not in count:
        p.append(f"{len(verts)} vertex reports")
    C = orc.hemisphere_average(R, weight, n)
    half = orc.sphere_area(n - 1) / 2.0
    for v in verts:
        label = f"vertex {v['vertex']}"
        if orc.rule_holds(v) != v["pass"]:
            p.append(f"{label}: pass={v['pass']} contradicts its own rule")
        if v["samples"] != LINHART_SAMPLES:
            p.append(f"{label}: ran {v['samples']} samples")
        orc.close(f"{label} C(R, f)", v["rhs"], C, 1e-9, p)
        if v["lhs"] + orc.BAND * v["stderr"] < C:
            p.append(f"{label}: S_j average {v['lhs']!r} below C(R, f)")
        if simplex == "segment":
            orc.near(f"{label} segment average", v["lhs"], C, v["stderr"], p)
            orc.close(f"{label} mu(S_j)", v["mu_Sj"], half, orc.EXACT, p)
        elif v["mu_Sj"] > half * (1.0 + orc.EXACT):
            p.append(f"{label}: mu(S_j) exceeds a half-sphere")
        if simplex == "regular-triangle" and weight == "constant" and \
                not v["lhs"] - 3.0 * v["stderr"] > 2.0 / math.pi:
            p.append(f"{label}: triangle average {v['lhs']!r} not strictly "
                     f"above 2/pi")
    return p


def _check_prop(weight, R, codes, reports):
    p = []
    rep = reports[0]
    orc.verdict_follows(rep, codes[0], p)
    bound = orc.sphere_area(1) * orc.hemisphere_average(R, weight, 2)
    orc.close("mu(S^1) C(R, f)", rep["bound"], bound, 1e-9, p)
    orc.close("segment U_f", rep["segment_value"], bound, 1e-8, p)
    if rep["trials"] != PROP_TRIALS or rep["lhs"] < rep["rhs"] - 1e-8:
        p.append(f"{rep['trials']} trials, min U_f {rep['lhs']!r} below "
                 f"the segment {rep['rhs']!r}")
    return p


def _check_refused(codes, reports):
    msg = reports[0]["refused"]
    if not msg or "uncovered" not in msg:
        return [f"a fan with a lune removed was not refused: {msg!r}"]
    return []


def _refuse_removed_lune(fan_path, drop, seed):
    """Verify a fan with one lune removed; a correct verifier refuses it.

    Fan files cannot express a non-cover, so this goes through the
    library directly.
    """
    from sphereplanks import covering, files

    inst = files.load_fan(fan_path)
    bodies = [b for i, b in enumerate(inst.bodies) if i != drop]
    gapped = covering.CoveringInstance(B=inst.B, bodies=bodies)
    try:
        covering.verify_thm1(gapped, samples=THM1_SAMPLES, seed=seed)
    except covering.CoveringError as exc:
        return {"refused": str(exc)}
    return {"refused": None}


class InstanceSweep:
    name = "instance-sweep"
    why = ("many small independent verdicts: covering on lune fans, "
           "Linhart vertex averages and segment minimality, unbatched "
           "streams and quadratures")
    threads_subset = ("fan-widened-S2-0", "fan-hemi-widened-S3-0",
                      "linhart-random-constant-S2-0",
                      "linhart-random-spherical-S3-0",
                      "prop-constant-0", "prop-spherical-0")
    # Its verdicts are short, so more rounds for a steady ratio.
    threads_rounds = 3
    nominal_cycle_s = 7.5

    def plan(self, seed):
        rng = np.random.default_rng(seed)
        fans, linhart, prop, controls = [], [], [], []
        k = 0
        for j in range(VARIANTS):
            for n in (2, 3):
                for hemi in (False, True):
                    for widened in (False, True):
                        k += 1
                        gaps = _partition(rng, math.pi if hemi else
                                          2.0 * math.pi, FAN_LUNES[hemi])
                        w = float(rng.uniform(0.005, 0.05)) if widened else 0.0
                        kind = ("hemi-" if hemi else "") + \
                            ("widened" if widened else "tight")
                        fans.append((f"fan-{kind}-S{n}-{j}", n, gaps, w, hemi,
                                     sub_seed(seed, k)))
                controls.append((f"control-removed-lune-S{n}-{j}",
                                 f"fan-tight-S{n}-{j}", n,
                                 int(rng.integers(0, 3)),
                                 sub_seed(seed, 100 + 10 * j + n)))
            for n in (2, 3):
                for simplex in ("random", "segment"):
                    for weight in WEIGHTS:
                        k += 1
                        linhart.append((simplex, weight, n,
                                        float(rng.uniform(0.5, 2.0)),
                                        sub_seed(seed, k), j))
            for weight in WEIGHTS:
                k += 1
                linhart.append(("regular-triangle", weight, 2, 1.0,
                                sub_seed(seed, k), j))
                k += 1
                prop.append((weight, float(rng.uniform(0.5, 2.0)),
                             sub_seed(seed, k), j))
        for j in range(VARIANTS, S3_SIMPLEX_VARIANTS):
            for weight in WEIGHTS:
                k += 1
                linhart.append(("random", weight, 3,
                                float(rng.uniform(0.5, 2.0)),
                                sub_seed(seed, k), j))
        linhart = [(simplex, weight, n, R,
                    _full_simplex_seed(s, n, R) if simplex == "random"
                    else s, j)
                   for simplex, weight, n, R, s, j in linhart]
        return {"fans": fans, "linhart": linhart, "prop": prop,
                "controls": controls}

    def generate(self, cli, plan, inputs):
        for vid, n, gaps, w, hemi, s in plan["fans"]:
            argv = ["gen-fan", "--dim", str(n),
                    "--gaps", ",".join(repr(g) for g in gaps),
                    "--seed", str(s), "--out", str(inputs / f"{vid}.json")]
            if w:
                argv += ["--widen", repr(w)]
            if hemi:
                argv.append("--hemisphere")
            _cli(cli, argv)

    def verdicts(self, plan, inputs, out):
        result = []
        for vid, n, gaps, w, hemi, s in plan["fans"]:
            report = str(out / f"{vid}.json")
            result.append(Verdict(
                vid, n, [(["verify-thm1", str(inputs / f"{vid}.json"),
                           "--seed", str(s), "--out", report], report)],
                lambda c, r, a=(gaps, w, hemi): _check_fan(*a, c, r)))
        for simplex, weight, n, R, s, j in plan["linhart"]:
            vid = f"linhart-{simplex}-{weight}-S{n}-{j}"
            report = str(out / f"{vid}.json")
            result.append(Verdict(
                vid, n, [(["verify-linhart", "--simplex", simplex,
                           "--weight", weight, "--dim", str(n),
                           "--radius", repr(R), "--seed", str(s),
                           "--out", report], report)],
                lambda c, r, a=(simplex, weight, n, R): _check_linhart(
                    *a, c, r)))
        for weight, R, s, j in plan["prop"]:
            vid = f"prop-{weight}-{j}"
            report = str(out / f"{vid}.json")
            result.append(Verdict(
                vid, 2, [(["verify-prop", "--dim", "2", "--weight", weight,
                           "--radius", repr(R), "--seed", str(s),
                           "--out", report], report)],
                lambda c, r, a=(weight, R): _check_prop(*a, c, r)))
        for vid, fan, n, drop, s in plan["controls"]:
            path = str(inputs / f"{fan}.json")
            result.append(Verdict(
                vid, n, check=_check_refused,
                direct=lambda a=(path, drop, s): _refuse_removed_lune(*a)))
        return result


WORKLOADS = {w.name: w for w in (McEstimate(), ConeConvert(),
                                 InstanceSweep())}
