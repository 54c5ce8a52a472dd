"""Command-line surface.

Every command emits a single JSON (or CSV) report with a stable key order,
so identical (config, inputs, seed) runs produce byte-identical output
regardless of thread count.  Wall-clock time goes to stderr, never into
the report.  Exit codes: 0 = pass/success, 1 = verification failure,
2 = invalid input.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time

import numpy as np

from . import bodies as bd
from . import covering as cov
from . import files
from . import gnomonic as gn
from . import linhart as lh
from . import measure as ms
from .cones import MAX_AMBIENT_DIM
from .randgen import cap_polytope, octant_body, random_body, random_lune
from .sphere import make_stream

def _weight(name, n):
    """The weight a ``--weight`` choice names; argparse refuses others."""
    return gn.spherical_weight(n) if name == "spherical" \
        else gn.constant_weight()


def _flatten(payload, prefix=""):
    """The scalar entries of ``payload`` under dotted keys, descending into
    nested dicts and lists of dicts; other lists are left out."""
    flat = {}
    for key, value in payload.items():
        if isinstance(value, list):
            value = {str(i): v for i, v in enumerate(value)
                     if isinstance(v, dict)}
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        elif isinstance(value, (int, float, bool, str)):
            flat[prefix + key] = value
    return flat


def _emit(payload, args):
    if args.format == "csv":
        flat = _flatten(payload)
        keys = sorted(flat)
        text = ",".join(keys) + "\n" + \
            ",".join(repr(flat[k]) if isinstance(flat[k], float)
                     else str(flat[k]) for k in keys) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _mc(args):
    """The Monte Carlo options every sampling verb passes through; a set
    sample count must be positive even where the verb ends up exact.  An
    unset sample count is left out, so the library's default applies."""
    if args.samples is not None and args.samples < 1:
        raise ValueError(f"samples must be >= 1, got {args.samples}")
    mc = {"seed": args.seed, "threads": args.threads}
    if args.samples is not None:
        mc["samples"] = args.samples
    return mc


# ---------------------------------------------------------------------------
# Command handlers: each returns (exit_code, payload)
# ---------------------------------------------------------------------------

def cmd_gen_body(args):
    # Every kind is converted to its other representation, so S^n must fit
    # cone conversion; checked before anything of size n is built.
    if not 1 <= args.dim < MAX_AMBIENT_DIM:
        raise ValueError(f"gen-body needs --dim from 1 to "
                         f"{MAX_AMBIENT_DIM - 1}, got {args.dim}")
    rng = make_stream(args.seed)
    if args.kind == "octant":
        body = octant_body(args.dim)
    elif args.kind == "lune":
        angle = files.parse_angle(args.angle) if args.angle else None
        body = random_lune(args.dim, rng, angle=angle)
    elif args.kind == "cap":
        # The vertex ring is sampled on S^(n-1), which needs n >= 2.
        if args.dim < 2:
            raise ValueError(f"cap polytopes need --dim >= 2, got {args.dim}")
        radius = files.parse_angle(args.cap_radius)
        center = np.zeros(args.dim + 1)
        center[-1] = 1.0
        count = {} if args.vertices is None else {"n_vertices": args.vertices}
        body = cap_polytope(args.dim, center, radius, rng=rng, **count)
    else:
        body = random_body(args.dim, rng, n_points=args.vertices)
    payload = files.body_to_dict(body)
    payload["seed"] = args.seed
    return 0, payload


def cmd_gen_fan(args):
    gaps = [files.parse_angle(g) for g in args.gaps.split(",")]
    angles = np.concatenate([[0.0], np.cumsum(gaps)])
    widen = files.parse_angle(args.widen) if args.widen else None
    if args.hemisphere:
        inst = cov.make_hemisphere_fan(args.dim, angles, widen=widen)
    else:
        inst = cov.make_lune_fan(args.dim, angles, widen=widen)
    payload = files.fan_to_dict(inst)
    payload["seed"] = args.seed
    return 0, payload


def cmd_inradius(args):
    body = files.load_body(args.body)
    r, x = bd.inradius(body)
    return 0, {"inradius": r, "incenter": x.tolist()}


def cmd_circumradius(args):
    body = files.load_body(args.body)
    R, c = bd.circumradius(body)
    return 0, {"circumradius": R,
               "circumcenter": None if c is None else c.tolist(),
               "hemisphere_flagged": c is None}


def cmd_polar(args):
    body = files.load_body(args.body)
    pol = bd.polar(body)
    payload = files.body_to_dict(pol)
    payload["is_body"] = pol.is_body
    return 0, payload


# Handlers of the body verbs that print ``module.name(body, **mc)``: the
# function is looked up on each call, so a wrapper installed later runs.

def _body_estimate(module, name):
    def cmd(args):
        est = getattr(module, name)(files.load_body(args.body), **_mc(args))
        return 0, dataclasses.asdict(est)
    return cmd


def _body_verdict(module, name):
    def cmd(args):
        rep = getattr(module, name)(files.load_body(args.body), **_mc(args))
        return (0 if rep.passed else 1), rep.to_dict()
    return cmd


def cmd_uf(args):
    body = files.load_body(args.body)
    frame = gn.circumcenter_frame(body)
    poly = gn.project_body(frame, body)
    w = _weight(args.weight, body.n)
    est = gn.uf(poly, w, **_mc(args))
    return 0, {**dataclasses.asdict(est), "weight": w.kind}


def cmd_verify_thm1(args):
    inst = files.load_fan(args.fan)
    # The cover is decided exactly: --threads is accepted and not read.
    mc = _mc(args)
    del mc["threads"]
    rep = cov.verify_thm1(inst, **mc)
    anti = cov.verify_antipodal_argument(rep)
    passed = rep.passed and anti.passed
    payload = {"thm1": rep.to_dict(), "antipodal": anti.to_dict(),
               "pass": passed}
    return (0 if passed else 1), payload


def cmd_verify_prop(args):
    w = _weight(args.weight, args.dim)
    rep = lh.min_uf_search(args.radius, w, n=args.dim, trials=args.trials,
                           **_mc(args))
    return (0 if rep.passed else 1), rep.to_dict()


def cmd_verify_linhart(args):
    if args.simplex == "segment":
        s = lh.segment_simplex(args.radius, args.dim)
    elif args.simplex == "regular-triangle":
        if args.dim != 2:
            raise ValueError("the regular triangle is planar: use --dim 2")
        s = lh.regular_triangle(args.radius)
    else:
        s = lh.random_simplex(args.radius, args.dim, make_stream(args.seed))
    w = _weight(args.weight, args.dim)
    reports = lh.check_vertex_averages(s, w, **_mc(args))
    passed = all(r.passed for r in reports)
    payload = {"vertices": [r.to_dict() for r in reports],
               "pass": passed, "simplex": args.simplex,
               "weight": w.kind}
    return (0 if passed else 1), payload


# ---------------------------------------------------------------------------

def _add_common(p, seed=False, samples=False):
    """The shared options a verb reads: every verb writes a report, the
    generators and the sampling verbs draw from a seed, and only the
    sampling verbs take a sample count."""
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if samples:
        p.add_argument("--samples", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(
        prog="sphereplanks",
        description="Numerical verification of spherical covering bounds, "
                    "the volume-inradius inequality, polar duality, and "
                    "weighted hyperplane measures.")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen-body", help="generate a body file")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--kind", choices=("octant", "lune", "cap", "random"),
                   default="random")
    p.add_argument("--angle", default=None, help="lune angle, e.g. pi/3")
    p.add_argument("--cap-radius", default="0.7")
    p.add_argument("--vertices", type=int, default=None)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_gen_body)

    p = sub.add_parser("gen-fan", help="generate a lune-fan instance file")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--gaps", required=True,
                   help="comma-separated gaps, e.g. pi,pi/2,pi/2")
    p.add_argument("--widen", default=None)
    p.add_argument("--hemisphere", action="store_true",
                   help="fan over a hemisphere (gaps must sum to pi)")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_gen_fan)

    for verb, func in (("inradius", cmd_inradius),
                       ("circumradius", cmd_circumradius),
                       ("polar", cmd_polar)):
        p = sub.add_parser(verb)
        p.add_argument("body")
        _add_common(p)
        p.set_defaults(func=func)

    for verb, func in (("volume", _body_estimate(ms, "volume_mc")),
                       ("meanwidth", _body_estimate(ms, "mean_width_mc")),
                       ("verify-thm2", _body_verdict(ms, "verify_thm2")),
                       ("verify-2-1", _body_verdict(ms, "check_identity_2_1")),
                       ("verify-projection",
                        _body_verdict(gn, "check_projection_consistency"))):
        p = sub.add_parser(verb)
        p.add_argument("body")
        _add_common(p, seed=True, samples=True)
        p.set_defaults(func=func)

    p = sub.add_parser("uf", help="U_f of the projected body")
    p.add_argument("body")
    p.add_argument("--weight", choices=("spherical", "constant"),
                   default="spherical")
    _add_common(p, seed=True, samples=True)
    p.set_defaults(func=cmd_uf)

    p = sub.add_parser("verify-thm1")
    p.add_argument("fan")
    _add_common(p, seed=True, samples=True)
    p.set_defaults(func=cmd_verify_thm1)

    p = sub.add_parser("verify-prop")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--weight", choices=("spherical", "constant"),
                   default="spherical")
    p.add_argument("--trials", type=int, default=50)
    _add_common(p, seed=True, samples=True)
    p.set_defaults(func=cmd_verify_prop)

    p = sub.add_parser("verify-linhart")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--weight", choices=("spherical", "constant"),
                   default="constant")
    p.add_argument("--simplex",
                   choices=("segment", "regular-triangle", "random"),
                   default="random")
    _add_common(p, seed=True, samples=True)
    p.set_defaults(func=cmd_verify_linhart)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        if args.threads < 1:
            raise ValueError(f"threads must be >= 1, got {args.threads}")
        code, payload = args.func(args)
        _emit(payload, args)
    except cov.CoveringError as exc:
        print(f"verification refused: {exc}", file=sys.stderr)
        return 1
    except (files.FileFormatError, bd.BodyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wall_clock_s={time.perf_counter() - t0:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
