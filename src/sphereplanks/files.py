"""Instance serialization: body files, fan files, symbolic angles.

JSON is the canonical interchange format.  Floats are serialized with
Python's shortest round-trip repr, so identical inputs give byte-identical
files.  Angles in configs may be symbolic fractions of pi ("pi/4",
"3pi/2") so that fan sums stay exact.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np

from . import bodies as bd
from .covering import make_lune_fan
from .sphere import SphericalCap

_ANGLE_RE = re.compile(r"^\s*(\d+)?\s*\*?\s*pi\s*(?:/\s*(\d+))?\s*$")


class FileFormatError(ValueError):
    """Malformed instance file."""


def parse_angle(text):
    """Parse an angle: a float literal or a fraction of pi like "pi/4"."""
    s = str(text).strip().lower()
    m = _ANGLE_RE.match(s)
    if m:
        num = int(m.group(1) or 1)
        den = int(m.group(2) or 1)
        if den == 0:
            raise FileFormatError(f"zero denominator in angle {text!r}")
        return float(Fraction(num, den)) * math.pi
    try:
        return float(s)
    except ValueError:
        raise FileFormatError(f"cannot parse angle {text!r}") from None


def body_to_dict(body):
    out = {
        "dim": body.n,
        "rep": "both",
        "normals": body.h_normals.tolist(),
        "generators": body.v_generators.tolist(),
    }
    tags = {}
    if body.tag:
        tags["tag"] = body.tag
    if body.lune_angle is not None:
        tags["lune_angle"] = body.lune_angle
    if tags:
        out["tags"] = tags
    return out


def _numeric(value, what):
    """Finite float array from a JSON field, or ``FileFormatError``."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"bad {what}: {exc}") from None
    if not np.all(np.isfinite(arr)):
        raise FileFormatError(f"bad {what}: missing or non-finite entries")
    return arr


def body_from_dict(data):
    try:
        n = int(data["dim"])
        rep = data.get("rep", "both")
        normals = data.get("normals")
        generators = data.get("generators")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"bad body file: {exc}") from None
    if rep not in ("H", "V", "both"):
        raise FileFormatError(f"bad rep field {rep!r}")
    H = _numeric(normals, "normals") if rep in ("H", "both") else None
    V = _numeric(generators, "generators") if rep in ("V", "both") else None
    tags = data.get("tags", {}) or {}
    if not isinstance(tags, dict):
        raise FileFormatError(f"bad tags field {tags!r}: expected an object")
    angle = tags.get("lune_angle")
    angle = None if angle is None else parse_angle(angle)
    # A lune file is built twice: once to check its generators against its
    # normals, then from its two poles, which re-derives the generators.
    try:
        body = bd.make_body(n, h_normals=H, v_generators=V,
                            tag=tags.get("tag", ""))
        if angle is not None and H is not None and H.shape[0] <= 2:
            body = bd.make_lune(n, H[0], H[-1], tag=tags.get("tag", "lune"),
                                angle=angle)
    except bd.BodyError as exc:
        raise FileFormatError(f"invalid body: {exc}") from None
    return body


def save_body(body, path):
    with open(path, "w") as fh:
        json.dump(body_to_dict(body), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(
                f"{path}: line {exc.lineno}, col {exc.colno}: {exc.msg}"
            ) from None


def load_body(path):
    return body_from_dict(_read_json(path))


def fan_to_dict(inst):
    fan = inst.metadata
    out = {
        "dim": inst.B.n,
        "kind": fan["construction"],
        "boundary_angles": fan["boundary_angles"].tolist(),
        "ball": {"center": inst.B.center.tolist(),
                 "radius": inst.B.radius},
        "sum_inradii": math.fsum(b.lune_angle for b in inst.bodies) / 2.0,
    }
    if fan["widen"] is not None:
        out["widen"] = fan["widen"].tolist()
    return out


def fan_from_dict(data):
    try:
        n = int(data["dim"])
        angles = [float(a) for a in data["boundary_angles"]]
        ball = data.get("ball")
        cap = None if ball is None else SphericalCap(
            center=_numeric(ball["center"], "ball center"),
            radius=float(ball["radius"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"bad fan file: {exc}") from None
    if cap is not None and cap.n != n:
        raise FileFormatError(f"bad ball center: {cap.n + 1} entries, "
                              f"expected dim + 1 = {n + 1}")
    widen = data.get("widen")
    if widen is not None:
        widen = _numeric(widen, "widen")
        if widen.ndim and widen.shape != (len(angles) - 1,):
            raise FileFormatError(
                f"bad widen: shape {widen.shape}, expected one number or "
                f"one per lune ({len(angles) - 1})")
    inst = make_lune_fan(n, angles, widen=widen, ball=cap)
    made = inst.metadata["construction"]
    if data.get("kind", made) != made:
        raise FileFormatError(
            f"bad kind field {data['kind']!r}: boundary angles from {angles[0]!r} to "
            f"{angles[-1]!r} {'with' if widen is not None else 'without'} "
            f"widen make a {made!r} (a 'hemisphere-fan' runs from 0 to pi, "
            f"a 'perturbed-fan' spans 2 pi with widen)")
    return inst


def load_fan(path):
    return fan_from_dict(_read_json(path))
