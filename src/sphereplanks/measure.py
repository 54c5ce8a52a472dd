"""The Monte Carlo engine ``mc_map``, through which every sampling verifier
draws; estimators for spherical volume and mean width; verifiers for the
polarity identity and the volume-inradius bound.

The engine splits the sample budget over a fixed number of SFC64
streams, one per spawn key, so results are bit-reproducible for a given
(seed, samples) at any thread count.  SFC64 rather than Philox, because
its Gaussian fill, most of every estimate, takes about 30% less time
(``sphere.make_stream``).  Each batch is one draw and one call of the
evaluator; with threads the batches run on one kept worker pool.
``three_sigma`` decides every 3-sigma verdict.
"""

from __future__ import annotations

import functools
import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import bodies as bd
from .sphere import make_stream, sample_uniform_sphere, sphere_area

#: Batches every Monte Carlo run is split into; fixed, so that results do
#: not depend on how many workers execute them.
N_BATCHES = 64
DEFAULT_SAMPLES = {2: 1_000_000, 3: 1_000_000, 4: 4_000_000}


def default_samples(n):
    return DEFAULT_SAMPLES.get(n, 1_000_000)


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo value with its standard error and provenance."""

    value: float
    stderr: float
    samples: int
    seed: int
    quantity: str = ""

    def __post_init__(self):
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")


@dataclass(frozen=True)
class VerificationReport:
    """Structured pass/fail record of a single numeric claim."""

    claim: str
    lhs: float
    rhs: float
    slack: float
    tolerance: float
    tolerance_rule: str
    passed: bool
    inputs_digest: str = ""
    details: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "claim": self.claim,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tolerance": self.tolerance,
            "tolerance_rule": self.tolerance_rule,
            "pass": self.passed,
            "inputs_digest": self.inputs_digest,
        }
        out.update(self.details)
        return out


def body_digest(body, *extra):
    h = hashlib.sha256()
    for arr in (body.h_normals, body.v_generators):
        h.update(np.ascontiguousarray(arr).tobytes())
    for item in extra:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def _batch_sizes(samples):
    base, rem = divmod(int(samples), N_BATCHES)
    return [base + (1 if i < rem else 0) for i in range(N_BATCHES)]


@functools.cache
def _pool(threads):
    """One worker pool per thread count, made on first use and kept."""
    return ThreadPoolExecutor(max_workers=threads)


def mc_map(draw, samples, seed, threads=1):
    """``[draw(rng, size)]`` over the nonempty batches, in batch order.

    Batch ``b`` holds ``size`` points drawn from ``rng = make_stream(seed,
    (b,))``, so the results depend only on (seed, samples), never on
    ``threads``.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")

    def run(batch):
        b, size = batch
        return draw(make_stream(seed, (b,)), size)

    batches = [(b, size) for b, size in enumerate(_batch_sizes(samples))
               if size]
    if threads > 1 and len(batches) > 1:
        return list(_pool(threads).map(run, batches))
    return [run(batch) for batch in batches]


def mc_hit_fraction(indicator, n, samples, seed, threads=1):
    """``(hits, total)`` of ``indicator``, which maps an (m, n+1) array of
    uniform points on S^n to a boolean array."""
    def draw(rng, size):
        return int(np.count_nonzero(indicator(
            sample_uniform_sphere(n, rng, size))))

    return sum(mc_map(draw, samples, seed, threads)), int(samples)


def _fraction_estimate(hits, total, scale, seed, quantity):
    p = hits / total
    stderr = scale * math.sqrt(p * (1.0 - p) / total)
    return Estimate(value=scale * p, stderr=stderr, samples=total,
                    seed=seed, quantity=quantity)


def volume_mc(body, samples=None, seed=0, threads=1):
    """Spherical Lebesgue measure sigma(K) by rejection sampling.

    Lower-dimensional sets (``is_body`` False) have exact measure zero and
    return an exact 0 estimate.
    """
    if not body.is_body:
        return Estimate(value=0.0, stderr=0.0, samples=0, seed=seed,
                        quantity="volume")
    samples = default_samples(body.n) if samples is None else samples
    hits, total = mc_hit_fraction(lambda pts: bd.contains(body, pts),
                                  body.n, samples, seed, threads)
    return _fraction_estimate(hits, total, sphere_area(body.n), seed, "volume")


def mean_width_mc(body, samples=None, seed=0, threads=1):
    """Spherical mean width U(K): half the measure of directions u whose
    great subsphere u-perp meets K."""
    samples = default_samples(body.n) if samples is None else samples
    body.is_body  # its one solve runs here, not in a worker thread
    hits, total = mc_hit_fraction(lambda pts: bd.hyperplane_meets(body, pts),
                                  body.n, samples, seed, threads)
    return _fraction_estimate(hits, total, 0.5 * sphere_area(body.n), seed,
                              "mean_width")


def combined_stderr(*estimates):
    return math.sqrt(sum(e.stderr ** 2 for e in estimates))


def three_sigma(claim, lhs, rhs, sigma, direction, rule, inputs_digest="",
                details=None):
    """The 3-sigma verdict on ``lhs <= rhs``, ``lhs >= rhs`` or ``lhs ==
    rhs`` (``direction`` "<=", ">=" or "=="), where ``sigma`` is the
    standard error of lhs - rhs."""
    tol = 3.0 * sigma
    if direction == "<=":
        slack, passed = rhs - lhs, lhs - tol <= rhs
    elif direction == ">=":
        slack, passed = lhs - rhs, lhs + tol >= rhs
    elif direction == "==":
        slack = -abs(lhs - rhs)
        passed = slack >= -tol
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return VerificationReport(
        claim=claim, lhs=lhs, rhs=rhs, slack=slack, tolerance=tol,
        tolerance_rule=rule, passed=passed, inputs_digest=inputs_digest,
        details=details or {})


def check_identity_2_1(body, samples=None, seed=0, threads=1):
    """Verify sigma_n - 2 sigma(K*) = 2 U(K) at 3 combined sigma."""
    pol = bd.polar(body)
    vol = volume_mc(pol, samples=samples, seed=seed, threads=threads)
    width = mean_width_mc(body, samples=samples, seed=seed + 1, threads=threads)
    return three_sigma(
        "polar_width_identity",
        sphere_area(body.n) - 2.0 * vol.value, 2.0 * width.value,
        2.0 * combined_stderr(vol, width), "==",
        "|lhs - rhs| <= 3 * combined stderr",
        inputs_digest=body_digest(body, samples, seed),
        details={"polar_volume": vol.value, "mean_width": width.value,
                 "seed": seed, "samples": width.samples},
    )


def verify_thm2(body, samples=None, seed=0, threads=1):
    """Verify sigma(K) <= (sigma_n / pi) r(K) at 3 sigma.

    The report carries the equality slack rhs - lhs; it vanishes (within
    noise) exactly for lunes.
    """
    vol = volume_mc(body, samples=samples, seed=seed, threads=threads)
    r = bd.inradius_value(body)
    return three_sigma(
        "volume_inradius_bound",
        vol.value, sphere_area(body.n) / math.pi * r, vol.stderr, "<=",
        "lhs - 3 stderr <= rhs",
        inputs_digest=body_digest(body, samples, seed),
        details={"inradius": r, "volume_stderr": vol.stderr,
                 "seed": seed, "samples": vol.samples},
    )
