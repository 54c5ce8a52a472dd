"""The Monte Carlo engine ``mc_map``, through which every sampling verifier
draws; estimators for spherical volume and mean width; verifiers for the
polarity identity and the volume-inradius bound.

The engine splits the sample budget over a fixed number of Philox
substreams, so results are bit-reproducible for a given (seed, samples)
at any thread count.  Acceptance everywhere is the 3-sigma rule.
"""

from __future__ import annotations

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
        if arr is not None:
            h.update(np.ascontiguousarray(arr).tobytes())
    for item in extra:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def _batch_sizes(samples):
    base, rem = divmod(int(samples), N_BATCHES)
    return [base + (1 if i < rem else 0) for i in range(N_BATCHES)]


def mc_map(draw, samples, seed, threads=1):
    """``[draw(rng, size)]`` over the nonempty batches, in batch order.

    Batch ``b`` draws from ``make_stream(seed, (b,))``, so the results
    depend only on (seed, samples), never on ``threads``.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    jobs = [(b, size) for b, size in enumerate(_batch_sizes(samples)) if size]

    def run(job):
        batch, size = job
        return draw(make_stream(seed, (batch,)), size)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(run, jobs))
    return [run(job) for job in jobs]


def mc_hit_fraction(indicator, n, samples, seed, threads=1):
    """``(hits, total)`` of ``indicator``, which maps an (m, n+1) array of
    uniform points on S^n to a boolean array."""
    def draw(rng, size):
        pts = sample_uniform_sphere(n, rng, size)
        return int(np.count_nonzero(indicator(pts)))

    return sum(mc_map(draw, samples, seed, threads)), int(samples)


def _fraction_estimate(hits, total, scale, seed, quantity):
    p = hits / total
    stderr = scale * math.sqrt(p * (1.0 - p) / total)
    return Estimate(value=scale * p, stderr=stderr, samples=total,
                    seed=seed, quantity=quantity)


def volume_mc(body, samples=None, seed=0, threads=1):
    """Spherical Lebesgue measure sigma(K) by rejection sampling.

    Lower-dimensional sets (``is_body=False``) have exact measure zero and
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
    hits, total = mc_hit_fraction(lambda pts: bd.hyperplane_meets(body, pts),
                                  body.n, samples, seed, threads)
    return _fraction_estimate(hits, total, 0.5 * sphere_area(body.n), seed,
                              "mean_width")


def combined_stderr(*estimates):
    return math.sqrt(sum(e.stderr ** 2 for e in estimates))


def check_identity_2_1(body, samples=None, seed=0, threads=1):
    """Verify sigma_n - 2 sigma(K*) = 2 U(K) at 3 combined sigma."""
    pol = bd.polar(body)
    vol = volume_mc(pol, samples=samples, seed=seed, threads=threads)
    width = mean_width_mc(body, samples=samples, seed=seed + 1, threads=threads)
    lhs = sphere_area(body.n) - 2.0 * vol.value
    rhs = 2.0 * width.value
    tol = 3.0 * math.sqrt((2.0 * vol.stderr) ** 2 + (2.0 * width.stderr) ** 2)
    slack = -abs(lhs - rhs)
    return VerificationReport(
        claim="polar_width_identity",
        lhs=lhs, rhs=rhs, slack=slack, tolerance=tol,
        tolerance_rule="|lhs - rhs| <= 3 * combined stderr",
        passed=slack >= -tol,
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
    if body.lune is not None:
        r = body.lune.inradius
    else:
        r = bd.inradius(body).inradius
    rhs = sphere_area(body.n) / math.pi * r
    slack = rhs - vol.value
    tol = 3.0 * vol.stderr
    return VerificationReport(
        claim="volume_inradius_bound",
        lhs=vol.value, rhs=rhs, slack=slack, tolerance=tol,
        tolerance_rule="lhs - 3 stderr <= rhs",
        passed=vol.value - tol <= rhs,
        inputs_digest=body_digest(body, samples, seed),
        details={"inradius": r, "volume_stderr": vol.stderr,
                 "seed": seed, "samples": vol.samples},
    )
