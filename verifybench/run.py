"""Benchmark of the sphereplanks verifier, driven through its CLI.

    python3 verifybench/run.py [--workload NAME|all] [--seed N]
                               [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout: the package is imported from the
checkout's own ``src/`` and the run fails if it resolves elsewhere.  Each
workload (see ``workloads.py``) generates its inputs from the seed, then
runs whole cycles of its verdict schedule in one closed-loop client,
calling ``sphereplanks.cli.main`` in-process with ``--out`` report files.
A run makes round(seconds / the workload's nominal cycle time) cycles, at
least one, so it lasts about ``--seconds`` on a 2-core Xeon.  Every
verdict is judged by an oracle, every report is hashed, and a subset is
re-run at ``--threads 1`` and ``--threads 2``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the same cycles run untraced, then traced, and the
last line carries the per-layer metrics.  Provenance, per-verdict
details and spans go to ``.verifybench/results/`` in the checkout.  The
exit code is 0 only when every oracle, reproducibility and provenance
check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = Path(".verifybench")
SETUP_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import sphereplanks.cli; "
                "print(time.perf_counter() - t)")


class ProvenanceError(RuntimeError):
    """The code under measurement is not the checkout's own."""


def git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest(pkg_dir):
    h = hashlib.sha256()
    for path in sorted(pkg_dir.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(pkg):
    import numpy
    import scipy

    where = Path(pkg.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise ProvenanceError(f"sphereplanks resolved to {where}, not under "
                              f"{SRC}")
    return {"sphereplanks_file": str(where),
            "source_digest": source_digest(where.parent),
            "bench_digest": source_digest(Path(__file__).resolve().parent),
            "git_commit": git_commit(ROOT),
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def import_seconds():
    """Import time of ``sphereplanks.cli`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip())


def snapshot(directory):
    return {str(p.relative_to(directory)): hashlib.sha256(
        p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()}


class Runner:
    """One closed-loop client executing verdicts and judging them."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.wrong = []

    def execute(self, verdict, threads, tag):
        """Run one verdict; returns (latency_s, digest)."""
        self.attempted += 1
        sink = io.StringIO()
        codes = []
        tr = self.tracer
        root = tr.span("bench.verdict") if tr else contextlib.nullcontext()
        if tr:
            tr.verdict = tag
        texts, latency = [], None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(sink):
                with root:
                    if verdict.direct:
                        direct = verdict.direct()
                    else:
                        for argv, _ in verdict.steps:
                            codes.append(self.cli.main(
                                argv + ["--threads", str(threads)]))
                latency = time.perf_counter() - t0
            if verdict.direct:
                texts = [json.dumps(direct, sort_keys=True)]
            else:
                texts = [Path(p).read_text() for _, p in verdict.steps]
            problems = verdict.check(codes, [json.loads(t) for t in texts])
        except Exception:  # one bad verdict must not stop the run
            if latency is None:
                latency = time.perf_counter() - t0
            problems = [traceback.format_exc()]
        if problems:
            self.wrong.append({"verdict": tag, "problems": problems,
                               "stderr": sink.getvalue()[-2000:]})
        digest = hashlib.sha256(json.dumps([codes, texts]).encode())
        return latency, digest.hexdigest()

    def cycles(self, verdicts, phase, count):
        """``count`` whole cycles through ``verdicts`` at --threads 1.

        Each cycle visits the verdicts in its own fixed shuffled order, so
        the members of a cost class are spread over the whole run instead
        of sharing one window of the host's load.
        """
        if self.tracer:
            self.tracer.phase = phase
        latencies, digests = defaultdict(list), defaultdict(set)
        for cycle in range(count):
            order = random.Random(cycle).sample(verdicts, len(verdicts))
            for v in order:
                lat, dig = self.execute(v, 1, f"{phase}:{cycle}:{v.vid}")
                latencies[v.vid].append(lat)
                digests[v.vid].add(dig)
        return latencies, digests

    def threads_pass(self, wl, verdicts, digests, repro):
        """Re-run the subset at --threads 1 and 2, alternating which goes
        first; returns {dim: [t1 seconds, t2 seconds]}."""
        by_dim = defaultdict(lambda: [0.0, 0.0])
        subset = [v for v in verdicts if v.vid in wl.threads_subset]
        for rnd in range(wl.threads_rounds):
            for i, v in enumerate(subset):
                for threads in ((1, 2) if (i + rnd) % 2 == 0 else (2, 1)):
                    if self.tracer:
                        self.tracer.phase = f"threads{threads}"
                    lat, dig = self.execute(
                        v, threads, f"threads{threads}:{rnd}:{v.vid}")
                    by_dim[v.dim][threads - 1] += lat
                    if {dig} != digests[v.vid]:
                        repro.append(f"{v.vid}: --threads {threads} report "
                                     f"differs from the timed run")
        return dict(by_dim)


def tail(latencies):
    """Highest order statistic with at least ten verdicts beyond it."""
    xs = sorted(latencies)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def tail_layers(spans, selfs, top=3):
    """Where the ten slowest traced verdicts spent their self time."""
    roots = sorted((s for s in spans
                    if s.phase == "timed" and s.parent is None),
                   key=lambda s: s.end - s.start)[-10:]
    slow = {s.verdict for s in roots}
    by_layer = defaultdict(int)
    for s in spans:
        if s.verdict in slow:
            by_layer[s.name] += selfs[s.sid]
    total = sum(by_layer.values())
    ranked = sorted(by_layer.items(), key=lambda kv: -kv[1])[:top]
    return [(name, ns / 1e9, ns / total) for name, ns in ranked]


def check_stored_digests(prov, wl, seed, digests, repro):
    """Same code, benchmark and seed as an earlier run: the reports must
    match."""
    path = (STATE / "digests" / prov["source_digest"] / prov["bench_digest"]
            / f"{wl}-s{seed}.json")
    flat = {vid: sorted(d)[0] for vid, d in digests.items()}
    if path.is_file():
        old = json.loads(path.read_text())
        for vid, dig in flat.items():
            if vid in old and old[vid] != dig:
                repro.append(f"{vid}: report differs from an earlier run "
                             f"with the same seed")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(flat, indent=1, sort_keys=True))


def run_workload(wl, seed, seconds, trace, cli, prov):
    from verifybench.layers import TARGETS, per_layer_metrics
    from verifybench.tracer import Tracer, check_self_sums, self_times

    work = STATE / "work" / f"{wl.name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    inputs, out = work / "inputs", work / "out"
    plan = wl.plan(seed)
    repro = []

    def setup():
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):
            wl.generate(cli, plan, inputs)
        return time.perf_counter() - t0, snapshot(inputs)

    gen_s, ref = [], None
    for _ in range(1 if trace else SETUP_REPEATS):
        secs, snap = setup()
        gen_s.append(secs)
        if ref is not None and snap != ref:
            repro.append("set-up inputs differ between repetitions")
        ref = snap
    verdicts = wl.verdicts(plan, inputs, out)
    out.mkdir(parents=True, exist_ok=True)

    # A fixed cycle count per --seconds keeps the verdict count, and with
    # it the tail percentile, the same on every run and every commit.
    cycles = max(1, round(seconds / wl.nominal_cycle_s))
    runner = Runner(cli)
    by_vid, digests = runner.cycles(verdicts, "timed", cycles)
    lats = [x for v in by_vid.values() for x in v]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for vid, d in digests.items():
        if len(d) != 1:
            repro.append(f"{vid}: reports differ between cycles")
    check_stored_digests(prov, wl.name, seed, digests, repro)

    details = {"cycles": cycles, "verdicts_per_cycle": len(verdicts),
               "latency_s": {vid: statistics.median(v)
                             for vid, v in by_vid.items()}}
    problems = []
    if not trace:
        import_s = [import_seconds() for _ in range(SETUP_REPEATS)]
        split = runner.threads_pass(wl, verdicts, digests, repro)
        t1 = sum(v[0] for v in split.values())
        t2 = sum(v[1] for v in split.values())
        p_tail, pct, count = tail(lats)
        metrics = {
            "setup_s": (statistics.median(import_s)
                        + statistics.median(gen_s), "s"),
            "verdicts_per_s": (len(lats) / sum(lats), "1/s"),
            "verdict_p50_s": (statistics.median(lats), "s"),
            "verdict_tail_s": (p_tail, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "threads2_speedup": (t1 / t2, "ratio"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in
                   metrics.items()}
        details.update(import_s=import_s, inputs_s=gen_s,
                       tail_percentile=pct, tail_count=count,
                       threads2_by_dim={f"S^{n}": t[0] / t[1]
                                        for n, t in sorted(split.items())},
                       threads2_seconds=[t1, t2])
    else:
        tracer = Tracer()
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "sphereplanks"
                   or name.startswith("sphereplanks.")]
        tracer.install(modules, TARGETS)
        try:
            runner.tracer = tracer
            tracer.phase, tracer.verdict = "setup", "setup"
            with tracer.span("bench.setup"):
                _, snap = setup()
            if snap != ref:
                repro.append("traced set-up inputs differ")
            t_by_vid, t_digests = runner.cycles(verdicts, "timed", cycles)
            runner.threads_pass(wl, verdicts, digests, repro)
        finally:
            tracer.uninstall()
        for vid, d in t_digests.items():
            if d != digests[vid]:
                repro.append(f"{vid}: traced report differs from untraced")
        selfs = self_times(tracer.spans)
        problems += check_self_sums(tracer.spans, selfs)
        details["tail_layers"] = tail_layers(tracer.spans, selfs)
        overhead = sum(sum(v) for v in t_by_vid.values()) / sum(lats) - 1.0
        metrics = per_layer_metrics(tracer.spans, cycles, overhead)
        spans_path = STATE / "results" / f"{wl.name}-s{seed}.spans.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
    problems += repro
    correct = not runner.wrong and not problems
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": len(runner.wrong), "metrics": metrics}
    record = dict(result, workload=wl.name, seed=seed, seconds=seconds,
                  trace=trace, provenance=prov, details=details,
                  wrong_verdicts=runner.wrong, problems=problems)
    res_path = STATE / "results" / f"{wl.name}-s{seed}-trace{trace}.json"
    res_path.parent.mkdir(parents=True, exist_ok=True)
    res_path.write_text(json.dumps(record, indent=1))
    shutil.rmtree(work, ignore_errors=True)
    return result, details, runner.wrong, problems


def summarize(name, result, details, wrong, problems):
    err = sys.stderr
    print(f"== {name}: {result['attempted']} verdicts attempted, "
          f"{result['failed']} wrong, {details['cycles']} cycle(s) of "
          f"{details['verdicts_per_cycle']}", file=err)
    print(f"   wrong_verdict_frac {result['failed'] / result['attempted']!r}"
          f" (fraction)", file=err)
    for key, m in result["metrics"].items():
        note = ""
        if key == "verdict_tail_s":
            note = (f"  (p{details['tail_percentile']:.1f} of "
                    f"{details['tail_count']} verdicts)")
        elif key == "threads2_speedup":
            note = "  (" + ", ".join(f"{d} {v:.3f}" for d, v in
                                     details["threads2_by_dim"].items()) + ")"
        print(f"   {key:<40} {m['value']!r:>24} {m['unit']}{note}", file=err)
    if "tail_layers" in details:
        print("   ten slowest verdicts by self time: " + ", ".join(
            f"{name} {secs:.3f} s ({share:.0%})"
            for name, secs, share in details["tail_layers"]), file=err)
    for w in wrong[:5]:
        print(f"   WRONG {w['verdict']}: {w['problems'][:3]}", file=err)
    for p in problems[:10]:
        print(f"   CHECK FAILED: {p}", file=err)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("mc-estimate", "cone-convert", "instance-sweep",
                             "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "sphereplanks" / "__init__.py").is_file():
        print(f"error: no sphereplanks sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(ROOT))
    import sphereplanks
    import sphereplanks.cli as cli
    try:
        prov = provenance(sphereplanks)
    except ProvenanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from verifybench.workloads import WORKLOADS

    print("provenance " + json.dumps(prov, sort_keys=True), file=sys.stderr)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, details, wrong, problems = run_workload(
            WORKLOADS[name], args.seed, args.seconds, args.trace, cli, prov)
        summarize(name, result, details, wrong, problems)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": m for w, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
