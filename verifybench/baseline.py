"""Record the benchmark's baseline in ``verifybench/BASELINE.json``.

    python3 verifybench/baseline.py

Runs every workload once per seed in ``SEEDS`` untraced and once at
``TRACED_SEED`` traced, for BENCHMARK.json's ``run_seconds`` each (every
run a separate ``run.py`` process, one after another).  Then writes, per
workload, the median and quartiles of each end-to-end metric over the
seeds, their spread (q3 - q1) / median, and the traced run's per-layer
table.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".verifybench" / "results"
SEEDS = list(range(301, 311))
TRACED_SEED = 1
MACHINE_KEYS = ("source_digest", "bench_digest", "git_commit", "nproc",
                "cpu_affinity", "cpu_model", "python", "numpy", "scipy")


def run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv[1:])} exited with {done.returncode}")
    return json.loads((RESULTS / f"{workload}-s{seed}-trace{trace}.json")
                      .read_text())


def summary(recs, traced):
    end_to_end = {}
    for name, first in recs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in recs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        end_to_end[name] = {"median": median, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / median,
                            "unit": first["unit"]}
    details = recs[0]["details"]
    by_dim = {d: statistics.median(r["details"]["threads2_by_dim"][d]
                                   for r in recs)
              for d in details["threads2_by_dim"]}
    return {"end_to_end": end_to_end,
            "verdicts_per_run": details["cycles"]
            * details["verdicts_per_cycle"],
            "tail_percentile": details["tail_percentile"],
            "threads2_speedup_by_dim_median": by_dim,
            "wrong_verdicts": sum(r["failed"] for r in recs),
            "verdicts_attempted": sum(r["attempted"] for r in recs),
            "per_layer": {k: m["value"]
                          for k, m in traced["metrics"].items()},
            "tail_self_time": [{"span": name, "seconds": secs,
                                "share": share} for name, secs, share
                               in traced["details"]["tail_layers"]]}


def main():
    sys.path.insert(0, str(ROOT))
    from verifybench.workloads import WORKLOADS

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "run_seconds"]
    workloads = {}
    for name in WORKLOADS:
        recs = [run(name, seed, seconds, 0) for seed in SEEDS]
        workloads[name] = summary(recs, run(name, TRACED_SEED, seconds, 1))
    prov = recs[0]["provenance"]
    out = {"about": "Seed-commit numbers of the benchmark: end-to-end "
                    "medians and quartiles over the seeds, and one traced "
                    "run per workload.",
           "commit": prov["git_commit"], "run_seconds": seconds,
           "seeds": SEEDS, "traced_seed": TRACED_SEED,
           "workloads": workloads,
           "machine": {k: prov.get(k) for k in MACHINE_KEYS}}
    (HERE / "BASELINE.json").write_text(json.dumps(out, indent=1) + "\n")
    for name, wl in workloads.items():
        print(name + ": " + ", ".join(
            f"{k} {m['median']:.4g} {m['unit']} (spread {m['spread']:.3f})"
            for k, m in wl["end_to_end"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
