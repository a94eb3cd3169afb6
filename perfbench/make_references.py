"""Regenerate perfbench/references.json from the corrdecay sources in this checkout.

    python3 perfbench/make_references.py

The stored values are the outputs of the commit the benchmark was defined on;
regenerate them only when a change is meant to alter results, and say so.
Every workload is run at both sizes: all jobs for variant 0, then the
seed-dependent jobs for the other variants.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the entry point: paths and the thread cap)


def main() -> int:
    nproc = len(os.sched_getaffinity(0))
    run.cap_threads(nproc)
    sys.path.insert(0, str(run.ROOT / "src"))
    from cdbench import harness, workloads

    refs: dict = {}
    for size in workloads.SIZES:
        for workload in workloads.WORKLOADS:
            table = refs.setdefault(size, {}).setdefault(workload, {})
            for variant in range(workloads.VARIANTS):
                settings = harness.Settings(
                    root=run.ROOT, workload=workload, seed=variant, seconds=0, trace=False,
                    size=size, references={}, spec=harness.load_spec(run.ROOT),
                    nproc=nproc)
                harness.warm_up(settings)
                ctx = harness.job_context(settings, harness.cli_runner(settings))
                for job in workloads.build_jobs(workload, size, variant, ctx):
                    if variant == 0 or job.varies:
                        table[job.name] = job.run()
                print(f"{size} {workload} variant {variant} done", flush=True)
    path = run.BENCH_DIR / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
