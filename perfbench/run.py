"""Run one corrdecay benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scaling --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. A detailed record
(environment, per-pass values and failures, spans) goes to
`perfbench/results/`. The benchmark imports corrdecay from the checkout's
`src/` and exits with code 2 when that is missing. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads(nproc: int) -> None:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def parse_args(argv):
    from cdbench.workloads import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="time budget of the timed passes (at least one pass runs)")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=SIZES,
                        help="'tiny' runs the same code paths at toy sizes (self-tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "corrdecay" / "__init__.py").is_file():
        print(f"corrdecay sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from cdbench import harness

    args = parse_args(argv)
    settings = harness.Settings(
        root=ROOT, workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), size=args.size,
        references=harness.load_references(BENCH_DIR), spec=harness.load_spec(ROOT),
        nproc=nproc,
    )
    line, record = harness.measure(settings)

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=str) + "\n")

    print("environment: " + json.dumps(record["environment"]))
    for n, done in enumerate(record["passes"]):
        for failure in done["failures"]:
            print(f"FAILED pass {n} {failure['job']}: {'; '.join(failure['problems'])}")
    for key, metric in line["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {record['error_rate']:.6g} fraction ({line['failed']} failed of "
          f"{line['attempted']} attempted operations)")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
