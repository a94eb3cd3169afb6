"""Self-tests of the benchmark harness, at toy sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from cdbench import harness, tracing, workloads  # noqa: E402

SPEC = harness.load_spec(ROOT)


def settings(workload, trace=False, references=None, seed=5):
    return harness.Settings(
        root=ROOT, workload=workload, seed=seed, seconds=0, trace=trace, size="tiny",
        references=harness.load_references(BENCH_DIR) if references is None else references,
        spec=SPEC, nproc=2)


def run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    done = run_cli("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in wanted]
    values = {k: v["value"] for k, v in line["metrics"].items()}
    if trace:
        attributed = sum(v for k, v in values.items()
                         if k.endswith("busy_s") or k == "cli.self_s")
        assert attributed + values["trace.remainder_s"] == pytest.approx(values["trace.wall_s"])
    else:
        assert all(v > 0 for v in values.values())


def test_tracing_wrappers_are_removed_after_traced_run():
    import corrdecay.coupling
    import corrdecay.sweep

    original = corrdecay.coupling.build_coupling_matrices
    with tracing.Tracer().installed():
        assert corrdecay.sweep.build_coupling_matrices is not original
        assert tracing.leftover_wrappers()
    assert not tracing.leftover_wrappers()

    line, record = harness.measure(settings("exact", trace=True))
    assert line["correct"] and record["spans"]
    assert not tracing.leftover_wrappers()
    assert corrdecay.sweep.build_coupling_matrices is original


def test_perturbed_reference_counts_as_failed_operation():
    refs = copy.deepcopy(harness.load_references(BENCH_DIR))
    job = "lowrank/1d/n20"
    refs["tiny"]["sdp"][job]["sdp_value"] *= 1 + 1e-3
    line, record = harness.measure(settings("sdp", references=refs))
    assert not line["correct"]
    assert line["failed"] == len(record["passes"]) == 1
    assert line["attempted"] == len(record["passes"][0]["values"])
    assert record["passes"][0]["failures"][0]["job"] == job


def test_concurrent_spans_share_wall_time():
    def span(i, bucket, start, end, parent=None, thread=1):
        return tracing.Span(i, bucket, bucket, start, end, parent, thread)

    spans = [span(1, "sweep.run_busy_s", 0.0, 10.0),
             span(2, "spectral.eig_busy_s", 1.0, 5.0, parent=None, thread=2),
             span(3, "spectral.eig_busy_s", 2.0, 4.0, parent=1, thread=1)]
    totals, remainder = tracing.self_times(spans, 0.0, 12.0)
    # thread 2's span overlaps thread 1 over [1, 5]; each instant there is split
    # between the two threads' innermost spans, so [2, 4] counts 2 s, not 4 s
    assert totals["spectral.eig_busy_s"] == pytest.approx(0.5 + 2 + 0.5)
    assert totals["sweep.run_busy_s"] == pytest.approx(1 + 0.5 + 0.5 + 5)
    assert remainder == pytest.approx(2.0)


def test_benchmark_json_names_every_workload_and_traced_bucket():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(tracing.BUCKETS) <= {m["name"] for m in SPEC["per_layer"]}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    done = run_cli("--workload", "scaling", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
