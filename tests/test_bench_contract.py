"""The parts of corrdecay that the benchmark under perfbench/ relies on by name.

The tracer there rebinds functions listed in its TARGETS table and its
counters read some of their arguments by name, and the workloads construct
CouplingMatrices, LatticeSpec, SdpProblem, DisorderSpec and SweepPlan by keyword.
A rename under src/ would only show up as failed benchmark runs, so it is
checked here, and every job of the workloads runs here at their tiny sizes.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from corrdecay.coupling import CouplingMatrices
from corrdecay.lattice import LatticeSpec
from corrdecay.sdp import SdpProblem
from corrdecay.sweep import DisorderSpec, SweepPlan

CDBENCH = Path(__file__).resolve().parents[1] / "perfbench" / "cdbench"
TRACING = CDBENCH / "tracing.py"
WORKLOADS = CDBENCH / "workloads.py"
CONSTRUCTED = {cls.__name__: cls for cls in
               (CouplingMatrices, LatticeSpec, SdpProblem, DisorderSpec, SweepPlan)}


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = load_module("cdbench_tracing_contract", TRACING)
TARGETS = TRACING_MODULE.TARGETS
WORKLOADS_MODULE = load_module("cdbench_workloads_contract", WORKLOADS)
TINY_REFERENCES = json.loads((CDBENCH.parent / "references.json").read_text())["tiny"]


def resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def bound_argument_names():
    """(module, attribute, argument name) for every argument a counter reads by name.

    The counters look arguments up through the tracer's ``_arg(fn, name)``;
    building each counter with that helper swapped for a recorder lists them.
    """
    found = []
    original = TRACING_MODULE._arg
    try:
        for module_name, attr, _, make_counter in TARGETS:
            try:
                fn = resolve(module_name, attr)
            except AttributeError:  # reported by test_traced_target_resolves
                continue
            if make_counter is None:
                continue

            def record(fn, name, _target=(module_name, attr)):
                found.append((*_target, name))
                return original(fn, name)

            TRACING_MODULE._arg = record
            make_counter(fn)
    finally:
        TRACING_MODULE._arg = original
    return found


BOUND_ARGUMENTS = bound_argument_names()


@pytest.mark.parametrize("module_name, attr", [(module, attr) for module, attr, _, _ in TARGETS])
def test_traced_target_resolves(module_name, attr):
    assert callable(resolve(module_name, attr))


@pytest.mark.parametrize("module_name, attr, name", BOUND_ARGUMENTS)
def test_traced_argument_in_signature(module_name, attr, name):
    # a renamed or dropped argument would leave its counter (kspace.points,
    # spectral.eig_n3, coupling.io_bytes) reading nothing
    assert name in inspect.signature(resolve(module_name, attr)).parameters


def test_bound_arguments_discovered():
    assert {"dimension", "n_per_axis", "mats", "path"} <= {name for *_, name in BOUND_ARGUMENTS}


def test_coupling_matrices_keyword_construction():
    gamma = np.eye(3)
    mats = CouplingMatrices(gamma=gamma, jmat=np.zeros_like(gamma), gamma0=1.0, n=3)
    assert mats.gamma is gamma and mats.n == 3 and mats.gamma0 == 1.0
    assert np.array_equal(mats.jmat, np.zeros((3, 3)))


def constructor_keywords():
    """(class name, keyword) for every keyword the workloads pass to a CONSTRUCTED class."""
    found = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in CONSTRUCTED:
                found.update((name, kw.arg) for kw in node.keywords)
    return sorted(found)


CONSTRUCTOR_KEYWORDS = constructor_keywords()


def test_constructor_keywords_discovered():
    assert {name for name, _ in CONSTRUCTOR_KEYWORDS} == set(CONSTRUCTED)


@pytest.mark.parametrize("name, keyword", CONSTRUCTOR_KEYWORDS)
def test_workload_keyword_is_a_field(name, keyword):
    assert keyword in {f.name for f in dataclasses.fields(CONSTRUCTED[name])}


def test_workload_constructions():
    # the calls of perfbench/cdbench/workloads.py (and the harness's positional LatticeSpec)
    x = (1.0, 0.0, 0.0)
    spec = LatticeSpec(dimension=2, n_per_axis=3, spacing=0.4, polarization=x)
    assert spec.n_atoms == 9 and LatticeSpec(2, 8, 0.4).n_atoms == 64
    gamma = np.eye(3)
    problem = SdpProblem(gtilde=gamma - np.eye(3), n=3)
    assert problem.n == 3 and problem.gamma0 == 1.0
    mats = CouplingMatrices(gamma=gamma, jmat=np.zeros_like(gamma), gamma0=1.0, n=3)
    assert SdpProblem.from_coupling(mats).n == 3
    disorder = DisorderSpec(eta=0.05, n_realizations=2, seed=7)
    plan = SweepPlan(dimension=2, spacing=0.4, polarization=x, n_1d_values=[3, 4, 5],
                     disorder=disorder)
    assert plan.disorder is disorder and plan.n_1d_values == [3, 4, 5]


def run_tiny_jobs(workload, workdir):
    """Run every tiny job of the workload and check it against its stored reference."""
    ctx = {"pool_threads": 2, "workdir": workdir, "runner": WORKLOADS_MODULE.inprocess_runner}
    refs = TINY_REFERENCES[workload]
    for job in WORKLOADS_MODULE.build_jobs(workload, "tiny", 0, ctx):
        assert WORKLOADS_MODULE.mismatches(job.run(), refs.get(job.name)) == [], job.name


@pytest.mark.parametrize("workload", WORKLOADS_MODULE.WORKLOADS)
def test_tiny_workload_jobs_match_references(tmp_path, workload):
    # the benchmark's own calls (run_sweep's threads=, sdp_certificates' positional gamma0,
    # exact_rstar's force_method=, the CLI argument lists) with its two-thread pool setting
    run_tiny_jobs(workload, tmp_path)


# counters each workload's traced pass must report; each reads a result by attribute
TRACED_COUNTERS = {
    "scaling": {"coupling.pairs", "spectral.eig_n3", "sweep.points"},  # result.n, r.rows
    "sdp": {"sdp.escape_verified", "spectral.eig_n3"},  # result.rank_escape_verified
    "exact": {"exactdiag.basis_states", "exactdiag.lanczos_iterations"},  # r.dim, r[1]
    "cli": {"coupling.pairs", "coupling.io_bytes", "sdp.escape_verified"},
}


@pytest.mark.parametrize("workload", WORKLOADS_MODULE.WORKLOADS)
def test_tiny_workload_jobs_match_references_traced(tmp_path, workload):
    # the benchmark's traced mode: the same jobs inside the tracer's wrappers, whose counters
    # read the results; a renamed result field fails the job that returns it
    tracer = TRACING_MODULE.Tracer()
    with tracer.installed():
        run_tiny_jobs(workload, tmp_path)
    assert TRACING_MODULE.leftover_wrappers() == []
    assert TRACED_COUNTERS[workload] <= set(tracer.counts)
