"""The parts of corrdecay that the benchmark under perfbench/ relies on by name.

The tracer there rebinds functions listed in its TARGETS table and its
counters read some of their arguments by name, and the workloads construct
CouplingMatrices by keyword. A rename under src/ would
only show up as failed benchmark runs, so it is checked here.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from corrdecay.coupling import CouplingMatrices

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "cdbench" / "tracing.py"


def load_tracing():
    name = "cdbench_tracing_contract"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = load_tracing()
TARGETS = TRACING_MODULE.TARGETS


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
