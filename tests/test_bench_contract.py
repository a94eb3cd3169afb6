"""The parts of corrdecay that the benchmark under perfbench/ relies on by name.

The tracer there rebinds functions listed in its TARGETS table, and the
workloads construct CouplingMatrices by keyword. A rename under src/ would
only show up as failed benchmark runs, so it is checked here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from corrdecay.coupling import CouplingMatrices

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "cdbench" / "tracing.py"


def load_targets():
    name = "cdbench_tracing_contract"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr",
                         [(module, attr) for module, attr, _, _ in load_targets()])
def test_traced_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_coupling_matrices_keyword_construction():
    gamma = np.eye(3)
    mats = CouplingMatrices(gamma=gamma, jmat=np.zeros_like(gamma), gamma0=1.0, n=3)
    assert mats.gamma is gamma and mats.n == 3 and mats.gamma0 == 1.0
    assert np.array_equal(mats.jmat, np.zeros((3, 3)))
