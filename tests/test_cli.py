import argparse
import functools
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corrdecay
from corrdecay import errors
from corrdecay.cli import SCHEMAS, build_parser, main
from corrdecay.sweep import fit_power_law

DATA = Path(__file__).parent / "data" / "rb87_53s_transitions.csv"


def test_gamma_smoke(tmp_path):
    out = tmp_path / "run"
    rc = main(["gamma", "--dim", "2", "--n", "10", "--d", "0.4", "--pol", "x",
               "--out", str(out)])
    assert rc == 0
    lines = (out / "coupling.csv").read_text().splitlines()
    assert lines[0] == "i,j,gamma,jcoupling"
    assert len(lines) == 1 + 100 * 100
    diag = json.loads((out / "psd.json").read_text())
    assert diag["passed"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gamma"
    assert "config_sha256" in manifest and "wall_time_s" in manifest


def test_gamma_rejects_bad_n(tmp_path):
    assert main(["gamma", "--dim", "1", "--n", "0", "--d", "0.4",
                 "--out", str(tmp_path)]) == 2


def test_gamma_deterministic_outputs(tmp_path):
    args = ["gamma", "--dim", "1", "--n", "6", "--d", "0.35", "--pol", "z",
            "--eta", "0.03", "--seed", "17", "--output-format", "both"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("coupling.csv", "gamma.bin", "jmat.bin", "psd.json", "lattice.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_analyze_dicke_surrogate(tmp_path):
    # near-zero separations: an 8-atom cluster decays like one big dipole
    rc = main(["analyze", "--dim", "3", "--n", "2", "--d", "1e-4", "--pol", "x",
               "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "analysis.json").read_text())
    assert abs(doc["exact"]["rstar_exact"] - 20.0) < 0.01
    assert abs(doc["bounds"]["ub"] - 92.0) < 0.05
    assert doc["bounds"]["lb_best"] >= 16.0 - 0.01
    assert doc["sdp"]["rstar_estimate"] <= doc["exact"]["rstar_exact"] + 1e-6


def test_analyze_noninteracting_equality(tmp_path):
    gamma = np.eye(8)
    from corrdecay.coupling import write_matrix_binary

    mat_file = tmp_path / "gamma.bin"
    write_matrix_binary(gamma, mat_file)
    rc = main(["analyze", "--gamma-file", str(mat_file), "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "analysis.json").read_text())
    assert np.isclose(doc["bounds"]["lb_best"], 8.0)
    assert np.isclose(doc["bounds"]["ub"], 8.0)
    assert np.isclose(doc["exact"]["rstar_exact"], 8.0)


def test_analyze_large_n_skips_exact(tmp_path):
    rc = main(["analyze", "--dim", "1", "--n", "30", "--d", "0.4", "--pol", "z",
               "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "analysis.json").read_text())
    assert "exact" not in doc
    assert "spectral" in doc and "bounds" in doc and "sdp" in doc


INVALID_MATRICES = {
    "asymmetric": np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    # 1e-7 apart: inside allclose's default rtol, outside the promised atol 1e-12
    "slightly-asymmetric": np.array([[1.0, 0.5], [0.5000001, 1.0]]),
    "nan": np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "nonuniform-diagonal": np.diag([1.0, 2.0, 1.0]),
    "non-psd": np.array([[1.0, 1.5], [1.5, 1.0]]),
    "zero-diagonal": np.zeros((3, 3)),
}


@pytest.mark.parametrize("command", ["exact", "analyze", "sdp"])
@pytest.mark.parametrize("kind", list(INVALID_MATRICES))
def test_gamma_file_rejects_invalid_matrix(tmp_path, command, kind):
    from corrdecay.coupling import write_matrix_binary

    mat_file = tmp_path / "bad.bin"
    write_matrix_binary(INVALID_MATRICES[kind], mat_file)
    rc = main([command, "--gamma-file", str(mat_file), "--out", str(tmp_path)])
    assert rc == 3


MALFORMED_FILES = {
    "10-byte": b"CDMATRX1\x02\x00",
    "n2-33-byte-payload": b"CDMATRX1" + struct.pack("<Q", 2) + bytes(33),
    "n2-40-byte-payload": b"CDMATRX1" + struct.pack("<Q", 2) + bytes(40),
    "n2**40-32-byte-payload": b"CDMATRX1" + struct.pack("<Q", 2**40) + bytes(32),
}


@pytest.mark.parametrize("command", ["exact", "analyze", "sdp"])
@pytest.mark.parametrize("kind", list(MALFORMED_FILES))
def test_gamma_file_rejects_malformed_file(tmp_path, capsys, command, kind):
    mat_file = tmp_path / "bad.bin"
    mat_file.write_bytes(MALFORMED_FILES[kind])
    out = tmp_path / "out"
    rc = main([command, "--gamma-file", str(mat_file), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3 and "physics validation error: matrix file" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command", ["sdp", "analyze"])
def test_gamma_file_sdp_uses_its_gamma0(tmp_path, command):
    from corrdecay.coupling import write_matrix_binary

    a = np.random.default_rng(3).standard_normal((5, 3))
    unit = a @ a.T / np.outer(np.linalg.norm(a, axis=1), np.linalg.norm(a, axis=1))
    mat_file = tmp_path / "gamma.bin"
    write_matrix_binary(2.0 * unit, mat_file)
    assert main([command, "--gamma-file", str(mat_file), "--out", str(tmp_path)]) == 0
    name = "sdp.json" if command == "sdp" else "analysis.json"
    doc = json.loads((tmp_path / name).read_text())
    sdp = doc if command == "sdp" else doc["sdp"]
    # gamma0 = 2: rstar_estimate = value + N*gamma0/2, upper cap = N*gamma0 + 6*dual_bound
    assert sdp["rstar_estimate"] == pytest.approx(sdp["value"] + 5, rel=1e-12)
    assert sdp["rstar_upper_from_sdp"] == pytest.approx(10 + 6 * sdp["dual_bound"], rel=1e-12)
    assert sdp["value"] <= sdp["dual_bound"]


def test_analyze_builds_the_array_once(tmp_path, monkeypatch):
    from corrdecay import cli

    calls = []

    def counted(spec, _build=cli.build_array):
        calls.append(spec)
        return _build(spec)

    monkeypatch.setattr(cli, "build_array", counted)
    assert main(["analyze", "--dim", "1", "--n", "6", "--d", "0.3", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "momentum.csv").exists()
    assert len(calls) == 1


def test_scan_single_realization_follows_seed(tmp_path):
    def table(seed, name):
        out = tmp_path / name
        assert main(["scan", "--dim", "1", "--d", "0.4", "--pol", "z", "--sizes", "6,10,14",
                     "--eta", "0.05", "--seed", str(seed), "--out", str(out)]) == 0
        return (out / "sweep.csv").read_bytes()

    assert table(5, "a") != table(6, "b")
    assert table(5, "c") == table(5, "a")


def test_negative_seed_is_taken_mod_2_64(tmp_path):
    # scan and gamma share one seed rule: -1 runs as its 64-bit residue 2^64 - 1
    runs = [(["scan", "--dim", "2", "--sizes", "3,4,5", "--d", "0.4", "--pol", "x", "--eta",
              "0.05", "--realizations", "2"], "sweep.csv"),
            (["gamma", "--dim", "2", "--n", "3", "--d", "0.4", "--pol", "x", "--eta", "0.05"],
             "coupling.csv")]
    for i, (argv, name) in enumerate(runs):
        outputs = []
        for seed in (-1, 2**64 - 1):
            out = tmp_path / f"{i}-{seed}"
            assert main(argv + ["--seed", str(seed), "--out", str(out)]) == 0
            outputs.append((out / name).read_text())
        assert outputs[0] == outputs[1] and outputs[0].count("\n") > 3


@pytest.mark.parametrize("argv", [
    ["analyze", "--dim", "2", "--n", "5", "--d", "0.4", "--sdp-max-n", "2", "--exact-max-n", "2"],
    ["sdp", "--dim", "2", "--n", "5", "--d", "0.4"],
    ["analyze", "--dim", "2", "--n", "5", "--d", "0.4", "--sdp-max-n", "2", "--exact-max-n", "2",
     "--eta", "0.05", "--seed", "3"],
], ids=["analyze", "sdp", "analyze-disordered"])
def test_one_dense_eigensolve_per_command(tmp_path, monkeypatch, argv):
    # one gamma_eigensolve per command, of the N = 25 coupling, which solves the whole
    # 25 x 25 Gamma (unit diagonal) only on the disordered array: the ordered plane splits
    # into four mirror blocks. sdp adds one values-only eigvalsh of its dual certificate per
    # rank round.
    from corrdecay import cli, coupling, spectral

    solves, calls = [], []

    def counted_solve(mats, *args, _solve=coupling.gamma_eigensolve, **kwargs):
        solves.append(mats.n)
        return _solve(mats, *args, **kwargs)

    for module in (coupling, spectral, cli):
        monkeypatch.setattr(module, "gamma_eigensolve", counted_solve)
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            if np.shape(a) == (25, 25):
                kind = "gamma" if np.all(np.diag(a) == 1.0) else "certificate"
                calls.append((_solve.__name__, kind))
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert solves == [25]
    assert sum(kind == "gamma" for _, kind in calls) == ("--eta" in argv), calls
    rounds = json.loads((tmp_path / "sdp.json").read_text())["rounds"] if argv[0] == "sdp" else 0
    certificates = [call for call in calls if call[1] == "certificate"]
    assert certificates == [("eigvalsh", "certificate")] * rounds, calls


@pytest.mark.parametrize("eta, solver", [(0.0, "mirror"), (0.05, "dense")])
def test_analysis_records_the_eigensolver(tmp_path, eta, solver):
    assert main(["analyze", "--dim", "2", "--n", "4", "--d", "0.4", "--eta", str(eta),
                 "--seed", "3", "--sdp-max-n", "2", "--exact-max-n", "2",
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "analysis.json").read_text())
    assert doc["spectral"]["eigensolver"] == solver


def test_manifest_seed_only_for_seeded_commands(tmp_path):
    unseeded = [
        ["kspace", "--dim", "1", "--n", "8", "--d", "0.3"],
        ["rydberg", "--table", str(DATA), "--n-atoms", "160", "--spacing-um", "2.0",
         "--c6", "28.8", "--rabi", "4.6", "--dominant", "53S12-52P32"],
        # ordered arrays: nothing is drawn
        ["gamma", "--dim", "1", "--n", "4", "--d", "0.4"],
        ["sdp", "--dim", "1", "--n", "6", "--d", "0.4", "--solver", "projection"],
        ["scan", "--dim", "1", "--d", "0.4", "--sizes", "4,5,6"],
    ]
    for i, argv in enumerate(unseeded):
        assert main(argv + ["--out", str(tmp_path / str(i))]) == 0
        assert "seed" not in json.loads((tmp_path / str(i) / "manifest.json").read_text())
    seeded = [
        (["gamma", "--dim", "1", "--n", "3", "--d", "0.5", "--eta", "0.05", "--seed", "17"], 17),
        (["sdp", "--dim", "1", "--n", "6", "--d", "0.4", "--solver", "projection",
          "--eta", "0.05", "--seed", "17"], 17),
        (["sdp", "--dim", "1", "--n", "6", "--d", "0.4"], 20250810),  # the lowrank start
        (["scan", "--dim", "1", "--d", "0.4", "--sizes", "4,5,6", "--quantity", "sdp_estimate",
          "--seed", "17"], 17),
    ]
    for i, (argv, seed) in enumerate(seeded):
        out = tmp_path / f"seeded{i}"
        assert main(argv + ["--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == seed


def test_scan_writes_table_and_fit(tmp_path):
    rc = main(["scan", "--dim", "1", "--d", "0.4", "--pol", "z",
               "--sizes", "8,16,32", "--quantity", "gamma_max",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "n_atoms,value,stderr"
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert "alpha" in fit and "r_squared" in fit


def test_scan_flags_a_failed_size_and_fits_the_rest(tmp_path, capsys):
    # 50000 atoms exceed the dense-solver ceiling: that row fails, the sweep goes on
    rc = main(["scan", "--dim", "1", "--d", "0.4", "--sizes", "2,3,4,50000",
               "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "sweep.csv").read_text()
    assert text.endswith("\n50000,nan,\n")
    assert "1 sweep rows flagged" in capsys.readouterr().err
    clean = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1, usecols=(0, 1))[:3]
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit == fit_power_law(clean[:, 0], clean[:, 1]).to_dict()


def test_scan_empty_sizes_rejected(tmp_path):
    # argparse rejects the unparsable empty list with its usual exit code 2
    with pytest.raises(SystemExit) as err:
        main(["scan", "--dim", "1", "--d", "0.4", "--sizes", "", "--out", str(tmp_path)])
    assert err.value.code == 2


RYDBERG = ["rydberg", "--table", str(DATA), "--n-atoms", "160", "--spacing-um", "2.0",
           "--c6", "28.8", "--rabi", "4.6", "--dominant", "53S12-52P32"]
SCAN = ["scan", "--dim", "1", "--d", "0.4", "--sizes", "4,5,6"]


@pytest.mark.parametrize("argv", [
    ["scan", "--dim", "1", "--d", "0.4", "--sizes", "4,8,16", "--n", "5"],
    ["analyze", "--dim", "1", "--n", "4", "--d", "0.4", "--output-format", "csv"],
    ["kspace", "--dim", "1", "--n", "16", "--d", "0.25", "--seed", "1"],
    RYDBERG + ["--seed", "1"],
    ["gamma", "--dim", "1", "--n", "3", "--d", "0.5", "--threads", "4"],
    ["sdp", "--dim", "1", "--n", "6", "--d", "0.4", "--threads", "4"],
    ["kspace", "--dim", "1", "--n", "8", "--d", "0.3", "--threads", "4"],
    RYDBERG + ["--threads", "4"],
    ["exact", "--dim", "1", "--n", "4", "--d", "0.3", "--threads", "2"],
    ["analyze", "--dim", "1", "--n", "4", "--d", "0.3", "--threads", "2"],
    ["analyze", "--gamma-file", "GAMMA_FILE", "--dim", "2", "--n", "5", "--d", "0.9",
     "--eta", "0.3"],
    ["sdp", "--gamma-file", "GAMMA_FILE", "--dim", "2"],
    ["exact", "--gamma-file", "GAMMA_FILE", "--dim", "2"],
    ["sdp", "--dim", "1", "--n", "6", "--d", "0.4", "--solver", "projection", "--rank", "3"],
    ["gamma", "--dim", "1", "--n", "4", "--d", "0.4", "--seed", "5"],
    ["gamma", "--dim", "1", "--n", "4", "--d", "0.4", "--eta", "0", "--seed", "5"],
    ["sdp", "--dim", "1", "--n", "6", "--d", "0.4", "--solver", "projection", "--seed", "9"],
    ["sdp", "--gamma-file", "GAMMA_FILE", "--solver", "projection", "--seed", "9"],
    SCAN + ["--realizations", "2"],
    SCAN + ["--eta", "0", "--realizations", "2"],
    SCAN + ["--n-min", "4"],
    SCAN + ["--n-max", "8"],
    SCAN + ["--count", "4"],
    SCAN + ["--spacing-mode", "linear"],
    SCAN + ["--seed", "5"],
    SCAN + ["--quantity", "ub", "--seed", "5"],
    SCAN + ["--threads", "2"],
], ids=["scan-n", "analyze-output-format", "kspace-seed", "rydberg-seed", "gamma-threads",
        "sdp-threads", "kspace-threads", "rydberg-threads", "exact-threads", "analyze-threads",
        "analyze-gamma-file-lattice",
        "sdp-gamma-file-dim", "exact-gamma-file-dim", "sdp-projection-rank",
        "gamma-ordered-seed", "gamma-eta0-seed", "sdp-projection-seed",
        "sdp-projection-gamma-file-seed", "scan-ordered-realizations", "scan-eta0-realizations",
        "scan-sizes-n-min", "scan-sizes-n-max", "scan-sizes-count", "scan-sizes-spacing-mode",
        "scan-ordered-seed", "scan-ordered-ub-seed", "scan-threads"])
def test_unused_option_rejected(tmp_path, argv):
    # argparse (no such flag), the schema (flag unused by the command) and the command
    # (flag unused next to another one) all exit 2, before anything is written
    from corrdecay.coupling import write_matrix_binary

    gamma_file = tmp_path / "gamma.bin"
    write_matrix_binary(np.eye(4), gamma_file)
    argv = [str(gamma_file) if arg == "GAMMA_FILE" else arg for arg in argv]
    try:
        code = main(argv + ["--out", str(tmp_path / "out")])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, code, outputs", [
    (["gamma", "--dim", "3", "--n", "3", "--d", "1e-7"], 3,
     ["coupling.csv", "psd.json", "lattice.json"]),
    (["sdp", "--dim", "1", "--n", "40", "--d", "0.4", "--max-iters", "3"], 4,
     ["sdp.json", "product_angles.csv"]),
], ids=["gamma-not-psd", "sdp-unconverged"])
def test_failed_run_keeps_manifest(tmp_path, argv, code, outputs):
    assert main(argv + ["--out", str(tmp_path)]) == code
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["outputs"] == [str(tmp_path / name) for name in outputs]


def test_exact_unconverged_lanczos_exits_4(tmp_path, monkeypatch):
    # N = 12 solves its middle sectors by Lanczos; 5 steps cannot converge there
    from corrdecay import exactdiag

    monkeypatch.setattr(exactdiag, "lanczos_largest",
                        functools.partial(exactdiag.lanczos_largest, max_iter=5))
    out = tmp_path / "out"
    assert main(["exact", "--dim", "1", "--n", "12", "--d", "0.2", "--out", str(out)]) == 4
    assert not out.exists()


def test_scan_requires_spacing(tmp_path):
    assert main(["scan", "--sizes", "4,6,8", "--out", str(tmp_path)]) == 2


def test_scan_range_spec(tmp_path):
    rc = main(["scan", "--dim", "1", "--d", "0.4", "--pol", "z", "--n-min", "4",
               "--n-max", "32", "--count", "4", "--out", str(tmp_path)])
    assert rc == 0


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 1, "n": 4, "d": 0.5, "pol": "z"}))
    out = tmp_path / "o1"
    assert main(["gamma", "--config", str(cfg), "--out", str(out)]) == 0
    spec = json.loads((out / "lattice.json").read_text())
    assert spec["n_per_axis"] == 4 and spec["spacing"] == 0.5
    out2 = tmp_path / "o2"
    assert main(["gamma", "--config", str(cfg), "--n", "6", "--out", str(out2)]) == 0
    spec2 = json.loads((out2 / "lattice.json").read_text())
    assert spec2["n_per_axis"] == 6  # flag wins


NON_FINITE = {
    "gamma-d": (["gamma", "--dim", "1", "--n", "4", "--d", "inf"], "d"),
    "gamma-eta": (["gamma", "--dim", "1", "--n", "4", "--d", "0.5", "--eta", "inf",
                   "--seed", "3"], "eta"),
    "kspace-d": (["kspace", "--dim", "3", "--n", "4", "--d", "inf"], "d"),
    "config-d": (["gamma", "--config", "CONFIG"], "d"),
    "sdp-tol": (["sdp", "--dim", "1", "--n", "6", "--d", "0.4", "--tol", "inf"], "tol"),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_number_rejected(tmp_path, capsys, case):
    # argparse's float and Python's json both produce inf; no number key takes it
    argv, key = NON_FINITE[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"dim": 1, "n": 4, "d": Infinity}')
    argv = [str(cfg) if arg == "CONFIG" else arg for arg in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert f"config error: {key}: inf is not a finite number" in capsys.readouterr().err


BOUNDARY_BASE = {
    "gamma": {"dim": 1, "n": 4, "d": 0.4},
    "analyze": {"dim": 1, "n": 4, "d": 0.4},
    "scan": {"dim": 1, "d": 0.4, "sizes": [4, 5, 6]},
    "sdp": {"dim": 1, "n": 4, "d": 0.4},
    "exact": {"dim": 1, "n": 4, "d": 0.4},
    "kspace": {"dim": 3, "n": 4, "d": 0.4},
    "rydberg": {"table": str(DATA), "n_atoms": 160, "spacing_um": 2.0, "c6": 28.8, "rabi": 4.6,
                "dominant": "53S12-52P32"},
}
FAR_NUMBERS = {"1e308": 1e308, "1e-300": 1e-300, "400-digit": int("9" * 400)}
# id: (command, config, required exit code or None for any of 0, 2, 3, 4, text stderr names)
BOUNDARY = {
    f"{command}-{key}-{label}": (command, {**BOUNDARY_BASE[command], key: value},
                                 *((2, f"config error: {key}:") if label == "400-digit"
                                   else (None, "")))
    for command, schema in SCHEMAS.items()
    for key, rule in schema.items() if rule["type"] == "number"
    for label, value in FAR_NUMBERS.items()
}
BOUNDARY.update({
    "gamma-pol-nan": ("gamma", {**BOUNDARY_BASE["gamma"], "pol": "nan,0,0"}, 2,
                      "config error: polarization"),
    "scan-pol-nan": ("scan", {**BOUNDARY_BASE["scan"], "pol": "nan,0,0"}, 2,
                     "config error: polarization"),
    "analyze-missing-gamma-file": ("analyze", {"gamma_file": "MISSING"}, 2, "no-such-file"),
    "rydberg-missing-table": ("rydberg", {**BOUNDARY_BASE["rydberg"], "table": "MISSING"}, 2,
                              "no-such-file"),
    "kspace-out-is-a-file": ("kspace", {"dim": 1, "n": 8, "d": 0.3}, 2, "File exists"),
    # a 7 PiB grid is past the 64-bit address space: refused before any page is touched
    "kspace-past-memory": ("kspace", {"dim": 3, "n": 100000, "d": 0.4}, 2,
                           "memory error: Unable to allocate"),
})


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("case", BOUNDARY)
def test_boundary_inputs_exit_cleanly(tmp_path, capsys, case):
    # every number key at the edges of the float range, a NaN polarization and unreadable
    # paths: a documented exit code, no traceback, and only strict JSON written
    command, config, code, text = BOUNDARY[case]
    missing = str(tmp_path / "no-such-file")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({k: missing if v == "MISSING" else v for k, v in config.items()}))
    out = tmp_path / "out"
    if case == "kspace-out-is-a-file":
        out.write_text("kept")
    rc = main([command, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code is None:
        assert rc in (0, 2, 3, 4)
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=_refuse_constant)
    else:
        assert rc == code and text in err
        assert out.read_text() == "kept" if out.is_file() else not out.exists()


CHAIN_ARGV = ["analyze", "--dim", "1", "--n", "4", "--d", "0.4"]
BAD_INPUT = {
    "pol-overflow": (CHAIN_ARGV + ["--pol", "1e308,1e308,0"], "polarization '1e308,1e308,0'"),
    "pol-zero": (CHAIN_ARGV + ["--pol", "0,0,0"], "polarization '0,0,0'"),
    "pol-text": (CHAIN_ARGV + ["--pol", "a,b,c"], "cannot parse polarization 'a,b,c'"),
    "scan-no-sizes": (["scan", "--d", "0.4"], "scan needs either sizes or n_min/n_max"),
    "config-list": (["gamma", "--config", "CONFIG"], "config file must hold a JSON object"),
}


@pytest.mark.parametrize("case", BAD_INPUT)
def test_bad_input_exits_2_without_writing(tmp_path, capsys, case):
    # the overflowing norm is refused as given, not as the zero vector it divides down to
    argv, text = BAD_INPUT[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    argv = [str(cfg) if arg == "CONFIG" else arg for arg in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"config error: {text}" in err
    assert not out.exists()


def test_config_integer_past_json_limit_exits_2(tmp_path, capsys):
    # json refuses integers past its digit limit with a ValueError
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"dim": 1, "n": 4, "d": ' + "9" * 5000 + "}")
    out = tmp_path / "out"
    assert main(["gamma", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "cannot read config file" in capsys.readouterr().err


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 1, "n": 4, "d": 0.5, "typo_key": 1}))
    assert main(["gamma", "--config", str(cfg), "--out", str(tmp_path)]) == 2


CHAIN = {"dim": 1, "n": 6, "d": 0.4}
SCHEMA_MISSES = {
    "type": ("gamma", {**CHAIN, "pol": 3}, "pol"),
    "bool-integer": ("gamma", {**CHAIN, "n": True}, "n"),
    "float-n": ("gamma", {**CHAIN, "n": 4.0}, "n"),
    "float-rank": ("sdp", {**CHAIN, "rank": 3.0}, "rank"),
    "float-max-iters": ("sdp", {**CHAIN, "max_iters": 100.0}, "max_iters"),
    "float-dim": ("kspace", {"dim": 3.0, "n": 4, "d": 0.4}, "dim"),
    "float-sizes": ("scan", {"d": 0.4, "sizes": [4.0, 6, 8]}, "sizes"),
    "minimum": ("analyze", {**CHAIN, "sdp_max_n": 1}, "sdp_max_n"),
    "minimum-rank": ("sdp", {**CHAIN, "rank": 1}, "rank"),
    "exclusive-minimum": ("sdp", {**CHAIN, "tol": 0}, "tol"),
    "maximum": ("analyze", {**CHAIN, "exact_max_n": 24}, "exact_max_n"),
    "enum": ("sdp", {**CHAIN, "solver": "foo"}, "solver"),
    "unknown-key": ("gamma", {**CHAIN, "typo_key": 1}, "typo_key"),
    "exact-threads": ("exact", {**CHAIN, "threads": 2}, "threads"),
    "analyze-threads": ("analyze", {**CHAIN, "threads": 2}, "threads"),
    "scan-threads": ("scan", {"d": 0.4, "sizes": [4, 5, 6], "threads": 2}, "threads"),
}


def _run_config(tmp_path, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("case", SCHEMA_MISSES)
def test_config_schema_rule_rejected(tmp_path, case):
    # each config runs once its one offending key is fixed; the schema alone refuses it
    command, config, _ = SCHEMA_MISSES[case]
    assert _run_config(tmp_path, command, config) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", SCHEMA_MISSES)
def test_config_schema_error_names_key(tmp_path, capsys, case):
    command, config, key = SCHEMA_MISSES[case]
    _run_config(tmp_path, command, config)
    assert f"config error: {key}" in capsys.readouterr().err


def test_scan_empty_sizes_config_rejected(tmp_path):
    assert _run_config(tmp_path, "scan", {"d": 0.4, "sizes": []}) == 2
    assert not (tmp_path / "out").exists()


def test_sdp_command(tmp_path):
    rc = main(["sdp", "--dim", "1", "--n", "10", "--d", "0.4", "--pol", "x",
               "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "sdp.json").read_text())
    assert doc["converged"]
    assert doc["rounded_product_value"] <= doc["value"] + 1e-6
    angles = (tmp_path / "product_angles.csv").read_text().splitlines()
    assert angles[0] == "phi" and len(angles) == 11


def test_exact_command(tmp_path):
    rc = main(["exact", "--dim", "1", "--n", "4", "--d", "1e-4", "--pol", "x",
               "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "exact.json").read_text())
    assert abs(doc["rstar_exact"] - 6.0) < 1e-3  # near-Dicke 4-atom cluster


def test_analyze_and_exact_share_the_seed(tmp_path):
    # N = 12 has sectors above MAX_DENSE_DIM, so the Lanczos start reads the seed
    chain = ["--dim", "1", "--n", "12", "--d", "0.2", "--pol", "x", "--seed", "5"]
    assert main(["analyze", *chain, "--sdp-max-n", "2", "--out", str(tmp_path / "a")]) == 0
    assert main(["exact", *chain, "--out", str(tmp_path / "e")]) == 0
    analyzed = json.loads((tmp_path / "a" / "analysis.json").read_text())["exact"]
    exact = json.loads((tmp_path / "e" / "exact.json").read_text())
    assert exact["method"] == "dense+lanczos"
    for key in ("per_sector_max", "rstar_exact"):
        assert json.dumps(analyzed[key]) == json.dumps(exact[key])


@pytest.mark.parametrize("eta", [None, "0.05"])
def test_scan_sdp_estimate_starts_from_the_seed(tmp_path, eta):
    # each point's SDP starts from --seed, with or without a disorder draw
    from corrdecay.coupling import build_coupling_matrices
    from corrdecay.lattice import LatticeSpec, build_array
    from corrdecay.sdp import SdpProblem, solve_low_rank
    from corrdecay.sweep import fit_power_law

    sizes, seed, draws = [4, 6, 8], 5, 1 if eta is None else 2
    argv = ["scan", "--dim", "1", "--d", "0.3", "--pol", "x", "--sizes", "4,6,8",
            "--quantity", "sdp_estimate", "--seed", str(seed), "--out", str(tmp_path)]
    assert main(argv + ([] if eta is None else ["--eta", eta, "--realizations", "2"])) == 0
    rows, means = ["n_atoms,value,stderr"], []
    for p_idx, n in enumerate(sizes):
        values = []
        for r_idx in range(draws):
            lattice_seed = 0 if eta is None else int(np.random.SeedSequence(
                entropy=seed, spawn_key=(p_idx, r_idx)).generate_state(1)[0])
            spec = LatticeSpec(dimension=1, n_per_axis=n, spacing=0.3,
                               disorder_eta=float(eta or 0), seed=lattice_seed)
            problem = SdpProblem.from_coupling(build_coupling_matrices(build_array(spec)))
            values.append(solve_low_rank(problem, seed=seed).rstar_estimate)
        arr = np.asarray(values)
        se = "" if draws == 1 else f"{float(arr.std(ddof=1) / np.sqrt(draws)):.17g}"
        means.append(float(arr.mean()))
        rows.append(f"{n},{means[-1]:.17g},{se}")
    assert (tmp_path / "sweep.csv").read_text() == "\n".join(rows) + "\n"
    fit = fit_power_law(sizes, means).to_json() + "\n"
    assert (tmp_path / "fit.json").read_text() == fit


def test_exact_size_guard(tmp_path):
    assert main(["exact", "--dim", "1", "--n", "25", "--d", "0.4",
                 "--out", str(tmp_path)]) == 2


def test_kspace_command(tmp_path):
    rc = main(["kspace", "--dim", "1", "--n", "64", "--d", "0.25",
               "--pol-tag", "parallel", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "kspace.json").read_text())
    assert abs(doc["gamma_max_grid"] - 3.0) < 0.01
    lines = (tmp_path / "kspace.csv").read_text().splitlines()
    assert lines[0] == "kx,ky,kz,rate"
    assert len(lines) == 65


@pytest.mark.parametrize("dim", [1, 2])
def test_kspace_reg_delta_rejected_below_3d(tmp_path, dim):
    # the regularizer only enters 3D rates; elsewhere it would be recorded but unused
    assert main(["kspace", "--dim", str(dim), "--n", "8", "--d", "0.3", "--reg-delta", "0.5",
                 "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "kspace.json").exists()


@pytest.mark.parametrize("n", ["4", "2"])
def test_kspace_grid_offset_past_light_line_exits_2(tmp_path, n):
    assert main(["kspace", "--dim", "2", "--n", n, "--d", "0.1", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "kspace.json").exists()


def test_kspace_1d_grid_offset_past_light_line_exits_2(tmp_path):
    # d (N_1D + 1) = 0.5: the 1D grid step exceeds the light-cone radius
    assert main(["kspace", "--dim", "1", "--n", "4", "--d", "0.1", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "kspace.json").exists()


def test_kspace_outputs_repeat_byte_identical(tmp_path):
    argv = ["kspace", "--dim", "3", "--n", "6", "--d", "0.4", "--pol-tag", "perpendicular"]
    for name in ("a", "b"):
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
    for name in ("kspace.csv", "kspace.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_rydberg_command(tmp_path):
    rc = main(["rydberg", "--table", str(DATA), "--n-atoms", "160",
               "--spacing-um", "2.0", "--c6", "28.8", "--rabi", "4.6",
               "--dominant", "53S12-52P32", "--exact-gamma-max-hz", "176",
               "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "rydberg.json").read_text())
    assert abs(doc["chi"] - 7.25e-6) < 0.02 * 7.25e-6


def test_rydberg_missing_dominant(tmp_path):
    rc = main(["rydberg", "--table", str(DATA), "--n-atoms", "160",
               "--spacing-um", "2.0", "--c6", "28.8", "--rabi", "4.6",
               "--dominant", "not-a-row", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("row, text", [
    ("A,abc,1.0,0.1", "line 2 ('A') has a missing or non-numeric field"),
    ("A,1.0,1.0", "line 2 ('A') has a missing or non-numeric field"),
    ("A,nan,1.0,0.1", "invalid transition row 'A'"),
    ("A,1.0,1.0,inf", "invalid transition row 'A'"),
    ("A,1.0,1.0,0.1,junk", "line 2 ('A') has more than 4 fields"),
    ("A,1.0,1.0,0.1\nA,2.0,5.0,0.0", "transition label 'A' appears more than once"),
], ids=["non-numeric", "short-row", "nan", "inf", "long-row", "duplicate-label"])
def test_rydberg_malformed_table_exits_2(tmp_path, capsys, row, text):
    # exit 2 with the row named, no traceback, and nothing written
    table = tmp_path / "table.csv"
    table.write_text(f"label,wavelength_um,gamma0_2pi_hz,nbar\n{row}\n")
    out = tmp_path / "out"
    rc = main(["rydberg", "--table", str(table), "--n-atoms", "160", "--spacing-um", "2.0",
               "--c6", "28.8", "--rabi", "4.6", "--dominant", "A", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and text in err and "Traceback" not in err
    assert not out.exists()


def test_rydberg_requires_table(tmp_path):
    rc = main(["rydberg", "--n-atoms", "160", "--spacing-um", "2.0", "--c6", "28.8",
               "--rabi", "4.6", "--dominant", "x", "--out", str(tmp_path)])
    assert rc == 2


def test_analyze_emits_momentum_distribution(tmp_path):
    rc = main(["analyze", "--dim", "1", "--n", "12", "--d", "0.3", "--pol", "x",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "momentum.csv").read_text().splitlines()
    assert lines[0] == "kx,ky,kz,weight"
    weights = np.array([float(l.split(",")[3]) for l in lines[1:]])
    assert abs(weights.sum() - 1.0) < 1e-10


def test_sdp_nonconvergence_exit_code(tmp_path):
    rc = main(["sdp", "--dim", "1", "--n", "40", "--d", "0.4", "--pol", "x",
               "--max-iters", "3", "--out", str(tmp_path)])
    assert rc == 4
    doc = json.loads((tmp_path / "sdp.json").read_text())
    assert not doc["converged"]  # best-so-far is still reported


def test_sdp_rank_help_names_the_start_rank():
    from corrdecay.sdp import START_RANK

    text = SCHEMAS["sdp"]["rank"]["description"]
    assert f"default min({START_RANK}, N)" in text and "at most N" in text


def test_sdp_rank_is_at_most_n(tmp_path, capsys):
    # the N=4 chain starts, and stays, at rank min(8, 4); a start rank above N is refused
    chain = ["sdp", "--dim", "1", "--n", "4", "--d", "0.4"]
    assert main(chain + ["--out", str(tmp_path / "default")]) == 0
    assert json.loads((tmp_path / "default" / "sdp.json").read_text())["rank"] == 4
    capsys.readouterr()
    out = tmp_path / "rank8"
    assert main(chain + ["--rank", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: rank must be in [1, 4]\n"
    assert not out.exists()


Z_CHAIN = ["sdp", "--dim", "1", "--n", "200", "--d", "0.4", "--pol", "z"]


@pytest.mark.parametrize("seed", ["0", "1"])
def test_sdp_budget_stop_with_closed_gap_exits_0(tmp_path, seed):
    # a chain polarized along its axis has not settled after 1000 iterations from
    # either start, but its certified gap (3.9e-4 and 4.5e-4) decides the verdict
    rc = main(Z_CHAIN + ["--seed", seed, "--max-iters", "1000", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "sdp.json").read_text())
    assert doc["converged"] and doc["iterations"] == 1000
    assert doc["gap"] <= 1e-3


def test_sdp_open_gap_exits_4_after_writing(tmp_path):
    # 300 iterations leave a certified gap of 1.6e-3 to 2.3e-3: the best-so-far
    # outputs and the manifest are written, then the run exits 4
    assert main(Z_CHAIN + ["--max-iters", "300", "--out", str(tmp_path)]) == 4
    doc = json.loads((tmp_path / "sdp.json").read_text())
    assert not doc["converged"] and doc["gap"] > 1e-3
    assert doc["value"] <= doc["dual_bound"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["outputs"] == [str(tmp_path / name) for name in ("sdp.json",
                                                                     "product_angles.csv")]


def test_scan_flags_unconverged_sdp_points(tmp_path, capsys, monkeypatch):
    from corrdecay import sdp

    monkeypatch.setattr(sdp, "GAP_TOL", -1.0)  # no certified gap is small enough
    rc = main(["scan", "--dim", "1", "--d", "0.4", "--sizes", "4,5,6",
               "--quantity", "sdp_estimate", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["nan"] * 3
    assert not (tmp_path / "fit.json").exists()
    err = capsys.readouterr().err
    assert "3 sweep rows flagged: SolverConvergenceError: certified SDP gap" in err


def test_analyze_unconverged_sdp_exits_4(tmp_path, capsys, monkeypatch):
    from corrdecay import sdp

    monkeypatch.setattr(sdp, "GAP_TOL", -1.0)
    out = tmp_path / "out"
    assert main(["analyze", "--dim", "1", "--n", "8", "--d", "0.4", "--out", str(out)]) == 4
    assert not out.exists()
    assert "solver error: certified SDP gap" in capsys.readouterr().err


def child_env():
    """os.environ with the corrdecay tree under test first on a child's PYTHONPATH."""
    paths = [str(Path(corrdecay.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "corrdecay.cli", "gamma", "--dim", "1", "--n", "3",
         "--d", "0.5", "--out", str(tmp_path)],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "coupling.csv").exists()


COLD_START = """
import sys
from corrdecay.cli import main
from corrdecay.coupling import build_export_matrices, write_coupling_csv
from corrdecay.lattice import LatticeSpec, build_array

out = sys.argv[1]
spec = LatticeSpec(dimension=2, n_per_axis=4, spacing=0.4, disorder_eta=0.05, seed=3)
write_coupling_csv(build_export_matrices(build_array(spec)), out + "/coupling.csv")
for argv in (["gamma", "--dim", "2", "--n", "4", "--d", "0.4", "--eta", "0.05",
              "--output-format", "both"],
             ["analyze", "--dim", "1", "--n", "4", "--d", "0.3", "--pol", "z"],
             ["kspace", "--dim", "3", "--n", "4", "--d", "0.4"],
             ["scan", "--dim", "2", "--d", "0.4", "--sizes", "3,4,5", "--eta", "0.05",
              "--realizations", "2"]):
    assert main(argv + ["--out", out + "/" + argv[0]]) == 0, argv
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("scipy", "jsonschema") or m in ("numpy.ma", "concurrent.futures")))
"""


def test_cold_start_imports_no_scipy(tmp_path):
    # a fresh interpreter runs the disordered export and the CLI (a disordered scan too) on
    # numpy alone, importing neither scipy nor jsonschema nor numpy.ma nor concurrent.futures
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "coupling.csv").exists() and (tmp_path / "gamma" / "coupling.csv").exists()
    assert "scipy" not in json.loads((tmp_path / "gamma" / "manifest.json").read_text())["versions"]


def test_import_loads_no_submodule():
    # names are imported from their modules: the package itself holds only __version__
    tomllib = pytest.importorskip("tomllib")
    code = "import sys, corrdecay; print(sorted(m for m in sys.modules if m.startswith('corrdecay.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert corrdecay.__version__ == tomllib.loads(pyproject)["project"]["version"]


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_parser_follows_schema(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parser = sub.choices[command]
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    assert set(actions) == set(SCHEMAS[command])
    for key, rule in SCHEMAS[command].items():
        assert actions[key].option_strings == ["--" + key.replace("_", "-")]
        assert actions[key].choices == rule.get("enum")
        default = f" (default {rule['default']})" if "default" in rule else ""
        assert rule["description"] != "" and actions[key].help == rule["description"] + default
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_help_names_every_default(capsys, command):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps long help lines
    defaults = {key: rule["default"] for key, rule in SCHEMAS[command].items() if "default" in rule}
    assert "out" in defaults
    for key, value in defaults.items():
        assert f"(default {value})" in text, key


@pytest.mark.parametrize("solver", ["solve_low_rank", "solve_projection"])
def test_sdp_schema_defaults_are_the_solver_defaults(solver):
    import inspect

    from corrdecay import sdp

    params = inspect.signature(getattr(sdp, solver)).parameters
    for key in ("max_iters", "tol"):
        assert SCHEMAS["sdp"][key]["default"] == params[key].default


# the keys each run needs, as flags; scan also needs a size list, which no one key is
MINIMAL = {
    "gamma": {"dim": "1", "n": "4", "d": "0.4"},
    "analyze": {"dim": "1", "n": "4", "d": "0.4"},
    "scan": {"d": "0.4", "sizes": "4,5,6"},
    "sdp": {"dim": "1", "n": "6", "d": "0.4"},
    "exact": {"dim": "1", "n": "4", "d": "0.4"},
    "kspace": {"dim": "1", "n": "16", "d": "0.25"},
    "rydberg": {"table": "table.csv", "n_atoms": "160", "spacing_um": "2.0", "c6": "28.8",
                "rabi": "4.6", "dominant": "53S12-52P32"},
}
REQUIRED = {command: [key for key in flags if key != "sizes"] for command, flags in MINIMAL.items()}


def _argv(command, flags):
    return [command] + [arg for key, value in flags.items()
                        for arg in ("--" + key.replace("_", "-"), value)]


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_schema_marks_the_required_keys(command):
    assert [key for key, rule in SCHEMAS[command].items() if rule.get("required")] == \
        REQUIRED[command]


@pytest.mark.parametrize("command, key", [(command, key) for command, keys in REQUIRED.items()
                                          for key in keys])
def test_missing_required_key_exits_2(tmp_path, capsys, command, key):
    flags = {name: value for name, value in MINIMAL[command].items() if name != key}
    out = tmp_path / "out"
    assert main(_argv(command, flags) + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: missing required key '{key}'\n"
    assert not out.exists()


# config_sha256 of each MINIMAL run's config, which holds the given keys only
MINIMAL_SHA256 = {
    "gamma": "070656dbf573b5b094de46799030c39469c46536222878a85144f675df1cdb62",
    "analyze": "070656dbf573b5b094de46799030c39469c46536222878a85144f675df1cdb62",
    "scan": "86566d87ef288c5eef92f0c33a6e2915543722449e12a9b9150b7b950b39155f",
    "sdp": "2725bf15f33a6d8d675c6d0ac8bc913010faf7372d85dfd931931ef36b5140f7",
    "exact": "070656dbf573b5b094de46799030c39469c46536222878a85144f675df1cdb62",
    "kspace": "02982fc57d8efeb556e6e8d42f87b839d954b3eda1aef70d8fe4f22554d9dd59",
    "rydberg": "491838f8986b4a04d3a6730585754dc2316a11827bd56079a8369114040ad918",
}


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_manifest_records_only_the_given_keys(tmp_path, monkeypatch, command):
    # the run reads the schema defaults (out = ".") but records and hashes only what it was given
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.csv").write_bytes(DATA.read_bytes())
    assert main(_argv(command, MINIMAL[command])) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest["config"]) == set(MINIMAL[command])
    assert manifest["config_sha256"] == MINIMAL_SHA256[command]


def test_exact_gamma_file_needs_no_lattice_key(tmp_path):
    from corrdecay.coupling import write_matrix_binary

    write_matrix_binary(np.eye(4), tmp_path / "gamma.bin")
    assert main(["exact", "--gamma-file", str(tmp_path / "gamma.bin"), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "exact.json").read_text())["rstar_exact"] == pytest.approx(4.0)


def test_scan_without_dim_runs_1d(tmp_path):
    assert main(SCAN + ["--out", str(tmp_path / "1d")]) == 0
    assert main(SCAN[:1] + SCAN[3:] + ["--out", str(tmp_path / "default")]) == 0
    for name in ("sweep.csv", "fit.json"):
        assert (tmp_path / "1d" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()


@pytest.mark.parametrize("error, code, label", [
    (errors.ConfigError("bad key"), 2, "config error"),
    (errors.PhysicsValidationError("not PSD"), 3, "physics validation error"),
    (errors.CoincidentEmittersError(0, 1), 3, "physics validation error"),
    (errors.SolverConvergenceError("gap open"), 4, "solver error"),
    (errors.CertificateError("cap exceeded"), 4, "solver error"),
    (errors.DivergentModeError("on the light line"), 2, "error"),
    (errors.CorrdecayError("base"), 2, "error"),
], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
def test_exit_code_follows_the_error_class(tmp_path, capsys, monkeypatch, error, code, label):
    # a command that wrote a file and then raised still gets its manifest
    from corrdecay import cli

    def failing(config, run):
        run.path("partial.txt").write_text("written before the error\n")
        raise error

    monkeypatch.setitem(cli.COMMANDS, "kspace", (failing, "raises"))
    out = tmp_path / "out"
    assert main(_argv("kspace", MINIMAL["kspace"]) + ["--out", str(out)]) == code
    assert capsys.readouterr().err == f"{label}: {error}\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == [str(out / "partial.txt")]


def _readme_cli_lines():
    """Every `corrdecay ...` command of the README's CLI block, continuations joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    text = block.replace("\\\n", " ")
    return [line.split("#", 1)[0].split()[1:] for line in text.splitlines()
            if line.startswith("corrdecay ")]


def test_readme_cli_examples_parse():
    # a renamed flag or a new required key fails here instead of leaving the README wrong
    from corrdecay.cli import _merge_config

    examples = _readme_cli_lines()
    assert sorted(argv[0] for argv in examples) == sorted(SCHEMAS)
    for argv in examples:
        _merge_config(build_parser().parse_args(argv))


def test_readme_package_layout_lists_every_module():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Package layout", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("`")[1] for line in section.splitlines() if line.startswith("| `corrdecay.")]
    modules = [f"corrdecay.{path.stem}" for path in Path(corrdecay.__file__).parent.glob("*.py")
               if path.stem != "__init__"]
    assert sorted(rows) == sorted(modules)
