"""Command-line front end: seeded, reproducible runs emitting CSV/JSON.

Subcommands: gamma, analyze, scan, sdp, exact, kspace, rydberg.
Exit codes: 0 success, 2 config error (also an unreadable path, a number past the
float arithmetic or a size past memory), 3 physics-validation error, 4 solver
non-convergence.
Config precedence: flags > --config file > defaults.
Every run that writes a file also writes a manifest (config hash, seed,
versions, wall time) next to its outputs, even when it then fails. Omitted
seeds fall back to a fixed documented constant, never the wall clock.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import operator
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import bounds_report, driven_report
from .coupling import (
    PsdDiagnostic,
    build_coupling_matrices,
    build_export_matrices,
    gamma_eigensolve,
    read_matrix_binary,
    validate_psd,
    validated_coupling,
    write_coupling_csv,
    write_matrix_binary,
)
from .errors import ConfigError, CorrdecayError, PhysicsValidationError, SolverConvergenceError
from .exactdiag import MAX_QUBITS, exact_rstar
from .kspace import POL_TAGS, gamma_k_grid
from .lattice import MAX_ATOMS, LatticeSpec, build_array, unit_polarization
from .rydberg import RydbergInput, read_transition_table, rydberg_report
from .sdp import (DEFAULT_TOL, GAP_TOL, START_RANK, SdpProblem, round_to_product_state,
                  sdp_certificates, solve_low_rank, solve_projection)
from .spectral import decompose, momentum_distribution, spectrum_to_csv
from .sweep import (QUANTITIES, DisorderSpec, SweepPlan, csv_row_writer, fit_table, run_sweep,
                    sweep_sizes)

DEFAULT_SEED = 20250810  # fixed fallback so omitted seeds stay reproducible

POL_PRESETS = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}

_LATTICE_KEYS = {
    "dim": {"type": "integer", "enum": [1, 2, 3], "description": "lattice dimensionality"},
    "n": {"type": "integer", "minimum": 1, "description": "emitters per axis (N = n**dim)"},
    "d": {"type": "number", "exclusiveMinimum": 0,
          "description": "lattice constant in units of lambda0"},
    "pol": {"type": "string", "description": "polarization: x|y|z or 'px,py,pz'"},
    "eta": {"type": "number", "minimum": 0,
            "description": "Gaussian position disorder in units of d"},
    "seed": {"type": "integer", "description": f"RNG seed (default {DEFAULT_SEED})"},
}

_GLOBAL_KEYS = {"out": {"type": "string", "description": "output directory (default .)"}}

_GAMMA_FILE_KEY = {"gamma_file": {"type": "string", "description": "binary gamma matrix input"}}

SCHEMAS = {
    "gamma": {
        **_LATTICE_KEYS,
        **_GLOBAL_KEYS,
        "output_format": {"type": "string", "enum": ["csv", "binary", "both"],
                          "description": "matrix output format"},
    },
    "analyze": {
        **_LATTICE_KEYS,
        **_GLOBAL_KEYS,
        **_GAMMA_FILE_KEY,
        "exact_max_n": {"type": "integer", "minimum": 2, "maximum": MAX_QUBITS,
                        "description": "largest N for the exact section "
                                       f"(default 14, cap {MAX_QUBITS})"},
        "sdp_max_n": {"type": "integer", "minimum": 2,
                      "description": "largest N for the SDP section (default 2000)"},
    },
    "scan": {
        **{key: rule for key, rule in _LATTICE_KEYS.items() if key != "n"},
        **_GLOBAL_KEYS,
        "quantity": {"type": "string", "enum": list(QUANTITIES),
                     "description": "rate recorded per point (default gamma_max)"},
        "sizes": {"type": "array", "items": {"type": "integer", "minimum": 1},
                  "description": "explicit comma-separated N_1D list"},
        "n_min": {"type": "integer", "minimum": 2, "description": "smallest N_1D of a size range"},
        "n_max": {"type": "integer", "minimum": 2, "description": "largest N_1D of a size range"},
        "count": {"type": "integer", "minimum": 3,
                  "description": "number of sweep points (default 7)"},
        "spacing_mode": {"type": "string", "enum": ["geometric", "linear"],
                         "description": "spacing of the n_min..n_max sizes (default geometric)"},
        "realizations": {"type": "integer", "minimum": 1,
                         "description": "disorder realizations per point"},
    },
    "sdp": {
        **_LATTICE_KEYS,
        **_GLOBAL_KEYS,
        **_GAMMA_FILE_KEY,
        "solver": {"type": "string", "enum": ["lowrank", "projection"],
                   "description": "low-rank ascent (default) or dense projection "
                                  "reference (N <= 400)"},
        "rank": {"type": "integer", "minimum": 2,
                 "description": f"starting rank (default {START_RANK})"},
        "max_iters": {"type": "integer", "minimum": 1,
                      "description": "iteration budget over all rounds (default 20000)"},
        "tol": {"type": "number", "exclusiveMinimum": 0,
                "description": f"span tolerance ending an ascent round (default {DEFAULT_TOL}); "
                               f"the exit code comes from the certified gap (<= {GAP_TOL})"},
    },
    "exact": {
        **_LATTICE_KEYS,
        **_GLOBAL_KEYS,
        **_GAMMA_FILE_KEY,
    },
    "kspace": {
        **_GLOBAL_KEYS,
        "dim": _LATTICE_KEYS["dim"],
        "n": {"type": "integer", "minimum": 2, "description": "grid points per axis"},
        "d": _LATTICE_KEYS["d"],
        "pol_tag": {"type": "string", "enum": list(POL_TAGS),
                    "description": "dipoles parallel (default) or perpendicular to the "
                                   "chain or plane; 3D ignores it"},
        "reg_delta": {"type": "number", "exclusiveMinimum": 0,
                      "description": "3D light-line regularizer (default: grid offset)"},
    },
    "rydberg": {
        **_GLOBAL_KEYS,
        "table": {"type": "string",
                  "description": "transition CSV: label,wavelength_um,gamma0_2pi_hz,nbar"},
        "n_atoms": {"type": "integer", "minimum": 2, "description": "atoms in the array"},
        "spacing_um": {"type": "number", "exclusiveMinimum": 0, "description": "spacing in um"},
        "c6": {"type": "number", "exclusiveMinimum": 0, "description": "C6 in 2*pi*GHz*um^6"},
        "rabi": {"type": "number", "exclusiveMinimum": 0,
                 "description": "two-photon Rabi frequency in 2*pi*MHz"},
        "dominant": {"type": "string",
                     "description": "label of the dominant collective transition"},
        "exact_gamma_max_hz": {"type": "number", "exclusiveMinimum": 0,
                               "description": "externally computed collective "
                                              "gamma_max in 2*pi*Hz"},
    },
}


_TYPES = {"integer": int, "number": (int, float), "string": str, "array": list}
_CHECKS = {"enum": lambda value, allowed: value in allowed, "minimum": operator.ge,
           "exclusiveMinimum": operator.gt, "maximum": operator.le}


def _check(key: str, value, rule: dict):
    """value, a number as a finite float, or ConfigError naming key if it is outside its rule
    (a bool is no number, 4.0 no integer)."""
    if isinstance(value, bool) or not isinstance(value, _TYPES[rule["type"]]):
        raise ConfigError(f"{key}: {value!r} is not of type '{rule['type']}'")
    if rule["type"] == "number":  # json reads integers of any length; argparse and json read inf
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{key}: {value!r:.30} is not a finite number")
        value = float(value)
    for item in value if rule["type"] == "array" else ():
        _check(key, item, rule["items"])
    for word, holds in _CHECKS.items():
        if word in rule and not holds(value, rule[word]):
            raise ConfigError(f"{key}: {value!r} violates {word} {rule[word]}")
    return value


def _merge_config(args: argparse.Namespace) -> dict:
    """Config file keys overridden by every flag given, each checked against SCHEMAS and read."""
    config = {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or a too-long integer
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")
    config.update({name: value for name, value in vars(args).items()
                   if value is not None and name not in ("command", "config")})
    schema = SCHEMAS[args.command]
    for key, value in config.items():
        if key not in schema:
            raise ConfigError(f"{key}: {args.command} takes no such key")
        config[key] = _check(key, value, schema[key])
    for key, why in _unread(args.command, config).items():
        if key in config:
            raise ConfigError(f"{key}: {args.command} does not read it {why}")
    return config


def _unread(command: str, config: dict) -> dict:
    """{key: why} for each key of SCHEMAS[command] that a run of config would not read."""
    unread = {}
    if "gamma_file" in config:
        unread.update((key, "next to gamma_file") for key in _LATTICE_KEYS if key != "seed")
    if "sizes" in config:
        unread.update(dict.fromkeys(("n_min", "n_max", "count", "spacing_mode"), "next to sizes"))
    projection = config.get("solver") == "projection"
    if projection:
        unread["rank"] = "with the projection solver"
    if not config.get("eta", 0.0) > 0:
        unread["realizations"] = "without disorder (eta > 0)"
        if (command == "gamma" or projection
                or command == "scan" and config.get("quantity") != "sdp_estimate"):
            unread["seed"] = "when nothing is drawn (eta = 0 and no SDP start)"
    return {key: why for key, why in unread.items() if key in SCHEMAS[command]}


def _parse_pol(text: str):
    if text in POL_PRESETS:
        return POL_PRESETS[text]
    try:
        vec = np.array(text.split(","), dtype=float)
    except ValueError as exc:
        raise ConfigError(f"cannot parse polarization {text!r}") from exc
    with np.errstate(over="ignore"):  # a norm past the float range reads inf
        norm = np.linalg.norm(vec)
    if not 0 < norm < np.inf:
        raise ConfigError(f"polarization {text!r} needs a nonzero norm within the float range")
    return unit_polarization(vec / norm)


def _require(config: dict, *keys: str) -> None:
    for key in keys:
        if key not in config:
            raise ConfigError(f"missing required key '{key}'")


def _lattice_from_config(config: dict) -> LatticeSpec:
    _require(config, "dim", "n", "d")
    return LatticeSpec(
        dimension=config["dim"],
        n_per_axis=config["n"],
        spacing=config["d"],
        polarization=_parse_pol(config.get("pol", "x")),
        disorder_eta=config.get("eta", 0.0),
        seed=config.get("seed", DEFAULT_SEED),
    )


def _coupling_from_config(config: dict):
    """(coupling matrices, atom array) of a lattice spec, or (matrices, None) of gamma_file."""
    if "gamma_file" in config:
        return validated_coupling(read_matrix_binary(config["gamma_file"])), None
    array = build_array(_lattice_from_config(config))
    return build_coupling_matrices(array), array


@dataclass
class Run:
    """Where one command writes: its output directory, created with the first file,
    and every file written there in order, which main lists in the manifest."""

    out: Path
    outputs: list = field(default_factory=list)

    def path(self, name: str) -> Path:
        """Path of a new output file in the output directory, recorded as an output."""
        self.out.mkdir(parents=True, exist_ok=True)
        self.outputs.append(self.out / name)
        return self.outputs[-1]

    def write_json(self, name: str, doc) -> None:
        self.path(name).write_text(json.dumps(doc, indent=2) + "\n")


def _write_manifest(run: Run, command: str, config: dict, wall_time_s: float) -> None:
    """manifest.json of a run; its outputs are the files the command wrote, in order."""
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode()
    ).hexdigest()
    manifest = {"command": command, "config": config, "config_sha256": digest}
    if "seed" in SCHEMAS[command] and "seed" not in _unread(command, config):
        manifest["seed"] = config.get("seed", DEFAULT_SEED)
    manifest.update({
        "versions": {
            "corrdecay": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": wall_time_s,
        "outputs": [str(p) for p in run.outputs],
    })
    run.write_json("manifest.json", manifest)


def cmd_gamma(config: dict, run: Run) -> int:
    spec = _lattice_from_config(config)
    mats = build_export_matrices(build_array(spec))
    diag = validate_psd(mats)
    fmt = config.get("output_format", "csv")
    if fmt in ("csv", "both"):
        write_coupling_csv(mats, run.path("coupling.csv"))
    if fmt in ("binary", "both"):
        write_matrix_binary(mats.gamma, run.path("gamma.bin"))
        write_matrix_binary(mats.jmat, run.path("jmat.bin"))
    run.write_json("psd.json", diag.to_dict())
    run.path("lattice.json").write_text(spec.to_json() + "\n")
    diag.require()
    print(f"wrote {len(run.outputs)} files to {run.out} (N = {mats.n})")
    return 0


def cmd_analyze(config: dict, run: Run) -> int:
    mats, array = _coupling_from_config(config)
    seed = config.get("seed", DEFAULT_SEED)  # of the SDP and Lanczos starts
    summary = decompose(mats)
    diag = PsdDiagnostic.of(summary.eigenvalues[-1], mats.gamma0).require()
    bounds = bounds_report(summary, mats)
    doc = {
        "n": mats.n,
        "psd": diag.to_dict(),
        "spectral": {
            "gamma_max": summary.gamma_max,
            "delta": summary.delta,
            "degeneracy": summary.degeneracy,
            "eigensolver": summary.eigensolver,
            "trace": float(np.sum(summary.eigenvalues)),
        },
        "bounds": asdict(bounds),
    }
    if array is not None:
        spec = array.source_spec
        doc["lattice"] = asdict(spec)
        doc["driven"] = asdict(driven_report(summary, bounds, mats, spec.dimension, spec.spacing))
    if mats.n <= config.get("sdp_max_n", 2000):
        problem = SdpProblem.from_coupling(mats)
        sol = solve_low_rank(problem, seed=seed)
        sol.require_converged()
        sdp_certificates(problem, sol, summary.gamma_max)
        doc["sdp"] = sol.to_dict()
    if mats.n <= config.get("exact_max_n", 14):
        doc["exact"] = asdict(exact_rstar(mats, seed=seed))
    run.write_json("analysis.json", doc)
    spectrum_to_csv(summary, run.path("spectrum.csv"))
    if mats.table is not None:  # an ordered array
        momentum_distribution(summary.dominant_vec, array).to_csv(run.path("momentum.csv"))
    print(f"analysis written to {run.out / 'analysis.json'}")
    return 0


def cmd_scan(config: dict, run: Run) -> int:
    _require(config, "d")
    if "sizes" in config:
        sizes = config["sizes"]
    elif "n_min" in config and "n_max" in config:
        sizes = sweep_sizes(config["n_min"], config["n_max"], config.get("count", 7),
                            config.get("spacing_mode", "geometric"))
    else:
        raise ConfigError("scan needs either sizes or n_min/n_max")
    disorder = DisorderSpec(eta=config.get("eta", 0.0), seed=config.get("seed", DEFAULT_SEED),
                            n_realizations=config.get("realizations", 1))
    plan = SweepPlan(
        dimension=config.get("dim", 1),
        spacing=config["d"],
        polarization=_parse_pol(config.get("pol", "x")),
        n_1d_values=sizes,
        quantity=config.get("quantity", "gamma_max"),
        disorder=disorder,
    )
    with open(run.path("sweep.csv"), "w") as fh:
        table = run_sweep(plan, on_row=csv_row_writer(fh))
    if len(table.clean()) >= 3:
        fit = fit_table(table)
        run.path("fit.json").write_text(fit.to_json() + "\n")
        print(f"fit: alpha = {fit.alpha:.4f} +- {fit.alpha_ci_1sigma:.4f}, "
              f"beta = {fit.beta:.4f}, r^2 = {fit.r_squared:.4f}, accepted = {fit.accepted}")
    failed = [r for r in table.rows if r.error is not None]
    if failed:
        print(f"{len(failed)} sweep rows flagged: {failed[0].error}", file=sys.stderr)
    return 0


def cmd_sdp(config: dict, run: Run) -> int:
    mats, _ = _coupling_from_config(config)
    rates = gamma_eigensolve(mats)[0]
    PsdDiagnostic.of(rates[0], mats.gamma0).require()
    problem = SdpProblem.from_coupling(mats)
    limits = {key: config[key] for key in ("max_iters", "tol") if key in config}
    if config.get("solver", "lowrank") == "lowrank":
        sol = solve_low_rank(problem, rank=config.get("rank"),
                             seed=config.get("seed", DEFAULT_SEED), **limits)
    else:
        sol = solve_projection(problem, **limits)
    cert = sdp_certificates(problem, sol, float(rates[-1]))
    rounding = round_to_product_state(sol, problem)
    doc = sol.to_dict()
    doc["certificates"] = cert
    doc["rounded_product_value"] = rounding.value
    doc["rounded_rstar_witness"] = rounding.value + 0.5 * mats.n * mats.gamma0
    run.write_json("sdp.json", doc)
    np.savetxt(run.path("product_angles.csv"), rounding.angles[:, None], fmt="%.17g",
               delimiter=",", header="phi", comments="")
    sol.require_converged()  # after the best-so-far outputs are written
    print(f"sdp value = {sol.value:.6f}, rstar_estimate = {sol.rstar_estimate:.6f}")
    return 0


def cmd_exact(config: dict, run: Run) -> int:
    mats, _ = _coupling_from_config(config)
    validate_psd(mats).require()
    result = exact_rstar(mats, seed=config.get("seed", DEFAULT_SEED))
    run.write_json("exact.json", asdict(result))
    print(f"rstar_exact = {result.rstar_exact:.9f} (sector m = {result.argmax_sector})")
    return 0


def cmd_kspace(config: dict, run: Run) -> int:
    _require(config, "dim", "n", "d")
    grid = gamma_k_grid(config["dim"], config["d"], config.get("pol_tag", "parallel"),
                        config["n"], config.get("reg_delta"))
    grid.to_csv(run.path("kspace.csv"))
    summary = {
        "dimension": grid.dimension,
        "n_per_axis": config["n"],
        "pol_tag": grid.pol_tag,
        "gamma_max_grid": float(grid.rates.max()),
        "reg_delta": grid.reg_delta,
    }
    run.write_json("kspace.json", summary)
    print(f"grid gamma_max = {summary['gamma_max_grid']:.6f}")
    return 0


def cmd_rydberg(config: dict, run: Run) -> int:
    _require(config, "table", "n_atoms", "spacing_um", "c6", "rabi", "dominant")
    rows = read_transition_table(config["table"])
    inp = RydbergInput(
        n_atoms=config["n_atoms"],
        spacing_um=config["spacing_um"],
        c6_2pi_ghz_um6=config["c6"],
        rabi_2pi_mhz=config["rabi"],
        transitions=rows,
        dominant_label=config["dominant"],
        exact_gamma_max_2pi_hz=config.get("exact_gamma_max_hz"),
    )
    report = rydberg_report(inp)
    run.write_json("rydberg.json", asdict(report))
    print(f"chi = {report.chi:.6e}, gate_error = {report.gate_error:.6e}")
    return 0


COMMANDS = {
    "gamma": (cmd_gamma, "build and export the coupling matrices"),
    "analyze": (cmd_analyze, "spectral summary, bounds, SDP, driven report "
                             "and (small N) exact rate in one JSON"),
    "scan": (cmd_scan, "N-sweep of a rate quantity plus power-law fit"),
    "sdp": (cmd_sdp, "solve the product-state SDP relaxation"),
    "exact": (cmd_exact, "sector-resolved exact maximal decay rate"),
    "kspace": (cmd_kspace, "spin-wave rates on the finite-array grid"),
    "rydberg": (cmd_rydberg, "collective-decay gate-error estimator"),
}


_FLAG_TYPES = {"integer": int, "number": float, "string": str,
               "array": lambda text: [int(t) for t in text.split(",")]}


def build_parser() -> argparse.ArgumentParser:
    """One flag per SCHEMAS key: --key-with-dashes, typed, enum as choices."""
    parser = argparse.ArgumentParser(
        prog="corrdecay",
        description="Collective decay rates of dipole-coupled emitter arrays: "
                    "coupling matrices, analytic bounds, SDP relaxation, exact "
                    f"small-N diagonalization and scaling fits. Dense storage "
                    f"caps the atom number at {MAX_ATOMS}.",
    )
    parser.add_argument("--version", action="version", version=f"corrdecay {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="JSON config file (flags override it)")
        for key, rule in SCHEMAS[command].items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=_FLAG_TYPES[rule["type"]],
                           choices=rule.get("enum"), help=rule.get("description"))
    return parser


def main(argv=None) -> int:
    """Run one command. Any run that wrote a file gets its manifest.json, also when
    the command then fails."""
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        config = _merge_config(args)
        run = Run(Path(config.get("out", ".")))
        try:
            return COMMANDS[args.command][0](config, run)
        finally:
            if run.outputs:
                _write_manifest(run, args.command, config, time.time() - t0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PhysicsValidationError as exc:
        print(f"physics validation error: {exc}", file=sys.stderr)
        return 3
    except SolverConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    except CorrdecayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a path that cannot be read or written; it names the path
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a number past what the float arithmetic holds
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size past memory; numpy's message names the shape
        print(f"memory error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
