import numpy as np
import pytest

from corrdecay import sweep
from corrdecay.errors import ConfigError
from corrdecay.sweep import (
    DisorderSpec,
    SweepPlan,
    csv_row_writer,
    fit_power_law,
    fit_table,
    run_sweep,
    sweep_sizes,
)


def test_fit_exact_power_law():
    fit = fit_power_law([16, 256, 4096], [4.0, 8.0, 16.0])
    assert np.isclose(fit.alpha, 0.25, atol=1e-12)
    assert np.isclose(fit.beta, 2.0, atol=1e-10)
    assert np.isclose(fit.r_squared, 1.0)
    assert fit.accepted and not fit.degenerate


def test_fit_constant_data_degenerate():
    fit = fit_power_law([10, 100, 1000], [3.7, 3.7, 3.7])
    assert fit.alpha == 0.0
    assert np.isclose(fit.beta, 3.7)
    assert not fit.accepted
    assert fit.degenerate


def test_fit_rejects_bad_input():
    with pytest.raises(ConfigError):
        fit_power_law([10, 100], [1.0, 2.0])
    with pytest.raises(ConfigError):
        fit_power_law([10, 100, 1000], [1.0, -2.0, 3.0])
    with pytest.raises(ConfigError, match="pairs"):
        fit_power_law([10, 100, 1000], [1.0, 2.0])
    for sizes in ([0, 1, 2], [-1, 2, 3], [1, 2, np.nan], [1, 2, np.inf], [4, 4, 4],
                  [1e15, 1e15 + 1, 1e15 + 2]):
        with pytest.raises(ConfigError, match="sizes"):
            fit_power_law(sizes, [1.0, 2.0, 3.0])


def test_fit_scale_equivariance(rng):
    n = np.array([10, 40, 90, 400, 1000])
    y = 1.7 * n**0.31 * np.exp(rng.normal(0, 0.05, size=n.size))
    base = fit_power_law(n, y)
    scaled = fit_power_law(n, 100.0 * y)
    assert abs(scaled.alpha - base.alpha) < 1e-12
    assert abs(scaled.beta - 100.0 * base.beta) < 1e-9 * scaled.beta
    assert abs(scaled.r_squared - base.r_squared) < 1e-12


def test_fit_subsample_stability(rng):
    n = np.array([8, 16, 32, 64, 128, 256])
    y = 0.9 * n**0.5 * np.exp(rng.normal(0, 0.01, size=n.size))
    full = fit_power_law(n, y)
    dropped = fit_power_law(np.delete(n, 3), np.delete(y, 3))
    assert abs(dropped.alpha - full.alpha) < max(full.alpha_ci_1sigma, 1e-6)


def test_sweep_sizes_modes():
    geo = sweep_sizes(2, 128, 7)
    assert geo[0] == 2 and geo[-1] == 128
    assert all(b > a for a, b in zip(geo, geo[1:]))
    lin = sweep_sizes(2, 14, 7, mode="linear")
    assert lin == [2, 4, 6, 8, 10, 12, 14]
    with pytest.raises(ConfigError):
        sweep_sizes(2, 10, 2)


def test_plan_validation():
    with pytest.raises(ConfigError):
        SweepPlan(dimension=1, spacing=0.4, polarization=(1, 0, 0),
                  n_1d_values=[4, 4, 8], quantity="gamma_max")
    with pytest.raises(ConfigError):
        SweepPlan(dimension=1, spacing=0.4, polarization=(1, 0, 0),
                  n_1d_values=[2, 4, 8], quantity="bogus")
    with pytest.raises(ConfigError, match="disorder_eta"):
        DisorderSpec(eta=float("nan"), n_realizations=2, seed=1)


@pytest.mark.parametrize("field, value, text", [
    ("dimension", 4, "dimension"),
    ("spacing", -1.0, "spacing"),
    ("spacing", float("nan"), "spacing"),
    ("polarization", (1, 1, 0), "polarization"),
    ("n_1d_values", [1.5, 2, 3], "n_1d_values"),
    ("n_1d_values", [True, 2, 3], "n_1d_values"),
    ("n_1d_values", [0, 2, 3], "n_1d_values"),
])
def test_plan_rejects_bad_fields(field, value, text):
    # refused when planned, not as a table in which every row failed alike
    kwargs = {"dimension": 1, "spacing": 0.4, "polarization": (1, 0, 0), "n_1d_values": [2, 3, 4],
              field: value}
    with pytest.raises(ConfigError, match=text):
        SweepPlan(**kwargs)


def plan_1d(quantity="gamma_max", sizes=(20, 40, 80), **kw):
    return SweepPlan(dimension=1, spacing=0.4, polarization=(0.0, 0.0, 1.0),
                     n_1d_values=list(sizes), quantity=quantity, **kw)


def test_sweep_1d_plateau():
    table = run_sweep(plan_1d(sizes=(50, 100, 200)))
    values = [r.value for r in table.rows]
    assert all(abs(v - 1.875) < 0.01 for v in values)  # 3*pi/(2 k0 d) at d = 0.4


def test_sweep_deterministic_and_threaded():
    plan = plan_1d(sizes=(10, 20, 40), disorder=DisorderSpec(eta=0.02, n_realizations=3, seed=5))
    t1 = run_sweep(plan)
    t2 = run_sweep(plan, threads=4)  # the benchmark's call shape; threads is read nowhere
    for a, b in zip(t1.rows, t2.rows):
        assert a.n_atoms == b.n_atoms
        assert a.value == b.value
        assert a.stderr == b.stderr


def test_sweep_disorder_reports_stderr():
    plan = plan_1d(sizes=(8, 12, 16), disorder=DisorderSpec(eta=0.05, n_realizations=4, seed=1))
    table = run_sweep(plan)
    for row in table.rows:
        assert row.stderr is not None and row.stderr > 0


def test_sweep_quantities_consistent():
    sizes = (4, 8, 16)
    gmax = [r.value for r in run_sweep(plan_1d("gamma_max", sizes)).rows]
    lb = [r.value for r in run_sweep(plan_1d("lb_best", sizes)).rows]
    ub = [r.value for r in run_sweep(plan_1d("ub", sizes)).rows]
    sdp = [r.value for r in run_sweep(plan_1d("sdp_estimate", sizes)).rows]
    for i, n in enumerate(sizes):
        assert lb[i] <= ub[i]
        assert np.isclose(ub[i], 0.5 * n * (3 * gmax[i] - 1.0))
        # half-excited embedding: N/2 <= rstar_estimate <= ub
        assert 0.5 * n - 1e-9 <= sdp[i] <= ub[i] + 1e-6

    table = run_sweep(plan_1d("gamma_max", sizes))
    fit = fit_table(table)
    assert fit.beta > 0


def test_sweep_rows_stream_in_order():
    seen = []
    plan = plan_1d(sizes=(6, 10, 14), disorder=DisorderSpec(eta=0.03, n_realizations=2, seed=2))
    table = run_sweep(plan, on_row=lambda r: seen.append(r.n_atoms))
    assert seen == [6, 10, 14]
    assert [r.n_atoms for r in table.rows] == seen


def test_sweep_csv(tmp_path):
    table = run_sweep(plan_1d(sizes=(4, 6, 8)))
    path = tmp_path / "sweep.csv"
    with open(path, "w") as fh:
        write_row = csv_row_writer(fh)
        for row in table.rows:
            write_row(row)
    lines = path.read_text().splitlines()
    assert lines[0] == "n_atoms,value,stderr"
    assert len(lines) == 4


def test_sweep_failed_points(monkeypatch):
    # realizations fail by (point, realization index): a partial row with two survivors,
    # an all-failed row, a partial row with one survivor and a clean row
    plan = plan_1d(sizes=(4, 5, 6, 7), disorder=DisorderSpec(eta=0.05, n_realizations=3, seed=9))
    calls = []
    monkeypatch.setattr(sweep, "_evaluate_point",
                        lambda plan, n_1d, eta, seed: calls.append((n_1d, seed)) or 0.0)
    run_sweep(plan)
    fail = {calls[0], calls[3], calls[4], calls[5], calls[6], calls[8]}

    def evaluate(plan, n_1d, eta, seed):
        if (n_1d, seed) in fail:
            raise RuntimeError(f"boom {n_1d}")
        return n_1d + (seed % 1000) / 1000

    monkeypatch.setattr(sweep, "_evaluate_point", evaluate)
    table = run_sweep(plan)
    rows = table.rows
    survivors = [evaluate(plan, n_1d, 0.0, seed) for n_1d, seed in calls[1:3]]
    assert rows[0].value == np.mean(survivors)
    assert rows[0].stderr == np.std(survivors, ddof=1) / np.sqrt(2)
    assert rows[0].error == "partial: RuntimeError: boom 4"
    assert np.isnan(rows[1].value) and rows[1].stderr is None
    assert rows[1].error == "; ".join(["RuntimeError: boom 5"] * 3)
    assert rows[2].value == evaluate(plan, 6, 0.0, calls[7][1]) and rows[2].stderr is None
    assert rows[2].error == "partial: RuntimeError: boom 6; RuntimeError: boom 6"
    assert rows[3].error is None and rows[3].stderr > 0
    assert [r.n_atoms for r in table.clean()] == [7]
