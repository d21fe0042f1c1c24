import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multirate
from multirate import analysis
from multirate.cli import _HASH_CHUNK, _build_quadrature, _sha256, build_parser, main

from multirate import QuadratureSpec, SlowPlacement, empirical_stability_probe


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run(*argv):
    return main(list(argv))


class TestSimulate:
    def test_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        code = run("simulate", "--system", "fpu", "--scheme", "midpoint-midpoint",
                   "--dT", "0.3", "--p", "5", "--t-end", "3.0", "--out", str(out))
        assert code == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header[:3] == ["t", "k", "m"]
        assert header[3:9] == [f"qs_{i}" for i in range(3)] + [f"qf_{i}" for i in range(3)]
        assert len(rows) == 10 * 5 + 1
        # slow columns filled exactly on macro rows
        assert rows[0][3] != "" and rows[1][3] == "" and rows[5][3] != ""
        # values round-trip to full precision
        assert float(rows[0][3]) == 1.0

        eh, erows = read_csv(out / "energy.csv")
        assert eh[:5] == ["t", "kinetic", "slow_potential", "fast_potential", "total"]
        assert "stiff_total" in eh
        assert len(erows) == 11

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["certificate"]["residual_max"] <= 1e-9
        for name, entry in manifest["outputs"].items():
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_deterministic_rerun(self, tmp_path):
        args = ("simulate", "--system", "fpu", "--dT", "0.3", "--p", "3",
                "--t-end", "1.5")
        assert run(*args, "--out", str(tmp_path / "a")) == 0
        assert run(*args, "--out", str(tmp_path / "b")) == 0
        for name in ("trajectory.csv", "energy.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_zero_duration_run(self, tmp_path):
        out = tmp_path / "zero"
        code = run("simulate", "--system", "fpu", "--dT", "0.3", "--p", "5",
                   "--t-end", "0.0", "--out", str(out))
        assert code == 0
        _, rows = read_csv(out / "trajectory.csv")
        assert len(rows) == 1

    def test_unstable_run_reports_divergence(self, tmp_path):
        # single-rate two-sided rectangle run beyond its linear stability bound
        assert not empirical_stability_probe(50.0, 0.05, 1, "trapezoidal")
        out = tmp_path / "unstable"
        code = run("simulate", "--system", "fpu", "--scheme", "trapezoidal-trapezoidal",
                   "--dT", "0.05", "--p", "1", "--t-end", "10.0", "--out", str(out))
        assert code == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["partial"] is True
        assert "diverged" in manifest["status"]
        assert (out / "trajectory.csv").exists()

    def test_missing_arguments_is_config_error(self, tmp_path):
        assert run("simulate", "--system", "fpu", "--out", str(tmp_path)) == 2

    def test_indivisible_horizon_is_config_error(self, tmp_path):
        code = run("simulate", "--system", "fpu", "--dT", "0.3", "--p", "2",
                   "--t-end", "1.0", "--out", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("t_end", ["-3", "inf", "nan"])
    def test_negative_or_non_finite_horizon_is_config_error(self, tmp_path, t_end):
        out = tmp_path / "neg"
        code = run("simulate", "--system", "fpu", "--dT", "0.3", "--p", "10",
                   "--t-end", t_end, "--out", str(out))
        assert code == 2
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_non_finite_or_zero_tolerance_is_config_error(self, tmp_path, tol):
        # --tol inf used to run no Newton iteration, report "ok" and write
        # "newton_tol": Infinity, which is not JSON
        out = tmp_path / "tol"
        code = run("simulate", "--system", "fpu", "--scheme", "midpoint-midpoint",
                   "--dT", "0.3", "--p", "2", "--t-end", "0.6", "--tol", tol,
                   "--out", str(out))
        assert code == 2
        assert not (out / "manifest.json").exists()

    def test_zero_macro_step_is_config_error(self, tmp_path):
        out = tmp_path / "dT0"
        code = run("simulate", "--system", "fpu", "--dT", "0", "--p", "2",
                   "--t-end", "0.6", "--out", str(out))
        assert code == 2
        assert not out.exists()

    def test_explicit_scheme_runs_without_iteration(self, tmp_path):
        out = tmp_path / "exp"
        code = run("simulate", "--system", "fpu", "--scheme", "explicit",
                   "--dT", "0.01", "--p", "5", "--t-end", "0.5", "--out", str(out))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stats"]["newton_iters_total"] == 0

    @pytest.mark.parametrize("scheme,solver", [("midpoint-midpoint", "dense"), ("explicit", None)])
    def test_manifest_records_linear_solver(self, tmp_path, scheme, solver):
        out = tmp_path / "ls"
        code = run("simulate", "--system", "fpu", "--scheme", scheme,
                   "--dT", "0.01", "--p", "5", "--t-end", "0.05", "--out", str(out))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stats"]["linear_solver"] == solver

    def test_manifest_records_matrix_builds(self, tmp_path):
        out = tmp_path / "mb"
        code = run("simulate", "--system", "fpu", "--dT", "0.3", "--p", "10",
                   "--t-end", "3.0", "--out", str(out))
        assert code == 0
        stats = json.loads((out / "manifest.json").read_text())["stats"]
        # Newton keeps its factored matrix across iterations and steps
        assert 0 < stats["matrix_builds_total"] < stats["newton_iters_total"]
        explicit = tmp_path / "mb-explicit"
        assert run("simulate", "--system", "fpu", "--scheme", "explicit", "--dT", "0.01",
                   "--p", "5", "--t-end", "0.05", "--out", str(explicit)) == 0
        stats = json.loads((explicit / "manifest.json").read_text())["stats"]
        assert stats["matrix_builds_total"] == 0


class TestManifestHash:
    def test_chunked_hash_equals_whole_file_hash(self, tmp_path):
        path = tmp_path / "big.bin"
        data = np.random.default_rng(0).bytes(2 * _HASH_CHUNK + 12345)
        path.write_bytes(data)
        assert _sha256(path) == hashlib.sha256(data).hexdigest()


class TestConfigFile:
    def test_file_defaults_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "system": "fpu", "dT": 0.3, "p": 2, "t-end": 0.6, "scheme": "midpoint-midpoint",
        }))
        out = tmp_path / "fromfile"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"]["p"] == 2

        out2 = tmp_path / "override"
        assert run("simulate", "--config", str(cfg), "--p", "4", "--out", str(out2)) == 0
        manifest2 = json.loads((out2 / "manifest.json").read_text())
        assert manifest2["params"]["p"] == 4

    def test_unreadable_config_file(self, tmp_path):
        assert run("simulate", "--config", str(tmp_path / "nope.json")) == 2


class TestConverge:
    def test_orders_written(self, tmp_path):
        out = tmp_path / "conv"
        code = run("converge", "--system", "fpu", "--p", "5", "--t-end", "0.1",
                   "--dT-list", "0.02,0.01,0.005", "--ref-dT", "0.00025",
                   "--out", str(out), "--workers", "2")
        assert code == 0
        header, rows = read_csv(out / "convergence.csv")
        assert header[0] == "dT" and "rate_q_mac" in header
        assert len(rows) == 3
        data = json.loads((out / "convergence.json").read_text())
        assert 1.6 < data["observed_orders"]["q_mac"]["lsq"] < 2.4

    def test_single_row_has_errors_only(self, tmp_path):
        out = tmp_path / "single"
        code = run("converge", "--system", "fpu", "--p", "5", "--t-end", "0.1",
                   "--dT-list", "0.01", "--ref-dT", "0.00025", "--out", str(out))
        assert code == 0
        data = json.loads((out / "convergence.json").read_text())
        assert data["observed_orders"]["q_mac"]["pairwise"] == []
        assert np.isfinite(data["errors"]["q_mac"][0])


    def test_zero_micro_ratio_is_config_error_before_any_integration(self, tmp_path,
                                                                     monkeypatch):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated although p is invalid")

        monkeypatch.setattr(analysis, "integrate", no_integration)
        out = tmp_path / "p0"
        code = run("converge", "--system", "fpu", "--p", "0", "--t-end", "0.1",
                   "--dT-list", "0.02,0.01", "--ref-dT", "0.01", "--out", str(out))
        assert code == 2
        assert not (out / "convergence.csv").exists()


    @pytest.mark.parametrize("option,value", [
        ("--t-end", "inf"), ("--t-end", "nan"), ("--t-end", "-0.1"), ("--ref-dT", "0"),
        ("--dT-list", "0.02,0"), ("--p", "-1")])
    def test_bad_horizon_step_or_ratio_is_config_error_before_any_integration(
            self, tmp_path, monkeypatch, option, value):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated although an option is invalid")

        monkeypatch.setattr(analysis, "integrate", no_integration)
        options = {"--p": "2", "--t-end": "0.04", "--dT-list": "0.02,0.01", "--ref-dT": "0.01"}
        options[option] = value
        out = tmp_path / "bad"
        code = run("converge", "--system", "fpu", *(a for kv in options.items() for a in kv),
                   "--out", str(out))
        assert code == 2
        assert not out.exists()


class TestSchemes:
    @pytest.mark.parametrize("scheme,quad", [
        ("midpoint-midpoint", QuadratureSpec(0.5, 0.5, 0.5, 0.5)),
        ("trapezoidal-midpoint", QuadratureSpec(1.0, 1.0, 0.5, 0.5)),
        ("trapezoidal-trapezoidal", QuadratureSpec(1.0, 1.0, 1.0, 1.0)),
        ("explicit", QuadratureSpec(1.0, 1.0, 1.0, 1.0, SlowPlacement.MACRO_NODES_ONLY)),
    ])
    def test_scheme_defaults(self, scheme, quad):
        args = build_parser().parse_args(["simulate", "--scheme", scheme])
        assert _build_quadrature(args) == quad

    def test_overrides_replace_single_coefficients(self):
        args = build_parser().parse_args([
            "simulate", "--scheme", "trapezoidal-trapezoidal", "--alpha-v", "0.5",
            "--gamma-w", "0", "--slow-placement", "macro"])
        assert _build_quadrature(args) == QuadratureSpec(
            0.5, 1.0, 1.0, 0.0, SlowPlacement.MACRO_NODES_ONLY)

    def test_out_of_range_override_is_config_error(self, tmp_path):
        code = run("simulate", "--system", "fpu", "--dT", "0.3", "--p", "2",
                   "--t-end", "0.6", "--alpha-w", "1.5", "--out", str(tmp_path))
        assert code == 2


class TestStability:
    def test_region_table(self, tmp_path):
        out = tmp_path / "stab"
        code = run("stability", "--rule", "trapezoidal", "--omega-s", "1.0",
                   "--dT-list", ",".join(str(v) for v in np.linspace(0.5, 4.0, 36)),
                   "--p-list", "1,2,5", "--out", str(out))
        assert code == 0
        header, rows = read_csv(out / "stability.csv")
        assert header == ["omega_dT", "omega_dt", "p", "trace", "stable", "analytic_bound"]
        for row in rows:
            omega_dT, p = float(row[0]), int(row[2])
            stable, bound = bool(int(row[4])), float(row[5])
            assert bound == pytest.approx(np.sqrt(12.0 * p * p / (p * p + 2.0)))
            if abs(omega_dT - bound) > 1e-9:
                assert stable == (omega_dT < bound)

    def test_midpoint_single_rate_column_all_stable(self, tmp_path):
        out = tmp_path / "stabm"
        code = run("stability", "--rule", "midpoint", "--omega-s", "1.0",
                   "--dT-list", "0.5,2.0,10.0,50.0", "--p-list", "1", "--out", str(out))
        assert code == 0
        _, rows = read_csv(out / "stability.csv")
        assert all(int(r[4]) == 1 for r in rows)

    @pytest.mark.parametrize("p_list", ["2.5", "1,2.5", "inf"])
    def test_non_integer_p_is_config_error(self, tmp_path, p_list):
        out = tmp_path / "stabp"
        code = run("stability", "--rule", "trapezoidal", "--omega-s", "1.0",
                   "--dT-list", "0.5", "--p-list", p_list, "--out", str(out))
        assert code == 2
        assert not (out / "stability.csv").exists()


class TestBench:
    def test_rows_and_columns(self, tmp_path):
        out = tmp_path / "bench"
        code = run("bench", "--system", "fpu", "--dt", "0.01", "--t-end", "1.0",
                   "--p-list", "1,5", "--out", str(out))
        assert code == 0
        header, rows = read_csv(out / "bench.csv")
        assert header[:3] == ["p", "dT", "n_macro"]
        assert len(rows) == 2
        assert int(rows[0][4]) >= int(rows[1][4])  # Newton total non-increasing

    def test_linear_solver_column(self, tmp_path):
        # FPU l=3: 3 + 3p unknowns, so p=50 (153) is above the block-solve crossover
        out = tmp_path / "bench"
        code = run("bench", "--system", "fpu", "--dt", "0.01", "--t-end", "1.0",
                   "--p-list", "1,50", "--out", str(out))
        assert code == 0
        header, rows = read_csv(out / "bench.csv")
        assert header[-1] == "linear_solver"
        assert [row[-1] for row in rows] == ["dense", "structured"]


    @pytest.mark.parametrize("args", [
        ("--t-end", "inf", "--p-list", "1"), ("--t-end", "nan", "--p-list", "1"),
        ("--t-end", "-1", "--p-list", "1"), ("--t-end", "0.01", "--p-list", "0"),
        ("--t-end", "0.01", "--p-list", "1,-2"), ("--t-end", "0.01", "--p-list", "1", "--dt", "0")])
    def test_bad_horizon_step_or_ratio_is_config_error(self, tmp_path, args):
        out = tmp_path / "bench"
        assert run("bench", "--system", "fpu", *args, "--out", str(out)) == 2
        assert not out.exists()


class TestValidate:
    def test_validation_report(self, tmp_path):
        out = tmp_path / "val"
        code = run("validate", "--system", "spring-ring", "--seed", "7",
                   "--probes", "20", "--out", str(out))
        assert code == 0
        data = json.loads((out / "validation.json").read_text())
        assert data["passed"] is True
        assert len(data["probes"]) == 20
        assert data["max_deviation"] < 1e-5

    def test_seed_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("validate", "--system", "fpu", "--seed", "3",
                       "--probes", "5", "--out", str(out)) == 0
        da = json.loads((a / "validation.json").read_text())["probes"]
        db = json.loads((b / "validation.json").read_text())["probes"]
        assert da == db


class TestSchemaAndExitCodes:
    def test_trajectory_header_is_versioned(self, tmp_path):
        out = tmp_path / "schema"
        assert run("simulate", "--system", "fpu", "--dT", "0.3", "--p", "2",
                   "--t-end", "0.6", "--out", str(out)) == 0
        header, _ = read_csv(out / "trajectory.csv")
        assert header == (["t", "k", "m"]
                          + [f"qs_{i}" for i in range(3)]
                          + [f"qf_{i}" for i in range(3)]
                          + [f"ps_{i}" for i in range(3)]
                          + [f"pf_{i}" for i in range(3)])

    def test_unwritable_output_is_io_error(self):
        code = run("simulate", "--system", "fpu", "--dT", "0.3", "--p", "1",
                   "--t-end", "0.3", "--out", "/dev/null/nested")
        assert code == 4


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self, tmp_path):
        # runs from the source tree, without an installed console script
        src = str(Path(multirate.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        done = subprocess.run([sys.executable, "-m", "multirate", "--help"], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: multirate")
