import csv
import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import multirate
from multirate import analysis, cli, solver
from multirate.cli import (_HASH_CHUNK, _build_quadrature, _csv_layout, _csv_rows, _format17,
                          _sha256, build_parser, main)
from multirate.errors import EvaluationError, IntegrationError
from multirate.solver import integrate, verify_trajectory

from multirate import QuadratureSpec, SlowPlacement, TimeGrid, empirical_stability_probe

from _oracles import write_energy_rows, write_trajectory_rows


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

    def test_horizon_below_one_macro_step_is_config_error(self, tmp_path):
        # no whole number of steps of 0.3 ends at 0.1: this used to run no
        # step, write outputs and exit 0
        out = tmp_path / "short"
        code = run("simulate", "--system", "fpu", "--dT", "0.3", "--p", "2",
                   "--t-end", "0.1", "--out", str(out))
        assert code == 2
        assert not out.exists()

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


def reference_outputs(path, argv):
    """Write to ``path`` trajectory.csv and energy.csv as the oracles write
    them from ``integrate()``'s whole trajectory for the simulate options
    ``argv``; return its certificate as the manifest holds it and whether the
    run stopped at a failed step."""
    args = build_parser().parse_args(["simulate", *argv])
    sysm, q0 = cli._build_system(args)
    quad = cli._build_quadrature(args)
    grid = TimeGrid(args.dT, args.p, int(round(args.t_end / args.dT)))
    try:
        traj, _ = integrate(q0, sysm, quad, grid, cli._solver_config(args),
                            cli._resolve_mode(args))
    except IntegrationError as exc:
        traj, cert, partial = exc.partial_trajectory, None, True
    else:
        partial = False
        cert = (dataclasses.asdict(verify_trajectory(traj, q0, sysm, quad, grid))
                if grid.n_macro else None)
    write_trajectory_rows(path / "trajectory.csv", traj, sysm)
    write_energy_rows(path / "energy.csv", analysis.energy_series(traj, sysm))
    return cert, partial


RING = ("--system", "spring-ring", "--scheme", "explicit")


class TestStreamedOutputs:
    """simulate writes its outputs a chunk of steps at a time.  They must
    equal those of the whole trajectory byte for byte, at chunk and
    certificate-window boundaries alike.  ``_CHUNK_ROWS = 1`` makes chunks
    of one window, 64 intervals."""

    @pytest.mark.parametrize("argv,chunk_rows", [
        # 250 intervals: three full buffers of 64 (sharing an interval), then 61
        (RING + ("--dT", "0.01", "--p", "10", "--t-end", "2.5"), 1),
        # 1,000 intervals: chunks of the default size and a part
        (RING + ("--dT", "0.001", "--p", "10", "--t-end", "1.0"), None),
        # 1, 64 and 127 intervals: N - 1 a multiple of 63 for the last two
        (RING + ("--dT", "0.01", "--p", "10", "--t-end", "0.01"), 1),
        (RING + ("--dT", "0.01", "--p", "10", "--t-end", "0.64"), 1),
        (RING + ("--dT", "0.01", "--p", "10", "--t-end", "1.27"), 1),
        (("--system", "fpu", "--dT", "0.3", "--p", "5", "--t-end", "0.0"), None),
        (("--system", "fpu", "--dT", "0.3", "--p", "5", "--t-end", "30"), 1),
        (("--system", "fpu", "--mode", "pq", "--dT", "0.3", "--p", "3", "--t-end", "30"), 1),
        (("--system", "fpu", "--scheme", "explicit", "--dT", "0.009", "--p", "3",
          "--t-end", "6.3"), 1),
        # more rows per interval than per chunk
        (RING + ("--dT", "1.024", "--p", "1024", "--t-end", "2.048"), None),
        # diverges at step 7 of 200: zero rows after it, over several chunks
        (("--system", "fpu", "--scheme", "trapezoidal-trapezoidal", "--dT", "0.05",
          "--p", "1", "--t-end", "10.0"), 1),
    ], ids=["ring-chunks", "ring-default-chunk", "n1", "n64", "n127", "zero-intervals",
            "fpu-del", "fpu-pq", "fpu-explicit", "ring-p1024", "diverged"])
    def test_bytes_equal_whole_trajectory_outputs(self, tmp_path, monkeypatch, argv,
                                                   chunk_rows):
        if chunk_rows is not None:
            monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
        self.check(tmp_path, argv)

    # steps 127 and 150 fail with the buffer full and part full: the rows
    # before them keep their provisional end momenta, then zero rows follow
    @pytest.mark.parametrize("fail_at", [127, 150])
    def test_failure_after_some_chunks(self, tmp_path, monkeypatch, fail_at):
        step = solver.explicit_macro_step

        def failing(prev, *args):
            if prev.index + 1 == fail_at:
                raise EvaluationError("planted failure")
            return step(prev, *args)

        monkeypatch.setattr(solver, "explicit_macro_step", failing)
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 1)
        self.check(tmp_path, RING + ("--dT", "0.01", "--p", "10", "--t-end", "3.0"))

    def test_write_error_closes_the_files(self, tmp_path, monkeypatch):
        # an OSError from a write mid-run, in the first chunk's energies of
        # five: exit code 4, and no file of the run is left open
        write, calls = cli._Outputs._write, []

        def failing(self, name, data):
            calls.append(name)
            if len(calls) == 40:
                raise OSError("planted write failure")
            return write(self, name, data)

        monkeypatch.setattr(cli._Outputs, "_write", failing)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("simulate", *RING, "--dT", "0.01", "--p", "10", "--t-end", "20",
                       "--out", str(tmp_path / "run"))
            gc.collect()
        assert code == 4
        assert calls[-1] == "energy.csv" and len(calls) == 40
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not (tmp_path / "run" / "manifest.json").exists()

    # formatter blocks (_CSV_CHUNK_ROWS) of one interval, of one row less
    # (still one interval) and of two intervals: 63 intervals a chunk, so the
    # last end mid-chunk
    @pytest.mark.parametrize("csv_rows", [10, 9, 29], ids=["interval", "row-below-p", "odd"])
    def test_formatter_blocks_within_chunks(self, tmp_path, monkeypatch, csv_rows):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 1)
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", csv_rows)
        self.check(tmp_path, RING + ("--dT", "0.01", "--p", "10", "--t-end", "1.5"))

    @staticmethod
    def check(tmp_path, argv):
        out = tmp_path / "run"
        code = run("simulate", *argv, "--out", str(out))
        cert, partial = reference_outputs(tmp_path, argv)
        assert code == (3 if partial else 0)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["partial"] is partial
        assert manifest["certificate"] == cert
        for name in ("trajectory.csv", "energy.csv"):
            written = (out / name).read_bytes()
            assert written == (tmp_path / name).read_bytes(), name
            assert manifest["outputs"][name]["sha256"] == hashlib.sha256(written).hexdigest()


def source_env():
    """The environment of a child interpreter that imports this source tree."""
    src = str(Path(multirate.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


@pytest.mark.slow
def test_simulate_memory_does_not_grow_with_the_horizon(tmp_path):
    # peak RSS of whole simulate runs, each in its own interpreter: 5,000
    # steps hold ten times the rows of 500
    def peak_mb(t_end):
        # VmHWM, not ru_maxrss: Linux carries ru_maxrss over from the forking
        # process (this one) into the child
        code = ("import sys; from multirate.cli import main; main(sys.argv[1:]); "
                "print(next(l.split()[1] for l in open('/proc/self/status') "
                "if l.startswith('VmHWM')))")
        done = subprocess.run(
            [sys.executable, "-c", code, "simulate", *RING, "--dT", "0.01", "--p", "10",
             "--t-end", t_end, "--out", str(tmp_path / t_end)],
            env=source_env(), capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        return int(done.stdout.split()[-1]) / 1024

    assert abs(peak_mb("50") - peak_mb("5")) < 2.0


def formatted(values):
    """The strings that _format17 makes of ``values``."""
    words = _format17(np.asarray(values, dtype=float))
    return [bytes(slot).replace(b"\0", b"").decode()
            for slot in words.view(np.uint8).reshape(-1, 32)]


class TestFormat17:
    """simulate's number formatting: the bytes of ``"%.17g"``, made with
    integer arithmetic on whole arrays and Python's formatting left only
    for possible ties and values outside the tables."""

    EDGES = {
        "zeros": [0.0, -0.0],
        "smallest subnormal": [5e-324, -5e-324],
        "switch to exponent form": [1e-5, 9.9999999999999999e-5, 1e-4, 0.0001 * (1 - 2 ** -52)],
        "rounds up a decade": [9.99999999999999999e22, 99999999999999999.0, 9.999999999999999e-5,
                               0.099999999999999999],
        "17 integer digits": [1e16, 1e17, 12345678901234567.0, 99999999999999984.0, 1e16 - 2],
        "table bounds": [1e-99, 1e-100, 9.9999999999999e-100, 1e99, 9.999999999999999e99,
                         1e100, np.nextafter(1e-99, 0), np.nextafter(1e100, 0)],
        "3-digit exponents": [1e100, 1e-100, 1.7976931348623157e308, 2.2250738585072014e-308,
                              -1.5e-200],
        "non-finite": [np.inf, -np.inf, np.nan],
        # 2**51 + 0.25 is the double 2**51; the others are 18-digit, exact
        # ties at 17 digits, which round to even
        "ties": [2 ** 51 + 0.25, 2 ** 50 + 0.25, 2 ** 50 + 0.75, 2 ** 49 + 0.125],
    }

    @pytest.mark.parametrize("values", EDGES.values(), ids=EDGES.keys())
    def test_edge_cases(self, values):
        assert formatted(values) == ["%.17g" % v for v in values]

    def test_ties_and_values_outside_the_tables_go_through_python(self, monkeypatch):
        fallback, fmt = [], cli._fmt
        monkeypatch.setattr(cli, "_fmt", lambda x: fallback.append(float(x)) or fmt(x))
        tie, outside = 2 ** 50 + 0.25, [1e100, -1.5e-200, 5e-324, np.inf, np.nan]
        ordinary = [0.0, -0.0, 1.0, 0.1, -123.456, 1e16, 1e-99, 9.5e99]
        assert formatted([tie, *outside, *ordinary]) == [
            "%.17g" % v for v in [tie, *outside, *ordinary]]
        assert fallback[:-1] == [tie, *outside[:-1]] and np.isnan(fallback[-1])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
    def test_floats(self, values):
        assert formatted(values) == ["%.17g" % v for v in values]

    def test_random_bit_patterns(self):
        values = np.random.default_rng(0).integers(0, 2 ** 64, 200_000, dtype=np.uint64)
        values = values.view(np.float64)
        assert formatted(values) == ["%.17g" % v for v in values.tolist()]

    def test_csv_rows_leave_blank_fields_empty(self):
        values = np.random.default_rng(1).standard_normal((3, 2, 4)) * 1e3
        blank = np.array([[False, True, True, False], [True, False, False, True]])
        assert _csv_rows(values, _csv_layout(blank)) == percent_rows(values, blank)


def percent_rows(values, blank):
    """The CSV lines of ``values`` (groups, rows, fields) by Python's ``%``:
    empty fields where the (rows, fields) mask ``blank`` is set."""
    return "".join(",".join("" if b else "%.17g" % v for v, b in zip(row, blank[i])) + "\r\n"
                   for group in values for i, row in enumerate(group)).encode()


class TestBoundLayout:
    """A layout is made once per run and formats every block of its rows
    in one reused buffer: each block's text must be its own rows alone,
    whatever larger block came before it."""

    @staticmethod
    def values(rng, shape):
        # lengths from 1 to 24 characters, so that a leftover byte would show
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-7, 20, shape)
        v[rng.random(shape) < 0.1] = 0.0
        return np.where(rng.random(shape) < 0.1, np.round(v), v)

    # simulate's ring rows at p = 10 (slow fields empty on micro rows); a
    # mask whose empty runs cross the end of a row and fill one
    MASKS = {
        "ring-p10": np.isin(np.arange(39), [*range(3, 12), *range(21, 30)])[None]
        & (np.arange(10) > 0)[:, None],
        "across-rows": np.array([[False, False, True, True], [True, True, True, True],
                                 [True, False, False, False]]),
    }

    @pytest.mark.parametrize("blank", MASKS.values(), ids=MASKS.keys())
    def test_blocks_of_12_3_1_and_12_groups(self, blank):
        rng, layout = np.random.default_rng(3), _csv_layout(blank)
        for n in (12, 3, 1, 12):
            values = self.values(rng, (n,) + blank.shape)
            assert _csv_rows(values, layout) == percent_rows(values, blank), n

    @pytest.mark.parametrize("fields", [5, 5 + 4], ids=["no-stiff", "stiff-3"])
    def test_energy_layout_over_node_counts(self, fields):
        rng, blank = np.random.default_rng(4), np.zeros((1, fields), bool)
        layout = _csv_layout(blank)
        for nodes in (442, 7, 1, 442, 64):
            values = self.values(rng, (nodes, 1, fields))
            assert _csv_rows(values, layout) == percent_rows(values, blank), nodes


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
                   "--out", str(out))
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
        ("--dT-list", "0.02,0"), ("--dT-list", "0.01,0.02"), ("--p", "-1")])
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

    def test_reference_step_that_does_not_divide_the_horizon_is_config_error(
            self, tmp_path, monkeypatch, capsys):
        # the reference used to stop at 0.9, every row then failed to align
        # with it, and the command exited 0 with a table of NaNs
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated although ref-dT does not divide t-end")

        monkeypatch.setattr(analysis, "integrate", no_integration)
        out = tmp_path / "ref"
        code = run("converge", "--system", "fpu", "--p", "2", "--t-end", "1",
                   "--dT-list", "0.5,0.25", "--ref-dT", "0.3", "--out", str(out))
        assert code == 2
        assert "ref_dT=0.3 does not divide t_end=1" in capsys.readouterr().err
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

    @pytest.mark.parametrize("omega_s,dT_list", [("nan", "0.1"), ("1.0", "0.1,-1,inf")])
    def test_non_finite_input_is_config_error(self, tmp_path, omega_s, dT_list):
        # both used to exit 0 and write NaN rows
        out = tmp_path / "stabn"
        code = run("stability", "--omega-s", omega_s, "--dT-list", dT_list, "--p-list", "2",
                   "--out", str(out))
        assert code == 2
        assert not (out / "stability.csv").exists()
        assert not out.exists()

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

    def test_explicit_scheme_runs_without_newton(self, tmp_path):
        # the scheme's default mode, as for simulate and converge
        out = tmp_path / "bench"
        code = run("bench", "--system", "fpu", "--scheme", "explicit", "--dt", "0.01",
                   "--t-end", "0.1", "--p-list", "1,5", "--out", str(out))
        assert code == 0
        header, rows = read_csv(out / "bench.csv")
        column = header.index("newton_iters_total")
        assert [int(row[column]) for row in rows] == [0, 0]

    def test_mode_selects_the_integrator(self, tmp_path):
        out = tmp_path / "bench"
        code = run("bench", "--system", "fpu", "--mode", "pq", "--dt", "0.01",
                   "--t-end", "0.1", "--p-list", "5", "--out", str(out))
        assert code == 0
        header, rows = read_csv(out / "bench.csv")
        sysm, q0 = multirate.build_fpu()
        grid = multirate.TimeGrid(dT=0.05, micro_per_macro=5, n_macro=2, t0=0.0)
        _, stats = multirate.integrate(q0, sysm, QuadratureSpec.midpoint_midpoint(), grid,
                                       multirate.SolverConfig(newton_tol=1e-9),
                                       multirate.IntegratorMode.CLOSED_FORM_PQ)
        assert int(rows[0][header.index("newton_iters_total")]) == stats.newton_iters_total


    @pytest.mark.parametrize("args", [
        ("--t-end", "inf", "--p-list", "1"), ("--t-end", "nan", "--p-list", "1"),
        ("--t-end", "-1", "--p-list", "1"), ("--t-end", "0.01", "--p-list", "0"),
        ("--t-end", "0.01", "--p-list", "1,-2"), ("--t-end", "0.01", "--p-list", "1", "--dt", "0")])
    def test_bad_horizon_step_or_ratio_is_config_error(self, tmp_path, args):
        out = tmp_path / "bench"
        assert run("bench", "--system", "fpu", *args, "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("dt,t_end,p_list,bad", [
        ("0.03", "0.1", "2", "p=2: dT=0.06"), ("0.01", "0.001", "2", "p=2: dT=0.02"),
        ("0.01", "0.1", "1,3", "p=3: dT=0.03"), ("0.01", "0", "1", "t_end must be positive")])
    def test_horizon_not_a_whole_number_of_macro_steps_is_config_error(
            self, tmp_path, monkeypatch, capsys, dt, t_end, p_list, bad):
        # two steps of 0.06 used to run to t = 0.12, and a horizon below one
        # step to write a row of zero steps, both exiting 0; every p is
        # checked before the first row runs
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated although t-end is no whole number of steps")

        monkeypatch.setattr(cli, "integrate", no_integration)
        out = tmp_path / "bench"
        code = run("bench", "--system", "fpu", "--dt", dt, "--t-end", t_end,
                   "--p-list", p_list, "--out", str(out))
        assert code == 2
        assert bad in capsys.readouterr().err
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

    def test_manifest_records_status_and_report_hash(self, tmp_path):
        out = tmp_path / "val"
        assert run("validate", "--system", "fpu", "--seed", "3", "--probes", "3",
                   "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "validate"
        assert manifest["status"] == "ok"
        assert manifest["params"]["probes"] == 3 and manifest["params"]["seed"] == 3
        report = hashlib.sha256((out / "validation.json").read_bytes()).hexdigest()
        assert manifest["outputs"]["validation.json"]["sha256"] == report

    def test_seed_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("validate", "--system", "fpu", "--seed", "3",
                       "--probes", "5", "--out", str(out)) == 0
        da = json.loads((a / "validation.json").read_text())["probes"]
        db = json.loads((b / "validation.json").read_text())["probes"]
        assert da == db

    @pytest.mark.parametrize("extra", [["--probes", "0"], ["--h", "inf", "--probes", "2"]],
                             ids=["no-probes", "infinite-step"])
    def test_no_probes_or_infinite_step_is_config_error(self, tmp_path, extra):
        # both used to exit 0 and write NaN or Infinity, which is not JSON
        out = tmp_path / "valbad"
        assert run("validate", "--system", "fpu", *extra, "--out", str(out)) == 2
        assert not (out / "validation.json").exists()


class TestOptionsPerSubcommand:
    @pytest.mark.parametrize("argv", [
        ("stability", "--scheme", "explicit", "--omega-s", "1", "--dT-list", "0.5",
         "--p-list", "2"),
        ("validate", "--system", "fpu", "--tol", "1e-3", "--probes", "2")],
        ids=["stability-scheme", "validate-tol"])
    def test_option_the_subcommand_does_not_read_is_rejected(self, tmp_path, argv):
        # stability reads no system, scheme, tolerance or mode, and validate
        # only the system; argparse stops before any output is written
        out = tmp_path / "unread"
        with pytest.raises(SystemExit) as info:
            run(*argv, "--out", str(out))
        assert info.value.code == 2
        assert not out.exists()


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
        done = subprocess.run([sys.executable, "-m", "multirate", "--help"], cwd=tmp_path,
                              env=source_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: multirate")
