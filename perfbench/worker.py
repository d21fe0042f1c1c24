"""One repetition of one benchmark workload, in a fresh interpreter.

Started by ``run.py``, one process at a time::

    python3 perfbench/worker.py --workload fpu-p10 --seed 0 [--trace] [--setup-only]

It imports ``multirate`` from the checkout's ``src/`` directory, builds the
workload's inputs from the seed, runs it, checks the outputs and prints one
JSON object as its last line of standard output.  With ``--trace`` it first
installs the timing shims of ``spans.py``; with ``--setup-only`` it stops
after building the inputs (used to fill the bytecode and file caches).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import multirate  # noqa: E402
from multirate import analysis, cli, schemes, solver, systems  # noqa: E402
from multirate.errors import IntegrationError  # noqa: E402

if Path(multirate.__file__).resolve().parent != SRC / "multirate":
    raise SystemExit(f"multirate imported from {multirate.__file__}, not from {SRC}")

# Seeded relative perturbation of every non-zero initial position and
# momentum component; it changes every input and trajectory bit pattern.
# The FPU chain is chaotic over these horizons: perturbations of 1e-10 and
# above move the maximum energy error by 5-20 % between seeds, while at
# 1e-12 it stays within 1e-4 of the unperturbed run.  Components that are
# zero stay zero: tiny non-zero Hessian entries drive the dense LU of
# fpu-l30-p50 into subnormal numbers, about 15 times slower.
PERTURBATION = 1e-12

NEWTON_TOL = 1e-9

# Library workloads: FPU chain, midpoint-midpoint quadrature.
LIBRARY = {
    "fpu-p10": dict(l=3, dT=0.3, p=10, n_macro=667, mode=solver.IntegratorMode.IMPLICIT_DEL),
    "fpu-l30-p50": dict(l=30, dT=0.3, p=50, n_macro=20, mode=solver.IntegratorMode.IMPLICIT_DEL),
    "fpu-pq": dict(l=3, dT=0.3, p=10, n_macro=200, mode=solver.IntegratorMode.CLOSED_FORM_PQ),
}

# The CLI builds its own system, so the seed cannot reach this workload.
RING_ARGS = ["simulate", "--system", "spring-ring", "--scheme", "explicit",
             "--dT", "0.01", "--p", "10", "--t-end", "50"]
RING_STEPS = 5000
RING_TOL = 1e-8
RING_L_DRIFT = 1e-6

LU_PEAK_N = 1530

# Other tenants share this machine's cores, and its speed swings by up to 2x
# within seconds, for Python code, small numpy calls and BLAS alike.  So
# while a repetition runs, an interval timer runs a small fixed kernel every
# PROBE_INTERVAL_S (about 1 % of the time).  ``run.py`` scales the
# repetition's times, less the kernel's own time, by PROBE_REF_S x the mean
# of 1 / kernel time: they read as on a machine of constant speed on which
# the kernel takes PROBE_REF_S.
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 0.0005


def monotonic():
    """System-wide clock, comparable with the parent's spawn time stamp."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def perturbed(state, seed):
    rng = np.random.default_rng(seed)

    def bump(a):
        return a * (1.0 + PERTURBATION * rng.standard_normal(a.shape))

    return multirate.State(bump(state.q_slow), bump(state.q_fast),
                           bump(state.p_slow), bump(state.p_fast))


def trajectory_hash(traj):
    h = hashlib.sha256()
    for arr in (traj.slow_q, traj.slow_p, traj.fast_q, traj.fast_p):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def relative_energy_error(total):
    total = np.asarray(total, dtype=float)
    return float(np.max(np.abs(total - total[0])) / abs(total[0]))


class SpeedProbe:
    """Context manager that samples the machine's speed while the program
    runs, by timing a fixed kernel from a SIGALRM handler."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((60, 60)) + 60.0 * np.eye(60)
        self._b = rng.standard_normal(60)
        self._x = np.arange(6.0)
        self.samples = []  # (start, seconds)

    def _kernel(self, signum, frame):
        # a pure-Python loop, small numpy calls and small dense solves, the
        # three kinds of work the workloads do
        t0 = time.perf_counter()
        acc = 0
        for i in range(2_000):
            acc += i * i % 7
        for _ in range(60):
            np.sin(self._x) * 2.0 + self._x.sum()
        for _ in range(4):
            np.linalg.solve(self._a, self._b)
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._kernel)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._kernel(None, None)  # at least one sample, however short the run

    def scale(self, t_from, t_to):
        """(time scale, probe seconds) over the samples started within
        [t_from, t_to] on the ``time.perf_counter`` clock; the scale falls
        back to all samples when none started there."""
        inside = [d for t, d in self.samples if t_from <= t <= t_to]
        basis = inside or [d for _, d in self.samples]
        return PROBE_REF_S * sum(1.0 / d for d in basis) / len(basis), sum(inside)


def install_tracer():
    from spans import Tracer

    tracer = Tracer()
    for module, name in ((solver, "initial_step"), (solver, "macro_step"),
                         (solver, "explicit_macro_step"), (solver, "interval_momenta"),
                         (solver, "verify_trajectory"), (solver, "integrate"),
                         (schemes, "pq_step"), (cli, "integrate"),
                         (cli, "verify_trajectory"), (cli, "cmd_simulate"),
                         (analysis, "energy_series")):
        tracer.patch(module, name)
    build_ring = systems.build_spring_ring

    def build_ring_instrumented(*args, **kwargs):
        sysm, q0 = build_ring(*args, **kwargs)
        return tracer.instrument_system(sysm), q0

    systems.build_spring_ring = tracer.wrap("build_system", build_ring_instrumented)
    return tracer


def run_library(name, seed, tracer, setup_only):
    spec = LIBRARY[name]
    sysm, q0 = systems.build_fpu(systems.FpuConfig(l=spec["l"]))
    q0 = perturbed(q0, seed)
    if tracer is not None:
        tracer.instrument_system(sysm)
    quad = multirate.QuadratureSpec.midpoint_midpoint()
    config = solver.SolverConfig(newton_tol=NEWTON_TOL)
    grid = multirate.build_time_grid(spec["dT"], spec["p"], spec["n_macro"])
    n_unknowns = sysm.n_slow + spec["p"] * sysm.n_fast
    out = {"steps": grid.n_macro, "n_unknowns": n_unknowns, "pq_mode": spec["mode"].value == "pq"}
    if setup_only:
        return out

    out["t_setup_end"] = monotonic()
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        try:
            traj, stats = solver.integrate(q0, sysm, quad, grid, config, spec["mode"])
        except IntegrationError as exc:
            out["problems"] = [f"integration failed: {exc}"]
            return out
        cert = solver.verify_trajectory(traj, q0, sysm, quad, grid)
        es = analysis.energy_series(traj, sysm)
        t_end = time.perf_counter()
    out["solution_s"] = t_end - t0
    out["peak_rss_mb"] = peak_rss_mb()
    out["integrate_s"] = stats.wall_time_total
    out["time_scale"], out["probe_s"] = probe.scale(t0, t_end)
    out["integrate_time_scale"], out["integrate_probe_s"] = probe.scale(t0, t0 + stats.wall_time_total)
    out["energy_err"] = relative_energy_error(es.total)
    out["newton_iters"] = stats.newton_iters_total
    out["stats"] = {"newton_iters_total": stats.newton_iters_total,
                    "jacobian_time_total": stats.jacobian_time_total,
                    "solve_time_total": stats.solve_time_total}
    out["hash"] = trajectory_hash(traj)
    problems = []
    if not cert.ok(NEWTON_TOL):
        problems.append(f"certificate fails tol {NEWTON_TOL:g}: {cert}")
    if name == "fpu-p10":
        # criterion 5's energy bounds; its slope gate stays out
        if not out["energy_err"] < 5e-2:
            problems.append(f"energy error {out['energy_err']:.3e} >= 5e-2")
        lo, hi = float(np.min(es.stiff_total)), float(np.max(es.stiff_total))
        if not (0.9 <= lo and hi <= 1.1):
            problems.append(f"stiff-energy sum range [{lo:.3f}, {hi:.3f}] outside [0.9, 1.1]")
    out["problems"] = problems
    return out


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _ring_checks(out_dir, manifest):
    """Output checks of the ring-cli workload; returns (problems, energy error)."""
    problems = []
    if manifest.get("status") != "ok":
        problems.append(f"manifest status {manifest.get('status')!r}")
    cert = manifest.get("certificate")
    if cert is None or not solver.TrajectoryCertificate(**cert).ok(RING_TOL):
        problems.append(f"certificate fails tol {RING_TOL:g}: {cert}")
    for fname, entry in manifest.get("outputs", {}).items():
        if _sha256(out_dir / fname) != entry["sha256"]:
            problems.append(f"sha256 of {fname} does not match the manifest")

    # angular momentum about the gravity axis at the macro nodes, recomputed
    # from the CSV (slow columns are filled only at macro nodes)
    with open(out_dir / "trajectory.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = {pre: [i for i, h in enumerate(header) if h.startswith(pre)]
                for pre in ("qs_", "qf_", "ps_", "pf_")}
        L = []
        for row in reader:
            if row[cols["qs_"][0]] == "":
                continue
            q = np.array([float(row[i]) for i in cols["qs_"] + cols["qf_"]]).reshape(-1, 3)
            p = np.array([float(row[i]) for i in cols["ps_"] + cols["pf_"]]).reshape(-1, 3)
            L.append(float(np.sum(q[:, 0] * p[:, 1] - q[:, 1] * p[:, 0])))
    if len(L) != RING_STEPS + 1:
        problems.append(f"{len(L)} macro rows in trajectory.csv, expected {RING_STEPS + 1}")
    drift = float(np.max(np.abs(np.array(L) - L[0]))) if L else float("inf")
    if not drift < RING_L_DRIFT:
        problems.append(f"angular momentum drift {drift:.3e} >= {RING_L_DRIFT:g}")

    with open(out_dir / "energy.csv", newline="") as fh:
        reader = csv.reader(fh)
        col = next(reader).index("total")
        total = [float(row[col]) for row in reader]
    return problems, relative_energy_error(total)


def run_ring_cli(tracer, setup_only):
    out = {"steps": RING_STEPS, "n_unknowns": 0, "pq_mode": False}
    if setup_only:
        return out
    SCRATCH.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="ring-cli-", dir=SCRATCH))
    try:
        out["t_setup_end"] = monotonic()
        with SpeedProbe() as probe, contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = cli.main(RING_ARGS + ["--out", str(out_dir)])
            t_end = time.perf_counter()
        out["solution_s"] = t_end - t0
        out["peak_rss_mb"] = peak_rss_mb()
        out["time_scale"], out["probe_s"] = probe.scale(t0, t_end)
        if rc != 0:
            out["problems"] = [f"simulate exited with code {rc}"]
            return out
        manifest = json.loads((out_dir / "manifest.json").read_text())
        stats = manifest["stats"]
        out["integrate_s"] = stats["wall_time_total"]
        # simulate integrates first, after parsing its arguments and building
        # the ring, which takes a few milliseconds
        out["integrate_time_scale"], out["integrate_probe_s"] = probe.scale(
            t0, t0 + stats["wall_time_total"])
        out["newton_iters"] = stats["newton_iters_total"]
        out["stats"] = stats
        out["hash"] = _sha256(out_dir / "trajectory.csv")
        out["out_bytes"] = sum(f.stat().st_size for f in out_dir.iterdir())
        out["problems"], out["energy_err"] = _ring_checks(out_dir, manifest)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return out


def lu_peak_gflops(n=LU_PEAK_N, repeats=3):
    """Dense LU solve rate on a random well-conditioned matrix of size n."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, n)) + n * np.eye(n)
    b = rng.standard_normal(n)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.linalg.solve(A, b)
        best = min(best, time.perf_counter() - t0)
    return 2.0 / 3.0 * n ** 3 / best / 1e9


def blas_name():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(LIBRARY) + ["ring-cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None, help="file for the recorded spans")
    args = ap.parse_args(argv)

    tracer = install_tracer() if args.trace else None
    if args.workload == "ring-cli":
        out = run_ring_cli(tracer, args.setup_only)
    else:
        out = run_library(args.workload, args.seed, tracer, args.setup_only)
    out["env"] = {"numpy": np.__version__, "blas": blas_name()}

    if tracer is not None and "solution_s" in out and not out["problems"]:
        from spans import SpanTree, layer_metrics

        out["layers"] = layer_metrics(SpanTree(tracer), out["steps"], out["n_unknowns"],
                                      out["stats"], out["pq_mode"], out.get("out_bytes", 0))
        peak = lu_peak_gflops()
        out["layers"]["solver.lu_peak_gflops"] = peak
        out["layers"]["solver.lu_peak_share"] = out["layers"]["solver.lu_gflops"] / peak
        if args.spans_out:
            tracer.dump(args.spans_out, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
