"""Benchmark of the multirate package: time to a certified result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fpu-p10 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each repetition of a workload runs in a fresh interpreter (``worker.py``)
with single-threaded BLAS, one process at a time.  Repetitions continue
while they fit in ``--seconds``; every metric is the median over them.  Each
repetition's outputs are checked, and all repetitions of one run must
produce the same trajectory hash and Newton iteration count.  Times are
scaled to a reference machine speed, sampled while each repetition runs
(see PROBE_REF_S in ``worker.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones, plus the tracing overhead.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``attempted`` and ``failed`` count macro steps.  A full report,
and the spans of traced repetitions, go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SCRATCH = ROOT / ".perfbench"

WORKLOADS = ("fpu-p10", "fpu-l30-p50", "fpu-pq", "ring-cli")

END_TO_END = {
    "setup_s": "s",
    "solution_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "energy_err": "1",
    "completed_frac": "1",
}

PER_LAYER = {
    "systems.grad_calls_per_step": "count",
    "systems.hess_calls_per_step": "count",
    "systems.callback_share": "1",
    "discretization.momenta_calls_per_step": "count",
    "discretization.momenta_share": "1",
    "solver.newton_iters_per_step": "count",
    "solver.jacobian_share": "1",
    "solver.linsolve_share": "1",
    "solver.lu_gflop_per_step": "Gflop",
    "solver.lu_gflops": "Gflop/s",
    "solver.lu_peak_gflops": "Gflop/s",
    "solver.lu_peak_share": "1",
    "solver.jacobian_mb_per_step": "MB",
    "solver.unattributed_share": "1",
    "solver.step_samples": "count",
    "solver.step_ms.p50": "ms",
    "solver.step_ms.p90": "ms",
    "solver.verify_s": "s",
    "schemes.step_ms.p50": "ms",
    "schemes.fd_jacobian_share": "1",
    "analysis.energy_s": "s",
    "cli.output_s": "s",
    "cli.output_mb": "MB",
    "trace.overhead_share": "1",
}

# a run, set-up included, ends within this many seconds
RUN_LIMIT_S = 170
# single-threaded BLAS and a fixed hash seed in every worker
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "load1": os.getloadavg()[0]}


def run_child(workload, seed, deadline, *, trace=False, setup_only=False, spans_out=None):
    """Run one repetition in a fresh interpreter, killed at ``deadline``
    (a monotonic time stamp); returns its result dict."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    t_spawn = monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
                              capture_output=True, text=True,
                              timeout=max(0.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        return {"problems": [f"repetition killed at the {RUN_LIMIT_S} s run limit"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"problems": [f"worker exited with code {proc.returncode}: {tail[0]}"]}
    out = json.loads(lines[-1])
    if "t_setup_end" in out:
        out["setup_s"] = out["t_setup_end"] - t_spawn
    if "time_scale" in out:
        to_reference_speed(out)
    return out


def to_reference_speed(rep):
    """Set a repetition's times at the reference speed of ``worker.py``'s
    speed probe, with the probe's own time taken out, and derive
    ``steps_per_s``; the measured values go under ``raw``."""
    scale = rep["time_scale"]
    rep["raw"] = {"setup_s": rep["setup_s"], "solution_s": rep["solution_s"]}
    rep["setup_s"] *= scale
    rep["solution_s"] = (rep["solution_s"] - rep["probe_s"]) * scale
    if "integrate_s" in rep:
        rep["raw"]["steps_per_s"] = rep["steps"] / rep["integrate_s"]
        rep["steps_per_s"] = rep["steps"] / ((rep["integrate_s"] - rep["integrate_probe_s"])
                                             * rep["integrate_time_scale"])
    for key, value in rep.get("layers", {}).items():
        if PER_LAYER[key] in ("s", "ms"):
            rep["layers"][key] = value * scale


def median_of(reps, key):
    values = [r[key] for r in reps if key in r]
    return statistics.median(values) if values else 0.0


def judge(reps):
    """Set each repetition's ``ok``: its checks passed and its trajectory hash
    and Newton iteration count equal those of the first good repetition."""
    ref = None
    for r in reps:
        r["ok"] = "solution_s" in r and not r["problems"]
        if not r["ok"]:
            continue
        ref = ref or r
        for key in ("hash", "newton_iters"):
            if r[key] != ref[key]:
                r["problems"].append(f"{key} {r[key]} differs from {ref[key]} "
                                     f"of the first good repetition")
                r["ok"] = False


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns (result line, report)."""
    env = run_environment()
    deadline = monotonic() + RUN_LIMIT_S
    warm = run_child(workload, seed, deadline, setup_only=True)
    if warm.get("problems"):
        raise RuntimeError(f"{workload}: set-up failed: {warm['problems'][0]}")
    SCRATCH.mkdir(exist_ok=True)

    # Repeat while the next repetition, judged by the last one, still ends
    # within the measuring time; the first always runs.
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        plain.append(run_child(workload, seed, deadline))
        if trace:
            spans = SCRATCH / f"spans-{workload}-seed{seed}-rep{len(traced)}.json"
            traced.append(run_child(workload, seed, deadline, trace=True, spans_out=spans))
        now = time.perf_counter()
        if now - start + (now - t_rep) > seconds:
            break
    reps = plain + traced
    judge(reps)

    steps = warm["steps"]
    attempted = steps * len(reps)
    failed = steps * sum(1 for r in reps if not r["ok"])
    plain_ok = [r for r in plain if r["ok"]]
    if trace:
        traced_ok = [r for r in traced if r["ok"]]
        layers = [r["layers"] for r in traced_ok]
        values = {k: statistics.median(L[k] for L in layers) if layers else 0.0
                  for k in PER_LAYER if k != "trace.overhead_share"}
        plain_s = median_of(plain_ok, "solution_s")
        values["trace.overhead_share"] = (median_of(traced_ok, "solution_s") / plain_s - 1.0
                                          if plain_s else 0.0)
        units = PER_LAYER
    else:
        values = {k: median_of(plain_ok, k) for k in END_TO_END if k != "completed_frac"}
        values["completed_frac"] = (attempted - failed) / attempted
        units = END_TO_END

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    env.update(next((r["env"] for r in reps if "env" in r), {}))
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "repetitions": {"plain": plain, "traced": traced}, "result": result}
    with open(SCRATCH / f"report-{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return result, report


def print_summary(report):
    env, result = report["env"], report["result"]
    reps = report["repetitions"]
    print(f"# {report['workload']} seed {report['seed']}: {len(reps['plain'])} plain + "
          f"{len(reps['traced'])} traced repetitions; python {env['python']}, "
          f"numpy {env.get('numpy')}, {env.get('blas')}, nproc {env['nproc']}, "
          f"{env['cpu']}, load {env['load1']:.2f}")
    hashes = sorted({r["hash"] for r in reps["plain"] + reps["traced"] if "hash" in r})
    reference = json.loads((HERE / "reference_hashes.json").read_text()).get(report["workload"])
    note = ""
    if report["seed"] == 0 and hashes:
        note = " (recorded seed-0 hash)" if hashes == [reference] else " (differs from recorded)"
    print(f"#   trajectory sha256 {', '.join(hashes) or '-'}{note}")
    plain = [r for r in reps["plain"] if "raw" in r]
    if plain:
        print(f"#   times scaled to the reference speed by a median factor "
              f"{statistics.median(r['time_scale'] for r in plain):.3f}; raw median solution_s "
              f"{statistics.median(r['raw'].get('solution_s', 0.0) for r in plain):.4g} s")
    for r in reps["plain"] + reps["traced"]:
        for problem in r.get("problems", []):
            print(f"#   FAILED: {problem}")
    for name, m in result["metrics"].items():
        print(f"#   {name:40s} {m['value']:.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "multirate" / "__init__.py").is_file():
        print(f"no multirate sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            result, report = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        print_summary(report)
        results[workload] = result
    if len(results) == 1:
        line = results[workloads[0]]
    else:
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}/{k}": m for w, r in results.items()
                            for k, m in r["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
