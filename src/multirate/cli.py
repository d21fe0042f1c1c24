"""Command-line front end.

Subcommands run simulations, convergence and stability studies, timing
benchmarks and system validation, writing plot-ready CSV files plus a JSON
manifest with all parameters, work counters and content hashes.  Numeric CSV
fields use 17-significant-digit formatting so values round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys as _sys
import time
from pathlib import Path

import numpy as np

from . import analysis, systems
from .errors import ConfigurationError, IntegrationError, MultirateError
from .model import QuadratureSpec, State, TimeGrid, validate_system
from .solver import IntegratorMode, SolverConfig, integrate, verify_trajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4

# the trapezoidal-family defaults use the left rectangle rule of the
# reference experiments
_SCHEMES = {
    "midpoint-midpoint": QuadratureSpec.midpoint_midpoint(),
    "trapezoidal-midpoint": QuadratureSpec.trapezoidal_midpoint(),
    "trapezoidal-trapezoidal": QuadratureSpec.trapezoidal_trapezoidal(),
    "explicit": QuadratureSpec.explicit(),
}

# QuadratureSpec field of each override option
_QUADRATURE_OPTIONS = {"alpha_v": "alpha_V", "gamma_v": "gamma_V", "alpha_w": "alpha_W",
                       "gamma_w": "gamma_W", "slow_placement": "slow_placement"}

_SYSTEM_TOL = {"fpu": 1e-9, "spring-ring": 1e-8}


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


_HASH_CHUNK = 1 << 20


def _sha256(path: Path) -> str:
    """sha256 of a file, read in chunks so that large outputs are never held
    in memory whole."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            h.update(chunk)
    return h.hexdigest()


def _manifest_entry(path: Path, rows: int) -> dict:
    return {"sha256": _sha256(path), "rows": rows}


def _write_manifest(out: Path, payload: dict):
    with open(out / "manifest.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _build_system(args):
    if args.system == "fpu":
        return systems.build_fpu()
    if args.system == "spring-ring":
        return systems.build_spring_ring()
    raise ConfigurationError(f"unknown system {args.system!r}")


def _build_quadrature(args) -> QuadratureSpec:
    if args.scheme not in _SCHEMES:
        raise ConfigurationError(f"unknown scheme {args.scheme!r}")
    overrides = {field: getattr(args, option) for option, field in _QUADRATURE_OPTIONS.items()
                 if getattr(args, option) is not None}
    return dataclasses.replace(_SCHEMES[args.scheme], **overrides)


def _resolve_mode(args) -> IntegratorMode:
    mode = args.mode
    if mode is None:
        mode = "explicit" if args.scheme == "explicit" else "del"
    return {"del": IntegratorMode.IMPLICIT_DEL,
            "pq": IntegratorMode.CLOSED_FORM_PQ,
            "explicit": IntegratorMode.EXPLICIT}[mode]


def _solver_config(args) -> SolverConfig:
    tol = args.tol if args.tol is not None else _SYSTEM_TOL.get(args.system, 1e-9)
    return SolverConfig(newton_tol=tol)


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ConfigurationError(f"missing required option --{name.replace('_', '-')}")


def _check_run_options(t_end: float, steps=(), ratios=()):
    """Reject what no time grid can hold, before any work starts: ``t_end``
    must be finite and non-negative, every ``(name, value)`` step in
    ``steps`` finite and positive, every micro ratio in ``ratios`` at least 1.
    """
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ConfigurationError(f"t_end must be finite and non-negative, got {t_end}")
    for name, value in steps:
        if not (math.isfinite(value) and value > 0):
            raise ConfigurationError(f"{name} must be finite and positive, got {value}")
    for p in ratios:
        if p < 1:
            raise ConfigurationError(f"p must be a positive integer, got {p}")


def _resolved_params(args, extra=None) -> dict:
    skip = {"func", "config"}
    params = {k: v for k, v in vars(args).items() if k not in skip}
    if extra:
        params.update(extra)
    return params


# rows of trajectory.csv converted to Python floats at a time, one
# ``tolist`` per array and chunk: whole arrays would hold about 42 MB of
# Python floats at once for the 50,000 rows of a 5,000-step spring-ring run
_CSV_CHUNK_ROWS = 256


def _write_trajectory(out: Path, traj, sys) -> dict:
    """Write trajectory.csv, one row per micro node.

    Slow columns are filled at macro nodes only (at node 0 alone when the
    grid has no interval); ``%.17g`` formats as ``_fmt`` does.  The rows of
    whole macro intervals are converted to Python floats a chunk at a time;
    the end node's row closes the last interval.
    """
    grid = traj.grid
    p, N = grid.micro_per_macro, grid.n_macro
    header = (["t", "k", "m"]
              + [f"qs_{i}" for i in range(sys.n_slow)]
              + [f"qf_{i}" for i in range(sys.n_fast)]
              + [f"ps_{i}" for i in range(sys.n_slow)]
              + [f"pf_{i}" for i in range(sys.n_fast)])
    slow, fast = ["%.17g"] * sys.n_slow, ["%.17g"] * sys.n_fast
    macro_row = ",".join(["%.17g", "%d", "%d"] + slow + fast + slow + fast) + "\r\n"
    micro_row = ",".join(["%.17g", "%d", "%d"] + [""] * sys.n_slow + fast
                         + [""] * sys.n_slow + fast) + "\r\n"
    times = grid.micro_times()
    per_chunk = max(1, _CSV_CHUNK_ROWS // p)
    path = out / "trajectory.csv"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for k0 in range(0, N, per_chunk):
            k1 = min(k0 + per_chunk, N)
            rows = slice(k0 * p, k1 * p)
            q_s, p_s = traj.slow_q[k0:k1].tolist(), traj.slow_p[k0:k1].tolist()
            for i, (t, q_f, p_f) in enumerate(zip(times[rows].tolist(), traj.fast_q[rows].tolist(),
                                                  traj.fast_p[rows].tolist())):
                k, m = divmod(i, p)
                if m == 0:
                    fh.write(macro_row % (t, k0 + k, 0, *q_s[k], *q_f, *p_s[k], *p_f))
                else:
                    fh.write(micro_row % (t, k0 + k, m, *q_f, *p_f))
        k, m = (N - 1, p) if N else (0, 0)
        fh.write(macro_row % (times[-1], k, m, *traj.slow_q[N].tolist(), *traj.fast_q[-1].tolist(),
                              *traj.slow_p[N].tolist(), *traj.fast_p[-1].tolist()))
    return {"trajectory.csv": _manifest_entry(path, times.size)}


def _write_energy(out: Path, traj, sys) -> dict:
    es = analysis.energy_series(traj, sys)
    header = ["t", "kinetic", "slow_potential", "fast_potential", "total"]
    stiff = es.stiff_energies is not None
    if stiff:
        header += [f"stiff_{j}" for j in range(es.stiff_energies.shape[1])] + ["stiff_total"]
    rows = []
    for i, t in enumerate(es.times):
        row = [_fmt(t), _fmt(es.kinetic[i]), _fmt(es.slow_potential[i]),
               _fmt(es.fast_potential[i]), _fmt(es.total[i])]
        if stiff:
            row += [_fmt(v) for v in es.stiff_energies[i]] + [_fmt(es.stiff_total[i])]
        rows.append(row)
    path = out / "energy.csv"
    _write_csv(path, header, rows)
    return {"energy.csv": _manifest_entry(path, len(rows))}


def cmd_simulate(args) -> int:
    _require(args, "system", "dT", "p", "t_end")
    sysm, q0 = _build_system(args)
    quad = _build_quadrature(args)
    mode = _resolve_mode(args)
    config = _solver_config(args)
    _check_run_options(args.t_end, [("dT", args.dT)], [args.p])
    n_macro = int(round(args.t_end / args.dT)) if args.t_end > 0 else 0
    if n_macro and abs(n_macro * args.dT - args.t_end) > 1e-9 * max(1.0, args.t_end):
        raise ConfigurationError(f"t_end={args.t_end} is not a multiple of dT={args.dT}")
    grid = TimeGrid(dT=args.dT, micro_per_macro=args.p, n_macro=n_macro, t0=0.0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    status = "ok"
    partial = False
    stats = None
    try:
        traj, stats = integrate(q0, sysm, quad, grid, config, mode)
    except IntegrationError as exc:
        traj = exc.partial_trajectory
        status = f"diverged at macro step {exc.step_index}: {exc.cause}"
        partial = True

    outputs = {}
    outputs.update(_write_trajectory(out, traj, sysm))
    outputs.update(_write_energy(out, traj, sysm))
    cert = None
    if not partial and grid.n_macro:
        c = verify_trajectory(traj, q0, sysm, quad, grid)
        cert = {"residual_max": c.residual_max, "matching_macro_max": c.matching_macro_max,
                "matching_micro_max": c.matching_micro_max, "initial_max": c.initial_max}
    _write_manifest(out, {
        "command": "simulate",
        "params": _resolved_params(args, {"n_macro": n_macro, "newton_tol": config.newton_tol}),
        "status": status,
        "partial": partial,
        "stats": None if stats is None else {
            "newton_iters_total": stats.newton_iters_total,
            "matrix_builds_total": stats.matrix_builds_total,
            "wall_time_total": stats.wall_time_total,
            "solve_time_total": stats.solve_time_total,
            "jacobian_time_total": stats.jacobian_time_total,
            "residual_max": stats.residual_max,
            "linear_solver": stats.linear_solver,
        },
        "certificate": cert,
        "outputs": outputs,
    })
    print(f"simulate: {status}; outputs in {out}")
    return EXIT_DIVERGED if partial else EXIT_OK


def _parse_float_list(text: str, name: str):
    try:
        vals = [float(v) for v in str(text).split(",") if v != ""]
    except ValueError as exc:
        raise ConfigurationError(f"bad {name} list: {exc}")
    if not vals:
        raise ConfigurationError(f"{name} list is empty")
    return vals


def _parse_int_list(text: str, name: str):
    vals = _parse_float_list(text, name)
    if not all(v.is_integer() for v in vals):
        raise ConfigurationError(f"{name} list must hold integers, got {text!r}")
    return [int(v) for v in vals]


def cmd_converge(args) -> int:
    _require(args, "system", "p", "t_end", "dT_list", "ref_dT")
    sysm, q0 = _build_system(args)
    quad = _build_quadrature(args)
    config = _solver_config(args)
    dT_list = _parse_float_list(args.dT_list, "dT")
    _check_run_options(args.t_end, [("dT", v) for v in dT_list] + [("ref-dT", args.ref_dT)],
                       [args.p])
    mode = _resolve_mode(args)

    table = analysis.convergence_study(
        sysm, quad, q0, args.p, dT_list, args.t_end, config,
        ref_dT=args.ref_dT, mode=mode)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    header = ["dT", "e_q_mac", "e_p_mac", "e_q_mic", "e_p_mic",
              "rate_q_mac", "rate_p_mac", "rate_q_mic", "rate_p_mic", "note"]
    rows = []
    n = len(table.dT_values)
    for i in range(n):
        row = [_fmt(table.dT_values[i])]
        for series in table.SERIES:
            row.append(_fmt(table.errors(series)[i]))
        for series in table.SERIES:
            pair = table.observed_orders[series]["pairwise"]
            row.append(_fmt(pair[i]) if i < n - 1 else "")
        row.append(table.notes[i])
        rows.append(row)
    path = out / "convergence.csv"
    _write_csv(path, header, rows)
    with open(out / "convergence.json", "w") as fh:
        json.dump({
            "dT": list(map(float, table.dT_values)),
            "errors": {s: [float(v) for v in table.errors(s)] for s in table.SERIES},
            "observed_orders": table.observed_orders,
            "notes": table.notes,
            "reference": {"dT": args.ref_dT, "micro_per_macro": 1, "t_end": args.t_end},
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out, {
        "command": "converge",
        "params": _resolved_params(args, {"newton_tol": config.newton_tol}),
        "status": "ok",
        "outputs": {
            "convergence.csv": _manifest_entry(path, len(rows)),
            "convergence.json": _manifest_entry(out / "convergence.json", 1),
        },
    })
    for s in table.SERIES:
        print(f"converge: {s} lsq order {table.observed_orders[s]['lsq']:.3f}")
    return EXIT_OK


def cmd_stability(args) -> int:
    _require(args, "omega_s", "dT_list", "p_list")
    dT_list = _parse_float_list(args.dT_list, "dT")
    p_list = _parse_int_list(args.p_list, "p")

    rows = []
    for p in p_list:
        for dT in dT_list:
            rep = analysis.stability_report(args.omega_s, dT, p, args.rule)
            rows.append([_fmt(rep.omega_dT), _fmt(args.omega_s * dT / p), p, _fmt(rep.trace),
                         int(rep.stable), _fmt(rep.analytic_bound)])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "stability.csv"
    _write_csv(path, ["omega_dT", "omega_dt", "p", "trace", "stable", "analytic_bound"], rows)
    _write_manifest(out, {
        "command": "stability",
        "params": _resolved_params(args),
        "status": "ok",
        "outputs": {"stability.csv": _manifest_entry(path, len(rows))},
    })
    print(f"stability: {len(rows)} points written to {path}")
    return EXIT_OK


def cmd_bench(args) -> int:
    _require(args, "system", "t_end", "p_list")
    sysm, q0 = _build_system(args)
    quad = _build_quadrature(args)
    mode = _resolve_mode(args)
    config = _solver_config(args)
    p_list = _parse_int_list(args.p_list, "p")
    _check_run_options(args.t_end, [("dt", args.dt)], p_list)
    dt = args.dt
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for p in p_list:
        dT = p * dt
        n_macro = int(round(args.t_end / dT))
        grid = TimeGrid(dT=dT, micro_per_macro=p, n_macro=n_macro, t0=0.0)
        try:
            t0 = time.perf_counter()
            _, stats = integrate(q0, sysm, quad, grid, config, mode)
            wall = time.perf_counter() - t0
            rows.append([p, _fmt(dT), n_macro, _fmt(wall), stats.newton_iters_total,
                         _fmt(stats.solve_time_per_step), _fmt(stats.jacobian_time_per_step), "",
                         stats.linear_solver])
        except IntegrationError as exc:
            rows.append([p, _fmt(dT), n_macro, "", "", "", "", f"failed: {exc.cause}", ""])
    path = out / "bench.csv"
    _write_csv(path, ["p", "dT", "n_macro", "t_cpu_total", "newton_iters_total",
                      "t_dx_per_step", "t_jacobi_per_step", "note", "linear_solver"], rows)
    _write_manifest(out, {
        "command": "bench",
        "params": _resolved_params(args, {"newton_tol": config.newton_tol}),
        "status": "ok",
        "outputs": {"bench.csv": _manifest_entry(path, len(rows))},
    })
    print(f"bench: {len(rows)} rows written to {path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    _require(args, "system")
    sysm, q0 = _build_system(args)
    rng = np.random.default_rng(args.seed)
    probes = []
    for _ in range(args.probes):
        probes.append(State(
            q0.q_slow + rng.uniform(-0.2, 0.2, sysm.n_slow),
            q0.q_fast + rng.uniform(-0.2, 0.2, sysm.n_fast),
            np.zeros(sysm.n_slow), np.zeros(sysm.n_fast)))
    report = validate_system(sysm, probes, h=args.h)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "command": "validate",
        "params": _resolved_params(args),
        "passed": report.passed,
        "tolerance": report.tolerance,
        "max_deviation": report.max_deviation,
        "probes": [
            {"index": p.index, "deviation_slow": p.deviation_slow,
             "deviation_fast": p.deviation_fast, "ok": p.ok, "note": p.note}
            for p in report.probes
        ],
    }
    path = out / "validation.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out, {
        "command": "validate",
        "params": _resolved_params(args),
        "status": "ok" if report.passed else "failed",
        "outputs": {"validation.json": _manifest_entry(path, 1)},
    })
    print(f"validate: {'pass' if report.passed else 'FAIL'} "
          f"(max deviation {report.max_deviation:.3e}, tolerance {report.tolerance:g})")
    return EXIT_OK


def _add_output_options(sp):
    sp.add_argument("--out", default="out", help="output directory")
    sp.add_argument("--config", default=None, help="JSON file with option defaults")


def _add_system_option(sp):
    sp.add_argument("--system", choices=("fpu", "spring-ring"), default=None)


def _add_run_options(sp):
    # the subcommands that integrate
    _add_system_option(sp)
    sp.add_argument("--scheme", choices=tuple(_SCHEMES), default="midpoint-midpoint")
    sp.add_argument("--alpha-v", dest="alpha_v", type=float, default=None)
    sp.add_argument("--alpha-w", dest="alpha_w", type=float, default=None)
    sp.add_argument("--gamma-v", dest="gamma_v", type=float, default=None)
    sp.add_argument("--gamma-w", dest="gamma_w", type=float, default=None)
    sp.add_argument("--slow-placement", dest="slow_placement", choices=("micro", "macro"),
                    default=None)
    sp.add_argument("--tol", type=float, default=None, help="Newton tolerance (infinity norm)")
    sp.add_argument("--mode", choices=("del", "pq", "explicit"), default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="multirate",
        description="Multirate variational integration: simulations, studies, benchmarks.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="integrate one trajectory and write CSV outputs")
    _add_run_options(sp)
    _add_output_options(sp)
    sp.add_argument("--dT", dest="dT", type=float, default=None, help="macro step")
    sp.add_argument("--p", type=int, default=None, help="micro steps per macro step")
    sp.add_argument("--t-end", dest="t_end", type=float, default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("converge", help="macro-step sweep against a fine reference")
    _add_run_options(sp)
    _add_output_options(sp)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--t-end", dest="t_end", type=float, default=None)
    sp.add_argument("--dT-list", dest="dT_list", default=None, help="comma-separated macro steps")
    sp.add_argument("--ref-dT", dest="ref_dT", type=float, default=None,
                    help="single-rate reference step")
    sp.set_defaults(func=cmd_converge)

    sp = sub.add_parser("stability", help="tabulate linear stability over a parameter grid")
    _add_output_options(sp)
    sp.add_argument("--rule", choices=("trapezoidal", "midpoint"), default="trapezoidal")
    sp.add_argument("--omega-s", dest="omega_s", type=float, default=None)
    sp.add_argument("--dT-list", dest="dT_list", default=None)
    sp.add_argument("--p-list", dest="p_list", default=None)
    sp.set_defaults(func=cmd_stability)

    sp = sub.add_parser("bench", help="timing sweep over the micro-per-macro ratio")
    _add_run_options(sp)
    _add_output_options(sp)
    sp.add_argument("--dt", type=float, default=0.001, help="fixed micro step")
    sp.add_argument("--t-end", dest="t_end", type=float, default=None)
    sp.add_argument("--p-list", dest="p_list", default=None)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("validate", help="finite-difference check of supplied gradients")
    _add_system_option(sp)
    _add_output_options(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--probes", type=int, default=100)
    sp.add_argument("--h", type=float, default=1e-6)
    sp.set_defaults(func=cmd_validate)
    return ap


def _apply_config_file(ap, argv):
    # two-pass parse so a JSON config file can supply defaults for any flag
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return
    try:
        values = json.loads(Path(known.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {known.config!r}: {exc}")
    mapped = {str(k).replace("-", "_"): v for k, v in values.items()}
    for sp in ap._subparsers._group_actions[0].choices.values():  # noqa: SLF001
        valid = {a.dest for a in sp._actions}  # noqa: SLF001
        sp.set_defaults(**{k: v for k, v in mapped.items() if k in valid})


def main(argv=None) -> int:
    argv = list(_sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        _apply_config_file(ap, argv)
        args = ap.parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=_sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"I/O error: {exc}", file=_sys.stderr)
        return EXIT_IO
    except (ValueError, MultirateError) as exc:
        print(f"configuration error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
