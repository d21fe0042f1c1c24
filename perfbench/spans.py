"""Timing shims installed from outside the program, for the traced run only.

A :class:`Tracer` replaces module-level names that the program calls through
(``solver.macro_step``, ``cli.integrate``, ...) with wrappers that record a
span: name, start, end and the id of the enclosing span.  Calls into the
system's callables (the potential callbacks) happen hundreds of thousands of
times per run, so they are not kept one by one: each call is added to a
counter keyed by callback name, enclosing span and whether a Jacobian
builder is on the call stack.  Everything stays in memory until
:meth:`Tracer.dump`.

Nothing here is imported by the untraced runs.
"""

from __future__ import annotations

import json
import sys
import time

# callables of ``MultirateSystem`` that the tracer times
SYSTEM_CALLABLES = ("slow_potential", "slow_potential_grad", "fast_potential",
                    "fast_potential_grad", "slow_potential_hessian",
                    "fast_potential_hessian", "oscillatory_energy")
GRAD_CALLBACKS = ("slow_potential_grad", "fast_potential_grad")
HESS_CALLBACKS = ("slow_potential_hessian", "fast_potential_hessian")
STEP_SPANS = ("initial_step", "macro_step", "explicit_macro_step", "pq_step")


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent id]
        self.callbacks = {}      # (callback, parent id, in_jacobian) -> [calls, seconds]
        self._stack = [-1]
        # every span wrapper shares this code object
        self._span_code = self.wrap("", len).__code__

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def patch(self, module, name):
        """Replace ``module.name`` by its traced wrapper."""
        setattr(module, name, self.wrap(name, getattr(module, name)))

    def _callback(self, name, fn):
        counters, stack, clock = self.callbacks, self._stack, time.perf_counter
        span_code, getframe = self._span_code, sys._getframe

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                # Walk from the caller up to the nearest traced span: a frame
                # whose function name mentions "jacobian" means the call
                # serves Jacobian assembly (analytic or finite-difference),
                # whose time the solver already reports as jacobian_time.
                in_jacobian = False
                frame = getframe(1)
                while frame is not None:
                    code = frame.f_code
                    if code is span_code:
                        break
                    if "jacobian" in code.co_name:
                        in_jacobian = True
                        break
                    frame = frame.f_back
                key = (name, stack[-1], in_jacobian)
                entry = counters.get(key)
                if entry is None:
                    counters[key] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt

        return timed

    def instrument_system(self, system):
        """Time every callable of a ``MultirateSystem`` in place."""
        for name in SYSTEM_CALLABLES:
            fn = getattr(system, name)
            if fn is not None:
                setattr(system, name, self._callback(name, fn))
        return system

    def dump(self, path, extra=None):
        """Write spans and callback counters as JSON."""
        payload = {
            "spans": self.spans,
            "callbacks": [[name, parent, jac, calls, secs]
                          for (name, parent, jac), (calls, secs) in self.callbacks.items()],
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh)


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class SpanTree:
    """Self times and subtree sums over a recorded trace."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.children = {}
        for sid, (_, _, _, parent) in enumerate(self.spans):
            self.children.setdefault(parent, []).append(sid)
        self.callbacks = tracer.callbacks

    def duration(self, sid):
        return self.spans[sid][2] - self.spans[sid][1]

    def named(self, name):
        return [sid for sid, rec in enumerate(self.spans) if rec[0] == name]

    def subtree(self, sid):
        out, todo = [], [sid]
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.children.get(s, ()))
        return out

    def callback_time(self, sids, names=None, in_jacobian=None):
        """(calls, seconds) of callbacks whose enclosing span is in ``sids``."""
        sids = set(sids)
        calls, secs = 0, 0.0
        for (name, parent, jac), (n, t) in self.callbacks.items():
            if parent in sids and (names is None or name in names) \
                    and (in_jacobian is None or jac == in_jacobian):
                calls += n
                secs += t
        return calls, secs

    def self_time(self, sid):
        """Span duration minus child spans and callbacks made directly in it."""
        own = self.duration(sid) - sum(self.duration(c) for c in self.children.get(sid, ()))
        return own - self.callback_time([sid])[1]


def layer_metrics(tree: SpanTree, n_steps, n_unknowns, stats, pq_mode, out_bytes):
    """Per-layer metrics of one traced repetition.

    ``stats`` holds the solver's own ``newton_iters_total``,
    ``jacobian_time_total`` and ``solve_time_total``.  Layers a workload does
    not exercise report 0.
    """
    integ = tree.named("integrate")[0]
    in_integ = tree.subtree(integ)
    wall = tree.duration(integ)
    names = {sid: tree.spans[sid][0] for sid in in_integ}

    steps = [sid for sid in in_integ if names[sid] in STEP_SPANS]
    momenta_steps = [sid for sid in in_integ if names[sid] == "interval_momenta"]
    momenta_all = tree.named("interval_momenta")
    grad_calls = tree.callback_time(in_integ, GRAD_CALLBACKS)[0]
    hess_calls = tree.callback_time(in_integ, HESS_CALLBACKS)[0]
    cb_secs = tree.callback_time(in_integ)[1]
    momenta_secs = sum(tree.duration(s) for s in momenta_steps)
    # callbacks outside Jacobian assembly and outside momenta evaluation
    momenta_tree = {s for m in momenta_steps for s in tree.subtree(m)}
    outside = [sid for sid in in_integ if sid not in momenta_tree]
    cb_residual = tree.callback_time(outside, in_jacobian=False)[1]

    iters = stats["newton_iters_total"]
    jac = stats["jacobian_time_total"]
    lin = stats["solve_time_total"]
    lu_flop = iters * 2.0 / 3.0 * n_unknowns ** 3
    step_ms = [1e3 * tree.duration(s) for s in steps]
    pq_ms = [1e3 * tree.duration(s) for s in steps if names[s] == "pq_step"]

    verify = tree.named("verify_trajectory")
    energy = tree.named("energy_series")
    command = tree.named("cmd_simulate")
    solution = sum(tree.duration(s) for s in verify + energy) + wall
    if command:
        solution = tree.duration(command[0])

    return {
        "systems.grad_calls_per_step": grad_calls / n_steps,
        "systems.hess_calls_per_step": hess_calls / n_steps,
        "systems.callback_share": cb_secs / wall,
        "discretization.momenta_calls_per_step": len(momenta_all) / n_steps,
        "discretization.momenta_share": sum(tree.duration(s) for s in momenta_all) / solution,
        "solver.newton_iters_per_step": iters / n_steps,
        "solver.jacobian_share": jac / wall,
        "solver.linsolve_share": lin / wall,
        "solver.lu_gflop_per_step": lu_flop / n_steps / 1e9,
        "solver.lu_gflops": lu_flop / lin / 1e9 if lin > 0 else 0.0,
        "solver.jacobian_mb_per_step": iters * n_unknowns ** 2 * 8 / n_steps / 1e6,
        "solver.unattributed_share": (wall - jac - lin - momenta_secs - cb_residual) / wall,
        "solver.step_samples": len(step_ms),
        "solver.step_ms.p50": percentile(step_ms, 50),
        "solver.step_ms.p90": percentile(step_ms, 90) if len(step_ms) >= 100 else 0.0,
        "solver.verify_s": sum(tree.duration(s) for s in verify),
        "schemes.step_ms.p50": percentile(pq_ms, 50) if pq_ms else 0.0,
        "schemes.fd_jacobian_share": jac / wall if pq_mode else 0.0,
        "analysis.energy_s": sum(tree.duration(s) for s in energy),
        "cli.output_s": tree.self_time(command[0]) if command else 0.0,
        "cli.output_mb": out_bytes / 1e6,
    }
