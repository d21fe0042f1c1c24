"""Command-line front end.

Subcommands run simulations, convergence and stability studies, timing
benchmarks and system validation, writing plot-ready CSV files plus a JSON
manifest with all parameters, work counters and content hashes.  Numeric CSV
fields use 17-significant-digit formatting so values round-trip exactly;
``simulate`` makes its trajectory and energy rows a block at a time, as the
bytes of ``"%.17g"`` computed on whole arrays (:func:`_csv_rows`).
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
from .model import QuadratureSpec, State, TimeGrid, Trajectory, _macro_steps, validate_system
from .solver import (_VERIFY_CHUNK, IntegratorMode, SolverConfig, TrajectoryCertificate,
                     _empty_trajectory, _store_step, integrate, verify_trajectory)

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


# Tables of _format17, built on first use: for each decimal exponent k in
# [-100, 100], the least double >= 10**k, and 10**(16 - k) as the two halves
# hi + mid of its nearest double plus the correctly rounded rest lo; the
# ASCII of each 4-digit group; the masks and byte patterns of the layout.
_DIGIT_TABLES = None


def _digit_tables() -> dict:
    global _DIGIT_TABLES
    if _DIGIT_TABLES is not None:
        return _DIGIT_TABLES

    def ratio(k):       # 10**k as a ratio of integers
        return (10 ** k, 1) if k >= 0 else (1, 10 ** -k)

    floor_pow, scale_hi, scale_mid, scale_lo = [], [], [], []
    for k in range(-100, 101):
        num, den = ratio(k)
        v = num / den   # correctly rounded, as int / int is
        a, b = v.as_integer_ratio()
        floor_pow.append(math.nextafter(v, math.inf) if a * den < num * b else v)
        num, den = ratio(16 - k)
        h = num / den
        a, b = h.as_integer_ratio()
        c = 134217729.0 * h     # Veltkamp's split, exact
        scale_hi.append(c - (c - h))
        scale_mid.append(h - scale_hi[-1])
        scale_lo.append((num * b - a * den) / (den * b))

    def low(nbytes):    # the mask of a word's first nbytes bytes
        return (1 << 8 * min(max(nbytes, 0), 8)) - 1

    # the 16 digits after the first fill two words, da and db, a byte each;
    # masks by how many of them come first (kept, or before the point)
    dots = 0x2E2E2E2E2E2E2E2E
    lead = [("-" if neg else "") + ("0." + "0" * (-k - 1) if -4 <= k < 0 else "")
            for neg in (0, 1) for k in range(-100, 102)]
    group = np.arange(10000, dtype=np.uint64)
    _DIGIT_TABLES = {
        "floor_pow": np.array(floor_pow), "scale_hi": np.array(scale_hi),
        "scale_mid": np.array(scale_mid), "scale_lo": np.array(scale_lo),
        "ascii4": sum((group // 10 ** (3 - i) % 10 + 48) << np.uint64(8 * i) for i in range(4)),
        "keep_a": [low(c) for c in range(17)],
        "keep_b": [low(c - 8) for c in range(17)],
        # the point after c digits; entries 16 and 17: no point
        "dot_a": [(low(c + 1) ^ low(c)) & dots for c in range(16)] + [0, 0],
        "dot_b": [(low(c - 7) ^ low(c - 8)) & dots for c in range(16)] + [0, 0],
        # by 202 * sign + k + 100: "-", then "0." and zeros for k in -4..-1
        "lead": [int.from_bytes(t.encode(), "little") for t in lead],
        # by k + 100: "e+XX" from byte 1, outside the fixed range -4..16
        "exp": [0 if -4 <= k <= 16 else int.from_bytes(b"\0" + b"e%+03d" % k, "little")
                for k in range(-100, 102)],
    }
    for name in ("keep_a", "keep_b", "dot_a", "dot_b", "lead", "exp"):
        _DIGIT_TABLES[name] = np.array(_DIGIT_TABLES[name], dtype=np.uint64)
    return _DIGIT_TABLES


def _decimal17(x: np.ndarray):
    """The decimal exponent k and the 17 significant digits n, an integer,
    of each value of the float64 array ``x`` as ``"%.17g"`` rounds it (0
    and 0 for zeros), and which values Python must format instead.

    n is |v| 10**(16 - k) rounded.  Dekker's exact product of |v| by the
    tables' split power of ten, plus |v| times the power's rest, is within
    1e-13 of that number, so it rounds as the exact value does unless its
    fraction is within 1e-9 of 1/2.  Those possible ties, and the values
    outside the tables (non-finite, subnormal, or with a 3-digit exponent),
    are left to Python."""
    t = _digit_tables()
    k = ((((x.view(np.int64) >> 52) & 0x7FF) - 1023) * 78913) >> 18  # floor(log10 2**e)
    odd = (k < -100) | (k > 99)
    a = np.abs(x)
    a[odd] = 1.0
    k[odd] = 0
    k += a >= t["floor_pow"].take(k + 101)      # now 10**k <= a < 10**(k + 1)
    i = k + 100
    hi, mid, lo = (t[name].take(i) for name in ("scale_hi", "scale_mid", "scale_lo"))
    a_hi = a * 134217729.0
    a_hi -= a_hi - a
    a_lo = a - a_hi
    y = a * (hi + mid)      # >= 2**53, an integer
    lo *= a
    lo += a_lo * mid
    lo += ((a_hi * hi - y) + a_hi * mid + a_lo * hi)
    r = np.rint(lo)
    n = y.astype(np.int64)
    n += r.astype(np.int64)
    up = n == 10 ** 17      # rounded up to the next power of ten
    n[up] = 10 ** 16
    k += up
    zero = x == 0
    n[zero] = 0
    k[zero] = 0
    lo -= r
    return k, n, (np.abs(lo) > 0.5 - 1e-9) | (odd & ~zero) | (k > 99) | (k < -99)


def _format17(x: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` for each value v of the float64 array ``x``, as
    (x.size, 4) little-endian uint64 words: 32 bytes a value, NUL where no
    character is.

    Bytes 0-5 hold the sign and, for the exponents -4..-1, "0." and the
    zeros after it; byte 7 the first of the 17 significant digits; bytes
    8-24 the other 16 with the point after the integer digits, the
    fraction's trailing zeros NUL; bytes 25-28 "e+XX" in exponent form.
    Bytes 29-31 stay NUL for the separator."""
    t = _digit_tables()
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    k, n, fallback = _decimal17(x)
    out = np.empty((x.size, 4), "<u8")
    top = n // 10 ** 8
    n -= top * 10 ** 8
    first = top // 10 ** 8
    out[:, 0] = (t["lead"].take(np.signbit(x) * 202 + k + 100)
                 | (first + 48).astype(np.uint64) << 56)
    top -= first * 10 ** 8
    # the 16 digits after the first, one byte each in the words da and db
    ascii4 = t["ascii4"]
    da, db = (ascii4.take(q) | ascii4.take(v - q * 10 ** 4) << 32
              for v, q in ((top, top // 10 ** 4), (n, n // 10 ** 4)))
    # how many are significant: up to the highest byte that is not "0", from
    # the exponent of the word (bytes < 16) as a double
    zeros = np.uint64(0x3030303030303030)
    sig = np.maximum(((da ^ zeros).astype(np.float64).view(np.int64) + (1 << 52) >> 55) - 127,
                     ((db ^ zeros).astype(np.float64).view(np.int64) + (1 << 52) >> 55) - 119)
    whole = np.where((k >= 0) & (k <= 16), k, 0)  # of the 16, those before the point
    dot = np.where((sig > whole) & ((k >= 0) | (k < -4)), whole, 17)
    keep = np.maximum(sig, whole)
    da &= t["keep_a"].take(keep)
    db &= t["keep_b"].take(keep)
    fa = da & ~t["keep_a"].take(whole)  # the fraction's digits move up a byte
    fb = db & ~t["keep_b"].take(whole)
    out[:, 1] = da ^ fa | fa << 8 | t["dot_a"].take(dot)
    out[:, 2] = db ^ fb | fb << 8 | fa >> 56 | t["dot_b"].take(dot)
    out[:, 3] = fb >> 56 | t["exp"].take(k + 100)
    text = out.view(np.uint8).reshape(-1, 32)
    for i in np.flatnonzero(fallback):
        text[i] = np.frombuffer(_fmt(x[i]).encode().ljust(32, b"\0"), np.uint8)
    return out


class _CsvLayout:
    """The layout of CSV rows whose empty fields a (rows, fields) mask
    marks, bound once for every block of such rows (:func:`_csv_layout`),
    with the text buffer of its blocks."""

    def __init__(self, kept, seps, row, at):
        self.kept, self.seps, self.row, self.at = kept, seps, row, at
        self.text = None if row is None else row[None].copy()

    def place(self, words: np.ndarray) -> np.ndarray:
        """The text of a block of n groups whose fields' slots are the
        (n, slots * 4) ``words``: the first n rows of the reused buffer,
        grown to n rows where it has fewer, with ``words`` placed."""
        if self.row is None:
            return words
        if len(self.text) < len(words):
            self.text = np.tile(self.row, (len(words), 1))
        text = self.text[:len(words)]
        text[:, self.at] = words
        return text


def _csv_layout(blank: np.ndarray) -> _CsvLayout:
    """How :func:`_csv_rows` lays out rows whose empty fields the (rows,
    fields) mask ``blank`` marks: the flat indices ``kept`` of the other
    fields and their separator words ``seps``; where fields are empty, one
    group of rows as 64-bit words, ``row``, with the separators of each
    run of empty fields written in once, NUL-padded to whole words, and
    ``at``, the words of the other fields' 32-byte slots.  A block's text
    is a reused buffer of such rows, one per group, in which it places only
    its slots (:meth:`_CsvLayout.place`): every word of a row it uses is
    rewritten or an empty field's, so nothing of an earlier block stays."""
    blank, f = blank.ravel(), blank.shape[1]
    last = np.arange(blank.size) % f == f - 1
    kept = np.flatnonzero(~blank)
    # a field's separator goes in bytes 29-30 of its _format17 slot
    seps = np.where(last[kept], ord("\r") << 40 | ord("\n") << 48, ord(",") << 40)
    if not blank.any():
        return _CsvLayout(kept, seps.astype(np.uint64), None, None)
    row, at, words = [], [], 0
    ends = [*(np.flatnonzero(np.diff(blank)) + 1), blank.size]
    for a, b in zip([0, *ends], ends):
        if blank[a]:
            run = b"".join(b"\r\n" if e else b"," for e in last[a:b])
            row.append(np.frombuffer(run.ljust(-(-len(run) // 8) * 8, b"\0"), "<u8"))
        else:
            row.append(np.zeros(4 * (b - a), "<u8"))
            at.append(np.arange(words, words + 4 * (b - a)))
        words += len(row[-1])
    return _CsvLayout(kept, seps.astype(np.uint64), np.concatenate(row), np.concatenate(at))


def _csv_rows(values: np.ndarray, layout: _CsvLayout) -> bytes:
    """The CSV lines of ``values`` (groups, rows, fields), each ended by
    CRLF: every field is ``"%.17g"`` of its value, or empty where the
    (rows, fields) mask of the :func:`_csv_layout` ``layout`` is set, in
    every group alike.  Only the other fields are read and formatted; where
    some are empty, the text is made in the layout's buffer."""
    n, r, f = values.shape
    words = _format17(values.reshape(n, r * f)[:, layout.kept]).reshape(n, -1)
    words[:, 3::4] |= layout.seps
    return layout.place(words).tobytes().translate(None, b"\0")


# rows of trajectory.csv formatted at a time
_CSV_CHUNK_ROWS = 128

# micro rows that simulate holds between writes of its outputs, in whole
# certificate windows (_Outputs): 441 ring steps at p=10, with which a 5,000
# step run peaks at 40.7 MB (946 steps: 41.6; 252: 40.3; whole: 50).
_CHUNK_ROWS = 5_000


class _Outputs:
    """trajectory.csv, energy.csv and the certificate of ``simulate``,
    written a chunk of steps at a time in memory that does not grow with the
    horizon.  The buffer holds whole certificate windows (``_VERIFY_CHUNK``
    intervals, one every ``_VERIFY_CHUNK - 1``) plus one interval, whose end
    momenta wait for the next step: it becomes the next chunk's first.  Times
    are the whole grid's; the files open, in binary, once the steps have
    started, and close on leaving the ``with`` block, on every path.

    A chunk's rows go out ``_CSV_CHUNK_ROWS`` at a time, as the bytes of
    :func:`_csv_rows`, which are hashed and written once.  What does not
    change from block to block is made once per run: the layouts of the
    rows, the end row and the energies with their text buffers, and one
    block array of whole intervals whose ``m`` column and micro times
    ``m dt`` are filled in here; a block writes its times as
    ``(t0 + k dT) + m dt``."""

    def __init__(self, out: Path, sys, q0: State, quad: QuadratureSpec, grid: TimeGrid):
        p = grid.micro_per_macro
        capacity = max(1, _CHUNK_ROWS // ((_VERIFY_CHUNK - 1) * p)) * (_VERIFY_CHUNK - 1) + 1
        self.buf = _empty_trajectory(q0, TimeGrid(grid.dT, p, capacity), sys)
        self.out, self.sys, self.q0, self.quad, self.grid = out, sys, q0, quad, grid
        self.k0 = self.n = 0    # the buffer holds intervals k0..k0+n-1
        self.cert, self.files = TrajectoryCertificate(0.0, 0.0, 0.0, 0.0), None
        # trajectory rows t, k, m, q_s, q_f, p_s, p_f; micro rows leave the
        # slow ones empty
        n_s, n_f = sys.n_slow, sys.n_fast
        self.cols = [slice(3 + a, 3 + a + b) for a, b in (
            (0, n_s), (n_s, n_f), (n_s + n_f, n_s), (2 * n_s + n_f, n_f))]
        blank = np.zeros((p, 3 + 2 * n_s + 2 * n_f), bool)
        blank[1:, self.cols[0]] = blank[1:, self.cols[2]] = True
        self.block = np.empty((max(1, _CSV_CHUNK_ROWS // p),) + blank.shape)
        self.block[:, :, 2] = np.arange(p)
        self.micro_times = np.arange(p) * grid.dt
        self.layouts = {"rows": _csv_layout(blank), "end": _csv_layout(blank[:1]),
                        "energy": _csv_layout(np.zeros(
                            (1, 5 + (n_f + 1 if sys.oscillatory_energy else 0)), bool))}

    def store(self, step):
        if self.n == self.buf.n_macro:
            self._flush()
        _store_step(self.buf, step, step.index - self.k0)
        self.n += 1

    def pad(self):
        """Zero rows after a failed step, as in a partial trajectory."""
        buf, p, self.cert = self.buf, self.grid.micro_per_macro, None
        while self.k0 + self.n < self.grid.n_macro:
            if self.n == buf.n_macro:
                self._flush()
            for a, stride in ((buf.slow_q, 1), (buf.slow_p, 1), (buf.fast_q, p), (buf.fast_p, p)):
                a[self.n * stride + 1:] = 0.0
            self.n = min(buf.n_macro, self.grid.n_macro - self.k0)

    def finish(self) -> dict:
        """Write the last chunk and its end node; the manifest's outputs."""
        self._flush(final=True)
        N, p = self.grid.n_macro, self.grid.micro_per_macro
        return {name: {"sha256": sha.hexdigest(), "rows": rows}
                for (name, (_, sha)), rows in zip(self.files.items(), (N * p + 1, N + 1))}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for fh, _ in (self.files or {}).values():
            fh.close()

    def _write(self, name: str, data: bytes):
        """Write ``data`` to output ``name``, hashing it as written."""
        fh, sha = self.files[name]
        fh.write(data)
        sha.update(data)

    def _flush(self, final: bool = False):
        buf, sys, grid, k0 = self.buf, self.sys, self.grid, self.k0
        p, n_s, n_f = grid.micro_per_macro, sys.n_slow, sys.n_fast
        if self.files is None:
            self.files = {name: (open(self.out / name, "wb"), hashlib.sha256())
                          for name in ("trajectory.csv", "energy.csv")}
            energy = ["t", "kinetic", "slow_potential", "fast_potential", "total"]
            if sys.oscillatory_energy:
                energy += [f"stiff_{j}" for j in range(n_f)] + ["stiff_total"]
            self._write("trajectory.csv", ",".join(["t", "k", "m"] + [
                f"{c}_{i}" for c, n in (("qs", n_s), ("qf", n_f), ("ps", n_s), ("pf", n_f))
                for i in range(n)]).encode() + b"\r\n")
            self._write("energy.csv", ",".join(energy).encode() + b"\r\n")
        n, layouts = (self.n if final else self.n - 1), self.layouts
        q_s, q_f, p_s, p_f = self.cols
        per_block = len(self.block)
        for a in range(0, n, per_block):
            b = min(a + per_block, n)
            k = np.arange(k0 + a, k0 + b)[:, None]
            # the block's first b - a intervals; micro rows leave q_s, p_s unread
            rows = self.block[:b - a]
            np.add(grid.t0 + k * grid.dT, self.micro_times, out=rows[:, :, 0])
            rows[:, :, 1] = k
            rows[:, 0, q_s], rows[:, 0, p_s] = buf.slow_q[a:b], buf.slow_p[a:b]
            rows[:, :, q_f] = buf.fast_q[a * p:b * p].reshape(b - a, p, n_f)
            rows[:, :, p_f] = buf.fast_p[a * p:b * p].reshape(b - a, p, n_f)
            self._write("trajectory.csv", _csv_rows(rows, layouts["rows"]))
        if final:
            end = np.concatenate(([grid.t_end, *((k0 + n - 1, p) if k0 + n else (0, 0))],
                                  buf.slow_q[n], buf.fast_q[n * p], buf.slow_p[n],
                                  buf.fast_p[n * p]))
            self._write("trajectory.csv", _csv_rows(end[None, None], layouts["end"]))
        nodes, upto = n + final, slice(0, (n + final - 1) * p + 1)
        es = analysis.energy_series(Trajectory(TimeGrid(grid.dT, p, nodes - 1), buf.slow_q[:nodes],
                                               buf.slow_p[:nodes], buf.fast_q[upto],
                                               buf.fast_p[upto]), sys)
        cols = [grid.t0 + grid.dT * np.arange(k0, k0 + nodes), es.kinetic, es.slow_potential,
                es.fast_potential, es.total]
        if es.stiff_energies is not None:
            cols += [*es.stiff_energies.T, es.stiff_total]
        self._write("energy.csv", _csv_rows(np.stack(cols, axis=1)[:, None], layouts["energy"]))
        if self.cert is not None:
            # maxima over the chunks' windows: those over the whole trajectory's
            cert = verify_trajectory(buf, self.q0 if k0 == 0 else None, sys, self.quad,
                                     TimeGrid(grid.dT, p, self.n))
            self.cert = TrajectoryCertificate(*map(max, zip(dataclasses.astuple(self.cert),
                                                            dataclasses.astuple(cert))))
        if not final:
            for a, stride in ((buf.slow_q, 1), (buf.slow_p, 1), (buf.fast_q, p), (buf.fast_p, p)):
                a[:stride + 1] = a[n * stride:(n + 1) * stride + 1]
            self.k0, self.n = k0 + n, 1


def cmd_simulate(args) -> int:
    _require(args, "system", "dT", "p", "t_end")
    sysm, q0 = _build_system(args)
    quad = _build_quadrature(args)
    mode = _resolve_mode(args)
    config = _solver_config(args)
    _check_run_options(args.t_end, [("dT", args.dT)], [args.p])
    n_macro = _macro_steps(args.t_end, args.dT)
    grid = TimeGrid(dT=args.dT, micro_per_macro=args.p, n_macro=n_macro, t0=0.0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    status, partial, stats = "ok", False, None
    with _Outputs(out, sysm, q0, quad, grid) as outputs:
        try:
            _, stats = integrate(q0, sysm, quad, grid, config, mode, store=outputs.store)
        except IntegrationError as exc:
            status = f"diverged at macro step {exc.step_index}: {exc.cause}"
            partial = True
            outputs.pad()
        written = outputs.finish()
    _write_manifest(out, {
        "command": "simulate",
        "params": _resolved_params(args, {"n_macro": n_macro, "newton_tol": config.newton_tol}),
        "status": status,
        "partial": partial,
        "stats": None if stats is None else {name: getattr(stats, name) for name in (
            "newton_iters_total", "matrix_builds_total", "wall_time_total", "solve_time_total",
            "jacobian_time_total", "residual_max", "linear_solver")},
        "certificate": dataclasses.asdict(outputs.cert) if outputs.cert and n_macro else None,
        "outputs": written,
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
    # every row runs to t_end, a positive whole number of its macro steps
    steps = [_macro_steps(args.t_end, p * dt, f"p={p}: dT") for p in p_list]
    if 0 in steps:
        raise ConfigurationError(f"t_end must be positive, got {args.t_end}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for p, n_macro in zip(p_list, steps):
        dT = p * dt
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
