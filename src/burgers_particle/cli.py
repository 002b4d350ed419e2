"""Batch front-end: config parsing, experiment execution, CSV emission.

Subcommands:

* ``run``          -- integrate one configuration, write particle.csv and
                      snapshot files u_<t>.csv, gate conservation and the
                      a priori bounds.
* ``convergence``  -- mesh-refinement study (dx takes a comma list of at
                      least three levels), write convergence.csv, gate
                      monotone error decay.
* ``probe-flux``   -- dissipativity sweep of all flux/family combinations,
                      write probe_report.csv, gate zero violations.
* ``probe-germ``   -- entropy-pairing criterion on random candidate pairs,
                      write probe_report.csv, gate criterion/classification
                      consistency.

Config files are UTF-8 ``key = value`` lines with ``#`` comments.  All CSV
output is locale-independent with 17 significant digits and ends with a
newline; identical config and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from itertools import chain, pairwise, product
from pathlib import Path

import numpy as np

from .diagnostics import (
    TAU_NUM,
    check_run,
    convergence_study,
    dissipativity_probe,
    maximality_probe,
    refuse_overflow,
)
from .flux import BulkFluxKind, InterfaceFluxKind, interface_fluxes
from .scheme import (
    BoundaryGuardError,
    Domain,
    FluidGrid,
    PiecewiseConstant,
    SchemeConfig,
    VelocityUpdate,
    run,
)


class ConfigError(ValueError):
    pass


# The config keys that choose a SchemeConfig field, with the enum whose
# values spell the choices; a key a config leaves out takes the default.
_ENUMS = {"flux": ("bulk", BulkFluxKind), "iface": ("iface", InterfaceFluxKind),
          "velocity_update": ("velocity_update", VelocityUpdate), "domain": ("domain", Domain)}

_KEYS = {
    "lambda", "mass", "mu", "dx", "T", *_ENUMS, "half_width", "u_minus", "u_plus", "h0", "v0",
    "snapshots", "seed", "breakpoints", "values",
}


@dataclass
class ExperimentConfig:
    scheme: SchemeConfig
    u0: PiecewiseConstant
    h0: float
    v0: float
    dx_levels: tuple[float, ...]
    snapshot_times: tuple[float, ...]
    seed: int

    @property
    def dx(self) -> float:
        if len(self.dx_levels) != 1:
            raise ConfigError("key 'dx' must be a single value for this command")
        return self.dx_levels[0]


def _parse_float(key: str, raw: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"line {line}: key '{key}': not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"line {line}: key '{key}' must be finite, got {raw!r}")
    return value


def _parse_float_list(key: str, raw: str, line: int) -> tuple[float, ...]:
    items = [s.strip() for s in raw.split(",")]
    if "" in items:
        raise ConfigError(f"line {line}: key '{key}' has an empty item in {raw!r}")
    return tuple(_parse_float(key, s, line) for s in items)


def parse_config(text: str) -> ExperimentConfig:
    """Parse a line-oriented ``key = value`` configuration.  The parser owns
    the syntax, the key names and their lines; SchemeConfig and
    PiecewiseConstant own the rules on their values and the defaults."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        if not value:
            raise ConfigError(f"line {lineno}: key '{key}' has no value")
        raw[key] = (value, lineno)

    def need(key):
        if key not in raw:
            raise ConfigError(f"missing required key '{key}'")
        return raw.pop(key)

    lam, mass, mu = (_parse_float(key, *need(key)) for key in ("lambda", "mass", "mu"))
    dx_levels = _parse_float_list("dx", *need("dx"))
    T = _parse_float("T", *need("T"))
    scheme = {"lam": lam, "m_p": mass, "mu": mu, "T": T}
    for key, (field, kind) in _ENUMS.items():
        if key in raw:
            value, lineno = raw.pop(key)
            try:
                scheme[field] = kind(value)
            except ValueError:
                spellings = sorted(choice.value for choice in kind)
                raise ConfigError(
                    f"line {lineno}: key '{key}': expected one of {spellings}, got {value!r}"
                ) from None
    if "half_width" in raw:
        scheme["half_width"] = _parse_float("half_width", *raw.pop("half_width"))

    h0 = _parse_float("h0", *raw.pop("h0", ("0", 0)))
    v0 = _parse_float("v0", *raw.pop("v0", ("0", 0)))
    seed_raw, seed_line = raw.pop("seed", ("0", 0))
    try:
        seed = int(seed_raw)
    except ValueError:
        raise ConfigError(f"line {seed_line}: key 'seed' must be an integer") from None
    if seed < 0:
        raise ConfigError(f"line {seed_line}: key 'seed' must be nonnegative, got {seed}")

    snapshots = _parse_float_list("snapshots", *raw.pop("snapshots")) if "snapshots" in raw else ()

    has_riemann = "u_minus" in raw or "u_plus" in raw
    has_pieces = "breakpoints" in raw or "values" in raw
    if has_riemann and has_pieces:
        raise ConfigError("give either u_minus/u_plus or breakpoints/values, not both")
    if has_riemann:
        u_minus = _parse_float("u_minus", *need("u_minus"))
        u_plus = _parse_float("u_plus", *need("u_plus"))
        u0 = PiecewiseConstant.riemann(u_minus, u_plus, x_jump=h0)
    elif has_pieces:
        bp_raw, bp_line = need("breakpoints")
        val_raw, val_line = need("values")
        bps = _parse_float_list("breakpoints", bp_raw, bp_line)
        try:
            u0 = PiecewiseConstant(bps, _parse_float_list("values", val_raw, val_line))
        except ValueError as exc:  # the message names the key
            line = bp_line if str(exc).startswith("key 'breakpoints'") else val_line
            raise ConfigError(f"line {line}: {exc}") from None
    else:
        raise ConfigError("missing initial datum: u_minus/u_plus or breakpoints/values")

    # What SchemeConfig cannot know, with key names in the message (every
    # number is already finite); SchemeConfig checks the rest.
    if not dx_levels or any(dx <= 0 for dx in dx_levels):
        raise ConfigError("key 'dx' must list positive values")

    try:
        scheme_cfg = SchemeConfig(**scheme)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return ExperimentConfig(
        scheme=scheme_cfg, u0=u0, h0=h0, v0=v0, dx_levels=dx_levels,
        snapshot_times=snapshots, seed=seed,
    )


def _fmt(x) -> str:
    """One CSV cell or FAIL-line value as text; a pair prints as (a,b)."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, tuple):
        return "(" + ",".join(map(_fmt, x)) + ")"
    return format(float(x), ".17g")


def _split(a):
    """Veltkamp's split: hi + lo == a exactly, each of at most 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


# A float's text is 40 bytes, five little-endian words: byte 0 the sign,
# 1-5 the "0." and zeros before the digits of a value below 1, 6 + 2j digit
# j and 7 + 2j the point after it (j = 0..16), and a spare byte 39.  Slots
# that hold no character hold NUL.
_POW10 = 10.0 ** np.arange(22)  # exact: 5**21 < 2**53
_POW10_HI, _POW10_LO = _split(_POW10)
_A, _B, _C, _D = np.ix_(*[np.arange(10, dtype=np.int64)] * 4)
# The digits of 0..9999 in the digit slots of a word, and its trailing zeros.
_DIGITS = 48 + _A + (48 + _B) * 2**16 + (48 + _C) * 2**32 + (48 + _D) * 2**48
_DIGITS = _DIGITS.astype("<u8").ravel()
_ZEROS = ((_D == 0) * (1 + (_C == 0) * (1 + (_B == 0) * (1 + (_A == 0))))).astype(np.int8).ravel()
# _KEEP[L]: the slots of digits 0..L-1; word 0 keeps its last, where digit 0 is.
_SLOT = np.arange(-3, 17).reshape(5, 4)
_KEEP = ((_SLOT >= 0) & (_SLOT < np.arange(18)[:, None, None])) * 255
_KEEP = _KEEP.astype("<u2").view("<u8")[..., 0]
# _HEAD[4*(X + 4) + 2*point + sign]: the sign, "0." and zeros of an exponent
# X < 0, and the point after digit X >= 0.
_X, _POINT, _SIGN, _AT = np.ix_(np.arange(-4, 16), [0, 1], [0, 1], np.arange(40))
_HEAD = ((_SIGN == 1) & (_AT == 0)) * 45 + ((_POINT == 1) & (_X >= 0) & (_AT == 7 + 2 * _X)) * 46
_HEAD += ((_X < 0) & (_AT >= 1) & (_AT < 2 - _X)) * np.where(_AT == 2, 46, 48)
_HEAD = _HEAD.astype(np.uint8).view("<u8").reshape(80, 5)


def _float_texts(x: np.ndarray) -> np.ndarray:
    """format(v, ".17g") of each float64 v of x, as NUL-padded uint8 rows of
    40 bytes.  A value in [1e-4, 1e16) has a decimal exponent X in [-4, 15],
    which %g writes in fixed notation: its 17 digits are the integer D
    nearest |v|*10**(16 - X), ties to even, trailing zeros after the point
    dropped.  10**(16 - X) is exact, and Dekker's two-product gives the
    product exactly as p + e; p >= 2**53 is an even integer, so
    D = p + rint(e).  X comes from log10, once; a zero is laid out as 1 with
    its digit set to 0.  A value whose D does not have 17 digits (log10 one
    off next to a power of ten, or D rounded up to 10**17), zeros included,
    and every other value go through %."""
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e16)
    a = np.where(fixed, a, 1.0)
    ah, al = _split(a)
    X = np.floor(np.log10(a)).astype(np.int64).clip(-4, 15)
    k = 16 - X
    p, bh, bl = a * _POW10.take(k), _POW10_HI.take(k), _POW10_LO.take(k)
    e = al * bl - (((p - ah * bh) - al * bh) - ah * bl)
    D = p.astype(np.int64) + np.rint(e).astype(np.int64)
    fixed = (fixed | (x == 0)) & (D >= 10**16) & (D < 10**17)
    groups = np.empty((len(x), 5), np.int64)  # digit 0, then four groups of four
    first, rest = np.divmod(D, 10**16)
    groups[:, 0] = first * (x != 0)
    for i, half in enumerate(np.divmod(rest, 10**8)):
        np.divmod(half, 10**4, out=(groups[:, 1 + 2 * i], groups[:, 2 + 2 * i]))
    zeros, empty = _ZEROS.take(groups), groups == 0
    digits = 17 - zeros[:, 4] - empty[:, 4] * (
        zeros[:, 3] + empty[:, 3] * (zeros[:, 2] + empty[:, 2] * zeros[:, 1]))
    words = _DIGITS.take(groups)
    words &= _KEEP.take(np.maximum(digits, X + 1), axis=0)
    words |= _HEAD.take(4 * X + 16 + 2 * (digits > X + 1) + np.signbit(x), axis=0)
    text = words.view(np.uint8)
    other = np.flatnonzero(~fixed)
    if other.size:  # subnormal, tiny, >= 1e16, not finite or not 17 digits
        chars = ("%-24.17g" * other.size % tuple(x[other].tolist())).encode()
        chars = np.frombuffer(chars, np.uint8)
        text[other] = 0
        text[other, :24] = np.where(chars == 32, 0, chars).reshape(-1, 24)
    return text


def _rows(column):
    """One CSV column as its length and a function that gives its rows
    s0..s1-1 as a NUL-padded uint8 text matrix with a spare last byte, a
    row index a, and floats whose texts the writer puts in rows a onward.
    A FluidGrid stands for its cells u: its far-field texts are formatted
    once and copied outside [lo, hi).  A function of (start, stop), such as
    FluidGrid.cell_centers, gives floats and takes the other columns'
    length.  A column that is not all floats goes through _fmt."""
    if isinstance(column, FluidGrid):
        lo, hi, cells = column.lo, column.hi, column.cells
        first, last = _float_texts(np.array([column.first, column.last]))

        def rows(s0, s1):
            a, b = (min(max(i - s0, 0), s1 - s0) for i in (lo, hi))
            text = np.empty((s1 - s0, 40), np.uint8)
            text[:a], text[b:] = first, last
            return text, a, cells[s0 + a - lo : s0 + b - lo]

        return column.n, rows
    if callable(column):
        return 0, lambda s0, s1: (np.empty((s1 - s0, 40), np.uint8), 0, column(s0, s1))
    if not (isinstance(column, np.ndarray) and column.dtype.kind == "f"):
        values = list(column)
        if all(isinstance(v, float) for v in values):
            return _rows(np.array(values, dtype=float))

        def rows(s0, s1):
            cells = [_fmt(v).encode() for v in values[s0:s1]]
            width = max(map(len, cells)) + 1
            text = bytearray(b"".join(cell.ljust(width, b"\0") for cell in cells))
            return np.frombuffer(text, np.uint8).reshape(s1 - s0, width), 0, ()

        return len(values), rows
    return len(column), lambda s0, s1: (np.empty((s1 - s0, 40), np.uint8), 0, column[s0:s1])


# Cells per chunk in _write_csv, whose floats one _float_texts call formats.
# compact-run's particle.csv and five snapshots took 3.4, 2.9 and 3.1 ms and
# 24.6, 19.3 and 21.7 ms to write at 1024, 2048 and 4096 cells, with a
# tracemalloc peak of 358, 702 and 1394 KiB (in-process, 2-core Xeon VM).
_CSV_CELLS = 2048


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns under ``header``; one line per row.  Each
    chunk of rows becomes one text matrix per column, its spare byte a ','
    or a '\n', and deleting the NULs of their join leaves the lines."""
    lengths, columns = zip(*map(_rows, columns))
    n, step = max(lengths), max(1, _CSV_CELLS // len(columns))
    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        for s0 in range(0, n, step):
            texts, starts, floats = zip(*(rows(s0, min(s0 + step, n)) for rows in columns))
            formatted, i = _float_texts(np.concatenate(floats, dtype=float)), 0
            for text, a, values in zip(texts, starts, floats):
                if len(values):
                    text[a : a + len(values)] = formatted[i : i + len(values)]
                i += len(values)
                text[:, -1] = 44
            texts[-1][:, -1] = 10
            f.write(np.hstack(texts).tobytes().translate(None, b"\0"))


def _command(out_dir: Path, work) -> int:
    """Do a command's ``work()``, which returns its CSV files as ``(name,
    header, columns)`` and its gate's violations as ``(check, value, limit)``:
    make ``out_dir``, write the files, print a FAIL line per violation, and
    exit 1 if there is any, else 0.  A refused ``work`` raises and makes no
    directory and no file."""
    files, violations = work()
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, header, columns in files:
        _write_csv(out_dir / name, header, columns)
    for check, value, limit in violations:
        print(f"FAIL check={check} value={_fmt(value)} limit={_fmt(limit)}")
    return 1 if violations else 0


def cmd_run(cfg: ExperimentConfig, out_dir: Path) -> int:
    def work():
        traj = run(cfg.u0, cfg.h0, cfg.v0, cfg.scheme, cfg.dx, snapshot_times=cfg.snapshot_times)
        times = [t for t, _ in traj.snapshots]  # t = 0, T and the requested times
        names = [f"u_{t:.6f}.csv" for t in times]
        for (a, name), (b, other) in pairwise(zip(times, names)):
            if name == other:
                raise ConfigError(
                    f"keys 'T' and 'snapshots': the stored times {a!r} and {b!r} would share "
                    f"the file {name}"
                )
        particle = (
            "particle.csv",
            ["t", "h", "v", "momentum", "tv", "accel", "trace_germ_dist"],
            [traj.times, traj.h, traj.v, traj.momentum, traj.tv, traj.accel, traj.trace_germ_dist],
        )
        snapshots = ((name, ["x", "u"], [grid.cell_centers, grid])
                     for name, (_, grid) in zip(names, traj.snapshots))
        return chain([particle], snapshots), check_run(traj, cfg.scheme, cfg.u0)

    return _command(out_dir, work)


def cmd_convergence(cfg: ExperimentConfig, out_dir: Path) -> int:
    def work():
        try:  # the study owns the dx ladder rule; its refusals name the key
            rows = convergence_study(cfg.u0, cfg.h0, cfg.v0, cfg.scheme, cfg.dx_levels)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        table = [
            (r.dx, r.err_u_L1, r.err_h_sup, r.err_v_sup,
             "" if r.order_u is None else r.order_u, "" if r.order_h is None else r.order_h)
            for r in rows
        ]
        header = ["dx", "err_u_L1", "err_h_sup", "err_v_sup", "order_u", "order_h"]
        violations = [
            (f"monotone_{name}", getattr(b, name), getattr(a, name))
            for a, b in zip(rows, rows[1:])
            for name in ("err_u_L1", "err_h_sup", "err_v_sup")
            if not getattr(b, name) < getattr(a, name)
        ]
        return [("convergence.csv", header, zip(*table))], violations

    return _command(out_dir, work)


def cmd_probe_flux(cfg: ExperimentConfig, out_dir: Path) -> int:
    def work():
        lam, box, n = cfg.scheme.lam, (-2.0, 2.0), 200
        states = np.linspace(*box, n)  # the probe's sample, as a row and a column
        rows, violations = [], []
        for iface, bulk, v in product(InterfaceFluxKind, BulkFluxKind, (-1.0, 0.0, 1.0)):
            d1, d2 = dissipativity_probe(iface, bulk, lam, box, v, n)
            # Each flux of the pair is a few roundings of terms of at most
            # about twice the largest flux F the row forms on its sample, and
            # a difference of two drags adds a few more, whatever the sample
            # spacing: rounding moves d1 and d2 by a few eps * F.  The gate
            # allows 4 * eps * F beyond TAU_NUM: 1.9e-9 at lambda = 1e6, where
            # F = 2e6 on the max-germ Rusanov rows and the worst difference is
            # -4.7e-10.  The worst seen for lambda from 1e-6 to 1e12 was
            # 2.1 eps * F.
            size = max(float(np.abs(g).max())
                       for g in interface_fluxes(iface, bulk, states[:, None], states, v, lam))
            limit = -(TAU_NUM + 4.0 * sys.float_info.epsilon * size)
            status = "pass" if min(d1, d2) >= limit else "fail"
            rows.append(("dissipativity", bulk.value, iface.value, v, d1, d2, status))
            if status == "fail":
                violations.append(
                    (f"dissipativity_{bulk.value}_{iface.value}_v{v:g}", min(d1, d2), limit))
        header = ["probe", "flux", "iface", "v", "worst_d1", "worst_d2", "status"]
        return [("probe_report.csv", header, zip(*rows))], violations

    return _command(out_dir, work)


def cmd_probe_germ(cfg: ExperimentConfig, out_dir: Path) -> int:
    def work():
        rng = np.random.default_rng(cfg.seed)
        lam = cfg.scheme.lam
        refuse_overflow(3.0 * lam)  # before the draw; the probe checks the points it forms
        candidates = rng.uniform(-3.0 * lam, 3.0 * lam, size=(1000, 2))
        verdicts = maximality_probe(lam, 0.0, 10_000, candidates)
        rows = [
            ("maximality", *v.point, v.min_xi, v.passes, v.region.value,
             "pass" if v.consistent else "fail")
            for v in verdicts
        ]
        violations = [("maximality_consistency", v.point, "criterion vs classification")
                      for v in verdicts if not v.consistent]
        header = ["probe", "u_minus", "u_plus", "min_xi", "passes_criterion", "region", "status"]
        return [("probe_report.csv", header, zip(*rows))], violations

    return _command(out_dir, work)


# Each subcommand: its handler and its help text.
_COMMANDS = {
    "run": (cmd_run, "integrate one configuration and write CSV outputs"),
    "convergence": (cmd_convergence, "mesh-refinement study over the dx list"),
    "probe-flux": (cmd_probe_flux, "dissipativity probe of the interface flux families"),
    "probe-germ": (cmd_probe_germ, "entropy-pairing criterion probe on random pairs"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="burgers-particle",
        description="Finite-volume runs and verification probes for a Burgers "
        "fluid coupled to a pointwise particle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", type=Path, help="path to a key = value config file")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    args = parser.parse_args(argv)
    try:
        text = args.config.read_text(encoding="utf-8")
    except OSError as exc:  # names the path
        print(f"FAIL check=config_read value={exc}")
        return 2
    except UnicodeDecodeError as exc:
        print(f"FAIL check=config_read value={args.config}: {exc}")
        return 2
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"FAIL check=config_parse value={exc}")
        return 2
    try:
        return _COMMANDS[args.command][0](cfg, args.out)
    except BoundaryGuardError as exc:
        print(f"FAIL check=boundary_guard value={exc}")
        return 2
    except ValueError as exc:  # a ConfigError too
        print(f"FAIL check=execution value={exc}")
        return 2
    except OSError as exc:  # the output directory or a CSV file; names the path
        print(f"FAIL check=output_write value={exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
