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
from itertools import chain, islice, product, repeat
from pathlib import Path
from typing import Iterable

import numpy as np

from .diagnostics import (
    TAU_NUM,
    check_run,
    convergence_study,
    dissipativity_probe,
    maximality_probe,
)
from .flux import BulkFluxKind, InterfaceFluxKind
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


def _column(column) -> tuple[str, Iterable]:
    """The %-format and the values of one CSV column.  A float array's
    Python floats format with %.17g, the text _fmt gives them.  A FluidGrid
    stands for its cells u in that text, read from its compact form: each
    far-field value is formatted once and repeated outside the active range.
    Any other column goes through _fmt."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return "%.17g", column.tolist()
    if isinstance(column, FluidGrid):
        first, last = (format(c, ".17g") for c in (column.first, column.last))
        active = map(format, column.cells.tolist(), repeat(".17g"))
        return "%s", chain(repeat(first, column.lo), active, repeat(last, column.n - column.hi))
    return "%s", map(_fmt, column)


# Rows formatted by one %-operation in _write_csv: the per-row Python work
# of a join is gone, and a chunk's strings and values stay near 0.2 MB for
# particle.csv's seven columns.
_CSV_ROWS = 512


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns under ``header``; one line per row."""
    formats, values = zip(*map(_column, columns))
    line = ",".join(formats) + "\n"
    rows = zip(*values)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        while chunk := list(islice(rows, _CSV_ROWS)):
            f.write(line * len(chunk) % tuple(chain.from_iterable(chunk)))


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
        names = [f"u_{t_snap:.6f}.csv" for t_snap, _ in traj.snapshots]
        clash = [a for a, b in zip(names, names[1:]) if a == b]
        if clash:
            raise ConfigError(f"key 'snapshots': two stored times would share the file {clash[0]}")
        particle = (
            "particle.csv",
            ["t", "h", "v", "momentum", "tv", "accel", "trace_germ_dist"],
            [traj.times, traj.h, traj.v, traj.momentum, traj.tv, traj.accel, traj.trace_germ_dist],
        )
        # a generator: each snapshot's cell centers are built as its file is written
        snapshots = ((name, ["x", "u"], [grid.cell_centers(), grid])
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
        rows = []
        for iface, bulk, v in product(InterfaceFluxKind, BulkFluxKind, (-1.0, 0.0, 1.0)):
            d1, d2 = dissipativity_probe(iface, bulk, cfg.scheme.lam, (-2.0, 2.0), v, 200)
            status = "pass" if min(d1, d2) >= -TAU_NUM else "fail"
            rows.append(("dissipativity", bulk.value, iface.value, v, d1, d2, status))
        violations = [(f"dissipativity_{flux}_{iface}_v{v:g}", min(d1, d2), -TAU_NUM)
                      for _, flux, iface, v, d1, d2, status in rows if status == "fail"]
        header = ["probe", "flux", "iface", "v", "worst_d1", "worst_d2", "status"]
        return [("probe_report.csv", header, zip(*rows))], violations

    return _command(out_dir, work)


def cmd_probe_germ(cfg: ExperimentConfig, out_dir: Path) -> int:
    def work():
        rng = np.random.default_rng(cfg.seed)
        lam = cfg.scheme.lam
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
