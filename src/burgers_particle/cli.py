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
from itertools import chain, islice, repeat
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


_FLUXES = {"godunov": BulkFluxKind.GODUNOV, "rusanov": BulkFluxKind.RUSANOV, "eo": BulkFluxKind.ENGQUIST_OSHER}
_IFACES = {"max-germ": InterfaceFluxKind.MAX_GERM, "g1-only": InterfaceFluxKind.G1_ONLY}
_UPDATES = {"explicit": VelocityUpdate.EXPLICIT, "implicit": VelocityUpdate.IMPLICIT}
_DOMAINS = {"padded": Domain.PADDED, "periodic": Domain.PERIODIC}

_KEYS = {
    "lambda", "mass", "mu", "dx", "T", "flux", "iface", "velocity_update",
    "domain", "half_width", "u_minus", "u_plus", "h0", "v0", "snapshots",
    "seed", "breakpoints", "values",
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
    items = [s.strip() for s in raw.split(",") if s.strip()]
    return tuple(_parse_float(key, s, line) for s in items)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a line-oriented ``key = value`` configuration."""
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

    def take(key, default=None):
        return raw.pop(key, (default, 0))

    def need(key):
        if key not in raw:
            raise ConfigError(f"missing required key '{key}'")
        return raw.pop(key)

    lam = _parse_float("lambda", *need("lambda"))
    mass = _parse_float("mass", *need("mass"))
    mu = _parse_float("mu", *need("mu"))
    dx_raw, dx_line = need("dx")
    dx_levels = _parse_float_list("dx", dx_raw, dx_line)
    T = _parse_float("T", *need("T"))

    def enum_value(key, table, default):
        value, lineno = take(key)
        if value is None:
            return default
        if value not in table:
            raise ConfigError(
                f"line {lineno}: key '{key}': expected one of {sorted(table)}, got {value!r}"
            )
        return table[value]

    bulk = enum_value("flux", _FLUXES, BulkFluxKind.GODUNOV)
    iface = enum_value("iface", _IFACES, InterfaceFluxKind.MAX_GERM)
    update = enum_value("velocity_update", _UPDATES, VelocityUpdate.EXPLICIT)
    domain = enum_value("domain", _DOMAINS, Domain.PADDED)

    half_width = None
    if "half_width" in raw:
        half_width = _parse_float("half_width", *raw.pop("half_width"))

    h0 = _parse_float("h0", *take("h0", "0"))
    v0 = _parse_float("v0", *take("v0", "0"))
    seed_raw, seed_line = take("seed", "0")
    try:
        seed = int(seed_raw)
    except ValueError:
        raise ConfigError(f"line {seed_line}: key 'seed' must be an integer") from None
    if seed < 0:
        raise ConfigError(f"line {seed_line}: key 'seed' must be nonnegative, got {seed}")

    snapshots: tuple[float, ...] = ()
    if "snapshots" in raw:
        snapshots = _parse_float_list("snapshots", *raw.pop("snapshots"))

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
    if any(t < 0 or t > T for t in snapshots):
        raise ConfigError("key 'snapshots' times must lie in [0, T]")
    if half_width is not None and domain is not Domain.PERIODIC:
        raise ConfigError("key 'half_width' applies only to domain = periodic")

    try:
        scheme_cfg = SchemeConfig(
            lam=lam, mu=mu, T=T, m_p=mass, bulk=bulk, iface=iface,
            velocity_update=update, domain=domain, half_width=half_width,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return ExperimentConfig(
        scheme=scheme_cfg, u0=u0, h0=h0, v0=v0, dx_levels=dx_levels,
        snapshot_times=snapshots, seed=seed,
    )


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
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


def _fail(name: str, value, limit) -> None:
    def fmt(x) -> str:
        if isinstance(x, tuple):
            return "(" + ",".join(map(_fmt, x)) + ")"
        return _fmt(x)

    print(f"FAIL check={name} value={fmt(value)} limit={fmt(limit)}")


def cmd_run(cfg: ExperimentConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    traj = run(cfg.u0, cfg.h0, cfg.v0, cfg.scheme, cfg.dx, snapshot_times=cfg.snapshot_times)
    names = [f"u_{t_snap:.6f}.csv" for t_snap, _ in traj.snapshots]
    clash = [a for a, b in zip(names, names[1:]) if a == b]
    if clash:
        raise ConfigError(f"key 'snapshots': two stored times would share the file {clash[0]}")
    _write_csv(
        out_dir / "particle.csv",
        ["t", "h", "v", "momentum", "tv", "accel", "trace_germ_dist"],
        [traj.times, traj.h, traj.v, traj.momentum, traj.tv, traj.accel, traj.trace_germ_dist],
    )
    for name, (_, grid) in zip(names, traj.snapshots):
        _write_csv(out_dir / name, ["x", "u"], [grid.cell_centers(), grid])

    violations = check_run(traj, cfg.scheme, cfg.u0)
    for violation in violations:
        _fail(*violation)
    return 1 if violations else 0


def cmd_convergence(cfg: ExperimentConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    try:  # the study owns the dx ladder rule; its refusals name the key
        rows = convergence_study(cfg.u0, cfg.h0, cfg.v0, cfg.scheme, cfg.dx_levels)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _write_csv(
        out_dir / "convergence.csv",
        ["dx", "err_u_L1", "err_h_sup", "err_v_sup", "order_u", "order_h"],
        zip(*(
            (
                r.dx, r.err_u_L1, r.err_h_sup, r.err_v_sup,
                "" if r.order_u is None else r.order_u,
                "" if r.order_h is None else r.order_h,
            )
            for r in rows
        )),
    )
    status = 0
    for a, b in zip(rows, rows[1:]):
        for name in ("err_u_L1", "err_h_sup", "err_v_sup"):
            if not getattr(b, name) < getattr(a, name):
                _fail(f"monotone_{name}", getattr(b, name), getattr(a, name))
                status = 1
    return status


def cmd_probe_flux(cfg: ExperimentConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    status = 0
    for iface_name, iface in _IFACES.items():
        for flux_name, bulk in _FLUXES.items():
            for v in (-1.0, 0.0, 1.0):
                d1, d2 = dissipativity_probe(
                    iface, bulk, cfg.scheme.lam, (-2.0, 2.0), v, 200
                )
                ok = min(d1, d2) >= -TAU_NUM
                rows.append(("dissipativity", flux_name, iface_name, v, d1, d2, "pass" if ok else "fail"))
                if not ok:
                    _fail(f"dissipativity_{flux_name}_{iface_name}_v{v:g}", min(d1, d2), -TAU_NUM)
                    status = 1
    _write_csv(
        out_dir / "probe_report.csv",
        ["probe", "flux", "iface", "v", "worst_d1", "worst_d2", "status"],
        zip(*rows),
    )
    return status


def cmd_probe_germ(cfg: ExperimentConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    lam = cfg.scheme.lam
    candidates = rng.uniform(-3.0 * lam, 3.0 * lam, size=(1000, 2))
    verdicts = maximality_probe(lam, 0.0, 10_000, candidates)
    rows = []
    status = 0
    for verdict in verdicts:
        ok = verdict.consistent
        rows.append(
            (
                "maximality", verdict.point[0], verdict.point[1], verdict.min_xi,
                verdict.passes, verdict.region.value, "pass" if ok else "fail",
            )
        )
        if not ok:
            _fail("maximality_consistency", verdict.point, "criterion vs classification")
            status = 1
    _write_csv(
        out_dir / "probe_report.csv",
        ["probe", "u_minus", "u_plus", "min_xi", "passes_criterion", "region", "status"],
        zip(*rows),
    )
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="burgers-particle",
        description="Finite-volume runs and verification probes for a Burgers "
        "fluid coupled to a pointwise particle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "integrate one configuration and write CSV outputs"),
        ("convergence", "mesh-refinement study over the dx list"),
        ("probe-flux", "dissipativity probe of the interface flux families"),
        ("probe-germ", "entropy-pairing criterion probe on random pairs"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", type=Path, help="path to a key = value config file")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    args = parser.parse_args(argv)
    try:
        text = args.config.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"FAIL check=config_read value={exc}")
        return 2
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"FAIL check=config_parse value={exc}")
        return 2
    handler = {
        "run": cmd_run,
        "convergence": cmd_convergence,
        "probe-flux": cmd_probe_flux,
        "probe-germ": cmd_probe_germ,
    }[args.command]
    try:
        return handler(cfg, args.out)
    except BoundaryGuardError as exc:
        print(f"FAIL check=boundary_guard value={exc}")
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"FAIL check=execution value={exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
