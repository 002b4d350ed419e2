import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from burgers_particle import cli
from burgers_particle.cli import (
    ConfigError,
    cmd_convergence,
    cmd_probe_flux,
    cmd_probe_germ,
    cmd_run,
    main,
    parse_config,
)
from burgers_particle.flux import BulkFluxKind, InterfaceFluxKind
from burgers_particle.scheme import BoundaryGuardError, Domain, FluidGrid, VelocityUpdate

BENCH = Path(__file__).resolve().parent.parent / "bench"

MINIMAL = """
# minimal valid configuration
lambda = 1
mass = 1
mu = 0.25
dx = 0.1
T = 0.5
u_minus = 1
u_plus = -1
"""


def test_parse_minimal_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.scheme.bulk is BulkFluxKind.GODUNOV
    assert cfg.scheme.iface is InterfaceFluxKind.MAX_GERM
    assert cfg.scheme.velocity_update is VelocityUpdate.EXPLICIT
    assert cfg.scheme.domain is Domain.PADDED
    assert cfg.h0 == 0.0 and cfg.v0 == 0.0 and cfg.seed == 0
    assert cfg.dx == 0.1
    assert cfg.u0.values == (1.0, -1.0)


def test_parse_enumeration_mappings():
    cfg = parse_config(MINIMAL + "iface = g1-only\nflux = eo\nvelocity_update = implicit\n")
    assert cfg.scheme.iface is InterfaceFluxKind.G1_ONLY
    assert cfg.scheme.bulk is BulkFluxKind.ENGQUIST_OSHER
    assert cfg.scheme.velocity_update is VelocityUpdate.IMPLICIT


def test_parse_piecewise_datum():
    text = """
lambda = 0.5
mass = 2
mu = 0.3
dx = 0.05
T = 0.25
breakpoints = -0.5, 0.5
values = 0, 1, 0
"""
    cfg = parse_config(text)
    assert cfg.u0.breakpoints == (-0.5, 0.5)
    assert cfg.u0.values == (0.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("mu = -1", "mu"),
        ("nonsense = 3", "unknown key"),
        ("flux = upwind", "flux"),
        ("mass = 0", "mass"),
        ("dx = 0.1\n", "duplicate"),
        ("snapshots = 2.0", "snapshots"),
        ("half_width = 3", "half_width"),
        ("domain = periodic", "'half_width'"),
        ("domain = periodic\nhalf_width = -1", "'half_width'"),
        ("breakpoints = 0, 0\nvalues = 1, 2, 3", "line 8: key 'breakpoints'"),
    ],
)
def test_parse_rejections_name_the_key(line, fragment):
    base = MINIMAL
    if line.startswith("breakpoints"):  # a piecewise datum replaces the Riemann one
        base = base.replace("u_minus = 1\nu_plus = -1\n", "")
    with pytest.raises(ConfigError, match=fragment):
        parse_config(base + line + "\n")


@pytest.mark.parametrize("key,value", [("lambda", "0"), ("mass", "-1"), ("mu", "0"), ("T", "-0.5")])
def test_scheme_rules_are_refused_by_scheme_config_naming_the_key(key, value):
    # SchemeConfig owns these rules; the parser passes its message on.
    lines = MINIMAL.splitlines()
    lines = [f"{key} = {value}" if line.startswith(key + " ") else line for line in lines]
    with pytest.raises(ConfigError, match=f"^key '{key}'"):
        parse_config("\n".join(lines) + "\n")


def test_parse_names_the_values_key_for_a_datum_of_the_wrong_length():
    text = MINIMAL.replace("u_minus = 1\nu_plus = -1\n", "") + "breakpoints = 0\nvalues = 1\n"
    with pytest.raises(ConfigError, match="^line 9: key 'values'"):
        parse_config(text)


def test_run_refuses_a_mesh_that_floating_point_cannot_resolve(tmp_path, capsys):
    # Near h0 = 1e17 floats are 16 apart, so the edges h0 + k*dx with
    # dx = 0.1 take a few distinct values: the cells would have no width.
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(MINIMAL + "h0 = 1e17\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    fail = capsys.readouterr().out.splitlines()
    assert len(fail) == 1 and fail[0].startswith("FAIL check=execution")
    assert "'h0'" in fail[0] and "'dx'" in fail[0]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "add",
    ["snapshots = 0.1, 0.25\n", "flux = eo\ndomain = periodic\nhalf_width = 10\n"],
    ids=["padded", "periodic"],
)
def test_runs_in_two_threads_write_identical_files(add, tmp_path):
    # cli.main keeps no state in module globals: one config run in two
    # threads at once gives the same exit code and the same bytes.
    from concurrent.futures import ThreadPoolExecutor

    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(MINIMAL.replace("dx = 0.1", "dx = 0.01") + add, encoding="utf-8")
    outs = [tmp_path / "a", tmp_path / "b"]
    with ThreadPoolExecutor(max_workers=2) as pool:
        codes = list(pool.map(lambda out: main(["run", str(cfg_path), "--out", str(out)]), outs))
    assert codes == [0, 0]
    a, b = ({p.name: p.read_bytes() for p in out.iterdir()} for out in outs)
    assert a == b and "particle.csv" in a and len(a) >= 2


def test_periodic_box_below_the_guard_fails_at_execution(tmp_path, capsys):
    # half_width = 1 parses; run refuses it against the influence guard
    # 3*T*dx/dt of the step the CFL ratio 'mu' sets.
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(MINIMAL + "domain = periodic\nhalf_width = 1\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    fail = capsys.readouterr().out.splitlines()
    assert len(fail) == 1 and fail[0].startswith("FAIL check=execution")
    assert "'half_width'" in fail[0] and "'mu'" in fail[0]


@pytest.mark.parametrize(
    "key,value",
    [
        ("dx", "nan"),
        ("h0", "inf"),
        ("v0", "-inf"),
        ("half_width", "nan"),
        ("u_minus", "nan"),
        ("u_plus", "1e999"),
        ("snapshots", "0.1, nan"),
    ],
)
def test_non_finite_values_exit_2_naming_the_key(key, value, tmp_path, capsys):
    lines = [line for line in MINIMAL.splitlines() if not line.startswith(key + " ")]
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n", encoding="utf-8")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    fail = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(fail) == 1 and f"'{key}'" in fail[0]


def test_negative_seed_exits_2_naming_the_key(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(MINIMAL + "seed = -1\n", encoding="utf-8")
    assert main(["probe-germ", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    out = capsys.readouterr().out
    assert out == "FAIL check=config_parse value=line 10: key 'seed' must be nonnegative, got -1\n"


def _old_fmt(x) -> str:
    # The per-value formatter every CSV cell used to go through.
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def test_csv_writer_bytes_match_the_per_value_formatter(tmp_path):
    floats = np.array([-0.0, 0.0, 1e-300, 5e-324, 0.1, 1.0 / 3.0, -2.5, 1e22, 123456789.0])
    mixed = ["", 3, np.int64(-7), True, np.bool_(False), "pass", 0.1, np.float64(-0.0), ""]
    rows = list(zip(floats, mixed, floats[::-1]))
    expected = "a,b,c\n" + "".join(",".join(_old_fmt(x) for x in row) + "\n" for row in rows)
    cli._write_csv(tmp_path / "t.csv", ["a", "b", "c"], [floats, mixed, floats[::-1]])
    assert (tmp_path / "t.csv").read_bytes() == expected.encode("utf-8")
    cli._write_csv(tmp_path / "rows.csv", ["a", "b", "c"], zip(*rows))
    assert (tmp_path / "rows.csv").read_bytes() == expected.encode("utf-8")


def test_snapshot_files_format_every_cell_as_the_writer_does(tmp_path):
    # Far-field cells are formatted once per snapshot and repeated; unequal
    # far fields (1 and -1) must still land on their own sides.
    cfg = parse_config(MINIMAL + "v0 = 0.5\nsnapshots = 0.25\n")
    assert cmd_run(cfg, tmp_path / "out") == 0
    traj = cli.run(cfg.u0, cfg.h0, cfg.v0, cfg.scheme, cfg.dx, snapshot_times=cfg.snapshot_times)
    assert len(traj.snapshots) == 3
    for t, grid in traj.snapshots:
        assert 0 < grid.lo and grid.hi < grid.n and grid.u[0] != grid.u[-1]
        cli._write_csv(tmp_path / "expected.csv", ["x", "u"], [grid.cell_centers(), grid.u])
        written = (tmp_path / "out" / f"u_{t:.6f}.csv").read_bytes()
        assert written == (tmp_path / "expected.csv").read_bytes()


def test_run_and_cmd_run_never_build_the_window(tmp_path, monkeypatch):
    # A padded run steps, records and writes its grids from their compact
    # form; the whole window u is built only when a caller reads it.
    def whole_window(grid):
        raise AssertionError("grid.u was built")

    monkeypatch.setattr(FluidGrid, "u", property(whole_window))
    cfg = parse_config(MINIMAL + "v0 = 0.5\nsnapshots = 0.25\n")
    traj = cli.run(cfg.u0, cfg.h0, cfg.v0, cfg.scheme, cfg.dx, snapshot_times=cfg.snapshot_times)
    assert len(traj.snapshots) == 3 and all(grid.lo > 0 for _, grid in traj.snapshots)
    assert cmd_run(cfg, tmp_path / "out") == 0


def test_parse_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("lambda = 1\nmass = 1\nbogus_key = 2\n")


def test_parse_requires_datum():
    with pytest.raises(ConfigError, match="datum"):
        parse_config("lambda = 1\nmass = 1\nmu = 0.25\ndx = 0.1\nT = 0\n")


def test_run_constant_state_outputs(tmp_path):
    text = """
lambda = 1
mass = 1
mu = 0.25
dx = 0.1
T = 0.2
breakpoints =
values = 0.5
v0 = 0.5
snapshots = 0.1
"""
    # an empty breakpoints list is not parseable; use the riemann shorthand
    text = text.replace("breakpoints =\n", "").replace("values = 0.5\n", "u_minus = 0.5\nu_plus = 0.5\n")
    cfg = parse_config(text)
    status = cmd_run(cfg, tmp_path)
    assert status == 0
    body = (tmp_path / "particle.csv").read_text().splitlines()
    assert body[0] == "t,h,v,momentum,tv,accel,trace_germ_dist"
    cols = np.array([[float(x) for x in line.split(",")] for line in body[1:]])
    assert np.all(cols[:, 2] == 0.5)  # velocity column constant
    assert np.all(cols[:, 4] == 0.0)  # zero variation
    snap_files = sorted(p.name for p in tmp_path.glob("u_*.csv"))
    assert snap_files == ["u_0.000000.csv", "u_0.100000.csv", "u_0.200000.csv"]
    raw = (tmp_path / "particle.csv").read_bytes()
    assert raw.endswith(b"\n")


def test_run_outputs_are_byte_identical(tmp_path):
    cfg = parse_config(MINIMAL + "v0 = 0.5\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cmd_run(cfg, out1) == 0
    assert cmd_run(parse_config(MINIMAL + "v0 = 0.5\n"), out2) == 0
    for name in ("particle.csv", "u_0.000000.csv", "u_0.500000.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_full_precision_roundtrip(tmp_path):
    cfg = parse_config(MINIMAL + "v0 = 0.5\n")
    assert cmd_run(cfg, tmp_path) == 0
    body = (tmp_path / "particle.csv").read_text().splitlines()[1:]
    from burgers_particle import run

    traj = run(cfg.u0, cfg.h0, cfg.v0, cfg.scheme, cfg.dx)
    v_col = [float(line.split(",")[2]) for line in body]
    assert v_col == traj.v.tolist()  # 17 significant digits round-trip


def test_convergence_command_monotone(tmp_path):
    text = MINIMAL.replace("dx = 0.1", "dx = 0.16, 0.08, 0.04") + "v0 = 0.5\n"
    cfg = parse_config(text)
    assert cmd_convergence(cfg, tmp_path) == 0
    rows = (tmp_path / "convergence.csv").read_text().splitlines()
    assert rows[0] == "dx,err_u_L1,err_h_sup,err_v_sup,order_u,order_h"
    assert len(rows) == 4
    first = rows[1].split(",")
    assert first[4] == "" and first[5] == ""
    errs = [float(r.split(",")[2]) for r in rows[1:]]
    assert errs[0] > errs[1] > errs[2]


def test_convergence_requires_three_levels(tmp_path):
    cfg = parse_config(MINIMAL.replace("dx = 0.1", "dx = 0.1, 0.05"))
    with pytest.raises(ConfigError):
        cmd_convergence(cfg, tmp_path)


def test_probe_flux_reports_and_gates(tmp_path, monkeypatch, capsys):
    cfg = parse_config(MINIMAL)
    status = cmd_probe_flux(cfg, tmp_path)
    rows = (tmp_path / "probe_report.csv").read_text().splitlines()
    assert rows[0] == "probe,flux,iface,v,worst_d1,worst_d2,status"
    table = [r.split(",") for r in rows[1:]]
    assert len(table) == 18  # 3 fluxes x 2 families x 3 speeds
    assert {st for *_, st in table} == {"pass"}
    assert status == 0
    assert "FAIL" not in capsys.readouterr().out

    # a decreasing difference for one combination has to trip the gate
    real_probe = cli.dissipativity_probe

    def probe(iface, bulk, lam, box, v, n):
        if bulk is BulkFluxKind.RUSANOV and iface is InterfaceFluxKind.G1_ONLY and v == 0.0:
            return -1e-3, 0.0
        return real_probe(iface, bulk, lam, box, v, n)

    monkeypatch.setattr(cli, "dissipativity_probe", probe)
    status = cmd_probe_flux(cfg, tmp_path)
    rows = (tmp_path / "probe_report.csv").read_text().splitlines()
    table = [r.split(",") for r in rows[1:]]
    failed = [(flux, iface, float(v)) for _, flux, iface, v, _, _, st in table if st == "fail"]
    assert failed == [("rusanov", "g1-only", 0.0)]
    out = capsys.readouterr().out
    assert "FAIL check=dissipativity_rusanov_g1-only_v0 " in out
    assert status == 1


def test_probe_germ_gate(tmp_path):
    cfg = parse_config(MINIMAL + "seed = 3\n")
    status = cmd_probe_germ(cfg, tmp_path)
    rows = (tmp_path / "probe_report.csv").read_text().splitlines()
    assert rows[0] == "probe,u_minus,u_plus,min_xi,passes_criterion,region,status"
    assert len(rows) == 1001
    assert status == 0
    assert all(r.endswith(",pass") for r in rows[1:])


def test_run_periodic_implicit_end_to_end(tmp_path):
    text = """
lambda = 1
mass = 0.01
mu = 0.25
dx = 0.05
T = 0.5
u_minus = 1
u_plus = -1
v0 = 0.25
domain = periodic
half_width = 9
velocity_update = implicit
"""
    cfg = parse_config(text)
    assert cmd_run(cfg, tmp_path) == 0
    body = (tmp_path / "particle.csv").read_text().splitlines()
    assert len(body) > 10


def test_main_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(MINIMAL + "v0 = 0.5\n", encoding="utf-8")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("mu = -1\n", encoding="utf-8")
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert main(["run", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)]) == 2
    # run takes a single dx; a list parses (convergence needs one) and is
    # refused when run reads it
    two = tmp_path / "two.cfg"
    two.write_text(MINIMAL.replace("dx = 0.1", "dx = 0.01, 0.005"), encoding="utf-8")
    assert main(["run", str(two), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().out.splitlines()[-1] == (
        "FAIL check=execution value=key 'dx' must be a single value for this command"
    )
    # convergence needs strictly decreasing levels
    rising = tmp_path / "rising.cfg"
    rising.write_text(MINIMAL.replace("dx = 0.1", "dx = 0.05, 0.1, 0.2"), encoding="utf-8")
    assert main(["convergence", str(rising), "--out", str(tmp_path / "out")]) == 2
    assert "'dx'" in capsys.readouterr().out.splitlines()[-1]


def test_implicit_run_at_a_velocity_near_1000_finishes(tmp_path):
    # Float spacing exceeds 1e-13 from |w| = 512 on, so a solve that waits
    # for an absolute bracket width of 1e-13 never ends here.
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "velocity_update = implicit\nlambda = 1\nmass = 0.002\nmu = 0.5\nT = 0.001\n"
        "dx = 0.01\nbreakpoints = -0.05, 0, 0.05\nvalues = 1000, 1001.3, 998.4, 1000\n"
        "v0 = 1000.5\n",
        encoding="utf-8",
    )
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "particle.csv").is_file()


def test_run_refuses_snapshots_that_share_a_file(tmp_path, capsys):
    # Snapshot files are named u_<t:.6f>.csv; the states stored for 1e-6 and
    # 1.2e-6 would both write u_0.000001.csv, and one of them would be lost.
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "lambda = 1\nmass = 1\nmu = 0.25\ndx = 1e-7\nT = 1.5e-6\nu_minus = 1\nu_plus = -1\n"
        "snapshots = 0.000001, 0.0000012\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    fail = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(fail) == 1 and "'snapshots'" in fail[0]
    assert list(out.iterdir()) == []  # refused before any file is written


def test_run_gate_reports_a_record_out_of_bounds(tmp_path, monkeypatch, capsys):
    # The invariant-region and velocity gates pass (low, high) tuples; their
    # first violation must print a FAIL line, not crash the formatter.
    real_run = cli.run

    def run(*args, **kwargs):
        traj = real_run(*args, **kwargs)
        traj.u_max[3] = traj.env.M + 1.0
        traj.v[3] = traj.env.v_hi + 1.0
        return traj

    monkeypatch.setattr(cli, "run", run)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(MINIMAL + "v0 = 0.5\n", encoding="utf-8")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == [
        "check=invariant_region",
        "check=velocity_bounds",
    ]
    assert lines[0] == "FAIL check=invariant_region value=(-1,2) limit=(-1,1)"


def test_main_reports_boundary_guard(tmp_path, monkeypatch, capsys):
    def run(*args, **kwargs):
        raise BoundaryGuardError("disturbance reached the padded boundary; enlarge the domain")

    monkeypatch.setattr(cli, "run", run)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(MINIMAL, encoding="utf-8")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().out == (
        "FAIL check=boundary_guard value=disturbance reached the padded boundary; "
        "enlarge the domain\n"
    )


@pytest.mark.parametrize(
    "replace,add,keys",
    [
        ("mu = 0.25", "mu = 1e-9", ("'T'", "'mu'", "'dx'")),  # about 3e10 cells of padding
        ("mu = 0.25", "mu = 5e-324", ("'T'", "'mu'", "'dx'")),  # 3*T/mu overflows
        ("", "domain = periodic\nhalf_width = 1e6", ("'half_width'", "'dx'")),
    ],
)
@pytest.mark.parametrize("command", ["run", "convergence"])
def test_oversized_windows_exit_2_naming_the_keys(replace, add, keys, command, tmp_path, capsys):
    # Each window would need more than 10^7 cells; the refusal comes before
    # the window is allocated, and no file is written.
    text = MINIMAL.replace(replace, "") if replace else MINIMAL
    if command == "convergence":
        text = text.replace("dx = 0.1", "dx = 0.1, 0.05, 0.025")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text + add + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(cfg_path), "--out", str(out)]) == 2
    fail = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(fail) == 1 and "more than 10000000" in fail[0]
    assert all(key in fail[0] for key in keys)
    assert list(out.iterdir()) == []


LIGHT = """
flux = rusanov
lambda = 1
mass = 0.003
mu = 0.25
T = 0.01
dx = 0.01
breakpoints = -0.1, 0, 0.1
values = 0, 1, -0.5, 0
"""


def test_light_particle_run_fits_its_window(tmp_path, capsys):
    # The mass condition sets the step, 80 steps against the 12 the CFL
    # step would take; the padded window is sized by that step, so no
    # disturbance reaches the boundary guard.
    cfg_path = tmp_path / "light.cfg"
    cfg_path.write_text(LIGHT, encoding="utf-8")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == ""
    rows = (tmp_path / "out" / "particle.csv").read_text().splitlines()
    assert len(rows) == 1 + 81


@pytest.mark.parametrize(
    "mass,add,fragment",
    [
        # 2.4e11 steps, at least 3 cells per step on each side
        ("1e-12", "", "more than 10000000; check 'T', 'mass' and 'dx'"),
        # the mass step underflows to 0
        ("5e-324", "", "has dt/dx = 0.0; check 'mass'"),
        ("5e-324", "domain = periodic\nhalf_width = 1\n", "has dt/dx = 0.0; check 'mass'"),
    ],
)
def test_tiny_mass_exits_2_naming_mass(mass, add, fragment, tmp_path, capsys):
    cfg_path = tmp_path / "light.cfg"
    cfg_path.write_text(LIGHT.replace("mass = 0.003", f"mass = {mass}") + add, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    fail = capsys.readouterr().out.splitlines()
    assert len(fail) == 1 and fail[0].startswith("FAIL check=execution") and fragment in fail[0]
    assert list(out.iterdir()) == []


def test_periodic_effective_guard_names_the_key_that_sets_the_step(tmp_path, capsys):
    # half_width = 1 would pass the guard 3*T*dx/dt = 0.12 of the CFL step
    # 'mu' sets, but the mass step is about 4000 times shorter: the message
    # names the key that set the step as well as the half width.
    cfg_path = tmp_path / "light.cfg"
    text = LIGHT.replace("mass = 0.003", "mass = 1e-6") + "domain = periodic\nhalf_width = 1\n"
    cfg_path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    fail = capsys.readouterr().out.splitlines()
    assert len(fail) == 1 and fail[0].startswith("FAIL check=execution")
    assert "'half_width'" in fail[0] and "'mass'" in fail[0]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("workload", ["compact-run", "periodic-dense"])
def test_run_writes_the_reference_bytes(workload, tmp_path, monkeypatch):
    # The benchmark's byte-identity oracle: the compact and the seed-0
    # periodic configs, built by bench/run.py itself, write CSV files whose
    # SHA-256 digests are those stored in bench/reference/digests.json.
    monkeypatch.syspath_prepend(str(BENCH))  # bench/run.py imports spans
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", bench)
    spec.loader.exec_module(bench)
    digests = json.loads((BENCH / "reference" / "digests.json").read_text())
    assert digests["seed"] == 0
    config = {"compact-run": bench.compact_run, "periodic-dense": bench.periodic_dense}[workload]
    cfg_path = tmp_path / "workload.cfg"
    cfg_path.write_text(config(0, False), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == digests["workloads"][workload]
