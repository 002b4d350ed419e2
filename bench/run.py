"""Benchmark of the burgers-particle CLI on four workloads.

Run from the repository root:

    python3 bench/run.py --workload compact-run --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25 --trace 1

Each workload is one CLI command (``run``, ``convergence`` or
``probe-germ``) called in-process through ``burgers_particle.cli.main``, one
command at a time.  ``--trace 0`` reports the end-to-end metrics: median wall
time of the command, set-up time and peak memory of fresh interpreters.
``--trace 1`` alternates untraced and traced commands and reports the
per-layer metrics of bench/spans.py plus the tracing overhead.  Every command
is checked: its exit status, and its CSV outputs against the stored reference
(or, without one, against the first command of the run).  The last stdout
line is a JSON object with the keys correct, attempted, failed and metrics.
See bench/README.md for the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
DIGESTS = REFERENCE / "digests.json"
TRACE_DIR = ROOT / ".bench_trace"

DEFAULT_SEED = 0  # the seed the stored reference outputs belong to
SETUP_SHARE = 0.4  # share of --seconds spent on set-up children; timed commands get the rest
CHILD_TIMEOUT_S = 150
# Implicit results may move at round-off when the velocity solver changes;
# errors and orders in convergence.csv must stay within this relative distance.
IMPLICIT_RTOL = 1e-6

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# On a shared virtual machine the CPU's speed moves by tens of percent within
# and between runs while process CPU time stays equal to wall time, so no
# statistic of the command times alone is steady.  A fixed kernel of numpy
# array and Python scalar work runs after every timed command, and wall_s is
# reported at the host speed at which that kernel takes CAL_REF_S.
CAL_REF_S = 0.5
# The kernel does not track a fresh interpreter's start (process creation,
# reading and unmarshalling modules), so each set-up child is paired with a
# reference interpreter that only imports numpy, spawned just before it, and
# setup_s is reported at the host speed at which that reference takes
# SETUP_REF_S.
SETUP_REF_S = 0.2
REFERENCE_CHILD = "import time, numpy; print(time.monotonic_ns())"
_CAL_STATES = np.linspace(-1.0, 1.0, 12_000)


def calibration_s() -> float:
    """Wall seconds of a fixed kernel shaped like the solver's work."""
    a, acc = _CAL_STATES, 0.0
    t0 = time.perf_counter()
    for i in range(6000):
        right = np.maximum(a - 0.1, 0.0)
        left = np.minimum(np.roll(a, -1) - 0.1, 0.0)
        acc += float((0.5 * right * right + 0.5 * left * left)[i])
        for j in range(40):
            acc += j * 0.5
    return time.perf_counter() - t0


def _join(values) -> str:
    return ", ".join(repr(float(x)) for x in values)


def compact_run(seed: int, coarse: bool) -> str:
    return (
        "flux = godunov\niface = max-germ\nvelocity_update = explicit\ndomain = padded\n"
        "lambda = 1\nmass = 1\nmu = 0.25\nT = 1\n"
        f"dx = {0.01 if coarse else 0.0025}\n"
        "breakpoints = -0.4, 0, 0.3\nvalues = 0, 1.1, -0.8, 0\nv0 = 0.2\n"
        "snapshots = 0.25, 0.5, 0.75\n"
    )


def periodic_dense(seed: int, coarse: bool) -> str:
    values = np.random.default_rng(seed).uniform(-0.5, 0.5, 30)
    return (
        "flux = eo\niface = max-germ\nvelocity_update = explicit\ndomain = periodic\n"
        "half_width = 7.5\nlambda = 0.5\nmass = 1\nmu = 0.25\nT = 0.5\nv0 = 0.1\n"
        f"dx = {0.01 if coarse else 0.00125}\n"
        f"breakpoints = {_join(np.arange(-7.0, 7.25, 0.5))}\nvalues = {_join(values)}\n"
    )


def implicit_light(seed: int, coarse: bool) -> str:
    # Coarser meshes break the monotone-error gate (the velocity error is not
    # yet asymptotic), so the coarse version shortens T instead: the largest
    # velocity error occurs in the first few milliseconds.
    return (
        "flux = godunov\niface = max-germ\nvelocity_update = implicit\ndomain = padded\n"
        "lambda = 1\nmass = 0.002\nmu = 0.5\nu_minus = 1\nu_plus = -1\nv0 = 0.5\n"
        f"T = {0.25 if coarse else 1}\ndx = 0.02, 0.01, 0.005\n"
    )


def germ_probe(seed: int, coarse: bool) -> str:
    # The probe size (1000 candidates, 10^4 samples) is fixed by the CLI, so
    # the coarse version is the timed one.
    probe_seed = int(np.random.default_rng(seed).integers(2**31))
    return (
        "lambda = 1\nmass = 1\nmu = 0.25\ndx = 0.01\nT = 1\nu_minus = 0\nu_plus = 0\n"
        f"seed = {probe_seed}\n"
    )


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: Callable[[int, bool], str]  # (seed, coarse) -> config text
    seeded: bool  # the config depends on the seed
    numeric: bool  # outputs compared within IMPLICIT_RTOL, not byte for byte


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compact-run", "run", compact_run, seeded=False, numeric=False),
        Workload("periodic-dense", "run", periodic_dense, seeded=True, numeric=False),
        Workload("implicit-light", "convergence", implicit_light, seeded=False, numeric=True),
        Workload("germ-probe", "probe-germ", germ_probe, seeded=True, numeric=False),
    )
}


def load_package():
    """Import burgers_particle from this checkout's src/ and no other copy."""
    if not (SRC / "burgers_particle" / "__init__.py").is_file():
        raise SystemExit(f"bench: no burgers_particle sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import burgers_particle
    from burgers_particle import cli, diagnostics, exact, scheme

    if not Path(burgers_particle.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported {burgers_particle.__file__}, not {SRC}")
    return cli, scheme, diagnostics, exact


def _read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def _digests(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


def tables_close(text: str, ref: str, rtol: float) -> bool:
    """Same CSV layout and every number within ``rtol`` of the reference."""
    rows = [line.split(",") for line in text.splitlines()]
    ref_rows = [line.split(",") for line in ref.splitlines()]
    if len(rows) != len(ref_rows) or not rows or rows[0] != ref_rows[0]:
        return False
    for row, ref_row in zip(rows[1:], ref_rows[1:]):
        if len(row) != len(ref_row):
            return False
        for a, b in zip(row, ref_row):
            if (a == "") != (b == ""):
                return False
            if a and not math.isclose(float(a), float(b), rel_tol=rtol):
                return False
    return True


def _last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        return {}


class Session:
    """One workload at one seed: its config, checks and measurements."""

    def __init__(self, workload: Workload, seed: int, coarse: bool, tmp: Path, modules, runner=None):
        self.workload, self.tmp = workload, tmp
        self.cli, self.scheme, self.diagnostics, self.exact = modules
        self.runner = runner or self.cli.main
        self.config = tmp / "workload.cfg"
        self.config.write_text(workload.config(seed, coarse), encoding="utf-8")
        self.attempted = self.failed = 0
        self.digests: dict[str, str] | None = None  # SHA-256 of every expected output file
        self.table: str | None = None  # expected convergence.csv of a numeric workload
        if not coarse and (seed == DEFAULT_SEED or not workload.seeded):
            if workload.numeric:
                self.table = (REFERENCE / workload.name / "convergence.csv").read_text()
            else:
                self.digests = json.loads(DIGESTS.read_text())["workloads"][workload.name]

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: check failed: {self.workload.name}: {what}", file=sys.stderr)

    def outputs_ok(self, files: dict[str, bytes]) -> bool:
        if self.table is not None:
            return set(files) == {"convergence.csv"} and tables_close(
                files["convergence.csv"].decode(), self.table, IMPLICIT_RTOL
            )
        return _digests(files) == self.digests

    def _out_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="out-", dir=self.tmp))

    def command(self, runner=None, first: bool = False) -> tuple[float, int]:
        """Run the workload's command once in-process; (seconds, output bytes)."""
        out = self._out_dir()
        argv = [self.workload.command, str(self.config), "--out", str(out)]
        try:
            with redirect_stdout(sys.stderr):
                t0 = time.perf_counter()
                try:
                    status = (runner or self.runner)(argv)
                finally:
                    seconds = time.perf_counter() - t0
        except (Exception, SystemExit):
            traceback.print_exc()
            status = None
        files = _read_outputs(out) if out.is_dir() else {}
        shutil.rmtree(out, ignore_errors=True)
        self.check(status == 0, f"exit status {status}")
        if first and self.digests is None and self.table is None:
            self.digests = _digests(files)  # no reference: later commands must repeat this one
        else:
            self.check(status is not None and self.outputs_ok(files), "outputs differ from the reference")
        return seconds, sum(len(data) for data in files.values())

    def _child(self, mode: str) -> tuple[dict, Path, float]:
        out = self._out_dir()
        argv = [sys.executable, str(BENCH / "child.py"), mode, self.workload.command, str(self.config), str(out)]
        t0 = time.monotonic_ns()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
            report = _last_json(proc.stdout) if proc.returncode == 0 else {}
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
        except subprocess.TimeoutExpired:
            report = {}
        return report, out, t0

    def setup_ratio(self) -> float:
        """Set-up time of a fresh interpreter over that of a reference one spawned just before.

        Set-up time runs from spawning the interpreter until its first step
        could start; the reference's, until it has imported numpy.
        """
        t0 = time.monotonic_ns()
        ref = subprocess.run(
            [sys.executable, "-c", REFERENCE_CHILD],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, check=True,
        )
        reference = int(ref.stdout.split()[-1]) - t0
        report, out, t0 = self._child("setup")
        shutil.rmtree(out, ignore_errors=True)
        self.check("ready_ns" in report, f"set-up child did not reach the first step: {report}")
        return (report.get("ready_ns", time.monotonic_ns()) - t0) / reference

    def peak_rss_mb(self) -> float:
        """Peak RSS of a fresh interpreter running the command once (checked too)."""
        report, out, _ = self._child("rss")
        files = _read_outputs(out)
        shutil.rmtree(out, ignore_errors=True)
        status = report.get("status")
        self.check(status == 0, f"memory child exit status {status}")
        self.check(status is not None and self.outputs_ok(files), "memory child outputs differ")
        return report.get("maxrss_kib", 0) / 1024.0

    def traced_command(self) -> tuple[float, list[list], int]:
        tracer = spans.Tracer()
        spans.install(tracer, self.cli, self.scheme, self.diagnostics, self.exact)
        try:
            seconds, nbytes = self.command(tracer.wrap("cli.main", self.runner))
        finally:
            tracer.restore()
        return seconds, tracer.spans, nbytes


def _until(seconds: float, body: Callable[[], None]) -> None:
    start = time.perf_counter()
    while True:
        body()
        if time.perf_counter() - start >= seconds:
            return


def end_to_end(s: Session, seconds: float) -> dict[str, float]:
    s.command(first=True)
    s.setup_ratio()  # warms the file caches of both interpreters
    setup: list[float] = []
    _until(seconds * SETUP_SHARE, lambda: setup.append(s.setup_ratio()))
    peak = s.peak_rss_mb()
    walls: list[float] = []
    kernel: list[float] = []

    def timed():
        walls.append(s.command()[0])
        kernel.append(calibration_s())

    _until(seconds * (1 - SETUP_SHARE), timed)
    wall, kernel_median, setup_median = (statistics.median(x) for x in (walls, kernel, setup))
    print(
        f"{s.workload.name}: {len(walls)} timed commands, {len(setup)} set-up pairs; "
        f"unscaled medians: wall {wall:.6g} s, kernel {kernel_median:.6g} s; "
        f"set-up over reference interpreter {setup_median:.6g}"
    )
    return {"wall_s": wall * CAL_REF_S / kernel_median, "setup_s": setup_median * SETUP_REF_S, "peak_rss_mb": peak}


def per_layer(s: Session, seconds: float, trace_file: Path | None) -> dict[str, float]:
    s.command(first=True)
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    last: list[list] = []

    def pair():
        nonlocal last
        plain.append(s.command()[0])
        wall, recorded, nbytes = s.traced_command()
        traced.append(wall)
        layers.append(spans.layer_metrics(recorded, nbytes))
        last = recorded

    _until(seconds, pair)
    print(f"{s.workload.name}: {len(traced)} traced and {len(plain)} untraced commands")
    if trace_file is not None:
        trace_file.parent.mkdir(exist_ok=True)
        trace_file.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "work"], "spans": last}))
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(plain)
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, modules, coarse=False, runner=None, trace_file=None) -> dict:
    """One benchmark run of one workload; returns the result object."""
    tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        s = Session(WORKLOADS[name], seed, coarse, tmp, modules, runner)
        if trace:
            values, units = per_layer(s, seconds, trace_file), spans.LAYER_UNITS
        else:
            values, units = end_to_end(s, seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {
            k: {"value": int(v) if k in spans.COUNTS else float(v), "unit": units[k]}
            for k, v in values.items()
        },
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def _print_metrics(prefix: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{prefix}{name} = {m['value']:.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"{prefix}error_rate = {rate:.6g} ({result['failed']} of {result['attempted']} checks failed)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    modules = load_package()
    print(json.dumps({"provenance": provenance()}))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = measure(
            name, args.seed, args.seconds, bool(args.trace), modules,
            trace_file=TRACE_DIR / f"{name}.json" if args.trace else None,
        )
        _print_metrics(f"{name}: ", result)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
