"""Fast self-test of the benchmark harness, on coarse versions of the workloads.

    python3 bench/selftest.py

It checks that faults raise the failure count (error_rate) while every
metric is still reported, that the reference checks reject altered outputs,
and that each mode emits exactly the metrics and units of BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

MODULES = run.load_package()
CLI, SCHEME = MODULES[0], MODULES[1]
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def measure(name="compact-run", trace=False, runner=None, seed=1):
    return run.measure(name, seed, 0.0, trace, MODULES, coarse=True, runner=runner)


def faulty(fault):
    """A runner that behaves like cli.main on its first call, then applies ``fault``."""
    calls = []

    def runner(argv):
        calls.append(argv)
        status = CLI.main(argv)
        return fault(argv, status) if len(calls) > 1 else status

    return runner


def corrupt_csv(argv, status):
    path = Path(argv[argv.index("--out") + 1]) / "particle.csv"
    data = bytearray(path.read_bytes())
    data[-2] = ord("7") if data[-2] != ord("7") else ord("8")
    path.write_bytes(bytes(data))
    return status


def raise_guard(argv, status):
    raise SCHEME.BoundaryGuardError("disturbance reached the padded boundary")


class Faults(unittest.TestCase):
    def assert_all_metrics(self, result, expected):
        self.assertEqual(set(result["metrics"]), set(expected))

    def test_clean_run_passes_every_check(self):
        result = measure()
        self.assertTrue(result["correct"])
        # warm-up command (exit status only: it sets the reference), two
        # set-up children, the memory child (exit status and outputs) and one
        # timed command (exit status and outputs)
        self.assertEqual(result["attempted"], 7)
        self.assertEqual(result["failed"], 0)

    def test_corrupted_csv_raises_error_rate(self):
        for trace, expected in ((False, END_TO_END), (True, PER_LAYER)):
            result = measure(trace=trace, runner=faulty(corrupt_csv))
            self.assertGreater(result["failed"], 0)
            self.assertFalse(result["correct"])
            self.assert_all_metrics(result, expected)

    def test_wrong_exit_status_raises_error_rate(self):
        result = measure(runner=faulty(lambda argv, status: 1))
        self.assertGreater(result["failed"], 0)
        self.assert_all_metrics(result, END_TO_END)

    def test_exception_counts_as_failure(self):
        for trace, expected in ((False, END_TO_END), (True, PER_LAYER)):
            result = measure(trace=trace, runner=faulty(raise_guard))
            self.assertGreater(result["failed"], 0)
            self.assert_all_metrics(result, expected)


class References(unittest.TestCase):
    def session(self, name, seed):
        tmp = tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=run.ROOT)
        self.addCleanup(tmp.cleanup)
        return run.Session(run.WORKLOADS[name], seed, False, Path(tmp.name), MODULES)

    def test_digest_reference_rejects_changed_bytes(self):
        session = self.session("compact-run", 5)  # its config ignores the seed
        self.assertIsNotNone(session.digests)
        self.assertFalse(session.outputs_ok({"particle.csv": b"t,h\n"}))

    def test_seeded_workload_has_a_reference_for_the_default_seed_only(self):
        self.assertIsNotNone(self.session("periodic-dense", run.DEFAULT_SEED).digests)
        self.assertIsNone(self.session("periodic-dense", 5).digests)

    def test_numeric_reference_has_a_tolerance(self):
        ref = (run.REFERENCE / "implicit-light" / "convergence.csv").read_text()
        rows = ref.splitlines()
        head, cells = rows[:1], rows[1].split(",")
        for scale, ok in ((1 + 1e-12, True), (1 + 1e-3, False)):
            changed = [cells[0], repr(float(cells[1]) * scale), *cells[2:]]
            text = "\n".join(head + [",".join(changed)] + rows[2:]) + "\n"
            self.assertEqual(run.tables_close(text, ref, run.IMPLICIT_RTOL), ok)


class Emission(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for name in run.WORKLOADS:
            for trace, expected in ((False, END_TO_END), (True, PER_LAYER)):
                with self.subTest(workload=name, trace=trace):
                    result = measure(name, trace)
                    self.assertTrue(result["correct"])
                    units = {k: m["unit"] for k, m in result["metrics"].items()}
                    self.assertEqual(units, expected)
                    if not trace:
                        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_implicit_levels_report_time_and_work(self):
        metrics = measure("implicit-light", True)["metrics"]
        for k in range(3):
            self.assertGreater(metrics[f"scheme.run_s.level{k}"]["value"], 0)
            self.assertGreater(metrics[f"scheme.cell_steps.level{k}"]["value"], 0)
        self.assertGreater(metrics["flux.interface_fluxes_calls_per_step"]["value"], 1)


if __name__ == "__main__":
    unittest.main()
