"""Tests of the benchmark itself: the gate catches wrong answers, tracing
survives missing names, and the metric names match ``BENCHMARK.json``.

Run from the root of a checkout:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.setdefault("DIGITOP_BACKEND", "python")
os.environ.setdefault("DIGITOP_THREADS", "1")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from digitop.catalog import build_catalog  # noqa: E402
from digitop.homotopy import Classification  # noqa: E402
from digitop.image import DigitalImage  # noqa: E402

SCRATCH = ROOT / ".perfbench"
SCRATCH.mkdir(exist_ok=True)


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp(dir=SCRATCH, prefix="selftest-"))
        cls.catalog = cls.tmp / "catalog"
        cls.entries = build_catalog(cls.catalog, "abstract", 6)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def copy(self) -> Path:
        target = Path(tempfile.mkdtemp(dir=self.tmp))
        shutil.copytree(self.catalog, target, dirs_exist_ok=True)
        return target

    def test_correct_levels_pass(self):
        self.assertEqual(gate.check_resumed(self.catalog, "abstract", 6, self.entries), [])

    def test_digest_off_is_caught(self):
        directory = self.copy()
        path = directory / gate.level_file("abstract", 6)
        path.write_bytes(path.read_bytes() + b"\n")  # same counts, other bytes
        (problem,) = gate.check_level(directory, "abstract", 6)
        self.assertIn("sha256", problem)
        self.assertNotIn("counts", problem)

    def test_count_off_is_caught(self):
        directory = self.copy()
        path = directory / gate.level_file("abstract", 5)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        (problem,) = gate.check_level(directory, "abstract", 5)
        self.assertIn("counts", problem)

    def test_missing_level_is_caught(self):
        directory = self.copy()
        (directory / gate.level_file("abstract", 4)).unlink()
        failures = gate.check_resumed(directory, "abstract", 6, self.entries)
        self.assertEqual(len(failures), 1)
        self.assertIn("missing", failures[0])

    def test_returned_entries_must_equal_files(self):
        failures = gate.check_resumed(self.catalog, "abstract", 6, self.entries[:-1])
        self.assertEqual(len(failures), 1)
        self.assertIn("differ", failures[0])

    def test_report_and_scan(self):
        rows = [SimpleNamespace(n=n, images=i, pointed_irreducible=p, irreducible=r, rigid=g)
                for n, (i, p, r, g) in enumerate(gate.EXPECTED["counts"]["adj8"], 1)]
        self.assertEqual(gate.check_report(SimpleNamespace(rows=rows, warnings=()), "adj8"), [])
        rows[3].images += 1
        self.assertEqual(len(gate.check_report(SimpleNamespace(rows=rows, warnings=()), "adj8")), 1)
        findings = (None,) * 10
        self.assertEqual(gate.check_scan(SimpleNamespace(consistent=True, findings=findings)), [])
        bad = SimpleNamespace(consistent=False, findings=findings, counterexamples=("x",))
        self.assertEqual(len(gate.check_scan(bad)), 1)

    def test_core_invariants(self):
        path3 = DigitalImage.from_edges(3, [(0, 1), (1, 2)])
        point = DigitalImage(1, (0,))
        irreducible = Classification(reducible=False, pointed_reducible=False, rigid=True)
        reducible = Classification(reducible=True, pointed_reducible=True, rigid=False)
        self.assertEqual(gate.check_core("ok", 3, True, point, irreducible), [])
        self.assertEqual(len(gate.check_core("reducible core", 3, True, path3, reducible)), 1)
        self.assertEqual(len(gate.check_core("smaller core of irreducible", 3, False, point, irreducible)), 1)

    def test_pair_checks(self):
        self.assertEqual(gate.check_pair("ok", True, True, True), [])
        self.assertEqual(len(gate.check_pair("asymmetric", True, False, True)), 1)
        self.assertEqual(len(gate.check_pair("cores disagree", False, False, True)), 1)

    def test_verdict_table(self):
        def verdict(pointed, reducible, rigid):
            return Classification(reducible=reducible, pointed_reducible=pointed, rigid=rigid)

        good = [verdict(False, False, False)] * 1 + [verdict(False, True, False)] * 1 + [verdict(True, True, False)] * 110
        self.assertEqual(gate.check_verdict_table(good, "abstract", 6), [])
        self.assertEqual(len(gate.check_verdict_table(good[1:], "abstract", 6)), 1)


class TracingTest(unittest.TestCase):
    def test_absent_name_does_not_crash(self):
        tracer = tracing.Tracer()
        tracer.install(spans=(("catalog.gone", "digitop.catalog", "no_such_function"),))
        tracer.uninstall()
        self.assertIn("catalog.gone", tracer.absent)

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", lambda: sum(range(20000)))
        outer = tracer.wrap("outer", lambda: [inner() for _ in range(5)])
        outer()
        calls, total, child = tracer.stats["outer"]
        inner_calls, inner_total, _ = tracer.stats["inner"]
        self.assertEqual((calls, inner_calls), (1, 5))
        self.assertAlmostEqual(child, inner_total, places=9)
        self.assertLess(child, total)
        self.assertEqual(tracer.under[("outer", "inner")], 5)

    def test_install_wraps_every_alias_and_restores(self):
        import digitop
        import digitop.catalog

        original = digitop.catalog.build_catalog
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(digitop.catalog.build_catalog, original)
            self.assertIs(digitop.build_catalog, digitop.catalog.build_catalog)
        finally:
            tracer.uninstall()
        self.assertIs(digitop.catalog.build_catalog, original)
        self.assertIs(digitop.build_catalog, original)

    def test_call_log_round_trip(self):
        rows = tracing.CallLog(pairs=False)
        cells = tracing.CallLog(pairs=True)
        rows.add((3, [6, 5, 3]))
        rows.add((1, [0]))
        cells.add((4, [(0, 0), (-1, 2)]))
        self.assertEqual(list(rows.batches(1)), [[(3, [6, 5, 3])], [(1, [0])]])
        self.assertEqual(list(cells.batches(10)), [[(4, [(0, 0), (-1, 2)])]])
        rows.add((2, [1 << 70, 1]))
        rows.add((2,))
        self.assertEqual(rows.skipped, 2)
        self.assertEqual(len(rows.heads), 2)


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        rep = {"op_wall_s": [1.0], "op_cpu_s": [1.0], "peak_rss_mb": 1.0}
        e2e = run.end_to_end([rep], [0.1])
        self.assertEqual({(m["name"], m["unit"]) for m in spec["end_to_end"]},
                         {(k, v["unit"]) for k, v in e2e.items()})
        traced = dict(rep, trace={"stats": {}, "under": [], "counts": {}, "absent": {}})
        layer = run.per_layer(rep, traced, {"seconds": 2.0}, {"seconds": 1.0}, None)
        self.assertEqual({(m["name"], m["unit"]) for m in spec["per_layer"]},
                         {(k, v["unit"]) for k, v in layer.items()})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_catalog_failing_the_gate_is_counted_and_not_cached(self):
        with tempfile.TemporaryDirectory(dir=SCRATCH) as scratch:
            runner = run.Runner(deadline=0.0)
            runner.spawn = lambda argv, threads: Path(argv[argv.index("--dir") + 1]).mkdir(parents=True)
            saved, run.SCRATCH = run.SCRATCH, Path(scratch)
            try:
                directory, verdict = runner.catalog("digest")
            finally:
                run.SCRATCH = saved
            levels = sum(n_max for _, n_max in run.CATALOG_LEVELS)
            self.assertEqual((verdict["attempted"], verdict["failed"]), (levels, levels))
            self.assertFalse((Path(scratch) / "catalog" / "digest").exists())
            self.assertNotEqual(directory.parent.name, "catalog")

    def test_fails_without_sources(self):
        """With only BENCHMARK.json and the benchmark's files, it exits non-zero and prints no result."""
        with tempfile.TemporaryDirectory(dir=SCRATCH) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "abstract-build", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
