"""Benchmark of the digitop catalog pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are ``abstract-build``, ``lattice-build`` and ``core-query``; what
each runs, and why, is in ``work.py``.  Every repetition is a fresh
interpreter (``work.py``) on the pure kernel (``DIGITOP_BACKEND=python``),
driven from this one process, which runs nothing else meanwhile.

``--trace 0`` repeats the workload with ``DIGITOP_THREADS`` = nproc until
``--seconds`` have passed, and reports medians over the repetitions:

* ``wall_s``      -- wall time of the timed operations (the sum over operations
  of each one's median);
* ``cpu_s``       -- user + system CPU of the repetition and its pool workers;
* ``peak_rss_mb`` -- peak RSS of the largest single process;
* ``setup_s``     -- ``import digitop`` through backend resolution, in a fresh
  interpreter (median of many).

``--trace 1`` reports the per-layer metrics instead: one untraced and one
traced repetition with ``DIGITOP_THREADS=1`` (so every span stays in one
process), ``catalog._classify_codes`` timed at 1 and at nproc workers, and
the recorded kernel calls replayed on the compiled twin, which is built from
the committed ``src/digitop/_core.c`` with the machine's C compiler.  The
worker counts behind ``catalog.classify_codes.speedup`` are the environment
record's ``baseline_workers`` (1 and ``nproc``).

``core-query`` reads a complete catalog that the program under test builds
before timing, once per source tree: it is cached under a digest of
``src/digitop`` and gated (paper counts and recorded sha256 of every level) on
every run; a catalog that fails the gate is used for that run only, and its
failed levels count in ``failed``.

Every answer is checked (``gate.py``).  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment.  Scratch files go
to ``.perfbench/`` in the checkout.  The command exits non-zero, printing no
result, when the checkout has no ``src/digitop`` or the backend resolves
differently from the one requested.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import gate
import tracing
from work import CATALOG_LEVELS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
WORKLOADS = ("abstract-build", "lattice-build", "core-query")
BACKEND = "python"
SETUP_SAMPLES = 25
BUDGET_S = 170.0  # every run must end within 180 s
SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import digitop\n"
    "print(time.perf_counter() - start, digitop.BACKEND)\n"
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Runner:
    """Starts child interpreters under one deadline and cleans up after them."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.nproc = len(os.sched_getaffinity(0))

    def env(self, threads: int) -> dict[str, str]:
        env = dict(os.environ)
        env.update(
            PYTHONPATH=str(SRC),
            DIGITOP_BACKEND=BACKEND,
            DIGITOP_THREADS=str(threads),
            PYTHONHASHSEED="0",
        )
        return env

    def spawn(self, argv: list[str], threads: int) -> str:
        """Run a child to completion and return its standard output."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time budget exhausted")
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=self.env(threads),
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{argv[1:3]} exceeded the time budget") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(argv[1:6])} exited with {proc.returncode}")
        return out

    def work(self, workload: str, mode: str, seed: int, threads: int, **options) -> dict:
        directory = SCRATCH / "reps" / f"{workload}-{mode}-{os.getpid()}-{time.monotonic_ns()}"
        directory.mkdir(parents=True)
        argv = [sys.executable, str(HERE / "work.py"), "--workload", workload, "--mode", mode,
                "--seed", str(seed), "--dir", str(directory)]
        for key, value in options.items():
            if value is not None:
                argv += [f"--{key}", str(value)]
        try:
            result = json.loads(self.spawn(argv, threads).strip().splitlines()[-1])
        finally:
            if mode != "traced":
                shutil.rmtree(directory, ignore_errors=True)
        result["dir"] = str(directory)
        return result

    def setup_seconds(self) -> list[float]:
        samples = []
        for _ in range(SETUP_SAMPLES + 1):  # the first warms the file cache
            seconds, backend = self.spawn([sys.executable, "-c", SETUP_PROBE], self.nproc).split()
            if backend != BACKEND:
                raise BenchError(f"backend {backend!r} resolved, {BACKEND!r} requested")
            samples.append(float(seconds))
        return samples[1:]

    def catalog(self, digest: str) -> tuple[Path, dict]:
        """The complete catalog core-query reads, and the gate's verdict on it.

        Built by the sources with this digest and cached under it once it passes
        the gate; each level counts as one operation, on every run.
        """
        target = SCRATCH / "catalog" / digest
        directory = target
        if not target.is_dir():
            directory = SCRATCH / "reps" / "catalog"
            argv = [sys.executable, str(HERE / "work.py"), "--workload", "core-query",
                    "--mode", "prepare", "--dir", str(directory)]
            self.spawn(argv, self.nproc)
        failures = [problem for family, n_max in CATALOG_LEVELS for n in range(1, n_max + 1)
                    for problem in gate.check_level(directory, family, n)]
        if directory != target and not failures:
            shutil.rmtree(target.parent, ignore_errors=True)  # catalogs of other sources
            target.parent.mkdir(parents=True)
            os.replace(directory, target)
            directory = target
        levels = sum(n_max for _, n_max in CATALOG_LEVELS)
        return directory, {"attempted": levels, "failed": len(failures),
                           "failures": [f"catalog: {p}" for p in failures]}


# ---------------------------------------------------------------------------
# Compiled twin


def build_twin() -> tuple[Path | None, str | None]:
    """Compile the committed ``_core.c`` into the scratch directory (cached)."""
    source = SRC / "digitop" / "_core.c"
    if not source.is_file():
        return None, "src/digitop/_core.c is not in this checkout"
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        return None, "no C compiler on PATH"
    include = sysconfig.get_paths()["include"]
    if not (Path(include) / "Python.h").is_file():
        return None, f"no Python headers in {include}"
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    key = hashlib.sha256(source.read_bytes() + include.encode() + suffix.encode()).hexdigest()[:16]
    target = SCRATCH / "twin" / key / f"_core{suffix}"
    if not target.is_file():
        target.parent.mkdir(parents=True, exist_ok=True)
        staging = target.with_name(f"_core.{os.getpid()}.tmp")
        proc = subprocess.run(
            [compiler, "-O2", "-fwrapv", "-DNDEBUG", "-shared", "-fPIC", "-I", include,
             str(source), "-o", str(staging)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            staging.unlink(missing_ok=True)
            lines = proc.stderr.strip().splitlines() or ["no output"]
            return None, f"{compiler} failed: {lines[-1]}"
        os.replace(staging, target)
    return target, None


# ---------------------------------------------------------------------------
# Metrics


def metric(value, unit: str, absent: str | None = None) -> dict:
    if absent is not None:
        return {"value": None, "unit": unit, "absent": absent}
    return {"value": value, "unit": unit}


def end_to_end(reps: list[dict], setup: list[float]) -> dict:
    """Wall and CPU time sum each operation's median over all repetitions."""

    def summed_medians(key):
        return sum(statistics.median(column) for column in zip(*(rep[key] for rep in reps)))

    return {
        "wall_s": metric(summed_medians("op_wall_s"), "s"),
        "cpu_s": metric(summed_medians("op_cpu_s"), "s"),
        "peak_rss_mb": metric(statistics.median(rep["peak_rss_mb"] for rep in reps), "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }


def per_layer(untraced: dict, traced: dict, serial: dict, parallel: dict,
              twin_absent: str | None) -> dict:
    trace = traced["trace"]
    stats, counts, absent = trace["stats"], trace["counts"], trace["absent"]
    under = {(parent, child): calls for parent, child, calls in trace["under"]}
    self_s = {name: total - child for name, (calls, total, child) in stats.items()}
    out: dict[str, dict] = {}
    for name, _, _ in tracing.SPANS:
        calls, total, _ = stats.get(name, [0, 0.0, 0.0])
        reason = absent.get(name)
        out[f"{name}.calls"] = metric(calls, "count", reason)
        out[f"{name}.s"] = metric(total, "s", reason)
        out[f"{name}.self_s"] = metric(self_s.get(name, 0.0), "s", reason)

    def counted(key, unit, needs):
        out[key] = metric(counts.get(key, 0), unit, absent.get(needs))

    counted("catalog.write_catalog_csv.bytes", "bytes", "catalog.write_catalog_csv")
    counted("catalog.read_catalog_csv.rows", "count", "catalog.read_catalog_csv")
    counted("enumerator.cell_sets", "count", "enumerator.grow_masks")
    out["catalog.resume.s"] = metric(stats.get("op.resume", [0, 0.0])[1], "s")

    if "absent" in serial or "absent" in parallel:
        reason = serial.get("absent") or parallel.get("absent")
        for key, unit in (("serial_s", "s"), ("parallel_s", "s"), ("speedup", "ratio")):
            out[f"catalog.classify_codes.{key}"] = metric(None, unit, reason)
    else:
        out["catalog.classify_codes.serial_s"] = metric(serial["seconds"], "s")
        out["catalog.classify_codes.parallel_s"] = metric(parallel["seconds"], "s")
        out["catalog.classify_codes.speedup"] = metric(serial["seconds"] / parallel["seconds"], "ratio")

    tried = under.get(("enumerator.abstract_children", "kernels.canonical_rows"), 0)
    out["enumerator.children_tried"] = metric(tried, "count", absent.get("enumerator.abstract_children"))
    labelings = stats.get("kernels.canonical_rows", [0])[0]
    out["enumerator.dedup_yield"] = metric(  # classes written per canonical labeling
        counts.get("catalog.write_catalog_csv.rows", 0) / labelings if labelings else None,
        "ratio",
        None if labelings else "no canonical labeling on this workload",
    )

    compiled = trace.get("compiled_s", {})
    compiled_absent = trace.get("compiled_absent", {})
    for kernel in tracing.KERNELS:
        reason = twin_absent or compiled_absent.get(kernel) or absent.get(f"kernels.{kernel}")
        out[f"kernels.{kernel}.compiled_s"] = metric(compiled.get(kernel), "s", reason)

    covered = 0.0
    for layer in tracing.LAYERS:
        seconds = sum(value for name, value in self_s.items() if name.startswith(layer + "."))
        covered += seconds
        out[f"layer.{layer}.self_s"] = metric(seconds, "s")
    wall = sum(traced["op_wall_s"])
    untraced_wall = sum(untraced["op_wall_s"])
    out["trace.wall_s"] = metric(wall, "s")
    out["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    out["trace.overhead"] = metric(wall / untraced_wall - 1.0, "ratio")
    out["trace.uncovered_s"] = metric(wall - covered, "s")
    out["trace.covered_share"] = metric(covered / wall, "ratio")
    return out


# ---------------------------------------------------------------------------
# Environment record


def git_commit() -> str:
    git = shutil.which("git")
    if git is None or not (ROOT / ".git").exists():
        return "absent: not a git checkout"
    proc = subprocess.run([git, "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "absent: git rev-parse failed"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "digitop").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description="digitop catalog benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "digitop" / "__init__.py").is_file():
        print(f"no digitop sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    runner = Runner(time.monotonic() + BUDGET_S)
    SCRATCH.mkdir(exist_ok=True)
    shutil.rmtree(SCRATCH / "reps", ignore_errors=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": runner.nproc,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "cpu_model": cpu_model(),
    }
    try:
        catalog, gated = None, []
        if args.workload == "core-query":
            catalog, verdict = runner.catalog(record["src_sha256"])
            gated.append(verdict)
        if args.trace:
            result = traced_run(runner, args, catalog, record, gated)
        else:
            result = timed_run(runner, args, catalog, record, gated)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH / "reps", ignore_errors=True)

    print(json.dumps({"env": record}))
    print(json.dumps(result))
    return 0


def timed_run(runner: Runner, args, catalog: Path | None, record: dict, gated: list[dict]) -> dict:
    setup = runner.setup_seconds()
    reps: list[dict] = []
    timed = 0.0
    while not reps or timed + timed / len(reps) <= args.seconds:
        rep = runner.work(args.workload, "timed", args.seed, runner.nproc, catalog=catalog)
        reps.append(rep)
        timed += sum(rep["op_wall_s"])
    record.update(reps[0]["env"], workers=runner.nproc, setup_samples=len(setup),
                  rep_wall_s=[sum(rep["op_wall_s"]) for rep in reps])
    return summarize(reps + gated, end_to_end(reps, setup))


def traced_run(runner: Runner, args, catalog: Path | None, record: dict, gated: list[dict]) -> dict:
    twin, twin_absent = build_twin()
    record["twin"] = str(twin.relative_to(ROOT)) if twin else f"absent: {twin_absent}"
    record["twin_source"] = "src/digitop/_core.c as committed; _core.pyx not regenerated (Cython %s)" % (
        "installed" if importlib.util.find_spec("Cython") else "not installed"
    )
    untraced = runner.work(args.workload, "timed", args.seed, 1, catalog=catalog)
    traced = runner.work(args.workload, "traced", args.seed, 1, catalog=catalog, twin=twin)
    classified = catalog if args.workload == "core-query" else Path(traced["dir"]) / "catalog"
    serial = runner.work(args.workload, "baseline", args.seed, 1, catalog=classified)
    parallel = runner.work(args.workload, "baseline", args.seed, runner.nproc, catalog=classified)
    record.update(traced["env"], workers=1, baseline_workers=[1, runner.nproc])
    agree = serial.get("flags_sha256") == parallel.get("flags_sha256")
    baseline = {"attempted": 1, "failed": int(not agree),
                "failures": [] if agree else ["classify_codes: 1 worker and nproc workers disagree"]}
    return summarize([untraced, traced, baseline] + gated,
                     per_layer(untraced, traced, serial, parallel, twin_absent))


def summarize(reps: list[dict], metrics: dict) -> dict:
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    for rep in reps:
        for failure in rep["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
    print(f"fail_rate {failed}/{attempted} = {failed / attempted:.6f}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
