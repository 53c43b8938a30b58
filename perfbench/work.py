"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script with ``PYTHONPATH`` pointing at ``src`` and
``DIGITOP_BACKEND`` / ``DIGITOP_THREADS`` set; it prints one JSON object as
its last line of standard output.  Modes:

* ``timed``    -- time each of the workload's operations, then check every
  answer;
* ``traced``   -- the same with layer spans (see ``tracing.py``), then replay
  the recorded kernel calls on the compiled twin when one is given;
* ``baseline`` -- time ``catalog._classify_codes`` alone on the classes the
  workload classifies (run once per worker count);
* ``prepare``  -- build the catalog that ``core-query`` reads.

Workloads (inputs depend only on ``--seed``):

* ``abstract-build`` -- ``build_catalog(dir, "abstract", 8)`` into an empty
  directory: abstract generation, canonical labeling and planarity dominate.
* ``lattice-build``  -- ``build_catalog`` for adj4 to n = 10, then adj8 to
  n = 7: cell-set growth, mask decoding, lattice rows and canonical labeling.
* ``core-query``     -- over a complete catalog (abstract n <= 8, adj4
  n <= 11, adj8 n <= 8) built before timing: the resumed ``build_catalog`` of
  all three families, the three reports and the conjecture scan, then
  ``classify`` + ``reduce_to_core`` on every abstract n = 7 class (seeded
  relabeling), ``homotopy_equivalent`` on a seeded perfect matching of the
  n = 7 classes with at most 14 edges, and ``reduce_to_core`` on 36 seeded
  4-adjacency animals (four each of 16..24 cells).

An operation is one catalog level written or resumed, or one query answered;
it fails when it raises or when its check in ``gate.py`` fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gate
import tracing

ABSTRACT_LEVELS = (("abstract", 8),)
LATTICE_LEVELS = (("adj4", 10), ("adj8", 7))
CATALOG_LEVELS = (("abstract", 8), ("adj4", 11), ("adj8", 8))
PAIR_MAX_EDGES = 14  # denser n = 7 classes dominate the core search; each is reduced once already
ANIMAL_SIZES = range(16, 25)
ANIMALS_PER_SIZE = 4


@dataclass
class Op:
    """One timed call and the check of its answer (a list of failure messages)."""

    kind: str
    fn: Callable[[], object]
    count: int
    check: Callable[[object], list[str]]


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# Workloads: each returns its operations; everything here runs before timing.


def build_ops(directory: Path, levels) -> list[Op]:
    from digitop import catalog

    out = directory / "catalog"
    return [
        Op(
            "build",
            lambda family=family, n_max=n_max: catalog.build_catalog(out, family, n_max),
            n_max,
            lambda entries, family=family, n_max=n_max: gate.check_resumed(out, family, n_max, entries),
        )
        for family, n_max in levels
    ]


def random_animal(rng: random.Random, size: int) -> frozenset[tuple[int, int]]:
    """Eden growth: add a random 4-neighbour of a random cell until ``size`` cells."""
    cells = {(0, 0)}
    while len(cells) < size:
        x, y = rng.choice(sorted(cells))
        dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        cells.add((x + dx, y + dy))
    return frozenset(cells)


def core_query_ops(directory: Path, catalog: Path, seed: int) -> tuple[list[Op], Callable[[], list[str]]]:
    """The query operations, and a final check over all n = 7 verdicts.

    Calls go through module attributes so that tracing sees the timed ones;
    checks run after tracing is removed.
    """
    from digitop import catalog as cat, homotopy
    from digitop.image import LatticeImage, are_isomorphic, graph6_decode, lattice_to_image

    work = directory / "catalog"
    shutil.copytree(catalog, work)
    rng = random.Random(seed)
    ops = [
        Op(
            "resume",
            lambda family=family, n_max=n_max: cat.build_catalog(work, family, n_max),
            n_max,
            lambda entries, family=family, n_max=n_max: gate.check_resumed(work, family, n_max, entries),
        )
        for family, n_max in CATALOG_LEVELS
    ]
    ops += [
        Op("report", lambda family=family: cat.build_report(work, family), 1,
           lambda table, family=family: gate.check_report(table, family))
        for family, _ in CATALOG_LEVELS
    ]
    ops.append(Op("scan", lambda: cat.scan_conjectures(work), 1, gate.check_scan))

    rows = gate.csv_rows((work / gate.level_file("abstract", 7)).read_bytes())
    images = []
    for row in rows:
        image = graph6_decode(row["canonical"])
        perm = list(range(image.n))
        rng.shuffle(perm)
        images.append(image.relabeled(perm))
    cores: dict[int, object] = {}
    verdicts: dict[int, object] = {}

    def check_class(index: int, answer) -> list[str]:
        verdict, core = answer
        verdicts[index] = verdict
        cores[index] = core
        return gate.check_core(f"abstract n=7 #{index}", images[index].n, verdict.reducible, core, homotopy.classify(core))

    for index, image in enumerate(images):
        ops.append(
            Op("classify_reduce", lambda image=image: (homotopy.classify(image), homotopy.reduce_to_core(image)), 1,
               lambda answer, index=index: check_class(index, answer))
        )

    sparse = [i for i, image in enumerate(images) if image.edge_count <= PAIR_MAX_EDGES]
    rng.shuffle(sparse)
    for a, b in zip(sparse[0::2], sparse[1::2]):
        def check_pair(answer, a=a, b=b) -> list[str]:
            core_a = cores.get(a) or homotopy.reduce_to_core(images[a])
            core_b = cores.get(b) or homotopy.reduce_to_core(images[b])
            backward = homotopy.homotopy_equivalent(images[b], images[a])
            return gate.check_pair(f"pair #{a},#{b}", answer, backward, are_isomorphic(core_a, core_b))

        ops.append(
            Op("equivalent", lambda a=a, b=b: homotopy.homotopy_equivalent(images[a], images[b]), 1, check_pair)
        )

    for size in ANIMAL_SIZES:
        for k in range(ANIMALS_PER_SIZE):
            animal = lattice_to_image(LatticeImage(4, random_animal(rng, size)))
            label = f"adj4 animal {size}.{k}"
            ops.append(
                Op("animal_core", lambda animal=animal: homotopy.reduce_to_core(animal), 1,
                   lambda core, animal=animal, label=label: gate.check_core(
                       label, animal.n, homotopy.classify(animal).reducible, core, homotopy.classify(core)))
            )

    return ops, lambda: gate.check_verdict_table(list(verdicts.values()), "abstract", 7)


# ---------------------------------------------------------------------------
# Running and checking


def run_ops(ops: list[Op], tracer: tracing.Tracer | None) -> tuple[list, list[float], list[float]]:
    """Answers, and the wall and CPU seconds of each operation."""
    calls = [
        tracer.wrap("op." + op.kind, op.fn) if tracer is not None else op.fn for op in ops
    ]
    results = []
    walls = []
    cpus = []
    for call in calls:
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        try:
            results.append((True, call()))
        except Exception as exc:  # a failed operation is counted, never fatal
            traceback.print_exc()
            results.append((False, f"{type(exc).__name__}: {exc}"))
        walls.append(time.perf_counter() - start)
        cpus.append(cpu_seconds() - cpu_start)
    return results, walls, cpus


def check_ops(ops: list[Op], results: list) -> tuple[int, int, list[str]]:
    """Check every answer."""
    attempted = failed = 0
    failures: list[str] = []
    for op, (ok, value) in zip(ops, results):
        attempted += op.count
        if not ok:
            problems = [value] * op.count
        else:
            try:
                problems = op.check(value)
            except Exception as exc:
                traceback.print_exc()
                problems = [f"check raised {type(exc).__name__}: {exc}"] * op.count
        failed += min(len(problems), op.count)
        failures.extend(f"{op.kind}: {p}" for p in problems)
    return attempted, failed, failures


def workload_ops(args) -> tuple[list[Op], Callable[[], list[str]] | None]:
    directory = Path(args.dir)
    if args.workload == "abstract-build":
        return build_ops(directory, ABSTRACT_LEVELS), None
    if args.workload == "lattice-build":
        return build_ops(directory, LATTICE_LEVELS), None
    return core_query_ops(directory, Path(args.catalog), args.seed)


def load_twin(path: str):
    """The compiled twin built from ``_core.c``, loaded beside the pure backend."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("digitop._core", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_workload(args) -> dict:
    """Run the workload's operations once, timed, then check every answer."""
    ops, final_check = workload_ops(args)
    tracer = tracing.Tracer(record_kernels=args.twin is not None) if args.mode == "traced" else None
    if tracer is not None:
        tracer.install()
    try:
        results, walls, cpus = run_ops(ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak = peak_rss_mb()  # before any check allocates
    attempted, failed, failures = check_ops(ops, results)
    if final_check is not None:
        problems = final_check()
        attempted += 1
        failed += min(len(problems), 1)
        failures += problems
    out = {
        "op_wall_s": walls,
        "op_cpu_s": cpus,
        "peak_rss_mb": peak,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
    }
    if tracer is not None:
        out["trace"] = {
            "stats": tracer.stats,
            "under": [[parent, child, calls] for (parent, child), calls in tracer.under.items()],
            "counts": tracer.counts,
            "absent": tracer.absent,
        }
        if args.twin is not None:
            try:
                twin = load_twin(args.twin)
            except ImportError as exc:
                seconds, absent = {}, {k: f"compiled twin does not load: {exc}" for k in tracing.KERNELS}
            else:
                seconds, absent = tracing.replay(twin, tracer.logs)
            out["trace"]["compiled_s"] = seconds
            out["trace"]["compiled_absent"] = absent
    return out


def run_baseline(args) -> dict:
    """Seconds of ``_classify_codes`` over the workload's classified levels."""
    import digitop.catalog as catalog

    classify_codes = getattr(catalog, "_classify_codes", None)
    if classify_codes is None:
        return {"absent": "digitop.catalog._classify_codes no longer exists"}
    source = Path(args.catalog)
    if args.workload == "core-query":
        files = [gate.level_file("abstract", 7)]
    else:
        levels = ABSTRACT_LEVELS if args.workload == "abstract-build" else LATTICE_LEVELS
        files = [gate.level_file(f, n) for f, n_max in levels for n in range(1, n_max + 1)]
    batches = [[row["canonical"] for row in gate.csv_rows((source / name).read_bytes())] for name in files]
    start = time.perf_counter()
    flags = [classify_codes(codes) for codes in batches]
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(repr(flags).encode()).hexdigest()
    return {"seconds": seconds, "codes": sum(map(len, batches)), "flags_sha256": digest}


def run_prepare(args) -> dict:
    """Build the complete catalog; ``run.py`` gates it before any use."""
    from digitop.catalog import build_catalog

    for family, n_max in CATALOG_LEVELS:
        build_catalog(Path(args.dir), family, n_max)
    return {}


def environment() -> dict:
    import networkx

    import digitop

    return {
        "backend_requested": os.environ.get("DIGITOP_BACKEND", "auto"),
        "backend": digitop.BACKEND,
        "workers": os.environ.get("DIGITOP_THREADS"),
        "python": sys.version.split()[0],
        "networkx": networkx.__version__,
        "digitop": digitop.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="one repetition of a benchmark workload")
    parser.add_argument("--workload", required=True, choices=("abstract-build", "lattice-build", "core-query"))
    parser.add_argument("--mode", required=True, choices=("timed", "traced", "baseline", "prepare"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", required=True, help="empty scratch directory for this repetition")
    parser.add_argument("--catalog", help="complete catalog (core-query) or catalog to classify (baseline)")
    parser.add_argument("--twin", help="compiled twin extension to replay kernel calls on")
    args = parser.parse_args()

    env = environment()
    if env["backend"] != env["backend_requested"]:
        print(f"backend {env['backend']!r} resolved, {env['backend_requested']!r} requested", file=sys.stderr)
        return 3
    if args.mode == "prepare":
        out = run_prepare(args)
    elif args.mode == "baseline":
        out = run_baseline(args)
    else:
        out = run_workload(args)
    out["env"] = env
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
