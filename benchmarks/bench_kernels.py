"""Compare the compiled and pure-Python kernels on realistic workloads.

Workloads: canonical labeling of every connected 7-point class, full
classification of the same classes, and the polyplet class pass at n = 7
(lattice adjacency + canonical labeling per cell set).

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import time

from digitop import _pure
from digitop.enumerator import _mask_cells, enumerate_abstract_connected, grow_masks

try:
    from digitop import _core
except ImportError:
    _core = None


def _time(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="timing repetitions (best kept)")
    args = parser.parse_args()

    graphs = [cls.representative for cls in enumerate_abstract_connected(7)]
    pairs = [(g.n, list(g.rows)) for g in graphs]
    cell_lists = [_mask_cells(mask) for mask in grow_masks(8, 7)]

    workloads = {
        f"canonical_rows ({len(pairs)} graphs, n=7)": lambda mod: [
            mod.canonical_rows(n, rows) for n, rows in pairs
        ],
        f"classify_flags ({len(pairs)} graphs, n=7)": lambda mod: [
            mod.classify_flags(n, rows) for n, rows in pairs
        ],
        f"polyplet class pass ({len(cell_lists)} cell sets, n=7)": lambda mod: [
            mod.canonical_rows(len(cells), mod.lattice_rows(8, cells))
            for cells in cell_lists
        ],
    }

    width = max(len(name) for name in workloads)
    print(f"{'workload':<{width}}  {'pure':>9}  {'compiled':>9}  {'speedup':>8}")
    for name, run in workloads.items():
        pure_s = _time(lambda: run(_pure), args.repeat)
        if _core is None:
            print(f"{name:<{width}}  {pure_s:>8.3f}s  {'absent':>9}  {'-':>8}")
            continue
        core_s = _time(lambda: run(_core), args.repeat)
        print(
            f"{name:<{width}}  {pure_s:>8.3f}s  {core_s:>8.3f}s  {pure_s / core_s:>7.1f}x"
        )


if __name__ == "__main__":
    main()
