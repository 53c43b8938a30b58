"""Outside-in tracing: spans around the public names each layer is called through.

Nothing inside ``src/`` changes.  :class:`Tracer` replaces each traced
function, in every ``digitop`` module that holds it, with a wrapper that
records calls, inclusive seconds and the seconds of nested traced calls, so a
span's self time is its duration minus its child spans.  Calls to the kernel
boundary are also recorded in compact form so they can be replayed on the
compiled twin.  A traced name that no longer exists is reported absent.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from itertools import chain

# (metric name, module, attribute); the first part of the metric name is the layer.
SPANS = (
    ("catalog.build_catalog", "digitop.catalog", "build_catalog"),
    ("catalog.classify_codes", "digitop.catalog", "_classify_codes"),
    ("catalog.write_catalog_csv", "digitop.catalog", "write_catalog_csv"),
    ("catalog.read_catalog_csv", "digitop.catalog", "read_catalog_csv"),
    ("catalog.build_report", "digitop.catalog", "build_report"),
    ("catalog.scan_conjectures", "digitop.catalog", "scan_conjectures"),
    ("enumerator.grow_masks", "digitop.catalog", "grow_masks"),
    ("enumerator.abstract_children", "digitop.catalog", "abstract_children"),
    ("enumerator.mask_classes", "digitop.catalog", "mask_classes"),
    ("kernels.canonical_rows", "digitop._kernels", "canonical_rows"),
    ("kernels.lattice_rows", "digitop._kernels", "lattice_rows"),
    ("kernels.classify_flags", "digitop._kernels", "classify_flags"),
    ("kernels.min_image_nonsurjective", "digitop._kernels", "min_image_nonsurjective"),
    ("image.is_planar", "digitop.image", "is_planar"),
    ("image.graph6_decode", "digitop.image", "graph6_decode"),
    ("homotopy.classify", "digitop.homotopy", "classify"),
    ("homotopy.reduce_to_core", "digitop.homotopy", "reduce_to_core"),
    ("homotopy.homotopy_equivalent", "digitop.homotopy", "homotopy_equivalent"),
)
LAYERS = ("catalog", "enumerator", "kernels", "image", "homotopy")
KERNELS = tuple(name.split(".", 1)[1] for name, _, _ in SPANS if name.startswith("kernels."))

# Kernel implementations are the far side of the kernel boundary: never wrapped.
_UNWRAPPED_MODULES = ("digitop._pure", "digitop._core")


class CallLog:
    """Arguments of one kernel's calls, packed flat so that logging creates no
    per-call objects for the garbage collector to scan."""

    def __init__(self, pairs: bool):
        self.pairs = pairs  # arguments are (head, [(x, y), ...]) rather than (head, [int, ...])
        self.heads = array("q")
        self.sizes = array("q")
        self.flat = array("q")
        self.skipped = 0

    def add(self, args: tuple) -> None:
        try:
            head, seq = args
            values = array("q", chain.from_iterable(seq) if self.pairs else seq)
            self.heads.append(head)
        except (OverflowError, TypeError, ValueError):
            self.skipped += 1
            return
        self.sizes.append(len(values))
        self.flat.extend(values)

    def batches(self, size: int):
        """The logged calls as argument tuples, ``size`` calls at a time."""
        batch = []
        offset = 0
        for head, width in zip(self.heads, self.sizes):
            values = self.flat[offset : offset + width]
            offset += width
            batch.append((head, list(zip(values[0::2], values[1::2])) if self.pairs else values.tolist()))
            if len(batch) == size:
                yield batch
                batch = []
        if batch:
            yield batch


class Tracer:
    """Aggregated spans and counts for one traced process."""

    def __init__(self, record_kernels: bool = False):
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, child seconds]
        self.under: dict[tuple[str, str], int] = {}  # (parent, child) -> calls
        self.counts: dict[str, int] = {}
        self.absent: dict[str, str] = {}
        self.logs: dict[str, CallLog] = (
            {k: CallLog(pairs=k == "lattice_rows") for k in KERNELS} if record_kernels else {}
        )
        self._stack: list[list] = []  # [name, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None, kernel: str | None = None):
        """``fn`` inside a span; ``after(tracer, args, result)`` updates counts."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        under = self.under
        clock = time.perf_counter
        log = self.logs.get(kernel) if kernel else None

        def traced(*args, **kwargs):
            if stack:
                key = (stack[-1][0], name)
                under[key] = under.get(key, 0) + 1
            if log is not None:
                log.add(args)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                try:
                    after(self, args, result)
                except (AttributeError, IndexError, OSError, TypeError):
                    self.count("trace.hook_errors", 1)
            return result

        return traced

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def install(self, spans=SPANS) -> None:
        """Wrap every traced name wherever a ``digitop`` module binds it."""
        for name, module_name, attr in spans:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.absent[name] = f"{module_name}.{attr} no longer exists"
                continue
            kernel = name.split(".", 1)[1] if name.startswith("kernels.") else None
            wrapper = self.wrap(name, original, _AFTER.get(name), kernel)
            for holder in _digitop_modules():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()


def _digitop_modules():
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name in _UNWRAPPED_MODULES:
            continue
        if module_name == "digitop" or module_name.startswith("digitop."):
            yield module


def _count_written(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("catalog.write_catalog_csv.bytes", os.path.getsize(args[0]))
    tracer.count("catalog.write_catalog_csv.rows", len(args[1]))


# Counts taken from a traced call's arguments and result, by span name.
_AFTER = {
    "catalog.write_catalog_csv": _count_written,
    "catalog.read_catalog_csv": lambda tracer, args, rows: tracer.count("catalog.read_catalog_csv.rows", len(rows)),
    "enumerator.grow_masks": lambda tracer, args, masks: tracer.count("enumerator.cell_sets", len(masks)),
}


def replay(twin, logs: dict[str, CallLog], batch: int = 20000) -> tuple[dict[str, float], dict[str, str]]:
    """Seconds the compiled twin takes for the logged kernel calls.

    Arguments are unpacked a batch at a time, outside the timed loop.
    """
    seconds: dict[str, float] = {}
    absent: dict[str, str] = {}
    for kernel, log in logs.items():
        fn = getattr(twin, kernel, None)
        if fn is None:
            absent[kernel] = f"compiled twin has no {kernel}"
            continue
        if log.skipped:
            absent[kernel] = f"{log.skipped} calls had arguments that could not be logged"
            continue
        total = 0.0
        try:
            for calls in log.batches(batch):
                start = time.perf_counter()
                for args in calls:
                    fn(*args)
                total += time.perf_counter() - start
        except (ValueError, TypeError, OverflowError) as exc:
            absent[kernel] = f"compiled twin rejected a logged call: {exc}"
            continue
        seconds[kernel] = total
    return seconds, absent
