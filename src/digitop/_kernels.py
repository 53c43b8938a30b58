"""Kernel backend selection.

The compiled extension ``digitop._core`` is preferred when it imports; the
pure-Python module ``digitop._pure`` is the fallback.  The extension is one
hand-written C file, ``_core.c``, which the package build compiles when a C
compiler is present and skips otherwise.  Both expose the same functions with
identical outputs, so everything above this module is backend agnostic.
Both take exactly two positional arguments per kernel and read any sequence.
``n`` lies in 1..62, each of the first ``n`` rows within bits ``0..n-1``, and
``lattice_rows`` takes at most 62 cells, each coordinate in -2**62..2**62-1.
Outside this, both raise a TypeError or the same ValueError.

Set ``DIGITOP_BACKEND=python`` to force the fallback, or
``DIGITOP_BACKEND=cython`` to require the extension (ImportError if absent);
the name ``cython`` is kept for existing settings.  Unset, empty or ``auto``
prefers the extension; any other value is a ValueError.
"""

from __future__ import annotations

import os

_requested = os.environ.get("DIGITOP_BACKEND", "auto").strip().lower()

if _requested in ("auto", "", "cython"):
    try:
        from . import _core as _impl

        BACKEND = "cython"
    except ImportError:
        if _requested == "cython":
            raise
        from . import _pure as _impl

        BACKEND = "python"
elif _requested == "python":
    from . import _pure as _impl

    BACKEND = "python"
else:
    raise ValueError(f"unknown DIGITOP_BACKEND value: {_requested!r}")

canonical_rows = _impl.canonical_rows
classify_flags = _impl.classify_flags
min_image_nonsurjective = _impl.min_image_nonsurjective
lattice_rows = _impl.lattice_rows
