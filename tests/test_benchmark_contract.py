"""The names the catalog benchmark traces and calls still exist.

``perfbench/tracing.py`` wraps each (module, attribute) pair in ``SPANS``
after ``import digitop``, and reports a name it cannot find as absent
rather than failing; its ``baseline`` mode calls ``catalog._classify_codes``
on a plain list of graph6 codes.  These tests turn a renamed or reshaped
name into a failure here.
"""

import importlib.util
import sys
from pathlib import Path

import digitop  # noqa: F401  (the tracer looks names up after this import)
from digitop import catalog

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _spans():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_traced_name_resolves_after_import():
    spans = _spans()
    absent = [
        f"{module}.{attr}"
        for _, module, attr in spans
        if not callable(getattr(sys.modules.get(module), attr, None))
    ]
    assert spans and absent == []


def test_classify_codes_takes_a_plain_code_list():
    # (reducible, pointed reducible, rigid, planar, cycle) of one point, an
    # edge, and the triangle.
    assert [tuple(map(bool, row)) for row in catalog._classify_codes(["@", "A_", "Bw"])] == [
        (False, False, True, True, False),
        (True, True, False, True, False),
        (True, True, False, True, True),
    ]


def test_grow_masks_returns_a_list():
    # The tracer counts ``enumerator.cell_sets`` as ``len()`` of this result.
    assert isinstance(catalog.grow_masks(4, 3), list)
