"""Catalogs of small binary digital images.

A digital image is a finite point set with a symmetric antireflexive
adjacency relation, here always presented as a simple graph.  The package
enumerates all isomorphism classes of connected images (abstract, and
realized in Z^2 under 4- or 8-adjacency), classifies each as reducible,
pointed reducible, irreducible, or rigid via exhaustive search over
one-step homotopies of the identity, and scans the resulting catalogs for
counterexamples to three structural conjectures.
"""

from ._kernels import BACKEND
from .catalog import (
    CatalogEntry,
    ReportRow,
    ReportTable,
    ScanReport,
    build_catalog,
    build_report,
    catalog_path,
    read_catalog_csv,
    scan_conjectures,
    write_catalog_csv,
)
from .enumerator import (
    CellSet,
    enumerate_abstract_connected,
    enumerate_fixed_polyominoes,
    enumerate_fixed_polyplets,
    enumerate_lattice_images,
)
from .homotopy import (
    Classification,
    SelfMap,
    candidate_count,
    classify,
    homotopy_equivalent,
    is_continuous,
    one_step_identity_maps,
    reduce_to_core,
)
from .image import (
    GRAPH6_MAX_N,
    DigitalImage,
    Graph6Error,
    LatticeImage,
    are_isomorphic,
    canonical_form,
    canonical_image,
    graph6_decode,
    graph6_encode,
    is_connected,
    is_planar,
    lattice_to_image,
)
from .lattice import (
    FIXTURE_CODES,
    UnrealizableError,
    builtin_fixtures,
    cycle_image,
    embed_4_to_8,
    realize_cycle_4adj,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CatalogEntry",
    "CellSet",
    "Classification",
    "DigitalImage",
    "FIXTURE_CODES",
    "GRAPH6_MAX_N",
    "Graph6Error",
    "LatticeImage",
    "ReportRow",
    "ReportTable",
    "ScanReport",
    "SelfMap",
    "UnrealizableError",
    "are_isomorphic",
    "build_catalog",
    "build_report",
    "builtin_fixtures",
    "candidate_count",
    "canonical_form",
    "canonical_image",
    "catalog_path",
    "classify",
    "cycle_image",
    "embed_4_to_8",
    "enumerate_abstract_connected",
    "enumerate_fixed_polyominoes",
    "enumerate_fixed_polyplets",
    "enumerate_lattice_images",
    "graph6_decode",
    "graph6_encode",
    "homotopy_equivalent",
    "is_connected",
    "is_continuous",
    "is_planar",
    "lattice_to_image",
    "one_step_identity_maps",
    "read_catalog_csv",
    "realize_cycle_4adj",
    "reduce_to_core",
    "scan_conjectures",
    "write_catalog_csv",
    "__version__",
]
