"""Exact walk-count and local-complement invariants for graph isomorphism
screening, with a staged pairwise distinguisher and group partitioning
tooling for strongly regular graph datasets.
"""

from .graph import (
    MAX_VERTICES,
    CertificateError,
    Graph,
    SrgParams,
    build_graph,
    degree_sequence,
    find_isomorphism,
    is_isomorphism,
    local_complement,
    srg_parameters,
    vertex_orbits,
)
from .linalg import determinant, lc_determinants, walk_powers
from .invariants import (
    DetProfile,
    LcWalkSignature,
    WalkSignature,
    default_m,
    lc_determinant_profile,
    lc_walk_signature,
    walk_signature,
)
from .isotest import (
    STAGES,
    PartitionReport,
    distinguish_pair,
    partition_group,
)
from .formats import (
    CATALOG_HEADER,
    CatalogError,
    CatalogRecord,
    Graph6Error,
    ParseFailure,
    catalog_read,
    catalog_write,
    make_catalog_record,
    parse_graph6,
    read_dataset,
    write_graph6,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_VERTICES",
    "Graph",
    "SrgParams",
    "build_graph",
    "degree_sequence",
    "is_isomorphism",
    "local_complement",
    "srg_parameters",
    "vertex_orbits",
    "determinant",
    "lc_determinants",
    "walk_powers",
    "DetProfile",
    "LcWalkSignature",
    "WalkSignature",
    "default_m",
    "lc_determinant_profile",
    "lc_walk_signature",
    "walk_signature",
    "STAGES",
    "CertificateError",
    "PartitionReport",
    "distinguish_pair",
    "find_isomorphism",
    "partition_group",
    "CATALOG_HEADER",
    "CatalogError",
    "CatalogRecord",
    "Graph6Error",
    "ParseFailure",
    "catalog_read",
    "catalog_write",
    "make_catalog_record",
    "parse_graph6",
    "read_dataset",
    "write_graph6",
    "__version__",
]
