"""Polygonal meshes: data structure, generators, and text I/O."""

from .core import (FACE_FLUX, FACE_INTERIOR, FACE_PRESSURE, CellGeometry,
                   MeshError, PolyMesh, TAG_CODES, TAG_NAMES,
                   is_k_orthogonal, k_orthogonality_defect, kappa_as_tensor,
                   polygon_area_centroid, polygon_diameter,
                   polygon_edge_geometry, polygon_geometry,
                   polygon_quadrature)
from .generators import (apply_skew, build_cartesian, build_hybrid,
                         build_skewed, build_voronoi)
from .io import MeshFormatError, read_mesh, write_mesh

__all__ = [
    "CellGeometry", "FACE_FLUX", "FACE_INTERIOR", "FACE_PRESSURE",
    "MeshError", "MeshFormatError", "PolyMesh", "TAG_CODES", "TAG_NAMES",
    "apply_skew", "build_cartesian", "build_hybrid", "build_skewed",
    "build_voronoi", "is_k_orthogonal", "k_orthogonality_defect",
    "kappa_as_tensor", "polygon_area_centroid", "polygon_diameter",
    "polygon_edge_geometry", "polygon_geometry", "polygon_quadrature",
    "read_mesh", "write_mesh",
]
