"""Polygonal meshes: data structure, generators, and text I/O."""

from .core import (CellGeometry, MeshError, PolyMesh, polygon_area_centroid,
                   polygon_diameter, polygon_edge_geometry, polygon_geometry,
                   polygon_quadrature)
from .generators import (build_cartesian, build_hybrid, build_skewed,
                         build_voronoi)
from .io import MeshFormatError, read_mesh, write_mesh

__all__ = [
    "CellGeometry", "MeshError", "MeshFormatError", "PolyMesh",
    "build_cartesian", "build_hybrid", "build_skewed", "build_voronoi",
    "polygon_area_centroid", "polygon_diameter", "polygon_edge_geometry",
    "polygon_geometry", "polygon_quadrature", "read_mesh", "write_mesh",
]
