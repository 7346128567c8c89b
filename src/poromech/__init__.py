"""Coupled single-phase poromechanics on polygonal meshes.

Lowest-order virtual elements discretize the momentum balance, a hybrid
mimetic finite-difference method discretizes the flow problem, and the two
are coupled fully implicitly with optional macro-element pressure-jump
stabilization and a block-triangular preconditioned GMRES solver.
"""

from .assembly import BoundaryConditions, DiscreteSystem, Material, State
from .mesh import (MeshError, PolyMesh, build_cartesian, build_hybrid,
                   build_skewed, build_voronoi, read_mesh, write_mesh)
from .solver import BlockPreconditioner, KrylovReport, SolverError, gmres
from .stab import (MacroPartition, beta_coefficient, build_macro_elements,
                   checkerboard_indicator)

__version__ = "0.1.0"

__all__ = [
    "BoundaryConditions", "DiscreteSystem", "Material", "State",
    "MeshError", "PolyMesh", "build_cartesian", "build_hybrid",
    "build_skewed", "build_voronoi", "read_mesh", "write_mesh",
    "BlockPreconditioner", "KrylovReport", "SolverError", "gmres",
    "MacroPartition", "beta_coefficient", "build_macro_elements",
    "checkerboard_indicator", "__version__",
]
