"""Pinned macro-element partitions.

The greedy partition of stab.build_macro_elements fixes which interior
faces the pressure-jump penalty acts on, so a rewrite of the partition must
reproduce cell_macro bit for bit: the same macro id for every cell, in the
same numbering.  Each entry holds the cell count, the macro count and the
SHA-256 of cell_macro as little-endian int64, as the list-based partition
(cells around each vertex and face neighbours as Python lists) gave them.
The meshes are the four families at n = 10 and larger or distorted meshes
on which the second, queue-driven step of the partition does most of the
work: dart meshes, an unrelaxed Voronoi mesh and an aspect-16 grid.
"""

import hashlib

import numpy as np
import pytest

from poromech.mesh import build_cartesian, build_hybrid, build_voronoi
from poromech.problems.studies import family_mesh
from poromech.stab import build_macro_elements

from helpers import dart_mesh

MESHES = {
    "cartesian10": lambda: family_mesh("cartesian", 10),
    "skewed10": lambda: family_mesh("skewed", 10),
    "hybrid10": lambda: family_mesh("hybrid", 10),
    "voronoi10": lambda: family_mesh("voronoi", 10),
    "hybrid40": lambda: build_hybrid(40, 40),
    "voronoi1600": lambda: build_voronoi(1600, lloyd_iters=20, seed=0),
    "cartesian80": lambda: build_cartesian(80, 80),
    "dart10_0.8": lambda: dart_mesh(10, 0.8),
    "dart10_0.97": lambda: dart_mesh(10, 0.97),
    "voronoi400_unrelaxed": lambda: build_voronoi(400, lloyd_iters=0,
                                                  seed=0),
    "cartesian10x160": lambda: build_cartesian(10, 160),
}

# (cells, macros, sha256 of cell_macro as '<i8')
PINNED = {
    "cartesian10": (100, 25, "b67d9b90daf8320b81ec12687cf217d6"
                             "17eb58becf8045b50d41453e237844fc"),
    "skewed10": (100, 25, "b67d9b90daf8320b81ec12687cf217d6"
                          "17eb58becf8045b50d41453e237844fc"),
    "hybrid10": (110, 25, "38cc49209421a28d711fafca8ff66664"
                          "d0c5ac7cd8733f49984caa5fbbde0234"),
    "voronoi10": (100, 32, "80c407ac4f2e4b39b0d15bbefa1693a8"
                           "66583dbc13f9b1a47310413c1081c51c"),
    "hybrid40": (1640, 400, "679e4836056c98839e51fb20acffe5d8"
                            "d931088506e4f3cfc7d6ddac76a16e62"),
    "voronoi1600": (1600, 512, "3c525bf1d9ddcb8daac979468b402f14"
                               "74520430552c0be572002fb2991a343d"),
    "cartesian80": (6400, 1600, "95d0395dff5c88ae361d378f4bc9b5d1"
                                "04aef10e848f9c3f1491a624aab16030"),
    "dart10_0.8": (100, 25, "b67d9b90daf8320b81ec12687cf217d6"
                            "17eb58becf8045b50d41453e237844fc"),
    "dart10_0.97": (100, 25, "b67d9b90daf8320b81ec12687cf217d6"
                             "17eb58becf8045b50d41453e237844fc"),
    "voronoi400_unrelaxed": (400, 121, "3a1c31719ac5b9ccf3ac98359edfae56"
                                       "dd4bb051e71b9037169620b8993547a8"),
    "cartesian10x160": (1600, 400, "de3b5ed308a9be61ecbef11123fdc38f"
                                   "5238850cebdc7f95d2f4b5204dcdbe83"),
}


@pytest.mark.parametrize("name", list(MESHES))
def test_partition_pinned(name):
    cell_macro = build_macro_elements(MESHES[name]()).cell_macro
    digest = hashlib.sha256(
        np.asarray(cell_macro, dtype="<i8").tobytes()).hexdigest()
    assert (cell_macro.size, int(cell_macro.max()) + 1, digest) == \
        PINNED[name]
