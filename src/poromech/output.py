"""Deterministic output writers: legacy ASCII VTK polygon snapshots and
CSV tables.

Floats are written with repr, the shortest digit string that round-trips,
so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv

import numpy as np

from .mesh import PolyMesh


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write rows (sequences or dicts keyed by header) as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if isinstance(row, dict):
                row = [row.get(key) for key in header]
            writer.writerow([_fmt(v) for v in row])


def write_vtk(path, mesh: PolyMesh, *, cell_data=None,
              point_data=None) -> None:
    """Legacy ASCII VTK polygon snapshot.

    cell_data maps names to (num_cells,) scalar arrays; point_data maps
    names to (num_vertices, 2) vectors, written with a zero third
    component.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("poromech snapshot\nASCII\nDATASET POLYDATA\n")
        fh.write(f"POINTS {mesh.num_vertices} double\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r} 0.0\n")
        size = sum(len(c) + 1 for c in mesh.cells)
        fh.write(f"POLYGONS {mesh.num_cells} {size}\n")
        for cell in mesh.cells:
            fh.write(" ".join([str(len(cell))] + [str(v) for v in cell]))
            fh.write("\n")
        if cell_data:
            fh.write(f"CELL_DATA {mesh.num_cells}\n")
            for name, values in cell_data.items():
                values = np.asarray(values)
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                for v in values:
                    fh.write(f"{float(v)!r}\n")
        if point_data:
            fh.write(f"POINT_DATA {mesh.num_vertices}\n")
            for name, values in point_data.items():
                fh.write(f"VECTORS {name} double\n")
                for vx, vy in values:
                    fh.write(f"{float(vx)!r} {float(vy)!r} 0.0\n")


def write_partition_csv(path, partition) -> None:
    """Cell-to-macro-element assignment as (cell, macro) rows."""
    write_csv(path, ["cell", "macro"],
              [(k, int(m)) for k, m in enumerate(partition.cell_macro)])
