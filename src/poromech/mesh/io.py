"""Plain-text mesh format, one record per non-blank line:

    NV NT               header
    x y                 NV vertex lines
    k v0 ... v(k-1)     NT cell lines, counterclockwise

Fields are whitespace-delimited; ``#`` starts a comment that runs to the
end of its line, and a line of only a comment is blank.  A record spread
over two lines, two records on one line or a field that does not parse
is a MeshFormatError naming the line.  Faces are derived from the cells.
The mesh carries no boundary data: the boundary conditions select their
faces (see BoundaryConditions).  Files of the earlier layout, with a face
count NF in the header and NF face lines after the cells, are rejected
with a MeshFormatError on the header line.
"""

from __future__ import annotations

from .core import MeshError, PolyMesh


class MeshFormatError(MeshError):
    """Raised when a mesh file cannot be parsed."""


def _record(line: int, fields: list, kind, count: int, what: str) -> list:
    """The count fields of the record on line, converted by kind."""
    try:
        if len(fields) == count:
            return [kind(field) for field in fields]
    except ValueError:
        pass
    raise MeshFormatError(f"line {line}: expected {what}, got "
                          f"{' '.join(fields)!r}")


def read_mesh(path) -> PolyMesh:
    """Read a mesh file and validate its topology."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    (line, header), *body = [
        (line, fields) for line, text in enumerate(lines, start=1)
        if (fields := text.split("#", 1)[0].split())] or [(len(lines), [])]
    nv, nt = _record(line, header, int, 2, "the header 'NV NT' (the face "
                     "count and face lines of the earlier layout are gone)")
    if min(nv, nt) < 0:
        raise MeshFormatError(f"line {line}: negative count in the header")
    vertices = [_record(line, fields, float, 2, "a vertex line 'x y'")
                for line, fields in body[:nv]]
    cells = []
    for line, fields in body[nv:nv + nt]:
        k = _record(line, fields[:1], int, 1, "a cell vertex count")[0]
        if k < 3:
            raise MeshFormatError(f"line {line}: cell with fewer than 3 "
                                  "vertices")
        cells.append(_record(line, fields, int, k + 1,
                             f"a cell line of k = {k} vertex indices")[1:])
        bad = [v for v in cells[-1] if not 0 <= v < nv]
        if bad:
            raise MeshFormatError(f"line {line}: vertex index {bad[0]} out "
                                  f"of range for {nv} vertices")
    if len(body) < nv + nt:
        raise MeshFormatError(f"line {len(lines)}: unexpected end of file, "
                              f"expected {nv} vertex and {nt} cell lines")
    if len(body) > nv + nt:
        line, fields = body[nv + nt]
        raise MeshFormatError(f"line {line}: trailing content "
                              f"{' '.join(fields)!r}")
    return PolyMesh(vertices, cells)


def write_mesh(path, mesh: PolyMesh) -> None:
    """Write a mesh in the plain-text format."""
    lines = [f"{mesh.num_vertices} {mesh.num_cells}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for cell in mesh.cells:
        lines.append(" ".join([str(len(cell))] + [str(v) for v in cell]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
