"""Plain-text mesh format.

Layout (whitespace-delimited, ``#`` starts a comment):

    NV NT               header, alone on its line
    x y                 NV vertex lines
    k v0 ... v(k-1)     NT cell lines, counterclockwise

Faces are derived from the cells.  The mesh carries no boundary data: the
boundary conditions select their faces (see BoundaryConditions).  Files of
the earlier layout, with a face count NF in the header and NF face lines
after the cells, are rejected with a MeshFormatError on the header line.
"""

from __future__ import annotations

from .core import MeshError, PolyMesh


class MeshFormatError(MeshError):
    """Raised when a mesh file cannot be parsed."""


class _Tokens:
    """Sequential token stream that remembers line numbers for errors."""

    def __init__(self, text: str):
        self.items = [(ln, tok)
                      for ln, line in enumerate(text.splitlines(), start=1)
                      for tok in line.split("#", 1)[0].split()]
        self.pos = 0
        self.line = 0  # line of the last token read

    def next(self, what: str, kind=str):
        """The next token converted by kind; errors name its line."""
        if self.pos >= len(self.items):
            raise MeshFormatError(f"line {self.line}: unexpected end of "
                                  f"file, expected {what}")
        self.line, tok = self.items[self.pos]
        self.pos += 1
        try:
            return kind(tok)
        except ValueError:
            raise MeshFormatError(f"line {self.line}: expected {what}, "
                                  f"got {tok!r}") from None

    def next_line(self) -> int | None:
        """Line of the next token, None at the end of the file."""
        return self.items[self.pos][0] if self.pos < len(self.items) else None


def read_mesh(path) -> PolyMesh:
    """Read a mesh file and validate its topology."""
    with open(path, "r", encoding="utf-8") as fh:
        toks = _Tokens(fh.read())
    nv = toks.next("vertex count", int)
    nt = toks.next("cell count", int)
    if toks.next_line() == toks.line:
        raise MeshFormatError(
            f"line {toks.line}: the header is 'NV NT'; the face count and "
            "the face lines of the earlier layout were removed")
    vertices = [(toks.next("x", float), toks.next("y", float))
                for _ in range(nv)]
    cells = []
    for _ in range(nt):
        k = toks.next("cell vertex count", int)
        if k < 3:
            raise MeshFormatError(f"line {toks.line}: cell with fewer than "
                                  "3 vertices")
        cell = []
        for _ in range(k):
            v = toks.next("vertex index", int)
            if not 0 <= v < nv:
                raise MeshFormatError(f"line {toks.line}: vertex index {v} "
                                      f"out of range for {nv} vertices")
            cell.append(v)
        cells.append(cell)
    if toks.next_line() is not None:
        tok = toks.next("end of file")
        raise MeshFormatError(f"line {toks.line}: trailing content {tok!r}")
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
