"""Plain-text mesh format.

Layout (whitespace-delimited, ``#`` starts a comment):

    NV NT NF
    x y                 NV vertex lines
    k v0 ... v(k-1)     NT cell lines, counterclockwise
    va vb tag           NF face lines, tag in {int, p, q}

Face lines must enumerate exactly the edges derived from the cells; they fix
the flow boundary tags.
"""

from __future__ import annotations

import numpy as np

from .core import MeshError, PolyMesh, TAG_CODES, TAG_NAMES


class MeshFormatError(MeshError):
    """Raised when a mesh file cannot be parsed."""


class _Tokens:
    """Sequential token stream that remembers line numbers for errors."""

    def __init__(self, text: str):
        self.items = []
        for ln, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0]
            for tok in body.split():
                self.items.append((ln, tok))
        self.pos = 0

    def next(self, what: str) -> tuple[int, str]:
        if self.pos >= len(self.items):
            last = self.items[-1][0] if self.items else 0
            raise MeshFormatError(f"line {last}: unexpected end of file, "
                                  f"expected {what}")
        item = self.items[self.pos]
        self.pos += 1
        return item

    def next_int(self, what: str) -> int:
        ln, tok = self.next(what)
        try:
            return int(tok)
        except ValueError:
            raise MeshFormatError(f"line {ln}: expected {what}, got {tok!r}")

    def next_float(self, what: str) -> float:
        ln, tok = self.next(what)
        try:
            return float(tok)
        except ValueError:
            raise MeshFormatError(f"line {ln}: expected {what}, got {tok!r}")

    def exhausted(self) -> bool:
        return self.pos >= len(self.items)


def read_mesh(path) -> PolyMesh:
    """Read a mesh file, validate its topology, and apply the face tags."""
    with open(path, "r", encoding="utf-8") as fh:
        toks = _Tokens(fh.read())
    nv = toks.next_int("vertex count")
    nt = toks.next_int("cell count")
    nf = toks.next_int("face count")
    vertices = [(toks.next_float("x"), toks.next_float("y"))
                for _ in range(nv)]
    cells = []
    for _ in range(nt):
        k = toks.next_int("cell vertex count")
        if k < 3:
            raise MeshFormatError("cell with fewer than 3 vertices")
        cell = []
        for _ in range(k):
            ln, tok = toks.next("vertex index")
            try:
                v = int(tok)
            except ValueError:
                raise MeshFormatError(f"line {ln}: expected vertex index, "
                                      f"got {tok!r}")
            if not 0 <= v < nv:
                raise MeshFormatError(f"line {ln}: vertex index {v} out of "
                                      f"range for {nv} vertices")
            cell.append(v)
        cells.append(cell)
    face_lines = []
    for _ in range(nf):
        va = toks.next_int("face vertex")
        vb = toks.next_int("face vertex")
        ln, tag = toks.next("face tag")
        if tag not in TAG_CODES:
            raise MeshFormatError(f"line {ln}: unknown face tag {tag!r}")
        face_lines.append((ln, va, vb, TAG_CODES[tag]))
    if not toks.exhausted():
        ln, tok = toks.next("end of file")
        raise MeshFormatError(f"line {ln}: trailing content {tok!r}")

    mesh = PolyMesh(vertices, cells)
    if mesh.num_faces != nf:
        raise MeshFormatError(
            f"face count {nf} does not match the {mesh.num_faces} edges "
            "derived from the cells")
    lookup = {(min(a, b), max(a, b)): i for i, (a, b) in enumerate(mesh.faces)}
    tags = [None] * mesh.num_faces
    for ln, va, vb, code in face_lines:
        fi = lookup.get((min(va, vb), max(va, vb)))
        if fi is None:
            raise MeshFormatError(f"line {ln}: face ({va}, {vb}) is not an "
                                  "edge of any cell")
        if tags[fi] is not None:
            raise MeshFormatError(f"line {ln}: face ({va}, {vb}) listed "
                                  "twice")
        tags[fi] = code
    mesh.face_tags = tags
    return mesh


def write_mesh(path, mesh: PolyMesh) -> None:
    """Write a mesh in the plain-text format (canonical face order)."""
    lines = [f"{mesh.num_vertices} {mesh.num_cells} {mesh.num_faces}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for cell in mesh.cells:
        lines.append(" ".join([str(len(cell))] + [str(v) for v in cell]))
    for (a, b), tag in zip(mesh.faces, mesh.face_tags):
        lines.append(f"{a} {b} {TAG_NAMES[int(tag)]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
