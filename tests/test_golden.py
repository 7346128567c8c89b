"""Golden-equivalence pin of the condensed matrix and of short runs.

tests/data/golden.npz holds, for each mesh family at n = 6, the condensed
free-dof matrix and the state (u, p, pi) after five steps of two problems:
the manufactured solution with the direct solver, and the stabilized
cantilever with GMRES.  A refactor of the local operators, the assembly or
the preconditioner must reproduce them: the matrix to 1e-14 of its largest
entry, and each state field to 1e-13 of its largest entry.

The file is regenerated only when the discretization or a mesh is meant to
change.  Name the problem_family entries to re-pin; every other array is
copied from the current file byte for byte:

    PYTHONPATH=src python tests/test_golden.py manufactured_voronoi ...

With no names every entry is recomputed.  A full regeneration also takes
up the round-off drift of the entries that were not meant to change (up to
5.7e-14 of the largest entry at the time of the Voronoi re-pin below), so
re-pin only what the change is meant to move.

Its two Voronoi entries (manufactured and cantilever) were regenerated, and
the other six copied unchanged, when the Voronoi generator began to reflect
only its boundary generators: the n = 6 mesh kept its cells and its vertices
moved by 9.2e-15.  They were regenerated again, the same way, when each
Voronoi pass became one checked Delaunay triangulation: the cells were kept
and the vertices moved by 4.1e-15.  CHANGES.md records the evidence each
time (the new code on the old mesh reproduces the old entries within
MATRIX_TOL and STATE_TOL).
"""

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from poromech.problems import cantilever, manufactured
from poromech.problems.studies import FAMILIES, family_mesh

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.npz"
N = 6
STEPS = 5
PROBLEMS = ("manufactured", "cantilever")
MATRIX_TOL = 1e-14
STATE_TOL = 1e-13


def run_case(problem: str, family: str):
    """Condensed matrix and the state after STEPS steps."""
    mesh = family_mesh(family, N)
    if problem == "manufactured":
        system, state = manufactured.setup(mesh, 0.05)
    else:
        system, state = cantilever.setup(mesh, 1e-5, stabilize=True,
                                         linear_solver="gmres")
    for _ in range(STEPS):
        state = system.step(state)
    return sp.csr_matrix(system.condensed_matrix()), state


KEYS = tuple(f"{problem}_{family}" for problem in PROBLEMS
             for family in FAMILIES)


def write_golden(path: Path = GOLDEN, keys=()) -> None:
    """Recompute the named problem_family entries of the file at path and
    keep every other array as it is; no names recompute every entry."""
    unknown = sorted(set(keys) - set(KEYS))
    if unknown:
        raise ValueError(f"unknown golden entries {unknown}; "
                         f"choose from {list(KEYS)}")
    arrays = {}
    if keys:
        with np.load(path) as data:
            arrays = dict(data)
    for key in keys or KEYS:
        problem, family = key.split("_", 1)
        matrix, state = run_case(problem, family)
        arrays[f"{key}_data"] = matrix.data
        arrays[f"{key}_indices"] = matrix.indices
        arrays[f"{key}_indptr"] = matrix.indptr
        arrays[f"{key}_shape"] = np.array(matrix.shape)
        for field in ("u", "p", "pi"):
            arrays[f"{key}_{field}"] = getattr(state, field)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("problem", PROBLEMS)
def test_matches_golden(golden, problem, family):
    key = f"{problem}_{family}"
    matrix, state = run_case(problem, family)
    ref = sp.csr_matrix((golden[f"{key}_data"], golden[f"{key}_indices"],
                         golden[f"{key}_indptr"]),
                        shape=tuple(golden[f"{key}_shape"]))
    assert matrix.shape == ref.shape
    scale = abs(ref).max()
    assert abs(matrix - ref).max() <= MATRIX_TOL * scale
    for field in ("u", "p", "pi"):
        expected = golden[f"{key}_{field}"]
        got = getattr(state, field)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= \
            STATE_TOL * np.abs(expected).max(), field


def test_repin_one_entry_copies_the_others(tmp_path):
    path = tmp_path / "golden.npz"
    path.write_bytes(GOLDEN.read_bytes())
    write_golden(path, ["manufactured_cartesian"])
    with np.load(GOLDEN) as old, np.load(path) as new:
        assert sorted(old.files) == sorted(new.files)
        for name in old.files:
            if name.startswith("manufactured_cartesian_"):
                continue
            assert old[name].dtype == new[name].dtype, name
            assert old[name].shape == new[name].shape, name
            assert old[name].tobytes() == new[name].tobytes(), name
    with pytest.raises(ValueError, match="unknown golden entries"):
        write_golden(path, ["manufactured_square"])


if __name__ == "__main__":
    write_golden(keys=sys.argv[1:])
