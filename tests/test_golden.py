"""Golden-equivalence pin of the condensed matrix and of short runs.

tests/data/golden.npz holds, for each mesh family at n = 6, the condensed
free-dof matrix and the state (u, p, pi) after five steps of two problems:
the manufactured solution with the direct solver, and the stabilized
cantilever with GMRES.  A refactor of the local operators, the assembly or
the preconditioner must reproduce them: the matrix to 1e-14 of its largest
entry, and each state field to 1e-13 of its largest entry.

The file is regenerated only when the discretization or a mesh is meant to
change:

    PYTHONPATH=src python tests/test_golden.py

Its two Voronoi entries (manufactured and cantilever) were regenerated, and
the other six copied unchanged, when the Voronoi generator began to reflect
only its boundary generators: the n = 6 mesh kept its cells and its vertices
moved by 9.2e-15.  CHANGES.md records the evidence (the new code on the old
mesh reproduces the old entries within MATRIX_TOL and STATE_TOL).
"""

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


def write_golden(path: Path = GOLDEN) -> None:
    arrays = {}
    for problem in PROBLEMS:
        for family in FAMILIES:
            matrix, state = run_case(problem, family)
            key = f"{problem}_{family}"
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


if __name__ == "__main__":
    write_golden()
