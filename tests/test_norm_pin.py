"""Pinned values of the quantities built on the cell quadrature.

The space-time error norms of five manufactured steps (dt = 0.05) on each
mesh family at n = 6, and the exact Mandel cell means on the midline of a
10 x 10 mesh after three steps, as the per-cell bincount reductions gave
them.  Any rewrite of the cell-integral path must reproduce them to PIN_REL.
"""

import numpy as np
import pytest

from poromech.mesh import build_cartesian
from poromech.problems import mandel, manufactured
from poromech.problems.norms import ErrorNorms
from poromech.problems.studies import FAMILIES, family_mesh

PIN_REL = 1e-13

# (e_p, e_u, e_s) after five steps
MMS_TOTALS = {
    "cartesian": (0.04645251715782528, 0.010756651861500356,
                  0.0450529024113336),
    "skewed": (0.0507442578117807, 0.014871785757065468, 0.1381269830890319),
    "hybrid": (0.04516569494967547, 0.011636251917952147,
               0.08985491637506941),
    "voronoi": (0.045318760454310915, 0.010658475960484859,
                0.0774785178604266),
}

# exact cell means along x on each of the two midline rows (y = 0.45 and
# y = 0.55), after three steps of 0.01 t_char
MANDEL_MEANS = [107.75837609539704, 107.71398384342675, 107.53034223386395,
                106.90739911977734, 105.11203084642868, 100.70812011214069,
                91.50846381529767, 75.1279125408085, 50.23265175961371,
                17.859977293837108]


@pytest.mark.parametrize("family", FAMILIES)
def test_mms_norm_totals_pinned(family):
    system, state = manufactured.setup(family_mesh(family, 6), 0.05)
    norms = ErrorNorms(system, manufactured.pressure,
                       manufactured.displacement)
    for _ in range(5):
        state = system.step(state)
        norms.accumulate(state)
    totals = norms.totals()
    got = [totals[name] for name in ("e_p", "e_u", "e_s")]
    assert got == pytest.approx(MMS_TOTALS[family], rel=PIN_REL, abs=0.0)


def test_mandel_exact_cell_means_pinned():
    mesh = build_cartesian(10, 10)
    system, solution, state = mandel.setup(mesh, dt=0.01 * 899928005.7595392)
    for _ in range(3):
        state = system.step(state)
    cells = mandel.profile_cells(mesh, 1.0)
    assert cells.tolist() == list(range(40, 60))
    got = mandel.exact_cell_means(solution, system, cells, state.time)
    assert got == pytest.approx(np.tile(MANDEL_MEANS, 2), rel=PIN_REL,
                                abs=0.0)
