"""Shared fixtures: small meshes built once per session."""

import pytest

from poromech.mesh import build_cartesian
from poromech.problems.studies import FAMILIES, family_mesh


@pytest.fixture(scope="session")
def family_meshes_level0():
    """One level-0 (10x10-sized) mesh per family, built once."""
    return {family: family_mesh(family, 10) for family in FAMILIES}


@pytest.fixture(scope="session")
def cart3():
    return build_cartesian(3, 3)


@pytest.fixture(scope="session")
def cart10():
    return build_cartesian(10, 10)
