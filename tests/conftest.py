import pytest
from hypothesis import settings

from cfstcol import CircularSection, ColumnSpec, ConcreteMaterial, SteelMaterial

# the profile of ``tools/ci_checks.py statements``: without an example database, a fixed
# seed runs the same examples whatever the checkout's .hypothesis/ holds, and writes none
settings.register_profile("gate", database=None)


def build_column(D, t, L, fy, fc, fu=None, Es=None, dmax=None, Ec=None) -> ColumnSpec:
    return ColumnSpec(
        CircularSection(D, t, L),
        SteelMaterial(fy, fu, Es),
        ConcreteMaterial(fc, dmax, Ec),
    )


@pytest.fixture
def r1() -> ColumnSpec:
    """Reference column used throughout: D=100, t=5, L=300, fy=300, fu=450, fc=30."""
    return build_column(100.0, 5.0, 300.0, 300.0, 30.0, fu=450.0, Es=200_000.0)


@pytest.fixture
def make_column():
    return build_column
