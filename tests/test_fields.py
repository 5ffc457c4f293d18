"""The argument checks of the field type and its constructors."""

import numpy as np
import pytest

from fhnlse import Field, Grid, align, gaussian, plane_wave
from fhnlse.fields import _unit_mass, band_limited_noise

GRID = Grid(d=2, n=8, L=4.0)


def test_field_rejects_a_shape_other_than_its_grids():
    with pytest.raises(ValueError, match=r"field shape \(8, 4\) does not match grid shape \(8, 8\)"):
        Field(GRID, np.zeros((8, 4)))


def test_fields_on_two_grids_cannot_be_aligned():
    other = Grid(d=2, n=8, L=5.0)
    with pytest.raises(ValueError, match="fields live on different grids"):
        align(gaussian(GRID), gaussian(other), 0.6)


def test_gaussian_rejects_a_zero_width():
    with pytest.raises(
        ValueError, match=r"width must be a positive finite real number \(got 0\)"
    ):
        gaussian(GRID, width=0)


def test_plane_wave_rejects_a_mode_of_the_wrong_length():
    with pytest.raises(ValueError, match="mode must have one integer per axis"):
        plane_wave(GRID, (1, 0, 0))


@pytest.mark.parametrize("keep_fraction", [0.0, 1.5])
def test_noise_rejects_a_band_outside_the_unit_interval(keep_fraction):
    with pytest.raises(ValueError, match=rf"keep_fraction must lie in \(0, 1\] \(got {keep_fraction}\)"):
        band_limited_noise(GRID, [1], keep_fraction)


def test_unit_mass_rejects_an_all_zero_stack():
    with pytest.raises(ValueError, match="degenerate random field"):
        _unit_mass(np.zeros((2, *GRID.shape)), GRID.cell_volume)
