import numpy as np
import pytest

from qfpsim.errors import InvalidArgumentError
from qfpsim.lattice import FrequencyLattice, make_lattice


def test_make_lattice_window_and_size():
    lat = make_lattice(193.7e12, 25e9, 10)
    assert lat.l_min == -10 and lat.l_max == 10
    assert lat.size == 21
    assert np.array_equal(lat.bins, np.arange(-10, 11))


def test_index_of_and_contains():
    lat = make_lattice(193.7e12, 25e9, 5)
    assert lat.index_of(-5) == 0
    assert lat.index_of(0) == 5
    assert lat.index_of(5) == 10
    with pytest.raises(InvalidArgumentError):
        lat.index_of(6)


def test_invalid_lattices_rejected():
    with pytest.raises(InvalidArgumentError):
        FrequencyLattice(193.7e12, -1.0, -5, 5)
    with pytest.raises(InvalidArgumentError):
        FrequencyLattice(193.7e12, 25e9, 3, 3)
