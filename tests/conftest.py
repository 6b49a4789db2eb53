import pytest

from metastrain import (
    assemble_np_adjoint,
    assemble_single_layer,
    decompose,
    eigendecompose,
    make_disk_cell,
    make_ellipse_cell,
)
from metastrain.dispersion import MaterialParams


@pytest.fixture(scope="session")
def disk256():
    return make_disk_cell(0.45, 1.0, 256)


@pytest.fixture(scope="session")
def disk256_ops(disk256):
    return assemble_single_layer(disk256), assemble_np_adjoint(disk256)


@pytest.fixture(scope="session")
def disk256_dec(disk256_ops):
    return eigendecompose(*disk256_ops)


@pytest.fixture(scope="session")
def disk128_dec():
    return decompose(make_disk_cell(0.45, 1.0, 128))


@pytest.fixture(scope="session")
def disk_free_dec():
    """Disk in a very wide cell, numerically the free-space operator."""
    return decompose(make_disk_cell(0.45, 1000.0, 128))


@pytest.fixture(scope="session")
def ellipse128():
    return make_ellipse_cell(0.35, 0.22, 1.0, 128)


@pytest.fixture(scope="session")
def ellipse128_dec(ellipse128):
    return decompose(ellipse128)


@pytest.fixture(scope="session")
def water_gold():
    return MaterialParams.from_relative(
        eps_m_rel=1.77**2, omega_p=2.0e15, collision_time=1.0e-14,
        plasma_frequency_is_angular=True,
    )


@pytest.fixture
def cold_caches():
    """Empties every cache kept per curve or per node count, as in a fresh process."""
    from metastrain import geometry, layer_ops, spectral

    def clear():
        geometry._node_data.cache_clear()
        layer_ops._reversed_row_twice.cache_clear()
        layer_ops._CERTIFICATES.clear()
        spectral._Sector._orbits.cache_clear()

    clear()
    return clear
