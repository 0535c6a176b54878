import numpy as np
import pytest
from hypothesis import settings

from oscillet.grid import GridFunction, GridSpec
from oscillet.wavelet import _fold, build_basis

# Property tests draw the same examples on every run, keep no example
# database and have no per-example deadline; each test sets max_examples.
settings.register_profile("oscillet", derandomize=True, database=None, deadline=None)
settings.load_profile("oscillet")


@pytest.fixture(scope="session")
def spec1d():
    return GridSpec(n=1, J=8, j_min=0)


@pytest.fixture(scope="session")
def spec2d():
    return GridSpec(n=2, J=5, j_min=0)


@pytest.fixture(scope="session")
def meyer1d(spec1d):
    return build_basis("meyer", spec1d)


@pytest.fixture(scope="session")
def meyer2d(spec2d):
    return build_basis("meyer", spec2d)


@pytest.fixture(scope="session")
def daub1d(spec1d):
    return build_basis("daubechies", spec1d, m0=6)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def random_field1d(spec1d, rng):
    return GridFunction(spec1d, rng.standard_normal(spec1d.shape))


def band_limited(basis, rng):
    f = GridFunction(basis.spec, rng.standard_normal(basis.spec.shape))
    return basis.band_limit(f)


def full_grid_coefficients(basis, F, eps, j):
    """Level-j Meyer coefficients of type eps from spectra F (leading axes,
    then the grid shape): the full-grid product and reshape-sum fold, then
    np.fft.ifftn.  conj(W) is a named array, so numpy forms F * cW in the
    written order at every size (a temporary conj(W) of 2^18 bytes or more
    would take the product in place, as cW * F)."""
    n = basis.spec.n
    cW = np.conj(basis._tensor_window(eps, j))
    return 2.0 ** (n * j / 2.0) * np.fft.ifftn(_fold(F * cW, 2 ** j, n),
                                               axes=range(-n, 0))
