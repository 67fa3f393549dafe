import pytest

from biphoton.dispersion import DispersionModel, k_of_omega
from biphoton.spectral import wavelength_to_omega

W0 = float(wavelength_to_omega(1550e-9))


def test_k_of_omega_matches_direct_polynomial():
    m = DispersionModel(reference_omega=W0, beta2=-2e-24, beta3=1e-39)
    for d in (-3e12, 0.0, 1e11, 2.5e12):
        w = W0 + d
        expected = m.beta2 * d**2 / 2 + m.beta3 * d**3 / 6
        assert k_of_omega(m, w) == pytest.approx(expected, rel=1e-14)
