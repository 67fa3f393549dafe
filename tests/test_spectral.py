import numpy as np
import pytest

from biphoton.errors import InvalidArgumentError
from biphoton.spectral import (
    C_VACUUM,
    FilterSpec,
    FrequencyGrid,
    PumpLine,
    make_grid,
    omega_to_wavelength,
    pump_amplitude,
    sample_filter,
    wavelength_to_omega,
)


def test_wavelength_omega_round_trip():
    lam = np.array([1.3e-6, 1550.12e-9, 2.0e-6])
    np.testing.assert_allclose(omega_to_wavelength(wavelength_to_omega(lam)), lam, rtol=1e-15)


def test_conversion_reference_value():
    # 1550 nm corresponds to ~193.4 THz
    freq = wavelength_to_omega(1550e-9) / (2 * np.pi)
    assert abs(freq - C_VACUUM / 1550e-9) < 1e-3


def test_grid_points_are_exact():
    grid = FrequencyGrid(omega_min=1.0, omega_max=2.0, n_points=11)
    pts = grid.points()
    assert pts[0] == grid.omega_min
    assert pts[-1] == pytest.approx(grid.omega_max, abs=1e-15)
    assert grid.step == pytest.approx(0.1)


def test_grid_same_axis():
    g1 = FrequencyGrid(1.0, 2.0, 11)
    g2 = FrequencyGrid(1.0, 2.0, 11)
    g3 = FrequencyGrid(1.0, 2.0, 12)
    assert g1 == g2 and g1 != g3


def test_grid_validation():
    with pytest.raises(InvalidArgumentError):
        FrequencyGrid(1.0, 2.0, 1)
    with pytest.raises(InvalidArgumentError):
        FrequencyGrid(2.0, 1.0, 11)


def test_make_grid_symmetric_in_wavelength():
    grid = make_grid(1550e-9, 2e-9, 101)
    lam = grid.wavelengths()
    assert lam[0] == pytest.approx(1551e-9, rel=1e-12)
    assert lam[-1] == pytest.approx(1549e-9, rel=1e-12)
    with pytest.raises(InvalidArgumentError):
        make_grid(1550e-9, -1e-9, 101)


@pytest.mark.parametrize("shape", ["gaussian", "lorentzian"])
def test_pump_amplitude_continuum_norm(shape):
    # fine trapezoid over a wide window should integrate |a|^2 to ~1
    fwhm = 2 * np.pi * 10e9
    line = PumpLine(center_wavelength=1550e-9, linewidth_fwhm=fwhm, shape=shape)
    w = line.center_omega + np.linspace(-1000, 1000, 4_000_001) * fwhm
    prof2 = np.abs(pump_amplitude(line, w)) ** 2
    integral = np.trapezoid(prof2, w)
    tol = 1e-6 if shape == "gaussian" else 1e-3  # Lorentzian tails decay slowly
    assert integral == pytest.approx(1.0, rel=tol)


@pytest.mark.parametrize("shape", ["gaussian", "lorentzian"])
def test_pump_amplitude_fwhm(shape):
    fwhm = 2 * np.pi * 10e9
    line = PumpLine(center_wavelength=1550e-9, linewidth_fwhm=fwhm, shape=shape)
    # linewidth is the FWHM of the amplitude profile for both shapes
    peak = abs(pump_amplitude(line, line.center_omega))
    edge = abs(pump_amplitude(line, line.center_omega + fwhm / 2))
    # (w0 + fwhm/2) - w0 is not exactly fwhm/2 at optical carrier magnitudes
    assert edge / peak == pytest.approx(0.5, rel=1e-9)


def test_pump_line_validation():
    with pytest.raises(InvalidArgumentError):
        PumpLine(1550e-9, -1.0)
    with pytest.raises(InvalidArgumentError):
        PumpLine(1550e-9, 1.0, shape="square")


def test_rect_filter_masks_band():
    grid = make_grid(1550e-9, 2e-9, 201)
    spec = FilterSpec(center_wavelength=1550e-9, bandwidth=0.8e-9)
    mask = sample_filter(spec, grid)
    assert set(np.unique(mask)) <= {0.0, 1.0}
    lam = grid.wavelengths()
    inside = np.abs(lam - 1550e-9) < 0.39e-9
    assert np.all(mask[inside] == 1.0)
    outside = np.abs(lam - 1550e-9) > 0.41e-9
    assert np.all(mask[outside] == 0.0)


def test_rect_filter_off_grid_is_zero():
    grid = make_grid(1550e-9, 2e-9, 201)
    spec = FilterSpec(center_wavelength=1600e-9, bandwidth=0.8e-9)
    assert np.all(sample_filter(spec, grid) == 0.0)


def test_raised_cosine_zero_rolloff_matches_rectangle():
    grid = make_grid(1550e-9, 2e-9, 201)
    rect = FilterSpec(1550e-9, 0.8e-9, profile="rectangle")
    rc = FilterSpec(1550e-9, 0.8e-9, profile="raised_cosine", rolloff=0.0)
    np.testing.assert_array_equal(sample_filter(rect, grid), sample_filter(rc, grid))


def test_raised_cosine_taper_bounded():
    grid = make_grid(1550e-9, 2e-9, 801)
    rc = FilterSpec(1550e-9, 0.8e-9, profile="raised_cosine", rolloff=0.3)
    vals = sample_filter(rc, grid)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert vals.max() == 1.0
    # taper introduces intermediate transmissions
    assert np.any((vals > 0.0) & (vals < 1.0))


def test_filter_validation():
    with pytest.raises(InvalidArgumentError):
        FilterSpec(1550e-9, -1e-9)
    with pytest.raises(InvalidArgumentError):
        FilterSpec(1550e-9, 1e-9, profile="brick")
    with pytest.raises(InvalidArgumentError):
        FilterSpec(1550e-9, 1e-9, profile="raised_cosine", rolloff=2.0)
