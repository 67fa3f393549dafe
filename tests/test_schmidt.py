import math

import numpy as np
import pytest

from biphoton import schmidt
from biphoton.errors import GridMismatchError, InvalidArgumentError
from biphoton.schmidt import (
    jsa_overlap,
    overlap_from_visibility,
    purity,
    schmidt_decompose,
    visibility_from_overlap,
)
from biphoton.sources import JointSpectralAmplitude
from biphoton.spectral import FilterSpec, make_grid

import whole_grid
from oracles import purity_quadruple_sum

CENTER = 1550.12e-9


def jsa_from_values(values, span=1e-9, center=CENTER):
    n = values.shape[0]
    grid = make_grid(center, span, n)
    norm = np.sqrt(np.sum(np.abs(values) ** 2) * grid.step**2)
    return JointSpectralAmplitude(grid, values / norm)


def gaussian_jsa(n=41, correlation=0.0):
    """Two-dimensional Gaussian with adjustable frequency correlation."""
    grid = make_grid(CENTER, 1e-9, n)
    w = grid.points()
    w0 = 0.5 * (grid.omega_min + grid.omega_max)
    x = (w[:, None] - w0) / (grid.step * n / 8)
    y = (w[None, :] - w0) / (grid.step * n / 8)
    values = np.exp(-(x**2 + y**2) / 2 - correlation * x * y).astype(complex)
    return jsa_from_values(values)


def continuum_gaussian(correlation, shift=0.0, phase=0.0, n=81, half=12.0):
    """Normalized exp(i phase - (x^2 + y^2) / 2 - c x y), x and y at n points of [-half, half] minus shift.

    On +-12 the window moves the purity by less than 1e-13 from its continuum value.
    """
    grid = make_grid(CENTER, 1e-9, n)
    x = np.linspace(-half, half, n) - shift
    values = np.exp(1j * phase - (x[:, None] ** 2 + x[None, :] ** 2) / 2 - correlation * np.outer(x, x))
    norm = np.sqrt(np.sum(np.abs(values) ** 2) * grid.step**2)
    return JointSpectralAmplitude(grid, values / norm)


@pytest.mark.parametrize("correlation", [0.3, 0.6, 0.8])
def test_correlated_gaussian_matches_its_continuum_spectrum(correlation):
    jsa = continuum_gaussian(correlation)
    exact = math.sqrt(1.0 - correlation**2)
    assert purity(jsa) == pytest.approx(exact, abs=1e-10)
    spectrum = schmidt_decompose(jsa)
    assert spectrum.purity == pytest.approx(exact, abs=1e-10)
    # Mehler's formula: geometric coefficients (1 - mu^2) mu^(2n)
    a, b = math.sqrt(1.0 + correlation), math.sqrt(1.0 - correlation)
    mu = (a - b) / (a + b)
    mehler = (1.0 - mu**2) * mu ** (2 * np.arange(6))
    assert np.max(np.abs(spectrum.coefficients[:6] - mehler)) <= 1e-10


@pytest.mark.parametrize("correlation", [0.3, 0.6, 0.8])
def test_shifted_gaussian_overlap_matches_its_continuum_value(correlation):
    # F(v) against e^(i phi) F(v - (d, d)): exp(-(1 + c) d^2 / 2) at phase -phi
    d, phi = 1.0, 0.7
    res = jsa_overlap(continuum_gaussian(correlation), continuum_gaussian(correlation, d, phi))
    assert res.magnitude == pytest.approx(math.exp(-(1.0 + correlation) * d * d / 2), abs=1e-10)
    assert res.phase == pytest.approx(-phi, abs=1e-10)


def test_narrow_window_biases_purity_at_every_resolution():
    # gaussian_jsa samples x in [-4, 4]: at c = 0.8 its purity sits about 1.4e-3
    # above the continuum 0.6, and refining the grid does not remove that
    bias = [purity(gaussian_jsa(n, 0.8)) - 0.6 for n in (41, 81, 161)]
    assert bias == pytest.approx([1.4e-3] * 3, rel=0.05)
    assert bias[0] < bias[1] < bias[2]


def test_separable_jsa_has_unit_purity():
    assert purity(gaussian_jsa(correlation=0.0)) == pytest.approx(1.0, abs=1e-12)


def test_correlated_jsa_has_reduced_purity():
    p = purity(gaussian_jsa(correlation=0.8))
    assert p < 0.99
    assert p > 0.0


def test_purity_matches_quadruple_sum_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        values = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        out = jsa_from_values(values)
        expected = purity_quadruple_sum(out.values, out.grid.step, out.grid.step)
        assert purity(out) == pytest.approx(expected, abs=1e-10)


def test_purity_requires_normalized_jsa():
    grid = make_grid(CENTER, 1e-9, 11)
    raw = JointSpectralAmplitude(grid, np.ones((11, 11), dtype=complex))
    with pytest.raises(InvalidArgumentError):
        purity(raw)


@pytest.mark.parametrize("excess, fails", [(5e-7, False), (2e-6, True)])
def test_every_consumer_checks_the_norm_within_1e_6(excess, fails):
    # the one check on a JSA's values: each of schmidt's functions runs it
    unit = jsa_from_values(np.ones((11, 11), dtype=complex))
    off = JointSpectralAmplitude(unit.grid, unit.values * np.sqrt(1.0 + excess))
    consumers = (purity, schmidt_decompose, lambda jsa: jsa_overlap(jsa, jsa))
    for consume in consumers:
        if fails:
            with pytest.raises(InvalidArgumentError, match="^JSA norm\\^2 deviates from 1 by 2.000e-06$"):
                consume(off)
        else:
            consume(off)


def test_schmidt_coefficients_give_purity():
    out = gaussian_jsa(n=31, correlation=0.6)
    spectrum = schmidt_decompose(out)
    r = spectrum.coefficients
    assert np.sum(r**2) == spectrum.purity
    # purity() is Tr rho^2 from the Gram matrix, no SVD: equal to rounding
    assert purity(out) == pytest.approx(spectrum.purity, rel=1e-13, abs=0.0)
    expected = purity_quadruple_sum(out.values, out.grid.step, out.grid.step)
    assert purity(out) == pytest.approx(expected, abs=1e-10)


# shape is the block holding the non-zero values; the case id is the one this
# zero-column JSA kept from the earlier tiled Gram-matrix loop
@pytest.mark.parametrize("shape", [pytest.param((41, 40), id="5904-shape3")])
def test_purity_gram_tiles_agree_with_svd(shape):
    values = gaussian_jsa(correlation=0.8).values.copy()
    values[:, shape[1] :] = 0.0
    jsa = jsa_from_values(values)
    expected = schmidt_decompose(jsa).purity
    assert purity(jsa) == pytest.approx(expected, rel=1e-13)
    assert purity(jsa) == pytest.approx(purity_quadruple_sum(jsa.values, jsa.grid.step, jsa.grid.step), abs=1e-10)


def test_schmidt_significant_truncation():
    spectrum = schmidt_decompose(gaussian_jsa(n=31, correlation=0.6))
    assert np.sum(spectrum.coefficients) == pytest.approx(1.0, abs=1e-10)
    kept = spectrum.significant()
    assert kept.size <= spectrum.coefficients.size
    assert np.all(kept >= schmidt.TAIL_REL_TOL * spectrum.coefficients[0])
    assert np.all(spectrum.coefficients[kept.size :] < schmidt.TAIL_REL_TOL * spectrum.coefficients[0])


def test_self_overlap_is_unity():
    out = gaussian_jsa(correlation=0.3)
    res = jsa_overlap(out, out)
    assert res.magnitude == pytest.approx(1.0, abs=1e-12)
    assert res.phase == pytest.approx(0.0, abs=1e-12)


def test_overlap_conjugate_symmetry():
    rng = np.random.default_rng(3)
    a = jsa_from_values(rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15)))
    b = jsa_from_values(rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15)))
    fwd = jsa_overlap(a, b)
    rev = jsa_overlap(b, a)
    assert fwd.magnitude == pytest.approx(rev.magnitude, abs=1e-12)
    assert fwd.phase == pytest.approx(-rev.phase, abs=1e-12)


def test_overlap_requires_matching_grids():
    a = gaussian_jsa(n=21)
    b_vals = np.ones((21, 21), dtype=complex)
    grid = make_grid(CENTER, 2e-9, 21)
    norm = np.sqrt(np.sum(np.abs(b_vals) ** 2) * grid.step**2)
    b = JointSpectralAmplitude(grid, b_vals / norm)
    with pytest.raises(GridMismatchError):
        jsa_overlap(a, b)


def test_filtered_overlap_renormalizes():
    # two different sources that agree inside the filter band overlap at 1
    out1 = gaussian_jsa(n=81, correlation=0.0)
    values2 = out1.values.copy()
    lam = out1.grid.wavelengths()
    outside = np.abs(lam - CENTER) > 0.2e-9
    values2[outside, :] *= 0.1  # differ only outside the band
    norm = np.sqrt(np.sum(np.abs(values2) ** 2) * out1.measure)
    out2 = JointSpectralAmplitude(out1.grid, values2 / norm)
    narrow = FilterSpec(CENTER, 0.35e-9)
    assert jsa_overlap(out1, out2).magnitude < 1.0
    res = jsa_overlap(*(whole_grid.filtered(out.grid, out.values, narrow)[0] for out in (out1, out2)))
    assert res.magnitude == pytest.approx(1.0, abs=1e-12)


def test_visibility_overlap_relations_invert():
    for n in (0.0, 0.3, 0.6667, 0.9763, 1.0):
        v = visibility_from_overlap(n)
        assert overlap_from_visibility(v) == pytest.approx(n, abs=1e-12)
    with pytest.raises(InvalidArgumentError):
        visibility_from_overlap(1.5)
    with pytest.raises(InvalidArgumentError):
        overlap_from_visibility(-0.1)


def test_schmidt_tail_is_the_dropped_weight():
    # as sum(c) - sum(kept) the 1e-17 is lost to rounding next to 1
    spectrum = schmidt.SchmidtSpectrum(np.array([0.7, 0.3, 1e-17, 2e-18]))
    assert spectrum.tail == 1e-17 + 2e-18
    assert schmidt.SchmidtSpectrum(np.array([])).tail == 0.0


def test_schmidt_tail_of_a_real_spectrum_matches_fsum():
    values = gaussian_jsa(n=61, correlation=0.4)
    c = schmidt_decompose(values).coefficients
    dropped = c[c < schmidt.TAIL_REL_TOL * c[0]]
    assert dropped.size > 0
    assert schmidt_decompose(values).tail == pytest.approx(math.fsum(dropped), rel=1e-12, abs=0.0)
