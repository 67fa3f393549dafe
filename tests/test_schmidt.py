import numpy as np
import pytest

from biphoton.errors import GridMismatchError, InvalidArgumentError
from biphoton.schmidt import (
    jsa_overlap,
    overlap_from_visibility,
    purity,
    schmidt_decompose,
    visibility_from_overlap,
)
from biphoton.sources import JointSpectralAmplitude, apply_filter
from biphoton.spectral import FilterSpec, make_grid

from oracles import purity_quadruple_sum

CENTER = 1550.12e-9


def jsa_from_values(values, span=1e-9, center=CENTER):
    n = values.shape[0]
    grid = make_grid(center, span, n)
    norm = np.sqrt(np.sum(np.abs(values) ** 2) * grid.step**2)
    return JointSpectralAmplitude(grid, values / norm, norm_applied=True)


def gaussian_jsa(n=41, correlation=0.0):
    """Two-dimensional Gaussian with adjustable frequency correlation."""
    grid = make_grid(CENTER, 1e-9, n)
    w = grid.points()
    w0 = 0.5 * (grid.omega_min + grid.omega_max)
    x = (w[:, None] - w0) / (grid.step * n / 8)
    y = (w[None, :] - w0) / (grid.step * n / 8)
    values = np.exp(-(x**2 + y**2) / 2 - correlation * x * y).astype(complex)
    return jsa_from_values(values)


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


def test_schmidt_modes_orthonormal_and_reconstruct():
    out = gaussian_jsa(n=31, correlation=0.6)
    spectrum = schmidt_decompose(out)
    ds = out.grid.step
    r = spectrum.coefficients
    assert np.sum(r) == pytest.approx(1.0, abs=1e-10)
    gram = spectrum.signal_modes @ spectrum.signal_modes.conj().T * ds
    np.testing.assert_allclose(gram, np.eye(len(r)), atol=1e-8)
    rebuilt = sum(
        np.sqrt(r[k]) * np.outer(spectrum.signal_modes[k], spectrum.idler_modes[k])
        for k in range(len(r))
    )
    assert np.max(np.abs(rebuilt - out.values)) < 1e-8


def test_schmidt_significant_truncation():
    spectrum = schmidt_decompose(gaussian_jsa(n=31, correlation=0.6))
    kept = spectrum.significant(1e-6)
    assert kept.size <= spectrum.coefficients.size
    assert np.all(kept >= 1e-6 * spectrum.coefficients[0])


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
    b = JointSpectralAmplitude(grid, b_vals / norm, norm_applied=True)
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
    out2 = JointSpectralAmplitude(out1.grid, values2 / norm, norm_applied=True)
    narrow = FilterSpec(CENTER, 0.35e-9)
    assert jsa_overlap(out1, out2).magnitude < 1.0
    res = jsa_overlap(apply_filter(out1, narrow), apply_filter(out2, narrow))
    assert res.magnitude == pytest.approx(1.0, abs=1e-12)


def test_visibility_overlap_relations_invert():
    for n in (0.0, 0.3, 0.6667, 0.9763, 1.0):
        v = visibility_from_overlap(n)
        assert overlap_from_visibility(v) == pytest.approx(n, abs=1e-12)
    with pytest.raises(InvalidArgumentError):
        visibility_from_overlap(1.5)
    with pytest.raises(InvalidArgumentError):
        overlap_from_visibility(-0.1)
