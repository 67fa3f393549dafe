import numpy as np
import pytest

from biphoton.errors import CoverageError, InvalidArgumentError
from biphoton.fringes import (
    accidental_fraction,
    classical_transmission,
    corrected_visibility,
    extract_visibility,
    fringe_scan,
    reverse_hom_coincidence,
    two_mzi_coincidences,
)
from biphoton.schmidt import visibility_from_overlap

from oracles import reverse_hom_circuit, symmetrized_jsa, two_mzi_circuit


def test_coincidence_fringe_period_is_pi():
    phi = np.linspace(0, 2 * np.pi, 57)
    p = reverse_hom_coincidence(0.8, 0.3, phi)
    p_shift = reverse_hom_coincidence(0.8, 0.3, phi + np.pi)
    np.testing.assert_allclose(p, p_shift, atol=1e-12)


def test_classical_fringe_period_is_two_pi():
    phi = np.linspace(0, 2 * np.pi, 57)
    t0, t1 = classical_transmission(phi)
    s0, s1 = classical_transmission(phi + 2 * np.pi)
    np.testing.assert_allclose(t0, s0, atol=1e-12)
    # and explicitly NOT pi-periodic
    u0, _ = classical_transmission(phi + np.pi)
    assert np.max(np.abs(t0 - u0)) > 0.5


def test_classical_transmissions_sum_to_one():
    phi = np.linspace(-5, 5, 41)
    t0, t1 = classical_transmission(phi, offset=0.7)
    np.testing.assert_allclose(t0 + t1, 1.0, atol=1e-12)


def test_cross_channel_symmetries():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n, d = rng.uniform(0, 1), rng.uniform(-np.pi, np.pi)
        phi1, phi2 = rng.uniform(0, 2 * np.pi, 2)
        p = two_mzi_coincidences(n, d, phi1, phi2)
        assert p["p13"] == p["p24"]
        assert p["p14"] == p["p23"]
        assert all(v >= 0 for v in p.values())


def test_raw_two_mzi_scale():
    p = two_mzi_coincidences(0.0, 0.0, 0.3, 1.1)
    for v in p.values():
        assert v == pytest.approx(1 / 8, abs=1e-15)


def test_normalized_fringe_maximum_is_one():
    phi = np.linspace(0, 2 * np.pi, 721)
    scan = fringe_scan(0.65, 0.4, phi, normalized=True)
    assert scan.probabilities.max() == pytest.approx(1.0, abs=1e-6)


def test_extract_visibility_matches_overlap_relation():
    delta = 0.25
    phi = np.linspace(0, 2 * np.pi, 1441) - delta / 2  # extrema land on the grid
    for n in (0.1, 0.6667, 0.9763, 1.0):
        scan = fringe_scan(n, delta, phi)
        assert extract_visibility(scan) == pytest.approx(
            visibility_from_overlap(n), abs=1e-9
        )


def test_extract_visibility_requires_full_period():
    phi = np.linspace(0, 2.0, 41)  # < pi span
    scan = fringe_scan(0.5, 0.0, phi)
    with pytest.raises(CoverageError):
        extract_visibility(scan)


def test_overlap_validation():
    with pytest.raises(InvalidArgumentError):
        reverse_hom_coincidence(1.5, 0.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        two_mzi_coincidences(-0.1, 0.0, 0.0, 0.0)


def test_accidental_fraction_values():
    assert accidental_fraction(74) == pytest.approx(1 / 75, abs=1e-15)
    assert accidental_fraction(557) == pytest.approx(1 / 558, abs=1e-15)
    for car in (-2.0, 0.0, float("nan")):
        with pytest.raises(InvalidArgumentError):
            accidental_fraction(car)


def test_corrected_visibility_caps_at_one():
    assert corrected_visibility(0.999, 100) <= 1.0
    assert corrected_visibility(0.94, 74) == pytest.approx(0.94 * 75 / 74, abs=1e-12)
    with pytest.raises(InvalidArgumentError):
        corrected_visibility(1.2, 100)


def test_reverse_hom_matches_circuit_oracle():
    rng = np.random.default_rng(17)
    for _ in range(5):
        f1, f2 = symmetrized_jsa(rng, 3), symmetrized_jsa(rng, 3)
        inner = np.sum(f1 * np.conj(f2))
        n, d = abs(inner), float(np.angle(inner))
        for phi in rng.uniform(0, 2 * np.pi, 4):
            brute = reverse_hom_circuit(f1, f2, phi)
            closed = reverse_hom_coincidence(n, d, phi)
            assert brute == pytest.approx(float(closed), abs=1e-12)


def test_two_mzi_matches_circuit_oracle():
    rng = np.random.default_rng(23)
    for _ in range(5):
        f1, f2 = symmetrized_jsa(rng, 3), symmetrized_jsa(rng, 3)
        inner = np.sum(f1 * np.conj(f2))
        n, d = abs(inner), float(np.angle(inner))
        for _ in range(3):
            phi1, phi2 = rng.uniform(0, 2 * np.pi, 2)
            brute = two_mzi_circuit(f1, f2, phi1, phi2)
            closed = two_mzi_coincidences(n, d, phi1, phi2)
            for key, value in closed.items():
                assert brute[key] == pytest.approx(float(value), abs=1e-12)
