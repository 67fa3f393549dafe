"""Closed-form coincidence fringes for the one- and two-MZI circuits.

Everything here consumes only the overlap magnitude N and phase delta of
the two sources' joint spectra; the full state evolution is collapsed to
closed forms. Coincidence fringes have period pi in the scanned phase;
classical (single-beam) transmissions have period 2*pi.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, InvalidArgumentError


@dataclass(frozen=True)
class FringeScan:
    """A deterministic single-MZI (p12) coincidence-probability scan over phase values."""

    phase_values: np.ndarray
    probabilities: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        if self.phase_values.shape != self.probabilities.shape:
            raise InvalidArgumentError("phase and probability arrays must match in shape")


def _check_overlap(n_overlap: float):
    if not 0.0 <= n_overlap <= 1.0:
        raise InvalidArgumentError(f"overlap must be in [0, 1], got {n_overlap}")


def reverse_hom_coincidence(n_overlap: float, delta: float, phi, normalized: bool = False):
    """Coincidence probability of the single-MZI circuit.

    Raw form (1 + N cos(2*phi + delta)) / 2; the normalized variant divides
    by (1 + N) so its maximum is exactly 1.
    """
    _check_overlap(n_overlap)
    phi = np.asarray(phi, dtype=float)
    raw = 1.0 + n_overlap * np.cos(2.0 * phi + delta)
    return raw / (1.0 + n_overlap) if normalized else raw / 2.0


def two_mzi_coincidences(n_overlap: float, delta: float, phi1, phi2, normalized: bool = False):
    """All six pairwise coincidence probabilities of the two-MZI circuit.

    Returns a dict keyed by channel pair. Raw values carry the 1/8 scale;
    normalized values are rescaled so each pair's fringe maximum is 1.
    p13 == p24 and p14 == p23 identically.
    """
    _check_overlap(n_overlap)
    phi1 = np.asarray(phi1, dtype=float)
    phi2 = np.asarray(phi2, dtype=float)
    cross = n_overlap * np.cos(2.0 * phi1 - phi2 + delta)
    p13 = 1.0 + cross
    p14 = 1.0 - cross
    p12 = 1.0 + n_overlap * np.cos(2.0 * phi1 + delta)
    p34 = 1.0 + n_overlap * np.cos(2.0 * (phi1 - phi2) + delta)
    scale = 1.0 / (1.0 + n_overlap) if normalized else 1.0 / 8.0
    return {
        "p12": p12 * scale,
        "p13": p13 * scale,
        "p14": p14 * scale,
        "p23": p14 * scale,
        "p24": p13 * scale,
        "p34": p34 * scale,
    }


def classical_transmission(phi, offset: float = 0.0):
    """Single-beam transmissions of the two MZI outputs.

    Returns (cos^2((phi - offset)/2), sin^2((phi - offset)/2)). Use
    offset = pi/2 for the circuit whose transmissions are phase-offset.
    """
    x = (np.asarray(phi, dtype=float) - offset) / 2.0
    return np.cos(x) ** 2, np.sin(x) ** 2


def fringe_scan(
    n_overlap: float, delta: float, phases: np.ndarray, normalized: bool = False
) -> FringeScan:
    """Scan the single-MZI coincidence fringe (p12) over an array of phases."""
    phases = np.asarray(phases, dtype=float)
    probs = reverse_hom_coincidence(n_overlap, delta, phases, normalized=normalized)
    return FringeScan(
        phase_values=phases,
        probabilities=np.asarray(probs, dtype=float),
        normalized=normalized,
    )


def extract_visibility(scan: FringeScan) -> float:
    """(max - min) / max over a scan covering at least one fringe period (pi)."""
    span = float(scan.phase_values.max() - scan.phase_values.min())
    if span < np.pi:
        raise CoverageError(
            f"scan spans {span:.4f} rad but a full fringe period (pi) is required"
        )
    p_max = float(scan.probabilities.max())
    p_min = float(scan.probabilities.min())
    if p_max <= 0.0:
        return 0.0
    return (p_max - p_min) / p_max


def accidental_fraction(car: float) -> float:
    """Accidental-coincidence fraction 1/(CAR + 1)."""
    if car <= 0:
        raise InvalidArgumentError(f"CAR must be positive, got {car}")
    return 1.0 / (car + 1.0)


def corrected_visibility(visibility: float, car: float) -> float:
    """Visibility with the accidental-count background removed, capped at 1."""
    if not 0.0 <= visibility <= 1.0:
        raise InvalidArgumentError(f"visibility must be in [0, 1], got {visibility}")
    a = accidental_fraction(car)
    return min(1.0, visibility / (1.0 - a))
