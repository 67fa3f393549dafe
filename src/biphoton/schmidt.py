"""Schmidt decomposition, spectral purity, and pairwise JSA overlap."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvalidArgumentError
from .sources import JointSpectralAmplitude

NORM_TOL = 1e-6
TAIL_REL_TOL = 1e-12


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Nonincreasing coefficients r (summing to 1) plus discrete mode functions.

    ``signal_modes[k]`` / ``idler_modes[k]`` are unit-L2 functions on their
    grids (they carry the 1/sqrt(step) measure scaling).
    """

    coefficients: np.ndarray
    signal_modes: np.ndarray  # shape (n_modes, n_s)
    idler_modes: np.ndarray  # shape (n_modes, n_i)

    def significant(self, rel_tol: float = TAIL_REL_TOL) -> np.ndarray:
        """Coefficients above rel_tol of the leading one (for reporting)."""
        if self.coefficients.size == 0:
            return self.coefficients
        return self.coefficients[self.coefficients >= rel_tol * self.coefficients[0]]


@dataclass(frozen=True)
class OverlapResult:
    """Magnitude and phase of the filtered inner product of two JSAs."""

    magnitude: float
    phase: float


def schmidt_decompose(jsa: JointSpectralAmplitude) -> SchmidtSpectrum:
    """SVD of the measure-weighted JSA matrix.

    r are the squared singular values of F * sqrt(ds * di), sorted
    nonincreasing (LAPACK order; ties keep their index order, so the
    result is deterministic).
    """
    _require_normalized(jsa)
    ds, di = jsa.grid_s.step, jsa.grid_i.step
    u, s, vh = np.linalg.svd(jsa.values * np.sqrt(ds * di), full_matrices=False)
    return SchmidtSpectrum(
        coefficients=s**2,
        signal_modes=u.T / np.sqrt(ds),
        idler_modes=vh / np.sqrt(di),
    )


def purity(jsa: JointSpectralAmplitude) -> float:
    """Heralded-photon spectral purity, sum of squared Schmidt coefficients."""
    _require_normalized(jsa)
    ds, di = jsa.grid_s.step, jsa.grid_i.step
    s = np.linalg.svd(jsa.values * np.sqrt(ds * di), compute_uv=False)
    return float(np.sum(s**4))


def jsa_overlap(jsa1: JointSpectralAmplitude, jsa2: JointSpectralAmplitude) -> OverlapResult:
    """Overlap N*exp(i*delta) between two sources' joint spectra.

    Both JSAs must live on identical grids and be normalized; to compare
    filtered sources, pass each through ``apply_filter`` first.
    """
    if not (jsa1.grid_s.same_axis(jsa2.grid_s) and jsa1.grid_i.same_axis(jsa2.grid_i)):
        raise GridMismatchError("jsa_overlap requires both JSAs on identical grids")
    _require_normalized(jsa1)
    _require_normalized(jsa2)
    inner = complex(np.sum(jsa1.values * np.conj(jsa2.values)) * jsa1.measure)
    magnitude = min(abs(inner), 1.0)
    phase = float(np.angle(inner)) if magnitude > 0.0 else 0.0
    return OverlapResult(magnitude=magnitude, phase=phase)


def visibility_from_overlap(n_overlap: float) -> float:
    """Fringe visibility 2N/(1+N) implied by an overlap magnitude N."""
    if not 0.0 <= n_overlap <= 1.0:
        raise InvalidArgumentError(f"overlap must be in [0, 1], got {n_overlap}")
    return 2.0 * n_overlap / (1.0 + n_overlap)


def overlap_from_visibility(visibility: float) -> float:
    """Inverse of visibility_from_overlap: N = V/(2-V)."""
    if not 0.0 <= visibility <= 1.0:
        raise InvalidArgumentError(f"visibility must be in [0, 1], got {visibility}")
    return visibility / (2.0 - visibility)


def _require_normalized(jsa: JointSpectralAmplitude):
    if not jsa.norm_applied:
        raise InvalidArgumentError("a normalized JSA is required")
    norm2 = jsa.norm_squared()
    if abs(norm2 - 1.0) > NORM_TOL:
        raise InvalidArgumentError(f"JSA norm^2 deviates from 1 by {abs(norm2 - 1.0):.3e}")
