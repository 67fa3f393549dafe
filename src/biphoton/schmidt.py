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

    ``signal_modes[k]`` / ``idler_modes[k]`` are unit-L2 functions on the
    JSA's grid (they carry the 1/sqrt(step) measure scaling). There is one
    coefficient per row or column of the JSA's non-zero block, whichever
    is fewer (see ``schmidt_decompose``).
    """

    coefficients: np.ndarray
    signal_modes: np.ndarray  # shape (n_modes, n_points)
    idler_modes: np.ndarray  # shape (n_modes, n_points)

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


def _passband(jsa: JointSpectralAmplitude):
    """Rows and columns holding a non-zero entry, and the measure-weighted block there.

    A filtered JSA is exactly zero outside the filter passband, and zero
    rows and columns add only zero singular values, so the SVD of this
    block has the same non-zero spectrum as the full matrix. An unfiltered
    JSA keeps every row and column.
    """
    nonzero = jsa.values != 0
    rows = np.flatnonzero(np.any(nonzero, axis=1))
    cols = np.flatnonzero(np.any(nonzero, axis=0))
    block = jsa.values
    if rows.size < block.shape[0] or cols.size < block.shape[1]:
        block = block[np.ix_(rows, cols)]
    return rows, cols, block * np.sqrt(jsa.measure)


def schmidt_decompose(jsa: JointSpectralAmplitude) -> SchmidtSpectrum:
    """SVD of the measure-weighted JSA matrix over its non-zero rows and columns.

    r are the squared singular values of F * step, sorted
    nonincreasing (LAPACK order; ties keep their index order, so the
    result is deterministic). There are min(rows, cols) of them, counting
    only rows and columns with a non-zero entry; the modes are zero
    outside those and have the full grid length.
    """
    _require_normalized(jsa)
    rows, cols, block = _passband(jsa)
    u, s, vh = np.linalg.svd(block, full_matrices=False)
    signal_modes = np.zeros((s.size, jsa.grid.n_points), dtype=u.dtype)
    idler_modes = np.zeros((s.size, jsa.grid.n_points), dtype=vh.dtype)
    signal_modes[:, rows] = u.T
    idler_modes[:, cols] = vh
    scale = np.sqrt(jsa.grid.step)
    signal_modes /= scale
    idler_modes /= scale
    return SchmidtSpectrum(
        coefficients=s**2, signal_modes=signal_modes, idler_modes=idler_modes
    )


def purity(jsa: JointSpectralAmplitude) -> float:
    """Heralded-photon spectral purity, sum of squared Schmidt coefficients."""
    _require_normalized(jsa)
    s = np.linalg.svd(_passband(jsa)[2], compute_uv=False)
    return float(np.sum(s**4))


def jsa_overlap(jsa1: JointSpectralAmplitude, jsa2: JointSpectralAmplitude) -> OverlapResult:
    """Overlap N*exp(i*delta) between two sources' joint spectra.

    Both JSAs must live on the same grid and be normalized; to compare
    filtered sources, pass each through ``apply_filter`` first.
    """
    if jsa1.grid != jsa2.grid:
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
