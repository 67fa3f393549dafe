"""Schmidt decomposition, spectral purity, and pairwise JSA overlap."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvalidArgumentError
from .sources import JointSpectralAmplitude, _require_normalized, sum_abs2

TAIL_REL_TOL = 1e-12


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Nonincreasing Schmidt coefficients r, summing to 1.

    There is one coefficient per grid point of the JSA (see
    ``schmidt_decompose``).
    """

    coefficients: np.ndarray

    @property
    def purity(self) -> float:
        """Heralded-photon spectral purity, the sum of squared coefficients."""
        return float(np.sum(self.coefficients**2))

    @property
    def tail(self) -> float:
        """Weight of the coefficients that ``significant()`` leaves out.

        Summed directly, not as the difference of two sums near 1, which
        would cancel to rounding and could come out negative.
        """
        c = self.coefficients
        return float(np.sum(c[c < TAIL_REL_TOL * c[0]])) if c.size else 0.0

    def significant(self) -> np.ndarray:
        """Coefficients at least TAIL_REL_TOL of the leading one (for reporting)."""
        if self.coefficients.size == 0:
            return self.coefficients
        return self.coefficients[self.coefficients >= TAIL_REL_TOL * self.coefficients[0]]


@dataclass(frozen=True)
class OverlapResult:
    """Magnitude and phase of the filtered inner product of two JSAs."""

    magnitude: float
    phase: float


def schmidt_decompose(jsa: JointSpectralAmplitude) -> SchmidtSpectrum:
    """Schmidt coefficients of a normalized JSA from a values-only SVD.

    r are the squared singular values of F * step, sorted nonincreasing,
    one per grid point. A filtered JSA comes on its passband
    (``pipeline.build_jsa``), and the SVD runs on that block as built:
    the singular values of F are taken and the measure step² goes onto
    their squares, so no scaled copy of the block is made.
    """
    _require_normalized(jsa)
    s = np.linalg.svd(jsa.values, compute_uv=False)
    return SchmidtSpectrum(coefficients=s**2 * jsa.measure)


def purity(jsa: JointSpectralAmplitude) -> float:
    """Heralded-photon spectral purity Tr rho^2 = ||B^H B||_F^2 of a normalized JSA, no SVD.

    B is F * step, n x n, and B^H B is one matrix product. This equals
    ``SchmidtSpectrum.purity`` to rounding, about 1e-15 relative. The
    printed purities were measured to be the same bytes at one and two
    BLAS threads on 201-, 401- and 801-point grids; CI's ``cmp`` of the
    ``table1`` output at both thread counts checks it.
    """
    _require_normalized(jsa)
    b = jsa.values
    return sum_abs2(b.conj().T @ b) * jsa.measure**2


def jsa_overlap(jsa1: JointSpectralAmplitude, jsa2: JointSpectralAmplitude) -> OverlapResult:
    """Overlap N*exp(i*delta) between two sources' joint spectra.

    Both JSAs must live on the same grid and be normalized;
    ``pipeline.build_jsa`` puts both sources' filtered JSAs on one passband grid.
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
