"""Frequency grids, pump line spectra, and band-pass filter profiles.

Wavelength (in metres) is the user-facing unit; angular frequency in rad/s
is used internally everywhere else. Conversion happens only at the
boundaries of this module, via ``omega = 2*pi*c / wavelength``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

C_VACUUM = 299792458.0  # m/s

_FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


def wavelength_to_omega(wavelength):
    """Convert vacuum wavelength [m] to angular frequency [rad/s]."""
    return 2.0 * np.pi * C_VACUUM / np.asarray(wavelength, dtype=float)


def omega_to_wavelength(omega):
    """Convert angular frequency [rad/s] to vacuum wavelength [m]."""
    return 2.0 * np.pi * C_VACUUM / np.asarray(omega, dtype=float)


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform 1D angular-frequency axis.

    Points are generated by index multiplication (``omega_min + k*step``),
    never by accumulation, so point k is exact to 1 ulp.
    """

    omega_min: float
    omega_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 2:
            raise InvalidArgumentError(f"n_points must be >= 2, got {self.n_points}")
        if not self.omega_max > self.omega_min:
            raise InvalidArgumentError(
                f"omega_max ({self.omega_max}) must exceed omega_min ({self.omega_min})"
            )

    @property
    def step(self) -> float:
        return (self.omega_max - self.omega_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return self.omega_min + np.arange(self.n_points) * self.step

    def sub_grid(self, lo: int, hi: int) -> "FrequencyGrid":
        """Points lo..hi of this grid, as a grid of their own: the filter passband's grid."""
        return FrequencyGrid(self.omega_min + lo * self.step, self.omega_min + hi * self.step, hi - lo + 1)

    def wavelengths(self) -> np.ndarray:
        return omega_to_wavelength(self.points())


def make_grid(center_wavelength: float, span: float, n_points: int) -> FrequencyGrid:
    """Build a grid symmetric in wavelength about ``center_wavelength``.

    ``span`` is the full wavelength width [m]; endpoints sit at
    center +- span/2 and are converted to angular frequency.
    """
    if span <= 0:
        raise InvalidArgumentError(f"span must be positive, got {span}")
    if center_wavelength <= 0:
        raise InvalidArgumentError(f"center_wavelength must be positive, got {center_wavelength}")
    lam_lo = center_wavelength - span / 2.0
    lam_hi = center_wavelength + span / 2.0
    if lam_lo <= 0:
        raise InvalidArgumentError("span too large: lower wavelength edge is non-positive")
    # long wavelength -> low frequency
    return FrequencyGrid(
        omega_min=float(wavelength_to_omega(lam_hi)),
        omega_max=float(wavelength_to_omega(lam_lo)),
        n_points=int(n_points),
    )


@dataclass(frozen=True)
class PumpLine:
    """A CW pump laser line with a finite effective linewidth.

    ``linewidth_fwhm`` is the FWHM of the complex amplitude profile in
    rad/s (for both shapes). A true delta line would collapse the 2D
    joint spectrum onto a measure-zero set, so every line carries a
    resolvable width.
    """

    center_wavelength: float
    linewidth_fwhm: float
    shape: str = "gaussian"  # "gaussian" | "lorentzian"

    def __post_init__(self):
        if self.linewidth_fwhm <= 0:
            raise InvalidArgumentError(f"linewidth_fwhm must be > 0, got {self.linewidth_fwhm}")
        if self.shape not in ("gaussian", "lorentzian"):
            raise InvalidArgumentError(f"unknown pump shape {self.shape!r}")

    @property
    def center_omega(self) -> float:
        return float(wavelength_to_omega(self.center_wavelength))


def pump_amplitude(line: PumpLine, omega) -> np.ndarray:
    """Continuous complex amplitude of a pump line, unit L2 norm over R.

    The continuum normalization keeps quadratures over arbitrary nodes
    consistent; overall scale drops out of any normalized joint spectrum.
    """
    omega = np.asarray(omega, dtype=float)
    w0 = line.center_omega
    if line.shape == "gaussian":
        sigma = line.linewidth_fwhm * _FWHM_TO_SIGMA
        # exp(-(omega - w0)^2 / (2 sigma^2)), worked in one array: the
        # builders pass (nodes x sums) tables, whose temporaries are costly
        prof = np.atleast_1d(omega - w0)
        prof *= prof
        prof /= -2.0 * sigma**2
        np.exp(prof, out=prof)
        prof /= (np.pi * sigma**2) ** 0.25
        # complex, as the Lorentzian is: the ring builder scales the pump product in place by one
        return prof.reshape(omega.shape).astype(complex)
    # complex amplitude Lorentzian; |prof| reaches half its peak at
    # +- linewidth_fwhm / 2 and |prof|^2 integrates to 1 over the line
    gamma = line.linewidth_fwhm / (2.0 * np.sqrt(3.0))
    return gamma / ((gamma + 1j * (omega - w0)) * np.sqrt(np.pi * gamma))


@dataclass(frozen=True)
class FilterSpec:
    """A band-pass filter: amplitude transmission in [0, 1].

    ``profile`` is "rectangle" or "raised_cosine"; ``rolloff`` only
    applies to the latter and must be 0 for a rectangle. ``bandwidth`` is
    the full width in metres.
    """

    center_wavelength: float
    bandwidth: float
    profile: str = "rectangle"
    rolloff: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.center_wavelength):
            raise InvalidArgumentError(f"center_wavelength must be finite, got {self.center_wavelength}")
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise InvalidArgumentError(f"bandwidth must be finite and positive, got {self.bandwidth}")
        if self.profile not in ("rectangle", "raised_cosine"):
            raise InvalidArgumentError(f"unknown filter profile {self.profile!r}")
        if not 0.0 <= self.rolloff <= 1.0:
            raise InvalidArgumentError(f"rolloff must be in [0, 1], got {self.rolloff}")
        if self.profile == "rectangle" and self.rolloff != 0.0:
            raise InvalidArgumentError(f"rolloff must be 0 for the rectangle profile, got {self.rolloff}")


def _band_edges(spec: FilterSpec):
    lam_lo = spec.center_wavelength - spec.bandwidth / 2.0
    lam_hi = spec.center_wavelength + spec.bandwidth / 2.0
    # long wavelength edge -> low frequency edge
    return float(wavelength_to_omega(lam_hi)), float(wavelength_to_omega(lam_lo))


def _rect_mask(grid: FrequencyGrid, omega_lo: float, omega_hi: float) -> np.ndarray:
    # Edges snap to the nearest grid point; an edge exactly midway between
    # two points is assigned to the lower-frequency point (low edge
    # inclusive) for bit-exact reproducibility.
    k_lo = int(np.floor((omega_lo - grid.omega_min) / grid.step + 0.5))
    k_hi = int(np.ceil((omega_hi - grid.omega_min) / grid.step - 0.5))
    mask = np.zeros(grid.n_points)
    if k_hi < 0 or k_lo > grid.n_points - 1 or k_lo > k_hi:
        return mask
    mask[max(k_lo, 0) : min(k_hi, grid.n_points - 1) + 1] = 1.0
    return mask


def sample_filter(spec: FilterSpec, grid: FrequencyGrid) -> np.ndarray:
    """Real amplitude transmission of the filter on each grid point."""
    omega_lo, omega_hi = _band_edges(spec)
    if spec.rolloff == 0.0:  # a rectangle, or a raised cosine without taper
        return _rect_mask(grid, omega_lo, omega_hi)
    center = 0.5 * (omega_lo + omega_hi)
    band = omega_hi - omega_lo
    flat_half = (1.0 - spec.rolloff) * band / 2.0
    taper = spec.rolloff * band
    d = np.abs(grid.points() - center)
    values = np.zeros(grid.n_points)
    values[d <= flat_half] = 1.0
    in_taper = (d > flat_half) & (d <= flat_half + taper)
    values[in_taper] = 0.5 * (1.0 + np.cos(np.pi * (d[in_taper] - flat_half) / taper))
    return values
