"""Taylor dispersion model, phase mismatch, and the sinc phase-matching factor."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

# below this |x| the two-term series avoids 0/0 and cancellation in sin(x)/x
SINC_SERIES_CUTOFF = 1e-4


@dataclass(frozen=True)
class DispersionModel:
    """Propagation constant k(omega) as a Taylor polynomial about ``reference_omega``.

    k = beta0 + beta1*d + beta2*d^2/2 + beta3*d^3/6 with d = omega - reference_omega.
    Units: beta0 [1/m], beta1 [s/m], beta2 [s^2/m], beta3 [s^3/m].
    """

    reference_omega: float
    beta0: float = 0.0
    beta1: float = 0.0
    beta2: float = 0.0
    beta3: float = 0.0


def k_of_omega(model: DispersionModel, omega):
    """Evaluate the Taylor polynomial k(omega) [1/m]."""
    d = np.asarray(omega, dtype=float) - model.reference_omega
    return model.beta0 + d * (model.beta1 + d * (model.beta2 / 2.0 + d * (model.beta3 / 6.0)))


def delta_k(model: DispersionModel, omega_s, omega_i, omega_p1):
    """Phase mismatch for the energy-conserving quadruple.

    The second pump frequency is fixed by omega_p2 = omega_s + omega_i - omega_p1.
    """
    omega_s = np.asarray(omega_s, dtype=float)
    omega_i = np.asarray(omega_i, dtype=float)
    omega_p2 = omega_s + omega_i - omega_p1
    return (
        k_of_omega(model, omega_s)
        + k_of_omega(model, omega_i)
        - k_of_omega(model, omega_p1)
        - k_of_omega(model, omega_p2)
    )


def sinc(x):
    """sin(x)/x with sinc(0) = 1; series branch below 1e-4 for < 1e-12 relative error."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < SINC_SERIES_CUTOFF
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 - x * x / 6.0, np.sin(safe) / safe)


def phase_matching(model: DispersionModel, length: float, omega_s, omega_i, omega_p1):
    """Complex phase-matching factor exp(i*dk*L/2) * sinc(dk*L/2).

    At length zero this is identically 1; its modulus never exceeds 1.
    """
    if length < 0:
        raise InvalidArgumentError(f"length must be >= 0, got {length}")
    x = delta_k(model, omega_s, omega_i, omega_p1) * (length / 2.0)
    return np.exp(1j * x) * sinc(x)
