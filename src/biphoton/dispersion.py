"""Taylor dispersion model k(omega)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DispersionModel:
    """Propagation constant k(omega) as a Taylor polynomial about ``reference_omega``.

    k = beta2*d^2/2 + beta3*d^3/6 with d = omega - reference_omega, in [s^2/m] and
    [s^3/m]. A constant and a linear term would cancel from the phase mismatch
    k(ws) + k(wi) - k(w) - k(ws + wi - w), so the model has none.
    """

    reference_omega: float
    beta2: float = 0.0
    beta3: float = 0.0


def k_of_omega(model: DispersionModel, omega):
    """Evaluate the Taylor polynomial k(omega) [1/m]."""
    d = np.asarray(omega, dtype=float) - model.reference_omega
    return d * (d * (model.beta2 / 2.0 + d * (model.beta3 / 6.0)))
