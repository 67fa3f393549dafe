"""Taylor dispersion model k(omega)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
