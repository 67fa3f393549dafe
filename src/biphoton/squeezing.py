"""Multimode squeezed-vacuum photon statistics with beamsplitter loss.

Each Schmidt mode is an independent single-mode squeezer with parameter
xi_mode = xi * sqrt(r); loss is an amplitude transmission eta applied as a
beamsplitter before an ideal detector. A mode's photon-number distribution
comes from its generating function by a three-term recurrence, O(1) work
per photon number.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, isfinite, sinh, sqrt, tanh

import numpy as np

from .errors import InvalidArgumentError, TruncationError

# the Fock series starts at MAX_N pairs and doubles until its lossless tail is
# below TAIL_TOL; read at call time, so tests can patch them
MAX_N = 20
TAIL_TOL = 1e-10


@dataclass(frozen=True)
class SqueezingSpec:
    """Global squeezing strength, Schmidt weights, and per-mode transmissions.

    The per-mode arrays are derived once, at construction: ``mode_xi`` =
    global_xi * sqrt(r), and (private) the intensity transmissions eta^2 and
    the lossless mean photon numbers sinh^2(mode_xi) that both moments use.
    So a xi too strong for sinh overflows here, with numpy's RuntimeWarning,
    and the moments come out inf or nan without a further warning.
    """

    global_xi: float
    schmidt_coefficients: np.ndarray
    transmissions: np.ndarray = None
    mode_xi: np.ndarray = field(init=False)
    _eta2: np.ndarray = field(init=False, repr=False)
    _sinh2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (isfinite(self.global_xi) and self.global_xi >= 0):
            raise InvalidArgumentError(f"global_xi must be finite and >= 0, got {self.global_xi}")
        r = np.asarray(self.schmidt_coefficients, dtype=float)
        # nan propagates through min and max, so it fails both comparisons
        if r.size and not (r.min() >= 0 and isfinite(r.max())):
            raise InvalidArgumentError("Schmidt coefficients must be finite and nonnegative")
        eta = np.ones_like(r)
        if self.transmissions is not None:
            given = np.asarray(self.transmissions, dtype=float)
            try:
                eta[...] = given
            except ValueError as exc:
                msg = f"transmissions of shape {given.shape} do not broadcast to {r.shape}"
                raise InvalidArgumentError(msg) from exc
            if eta.size and not (eta.min() >= 0 and eta.max() <= 1):  # also rejects nan
                raise InvalidArgumentError("transmissions must lie in [0, 1]")
        mode_xi = self.global_xi * np.sqrt(r)
        object.__setattr__(self, "schmidt_coefficients", r)
        object.__setattr__(self, "transmissions", eta)
        object.__setattr__(self, "mode_xi", mode_xi)
        object.__setattr__(self, "_eta2", eta**2)
        object.__setattr__(self, "_sinh2", np.sinh(mode_xi) ** 2)


def mean_photon_number(spec: SqueezingSpec) -> float:
    """Sum over modes of eta^2 * sinh(xi_mode)^2."""
    return float(np.sum(spec._eta2 * spec._sinh2))


def trigger_probability(spec: SqueezingSpec) -> float:
    """Probability that a threshold detector clicks at least once.

    A mode's no-click probability is 1 / sqrt(1 + eta^2 (2 - eta^2) sinh(xi)^2),
    and independent modes multiply: p = 1 - exp(-1/2 sum log1p(eta^2 (2 - eta^2)
    sinh(xi)^2)), which keeps small p and eta = 0 exact where 1 - prod would cancel.
    """
    eta2 = spec._eta2
    log_no_click = -0.5 * np.sum(np.log1p(eta2 * (2.0 - eta2) * spec._sinh2))
    return float(-np.expm1(log_no_click))


def lossy_density_diagonal(xi_mode: float, eta: float) -> np.ndarray:
    """Photon-number probabilities of one lossy squeezed mode.

    Returns p[m] for m = 0 .. 2*n_top. n_top is the number of pairs kept
    of the lossless distribution P(2n) = sech(xi) tanh^2n(xi) (2n)! / (4^n (n!)^2):
    it doubles from MAX_N until the lossless tail 1 - sum_{n <= n_top} P(2n)
    is below TAIL_TOL. The terms P(2n)/P(0) and their sum run on from
    one doubling to the next, so each n costs one product and one sum. Loss
    only removes photons, so p on 0 .. 2*n_top holds at least that mass.

    With t = tanh(xi), a = 1 - eta^2 and b = eta^2, sum_m p[m] z^m is
    sech(xi) [1 - t^2 (a + b z)^2]^(-1/2), and differentiating it gives
    (1 - t^2 a^2)(m + 1) p[m+1] = t^2 a b (2m + 1) p[m] + t^2 b^2 m p[m-1],
    with p[-1] = 0 and p[0] = sech(xi) / sqrt(1 - t^2 a^2). Every term is
    >= 0, so the forward recurrence does not cancel. The coefficients are
    taken in the equal form 1 - t^2 a^2 = sech^2(xi) (1 + sinh^2(xi) b (1 + a)),
    which keeps strong squeezing at low transmission free of cancellation.
    """
    if not 0.0 <= eta <= 1.0:
        raise InvalidArgumentError(f"eta must be in [0, 1], got {eta}")
    if not (isfinite(xi_mode) and xi_mode >= 0):
        raise InvalidArgumentError(f"xi_mode must be finite and >= 0, got {xi_mode}")
    t2 = tanh(xi_mode) ** 2
    sech = 2.0 * exp(-xi_mode) / (1.0 + exp(-2.0 * xi_mode))  # 0, not an overflow, at large xi
    n_top, n, ratio, ratio_sum = MAX_N, 0, 1.0, 0.0  # ratio = P(2n) / P(0)
    while True:
        for k in range(n + 1, n_top + 1):
            two_k = 2.0 * k
            ratio *= t2 * (two_k - 1.0) / two_k  # P(2k) / P(2k - 2) = t^2 (2k - 1) / (2k)
            ratio_sum += ratio
        n = n_top
        if 1.0 - sech * (1.0 + ratio_sum) < TAIL_TOL:
            break
        n_top = max(2 * n_top, 1)
        if n_top > 100000:
            raise TruncationError("series does not converge within 1e5 terms")
    b = eta * eta
    a = 1.0 - b
    s = sinh(xi_mode) ** 2
    d = 1.0 + s * b * (1.0 + a)
    c1, c2 = s * a * b / d, s * b * b / d
    prev, cur = 0.0, 1.0 / sqrt(d)
    probs = [cur]
    for m in range(2 * n_top):
        prev, cur = cur, (c1 * (2 * m + 1) * cur + c2 * m * prev) / (m + 1)
        probs.append(cur)
    return np.array(probs)
