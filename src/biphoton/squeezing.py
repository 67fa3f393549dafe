"""Multimode squeezed-vacuum photon statistics with beamsplitter loss.

Each Schmidt mode is an independent single-mode squeezer with parameter
xi_mode = xi * sqrt(r); loss is an amplitude transmission eta applied as a
beamsplitter before an ideal detector.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, log, tanh

import numpy as np

from .errors import InvalidArgumentError, TruncationError

DEFAULT_MAX_N = 20
TAIL_TOL = 1e-10
_BLOCK_ENTRIES = 1 << 16  # bounds the memory of one block of the thinning matrix


@dataclass(frozen=True)
class SqueezingSpec:
    """Global squeezing strength, Schmidt weights, and per-mode transmissions."""

    global_xi: float
    schmidt_coefficients: np.ndarray
    transmissions: np.ndarray = None

    def __post_init__(self):
        if self.global_xi < 0:
            raise InvalidArgumentError(f"global_xi must be >= 0, got {self.global_xi}")
        r = np.asarray(self.schmidt_coefficients, dtype=float)
        object.__setattr__(self, "schmidt_coefficients", r)
        if np.any(r < 0):
            raise InvalidArgumentError("Schmidt coefficients must be nonnegative")
        if self.transmissions is None:
            eta = np.ones_like(r)
        else:
            eta = np.broadcast_to(np.asarray(self.transmissions, dtype=float), r.shape).copy()
        if np.any((eta < 0) | (eta > 1)):
            raise InvalidArgumentError("transmissions must lie in [0, 1]")
        object.__setattr__(self, "transmissions", eta)

    @property
    def mode_xi(self) -> np.ndarray:
        return self.global_xi * np.sqrt(self.schmidt_coefficients)


def mean_photon_number(spec: SqueezingSpec) -> float:
    """Sum over modes of eta^2 * sinh(xi_mode)^2."""
    return float(np.sum(spec.transmissions**2 * np.sinh(spec.mode_xi) ** 2))


def trigger_probability(spec: SqueezingSpec) -> float:
    """Probability that a threshold detector clicks at least once.

    A mode's no-click probability is 1 / sqrt(1 + eta^2 (2 - eta^2) sinh(xi)^2),
    and independent modes multiply: p = 1 - exp(-1/2 sum log1p(eta^2 (2 - eta^2)
    sinh(xi)^2)), which keeps small p and eta = 0 exact where 1 - prod would cancel.
    """
    eta2 = spec.transmissions**2
    log_no_click = -0.5 * np.sum(np.log1p(eta2 * (2.0 - eta2) * np.sinh(spec.mode_xi) ** 2))
    return float(-np.expm1(log_no_click))


def lossy_density_diagonal(
    xi_mode: float,
    eta: float,
    max_n: int = DEFAULT_MAX_N,
    tail_tol: float = TAIL_TOL,
    auto_extend: bool = True,
) -> np.ndarray:
    """Photon-number probabilities of one lossy squeezed mode.

    Returns p[m] for m = 0 .. 2*n_top. Loss is a beamsplitter, so p is the
    lossless pair distribution P(2n) thinned binomially: each of the 2n
    photons survives with probability eta^2. n_top doubles from ``max_n``
    until the lossless tail 1 - sum P is below ``tail_tol`` (thinning keeps
    the total, so that is also the tail of p). With ``auto_extend`` false a
    TruncationError names the max_n that would have sufficed instead.
    """
    if max_n < 0:
        raise InvalidArgumentError(f"max_n must be >= 0, got {max_n}")
    if not 0.0 <= eta <= 1.0:
        raise InvalidArgumentError(f"eta must be in [0, 1], got {eta}")
    if xi_mode < 0:
        raise InvalidArgumentError(f"xi_mode must be >= 0, got {xi_mode}")
    n_top = max_n
    while True:
        log_fact = np.array([lgamma(j + 1) for j in range(2 * n_top + 1)])
        pairs = _pair_probabilities(xi_mode, log_fact)
        tail = 1.0 - pairs.sum()
        if n_top == max_n:
            first_tail = tail
        if tail < tail_tol:
            break
        n_top = max(2 * n_top, 1)
        if n_top > 100000:
            raise TruncationError("series does not converge within 1e5 terms")
    if n_top != max_n and not auto_extend:
        raise TruncationError(
            f"truncation tail {first_tail:.3e} exceeds {tail_tol:.1e}; use max_n >= {n_top}"
        )
    return _binomial_thinning(pairs, eta, log_fact)


def _log_powers(exponents, base: float):
    """exponents * log(base), taking 0 * log(0) as 0."""
    if base > 0.0:
        return exponents * log(base)
    return np.where(exponents > 0, -np.inf, 0.0)


def _pair_probabilities(xi_mode: float, log_fact: np.ndarray) -> np.ndarray:
    """Lossless P(2n) = tanh^2n (2n)! / (4^n (n!)^2 cosh), n = 0 .. len(log_fact) // 2."""
    n = np.arange(log_fact.size // 2 + 1)
    log_p = (
        _log_powers(n, tanh(xi_mode) ** 2)
        + log_fact[2 * n]
        - 2.0 * log_fact[n]
        - n * log(4.0)
        - log(np.cosh(xi_mode))
    )
    return np.exp(log_p)


def _binomial_thinning(pairs: np.ndarray, eta: float, log_fact: np.ndarray) -> np.ndarray:
    """p[m] = sum_n C(2n, m) eta^2m (1 - eta^2)^(2n - m) P(2n), in row blocks of B."""
    two_n = 2 * np.arange(pairs.size)
    probs = np.empty(two_n[-1] + 1)
    rows = max(1, _BLOCK_ENTRIES // pairs.size)
    for start in range(0, probs.size, rows):
        m = np.arange(start, min(start + rows, probs.size))[:, None]
        first = start // 2  # pairs with 2n < m cannot leave m photons
        lost = two_n[first:] - m
        kept = lost >= 0
        lost = np.where(kept, lost, 0)
        log_b = (
            log_fact[two_n[first:]]
            - log_fact[m]
            - log_fact[lost]
            + _log_powers(m, eta**2)
            + _log_powers(lost, 1.0 - eta**2)
        )
        probs[start : start + rows] = np.where(kept, np.exp(log_b), 0.0) @ pairs[first:]
    return probs
