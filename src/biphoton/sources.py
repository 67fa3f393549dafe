"""Filtered joint spectral amplitudes of waveguide and microring pair sources.

Each source's block function discretizes

    F(ws, wi) = [ring factors] * integral dw a(w) * b(ws + wi - w) * kernel(ws, wi, w)

on a square signal/idler grid, integrating the pump convolution with the
trapezoid rule on a dedicated 1D grid around the first pump line. It returns
F times the filter, not normalized, on the block of grid points the filter
passes, and the fraction of the whole grid's L2 norm the filter passes; the
pipeline then normalizes the block so that sum |F|^2 * ds * di = 1.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionModel, k_of_omega
from .errors import (
    DegenerateInputError,
    GridMismatchError,
    InvalidArgumentError,
    RingDetuningWarning,
    UnderResolvedError,
)
from .spectral import (
    FrequencyGrid,
    PumpLine,
    pump_amplitude,
    wavelength_to_omega,
)

# the pump convolution's trapezoid rule: 16 nodes per pump-1 FWHM over
# +-8 FWHM, 257 nodes; read at call time, so tests can patch them
POINTS_PER_FWHM = 16
HALFWIDTH_FWHMS = 8.0
# a pump further than this many linewidths from its ring resonance warns
DETUNE_WARN_LINEWIDTHS = 10.0
# below this |x| the waveguide kernel takes its series, avoiding 0/0 and cancellation
SINC_SERIES_CUTOFF = 1e-4
_BLOCK_ENTRIES = 1 << 15  # bounds the entries of one block of pump nodes x pairs
# a filter passing less than this fraction of the L2 norm annihilates the spectrum
MIN_SURVIVAL = 1e-12
# a JSA's L2 norm squared may deviate from 1 by this much
NORM_TOL = 1e-6


def sum_abs2(values: np.ndarray) -> float:
    """Sum of |v|^2 over every entry, in numpy's own loop: a BLAS dot may depend on the thread count."""
    flat = np.ascontiguousarray(values, dtype=complex).reshape(-1).view(float)
    return float(np.einsum("i,i->", flat, flat))


@dataclass(frozen=True)
class WaveguideSource:
    """A straight (spiral) waveguide source: length [m] plus dispersion."""

    length: float
    dispersion: DispersionModel

    def __post_init__(self):
        if not self.length >= 0:  # also rejects nan
            raise InvalidArgumentError(f"length must be >= 0, got {self.length}")


@dataclass(frozen=True)
class RingSource:
    """A microring source described by its resonance comb.

    The degenerate signal/idler resonance sits at ``center_wavelength``;
    the two pump resonances sit ``pump_comb_index`` FSRs below and above
    it. ``detuning_p1``/``detuning_p2`` shift the pump resonances (in
    metres) to model thermal tuning, e.g. the ring driven off resonance.
    """

    q_factor: float
    fsr: float
    center_wavelength: float
    pump_comb_index: int = 2
    detuning_p1: float = 0.0
    detuning_p2: float = 0.0

    def __post_init__(self):
        if not self.q_factor > 0:  # also rejects nan, as does the fsr check
            raise InvalidArgumentError(f"q_factor must be positive, got {self.q_factor}")
        if not self.fsr > 0:
            raise InvalidArgumentError(f"fsr must be positive, got {self.fsr}")
        if not 0 < self.center_wavelength < np.inf:
            raise InvalidArgumentError(
                f"center_wavelength must be finite and positive, got {self.center_wavelength}"
            )
        index = self.pump_comb_index
        if isinstance(index, bool) or not isinstance(index, (int, np.integer)) or index < 1:
            raise InvalidArgumentError(f"pump_comb_index must be an integer >= 1, got {index!r}")
        if not np.isfinite([self.detuning_p1, self.detuning_p2]).all():
            raise InvalidArgumentError(
                f"detuning_p1 and detuning_p2 must be finite, got {self.detuning_p1}, {self.detuning_p2}"
            )
        for which in ("pump1", "pump2"):
            lam = self.resonance(which).center_wavelength
            if not lam > 0:
                raise InvalidArgumentError(
                    f"the {which} resonance must be at a positive wavelength, got {lam} m"
                )

    def resonance(self, which: str) -> "RingResonance":
        if which == "signal" or which == "idler":
            lam = self.center_wavelength
        elif which == "pump1":
            lam = self.center_wavelength - self.pump_comb_index * self.fsr + self.detuning_p1
        elif which == "pump2":
            lam = self.center_wavelength + self.pump_comb_index * self.fsr + self.detuning_p2
        else:
            raise InvalidArgumentError(f"unknown resonance {which!r}")
        return RingResonance(center_wavelength=lam, fwhm=lam / self.q_factor)


@dataclass(frozen=True)
class RingResonance:
    """One comb line: center wavelength and FWHM (both metres), peak-normalized."""

    center_wavelength: float
    fwhm: float

    @property
    def center_omega(self) -> float:
        return float(wavelength_to_omega(self.center_wavelength))

    @property
    def fwhm_omega(self) -> float:
        # d(omega) = (2 pi c / lambda^2) d(lambda)
        return self.center_omega / self.center_wavelength * self.fwhm

    def amplitude(self, omega) -> np.ndarray:
        """Complex amplitude Lorentzian, |l| = 1 at resonance.

        l(w) = (G/2) / (G/2 + i (w - wr)) where G is the FWHM of |l|^2.
        The complex form keeps the physical resonance phase in the JSA.
        """
        half = self.fwhm_omega / 2.0
        omega = np.asarray(omega, dtype=float)
        # worked in one array: the ring builder passes a (nodes x sums) table
        denominator = 1j * np.atleast_1d(omega - self.center_omega)
        denominator += half
        return np.divide(half, denominator, out=denominator).reshape(omega.shape)


@dataclass(frozen=True)
class JointSpectralAmplitude:
    """Discretized complex F(ws, wi), signal-major; signal and idler share one grid."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n_points
        if self.values.shape != (n, n):
            raise GridMismatchError(
                f"values shape {self.values.shape} does not match the grid ({n}, {n})"
            )

    @property
    def measure(self) -> float:
        return self.grid.step * self.grid.step

    def norm_squared(self) -> float:
        return sum_abs2(self.values) * self.measure


def _require_normalized(jsa: JointSpectralAmplitude):
    norm2 = jsa.norm_squared()
    if abs(norm2 - 1.0) > NORM_TOL:
        raise InvalidArgumentError(f"JSA norm^2 deviates from 1 by {abs(norm2 - 1.0):.3e}")


def _pump_quadrature(line: PumpLine):
    """Trapezoid nodes/weights on +-HALFWIDTH_FWHMS FWHM around one pump line."""
    n = int(round(2 * HALFWIDTH_FWHMS * POINTS_PER_FWHM)) + 1
    w0 = line.center_omega
    half = HALFWIDTH_FWHMS * line.linewidth_fwhm
    nodes = w0 + np.linspace(-half, half, n)
    step = nodes[1] - nodes[0]
    weights = np.full(n, step)
    weights[0] = weights[-1] = step / 2.0
    return nodes, weights


def _require_norm2(norm2: float, context: str) -> float:
    """``norm2``, the L2 norm squared of a joint spectrum, if it is finite and not zero."""
    if not np.isfinite(norm2):
        raise DegenerateInputError(f"{context} produced non-finite values")
    if norm2 < 1e-300:
        raise DegenerateInputError(f"{context} produced an all-zero joint spectrum")
    return norm2


def _normalize(grid: FrequencyGrid, values: np.ndarray, context: str) -> JointSpectralAmplitude:
    """Scale ``values`` (a fresh array, scaled in place) to unit L2 norm."""
    norm2 = _require_norm2(sum_abs2(values) * grid.step * grid.step, context)
    values /= np.sqrt(norm2)
    return JointSpectralAmplitude(grid=grid, values=values)


def _require_resolved(fwhm: float, grid: FrequencyGrid, what: str):
    """A spectral feature narrower than two grid steps is not sampled by the grid."""
    if not fwhm >= 2.0 * grid.step:
        raise UnderResolvedError(
            f"{what} FWHM {fwhm:.3e} rad/s is below 2 grid steps ({2.0 * grid.step:.3e} rad/s)"
        )


def _node_peaks(a: np.ndarray, pump2: PumpLine, nodes: np.ndarray, sums: np.ndarray):
    """Bound on |a[n] * b(S - node_n)| over S in [sums[0], sums[-1]]; |b| peaks at the pump-2 line."""
    nearest = np.clip(pump2.center_omega, sums[0] - nodes, sums[-1] - nodes)
    return np.abs(a) * np.abs(pump_amplitude(pump2, nearest))


def _pump_product(pump1: PumpLine, pump2: PumpLine, grid: FrequencyGrid):
    """Weighted pump product on the pump-1 nodes and the signal+idler sums.

    The pump convolution depends on ws and wi only through S = ws + wi,
    which takes the 2N-1 values S_m = 2*omega_min + m*step on the grid
    (m = s + i). Returns the nodes, the sums and
    product[n, m] = w_n * a(node_n) * b(S_m - node_n), on the contiguous
    range of nodes whose terms can reach eps / (2 * n_nodes) of the largest.
    """
    nodes, weights = _pump_quadrature(pump1)
    _require_resolved(pump1.linewidth_fwhm, grid, "pump1")
    _require_resolved(pump2.linewidth_fwhm, grid, "pump2")
    sums = 2.0 * grid.omega_min + np.arange(2 * grid.n_points - 1) * grid.step
    a = weights * pump_amplitude(pump1, nodes)
    # Both kernels have modulus <= 1, so the nodes dropped here move an entry
    # of F by less than n_nodes * eps / (2 * n_nodes) = eps / 2 of the largest
    # peak, within the rounding of the trapezoid sum itself. A non-finite
    # bound keeps every node, and the block functions' checks report it.
    peak = _node_peaks(a, pump2, nodes, sums)
    if np.all(np.isfinite(peak)):
        kept = np.flatnonzero(peak >= peak.max() * (np.finfo(float).eps / (2 * nodes.size)))
        nodes, a = nodes[kept[0] : kept[-1] + 1], a[kept[0] : kept[-1] + 1]
    product = pump_amplitude(pump2, sums[None, :] - nodes[:, None])
    product *= a[:, None]
    return nodes, sums, product


def norm2_bound(pump1: PumpLine, pump2: PumpLine, grid: FrequencyGrid) -> float:
    """Upper bound on the L2 norm squared of the waveguide's values on ``grid``, before normalization.

    The kernel has modulus <= 1 (|exp(ix) sinc x| <= 1), so no entry exceeds
    sum_n w_n * |a(node_n)| * max |b|; |b| peaks at the pump-2 line.
    """
    nodes, weights = _pump_quadrature(pump1)
    entry = np.sum(weights * np.abs(pump_amplitude(pump1, nodes)))
    entry *= np.abs(pump_amplitude(pump2, pump2.center_omega))
    return float((grid.n_points * grid.step * entry) ** 2)


def _mirror(n: int, s: np.ndarray, i: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The symmetric n x n matrix whose entries at (s, i), s <= i, are ``upper``.

    Filling both triangles from one set of values keeps F[s, i] == F[i, s]
    bit for bit (an elementwise complex product need not commute exactly).
    """
    values = np.empty((n, n), dtype=complex)
    values[s, i] = upper
    values[i, s] = upper
    return values


def _waveguide_values(
    pump1: PumpLine, pump2: PumpLine, source: WaveguideSource, grid: FrequencyGrid
) -> np.ndarray:
    """A waveguide source's JSA values on a square grid, not normalized.

    Integrates a(w) * b(ws + wi - w) * exp(ix) sinc(x) over the first pump
    line's support, with x = L * dk / 2 and dk = K(ws, wi) - G_w(ws + wi),
    K = k(ws) + k(wi), G_w(S) = k(w) + k(S - w). The kernel is evaluated in
    the separable form exp(ix) sinc(x) = (E_s * E_i * conj(exp(iL G_w)) - 1) / (2ix)
    with E = exp(iLk), and by its series 1 + ix - 2x^2/3 where |x| < 1e-4.
    F is symmetric, so only s <= i is computed and then mirrored. G_w and the
    pump product depend on the pair only through S, so they are tabulated on
    nodes x sums once and expanded to the pairs one block of nodes at a time.
    """
    nodes, sums, product = _pump_product(pump1, pump2, grid)
    length = source.length
    model = source.dispersion
    k = k_of_omega(model, grid.points())
    phase = np.exp(1j * length * k)
    # pairs s <= i in order of their sum index m = s + i, so that a factor
    # tabulated on the sums expands to the pairs by a contiguous repeat
    s, i = np.triu_indices(grid.n_points)
    m = s + i
    order = np.argsort(m, kind="stable")
    s, i = s[order], i[order]
    counts = np.bincount(m, minlength=sums.size)
    k_si = k[s] + k[i]
    phase_si = phase[s] * phase[i]
    k_nodes = k_of_omega(model, nodes)
    acc = np.zeros(s.size, dtype=complex)
    rows = max(1, _BLOCK_ENTRIES // s.size)
    # entries with x = 0 divide by zero below; the series branch replaces them
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, nodes.size, rows):
            block = slice(start, start + rows)
            # G_w(S) on this block's nodes and every sum
            g = k_nodes[block, None] + k_of_omega(model, sums[None, :] - nodes[block, None])
            x = k_si - np.repeat(g, counts, axis=1)
            x *= length / 2.0
            # q = (exp(2ix) - 1) / (2x) = 1j * exp(ix) sinc(x); the 1j comes off at the end
            q = np.repeat(np.exp(-1j * length * g), counts, axis=1)
            q *= phase_si
            q -= 1.0
            small = np.flatnonzero(np.abs(x) < SINC_SERIES_CUTOFF)
            xs = x.flat[small]
            q *= np.divide(0.5, x, out=x)
            q.flat[small] = 1j * (1.0 + 1j * xs - (2.0 / 3.0) * xs * xs)
            q *= np.repeat(product[block], counts, axis=1)
            # acc + q[0] + q[1] + ...: the nodes are summed in order, as one at a
            # time; a one-node block (large grids) skips the copy np.sum makes
            if len(q) == 1:
                acc += q[0]
            else:
                q[0] += acc
                np.sum(q, axis=0, out=acc)
    acc *= -1j
    return _mirror(grid.n_points, s, i, acc)


def _ring_factors(pump1: PumpLine, pump2: PumpLine, ring: RingSource, grid: FrequencyGrid):
    """(h, l): the ring JSA's pump sum on the grid's 2N-1 signal+idler sums
    and the signal/idler resonance Lorentzian on the grid points."""
    res_s = ring.resonance("signal")
    res_p1 = ring.resonance("pump1")
    res_p2 = ring.resonance("pump2")
    _require_resolved(res_s.fwhm_omega, grid, "signal resonance")
    # warn when a pump is parked far off its comb line (RingOff regime)
    for line, res, tag in ((pump1, res_p1, "pump1"), (pump2, res_p2, "pump2")):
        detune = abs(line.center_omega - res.center_omega)
        if detune > DETUNE_WARN_LINEWIDTHS * res.fwhm_omega:
            warnings.warn(
                f"{tag} is {detune / res.fwhm_omega:.1f} linewidths from its ring "
                "resonance (RingOff regime)",
                RingDetuningWarning,
            )
    nodes, sums, product = _pump_product(pump1, pump2, grid)
    product *= res_p2.amplitude(sums[None, :] - nodes[:, None])
    # h = l_p1(nodes) @ product, in numpy's own loop rather than a BLAS call
    h = np.einsum("n,nm->m", res_p1.amplitude(nodes), product)
    return h, res_s.amplitude(grid.points())


def _ring_values(h: np.ndarray, lor: np.ndarray) -> np.ndarray:
    """l(s) * l(i) * h[s + i] on the n points of ``lor``, ``h`` on their 2n-1 sums."""
    re, im = lor.real, lor.imag
    cross = np.multiply.outer(re, im)
    # l(s) * l(i) from real outer products, symmetric bit for bit as a complex one need not be
    values = np.empty(cross.shape, dtype=complex)
    np.multiply.outer(re, re, out=values.real)
    values.real -= np.multiply.outer(im, im)
    np.add(cross, cross.T, out=values.imag)
    values *= np.lib.stride_tricks.sliding_window_view(h, lor.size)  # h[s + i], a Hankel view
    return values


def _require_survival(survival: float) -> float:
    """``survival`` if the filter passes at least MIN_SURVIVAL of the norm."""
    if survival < MIN_SURVIVAL:
        raise DegenerateInputError(
            f"filter annihilates the joint spectrum (survival {survival:.3e})"
        )
    return survival


def filtered_ring_block(
    pump1: PumpLine, pump2: PumpLine, ring: RingSource, grid: FrequencyGrid,
    samples: np.ndarray, lo: int, hi: int,
):
    """(values, survival) of the ring's filtered JSA from one (h, l) on ``grid``.

    F(ws, wi) = h(ws + wi) * l(ws) * l(wi): the pump convolution h, weighted
    by the two pump-resonance Lorentzians, depends only on the sum frequency,
    and signal and idler pick up the degenerate-resonance Lorentzian l (Helt
    et al., Opt. Lett. 35, 3006 (2010)). ``samples``, the filter on ``grid``,
    is zero outside points lo..hi; the values there, not normalized, are
    (l f)(s) * (l f)(i) * h[s + i]. As |F[s, i]|^2 = |h[s + i]|^2 * q[s] * q[i]
    with q = |l|^2, the whole grid's norm is sum_m |h_m|^2 * (q * q)_m, a 1-D
    convolution on the 2N-1 sums, and the filtered norm takes q * f^2 for q.
    """
    h, lor = _ring_factors(pump1, pump2, ring, grid)
    weight = np.abs(h) ** 2
    q = np.abs(lor) ** 2
    passed = q * samples ** 2
    total = float(np.sum(weight * np.convolve(q, q)))
    _require_norm2(total * grid.step * grid.step, "ring builder")
    survival = _require_survival(float(np.sum(weight * np.convolve(passed, passed))) / total)
    return _ring_values(h[2 * lo : 2 * hi + 1], lor[lo : hi + 1] * samples[lo : hi + 1]), survival


def filtered_waveguide_block(
    pump1: PumpLine, pump2: PumpLine, guide: WaveguideSource, grid: FrequencyGrid,
    samples: np.ndarray, lo: int, hi: int,
):
    """(values, survival) of the guide's filtered JSA, not normalized, on points
    lo..hi of ``grid``, outside which ``samples`` (the filter on ``grid``) is zero.

    Where lo..hi is narrower than the grid, the guide is built on its sub-grid;
    the window's filtered norm over ``norm2_bound`` bounds the survival from
    below, and where that clears MIN_SURVIVAL the survival is None. Otherwise
    the guide is built once on the whole grid: the survival is its filtered
    over its unfiltered norm, and the block is cut from the filtered grid.
    """
    if hi - lo + 1 < grid.n_points:
        sub, window = grid.sub_grid(lo, hi), samples[lo : hi + 1]
        block = _waveguide_values(pump1, pump2, guide, sub)
        block *= window[:, None] * window[None, :]
        if MIN_SURVIVAL * norm2_bound(pump1, pump2, grid) <= sum_abs2(block) * sub.step * sub.step < np.inf:
            return block, None
    values = _waveguide_values(pump1, pump2, guide, grid)
    total = sum_abs2(values)
    _require_norm2(total * grid.step * grid.step, "waveguide builder")
    values *= samples[:, None] * samples[None, :]
    survival = _require_survival(sum_abs2(values) / total)
    return np.ascontiguousarray(values[lo : hi + 1, lo : hi + 1]), survival  # copies only a sub-block
