"""Joint spectral amplitude builders for waveguide and microring pair sources.

Both builders discretize

    F(ws, wi) = [ring factors] * integral dw a(w) * b(ws + wi - w) * kernel(ws, wi, w)

on a square signal/idler grid, integrating the pump convolution with the
trapezoid rule on a dedicated 1D grid around the first pump line, then
normalize to unit L2 so that sum |F|^2 * ds * di = 1.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

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
    FilterSpec,
    FrequencyGrid,
    PumpLine,
    pump_amplitude,
    sample_filter,
    wavelength_to_omega,
)

# quadrature defaults for the pump convolution integral
MIN_POINTS_PER_FWHM = 8
DEFAULT_POINTS_PER_FWHM = 16
DEFAULT_HALFWIDTH_FWHMS = 8.0
# below this |x| the waveguide kernel takes its series, avoiding 0/0 and cancellation
SINC_SERIES_CUTOFF = 1e-4
_BLOCK_ENTRIES = 1 << 15  # bounds the entries of one block of pump nodes x pairs
# a filter passing less than this fraction of the L2 norm annihilates the spectrum
MIN_SURVIVAL = 1e-12
# OpenBLAS runs a dot product of at most SERIAL_DOT entries, a matrix-vector
# product of at most SERIAL_GEMV entries and a matrix product with m*n*k <=
# SERIAL_GEMM on the calling thread. A larger call wakes its worker threads,
# which spin for about 0.1 s after it and stall the caller when they share a
# core, so the norms and products here are taken in pieces of these sizes.
SERIAL_DOT = 10000
SERIAL_GEMV = 4095
SERIAL_GEMM = 1 << 16


def sum_abs2(values: np.ndarray) -> float:
    """Sum of |v|^2 over every entry, as dot products of at most SERIAL_DOT entries."""
    flat = values.reshape(-1)
    runs = (flat[k : k + SERIAL_DOT] for k in range(0, flat.size, SERIAL_DOT))
    return float(sum(np.vdot(run, run).real for run in runs))


@dataclass(frozen=True)
class WaveguideSource:
    """A straight (spiral) waveguide source: length [m] plus dispersion."""

    length: float
    dispersion: DispersionModel

    def __post_init__(self):
        if self.length < 0:
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
        if self.q_factor <= 0:
            raise InvalidArgumentError(f"q_factor must be positive, got {self.q_factor}")
        if self.fsr <= 0:
            raise InvalidArgumentError(f"fsr must be positive, got {self.fsr}")

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
    """Discretized complex F(ws, wi), signal-major; signal and idler share one grid.

    ``norm2_before`` is the L2 norm squared of the values before they were
    scaled to unit norm (None when the values were given already scaled).
    """

    grid: FrequencyGrid
    values: np.ndarray
    norm_applied: bool = False
    norm2_before: float = None

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


def jsi(jsa: JointSpectralAmplitude) -> np.ndarray:
    """Joint spectral intensity |F|^2 (elementwise)."""
    return np.abs(jsa.values) ** 2


def _pump_quadrature(line: PumpLine, points_per_fwhm: int, halfwidth_fwhms: float):
    """Trapezoid nodes/weights on a window around one pump line."""
    if points_per_fwhm < MIN_POINTS_PER_FWHM:
        raise UnderResolvedError(
            f"pump quadrature needs >= {MIN_POINTS_PER_FWHM} points per FWHM, "
            f"got {points_per_fwhm}"
        )
    n = int(round(2 * halfwidth_fwhms * points_per_fwhm)) + 1
    w0 = line.center_omega
    half = halfwidth_fwhms * line.linewidth_fwhm
    nodes = w0 + np.linspace(-half, half, n)
    step = nodes[1] - nodes[0]
    weights = np.full(n, step)
    weights[0] = weights[-1] = step / 2.0
    return nodes, weights


def _normalize(grid: FrequencyGrid, values: np.ndarray, context: str) -> JointSpectralAmplitude:
    """Scale ``values`` (a fresh array, scaled in place) to unit L2 norm."""
    norm2 = sum_abs2(values) * grid.step * grid.step
    if not np.isfinite(norm2):
        raise DegenerateInputError(f"{context} produced non-finite values")
    if norm2 < 1e-300:
        raise DegenerateInputError(f"{context} produced an all-zero joint spectrum")
    values /= np.sqrt(norm2)
    return JointSpectralAmplitude(grid=grid, values=values, norm_applied=True, norm2_before=norm2)


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


def _pump_product(
    pump1: PumpLine,
    pump2: PumpLine,
    grid: FrequencyGrid,
    points_per_fwhm: int,
    halfwidth_fwhms: float,
):
    """Weighted pump product on the pump-1 nodes and the signal+idler sums.

    The pump convolution depends on ws and wi only through S = ws + wi,
    which takes the 2N-1 values S_m = 2*omega_min + m*step on the grid
    (m = s + i). Returns the nodes, the sums and
    product[n, m] = w_n * a(node_n) * b(S_m - node_n), on the contiguous
    range of nodes whose terms can reach eps / (2 * n_nodes) of the largest.
    """
    nodes, weights = _pump_quadrature(pump1, points_per_fwhm, halfwidth_fwhms)
    _require_resolved(pump1.linewidth_fwhm, grid, "pump1")
    _require_resolved(pump2.linewidth_fwhm, grid, "pump2")
    sums = 2.0 * grid.omega_min + np.arange(2 * grid.n_points - 1) * grid.step
    a = weights * pump_amplitude(pump1, nodes)
    # Both kernels have modulus <= 1, so the nodes dropped here move an entry
    # of F by less than n_nodes * eps / (2 * n_nodes) = eps / 2 of the largest
    # peak, within the rounding of the trapezoid sum itself. A non-finite
    # bound keeps every node, and the builder's checks report it.
    peak = _node_peaks(a, pump2, nodes, sums)
    if np.all(np.isfinite(peak)):
        kept = np.flatnonzero(peak >= peak.max() * (np.finfo(float).eps / (2 * nodes.size)))
        nodes, a = nodes[kept[0] : kept[-1] + 1], a[kept[0] : kept[-1] + 1]
    product = pump_amplitude(pump2, sums[None, :] - nodes[:, None])
    product *= a[:, None]
    return nodes, sums, product


def norm2_bound(pump1: PumpLine, pump2: PumpLine, grid: FrequencyGrid) -> float:
    """Upper bound on either builder's ``norm2_before`` on ``grid`` (default quadrature).

    Both kernels have modulus <= 1 (|exp(ix) sinc x| <= 1, and every ring
    Lorentzian is peak-normalized), so no entry exceeds
    sum_n w_n * |a(node_n)| * max |b|; |b| peaks at the pump-2 line.
    """
    nodes, weights = _pump_quadrature(pump1, DEFAULT_POINTS_PER_FWHM, DEFAULT_HALFWIDTH_FWHMS)
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


def build_waveguide_jsa(
    pump1: PumpLine,
    pump2: PumpLine,
    source: WaveguideSource,
    grid: FrequencyGrid,
    points_per_fwhm: int = DEFAULT_POINTS_PER_FWHM,
    halfwidth_fwhms: float = DEFAULT_HALFWIDTH_FWHMS,
) -> JointSpectralAmplitude:
    """Unit-normalized JSA of a waveguide source on a square grid.

    Integrates a(w) * b(ws + wi - w) * exp(ix) sinc(x) over the first pump
    line's support, with x = L * dk / 2 and dk = K(ws, wi) - G_w(ws + wi),
    K = k(ws) + k(wi), G_w(S) = k(w) + k(S - w). The kernel is evaluated in
    the separable form exp(ix) sinc(x) = (E_s * E_i * conj(exp(iL G_w)) - 1) / (2ix)
    with E = exp(iLk), and by its series 1 + ix - 2x^2/3 where |x| < 1e-4.
    F is symmetric, so only s <= i is computed and then mirrored. G_w and the
    pump product depend on the pair only through S, so they are tabulated on
    nodes x sums once and expanded to the pairs one block of nodes at a time.
    """
    nodes, sums, product = _pump_product(pump1, pump2, grid, points_per_fwhm, halfwidth_fwhms)
    length = source.length
    # beta0 and beta1 cancel in dk because ws + wi = w_p1 + w_p2; dropping
    # them keeps the phases L*k, and their rounding, small
    model = replace(source.dispersion, beta0=0.0, beta1=0.0)
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
    return _normalize(grid, _mirror(grid.n_points, s, i, acc), "waveguide builder")


def build_ring_jsa(
    pump1: PumpLine,
    pump2: PumpLine,
    ring: RingSource,
    grid: FrequencyGrid,
    points_per_fwhm: int = DEFAULT_POINTS_PER_FWHM,
    halfwidth_fwhms: float = DEFAULT_HALFWIDTH_FWHMS,
    detune_warn_linewidths: float = 10.0,
) -> JointSpectralAmplitude:
    """Unit-normalized JSA of a microring source.

    F(ws, wi) = h(ws + wi) * l(ws) * l(wi): the pump convolution h, weighted
    by the two pump-resonance Lorentzians, depends only on the sum
    frequency, and signal and idler pick up the degenerate-resonance
    Lorentzian l (Helt et al., Opt. Lett. 35, 3006 (2010)).
    """
    res_s = ring.resonance("signal")
    res_p1 = ring.resonance("pump1")
    res_p2 = ring.resonance("pump2")
    _require_resolved(res_s.fwhm_omega, grid, "signal resonance")
    # warn when a pump is parked far off its comb line (RingOff regime)
    for line, res, tag in ((pump1, res_p1, "pump1"), (pump2, res_p2, "pump2")):
        detune = abs(line.center_omega - res.center_omega)
        if detune > detune_warn_linewidths * res.fwhm_omega:
            warnings.warn(
                f"{tag} is {detune / res.fwhm_omega:.1f} linewidths from its ring "
                "resonance (RingOff regime)",
                RingDetuningWarning,
            )
    nodes, sums, product = _pump_product(pump1, pump2, grid, points_per_fwhm, halfwidth_fwhms)
    product *= res_p2.amplitude(sums[None, :] - nodes[:, None])
    # h = l_p1(nodes) @ product, a few sums at a time to stay within SERIAL_GEMV
    lor_p1 = res_p1.amplitude(nodes)
    cols = max(1, SERIAL_GEMV // nodes.size)
    h = np.concatenate([lor_p1 @ product[:, k : k + cols] for k in range(0, sums.size, cols)])
    lor = res_s.amplitude(grid.points())
    s, i = np.triu_indices(grid.n_points)
    upper = lor[s] * lor[i]
    upper *= h[s + i]
    return _normalize(grid, _mirror(grid.n_points, s, i, upper), "ring builder")


def _filtered(
    jsa: JointSpectralAmplitude, spec: FilterSpec, min_survival: float, samples: np.ndarray = None
):
    """The filtered values of a normalized JSA and the fraction of its L2 norm they keep."""
    if not jsa.norm_applied:
        raise InvalidArgumentError("filtering expects a normalized JSA")
    f = sample_filter(spec, jsa.grid) if samples is None else samples
    filtered = jsa.values * (f[:, None] * f[None, :])
    survival = sum_abs2(filtered) * jsa.measure
    if survival < min_survival:
        raise DegenerateInputError(
            f"filter annihilates the joint spectrum (survival {survival:.3e})"
        )
    return filtered, survival


def filter_survival(
    jsa: JointSpectralAmplitude, spec: FilterSpec, min_survival: float = MIN_SURVIVAL
) -> float:
    """Fraction of a normalized JSA's L2 norm that the filter passes on both arms.

    This is the heralding-efficiency proxy; below ``min_survival`` the
    filter annihilates the spectrum and a DegenerateInputError is raised.
    """
    return _filtered(jsa, spec, min_survival)[1]


def apply_filter(
    jsa: JointSpectralAmplitude,
    spec: FilterSpec,
    min_survival: float = MIN_SURVIVAL,
    samples: np.ndarray = None,
) -> JointSpectralAmplitude:
    """Apply one amplitude filter to both signal and idler and re-normalize.

    Raises like ``filter_survival``. Filtering both axes by the same
    profile keeps a symmetric JSA symmetric. ``samples``, when given, is
    the filter's transmission on ``jsa.grid`` taken from a grid that
    contains it, so that the filter edges snap as they do on that grid.
    """
    filtered, _ = _filtered(jsa, spec, min_survival, samples)
    return _normalize(jsa.grid, filtered, "filtering")
