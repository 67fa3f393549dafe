"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way: scalar loops, explicit
quadrature sums, and brute-force two-photon state evolution through
elementary coupler matrices. Nothing imports the package's builders.
"""
from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from biphoton.spectral import C_VACUUM


def _gaussian_amp(omega, w0, fwhm):
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    return math.exp(-((omega - w0) ** 2) / (2.0 * sigma**2)) / (math.pi * sigma**2) ** 0.25


def _lorentzian_amp(omega, w0, fwhm):
    gamma = fwhm / (2.0 * math.sqrt(3.0))
    return gamma / ((gamma + 1j * (omega - w0)) * math.sqrt(math.pi * gamma))


def _pump_amp(line, omega):
    if line.shape == "gaussian":
        return _gaussian_amp(omega, line.center_omega, line.linewidth_fwhm)
    return _lorentzian_amp(omega, line.center_omega, line.linewidth_fwhm)


def _sinc(x):
    if abs(x) < 1e-12:
        return 1.0
    return math.sin(x) / x


def _k_taylor(model, omega):
    d = omega - model.reference_omega
    return model.beta2 * d**2 / 2.0 + model.beta3 * d**3 / 6.0


def _pump_nodes(line, points_per_fwhm, halfwidth_fwhms):
    n = int(round(2 * halfwidth_fwhms * points_per_fwhm)) + 1
    half = halfwidth_fwhms * line.linewidth_fwhm
    nodes = [line.center_omega - half + 2.0 * half * k / (n - 1) for k in range(n)]
    step = nodes[1] - nodes[0]
    weights = [step] * n
    weights[0] = weights[-1] = step / 2.0
    return nodes, weights


def _normalize_grid(values, ds, di):
    norm2 = sum(abs(v) ** 2 for row in values for v in row) * ds * di
    scale = 1.0 / math.sqrt(norm2)
    return np.array([[v * scale for v in row] for row in values])


def naive_waveguide_jsa(pump1, pump2, source, grid, points_per_fwhm=16, halfwidth_fwhms=8.0):
    """Scalar-loop quadrature of the waveguide joint spectrum."""
    nodes, weights = _pump_nodes(pump1, points_per_fwhm, halfwidth_fwhms)
    pts = list(grid.points())
    model = source.dispersion
    values = []
    for ws in pts:
        row = []
        for wi in pts:
            acc = 0.0 + 0.0j
            for node, wgt in zip(nodes, weights):
                wp2 = ws + wi - node
                dk = _k_taylor(model, ws) + _k_taylor(model, wi) - _k_taylor(model, node) - _k_taylor(model, wp2)
                x = dk * source.length / 2.0
                pm = cmath.exp(1j * x) * _sinc(x)
                acc += wgt * _pump_amp(pump1, node) * _pump_amp(pump2, wp2) * pm
            row.append(acc)
        values.append(row)
    return _normalize_grid(values, grid.step, grid.step)


def naive_ring_jsa(pump1, pump2, ring, grid, points_per_fwhm=16, halfwidth_fwhms=8.0):
    """Scalar-loop quadrature of the microring joint spectrum."""

    def resonance(lam):
        w0 = 2.0 * math.pi * C_VACUUM / lam
        gamma = w0 / ring.q_factor
        return w0, gamma

    w_si, g_si = resonance(ring.center_wavelength)
    w_p1, g_p1 = resonance(
        ring.center_wavelength - ring.pump_comb_index * ring.fsr + ring.detuning_p1
    )
    w_p2, g_p2 = resonance(
        ring.center_wavelength + ring.pump_comb_index * ring.fsr + ring.detuning_p2
    )

    def lor(omega, w0, gamma):
        half = gamma / 2.0
        return half / (half + 1j * (omega - w0))

    nodes, weights = _pump_nodes(pump1, points_per_fwhm, halfwidth_fwhms)
    pts = list(grid.points())
    values = []
    for ws in pts:
        row = []
        for wi in pts:
            acc = 0.0 + 0.0j
            for node, wgt in zip(nodes, weights):
                wp2 = ws + wi - node
                acc += (
                    wgt
                    * _pump_amp(pump1, node)
                    * lor(node, w_p1, g_p1)
                    * _pump_amp(pump2, wp2)
                    * lor(wp2, w_p2, g_p2)
                )
            row.append(acc * lor(ws, w_si, g_si) * lor(wi, w_si, g_si))
        values.append(row)
    return _normalize_grid(values, grid.step, grid.step)


def purity_quadruple_sum(values, ds, di):
    """Purity as the direct quadruple quadrature sum (no SVD).

    P = sum over (s, i, s', i') of F(s,i) F*(s',i) F(s',i') F*(s,i')
    times (ds di)^2, for an L2-normalized grid F.
    """
    n_s, n_i = values.shape
    total = 0.0 + 0.0j
    for s in range(n_s):
        for s2 in range(n_s):
            inner1 = 0.0 + 0.0j
            inner2 = 0.0 + 0.0j
            for i in range(n_i):
                inner1 += values[s, i] * np.conj(values[s2, i])
                inner2 += values[s2, i] * np.conj(values[s, i])
            total += inner1 * inner2
    return float((total * (ds * di) ** 2).real)


def random_normalized_jsa(rng, n):
    """Random complex grid function with unit discrete L2 norm (step 1)."""
    f = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return f / np.sqrt(np.sum(np.abs(f) ** 2))


def symmetrized_jsa(rng, n):
    f = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    f = (f + f.T) / 2.0
    return f / np.sqrt(np.sum(np.abs(f) ** 2))


def _pair_probabilities(g_out, n_channels, n_freq):
    """Coincidence probabilities between channel pairs of a two-photon state.

    ``g_out`` is the symmetric creation-operator tensor over modes
    (channel, frequency). The unordered Fock amplitude for distinct modes
    (mu, nu) is 2 G[mu, nu]; for mu == nu it is sqrt(2) G[mu, mu].
    """
    m = n_channels * n_freq
    norm2 = 0.0
    for mu in range(m):
        norm2 += abs(math.sqrt(2.0) * g_out[mu, mu]) ** 2
        for nu in range(mu + 1, m):
            norm2 += abs(2.0 * g_out[mu, nu]) ** 2
    probs = {}
    for a, b in itertools.combinations(range(n_channels), 2):
        block = g_out[a * n_freq : (a + 1) * n_freq, b * n_freq : (b + 1) * n_freq]
        probs[f"p{a + 1}{b + 1}"] = float(np.sum(np.abs(2.0 * block) ** 2) / norm2)
    return probs


def _evolve_pair_state(f1, f2, pair_phase, spatial_transfer):
    """Evolve (S1 + e^{i pair_phase} S2)/sqrt(2) through a spatial network."""
    n = f1.shape[0]
    g_in = np.zeros((2 * n, 2 * n), dtype=complex)
    g_in[:n, :n] = f1
    g_in[n:, n:] = cmath.exp(1j * pair_phase) * f2
    g_in /= math.sqrt(2.0)
    u = np.kron(spatial_transfer, np.eye(n))
    g_out = u @ g_in @ u.T
    return (g_out + g_out.T) / 2.0


def reverse_hom_circuit(f1, f2, phi):
    """Brute-force p12 of the single-MZI circuit on symmetric unit-norm f1, f2."""
    coupler = np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2.0)
    g_out = _evolve_pair_state(f1, f2, -2.0 * phi, coupler)
    return _pair_probabilities(g_out, 2, f1.shape[0])["p12"]


def two_mzi_circuit(f1, f2, phi1, phi2):
    """Brute-force coincidence probabilities of the two-MZI circuit.

    Each source feeds a 1x2 splitter; the top arms meet in one 2x2
    coupler (outputs 1, 2), the bottom arms in another (outputs 3, 4),
    with a phase shifter on source 1's bottom arm.
    """
    split = np.zeros((4, 2), dtype=complex)
    split[0, 0] = split[1, 1] = 1.0 / math.sqrt(2.0)
    split[2, 0] = split[3, 1] = 1j / math.sqrt(2.0)
    shifter = np.diag([1.0, 1.0, cmath.exp(-1j * phi2), 1.0]).astype(complex)
    couplers = np.eye(4, dtype=complex)
    couplers[np.ix_([0, 1], [0, 1])] = np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2.0)
    couplers[np.ix_([2, 3], [2, 3])] = np.array([[1j, 1.0], [1.0, 1j]]) / math.sqrt(2.0)
    g_out = _evolve_pair_state(f1, f2, -2.0 * phi1, couplers @ shifter @ split)
    return _pair_probabilities(g_out, 4, f1.shape[0])


def marginal_fwhm(axis, marginal):
    """FWHM of a sampled peaked curve via linear interpolation of crossings."""
    marginal = np.asarray(marginal, dtype=float)
    peak = marginal.max()
    half = peak / 2.0
    above = marginal >= half
    idx = np.where(above)[0]
    lo, hi = idx[0], idx[-1]

    def crossing(k0, k1):
        y0, y1 = marginal[k0], marginal[k1]
        t = (half - y0) / (y1 - y0)
        return axis[k0] + t * (axis[k1] - axis[k0])

    x_lo = axis[lo] if lo == 0 else crossing(lo - 1, lo)
    x_hi = axis[hi] if hi == len(marginal) - 1 else crossing(hi + 1, hi)
    return abs(x_hi - x_lo)


def naive_lossy_diagonal(xi_mode, eta, max_n=20, tail_tol=1e-10):
    """Lossy squeezed-vacuum Fock diagonal as the explicit double sum.

    Sums every (pair number n, photons lost k) term in log space, and
    doubles n_top from max_n, re-running the whole sum, until the missing
    probability is below tail_tol. Returns p[m] for m = 0 .. 2*n_top.
    """
    n_top = max_n
    while True:
        probs = _double_sum(xi_mode, eta, n_top)
        if 1.0 - probs.sum() < tail_tol:
            return probs
        n_top *= 2


def _double_sum(xi_mode, eta, n_top):
    probs = np.zeros(2 * n_top + 1)
    if xi_mode == 0.0:
        probs[0] = 1.0
        return probs
    log_cosh = math.log(math.cosh(xi_mode))
    log_t2 = 2.0 * math.log(math.tanh(xi_mode))
    log_eta2 = 2.0 * math.log(eta) if eta > 0.0 else -math.inf
    log_loss = math.log(1.0 - eta**2) if eta < 1.0 else -math.inf
    for n in range(n_top + 1):
        # log of tanh^2n * ((2n)! / (2^n n!))^2 / cosh
        base = (
            n * log_t2
            + 2.0 * (math.lgamma(2 * n + 1) - n * math.log(2.0) - math.lgamma(n + 1))
            - log_cosh
        )
        for k in range(2 * n + 1):
            m = 2 * n - k
            if (m > 0 and eta == 0.0) or (k > 0 and eta == 1.0):
                continue
            term = base - math.lgamma(k + 1) - math.lgamma(m + 1)
            if m > 0:
                term += m * log_eta2
            if k > 0:
                term += k * log_loss
            probs[m] += math.exp(term)
    return probs
