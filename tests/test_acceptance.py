"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in
captured output) and enforces a runtime budget alongside its numeric
tolerances.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from biphoton.cli import build_jsa, cmd_purity
from biphoton.fringes import (
    classical_transmission,
    corrected_visibility,
    extract_visibility,
    fringe_scan,
    reverse_hom_coincidence,
    two_mzi_coincidences,
)
from biphoton.scenario import load_bundled
from biphoton.schmidt import overlap_from_visibility, purity, visibility_from_overlap
from biphoton.sources import (
    JointSpectralAmplitude,
    build_ring_jsa,
    build_waveguide_jsa,
    jsi,
)
from biphoton.spectral import make_grid
from biphoton.squeezing import (
    SqueezingSpec,
    lossy_density_diagonal,
    mean_photon_number,
    trigger_probability,
)

from oracles import (
    marginal_fwhm,
    naive_ring_jsa,
    naive_waveguide_jsa,
    purity_quadruple_sum,
    random_normalized_jsa,
    symmetrized_jsa,
    two_mzi_circuit,
)


def _verdict(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_acceptance_1_visibility_overlap_table():
    t0 = time.perf_counter()
    observed_v = np.array([98.8, 80.0, 99.0, 94.0]) / 100
    table_n = np.array([97.6, 66.6, 98.0, 88.7]) / 100
    computed = np.array([overlap_from_visibility(v) for v in observed_v])
    worst = float(np.max(np.abs(computed - table_n))) * 100
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        worst < 0.1 and elapsed < 1.0,
        f"overlap table worst error {worst:.3f} pp (tol 0.1), {elapsed:.2f}s (< 1s)",
    )


def test_acceptance_2_accidental_arithmetic():
    t0 = time.perf_counter()
    v1 = corrected_visibility(0.94, 74)
    v2 = corrected_visibility(0.99, 557)
    err1 = abs(v1 - 0.953) * 100
    err2 = abs(v2 - 0.992) * 100
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        err1 < 0.1 and err2 < 0.1 and elapsed < 1.0,
        f"corrected visibilities {v1:.4f}/{v2:.4f} vs 0.953/0.992 "
        f"(errors {err1:.3f}/{err2:.3f} pp), {elapsed:.2f}s (< 1s)",
    )


def test_acceptance_3_ring_purity_q_invariant():
    t0 = time.perf_counter()
    scenario = load_bundled("sipic2_ring")
    p_high_q = cmd_purity(scenario)["purity"]
    low_q = replace(scenario.source, q_factor=1.5e4)
    p_low_q = cmd_purity(replace(scenario, source=low_q))["purity"]
    elapsed = time.perf_counter() - t0
    in_band = abs(p_high_q - 0.90) <= 0.03
    invariant = abs(p_high_q - p_low_q) <= 0.02
    _verdict(
        3,
        in_band and invariant and elapsed < 30.0,
        f"ring purity {p_high_q:.4f} (0.90 +/- 0.03), Q-sweep gap "
        f"{abs(p_high_q - p_low_q):.4f} (<= 0.02), {elapsed:.1f}s (< 30s)",
    )


def test_acceptance_4_waveguide_purity_ordering():
    t0 = time.perf_counter()
    long_wg = load_bundled("sipic1_waveguide_15mm")
    short_wg = load_bundled("sipic1_waveguide_0p24mm")
    p_long = cmd_purity(long_wg)["purity"]
    p_short = cmd_purity(short_wg)["purity"]
    p_unfiltered = cmd_purity(long_wg, filtered=False)["purity"]
    elapsed = time.perf_counter() - t0
    bands = (
        abs(p_long - 0.81) <= 0.05
        and abs(p_short - 0.86) <= 0.05
        and abs(p_unfiltered - 0.20) <= 0.08
    )
    ordering = p_unfiltered < p_long < p_short
    _verdict(
        4,
        bands and ordering and elapsed < 60.0,
        f"purities unfiltered {p_unfiltered:.4f} < 15mm {p_long:.4f} < "
        f"0.24mm {p_short:.4f}, bands 0.20/0.81/0.86 +/- 0.08/0.05/0.05, "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_acceptance_5_oracle_equivalence():
    t0 = time.perf_counter()
    # (a) builders vs naive scalar quadrature on small grids
    wg = load_bundled("sipic1_waveguide_15mm")
    # (errors relative to the largest entry: unit-L2 entries are all tiny)
    grid = make_grid(wg.grid_center, 4e-9, 17)
    fast = build_waveguide_jsa(wg.pumps[0], wg.pumps[1], wg.source, grid,
                               points_per_fwhm=8, halfwidth_fwhms=4.0)
    slow = naive_waveguide_jsa(wg.pumps[0], wg.pumps[1], wg.source, grid,
                               points_per_fwhm=8, halfwidth_fwhms=4.0)
    err_wg = float(np.max(np.abs(fast.values - slow)) / np.max(np.abs(slow)))
    rg = load_bundled("sipic1_ring")
    grid_r = make_grid(rg.grid_center, 0.8e-9, 21)
    fast_r = build_ring_jsa(rg.pumps[0], rg.pumps[1], rg.source, grid_r,
                            points_per_fwhm=8, halfwidth_fwhms=4.0)
    slow_r = naive_ring_jsa(rg.pumps[0], rg.pumps[1], rg.source, grid_r,
                            points_per_fwhm=8, halfwidth_fwhms=4.0)
    err_ring = float(np.max(np.abs(fast_r.values - slow_r)) / np.max(np.abs(slow_r)))

    # (b) SVD purity vs direct quadruple sum over 100 random grids
    rng = np.random.default_rng(42)
    base = make_grid(1550.12e-9, 1e-9, 12)
    err_purity = 0.0
    for _ in range(100):
        values = random_normalized_jsa(rng, 12) / base.step  # unit L2 with measure
        out = JointSpectralAmplitude(base, values, norm_applied=True)
        err_purity = max(
            err_purity,
            abs(purity(out) - purity_quadruple_sum(values, base.step, base.step)),
        )

    # (c) closed-form two-MZI probabilities vs brute-force state evolution
    err_circuit = 0.0
    for _ in range(20):
        f1, f2 = symmetrized_jsa(rng, 3), symmetrized_jsa(rng, 3)
        inner = np.sum(f1 * np.conj(f2))
        n, d = abs(inner), float(np.angle(inner))
        for _ in range(5):
            phi1, phi2 = rng.uniform(0, 2 * np.pi, 2)
            brute = two_mzi_circuit(f1, f2, phi1, phi2)
            closed = two_mzi_coincidences(n, d, phi1, phi2)
            err_circuit = max(
                err_circuit, max(abs(brute[k] - float(closed[k])) for k in closed)
            )
    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        err_wg <= 1e-9 and err_ring <= 1e-10 and err_purity < 1e-8
        and err_circuit < 1e-9 and elapsed < 120.0,
        f"builder relative errors {err_wg:.2e}/{err_ring:.2e} (<= 1e-9/1e-10), purity error "
        f"{err_purity:.2e} (< 1e-8), circuit error {err_circuit:.2e} (< 1e-9), "
        f"{elapsed:.1f}s (< 120s)",
    )


def test_acceptance_6_fringe_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    phi = np.linspace(0, 2 * np.pi, 100)
    sym_ok = True
    for _ in range(100):  # 100 draws x 100 phases = 1e4 parameter points
        n, d = rng.uniform(0, 1), rng.uniform(-np.pi, np.pi)
        phi1 = rng.uniform(0, 2 * np.pi)
        p = two_mzi_coincidences(n, d, phi1, phi)
        sym_ok &= np.array_equal(p["p13"], p["p24"]) and np.array_equal(p["p14"], p["p23"])
    dense = np.linspace(0, 2 * np.pi, 20001)
    period_coinc = float(
        np.max(np.abs(reverse_hom_coincidence(0.8, 0.3, dense)
                      - reverse_hom_coincidence(0.8, 0.3, dense + np.pi)))
    )
    t_a, _ = classical_transmission(dense)
    t_b, _ = classical_transmission(dense + 2 * np.pi)
    period_classical = float(np.max(np.abs(t_a - t_b)))
    err_vis = 0.0
    delta = 0.37
    aligned = dense - delta / 2.0  # place the fringe extrema exactly on the grid
    for n in (0.05, 0.3, 0.6667, 0.9763, 1.0):
        scan = fringe_scan(n, delta, aligned)
        err_vis = max(err_vis, abs(extract_visibility(scan) - visibility_from_overlap(n)))
    elapsed = time.perf_counter() - t0
    _verdict(
        6,
        sym_ok and period_coinc < 1e-9 and period_classical < 1e-9
        and err_vis < 1e-9 and elapsed < 10.0,
        f"pairwise symmetry {sym_ok}, pi/2pi periodicity residuals "
        f"{period_coinc:.1e}/{period_classical:.1e}, visibility error "
        f"{err_vis:.1e} (< 1e-9), {elapsed:.1f}s (< 10s)",
    )


def test_acceptance_7_squeezing_reductions():
    t0 = time.perf_counter()
    err = 0.0
    for xi in (0.05, 0.3, 0.8, 1.5):
        spec = SqueezingSpec(global_xi=xi, schmidt_coefficients=np.array([1.0]))
        err = max(err, abs(mean_photon_number(spec) - np.sinh(xi) ** 2))
        err = max(err, abs(trigger_probability(spec) - (1 - 1 / np.cosh(xi))))
        dark = SqueezingSpec(
            global_xi=xi,
            schmidt_coefficients=np.array([1.0]),
            transmissions=np.array([0.0]),
        )
        err = max(err, abs(mean_photon_number(dark)), abs(trigger_probability(dark)))
    norm_err = 0.0
    for xi, eta in ((0.3, 1.0), (0.8, 0.6), (1.2, 0.25)):
        norm_err = max(norm_err, abs(np.sum(lossy_density_diagonal(xi, eta)) - 1.0))
    elapsed = time.perf_counter() - t0
    _verdict(
        7,
        err < 1e-12 and norm_err < 1e-9 and elapsed < 5.0,
        f"single-mode reduction error {err:.1e} (< 1e-12), diagonal norm error "
        f"{norm_err:.1e} (< 1e-9), {elapsed:.1f}s (< 5s)",
    )


def test_acceptance_8_joint_spectrum_shapes():
    t0 = time.perf_counter()
    fwhms = {}
    for name, q in (("sipic1_ring", 1.5e4), ("sipic2_ring", 3.0e4)):
        scenario = load_bundled(name)
        out = build_jsa(scenario, filtered=False)
        marg = jsi(out).sum(axis=1)
        lam_nm = out.grid.wavelengths() * 1e9
        fwhms[name] = marginal_fwhm(lam_nm, marg)
    ring1_ok = abs(fwhms["sipic1_ring"] - 0.10) <= 0.015
    ring2_ok = abs(fwhms["sipic2_ring"] - 0.05) <= 0.0075
    wg = load_bundled("sipic1_waveguide_15mm")
    out = build_jsa(wg, filtered=True)
    lam = out.grid.wavelengths()
    half_band = wg.filter_spec.bandwidth / 2 + out.grid.step * 0  # wavelength test
    in_band = np.abs(lam - wg.filter_spec.center_wavelength) <= half_band * 1.02
    weight = np.abs(out.values) ** 2 * out.measure
    in_fraction = float(weight[np.ix_(in_band, in_band)].sum() / weight.sum())
    elapsed = time.perf_counter() - t0
    _verdict(
        8,
        ring1_ok and ring2_ok and in_fraction > 0.99 and elapsed < 60.0,
        f"ring marginal FWHM {fwhms['sipic1_ring']:.4f}/{fwhms['sipic2_ring']:.4f} nm "
        f"(0.10/0.05 +/- 15%), filtered waveguide in-band fraction "
        f"{in_fraction:.6f} (> 0.99), {elapsed:.1f}s (< 60s)",
    )
