"""Output checks applied to every benchmark request, and their self-test.

Each check returns a list of problems; an empty list means the output
passed. A request whose output has any problem counts as failed.
"""
from __future__ import annotations

import math

import numpy as np

PURITY_REL_TOL = 1e-9  # against purities recorded at the seed
NORM_TOL = 1e-9
SYMMETRY_TOL = 1e-12  # relative to the largest entry
FOCK_TOL = 1e-10  # missing probability mass allowed by the Fock series
P0_REL_TOL = 1e-9
EXACT_TOL = 1e-12


def check_jsi(intensity, step_s, step_i, label="jsi") -> list:
    """Unit L2 norm and exchange symmetry of |F|^2, as read back from a JSI file."""
    intensity = np.asarray(intensity, dtype=float)
    if intensity.ndim != 2 or intensity.shape[0] != intensity.shape[1]:
        return [f"{label}: JSI is not a square grid, shape {intensity.shape}"]
    if not np.all(np.isfinite(intensity)) or np.any(intensity < 0):
        return [f"{label}: JSI has negative or non-finite entries"]
    problems = []
    norm = float(np.sum(intensity) * step_s * step_i)
    if abs(norm - 1.0) > NORM_TOL:
        problems.append(f"{label}: sum |F|^2 ds di = {norm!r} is not 1")
    asym = float(np.max(np.abs(intensity - intensity.T))) / (float(np.max(intensity)) or 1.0)
    if asym > SYMMETRY_TOL:
        problems.append(f"{label}: exchange symmetry F[s,i]=F[i,s] broken by {asym:.3e} of max")
    return problems


def check_purity(value, reference, label="purity") -> list:
    """Purity in (0, 1] and equal to the recorded value within 1e-9 relative."""
    if not 0.0 < value <= 1.0:
        return [f"{label}: purity {value!r} outside (0, 1]"]
    if reference is None:
        return [f"{label}: no recorded purity to compare with"]
    rel = abs(value - reference) / reference
    if rel > PURITY_REL_TOL:
        return [f"{label}: purity {value!r} differs from recorded {reference!r} by {rel:.3e}"]
    return []


def check_schmidt(coefficients, reference, label="schmidt") -> list:
    """Nonnegative, nonincreasing, summing to 1 (unit norm), purity = sum r^2."""
    r = np.asarray(coefficients, dtype=float)
    if r.size == 0 or not np.all(np.isfinite(r)) or np.any(r < 0):
        return [f"{label}: Schmidt coefficients empty, negative or non-finite"]
    problems = []
    if np.any(np.diff(r) > 0):
        problems.append(f"{label}: Schmidt coefficients are not nonincreasing")
    if abs(float(r.sum()) - 1.0) > NORM_TOL:
        problems.append(f"{label}: Schmidt coefficients sum to {float(r.sum())!r}, not 1")
    return problems + check_purity(float(np.sum(r**2)), reference, label)


def check_schmidt_csv(text, reference, label="schmidt") -> list:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "mode_index,coefficient":
        return [f"{label}: Schmidt CSV has no column header"]
    return check_schmidt([float(ln.split(",")[1]) for ln in lines[1:]], reference, label)


def check_purity_report(report, reference, label="purity") -> list:
    problems = check_purity(report["purity"], reference, label)
    if not report["schmidt_tail"] >= 0.0:
        problems.append(f"{label}: negative Schmidt tail {report['schmidt_tail']!r}")
    if not 0.0 < report["survival"] <= 1.0:
        problems.append(f"{label}: filter survival {report['survival']!r} outside (0, 1]")
    return problems


def check_visibility(n_overlap, visibility, label="fringe") -> list:
    """V = 2N/(1+N)."""
    expected = 2.0 * n_overlap / (1.0 + n_overlap)
    if abs(visibility - expected) > EXACT_TOL:
        return [f"{label}: visibility {visibility!r} is not 2N/(1+N) = {expected!r}"]
    return []


def check_fringe(report, single_source, n_rows, steps, label="fringe") -> list:
    problems = []
    n = report["overlap"]
    if single_source and abs(n - 1.0) > EXACT_TOL:
        problems.append(f"{label}: self-overlap {n!r} is not 1")
    problems += check_visibility(n, report["visibility"], label)
    if abs(report["visibility_scan"] - report["visibility"]) > NORM_TOL:
        problems.append(f"{label}: scanned visibility {report['visibility_scan']!r} disagrees")
    corrected = report.get("corrected_visibility")
    if corrected is not None and not report["visibility"] - EXACT_TOL <= corrected <= 1.0:
        problems.append(f"{label}: corrected visibility {corrected!r} out of range")
    if n_rows != steps:
        problems.append(f"{label}: fringe file has {n_rows} rows, expected {steps}")
    return problems


def check_overlap_column(visibility, n_overlap, label="table1") -> list:
    """Table 1 deduces N from the observed V: N = V/(2-V), the inverse of V = 2N/(1+N)."""
    return check_visibility(n_overlap, visibility, label)


def check_moments(n_mean, p_click, xi, eta, r_sum, label="moments") -> list:
    """Mean photon number and click probability of a multimode squeezer.

    sinh^2(xi sqrt r) is superadditive and >= xi^2 r, so for Schmidt
    weights summing to S: eta^2 xi^2 S <= <n> <= eta^2 sinh^2(xi sqrt S).
    A click needs a photon, so P(click) <= <n>.
    """
    lo = eta**2 * xi**2 * r_sum
    hi = eta**2 * math.sinh(xi * math.sqrt(r_sum)) ** 2
    problems = []
    if not lo * (1 - NORM_TOL) <= n_mean <= hi * (1 + NORM_TOL):
        problems.append(f"{label}: <n> = {n_mean!r} outside [{lo!r}, {hi!r}]")
    if not 0.0 < p_click <= min(1.0, n_mean * (1 + NORM_TOL)):
        problems.append(f"{label}: click probability {p_click!r} not in (0, min(1, <n>)]")
    return problems


def check_stats(report, label="stats") -> list:
    problems = check_moments(
        report["mean_photon_number"], report["trigger_probability"], report["xi"], report["eta"], 1.0, label
    )
    if report["n_modes"] < 1:
        problems.append(f"{label}: no Schmidt modes reported")
    return problems


def check_fock(probs, xi_mode, eta, label="fock") -> list:
    """Fock probabilities >= 0 summing to >= 1 - 1e-10; p[0] matches the closed form."""
    p = np.asarray(probs, dtype=float)
    if p.size == 0 or not np.all(np.isfinite(p)) or np.any(p < 0):
        return [f"{label}: Fock probabilities empty, negative or non-finite"]
    problems = []
    total = float(p.sum())
    if not 1.0 - FOCK_TOL <= total <= 1.0 + FOCK_TOL:
        problems.append(f"{label}: Fock probabilities sum to {total!r}")
    t = math.tanh(xi_mode)
    p0 = 1.0 / (math.cosh(xi_mode) * math.sqrt(1.0 - (1.0 - eta**2) ** 2 * t * t))
    if abs(p[0] - p0) > P0_REL_TOL * p0:
        problems.append(f"{label}: p[0] = {p[0]!r}, closed form gives {p0!r}")
    return problems


# ------------------------------------------------------------------ self-test


def self_test() -> list:
    """Feed each check a correct and a corrupted output; return what went wrong.

    The corruptions are a row-shifted JSA, a purity perturbed by 1e-8
    relative, and a Fock vector with 1e-6 of its mass removed. Each check
    must pass the correct input and reject the corrupted one.
    """
    from biphoton.squeezing import lossy_density_diagonal  # the program's own Fock diagonal

    x = np.linspace(-4.0, 4.0, 48)
    step = float(x[1] - x[0])
    s, i = np.meshgrid(x, x, indexing="ij")
    jsa = np.exp(-((s + i) ** 2) / 2.0 - (s - i) ** 2 / 8.0) * np.exp(0.3j * (s + i))
    jsa /= np.sqrt(np.sum(np.abs(jsa) ** 2) * step * step)
    shifted = np.roll(jsa, 1, axis=0)
    r = np.linalg.svd(jsa * step, compute_uv=False) ** 2
    purity = float(np.sum(r**2))
    fock = lossy_density_diagonal(0.9, 0.6)

    cases = [
        ("jsi", check_jsi(np.abs(jsa) ** 2, step, step), check_jsi(np.abs(shifted) ** 2, step, step)),
        ("purity", check_purity(purity, purity), check_purity(purity * (1 + 1e-8), purity)),
        ("schmidt", check_schmidt(r, purity), check_schmidt(r[::-1], purity)),
        ("fock", check_fock(fock, 0.9, 0.6), check_fock(fock * (1 - 1e-6), 0.9, 0.6)),
        ("visibility", check_visibility(0.8, 1.6 / 1.8), check_visibility(0.8, 0.8)),
        ("moments", check_moments(0.7, 0.3, 1.0, 0.8, 1.0), check_moments(0.7, 0.8, 1.0, 0.8, 1.0)),
    ]
    problems = []
    for name, good, bad in cases:
        if good:
            problems.append(f"self-test: {name} check rejects a correct output: {good}")
        if not bad:
            problems.append(f"self-test: {name} check accepts a corrupted output")
    return problems
