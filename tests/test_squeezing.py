import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import naive_lossy_diagonal

from biphoton import squeezing
from biphoton.errors import InvalidArgumentError, TruncationError
from biphoton.squeezing import (
    SqueezingSpec,
    lossy_density_diagonal,
    mean_photon_number,
    trigger_probability,
)


def single_mode(xi, eta=1.0):
    return SqueezingSpec(
        global_xi=xi, schmidt_coefficients=np.array([1.0]), transmissions=np.array([eta])
    )


def test_single_mode_lossless_mean_photon_number():
    for xi in (0.05, 0.3, 1.2):
        assert mean_photon_number(single_mode(xi)) == pytest.approx(np.sinh(xi) ** 2, abs=1e-12)


def test_single_mode_lossless_trigger_probability():
    for xi in (0.05, 0.3, 1.2):
        expected = 1.0 - 1.0 / np.cosh(xi)
        assert trigger_probability(single_mode(xi)) == pytest.approx(expected, abs=1e-12)


def test_zero_transmission_detects_nothing():
    spec = single_mode(0.5, eta=0.0)
    assert mean_photon_number(spec) == 0.0
    assert trigger_probability(spec) == pytest.approx(0.0, abs=1e-15)


def test_mode_xi_scaling():
    r = np.array([0.5, 0.3, 0.2])
    spec = SqueezingSpec(global_xi=0.4, schmidt_coefficients=r)
    assert np.array_equal(spec.mode_xi, 0.4 * np.sqrt(r))


def test_multimode_energy_splits_across_modes():
    r = np.array([0.6, 0.4])
    spec = SqueezingSpec(global_xi=0.3, schmidt_coefficients=r)
    expected = sum(np.sinh(0.3 * np.sqrt(rk)) ** 2 for rk in r)
    assert mean_photon_number(spec) == pytest.approx(expected, abs=1e-12)


def test_zero_transmission_detects_nothing_at_strong_squeezing():
    # tanh(20)**2 rounds to 1, so a sech / sqrt(1 - tanh^2) form divides by zero here
    assert trigger_probability(SqueezingSpec(20.0, [1.0], transmissions=[0.0])) == 0.0


@pytest.mark.parametrize("xi", [1e-8, 1e-7])
def test_weak_squeezing_matches_leading_order(xi):
    # p = 1/2 sum eta^2 (2 - eta^2) xi_k^2 + O(xi^4); 1 - prod cancels here (7e-4 at xi = 1e-6)
    r = np.array([0.7, 0.2, 0.1])
    eta = np.array([1.0, 0.6, 0.3])
    expected = 0.5 * xi**2 * np.sum(r * eta**2 * (2.0 - eta**2))
    spec = SqueezingSpec(xi, r, transmissions=eta)
    assert trigger_probability(spec) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_trigger_probability_bounded_and_monotone():
    r = np.full(8, 1 / 8)
    last = 0.0
    for xi in (0.1, 0.4, 0.8, 1.5):
        p = trigger_probability(SqueezingSpec(global_xi=xi, schmidt_coefficients=r))
        assert 0.0 <= p <= 1.0
        assert p > last
        last = p


def test_lossy_diagonal_normalized():
    for xi, eta in ((0.3, 1.0), (0.5, 0.7), (1.0, 0.3)):
        p = lossy_density_diagonal(xi, eta)
        assert np.all(p >= -1e-15)
        assert np.sum(p) == pytest.approx(1.0, abs=1e-9)


def test_lossless_diagonal_matches_squeezed_vacuum():
    xi = 0.6
    p = lossy_density_diagonal(xi, 1.0)
    # odd photon numbers never occur without loss
    assert np.all(p[1::2] == 0.0)
    t = np.tanh(xi)
    for n in range(5):
        expected = (
            math.factorial(2 * n)
            / (2**n * math.factorial(n)) ** 2
            * t ** (2 * n)
            / np.cosh(xi)
        )
        assert p[2 * n] == pytest.approx(expected, rel=1e-10)


def test_lossy_diagonal_mean_photon_number():
    xi, eta = 0.8, 0.6
    p = lossy_density_diagonal(xi, eta)
    mean = np.sum(np.arange(p.size) * p)
    assert mean == pytest.approx(eta**2 * np.sinh(xi) ** 2, rel=1e-8)


@pytest.mark.parametrize("xi", [0.0, 0.3, 1.0, 2.2])
@pytest.mark.parametrize("eta", [0.0, 0.5, 0.9, 1.0])
def test_lossy_diagonal_matches_double_sum(xi, eta):
    p = lossy_density_diagonal(xi, eta)
    assert p.size == naive_lossy_diagonal(xi, eta).size
    # p is the exact distribution on 0 .. 2*n_top, so the reference is the
    # double sum converged far past that n_top, cut to the same length
    reference = naive_lossy_diagonal(xi, eta, tail_tol=1e-13)[: p.size]
    assert np.max(np.abs(p - reference)) <= 1e-12 * reference.max()


def test_lossy_diagonal_prefix_does_not_depend_on_truncation(monkeypatch):
    p = lossy_density_diagonal(0.3, 0.7)
    monkeypatch.setattr(squeezing, "MAX_N", 160)
    assert np.array_equal(p, lossy_density_diagonal(0.3, 0.7)[: p.size])


def vacuum_probability(xi, eta):
    """sech(xi) / sqrt(1 - tanh^2(xi) (1 - eta^2)^2), evaluated to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(xi)
        e2 = (2 * x).exp()
        t = (e2 - 1) / (e2 + 1)
        sech = 2 * x.exp() / (e2 + 1)
        a = 1 - Decimal(eta) ** 2
        return float(sech / (1 - t * t * a * a).sqrt())


@pytest.mark.parametrize("xi", [0.0, 0.05, 0.7, 1.4, 1.9, 2.5])
@pytest.mark.parametrize("eta", [0.0, 0.1, 0.6, 0.99, 1.0])
def test_lossy_diagonal_vacuum_closed_form_and_mass(xi, eta):
    p = lossy_density_diagonal(xi, eta)
    assert p[0] == pytest.approx(vacuum_probability(xi, eta), rel=1e-15, abs=0.0)
    assert np.sum(p) >= 1.0 - 1e-10


def test_lossy_diagonal_extends_from_max_n_zero(monkeypatch):
    monkeypatch.setattr(squeezing, "MAX_N", 0)
    p = lossy_density_diagonal(0.5, 0.7)
    assert np.sum(p) == pytest.approx(1.0, abs=1e-9)


def test_lossy_diagonal_series_is_capped():
    # tanh^2(12) is 1 - 1.5e-10: the lossless tail stays above TAIL_TOL past 1e5 pairs
    with pytest.raises(TruncationError, match="1e5 terms"):
        lossy_density_diagonal(12.0, 0.5)


def test_spec_validation():
    with pytest.raises(InvalidArgumentError):
        SqueezingSpec(global_xi=-0.1, schmidt_coefficients=np.array([1.0]))
    with pytest.raises(InvalidArgumentError):
        SqueezingSpec(global_xi=0.1, schmidt_coefficients=np.array([-0.5]))
    with pytest.raises(InvalidArgumentError):
        SqueezingSpec(
            global_xi=0.1,
            schmidt_coefficients=np.array([1.0]),
            transmissions=np.array([1.5]),
        )


@pytest.mark.parametrize(
    "bad",
    [
        {"global_xi": math.nan},
        {"global_xi": math.inf},
        {"schmidt_coefficients": [0.5, math.nan]},
        {"schmidt_coefficients": [0.5, math.inf]},
        {"transmissions": [math.nan]},
    ],
)
def test_spec_rejects_non_finite_inputs(bad):
    with pytest.raises(InvalidArgumentError):
        SqueezingSpec(**{"global_xi": 0.1, "schmidt_coefficients": [1.0], **bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_lossy_diagonal_rejects_non_finite_xi(bad):
    with pytest.raises(InvalidArgumentError, match="xi_mode must be finite"):
        lossy_density_diagonal(bad, 0.5)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda: SqueezingSpec(0.1, [0.6, 0.4], transmissions=[0.5] * 3), id="eta-length"
        ),
        pytest.param(
            lambda: SqueezingSpec(0.1, [0.6, 0.4], transmissions=np.ones((2, 2))), id="eta-shape"
        ),
    ],
)
def test_bad_squeezing_arguments_raise_typed_errors(call):
    with pytest.raises(InvalidArgumentError):
        call()


def test_overflowing_spec_warns_at_construction():
    with pytest.warns(RuntimeWarning, match="overflow"):
        spec = SqueezingSpec(1000.0, [1.0], transmissions=[0.5])
    assert mean_photon_number(spec) == math.inf


def reference_moments(spec):
    """Both moments from the spec's inputs alone, in the same expression order."""
    eta2 = spec.transmissions**2
    sinh2 = np.sinh(spec.global_xi * np.sqrt(spec.schmidt_coefficients)) ** 2
    mean = float(np.sum(spec.transmissions**2 * sinh2))
    trigger = float(-np.expm1(-0.5 * np.sum(np.log1p(eta2 * (2.0 - eta2) * sinh2))))
    return mean, trigger


unit = st.floats(0.0, 1.0)


@st.composite
def specs(draw):
    n = draw(st.integers(0, 40))
    r = np.array(draw(st.lists(st.one_of(st.just(0.0), unit), min_size=n, max_size=n)))
    eta = draw(
        st.one_of(
            st.none(),
            st.just(0.0),
            unit,
            st.lists(unit, min_size=n, max_size=n).map(np.array),
        )
    )
    return SqueezingSpec(draw(st.floats(0.0, 3.0)), r, transmissions=eta)


@given(specs())
def test_moments_equal_the_per_call_expressions(spec):
    assert (mean_photon_number(spec), trigger_probability(spec)) == reference_moments(spec)


def cumprod_tail_diagonal(xi_mode, eta, max_n, tail_tol=1e-10):
    """The Fock diagonal with its lossless tail re-summed by ``cumprod`` at each doubling."""
    t2 = math.tanh(xi_mode) ** 2
    sech = 2.0 * math.exp(-xi_mode) / (1.0 + math.exp(-2.0 * xi_mode))
    n_top = max_n
    while True:
        two_n = 2.0 * np.arange(1, n_top + 1)
        if 1.0 - sech * (1.0 + np.cumprod(t2 * (two_n - 1.0) / two_n).sum()) < tail_tol:
            break
        n_top = max(2 * n_top, 1)
    b = eta * eta
    a = 1.0 - b
    s = math.sinh(xi_mode) ** 2
    d = 1.0 + s * b * (1.0 + a)
    c1, c2 = s * a * b / d, s * b * b / d
    prev, cur = 0.0, 1.0 / math.sqrt(d)
    probs = [cur]
    for m in range(2 * n_top):
        prev, cur = cur, (c1 * (2 * m + 1) * cur + c2 * m * prev) / (m + 1)
        probs.append(cur)
    return np.array(probs)


# from 20 pairs at xi 0.3, n_top doubles at mode xi ~ 0.72, 1.02, 1.37, 1.72, 2.06, ...
@pytest.mark.parametrize("xi", [0.0, 0.3, 0.71, 0.73, 1.0, 1.05, 1.35, 1.4, 1.7, 1.75, 2.1, 2.5, 3.0])
def test_running_tail_matches_cumprod_tail_bit_for_bit(monkeypatch, xi):
    for eta, max_n in itertools.product([0.0, 0.45, 1.0], [0, 1, 3, 20, 50]):
        monkeypatch.setattr(squeezing, "MAX_N", max_n)
        got = lossy_density_diagonal(xi, eta)
        want = cumprod_tail_diagonal(xi, eta, max_n)
        assert got.size == want.size and got.tobytes() == want.tobytes()
