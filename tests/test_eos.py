"""Pressure law, sound speed, potential and fundamental derivative.

Closed forms are the production path; the oracles here are finite
differences of the pressure law and adaptive quadrature of a/rho.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from twophase.eos import BarotropicEos
from twophase.errors import ConfigError, EosDomainError


def test_pressure_unit_power_laws():
    assert BarotropicEos(1.0, 1.4).pressure(1.0) == 1.0
    assert BarotropicEos(1.0, 2.0).pressure(1.0) == 1.0


def test_pressure_scaled():
    # 1e5 * 160**1.4, cross-checked with 40-digit arithmetic (mpmath)
    eos = BarotropicEos(1e5, 1.4, 1.0, 0.0)
    assert eos.pressure(160.0) == pytest.approx(121833852.07781622, rel=1e-14)


def test_pressure_offset_and_reference_density():
    eos = BarotropicEos(8.5e8, 2.8, 1e3, 8.4999e8)
    assert eos.pressure(1e3) == pytest.approx(8.5e8 + 8.4999e8, rel=1e-14)


def test_pressure_rejects_nonpositive_density():
    eos = BarotropicEos(1.0, 1.4)
    with pytest.raises(EosDomainError):
        eos.pressure(0.0)
    with pytest.raises(EosDomainError):
        eos.pressure(np.array([1.0, -2.0]))


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigError):
        BarotropicEos(-1.0, 1.4)
    with pytest.raises(ConfigError):
        BarotropicEos(1.0, 0.5)


@pytest.mark.parametrize("value", (float("nan"), float("inf"), float("-inf")))
@pytest.mark.parametrize("name", ("A", "gamma", "rho_ref", "B"))
def test_non_finite_parameters_rejected(name, value):
    # NaN passes no sign check by itself; each parameter is named
    params = {"A": 1.0, "gamma": 1.4, "rho_ref": 1.0, "B": 0.0, name: value}
    with pytest.raises(ConfigError, match=rf"\b{name} must be"):
        BarotropicEos(**params)


def test_sound_speed_values():
    # finite differences of p agree with the closed form to 1e-8
    for gamma, expected in ((2.0, np.sqrt(2.0)), (1.4, np.sqrt(1.4))):
        eos = BarotropicEos(1.0, gamma)
        a = eos.sound_speed(1.0)
        assert a == pytest.approx(expected, rel=1e-14)
        h = 1e-6
        fd = (eos.pressure(1.0 + h) - eos.pressure(1.0 - h)) / (2 * h)
        assert a**2 == pytest.approx(fd, rel=1e-8)


def test_sound_speed_algebraic_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        gamma = rng.uniform(1.01, 3.0)
        eos = BarotropicEos(rng.uniform(0.5, 2e5), gamma, rng.uniform(0.5, 1e3))
        rho = rng.uniform(1e-2, 1e3)
        lhs = eos.sound_speed_sq(rho) * eos.rho_ref**gamma / (eos.A * gamma)
        assert lhs == pytest.approx(rho ** (gamma - 1.0), rel=1e-12)


def test_sound_speed_fd_property():
    # |a^2 - (p(rho+h)-p(rho-h))/2h| / a^2 < 1e-6 with h = 1e-6 rho
    rng = np.random.default_rng(42)
    for _ in range(1000):
        gamma = rng.uniform(1.0 + 1e-6, 3.0)
        eos = BarotropicEos(1.0, gamma)
        rho = rng.uniform(1e-3, 1e4)
        h = 1e-6 * rho
        fd = (eos.pressure(rho + h) - eos.pressure(rho - h)) / (2 * h)
        assert abs(eos.sound_speed_sq(rho) - fd) / eos.sound_speed_sq(rho) < 1e-6


def test_psi_differences():
    eos = BarotropicEos(1.0, 2.0)
    assert eos.psi(1.0) - eos.psi(1.0) == 0.0
    # integral of a^2/rho over [1, 2] equals Psi(2) - Psi(1)
    val, err = quad(lambda r: eos.sound_speed_sq(r) / r, 1.0, 2.0, epsabs=1e-12)
    assert eos.psi(2.0) - eos.psi(1.0) == pytest.approx(val, abs=1e-10)
    assert eos.psi(2.0) - eos.psi(1.0) == pytest.approx(2.0, rel=1e-14)


def test_psi_closed_form_gamma_14():
    eos = BarotropicEos(1.0, 1.4)
    rng = np.random.default_rng(3)
    for rho in rng.uniform(0.1, 10.0, 20):
        assert eos.psi(rho) == pytest.approx(3.5 * rho**0.4, rel=1e-13)
        h = 1e-6 * rho
        fd = (eos.psi(rho + h) - eos.psi(rho - h)) / (2 * h)
        assert fd == pytest.approx(eos.sound_speed_sq(rho) / rho, rel=1e-8)


def test_psi_log_branch():
    eos = BarotropicEos(2.0, 1.0, rho_ref=0.5)
    # dPsi/drho = a^2/rho with a^2 = A/rho_ref constant
    h = 1e-7
    fd = (eos.psi(1.5 + h) - eos.psi(1.5 - h)) / (2 * h)
    assert fd == pytest.approx(eos.sound_speed_sq(1.5) / 1.5, rel=1e-8)


def test_psi_rho_derivative_property():
    rng = np.random.default_rng(11)
    for _ in range(200):
        gamma = rng.uniform(1.01, 3.0)
        eos = BarotropicEos(rng.uniform(0.5, 2.0), gamma)
        rho = rng.uniform(0.05, 50.0)
        h = 1e-6 * rho
        fd = (eos.psi(rho + h) - eos.psi(rho - h)) / (2 * h)
        assert abs(fd * rho - eos.sound_speed_sq(rho)) / eos.sound_speed_sq(rho) < 1e-6


def test_fundamental_derivative_values():
    assert BarotropicEos(1.0, 1.4).fundamental_derivative(2.0) == pytest.approx(1.2)
    # isothermal ideal gas: gamma = 1 law
    assert BarotropicEos(1.0, 1.0).fundamental_derivative(5.0) == pytest.approx(1.0)
    assert BarotropicEos(1.0, 2.0).fundamental_derivative(0.3) == pytest.approx(1.5)


def test_fundamental_derivative_fd_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        gamma = rng.uniform(1.01, 3.0)
        eos = BarotropicEos(1.0, gamma)
        rho = rng.uniform(0.05, 100.0)
        h = 1e-6 * rho
        dadr = (eos.sound_speed(rho + h) - eos.sound_speed(rho - h)) / (2 * h)
        g_fd = 1.0 + rho / eos.sound_speed(rho) * dadr
        assert abs(eos.fundamental_derivative(rho) - g_fd) < 1e-6


def test_riemann_integral_basics():
    eos = BarotropicEos(1.0, 1.4)
    assert eos.riemann_integral(1.3, 1.3) == 0.0
    # closed form frozen from 2(a(2) - a(1))/(gamma - 1)
    assert eos.riemann_integral(1.0, 2.0) == pytest.approx(0.8797113317781285, rel=1e-14)
    assert eos.riemann_integral(2.0, 1.0) == pytest.approx(-eos.riemann_integral(1.0, 2.0), rel=1e-14)


def test_riemann_integral_quadrature_oracle():
    rng = np.random.default_rng(19)
    for _ in range(50):
        gamma = rng.uniform(1.01, 3.0)
        eos = BarotropicEos(rng.uniform(0.5, 2.0), gamma, rng.uniform(0.5, 2.0))
        a, b = sorted(rng.uniform(0.05, 20.0, 2))
        if b - a < 1e-3:
            continue
        val, _ = quad(lambda r: eos.sound_speed(r) / r, a, b, epsrel=1e-12, limit=200)
        assert abs(eos.riemann_integral(a, b) - val) <= 1e-9 * max(abs(val), 1e-12)


def test_riemann_integral_log_branch():
    eos = BarotropicEos(3.0, 1.0)
    val, _ = quad(lambda r: eos.sound_speed(r) / r, 0.5, 4.0, epsrel=1e-12)
    assert eos.riemann_integral(0.5, 4.0) == pytest.approx(val, rel=1e-10)


# ---------------------------------------------------------------------------
# the float fast path of the density check
# ---------------------------------------------------------------------------

PARITY_EOS = (
    BarotropicEos(1.0, 1.4),
    BarotropicEos(8.5e8, 2.8, 1e3, 8.4999e8),
    BarotropicEos(2.0, 1.0),
)
METHODS = ("pressure", "sound_speed_sq", "sound_speed", "psi", "fundamental_derivative")


def _kinds(x):
    """x as a Python float, an np.float64, a 0-d array and a 3-element array."""
    return float(x), np.float64(x), np.array(x), np.full(3, x)


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


def _formulas(eos):
    """Each checked method as its unchecked formula, the pre-fast-path expressions."""
    def riemann_integral(a, b):
        if eos.gamma == 1.0:
            return np.sqrt(eos._k) * np.log(np.asarray(b, dtype=float) / a)
        return 2.0 * (np.sqrt(eos._sound_speed_sq(b)) - np.sqrt(eos._sound_speed_sq(a))) / (eos.gamma - 1.0)

    return {
        "pressure": eos._pressure,
        "sound_speed_sq": eos._sound_speed_sq,
        "sound_speed": lambda r: np.sqrt(eos._sound_speed_sq(r)),
        "psi": eos._psi,
        "fundamental_derivative": lambda r: np.full_like(
            np.asarray(r, dtype=float), 0.5 * (eos.gamma + 1.0)
        )[()],
        "riemann_integral": riemann_integral,
    }


@pytest.mark.parametrize("eos", PARITY_EOS, ids=("ideal", "stiff", "isothermal"))
@pytest.mark.parametrize("rho", (0.37, 1.0, 1234.5))
def test_checked_methods_match_the_array_path_bit_for_bit(eos, rho):
    # on every input kind each checked method returns its formula's bits;
    # the two scalar kinds agree with each other and the 0-d array with
    # every element of the 3-element one.  Scalars are not compared with
    # arrays: numpy's SIMD array pow and libm's scalar pow may differ in
    # the last bit, before and after the fast path alike
    formulas = _formulas(eos)
    for name in (*METHODS, "riemann_integral"):
        method = getattr(eos, name)
        args = (lambda x: (x, 2.0 * x)) if name == "riemann_integral" else (lambda x: (x,))
        got = [method(*args(x)) for x in _kinds(rho)]
        for x, value in zip(_kinds(rho), got):
            assert _bits(value) == _bits(formulas[name](*args(x))), (name, type(x))
        assert _bits(got[0]) == _bits(got[1]), name
        assert np.shape(got[3]) == (3,) and _bits(np.full(3, got[2])) == _bits(got[3]), name
        assert isinstance(got[0], float), name  # scalar in, scalar out


@pytest.mark.parametrize("bad", (0.0, -1.0, np.nan))
def test_density_check_rejects_nonpositive_and_nan_on_every_input_kind(bad):
    # `not rho > 0.0` rejects NaN; a fast path written as `rho <= 0.0`
    # would let NaN through on the scalar kinds
    for eos in PARITY_EOS:
        for x in _kinds(bad):
            for name in METHODS:
                with pytest.raises(EosDomainError):
                    getattr(eos, name)(x)
            for args in ((x, 1.0), (1.0, x)):
                with pytest.raises(EosDomainError):
                    eos.riemann_integral(*args)


def test_density_check_passes_infinity_on_every_input_kind():
    for eos in PARITY_EOS:
        for x in _kinds(np.inf):
            for name in METHODS:
                assert np.all(np.asarray(getattr(eos, name)(x)) > 0.0), name
            assert np.all(np.asarray(eos.riemann_integral(1.0, x)) == np.inf)
