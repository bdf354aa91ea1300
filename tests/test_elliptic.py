import numpy as np
import pytest
from scipy.integrate import quad

from pmcsurf.elliptic import complete_k, jacobi_sncndn
from pmcsurf.errors import DomainError


def quadrature_k(kappa):
    """Independent oracle: adaptive quadrature of the defining integral."""
    val, err = quad(lambda t: 1.0 / np.sqrt(1.0 - (kappa * np.sin(t)) ** 2), 0.0, np.pi / 2, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-11
    return val


def rk4_jacobi(x, kappa, n_steps=4000):
    """Independent oracle: integrate sn' = cn dn, cn' = -sn dn, dn' = -kappa^2 sn cn."""

    def rhs(y):
        sn, cn, dn = y
        return np.array([cn * dn, -sn * dn, -(kappa**2) * sn * cn])

    y = np.array([0.0, 1.0, 1.0])
    h = x / n_steps
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def test_complete_k_degenerate():
    assert complete_k(0.0) == pytest.approx(np.pi / 2, abs=1e-15)


def test_complete_k_against_quadrature():
    # frozen value from the quadrature oracle at kappa = 0.5
    assert quadrature_k(0.5) == pytest.approx(1.6857503548, abs=1e-9)
    assert complete_k(0.5) == pytest.approx(1.6857503548, abs=1e-10)
    for kappa in np.arange(0.1, 0.95, 0.1):
        assert complete_k(kappa) == pytest.approx(quadrature_k(kappa), abs=1e-10)


def test_complete_k_monotone_and_finite():
    k999 = complete_k(0.999)
    assert np.isfinite(k999)
    assert k999 > complete_k(0.99)


def test_modulus_domain():
    with pytest.raises(DomainError):
        complete_k(1.0)
    with pytest.raises(DomainError):
        jacobi_sncndn(0.3, 1.2)
    with pytest.raises(DomainError):
        complete_k(-0.1)


def test_jacobi_circular_limit():
    x = np.linspace(-3, 3, 41)
    sn, cn, dn = jacobi_sncndn(x, 0.0)
    assert np.allclose(sn, np.sin(x), atol=1e-14)
    assert np.allclose(cn, np.cos(x), atol=1e-14)
    assert np.allclose(dn, 1.0, atol=1e-14)


def test_jacobi_origin():
    sn, cn, dn = jacobi_sncndn(0.0, 0.7)
    assert sn == pytest.approx(0.0, abs=1e-15)
    assert cn == pytest.approx(1.0, abs=1e-15)
    assert dn == pytest.approx(1.0, abs=1e-15)


def test_jacobi_against_rk4_oracle():
    sn, cn, dn = jacobi_sncndn(1.0, 0.5)
    ref = rk4_jacobi(1.0, 0.5)
    assert sn == pytest.approx(ref[0], abs=1e-9)
    assert cn == pytest.approx(ref[1], abs=1e-9)
    assert dn == pytest.approx(ref[2], abs=1e-9)


def test_jacobi_quarter_period_dn():
    # dn at the quarter periods (cn = 0) must not degenerate
    kappa = 0.5
    K = complete_k(kappa)
    for x in (K, 3.0 * K, -K):
        sn, cn, dn = jacobi_sncndn(x, kappa)
        assert abs(abs(sn) - 1.0) < 1e-12
        assert abs(cn) < 1e-12
        assert dn == pytest.approx(np.sqrt(1.0 - kappa**2), abs=1e-12)
    ref = rk4_jacobi(K, kappa, n_steps=8000)
    _, _, dnK = jacobi_sncndn(K, kappa)
    assert dnK == pytest.approx(ref[2], abs=1e-10)


@pytest.mark.parametrize("kappa_sq", [1.0 / 3.0, 8.0 / 9.0])
def test_dn_keeps_its_digits_near_and_across_the_quarter_periods(kappa_sq):
    # against sqrt(1 - kappa^2 sn^2) in extended precision from the same sn: on a
    # +-2e-3 window around K, where cn passes 0, and across +-4K.  The quotient
    # cn / cos(phi_1 - phi_0) missed it by up to 1.8e-12 relative here
    kappa = np.sqrt(kappa_sq)
    K = complete_k(kappa)
    x = np.r_[np.linspace(K - 2e-3, K + 2e-3, 2001), np.linspace(-4.0 * K, 4.0 * K, 4001)]
    sn, _, dn = jacobi_sncndn(x, kappa)
    ref = np.sqrt(1 - np.longdouble(kappa) ** 2 * np.longdouble(sn) ** 2)
    assert float(np.max(np.abs(dn - ref) / ref)) < 1e-14


def test_pythagorean_identities_random():
    rng = np.random.default_rng(11)
    x = rng.uniform(-30.0, 30.0, size=10000)
    kappa = rng.uniform(0.0, 0.99, size=10000)
    for xi, ki in zip(x[:100], kappa[:100]):
        sni, cni, dni = jacobi_sncndn(xi, ki)
        assert abs(sni**2 + cni**2 - 1.0) < 1e-10
        assert abs(dni**2 + ki**2 * sni**2 - 1.0) < 1e-10
    # vectorized full sweep, one modulus at a time is not needed: group by modulus
    for ki in np.linspace(0.05, 0.95, 10):
        sn, cn, dn = jacobi_sncndn(x, ki)
        assert np.max(np.abs(sn**2 + cn**2 - 1.0)) < 1e-10
        assert np.max(np.abs(dn**2 + ki**2 * sn**2 - 1.0)) < 1e-10


def test_jacobi_periodicity():
    kappa = 0.6
    period = 4.0 * complete_k(kappa)
    x = np.linspace(-2.0, 2.0, 101)
    sn1, _, _ = jacobi_sncndn(x, kappa)
    sn2, _, _ = jacobi_sncndn(x + period, kappa)
    assert np.max(np.abs(sn1 - sn2)) < 1e-9


def test_jacobi_derivative_fd():
    kappa = 0.45
    h = 1e-5
    x = np.linspace(-1.5, 1.5, 31)
    snp, _, _ = jacobi_sncndn(x + h, kappa)
    snm, _, _ = jacobi_sncndn(x - h, kappa)
    _, cn, dn = jacobi_sncndn(x, kappa)
    fd = (snp - snm) / (2 * h)
    assert np.max(np.abs(fd - cn * dn)) < 5e-9
