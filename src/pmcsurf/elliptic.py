"""Complete elliptic integral K and Jacobi amplitude functions sn, cn, dn.

Both are evaluated through the arithmetic-geometric mean.  The modulus
convention is kappa (not the parameter m = kappa^2): K(kappa) is the integral
of (1 - kappa^2 sin^2 t)^(-1/2) over [0, pi/2], and sn has period 4 K(kappa).
"""

import numpy as np

from .errors import DomainError

# AGM terminates when successive means differ by less than this.
_AGM_TOL = 1e-15
# Hard cap on the Landen recursion depth.
_MAX_DEPTH = 32


def _check_modulus(kappa):
    kappa = float(kappa)
    if not 0.0 <= kappa < 1.0:
        raise DomainError(f"elliptic modulus must satisfy 0 <= kappa < 1, got {kappa}")
    return kappa


def complete_k(kappa):
    """Complete elliptic integral of the first kind via the AGM.

    K(kappa) = pi / (2 * agm(1, sqrt(1 - kappa^2))), absolute error below 1e-12
    on [0, 1).
    """
    kappa = _check_modulus(kappa)
    a, b = 1.0, np.sqrt(1.0 - kappa * kappa)
    for _ in range(_MAX_DEPTH):
        if abs(a - b) < _AGM_TOL:
            break
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return np.pi / (2.0 * a)


def jacobi_sncndn(x, kappa):
    """Jacobi sn, cn, dn at x for modulus kappa, by the descending Landen recursion.

    Accepts scalars or arrays; the argument is reduced modulo 4 K(kappa) first
    so large inputs do not lose accuracy.  Returns three arrays (sn, cn, dn).
    """
    kappa = _check_modulus(kappa)
    x = np.asarray(x, dtype=float)

    if kappa < 1e-14:
        sn, cn = np.sin(x), np.cos(x)
        return sn, cn, np.ones_like(sn)

    period = 4.0 * complete_k(kappa)
    xr = x - period * np.round(x / period)

    # ascending scale of arithmetic-geometric means
    a = [1.0]
    b = np.sqrt(1.0 - kappa * kappa)
    c = [kappa]
    while c[-1] > _AGM_TOL and len(a) < _MAX_DEPTH:
        an = 0.5 * (a[-1] + b)
        bn = np.sqrt(a[-1] * b)
        c.append(0.5 * (a[-1] - b))
        a.append(an)
        b = bn
    n = len(a) - 1

    # descend through the amplitudes to phi_0, the amplitude of xr
    phi = (2.0**n) * a[n] * xr
    for k in range(n, 0, -1):
        phi = 0.5 * (phi + np.arcsin(np.clip(c[k] / a[k] * np.sin(phi), -1.0, 1.0)))
    sn = np.sin(phi)
    cn = np.cos(phi)
    # dn^2 = 1 - kappa^2 sn^2 written as a sum of two non-negative terms: no cancellation,
    # and no quotient that degenerates at the quarter periods
    dn = np.sqrt(cn * cn + (1.0 - kappa * kappa) * (sn * sn))
    return sn, cn, dn
