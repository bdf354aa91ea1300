"""Curves in M2(eps): the constant-curvature catalog and curve reconstruction.

Constant-curvature curves are produced in closed form from the linear system
alpha' = T, T' = k N - eps alpha (N = J T, arclength parameter), whose
characteristic frequency is nu^2 = k^2 + eps, as one expression in the Stumpff
functions of nu^2 t^2 for every sign of nu^2.  The canonical representatives
land on the classical catalog sets: latitude circles x3 = const, hypercycles
x1 = const, and the horocycle x1 - x3 = -1.

``integrate_curve`` rebuilds a curve from prescribed speed s(x) and geodesic
curvature k(x), the data in which the profile families describe their second
factor.  The curvature sign convention is k = <psi'', J psi'> / |psi'|^3 with
the package-wide orientation of J.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .ambient import (
    check_eps,
    cross_eps,
    factor_constraint,
    inner,
    norm3,
    project_to_factor,
    tangent_project3,
)
from .errors import DomainError, PreconditionError
from .utils import hermite_interp, require_step, span_from_zero, write_columns_csv


# the Taylor coefficients of c1 and c2 in -z, 1/(2j + 1)! and 1/(2j + 2)!, one row per
# power, highest first: past the twelfth, the terms fall below 1e-22 on |z| < 1
_STUMPFF_SERIES = np.array([[[1.0 / math.factorial(2 * j + d)] for d in (1, 2)] for j in range(11, -1, -1)])


def _stumpff(z):
    """The Stumpff functions c1(z) = sin(sqrt z) / sqrt z and c2(z) = (1 - cos(sqrt z)) / z.

    Both are entire in z, read as sinh and cosh of sqrt(-z) for z < 0, and
    are summed from their series on |z| < 1, where the closed forms cancel
    (Danby, *Fundamentals of Celestial Mechanics*, 2nd ed., 6.9).  Each
    element evaluates only the branch it takes.
    """
    z = np.asarray(z, dtype=float)
    c1, c2 = np.empty_like(z), np.empty_like(z)
    small = np.abs(z) < 1.0
    w, series = -z[small], np.zeros((2, np.count_nonzero(small)))
    for coefficients in _STUMPFF_SERIES:  # Horner's rule, both series at once
        series = series * w + coefficients
    c1[small], c2[small] = series
    positive = z >= 1.0
    r = np.sqrt(z[positive])
    c1[positive] = np.sin(r) / r
    c2[positive] = (1.0 - np.cos(r)) / (r * r)
    rest = ~(small | positive)
    r = np.sqrt(-z[rest])
    c1[rest] = np.sinh(r) / r
    c2[rest] = (np.cosh(r) - 1.0) / (r * r)
    return c1, c2


def _exp_coefficients(nu_sq, t):
    """(S1, S2) = (t c1(nu_sq t^2), t^2 c2(nu_sq t^2)), so exp(t A) = I + S1 A + S2 A^2 whenever A^3 = -nu_sq A."""
    c1, c2 = _stumpff(nu_sq * t * t)
    return t * c1, t * t * c2


@dataclass(frozen=True)
class ConstantCurvatureCurve:
    """Arclength-parametrized curve of constant geodesic curvature k in M2(eps).

    With p0, T0 its point and unit tangent at t = 0, a0 = k N0 - eps p0 its
    acceleration there and nu_sq = k^2 + eps, the curve solves
    psi'' = a0 - nu_sq (psi - p0), so
        psi(t) = p0 + t c1(nu_sq t^2) T0 + t^2 c2(nu_sq t^2) a0
    with the Stumpff functions c1, c2 (``_stumpff``): one expression for the
    circles (nu_sq > 0), the horocycles (nu_sq = 0) and the hypercycles
    (nu_sq < 0), which loses no digits as nu_sq passes 0.
    """

    eps: int
    k: float
    kind: str
    p0: np.ndarray
    T0: np.ndarray
    a0: np.ndarray
    nu_sq: float

    def jet(self, t):
        """(point, velocity, acceleration) at the arclength parameters t, each (3, *t.shape)."""
        t = np.asarray(t, dtype=float)
        s1, s2 = _exp_coefficients(self.nu_sq, t)
        p0, T0, a0 = (v.reshape((3,) + (1,) * t.ndim) for v in (self.p0, self.T0, self.a0))
        return (
            p0 + s1 * T0 + s2 * a0,
            (1.0 - self.nu_sq * s2) * T0 + s1 * a0,
            a0 - self.nu_sq * (s1 * T0 + s2 * a0),
        )


def _canonical_start(eps, k):
    """Initial point and unit tangent placing the curve on its catalog set."""
    if eps == +1:
        r = 1.0 / np.sqrt(1.0 + k * k)
        return np.array([r, 0.0, k * r]), np.array([0.0, 1.0, 0.0]), ("circle" if k != 0 else "geodesic")
    ak = abs(k)
    if ak > 1.0:
        a = ak / np.sqrt(k * k - 1.0)
        p0 = np.array([np.sqrt(a * a - 1.0), 0.0, a])
        T0 = np.array([0.0, np.sign(k), 0.0])
        return p0, T0, "circle"
    if ak == 1.0:
        return np.array([0.0, 0.0, 1.0]), np.array([0.0, -np.sign(k), 0.0]), "horocycle"
    b0 = k / np.sqrt(1.0 - k * k)
    p0 = np.array([b0, 0.0, np.sqrt(1.0 + b0 * b0)])
    T0 = np.array([0.0, 1.0, 0.0])
    return p0, T0, ("hypercycle" if k != 0 else "geodesic")


def constant_curvature_curve(eps, k, p0=None, T0=None):
    """Closed-form curve of constant curvature k, canonically placed unless (p0, T0) given.

    Canonical placements: eps=+1 the latitude circle x3 = k/sqrt(1+k^2);
    eps=-1 the circle x3 = |k|/sqrt(k^2-1) for |k|>1, the horocycle
    x1 - x3 = -1 for |k|=1, the hypercycle x1 = k/sqrt(1-k^2) for |k|<1.
    """
    eps = check_eps(eps)
    k = float(k)
    if p0 is None or T0 is None:
        p0, T0, kind = _canonical_start(eps, k)
    else:
        p0 = np.asarray(p0, dtype=float)
        T0 = np.asarray(T0, dtype=float)
        _, _, kind = _canonical_start(eps, k)
        if abs(factor_constraint(p0, eps)) > 1e-10 or (eps == -1 and p0[2] <= 0):
            raise PreconditionError("p0 is not a point of M2(eps)")
        if abs(inner(p0, T0, eps)) > 1e-10 or abs(inner(T0, T0, eps) - 1.0) > 1e-10:
            raise PreconditionError("T0 must be a unit tangent vector at p0")
    return ConstantCurvatureCurve(eps, k, kind, p0, T0, k * cross_eps(p0, T0, eps) - eps * p0, k * k + eps)


@dataclass
class CurveSpec:
    """Prescription of a curve by speed and curvature plus an initial frame.

    ``speed``, its derivative ``speed_prime`` and ``curvature`` take an array
    of abscissae and return an array of the same shape.  ``integrate_curve``
    calls ``speed`` and ``curvature`` once per march direction, on the Gauss
    points of all of its steps; ``SampledCurve.jet`` reads ``speed_prime``.
    """

    eps: int
    speed: Callable
    curvature: Callable
    p0: np.ndarray
    T0: np.ndarray
    speed_prime: Callable

    def __post_init__(self):
        self.eps = check_eps(self.eps)
        self.p0 = np.asarray(self.p0, dtype=float)
        self.T0 = np.asarray(self.T0, dtype=float)
        if abs(factor_constraint(self.p0, self.eps)) > 1e-10:
            raise PreconditionError("p0 is not on M2(eps)")
        if self.eps == -1 and self.p0[2] <= 0:
            raise PreconditionError("p0 must lie on the upper sheet")
        if abs(inner(self.p0, self.T0, self.eps)) > 1e-10:
            raise PreconditionError("T0 is not tangent at p0")
        if abs(inner(self.T0, self.T0, self.eps) - 1.0) > 1e-10:
            raise PreconditionError("T0 is not a unit vector")


@dataclass
class SampledCurve:
    """Dense-output curve from ``integrate_curve``: psi with its moving frame.

    ``psi`` and ``T`` hold the nodes components first, shaped (3, n), as the
    march makes them and ``ambient`` takes them; ``jet`` returns (3, *x.shape),
    as a chart's jet does.

    ``jet`` raises ``DomainError`` at any x outside the node span
    [x[0], x[-1]], beyond ``hermite_interp``'s round-off slack: the
    interpolant is not extended past the data.
    """

    spec: CurveSpec
    x: np.ndarray
    psi: np.ndarray
    T: np.ndarray

    @cached_property
    def _node_slopes(self):
        """(psi', T') at the nodes, from the Frenet equations of the curve."""
        s = np.asarray(self.spec.speed(self.x))
        k = np.asarray(self.spec.curvature(self.x))
        N = cross_eps(self.psi, self.T, self.spec.eps)
        return s * self.T, s * (k * N - self.spec.eps * self.psi)

    def jet(self, x):
        """(psi, psi', psi'') at x: one interpolation, one re-orthonormalized frame.

        psi is the interpolant itself; the derivatives come from the Frenet
        equations on the frame (psi, T, N), with T re-orthonormalized against
        the projection of psi onto M2(eps).
        """
        eps = self.spec.eps
        psi_p, T_p = self._node_slopes
        p = hermite_interp(self.x, self.psi, psi_p, x)
        q = project_to_factor(p, eps)
        t = tangent_project3(q, hermite_interp(self.x, self.T, T_p, x), eps)
        t = t / norm3(t, eps)
        n = cross_eps(q, t, eps)
        s = np.asarray(self.spec.speed(x))
        sp = np.asarray(self.spec.speed_prime(x))
        k = np.asarray(self.spec.curvature(x))
        return p, s * t, sp * t + s * s * (k * n - eps * q)

    def constraint_defect(self):
        quad = np.max(np.abs(factor_constraint(self.psi, self.spec.eps)))
        tang = np.max(np.abs(inner(self.psi, self.T, self.spec.eps)))
        unit = np.max(np.abs(inner(self.T, self.T, self.spec.eps) - 1.0))
        return float(max(quad, tang, unit))

    def to_csv(self, path):
        psi = self.psi
        write_columns_csv(path, {"x": self.x, "p1": psi[0], "p2": psi[1], "p3": psi[2]}, fmt=".16e")


_GAUSS = 0.5 + np.array([-1.0, 0.0, 1.0]) * (np.sqrt(15.0) / 10.0)  # three-point Gauss rule on [0, 1]


def _mul(A, B):
    """A B for stacks of matrices on a (d, d, ...) and a (d, m, ...) layout, the stack on the trailing axes.

    Each entry sums A[i, j] B[j, l] over j = 0, ..., d - 1 in that order, with
    d multiplies and d - 1 adds on whole arrays, so no BLAS kernel is
    involved; the products go through one scratch array and the sum
    accumulates in place.  The curve march (d = 3) and the Frenet march of
    ``correspondence`` (d = 5 and 6) share it.
    """
    P = A[:, 0, None] * B[None, 0]
    term = np.empty_like(P)
    for j in range(1, len(B)):
        P += np.multiply(A[:, j, None], B[None, j], out=term)
    return P


def _commutator(X, Y):
    return _mul(X, Y) - _mul(Y, X)


def _solve(Q, P):
    """Q^{-1} P for stacks of square matrices on a (d, d, ...) layout.

    Elimination without pivoting, every row operation elementwise on whole
    arrays and in a fixed order, so no bit depends on a BLAS kernel; the
    Pade denominators it serves are I + O(h) and need no pivoting.
    """
    Q, X = Q.copy(), P.copy()
    d = len(Q)
    for p in range(d - 1):
        m = Q[p + 1:, p] / Q[p, p]
        Q[p + 1:, p + 1:] -= m[:, None] * Q[p, p + 1:][None]
        X[p + 1:] -= m[:, None] * X[p][None]
    for p in range(d - 1, -1, -1):
        for q in range(p + 1, d):
            X[p] -= Q[p, q] * X[q]
        X[p] /= Q[p, p]
    return X


def _magnus_propagators(A, h):
    """One group element per step: sixth-order Magnus on three Gauss points, then the (3, 3) Pade map.

    A is the algebra on a (d, d, ..., n, 3) layout at the Gauss points
    ``_GAUSS`` of n steps of lengths h.  The exponent is that of Blanes,
    Casas and Ros (BIT 40, 2000): with a1 = h A2, a2 = sqrt(15) h (A3 - A1) / 3,
    a3 = 10 h (A3 - 2 A2 + A1) / 3, C1 = [a1, a2] and
    C2 = -[a1, 2 a3 + C1] / 60, W = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240.
    The diagonal Pade approximant r(W) = q(-W)^{-1} q(W) of exp,
    q(W) = I + W/2 + W^2/10 + W^3/120, is sixth order, and r(-W) r(W) = I
    puts r(W) in the group of every W of its algebra (Hairer, Lubich and
    Wanner, *Geometric Numerical Integration*, Sec. IV.8).  Returns the
    propagators on a (d, d, ..., n) layout.
    """
    A1, A2, A3 = A[..., 0], A[..., 1], A[..., 2]
    a1 = h * A2
    a2 = (np.sqrt(15.0) / 3.0 * h) * (A3 - A1)
    a3 = (10.0 / 3.0 * h) * ((A3 - 2.0 * A2) + A1)
    C1 = _commutator(a1, a2)
    C2 = _commutator(a1, 2.0 * a3 + C1) / -60.0
    W = (a1 + a3 / 12.0) + _commutator((C1 - 20.0 * a1) - a3, a2 + C2) / 240.0
    W2 = _mul(W, W)
    even = np.eye(len(W)).reshape(W.shape[:2] + (1,) * (W.ndim - 2)) + W2 / 10.0
    odd = W / 2.0 + _mul(W2, W) / 120.0
    return _solve(even - odd, even + odd)


def _gauss_points(t):
    """The three Gauss points ``_GAUSS`` of each step of the nodes t, step by step: 3 (len(t) - 1) abscissae."""
    return (t[:-1, None] + (t[1:] - t[:-1])[:, None] * _GAUSS).ravel()


def _prefix_products(R):
    """Inclusive prefix products R_i ... R_1 R_0 along the last axis of a (d, d, ..., n) stack.

    A doubling scan: pass s multiplies each product by the one s places
    before it, so ceil(log2 n) array passes replace n - 1 sequential ones.
    Leading stack axes are independent lines, scanned together.
    """
    P = R.copy()
    shift = 1
    while shift < P.shape[-1]:
        P[..., shift:] = _mul(P[..., shift:], P[..., :-shift])
        shift *= 2
    return P


def _line_propagators(spec, t):
    """The frame's step propagators between the nodes t of one march direction, on a (3, 3, n) layout.

    The frame F has the rows (psi, T, N) and F' = A F with
    A = s [[0, 1, 0], [-eps, 0, k], [0, -k, 0]], read at the Gauss points of
    every step with one ``spec.speed`` and one ``spec.curvature`` call.
    """
    xs = _gauss_points(t)
    s = np.asarray(spec.speed(xs), dtype=float)
    k = np.asarray(spec.curvature(xs), dtype=float)
    bad_s = ~((s > 0) & np.isfinite(s))
    bad = bad_s | ~np.isfinite(k)
    if np.any(bad):
        j = int(np.argmax(bad))
        if bad_s[j]:
            raise DomainError(f"speed must stay positive and finite, got {s[j]} at x={xs[j]}")
        raise DomainError(f"curvature must stay finite, got {k[j]} at x={xs[j]}")
    s, sk = s.reshape(-1, len(_GAUSS)), (s * k).reshape(-1, len(_GAUSS))
    zero = np.zeros_like(s)
    A = np.array([[zero, s, zero], [-spec.eps * s, zero, sk], [zero, -sk, zero]])
    return _magnus_propagators(A, np.diff(t))


def integrate_curve(spec, x_span, step):
    """Reconstruct the curve with |psi'| = speed and geodesic curvature = curvature.

    Marches the frame F = (psi, T, N), N = J T, of the linear system
    psi' = s T, T' = s (k N - eps psi), N' = -s k T, whose Gram matrix
    diag(eps, 1, 1) is constant.  Each step is one 3x3 group element, the
    sixth-order Magnus step with the (3, 3) Pade map (``_magnus_propagators``,
    the step of the Frenet march of ``correspondence``), and the frame at
    node i is the prefix product R_{i-1} ... R_0 F_0 (``_prefix_products``),
    every product and solve written out elementwise, so the nodes do not
    depend on a BLAS kernel.  psi and T are projected once, at all nodes
    together, back onto the quadric and its tangent plane with
    ``project_to_factor``, ``tangent_project3`` and ``norm3``.  x = 0
    anchors the initial frame (p0, T0), so a span without 0 raises
    ``InfeasibleParameters``, and so does a step that is not positive and
    finite (a span too short to divide).

    The march runs forward from 0, then backward.  Before each direction,
    ``spec.speed`` and ``spec.curvature`` are called once, on one flat array
    of the 3n Gauss points of that direction's n steps (``_gauss_points``).
    A speed that is not positive and finite, or a curvature that is not
    finite, raises ``DomainError`` naming the first such x in march order.
    A node that cannot be projected onto the quadric raises ``DomainError``,
    as in ``project_to_factor``.
    """
    x0, x1 = span_from_zero(x_span, "curve march")
    require_step(step, "curve march")

    # at least one step on each side of 0 that the span reaches past
    n1 = max(1, int(np.ceil(x1 / step - 1e-12))) if x1 > 0 else 0
    n0 = max(1, int(np.ceil(-x0 / step - 1e-12))) if x0 < 0 else 0
    t1, t0 = step * np.arange(n1 + 1), -step * np.arange(n0 + 1)
    fwd = _prefix_products(_line_propagators(spec, t1))
    bwd = _prefix_products(_line_propagators(spec, t0))
    # node order: x = -n0 step, ..., -step, 0, step, ..., n1 step
    P = np.concatenate([bwd[..., ::-1], np.eye(3)[:, :, None], fwd], axis=-1)
    F0 = np.stack([spec.p0, spec.T0, cross_eps(spec.p0, spec.T0, spec.eps)])
    F = _mul(P, F0[:, :, None])  # (3, 3, nodes): F[0] is psi and F[1] is T, components first
    eps = spec.eps
    psi = project_to_factor(F[0], eps)
    T = tangent_project3(psi, F[1], eps)
    T = T / norm3(T, eps)
    return SampledCurve(spec, np.concatenate([t0[:0:-1], t1]), psi, T)
