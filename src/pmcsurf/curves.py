"""Curves in M2(eps): the constant-curvature catalog and curve reconstruction.

Constant-curvature curves are produced in closed form from the linear system
alpha' = T, T' = k N - eps alpha (N = J T, arclength parameter), whose
characteristic frequency is nu^2 = k^2 + eps.  The canonical representatives
land on the classical catalog sets: latitude circles x3 = const, hypercycles
x1 = const, and the horocycle x1 - x3 = -1.

``integrate_curve`` rebuilds a curve from prescribed speed s(x) and geodesic
curvature k(x), the data in which the profile families describe their second
factor.  The curvature sign convention is k = <psi'', J psi'> / |psi'|^3 with
the package-wide orientation of J.
"""

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
from .errors import DomainError, InfeasibleParameters, PreconditionError
from .utils import hermite_interp, span_from_zero, write_columns_csv


@dataclass(frozen=True)
class ConstantCurvatureCurve:
    """Arclength-parametrized curve of constant geodesic curvature k in M2(eps)."""

    eps: int
    k: float
    kind: str
    # coefficients of the closed-form solution
    _A: np.ndarray
    _B: np.ndarray
    _C: np.ndarray
    _nu: float

    def jet(self, t):
        """(point, velocity, acceleration) at the arclength parameters t."""
        t = np.asarray(t, dtype=float)[..., None]
        A, B, C = self._A, self._B, self._C
        if self._nu > 0:
            w = self._nu
            c, s = np.cos(w * t), np.sin(w * t)
            return A + B * c + C * s, w * (-B * s + C * c), -w * w * (B * c + C * s)
        if self._nu < 0:
            w = -self._nu
            c, s = np.cosh(w * t), np.sinh(w * t)
            return A + B * c + C * s, w * (B * s + C * c), w * w * (B * c + C * s)
        shape = t.shape[:-1] + (3,)
        return A + C * t + B * (t * t / 2.0), np.broadcast_to(C, shape) + B * t, np.broadcast_to(B, shape).copy()


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
    N0 = cross_eps(p0, T0, eps)
    acc0 = k * N0 - eps * p0
    nu_sq = k * k + eps
    if nu_sq > 0:
        nu = np.sqrt(nu_sq)
        B = -acc0 / nu_sq
        C = T0 / nu
        A = p0 - B
        return ConstantCurvatureCurve(eps, k, kind, A, B, C, nu)
    if nu_sq < 0:
        mu = np.sqrt(-nu_sq)
        B = acc0 / (-nu_sq)
        C = T0 / mu
        A = p0 - B
        return ConstantCurvatureCurve(eps, k, kind, A, B, C, -mu)
    return ConstantCurvatureCurve(eps, k, kind, p0, acc0, T0, 0.0)


@dataclass
class CurveSpec:
    """Prescription of a curve by speed and curvature plus an initial frame.

    ``speed``, its derivative ``speed_prime`` and ``curvature`` take an array
    of abscissae and return an array of the same shape.  ``integrate_curve``
    calls ``speed`` and ``curvature`` once per march direction, on all of its
    RK4 stage abscissae; ``SampledCurve.jet`` reads ``speed_prime``.
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
        s = np.asarray(self.spec.speed(self.x))[:, None]
        k = np.asarray(self.spec.curvature(self.x))[:, None]
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
        t = t / norm3(t, eps)[..., None]
        n = cross_eps(q, t, eps)
        s = np.asarray(self.spec.speed(x))[..., None]
        sp = np.asarray(self.spec.speed_prime(x))[..., None]
        k = np.asarray(self.spec.curvature(x))[..., None]
        return p, s * t, sp * t + s * s * (k * n - eps * q)

    def constraint_defect(self):
        quad = np.max(np.abs(factor_constraint(self.psi, self.spec.eps)))
        tang = np.max(np.abs(inner(self.psi, self.T, self.spec.eps)))
        unit = np.max(np.abs(inner(self.T, self.T, self.spec.eps) - 1.0))
        return float(max(quad, tang, unit))

    def to_csv(self, path):
        psi = self.psi
        write_columns_csv(path, {"x": self.x, "p1": psi[:, 0], "p2": psi[:, 1], "p3": psi[:, 2]}, fmt=".16e")


def _sample_stages(spec, n, h):
    """Speed and curvature at i h, i h + h/2 and i h + h (row i), one call each.

    These are the RK4 stage abscissae of step i: ``i h + h`` is kept apart
    from ``(i + 1) h``, which can differ from it by one rounding.
    """
    xi = np.arange(n) * h
    xs = np.stack([xi, xi + 0.5 * h, xi + h], axis=-1).ravel()
    s = np.asarray(spec.speed(xs), dtype=float)
    k = np.asarray(spec.curvature(xs), dtype=float)
    bad_s = ~((s > 0) & np.isfinite(s))
    bad = bad_s | ~np.isfinite(k)
    if np.any(bad):
        j = int(np.argmax(bad))
        if bad_s[j]:
            raise DomainError(f"speed must stay positive and finite, got {s[j]} at x={xs[j]}")
        raise DomainError(f"curvature must stay finite, got {k[j]} at x={xs[j]}")
    return s.reshape(n, 3), k.reshape(n, 3)


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


def _step_propagators(spec, n, h):
    """The RK4 step matrices R_0, ..., R_{n-1} of F' = A(x) F, on a (3, 3, n) layout.

    The frame F has the rows (psi, T, N) and A = s [[0, 1, 0], [-eps, 0, k],
    [0, -k, 0]].  RK4 on a linear system is one matrix per step:
    R = I + h/6 (K1 + 2 K2 + 2 K3 + K4), with K1 = A(x), K2 = A(x + h/2)
    (I + h/2 K1), K3 = A(x + h/2) (I + h/2 K2) and K4 = A(x + h) (I + h K3).
    """
    s, k = _sample_stages(spec, n, h)
    zero = np.zeros(n)
    eye = np.eye(3)[:, :, None]

    def generator(j):
        sj, skj = s[:, j], s[:, j] * k[:, j]
        return np.array([[zero, sj, zero], [-spec.eps * sj, zero, skj], [zero, -skj, zero]])

    A1, A2, A4 = generator(0), generator(1), generator(2)
    K2 = _mul(A2, eye + (0.5 * h) * A1)
    K3 = _mul(A2, eye + (0.5 * h) * K2)
    K4 = _mul(A4, eye + h * K3)
    return eye + (h / 6.0) * (((A1 + 2.0 * K2) + 2.0 * K3) + K4)


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


def integrate_curve(spec, x_span, step):
    """Reconstruct the curve with |psi'| = speed and geodesic curvature = curvature.

    Fourth-order Runge-Kutta on the frame F = (psi, T, N), N = J T, which
    solves the linear system psi' = s T, T' = s (k N - eps psi),
    N' = -s k T.  Each RK4 step is then one 3x3 matrix (``_step_propagators``),
    and the frame at node i is the prefix product R_{i-1} ... R_0 F_0
    (``_prefix_products``), every product written out elementwise
    (``_mul``), so the nodes do not depend on a BLAS kernel; the Frenet
    march of ``correspondence`` uses the same scan.  psi and T are
    projected once, at all nodes together, back onto the quadric and its
    tangent plane with ``project_to_factor``, ``tangent_project3`` and
    ``norm3``.  x = 0 anchors the initial frame (p0, T0), so a span
    without 0 raises ``InfeasibleParameters``, and so does a step that is
    not positive and finite (a span too short to divide).

    The march runs forward from 0, then backward.  Before each direction,
    ``spec.speed`` and ``spec.curvature`` are called once, on one flat array
    of the 3n stage abscissae i h, i h + h/2 and i h + h of that direction.
    A speed that is not positive and finite, or a curvature that is not
    finite, raises ``DomainError`` naming the first such x in march order.
    A node that cannot be projected onto the quadric raises ``DomainError``,
    as in ``project_to_factor``.
    """
    x0, x1 = span_from_zero(x_span, "curve march")
    if not (np.isfinite(step) and step > 0):
        raise InfeasibleParameters(f"the curve march needs a positive finite step, got {step:g}", "step > 0")

    # at least one step on each side of 0 that the span reaches past
    n1 = max(1, int(np.ceil(x1 / step - 1e-12))) if x1 > 0 else 0
    n0 = max(1, int(np.ceil(-x0 / step - 1e-12))) if x0 < 0 else 0
    fwd = _prefix_products(_step_propagators(spec, n1, step))
    bwd = _prefix_products(_step_propagators(spec, n0, -step))
    # node order: x = -n0 step, ..., -step, 0, step, ..., n1 step
    P = np.concatenate([bwd[..., ::-1], np.eye(3)[:, :, None], fwd], axis=-1)
    F0 = np.stack([spec.p0, spec.T0, cross_eps(spec.p0, spec.T0, spec.eps)])
    F = np.ascontiguousarray(_mul(P, F0[:, :, None]).transpose(2, 0, 1))
    eps = spec.eps
    psi = project_to_factor(F[:, 0], eps)
    T = tangent_project3(psi, F[:, 1], eps)
    T = T / norm3(T, eps)[:, None]
    x = np.concatenate([-step * np.arange(n0, 0, -1), step * np.arange(0, n1 + 1)])
    return SampledCurve(spec, x, psi, T)
