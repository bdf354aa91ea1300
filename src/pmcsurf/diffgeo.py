"""Numerical verification engine: every invariant and identity a chart must satisfy.

All computations happen in the chart's isothermal coordinates on a rectangular
grid.  Derivatives of the immersion come from the 2-jet every chart carries.
The identity and parallelism residuals differentiate derived fields (u, C_j,
the components of X_j, and H) spectrally: they sample the chart on the
``CHEB_N`` + 1 squared Chebyshev tensor grid of the rectangle they check (once
for both in ``surface_invariants``) and apply the differentiation matrix of
``chebyshev`` to field stacks there, so that the residuals measure the chart
itself, not the differentiation.

Layout: every vector is held components first, (d, *samples), as
:mod:`pmcsurf.ambient` takes them: the chart's jet, the ``JetSample`` that
``sample_jet`` wraps around it without a copy, the normal frame and the vector
fields of the records (``SurfaceInvariants.H`` and ``Htilde``, ``CmcData.N``).
Nothing here writes into a jet, so a chart may answer read-only arrays.

Sign conventions inherit from :mod:`pmcsurf.ambient`: the normal companion
Htilde of the mean curvature vector is oriented so that
{e1, e2, Htilde/|H|, H/|H|} is positively oriented for the product orientation
form pi1*omega ^ pi2*omega, and xi = (H - i Htilde)/(sqrt(2) |H|).
"""

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable

import numpy as np

from .ambient import inner, orientation_dual, product_j_pair
from .errors import DomainError, VerificationError
from .families import TARGET_CIRCLE, TARGET_LINE, TARGET_PRODUCT, ImmersionChart
from .utils import write_columns_csv

EPS_FLOOR = 1e-12
MIN_HNORM = 1e-10  # below this |H| the surface counts as minimal and Htilde is undefined
SHRINK = 0.02  # margin fraction cut from each side of the chart rectangle before sampling
# degree of the Chebyshev grid the identity and parallelism residuals differentiate on: the
# charts are analytic, so 48 resolves their derivatives to about N^4 eps_mach, the round-off floor
CHEB_N = 48


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------


@dataclass
class JetSample:
    """First and second partials of a chart on an array of samples, components leading:
    each of p, px, py, pxx, pxy and pyy is shaped (d, *samples)."""

    chart: ImmersionChart
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    px: np.ndarray
    py: np.ndarray
    pxx: np.ndarray
    pxy: np.ndarray
    pyy: np.ndarray

    @property
    def eps(self):
        return self.chart.eps

    @property
    def dim(self):
        return self.p.shape[0]

    def ip(self, v, w):
        """Bilinear inner product of the chart's ambient (no conjugation)."""
        return inner(v, w, self.eps)

    # <Phi_x, Phi_x>, Phi_z, Phi_zz and J_j Phi_z are built once per jet: the
    # conformal data, the Kaehler functions and H share the first, the Frenet
    # scalars and the definitional Hopf path the others
    @cached_property
    def gxx(self):
        """<Phi_x, Phi_x> = e^{2u}."""
        return self.ip(self.px, self.px)

    @cached_property
    def phi_z(self):
        """Phi_z = (Phi_x - i Phi_y) / 2."""
        return 0.5 * (self.px - 1j * self.py)

    @cached_property
    def phi_zz(self):
        """Phi_zz = (Phi_xx - Phi_yy - 2i Phi_xy) / 4."""
        return 0.25 * (self.pxx - self.pyy - 2j * self.pxy)

    @cached_property
    def j_phi_z(self):
        """(J_1 Phi_z, J_2 Phi_z)."""
        return product_j_pair(self.p, self.phi_z, self.eps)


def _leaves_domain(domain, x, y):
    """Whether some sample lies outside the closed domain rectangle.

    No slack: a chart whose jet is a spline refuses any point past its knot
    span, and every chart refuses the same points.
    """
    x0, x1, y0, y1 = domain
    return bool(np.any(x < x0) or np.any(x > x1) or np.any(y < y0) or np.any(y > y1))


def sample_jet(chart, x, y):
    """2-jet of the chart at samples (x, y), which must lie in the closed chart domain.

    The JetSample holds the arrays of the chart's jet as they come, (d, *samples) each.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if _leaves_domain(chart.domain, x, y):
        raise DomainError("samples fall outside the chart domain")
    return JetSample(chart, x, y, **chart.jet(x, y))


# ---------------------------------------------------------------------------
# pointwise invariants
# ---------------------------------------------------------------------------


def conformal_data(jet):
    """Log conformal factor u = log |px| and the conformality defect."""
    gxx = jet.gxx
    gyy = jet.ip(jet.py, jet.py)
    gxy = jet.ip(jet.px, jet.py)
    if np.any(gxx <= 0):
        raise DomainError("degenerate tangent direction: |Phi_x|^2 <= 0")
    u = 0.5 * np.log(gxx)
    defect = np.maximum(np.abs(gxx - gyy), np.abs(gxy)) / gxx
    return u, defect


@dataclass
class NormalFrame:
    """Orthonormal data along a product chart: tangents, H, Htilde, |H|^2, |H|, xi, normal projector.

    The vectors are (6, ...), components first, as the jet's.  xi is built on first read:
    only the Frenet scalars take it."""

    e1: np.ndarray
    e2: np.ndarray
    H: np.ndarray
    Htilde: np.ndarray
    Hsq: np.ndarray
    Hnorm: np.ndarray
    proj: Callable

    @cached_property
    def xi(self):
        """xi = (H - i Htilde) / (sqrt(2) |H|)."""
        return (self.H - 1j * self.Htilde) / (np.sqrt(2.0) * self.Hnorm)


def _mean_curvature(jet):
    """H = normal projection of (Phi_xx + Phi_yy) / (2 e^{2u}), the projector onto the
    normal plane of the surface inside T(M2 x M2), and the tangent frame e1, e2."""
    eps = jet.eps
    P = jet.p
    Phat = np.concatenate([P[:3], -P[3:]])
    gxx = jet.gxx
    e1 = jet.px / np.sqrt(gxx)
    f2 = jet.py - jet.ip(jet.py, e1) * e1
    n2 = jet.ip(f2, f2)
    if np.any(n2 <= 0):
        raise DomainError("degenerate tangent plane: rank of the differential drops")
    e2 = f2 / np.sqrt(n2)

    def proj(V):
        out = V - (jet.ip(V, P) / (2.0 * eps)) * P
        out -= (jet.ip(out, Phat) / (2.0 * eps)) * Phat
        out -= jet.ip(out, e1) * e1
        out -= jet.ip(out, e2) * e2
        return out

    return proj((jet.pxx + jet.pyy) / (2.0 * gxx)), proj, e1, e2


def normal_frame(jet):
    """Mean curvature vector H, its oriented normal companion Htilde, and xi.

    H is the normal projection of (Phi_xx + Phi_yy) / (2 e^{2u}); Htilde the
    rotation of H by 90 degrees in the normal plane, oriented so that
    {e1, e2, Htilde/|H|, H/|H|} is positively oriented; xi = (H - i Htilde) /
    (sqrt(2) |H|).  Htilde is -|H| n/|n| for n the orientation dual of
    (e1, e2, H/|H|): n is normal and orthogonal to H, and
    vol(e1, e2, n, H/|H|) = -<n, n> < 0, so the orientation holds by construction.
    """
    if jet.dim != 6:
        raise DomainError("normal_frame expects a product chart")
    H, proj, e1, e2 = _mean_curvature(jet)
    Hsq = jet.ip(H, H)
    if np.any(Hsq < MIN_HNORM**2):
        raise DomainError("minimal surface: H is (numerically) null, Htilde undefined")
    Hnorm = np.sqrt(Hsq)

    n = orientation_dual(jet.p, e1, e2, H / Hnorm, jet.eps)
    nsq = jet.ip(n, n)
    if np.any(nsq <= 0):
        raise DomainError("could not span the normal plane")
    Htilde = -(Hnorm / np.sqrt(nsq)) * n
    return NormalFrame(e1=e1, e2=e2, H=H, Htilde=Htilde, Hsq=Hsq, Hnorm=Hnorm, proj=proj)


def kaehler_functions(jet):
    """Kaehler functions C_j = <J_j Phi_x, Phi_y> e^{-2u} and the factor Jacobians."""
    if jet.dim != 6:
        raise DomainError("Kaehler functions live on product charts")
    e2u = jet.gxx
    J1px, J2px = product_j_pair(jet.p, jet.px, jet.eps)
    C1 = jet.ip(J1px, jet.py) / e2u
    C2 = jet.ip(J2px, jet.py) / e2u
    return C1, C2, 0.5 * (C1 + C2), 0.5 * (C1 - C2)


def frenet_scalars(jet, frame):
    """The complex Frenet scalars gamma_j (frame relations) and f_j (second order)."""
    J1phi_z, J2phi_z = jet.j_phi_z
    xi = frame.xi
    xibar = np.conj(xi)
    gamma1 = jet.ip(J1phi_z, xibar)
    gamma2 = jet.ip(J2phi_z, xi)
    f1 = jet.ip(jet.phi_zz, xibar)
    f2 = jet.ip(jet.phi_zz, xi)
    return gamma1, gamma2, f1, f2


def hopf_theta(hnorm, f, gamma, eps):
    """Hopf coefficient theta_j = 2 sqrt(2) |H| f_j + (eps/2) gamma_j^2 from the Frenet scalars."""
    return 2.0 * np.sqrt(2.0) * hnorm * f + 0.5 * eps * gamma**2


def hopf_coefficients(jet, frame, scalars=None):
    """Hopf coefficients (theta_1, theta_2) of a PMC jet, by ``hopf_theta``."""
    if scalars is None:
        scalars = frenet_scalars(jet, frame)
    gamma1, gamma2, f1, f2 = scalars
    return hopf_theta(frame.Hnorm, f1, gamma1, jet.eps), hopf_theta(frame.Hnorm, f2, gamma2, jet.eps)


def hopf_definitional(jet, frame):
    """Hopf coefficients straight from the definition, as an independent path.

    theta_j = 2 <sigma(dz, dz), H +- i Htilde> + (eps / 4|H|^2) <J_j Phi_z, H +- i Htilde>^2
    with sigma the second fundamental form (normal projection of Phi_zz).
    """
    sigma_zz = frame.proj(jet.phi_zz)
    out = []
    for Jphi_z, s in zip(jet.j_phi_z, (+1, -1)):
        w = frame.H + s * 1j * frame.Htilde
        term1 = 2.0 * jet.ip(sigma_zz, w)
        pair = jet.ip(Jphi_z, w)
        out.append(term1 + jet.eps / (4.0 * frame.Hsq) * pair**2)
    return tuple(out)


def ambient_curvature(jet, X, Y, Z, W):
    """Curvature tensor of M2(eps) x M2(eps): blockwise space-form curvature."""
    eps = jet.eps
    total = 0.0
    for sl in (slice(0, 3), slice(3, 6)):
        x, y, z, w = X[sl], Y[sl], Z[sl], W[sl]
        total = total + inner(x, w, eps) * inner(y, z, eps) - inner(x, z, eps) * inner(y, w, eps)
    return eps * total


# ---------------------------------------------------------------------------
# grid derivative helpers
# ---------------------------------------------------------------------------


def grid_laplacian(f, dx, dy):
    """Five-point Laplacian; NaN on the boundary ring."""
    out = np.full_like(np.asarray(f, dtype=float), np.nan)
    out[1:-1, 1:-1] = (f[2:, 1:-1] - 2 * f[1:-1, 1:-1] + f[:-2, 1:-1]) / dx**2 + (
        f[1:-1, 2:] - 2 * f[1:-1, 1:-1] + f[1:-1, :-2]
    ) / dy**2
    return out


def chebyshev(a, b):
    """The ``CHEB_N`` + 1 Chebyshev-Lobatto points of [a, b], ascending, and their
    differentiation matrix D (Trefethen, *Spectral Methods in MATLAB*, ch. 6, ``cheb.m``).

    D @ f is the derivative, at the points, of the polynomial that interpolates f
    there, and D @ D its second derivative: exact up to round-off for degree <= N.
    The ends are a and b exactly.
    """
    n = CHEB_N
    k = np.arange(n + 1)
    t = np.cos(np.pi * k / n)
    x = a * (1 + t) / 2 + b * (1 - t) / 2
    c = np.where((k == 0) | (k == n), 2.0, 1.0) * (-1.0) ** k
    D = np.outer(c, 1 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))  # the rows of D annihilate constants
    return x, D


def _chebyshev_grid(X, Y):
    """The Chebyshev tensor grid of the rectangle that the grid X, Y spans, ends included,
    and the differentiation matrices Dx, Dy of its two axes."""
    xs, Dx = chebyshev(X[0, 0], X[-1, 0])
    ys, Dy = chebyshev(Y[0, 0], Y[0, -1])
    return (*np.meshgrid(xs, ys, indexing="ij"), Dx, Dy)


def apply_along(D, F, axis):
    """The matrix D applied along array axis ``axis`` of a field F: grid axis 0 or 1 of a field
    stack of shape (n, n, *components), or 1 or 2 of a vector field of shape (d, n, n).  One
    ``np.einsum`` sums in a fixed order, with no BLAS call, so its bits do not depend on the
    matrix kernel that BLAS picks for the CPU at run time.  It reads a copy of F with ``axis``
    moved first (none for axis 0): the inner loop runs over the other axes, not over a few
    components."""
    G = np.ascontiguousarray(np.moveaxis(F, axis, 0))
    return np.moveaxis(np.einsum("ij,j...->i...", D, G), 0, axis)


def normalized_mismatch(lhs, rhs, terms=()):
    """max |lhs - rhs|, divided by the natural equation scale.

    The scale is max(|lhs|, |rhs|, |terms...|) + floor; passing the individual
    summands of an identity as ``terms`` keeps the normalization meaningful
    when both sides cancel to zero.
    """
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    for t in terms:
        scale = max(scale, float(np.max(np.abs(np.asarray(t)))))
    return float(np.max(np.abs(lhs - rhs))) / (scale + EPS_FLOOR)


def gamma_norm_law(gamma, C, e2u):
    """Normalized residual of the frame relation |gamma_j|^2 = e^{2u}(1 - C_j^2)/2."""
    return normalized_mismatch(np.abs(gamma) ** 2, e2u * (1 - C**2) / 2.0, terms=(e2u / 2.0,))


def eta_z_norm_law(eta_z, nu, e2u):
    """Normalized residual of the CMC relation |eta_z|^2 = e^{2u}(1 - nu^2)/4."""
    return normalized_mismatch(np.abs(eta_z) ** 2, e2u / 4.0 * (1 - nu**2), terms=(e2u / 4.0,))


def holomorphy_residual(theta, dx, dy):
    """(absolute, normalized) size of d/dz-bar of a field sampled on a grid.

    The absolute value is max |d_zbar theta| over the interior, by centered
    differences; the normalized one divides by max |theta| + floor.  Grids
    smaller than 5x5 are rejected.
    """
    theta = np.asarray(theta)
    if theta.shape[0] < 5 or theta.shape[1] < 5:
        raise DomainError("holomorphy residual needs at least a 5x5 grid")
    dzb = 0.5 * (np.gradient(theta, dx, axis=0, edge_order=2) + 1j * np.gradient(theta, dy, axis=1, edge_order=2))
    dzb = dzb[1:-1, 1:-1]
    absolute = float(np.max(np.abs(dzb)))
    normalized = absolute / (float(np.max(np.abs(theta))) + EPS_FLOOR)
    return absolute, normalized


# ---------------------------------------------------------------------------
# the full invariant record
# ---------------------------------------------------------------------------


@dataclass
class SurfaceInvariants:
    """Per-grid-point invariants of a product chart plus residual summary; H and Htilde are (6, nx, ny)."""

    chart: ImmersionChart
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    conformal_defect: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    K: np.ndarray  # NaN on the boundary ring
    Kbar: np.ndarray
    Kbar_perp: np.ndarray
    H: np.ndarray
    Htilde: np.ndarray
    Hnorm: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    parallelism_residual: float
    identity_residuals: dict = field(default_factory=dict)
    holomorphy: dict = field(default_factory=dict)

    def summary(self):
        lines = [f"family {self.chart.name}: grid {self.u.shape[0]}x{self.u.shape[1]}"]
        lines.append(f"  conformal defect      {np.max(self.conformal_defect):.3e}")
        lines.append(f"  parallelism residual  {self.parallelism_residual:.3e}")
        for key in sorted(self.identity_residuals):
            lines.append(f"  {key:22s}{self.identity_residuals[key]:.3e}")
        for key in sorted(self.holomorphy):
            lines.append(f"  {key:22s}{self.holomorphy[key]:.3e}")
        return "\n".join(lines)

    def to_csv(self, path):
        columns = {k: getattr(self, k) for k in ("x", "y", "u", "conformal_defect", "C1", "C2", "K", "Kbar",
                                                 "Kbar_perp", "Hnorm")}
        for k in ("gamma1", "gamma2", "f1", "f2", "theta1", "theta2"):
            columns[f"{k}_re"], columns[f"{k}_im"] = getattr(self, k).real, getattr(self, k).imag
        write_columns_csv(path, columns)


def _parallelism(jet, H, proj, Dx, Dy):
    """max over the jet's Chebyshev grid of max(|(H_x)^perp|, |(H_y)^perp|) / |H|, H differentiated
    as one stack of six components per axis and projected by the jet's normal projector ``proj``.
    H is (6, n, n), so the grid axes are 1 and 2."""
    worst = 0.0
    for D, axis in ((Dx, 1), (Dy, 2)):
        dH = proj(apply_along(D, H, axis))
        worst = np.maximum(worst, np.sqrt(np.abs(jet.ip(dH, dH))))
    return float(np.max(worst / np.sqrt(jet.ip(H, H))))


def parallelism_residual(chart, X, Y):
    """Max normalized normal derivative of H over the rectangle of the samples: certifies PMC.

    H is sampled on the ``CHEB_N`` + 1 squared Chebyshev tensor grid of the rectangle that X
    and Y span, ends included, and differentiated along both axes by ``chebyshev``'s D.  The
    residual is the max over that grid of max(|(H_x)^perp|, |(H_y)^perp|) / |H|, with the normal
    projector of the same jet; ``surface_invariants`` takes it from its own Chebyshev pass."""
    Xc, Yc, Dx, Dy = _chebyshev_grid(X, Y)
    jet = sample_jet(chart, Xc, Yc)
    H, proj, _, _ = _mean_curvature(jet)
    return _parallelism(jet, H, proj, Dx, Dy)


def _pointwise_block(jet, frame):
    """Every pointwise field of the invariant record on one jet and its normal frame, plus
    those only the identity residuals read: the direct curvature paths Kbar_direct and
    Kbar_perp_direct, and the definitional Hopf coefficients theta1_def and theta2_def."""
    u, defect = conformal_data(jet)
    C1, C2, _, _ = kaehler_functions(jet)
    scalars = frenet_scalars(jet, frame)
    gamma1, gamma2, f1, f2 = scalars
    theta1, theta2 = hopf_coefficients(jet, frame, scalars)
    theta1_def, theta2_def = hopf_definitional(jet, frame)

    eps = jet.eps
    Hn = frame.Hnorm
    e3 = frame.Htilde / Hn
    e4 = frame.H / Hn
    return dict(
        u=u,
        conformal_defect=defect,
        C1=C1,
        C2=C2,
        Kbar=eps * (C1**2 + C2**2) / 2.0,
        Kbar_perp=eps * (C1**2 - C2**2) / 2.0,
        Kbar_direct=ambient_curvature(jet, frame.e1, frame.e2, frame.e2, frame.e1),
        Kbar_perp_direct=ambient_curvature(jet, frame.e1, frame.e2, e3, e4),
        H=frame.H,
        Htilde=frame.Htilde,
        Hnorm=Hn,
        gamma1=gamma1,
        gamma2=gamma2,
        f1=f1,
        f2=f2,
        theta1=theta1,
        theta2=theta2,
        theta1_def=theta1_def,
        theta2_def=theta2_def,
    )


def surface_invariants(chart, nx=81, ny=81):
    """Compute the full invariant record of a product chart on an nx x ny grid.

    The chart is sampled twice, and ``_pointwise_block`` runs on each jet.  The first
    pass is the requested grid: the record, with K and the holomorphy residuals computed
    on it.  The second is the ``CHEB_N`` + 1 squared Chebyshev tensor grid of the same
    rectangle, where ``identity_residuals`` differentiates the derived fields and X1, X2
    spectrally, and the parallelism residual that pass's H, as ``parallelism_residual``
    of the rectangle would.  The pointwise identities (``_pointwise_residuals``) take the
    larger of their values on the two passes, so every sample the record holds is checked too.
    """
    if chart.target != TARGET_PRODUCT:
        raise DomainError("surface_invariants expects a product chart; see abresch_rosenberg")
    X, Y = chart.grid(nx, ny, shrink=SHRINK)
    jet = sample_jet(chart, X, Y)
    record = _pointwise_block(jet, normal_frame(jet))
    Xc, Yc, Dx, Dy = _chebyshev_grid(X, Y)
    jet = sample_jet(chart, Xc, Yc)
    frame = normal_frame(jet)
    spectral = dict(_pointwise_block(jet, frame), x=Xc, y=Yc)
    for j, JH in enumerate(product_j_pair(jet.p, frame.Htilde, chart.eps), start=1):
        spectral[f"X{j}"] = np.stack([jet.ip(JH, jet.px), jet.ip(JH, jet.py)], axis=-1)
    parallelism = _parallelism(jet, frame.H, frame.proj, Dx, Dy)
    del jet, frame  # the record outlives neither
    residuals = identity_residuals(spectral, chart.eps)
    for key, value in _pointwise_residuals(record).items():
        residuals[key] = max(residuals[key], value)

    kept = {f.name for f in fields(SurfaceInvariants)}
    pointwise = {k: v for k, v in record.items() if k in kept}
    u = pointwise["u"]
    dx = X[1, 0] - X[0, 0]
    dy = Y[0, 1] - Y[0, 0]
    inv = SurfaceInvariants(
        chart=chart,
        x=X,
        y=Y,
        K=-np.exp(-2 * u) * grid_laplacian(u, dx, dy),
        parallelism_residual=parallelism,
        identity_residuals=residuals,
        **pointwise,
    )
    for j in (1, 2):
        theta, f_j, gamma_j = pointwise[f"theta{j}"], pointwise[f"f{j}"], pointwise[f"gamma{j}"]
        absolute, normalized = holomorphy_residual(theta, dx, dy)
        inv.holomorphy[f"dzbar_theta{j}_abs"] = absolute
        inv.holomorphy[f"dzbar_theta{j}_norm"] = normalized
        # scale by the Hopf ingredients so identically-zero theta stays testable
        ingredient = float(np.max(2 * np.sqrt(2) * inv.Hnorm * np.abs(f_j) + 0.5 * np.abs(gamma_j) ** 2))
        inv.holomorphy[f"dzbar_theta{j}_scaled"] = absolute / (
            float(np.max(np.abs(theta))) + ingredient + EPS_FLOOR
        )
    return inv


def _pointwise_residuals(fields):
    """The identities that need no derivative, on one sample set of ``_pointwise_block``:
    frame_gamma (|gamma_j|^2 law) and the two-path checks kbar_paths and hopf_paths."""
    e2u = np.exp(2 * fields["u"])
    out = {f"frame_gamma{j}": gamma_norm_law(fields[f"gamma{j}"], fields[f"C{j}"], e2u) for j in (1, 2)}
    # joint curvature scale keeps the Kbar_perp check meaningful when it is 0 = 0
    kbar_terms = (fields["Kbar"], fields["Kbar_direct"], fields["Kbar_perp"], fields["Kbar_perp_direct"])
    out["kbar_paths"] = max(
        normalized_mismatch(fields["Kbar"], fields["Kbar_direct"], terms=kbar_terms),
        normalized_mismatch(fields["Kbar_perp"], fields["Kbar_perp_direct"], terms=kbar_terms),
    )
    # Hopf two-path check normalized by the size of the ingredients, not of theta
    hopf_scale = (
        2.0 * np.sqrt(2.0) * fields["Hnorm"] * (np.abs(fields["f1"]) + np.abs(fields["f2"]))
        + 0.5 * (np.abs(fields["gamma1"]) ** 2 + np.abs(fields["gamma2"]) ** 2),
    )
    out["hopf_paths"] = max(
        normalized_mismatch(fields["theta1"], fields["theta1_def"], terms=hopf_scale),
        normalized_mismatch(fields["theta2"], fields["theta2_def"], terms=hopf_scale),
    )
    return out


def identity_residuals(fields, eps):
    """Normalized residuals of the scalar identities of a product chart into M2(eps) x M2(eps).

    ``fields`` is the field dict of ``surface_invariants``' Chebyshev pass: x, y, the
    fields of ``_pointwise_block`` and X1, X2, which hold (<X_j, Phi_x>, <X_j, Phi_y>)
    on the last axis, X_j being the tangential part of J_j Htilde, on the tensor grid
    of ``chebyshev``.  The stack (u, C1, C2, X1, X2) is differentiated, at every point,
    boundary included, in four contractions: Dx, Dy, and Dxx, Dyy on u and C_j.  Keys:
    eq5 (|f_j|^2 law), eq6 (gradient law), eq7 (Laplacian law), eq12 (div X_j), eq14
    (gradient-X law), plus those of ``_pointwise_residuals``.
    """
    u = fields["u"]
    _, _, Dx, Dy = _chebyshev_grid(fields["x"], fields["y"])
    Dxx, Dyy = apply_along(Dx, Dx, 0), apply_along(Dy, Dy, 0)
    S = np.concatenate([np.stack([u, fields["C1"], fields["C2"]], axis=-1), fields["X1"], fields["X2"]], axis=-1)
    Sx, Sy = apply_along(Dx, S, 0), apply_along(Dy, S, 1)
    lap = apply_along(Dxx, S[..., :3], 0) + apply_along(Dyy, S[..., :3], 1)

    e2u = np.exp(2 * u)
    Hsq = fields["Hnorm"] ** 2
    K = -np.exp(-2 * u) * lap[..., 0]
    out = _pointwise_residuals(fields)

    for j in (1, 2):
        C, f, theta, Xj = (fields[f"{k}{j}"] for k in ("C", "f", "theta", "X"))
        sgn = (-1.0) ** j
        # eq5: |f_j|^2 = e^{4u}/8 (|H|^2 - K + eps C_j^2)
        out[f"eq5_j{j}"] = normalized_mismatch(
            np.abs(f) ** 2,
            e2u**2 / 8.0 * (Hsq - K + eps * C**2),
            terms=(e2u**2 / 8.0 * (Hsq + np.abs(K) + C**2),),
        )
        # gradients of C_j
        Cx, Cy = Sx[..., j], Sy[..., j]
        grad_sq = np.exp(-2 * u) * (Cx**2 + Cy**2)
        # eq6
        lhs6 = grad_sq + 4.0 * eps * np.exp(-4 * u) * np.abs(theta) ** 2
        rhs6 = (1 - C**2 + 4 * eps * Hsq) * (eps * (1 - C**2) / 4.0 + Hsq + eps * C**2 - K)
        scale6 = np.abs(1 - C**2 + 4 * eps * Hsq) * ((1 - C**2) / 4.0 + Hsq + C**2 + np.abs(K))
        out[f"eq6_j{j}"] = normalized_mismatch(lhs6, rhs6, terms=(scale6,))
        # eq7: Laplacian of C_j
        lapC = np.exp(-2 * u) * lap[..., j]
        rhs7 = -C * (4 * Hsq - 2 * K + eps * (1 + C**2))
        scale7 = np.abs(C) * (4 * Hsq + 2 * np.abs(K) + 1 + C**2) + Hsq
        out[f"eq7_j{j}"] = normalized_mismatch(lapC, rhs7, terms=(scale7,))
        a1, a2 = Xj[..., 0], Xj[..., 1]
        # eq12: div X_j = (-1)^{j+1} 2 C_j |H|^2
        div = np.exp(-2 * u) * (Sx[..., 2 * j + 1] + Sy[..., 2 * j + 2])
        out[f"eq12_j{j}"] = normalized_mismatch(div, (-sgn) * 2.0 * C * Hsq, terms=(2.0 * Hsq,))
        # eq14: |grad C_j|^2 = (1 - C_j^2)(eps C_j^2 - K) + (-1)^j 2 <grad C_j, X_j>
        pair = np.exp(-2 * u) * (a1 * Cx + a2 * Cy)
        rhs14 = (1 - C**2) * (eps * C**2 - K) + sgn * 2.0 * pair
        scale14 = (1 - C**2) * (C**2 + np.abs(K)) + 2.0 * np.abs(pair) + Hsq
        out[f"eq14_j{j}"] = normalized_mismatch(grad_sq, rhs14, terms=(scale14,))
    return out


# ---------------------------------------------------------------------------
# compact-surface integrals
# ---------------------------------------------------------------------------


def torus_integrals(chart, nx=128, ny=128):
    """Integrals of C_j and the degree integrands over one fundamental domain.

    Uses the periodic rectangle rule (spectrally accurate for periodic smooth
    integrands).  Returns intC1, intC2, deg_phi, deg_psi, area.
    """
    if chart.periods is None:
        raise DomainError("chart carries no periods: not a torus fundamental domain")
    Px, Py = chart.periods
    dx, dy = Px / nx, Py / ny
    xs = np.linspace(0.0, Px, nx, endpoint=False)
    ys = np.linspace(0.0, Py, ny, endpoint=False)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    jet = sample_jet(chart, X, Y)
    u, _ = conformal_data(jet)
    C1, C2, jac_phi, jac_psi = kaehler_functions(jet)
    e2u = np.exp(2 * u)
    w = dx * dy
    area = float(np.sum(e2u) * w)
    out = {
        "intC1": float(np.sum(C1 * e2u) * w),
        "intC2": float(np.sum(C2 * e2u) * w),
        "deg_phi": float(np.sum(jac_phi * e2u) * w) / (4 * np.pi),
        "deg_psi": float(np.sum(jac_psi * e2u) * w) / (4 * np.pi),
        "area": area,
    }
    # optional integral identity: int <grad C_j, X_j> dA = (-1)^j 2 |H|^2 int C_j^2 dA
    frame = normal_frame(jet)
    Hsq = frame.Hnorm**2

    # fourth-order periodic centered differences on the fundamental domain
    def pd(f, step, axis):
        d1 = (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2 * step)
        d2 = (np.roll(f, -2, axis=axis) - np.roll(f, 2, axis=axis)) / (4 * step)
        return (4.0 * d1 - d2) / 3.0

    JH_pair = product_j_pair(jet.p, frame.Htilde, chart.eps)
    for j, (C, JH) in enumerate(zip((C1, C2), JH_pair), start=1):
        a1, a2 = jet.ip(JH, jet.px), jet.ip(JH, jet.py)
        Cx, Cy = pd(C, dx, 0), pd(C, dy, 1)
        pair = np.exp(-2 * u) * (a1 * Cx + a2 * Cy)
        lhs = float(np.sum(pair * e2u) * w)
        rhs = float((-1.0) ** j * 2.0 * np.sum(Hsq * C**2 * e2u) * w)
        scale = abs(rhs) + float(np.sum(np.abs(pair) * e2u) * w) + EPS_FLOOR
        out[f"eq15_j{j}"] = abs(lhs - rhs) / scale
    return out


# ---------------------------------------------------------------------------
# CMC charts in M2(eps) x R: Abresch-Rosenberg data
# ---------------------------------------------------------------------------


@dataclass
class CmcData:
    """Invariants of a CMC chart in M2(eps) x R on a grid; N is (4, nx, ny)."""

    chart: ImmersionChart
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    conformal_defect: np.ndarray
    N: np.ndarray
    nu: np.ndarray
    H_scalar: np.ndarray
    p: np.ndarray
    eta_z: np.ndarray
    theta_ar: np.ndarray
    residuals: dict = field(default_factory=dict)

    def require_cmc(self, tol):
        """This record, once its |H| spread is at most ``tol``; raises otherwise (the chart is not CMC)."""
        spread = self.residuals["H_spread"]
        if spread > tol:
            raise VerificationError(f"|H| varies by {spread:.3e} > {tol:.1e}: chart is not CMC")
        return self


def ar_theta(h_scalar, p, eta_z, eps):
    """Abresch-Rosenberg coefficient theta_AR = H p - (eps/2) eta_z^2."""
    return h_scalar * p - 0.5 * eps * eta_z**2


def abresch_rosenberg(chart, nx=81, ny=81, shrink=SHRINK):
    """Abresch-Rosenberg data theta_AR = H p - (eps/2) eta_z^2 of a CMC chart.

    The unit normal N is aligned with the mean curvature vector, so the scalar
    mean curvature is positive.  The spread of |H| is measured, as
    ``residuals["H_spread"]``, and not gated: each caller gates it at its own
    tolerance with ``CmcData.require_cmc``.  Raises where H vanishes.
    """
    if chart.target not in (TARGET_LINE, TARGET_CIRCLE):
        raise DomainError("abresch_rosenberg expects a chart into M2(eps) x R")
    X, Y = chart.grid(nx, ny, shrink=shrink)
    dx = X[1, 0] - X[0, 0]
    dy = Y[0, 1] - Y[0, 0]
    jet = sample_jet(chart, X, Y)
    eps = chart.eps

    u, defect = conformal_data(jet)
    e2u = np.exp(2 * u)
    P_hat = np.concatenate([jet.p[:3], np.zeros_like(jet.p[:1])])

    def proj(V):
        out = V - (eps * jet.ip(V, P_hat)) * P_hat
        out -= (jet.ip(out, jet.px) / e2u) * jet.px
        out -= (jet.ip(out, jet.py) / e2u) * jet.py
        return out

    Hvec = proj((jet.pxx + jet.pyy) / (2.0 * e2u))
    Hsq = jet.ip(Hvec, Hvec)
    if np.any(Hsq <= 0):
        raise DomainError("mean curvature vector vanishes somewhere: not a CMC chart with H != 0")
    H_scalar = np.sqrt(Hsq)
    N = Hvec / H_scalar
    nu = N[3]

    p = jet.ip(jet.phi_zz, N)
    eta_z = jet.phi_z[3]
    theta_ar = ar_theta(H_scalar, p, eta_z, eps)

    data = CmcData(
        chart=chart,
        x=X,
        y=Y,
        u=u,
        conformal_defect=defect,
        N=N,
        nu=nu,
        H_scalar=H_scalar,
        p=p,
        eta_z=eta_z,
        theta_ar=theta_ar,
    )
    absolute, normalized = holomorphy_residual(theta_ar, dx, dy)
    ingredient = float(np.max(H_scalar * np.abs(p) + 0.5 * np.abs(eta_z) ** 2))
    data.residuals = {
        "eta_z_law": eta_z_norm_law(eta_z, nu, e2u),
        "H_spread": float(np.max(H_scalar) - np.min(H_scalar)),
        "dzbar_theta_ar_abs": absolute,
        "dzbar_theta_ar_norm": normalized,
        "dzbar_theta_ar_scaled": absolute / (float(np.max(np.abs(theta_ar))) + ingredient + EPS_FLOOR),
        "conformal_defect": float(np.max(defect)),
    }
    return data


def curvature_bound_excess(inv):
    """Violation of the curvature bound K <= |H|^2 + (1 if eps=+1 else 0).

    Returns the largest positive excess over the interior grid (0 when the
    bound holds).
    """
    bound = inv.Hnorm**2 + (1.0 if inv.chart.eps == +1 else 0.0)
    excess = inv.K - bound
    return float(np.nanmax(excess))
