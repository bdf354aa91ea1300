"""Numerical verification engine: every invariant and identity a chart must satisfy.

All computations happen in the chart's isothermal coordinates on a rectangular
grid.  Derivatives of the immersion come from the 2-jet every chart carries.
Every derivative of a derived field (u, C_j, the components of X_j, H, the
Hopf coefficients theta_j and theta_AR) is spectral: the chart is sampled on
the ``CHEB_N`` + 1 squared Chebyshev tensor grid of the rectangle it is checked
on, and ``chebyshev_derivatives`` applies the differentiation matrices of
``chebyshev`` to the fields there, so that the residuals measure the chart
itself, not the differentiation.  The identity, parallelism and holomorphy
residuals and the Gauss curvature K come from that pass; the record's K on
the requested grid is the Chebyshev interpolant of the spectral K.

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

EPS_FLOOR = 1e-12
MIN_HNORM = 1e-10  # below this |H| the surface counts as minimal and Htilde is undefined
SHRINK = 0.02  # margin fraction cut from each side of the chart rectangle before sampling
# degree of the Chebyshev grid every residual that takes a derivative differentiates on: the
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
    """The matrix D applied along array axis ``axis`` of a field F: grid axis 0 or 1 of an (n, n)
    field, or one of the last two axes of a stack (k, n, n) or (k, d, n, n) of fields.  One
    ``np.einsum`` sums in a fixed order, with no BLAS call, so its bits do not depend on the
    matrix kernel that BLAS picks for the CPU at run time.  It reads a copy of F with ``axis``
    moved first (none for axis 0): the inner loop runs over the other axes, not over a few
    components."""
    G = np.ascontiguousarray(np.moveaxis(F, axis, 0))
    return np.moveaxis(np.einsum("ij,j...->i...", D, G), 0, axis)


def _real_stack(grids):
    """A dict of arrays as one real stack on a new first axis, a complex entry as its real and
    its imaginary part, and the map from anything indexed like that stack back to the dict."""
    cols, stack = {}, []  # key -> (first row in the stack, complex or not)
    for k, v in grids.items():
        cplx = np.iscomplexobj(v)
        cols[k] = (len(stack), cplx)
        stack += [v.real, v.imag] if cplx else [v]

    def unstack(vals):
        return {k: vals[i] + 1j * vals[i + 1] if cplx else vals[i] for k, (i, cplx) in cols.items()}

    return np.stack(stack), unstack


def chebyshev_derivatives(fields, Dx, Dy):
    """The derivatives (Fx, Fy) of a dict of fields, (n, n) or (d, n, n), on a ``chebyshev``
    tensor grid: one ``_real_stack`` and one ``apply_along`` per axis, by the grid's matrices
    Dx, Dy, or by their squares ``apply_along(Dx, Dx, 0)`` for second derivatives."""
    stack, unstack = _real_stack(fields)
    return unstack(apply_along(Dx, stack, stack.ndim - 2)), unstack(apply_along(Dy, stack, stack.ndim - 1))


def chebyshev_interpolation(xs, t):
    """The matrix taking values at the ``chebyshev`` points xs to their interpolant at t, by the
    barycentric formula (Berrut and Trefethen, SIAM Review 46, 2004) with the Chebyshev-Lobatto
    weights (-1)^k, halved at the ends; a t equal to a point takes that point's value."""
    k = np.arange(len(xs))
    w = np.where((k == 0) | (k == len(xs) - 1), 0.5, 1.0) * (-1.0) ** k
    d = t[:, None] - xs[None, :]
    hit = d == 0
    W = w / np.where(hit, 1.0, d)
    on_point = hit.any(axis=1)
    W[on_point] = hit[on_point]
    return W / W.sum(axis=1, keepdims=True)


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


def dzbar_residuals(thetas, ingredients, Dx, Dy):
    """Holomorphy residuals of a dict of complex fields on a ``chebyshev`` grid, d/dz-bar taken
    at every point by ``chebyshev_derivatives``.  For field k: dzbar_k_abs, max |d_zbar k|;
    dzbar_k_norm, that over max |k| + floor; dzbar_k_scaled, that over max |k| +
    ingredients[k] + floor, the size of k's summands, so that k = 0 stays testable."""
    Fx, Fy = chebyshev_derivatives(thetas, Dx, Dy)
    out = {}
    for k, theta in thetas.items():
        absolute = float(np.max(np.abs(0.5 * (Fx[k] + 1j * Fy[k]))))
        size = float(np.max(np.abs(theta)))
        out[f"dzbar_{k}_abs"] = absolute
        out[f"dzbar_{k}_norm"] = absolute / (size + EPS_FLOOR)
        out[f"dzbar_{k}_scaled"] = absolute / (size + ingredients[k] + EPS_FLOOR)
    return out


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
    K: np.ndarray  # the Chebyshev interpolant of the spectral K
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


def _parallelism(jet, H, proj, Dx, Dy):
    """max over the jet's Chebyshev grid of max(|(H_x)^perp|, |(H_y)^perp|) / |H|, H differentiated
    as one stack of six components per axis and projected by the jet's normal projector ``proj``.
    H is (6, n, n)."""
    worst = 0.0
    for dH in chebyshev_derivatives({"H": H}, Dx, Dy):
        dH = proj(dH["H"])
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

    The chart is sampled twice, and ``_pointwise_block`` runs on each jet: on the requested
    grid, which gives the record, and on the ``CHEB_N`` + 1 squared Chebyshev tensor grid of
    the same rectangle, where every derivative is taken (``identity_residuals``,
    ``dzbar_residuals`` of theta_j, and the parallelism residual of that pass's H, as
    ``parallelism_residual`` of the rectangle gives it).  The record's K is the Chebyshev
    interpolant of that pass's K.  The pointwise identities (``_pointwise_residuals``) take
    the larger of their values on the two passes, so every sample of the record is checked.
    """
    if chart.target != TARGET_PRODUCT:
        raise DomainError("surface_invariants expects a product chart; see abresch_rosenberg")
    X, Y = chart.grid(nx, ny, shrink=SHRINK)
    jet = sample_jet(chart, X, Y)
    record = _pointwise_block(jet, normal_frame(jet))
    Xc, Yc, Dx, Dy = _chebyshev_grid(X, Y)
    jet = sample_jet(chart, Xc, Yc)
    frame = normal_frame(jet)
    spectral = _pointwise_block(jet, frame)
    for j, JH in enumerate(product_j_pair(jet.p, frame.Htilde, chart.eps), start=1):
        spectral[f"X{j}_x"], spectral[f"X{j}_y"] = jet.ip(JH, jet.px), jet.ip(JH, jet.py)
    parallelism = _parallelism(jet, frame.H, frame.proj, Dx, Dy)
    del jet, frame  # the record outlives neither
    residuals, K = identity_residuals(spectral, chart.eps, Dx, Dy)
    for key, value in _pointwise_residuals(record).items():
        residuals[key] = max(residuals[key], value)
    # the Hopf ingredients 2 sqrt(2) |H| |f_j| + |gamma_j|^2 / 2 scale the dzbar residuals
    ingredients = {f"theta{j}": float(np.max(2 * np.sqrt(2) * spectral["Hnorm"] * np.abs(spectral[f"f{j}"])
                                             + 0.5 * np.abs(spectral[f"gamma{j}"]) ** 2)) for j in (1, 2)}

    kept = {f.name for f in fields(SurfaceInvariants)}
    Lx, Ly = chebyshev_interpolation(Xc[:, 0], X[:, 0]), chebyshev_interpolation(Yc[0], Y[0])
    return SurfaceInvariants(
        chart=chart,
        x=X,
        y=Y,
        K=apply_along(Ly, apply_along(Lx, K, 0), 1),
        parallelism_residual=parallelism,
        identity_residuals=residuals,
        holomorphy=dzbar_residuals({k: spectral[k] for k in ingredients}, ingredients, Dx, Dy),
        **{k: v for k, v in record.items() if k in kept},
    )


def _pointwise_residuals(fields):
    """The identities that need no derivative, on one sample set of ``_pointwise_block``:
    frame_gamma (|gamma_j|^2 law) and the two-path checks kbar_paths and hopf_paths."""
    e2u = np.exp(2 * fields["u"])
    out = {f"frame_gamma{j}": gamma_norm_law(fields[f"gamma{j}"], fields[f"C{j}"], e2u) for j in (1, 2)}
    # the factors have sectional curvature eps, so 1 is the natural scale of the ambient
    # curvature R(e1, e2, e2, e1): where Kbar = Kbar_perp = 0 (the flat example-1 charts)
    # the round-off of the two paths is measured against 1, not divided by EPS_FLOOR
    kbar_terms = (fields["Kbar"], fields["Kbar_direct"], fields["Kbar_perp"], fields["Kbar_perp_direct"], 1.0)
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


def identity_residuals(fields, eps, Dx, Dy):
    """Normalized residuals of the scalar identities of a product chart into M2(eps) x M2(eps),
    and the Gauss curvature K = -e^{-2u} (u_xx + u_yy) at every point.

    ``fields`` is the field dict of ``surface_invariants``' Chebyshev pass, whose
    differentiation matrices are Dx and Dy: the fields of ``_pointwise_block`` and X1_x,
    X1_y, X2_x, X2_y, which hold <X_j, Phi_x> and <X_j, Phi_y>, X_j being the tangential
    part of J_j Htilde.  ``chebyshev_derivatives`` differentiates u, C_j and the X_j
    components once along each axis, and u and C_j twice, at every point.  Keys:
    eq5 (|f_j|^2 law), eq6 (gradient law), eq7 (Laplacian law), eq12 (div X_j), eq14
    (gradient-X law), plus those of ``_pointwise_residuals``.
    """
    u = fields["u"]
    Fx, Fy = chebyshev_derivatives({k: fields[k] for k in ("u", "C1", "C2", "X1_x", "X1_y", "X2_x", "X2_y")}, Dx, Dy)
    Dxx, Dyy = apply_along(Dx, Dx, 0), apply_along(Dy, Dy, 0)  # D @ D, summed without BLAS
    Fxx, Fyy = chebyshev_derivatives({k: fields[k] for k in ("u", "C1", "C2")}, Dxx, Dyy)

    e2u = np.exp(2 * u)
    Hsq = fields["Hnorm"] ** 2
    K = -np.exp(-2 * u) * (Fxx["u"] + Fyy["u"])
    out = _pointwise_residuals(fields)

    for j in (1, 2):
        C, f, theta = (fields[f"{k}{j}"] for k in ("C", "f", "theta"))
        sgn = (-1.0) ** j
        # eq5: |f_j|^2 = e^{4u}/8 (|H|^2 - K + eps C_j^2)
        out[f"eq5_j{j}"] = normalized_mismatch(
            np.abs(f) ** 2,
            e2u**2 / 8.0 * (Hsq - K + eps * C**2),
            terms=(e2u**2 / 8.0 * (Hsq + np.abs(K) + C**2),),
        )
        # gradients of C_j
        Cx, Cy = Fx[f"C{j}"], Fy[f"C{j}"]
        grad_sq = np.exp(-2 * u) * (Cx**2 + Cy**2)
        # eq6
        lhs6 = grad_sq + 4.0 * eps * np.exp(-4 * u) * np.abs(theta) ** 2
        rhs6 = (1 - C**2 + 4 * eps * Hsq) * (eps * (1 - C**2) / 4.0 + Hsq + eps * C**2 - K)
        # the sizes of the terms, not of their sum, which is 0 where eps = -1 and 1 - C^2 = 4|H|^2
        scale6 = (np.abs(1 - C**2) + 4 * Hsq) * ((1 - C**2) / 4.0 + Hsq + C**2 + np.abs(K))
        out[f"eq6_j{j}"] = normalized_mismatch(lhs6, rhs6, terms=(scale6,))
        # eq7: Laplacian of C_j
        lapC = np.exp(-2 * u) * (Fxx[f"C{j}"] + Fyy[f"C{j}"])
        rhs7 = -C * (4 * Hsq - 2 * K + eps * (1 + C**2))
        scale7 = np.abs(C) * (4 * Hsq + 2 * np.abs(K) + 1 + C**2) + Hsq
        out[f"eq7_j{j}"] = normalized_mismatch(lapC, rhs7, terms=(scale7,))
        # eq12: div X_j = (-1)^{j+1} 2 C_j |H|^2
        div = np.exp(-2 * u) * (Fx[f"X{j}_x"] + Fy[f"X{j}_y"])
        out[f"eq12_j{j}"] = normalized_mismatch(div, (-sgn) * 2.0 * C * Hsq, terms=(2.0 * Hsq,))
        # eq14: |grad C_j|^2 = (1 - C_j^2)(eps C_j^2 - K) + (-1)^j 2 <grad C_j, X_j>
        pair = np.exp(-2 * u) * (fields[f"X{j}_x"] * Cx + fields[f"X{j}_y"] * Cy)
        rhs14 = (1 - C**2) * (eps * C**2 - K) + sgn * 2.0 * pair
        scale14 = (1 - C**2) * (C**2 + np.abs(K)) + 2.0 * np.abs(pair) + Hsq
        out[f"eq14_j{j}"] = normalized_mismatch(grad_sq, rhs14, terms=(scale14,))
    return out, K


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


def _cmc_pointwise(jet):
    """The pointwise fields of ``CmcData`` on one jet: u, the conformal defect, the unit normal N
    along H, nu = N_4, the scalar H, p = <Phi_zz, N>, eta_z and theta_AR; raises where H = 0."""
    eps = jet.eps
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
    p = jet.ip(jet.phi_zz, N)
    eta_z = jet.phi_z[3]
    return dict(u=u, conformal_defect=defect, N=N, nu=N[3], H_scalar=H_scalar, p=p, eta_z=eta_z,
                theta_ar=ar_theta(H_scalar, p, eta_z, eps))


def cmc_record(chart, nx, ny, shrink):
    """The record of ``abresch_rosenberg`` without its Chebyshev pass: ``_cmc_pointwise`` on the requested
    grid, with the pointwise residuals eta_z_law, conformal_defect and H_spread, which is measured, not gated:
    each caller gates it with ``CmcData.require_cmc``.  Raises where H vanishes."""
    if chart.target not in (TARGET_LINE, TARGET_CIRCLE):
        raise DomainError("abresch_rosenberg expects a chart into M2(eps) x R")
    X, Y = chart.grid(nx, ny, shrink=shrink)
    data = CmcData(chart=chart, x=X, y=Y, **_cmc_pointwise(sample_jet(chart, X, Y)))
    data.residuals = {
        "eta_z_law": eta_z_norm_law(data.eta_z, data.nu, np.exp(2 * data.u)),
        "H_spread": float(np.max(data.H_scalar) - np.min(data.H_scalar)),
        "conformal_defect": float(np.max(data.conformal_defect)),
    }
    return data


def abresch_rosenberg(chart, nx=81, ny=81, shrink=SHRINK):
    """Abresch-Rosenberg data theta_AR = H p - (eps/2) eta_z^2 of a CMC chart: ``cmc_record``, whose unit normal
    N is along the mean curvature vector (so the scalar mean curvature is positive), and d/dz-bar of theta_AR by
    ``dzbar_residuals`` on a second ``_cmc_pointwise`` pass, on the Chebyshev grid of the same rectangle."""
    data = cmc_record(chart, nx, ny, shrink)
    Xc, Yc, Dx, Dy = _chebyshev_grid(data.x, data.y)
    spectral = _cmc_pointwise(sample_jet(chart, Xc, Yc))
    # the ingredients H |p| + |eta_z|^2 / 2 of theta_AR scale its dzbar residual
    ingredient = float(np.max(spectral["H_scalar"] * np.abs(spectral["p"]) + 0.5 * np.abs(spectral["eta_z"]) ** 2))
    data.residuals.update(dzbar_residuals({"theta_ar": spectral["theta_ar"]}, {"theta_ar": ingredient}, Dx, Dy))
    return data


def curvature_bound_excess(inv):
    """Violation of the curvature bound K <= |H|^2 + (1 if eps=+1 else 0): the largest
    K - bound over the record's grid, negative when the bound holds everywhere."""
    bound = inv.Hnorm**2 + (1.0 if inv.chart.eps == +1 else 0.0)
    return float(np.max(inv.K - bound))


# each verify gate's tolerance, written once, and the test whose bound it is (the gate's Check.source)
CRITERION_02 = "tests/test_acceptance.py::test_criterion_02_invariant_family_certification"
CONFORMAL_TOL = 1e-6
PARALLELISM_TOL = 1e-5
HOPF_VALUE_TOL = 1e-5  # theta_j against the constant a family's metadata gives
HOPF_ZERO_TOL, CRITERION_04 = 1e-7, "tests/test_acceptance.py::test_criterion_04_vanishing_hopf_chart"
THETA_AR_VALUE_TOL, CRITERION_06 = 1e-4, "tests/test_acceptance.py::test_criterion_06_correspondence_roundtrip"
HOLOMORPHY_TOL, CRITERION_07 = 1e-3, "tests/test_acceptance.py::test_criterion_07_holomorphy_decay"
CURVATURE_BOUND_TOL, CRITERION_08 = 1e-6, "tests/test_acceptance.py::test_criterion_08_curvature_bounds"
IDENTITY_TOL, IDENTITY_TEST = 1e-4, "tests/test_diffgeo.py::test_identity_residuals_battery"
H_SPREAD_TOL, CMC_TEST = 1e-6, "tests/test_diffgeo.py::test_abresch_rosenberg_rejects_non_cmc"


@dataclass(frozen=True)
class Check:
    """One gate: a measured value, its tolerance and the test that sets it; PASS exactly when value <= tol."""

    name: str
    value: float
    tol: float
    source: str

    @property
    def margin(self):
        return self.value / self.tol

    @property
    def status(self):
        return "PASS" if self.value <= self.tol else "FAIL"


def certify_product(chart, nx, ny):
    """The checks ``verify`` makes of a product chart, on ``surface_invariants`` at nx x ny, in its order."""
    inv = surface_invariants(chart, nx=nx, ny=ny)
    checks = [
        Check("conformal_defect", float(np.max(inv.conformal_defect)), CONFORMAL_TOL, CRITERION_02),
        Check("parallelism", inv.parallelism_residual, PARALLELISM_TOL, CRITERION_02),
    ]
    checks += [Check(k, inv.identity_residuals[k], IDENTITY_TOL, IDENTITY_TEST) for k in sorted(inv.identity_residuals)]
    checks += [Check(f"dzbar_theta{j}", inv.holomorphy[f"dzbar_theta{j}_scaled"], HOLOMORPHY_TOL, CRITERION_07)
               for j in (1, 2)]
    checks.append(Check("curvature_bound", max(curvature_bound_excess(inv), 0.0), CURVATURE_BOUND_TOL, CRITERION_08))
    expected = chart.metadata.get("hopf_expected")
    if expected is not None:
        # compare as an unordered pair: the labels are orientation-gauge
        distance = min(
            max(float(np.max(np.abs(inv.theta1 - e1))), float(np.max(np.abs(inv.theta2 - e2))))
            for e1, e2 in (expected, expected[::-1])
        )
        tol, source = (HOPF_ZERO_TOL, CRITERION_04) if not any(expected) else (HOPF_VALUE_TOL, CRITERION_02)
        checks.append(Check("hopf_values", distance, tol, source))
    return checks


def certify_cmc(chart, nx, ny):
    """The checks ``verify`` makes of a chart into M2(eps) x R, on ``abresch_rosenberg`` at nx x ny, in its order."""
    ar = abresch_rosenberg(chart, nx=nx, ny=ny)
    checks = [
        Check("conformal_defect", ar.residuals["conformal_defect"], CONFORMAL_TOL, CRITERION_02),
        Check("H_spread", ar.residuals["H_spread"], H_SPREAD_TOL, CMC_TEST),
        Check("eta_z_law", ar.residuals["eta_z_law"], IDENTITY_TOL, IDENTITY_TEST),
        Check("dzbar_theta_ar", ar.residuals["dzbar_theta_ar_scaled"], HOLOMORPHY_TOL, CRITERION_07),
    ]
    expected = chart.metadata.get("theta_ar_expected")
    if expected is not None:
        checks.append(Check("theta_ar_value", float(np.max(np.abs(ar.theta_ar - expected))), THETA_AR_VALUE_TOL,
                            CRITERION_06))
    return checks
