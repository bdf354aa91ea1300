"""Numerical verification engine: every invariant and identity a chart must satisfy.

All computations happen in the chart's isothermal coordinates on a rectangular
grid.  Derivatives of the immersion come from the chart's 2-jet (analytic when
the family provides one, centered second-order differences otherwise);
derivatives of derived scalar fields (u, C_j, theta_j, ...) come from centered
differences, Richardson-extrapolated on the power-of-two refined grid that
``surface_invariants`` samples once, so that the identity residuals measure the
chart itself, not the differentiation; the requested grid is a stride of it.
The pointwise fields are built in blocks of whole refined rows (about
``BLOCK_POINTS`` samples each), so the jet, the frame and the determinant
stacks of one block are alive at a time; every pointwise operation acts per
sample, so the blocked fields are bitwise those of one pass over the grid.

Sign conventions inherit from :mod:`pmcsurf.ambient`: the normal companion
Htilde of the mean curvature vector is oriented so that
{e1, e2, Htilde/|H|, H/|H|} is positively oriented for the product orientation
form pi1*omega ^ pi2*omega, and xi = (H - i Htilde)/(sqrt(2) |H|).
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .ambient import inner, metric_diag, orientation_form, product_j_pair
from .errors import DomainError, InfeasibleParameters, VerificationError
from .families import TARGET_CIRCLE, TARGET_LINE, TARGET_PRODUCT, ImmersionChart
from .utils import write_columns_csv

EPS_FLOOR = 1e-12
MIN_HNORM = 1e-10  # below this |H| the surface counts as minimal and Htilde is undefined
SHRINK = 0.02  # margin fraction cut from each side of the chart rectangle before sampling
PARALLELISM_DELTA = 5e-4  # step of the centered difference of H in the parallelism residual
# samples per block of the pointwise pass in surface_invariants: much larger
# blocks raise its peak memory, much smaller ones add per-call overhead
BLOCK_POINTS = 8192


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------


@dataclass
class JetSample:
    """First and second partials of a chart on an array of samples."""

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
        return self.p.shape[-1]

    def ip(self, v, w):
        """Bilinear inner product of the chart's ambient (no conjugation)."""
        return inner(v, w, self.eps)

    # Phi_z, Phi_zz and J_j Phi_z are built once per jet: the Frenet scalars
    # and the definitional Hopf path both read them
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
        return product_j_pair(self.p, self.phi_z, self.eps, check=False)


def _leaves_domain(domain, x, y, margin):
    """Whether some sample, moved by +-margin along either axis, lies outside the domain."""
    x0, x1, y0, y1 = domain
    return bool(
        np.any(x - margin < x0 - 1e-12)
        or np.any(x + margin > x1 + 1e-12)
        or np.any(y - margin < y0 - 1e-12)
        or np.any(y + margin > y1 + 1e-12)
    )


def sample_jet(chart, x, y, fd_step=None):
    """2-jet of the chart at samples (x, y): the analytic one unless ``fd_step`` is given.

    A given ``fd_step`` (required when the chart has no analytic jet) selects
    centered second-order differences of ``evaluate`` with that step, which
    must be positive and finite: nine ``evaluate`` calls, at (x, y), the four
    axis shifts by +-fd_step (each shared by the first and second difference
    along its axis) and the four diagonal shifts of the mixed difference.
    Samples, and with ``fd_step`` the stencil points x +- fd_step and
    y +- fd_step, must stay inside the chart domain up to a 1e-12 slack; a
    stencil that leaves it raises ``InfeasibleParameters`` (clause
    ``"fd_step"``), the step being too large for where the samples lie.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if _leaves_domain(chart.domain, x, y, 0.0):
        raise DomainError("samples fall outside the chart domain")

    if fd_step is None:
        if chart.jet is None:
            raise DomainError("numeric jets need an explicit fd_step")
        J = chart.jet(x, y)
        return JetSample(chart, x, y, J["p"], J["px"], J["py"], J["pxx"], J["pxy"], J["pyy"])

    d = float(fd_step)
    if not (np.isfinite(d) and d > 0):
        raise DomainError(f"fd_step must be positive and finite, got {fd_step}")
    if _leaves_domain(chart.domain, x, y, d):
        raise InfeasibleParameters(
            f"the difference stencil of fd_step {d:g} leaves the chart domain"
            f" [{chart.domain[0]:.6g}, {chart.domain[1]:.6g}] x [{chart.domain[2]:.6g}, {chart.domain[3]:.6g}]",
            "fd_step",
        )
    ev = chart.evaluate
    p = ev(x, y)
    p_xp, p_xm = ev(x + d, y), ev(x - d, y)
    p_yp, p_ym = ev(x, y + d), ev(x, y - d)
    px = (p_xp - p_xm) / (2 * d)
    py = (p_yp - p_ym) / (2 * d)
    pxx = (p_xp - 2 * p + p_xm) / d**2
    pyy = (p_yp - 2 * p + p_ym) / d**2
    pxy = (ev(x + d, y + d) - ev(x + d, y - d) - ev(x - d, y + d) + ev(x - d, y - d)) / (4 * d**2)
    return JetSample(chart, x, y, p, px, py, pxx, pxy, pyy)


# ---------------------------------------------------------------------------
# pointwise invariants
# ---------------------------------------------------------------------------


def conformal_data(jet):
    """Log conformal factor u = log |px| and the conformality defect."""
    gxx = jet.ip(jet.px, jet.px)
    gyy = jet.ip(jet.py, jet.py)
    gxy = jet.ip(jet.px, jet.py)
    if np.any(gxx <= 0):
        raise DomainError("degenerate tangent direction: |Phi_x|^2 <= 0")
    u = 0.5 * np.log(gxx)
    defect = np.maximum(np.abs(gxx - gyy), np.abs(gxy)) / gxx
    return u, defect


@dataclass
class NormalFrame:
    """Orthonormal data along a product chart: tangents, H, Htilde, xi, normal projector."""

    e1: np.ndarray
    e2: np.ndarray
    H: np.ndarray
    Htilde: np.ndarray
    Hnorm: np.ndarray
    xi: np.ndarray
    proj: Callable


def _mean_curvature(jet):
    """H = normal projection of (Phi_xx + Phi_yy) / (2 e^{2u}), the projector onto the
    normal plane of the surface inside T(M2 x M2), and the tangent frame e1, e2."""
    eps = jet.eps
    P = jet.p
    Phat = np.concatenate([P[..., :3], -P[..., 3:]], axis=-1)
    gxx = jet.ip(jet.px, jet.px)
    e1 = jet.px / np.sqrt(gxx)[..., None]
    f2 = jet.py - jet.ip(jet.py, e1)[..., None] * e1
    n2 = jet.ip(f2, f2)
    if np.any(n2 <= 0):
        raise DomainError("degenerate tangent plane: rank of the differential drops")
    e2 = f2 / np.sqrt(n2)[..., None]

    def proj(V):
        out = V - (jet.ip(V, P) / (2.0 * eps))[..., None] * P
        out = out - (jet.ip(out, Phat) / (2.0 * eps))[..., None] * Phat
        out = out - jet.ip(out, e1)[..., None] * e1
        out = out - jet.ip(out, e2)[..., None] * e2
        return out

    return proj((jet.pxx + jet.pyy) / (2.0 * gxx)[..., None]), proj, e1, e2


def _metric_complement(jet, vectors):
    """The direction g-orthogonal to five given 6-vectors (generalized cross).

    Returns n with <n, w>_g = det([v1, ..., v5, w]) for every w; smooth in the
    inputs, unlike any seed-and-project construction.
    """
    A = np.stack(vectors, axis=-2)  # (..., 5, 6)
    cols = np.arange(6)
    n = np.empty(A.shape[:-2] + (6,))
    for i in range(6):
        minor = A[..., :, cols != i]
        n[..., i] = (-1) ** (i + 1) * np.linalg.det(minor)
    # raise the index: G^{-1} = G for a signature diagonal of +-1
    return n * metric_diag(jet.eps, 6)


def normal_frame(jet):
    """Mean curvature vector H, its oriented normal companion Htilde, and xi.

    H is the normal projection of (Phi_xx + Phi_yy) / (2 e^{2u}); Htilde the
    rotation of H by 90 degrees in the normal plane, oriented so that
    {e1, e2, Htilde/|H|, H/|H|} is positively oriented; xi = (H - i Htilde) /
    (sqrt(2) |H|).
    """
    if jet.dim != 6:
        raise DomainError("normal_frame expects a product chart")
    eps = jet.eps
    H, proj, e1, e2 = _mean_curvature(jet)
    Hsq = jet.ip(H, H)
    if np.any(Hsq < MIN_HNORM**2):
        raise DomainError("minimal surface: H is (numerically) null, Htilde undefined")
    Hnorm = np.sqrt(Hsq)

    P = jet.p
    Phat = np.concatenate([P[..., :3], -P[..., 3:]], axis=-1)
    n = _metric_complement(jet, (e1, e2, H / Hnorm[..., None], P, Phat))
    nsq = jet.ip(n, n)
    if np.any(nsq <= 0):
        raise DomainError("could not span the normal plane")
    n = n / np.sqrt(nsq)[..., None]

    orient = orientation_form(jet.p, e1, e2, n, H / Hnorm[..., None], eps=eps)
    sign = np.where(orient >= 0, 1.0, -1.0)
    Htilde = sign[..., None] * Hnorm[..., None] * n
    xi = (H - 1j * Htilde) / (np.sqrt(2.0) * Hnorm[..., None])
    return NormalFrame(e1=e1, e2=e2, H=H, Htilde=Htilde, Hnorm=Hnorm, xi=xi, proj=proj)


def kaehler_functions(jet):
    """Kaehler functions C_j = <J_j Phi_x, Phi_y> e^{-2u} and the factor Jacobians."""
    if jet.dim != 6:
        raise DomainError("Kaehler functions live on product charts")
    e2u = jet.ip(jet.px, jet.px)
    J1px, J2px = product_j_pair(jet.p, jet.px, jet.eps, check=False)
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
    Hsq = jet.ip(frame.H, frame.H)
    out = []
    for Jphi_z, s in zip(jet.j_phi_z, (+1, -1)):
        w = frame.H + s * 1j * frame.Htilde
        term1 = 2.0 * jet.ip(sigma_zz, w)
        pair = jet.ip(Jphi_z, w)
        out.append(term1 + jet.eps / (4.0 * Hsq) * pair**2)
    return tuple(out)


def ambient_curvature(jet, X, Y, Z, W):
    """Curvature tensor of M2(eps) x M2(eps): blockwise space-form curvature."""
    eps = jet.eps
    total = 0.0
    for sl in (slice(0, 3), slice(3, 6)):
        x, y, z, w = X[..., sl], Y[..., sl], Z[..., sl], W[..., sl]
        total = total + inner(x, w, eps) * inner(y, z, eps) - inner(x, z, eps) * inner(y, w, eps)
    return eps * total


# ---------------------------------------------------------------------------
# grid derivative helpers
# ---------------------------------------------------------------------------


def grid_d(f, dx, dy):
    """Centered first derivatives of a grid field (second-order edges via numpy)."""
    fx = np.gradient(f, dx, axis=0, edge_order=2)
    fy = np.gradient(f, dy, axis=1, edge_order=2)
    return fx, fy


def grid_dz_bar(f, dx, dy):
    """d/dz-bar = (d/dx + i d/dy)/2 of a grid field."""
    fx, fy = grid_d(f, dx, dy)
    return 0.5 * (fx + 1j * fy)


def grid_laplacian(f, dx, dy):
    """Five-point Laplacian; NaN on the boundary ring."""
    out = np.full_like(np.asarray(f, dtype=float), np.nan)
    out[1:-1, 1:-1] = (f[2:, 1:-1] - 2 * f[1:-1, 1:-1] + f[:-2, 1:-1]) / dx**2 + (
        f[1:-1, 2:] - 2 * f[1:-1, 1:-1] + f[1:-1, :-2]
    ) / dy**2
    return out


def grid_d_richardson(f, dx, dy):
    """Richardson-extrapolated first derivatives (fourth order, NaN 2-ring)."""
    fx = np.full_like(np.asarray(f, dtype=float), np.nan)
    fy = np.full_like(np.asarray(f, dtype=float), np.nan)
    c = (slice(2, -2), slice(2, -2))
    fx_h = (f[3:-1, 2:-2] - f[1:-3, 2:-2]) / (2 * dx)
    fx_2h = (f[4:, 2:-2] - f[:-4, 2:-2]) / (4 * dx)
    fy_h = (f[2:-2, 3:-1] - f[2:-2, 1:-3]) / (2 * dy)
    fy_2h = (f[2:-2, 4:] - f[2:-2, :-4]) / (4 * dy)
    fx[c] = (4.0 * fx_h - fx_2h) / 3.0
    fy[c] = (4.0 * fy_h - fy_2h) / 3.0
    return fx, fy


def grid_laplacian_richardson(f, dx, dy):
    """Richardson extrapolation of the centered Laplacian over strides h and 2h.

    Fourth-order accurate; NaN on a boundary ring of width two.
    """
    lap_h = grid_laplacian(f, dx, dy)
    out = np.full_like(np.asarray(f, dtype=float), np.nan)
    c = (slice(2, -2), slice(2, -2))
    lap_2h = (f[4:, 2:-2] - 2 * f[c] + f[:-4, 2:-2]) / (2 * dx) ** 2 + (
        f[2:-2, 4:] - 2 * f[c] + f[2:-2, :-4]
    ) / (2 * dy) ** 2
    out[c] = (4.0 * lap_h[c] - lap_2h) / 3.0
    return out


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


def holomorphy_residual(theta, dx, dy):
    """(absolute, normalized) size of d/dz-bar of a field sampled on a grid.

    The absolute value is max |d_zbar theta| over the interior; the normalized
    one divides by max |theta| + floor.  Grids smaller than 5x5 are rejected.
    """
    theta = np.asarray(theta)
    if theta.shape[0] < 5 or theta.shape[1] < 5:
        raise DomainError("holomorphy residual needs at least a 5x5 grid")
    dzb = grid_dz_bar(theta, dx, dy)[1:-1, 1:-1]
    absolute = float(np.max(np.abs(dzb)))
    normalized = absolute / (float(np.max(np.abs(theta))) + EPS_FLOOR)
    return absolute, normalized


# ---------------------------------------------------------------------------
# the full invariant record
# ---------------------------------------------------------------------------


@dataclass
class SurfaceInvariants:
    """Per-grid-point invariants of a product chart plus residual summary."""

    chart: ImmersionChart
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    conformal_defect: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    jac_phi: np.ndarray
    jac_psi: np.ndarray
    K: Optional[np.ndarray]  # NaN on the boundary ring; None on the refined pass
    Kbar: np.ndarray
    Kbar_perp: np.ndarray
    Kbar_direct: np.ndarray
    Kbar_perp_direct: np.ndarray
    H: Optional[np.ndarray]  # None on the refined pass
    Htilde: Optional[np.ndarray]  # None on the refined pass
    Hnorm: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    theta1_def: np.ndarray
    theta2_def: np.ndarray
    X1: np.ndarray  # (<X_1, Phi_x>, <X_1, Phi_y>) on the last axis; X_j the tangential part of J_j Htilde
    X2: np.ndarray
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
        write_columns_csv(path, {
            "x": self.x,
            "y": self.y,
            "u": self.u,
            "conformal_defect": self.conformal_defect,
            "C1": self.C1,
            "C2": self.C2,
            "K": self.K,
            "Kbar": self.Kbar,
            "Kbar_perp": self.Kbar_perp,
            "Hnorm": self.Hnorm,
            "gamma1_re": self.gamma1.real,
            "gamma1_im": self.gamma1.imag,
            "gamma2_re": self.gamma2.real,
            "gamma2_im": self.gamma2.imag,
            "f1_re": self.f1.real,
            "f1_im": self.f1.imag,
            "f2_re": self.f2.real,
            "f2_im": self.f2.imag,
            "theta1_re": self.theta1.real,
            "theta1_im": self.theta1.imag,
            "theta2_re": self.theta2.real,
            "theta2_im": self.theta2.imag,
        })


def parallelism_residual(chart, X, Y, delta, fd_step=None):
    """Max normalized normal-derivative of H over the samples: certifies PMC."""

    def h_at(xs, ys):
        return _mean_curvature(sample_jet(chart, xs, ys, fd_step=fd_step))[0]

    jet0 = sample_jet(chart, X, Y, fd_step=fd_step)
    Hc, proj0, _, _ = _mean_curvature(jet0)
    dHx = (h_at(X + delta, Y) - h_at(X - delta, Y)) / (2 * delta)
    dHy = (h_at(X, Y + delta) - h_at(X, Y - delta)) / (2 * delta)
    hn = np.sqrt(jet0.ip(Hc, Hc))
    rx = np.sqrt(np.abs(jet0.ip(proj0(dHx), proj0(dHx))))
    ry = np.sqrt(np.abs(jet0.ip(proj0(dHy), proj0(dHy))))
    return float(np.max(np.maximum(rx, ry) / hn))


def _pointwise_block(chart, x, y, fd_step):
    """Every pointwise field of the invariant record on one block of samples."""
    jet = sample_jet(chart, x, y, fd_step=fd_step)
    u, defect = conformal_data(jet)
    frame = normal_frame(jet)
    C1, C2, jac_phi, jac_psi = kaehler_functions(jet)
    scalars = frenet_scalars(jet, frame)
    gamma1, gamma2, f1, f2 = scalars
    theta1, theta2 = hopf_coefficients(jet, frame, scalars)
    theta1_def, theta2_def = hopf_definitional(jet, frame)

    eps = chart.eps
    Hn = frame.Hnorm
    e3 = frame.Htilde / Hn[..., None]
    e4 = frame.H / Hn[..., None]
    X1, X2 = (
        np.stack([jet.ip(JH, jet.px), jet.ip(JH, jet.py)], axis=-1)
        for JH in product_j_pair(jet.p, frame.Htilde, eps, check=False)
    )
    return dict(
        u=u,
        conformal_defect=defect,
        C1=C1,
        C2=C2,
        jac_phi=jac_phi,
        jac_psi=jac_psi,
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
        X1=X1,
        X2=X2,
    )


def surface_invariants(chart, nx=81, ny=81, fd_step=None, resid_refine=4):
    """Compute the full invariant record of a product chart on an nx x ny grid.

    The chart is sampled once, on r(nx-1)+1 x r(ny-1)+1 points (r = ``resid_refine``);
    the identity residuals differentiate the derived fields there, finely enough that
    the differentiation does not dominate them.  The record holds every r-th point of
    that pass, with K and the holomorphy and parallelism residuals computed on it.
    r must be a power of two, for which the stride is bitwise the nx x ny grid; 1 means
    no refinement.

    The pass walks blocks of a whole number of r rows, about ``BLOCK_POINTS``
    samples each, so every block starts on a row of the requested grid.  The
    scalar fields are written into arrays of the refined grid; H and Htilde are
    kept on the requested grid only, since no identity differentiates them.
    """
    if chart.target != TARGET_PRODUCT:
        raise DomainError("surface_invariants expects a product chart; see abresch_rosenberg")
    r = resid_refine
    if r < 1 or r & (r - 1):
        raise DomainError(f"resid_refine must be a power of two, got {r}")
    Xr, Yr = chart.grid(r * (nx - 1) + 1, r * (ny - 1) + 1, shrink=SHRINK)
    rows = max(1, BLOCK_POINTS // (r * Xr.shape[1])) * r
    fine, coarse = {}, {"H": [], "Htilde": []}
    for i0 in range(0, Xr.shape[0], rows):
        block = _pointwise_block(chart, Xr[i0 : i0 + rows], Yr[i0 : i0 + rows], fd_step)
        for k, parts in coarse.items():
            parts.append(block.pop(k)[::r, ::r].copy())  # a copy, so the block's H is freed
        for k, v in block.items():
            if k not in fine:
                fine[k] = np.empty(Xr.shape + v.shape[2:], dtype=v.dtype)
            fine[k][i0 : i0 + rows] = v
    fine.update(x=Xr, y=Yr)

    refined = SurfaceInvariants(chart=chart, K=None, H=None, Htilde=None, parallelism_residual=np.nan, **fine)
    residuals = identity_residuals(refined)

    pointwise = {k: np.ascontiguousarray(v[::r, ::r]) for k, v in fine.items()}
    pointwise.update({k: np.concatenate(parts) for k, parts in coarse.items()})
    X, Y, u = pointwise["x"], pointwise["y"], pointwise["u"]
    dx = X[1, 0] - X[0, 0]
    dy = Y[0, 1] - Y[0, 0]
    inv = SurfaceInvariants(
        chart=chart,
        K=-np.exp(-2 * u) * grid_laplacian(u, dx, dy),
        parallelism_residual=parallelism_residual(chart, X, Y, PARALLELISM_DELTA, fd_step=fd_step),
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


def identity_residuals(inv):
    """Normalized residuals of the scalar identities of a product chart.

    ``inv`` holds the pointwise fields on its uniform grid (K, H and Htilde are not read).
    Keys: frame_gamma (|gamma_j|^2 law), eq5 (|f_j|^2 law), eq6 (gradient law),
    eq7 (Laplacian law), eq12 (div X_j), eq14 (gradient-X law), plus the
    two-path checks kbar_paths and hopf_paths.
    """
    eps = inv.chart.eps
    X, Y = inv.x, inv.y
    dx = X[1, 0] - X[0, 0]
    dy = Y[0, 1] - Y[0, 0]
    e2u = np.exp(2 * inv.u)
    Hsq = inv.Hnorm**2
    # K enters several identities; evaluate it at fourth order here so its
    # truncation error does not mask the chart residuals
    interior = (slice(2, -2), slice(2, -2))
    K = -np.exp(-2 * inv.u) * grid_laplacian_richardson(inv.u, dx, dy)
    out = {}

    for j, (C, gamma, f, theta, Xj) in enumerate(
        [(inv.C1, inv.gamma1, inv.f1, inv.theta1, inv.X1), (inv.C2, inv.gamma2, inv.f2, inv.theta2, inv.X2)],
        start=1,
    ):
        sgn = (-1.0) ** j
        # frame relation |gamma_j|^2 = e^{2u}(1 - C_j^2)/2
        out[f"frame_gamma{j}"] = normalized_mismatch(
            np.abs(gamma) ** 2, e2u * (1 - C**2) / 2.0, terms=(e2u / 2.0,)
        )
        # eq5: |f_j|^2 = e^{4u}/8 (|H|^2 - K + eps C_j^2)
        out[f"eq5_j{j}"] = normalized_mismatch(
            np.abs(f[interior]) ** 2,
            (e2u**2 / 8.0 * (Hsq - K + eps * C**2))[interior],
            terms=((e2u**2 / 8.0 * (Hsq + np.abs(K) + C**2))[interior],),
        )
        # gradients of C_j
        Cx, Cy = grid_d_richardson(C, dx, dy)
        grad_sq = np.exp(-2 * inv.u) * (Cx**2 + Cy**2)
        # eq6
        lhs6 = grad_sq + 4.0 * eps * np.exp(-4 * inv.u) * np.abs(theta) ** 2
        rhs6 = (1 - C**2 + 4 * eps * Hsq) * (eps * (1 - C**2) / 4.0 + Hsq + eps * C**2 - K)
        scale6 = np.abs(1 - C**2 + 4 * eps * Hsq) * ((1 - C**2) / 4.0 + Hsq + C**2 + np.abs(K))
        out[f"eq6_j{j}"] = normalized_mismatch(
            lhs6[interior], rhs6[interior], terms=(scale6[interior],)
        )
        # eq7: Laplacian of C_j
        lapC = np.exp(-2 * inv.u) * grid_laplacian_richardson(C, dx, dy)
        rhs7 = -C * (4 * Hsq - 2 * K + eps * (1 + C**2))
        scale7 = np.abs(C) * (4 * Hsq + 2 * np.abs(K) + 1 + C**2) + Hsq
        out[f"eq7_j{j}"] = normalized_mismatch(
            lapC[interior], rhs7[interior], terms=(scale7[interior],)
        )
        a1, a2 = Xj[..., 0], Xj[..., 1]
        # eq12: div X_j = (-1)^{j+1} 2 C_j |H|^2
        a1x, _ = grid_d_richardson(a1, dx, dy)
        _, a2y = grid_d_richardson(a2, dx, dy)
        div = np.exp(-2 * inv.u) * (a1x + a2y)
        out[f"eq12_j{j}"] = normalized_mismatch(
            div[interior], (-sgn) * 2.0 * C[interior] * Hsq[interior], terms=(2.0 * Hsq,)
        )
        # eq14: |grad C_j|^2 = (1 - C_j^2)(eps C_j^2 - K) + (-1)^j 2 <grad C_j, X_j>
        pair = np.exp(-2 * inv.u) * (a1 * Cx + a2 * Cy)
        rhs14 = (1 - C**2) * (eps * C**2 - K) + sgn * 2.0 * pair
        scale14 = (1 - C**2) * (C**2 + np.abs(K)) + 2.0 * np.abs(pair) + Hsq
        out[f"eq14_j{j}"] = normalized_mismatch(
            grad_sq[interior], rhs14[interior], terms=(scale14[interior],)
        )

    # joint curvature scale keeps the Kbar_perp check meaningful when it is 0 = 0
    kbar_terms = (inv.Kbar, inv.Kbar_direct, inv.Kbar_perp, inv.Kbar_perp_direct)
    out["kbar_paths"] = max(
        normalized_mismatch(inv.Kbar, inv.Kbar_direct, terms=kbar_terms),
        normalized_mismatch(inv.Kbar_perp, inv.Kbar_perp_direct, terms=kbar_terms),
    )
    # Hopf two-path check normalized by the size of the ingredients, not of theta
    hopf_scale = (
        2.0 * np.sqrt(2.0) * inv.Hnorm * (np.abs(inv.f1) + np.abs(inv.f2))
        + 0.5 * (np.abs(inv.gamma1) ** 2 + np.abs(inv.gamma2) ** 2),
    )
    out["hopf_paths"] = max(
        normalized_mismatch(inv.theta1, inv.theta1_def, terms=hopf_scale),
        normalized_mismatch(inv.theta2, inv.theta2_def, terms=hopf_scale),
    )
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

    JH_pair = product_j_pair(jet.p, frame.Htilde, chart.eps, check=False)
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
    """Invariants of a CMC chart in M2(eps) x R on a grid."""

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


def ar_theta(h_scalar, p, eta_z, eps):
    """Abresch-Rosenberg coefficient theta_AR = H p - (eps/2) eta_z^2."""
    return h_scalar * p - 0.5 * eps * eta_z**2


def abresch_rosenberg(chart, nx=81, ny=81, shrink=SHRINK, fd_step=None, h_const_tol=1e-6):
    """Abresch-Rosenberg data theta_AR = H p - (eps/2) eta_z^2 of a CMC chart.

    The unit normal N is aligned with the mean curvature vector, so the scalar
    mean curvature is positive.  Raises when |H| varies beyond ``h_const_tol``
    (the chart is not CMC).
    """
    if chart.target not in (TARGET_LINE, TARGET_CIRCLE):
        raise DomainError("abresch_rosenberg expects a chart into M2(eps) x R")
    X, Y = chart.grid(nx, ny, shrink=shrink)
    dx = X[1, 0] - X[0, 0]
    dy = Y[0, 1] - Y[0, 0]
    jet = sample_jet(chart, X, Y, fd_step=fd_step)
    eps = chart.eps

    u, defect = conformal_data(jet)
    e2u = np.exp(2 * u)
    P_hat = np.concatenate([jet.p[..., :3], np.zeros_like(jet.p[..., :1])], axis=-1)

    def proj(V):
        out = V - (eps * jet.ip(V, P_hat))[..., None] * P_hat
        out = out - (jet.ip(out, jet.px) / e2u)[..., None] * jet.px
        out = out - (jet.ip(out, jet.py) / e2u)[..., None] * jet.py
        return out

    Hvec = proj((jet.pxx + jet.pyy) / (2.0 * e2u)[..., None])
    Hsq = jet.ip(Hvec, Hvec)
    if np.any(Hsq <= 0):
        raise DomainError("mean curvature vector vanishes somewhere: not a CMC chart with H != 0")
    H_scalar = np.sqrt(Hsq)
    spread = float(np.max(H_scalar) - np.min(H_scalar))
    if spread > h_const_tol:
        raise VerificationError(f"|H| varies by {spread:.3e} > {h_const_tol:.1e}: chart is not CMC")
    N = Hvec / H_scalar[..., None]
    nu = N[..., 3]

    psi_zz = 0.25 * (jet.pxx - jet.pyy - 2j * jet.pxy)
    p = jet.ip(psi_zz, N)
    eta_z = 0.5 * (jet.px[..., 3] - 1j * jet.py[..., 3])
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
        "eta_z_law": normalized_mismatch(
            np.abs(eta_z) ** 2, e2u / 4.0 * (1 - nu**2), terms=(e2u / 4.0,)
        ),
        "H_spread": spread,
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
