"""The PMC <-> CMC correspondence made executable.

Frenet data (u, C_j, gamma_j, f_j) of a PMC chart maps to CMC data
(u, nu = C_j, p = sqrt(2) f_j, eta_j) for j = 1, 2 and back; integrating the
first-order Frenet systems rebuilds the immersions from data alone.  The
reconstruction initial frame is canonical and constructed in closed form from
the data at the base grid corner, so round trips recover the original chart up
to an ambient isometry, which ``weak_congruence_check`` pins down by frame
matching.
"""

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .ambient import cross_eps, inner, project_to_factor
from .errors import DomainError, PreconditionError, VerificationError
from .families import TARGET_LINE, TARGET_PRODUCT, ImmersionChart
from .diffgeo import (
    conformal_data,
    frenet_scalars,
    grid_d,
    kaehler_functions,
    normal_frame,
    normalized_mismatch,
    parallelism_residual,
    sample_jet,
)
from .utils import write_columns_csv

PARALLELISM_GATE = 1e-4
DATA_TOL = 1e-3
MIXED_TOL = 1e-5  # gate on the mixed-partial residual of the eta integrands
CONGRUENCE_TOL = 1e-3  # aligned distance below which two charts count as congruent
_BLOCK_ROWS = 8  # rows of the half-step grid per field evaluation


# ---------------------------------------------------------------------------
# data records
# ---------------------------------------------------------------------------


@dataclass
class PmcFrenetData:
    """Frenet data (u, C_j, gamma_j, f_j, |H|) of a PMC chart on a grid."""

    eps: int
    Hnorm: float
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    fields: Optional[Callable] = None  # dense evaluation (x, y) -> dict
    residuals: dict = field(default_factory=dict)

    def grids(self):
        return {
            "u": self.u,
            "C1": self.C1,
            "C2": self.C2,
            "gamma1": self.gamma1,
            "gamma2": self.gamma2,
            "f1": self.f1,
            "f2": self.f2,
        }

    def to_csv(self, path):
        write_columns_csv(path, {
            "x": self.x, "y": self.y, "u": self.u, "C1": self.C1, "C2": self.C2,
            "gamma1_re": self.gamma1.real, "gamma1_im": self.gamma1.imag,
            "gamma2_re": self.gamma2.real, "gamma2_im": self.gamma2.imag,
            "f1_re": self.f1.real, "f1_im": self.f1.imag, "f2_re": self.f2.real, "f2_im": self.f2.imag,
        })


@dataclass
class CmcFrenetData:
    """Conformal CMC data (u, nu, p, eta) in M2(eps) x R on a grid."""

    eps: int
    Hval: float
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    nu: np.ndarray
    p: np.ndarray
    eta: np.ndarray
    eta_x: np.ndarray
    eta_y: np.ndarray
    fields: Optional[Callable] = None
    residuals: dict = field(default_factory=dict)

    def eta_z(self):
        return 0.5 * (self.eta_x - 1j * self.eta_y)

    def to_csv(self, path):
        write_columns_csv(path, {
            "x": self.x, "y": self.y, "u": self.u, "nu": self.nu, "p_re": self.p.real, "p_im": self.p.imag,
            "eta": self.eta, "eta_x": self.eta_x, "eta_y": self.eta_y,
        })


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def _pmc_point_fields(chart):
    """Dense pointwise Frenet data of a PMC chart.

    A repeat of the last samples returns the last result: the ``fields`` of
    ``cmc_to_pmc`` asks for the same samples once for each CMC data set.
    """
    last = {}

    def fields(x, y):
        if last and np.array_equal(x, last["x"]) and np.array_equal(y, last["y"]):
            return last["out"]
        jet = sample_jet(chart, x, y)
        u, _ = conformal_data(jet)
        frame = normal_frame(jet)
        C1, C2, _, _ = kaehler_functions(jet)
        gamma1, gamma2, f1, f2 = frenet_scalars(jet, frame)
        e2u = np.exp(2 * u)
        ux = jet.ip(jet.pxx, jet.px) / e2u
        uy = jet.ip(jet.pxy, jet.px) / e2u
        out = {
            "u": u, "ux": ux, "uy": uy, "C1": C1, "C2": C2,
            "gamma1": gamma1, "gamma2": gamma2, "f1": f1, "f2": f2,
            "Hnorm": frame.Hnorm,
        }
        last.update(x=np.array(x), y=np.array(y), out=out)
        return out

    return fields


def pmc_compatibility_residuals(data):
    """Normalized residuals of the PMC integrability system on the data grids."""
    dx = data.x[1, 0] - data.x[0, 0]
    dy = data.y[0, 1] - data.y[0, 0]
    e2u = np.exp(2 * data.u)
    H = data.Hnorm
    interior = (slice(1, -1), slice(1, -1))
    out = {}
    for j, (C, gamma, f) in ((1, (data.C1, data.gamma1, data.f1)), (2, (data.C2, data.gamma2, data.f2))):
        gx, gy = grid_d(gamma, dx, dy)
        g_zbar = 0.5 * (gx + 1j * gy)
        rhs = -1j * H * C * e2u / np.sqrt(2.0)
        out[f"gamma{j}_zbar"] = normalized_mismatch(g_zbar[interior], rhs[interior], terms=(H * e2u[interior],))
        fx, fy = grid_d(f, dx, dy)
        f_zbar = 0.5 * (fx + 1j * fy)
        rhs = 1j * data.eps * e2u * C * gamma / 4.0
        out[f"f{j}_zbar"] = normalized_mismatch(
            f_zbar[interior], rhs[interior], terms=((e2u * np.abs(gamma))[interior],)
        )
        Cx, Cy = grid_d(C, dx, dy)
        C_z = 0.5 * (Cx - 1j * Cy)
        rhs = 2j * np.exp(-2 * data.u) * f * np.conj(gamma) - 1j * H / np.sqrt(2.0) * gamma
        out[f"C{j}_z"] = normalized_mismatch(C_z[interior], rhs[interior], terms=(H * np.abs(gamma)[interior],))
        out[f"gamma{j}_norm"] = normalized_mismatch(
            np.abs(gamma) ** 2, e2u * (1 - C**2) / 2.0, terms=(e2u / 2.0,)
        )
    return out


def extract_pmc_data(chart, nx=81, ny=81):
    """Sample the Frenet data of a PMC chart, refusing non-parallel charts."""
    if chart.target != TARGET_PRODUCT:
        raise DomainError("extract_pmc_data expects a product chart")
    X, Y = chart.grid(nx, ny, shrink=0.02)
    resid = parallelism_residual(chart, X[:: max(1, nx // 16), :: max(1, ny // 16)],
                                 Y[:: max(1, nx // 16), :: max(1, ny // 16)], 5e-4)
    if resid > PARALLELISM_GATE:
        raise PreconditionError(
            f"chart is not PMC: parallelism residual {resid:.2e} > {PARALLELISM_GATE:.1e}"
        )
    fields = _pmc_point_fields(chart)
    F = fields(X, Y)
    Hgrid = F["Hnorm"]
    data = PmcFrenetData(
        eps=chart.eps,
        Hnorm=float(np.mean(Hgrid)),
        x=X,
        y=Y,
        u=F["u"],
        C1=F["C1"],
        C2=F["C2"],
        gamma1=F["gamma1"],
        gamma2=F["gamma2"],
        f1=F["f1"],
        f2=F["f2"],
        fields=fields,
    )
    data.residuals = pmc_compatibility_residuals(data)
    data.residuals["H_spread"] = float(np.max(Hgrid) - np.min(Hgrid))
    data.residuals["parallelism"] = resid
    return data


# ---------------------------------------------------------------------------
# the data maps of the correspondence
# ---------------------------------------------------------------------------


def _path_integrate(x, y, gx, gy, gx_fn=None, gy_fn=None):
    """Potential eta on a grid with eta_x = gx, eta_y = gy (bottom row, then columns).

    Uses Simpson increments with midpoint values from the dense integrands
    when available, trapezoid increments otherwise.
    """
    nx, ny = gx.shape
    dx = x[1, 0] - x[0, 0]
    dy = y[0, 1] - y[0, 0]
    eta = np.zeros_like(gx)
    # bottom row
    if gx_fn is not None:
        mid = gx_fn(x[:-1, 0] + 0.5 * dx, y[:-1, 0])
        inc = (dx / 6.0) * (gx[:-1, 0] + 4.0 * mid + gx[1:, 0])
    else:
        inc = 0.5 * dx * (gx[:-1, 0] + gx[1:, 0])
    eta[1:, 0] = np.cumsum(inc)
    # columns
    if gy_fn is not None:
        mid = gy_fn(x[:, :-1], y[:, :-1] + 0.5 * dy)
        inc = (dy / 6.0) * (gy[:, :-1] + 4.0 * mid + gy[:, 1:])
    else:
        inc = 0.5 * dy * (gy[:, :-1] + gy[:, 1:])
    eta[:, 1:] = eta[:, [0]] + np.cumsum(inc, axis=1)
    return eta


def pmc_to_cmc(data, j):
    """Forward data map of the correspondence: (u, C_j, gamma_j, f_j) to (u, nu, p, eta).

    eta comes from path integration of eta_x = -sqrt(2) Im gamma_j,
    eta_y = -sqrt(2) Re gamma_j; the mixed-partial consistency of these
    integrands is reported (and gates) as ``eta_mixed``.
    """
    if j not in (1, 2):
        raise DomainError("j must be 1 or 2")
    gamma = data.gamma1 if j == 1 else data.gamma2
    C = data.C1 if j == 1 else data.C2
    f = data.f1 if j == 1 else data.f2
    gx = -np.sqrt(2.0) * gamma.imag
    gy = -np.sqrt(2.0) * gamma.real
    dx = data.x[1, 0] - data.x[0, 0]
    dy = data.y[0, 1] - data.y[0, 0]
    cross1 = np.gradient(gx, dy, axis=1, edge_order=2)
    cross2 = np.gradient(gy, dx, axis=0, edge_order=2)
    mixed = normalized_mismatch(
        cross1[1:-1, 1:-1], cross2[1:-1, 1:-1], terms=(np.abs(gx) + np.abs(gy),)
    )
    if mixed > MIXED_TOL:
        raise VerificationError(
            f"eta path integration inconsistent: mixed-partial residual {mixed:.2e}"
        )

    pf = data.fields
    gx_fn = gy_fn = None
    if pf is not None:
        key = f"gamma{j}"
        gx_fn = lambda xs, ys: -np.sqrt(2.0) * pf(xs, ys)[key].imag
        gy_fn = lambda xs, ys: -np.sqrt(2.0) * pf(xs, ys)[key].real
    eta = _path_integrate(data.x, data.y, gx, gy, gx_fn, gy_fn)

    fields = None
    if pf is not None:

        def fields(xs, ys):
            F = pf(xs, ys)
            g = F[f"gamma{j}"]
            return {
                "u": F["u"], "ux": F["ux"], "uy": F["uy"],
                "nu": F[f"C{j}"], "p": np.sqrt(2.0) * F[f"f{j}"],
                "eta_x": -np.sqrt(2.0) * g.imag, "eta_y": -np.sqrt(2.0) * g.real,
            }

    out = CmcFrenetData(
        eps=data.eps,
        Hval=data.Hnorm,
        x=data.x,
        y=data.y,
        u=data.u,
        nu=C,
        p=np.sqrt(2.0) * f,
        eta=eta,
        eta_x=gx,
        eta_y=gy,
        fields=fields,
    )
    out.residuals = cmc_compatibility_residuals(out)
    out.residuals["eta_mixed"] = mixed
    return out


def cmc_compatibility_residuals(data):
    """Normalized residuals of the CMC integrability system on the data grids."""
    dx = data.x[1, 0] - data.x[0, 0]
    dy = data.y[0, 1] - data.y[0, 0]
    e2u = np.exp(2 * data.u)
    H = data.Hval
    eta_z = data.eta_z()
    interior = (slice(1, -1), slice(1, -1))
    out = {}
    px, py = grid_d(data.p, dx, dy)
    p_zbar = 0.5 * (px + 1j * py)
    out["p_zbar"] = normalized_mismatch(
        p_zbar[interior], (data.eps * e2u / 2.0 * data.nu * eta_z)[interior], terms=(e2u[interior],)
    )
    nx_, ny_ = grid_d(data.nu, dx, dy)
    nu_z = 0.5 * (nx_ - 1j * ny_)
    rhs = -H * eta_z - 2.0 * np.exp(-2 * data.u) * data.p * np.conj(eta_z)
    out["nu_z"] = normalized_mismatch(nu_z[interior], rhs[interior], terms=(H * np.abs(eta_z)[interior] + 1.0,))
    ex_x, _ = grid_d(data.eta_x, dx, dy)
    _, ey_y = grid_d(data.eta_y, dx, dy)
    eta_lap = 0.25 * (ex_x + ey_y)
    out["eta_zzbar"] = normalized_mismatch(
        eta_lap[interior], (e2u / 2.0 * H * data.nu)[interior], terms=(e2u[interior] * H,)
    )
    out["eta_z_norm"] = normalized_mismatch(
        np.abs(eta_z) ** 2, e2u / 4.0 * (1 - data.nu**2), terms=(e2u / 4.0,)
    )
    return out


def cmc_to_pmc(data1, data2):
    """Inverse data map: two CMC data sets with equal (u, H) assemble to PMC data."""
    if data1.eps != data2.eps:
        raise DomainError("signatures differ")
    if data1.x.shape != data2.x.shape or np.max(np.abs(data1.x - data2.x)) > 1e-12 or np.max(
        np.abs(data1.y - data2.y)
    ) > 1e-12:
        raise DomainError("grids differ")
    if np.max(np.abs(data1.u - data2.u)) > DATA_TOL:
        raise DomainError("induced metrics differ: the data do not describe one surface")
    if abs(data1.Hval - data2.Hval) > DATA_TOL:
        raise DomainError("mean curvatures differ")

    def gamma_of(d):
        return -1j * np.sqrt(2.0) * d.eta_z()

    f1, f2 = data1.fields, data2.fields
    fields = None
    if f1 is not None and f2 is not None:

        def fields(xs, ys):
            F1 = f1(xs, ys)
            F2 = f2(xs, ys)
            def gm(F):
                return -1j * np.sqrt(2.0) * 0.5 * (F["eta_x"] - 1j * F["eta_y"])
            return {
                "u": F1["u"], "ux": F1["ux"], "uy": F1["uy"],
                "C1": F1["nu"], "C2": F2["nu"],
                "gamma1": gm(F1), "gamma2": gm(F2),
                "f1": F1["p"] / np.sqrt(2.0), "f2": F2["p"] / np.sqrt(2.0),
                "Hnorm": np.full_like(F1["u"], 0.5 * (data1.Hval + data2.Hval)),
            }

    out = PmcFrenetData(
        eps=data1.eps,
        Hnorm=0.5 * (data1.Hval + data2.Hval),
        x=data1.x,
        y=data1.y,
        u=data1.u,
        C1=data1.nu,
        C2=data2.nu,
        gamma1=gamma_of(data1),
        gamma2=gamma_of(data2),
        f1=data1.p / np.sqrt(2.0),
        f2=data2.p / np.sqrt(2.0),
        fields=fields,
    )
    out.residuals = pmc_compatibility_residuals(out)
    return out


# ---------------------------------------------------------------------------
# canonical initial frames
# ---------------------------------------------------------------------------


def _factor_base(eps):
    if eps == +1:
        p0 = np.array([1.0, 0.0, 0.0])
        E1 = np.array([0.0, 1.0, 0.0])
    else:
        p0 = np.array([0.0, 0.0, 1.0])
        E1 = np.array([1.0, 0.0, 0.0])
    return p0, E1, cross_eps(p0, E1, eps)


def initial_cmc_state(eps, u0, nu0, eta_x0, eta_y0, eta0=0.0):
    """Canonical start (Psi, Psi_x, Psi_y, N) compatible with the data values."""
    p0, F1, F2 = _factor_base(eps)
    e2u = np.exp(2 * u0)
    a_sq = e2u - eta_x0**2
    if a_sq <= 0:
        raise DomainError("initial data violates |Psi_x|^2 = e^{2u}")
    a = np.sqrt(a_sq)
    alpha = -eta_x0 * eta_y0 / a
    beta_sq = e2u - eta_y0**2 - alpha**2
    if beta_sq < -1e-10 * e2u:
        raise DomainError("initial data violates the conformal frame conditions")
    # beta = 0 is legitimate: cylinders have a rank-one factor projection
    beta = np.sqrt(max(beta_sq, 0.0))
    psi_x = a * F1
    psi_y = alpha * F1 + beta * F2
    Psi = np.concatenate([p0, [eta0]])
    Psi_x = np.concatenate([psi_x, [eta_x0]])
    Psi_y = np.concatenate([psi_y, [eta_y0]])
    # unit normal in T(M2 x R), sign chosen to match the vertical component nu
    ip = partial(inner, eps=eps)
    cands = []
    for f in (np.concatenate([F1, [0.0]]), np.concatenate([F2, [0.0]]), np.array([0.0, 0, 0, 1.0])):
        v = f - ip(f, Psi_x) * Psi_x / e2u - ip(f, Psi_y) * Psi_y / e2u
        cands.append((ip(v, v), v))
    nsq, N = max(cands, key=lambda t: t[0])
    N = N / np.sqrt(nsq)
    if abs(N[3]) > 1e-12 and abs(nu0) > 1e-12 and np.sign(N[3]) != np.sign(nu0):
        N = -N
    if abs(abs(N[3]) - abs(nu0)) > 1e-6:
        raise DomainError(
            f"initial data inconsistent: |N_vertical| = {abs(N[3]):.6f} but nu = {nu0:.6f}"
        )
    return np.concatenate([Psi, Psi_x, Psi_y, N])


def initial_pmc_state(eps, u0, C1, C2, gamma1, gamma2):
    """Canonical start (Phi, Phi_x, Phi_y, xi) solving the frame relations.

    Solved in closed form in the null basis m = E1 - i E2 of each factor:
    with A = |a1|^2 + |a2|^2 = e^{2u}(1+C1)/8 split by (1 +- C2), the blocks
    a_k, b_k of Phi_z and the xi coefficients follow from the J-relations.
    """
    if min(1 - C1**2, 1 - C2**2) < 1e-12:
        raise DomainError("complex point: the canonical frame construction needs C_j^2 < 1")
    p0, E1, E2 = _factor_base(eps)
    m = E1 - 1j * E2
    e2u = np.exp(2 * u0)
    t = e2u * (1 + C1) / 16.0
    a1 = np.sqrt((1 + C2) * t)
    a2 = np.sqrt((1 - C2) * t)
    b1 = (1 - C1) * np.conj(a1) * gamma2 / ((1 + C2) * np.conj(gamma1))
    b2 = -(1 - C1) * np.conj(a2) * gamma2 / ((1 - C2) * np.conj(gamma1))
    s1 = 1j * (1 - C1) * a1 / gamma1
    t1 = -1j * (1 + C1) * b1 / gamma1
    s2 = 1j * (1 - C1) * a2 / gamma1
    t2 = -1j * (1 + C1) * b2 / gamma1
    phi_z = a1 * m + b1 * np.conj(m)
    psi_z = a2 * m + b2 * np.conj(m)
    xi = np.concatenate([s1 * m + t1 * np.conj(m), s2 * m + t2 * np.conj(m)])
    Phi = np.concatenate([p0, p0])
    Phi_z = np.concatenate([phi_z, psi_z])
    Phi_x = 2.0 * Phi_z.real
    Phi_y = -2.0 * Phi_z.imag
    return Phi, Phi_x, Phi_y, xi


# ---------------------------------------------------------------------------
# reconstruction: CMC charts in M2(eps) x R
# ---------------------------------------------------------------------------


def _spline_chart(x, y, fields_by_name, eps, target, name, metadata):
    """Wrap gridded jet fields into an ImmersionChart via quintic splines."""
    xs = x[:, 0]
    ys = y[0, :]
    kx = min(5, len(xs) - 1)
    ky = min(5, len(ys) - 1)
    splines = {
        key: [RectBivariateSpline(xs, ys, comp, kx=kx, ky=ky) for comp in np.moveaxis(arr, -1, 0)]
        for key, arr in fields_by_name.items()
    }
    dim = fields_by_name["p"].shape[-1]

    def eval_field(key, X, Y):
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        out = np.empty(X.shape + (dim,))
        for i, sp in enumerate(splines[key]):
            out[..., i] = sp.ev(X, Y)
        return out

    def evaluate(X, Y):
        return eval_field("p", X, Y)

    def jet(X, Y):
        return {key: eval_field(key, X, Y) for key in ("p", "px", "py", "pxx", "pxy", "pyy")}

    return ImmersionChart(
        name=name, eps=eps, target=target, domain=(xs[0], xs[-1], ys[0], ys[-1]),
        evaluate=evaluate, jet=jet, metadata=metadata,
    )


def _cmc_rhs_blocks(eps, S, F, Hval):
    """Second derivatives and N derivatives from the CMC Frenet system.

    S holds rows (Psi, Psi_x, Psi_y, N) flattened to (..., 16); F is the dict
    of data fields at the evaluation points.
    """
    Psi, Px, Py, N = S[..., 0:4], S[..., 4:8], S[..., 8:12], S[..., 12:16]
    Psi_hat = np.concatenate([Psi[..., :3], np.zeros_like(Psi[..., :1])], axis=-1)
    Psi_z = 0.5 * (Px - 1j * Py)
    u_z = 0.5 * (F["ux"] - 1j * F["uy"])
    eta_z = 0.5 * (F["eta_x"] - 1j * F["eta_y"])
    e2u = np.exp(2 * F["u"])
    p = F["p"]
    nu = F["nu"]
    A = 2.0 * u_z[..., None] * Psi_z + p[..., None] * N + eps * (eta_z**2)[..., None] * Psi_hat
    B = (e2u / 2.0 * Hval)[..., None] * N + eps * (np.abs(eta_z) ** 2 - e2u / 2.0)[..., None] * Psi_hat
    Nz = (
        -Hval * Psi_z
        - (2.0 * np.exp(-2 * F["u"]) * p)[..., None] * np.conj(Psi_z)
        + (eps * nu * eta_z)[..., None] * Psi_hat
    )
    Pxx = 2.0 * (A.real + B.real)
    Pyy = 2.0 * (B.real - A.real)
    Pxy = -2.0 * A.imag
    Nx = 2.0 * Nz.real
    Ny = -2.0 * Nz.imag
    return Pxx, Pxy, Pyy, Nx, Ny


def _project_cmc_state(eps, S, u_val):
    """Restore the quadric, tangency and Gram constraints of a CMC state."""
    ip = partial(inner, eps=eps)
    Psi, Px, Py, N = S[..., 0:4], S[..., 4:8], S[..., 8:12], S[..., 12:16]
    psi = project_to_factor(Psi[..., :3], eps)
    Psi = np.concatenate([psi, Psi[..., 3:]], axis=-1)
    Psi_hat = np.concatenate([psi, np.zeros_like(Psi[..., :1])], axis=-1)

    def detach(V):
        return V - (eps * ip(V, Psi_hat))[..., None] * Psi_hat

    Px, Py, N = detach(Px), detach(Py), detach(N)
    eu = np.exp(u_val)
    e1 = Px / np.sqrt(ip(Px, Px))[..., None]
    f2 = Py - ip(Py, e1)[..., None] * e1
    e2 = f2 / np.sqrt(ip(f2, f2))[..., None]
    n = N - ip(N, e1)[..., None] * e1 - ip(N, e2)[..., None] * e2
    n = n / np.sqrt(ip(n, n))[..., None]
    keep = np.where(ip(n, N) >= 0, 1.0, -1.0)
    return np.concatenate([Psi, eu[..., None] * e1, eu[..., None] * e2, keep[..., None] * n], axis=-1)


def _grid_fields(data):
    """Dense field evaluation, from the data's own closure or spline fallback.

    The fallback fits quintic splines to the node arrays and takes u_x and u_y
    from the derivatives of u's spline.
    """
    if data.fields is not None:
        return data.fields
    xs = data.x[:, 0]
    ys = data.y[0, :]
    kx = min(5, len(xs) - 1)
    ky = min(5, len(ys) - 1)
    if isinstance(data, CmcFrenetData):
        names = {"u": data.u, "nu": data.nu, "eta_x": data.eta_x, "eta_y": data.eta_y}
        complexes = {"p": data.p}
    else:
        names = {"u": data.u, "C1": data.C1, "C2": data.C2}
        complexes = {"gamma1": data.gamma1, "gamma2": data.gamma2, "f1": data.f1, "f2": data.f2}
    sp = {k: RectBivariateSpline(xs, ys, v, kx=kx, ky=ky) for k, v in names.items()}
    spc = {
        k: (RectBivariateSpline(xs, ys, v.real, kx=kx, ky=ky), RectBivariateSpline(xs, ys, v.imag, kx=kx, ky=ky))
        for k, v in complexes.items()
    }

    def fields(X, Y):
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        out = {k: s.ev(X, Y) for k, s in sp.items()}
        out["ux"] = sp["u"].ev(X, Y, dx=1)
        out["uy"] = sp["u"].ev(X, Y, dy=1)
        for k, (sr, si) in spc.items():
            out[k] = sr.ev(X, Y) + 1j * si.ev(X, Y)
        return out

    return fields


def _half_step_axis(t):
    """Nodes t interleaved with the midpoints t_i + dt/2, formed as ``_path_integrate`` forms them."""
    h = np.empty(2 * len(t) - 1)
    h[::2] = t
    h[1::2] = t[:-1] + 0.5 * (t[1] - t[0])
    return h


def _sample_half_step(fields, x, y):
    """The fields on the (2nx-1) x (2ny-1) half-step grid of the node grid (x, y).

    Even entries are the nodes, odd entries the midpoints; together they hold
    every point an RK4 stage, a projection or a Simpson increment reads.  The
    grid is evaluated in blocks of rows, which bounds the memory the
    evaluation's intermediates take.
    """
    xh = _half_step_axis(x[:, 0])
    yh = _half_step_axis(y[0, :])
    blocks = [
        fields(*np.meshgrid(xh[i:i + _BLOCK_ROWS], yh, indexing="ij"))
        for i in range(0, len(xh), _BLOCK_ROWS)
    ]
    return {k: np.concatenate([b[k] for b in blocks]) for k in blocks[0]}


def _frenet_input(data, resid_tol):
    """Gate the data residuals; return the off-grid evaluator and the half-step samples."""
    worst = max(v for k, v in data.residuals.items() if k != "parallelism")
    if worst > resid_tol:
        raise PreconditionError(f"data residuals too large to integrate: {worst:.2e}")
    fields = _grid_fields(data)
    return fields, _sample_half_step(fields, data.x, data.y)


@dataclass(frozen=True)
class _FrenetSystem:
    """A first-order Frenet system as the grid marcher sees it.

    The state packs (P, P_x, P_y, normal part) with P in R^dim.  ``blocks(S, F)``
    gives (P_xx, P_xy, P_yy, normal_x, normal_y), the normal parts packed as in
    S; ``project(S, u)`` restores the constraints at conformal factor u.
    """

    dim: int
    blocks: Callable
    project: Callable


def _march_line(system, S, t, F, along_x):
    """RK4 with per-step projection over the nodes t; returns the states at the nodes.

    F holds the data on the half-step points of t along its first axis, so the
    step from t[i] reads its stages at 2i, 2i+1 and 2i+2.
    """
    d = system.dim

    def rhs(S, m):
        Pxx, Pxy, Pyy, Nx, Ny = system.blocks(S, {k: v[m] for k, v in F.items()})
        if along_x:
            return np.concatenate([S[..., d:2 * d], Pxx, Pxy, Nx], axis=-1)
        return np.concatenate([S[..., 2 * d:3 * d], Pxy, Pyy, Ny], axis=-1)

    states = [S]
    for i in range(len(t) - 1):
        h = t[i + 1] - t[i]
        k1 = rhs(S, 2 * i)
        k2 = rhs(S + 0.5 * h * k1, 2 * i + 1)
        k3 = rhs(S + 0.5 * h * k2, 2 * i + 1)
        k4 = rhs(S + h * k3, 2 * i + 2)
        S = system.project(S + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), F["u"][2 * i + 2])
        states.append(S)
    return np.stack(states)


def _march_grid(system, init, G, x, y):
    """March a Frenet system over the node grid from ``init`` at its corner.

    Marches the bottom row first, then all columns in parallel; the top row is
    marched again from its left end, and its largest distance from the
    columns' ends is the loop closure.  G holds the data on the half-step grid.
    Returns the states (nx, ny, width) and the loop closure.
    """
    row = _march_line(system, init, x[:, 0], {k: v[:, 0] for k, v in G.items()}, True)
    cols = _march_line(system, row, y[0, :], {k: v[::2].T for k, v in G.items()}, False)
    states = cols.transpose(1, 0, 2)
    top = _march_line(system, states[0, -1], x[:, -1], {k: v[:, -1] for k, v in G.items()}, True)
    d = system.dim
    closure = float(np.max(np.linalg.norm(top[:, :d] - states[:, -1, :d], axis=-1)))
    return states, closure


def integrate_cmc_frenet(data, resid_tol=DATA_TOL, recertify=True):
    """Rebuild the CMC immersion from its data by integrating the Frenet system.

    The data are sampled once on the half-step grid (the nodes and the
    midpoints between them), from ``data.fields`` or, when that is None, from
    quintic splines of the node arrays; every RK4 stage and projection reads
    those samples.  Marches the bottom row first, then all columns in
    parallel; the top row is marched independently and the loop-closure
    defect reported.  Returns the reconstructed chart (quintic-spline
    evaluate with Frenet-exact jets) and a report dictionary.
    """
    fields, G = _frenet_input(data, resid_tol)
    eps = data.eps
    X, Y = data.x, data.y
    nx, ny = X.shape
    init = initial_cmc_state(
        eps, float(G["u"][0, 0]), float(G["nu"][0, 0]), float(G["eta_x"][0, 0]), float(G["eta_y"][0, 0]),
        eta0=float(data.eta[0, 0]),
    )
    system = _FrenetSystem(4, partial(_cmc_rhs_blocks, eps, Hval=data.Hval), partial(_project_cmc_state, eps))
    states, closure = _march_grid(system, init, G, X, Y)

    # assemble jets from the Frenet right-hand side at the nodes
    Fg = {k: v[::2, ::2] for k, v in G.items()}
    Pxx, Pxy, Pyy, _, _ = _cmc_rhs_blocks(eps, states, Fg, data.Hval)
    chart = _spline_chart(
        X, Y,
        {"p": states[..., 0:4], "px": states[..., 4:8], "py": states[..., 8:12],
         "pxx": Pxx, "pxy": Pxy, "pyy": Pyy},
        eps, TARGET_LINE, "cmc_reconstruction", {"Hval": data.Hval},
    )
    report = {"loop_closure": closure}
    if recertify:
        from .diffgeo import abresch_rosenberg

        ar = abresch_rosenberg(chart, nx=min(nx, 41), ny=min(ny, 41), shrink=0.03, h_const_tol=1e-3)
        report["H_match"] = float(np.max(np.abs(ar.H_scalar - data.Hval)))
        xg, yg = ar.x, ar.y
        Fa = fields(xg, yg)
        eta_z = 0.5 * (Fa["eta_x"] - 1j * Fa["eta_y"])
        theta_data = data.Hval * Fa["p"] - 0.5 * eps * eta_z**2
        report["theta_ar_match"] = float(np.max(np.abs(ar.theta_ar - theta_data)))
        report["conformal_defect"] = float(np.max(ar.conformal_defect))
        if report["H_match"] > 1e-3:
            raise VerificationError(f"reconstruction failed: |H| off by {report['H_match']:.2e}")
    return chart, report


# ---------------------------------------------------------------------------
# reconstruction: PMC charts in M2(eps) x M2(eps)
# ---------------------------------------------------------------------------


def _pmc_rhs_blocks(eps, S, F, Hval):
    """Second derivatives of Phi and first derivatives of xi from the Frenet system.

    S is the packed state (Phi, Phi_x, Phi_y, Re xi, Im xi); xi_x and xi_y
    come back packed as (Re, Im).
    """
    Phi, Px, Py, xi = _unpack_pmc(S)
    Phi_hat = np.concatenate([Phi[..., :3], -Phi[..., 3:]], axis=-1)
    Phi_z = 0.5 * (Px - 1j * Py)
    u_z = 0.5 * (F["ux"] - 1j * F["uy"])
    e2u = np.exp(2 * F["u"])
    C1, C2 = F["C1"], F["C2"]
    g1, g2, f1, f2 = F["gamma1"], F["gamma2"], F["f1"], F["f2"]
    xibar = np.conj(xi)
    H = Hval / np.sqrt(2.0) * (xi + xibar)
    A = (
        2.0 * u_z[..., None] * Phi_z
        + f1[..., None] * xi
        + f2[..., None] * xibar
        - (eps * g1 * g2 / 2.0)[..., None] * Phi_hat
    )
    B = (e2u / 2.0)[..., None] * H - (eps * e2u / 4.0)[..., None] * Phi - (
        eps * e2u / 4.0 * C1 * C2
    )[..., None] * Phi_hat
    xi_z = (
        -(Hval / np.sqrt(2.0)) * Phi_z
        - (2.0 * np.exp(-2 * F["u"]) * f2)[..., None] * np.conj(Phi_z)
        + (eps * 1j * C1 * g2 / 2.0)[..., None] * Phi_hat
    )
    xi_zbar = (
        -(Hval / np.sqrt(2.0)) * np.conj(Phi_z)
        - (2.0 * np.exp(-2 * F["u"]) * np.conj(f1))[..., None] * Phi_z
        - (eps * 1j * C2 * np.conj(g1) / 2.0)[..., None] * Phi_hat
    )
    Pxx = 2.0 * (A.real + B.real)
    Pyy = 2.0 * (B.real - A.real)
    Pxy = -2.0 * A.imag
    xi_x = xi_z + xi_zbar
    xi_y = 1j * (xi_z - xi_zbar)
    return (
        Pxx, Pxy, Pyy,
        np.concatenate([xi_x.real, xi_x.imag], axis=-1),
        np.concatenate([xi_y.real, xi_y.imag], axis=-1),
    )


def _pack_pmc(Phi, Px, Py, xi):
    return np.concatenate([Phi, Px, Py, xi.real, xi.imag], axis=-1)


def _unpack_pmc(S):
    return S[..., 0:6], S[..., 6:12], S[..., 12:18], S[..., 18:24] + 1j * S[..., 24:30]


def _project_pmc_state(eps, S, u_val):
    ip = partial(inner, eps=eps)
    Phi, Px, Py, xi = _unpack_pmc(S)
    phi = project_to_factor(Phi[..., :3], eps)
    psi = project_to_factor(Phi[..., 3:], eps)
    Phi = np.concatenate([phi, psi], axis=-1)
    Phi_hat = np.concatenate([phi, -psi], axis=-1)

    def detach(V):
        V = V - (ip(V, Phi) / (2.0 * eps))[..., None] * Phi
        return V - (ip(V, Phi_hat) / (2.0 * eps))[..., None] * Phi_hat

    Px, Py, xi = detach(Px), detach(Py), detach(xi)
    eu = np.exp(u_val)
    e1 = Px / np.sqrt(ip(Px, Px))[..., None]
    f2 = Py - ip(Py, e1)[..., None] * e1
    e2 = f2 / np.sqrt(ip(f2, f2))[..., None]
    xi = xi - ip(xi, e1)[..., None] * e1 - ip(xi, e2)[..., None] * e2
    # restore <xi, xi> = 0 at first order, then <xi, conj(xi)> = 1
    xi = xi - 0.5 * ip(xi, xi)[..., None] * np.conj(xi)
    xi = xi / np.sqrt(np.abs(ip(xi, np.conj(xi))))[..., None]
    return _pack_pmc(Phi, eu[..., None] * e1, eu[..., None] * e2, xi)


def integrate_pmc_frenet(data, resid_tol=DATA_TOL, recertify=True):
    """Rebuild the PMC immersion from its data by integrating the Frenet system.

    The data are sampled once on the half-step grid and marched as in
    ``integrate_cmc_frenet``.
    """
    fields, G = _frenet_input(data, resid_tol)
    eps = data.eps
    X, Y = data.x, data.y
    nx, ny = X.shape
    init = _pack_pmc(*initial_pmc_state(
        eps, float(G["u"][0, 0]), float(G["C1"][0, 0]), float(G["C2"][0, 0]),
        complex(G["gamma1"][0, 0]), complex(G["gamma2"][0, 0]),
    ))
    system = _FrenetSystem(6, partial(_pmc_rhs_blocks, eps, Hval=data.Hnorm), partial(_project_pmc_state, eps))
    states, closure = _march_grid(system, init, G, X, Y)

    Fg = {k: v[::2, ::2] for k, v in G.items()}
    Phi, Px, Py, _ = _unpack_pmc(states)
    Pxx, Pxy, Pyy, _, _ = _pmc_rhs_blocks(eps, states, Fg, data.Hnorm)
    chart = _spline_chart(
        X, Y,
        {"p": Phi, "px": Px, "py": Py, "pxx": Pxx, "pxy": Pxy, "pyy": Pyy},
        eps, TARGET_PRODUCT, "pmc_reconstruction", {"Hnorm": data.Hnorm},
    )
    report = {"loop_closure": closure}
    if recertify:
        Xs, Ys = chart.grid(min(nx, 33), min(ny, 33), shrink=0.03)
        report["parallelism"] = parallelism_residual(chart, Xs, Ys, 5e-4)
        jet = sample_jet(chart, Xs, Ys)
        frame = normal_frame(jet)
        scal = frenet_scalars(jet, frame)
        from .diffgeo import hopf_coefficients

        t1, t2 = hopf_coefficients(jet, frame, scal)
        Fa = fields(Xs, Ys)
        amp = 2.0 * np.sqrt(2.0) * data.Hnorm
        td1 = amp * Fa["f1"] + 0.5 * eps * Fa["gamma1"] ** 2
        td2 = amp * Fa["f2"] + 0.5 * eps * Fa["gamma2"] ** 2
        report["theta_match"] = float(max(np.max(np.abs(t1 - td1)), np.max(np.abs(t2 - td2))))
        report["H_match"] = float(np.max(np.abs(frame.Hnorm - data.Hnorm)))
    return chart, report


# ---------------------------------------------------------------------------
# congruence testing
# ---------------------------------------------------------------------------


def _factor_frame_matrix(p, v, eps, reflect=False):
    e = v / np.sqrt(inner(v, v, eps))
    je = cross_eps(p, e, eps)
    if reflect:
        je = -je
    return np.stack([p, e, je], axis=-1)


def factor_isometry_from_frames(pA, vA, pB, vB, eps, reflect=False):
    """The isometry of M2(eps) sending the frame (pA, vA) to (pB, +-vB's frame)."""
    MA = _factor_frame_matrix(pA, vA, eps)
    MB = _factor_frame_matrix(pB, vB, eps, reflect=reflect)
    return MB @ np.linalg.inv(MA)


def _height_alignment(hA, hB):
    """Best s in {+1, -1} and offset c with hB ~ s hA + c."""
    best = None
    for s in (+1.0, -1.0):
        c = float(np.mean(hB - s * hA))
        d = float(np.max(np.abs(s * hA + c - hB)))
        if best is None or d < best[2]:
            best = (s, c, d)
    return best


@dataclass
class CongruenceVerdict:
    congruent: bool
    distance: float
    domain_map: str  # "id" or "conj"
    details: dict = field(default_factory=dict)


def weak_congruence_check(chartA, chartB, nx=41, ny=41):
    """Weak congruence of two charts into M2(eps) x R.

    Searches over the domain reflection z -> zbar composed with ambient
    isometries (factor isometry from frame matching, both orientations, and
    height direction/offset).  Returns the verdict with the smallest aligned
    max pointwise distance.
    """
    if chartA.target == TARGET_PRODUCT or chartB.target == TARGET_PRODUCT:
        raise DomainError("weak_congruence_check compares charts into M2(eps) x R")
    eps = chartA.eps
    XA, YA = chartA.grid(nx, ny, shrink=0.05)
    PA = chartA.evaluate(XA, YA)
    jA = sample_jet(chartA, XA, YA)
    y0A, y1A = chartA.domain[2], chartA.domain[3]

    best = None
    i0, j0 = nx // 2, ny // 2
    for domain_map in ("id", "conj"):
        XB = XA.copy()
        YB = YA if domain_map == "id" else (chartB.domain[2] + chartB.domain[3]) - YA
        try:
            PB = chartB.evaluate(XB, YB)
            jB = sample_jet(chartB, XB, YB)
        except DomainError:
            continue
        vA = jA.px[i0, j0, :3]
        vB = jB.px[i0, j0, :3]
        if inner(vA, vA, eps) < 1e-12 or inner(vB, vB, eps) < 1e-12:
            continue
        for reflect in (False, True):
            L = factor_isometry_from_frames(
                PA[i0, j0, :3], vA, PB[i0, j0, :3], vB, eps, reflect=reflect
            )
            mapped = np.einsum("ij,...j->...i", L, PA[..., :3])
            dist_factor = np.max(np.linalg.norm(mapped - PB[..., :3], axis=-1))
            s, c, dist_h = _height_alignment(PA[..., 3], PB[..., 3])
            dist = max(dist_factor, dist_h)
            if best is None or dist < best.distance:
                best = CongruenceVerdict(
                    congruent=bool(dist <= CONGRUENCE_TOL),
                    distance=float(dist),
                    domain_map=domain_map,
                    details={"reflect": reflect, "height_sign": s, "height_offset": c},
                )
    if best is None:
        return CongruenceVerdict(False, np.inf, "none")
    return best


def product_alignment_distance(chartA, chartB, nx=25, ny=25):
    """Aligned max distance between two product charts (per-factor frame matching)."""
    eps = chartA.eps
    X, Y = chartA.grid(nx, ny, shrink=0.05)
    PA = chartA.evaluate(X, Y)
    PB = chartB.evaluate(X, Y)
    jA = sample_jet(chartA, X, Y)
    jB = sample_jet(chartB, X, Y)
    i0, j0 = nx // 2, ny // 2
    best = None
    for r1 in (False, True):
        for r2 in (False, True):
            L1 = factor_isometry_from_frames(
                PA[i0, j0, :3], jA.px[i0, j0, :3], PB[i0, j0, :3], jB.px[i0, j0, :3], eps, reflect=r1
            )
            # the second factor of profile charts is a curve: use its x-velocity
            vA2 = jA.px[i0, j0, 3:]
            vB2 = jB.px[i0, j0, 3:]
            if inner(vA2, vA2, eps) < 1e-10:
                vA2 = jA.py[i0, j0, 3:]
                vB2 = jB.py[i0, j0, 3:]
            L2 = factor_isometry_from_frames(PA[i0, j0, 3:], vA2, PB[i0, j0, 3:], vB2, eps, reflect=r2)
            mapped1 = np.einsum("ij,...j->...i", L1, PA[..., :3])
            mapped2 = np.einsum("ij,...j->...i", L2, PA[..., 3:])
            dist = max(
                np.max(np.linalg.norm(mapped1 - PB[..., :3], axis=-1)),
                np.max(np.linalg.norm(mapped2 - PB[..., 3:], axis=-1)),
            )
            if best is None or dist < best:
                best = float(dist)
    return best
