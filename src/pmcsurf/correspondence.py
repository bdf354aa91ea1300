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

from .ambient import cross_eps, inner, project_to_factor
from .errors import DomainError, PreconditionError, VerificationError
from .families import TARGET_LINE, TARGET_PRODUCT, ImmersionChart
from .diffgeo import (
    abresch_rosenberg,
    ar_theta,
    conformal_data,
    frenet_scalars,
    grid_d,
    grid_dz_bar,
    hopf_coefficients,
    hopf_theta,
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
    # dense (x, y) -> dict of the grids() keys plus ux, uy; None for node-only
    # data.  The node arrays are its values at (x, y): extract_pmc_data samples
    # it there, cmc_to_pmc applies _pmc_map to the fields and to the grids
    fields: Optional[Callable] = None
    residuals: dict = field(default_factory=dict)

    def grids(self):
        return {"u": self.u, "C1": self.C1, "C2": self.C2, "gamma1": self.gamma1, "gamma2": self.gamma2,
                "f1": self.f1, "f2": self.f2}

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
    # dense (x, y) -> dict of the grids() keys plus ux, uy; None for node-only
    # data.  The node arrays are its values at (x, y): pmc_to_cmc applies
    # _cmc_map to the PMC record's fields and to its grids
    fields: Optional[Callable] = None
    residuals: dict = field(default_factory=dict)

    def grids(self):
        return {"u": self.u, "nu": self.nu, "p": self.p, "eta_x": self.eta_x, "eta_y": self.eta_y}

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
        g_zbar = grid_dz_bar(gamma, dx, dy)
        rhs = -1j * H * C * e2u / np.sqrt(2.0)
        out[f"gamma{j}_zbar"] = normalized_mismatch(g_zbar[interior], rhs[interior], terms=(H * e2u[interior],))
        f_zbar = grid_dz_bar(f, dx, dy)
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
        eps=chart.eps, Hnorm=float(np.mean(Hgrid)), x=X, y=Y, fields=fields,
        **{k: F[k] for k in ("u", "C1", "C2", "gamma1", "gamma2", "f1", "f2")},
    )
    data.residuals = pmc_compatibility_residuals(data)
    data.residuals["H_spread"] = float(np.max(Hgrid) - np.min(Hgrid))
    data.residuals["parallelism"] = resid
    return data


# ---------------------------------------------------------------------------
# the data maps of the correspondence
# ---------------------------------------------------------------------------


def _cmc_map(F, j):
    """Forward map on a dict of PMC data: (u, C_j, gamma_j, f_j) to (u, nu, p, eta_x, eta_y).

    u_x and u_y pass through when F holds them.
    """
    g = F[f"gamma{j}"]
    return {
        **{k: F[k] for k in ("u", "ux", "uy") if k in F},
        "nu": F[f"C{j}"], "p": np.sqrt(2.0) * F[f"f{j}"],
        "eta_x": -np.sqrt(2.0) * g.imag, "eta_y": -np.sqrt(2.0) * g.real,
    }


def _pmc_map(F1, F2):
    """Inverse map on two dicts of CMC data with one u: PMC data (u, C_j, gamma_j, f_j).

    u (and u_x, u_y when F1 holds them) come from F1.
    """
    out = {k: F1[k] for k in ("u", "ux", "uy") if k in F1}
    for j, F in ((1, F1), (2, F2)):
        out[f"C{j}"] = F["nu"]
        out[f"gamma{j}"] = -1j * np.sqrt(2.0) * (0.5 * (F["eta_x"] - 1j * F["eta_y"]))
        out[f"f{j}"] = F["p"] / np.sqrt(2.0)
    return out


def _spline(xs, ys, v):
    """Quintic spline of v on the grid xs x ys, of lower degree on an axis of fewer than six nodes.

    scipy is imported here, on the first spline build, so that a run that
    builds none (chart certification) never loads it.
    """
    from scipy.interpolate import RectBivariateSpline

    return RectBivariateSpline(xs, ys, v, kx=min(5, len(xs) - 1), ky=min(5, len(ys) - 1))


def _grid_fields(data):
    """Dense evaluation of a record's data: its ``fields``, or splines of its node arrays.

    For node-only data (``fields`` None) every entry of ``data.grids()`` gets
    a quintic spline, a complex entry one for its real and one for its
    imaginary part, and u_x, u_y are the derivatives of u's spline.
    """
    if data.fields is not None:
        return data.fields
    spline = partial(_spline, data.x[:, 0], data.y[0, :])
    sp = {
        k: (spline(v.real), spline(v.imag)) if np.iscomplexobj(v) else (spline(v),)
        for k, v in data.grids().items()
    }

    def fields(X, Y):
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        out = {k: s[0].ev(X, Y) if len(s) == 1 else s[0].ev(X, Y) + 1j * s[1].ev(X, Y) for k, s in sp.items()}
        out["ux"] = sp["u"][0].ev(X, Y, dx=1)
        out["uy"] = sp["u"][0].ev(X, Y, dy=1)
        return out

    return fields


def _path_integrate(x, y, gx, gy, fields):
    """Potential eta on a grid with eta_x = gx, eta_y = gy (bottom row, then columns).

    Simpson increments: the node values are gx and gy, the midpoint values
    the ``eta_x`` and ``eta_y`` of the dense source ``fields``, read in one
    call for the bottom row and one for the columns.
    """
    dx = x[1, 0] - x[0, 0]
    dy = y[0, 1] - y[0, 0]
    eta = np.zeros_like(gx)
    mid = fields(x[:-1, 0] + 0.5 * dx, y[:-1, 0])["eta_x"]
    eta[1:, 0] = np.cumsum((dx / 6.0) * (gx[:-1, 0] + 4.0 * mid + gx[1:, 0]))
    mid = fields(x[:, :-1], y[:, :-1] + 0.5 * dy)["eta_y"]
    eta[:, 1:] = eta[:, [0]] + np.cumsum((dy / 6.0) * (gy[:, :-1] + 4.0 * mid + gy[:, 1:]), axis=1)
    return eta


def pmc_to_cmc(data, j):
    """Forward data map of the correspondence: (u, C_j, gamma_j, f_j) to (u, nu, p, eta).

    The node arrays are ``_cmc_map`` of ``data.grids()``, and the dense
    ``fields`` (None for node-only data) is ``_cmc_map`` composed onto
    ``data.fields``.  eta comes from path integration of
    eta_x = -sqrt(2) Im gamma_j, eta_y = -sqrt(2) Re gamma_j, with midpoints
    from ``_grid_fields`` of the new record; the mixed-partial consistency
    of these integrands is reported (and gates) as ``eta_mixed``.
    """
    if j not in (1, 2):
        raise DomainError("j must be 1 or 2")
    G = _cmc_map(data.grids(), j)
    gx, gy = G["eta_x"], G["eta_y"]
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
    out = CmcFrenetData(
        eps=data.eps, Hval=data.Hnorm, x=data.x, y=data.y, eta=None,
        fields=None if pf is None else lambda xs, ys: _cmc_map(pf(xs, ys), j),
        **G,
    )
    out.eta = _path_integrate(data.x, data.y, gx, gy, _grid_fields(out))
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
    p_zbar = grid_dz_bar(data.p, dx, dy)
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
    """Inverse data map: two CMC data sets with equal (u, H) assemble to PMC data.

    The node arrays are ``_pmc_map`` of the two records' ``grids()``, and the
    dense ``fields`` is ``_pmc_map`` composed onto their ``fields`` (None
    unless both have one).
    """
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

    f1, f2 = data1.fields, data2.fields
    out = PmcFrenetData(
        eps=data1.eps, Hnorm=0.5 * (data1.Hval + data2.Hval), x=data1.x, y=data1.y,
        fields=None if f1 is None or f2 is None else lambda xs, ys: _pmc_map(f1(xs, ys), f2(xs, ys)),
        **_pmc_map(data1.grids(), data2.grids()),
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
    splines = {
        key: [_spline(xs, ys, comp) for comp in np.moveaxis(arr, -1, 0)]
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

    def jet(X, Y):
        return {key: eval_field(key, X, Y) for key in ("p", "px", "py", "pxx", "pxy", "pyy")}

    return ImmersionChart(
        name=name, eps=eps, target=target, domain=(xs[0], xs[-1], ys[0], ys[-1]),
        jet=jet, metadata=metadata,
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


def _integrate_frenet(data, resid_tol, system, start, target, name, metadata):
    """Rebuild a chart from its data: the body both Frenet integrators share.

    Gates the data residuals, samples ``_grid_fields(data)`` once on the
    half-step grid, marches ``system`` from the state ``start(F0)`` (F0 the
    data at the grid corner) and wraps the states, with the second
    derivatives the system gives at the nodes, as a quintic-spline chart.
    Returns the chart, the loop closure and the dense source.
    """
    worst = max(v for k, v in data.residuals.items() if k != "parallelism")
    if worst > resid_tol:
        raise PreconditionError(f"data residuals too large to integrate: {worst:.2e}")
    fields = _grid_fields(data)
    G = _sample_half_step(fields, data.x, data.y)
    states, closure = _march_grid(system, start({k: v[0, 0] for k, v in G.items()}), G, data.x, data.y)
    Pxx, Pxy, Pyy, _, _ = system.blocks(states, {k: v[::2, ::2] for k, v in G.items()})
    d = system.dim
    chart = _spline_chart(
        data.x, data.y,
        {"p": states[..., :d], "px": states[..., d:2 * d], "py": states[..., 2 * d:3 * d],
         "pxx": Pxx, "pxy": Pxy, "pyy": Pyy},
        data.eps, target, name, metadata,
    )
    return chart, closure, fields


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
    eps = data.eps
    nx, ny = data.x.shape
    chart, closure, fields = _integrate_frenet(
        data, resid_tol,
        _FrenetSystem(4, partial(_cmc_rhs_blocks, eps, Hval=data.Hval), partial(_project_cmc_state, eps)),
        lambda F0: initial_cmc_state(
            eps, float(F0["u"]), float(F0["nu"]), float(F0["eta_x"]), float(F0["eta_y"]), eta0=float(data.eta[0, 0])
        ),
        TARGET_LINE, "cmc_reconstruction", {"Hval": data.Hval},
    )
    report = {"loop_closure": closure}
    if recertify:
        ar = abresch_rosenberg(chart, nx=min(nx, 41), ny=min(ny, 41), shrink=0.03, h_const_tol=1e-3)
        report["H_match"] = float(np.max(np.abs(ar.H_scalar - data.Hval)))
        xg, yg = ar.x, ar.y
        Fa = fields(xg, yg)
        eta_z = 0.5 * (Fa["eta_x"] - 1j * Fa["eta_y"])
        report["theta_ar_match"] = float(np.max(np.abs(ar.theta_ar - ar_theta(data.Hval, Fa["p"], eta_z, eps))))
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
    eps = data.eps
    nx, ny = data.x.shape
    chart, closure, fields = _integrate_frenet(
        data, resid_tol,
        _FrenetSystem(6, partial(_pmc_rhs_blocks, eps, Hval=data.Hnorm), partial(_project_pmc_state, eps)),
        lambda F0: _pack_pmc(*initial_pmc_state(
            eps, float(F0["u"]), float(F0["C1"]), float(F0["C2"]), complex(F0["gamma1"]), complex(F0["gamma2"])
        )),
        TARGET_PRODUCT, "pmc_reconstruction", {"Hnorm": data.Hnorm},
    )
    report = {"loop_closure": closure}
    if recertify:
        Xs, Ys = chart.grid(min(nx, 33), min(ny, 33), shrink=0.03)
        report["parallelism"] = parallelism_residual(chart, Xs, Ys, 5e-4)
        jet = sample_jet(chart, Xs, Ys)
        frame = normal_frame(jet)
        scal = frenet_scalars(jet, frame)
        t1, t2 = hopf_coefficients(jet, frame, scal)
        Fa = fields(Xs, Ys)
        td1, td2 = (hopf_theta(data.Hnorm, Fa[f"f{j}"], Fa[f"gamma{j}"], eps) for j in (1, 2))
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


def _aligned_factor_distance(pA, vA, pB, vB, eps, reflect):
    """Max distance from factor block pB to pA moved by the isometry matching the centre frames."""
    i0, j0 = pA.shape[0] // 2, pA.shape[1] // 2
    L = factor_isometry_from_frames(pA[i0, j0], vA, pB[i0, j0], vB, eps, reflect=reflect)
    mapped = np.einsum("ij,...j->...i", L, pA)
    return np.max(np.linalg.norm(mapped - pB, axis=-1))


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
    jA = sample_jet(chartA, XA, YA)
    PA = jA.p

    best = None
    i0, j0 = nx // 2, ny // 2
    for domain_map in ("id", "conj"):
        XB = XA.copy()
        YB = YA if domain_map == "id" else (chartB.domain[2] + chartB.domain[3]) - YA
        try:
            jB = sample_jet(chartB, XB, YB)
        except DomainError:
            continue
        PB = jB.p
        vA = jA.px[i0, j0, :3]
        vB = jB.px[i0, j0, :3]
        if inner(vA, vA, eps) < 1e-12 or inner(vB, vB, eps) < 1e-12:
            continue
        for reflect in (False, True):
            dist_factor = _aligned_factor_distance(PA[..., :3], vA, PB[..., :3], vB, eps, reflect)
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
    jA = sample_jet(chartA, X, Y)
    jB = sample_jet(chartB, X, Y)
    PA, PB = jA.p, jB.p
    i0, j0 = nx // 2, ny // 2
    # the second factor of profile charts is a curve: use its x-velocity
    vA2, vB2 = jA.px[i0, j0, 3:], jB.px[i0, j0, 3:]
    if inner(vA2, vA2, eps) < 1e-10:
        vA2, vB2 = jA.py[i0, j0, 3:], jB.py[i0, j0, 3:]
    vA1, vB1 = jA.px[i0, j0, :3], jB.px[i0, j0, :3]
    d1 = [_aligned_factor_distance(PA[..., :3], vA1, PB[..., :3], vB1, eps, r) for r in (False, True)]
    d2 = [_aligned_factor_distance(PA[..., 3:], vA2, PB[..., 3:], vB2, eps, r) for r in (False, True)]
    return float(min(max(a, b) for a in d1 for b in d2))
